"""ASF data packets: payloads, fragmentation, packetizer, depacketizer.

An ASF data section is a sequence of fixed-size packets, each carrying one
or more *payloads*; a payload is a fragment of one media object (an encoded
video frame, audio block, slide blob, or script command). Large objects are
fragmented across packets; small objects share packets. Packets have
constant-rate *send times*, which is how a server paces a stream to the
profile's bitrate.

* :class:`Payload` / :class:`DataPacket` — wire structures (binary
  round-trippable, fixed ``packet_size`` with padding).
* :class:`Packetizer` — multiplexes encoded streams + script commands into
  a paced packet sequence, interleaved by timestamp.
* :class:`Depacketizer` — reassembles objects per stream, tolerating
  packet loss and reporting exactly which objects were lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .constants import (
    ASFError,
    DEFAULT_PACKET_SIZE,
    MAX_STREAM_NUMBER,
    MIN_STREAM_NUMBER,
    SCRIPT_STREAM_NUMBER,
    TAG_PACKET,
)
from .script_commands import ScriptCommand, pack_command, unpack_command
from .wire import Reader, pack_u8, pack_u16, pack_u32, pack_u64, write_object

#: Fixed per-payload header size on the wire (see Payload.pack).
PAYLOAD_HEADER_SIZE = 1 + 4 + 4 + 4 + 8 + 1 + 4
#: Fixed per-packet overhead: the 8-byte object wrapper (tag + length)
#: plus the packet header fields (see DataPacket.pack).
PACKET_HEADER_SIZE = 8 + 4 + 4 + 8 + 1 + 2


@dataclass(frozen=True)
class Payload:
    """A fragment of one media object inside a packet."""

    stream_number: int
    object_number: int
    offset: int  # byte offset of this fragment within the object
    object_size: int  # total size of the (unfragmented) object
    timestamp_ms: int
    keyframe: bool
    data: bytes

    def __post_init__(self) -> None:
        if not MIN_STREAM_NUMBER <= self.stream_number <= MAX_STREAM_NUMBER:
            raise ASFError(f"bad stream number {self.stream_number}")
        if self.offset + len(self.data) > self.object_size:
            raise ASFError("payload fragment exceeds object size")

    @property
    def is_complete_object(self) -> bool:
        return self.offset == 0 and len(self.data) == self.object_size

    def pack(self) -> bytes:
        return (
            pack_u8(self.stream_number)
            + pack_u32(self.object_number)
            + pack_u32(self.offset)
            + pack_u32(self.object_size)
            + pack_u64(self.timestamp_ms)
            + pack_u8(1 if self.keyframe else 0)
            + pack_u32(len(self.data))
            + self.data
        )

    @classmethod
    def unpack(cls, reader: Reader) -> "Payload":
        stream = reader.u8()
        number = reader.u32()
        offset = reader.u32()
        size = reader.u32()
        ts = reader.u64()
        keyframe = bool(reader.u8())
        data = reader.blob()
        return cls(stream, number, offset, size, ts, keyframe, data)

    def wire_size(self) -> int:
        return PAYLOAD_HEADER_SIZE + len(self.data)


#: one payload's shared decode: (stream, object, payload, unit or None)
_Decoded = Tuple[int, int, Payload, Optional["MediaUnit"]]


@dataclass
class DataPacket:
    """One fixed-size packet: sequence number, send time, payloads.

    :meth:`pack` memoizes the wire image: payloads are frozen, so once the
    header fields and payload list settle (after packetization / live
    rebasing) the serialized form never changes — the server can ship the
    same ``bytes`` object to any number of clients without re-packing.

    :meth:`decoded` memoizes the receive side the same way: every
    :class:`Depacketizer` fed this packet object reads one shared decode
    and hands out the same immutable :class:`MediaUnit` objects, so a
    packet run played by many receivers is decoded once.
    """

    sequence: int
    send_time_ms: int
    payloads: List[Payload] = field(default_factory=list)
    packet_size: int = DEFAULT_PACKET_SIZE
    _wire: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )
    _wire_key: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _decode: Optional[Tuple["_Decoded", ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _decode_of: Optional[Tuple[Payload, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: (stream, object) -> (completing payload, fragments, unit) for the
    #: multi-fragment objects a receiver completed on this packet
    _joined: Optional[Dict[Tuple[int, int], tuple]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def used(self) -> int:
        return PACKET_HEADER_SIZE + sum(p.wire_size() for p in self.payloads)

    def free(self) -> int:
        return self.packet_size - self.used()

    def _state_key(self) -> tuple:
        # payloads are frozen, so their ids pin their contents for as long
        # as the list holds them; header fields are compared by value
        return (
            self.sequence,
            self.send_time_ms,
            self.packet_size,
            tuple(map(id, self.payloads)),
        )

    def pack(self) -> bytes:
        key = self._state_key()
        if self._wire is not None and self._wire_key == key:
            return self._wire
        body = (
            pack_u32(self.sequence)
            + pack_u32(self.packet_size)
            + pack_u64(self.send_time_ms)
            + pack_u8(len(self.payloads))
            + pack_u16(0)  # reserved
        )
        # note: the leading TAG+length (8 bytes) is part of PACKET_HEADER_SIZE
        for payload in self.payloads:
            body += payload.pack()
        padding = self.packet_size - (len(body) + 8)
        if padding < 0:
            raise ASFError(
                f"packet overflow: {len(body) + 8} > {self.packet_size}"
            )
        wire = write_object(TAG_PACKET, body + b"\x00" * padding)
        self._wire = wire
        self._wire_key = key
        return wire

    def decoded(self) -> Tuple["_Decoded", ...]:
        """Per payload ``(stream, object, payload, unit)``; ``unit`` is the
        ready-made :class:`MediaUnit` of a complete-object payload, None
        for a fragment.

        Built on first use and kept until the payload list changes (the
        key compares payloads, not the header, so a live packet rebased
        after decode keeps its decode). Receivers share the result."""
        payloads = tuple(self.payloads)
        if self._decode is not None and self._decode_of == payloads:
            return self._decode
        decode = tuple(
            (
                p.stream_number,
                p.object_number,
                p,
                MediaUnit(
                    p.stream_number,
                    p.object_number,
                    p.timestamp_ms,
                    p.keyframe,
                    p.data,
                )
                if p.is_complete_object
                else None,
            )
            for p in payloads
        )
        self._decode = decode
        self._decode_of = payloads
        self._joined = None
        return decode

    def joined_unit(
        self, payload: Payload, fragments: Dict[int, Payload]
    ) -> "MediaUnit":
        """The unit a receiver completes on this packet with ``payload``,
        from ``fragments`` (offset -> payload, ``payload`` among them).

        A receiver whose fragments are the very same payload objects as
        the last join here gets that join's unit; any other fragment set
        is joined afresh and becomes the memo."""
        key = (payload.stream_number, payload.object_number)
        joined = self._joined
        if joined is None:
            joined = self._joined = {}
        memo = joined.get(key)
        if memo is not None:
            last, parts, unit = memo
            if (
                last is payload
                and len(parts) == len(fragments)
                and all(fragments.get(p.offset) is p for p in parts)
            ):
                return unit
        if len(fragments) == 1:
            data = payload.data
        else:
            data = b"".join(
                fragments[offset].data for offset in sorted(fragments)
            )
        unit = MediaUnit(
            payload.stream_number,
            payload.object_number,
            payload.timestamp_ms,
            payload.keyframe,
            data[: payload.object_size],
        )
        joined[key] = (payload, tuple(fragments.values()), unit)
        return unit

    @classmethod
    def unpack_from(cls, reader: Reader) -> "DataPacket":
        body = reader.expect_object(TAG_PACKET)
        r = Reader(body)
        sequence = r.u32()
        packet_size = r.u32()
        send_time = r.u64()
        count = r.u8()
        r.u16()  # reserved
        payloads = [Payload.unpack(r) for _ in range(count)]
        return cls(sequence, send_time, payloads, packet_size)

    @classmethod
    def unpack(cls, data: bytes) -> "DataPacket":
        return cls.unpack_from(Reader(data))


@dataclass(frozen=True)
class MediaUnit:
    """Input to the packetizer / output of the depacketizer."""

    stream_number: int
    object_number: int
    timestamp_ms: int
    keyframe: bool
    data: bytes

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def timestamp(self) -> float:
        return self.timestamp_ms / 1000.0


def units_from_encoded(
    stream_number: int, encoded, *, materialize: bool = True
) -> List[MediaUnit]:
    """Adapt an :class:`~repro.media.codecs.EncodedStream` to media units.

    Units whose codec run skipped payload generation (``data=b""`` but a
    declared size) are *materialized* as zero bytes so wire sizes stay
    honest.
    """
    units = []
    for u in encoded.units:
        data = u.data
        if not data and materialize:
            data = b"\x00" * u.size
        units.append(
            MediaUnit(stream_number, u.index, round(u.timestamp * 1000), u.keyframe, data)
        )
    return units


def concat_unit_lists(
    parts: Sequence[Sequence[MediaUnit]], offsets_ms: Sequence[int]
) -> List[MediaUnit]:
    """Concatenate per-segment unit lists onto one presentation timeline.

    Each part's timestamps are shifted by its offset and object numbers are
    renumbered densely across the whole result — the invariant the
    :class:`Depacketizer` loss report relies on. This is how the publish
    pipeline assembles a per-level lecture variant from independently
    encoded (and independently cached) segment streams.
    """
    if len(parts) != len(offsets_ms):
        raise ASFError("concat needs one offset per part")
    out: List[MediaUnit] = []
    number = 0
    for units, offset in zip(parts, offsets_ms):
        for u in units:
            out.append(
                MediaUnit(
                    u.stream_number,
                    number,
                    u.timestamp_ms + offset,
                    u.keyframe,
                    u.data,
                )
            )
            number += 1
    return out


def units_from_commands(commands: Sequence[ScriptCommand]) -> List[MediaUnit]:
    """Script commands as payloads of the reserved command stream."""
    return [
        MediaUnit(SCRIPT_STREAM_NUMBER, i, c.timestamp_ms, True, pack_command(c))
        for i, c in enumerate(sorted(commands))
    ]


def command_from_unit(unit: MediaUnit) -> ScriptCommand:
    if unit.stream_number != SCRIPT_STREAM_NUMBER:
        raise ASFError("not a script-command unit")
    return unpack_command(Reader(unit.data))


class Packetizer:
    """Multiplexes media units into paced, fixed-size packets.

    Two pacing modes:

    * ``"bitrate"`` — constant spacing of ``packet_size·8/bitrate`` between
      send times (live chunks, where timestamps are rebased by the caller);
    * ``"duration"`` — send times spread uniformly across the content's
      timestamp span, so N seconds of media are sent in exactly N seconds
      *including* container overhead — how stored ASF files are paced
      (constant-bitrate pacing would systematically lag by the overhead
      fraction and starve long playbacks).
    """

    def __init__(
        self,
        *,
        packet_size: int = DEFAULT_PACKET_SIZE,
        bitrate: float = 300_000.0,
        pacing: str = "bitrate",
    ) -> None:
        if packet_size <= PACKET_HEADER_SIZE + PAYLOAD_HEADER_SIZE:
            raise ASFError(f"packet size {packet_size} too small to carry data")
        if bitrate <= 0:
            raise ASFError("bitrate must be positive")
        if pacing not in ("bitrate", "duration"):
            raise ASFError(f"unknown pacing mode {pacing!r}")
        self.packet_size = packet_size
        self.bitrate = bitrate
        self.pacing = pacing

    @property
    def packet_interval_ms(self) -> float:
        """Send-time spacing for constant-rate pacing."""
        return self.packet_size * 8 * 1000 / self.bitrate

    def packetize(self, streams: Iterable[Sequence[MediaUnit]]) -> List[DataPacket]:
        """Interleave all units by (timestamp, stream) and pack greedily."""
        units: List[MediaUnit] = []
        for stream_units in streams:
            units.extend(stream_units)
        units.sort(key=lambda u: (u.timestamp_ms, u.stream_number, u.object_number))

        packets: List[DataPacket] = []

        def new_packet() -> DataPacket:
            seq = len(packets)
            packet = DataPacket(
                sequence=seq,
                send_time_ms=round(seq * self.packet_interval_ms),
                packet_size=self.packet_size,
            )
            packets.append(packet)
            return packet

        current = new_packet()
        for unit in units:
            offset = 0
            total = len(unit.data)
            while True:
                space = current.free() - PAYLOAD_HEADER_SIZE
                if space <= 0:
                    current = new_packet()
                    continue
                fragment = unit.data[offset : offset + space]
                current.payloads.append(
                    Payload(
                        unit.stream_number,
                        unit.object_number,
                        offset,
                        total,
                        unit.timestamp_ms,
                        unit.keyframe,
                        fragment,
                    )
                )
                offset += len(fragment)
                if offset >= total:
                    break
                current = new_packet()
        filled = [p for p in packets if p.payloads]
        if self.pacing == "duration" and len(filled) > 1:
            max_ts = max(
                payload.timestamp_ms for p in filled for payload in p.payloads
            )
            for i, packet in enumerate(filled):
                packet.send_time_ms = round(i * max_ts / (len(filled) - 1))
        return filled


@dataclass
class LossReport:
    """What the depacketizer saw per stream."""

    delivered: Dict[int, int] = field(default_factory=dict)
    lost: Dict[int, List[int]] = field(default_factory=dict)

    def loss_rate(self, stream_number: int) -> float:
        got = self.delivered.get(stream_number, 0)
        missing = len(self.lost.get(stream_number, []))
        total = got + missing
        return missing / total if total else 0.0


class Depacketizer:
    """Reassembles media units from (possibly lossy) packet arrivals.

    ``on_gap`` (optional) fires when an arriving sequence number implies
    earlier packets were skipped, with the sorted list of missing
    sequences — the hook the client's NAK loop
    (:mod:`repro.streaming.recovery`) hangs off.

    Units come from the packets' shared decode (:meth:`DataPacket.decoded`,
    :meth:`DataPacket.joined_unit`), so receivers of one packet run hold
    references to the same immutable units. Everything that depends on
    what *this* receiver saw — duplicate and gap detection, replay
    suppression, the loss-report sets, ``completed`` and in-flight
    fragments — stays here.
    """

    def __init__(
        self, *, on_gap: Optional[Callable[[List[int]], None]] = None
    ) -> None:
        #: in-flight objects: (stream, object) -> {offset: payload}
        self._fragments: Dict[Tuple[int, int], Dict[int, Payload]] = {}
        #: running reassembled byte count per in-flight object
        self._have: Dict[Tuple[int, int], int] = {}
        self.completed: List[MediaUnit] = []
        #: per stream, object numbers seen as fragments; complete objects
        #: are recorded in ``_completed_objects`` only (loss_report unions)
        self._seen_objects: Dict[int, set] = {}
        self._completed_objects: Dict[int, set] = {}
        self._seen_sequences: set = set()
        self._max_sequence: Optional[int] = None
        self._suppress_completed = False
        self.suppressed_duplicates = 0
        self.on_gap = on_gap

    def fork(self) -> "Depacketizer":
        """An independent copy of this receiver's state: the containers are
        copied, the immutable units and payloads in them are shared.
        ``on_gap`` is left unset — it belongs to the original's owner."""
        twin = Depacketizer()
        twin._fragments = {
            key: dict(bucket) for key, bucket in self._fragments.items()
        }
        twin._have = dict(self._have)
        twin.completed = list(self.completed)
        twin._seen_objects = {
            s: set(numbers) for s, numbers in self._seen_objects.items()
        }
        twin._completed_objects = {
            s: set(numbers) for s, numbers in self._completed_objects.items()
        }
        twin._seen_sequences = set(self._seen_sequences)
        twin._max_sequence = self._max_sequence
        twin._suppress_completed = self._suppress_completed
        twin.suppressed_duplicates = self.suppressed_duplicates
        return twin

    def expect_replay(self, *, suppress_completed: bool = False) -> None:
        """The source will intentionally re-send earlier packets (a seek):
        forget sequence history so the replay is not dropped as duplicate.

        ``suppress_completed=True`` additionally drops payloads of objects
        already reassembled — used when resuming after a server crash,
        where the replay overlaps content the client has already rendered
        and must not surface twice.
        """
        self._seen_sequences.clear()
        self._max_sequence = None
        self._suppress_completed = suppress_completed

    def push_packet(self, packet: DataPacket) -> List[MediaUnit]:
        """Feed one packet; returns units completed by it (in order).

        A packet whose sequence number was already delivered (a retransmit
        or duplicated datagram) is dropped whole — re-pushing it must not
        produce its units twice."""
        if packet.sequence in self._seen_sequences:
            return []
        self._seen_sequences.add(packet.sequence)
        if self.on_gap is not None and self._max_sequence is not None:
            if packet.sequence > self._max_sequence + 1:
                missing = [
                    seq
                    for seq in range(self._max_sequence + 1, packet.sequence)
                    if seq not in self._seen_sequences
                ]
                if missing:
                    self.on_gap(missing)
        if self._max_sequence is None or packet.sequence > self._max_sequence:
            self._max_sequence = packet.sequence
        finished: List[MediaUnit] = []
        fragments = self._fragments
        completed_objects = self._completed_objects
        for stream, number, payload, unit in packet.decoded():
            done = completed_objects.get(stream)
            if self._suppress_completed and done is not None and number in done:
                self.suppressed_duplicates += 1
                continue
            if unit is None or (stream, number) in fragments:
                unit = self._reassemble(packet, payload)
                if unit is None:
                    continue
            finished.append(unit)
            self.completed.append(unit)
            if done is None:
                done = completed_objects[stream] = set()
                # keeps loss_report's stream order that of first arrival
                self._seen_objects.setdefault(stream, set())
            done.add(number)
        return finished

    def _reassemble(
        self, packet: DataPacket, payload: Payload
    ) -> Optional[MediaUnit]:
        """File one fragment; the object's unit once every byte is in."""
        stream = payload.stream_number
        key = (stream, payload.object_number)
        seen = self._seen_objects.get(stream)
        if seen is None:
            seen = self._seen_objects[stream] = set()
        seen.add(payload.object_number)
        bucket = self._fragments.get(key)
        if bucket is None:
            bucket = self._fragments[key] = {}
        old = bucket.get(payload.offset)
        bucket[payload.offset] = payload
        # running byte count per object instead of re-summing the
        # whole bucket on every fragment (quadratic on large objects)
        have = self._have.get(key, 0) + len(payload.data)
        if old is not None:
            have -= len(old.data)
        if have < payload.object_size:
            self._have[key] = have
            return None
        del self._fragments[key]
        self._have.pop(key, None)
        return packet.joined_unit(payload, bucket)

    def units_for(self, stream_number: int) -> List[MediaUnit]:
        return [
            u for u in self.completed if u.stream_number == stream_number
        ]

    def loss_report(self) -> LossReport:
        """Lost = seen-or-implied object numbers never completed.

        Object numbers are dense per stream, so gaps below the maximum
        completed number are losses even if no fragment arrived at all.
        """
        report = LossReport()
        streams = set(self._seen_objects) | set(self._completed_objects)
        for stream in streams:
            done = self._completed_objects.get(stream, set())
            seen = self._seen_objects.get(stream, set())
            highest = max(seen | done, default=-1)
            expected = set(range(highest + 1))
            report.delivered[stream] = len(done)
            report.lost[stream] = sorted(expected - done)
        return report
