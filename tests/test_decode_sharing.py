"""Decode once, render many: receivers of one packet run share its decode.

Every :class:`Depacketizer` fed the same :class:`DataPacket` objects hands
out the same immutable :class:`MediaUnit` objects — complete-object units
come from the packet's decode, reassembled objects from the memo on the
packet that completed them, reused only for the very same fragment
objects. What each receiver saw (duplicates, gaps, replay suppression,
loss) stays its own; the lossy cases here run on ``CHAOS_SEED``.
"""

import os
import random
from typing import Dict, List, Set, Tuple

import pytest

from repro.asf.packets import (
    DataPacket,
    Depacketizer,
    MediaUnit,
    Packetizer,
    Payload,
)
from repro.streaming.server import thin_packet

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def lecture_units(count: int = 12) -> List[List[MediaUnit]]:
    """Two media streams: fragmented video objects and small audio
    objects that share packets whole."""
    video = [
        MediaUnit(1, i, i * 100, i % 4 == 0, bytes([i % 251]) * (1500 + 37 * i))
        for i in range(count)
    ]
    audio = [
        MediaUnit(2, i, i * 100, True, bytes([200 - i]) * 90)
        for i in range(count)
    ]
    return [video, audio]


def packet_run(count: int = 12) -> List[DataPacket]:
    return Packetizer(packet_size=700).packetize(lecture_units(count))


def by_object(units) -> Dict[Tuple[int, int], bytes]:
    return {(u.stream_number, u.object_number): u.data for u in units}


def expected_objects(count: int = 12) -> Dict[Tuple[int, int], bytes]:
    return by_object(u for stream in lecture_units(count) for u in stream)


class ReferenceDepacketizer:
    """Per-receiver reassembly with no sharing: every object is rebuilt
    from this receiver's own fragments — the behaviour shared decode must
    reproduce unit for unit."""

    def __init__(self) -> None:
        self.fragments: Dict[Tuple[int, int], Dict[int, Payload]] = {}
        self.completed: List[MediaUnit] = []
        self.seen: Dict[int, Set[int]] = {}
        self.done: Dict[int, Set[int]] = {}
        self.sequences: Set[int] = set()

    def push_packet(self, packet: DataPacket) -> List[MediaUnit]:
        if packet.sequence in self.sequences:
            return []
        self.sequences.add(packet.sequence)
        finished = []
        for p in packet.payloads:
            stream, number = p.stream_number, p.object_number
            self.seen.setdefault(stream, set()).add(number)
            bucket = self.fragments.setdefault((stream, number), {})
            bucket[p.offset] = p
            if sum(len(f.data) for f in bucket.values()) < p.object_size:
                continue
            data = b"".join(bucket[o].data for o in sorted(bucket))
            del self.fragments[(stream, number)]
            unit = MediaUnit(
                stream, number, p.timestamp_ms, p.keyframe,
                data[: p.object_size],
            )
            finished.append(unit)
            self.completed.append(unit)
            self.done.setdefault(stream, set()).add(number)
        return finished

    def loss_report(self) -> Tuple[Dict[int, int], Dict[int, List[int]]]:
        delivered, lost = {}, {}
        for stream in set(self.seen) | set(self.done):
            done = self.done.get(stream, set())
            highest = max(self.seen.get(stream, set()) | done, default=-1)
            delivered[stream] = len(done)
            lost[stream] = sorted(set(range(highest + 1)) - done)
        return delivered, lost


def report_of(depacketizer: Depacketizer):
    report = depacketizer.loss_report()
    return dict(report.delivered), dict(report.lost)


def lossy_schedule(
    packets: List[DataPacket], rng: random.Random, *, loss: float,
    repair: bool,
) -> List[DataPacket]:
    """Arrival order with loss, duplication and reordering; ``repair``
    re-delivers every lost packet at the end, as a NAK round does."""
    arrivals, lost = [], []
    for packet in packets:
        if rng.random() < loss:
            lost.append(packet)
            continue
        arrivals.append(packet)
        if rng.random() < 0.05:
            arrivals.append(packet)  # duplicated datagram
    for i in range(len(arrivals) - 1):  # local reordering
        if rng.random() < 0.1:
            arrivals[i], arrivals[i + 1] = arrivals[i + 1], arrivals[i]
    if repair:
        rng.shuffle(lost)
        arrivals.extend(lost)
    return arrivals


class TestSharedUnits:
    def test_two_receivers_get_the_same_unit_objects(self):
        packets = packet_run()
        a, b = Depacketizer(), Depacketizer()
        for packet in packets:
            got_a = a.push_packet(packet)
            got_b = b.push_packet(packet)
            assert len(got_a) == len(got_b)
            assert all(x is y for x, y in zip(got_a, got_b))
        assert by_object(a.completed) == expected_objects()
        fragmented = [u for u in a.completed if u.stream_number == 1]
        whole = [u for u in a.completed if u.stream_number == 2]
        assert fragmented and whole
        assert all(x is y for x, y in zip(a.completed, b.completed))

    def test_complete_object_unit_is_the_packets_decode(self):
        packets = packet_run()
        d = Depacketizer()
        for packet in packets:
            decoded_units = [e[3] for e in packet.decoded() if e[3] is not None]
            for unit in decoded_units:
                assert unit.data is next(
                    p.data for p in packet.payloads
                    if (p.stream_number, p.object_number)
                    == (unit.stream_number, unit.object_number)
                )
            d.push_packet(packet)
            assert packet.decoded() is packet.decoded()

    def test_fragment_set_is_checked_by_identity(self):
        """Same completing packet, different earlier fragment: the memo
        must not hand the first receiver's unit to the second."""
        tail = Payload(1, 0, 4, 8, 0, True, b"TAIL")
        head_a = Payload(1, 0, 0, 8, 0, True, b"AAAA")
        head_b = Payload(1, 0, 0, 8, 0, True, b"BBBB")
        last = DataPacket(1, 10, [tail], packet_size=600)
        a, b, c = Depacketizer(), Depacketizer(), Depacketizer()
        a.push_packet(DataPacket(0, 0, [head_a], packet_size=600))
        b.push_packet(DataPacket(0, 0, [head_b], packet_size=600))
        c.push_packet(DataPacket(0, 0, [head_a], packet_size=600))
        (unit_a,) = a.push_packet(last)
        (unit_b,) = b.push_packet(last)
        (unit_c,) = c.push_packet(last)
        assert unit_a.data == b"AAAATAIL"
        assert unit_b.data == b"BBBBTAIL"
        # the memo now holds b's join; c's fragments are a's objects
        assert unit_c.data == b"AAAATAIL"


class TestReassembly:
    def test_out_of_order_fragments_match_in_order(self):
        packets = packet_run()
        in_order, shuffled = Depacketizer(), Depacketizer()
        for packet in packets:
            in_order.push_packet(packet)
        arrivals = list(packets)
        random.Random(CHAOS_SEED).shuffle(arrivals)
        for packet in arrivals:
            shuffled.push_packet(packet)
        assert by_object(shuffled.completed) == by_object(in_order.completed)
        assert by_object(shuffled.completed) == expected_objects()

    @pytest.mark.parametrize("repair", [False, True], ids=["lossy", "nak"])
    def test_matches_per_receiver_reference(self, repair):
        packets = packet_run(24)
        rng = random.Random(1000 * CHAOS_SEED + repair)
        clean = Depacketizer()
        for packet in packets:
            clean.push_packet(packet)  # warms every packet's memo
        for _ in range(4):
            arrivals = lossy_schedule(packets, rng, loss=0.15, repair=repair)
            shared, reference = Depacketizer(), ReferenceDepacketizer()
            for packet in arrivals:
                got = shared.push_packet(packet)
                want = reference.push_packet(packet)
                assert got == want
            assert shared.completed == reference.completed
            assert report_of(shared) == reference.loss_report()
            if repair:
                assert by_object(shared.completed) == expected_objects(24)
                assert all(not lost for lost in report_of(shared)[1].values())

    def test_loss_report_names_exactly_the_lost_objects(self):
        packets = packet_run()
        dropped = packets[3]
        d = Depacketizer()
        for packet in packets:
            if packet is not dropped:
                d.push_packet(packet)
        delivered, lost = report_of(d)
        hit = {(p.stream_number, p.object_number) for p in dropped.payloads}
        assert {(s, n) for s, numbers in lost.items() for n in numbers} == hit
        total = len(expected_objects())
        assert sum(delivered.values()) == total - len(hit)


class TestFork:
    def test_fork_mid_object_decodes_on_both_sides(self):
        packets = packet_run()
        gaps: List[List[int]] = []
        original = Depacketizer(on_gap=gaps.append)
        # stop inside a fragmented object
        cut = next(
            i for i, p in enumerate(packets)
            if any(not pl.is_complete_object for pl in p.payloads)
        ) + 1
        for packet in packets[:cut]:
            original.push_packet(packet)
        twin = original.fork()
        assert twin.on_gap is None
        assert twin.completed == original.completed
        assert all(x is y for x, y in zip(twin.completed, original.completed))
        for packet in packets[cut:]:
            got = original.push_packet(packet)
            assert all(x is y for x, y in zip(twin.push_packet(packet), got))
        for side in (original, twin):
            assert by_object(side.completed) == expected_objects()
            assert all(not lost for lost in report_of(side)[1].values())
        assert gaps == []

    def test_fork_state_is_independent(self):
        packets = packet_run()
        original = Depacketizer()
        for packet in packets[:5]:
            original.push_packet(packet)
        twin = original.fork()
        for packet in packets[5:]:
            twin.push_packet(packet)
        assert len(original.completed) < len(twin.completed)
        assert report_of(original) != report_of(twin)
        # the original still reassembles what the twin already finished
        for packet in packets[5:]:
            original.push_packet(packet)
        assert by_object(original.completed) == by_object(twin.completed)


class TestRewrittenPackets:
    def test_mbr_thinned_packets_decode(self):
        packets = packet_run()
        thinned = [thin_packet(p, frozenset({1})) for p in packets]
        thin = [kept[0] for kept in thinned if kept is not None]
        assert thin and all(
            pl.stream_number == 2 for t in thin for pl in t.payloads
        )
        a, b = Depacketizer(), Depacketizer()
        for packet in thin:
            got = a.push_packet(packet)
            assert all(x is y for x, y in zip(b.push_packet(packet), got))
        want = {k: v for k, v in expected_objects().items() if k[0] == 2}
        assert by_object(a.completed) == want

    def test_live_packets_rebased_after_decode(self):
        """Rebasing rewrites sequence and send time, not payloads: the
        decode stays valid and shared."""
        packets = packet_run()
        first = Depacketizer()
        for packet in packets:
            first.push_packet(packet)
        for packet in packets:
            packet.sequence += 1000
            packet.send_time_ms += 5000
        second = Depacketizer()
        for packet in packets:
            second.push_packet(packet)
        assert all(x is y for x, y in zip(first.completed, second.completed))

    def test_changed_payload_list_is_decoded_again(self):
        old = Payload(1, 0, 0, 3, 0, True, b"old")
        packet = DataPacket(0, 0, [old], packet_size=600)
        (before,) = Depacketizer().push_packet(packet)
        packet.payloads[0] = Payload(1, 0, 0, 3, 0, True, b"new")
        (after,) = Depacketizer().push_packet(packet)
        assert (before.data, after.data) == (b"old", b"new")


class TestReplaySuppression:
    def test_suppress_completed_still_suppresses(self):
        packets = packet_run()
        d = Depacketizer()
        for packet in packets:
            d.push_packet(packet)
        completed = list(d.completed)
        d.expect_replay(suppress_completed=True)
        for packet in packets:
            assert d.push_packet(packet) == []
        assert d.completed == completed
        assert d.suppressed_duplicates == sum(len(p.payloads) for p in packets)

    def test_suppression_spares_what_was_lost(self):
        packets = packet_run()
        dropped = packets[4]
        d = Depacketizer()
        for packet in packets:
            if packet is not dropped:
                d.push_packet(packet)
        d.expect_replay(suppress_completed=True)
        resurfaced: List[MediaUnit] = []
        for packet in packets:
            resurfaced += d.push_packet(packet)
        lost = {(p.stream_number, p.object_number) for p in dropped.payloads}
        assert {(u.stream_number, u.object_number) for u in resurfaced} == lost
        assert by_object(d.completed) == expected_objects()
