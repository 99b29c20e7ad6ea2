"""Correctness gate for the serving workloads and digests for publishing.

The serving gate compares what every player rendered against the
published file, reassembled here from the packet payloads without the
program's :class:`~repro.asf.packets.Depacketizer` (the code under test).
For each player:

* every rendered unit must equal the published unit with the same stream
  and object number (timestamp, keyframe flag and bytes);
* on the densest stream (video) the rendered objects form runs of
  consecutive objects; a break between runs is allowed only where the
  script seeks;
* the runs' time windows say which units of every stream were due. The
  first window is widened to the start of the content, the earliest unit
  of any stream, unless the viewer's scripted seek came before its first
  render. For a viewer without a scripted leave, the last window is
  widened to the end of the content, the latest unit of any stream.
  Delivery is due units rendered over units due, and a viewer who stays
  must have rendered all of them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: stream number of the ASF script-command stream (never rendered)
from repro.asf.constants import SCRIPT_STREAM_NUMBER

Reference = Dict[int, Dict[int, Tuple[int, bool, bytes]]]


def reference_units(asf) -> Reference:
    """``{stream: {object: (timestamp_ms, keyframe, data)}}`` of a file."""
    parts: Dict[Tuple[int, int], list] = {}
    for packet in asf.packets:
        for payload in packet.payloads:
            key = (payload.stream_number, payload.object_number)
            entry = parts.get(key)
            if entry is None:
                entry = parts[key] = [
                    payload.timestamp_ms, payload.keyframe,
                    payload.object_size, {},
                ]
            entry[3][payload.offset] = payload.data
    units: Reference = {}
    for (stream, number), (ts, keyframe, size, pieces) in parts.items():
        if stream == SCRIPT_STREAM_NUMBER:
            continue
        data = b"".join(pieces[offset] for offset in sorted(pieces))
        units.setdefault(stream, {})[number] = (ts, keyframe, data[:size])
    return units


@dataclass
class PlayerCheck:
    rendered: int = 0
    due: int = 0
    problems: List[str] = field(default_factory=list)


def check_player(
    player, reference: Reference, *, seeks: int, leaves: bool,
    head_due: bool = True,
) -> PlayerCheck:
    """Audit one player's rendered trail against the published file.

    ``head_due`` is False when the viewer's scripted seek came before its
    first render, so its playback need not start at the beginning."""
    out = PlayerCheck()
    seen: Dict[int, set] = {stream: set() for stream in reference}
    trail: List[int] = []
    anchor = max(reference, key=lambda stream: len(reference[stream]))
    for rendered in player.rendered:
        unit = rendered.unit
        expected = reference.get(unit.stream_number, {}).get(
            unit.object_number
        )
        if expected != (unit.timestamp_ms, unit.keyframe, unit.data):
            out.problems.append(
                f"{player.user}: stream {unit.stream_number} object "
                f"{unit.object_number} differs from the published file"
            )
            continue
        seen[unit.stream_number].add(unit.object_number)
        if unit.stream_number == anchor:
            trail.append(unit.object_number)
    # runs of consecutive objects on the densest stream mark what the
    # viewer watched; a break is a seek
    published = reference[anchor]
    runs: List[List[int]] = []
    for number in trail:
        if runs and number == runs[-1][1] + 1:
            runs[-1][1] = number
        else:
            runs.append([number, number])
    if len(runs) - 1 > seeks:
        out.problems.append(
            f"{player.user}: {len(runs) - 1} breaks in playback for "
            f"{seeks} scripted seek(s)"
        )
    if not runs:
        if not leaves:
            out.problems.append(f"{player.user}: never rendered")
            out.due = sum(len(units) for units in reference.values())
        return out
    windows = [
        [published[start][0], published[end][0]] for start, end in runs
    ]
    stamps = [ts for units in reference.values() for ts, _, _ in units.values()]
    if head_due:
        windows[0][0] = min(stamps)
    if not leaves:
        windows[-1][1] = max(stamps)
    for stream, units in reference.items():
        for number, (ts, _, _) in units.items():
            if any(lo <= ts <= hi for lo, hi in windows):
                out.due += 1
                out.rendered += number in seen[stream]
    if not leaves and out.rendered < out.due:
        out.problems.append(
            f"{player.user}: delivered {out.rendered}/{out.due} units "
            "without a scripted leave"
        )
    return out


def grid_digest(results) -> str:
    """sha256 over every variant's wire image, in publish order."""
    digest = hashlib.sha256()
    for result in results:
        for key in sorted(result.variants):
            variant = result.variants[key]
            digest.update(variant.point.encode())
            digest.update(variant.asf.pack())
    return digest.hexdigest()


def first_difference(results, oracle) -> Optional[str]:
    """The first variant whose bytes differ between two publishes."""
    for got, want in zip(results, oracle):
        for key in sorted(want.variants):
            mine = got.variants.get(key)
            if mine is None or mine.asf.pack() != want.variants[key].asf.pack():
                return f"{want.point} level {key[0]} {key[1]}"
    return None


def quantile(values: List[Tuple[float, int]], q: float) -> float:
    """Weighted quantile of ``(value, weight)`` pairs (nearest rank)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    total = sum(weight for _, weight in ordered)
    rank = q * total
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= rank:
            return value
    return ordered[-1][0]
