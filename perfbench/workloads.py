"""The benchmark's workloads, each built from a seed.

``flash_100k``, ``longtail_tree`` (cohort mode) and ``longtail_real``
(real mode) drive :func:`repro.load.run_workload`; ``publish_grid`` drives
:class:`repro.lod.LODPublisher`. :func:`run` executes one repetition and
returns a JSON-ready record: timings, exact work counters, simulated QoE,
viewer ops and the correctness verdict.
"""

from __future__ import annotations

import random
import resource
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.asf import EncodeCache, EncodeFarm
from repro.catalog import CatalogIndex
from repro.load import LoadConfig, WorkloadSpec, harness, lecture_catalog
from repro.load import workload as load_workload
from repro.lod import Lecture, LODPublisher
from repro.lod.lecture import LectureSegment
from repro.media import get_profile
from repro.media.objects import ImageObject
from repro.metrics import get_counters
from repro.obs import TraceChecker
from repro.streaming import BackboneBudget, MediaServer
from repro.web import VirtualNetwork

from .probes import Capture, SetupDone
from .verify import (
    check_player,
    first_difference,
    grid_digest,
    quantile,
    reference_units,
)

MiB = 1024 * 1024


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def flash_inputs(seed: int, size: str) -> Tuple[WorkloadSpec, LoadConfig]:
    """100k modeled viewers flash-crowding 4 lectures on 4 flat edges."""
    viewers, count, duration = (
        (100_000, 4, 20.0) if size == "full" else (3_000, 2, 20.0)
    )
    spec = WorkloadSpec(
        viewers=viewers,
        lectures=lecture_catalog(count, duration, stagger=2.0),
        seed=seed,
        zipf_s=1.1,
        flash_fraction=0.9,
        flash_width=2.0,
        churn_rate=0.0005,
        seek_rate=0.0005,
        join_quantum=0.5,
    )
    return spec, LoadConfig(edges=4, heartbeat_interval=1.0)


def longtail_inputs(seed: int, size: str) -> Tuple[WorkloadSpec, LoadConfig]:
    """2,000 real players browsing 48 short lectures over a relay tree."""
    viewers, count, regions, edges = (
        (2_000, 48, 4, 64) if size == "full" else (120, 8, 2, 8)
    )
    spec = WorkloadSpec(
        viewers=viewers,
        lectures=lecture_catalog(count, 6.0, stagger=1.0),
        seed=seed,
        zipf_s=0.8,
        flash_fraction=0.3,
        flash_width=2.0,
        churn_rate=0.10,
        seek_rate=0.10,
        join_quantum=0.5,
    )
    config = LoadConfig(
        edges=edges,
        regions=regions,
        prefetch=False,
        cache_bytes=2 * MiB,
        cache_admission=True,
        admission_seed=seed,
        backbone_budget=BackboneBudget(),
        teardown=True,
    )
    return spec, config


def tree_inputs(seed: int, size: str) -> Tuple[WorkloadSpec, LoadConfig]:
    """Cohort viewers on a long-tail catalog over a relay tree whose
    small TinyLFU caches force the sibling -> parent -> origin cascade."""
    viewers, count, regions, edges = (
        (600, 16, 4, 32) if size == "full" else (200, 6, 2, 4)
    )
    spec = WorkloadSpec(
        viewers=viewers,
        lectures=lecture_catalog(count, 10.0, stagger=1.0),
        seed=seed,
        zipf_s=0.8,
        flash_fraction=0.3,
        flash_width=2.0,
        churn_rate=0.02,
        seek_rate=0.02,
        join_quantum=0.5,
    )
    config = LoadConfig(
        edges=edges,
        regions=regions,
        prefetch=False,
        cache_bytes=2 * MiB,
        cache_admission=True,
        admission_seed=seed,
        backbone_budget=BackboneBudget(),
        heartbeat_interval=1.0,
        teardown=True,
    )
    return spec, config


GRID_DURATIONS = (20, 10, 15, 5, 20, 10, 15, 5)
GRID_IMPORTANCES = (0, 1, 2, 3, 0, 1, 2, 3)
GRID_RENDITIONS = ("modem-56k", "dsl-256k", "lan-1m")
EDITED_SIZES = ((640, 480), (800, 600), (1024, 768))


def grid_inputs(seed: int, size: str) -> List[Tuple[Lecture, Lecture]]:
    """``(lecture, edited lecture)`` pairs: 8 slides over 4 levels each.

    The lectures share their talk, so the segment cache serves most of
    every lecture after the first. The seed picks which slide of each
    lecture is edited and the edited image's resolution; the amount of
    work hardly depends on the seed.
    """
    rng = random.Random(seed)
    count, durations, importances = (
        (4, GRID_DURATIONS, GRID_IMPORTANCES) if size == "full"
        else (2, (4, 2, 3, 1), (0, 1, 0, 1))
    )
    pairs = []
    for i in range(count):
        lecture = Lecture.from_slide_durations(
            f"Lecture {i}", "Prof", durations, importances=importances,
            slide_width=320, slide_height=240,
        )
        index = rng.randrange(len(durations))
        size_px = rng.choice(EDITED_SIZES)
        pairs.append((lecture, edit_slide(lecture, index, size_px)))
    return pairs


def edit_slide(
    lecture: Lecture, index: int, size_px: Tuple[int, int]
) -> Lecture:
    """The republish-after-editing case: one slide image replaced by one
    at another resolution (the codecs encode by size, not by name)."""
    segments = []
    for i, seg in enumerate(lecture.segments):
        slide = seg.slide
        if i == index:
            slide = ImageObject(
                f"{slide.name}-edited", seg.duration,
                width=size_px[0], height=size_px[1],
            )
        segments.append(LectureSegment(
            seg.name, slide, seg.start, seg.duration, seg.importance,
        ))
    return Lecture(
        title=lecture.title, author=lecture.author, video=lecture.video,
        audio=lecture.audio, segments=segments,
    )


#: serving workload -> (inputs, harness mode)
SERVING = {
    "flash_100k": (flash_inputs, "cohort"),
    "longtail_real": (longtail_inputs, "real"),
    "longtail_tree": (tree_inputs, "cohort"),
}


def grid_renditions(size: str):
    names = GRID_RENDITIONS if size == "full" else GRID_RENDITIONS[:2]
    return [get_profile(name) for name in names]


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(
    name: str, seed: int, size: str, *, started: float, capture: Capture,
    tracer: Any, oracle: bool, timed_end: Callable[[], None],
) -> Dict[str, Any]:
    """One repetition; ``started`` is the perf_counter reading taken when
    the repetition began (before the program was imported). ``timed_end``
    is called when the timed phase is over, before any verification. With
    ``capture.setup_only`` the repetition ends at the first scripted action
    and the record holds only ``setup_s``."""
    if name == "publish_grid":
        return _run_grid(
            seed, size, started, tracer=tracer, oracle=oracle,
            timed_end=timed_end, setup_only=capture.setup_only,
        )
    try:
        return _run_serving(
            name, seed, size, started, capture, tracer=tracer,
            timed_end=timed_end,
        )
    except SetupDone:
        return {"setup_s": capture.first_action - started}


def _run_serving(
    name: str, seed: int, size: str, started: float, capture: Capture, *,
    tracer: Any, timed_end: Callable[[], None],
) -> Dict[str, Any]:
    inputs, mode = SERVING[name]
    spec, config = inputs(seed, size)
    config.tracer = tracer
    script = load_workload.generate(spec)
    result = harness.run_workload(
        script, mode=mode, config=config, keep_tier=True
    )
    run_cpu_s = time.process_time() - (capture.first_action_cpu or 0.0)
    peak = _peak_rss_mb()
    timed_end()
    if capture.first_action is None:
        raise RuntimeError("the run issued no scripted action")

    tier = result.tier
    references = {
        point: reference_units(tier.origin.points[point].content)
        for point in (lecture.name for lecture in spec.lectures)
    }
    audit = _audit_viewers(mode, script, capture, references)

    edge_bag = get_counters("edge_cache").as_dict()
    farm_bag = get_counters("encode_farm").as_dict()
    servers = [tier.origin, *tier.relays, *tier.parents.values()]
    budget = config.backbone_budget
    counters = {
        "net.events": result.events_processed,
        "net.events_leapt": result.events_leapt,
        "net.cancelled_drained": result.cancelled_drained,
        "edge.fills_origin": edge_bag.get("origin_fills", 0),
        "edge.fills_parent": edge_bag.get("parent_fills", 0),
        "edge.fills_sibling": edge_bag.get("sibling_fills", 0),
        "edge.hits": edge_bag.get("hits", 0),
        "edge.misses": edge_bag.get("misses", 0),
        "edge.evictions": edge_bag.get("evictions", 0),
        "edge.admission_rejected": edge_bag.get("admission_rejected", 0),
        "web.round_trips": capture.round_trips,
        "origin_egress_bytes": result.control["origin"]["bytes_served"],
        "farm.jobs": farm_bag.get("jobs", 0),
        "farm.encodes": farm_bag.get("encodes", 0),
        "farm.dedup_hits": farm_bag.get("dedup_hits", 0),
        "farm.cache_hits": farm_bag.get("cache_hits", 0),
        "load.cohorts": result.cohorts,
        "load.splits": result.splits,
        "load.departures": result.departures,
        "server.sessions": sum(s.sessions.total_created for s in servers),
        "server.bytes_served": sum(s.bytes_served for s in servers),
        "backbone.reservations": (
            budget.counters.get("reservations") if budget is not None else 0
        ),
        "ops.failed": audit["failed"],
    }
    out = {
        "setup_s": capture.first_action - started,
        "run_s": result.wall_s,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mb": peak,
        "counters": counters,
        "sim": audit["sim"],
        "attempted": audit["attempted"],
        "failed": audit["failed"],
        "problems": audit["problems"],
        "failures": audit["failures"],
    }
    if tracer is not None:
        out["trace_problems"] = TraceChecker(tracer.records).check()[:5]
    return out


def _seeks_first(arrival, first_render) -> bool:
    """Whether a viewer's scripted seek came before its first render, so
    that its playback need not start at the head of the lecture."""
    return arrival.seek is not None and (
        first_render is None or arrival.seek[0] < first_render
    )


def _audit_viewers(mode, script, capture: Capture, references) -> Dict[str, Any]:
    """Run the correctness gate over every player; derive QoE and ops."""
    # (player, viewers it stands for at the end, lecture, seeks allowed,
    #  leaves, scripted due time, viewers counted for startup, viewer ids,
    #  whether the head of the lecture is due)
    rows: List[tuple] = []
    #: id(cohort) -> every member it was planned with
    members_of: Dict[int, List[str]] = {}
    if mode == "cohort":
        if capture.plans is None or len(capture.plans) != len(capture.cohorts):
            raise RuntimeError("cohort plans and viewers do not line up")
        for plan, cohort in zip(capture.plans, capture.cohorts):
            members_of[id(cohort)] = [m.viewer for m in plan.members]
            departed = {qoe.client for qoe in cohort.departed}
            remaining = [
                m for m in plan.members
                if m.viewer not in cohort.splits and m.viewer not in departed
            ]
            first = cohort.delegate._first_render
            early = sum(
                1 for m in plan.members
                if m.leave_time is not None
                and (first is None or m.leave_time < first)
            )
            rows.append((
                cohort.delegate, len(remaining), plan.lecture,
                1 if any(m.seek for m in remaining) else 0,
                all(m.leave_time is not None for m in remaining),
                plan.join_time, plan.multiplicity - early,
                [m.viewer for m in remaining],
                not any(_seeks_first(m, first) for m in remaining),
            ))
            for viewer, twin in cohort.splits.items():
                # a twin starts at its seek target, so no head is due;
                # its startup is its cohort's, already counted
                rows.append((twin, 1, plan.lecture, 1, False,
                             plan.join_time, 0, [viewer], False))
        attempted = sum(plan.multiplicity for plan in capture.plans)
    else:
        by_viewer = {a.viewer: a for a in script.arrivals}
        for player in capture.players:
            arrival = by_viewer[player.user]
            first = player._first_render
            counted = 0 if (
                arrival.leave_time is not None
                and (first is None or arrival.leave_time < first)
            ) else 1
            rows.append((
                player, 1, arrival.lecture, 1 if arrival.seek else 0,
                arrival.leave_time is not None, arrival.join_time, counted,
                [arrival.viewer], not _seeks_first(arrival, first),
            ))
        attempted = len(script.arrivals)

    viewers_of = {id(row[0]): row[7] for row in rows}
    failed_members: set = set()
    failures = []
    for owner, op, member, error in capture.failures:
        failures.append(f"{op} by {getattr(owner, 'user', '')}: {error}")
        if member:
            failed_members.add(member)
        else:
            failed_members.update(
                members_of.get(id(owner)) or viewers_of.get(id(owner), [])
            )

    problems: List[str] = []
    startups: List[Tuple[float, int]] = []
    lateness: List[Tuple[float, int]] = []
    rendered = due = 0
    rebuffer = watched = 0.0
    for (player, weight, lecture, seeks, leaves, due_at, counted, viewers,
         head_due) in rows:
        check = check_player(
            player, references[lecture], seeks=seeks, leaves=leaves,
            head_due=head_due,
        )
        if check.problems:
            problems.extend(check.problems)
            failed_members.update(viewers)
        if counted and player._first_render is not None:
            startups.append((player._first_render - due_at, counted))
        if counted and player._connect_time is not None:
            lateness.append((player._connect_time - due_at, counted))
        if weight:
            rendered += weight * check.rendered
            due += weight * check.due
            report = player.report()
            rebuffer += weight * report.rebuffer_time
            watched += weight * report.duration_watched
    sim = {
        "startup_p50_s": quantile(startups, 0.50),
        "startup_p99_s": quantile(startups, 0.99),
        "rebuffer_ratio": rebuffer / watched if watched else 0.0,
        "delivery_ratio": rendered / due if due else 1.0,
        "lateness_p99_s": quantile(lateness, 0.99),
        "startup_viewers": sum(weight for _, weight in startups),
    }
    return {
        "sim": sim,
        "attempted": attempted,
        "failed": len(failed_members),
        "problems": problems[:20],
        "failures": failures[:20],
    }


def _run_grid(
    seed: int, size: str, started: float, *, tracer: Any, oracle: bool,
    timed_end: Callable[[], None], setup_only: bool,
) -> Dict[str, Any]:
    pairs = grid_inputs(seed, size)
    renditions = grid_renditions(size)
    net = VirtualNetwork()
    origin = MediaServer(net, "origin", port=8080)
    farm = EncodeFarm(0)
    publisher = LODPublisher(
        origin, renditions=renditions, farm=farm, cache=EncodeCache(),
        catalog=CatalogIndex(), tracer=tracer,
    )
    setup_done = time.perf_counter()
    if setup_only:
        return {"setup_s": setup_done - started}
    cpu_start = time.process_time()
    first = [
        publisher.publish(lecture, f"lec{i}")
        for i, (lecture, _) in enumerate(pairs)
    ]
    second = [
        publisher.publish(edited, f"lec{i}", replace=True)
        for i, (_, edited) in enumerate(pairs)
    ]
    run_s = time.perf_counter() - setup_done
    run_cpu_s = time.process_time() - cpu_start
    peak = _peak_rss_mb()
    timed_end()

    problems: List[str] = []
    variants = sum(len(r.variants) for r in first + second)
    if len(publisher.catalog) != sum(len(r.variants) for r in second):
        problems.append("catalog does not index every published variant")
    for result in second:
        for variant in result.variants.values():
            if origin.points[variant.point].content is not variant.asf:
                problems.append(f"origin does not serve {variant.point}")
    counters = {
        "farm.jobs": farm.counters.get("jobs"),
        "farm.encodes": farm.encodes_performed,
        "farm.dedup_hits": farm.dedup_hits,
        "farm.cache_hits": farm.cache_hits,
        "grid.variants": variants,
        "grid.packets": sum(
            v.asf.packet_count for r in first + second
            for v in r.variants.values()
        ),
        "grid.digest": grid_digest(first + second),
        "origin_egress_bytes": origin.bytes_served,
    }
    oracle_started = time.perf_counter()
    if oracle:
        # cold oracle: both cached publishes must be byte-identical to
        # publishing the same lectures with no reuse at all
        for label, results, index in (("publish", first, 0),
                                      ("republish", second, 1)):
            cold = LODPublisher(renditions=renditions, farm=EncodeFarm(0))
            expected = [
                cold.publish(pair[index], f"lec{i}")
                for i, pair in enumerate(pairs)
            ]
            diff = first_difference(results, expected)
            if diff is not None:
                problems.append(f"{label} differs from a cold publish: {diff}")
    oracle_s = time.perf_counter() - oracle_started
    out = {
        "setup_s": setup_done - started,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mb": peak,
        "oracle_s": oracle_s,
        "counters": counters,
        "sim": {},
        "attempted": variants,
        "failed": len(problems),
        "problems": problems,
        "failures": [],
    }
    if tracer is not None:
        out["trace_problems"] = TraceChecker(tracer.records).check()[:5]
    return out

