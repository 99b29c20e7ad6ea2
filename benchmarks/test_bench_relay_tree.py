"""Relay-tree bench — hierarchical fills vs the flat edge tier.

The headline measurement of the relay-tree PR. The same cold wave —
every edge in the deployment replicating a 20 s lecture from scratch —
served two ways:

* **flat** (PR 5): every edge fills straight from the origin, so a
  64-edge cold wave costs the origin 64 whole-run egresses across the
  backbone;
* **tree**: edges are grouped into regions under one parent relay each.
  The first leaf of a region warms its parent (one origin egress per
  *region*); every other leaf fills from a sibling or the warm parent.
  Fill-source attribution comes out of the ``edge_cache`` counters, and
  the whole wave is traced and audited — fill-loop freedom, backbone
  budget honesty — for chaos seeds 0-2.

Emits ``BENCH_relay_tree.json`` at the repo root and asserts the
acceptance bar: byte-identical replicas on every leaf, >= 4x origin
egress reduction, and a clean :class:`TraceChecker` pass per seed. Set
``BENCH_TREE_SMOKE=1`` for a CI-sized run (8 edges, 2 regions).
"""

import json
import os
import time
from pathlib import Path

from benchmarks._harness import run_once, throughput_fields

from repro.asf import ASFEncoder, EncoderConfig, slide_commands
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.metrics import format_table
from repro.metrics.counters import get_counters, reset_counters
from repro.obs import TraceChecker, Tracer
from repro.streaming import (
    BackboneBudget,
    MediaServer,
    build_edge_tier,
    build_relay_tree,
)
from repro.web import VirtualNetwork

SMOKE = bool(os.environ.get("BENCH_TREE_SMOKE"))
PROFILE = get_profile("dsl-256k")
DURATION = 20.0
QUANTUM = 0.5
EDGES = 8 if SMOKE else 64
REGIONS = 2 if SMOKE else 4
SEEDS = (0, 1, 2)
TARGET_EGRESS_FACTOR = 4.0
MAX_EVENTS = 20_000_000


def make_asf():
    slides = 4
    per_slide = DURATION / slides
    return ASFEncoder(EncoderConfig(profile=PROFILE)).encode_file(
        file_id="bench-lecture",
        video=VideoObject("talk", DURATION, width=320, height=240, fps=10),
        audio=AudioObject("voice", DURATION),
        images=[
            (ImageObject(f"s{i}", per_slide, width=320, height=240),
             i * per_slide)
            for i in range(slides)
        ],
        commands=slide_commands(
            [(f"s{i}", i * per_slide) for i in range(slides)]
        ),
    )


def blob_of(packets):
    return b"".join(p.pack() for p in packets)


def region_map():
    per_region = EDGES // REGIONS
    return {
        f"r{r}": [f"e{r}x{i}" for i in range(per_region)]
        for r in range(REGIONS)
    }


def serve_flat(asf):
    """Baseline cold wave: EDGES relays each fill from the origin."""
    reset_counters("edge_cache")
    net = VirtualNetwork()
    origin = MediaServer(
        net, "origin", port=8080,
        pacing_quantum=QUANTUM,
    )
    origin.publish("lecture", asf)
    directory, relays = build_edge_tier(
        net, origin, [f"edge{i}" for i in range(EDGES)],
        pacing_quantum=QUANTUM,
    )
    t0 = time.perf_counter()
    for relay in relays:
        relay.prefetch("lecture")
    wall = time.perf_counter() - t0
    origin_bytes = origin.bytes_served
    for relay in relays:
        relay.shutdown()
    net.simulator.run(max_events=MAX_EVENTS)
    assert len(origin.sessions) == 0
    return {
        "events": net.simulator.events_processed,
        "origin_bytes": origin_bytes,
        "origin_sessions": origin.sessions.total_created,
        "wall_s": wall,
    }


def serve_tree(asf, seed, reference):
    """Tree cold wave: the same EDGES leaves under REGIONS parents."""
    reset_counters("edge_cache")
    net = VirtualNetwork()
    tracer = Tracer(f"tree-bench-{seed}", clock=net.simulator)
    net.simulator.tracer = tracer
    origin = MediaServer(
        net, "origin", port=8080,
        pacing_quantum=QUANTUM,
        trace_label="origin", tracer=tracer,
    )
    origin.publish("lecture", asf)
    budget = BackboneBudget(tracer=tracer)
    directory, parents, leaves = build_relay_tree(
        net, origin, region_map(),
        pacing_quantum=QUANTUM, seed=seed,
        backbone_budget=budget, tracer=tracer,
    )

    t0 = time.perf_counter()
    for leaf in leaves:
        leaf.prefetch("lecture")
    wall = time.perf_counter() - t0
    origin_bytes = origin.bytes_served

    # byte parity: every leaf's replica is identical to the origin run
    for leaf in leaves:
        assert blob_of(leaf.points["lecture"].content.packets) == reference

    # one viewer per region streams end to end through the tree
    sinks = []
    for r in range(REGIONS):
        leaf = leaves[r * (EDGES // REGIONS)]
        viewer = f"v{r}"
        net.connect(leaf.host, viewer, bandwidth=2_000_000, delay=0.02)
        sink = []
        session = leaf.open_session("lecture", viewer, sink.append)
        leaf.play(session.session_id, burst_factor=8.0)
        sinks.append(sink)
    net.simulator.run(max_events=MAX_EVENTS)
    for sink in sinks:
        assert blob_of(sink) == reference

    for leaf in leaves:
        leaf.shutdown()
    for parent in parents.values():
        parent.shutdown()
    net.simulator.run(max_events=MAX_EVENTS)
    assert len(origin.sessions) == 0
    budget.assert_no_leaks()
    checker = TraceChecker(tracer.records).assert_ok()
    return {
        "seed": seed,
        "events": net.simulator.events_processed,
        "origin_bytes": origin_bytes,
        "origin_sessions": origin.sessions.total_created,
        "wall_s": wall,
        "cache": dict(get_counters("edge_cache").as_dict()),
        "checker": checker.summary(),
    }


class TestRelayTreeScale:
    def test_bench_tree_vs_flat_cold_wave(self, benchmark):
        asf = make_asf()
        reference = blob_of(asf.packets)

        def compare():
            flat = serve_flat(asf)
            trees = [serve_tree(asf, seed, reference) for seed in SEEDS]
            return flat, trees

        flat, trees = run_once(benchmark, compare)
        tree = trees[0]
        egress_factor = flat["origin_bytes"] / tree["origin_bytes"]
        print(
            f"\n[tree] cold wave, {EDGES} edges, {REGIONS} regions, "
            f"{DURATION:.0f}s lecture:"
        )
        print(format_table(
            ["mode", "origin bytes", "origin sessions", "wall s"],
            [
                ["flat", flat["origin_bytes"], flat["origin_sessions"],
                 f"{flat['wall_s']:.3f}"],
                ["tree", tree["origin_bytes"], tree["origin_sessions"],
                 f"{tree['wall_s']:.3f}"],
            ],
        ))
        print(
            f"[tree] egress factor {egress_factor:.1f}x, "
            f"cache {tree['cache']}"
        )

        # -- acceptance bars -------------------------------------------
        # 1. the cold wave's origin egress shrank >= 4x: one egress per
        #    region replaces one per edge (byte parity asserted inside
        #    serve_tree for every leaf and every end-to-end viewer)
        assert egress_factor >= TARGET_EGRESS_FACTOR

        # 2. fill attribution: parents pulled the origin, first leaves
        #    pulled parents, everyone else pulled a sibling
        for result in trees:
            cache = result["cache"]
            assert cache["origin_fills"] == REGIONS
            assert cache["parent_fills"] == REGIONS
            assert cache["sibling_fills"] == EDGES - REGIONS
            assert cache["fills"] == EDGES + REGIONS
            assert result["origin_sessions"] == REGIONS

        # 3. the full tree audit holds for every chaos seed: no fill
        #    loops, backbone never over-reserved, every reservation
        #    released
        for result in trees:
            summary = result["checker"]
            assert summary["violations"] == 0
            assert summary["fill_requests_seen"] == EDGES + REGIONS
            assert summary["backbone_reservations"] == \
                summary["backbone_releases"] > 0

        _emit(relay_tree={
            "edges": EDGES,
            "regions": REGIONS,
            "flat_origin_bytes": flat["origin_bytes"],
            "tree_origin_bytes": tree["origin_bytes"],
            "egress_factor": egress_factor,
            "flat_origin_sessions": flat["origin_sessions"],
            "tree_origin_sessions": tree["origin_sessions"],
            "flat_wall_s": flat["wall_s"],
            "tree_wall_s": tree["wall_s"],
            "cache": tree["cache"],
            "seeds_audited": list(SEEDS),
            "checker": tree["checker"],
            "throughput": throughput_fields(tree["events"], tree["wall_s"]),
        })


def _emit(**section):
    """Merge a result section into BENCH_relay_tree.json at repo root."""
    path = Path(__file__).resolve().parent.parent / "BENCH_relay_tree.json"
    payload = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except ValueError:
            payload = {}
    payload.update(section)
    payload["config"] = {
        "duration_s": DURATION,
        "pacing_quantum_s": QUANTUM,
        "profile": "dsl-256k",
        "edges": EDGES,
        "regions": REGIONS,
        "seeds": list(SEEDS),
        "smoke": SMOKE,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
