"""Edge-tier scale bench — the distributed serving tier vs direct origin.

The headline measurement of the edge-relay PR. Two ways to serve the
same 20 s lecture to N viewers:

* **direct**: every viewer opens its own session against the origin —
  origin egress and simulator events grow with N, and viewers arriving
  staggered never coalesce into shared pacing groups;
* **edge tier**: viewers are consistent-hash-placed across E relays.
  Each relay pulls the packet run across the backbone **once**
  (request coalescing: one origin replica session per edge per point),
  caches it, and re-paces locally — ``join_quantum`` folds staggered
  arrivals into shared groups the origin could never form.

A second viewer wave after the first drains re-opens every point from
the **packet-run cache**: the origin sees control-plane opens only, not
one further media byte.

Emits ``BENCH_edge_scale.json`` at the repo root and asserts the
acceptance bar: byte-identical delivery, >= 4x origin egress reduction,
and fewer total simulator events than direct serving. Set
``BENCH_EDGE_SMOKE=1`` for a CI-sized run (2 edges, 12 clients).
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
from repro.streaming import MediaServer, build_edge_tier
from repro.web import VirtualNetwork

SMOKE = bool(os.environ.get("BENCH_EDGE_SMOKE"))
PROFILE = get_profile("dsl-256k")
DURATION = 20.0
QUANTUM = 0.5
EDGES = 2 if SMOKE else 8
CLIENTS = 12 if SMOKE else 64
STAGGER = 0.015  # seconds between viewer arrivals — defeats naive grouping
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


def stagger_wave(net, openers):
    """Schedule each opener STAGGER apart, run the sim dry, return sinks."""
    base = net.simulator.now
    for i, opener in enumerate(openers):
        net.simulator.schedule_at(base + STAGGER * (i + 1), opener)
    net.simulator.run(max_events=MAX_EVENTS)


def serve_direct(asf):
    """Baseline: two waves of CLIENTS staggered viewers straight against
    the origin — the same 2 x CLIENTS delivered streams the edge tier
    serves, so events and egress compare like for like."""
    net = VirtualNetwork()
    names = [f"c{i}" for i in range(CLIENTS)]
    for name in names:
        net.connect("origin", name, bandwidth=2_000_000, delay=0.02)
    origin = MediaServer(
        net, "origin", port=8080,
        pacing_quantum=QUANTUM,
    )
    origin.publish("lecture", asf)

    def run_wave():
        sinks = {name: [] for name in names}
        sessions = {}

        def opener(name):
            session = origin.open_session("lecture", name, sinks[name].append)
            sessions[name] = session.session_id
            origin.play(session.session_id)

        stagger_wave(net, [lambda n=n: opener(n) for n in names])
        for session_id in sessions.values():
            origin.close_session(session_id)
        return {
            n: b"".join(p.pack() for p in s) for n, s in sinks.items()
        }

    t0 = time.perf_counter()
    wave1 = run_wave()
    wave2 = run_wave()
    wall = time.perf_counter() - t0
    return {
        "events": net.simulator.events_processed,
        "origin_bytes": origin.bytes_served,
        "wall_s": wall,
        "wave1": wave1,
        "wave2": wave2,
    }


def serve_edge(asf):
    """EDGES relays, CLIENTS placed by the directory, two viewer waves."""
    reset_counters("edge_cache")
    net = VirtualNetwork()
    origin = MediaServer(
        net, "origin", port=8080,
        pacing_quantum=QUANTUM,
    )
    origin.publish("lecture", asf)
    directory, relays = build_edge_tier(
        net, origin, [f"edge{i}" for i in range(EDGES)],
        pacing_quantum=QUANTUM, join_quantum=QUANTUM,
    )
    by_name = {r.name: r for r in relays}
    assignment = {}
    for i in range(CLIENTS):
        name = f"c{i}"
        relay = by_name[directory.place(f"{name}|lecture")]
        assignment[name] = relay
        net.connect(relay.host, name, bandwidth=2_000_000, delay=0.02)

    # pre-warm: each relay replicates the run across the backbone ONCE
    t0 = time.perf_counter()
    for relay in relays:
        relay.prefetch("lecture")
    fill_bytes = origin.bytes_served

    def run_wave():
        sinks = {name: [] for name in assignment}
        sessions = {}

        def opener(name):
            relay = assignment[name]
            session = relay.open_session("lecture", name, sinks[name].append)
            sessions[name] = (relay, session.session_id)
            relay.play(session.session_id)

        stagger_wave(net, [lambda n=n: opener(n) for n in assignment])
        for relay, session_id in sessions.values():
            relay.close_session(session_id)  # drain: release the points
        return {
            n: b"".join(p.pack() for p in s) for n, s in sinks.items()
        }

    wave1 = run_wave()
    wave1_bytes = origin.bytes_served
    wave2 = run_wave()  # every refill must come from the packet-run cache
    wall = time.perf_counter() - t0
    return {
        "events": net.simulator.events_processed,
        "fill_bytes": fill_bytes,
        "origin_bytes_after_wave1": wave1_bytes,
        "origin_bytes_after_wave2": origin.bytes_served,
        "wall_s": wall,
        "wave1": wave1,
        "wave2": wave2,
        "cache": dict(get_counters("edge_cache").as_dict()),
        "spread": sorted(
            sum(1 for r in assignment.values() if r is relay)
            for relay in relays
        ),
    }


class TestEdgeScale:
    def test_bench_edge_tier_vs_direct(self, benchmark):
        asf = make_asf()
        reference = b"".join(p.pack() for p in asf.packets)

        def compare():
            return serve_direct(asf), serve_edge(asf)

        direct, edge = run_once(benchmark, compare)

        egress_factor = direct["origin_bytes"] / edge["origin_bytes_after_wave1"]
        print(
            f"\n[edge] {CLIENTS} viewers, {EDGES} edges, "
            f"{DURATION:.0f}s lecture:"
        )
        print(format_table(
            ["mode", "events", "origin bytes", "wall s"],
            [
                ["direct", direct["events"], direct["origin_bytes"],
                 f"{direct['wall_s']:.3f}"],
                ["edge", edge["events"], edge["origin_bytes_after_wave1"],
                 f"{edge['wall_s']:.3f}"],
            ],
        ))
        print(
            f"[edge] egress factor {egress_factor:.1f}x, "
            f"cache {edge['cache']}, placement spread {edge['spread']}"
        )

        # -- acceptance bars -------------------------------------------
        # 1. byte parity: every viewer, both waves, both modes, matches
        #    the origin packet run exactly
        for wave in (edge["wave1"], edge["wave2"],
                     direct["wave1"], direct["wave2"]):
            assert len(wave) == CLIENTS
            for blob in wave.values():
                assert blob == reference

        # 2. coalescing: origin egress shrank >= 4x (one backbone fill per
        #    edge replaces per-viewer streams)
        assert egress_factor >= TARGET_EGRESS_FACTOR

        # 3. the whole tier (fills + both waves) costs fewer simulator
        #    events than direct serving of the same two waves: local
        #    re-pacing with join_quantum groups staggered viewers the
        #    origin never could
        assert edge["events"] < direct["events"]

        # 4. the second wave was served off the packet-run cache: zero
        #    further origin media bytes, one hit per edge
        assert edge["origin_bytes_after_wave2"] == edge["origin_bytes_after_wave1"]
        assert edge["origin_bytes_after_wave1"] == edge["fill_bytes"]
        assert edge["cache"]["fills"] == EDGES
        assert edge["cache"]["misses"] == EDGES
        assert edge["cache"]["hits"] == EDGES
        # every edge took a share of the viewers
        assert len(edge["spread"]) == EDGES and edge["spread"][0] >= 1

        _emit(edge_scale={
            "clients": CLIENTS,
            "edges": EDGES,
            "direct_events": direct["events"],
            "edge_events": edge["events"],
            "event_factor": direct["events"] / edge["events"],
            "direct_origin_bytes": direct["origin_bytes"],
            "edge_origin_bytes": edge["origin_bytes_after_wave1"],
            "egress_factor": egress_factor,
            "direct_wall_s": direct["wall_s"],
            "edge_wall_s": edge["wall_s"],
            "wave2_origin_bytes_delta": (
                edge["origin_bytes_after_wave2"]
                - edge["origin_bytes_after_wave1"]
            ),
            "cache": edge["cache"],
            "placement_spread": edge["spread"],
            "throughput": throughput_fields(edge["events"], edge["wall_s"]),
        })


def _emit(**section):
    """Merge a result section into BENCH_edge_scale.json at repo root."""
    path = Path(__file__).resolve().parent.parent / "BENCH_edge_scale.json"
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
        "join_quantum_s": QUANTUM,
        "stagger_s": STAGGER,
        "profile": "dsl-256k",
        "edges": EDGES,
        "clients": CLIENTS,
        "smoke": SMOKE,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
