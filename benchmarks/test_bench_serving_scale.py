"""Serving-scale bench — encode once, serve many.

Measures the cost of fanning one lecture out to N concurrent viewers:

* **legacy**: every session runs its own packet walk — one pacing event
  plus two link events per packet per session. The server no longer has
  that path; :func:`per_session_walk` replicates it here as the baseline;
* **fast** (shared schedule + ``pacing_quantum``): sessions started
  together ride one pacing group, and packets within one quantum travel
  as a single train — simulator events collapse to one pacing event per
  train plus two link events per train per session.

Also compares the event-driven broadcast fan-out against a replica of the
old 50 ms polling pump, and cold-vs-warm :class:`EncodeCache` encoding.
Emits ``BENCH_serving_scale.json`` at the repo root and asserts the
headline target: >= 5x fewer simulator events at 32 clients with
byte-identical delivered packets.
"""

import functools
import json
import os
import time
from pathlib import Path

from benchmarks._harness import run_once

from repro.asf import ASFEncoder, EncodeCache, EncoderConfig, slide_commands
from repro.asf.header import StreamProperties
from repro.media import AudioObject, ImageObject, VideoObject, get_profile
from repro.metrics import format_table
from repro.net.engine import PeriodicTask
from repro.net.transport import DatagramChannel, Message
from repro.streaming import MediaServer
from repro.web import VirtualNetwork

PROFILE = get_profile("dsl-256k")
DURATION = 20.0
QUANTUM = 0.5
TARGET_CLIENTS = 32
TARGET_FACTOR = 5.0


def client_counts():
    override = os.environ.get("BENCH_SERVING_CLIENTS")
    if override:
        return [int(n) for n in override.split(",")]
    return [1, 8, 32, 64]


def make_asf(cache=None):
    encoder = ASFEncoder(EncoderConfig(profile=PROFILE), cache=cache)
    slides = 4
    per_slide = DURATION / slides
    return encoder.encode_file(
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


def serve_to(asf, clients, **server_kwargs):
    """Stream ``asf`` to ``clients`` sinks; return (events, wall_s, bytes)."""
    net = VirtualNetwork()
    names = [f"c{i}" for i in range(clients)]
    for name in names:
        net.connect("server", name, bandwidth=2_000_000, delay=0.02)
    server = MediaServer(net, "server", port=8080, **server_kwargs)
    server.publish("lecture", asf)
    sinks = {name: [] for name in names}
    for name in names:
        session = server.open_session("lecture", name, sinks[name].append)
        server.play(session.session_id)
    t0 = time.perf_counter()
    net.simulator.run(max_events=5_000_000)
    wall = time.perf_counter() - t0
    blobs = {
        name: b"".join(p.pack() for p in packets)
        for name, packets in sinks.items()
    }
    return net.simulator.events_processed, wall, blobs


def per_session_walk(asf, clients):
    """The server before shared pacing: every session walks the file on its
    own event chain, one pacing event and one wire message per packet.
    Returns (events, wall_s, bytes) like :func:`serve_to`."""
    net = VirtualNetwork()
    simulator = net.simulator
    packets = asf.packets
    base_ms = packets[0].send_time_ms
    sinks = {}

    def send(channel, index):
        packet = packets[index]
        channel.send(Message(packet, packet.packet_size))
        if index + 1 < len(packets):
            simulator.schedule_at(
                (packets[index + 1].send_time_ms - base_ms) / 1000.0,
                functools.partial(send, channel, index + 1),
            )

    for i in range(clients):
        name = f"c{i}"
        net.connect("server", name, bandwidth=2_000_000, delay=0.02)
        sink = sinks[name] = []
        channel = DatagramChannel(
            net.link("server", name),
            lambda message, sink=sink: sink.append(message.payload),
        )
        simulator.schedule_at(0.0, functools.partial(send, channel, 0))
    t0 = time.perf_counter()
    simulator.run(max_events=5_000_000)
    wall = time.perf_counter() - t0
    blobs = {
        name: b"".join(p.pack() for p in packets)
        for name, packets in sinks.items()
    }
    return simulator.events_processed, wall, blobs


class TestServingScale:
    def test_bench_fanout_event_reduction(self, benchmark):
        """Legacy per-session walks vs the shared-schedule fast path."""
        asf = make_asf()

        def sweep():
            rows = []
            identical = True
            for clients in client_counts():
                legacy_events, legacy_wall, legacy_blobs = per_session_walk(
                    asf, clients
                )
                fast_events, fast_wall, fast_blobs = serve_to(
                    asf, clients, pacing_quantum=QUANTUM
                )
                identical = identical and fast_blobs == legacy_blobs
                rows.append({
                    "clients": clients,
                    "legacy_events": legacy_events,
                    "fast_events": fast_events,
                    "event_factor": legacy_events / fast_events,
                    "legacy_wall_s": legacy_wall,
                    "fast_wall_s": fast_wall,
                    "byte_identical": fast_blobs == legacy_blobs,
                })
            return rows, identical

        rows, identical = run_once(benchmark, sweep)
        print(f"\n[serve] {DURATION:.0f}s lecture, quantum={QUANTUM}s:")
        print(format_table(
            ["clients", "legacy ev", "fast ev", "factor",
             "legacy s", "fast s"],
            [[r["clients"], r["legacy_events"], r["fast_events"],
              f"{r['event_factor']:.1f}x",
              f"{r['legacy_wall_s']:.3f}", f"{r['fast_wall_s']:.3f}"]
             for r in rows],
        ))
        # every client received byte-identical packets on both paths
        assert identical
        by_clients = {r["clients"]: r for r in rows}
        if TARGET_CLIENTS in by_clients:
            # the headline target: >= 5x fewer simulator events at 32
            assert (
                by_clients[TARGET_CLIENTS]["event_factor"] >= TARGET_FACTOR
            )
        _emit(fanout=rows)

    def test_bench_broadcast_poll_vs_event_driven(self, benchmark):
        """The old 50 ms polling pump vs subscriber push, same live feed."""
        from repro.lod import LiveCaptureSession

        viewers = 4
        horizon = 10.0

        def polling_replica():
            """What the seed's broadcast pump did: tick every 50 ms and
            drain packets_due, whether or not anything is flowing."""
            net = VirtualNetwork()
            names = [f"v{i}" for i in range(viewers)]
            for name in names:
                net.connect("server", name, bandwidth=2_000_000, delay=0.02)
            host = net.add_host("srv-poll")
            capture = LiveCaptureSession(
                net.simulator, get_profile("isdn-dual"), chunk=0.5
            )
            sinks = {name: [] for name in names}
            channels = {
                name: DatagramChannel(
                    net.link(host, name),
                    lambda m, sink=sinks[name]: sink.append(m.payload),
                )
                for name in names
            }

            def pump():
                for packet in capture.stream.packets_due(net.simulator.now):
                    for name in names:
                        channels[name].send(
                            Message(packet, packet.packet_size)
                        )

            PeriodicTask(net.simulator, 0.05, pump)
            net.simulator.run_until(horizon)
            capture.finish()
            total = sum(len(s) for s in sinks.values())
            return net.simulator.events_processed, total

        def event_driven():
            net = VirtualNetwork()
            names = [f"v{i}" for i in range(viewers)]
            for name in names:
                net.connect("server", name, bandwidth=2_000_000, delay=0.02)
            server = MediaServer(net, "server", port=8080)
            capture = LiveCaptureSession(
                net.simulator, get_profile("isdn-dual"), chunk=0.5
            )
            server.publish("live", capture.stream)
            sinks = {name: [] for name in names}
            for name in names:
                session = server.open_session("live", name,
                                              sinks[name].append)
                server.play(session.session_id)
            net.simulator.run_until(horizon)
            capture.finish()
            total = sum(len(s) for s in sinks.values())
            return net.simulator.events_processed, total

        def compare():
            return polling_replica(), event_driven()

        (poll_events, poll_delivered), (push_events, push_delivered) = (
            run_once(benchmark, compare)
        )
        print(
            f"\n[serve] broadcast {viewers} viewers over {horizon:.0f}s: "
            f"poll {poll_events} events / {poll_delivered} delivered, "
            f"push {push_events} events / {push_delivered} delivered"
        )
        # both ship the whole feed; push never pays for idle ticks
        assert push_delivered >= poll_delivered
        assert push_events < poll_events
        _emit(broadcast={
            "viewers": viewers,
            "horizon_s": horizon,
            "poll_events": poll_events,
            "push_events": push_events,
            "poll_delivered": poll_delivered,
            "push_delivered": push_delivered,
        })

    def test_bench_encode_cache_cold_warm(self, benchmark):
        """Re-encoding a published lecture is a cache hit, not a re-encode."""

        def cold_then_warm():
            cache = EncodeCache()
            t0 = time.perf_counter()
            cold = make_asf(cache)
            t1 = time.perf_counter()
            warm = make_asf(cache)
            t2 = time.perf_counter()
            return cold, warm, cache, (t1 - t0), (t2 - t1)

        cold, warm, cache, cold_s, warm_s = run_once(benchmark, cold_then_warm)
        print(
            f"\n[serve] encode cold {cold_s * 1000:.2f}ms, "
            f"warm {warm_s * 1000:.3f}ms "
            f"({cold_s / max(warm_s, 1e-9):.0f}x)"
        )
        assert warm is cold  # the warm "encode" is the cached file itself
        assert (cache.hits, cache.misses) == (1, 1)
        assert warm_s < cold_s
        _emit(encode_cache={
            "cold_ms": cold_s * 1000,
            "warm_ms": warm_s * 1000,
            "speedup": cold_s / max(warm_s, 1e-9),
        })


def _emit(**section):
    """Merge a result section into BENCH_serving_scale.json at repo root."""
    path = Path(__file__).resolve().parent.parent / "BENCH_serving_scale.json"
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
        "clients": client_counts(),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
