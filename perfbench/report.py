"""Metric definitions: end-to-end values from the plain repetitions, and
the per-layer ledger from the traced ones. Pure functions over the JSON
records that ``perfbench/rep.py`` prints; nothing here imports the program.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, List, Tuple

#: unit of every end-to-end metric the benchmark prints (README.md has
#: their meanings). Only the measured ones (``GATED``) are in
#: BENCHMARK.json: the simulated ones are 0 or undefined on some workload,
#: so they are printed for reading and carried, by the same names, in the
#: traced run's ledger.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "startup_p50_s": "sim_s",
    "startup_p99_s": "sim_s",
    "rebuffer_ratio": "ratio",
    "delivery_ratio": "ratio",
    "origin_egress_mb": "MB",
    "failed_fraction": "ratio",
}
GATED = ("setup_s", "run_s", "peak_rss_mb")


class Context:
    """Everything one traced run measured, for the per-layer table."""

    def __init__(self, plain: List[dict], spans: dict, tracer: dict) -> None:
        self.spans = spans
        self.tracer = tracer
        ledger = spans["ledger"]
        self.self_s = ledger["self_s"]
        self.calls = ledger["calls"]
        self.counts = ledger["counts"]
        self.depth = ledger["max_depth"]
        self.ledger = ledger
        self.counters = spans["counters"]
        self.sim = spans["sim"]
        self.plain = plain
        self.plain_run_s = statistics.median(r["run_s"] for r in plain)

    def plain_wall(self, key: str) -> float:
        return statistics.median(r["wall"][key] for r in self.plain)

    def s(self, *keys: str) -> float:
        return sum(self.self_s.get(key, 0.0) for key in keys)

    def layer_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def n(self, key: str) -> int:
        return self.calls.get(key, 0)

    def c(self, key: str) -> int:
        return self.counters.get(key, 0)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: end-to-end values that are simulated, so exact for a workload and seed
SIMULATED = ("startup_p50_s", "startup_p99_s", "rebuffer_ratio",
             "delivery_ratio", "origin_egress_mb", "failed_fraction")


def simulated(record: dict) -> Dict[str, float]:
    """The simulated end-to-end values of one full repetition (0 where a
    workload lacks them)."""
    sim = record["sim"]
    out = {name: sim.get(name, 0.0) for name in SIMULATED[:4]}
    out["origin_egress_mb"] = record["counters"]["origin_egress_bytes"] / 1e6
    out["failed_fraction"] = ratio(record["failed"], record["attempted"])
    return out


def end_to_end(plain: List[dict], setups: List[dict]) -> Dict[str, float]:
    """Every end-to-end metric: ``setup_s`` is the median over every
    set-up of the run, ``run_s`` and ``peak_rss_mb`` the medians over the
    full repetitions; simulated values (identical in every repetition)
    come from the first."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "run_s": statistics.median(r["run_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        **simulated(plain[0]),
    }


Metric = Tuple[str, Callable[[Context], float]]

#: the traced run's ledger: name -> (unit, value). Self time is a span's
#: duration minus its child spans; "sim" units are simulated seconds.
PER_LAYER: Dict[str, Metric] = {
    # load
    "load.generate_s": ("s", lambda x: x.s("load.generate")),
    "load.plan_s": ("s", lambda x: x.s("load.plan")),
    "load.self_s": ("s", lambda x: x.layer_s("load")),
    "load.cohorts": ("count", lambda x: x.c("load.cohorts")),
    "load.splits": ("count", lambda x: x.c("load.splits")),
    "load.lateness_p99_s": ("sim_s", lambda x: x.sim.get("lateness_p99_s", 0.0)),
    # streaming.edge: directory, fill cascade, relay control, cache
    "edge.place_calls": ("count", lambda x: x.n("edge.place")),
    "edge.place_s": ("s", lambda x: x.s("edge.place")),
    "edge.directory_s": ("s", lambda x: x.s("edge.place", "edge.directory")),
    "edge.fill_s": ("s", lambda x: x.s("edge.fill")),
    "edge.relay_s": ("s", lambda x: x.s("edge.relay")),
    "edge.lookup_s": ("s", lambda x: x.s("edge.lookup")),
    "edge.store_s": ("s", lambda x: x.s("edge.store")),
    "edge.cache_s": ("s", lambda x: x.s("edge.lookup", "edge.store", "edge.cache")),
    "edge.fills_origin": ("count", lambda x: x.c("edge.fills_origin")),
    "edge.fills_parent": ("count", lambda x: x.c("edge.fills_parent")),
    "edge.fills_sibling": ("count", lambda x: x.c("edge.fills_sibling")),
    "edge.hit_ratio": ("ratio", lambda x: ratio(
        x.c("edge.hits"), x.c("edge.hits") + x.c("edge.misses"))),
    "edge.evictions": ("count", lambda x: x.c("edge.evictions")),
    # asf read side
    "asf.depacketize_s": ("s", lambda x: x.s("asf.depacketize")),
    "asf.packets_in": ("count", lambda x: x.n("asf.depacketize")),
    "asf.units_out": ("count", lambda x: x.counts.get("asf.units_out", 0)),
    "asf.dup_ratio": ("ratio", lambda x: ratio(
        x.counts.get("asf.duplicates", 0), x.n("asf.depacketize"))),
    "asf.read_s": ("s", lambda x: x.s("asf.depacketize", "asf.read")),
    # asf write side and the encode farm
    "asf.packetize_s": ("s", lambda x: x.s("asf.packetize")),
    "asf.pack_s": ("s", lambda x: x.s("asf.pack")),
    "asf.packets_built": ("count", lambda x: x.counts.get("asf.packets_built", 0)),
    "asf.encode_s": ("s", lambda x: x.s("asf.encode")),
    "asf.write_s": ("s", lambda x: x.s(
        "asf.packetize", "asf.pack", "asf.encode", "asf.index")),
    "farm.jobs": ("count", lambda x: x.c("farm.jobs")),
    "farm.encodes": ("count", lambda x: x.c("farm.encodes")),
    "farm.dedup_hits": ("count", lambda x: x.c("farm.dedup_hits")),
    "farm.cache_hit_ratio": ("ratio", lambda x: ratio(
        x.c("farm.cache_hits"), x.c("farm.jobs"))),
    "farm.self_s": ("s", lambda x: x.layer_s("farm")),
    # lod + contenttree
    "lod.publish_self_s": ("s", lambda x: x.s("lod.publish")),
    "contenttree.abstract_s": ("s", lambda x: x.s("contenttree.abstract")),
    # net
    "net.events": ("count", lambda x: x.c("net.events")),
    "net.events_leapt": ("count", lambda x: x.c("net.events_leapt")),
    "net.cancelled_drained": ("count", lambda x: x.c("net.cancelled_drained")),
    "net.engine_self_s": ("s", lambda x: x.s("net.engine")),
    "net.max_step_depth": ("count", lambda x: x.depth.get("net.engine", 0)),
    "net.sends": ("count", lambda x: x.n("net.link")),
    "net.send_s": ("s", lambda x: x.s("net.link", "net.channel")),
    # web
    "web.round_trips": ("count", lambda x: x.n("web.fetch")),
    "web.fetch_self_s": ("s", lambda x: x.s("web.fetch")),
    "web.handle_s": ("s", lambda x: x.s("web.handle")),
    "web.max_fetch_depth": ("count", lambda x: x.depth.get("web.fetch", 0)),
    "web.rtt_sim_p50_s": ("sim_s", lambda x: x.ledger["rtt_sim_p50_s"]),
    "web.errors": ("count", lambda x: x.counts.get("web.errors", 0)),
    # catalog
    "catalog.admit_calls": ("count", lambda x: x.n("catalog.admit")),
    "catalog.admit_ratio": ("ratio", lambda x: ratio(
        x.counts.get("catalog.admitted", 0), x.calls.get("catalog.admit", 0))),
    "catalog.index_s": ("s", lambda x: x.s("catalog.index")),
    # streaming.backbone
    "backbone.reservations": ("count", lambda x: x.c("backbone.reservations")),
    "backbone.refusals": ("count", lambda x: x.counts.get("backbone.refusals", 0)),
    "backbone.self_s": ("s", lambda x: x.layer_s("backbone")),
    # streaming.server
    "server.sessions": ("count", lambda x: x.c("server.sessions")),
    "server.session_ctl_s": ("s", lambda x: x.s("server.ctl")),
    "server.pace_s": ("s", lambda x: x.s("server.pace")),
    "server.bytes_served": ("bytes", lambda x: x.c("server.bytes_served")),
    # streaming.client + streaming.buffer
    "client.render_s": ("s", lambda x: x.s("client.render")),
    "client.ctl_s": ("s", lambda x: x.s("client.ctl")),
    "client.recv_s": ("s", lambda x: x.s("client.recv")),
    "buffer.push_s": ("s", lambda x: x.s("buffer.push")),
    "buffer.pop_s": ("s", lambda x: x.s("buffer.pop")),
    "buffer.self_s": ("s", lambda x: x.layer_s("buffer")),
    # obs and the interpreter
    "obs.span_overhead": ("ratio", lambda x: x.spans["run_s"] / x.plain_run_s - 1),
    "obs.tracer_overhead": ("ratio", lambda x: x.tracer["run_s"] / x.plain_run_s - 1),
    "py.gc_s": ("s", lambda x: x.ledger["gc_s"]),
    "py.gc_collections": ("count", lambda x: x.ledger["gc_collections"]),
    # the host: wall times as measured and the tick rate they were scaled
    # by (host.py)
    "wall.setup_s": ("s", lambda x: x.plain_wall("setup_s")),
    "wall.run_s": ("s", lambda x: x.plain_wall("run_s")),
    "host.tick_rate": ("1/s", lambda x: statistics.median(
        r["tick_rate"]["run_s"] for r in x.plain)),
    # the ledger's own accounting
    "ledger.attributed_s": ("s", lambda x: sum(x.self_s.values())),
    "ledger.window_s": ("s", lambda x: x.ledger["window_s"]),
}


def per_layer(plain: List[dict], spans: dict, tracer: dict) -> Dict[str, float]:
    """The ledger: every ``PER_LAYER`` metric, then the simulated
    end-to-end values of the spans repetition under their own names."""
    context = Context(plain, spans, tracer)
    out = {name: float(fn(context)) for name, (_, fn) in PER_LAYER.items()}
    out.update(simulated(spans))
    return out


def unit_of(name: str) -> str:
    if name in PER_LAYER:
        return PER_LAYER[name][0]
    return END_TO_END[name]


#: every name the ``--trace 1`` ledger prints
LEDGER = (*PER_LAYER, *SIMULATED)


def work_signature(record: dict) -> Dict[str, Any]:
    """What must be identical in every repetition of one workload and
    seed, traced or not: the exact work counters, simulated QoE and ops."""
    return {
        "counters": record["counters"],
        "sim": record["sim"],
        "attempted": record["attempted"],
        "failed": record["failed"],
    }
