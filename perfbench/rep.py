"""One repetition of one workload, in a fresh process; prints one JSON line.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.rep`` from the
repository root with ``src`` on ``PYTHONPATH``. The clock starts before
the program is imported, so set-up time includes the import a user pays.
``setup_s`` and ``run_s`` in the record are scaled to the reference host
speed (``host.py``); ``wall`` holds them as measured.

Modes: ``plain`` (capture hooks only: the measured repetitions),
``setup`` (the same, ended at the first scripted action: one more
``setup_s`` sample), ``spans`` (plus the per-layer ledger and collector
accounting) and ``tracer`` (plus the program's own
:class:`repro.obs.Tracer`, audited with :class:`repro.obs.TraceChecker`).
"""

import time

from perfbench import host

SAMPLER = host.Sampler()
SAMPLER.start()
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode",
                        choices=("plain", "setup", "spans", "tracer"),
                        default="plain")
    parser.add_argument("--oracle", action="store_true",
                        help="also check publish output against a cold publish")
    args = parser.parse_args()

    from perfbench import probes, workloads
    from repro.obs import Tracer

    capture_patches = probes.Patcher()
    capture = probes.Capture(setup_only=args.mode == "setup")
    capture.install(capture_patches)
    span_patches = probes.Patcher()
    ledger = None
    window = {}
    if args.mode == "spans":
        ledger = probes.Ledger()
        ledger.install(span_patches)

    def timed_end() -> None:
        # the ledger covers set-up and the timed phase, not verification
        SAMPLER.stop()
        window["s"] = time.perf_counter() - STARTED
        span_patches.restore()
        if ledger is not None:
            ledger.uninstall()

    try:
        record = workloads.run(
            args.workload, args.seed, args.size,
            started=STARTED, capture=capture,
            tracer=Tracer("perfbench") if args.mode == "tracer" else None,
            oracle=args.oracle, timed_end=timed_end,
        )
    finally:
        SAMPLER.stop()
        span_patches.restore()
        capture_patches.restore()
    if ledger is not None:
        rtt = ledger.samples.get("web.rtt_sim", [])
        record["ledger"] = {
            "window_s": window["s"],
            "self_s": dict(ledger.self_s),
            "calls": dict(ledger.calls),
            "counts": dict(ledger.counts),
            "max_depth": dict(ledger.max_depth),
            "rtt_sim_p50_s": statistics.median(rtt) if rtt else 0.0,
            "gc_s": ledger.gc_s,
            "gc_collections": ledger.gc_collections,
        }
    # keep the wall times as measured and scale them to the reference host
    # speed (host.py); the timed phase starts where set-up ends
    phases = {"setup_s": (STARTED, STARTED + record["setup_s"])}
    if "run_s" in record:
        begin = phases["setup_s"][1]
        phases["run_s"] = (begin, begin + record["run_s"])
    record["wall"] = {name: record[name] for name in phases}
    record["tick_rate"] = {
        name: SAMPLER.rate(*bounds) for name, bounds in phases.items()
    }
    for name in phases:
        record[name] = host.adjust(record[name], record["tick_rate"][name])
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
    # skip freeing a heap of hundreds of MiB object by object: the runner
    # waits for this process, and teardown is no part of the workload
    os._exit(0)
