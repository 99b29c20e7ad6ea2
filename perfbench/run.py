"""Repository benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload flash_100k --seed 0 --seconds 35 --trace 0

Runs fresh single-threaded repetitions of the workload, one process at a
time (``perfbench/rep.py``), for about ``--seconds``: full repetitions,
then set-up-only ones that end at the first scripted action and add
``setup_s`` samples. With ``--trace 1`` it runs one full
repetition, then one under the per-layer span ledger and one with the
program's own tracer attached. Every repetition must pass the correctness
gate, and all of them must agree on every work counter; otherwise the run
prints the reasons to stderr and exits 1 without numbers. The last stdout
line is the JSON result; the lines before it list every metric with its
unit. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import WORKLOADS, report  # noqa: E402

#: the whole run, repetitions included, ends inside the 180 s it is allowed
BUDGET_S = 170.0
REFERENCE = Path(__file__).resolve().parent / "reference.json"


class BenchError(Exception):
    """A repetition failed, or the repetitions disagree."""


def repetition(args, mode: str, deadline: float, *, oracle: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    cmd = [
        sys.executable, "-m", "perfbench.rep",
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--mode", mode,
    ]
    if oracle:
        cmd.append("--oracle")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} repetition")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} repetition ran past the budget") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} repetition exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(args, records: List[dict]) -> List[str]:
    """Correctness and determinism over every repetition of this run."""
    problems: List[str] = []
    for record in records:
        problems.extend(record["problems"])
        problems.extend(
            f"trace audit: {p}" for p in record.get("trace_problems", [])
        )
    reference = report.work_signature(records[0])
    for i, record in enumerate(records[1:], 1):
        signature = report.work_signature(record)
        if signature != reference:
            differing = sorted(
                f"{part}.{key}"
                for part in ("counters", "sim")
                for key in set(reference[part]) | set(signature[part])
                if reference[part].get(key) != signature[part].get(key)
            ) or ["ops"]
            problems.append(
                f"repetition {i} differs from repetition 0 in "
                + ", ".join(differing)
            )
    if args.workload == "publish_grid":
        # seeds without a recorded digest rely on the cold-publish oracle
        expected = json.loads(REFERENCE.read_text())["publish_grid"].get(
            args.size, {}
        ).get(str(args.seed))
        digest = records[0]["counters"]["grid.digest"]
        if expected is not None and digest != expected:
            problems.append(
                f"publish_grid digest {digest} != recorded reference {expected}"
            )
    return problems


def measure(args, deadline: float) -> Tuple[List[dict], List[dict]]:
    """Full repetitions and every set-up (full or set-up-only
    repetitions) for about ``--seconds``.

    A repetition is started only if it is expected to end within
    ``--seconds``, judged by the longest one of its kind so far; the first
    full repetition always runs. Full repetitions come first; set-up-only
    ones fill the time left when another full one would not fit. Time
    spent in the cold publish oracle does not count.
    """
    full: List[dict] = []
    setups: List[dict] = []
    longest = {"plain": 0.0, "setup": 0.0}
    spent = 0.0

    def run(mode: str) -> dict:
        nonlocal spent
        began = time.perf_counter()
        record = repetition(
            args, mode, deadline,
            # the first full repetition of publish_grid also publishes
            # every lecture cold, the oracle for the cached publishes
            oracle=mode == "plain" and not full
            and args.workload == "publish_grid",
        )
        took = time.perf_counter() - began - record.get("oracle_s", 0.0)
        longest[mode] = max(longest[mode], took)
        spent += took
        setups.append(record)
        return record

    full.append(run("plain"))
    while True:
        left = args.seconds - spent
        if longest["plain"] <= left:
            full.append(run("plain"))
        elif longest["setup"] <= left:
            run("setup")
        else:
            return full, setups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure repetitions for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + BUDGET_S
    try:
        if args.trace:
            plain = [repetition(args, "plain", deadline,
                                oracle=args.workload == "publish_grid")]
            setups = list(plain)
            traced = {mode: repetition(args, mode, deadline)
                      for mode in ("spans", "tracer")}
        else:
            plain, setups = measure(args, deadline)
            traced = {}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = gate(args, plain + list(traced.values()))
    if problems:
        for problem in problems[:40]:
            print(f"FAILED: {problem}", file=sys.stderr)
        return 1

    first = plain[0]
    shown = report.end_to_end(plain, setups)
    print(f"# {args.workload} seed {args.seed}: {len(plain)} full "
          f"repetitions, {len(setups)} set-ups, ops {first['failed']} "
          f"failed of {first['attempted']} attempted")
    for failure in first["failures"]:
        print(f"#   failed op: {failure}")
    print("#   setup_s (wall) per set-up: " + ", ".join(
        f"{r['setup_s']:.4f} ({r['wall']['setup_s']:.4f})" for r in setups))
    print("#   run_s (wall) per repetition: " + ", ".join(
        f"{r['run_s']:.4f} ({r['wall']['run_s']:.4f})" for r in plain))
    for name in ("run_cpu_s", "peak_rss_mb"):
        values = ", ".join(f"{r[name]:.4f}" for r in plain)
        print(f"#   {name} per repetition: {values}")
    if args.trace:
        metrics = report.per_layer(plain, traced["spans"], traced["tracer"])
    else:
        for name, value in shown.items():
            print(f"{name:>18} {value:14.6g} {report.unit_of(name)}")
        metrics = {name: shown[name] for name in report.GATED}
    result = {
        "correct": True,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": {
            name: {"value": value, "unit": report.unit_of(name)}
            for name, value in metrics.items()
        },
    }
    if args.trace:
        for name, entry in result["metrics"].items():
            print(f"{name:>26} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
