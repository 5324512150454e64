"""Informational n-ladder for compact BA (k=1, eager EIG decision).

Not a workload and never gated: it shows how set-up, call time, memory
and bits grow with ``n`` (``t = (n - 1) // 3``), including the jump
from n=13 to n=16 where the chain topology and the EIG sweep blow up.
Each rung runs in a fresh process against ``EquivocatingAdversary``
with faults and inputs drawn from ``--seed``, using the same checks as
the benchmark.

Usage, from the repository root::

    python3 perf/ladder.py --seconds 8 --out perf/ladder.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from typing import Any, Dict, List

import run as bench

RUNGS = (7, 10, 13, 16)
MIN_CALLS = 3


def rung(n: int, seed: int, seconds: float) -> Dict[str, Any]:
    """Measure one rung in this process (which must be fresh)."""
    from repro.adversary import EquivocatingAdversary
    from repro.types import SystemConfig

    import workloads

    config = SystemConfig(n=n, t=(n - 1) // 3)
    faulty, inputs = workloads.scenario(config, random.Random(seed))
    call = workloads.direct_call(
        config, seed, faulty, inputs,
        lambda ids: EquivocatingAdversary(ids, 0, 1),
    )
    with bench.fixed_configuration():
        run = bench.Run(workloads.Plan(config, [call], warmup=1))
        run.call(lambda call: call())
        setup_s = bench.cpu_seconds()
        times = run.loop(seconds)
        while len(times) < MIN_CALLS and run.failed == 0:
            times.append(run.call(lambda call: call()))
    return {
        "n": n,
        "t": config.t,
        "setup_s": setup_s,
        "call_s_p50": statistics.median(times) if times else None,
        "calls": len(times),
        "peak_rss_mb": bench.peak_rss_mb(),
        **run.per_exec(),
        "failed": run.failed,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="also write the rungs here as JSON")
    parser.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(bench.SRC, "repro")):
        print(f"ladder: no program sources under {bench.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, bench.SRC)
    if args.rung is not None:
        print(json.dumps(rung(args.rung, args.seed, args.seconds)))
        return 0
    rungs = []
    for n in RUNGS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--rung", str(n),
             "--seed", str(args.seed), "--seconds", str(args.seconds)],
            cwd=bench.ROOT, capture_output=True, text=True, check=True,
        )
        rungs.append(json.loads(completed.stdout.strip().splitlines()[-1]))
        print(json.dumps(rungs[-1]), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "rungs": rungs}, sink, indent=2)
            sink.write("\n")
    return 0 if all(r["failed"] == 0 for r in rungs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
