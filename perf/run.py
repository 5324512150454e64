"""Closed-loop benchmark of compact Byzantine agreement (Corollary 10).

Usage, from the repository root::

    python3 perf/run.py --workload ba-n16 --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``ba-n16``, ``gallery-n10``,
``variants-n10-async`` and ``sweep-n7-pool`` (see
``perf/workloads.py`` for what each stresses and why).  One client
makes one call at a time, in a single process; only ``sweep-n7-pool``
starts workers (two, through the program's own pool).  Delivery is
instant under ``lockstep`` and takes a logical delay under ``async``;
there is no real network, so every latency here is processor time:
the process's own plus that of its reaped children.

``--trace 0`` prints the end-to-end metrics (times scaled for host
drift as described below):

* ``setup_s`` -- processor time from process start to the first timed
  call (interpreter, imports, inputs, warm-up calls; on ``ba-n16`` the
  chain-topology build).  Set-up is done three times -- twice in child
  processes that stop after it, once for real -- and the median is
  reported.
* ``execs_per_s`` -- executions (sweep cells on ``sweep-n7-pool``) per
  second of processor time spent in timed calls.
* ``call_s_p50`` / ``call_s_p90`` -- median and 90th percentile of one
  call into the entry point (one execution, or one whole sweep).  The
  sample count is in the diagnostics line; below 100 calls the p90 is
  not a real tail.
* ``peak_rss_mb`` -- peak resident memory of the process or, if one
  peaked higher, of a child.
* ``bits_per_exec`` / ``rounds_per_exec`` -- metered bits of correct
  processes and rounds, averaged over one cycle of the workload's
  plan.  These are exact counts for a seed.
* ``pass_share`` -- calls that passed every check over calls attempted
  (one minus the failed share, which the result line carries as
  ``failed`` / ``attempted``).

``--trace 1`` instead runs a third of the time untraced, then the rest
with layer spans and observer counters on, and prints the per-layer
metrics of ``perf/tracing.py`` plus ``trace.coverage`` (share of call
time under layer spans) and ``trace.overhead`` (traced over untraced
median call time, minus one).  Spans go to ``.perf_out/``.

Every execution is checked from outside the program (``perf/checks.py``)
and every repeat of a plan call must reproduce its bits and rounds; a
call that raises or fails a check is counted, never fatal.  Two
doctored outcomes (a flipped decision, a round past the bound) must be
rejected by the checker.

Repeatability.  The configuration is pinned through public calls
(flat kernel, persistent cache off, an explicit scheduler), so
``REPRO_KERNEL``, ``REPRO_CACHE_DIR`` and ``REPRO_SCHEDULER`` change
nothing; shared array stores are released after every call; and the
benchmark re-executes itself with ``PYTHONHASHSEED`` fixed, because the
per-process string-hash salt changes iteration orders inside the
program and with them the time of the same call.

Host drift.  On a shared 2-vCPU machine the processor time of the same
work moves by 20-40% from minute to minute.  A host-speed probe (a
fixed pure-Python loop plus a numpy gather) is timed at the start,
between calls and at the end of every run, and every set-up right
after it finishes.  Times are reported at the speed of a reference
host on which the probe takes ``PROBE_REFERENCE_MS``: set-up times and,
on workloads whose calls are mostly interpreted Python, call times are
multiplied by the reference over this run's median probe time.  On
``ba-n16``, whose calls run in numpy, call times are reported as
measured.  The diagnostics line before the result carries the probe's
median and spread and the unscaled values; the probe itself is never
gated.

The last line of standard output is the JSON result.  The exit code is
0 when every check passed, 1 when one failed, and 2 when the benchmark
could not run (for example, without the program's sources).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perf_out")

SETUP_SAMPLES = 3
SETUP_CHILD_TIMEOUT_S = 150
#: The probe runs between calls at least this often, for this share of
#: the time since it last ran, so slow calls get as many samples per
#: second of run as fast ones.
PROBE_EVERY_S = 0.1
PROBE_SHARE = 0.08
PROBE_BURST = 3
#: Probe samples taken right after each set-up, to scale that set-up.
SETUP_PROBE_SAMPLES = 9
#: Probe time of the reference host; times are reported at its speed.
PROBE_REFERENCE_MS = 3.0
#: Share of a traced run's time spent untraced, as the overhead baseline.
UNTRACED_SHARE = 1 / 3
#: Calls of the traced phase whose raw spans are written out.
KEEP_CALLS = 10

#: String hashing is salted per process unless fixed; the salt changes
#: set and dict iteration orders inside the program and, with them, how
#: long the same call takes (five processes on one gallery-n10 seed
#: spread 12% in median call time with random salts, 5% with this one).
HASH_SEED = "0"

END_TO_END_UNITS = {
    "setup_s": "s",
    "execs_per_s": "1/s",
    "call_s_p50": "s",
    "call_s_p90": "s",
    "peak_rss_mb": "MB",
    "bits_per_exec": "bit",
    "rounds_per_exec": "rounds",
    "pass_share": "ratio",
}


def cpu_seconds() -> float:
    """Processor time of this process plus that of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def iqr_share(values: List[float]) -> float:
    """Interquartile range over the median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    median = statistics.median(values)
    return (third - first) / median if median else 0.0


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class HostProbe:
    """A fixed reference loop, timed in processor time, to track drift.

    A pure-Python arithmetic loop plus a numpy gather.  It allocates
    nothing the program's heap could make slower, and its speed follows
    the interpreter's on this host: on gallery-n10, 2-second medians of
    call time and probe time correlate at 0.98.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._table = rng.integers(0, 1 << 30, size=1 << 18)
        self._index = rng.integers(0, 1 << 18, size=1 << 16)
        self.samples_ms: List[float] = []
        self._last = time.perf_counter()

    def sample(self, count: int = PROBE_BURST) -> None:
        for _ in range(count):
            start = time.process_time()
            total = 0
            for value in range(30000):
                total += value * value % 7
            total += int(self._table[self._index].sum())
            self.samples_ms.append((time.process_time() - start) * 1000)
        self._last = time.perf_counter()

    def between_calls(self) -> None:
        gap = time.perf_counter() - self._last
        if gap < PROBE_EVERY_S:
            return
        until = time.perf_counter() + PROBE_SHARE * gap
        self.sample(1)
        while time.perf_counter() < until:
            self.sample(1)

    def speed(self) -> float:
        """Reference probe time over this host's: seconds times this
        give seconds at the reference host's speed."""
        return PROBE_REFERENCE_MS / statistics.median(self.samples_ms)

    def summary(self) -> Dict[str, Any]:
        return {
            "probe_ms_p50": statistics.median(self.samples_ms),
            "probe_iqr_share": iqr_share(self.samples_ms),
            "probe_samples": len(self.samples_ms),
        }


def scaled_setup(raw_s: float) -> Dict[str, float]:
    """A set-up sample, raw and scaled by a probe taken right after it."""
    probe = HostProbe()
    probe.sample(SETUP_PROBE_SAMPLES)
    return {"raw_s": raw_s, "scaled_s": raw_s * probe.speed()}


class Run:
    """A plan's call cycle, its checks and its counts."""

    def __init__(self, plan: Any, after_call: Optional[Callable[[], None]] = None):
        from repro.arrays import release_shared_stores

        import checks

        self._checks = checks
        self._release = release_shared_stores
        self.plan = plan
        self.after_call = after_call
        self.cursor = 0
        #: plan index -> ((bits, rounds) per execution) of its first run
        self.signatures: Dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.executions = 0
        self.errors: List[str] = []
        self.first_outcome: Any = None

    def call(self, invoke: Callable[[Callable], Any]) -> Optional[float]:
        """Make the next call of the cycle; its processor time, or None."""
        index = self.cursor % len(self.plan.calls)
        self.cursor += 1
        self.attempted += 1
        start = cpu_seconds()
        try:
            executions = invoke(self.plan.calls[index])
            elapsed = cpu_seconds() - start
            found = self._check(index, executions)
        except Exception as error:  # counted as a failed call, never fatal
            elapsed, found = None, [f"{type(error).__name__}: {error}"]
        finally:
            self._release()
            if self.after_call is not None:
                self.after_call()
        if found:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"call {index}: {'; '.join(found)}")
            return None
        return elapsed

    def _check(self, index: int, executions: List[Any]) -> List[str]:
        outcomes = [
            self._checks.Outcome.of(e.result, e.round_bound) for e in executions
        ]
        found = [issue for o in outcomes for issue in self._checks.problems(o)]
        signature = tuple(
            (e.result.metrics.total_bits, e.result.rounds) for e in executions
        )
        if self.signatures.setdefault(index, signature) != signature:
            found.append("bits or rounds differ from this call's first run")
        if not found:
            self.executions += len(executions)
            if self.first_outcome is None:
                self.first_outcome = outcomes[0]
        return found

    def loop(
        self,
        seconds: float,
        invoke: Callable[[Callable], Any] = lambda call: call(),
        probe: Optional[HostProbe] = None,
    ) -> List[float]:
        """Call until ``seconds`` of wall time pass; per-call times."""
        times = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            elapsed = self.call(invoke)
            if elapsed is not None:
                times.append(elapsed)
            if probe is not None:
                probe.between_calls()
        return times

    def complete_cycle(self) -> None:
        """Make (untimed) any call of the cycle not made yet, so the
        counts per execution cover the whole plan however long the
        calls took."""
        for index in range(len(self.plan.calls)):
            if index not in self.signatures:
                self.cursor = index
                self.call(lambda call: call())

    def per_exec(self) -> Dict[str, float]:
        """Bits and rounds per execution over one plan cycle."""
        bits = rounds = count = 0
        for signature in self.signatures.values():
            for exec_bits, exec_rounds in signature:
                bits += exec_bits
                rounds += exec_rounds
                count += 1
        return {
            "bits_per_exec": bits / count if count else 0.0,
            "rounds_per_exec": rounds / count if count else 0.0,
        }


@contextlib.contextmanager
def fixed_configuration():
    """Pin kernel and cache through public calls, whatever the environment."""
    from repro.arrays import persist
    from repro.arrays.flat import use_kernel

    with use_kernel("flat"), persist.using_cache(False):
        yield


def prepare(workload: str, seed: int, after_call=None) -> Run:
    """Build the plan and make its warm-up calls."""
    import workloads

    run = Run(workloads.WORKLOADS[workload](seed), after_call)
    for _ in range(run.plan.warmup):
        run.call(lambda call: call())
    return run


def setup_in_child(args: argparse.Namespace) -> Dict[str, float]:
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True,
        timeout=SETUP_CHILD_TIMEOUT_S, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"set-up child failed ({completed.returncode}): "
            f"{completed.stderr.strip()[-500:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def controls(run: Run) -> Dict[str, bool]:
    import checks

    if run.first_outcome is None:
        return {}
    return checks.controls_rejected(run.first_outcome)


def timed(args: argparse.Namespace) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics."""
    before = cpu_seconds()
    setups = [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    spent_on_children = cpu_seconds() - before
    with fixed_configuration():
        run = prepare(args.workload, args.seed)
        setups.append(scaled_setup(cpu_seconds() - spent_on_children))
        probe = HostProbe()
        probe.sample()
        executions_before = run.executions
        times = run.loop(args.seconds, probe=probe)
        executions = run.executions - executions_before
        probe.sample()
        run.complete_cycle()
    # Calls spent mostly in numpy do not follow the interpreter probe;
    # scaling them would add the probe's drift instead of removing it.
    speed = probe.speed() if run.plan.interpreter_bound else 1.0
    raw = {
        "execs_per_s": executions / sum(times) if times else 0.0,
        "call_s_p50": statistics.median(times) if times else 0.0,
        "call_s_p90": p90(times) if times else 0.0,
    }
    metrics = {
        "setup_s": statistics.median(setup["scaled_s"] for setup in setups),
        "execs_per_s": raw["execs_per_s"] / speed,
        "call_s_p50": raw["call_s_p50"] * speed,
        "call_s_p90": raw["call_s_p90"] * speed,
        "peak_rss_mb": peak_rss_mb(),
        **run.per_exec(),
        "pass_share": (run.attempted - run.failed) / run.attempted,
    }
    diagnostics = {
        "timed_calls": len(times),
        "setup_samples": setups,
        "unscaled": raw,
        **probe.summary(),
    }
    return finish(args, run, metrics, END_TO_END_UNITS, diagnostics)


def traced(args: argparse.Namespace) -> Dict[str, Any]:
    """The traced run: per-layer metrics."""
    import repro.obs.core as obs
    from repro.arrays.store import shared_store_stats

    import tracing

    recorder = tracing.Recorder(OUT_DIR)
    with fixed_configuration():
        recorder.install()
        recorder.keep, recorder.call_id = True, "setup"
        run = prepare(args.workload, args.seed, recorder.absorb_workers)
        setup_totals = recorder.take_totals()
        recorder.uninstall()

        untraced_times = run.loop(args.seconds * UNTRACED_SHARE)

        observer = obs.Observer(counters=True, spans=False)
        sums = {"calls": 0, "wall": 0.0, "covered": 0.0, "busy": 0.0,
                "capacity": 0.0}

        def invoke(call: Callable) -> Any:
            recorder.keep = sums["calls"] < KEEP_CALLS
            chunks = observer.registry.counter("pool.chunks")
            result, wall, covered = recorder.call(sums["calls"], call)
            sums["calls"] += 1
            sums["wall"] += wall
            sums["covered"] += covered
            if observer.registry.counter("pool.chunks") > chunks:
                gauges = observer.registry.gauges()
                workers = int(gauges["pool.workers"])
                sums["busy"] += sum(
                    gauges.get(f"pool.worker.{slot}.busy_s", 0.0)
                    for slot in range(workers)
                )
                sums["capacity"] += workers * gauges["pool.wall_s"]
            return result

        executions_before = run.executions
        obs.activate(observer)
        recorder.install()
        try:
            traced_times = run.loop(
                args.seconds * (1 - UNTRACED_SHARE), invoke=invoke
            )
        finally:
            recorder.uninstall()
            obs.deactivate()
    executions = run.executions - executions_before
    counters = observer.registry.counters()
    for name, delta in recorder.worker_counters.items():
        counters[name] = counters.get(name, 0) + delta
    metrics = tracing.layer_metrics(
        recorder.take_totals(), counters, executions, setup_totals,
        max(shared_store_stats()["high_water_nodes"], recorder.worker_high_water),
        sums["busy"], sums["capacity"],
    )
    metrics["trace.coverage"] = (
        sums["covered"] / sums["wall"] if sums["wall"] else 0.0
    )
    metrics["trace.overhead"] = (
        statistics.median(traced_times) / statistics.median(untraced_times) - 1
        if traced_times and untraced_times else 0.0
    )
    trace_path = os.path.join(
        OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"
    )
    recorder.write(trace_path, {"workload": args.workload, "seed": args.seed})
    diagnostics = {
        "untraced_calls": len(untraced_times),
        "traced_calls": len(traced_times),
        "traced_executions": executions,
        "trace_file": os.path.relpath(trace_path, ROOT),
    }
    units = {name: layer_unit(name) for name in metrics}
    return finish(args, run, metrics, units, diagnostics)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", ".coverage", ".overhead")):
        return "ratio"
    if name.endswith("_nodes"):
        return "nodes"
    return "count"


def finish(
    args: argparse.Namespace, run: Run, metrics: Dict[str, float],
    units: Dict[str, str], diagnostics: Dict[str, Any],
) -> Dict[str, Any]:
    rejected = controls(run)
    correct = (
        run.failed == 0 and run.executions > 0
        and bool(rejected) and all(rejected.values())
    )
    diagnostics.update({
        "workload": args.workload,
        "seed": args.seed,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_share": run.failed / run.attempted,
        "executions": run.executions,
        "negative_controls_rejected": rejected,
        "errors": run.errors,
    })
    print(json.dumps({"diagnostics": diagnostics}))
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="run set-up only and print its processor time (used for the "
        "repeated set-up samples)",
    )
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *argv])
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"benchmark: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"benchmark: unknown workload {args.workload!r}; choose one of "
            f"{', '.join(workloads.names())}", file=sys.stderr,
        )
        return 2
    if args.setup_only:
        with fixed_configuration():
            prepare(args.workload, args.seed)
            print(json.dumps(scaled_setup(cpu_seconds())))
        return 0
    result = traced(args) if args.trace else timed(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
