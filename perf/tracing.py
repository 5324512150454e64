"""Layer spans recorded from outside the program.

:class:`Recorder` wraps public functions and methods of each layer
(``runtime``, ``adversary``, ``avalanche``, ``compact``, ``arrays``,
``fullinfo``, ``analysis``) so that every call records a span: an id,
its parent span, a name, a start, an end and the benchmark call it
belongs to.  Self time -- a span's duration minus the time its child
spans cover -- is accumulated per name as spans close; raw spans are
kept in memory for the first few calls and written when the run ends.

Spans use the wall clock (``perf_counter``), which is shared by
processes on one host, so spans from ``analysis`` pool workers line up
with the parent's.  Workers inherit the wrappers through ``fork``;
the ``run_cell`` wrapper flushes each cell's spans, totals and cache
counters to a per-worker file that the parent absorbs after the call.

Nothing under ``src/`` is edited: :meth:`Recorder.install` replaces
attributes at run time and :meth:`Recorder.uninstall` puts the
originals back.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.obs.core as obs
from repro.arrays.store import shared_store_stats

#: Methods wrapped in place: (module, class, method, span name).
METHODS = (
    ("repro.runtime.network", "SynchronousNetwork", "run_round",
     "runtime.round"),
    ("repro.avalanche.protocol", "AvalancheInstance", "step",
     "avalanche.step"),
    ("repro.compact.protocol", "CompactProcess", "outgoing",
     "compact.outgoing"),
    ("repro.compact.protocol", "CompactProcess", "receive",
     "compact.receive"),
    ("repro.compact.authenticated_variant", "AuthCompactProcess",
     "outgoing", "compact.outgoing"),
    ("repro.compact.authenticated_variant", "AuthCompactProcess",
     "receive", "compact.receive"),
    ("repro.compact.subprotocol", "AgreementBatch", "step",
     "compact.batch_step"),
    ("repro.compact.expansion", "ExpansionState", "expand",
     "compact.expand"),
    ("repro.compact.authenticated_variant", "AuthExpansion", "expand",
     "compact.expand"),
    ("repro.arrays.store", "ArrayStore", "intern", "arrays.intern"),
    ("repro.arrays.flat", "FlatTables", "sync", "arrays.flat_sync"),
)

#: Every subclass defining the method is wrapped: (module, base class,
#: method, span name).
HIERARCHIES = (
    ("repro.runtime.scheduler", "Scheduler", "dispatch",
     "runtime.dispatch"),
    ("repro.adversary.base", "Adversary", "outgoing",
     "adversary.outgoing"),
)

#: Module-level functions, replaced wherever a ``repro`` module binds
#: them: (module, function, span name).
FUNCTIONS = (
    ("repro.compact.lazy_decision", "lazy_eig_decision",
     "compact.lazy_decision"),
    ("repro.arrays.flat", "chain_topology", "arrays.topology"),
    ("repro.arrays.flat", "eig_sweep", "arrays.eig_sweep"),
    ("repro.fullinfo.decision", "eig_byzantine_decision",
     "fullinfo.eig_decision"),
    ("repro.analysis.parallel", "execute_cells", "analysis.execute"),
)

#: Sizer factories whose returned measure functions become
#: ``runtime.meter`` spans.
SIZER_FACTORIES = (
    ("repro.compact.payload", "compact_sizer"),
    ("repro.compact.authenticated_variant", "auth_sizer"),
)

CELL = ("repro.analysis.parallel", "run_cell", "analysis.cell")

#: Observer counters shipped from pool workers: the pool keeps cache
#: ``.hit``/``.miss`` splits worker-local, so the cell wrapper sends them.
_WORKER_COUNTER_SUFFIXES = (".hit", ".miss")

ROOT = "call"

# A span: (id, parent id, name, start, end, call id).
Span = Tuple[int, Optional[int], str, float, float, Any]


class Recorder:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        for entry in os.listdir(out_dir):  # left by an interrupted run
            if _is_worker_file(entry):
                os.remove(os.path.join(out_dir, entry))
        self.pid = os.getpid()
        self._worker_pid: Optional[int] = None
        self._ids = itertools.count(self.pid << 32)
        #: Open spans, innermost last: [span id, seconds covered by children].
        self.stack: List[List[Any]] = []
        #: name -> [calls, self seconds, total seconds]
        self.totals: Dict[str, List[float]] = {}
        self.spans: List[Span] = []
        self.keep = False
        self.call_id: Any = None
        self.worker_counters: Dict[str, int] = {}
        self.worker_high_water = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` recording one ``name`` span per call."""
        recorder = self
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = recorder.stack
            parent = stack[-1] if stack else None
            frame = [next(recorder._ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                recorder._close(name, frame, parent, start, end)

        return traced

    def _close(
        self, name: str, frame: List[Any], parent: Optional[List[Any]],
        start: float, end: float,
    ) -> None:
        duration = end - start
        if parent is not None:
            parent[1] += duration
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration - frame[1]
        entry[2] += duration
        if self.keep:
            self.spans.append((
                frame[0], parent[0] if parent is not None else None, name,
                start, end, self.call_id,
            ))

    def call(self, call_id: Any, function: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run one benchmark call under a root span.

        Returns ``(result, seconds, seconds covered by layer spans)``.
        """
        self.call_id = call_id
        frame = [next(self._ids), 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            result = function()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self._close(ROOT, frame, None, start, end)
        return result, end - start, frame[1]

    def take_totals(self) -> Dict[str, List[float]]:
        totals, self.totals = self.totals, {}
        return totals

    # -- pool workers --------------------------------------------------------

    def _wrap_cell(self, function: Callable) -> Callable:
        traced = self.wrap(CELL[2], function)
        recorder = self

        def cell(*args: Any, **kwargs: Any) -> Any:
            in_worker = os.getpid() != recorder.pid
            if in_worker and recorder._worker_pid != os.getpid():
                recorder._become_worker()
            before = _worker_counters() if in_worker else {}
            try:
                return traced(*args, **kwargs)
            finally:
                if in_worker:
                    recorder._flush_cell(before)

        return cell

    def _become_worker(self) -> None:
        """Start a forked worker from empty totals and its own id range."""
        self._worker_pid = os.getpid()
        self._ids = itertools.count(self._worker_pid << 32)
        self.totals = {}
        self.spans = []

    def _flush_cell(self, before: Dict[str, int]) -> None:
        after = _worker_counters()
        record = {
            "totals": self.totals,
            "spans": self.spans,
            "counters": {
                name: value - before.get(name, 0)
                for name, value in after.items()
            },
            "high_water": shared_store_stats()["high_water_nodes"],
        }
        path = os.path.join(self.out_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as sink:
            sink.write(json.dumps(record) + "\n")
        self.totals = {}
        self.spans = []

    def absorb_workers(self) -> None:
        """Merge and delete what pool workers flushed since the last call."""
        for entry in sorted(os.listdir(self.out_dir)):
            if not _is_worker_file(entry):
                continue
            path = os.path.join(self.out_dir, entry)
            with open(path, encoding="utf-8") as source:
                records = [json.loads(line) for line in source if line.strip()]
            os.remove(path)
            for record in records:
                for name, (calls, self_s, total_s) in record["totals"].items():
                    entry_totals = self.totals.setdefault(name, [0, 0.0, 0.0])
                    entry_totals[0] += calls
                    entry_totals[1] += self_s
                    entry_totals[2] += total_s
                self.spans.extend(tuple(span) for span in record["spans"])
                for name, delta in record["counters"].items():
                    self.worker_counters[name] = (
                        self.worker_counters.get(name, 0) + delta
                    )
                self.worker_high_water = max(
                    self.worker_high_water, record["high_water"]
                )

    # -- patches -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method (idempotent)."""
        if self._patches:
            return
        for module_name, class_name, method, name in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch(cls, method, self.wrap(name, cls.__dict__[method]))
        for module_name, base_name, method, name in HIERARCHIES:
            base = getattr(importlib.import_module(module_name), base_name)
            for cls in _subclasses(base):
                if method in cls.__dict__:
                    self._patch(cls, method, self.wrap(name, cls.__dict__[method]))
        for module_name, function_name, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), function_name)
            self._patch_everywhere(original, self.wrap(name, original))
        for module_name, function_name in SIZER_FACTORIES:
            original = getattr(importlib.import_module(module_name), function_name)
            self._patch_everywhere(original, self._wrap_sizer_factory(original))
        module_name, function_name, _name = CELL
        original = getattr(importlib.import_module(module_name), function_name)
        self._patch_everywhere(original, self._wrap_cell(original))

    def uninstall(self) -> None:
        """Put every original back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _wrap_sizer_factory(self, factory: Callable) -> Callable:
        def traced_factory(*args: Any, **kwargs: Any) -> Callable:
            return self.wrap("runtime.meter", factory(*args, **kwargs))

        return traced_factory

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_everywhere(self, original: Callable, replacement: Callable) -> None:
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    # -- output --------------------------------------------------------------

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write the kept spans as one JSON document."""
        document = dict(header)
        document["span_fields"] = ["id", "parent", "name", "start", "end", "call"]
        document["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(document, sink)


def _is_worker_file(name: str) -> bool:
    return name.startswith("worker-") and name.endswith(".jsonl")


def _subclasses(base: type) -> Iterator[type]:
    seen = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        pending.extend(cls.__subclasses__())


def _worker_counters() -> Dict[str, int]:
    observer = obs.ACTIVE
    if observer is None:
        return {}
    return {
        name: value
        for name, value in observer.registry.counters().items()
        if name.endswith(_WORKER_COUNTER_SUFFIXES)
    }


# -- per-layer metrics ---------------------------------------------------------

#: (metric, span name, field) for span-derived values per execution.
SPAN_METRICS = (
    ("runtime.rounds", "runtime.round", "calls"),
    ("runtime.round.self_s", "runtime.round", "self"),
    ("runtime.meter.calls", "runtime.meter", "calls"),
    ("runtime.meter.self_s", "runtime.meter", "self"),
    ("runtime.dispatch.self_s", "runtime.dispatch", "self"),
    ("adversary.outgoing.self_s", "adversary.outgoing", "self"),
    ("avalanche.step.calls", "avalanche.step", "calls"),
    ("avalanche.step.self_s", "avalanche.step", "self"),
    ("compact.outgoing.self_s", "compact.outgoing", "self"),
    ("compact.receive.self_s", "compact.receive", "self"),
    ("compact.batch_step.calls", "compact.batch_step", "calls"),
    ("compact.batch_step.self_s", "compact.batch_step", "self"),
    ("compact.expand.calls", "compact.expand", "calls"),
    ("compact.expand.self_s", "compact.expand", "self"),
    ("compact.lazy_decision.calls", "compact.lazy_decision", "calls"),
    ("compact.lazy_decision.self_s", "compact.lazy_decision", "self"),
    ("arrays.intern.calls", "arrays.intern", "calls"),
    ("arrays.intern.self_s", "arrays.intern", "self"),
    ("arrays.eig_sweep.calls", "arrays.eig_sweep", "calls"),
    ("arrays.eig_sweep.self_s", "arrays.eig_sweep", "self"),
    ("arrays.flat_sync.self_s", "arrays.flat_sync", "self"),
    ("fullinfo.eig_decision.calls", "fullinfo.eig_decision", "calls"),
    ("fullinfo.eig_decision.self_s", "fullinfo.eig_decision", "self"),
    ("analysis.execute.self_s", "analysis.execute", "self"),
    ("analysis.cell.self_s", "analysis.cell", "self"),
)

#: (metric, counter prefix) for observer hit ratios.
HIT_RATIOS = (
    ("runtime.size_cache.hit_ratio", "net.size_cache"),
    ("compact.expansion.hit_ratio", "compact.expansion"),
    ("arrays.intern.hit_ratio", "arrays.intern"),
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    totals: Dict[str, List[float]],
    counters: Dict[str, int],
    executions: int,
    setup_totals: Dict[str, List[float]],
    high_water_nodes: int,
    pool_busy_s: float,
    pool_capacity_s: float,
) -> Dict[str, float]:
    """The per-layer metrics, per execution unless the name says a ratio."""
    field = {"calls": 0, "self": 1}
    metrics = {
        metric: _share(totals.get(span, [0, 0.0, 0.0])[field[kind]], executions)
        for metric, span, kind in SPAN_METRICS
    }
    metrics["runtime.messages"] = _share(counters.get("net.messages", 0), executions)
    metrics["runtime.non_null"] = _share(
        counters.get("net.non_null_messages", 0), executions
    )
    for metric, prefix in HIT_RATIOS:
        hits = counters.get(prefix + ".hit", 0)
        metrics[metric] = _share(hits, hits + counters.get(prefix + ".miss", 0))
    flat = counters.get("eig.kernel.flat", 0)
    metrics["fullinfo.eig_kernel.flat_share"] = _share(
        flat, flat + counters.get("eig.kernel.fallback", 0)
    )
    metrics["arrays.topology.build_s"] = setup_totals.get(
        "arrays.topology", [0, 0.0, 0.0]
    )[2]
    metrics["arrays.store.high_water_nodes"] = float(high_water_nodes)
    metrics["analysis.pool.busy_share"] = _share(pool_busy_s, pool_capacity_s)
    metrics["analysis.pool.chunks"] = _share(
        counters.get("pool.chunks", 0), executions
    )
    return metrics
