"""The benchmark's four closed-loop workloads.

Each workload turns a seed into a :class:`Plan`: a fixed cycle of
calls that the runner repeats, one call at a time, until its time is
up.  The seed draws the ``t`` fault positions and the inputs (random
binary, the correct processes split evenly between 0 and 1); the
program sees only those inputs.  Every call returns the executions it
ran, each with the round bound the checker holds it to.

Why these four:

* ``ba-n16`` -- Corollary 10 at the scale where the ``arrays`` kernel
  (chain topology at set-up, ``eig_sweep`` per call) does nearly all
  the work; runtime-side changes should not move it.
* ``gallery-n10`` -- the mirror image: small EIG, so runtime delivery
  and metering, the avalanche tally, the compact block step,
  expansion and interning carry the work; many short calls support a
  tail percentile.
* ``variants-n10-async`` -- the lazy-decision and authenticated
  variants from the catalog under the event-driven scheduler: the same
  layers used a different way.  A call runs one of each.
* ``sweep-n7-pool`` -- the only workload through the ``analysis``
  process pool, where forking and carrying results back dominate.  A
  call is one 24-cell sweep; the cycle has six of them.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Any, Callable, Dict, List, Sequence, Tuple

import repro.compact.authenticated_variant as auth_variant
import repro.compact.byzantine_agreement as compact_ba
import repro.compact.payload as payload
from repro.adversary import EquivocatingAdversary, compact_attacks
from repro.agreement.interfaces import catalog
from repro.analysis import sweeps
from repro.core.predicates import byzantine_agreement_predicate
from repro.runtime import engine
from repro.types import SystemConfig

ALPHABET = (0, 1)
#: Fault placements per plan cycle.  Call cost and bit count depend on
#: where the faults sit; averaging over more placements makes a cycle's
#: cost and bits move less from seed to seed.
GALLERY_PLACEMENTS = 12
VARIANT_PLACEMENTS = 4
#: Fault sets per sweep, and sweeps per cycle.
SWEEP_PLACEMENTS = 4
SWEEP_GRIDS = 6
POOL_WORKERS = 2


@dataclasses.dataclass(frozen=True)
class Execution:
    """One execution a call ran, with the round bound it must meet."""

    result: Any
    round_bound: int


@dataclasses.dataclass
class Plan:
    """A workload's call cycle for one seed."""

    config: SystemConfig
    calls: List[Callable[[], List[Execution]]]
    #: Leading calls of the cycle run once before timing starts.
    warmup: int
    #: Whether call time is mostly interpreted Python, which drifts with
    #: the host probe; ``ba-n16`` spends it in numpy (``eig_sweep``).
    interpreter_bound: bool = True


Scenario = Tuple[List[int], Dict[int, int]]


def scenario(config: SystemConfig, rng: random.Random) -> Scenario:
    """``t`` faulty ids and an input vector split evenly among the rest."""
    faulty = sorted(rng.sample(list(config.process_ids), config.t))
    correct = [p for p in config.process_ids if p not in faulty]
    values = [index % 2 for index in range(len(correct))]
    rng.shuffle(values)
    inputs = dict(zip(correct, values))
    inputs.update({p: rng.randrange(2) for p in faulty})
    return faulty, inputs


def gallery_makers() -> List[Tuple[str, Callable]]:
    """The generic Byzantine gallery plus the compact-format attacks."""
    return sweeps.standard_adversary_makers(ALPHABET) + [
        (cls.__name__, cls)
        for cls in (
            compact_attacks.StaleCoreAdversary,
            compact_attacks.ForgedIndexAdversary,
            compact_attacks.SpliceAdversary,
            compact_attacks.AvalancheEquivocator,
        )
    ]


def direct_call(
    config: SystemConfig, seed: int, faulty: List[int],
    inputs: Dict[int, int], maker: Callable,
) -> Callable[[], List[Execution]]:
    """One ``run_compact_byzantine_agreement`` call (k=1, lockstep)."""
    bound = compact_ba.compact_ba_rounds(config.t, 1)

    def call() -> List[Execution]:
        result = compact_ba.run_compact_byzantine_agreement(
            config, inputs, ALPHABET, k=1, adversary=maker(faulty),
            seed=seed, scheduler="lockstep",
        )
        return [Execution(result, bound)]

    return call


def ba_n16(seed: int) -> Plan:
    config = SystemConfig(n=16, t=5)
    faulty, inputs = scenario(config, random.Random(seed))
    call = direct_call(
        config, seed, faulty, inputs,
        lambda ids: EquivocatingAdversary(ids, 0, 1),
    )
    return Plan(config, [call], warmup=1, interpreter_bound=False)


def gallery_n10(seed: int) -> Plan:
    config = SystemConfig(n=10, t=3)
    rng = random.Random(seed)
    makers = gallery_makers()
    calls = []
    for _ in range(GALLERY_PLACEMENTS):
        faulty, inputs = scenario(config, rng)
        calls.extend(
            direct_call(config, seed, faulty, inputs, maker)
            for _name, maker in makers
        )
    return Plan(config, calls, warmup=len(makers))


def variant_pair_call(
    variants: Sequence[Any], config: SystemConfig, seed: int,
    faulty: List[int], inputs: Dict[int, int], maker: Callable,
) -> Callable[[], List[Execution]]:
    """One execution of each variant, in turn, on the same scenario.

    The two variants' call times form separate clusters (lazy about
    1.5x authenticated at n=10), so the median of single executions
    alternating 50/50 would sit in the gap between them and jump from
    run to run; a pair has one cluster.
    """

    def run_variant(entry: Any) -> Execution:
        bound = entry.rounds(config.t)
        if "authenticated" in entry.name:
            sizer, is_null = auth_variant.auth_sizer(config, 2), None
        else:
            sizer = payload.compact_sizer(config, 2)
            is_null = payload.payload_is_null
        result = engine.run_protocol(
            entry.build(config, ALPHABET, seed), config, inputs,
            adversary=maker(faulty), max_rounds=bound + 1, sizer=sizer,
            is_null=is_null, seed=seed, scheduler="async",
        )
        return Execution(result, bound)

    def call() -> List[Execution]:
        return [run_variant(entry) for entry in variants]

    return call


def variants_n10_async(seed: int) -> Plan:
    config = SystemConfig(n=10, t=3)
    rng = random.Random(seed)
    entries = {entry.name: entry for entry in catalog()}
    variants = [
        entries["compact BA (lazy, k=1)"],
        entries["compact BA (authenticated, k=1)"],
    ]
    calls = []
    for _ in range(VARIANT_PLACEMENTS):
        faulty, inputs = scenario(config, rng)
        calls.extend(
            variant_pair_call(variants, config, seed, faulty, inputs, maker)
            for _name, maker in sweeps.standard_adversary_makers(ALPHABET)
        )
    return Plan(config, calls, warmup=1)


def sweep_call(
    config: SystemConfig, seed: int, fault_sets: List[List[int]],
    inputs: Dict[int, int],
) -> Callable[[], List[Execution]]:
    """One pooled sweep: 6 strategies x the fault sets x 1 input pattern."""
    input_patterns = [inputs]
    bound = compact_ba.compact_ba_rounds(config.t, 1)

    def call() -> List[Execution]:
        report = sweeps.sweep(
            compact_ba.compact_ba_factory(config, ALPHABET, default=0, k=1),
            config, input_patterns, fault_sets,
            sweeps.standard_adversary_makers(ALPHABET), seeds=(seed,),
            predicate=byzantine_agreement_predicate(),
            max_rounds=bound + 1,
            sizer=payload.compact_sizer(config, 2),
            is_null=payload.payload_is_null, workers=POOL_WORKERS,
            cache=False, scheduler="lockstep",
        )
        failed = [o.describe() for o in report.outcomes if o.error]
        if failed:
            raise RuntimeError(f"predicate errors in sweep: {failed[:3]}")
        return [Execution(o.result, bound) for o in report.outcomes]

    return call


def sweep_n7_pool(seed: int) -> Plan:
    config = SystemConfig(n=7, t=2)
    rng = random.Random(seed)
    # All 21 placements in a seeded order, so that the cycle's bit count
    # hardly depends on the seed; the cycle's 24 sets repeat 3 of them.
    placements = [
        list(faulty)
        for faulty in itertools.combinations(config.process_ids, config.t)
    ]
    rng.shuffle(placements)
    calls = []
    for grid in range(SWEEP_GRIDS):
        fault_sets = [
            placements[(grid * SWEEP_PLACEMENTS + slot) % len(placements)]
            for slot in range(SWEEP_PLACEMENTS)
        ]
        calls.append(
            sweep_call(config, seed, fault_sets, scenario(config, rng)[1])
        )
    return Plan(config, calls, warmup=1)


WORKLOADS: Dict[str, Callable[[int], Plan]] = {
    "ba-n16": ba_n16,
    "gallery-n10": gallery_n10,
    "variants-n10-async": variants_n10_async,
    "sweep-n7-pool": sweep_n7_pool,
}


def names() -> Sequence[str]:
    return tuple(WORKLOADS)
