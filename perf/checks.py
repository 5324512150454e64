"""Output checks made from outside the program.

Every execution a workload runs is reduced to an :class:`Outcome` (the
paper's ``(ans(E), F, I)`` triple plus round counts) and judged here:
every correct process decided, the Section 2 agreement and validity
conditions hold (``byzantine_agreement_predicate``), and no process
ran or decided past the protocol's round bound.  The negative controls
are doctored copies of a correct outcome that the checker must reject;
a checker that accepts them would pass anything.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.core.predicates import byzantine_agreement_predicate
from repro.types import BOTTOM, is_bottom

PREDICATE = byzantine_agreement_predicate()


@dataclasses.dataclass(frozen=True)
class Outcome:
    """What the checker needs from one execution."""

    process_ids: Tuple[int, ...]
    inputs: Dict[int, Any]
    faulty: FrozenSet[int]
    decisions: Dict[int, Any]
    decision_rounds: Dict[int, Optional[int]]
    rounds: int
    round_bound: int

    @classmethod
    def of(cls, result: Any, round_bound: int) -> "Outcome":
        """Read an ``ExecutionResult`` (live or pool-portable)."""
        return cls(
            process_ids=tuple(result.config.process_ids),
            inputs=dict(result.inputs),
            faulty=frozenset(result.faulty_ids),
            decisions=dict(result.decisions),
            decision_rounds=dict(result.decision_rounds),
            rounds=result.rounds,
            round_bound=round_bound,
        )


def problems(outcome: Outcome) -> List[str]:
    """Everything wrong with ``outcome``; empty when it passes."""
    found = []
    correct = [p for p in outcome.process_ids if p not in outcome.faulty]
    undecided = [
        p for p in correct if is_bottom(outcome.decisions.get(p, BOTTOM))
    ]
    if undecided:
        found.append(f"undecided correct processes {undecided}")
    answers = tuple(
        BOTTOM if p in outcome.faulty else outcome.decisions.get(p, BOTTOM)
        for p in outcome.process_ids
    )
    inputs = tuple(outcome.inputs.get(p, BOTTOM) for p in outcome.process_ids)
    if not PREDICATE(answers, outcome.faulty, inputs):
        found.append("agreement or validity violated")
    if outcome.rounds > outcome.round_bound:
        found.append(
            f"ran {outcome.rounds} rounds, bound {outcome.round_bound}"
        )
    late = sorted(
        p for p in correct
        if (outcome.decision_rounds.get(p) or 0) > outcome.round_bound
    )
    if late:
        found.append(f"processes {late} decided after the round bound")
    return found


def negative_controls(outcome: Outcome) -> List[Tuple[str, Outcome]]:
    """Doctored copies of a passing binary-valued outcome.

    One flips a single correct process's decision (breaks agreement);
    the other claims one round past the bound.
    """
    first = min(p for p in outcome.process_ids if p not in outcome.faulty)
    flipped = dict(outcome.decisions)
    flipped[first] = 1 - flipped[first]
    return [
        ("flipped-decision", dataclasses.replace(outcome, decisions=flipped)),
        (
            "past-round-bound",
            dataclasses.replace(outcome, rounds=outcome.round_bound + 1),
        ),
    ]


def controls_rejected(outcome: Outcome) -> Dict[str, bool]:
    """Per control, whether the checker rejected it (it must)."""
    return {
        label: bool(problems(doctored))
        for label, doctored in negative_controls(outcome)
    }
