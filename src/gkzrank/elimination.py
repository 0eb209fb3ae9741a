"""The budget clock and exponent limit shared by the face oracles.

A Budget is a wall-clock limit on all the face oracles of a command:
principal_a_determinant turns it into one _Clock that every face oracle
polls, so a face reached after the deadline is over budget at its first
check.  The clock is read at every check, each guarding a whole unit of
work (a Bareiss cell update, a fiber node, an evaluation row), so the
oracles run at most one such unit past the limit, then raise
BudgetExceeded, which echoes the budget and the stage.  The limit defaults
to 60 s, or to GKZ_BUDGET_SECS when set.  A face-local exponent above
_EXP_MAX raises ExponentOverflow.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

DEFAULT_BUDGET_SECONDS = 60.0

_EXP_MAX = (1 << 16) - 1


class InvalidBudget(ValueError):
    """A time budget that is not a number of seconds >= 0."""


def parse_seconds(text: str) -> float:
    error = InvalidBudget("expected seconds >= 0, got %r" % text)
    try:
        value = float(text)
    except ValueError:
        raise error from None
    if not value >= 0:  # false for NaN too
        raise error
    return value


def default_budget_seconds() -> float:
    raw = os.environ.get("GKZ_BUDGET_SECS")
    if raw is None:
        return DEFAULT_BUDGET_SECONDS
    try:
        return parse_seconds(raw)
    except InvalidBudget as exc:
        raise InvalidBudget("GKZ_BUDGET_SECS: %s" % exc) from None


@dataclass(frozen=True)
class Budget:
    seconds: float | None = None

    def effective_seconds(self) -> float:
        return default_budget_seconds() if self.seconds is None else self.seconds

    def describe(self) -> str:
        return "%gs" % self.effective_seconds()


class BudgetExceeded(RuntimeError):
    def __init__(self, budget: Budget, stage: str):
        self.budget = budget
        self.stage = stage
        super().__init__(
            "elimination budget exceeded (%s) during %s" % (budget.describe(), stage)
        )


class ExponentOverflow(ValueError):
    """A face-local exponent above the limit the face oracles accept.

    The face is refused before either oracle builds anything for it.
    """

    def __init__(self, exponent: int):
        super().__init__(
            "exponent %d exceeds the elimination limit %d" % (exponent, _EXP_MAX)
        )


class _Clock:
    __slots__ = ("budget", "deadline")

    def __init__(self, budget: Budget):
        self.budget = budget
        self.deadline = time.monotonic() + budget.effective_seconds()

    def check(self, stage: str):
        if time.monotonic() >= self.deadline:
            raise BudgetExceeded(self.budget, stage)
