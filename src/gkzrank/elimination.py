"""The budget clock and exponent limit shared by the face oracles.

A Budget is a wall-clock limit on all the face oracles of a command:
principal_a_determinant (or face_discriminant, for one face) turns it
into one _Clock that every face oracle polls, so a face reached after the
deadline is over budget at its first check.  The clock is read at every
check, each guarding a whole unit of work (a Bareiss cell update, a fiber
node, an evaluation row), so the oracles run at most one such unit past
the limit, then raise BudgetExceeded, which echoes the budget and the
stage.  The limit defaults
to 60 s and is set only by Budget(seconds=...), which refuses a value that
is not a number >= 0.  A face-local exponent above _EXP_MAX raises
ExponentOverflow, and so does a circuit binomial whose coefficients could
have more than _EXP_MAX bits.
"""

from __future__ import annotations

import time
from typing import NamedTuple

DEFAULT_BUDGET_SECONDS = 60.0

_EXP_MAX = (1 << 16) - 1


class InvalidBudget(ValueError):
    """A time budget that is not a number of seconds >= 0."""


def parse_seconds(text: str) -> float:
    try:
        return Budget(float(text)).seconds
    except ValueError:  # not a number, or InvalidBudget
        raise InvalidBudget("expected seconds >= 0, got %r" % text) from None


class _BudgetFields(NamedTuple):
    seconds: float = DEFAULT_BUDGET_SECONDS


class Budget(_BudgetFields):
    __slots__ = ()

    def __new__(cls, seconds: float = DEFAULT_BUDGET_SECONDS):
        s = seconds
        if isinstance(s, bool) or not isinstance(s, (int, float)) or not s >= 0:  # NaN too
            raise InvalidBudget("expected seconds >= 0, got %r" % (s,))
        return super().__new__(cls, seconds)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks the new value too
        return cls(*iterable)

    def describe(self) -> str:
        return "%gs" % self.seconds


class BudgetExceeded(RuntimeError):
    def __init__(self, budget: Budget, stage: str):
        self.budget = budget
        self.stage = stage
        super().__init__(
            "elimination budget exceeded (%s) during %s" % (budget.describe(), stage)
        )


class ExponentOverflow(ValueError):
    """A face-local exponent above the limit the face oracles accept, or a
    bound on the bit length of a circuit binomial's coefficients above it.

    The face or circuit is refused before anything is built for it.
    """

    def __init__(self, exponent: int, what: str = "exponent"):
        super().__init__(
            "%s %d exceeds the elimination limit %d" % (what, exponent, _EXP_MAX)
        )


class _Clock:
    __slots__ = ("budget", "deadline")

    def __init__(self, budget: Budget):
        self.budget = budget
        self.deadline = time.monotonic() + budget.seconds

    def check(self, stage: str):
        if time.monotonic() >= self.deadline:
            raise BudgetExceeded(self.budget, stage)
