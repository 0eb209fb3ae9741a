"""The package's records: immutable NamedTuples, and an import that needs
neither dataclasses nor inspect."""

import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gkzrank
from gkzrank.elimination import DEFAULT_BUDGET_SECONDS, Budget, InvalidBudget, parse_seconds
from gkzrank.secondary import Triangulation

SRC = Path(__file__).parent.parent / "src"

EXPORTED_RECORDS = [
    "ASet",
    "Budget",
    "Circuit",
    "EDetResult",
    "EdgeData",
    "Face",
    "FaceInvariants",
    "SecondaryPolytope",
    "TheoremReport",
    "Triangulation",
]


def test_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; sys.path.insert(0, %r); import gkzrank.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))" % str(SRC)
    )
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exported_records_refuse_attribute_assignment():
    records = [
        name
        for name in gkzrank.__all__
        if isinstance(getattr(gkzrank, name), type) and issubclass(getattr(gkzrank, name), tuple)
    ]
    assert records == EXPORTED_RECORDS
    for name in records:
        cls = getattr(gkzrank, name)
        rec = cls._make(range(len(cls._fields)))
        for attr in cls._fields + ("unknown",):
            with pytest.raises(AttributeError):
                setattr(rec, attr, 1)


def test_triangulation_equality_and_hash_ignore_the_lifting():
    sims = ((0, 1), (1, 2))
    a, b = Triangulation(sims, (0, 1, 0)), Triangulation(simplices=sims)
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Triangulation(((0, 2),), (0, 1, 0))
    assert a != (sims, (0, 1, 0))


@pytest.mark.parametrize("seconds", [True, "1", float("nan"), -1])
def test_budget_refuses_bad_seconds_in_every_constructor_form(seconds):
    with pytest.raises(InvalidBudget, match="expected seconds >= 0"):
        Budget(seconds)
    with pytest.raises(InvalidBudget, match="expected seconds >= 0"):
        Budget(seconds=seconds)
    with pytest.raises(InvalidBudget, match="expected seconds >= 0"):
        Budget()._replace(seconds=seconds)


def test_budget_defaults_and_forms():
    assert Budget().seconds == DEFAULT_BUDGET_SECONDS == 60
    assert Budget(15) == Budget(seconds=15) and Budget(15).seconds == 15
    assert Budget(0.5).describe() == "0.5s"
    assert repr(Budget(2)) == "Budget(seconds=2)"


@pytest.mark.parametrize(
    "text, seconds", [("15", 15.0), ("0", 0.0), ("2.5", 2.5), ("1e-3", 0.001), ("inf", math.inf)]
)
def test_parse_seconds_reads_a_number_at_least_zero(text, seconds):
    value = parse_seconds(text)
    assert value == seconds and type(value) is float


@pytest.mark.parametrize("text", ["abc", "", "nan", "-5", "-0.1"])
def test_parse_seconds_refuses_other_text(text):
    with pytest.raises(InvalidBudget, match=re.escape("expected seconds >= 0, got %r" % text)):
        parse_seconds(text)
