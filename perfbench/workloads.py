"""The three workloads: what each document runs and how its output is checked.

A document's `run` is the timed (and, in a traced run, traced) work.  Its
`check` runs afterwards, untimed and untraced, and returns an `Outcome`:
operations attempted, operations lost to the budget, failed checks, a
digest of the answers and the exact counts the answers imply.

Package functions are called through their modules so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

from gkzrank import cli, discriminant, ktheory, lattice, polytope, report, secondary
from gkzrank.elimination import Budget

import inputs

# Every face in these workloads either finishes in under 7.5 s on a busy
# 2-core machine (the slowest is the top face of six collinear points) or has
# not finished in 150 s (corpus instance 10), so with twice the former the
# skip set does not depend on machine load.  No more: the hopeless face costs
# the whole budget on every survey run.  GKZ_BUDGET_SECS is ignored because
# the budget is explicit.
BUDGET_SECONDS = 15.0
BUDGET = Budget(seconds=BUDGET_SECONDS)

# Acceptance-corpus instances whose strata make up one pass (see inputs.py).
# flips: two d=3, n=6 instances with 12 triangulations, five d=2, n=5 and four
# d=3, n=5.  The median document is then a d=2, n=5 one, whose cost does not
# move with the seed.  Six collinear points are left to edet and survey: in
# flips one such document and its reversed-edge check would fill the run.
FLIPS_STRATA = [11, 15, 4, 6, 8, 9, 13, 14, 16, 20, 29]
# edet: six collinear points, the three d=2, n=5 gap patterns, d=2, n=4 and
# d=3 with n = 4, 5; every face finishes well within the budget.
EDET_STRATA = [3, 4, 6, 8, 1, 14, 16, 30, 33, 36, 37, 2, 12]

SURVEY_BUILTINS = ("a3", "kp2", "f2")
SURVEY_VERBS = ("secondary", "edet", "verify")
# The shortest corpus prefix holding six collinear points (instance 3) and a
# d=3, n=6 instance whose top face exceeds the budget (instance 10).
SURVEY_PREFIX = 11
# Faces that may run over budget in that prefix.  Any other face over budget
# means the budget no longer separates finishing faces from hopeless ones, and
# the run is unsteady.  One of these finishing is a gain, not unsteadiness.
SURVEY_EXPECTED_OVER_BUDGET = {"corpus-10": [[0, 1, 2, 3, 4, 5]]}


@dataclass
class Outcome:
    ops: int
    over_budget: int = 0
    failures: list = field(default_factory=list)
    answer: object = None
    counts: dict = field(default_factory=dict)
    over_budget_faces: list = field(default_factory=list)
    skipped_edges: list = field(default_factory=list)
    budget_errors: list = field(default_factory=list)

    @property
    def digest(self) -> str:
        text = json.dumps(self.answer, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Doc:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    in_overhead_sample: bool = True


def _records(poly):
    return None if poly is None else poly.to_records()


# -- flips ---------------------------------------------------------------


def _flips_run(aset):
    sp = secondary.secondary_polytope(aset)
    return sp, [secondary.edge_data(sp, i, j) for i, j in sp.edges]


def _flips_check(aset, result) -> Outcome:
    sp, eds = result
    fails = []
    if sp.dim != aset.n - aset.dim:
        fails.append("dim %d != n - d = %d" % (sp.dim, aset.n - aset.dim))
    vol = polytope.total_volume(aset)
    for phi in sp.phis:
        if sum(phi) != aset.dim * vol:
            fails.append("sum(phi) %d != d * vol %d" % (sum(phi), aset.dim * vol))
    answer_edges = []
    for (i, j), ed in zip(sp.edges, eds):
        back = secondary.edge_data(sp, j, i)
        if (back.circuit, back.separating_sets) != (ed.circuit, ed.separating_sets):
            fails.append("edge %d-%d differs when given as %d-%d" % (i, j, j, i))
        answer_edges.append(
            [[i, j], list(ed.circuit.indices), list(ed.circuit.relation),
             [list(s) for s in ed.separating_sets]]
        )
    return Outcome(
        ops=1 + len(eds),
        failures=fails,
        answer={"phis": [list(p) for p in sp.phis], "edges": answer_edges},
        counts={"triangulations": len(sp.phis), "edges": len(sp.edges)},
    )


def flips_docs(seed: int) -> list[Doc]:
    asets = inputs.draw(inputs.strata(FLIPS_STRATA, "flips"), "flips", seed)
    return [
        Doc("flips-%d-d%dn%d" % (k, a.dim, a.n),
            lambda a=a: _flips_run(a),
            lambda r, a=a: _flips_check(a, r))
        for k, a in enumerate(asets)
    ]


# -- edet ----------------------------------------------------------------


def singular_coefficients(exps, y0):
    """Coefficients whose family is singular at the torus point y0.

    Solves g(y0) = 0 and y_i dg/dy_i (y0) = 0 exactly (the construction of
    `tests/conftest.py::singular_point_vector`); every such coefficient
    vector lies on the dual variety, so the face discriminant vanishes there.
    """
    monos = []
    for w in exps:
        val = Fraction(1)
        for y, e in zip(y0, w):
            val *= Fraction(y) ** e
        monos.append(val)
    rows = [monos] + [[w[i] * m for w, m in zip(exps, monos)] for i in range(len(exps[0]))]
    den = 1
    for row in rows:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    kern = lattice.kernel_basis([[int(x * den) for x in row] for row in rows])
    for vec in kern:
        if all(vec):
            return vec
    return [sum(vec[i] for vec in kern) for i in range(len(exps))]


def _edet_check(aset, result) -> Outcome:
    fails = []
    over = [f for f in result.factors if f.discriminant is None]
    vol = polytope.total_volume(aset)
    if result.e_a is not None:
        weights = set()
        for e in result.e_a.terms:
            if sum(e) != aset.dim * vol:
                fails.append("E_A exponent %r has degree %d != d * vol" % (e, sum(e)))
            weights.add(tuple(sum(ej * p[k] for ej, p in zip(e, aset.points)) for k in range(aset.dim)))
        if len(weights) != 1:
            fails.append("E_A is not A-homogeneous: %d distinct A.e" % len(weights))
    for f in result.factors:
        disc = f.discriminant
        if disc is None or disc.is_constant() or disc.is_monomial():
            continue
        exps = discriminant.face_local_exponents(aset, f.face)
        y0 = [Fraction(p, p + 1) for p in (2, 3, 5)[: len(exps[0])]]
        coeffs = singular_coefficients(exps, y0)
        values = [1] * aset.n
        for i, c in zip(f.face.indices, coeffs):
            values[i] = c
        if disc.evaluate(values) != 0:
            fails.append("discriminant of face %r does not vanish at a singular point" % (f.face.indices,))
    return Outcome(
        ops=len(result.factors),
        over_budget=len(over),
        failures=fails,
        answer={
            "e_a": _records(result.e_a),
            "factors": [[list(f.face.indices), f.exponent, _records(f.discriminant)] for f in result.factors],
        },
        counts={"e_a_terms": 0 if result.e_a is None else len(result.e_a.terms)},
        over_budget_faces=[list(f.face.indices) for f in over],
    )


def edet_docs(seed: int) -> list[Doc]:
    asets = inputs.draw(inputs.strata(EDET_STRATA, "edet"), "edet", seed)
    return [
        Doc("edet-%d-d%dn%d" % (k, a.dim, a.n),
            lambda a=a: discriminant.principal_a_determinant(a, BUDGET),
            lambda r, a=a: _edet_check(a, r))
        for k, a in enumerate(asets)
    ]


# -- survey --------------------------------------------------------------


def _cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_check(golden: str, result) -> Outcome:
    code, out = result
    fails = []
    if code != 0:
        fails.append("exit code %d" % code)
    if out != golden:
        fails.append("stdout differs from the golden file")
    return Outcome(ops=1, failures=fails, answer=out, counts={"json_bytes": len(out.encode())})


def _survey_run(aset):
    sp = secondary.secondary_polytope(aset)
    hull = secondary.hull_edges(sp)
    result = ktheory.verify_theorem(aset, BUDGET, sp=sp)
    newton = None
    if result.edet.e_a is not None:
        newton = discriminant.newton_polytope_check(result.edet.e_a, sp)
    text = json.dumps(report.report_to_dict(report.build_report(result)), sort_keys=True)
    return sp, hull, result, newton, text


# A face's budget error names the stage in which the clock ran out, which
# depends on the machine's speed, not on the answer; the digest leaves it out
# and the skip set records it.
_BUDGET_STAGE = re.compile(r"(budget exceeded \([^)]*\)) during [a-z -]+")


def _survey_check(result) -> Outcome:
    sp, hull, res, newton, text = result
    fails = []
    if hull != sp.edges:
        fails.append("flip skeleton differs from the hull skeleton")
    skipped = []
    for e in res.edges:
        if e.status == "skipped":
            skipped.append(list(e.vertex_pair))
        elif e.status != "ok" or e.zf_rank != e.rhs:
            fails.append("edge %r: %s %s" % (e.vertex_pair, e.status, e.detail))
    if newton is not None and not newton.ok:
        fails.append("E_A fails the Newton polytope check")
    over = [f for f in res.edet.factors if f.discriminant is None]
    return Outcome(
        ops=len(res.edges) + len(res.edet.factors),
        over_budget=len(skipped) + len(over),
        failures=fails,
        answer={
            "report": _BUDGET_STAGE.sub(r"\1", text),
            "hull": [list(e) for e in hull],
            "newton": None if newton is None else newton.ok,
        },
        counts={
            "edges": len(res.edges),
            "skipped_edges": len(skipped),
            "e_a_terms": 0 if res.edet.e_a is None else len(res.edet.e_a.terms),
            "json_bytes": len(text.encode()),
        },
        over_budget_faces=[list(f.face.indices) for f in over],
        skipped_edges=skipped,
        budget_errors=[f.error for f in over],
    )


def survey_docs(root: Path) -> list[Doc]:
    """Built-ins through the CLI, then the acceptance corpus prefix.

    The survey is the acceptance corpus itself, so its inputs are fixed by
    the corpus seed and do not depend on the run's seed.
    """
    docs = []
    for name in SURVEY_BUILTINS:
        for verb in SURVEY_VERBS:
            golden = (root / "tests" / "golden" / ("%s_%s.json" % (name, verb))).read_text()
            argv = [verb, name, "--json", "--budget", repr(BUDGET_SECONDS)]
            docs.append(Doc("cli-%s-%s" % (verb, name),
                            lambda argv=argv: _cli_run(argv),
                            lambda r, g=golden: _cli_check(g, r)))
    for k, a in enumerate(inputs.corpus(SURVEY_PREFIX)):
        docs.append(Doc("corpus-%d" % k,
                        lambda a=a: _survey_run(a),
                        _survey_check,
                        in_overhead_sample=a.n <= 5))
    return docs


def build(workload: str, seed: int, root: Path) -> list[Doc]:
    if workload == "flips":
        return flips_docs(seed)
    if workload == "edet":
        return edet_docs(seed)
    if workload == "survey":
        return survey_docs(root)
    raise ValueError("unknown workload %r" % workload)


def expected_over_budget(workload: str) -> dict:
    return SURVEY_EXPECTED_OVER_BUDGET if workload == "survey" else {}
