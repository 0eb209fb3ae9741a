#!/usr/bin/env python3
"""Run the three built-in examples end to end and print their reports.

Usage: python scripts/run_examples.py [--budget SECONDS]

Exits 1 when a built-in's report fails, its flip skeleton differs from the
hull skeleton, or its Newton-polytope check fails.
"""

import argparse
import sys
import time

from gkzrank.builtin import BUILTIN_DOCUMENTS
from gkzrank.discriminant import newton_polytope_check
from gkzrank.elimination import DEFAULT_BUDGET_SECONDS, Budget, parse_seconds
from gkzrank.ktheory import verify_theorem
from gkzrank.polytope import validate_aset
from gkzrank.secondary import hull_edges, secondary_polytope


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--budget", type=parse_seconds, default=DEFAULT_BUDGET_SECONDS)
    args = parser.parse_args()
    budget = Budget(seconds=args.budget)
    failures = 0
    for name in ("a3", "kp2", "f2"):
        doc = BUILTIN_DOCUMENTS[name]
        aset = validate_aset(doc["dim"], doc["points"])
        start = time.monotonic()
        sp = secondary_polytope(aset)
        report = verify_theorem(aset, budget, sp=sp)
        elapsed = time.monotonic() - start
        print("== %s: n=%d d=%d ==" % (name, aset.n, aset.dim))
        print("secondary polytope: %d vertices, %d edges, dim %d"
              % (len(sp.phis), len(sp.edges), sp.dim))
        skel = hull_edges(sp) == sp.edges
        print("flip skeleton == hull skeleton:", skel)
        newton = True
        for e in report.edges:
            nz = [(f, n) for f, n in e.multiplicities if n]
            print("  edge %s circuit %s: rank %s = %s  [%s]"
                  % (e.vertex_pair, e.circuit_indices, e.zf_rank, e.rhs, e.status))
            for f, n in nz:
                print("    n(face %s) = %d" % (f, n))
        if report.edet.e_a is not None:
            print("E_A (%d terms): %s" % (len(report.edet.e_a.terms), report.edet.e_a.to_str()))
            newton = newton_polytope_check(report.edet.e_a, sp).ok
            print("newton polytope check:", newton)
        print("status: %s (%.2fs)" % (report.status, elapsed))
        print()
        if report.status == "fail" or not skel or not newton:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
