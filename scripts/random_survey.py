#!/usr/bin/env python3
"""Seeded random survey: generate valid configurations and verify the rank
identity on every secondary-polytope edge, reporting oracle timeouts.  Each
line ends with the seconds spent on the flip walk (walk=), the hull skeleton
cross-check (skeleton=) and the rank identity (verify=).

Usage: python scripts/random_survey.py [--seed N] [--count M] [--budget S]
"""

import argparse
import random
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 2)[0] + "/tests")
from conftest import make_random_aset  # noqa: E402

from gkzrank.discriminant import newton_polytope_check  # noqa: E402
from gkzrank.elimination import Budget, parse_seconds  # noqa: E402
from gkzrank.ktheory import verify_theorem  # noqa: E402
from gkzrank.secondary import hull_edges, secondary_polytope  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=25)
    parser.add_argument("--budget", type=parse_seconds, default=8.0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    budget = Budget(seconds=args.budget)
    failures = 0
    timeouts = 0
    start = time.monotonic()
    for k in range(args.count):
        aset = make_random_aset(rng)
        t0 = time.monotonic()
        sp = secondary_polytope(aset)
        t1 = time.monotonic()
        skel = hull_edges(sp) == sp.edges
        t2 = time.monotonic()
        report = verify_theorem(aset, budget, sp=sp)
        t3 = time.monotonic()
        newton = "-"
        if report.edet.e_a is not None:
            newton = "ok" if newton_polytope_check(report.edet.e_a, sp).ok else "FAIL"
        skipped = sum(1 for e in report.edges if e.status == "skipped")
        timeouts += skipped
        if report.status == "fail" or not skel or newton == "FAIL":
            failures += 1
        print(
            "[%3d] d=%d n=%d points=%s verts=%d edges=%d status=%s "
            "skeleton=%s newton=%s skipped=%d | walk=%.3fs skeleton=%.3fs verify=%.3fs"
            % (
                k,
                aset.dim,
                aset.n,
                list(map(list, aset.points)),
                len(sp.phis),
                len(sp.edges),
                report.status,
                "ok" if skel else "FAIL",
                newton,
                skipped,
                t1 - t0,
                t2 - t1,
                t3 - t2,
            )
        )
    print(
        "survey: %d instances, %d failures, %d skipped edges, %.1fs"
        % (args.count, failures, timeouts, time.monotonic() - start)
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
