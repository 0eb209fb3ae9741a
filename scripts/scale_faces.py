#!/usr/bin/env python3
"""Time the interpolation oracle on the top faces past the acceptance corpus:
the 3x3 grid and six seeded d = 3 configurations with 7-8 points.

Usage: python scripts/scale_faces.py

Each configuration is drawn by random.Random(7) as sorted(rng.sample(box,
rng.randint(7, 8))) over the box of `make_random_aset` (points (x, y, 1)
with -1 <= x, y <= 2), redrawn while validate_aset refuses it.  Each top
face gets its own clock on the default Budget, and one line: the number of
candidate monomials, the seconds its discriminant took, `ok` or `over
budget`, and the discriminant's term count.
"""

import random
import time

from gkzrank.discriminant import _configuration, _fiber, _multidegree, face_discriminant
from gkzrank.elimination import Budget, BudgetExceeded, _Clock
from gkzrank.polytope import faces, validate_aset

BOX = [(x, y) for x in range(-1, 3) for y in range(-1, 3)]


def configurations():
    yield "grid", validate_aset(3, [(1, i, j) for i in range(3) for j in range(3)])
    rng = random.Random(7)
    for k in range(6):
        while True:
            pts = sorted(rng.sample(BOX, rng.randint(7, 8)))
            try:
                aset = validate_aset(3, [(x, y, 1) for x, y in pts])
                break
            except ValueError:
                continue
        yield "random-%d" % k, aset


def main():
    for name, aset in configurations():
        top = faces(aset)[-1]
        conf = _configuration([aset.points[i] for i in top.indices])
        ncands = len(_fiber(conf, _multidegree(conf, conf.points), _Clock(Budget())))
        start = time.monotonic()
        try:
            terms = len(face_discriminant(aset, top).terms)
            status = "ok"
        except BudgetExceeded:
            terms = "-"
            status = "over budget"
        print(
            "%-9s n=%d candidates=%d seconds=%.1f %s terms=%s"
            % (name, aset.n, ncands, time.monotonic() - start, status, terms),
            flush=True,
        )


if __name__ == "__main__":
    main()
