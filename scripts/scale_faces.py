#!/usr/bin/env python3
"""Time the interpolation oracle on the top faces past the acceptance corpus,
the 3x3 grid and six seeded d = 3 configurations with 7-8 points, then the
line resultant on nine lines of degree 3 to 10.

Usage: python scripts/scale_faces.py

Each configuration is drawn by random.Random(7) as sorted(rng.sample(box,
rng.randint(7, 8))) over the box of `make_random_aset` (points (x, y, 1)
with -1 <= x, y <= 2), redrawn while validate_aset refuses it.  Each
configuration's face loop, the top face last, gets its own clock on the
default Budget, and one line: the number of candidate monomials of the top
face (`-` when a proper face ran over budget), the seconds the loop took,
`ok` or `over budget`, and the top face's discriminant's term count.

The second table has one line per exponent pattern of LINES, the points
(1, e) of a line: the median seconds of 3 `face_discriminant` calls on its
top face, each on the default Budget, and the discriminant's term count.
"""

import random
import statistics
import time

from gkzrank.discriminant import _factors, _fiber, _target, face_discriminant
from gkzrank.elimination import Budget, _Clock
from gkzrank.polytope import faces, fold_table, validate_aset

BOX = [(x, y) for x in range(-1, 3) for y in range(-1, 3)]

# the dense lines of degree 3 to 7, two of degree 5 with a gap, one of
# degree 10 and the line of degree 9 of tests/golden/line7_edet.json
LINES = [tuple(range(top + 1)) for top in range(3, 8)] + [
    (0, 1, 2, 3, 5),
    (0, 1, 2, 4, 5),
    (0, 1, 4, 6, 9, 10),
    (0, 1, 2, 4, 6, 7, 9),
]


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
        start = time.monotonic()
        *proper, top = _factors(aset, _Clock(Budget()))
        seconds = time.monotonic() - start
        ncands = "-"
        if all(row.discriminant is not None for row in proper):
            table = fold_table(aset.points, aset.dim)
            ncands = len(_fiber(table, _target(aset.n, table, proper), _Clock(Budget())))
        if top.discriminant is None:
            status, terms = "over budget", "-"
        else:
            status, terms = "ok", len(top.discriminant.terms)
        print(
            "%-9s n=%d candidates=%s seconds=%.1f %s terms=%s"
            % (name, aset.n, ncands, seconds, status, terms),
            flush=True,
        )
    line_table()


def line_table():
    for pattern in LINES:
        aset = validate_aset(2, [(1, e) for e in pattern])
        top = faces(aset)[-1]
        seconds = []
        for _ in range(3):
            start = time.monotonic()
            delta = face_discriminant(aset, top)
            seconds.append(time.monotonic() - start)
        print(
            "line %-20s seconds=%.4f terms=%d"
            % (",".join(map(str, pattern)), statistics.median(seconds), len(delta.terms)),
            flush=True,
        )


if __name__ == "__main__":
    main()
