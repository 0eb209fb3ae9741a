"""Benchmark inputs: the acceptance-corpus generator and seeded strata.

The generator here repeats `make_random_aset` from the test suite draw for
draw, so the corpus the benchmark runs cannot change when a test is edited
(`test_perfbench.py` checks the two sequences agree).

`flips` and `edet` draw their A-sets by strata.  A workload names a fixed
list of acceptance-corpus instances (seed 271828), one stratum each; the
run's `--seed` picks, for every stratum, one
configuration of the acceptance window that has the same stratum key.  The
key is the property that sets the cost of the workload's kernel, so the
work of a pass barely moves between seeds while the coordinates do:

* `flips` keys on the multiset of |det| over all d-subsets.  Configurations
  with equal keys had equal triangulation counts and flip costs within the
  run-to-run noise.
* `edet` keys on that multiset plus the top face's local exponents, which
  are the exact input of the Buchberger elimination.  Its cost differs by up
  to 15x between configurations with equal |det| multisets, so anything
  coarser would make a pass's cost depend on the seed.
"""

from __future__ import annotations

import random
from itertools import combinations

from gkzrank.discriminant import face_local_exponents
from gkzrank.polytope import ASet, Face, InvalidConfiguration, validate_aset

CORPUS_SEED = 271828
HOLDOUT_SEED = 314159

_LINE_STARTS = range(-3, 1)
_BOX = [(x, y) for x in range(-1, 3) for y in range(-1, 3)]


def acceptance_aset(rng: random.Random) -> ASet:
    """One draw of the acceptance corpus: d <= 3, n <= 6, desk-scale windows."""
    while True:
        d = rng.choice([2, 3])
        n = rng.randint(d + 1, 6)
        try:
            if d == 2:
                start = rng.randint(-3, 0)
                ks = rng.sample(range(6), n)
                pts = [(1, start + k) for k in sorted(ks)]
            else:
                pts = [(x, y, 1) for x, y in sorted(rng.sample(_BOX, n))]
            return validate_aset(d, pts)
        except (InvalidConfiguration, ValueError):
            continue


def corpus(count: int, seed: int = CORPUS_SEED) -> list[ASet]:
    rng = random.Random(seed)
    return [acceptance_aset(rng) for _ in range(count)]


def window(d: int, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every n-point configuration the acceptance generator can produce."""
    if d == 2:
        return sorted(
            {tuple((1, s + k) for k in ks) for s in _LINE_STARTS for ks in combinations(range(6), n)}
        )
    return [tuple((x, y, 1) for x, y in sub) for sub in combinations(_BOX, n)]


def _det(rows) -> int:
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def det_key(points, d: int) -> tuple[int, ...]:
    """Sorted |det| over all d-subsets: the volumes of every simplex."""
    return tuple(sorted(abs(_det(sub)) for sub in combinations(points, d)))


def top_face_exponents(aset: ASet) -> tuple[tuple[int, ...], ...]:
    top = Face(indices=tuple(range(aset.n)), support=(0,) * aset.dim, offset=0, dim=aset.dim - 1)
    return tuple(face_local_exponents(aset, top))


def _flip_key(aset: ASet):
    return (det_key(aset.points, aset.dim),)


def _elimination_key(aset: ASet):
    return det_key(aset.points, aset.dim), top_face_exponents(aset)


KEYS = {"flips": _flip_key, "edet": _elimination_key}


def strata(indices, key_name: str, seed: int = CORPUS_SEED):
    """(d, n, key) of the given acceptance-corpus instances."""
    instances = corpus(max(indices) + 1, seed)
    key = KEYS[key_name]
    return [(instances[i].dim, instances[i].n, key(instances[i])) for i in indices]


def draw(stratum_list, key_name: str, seed: int) -> list[ASet]:
    """One validated configuration per stratum, uniform among the window's
    configurations sharing the stratum key."""
    key = KEYS[key_name]
    rng = random.Random(seed)
    by_det = {}
    out = []
    for d, n, want in stratum_list:
        if (d, n) not in by_det:
            groups = by_det[(d, n)] = {}
            for pts in window(d, n):
                groups.setdefault(det_key(pts, d), []).append(pts)
        matching = []
        for pts in by_det[(d, n)].get(want[0], ()):
            try:
                aset = validate_aset(d, pts)
            except InvalidConfiguration:
                continue
            if key(aset) == want:
                matching.append(aset)
        if not matching:
            raise RuntimeError("no window configuration matches stratum %r" % (want,))
        out.append(rng.choice(matching))
    return out
