"""Outside-in tracing: span wrappers around the package's public functions.

`Tracer.install` wraps every public module-level function of each layer and
rebinds it in every namespace that holds it by name (`secondary.solve_lp`
as well as `linprog.solve_lp`, `ktheory.edge_data` as well as
`secondary.edge_data`), so calls between layers are seen too.  Spans
(name, start, end, parent) are kept in memory; per-layer figures are
computed from them, and they are written out, when the run ends.  Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

from gkzrank.elimination import BudgetExceeded

LAYERS = (
    "linprog", "polytope", "lattice", "secondary", "elimination",
    "polynomial", "discriminant", "ktheory", "report", "cli",
)

class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, counts or None, error or None]
        self._stack = []
        self._originals = []  # (namespace, attribute, original)
        self.active = False

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe is not None else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    rec[4] = observe(signature.bind(*args, **kwargs), result)
                return result
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def install(self, only=None):
        """Wrap every public function of every layer, or only the named ones."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("gkzrank." + layer)
            for attr, obj in vars(mod).items():
                name = "%s.%s" % (layer, attr)
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_")
                        and (only is None or name in only)):
                    wrappers[obj] = self._wrap(name, obj)
        namespaces = [m for n, m in sys.modules.items() if n == "gkzrank" or n.startswith("gkzrank.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._originals.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def uninstall(self):
        for ns, attr, obj in reversed(self._originals):
            setattr(ns, attr, obj)
        self._originals.clear()

    def write(self, path):
        """Spans as JSON lines: name, start and end (s from the first span),
        parent index (-1 for none), exception name or null."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, _, error in self.spans:
                fh.write(json.dumps([name, round(start - t0, 6), round(end - t0, 6), parent, error]) + "\n")

    # -- figures ---------------------------------------------------------

    def per_function(self, reported=()):
        """name -> {calls, self_s, max_s, errors, error_s, counts, by_parent}.

        A span's self time is its duration minus its child spans'.  The
        self time of a function not in `reported` that was called from the
        same layer is folded into its caller's: `elimination.eliminate.self_s`
        then holds the Buchberger work of `groebner_basis_packed`, while
        `discriminant.face_discriminant` keeps its own.
        """
        spans = self.spans
        self_s = [end - start for _, start, end, _, _, _ in spans]
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                self_s[parent] -= end - start
        owner = list(range(len(spans)))
        for k, (name, _, _, parent, _, _) in enumerate(spans):
            if parent >= 0 and name not in reported and _layer(spans[parent][0]) == _layer(name):
                owner[k] = owner[parent]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "max_s": 0.0,
                                   "errors": defaultdict(int), "error_s": 0.0,
                                   "counts": defaultdict(int), "by_parent": defaultdict(int)})
        for k, (name, start, end, parent, counts, error) in enumerate(spans):
            row = out[name]
            dur = end - start
            row["calls"] += 1
            out[spans[owner[k]][0]]["self_s"] += self_s[k]
            row["max_s"] = max(row["max_s"], dur)
            row["by_parent"][spans[parent][0] if parent >= 0 else ""] += 1
            if error is not None:
                row["errors"][error] += 1
                row["error_s"] += dur
            for key, value in (counts or {}).items():
                row["counts"][key] += value
        return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


# Observers take the call's bound arguments and its result and return the
# counts to add to the span.

def _solve_lp(call, result):
    """Tableau rows x columns (with the rhs column) implied by the arguments."""
    call.apply_defaults()
    nvars, n_ub = call.arguments["nvars"], len(call.arguments["a_ub"])
    m = n_ub + len(call.arguments["a_eq"])
    return {"cells": m * (2 * nvars + n_ub + m + 1), "infeasible": int(result.status == "infeasible")}


def _hull_edges(call, result):
    m = len(call.arguments["sp"].phis)
    return {"pairs": m * (m - 1) // 2, "found": len(result)}


def _eliminate(call, result):
    return {"output_terms": sum(len(p) for p in result)}


def _principal_a_determinant(call, result):
    return {"e_a_terms": 0 if result.e_a is None else len(result.e_a.terms)}


def _secondary_polytope(call, result):
    return {"edges": len(result.edges)}


def _verify_theorem(call, result):
    return {"edges": len(result.edges), "skipped_edges": sum(e.status == "skipped" for e in result.edges)}


_OBSERVERS = {
    "linprog.solve_lp": _solve_lp,
    "secondary.hull_edges": _hull_edges,
    "elimination.eliminate": _eliminate,
    "discriminant.principal_a_determinant": _principal_a_determinant,
    "secondary.secondary_polytope": _secondary_polytope,
    "ktheory.verify_theorem": _verify_theorem,
}


# Functions whose self time is a metric of its own.
REPORTED = frozenset({
    "linprog.solve_lp", "polytope.lower_hull_triangulation", "polytope.lower_hull_cells",
    "polytope.faces", "lattice.smith_normal_form", "secondary.secondary_polytope",
    "secondary.edge_data", "secondary.hull_edges", "elimination.eliminate",
    "polynomial.polynomial_gcd", "polynomial.match_power", "discriminant.face_discriminant",
    "discriminant.principal_a_determinant", "discriminant.multiplicity",
    "discriminant.newton_polytope_check", "ktheory.rank_k0_face", "ktheory.rank_k0_edge",
    "ktheory.verify_theorem", "report.build_report", "report.report_to_dict", "cli.main",
})


def _frac(num, den) -> float:
    """A ratio; 0 when its base is empty (the base is reported beside it)."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer figures named in BENCHMARK.json, as (value, unit)."""
    get = tracer.per_function(REPORTED).__getitem__  # a defaultdict: uncalled functions read as zero

    lp = get("linprog.solve_lp")
    hull_tri, hull_cells = get("polytope.lower_hull_triangulation"), get("polytope.lower_hull_cells")
    ncs = get("secondary.normal_cone_sample")
    hull = get("secondary.hull_edges")
    elim = get("elimination.eliminate")
    over = elim["errors"].get(BudgetExceeded.__name__, 0)
    fd = get("discriminant.face_discriminant")
    m = {
        "linprog.solve_lp.calls": (lp["calls"], "count"),
        "linprog.solve_lp.self_s": (lp["self_s"], "s"),
        "linprog.solve_lp.cells": (lp["counts"].get("cells", 0), "count"),
        "linprog.solve_lp.infeasible": (lp["counts"].get("infeasible", 0), "count"),
        "polytope.lower_hull.calls": (hull_tri["calls"] + hull_cells["calls"], "count"),
        "polytope.lower_hull.self_s": (hull_tri["self_s"] + hull_cells["self_s"], "s"),
        "polytope.faces.self_s": (get("polytope.faces")["self_s"], "s"),
        "lattice.smith_normal_form.calls": (get("lattice.smith_normal_form")["calls"], "count"),
        "lattice.smith_normal_form.self_s": (get("lattice.smith_normal_form")["self_s"], "s"),
        "secondary.secondary_polytope.self_s": (get("secondary.secondary_polytope")["self_s"], "s"),
        "secondary.secondary_polytope.edges": (get("secondary.secondary_polytope")["counts"].get("edges", 0), "count"),
        "secondary.triangulation_flips.calls": (get("secondary.triangulation_flips")["calls"], "count"),
        "secondary.is_regular.calls": (get("secondary.is_regular")["calls"], "count"),
        "secondary.edge_data.calls": (get("secondary.edge_data")["calls"], "count"),
        "secondary.edge_data.self_s": (get("secondary.edge_data")["self_s"], "s"),
        "secondary.normal_cone_sample.calls.edge_data": (ncs["by_parent"].get("secondary.edge_data", 0), "count"),
        "secondary.normal_cone_sample.calls.hull_edges": (ncs["by_parent"].get("secondary.hull_edges", 0), "count"),
        "secondary.hull_edges.self_s": (hull["self_s"], "s"),
        "secondary.hull_edges.useful_frac": (_frac(hull["counts"].get("found", 0), hull["counts"].get("pairs", 0)), "frac"),
        "elimination.eliminate.calls": (elim["calls"], "count"),
        "elimination.eliminate.self_s": (elim["self_s"], "s"),
        "elimination.eliminate.output_terms": (elim["counts"].get("output_terms", 0), "count"),
        "elimination.eliminate.over_budget": (over, "count"),
        "elimination.eliminate.wasted_s": (elim["error_s"], "s"),
        "elimination.eliminate.completed_frac": (_frac(elim["calls"] - over, elim["calls"]), "frac"),
        "polynomial.polynomial_gcd.calls": (get("polynomial.polynomial_gcd")["calls"], "count"),
        "polynomial.polynomial_gcd.self_s": (get("polynomial.polynomial_gcd")["self_s"], "s"),
        "polynomial.match_power.calls": (get("polynomial.match_power")["calls"], "count"),
        "polynomial.match_power.self_s": (get("polynomial.match_power")["self_s"], "s"),
        "discriminant.face_discriminant.calls": (fd["calls"], "count"),
        "discriminant.face_discriminant.self_s": (fd["self_s"], "s"),
        "discriminant.face_discriminant.max_s": (fd["max_s"], "s"),
        "discriminant.principal_a_determinant.self_s": (get("discriminant.principal_a_determinant")["self_s"], "s"),
        "discriminant.e_a_terms": (get("discriminant.principal_a_determinant")["counts"].get("e_a_terms", 0), "count"),
        "discriminant.multiplicity.calls": (get("discriminant.multiplicity")["calls"], "count"),
        "discriminant.multiplicity.self_s": (get("discriminant.multiplicity")["self_s"], "s"),
        "discriminant.newton_polytope_check.self_s": (get("discriminant.newton_polytope_check")["self_s"], "s"),
        "ktheory.rank_k0_face.self_s": (get("ktheory.rank_k0_face")["self_s"], "s"),
        "ktheory.rank_k0_edge.self_s": (get("ktheory.rank_k0_edge")["self_s"], "s"),
        "ktheory.verify_theorem.self_s": (get("ktheory.verify_theorem")["self_s"], "s"),
        "ktheory.verify_theorem.skipped_edges": (get("ktheory.verify_theorem")["counts"].get("skipped_edges", 0), "count"),
        "report.build_report.self_s": (get("report.build_report")["self_s"], "s"),
        "report.report_to_dict.self_s": (get("report.report_to_dict")["self_s"], "s"),
        "cli.main.self_s": (get("cli.main")["self_s"], "s"),
    }
    return m


def exact_counts(metrics: dict) -> dict:
    """The work counts that must repeat exactly between runs of one input."""
    names = (
        "linprog.solve_lp.calls", "linprog.solve_lp.cells", "linprog.solve_lp.infeasible",
        "elimination.eliminate.calls", "elimination.eliminate.output_terms",
        "elimination.eliminate.over_budget", "discriminant.e_a_terms",
        "secondary.secondary_polytope.edges", "ktheory.verify_theorem.skipped_edges",
        "lattice.smith_normal_form.calls", "secondary.edge_data.calls",
    )
    return {n: metrics[n][0] for n in names}
