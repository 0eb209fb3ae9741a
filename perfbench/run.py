"""gkzrank benchmark: `python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1`.

Run from the root of a checkout.  Workloads (see README.md):

  flips   secondary polytope and every edge's data: the exact LP kernel
  edet    principal A-determinants: the Buchberger elimination kernel
  survey  built-ins through the CLI, then the acceptance corpus pipeline

A run sets up seven times (import, generate, validate) and reports the
median, then makes passes over the workload's documents until `--seconds`
would be exceeded (at least one), then times the documents next to the
median again.  Every document's output is checked the first time it runs
and compared by digest after that.  With `--trace 0` the last stdout line
holds the end-to-end metrics; with `--trace 1` it holds the per-layer
metrics of one traced pass, preceded by an untraced pass that gives the
tracing overhead.  The lines before it are a report: sample
counts, percentiles, digests, skip set and environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("flips", "edet", "survey")
SETUP_REPEATS = 7
# The median document is short, so one timing of it is noisy: the three
# documents next to the median are run again, untimed for `run_s`, until each
# has MEDIAN_SAMPLES timings or MEDIAN_SECONDS of them.
MEDIAN_SAMPLES = 5
MEDIAN_SECONDS = 1.0
OUR_MODULES = ("inputs", "workloads", "tracing")


def _loadavg():
    """The 1, 5 and 15 minute load averages (the first fields of /proc/loadavg)."""
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def _setup(workload: str, seed: int):
    """Import the package and build the validated inputs from scratch."""
    for name in list(sys.modules):
        if name == "gkzrank" or name.startswith("gkzrank.") or name in OUR_MODULES:
            del sys.modules[name]
    importlib.import_module("gkzrank")
    wl = importlib.import_module("workloads")
    return wl, wl.build(workload, seed, ROOT)


def _tail(values):
    """(label, value): the highest percentile with at least ten samples above
    it, or the maximum (p100) when that percentile would not exceed the
    median, i.e. with fewer than 21 samples."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= 21 else n - 1
    return "p%d" % (100 * (k + 1) // n), ordered[k]


class Runner:
    def __init__(self):
        self.tracer = None
        self.outcomes = {}   # label -> Outcome of the first execution
        self.digests = {}
        self.errors = []     # (label, message): exceptions, failed checks, digest changes

    def execute(self, doc, traced=False):
        """Run one document; returns its (start, end) clock readings, also
        when it raised."""
        if self.tracer is not None:
            self.tracer.active = traced
        # every document starts with no garbage pending, so a collection
        # left over from the one before does not land in its time
        gc.collect()
        start = time.perf_counter()
        try:
            result = doc.run()
        except Exception:
            self.errors.append((doc.label, traceback.format_exc()))
            return start, time.perf_counter()
        finally:
            end = time.perf_counter()
            if self.tracer is not None:
                self.tracer.active = False
        try:
            if doc.label not in self.outcomes:
                outcome = doc.check(result)
                self.outcomes[doc.label] = outcome
                self.digests[doc.label] = outcome.digest
                self.errors.extend((doc.label, msg) for msg in outcome.failures)
            elif doc.check(result).digest != self.digests[doc.label]:
                self.errors.append((doc.label, "answer differs from the document's first pass"))
        except Exception:
            self.errors.append((doc.label, traceback.format_exc()))
        return start, end

    def run_pass(self, docs, traced=False):
        """label -> (start, end) of each document."""
        return {doc.label: self.execute(doc, traced) for doc in docs}


def _counts(runner):
    total = {}
    for o in runner.outcomes.values():
        for k, v in o.counts.items():
            total[k] = total.get(k, 0) + v
    return total


def _tally(runner, expected_over):
    """Operations attempted and failed.  Each document attempts its own
    operations plus one set of checks; a document that raised attempted one
    operation.  A document with any exception, failed check or changed
    answer counts once as failed.  Faces over budget that `expected_over`
    does not name are the skip set's unsteady part."""
    failed_docs = {label for label, _ in runner.errors}
    raised = failed_docs - set(runner.outcomes)
    attempted = sum(o.ops + 1 for o in runner.outcomes.values()) + len(raised)
    over = sum(o.over_budget for o in runner.outcomes.values())
    skip_set = {label: {"faces": o.over_budget_faces, "errors": o.budget_errors, "edges": o.skipped_edges}
                for label, o in runner.outcomes.items() if o.over_budget_faces or o.skipped_edges}
    unexpected = {label: [f for f in o.over_budget_faces if f not in expected_over.get(label, [])]
                  for label, o in runner.outcomes.items()}
    return {
        "attempted": attempted,
        "failed_unexpected": len(failed_docs),
        "failed_frac": (over + len(failed_docs)) / attempted,
        "skip_set": skip_set,
        "unexpected_over_budget": {label: faces for label, faces in unexpected.items() if faces},
    }


def _src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "gkzrank").glob("*.py")))


def _raw(span):
    return span[1] - span[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gkzrank" / "__init__.py").is_file():
        sys.stderr.write("error: %s holds no gkzrank sources; run from a checkout\n" % ROOT)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    speed = importlib.import_module("speed")

    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "loadavg_start": _loadavg()}
    with speed.SpeedClock() as clock:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl, docs = _setup(args.workload, args.seed)
            setups.append((start, time.perf_counter()))

        runner = Runner()
        tracing = importlib.import_module("tracing")
        began = time.perf_counter()
        passes = []
        doc_spans = {}  # label -> every timing of the documents next to the median
        if args.trace:
            # the untraced pass runs before any wrapper is installed
            passes.append(runner.run_pass([d for d in docs if d.in_overhead_sample]))
            tracer = runner.tracer = tracing.Tracer()
            tracer.install()
            traced_pass = runner.run_pass(docs, traced=True)
            tracer.uninstall()
            budget_spans = tracer.spans
        else:
            # Eliminations cut off by the budget take the budget's wall time
            # whatever the machine's speed, so they are not normalised.
            budget_watch = tracing.Tracer()
            budget_watch.install(only={"elimination.eliminate"})
            budget_watch.active = True
            budget_spans = budget_watch.spans
            while True:
                start = time.perf_counter()
                passes.append(runner.run_pass(docs))
                last = time.perf_counter() - start
                if time.perf_counter() - began + last > args.seconds:
                    break
            by_label = {doc.label: doc for doc in docs}
            ranked = sorted(passes[0], key=lambda label: _raw(passes[0][label]))
            mid = len(ranked) // 2
            for label in ranked[max(mid - 1, 0): mid + 2]:
                spans = doc_spans[label] = [p[label] for p in passes]
                while len(spans) < MEDIAN_SAMPLES and sum(map(_raw, spans)) < MEDIAN_SECONDS:
                    spans.append(runner.execute(by_label[label]))
            budget_watch.uninstall()
        wall = time.perf_counter() - began

    cut_off = [(s, e) for _, s, e, _, _, error in budget_spans if error == "BudgetExceeded"]

    def ref(span):
        t = clock.reference_seconds(*span)
        for s, e in cut_off:
            if span[0] <= s and e <= span[1]:
                t += (e - s) - clock.reference_seconds(s, e)
        return t

    tally = _tally(runner, wl.expected_over_budget(args.workload))
    steady = not tally["unexpected_over_budget"]
    correct = tally["failed_unexpected"] == 0 and steady
    env["loadavg_end"] = _loadavg()

    per_doc = {l: statistics.median(ref(span) for span in doc_spans.get(l) or [p[l] for p in passes])
               for l in passes[0]}
    pass_sums = [sum(ref(span) for span in p.values()) for p in passes]
    raw_pass_sums = [sum(_raw(span) for span in p.values()) for p in passes]
    setup_ref = [ref(span) for span in setups]
    tail_label, tail = _tail(per_doc.values())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = hashlib.sha256("".join(runner.digests.get(d.label, "-") for d in docs).encode()).hexdigest()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "documents": len(docs),
        "passes": len(passes),
        "doc_samples": len(per_doc),
        "median_doc_timings": {label: len(spans) for label, spans in doc_spans.items()},
        "doc_tail_percentile": tail_label,
        "setup_s": setup_ref,
        "setup_raw_s": [_raw(span) for span in setups],
        "pass_s": pass_sums,
        "pass_raw_s": raw_pass_sums,
        "doc_s": per_doc,
        "wall_s": wall,
        "budget_s": wl.BUDGET_SECONDS,
        "digest": digest,
        "skip_set": tally["skip_set"],
        "skip_set_steady": steady,
        "counts": _counts(runner),
        "env": env,
    }
    factors = clock.factors()
    report["speed_samples"] = len(factors)
    report["speed_factor_quartiles"] = statistics.quantiles(factors, n=4) if len(factors) > 1 else factors
    for label, msg in runner.errors:
        sys.stderr.write("FAILED %s: %s\n" % (label, msg.rstrip()))
    if not steady:
        sys.stderr.write("UNSTEADY: faces over budget that finish on a quiet machine: %r\n"
                         % tally["unexpected_over_budget"])

    if args.trace:
        lm = tracing.layer_metrics(tracer)
        untraced = sum(ref(span) for span in passes[0].values())
        traced = sum(ref(traced_pass[l]) for l in passes[0])
        lm["trace.overhead_frac"] = (traced / untraced - 1.0 if untraced else 0.0, "frac")
        lm["report.json_bytes"] = (report["counts"].get("json_bytes", 0), "count")
        lm["pkg.src_lines"] = (_src_lines(), "lines")
        lm["failed_frac"] = (tally["failed_frac"], "frac")
        report["exact_counts"] = tracing.exact_counts(lm)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / ("spans-%s-%d.jsonl" % (args.workload, args.seed))
        tracer.write(spans_path)
        report["spans"] = len(tracer.spans)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["traced_run_s"] = sum(_raw(span) for span in traced_pass.values())
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in lm.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "run_s": {"value": statistics.median(pass_sums), "unit": "s"},
            "doc_p50_s": {"value": statistics.median(per_doc.values()), "unit": "s"},
            "doc_tail_s": {"value": tail, "unit": "s"},
            "done_frac": {"value": 1.0 - tally["failed_frac"], "unit": "frac"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print("# report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed_unexpected"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
