"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from conftest import make_random_aset  # noqa: E402


def test_generator_matches_acceptance_sequence():
    rng = random.Random(inputs.CORPUS_SEED)
    expected = [make_random_aset(rng) for _ in range(100)]
    assert inputs.corpus(100) == expected


def test_draw_keeps_strata_and_repeats_per_seed():
    for name, indices in (("flips", workloads.FLIPS_STRATA), ("edet", workloads.EDET_STRATA)):
        strata = inputs.strata(indices, name)
        first = inputs.draw(strata, name, 7)
        assert first == inputs.draw(strata, name, 7)
        assert [inputs.KEYS[name](a) for a in first] == [key for _, _, key in strata]


def _traced_counts(docs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        results = [doc.run() for doc in docs]
    finally:
        tracer.active = False
        tracer.uninstall()
    for doc, result in zip(docs, results):
        assert doc.check(result).failures == []
    return tracing.exact_counts(tracing.layer_metrics(tracer))


def _small_docs():
    flips = [d for d in workloads.flips_docs(3) if "d3n5" in d.label][:2]
    edet = [d for d in workloads.edet_docs(3) if "d3n5" in d.label][:2]
    survey = [d for d in workloads.survey_docs(ROOT) if d.label in ("cli-verify-kp2", "corpus-1", "corpus-2")]
    return flips, edet, survey


def test_exact_counts_repeat_and_separate_the_kernels():
    flips, edet, survey = _small_docs()
    for docs in (flips, edet, survey):
        assert _traced_counts(docs) == _traced_counts(docs)
    flip_counts, edet_counts = _traced_counts(flips), _traced_counts(edet)
    assert flip_counts["linprog.solve_lp.calls"] > 0
    assert flip_counts["elimination.eliminate.calls"] == 0
    assert edet_counts["linprog.solve_lp.calls"] == 0
    assert edet_counts["elimination.eliminate.calls"] > 0


def test_tracing_leaves_no_wrapper_behind():
    import gkzrank.secondary as secondary

    before = secondary.solve_lp
    tracer = tracing.Tracer()
    tracer.install()
    assert secondary.solve_lp is not before
    tracer.uninstall()
    assert secondary.solve_lp is before


def test_reference_seconds_divides_by_speed_and_skips_calibration():
    clock = speed.SpeedClock()
    ref = speed.REFERENCE_CAL_S
    # calibrations at t=1 (twice the reference time) and t=3 (the reference)
    clock.starts, clock.ends = [1.0, 3.0], [1.0 + 2 * ref, 3.0 + ref]
    assert abs(clock.reference_seconds(0.0, 1.0) - 0.5) < 1e-9
    assert abs(clock.reference_seconds(1.0 + 2 * ref, 3.0) - (2.0 - 2 * ref) / 2) < 1e-9
    assert abs(clock.reference_seconds(3.0 + ref, 4.0 + ref) - 1.0) < 1e-9
    whole = clock.reference_seconds(0.0, 4.0 + ref)
    assert abs(whole - (0.5 + (2.0 - 2 * ref) / 2 + 1.0)) < 1e-9


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run._tail(range(1, 31)) == ("p66", 20)
    assert run._tail(range(1, 12)) == ("p100", 11)


def test_only_unexpected_faces_over_budget_are_unsteady():
    runner = run.Runner()
    top, edge = [0, 1, 2, 3, 4, 5], [0, 1, 2, 3]
    runner.outcomes = {
        "a": workloads.Outcome(ops=3, over_budget=2, over_budget_faces=[top], skipped_edges=[[0, 1]]),
        "b": workloads.Outcome(ops=2, over_budget=1, over_budget_faces=[edge]),
    }
    tally = run._tally(runner, {"a": [top], "c": [top]})
    assert tally["unexpected_over_budget"] == {"b": [edge]}
    assert tally["skip_set"]["a"] == {"faces": [top], "errors": [], "edges": [[0, 1]]}
    assert (tally["attempted"], tally["failed_unexpected"], tally["failed_frac"]) == (7, 0, 3 / 7)
