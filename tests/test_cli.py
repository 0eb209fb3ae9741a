import argparse
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gkzrank import discriminant, ktheory
from gkzrank.cli import main
from gkzrank.discriminant import face_discriminant
from gkzrank.ktheory import verify_theorem
from gkzrank.polytope import faces, validate_aset
from gkzrank.report import build_report, report_to_dict

from hull_reference import hull_vertex_indices

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent


def run_cli(args):
    out = io.StringIO()
    err = io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(args)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def test_validate_builtin():
    code, out, _ = run_cli(["validate", "a3"])
    assert code == 0
    assert "dim: 2" in out and "n: 5" in out and "height: [1, 0]" in out
    assert "faces: 3" in out


def test_validate_kp2():
    code, out, _ = run_cli(["validate", "kp2"])
    assert code == 0
    assert "dim: 3" in out and "n: 4" in out


def test_validate_file(tmp_path):
    doc = {"dim": 2, "points": [[1, 0], [1, 1]], "name": "segment"}
    path = tmp_path / "seg.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["validate", str(path)])
    assert code == 0
    assert "n: 2" in out


def test_exit_code_invalid_inputs(tmp_path):
    code, _, err = run_cli(["validate", str(tmp_path / "missing.json")])
    assert code == 2 and "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["validate", str(bad)])
    assert code == 2 and "malformed document" in err

    # not UTF-8, nested past the recursion limit, and an integer past the
    # 4,300-digit conversion limit
    for content in [
        b"\xff\xfe{}",
        b"[" * 100000 + b"]" * 100000,
        b'{"dim": 2, "points": [[1, 0], [1, 1%s]]}' % (b"0" * 5000),
    ]:
        bad.write_bytes(content)
        code, out, err = run_cli(["validate", str(bad)])
        assert code == 2 and out == ""
        assert err.startswith("error: malformed document: ") and err.count("\n") == 1

    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"dim": 2, "points": [[1, 0], [1, 0]]}))
    code, _, err = run_cli(["validate", str(dup)])
    assert code == 2 and "duplicate point" in err

    for doc, code_name in [
        ({"dim": 2, "points": [[1, 0], [1, 1.5]]}, "non-integer coordinate"),
        ({"dim": 2, "points": [[1, 0], [1, True]]}, "non-integer coordinate"),
        ({"dim": 2, "points": [[1, 0], [1, "1"]]}, "non-integer coordinate"),
        ({"dim": 2.7, "points": [[1, 0], [1, 1]]}, "non-integer dim"),
        ({"dim": 0, "points": [[1]]}, "non-positive dim"),
        ({"dim": 2, "points": 5}, "malformed points"),
        ({"dim": 2, "points": [5, 6]}, "malformed points"),
        ({"dim": 2, "points": []}, "invalid A-set: empty configuration"),
        ({"dim": 2, "points": [[1, 0], [1]]}, "invalid A-set: wrong point length"),
        ({"name": [1], "dim": 2, "points": [[1, 0], [1, 1]]}, '"name" must be a string'),
        ({"points": [[1, 0], [1, 1]]}, 'malformed document: need {"dim": .., "points": ..}'),
    ]:
        path = tmp_path / "coerced.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["validate", str(path)])
        assert code == 2 and code_name in err


def test_exit_code_exponent_overflow(tmp_path):
    limit = "exceeds the elimination limit 65535\n"
    documents = [
        ({"dim": 2, "points": [[1, 0], [1, 1], [1, 70000]]}, "exponent 70000"),
        # a quadrilateral whose edges are all simplices: only its top face
        # has the wide exponent
        (
            {"dim": 3, "points": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 70000, 1]]},
            "exponent 70000",
        ),
        # every exponent within the limit, but the circuit binomials'
        # coefficients could pass 2^65535: the line 0, 1, 5000 (relation
        # 4999, -5000, 1) and the planar circuit (0, 0), (101, 0), (0, 100),
        # (1, 1) (relation 9899, 100, 101, -10100)
        (
            {"dim": 2, "points": [[1, 0], [1, 1], [1, 5000]]},
            "circuit binomial coefficient bit bound 129988",
        ),
        (
            {"dim": 3, "points": [[1, 0, 0], [1, 101, 0], [1, 0, 100], [1, 1, 1]]},
            "circuit binomial coefficient bit bound 281393",
        ),
    ]
    for doc, what in documents:
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        for verb in ("edet", "verify", "multiplicities"):
            code, out, err = run_cli([verb, str(path)])
            assert code == 2 and out == ""
            assert err == "error: %s %s" % (what, limit)


def test_circuit_binomial_past_4300_digits_is_printed(tmp_path):
    # the line 0, 1, 1400 has the binomial 1399^1399 a1^1400 - 1400^1400 a0^1399 a2,
    # whose coefficients pass the default limit of int-to-str conversion;
    # the command lifts it only once its input is read, and restores it
    path = tmp_path / "line1400.json"
    path.write_text(json.dumps({"dim": 2, "points": [[1, 0], [1, 1], [1, 1400]]}))
    digits = sys.get_int_max_str_digits()
    code, out, err = run_cli(["edet", str(path), "--json"])
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == digits
    top = json.loads(out)["factors"][-1]
    assert top["face"] == [0, 1, 2]
    coeffs = sorted(t["coeff"].lstrip("-") for t in top["discriminant"])
    sys.set_int_max_str_digits(0)
    try:
        assert coeffs == sorted([str(1399**1399), str(1400**1400)])
    finally:
        sys.set_int_max_str_digits(digits)
    code, out, err = run_cli(["verify", str(path)])
    assert code == 0 and out.splitlines()[-1] == "status: pass"


def test_exponent_limit_reads_an_edge_in_the_lattice_it_generates(tmp_path):
    # the edge 0, 70000, 140000 is the quadratic 0, 1, 2 once its exponents
    # are divided by their gcd, so its discriminant is within the limit; the
    # top face still carries exponents up to 140001, so edet refuses it
    points = [[1, 0, 0], [1, 70000, 0], [1, 140000, 0], [1, 0, 1], [1, 1, 1]]
    aset = validate_aset(3, points)
    edge = next(f for f in faces(aset) if f.indices == (0, 1, 2))
    assert face_discriminant(aset, edge).to_str() == "4*a0*a2 - a1^2"
    path = tmp_path / "wide_edge.json"
    path.write_text(json.dumps({"dim": 3, "points": points}))
    code, out, err = run_cli(["edet", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: exponent ") and "exceeds the elimination limit" in err


def test_exit_code_budget():
    code, out, _ = run_cli(["edet", "a3", "--budget", "0.0"])
    assert code == 3
    assert "BUDGET EXCEEDED" in out
    assert "incomplete" in out
    # kp2's faces are vertices and one circuit: no face runs an oracle
    code, out, _ = run_cli(["verify", "kp2", "--budget", "0"])
    assert code == 0
    assert out.splitlines()[-1] == "status: pass"


def test_terms_flag_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["edet", "a3", "--terms", "1"])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --terms 1" in capsys.readouterr().err


def test_unknown_command_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "a3"])
    assert exc.value.code == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["edge", "f2"], ["verify", "kp2", "--pair", "0", "1"]])
def test_pair_goes_with_edge_alone(argv, capsys):
    # edge needs --pair and no other command takes it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--pair" in err


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("validate", "faces", "secondary", "edge", "edet", "multiplicities", "verify", "example"):
        assert re.search(r"^ +%s +\S" % command, out, re.MULTILINE), command


def test_main_builds_one_parser(monkeypatch):
    # one ArgumentParser declares every command's arguments once
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, out, _ = run_cli(["validate", "a3", "--json"])
    assert code == 0 and json.loads(out)["n"] == 5
    assert len(built) == 1


def test_verify_budget_skips_every_edge():
    code, out, _ = run_cli(["verify", "a3", "--budget", "0"])
    assert code == 3
    lines = out.splitlines()
    edges = [line for line in lines if line.startswith("  edge ")]
    assert edges
    for line in edges:
        assert line.endswith(": SKIPPED (face discriminants over budget: (0, 1, 2, 3, 4))")
    assert lines[-1] == "status: budget"


def test_multiplicities_budget_skips_every_edge():
    code, out, _ = run_cli(["multiplicities", "a3", "--budget", "0"])
    assert code == 3
    edges = out.splitlines()[1:]
    assert len(edges) == 12
    for line in edges:
        assert line.startswith("  edge ")
        assert line.endswith(": skipped (face discriminants over budget: (0, 1, 2, 3, 4))")
    code, out, _ = run_cli(["multiplicities", "a3", "--budget", "0", "--json"])
    assert code == 3
    rows = json.loads(out)["edges"]
    assert len(rows) == 12
    assert all(row["status"] == "skipped" and row["multiplicities"] == [] for row in rows)
    # the JSON gives the reason the text prints
    assert {row["detail"] for row in rows} == {"face discriminants over budget: (0, 1, 2, 3, 4)"}


@pytest.mark.parametrize(
    "flags", [["--budget", "nan"], ["--budget", "-1"]]
)
def test_exit_code_bad_budget_flags(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["edet", "a3"] + flags)
    assert exc.value.code == 2
    assert "error: argument %s" % flags[0] in capsys.readouterr().err


def test_secondary_output():
    code, out, _ = run_cli(["secondary", "a3"])
    assert code == 0
    assert "dim: 3" in out and "vertices: 8" in out


def test_edge_pair():
    code, out, _ = run_cli(["edge", "f2", "--pair", "2", "3"])
    assert code == 0
    assert "circuit: indices [1, 2, 3] relation [1, -2, 1]" in out
    assert "separating sets: [[0]]" in out
    code, _, err = run_cli(["edge", "a3", "--pair", "0", "7"])
    assert code == 2 and "not an edge" in err


def test_example_verb():
    code, out, _ = run_cli(["example", "kp2"])
    assert code == 0
    assert json.loads(out)["points"] == [[0, 0, 1], [1, 0, 1], [0, 1, 1], [-1, -1, 1]]
    code, _, err = run_cli(["example", "nope"])
    assert code == 2


def test_verify_exit_zero():
    code, out, _ = run_cli(["verify", "kp2"])
    assert code == 0
    assert "status: pass" in out


def test_multiplicities_output():
    code, out, _ = run_cli(["multiplicities", "kp2"])
    assert code == 0
    assert "edge [0, 1]" in out


def test_determinism_byte_identical():
    for args in (["verify", "f2", "--json"], ["edet", "a3", "--json"], ["secondary", "a3"]):
        _, first, _ = run_cli(args)
        _, second, _ = run_cli(args)
        assert first == second


@pytest.mark.parametrize("name", ["a3", "kp2", "f2"])
@pytest.mark.parametrize("command", ["verify", "edet", "secondary", "faces"])
def test_golden_outputs(name, command):
    expected = (GOLDEN / ("%s_%s.json" % (name, command))).read_text()
    code, out, _ = run_cli([command, name, "--json"])
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("run", ["validate f2", "multiplicities a3"])
def test_golden_json_layouts(run):
    # the JSON layouts of the commands the grid above leaves out
    command, name = run.split()
    expected = (GOLDEN / ("%s_%s.json" % (name, command))).read_text()
    code, out, _ = run_cli([command, name, "--json"])
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("name, pair", [("f2", ["2", "3"]), ("kp2", ["0", "1"])])
def test_golden_edge_outputs(name, pair):
    expected = (GOLDEN / ("%s_edge.json" % name)).read_text()
    code, out, _ = run_cli(["edge", name, "--pair", *pair, "--json"])
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("name", ["a3", "kp2", "f2"])
def test_edge_command_on_every_edge(name, request):
    # each cell's vertices, as printed, are those of its own double description
    sp = request.getfixturevalue("%s_secondary" % name)
    for i, j in sp.edges:
        code, out, _ = run_cli(["edge", name, "--pair", str(i), str(j), "--json"])
        assert code == 0
        subdivision = json.loads(out)["subdivision"]
        assert subdivision
        assert subdivision == [
            {"vertices_hull": list(hull_vertex_indices(sp.aset.points, m["marks"])), "marks": m["marks"]}
            for m in subdivision
        ]


@pytest.mark.parametrize(
    "run",
    [
        "validate f2",
        "faces kp2",
        "secondary a3",
        "edge f2 --pair 2 3",
        "edge kp2 --pair 0 1",
        "edet a3",
        "multiplicities kp2",
        "verify f2",
    ],
)
def test_golden_text_outputs(run):
    # the text layout of every command, byte for byte
    command, name, *extra = run.split()
    expected = (GOLDEN / ("%s_%s.txt" % (name, command))).read_text()
    code, out, _ = run_cli([command, name, *extra])
    assert code == 0
    assert out == expected


def assert_golden_document(tmp_path, doc, command="edet", stem=None):
    stem = stem or doc["name"]
    path = tmp_path / ("%s.json" % stem)
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli([command, str(path), "--json"])
    assert code == 0
    assert out == (GOLDEN / ("%s_%s.json" % (stem, command))).read_text()


def test_golden_line6_edet(tmp_path):
    # six consecutive points on a line: the dense quintic discriminant
    assert_golden_document(tmp_path, {"dim": 2, "points": [[1, e] for e in range(6)], "name": "line6"})


def test_golden_gap3_edet(tmp_path):
    # an edge with exponents 0, 3, 6, 9: its discriminant is that of 0, 1, 2, 3
    points = [[1, 0, 0], [1, 3, 0], [1, 6, 0], [1, 9, 0], [1, 0, 1], [1, 1, 1]]
    assert_golden_document(tmp_path, {"dim": 3, "points": points, "name": "gap3"})


def test_golden_line7_edet(tmp_path):
    # a line of degree 9 with gaps: the largest resultant of the golden files
    points = [[1, e] for e in (0, 1, 2, 4, 6, 7, 9)]
    assert_golden_document(tmp_path, {"dim": 2, "points": points, "name": "line7"})


def test_golden_corpus10_edet(tmp_path):
    # acceptance-corpus instance 10, unnamed: its top face is interpolated
    # with a lift over two primes
    points = [[-1, 1, 1], [0, -1, 1], [1, 0, 1], [1, 1, 1], [2, -1, 1], [2, 0, 1]]
    assert_golden_document(tmp_path, {"dim": 3, "points": points}, stem="corpus10")


def test_golden_p1p1p1_verify(tmp_path):
    # the whole pipeline at d = 4 on the fan polytope of P1 x P1 x P1: each
    # vertex's rank row has a quotient of rank 3
    points = [[1, 0, 0, 0], [1, 1, 0, 0], [1, -1, 0, 0], [1, 0, 1, 0], [1, 0, -1, 0], [1, 0, 0, 1], [1, 0, 0, -1]]
    assert_golden_document(tmp_path, {"dim": 4, "points": points, "name": "p1p1p1"}, "verify")


def test_report_round_trip(kp2):
    d = report_to_dict(build_report(verify_theorem(kp2), "kp2"))
    assert json.loads(json.dumps(d)) == d
    assert d == json.loads((GOLDEN / "kp2_verify.json").read_text())


@pytest.mark.parametrize("value", ["0", "nan", "-5", "abc"])
def test_environment_does_not_set_the_budget(value, monkeypatch):
    # only --budget sets the budget; the environment is ignored, whatever
    # GKZ_BUDGET_SECS holds
    monkeypatch.setenv("GKZ_BUDGET_SECS", value)
    code, out, err = run_cli(["edet", "a3"])
    assert code == 0 and "E_A = " in out and err == ""


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "gkzrank.cli", "validate", "a3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "dim: 2" in proc.stdout


@pytest.mark.parametrize("value", ["-3", "nan"])
@pytest.mark.parametrize(
    "script", [["random_survey.py", "--count", "1"], ["run_examples.py"]]
)
def test_script_bad_budget_flag(script, value):
    # the scripts parse --budget like the CLI: not a number >= 0 exits 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script[0]), *script[1:], "--budget", value],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert "--budget" in proc.stderr and not proc.stdout


@pytest.mark.parametrize("fault", [None, "status", "skeleton", "newton"])
def test_run_examples_exit_code(fault, monkeypatch, capsys):
    # run_examples exits 1 when a built-in's report fails, its flip skeleton
    # differs from the hull skeleton, or its Newton check fails
    path = ROOT / "scripts" / "run_examples.py"
    spec = importlib.util.spec_from_file_location("run_examples", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["run_examples.py"])
    verify, newton = script.verify_theorem, script.newton_polytope_check
    fakes = {
        "status": ("verify_theorem", lambda *a, **k: verify(*a, **k)._replace(status="fail")),
        "skeleton": ("hull_edges", lambda sp: sp.edges[1:]),
        "newton": ("newton_polytope_check", lambda *a: newton(*a)._replace(ok=False)),
    }
    if fault:
        monkeypatch.setattr(script, *fakes[fault])
    assert script.main() == (0 if fault is None else 1)
    assert "== f2:" in capsys.readouterr().out  # every built-in ran


def test_verification_failure_exit_code_mapping():
    # the CLI maps a failing report to exit code 1; exercise the mapping by
    # patching the verifier with a failing record
    import gkzrank.cli as cli_mod

    class FakeEdet:
        factors = ()
        e_a = None

    class FakeReport:
        def __init__(self):
            from gkzrank.polytope import validate_aset

            self.aset = validate_aset(2, [(1, 0), (1, 1)])
            self.triangulation_count = 1
            self.face_ranks = ()
            self.edges = ()
            self.edet = FakeEdet()
            self.status = "fail"

    original = cli_mod.verify_theorem
    cli_mod.verify_theorem = lambda aset, budget: FakeReport()
    try:
        code, out, _ = run_cli(["verify", "a3"])
    finally:
        cli_mod.verify_theorem = original
    assert code == 1
    assert "status: fail" in out


def _assert_verify_and_multiplicities_fail_with(details):
    # gkzrank verify and gkzrank multiplicities exit 1 and print each
    # failing edge's detail; multiplicities --json gives it on each edge
    for command in ("verify", "multiplicities"):
        code, out, _ = run_cli([command, "f2"])
        assert code == 1, command
        assert all("FAIL (%s)" % detail in out for detail in details), command
    code, out, _ = run_cli(["multiplicities", "f2", "--json"])
    rows = json.loads(out)["edges"]
    assert code == 1 and [(row["status"], row["detail"]) for row in rows] == [("fail", d) for d in details]


def test_a_failing_rank_identity_is_reported(monkeypatch, f2):
    # every edge's lhs raised by one: the identity fails on each edge
    rank_k0_edge = ktheory.rank_k0_edge

    def raised(sp, ed):
        ranks = rank_k0_edge(sp, ed)
        return ranks._replace(zf_rank=ranks.zf_rank + 1)

    monkeypatch.setattr(ktheory, "rank_k0_edge", raised)
    report = verify_theorem(f2)
    assert report.status == "fail" and len(report.edges) == 4
    for e in report.edges:
        assert (e.status, e.zf_rank) == ("fail", e.rhs + 1)
        assert e.detail == "rank identity fails: lhs %d vs rhs %d" % (e.zf_rank, e.rhs)
    _assert_verify_and_multiplicities_fail_with([e.detail for e in report.edges])


def test_a_leading_form_that_is_no_power_is_reported(monkeypatch, f2):
    # match_power finding no power: every edge has a face whose leading form
    # is no monomial, and fails on the first such face
    monkeypatch.setattr(discriminant, "match_power", lambda form, base: None)
    report = verify_theorem(f2)
    assert report.status == "fail" and len(report.edges) == 4
    for e in report.edges:
        assert e.status == "fail" and e.rhs is None
        assert e.detail.startswith("not a power of the circuit discriminant: leading form ")
    _assert_verify_and_multiplicities_fail_with([e.detail for e in report.edges])
