"""Command-line front end.

One parser reads every command: gkzrank COMMAND INPUT [--pair I J] [--json]
[--budget SECONDS], the flags in any position, and COMMANDS maps each command
to its handler; only edge takes --pair, and it needs it.  Inputs are JSON
documents {"dim": d, "points": [[..], ..], "name": optional} or the built-in
example names a3, kp2, f2.  Output is deterministic text, or
machine-readable JSON with --json.

Exit codes: 0 success/verified, 1 verification failure, 2 invalid input,
3 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .builtin import BUILTIN_DOCUMENTS
from .discriminant import principal_a_determinant
from .elimination import (
    DEFAULT_BUDGET_SECONDS,
    Budget,
    BudgetExceeded,
    ExponentOverflow,
    InvalidBudget,
    parse_seconds,
)
from .ktheory import verify_theorem
from .polytope import InvalidConfiguration, faces, validate_aset
from .report import build_report, edet_to_dict, report_to_dict
from .secondary import NotAnEdge, edge_data, normal_cone_sample, secondary_polytope

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_BUDGET = 3
_STATUS_EXIT = {"pass": EXIT_OK, "fail": EXIT_VERIFICATION_FAILED, "budget": EXIT_BUDGET}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _load_document(path: str) -> dict:
    if path in BUILTIN_DOCUMENTS:
        return dict(BUILTIN_DOCUMENTS[path])
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_INVALID_INPUT, "cannot read input: %s" % exc)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too many digits
        raise CliError(EXIT_INVALID_INPUT, "malformed document: %s" % exc)
    if not isinstance(doc, dict) or "dim" not in doc or "points" not in doc:
        raise CliError(
            EXIT_INVALID_INPUT, 'malformed document: need {"dim": .., "points": ..}'
        )
    return doc


def _load_aset(path: str):
    doc = _load_document(path)
    sys.set_int_max_str_digits(0)  # input read: coefficients may pass 4,300 digits
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise CliError(EXIT_INVALID_INPUT, 'malformed document: "name" must be a string')
    try:
        aset = validate_aset(doc["dim"], doc["points"])
    except (InvalidConfiguration, TypeError, ValueError) as exc:
        code = getattr(exc, "code", str(exc))
        raise CliError(EXIT_INVALID_INPUT, "invalid A-set: %s" % code)
    return aset, name


def _emit(args, text_lines, json_payload) -> None:
    if args.json:
        sys.stdout.write(json.dumps(json_payload, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def cmd_validate(args) -> int:
    aset, name = _load_aset(args.input)
    payload = {
        "name": name,
        "dim": aset.dim,
        "n": aset.n,
        "height": list(aset.height),
        "faces": len(faces(aset)),
    }
    lines = ["%s: %s" % item for item in {**payload, "name": name or "-"}.items()]
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_faces(args) -> int:
    aset, name = _load_aset(args.input)
    rows = [
        {
            "dim": f.dim,
            "indices": list(f.indices),
            "support": list(f.support),
            "offset": f.offset,
        }
        for f in faces(aset)
    ]
    lines = ["faces of %s (dim, indices, support, offset):" % (name or args.input)]
    lines += [
        "  dim %(dim)d  indices %(indices)s  support %(support)s  offset %(offset)d" % row
        for row in rows
    ]
    _emit(args, lines, {"name": name, "faces": rows})
    return EXIT_OK


def cmd_secondary(args) -> int:
    aset, name = _load_aset(args.input)
    sp = secondary_polytope(aset)
    payload = {
        "name": name,
        "dim": sp.dim,
        "vertices": [
            {"phi": list(phi), "simplices": [list(s) for s in tri.simplices]}
            for tri, phi in zip(sp.triangulations, sp.phis)
        ],
        "edges": [list(e) for e in sp.edges],
    }
    lines = [
        "secondary polytope of %s" % (name or args.input),
        "dim: %d" % sp.dim,
        "vertices: %d" % len(payload["vertices"]),
    ]
    lines += [
        "  [%d] phi %s  simplices %s" % (k, v["phi"], v["simplices"])
        for k, v in enumerate(payload["vertices"])
    ]
    lines.append("edges: %s" % (payload["edges"],))
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_edge(args) -> int:
    aset, name = _load_aset(args.input)
    sp = secondary_polytope(aset)
    i, j = args.pair
    try:
        ed = edge_data(sp, i, j)
    except NotAnEdge:
        raise CliError(EXIT_INVALID_INPUT, "not an edge: %d %d" % (i, j))
    payload = {
        "name": name,
        "vertex_pair": list(ed.vertex_pair),
        "endpoints": [[list(s) for s in t.simplices] for t in ed.endpoints],
        "circuit": {
            "indices": list(ed.circuit.indices),
            "relation": list(ed.circuit.relation),
        },
        "separating_sets": [list(j_) for j_ in ed.separating_sets],
        "common_simplices": [list(s) for s in ed.common_simplices],
        "subdivision": [
            {"vertices_hull": list(m.vertices_hull), "marks": list(m.marks)}
            for m in ed.subdivision
        ],
        "psi": [str(x) for x in normal_cone_sample(sp, *ed.vertex_pair)],
    }
    lines = [
        "edge %d-%d of %s" % (*ed.vertex_pair, name or args.input),
        "endpoints: %s | %s" % tuple(payload["endpoints"]),
        "circuit: indices %(indices)s relation %(relation)s" % payload["circuit"],
        "separating sets: %s" % (payload["separating_sets"],),
        "common simplices: %s" % (payload["common_simplices"],),
        "subdivision cells: %s"
        % ([[m["vertices_hull"], m["marks"]] for m in payload["subdivision"]],),
        "psi: %s" % (payload["psi"],),
    ]
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_edet(args) -> int:
    aset, name = _load_aset(args.input)
    result = principal_a_determinant(aset, Budget(seconds=args.budget))
    lines = ["principal A-determinant of %s" % (name or args.input)]
    for f in result.factors:
        if f.discriminant is None:
            desc = "BUDGET EXCEEDED: %s" % f.error
        else:
            desc = f.discriminant.to_str()
        lines.append(
            "  face %s  u %d  i %d  exponent %d  discriminant %s"
            % (list(f.face.indices), f.invariants.u, f.invariants.i, f.exponent, desc)
        )
    if result.e_a is not None:
        lines.append("E_A = %s" % result.e_a.to_str())
        lines.append("terms: %d" % len(result.e_a.terms))
    else:
        lines.append("E_A: incomplete (budget exceeded)")
    _emit(args, lines, {"name": name, **edet_to_dict(result)})
    return EXIT_OK if result.e_a is not None else EXIT_BUDGET


def cmd_multiplicities(args) -> int:
    aset, name = _load_aset(args.input)
    result = verify_theorem(aset, Budget(seconds=args.budget))
    lines = ["multiplicities of %s (per edge, per face)" % (name or args.input)]
    rows = []
    for e in result.edges:
        pair, circuit = list(e.vertex_pair), list(e.circuit_indices)
        mults = [[list(f), n] for f, n in e.multiplicities]
        row = {"vertex_pair": pair, "circuit": circuit, "status": e.status}
        if e.status != "ok":  # the reason the text layout prints
            row["detail"] = e.detail
        rows.append({**row, "multiplicities": [{"face": f, "n": n} for f, n in mults]})
        shown = "skipped (%s)" % e.detail if e.status == "skipped" else mults
        fail = " FAIL (%s)" % e.detail if e.status == "fail" else ""
        lines.append("  edge %s circuit %s: %s%s" % (pair, circuit, shown, fail))
    _emit(args, lines, {"name": name, "edges": rows})
    return _STATUS_EXIT[result.status]


def cmd_verify(args) -> int:
    aset, name = _load_aset(args.input)
    result = verify_theorem(aset, Budget(seconds=args.budget))
    k0_rank = {fr.face.indices: fr.k0_rank for fr in result.face_ranks}
    lines = ["verification of %s" % (name or args.input)]
    lines.append("triangulations: %d" % result.triangulation_count)
    for e in result.edges:
        if e.status == "skipped":
            lines.append(
                "  edge %s circuit %s: SKIPPED (%s)"
                % (list(e.vertex_pair), list(e.circuit_indices), e.detail)
            )
            continue
        contrib = " + ".join(
            "%d*%d" % (n, k0_rank[f]) for f, n in e.multiplicities if n
        ) or "0"
        mark = "ok" if e.status == "ok" else "FAIL (%s)" % e.detail
        lines.append(
            "  edge %s circuit %s: lhs %d = %s : %s"
            % (list(e.vertex_pair), list(e.circuit_indices), e.zf_rank, contrib, mark)
        )
    lines.append("status: %s" % result.status)
    _emit(args, lines, report_to_dict(build_report(result, name)))
    return _STATUS_EXIT[result.status]


def cmd_example(args) -> int:
    if args.input not in BUILTIN_DOCUMENTS:
        raise CliError(
            EXIT_INVALID_INPUT,
            "unknown example %r; available: %s"
            % (args.input, ", ".join(sorted(BUILTIN_DOCUMENTS))),
        )
    sys.stdout.write(json.dumps(BUILTIN_DOCUMENTS[args.input], indent=2) + "\n")
    return EXIT_OK


COMMANDS = {
    "validate": (cmd_validate, "validate an A-set document"),
    "faces": (cmd_faces, "list the faces of Q = conv(A)"),
    "secondary": (cmd_secondary, "vertices and edges of the secondary polytope"),
    "edge": (cmd_edge, "circuit and subdivision data of one edge"),
    "edet": (cmd_edet, "principal A-determinant and per-face exponents"),
    "multiplicities": (cmd_multiplicities, "per-edge, per-face multiplicities"),
    "verify": (cmd_verify, "verify the rank identity on every edge"),
    "example": (cmd_example, "print a built-in example document"),
}


def _seconds(text: str) -> float:
    try:
        return parse_seconds(text)
    except InvalidBudget as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    table = "".join("\n  %-16s%s" % (name, entry[1]) for name, entry in COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="gkzrank",
        description="Exact secondary-polytope, discriminant and K-theory rank toolkit",
        epilog="commands:" + table,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", metavar="COMMAND", choices=COMMANDS, help="one of the commands below"
    )
    parser.add_argument("input", help="path to a JSON document or a built-in name (a3, kp2, f2)")
    parser.add_argument(
        "--pair", nargs=2, type=int, metavar=("I", "J"), help="vertex indices of the edge (edge only)"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--budget",
        type=_seconds,
        default=DEFAULT_BUDGET_SECONDS,
        help="seconds for all face discriminants of the command together "
        "(default %(default)g)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.command == "edge") != (args.pair is not None):
        parser.error("edge needs --pair I J, and no other command takes it")
    digits = sys.get_int_max_str_digits()
    try:
        return COMMANDS[args.command][0](args)
    except CliError as exc:
        error, code = exc, exc.code
    except ExponentOverflow as exc:
        error, code = exc, EXIT_INVALID_INPUT
    except BudgetExceeded as exc:
        error, code = exc, EXIT_BUDGET
    finally:  # _load_aset lifted it for the command's output
        sys.set_int_max_str_digits(digits)
    sys.stderr.write("error: %s\n" % error)
    return code


if __name__ == "__main__":
    sys.exit(main())
