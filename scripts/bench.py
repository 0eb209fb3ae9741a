"""Record the benchmark's three workloads for one checkout in BENCH_<tag>.json.

    python3 scripts/bench.py --tag NAME [--root CHECKOUT] [--seed N]
    python3 scripts/bench.py --tag NAME --parent CHECKOUT [--root CHECKOUT] [--seed N]

Runs `perfbench/run.py --workload W --seed N --seconds 10 --trace 0` (N
defaults to 271828; the holdout seed is 314159) from the root of CHECKOUT
(default: this checkout) for W in flips, edet and survey, one after the
other, and writes BENCH_NAME.json at the root of this checkout.  The file
holds, per workload, the result line and the `# report` lines of the run,
and for the measured checkout the line count of `src/`, the import time of
the CLI (`import_ms`: the median, over IMPORT_RUNS fresh interpreters, of the
cumulative `python -X importtime -c "import gkzrank.cli"` figure on the
`gkzrank.cli` line, run in `src/`; it includes compiling the sources when no
bytecode cache is written), the Python version and the number of usable
processors (`nproc`).  Compare two checkouts only with files written on the
same machine.

With --parent, each workload runs PAIRS times on the parent checkout and on
the change (--root), alternating which side runs first.  The file then holds
the parent's line count and import time too, every run's metrics and report
digest, and per end-to-end metric each side's median and quartiles, the
pairs the change wins (ties count for neither) and whether the gain rule
holds: the change wins at least nine pairs in ten and the medians differ by
more than the parent's interquartile range.  Each
checkout must be a whole tree, since `survey` reads `tests/golden`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("flips", "edet", "survey")
SEED = 271828
SECONDS = 10
PAIRS = 10
IMPORT_RUNS = 7


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def import_ms(root: Path) -> float:
    times = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gkzrank.cli"],
            cwd=root / "src", capture_output=True, text=True, check=True,
        )
        # "import time: <self us> | <cumulative us> | <module>"
        line = next(x for x in proc.stderr.splitlines() if x.split("|")[-1].strip() == "gkzrank.cli")
        times.append(int(line.split("|")[1]) / 1000)
    return statistics.median(times)


def run_workload(root: Path, workload: str, seed: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit("%s failed in %s:\n%s" % (workload, root, proc.stderr))
    lines = proc.stdout.splitlines()
    reports = [json.loads(x[len("# report "):]) for x in lines if x.startswith("# report ")]
    return {"result": json.loads(lines[-1]), "report": reports}


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, the change's wins over
    the pairs, and the gain rule."""
    out = {}
    for name, direction in better.items():
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        sign = 1 if direction == "lower" else -1
        wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
        sides = {}
        for side, xs in (("parent", p), ("change", c)):
            q1, _, q3 = statistics.quantiles(xs, n=4)
            sides[side] = {"median": statistics.median(xs), "q1": q1, "q3": q3}
        gap = sign * (sides["parent"]["median"] - sides["change"]["median"])
        iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
        out[name] = dict(sides, wins=wins, pairs=len(p), gain=wins >= 0.9 * len(p) and gap > iqr)
    return out


def paired(root: Path, parent: Path, seed: int) -> dict:
    end_to_end = json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    workloads = {}
    for w in WORKLOADS:
        runs = {"parent": [], "change": []}
        for k in range(PAIRS):
            order = [("parent", parent), ("change", root)]
            for side, checkout in order if k % 2 == 0 else order[::-1]:
                out = run_workload(checkout, w, seed)
                run = {name: v["value"] for name, v in out["result"]["metrics"].items()}
                run.update(digest=out["report"][-1]["digest"], correct=out["result"]["correct"])
                runs[side].append(run)
        summary = summarize(runs["parent"], runs["change"], better)
        workloads[w] = {"runs": runs, "summary": summary}
        print("%-7s %s" % (w, " ".join(
            "%s=%.4g/%.4g(%d/%d)" % (k, s["parent"]["median"], s["change"]["median"], s["wins"], s["pairs"])
            for k, s in summary.items())))
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--root", type=Path, default=HERE)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    bench = {
        "tag": args.tag,
        "command": "perfbench/run.py --seed %d --seconds %d --trace 0" % (args.seed, SECONDS),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "src_lines": src_lines(root),
        "import_ms": import_ms(root),
    }
    if args.parent:
        parent = args.parent.resolve()
        bench.update(pairs=PAIRS, parent_src_lines=src_lines(parent), parent_import_ms=import_ms(parent))
        bench["workloads"] = paired(root, parent, args.seed)
    else:
        bench["workloads"] = {w: run_workload(root, w, args.seed) for w in WORKLOADS}
    out = HERE / ("BENCH_%s.json" % args.tag)
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    if not args.parent:
        for w in WORKLOADS:
            metrics = bench["workloads"][w]["result"]["metrics"]
            print("%-7s %s" % (w, " ".join("%s=%.4g" % (k, v["value"]) for k, v in metrics.items())))
    print("wrote %s" % out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
