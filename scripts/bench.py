"""Record the benchmark's three workloads for one checkout in BENCH_<tag>.json.

    python3 scripts/bench.py --tag NAME [--root CHECKOUT] [--seed N]

Runs `perfbench/run.py --workload W --seed N --seconds 10 --trace 0` (N
defaults to 271828; the holdout seed is 314159) from the root of CHECKOUT
(default: this checkout) for W in flips, edet and survey, one after the
other, and writes BENCH_NAME.json at the root of this checkout.  The file
holds, per workload, the result line and the `# report` lines of the run,
and for the measured checkout the line count of `src/`, the Python version
and the number of usable processors (`nproc`).  Compare two checkouts only
with files written on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("flips", "edet", "survey")
SEED = 271828
SECONDS = 10


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def run_workload(root: Path, workload: str, seed: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    reports = [json.loads(x[len("# report "):]) for x in lines if x.startswith("# report ")]
    return {"result": json.loads(lines[-1]), "report": reports}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--root", type=Path, default=HERE)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    bench = {
        "tag": args.tag,
        "command": "perfbench/run.py --seed %d --seconds %d --trace 0" % (args.seed, SECONDS),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "src_lines": src_lines(root),
        "workloads": {w: run_workload(root, w, args.seed) for w in WORKLOADS},
    }
    out = HERE / ("BENCH_%s.json" % args.tag)
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    for w in WORKLOADS:
        metrics = bench["workloads"][w]["result"]["metrics"]
        print("%-7s %s" % (w, " ".join("%s=%.4g" % (k, v["value"]) for k, v in metrics.items())))
    print("wrote %s" % out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
