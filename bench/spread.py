"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload tuple-mix --seeds 1-10

Runs bench/run.py once per seed, one run at a time, and prints for each
end-to-end metric the median of the runs, the distance between the first
and third quartile as a share of the median (statistics.quantiles, n=4),
and the metric's bound (BENCHMARK.json).  A spread above a third of
the bound is marked.  The per-run results are written to
bench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import SPEC  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(json.loads((HERE / "out" / f"{args.workload}-trace0.json").read_text()))
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}/"
              f"{result['attempted']}", file=sys.stderr)

    print(f"{args.workload}: {len(runs)} runs of {args.seconds} s")
    print(f"{'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = "" if spread < metric["bound"] / 3 else "  > bound/3"
        print(f"{metric['name']:14} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {metric['bound']:6}{flag}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(json.dumps(runs, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
