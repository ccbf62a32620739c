"""wpsdeg benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload tuple-mix --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --write-spec        # regenerate BENCHMARK.json

A run first measures set-up: SETUP_SAMPLES fresh interpreters each import
wpsdeg.cli, and setup_s is the median import time.  It then starts passes
until --seconds have gone by.  Each pass is a fresh single-threaded
interpreter (bench/worker.py, src/ on the path) that runs the workload's
whole op list as a closed loop with one client.  The first pass warms up and
is not timed.  Its outputs are checked with the benchmark's own arithmetic
(checks.py), and every later pass must reproduce them byte for byte.  A
failed op is one that raised, exited with an unexpected code, printed a
wrong output or drifted from the first pass.

With --trace 0 the run reports the end-to-end metrics, as medians over its
timed passes.  With --trace 1 it alternates untraced and traced passes, reports
the per-layer metrics of the traced ones (spans.py) plus the tracing
overhead, and writes the spans to bench/out/spans-<workload>.jsonl.  Every
run also writes bench/out/<workload>-trace<0|1>.json with the metrics and
the interpreter, core count, git SHA, seed and wpsdeg version.  The last
line of stdout is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

SETUP_SAMPLES = 15
MIN_PASSES = 3
PASS_TIMEOUT_S = 120

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 40,
    "workloads": [
        {"name": "enum-d3",
         "why": "enumerate dim 3 to bound 2000: nearly all time in the raw divisor search, no records or denumerants"},
        {"name": "enum-d5-report",
         "why": "enumerate dim 5 to bound 200 as an md report: half search, half records (strata, rigid points, denumerants)"},
        {"name": "tuple-mix",
         "why": "about 300 per-tuple ops, no search: trees, classify, lift, Reid-Tai verdicts, one 10^6-degree denumerant"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "op_p95_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "search.enumerate_self_s", "unit": "s", "better": "lower"},
        {"name": "search.wellformed_s", "unit": "s", "better": "lower"},
        {"name": "search.raw_candidates", "unit": "count", "better": "lower"},
        {"name": "search.solutions", "unit": "count", "better": "higher"},
        {"name": "search.wellformed_ratio", "unit": "ratio", "better": "higher"},
        {"name": "singular.strata_s", "unit": "s", "better": "lower"},
        {"name": "singular.strata_calls", "unit": "count", "better": "lower"},
        {"name": "singular.strata_per_record", "unit": "ratio", "better": "lower"},
        {"name": "singular.rigid_points_self_s", "unit": "s", "better": "lower"},
        {"name": "singular.smoothability_self_s", "unit": "s", "better": "lower"},
        {"name": "singular.reid_tai_s", "unit": "s", "better": "lower"},
        {"name": "singular.germs_classified", "unit": "count", "better": "lower"},
        {"name": "singular.reid_tai_order_sum", "unit": "count", "better": "lower"},
        {"name": "weights.denumerant_s", "unit": "s", "better": "lower"},
        {"name": "weights.denumerant_calls", "unit": "count", "better": "lower"},
        {"name": "weights.denumerant_cells", "unit": "count", "better": "lower"},
        {"name": "weights.moduli_self_s", "unit": "s", "better": "lower"},
        {"name": "weights.normalize_s", "unit": "s", "better": "lower"},
        {"name": "mutation.tree_s", "unit": "s", "better": "lower"},
        {"name": "mutation.tree_nodes", "unit": "count", "better": "higher"},
        {"name": "mutation.classify_s", "unit": "s", "better": "lower"},
        {"name": "mutation.classify_calls", "unit": "count", "better": "lower"},
        {"name": "mutation.lift_s", "unit": "s", "better": "lower"},
        {"name": "records.record_self_s", "unit": "s", "better": "lower"},
        {"name": "records.records_built", "unit": "count", "better": "lower"},
        {"name": "records.serialize_s", "unit": "s", "better": "lower"},
        {"name": "cli.parse_s", "unit": "s", "better": "lower"},
        {"name": "cli.render_self_s", "unit": "s", "better": "lower"},
        {"name": "cli.ops", "unit": "count", "better": "higher"},
        {"name": "cli.stdout_bytes", "unit": "bytes", "better": "lower"},
        {"name": "trace.overhead_pct", "unit": "%", "better": "lower"},
    ],
}


class Failed(Exception):
    """The run cannot produce a result."""


def start_worker(ops, trace: bool) -> dict:
    """Run one pass in a fresh interpreter and return its parsed result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    request = json.dumps({"ops": [op["argv"] for op in ops], "trace": trace})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=request,
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Failed(f"a pass ran longer than {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise Failed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def digest(result) -> str:
    return hashlib.sha256(f"{result['code']}\n{result['out']}".encode()).hexdigest()


def op_quantile_ms(result, pct: int) -> float:
    """The pct-th percentile of one pass's op latencies."""
    latencies = [r["s"] * 1e3 for r in result["ops"]]
    if len(latencies) == 1:
        return latencies[0]
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]


class Run:
    """Passes of one workload and the failures found in them."""

    def __init__(self, ops):
        self.ops = ops
        self.reference: list[str] = []
        self.broken: set[int] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check_pass(self, result) -> None:
        """Check the first pass's outputs; later passes must match them."""
        digests = [digest(r) for r in result["ops"]]
        if not self.reference:
            self.reference = digests
            for i, (op, r) in enumerate(zip(self.ops, result["ops"])):
                problem = check(op["expect"], r["code"], r["out"])
                if problem:
                    self.broken.add(i)
                    self.problems.append(f"op {i} {' '.join(op['argv'])}: {problem} {r['err']}")
        for i, (want, got) in enumerate(zip(self.reference, digests)):
            if want != got:
                self.problems.append(f"op {i}: output differs from the first pass")
            self.failed += want != got or i in self.broken
        self.attempted += len(digests)


def end_to_end(setup, passes) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "ops_per_s": statistics.median(len(p["ops"]) / p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(op_quantile_ms(p, 50) for p in passes),
        "op_p95_ms": statistics.median(op_quantile_ms(p, 95) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }


def per_layer(traced, untraced) -> dict[str, float]:
    layers = [layer_metrics(p["spans"], sum(len(r["out"].encode()) for r in p["ops"]))
              for p in traced]
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    out["trace.overhead_pct"] = (traced_wall / untraced_wall - 1) * 100
    return out


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def write_spans(path: Path, traced) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for k, p in enumerate(traced):
            for name, start, end, parent, op, n in p["spans"]:
                handle.write(json.dumps({"pass": k, "op": op, "name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent, "n": n}) + "\n")


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "wpsdeg" / "cli.py").is_file():
        raise Failed(f"no wpsdeg source at {ROOT / 'src'}; run from a checkout of the repository")
    ops = make_ops(workload, seed)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    # The first import compiles bytecode; set-up is timed once that is done.
    setup = [start_worker([], False)["import_s"] for _ in range(SETUP_SAMPLES + 1)][1:]

    state = Run(ops)
    traced, untraced = [], []
    begin = time.perf_counter()
    # The first pass is slower in most runs; it is checked but not timed.
    state.check_pass(start_worker(ops, False))
    last = time.perf_counter() - begin
    while len(traced) + len(untraced) < MIN_PASSES or time.perf_counter() - begin + last <= seconds:
        started = time.perf_counter()
        tracing = trace and len(untraced) > len(traced)
        result = start_worker(ops, tracing)
        state.check_pass(result)
        (traced if tracing else untraced).append(result)
        last = time.perf_counter() - started

    if trace:
        metrics = per_layer(traced, untraced)
        write_spans(out_dir / f"spans-{workload}.jsonl", traced)
        names = SPEC["per_layer"]
    else:
        metrics = end_to_end(setup, untraced)
        names = SPEC["end_to_end"]

    passes = traced + untraced
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "wpsdeg_version": passes[0]["version"],
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "ops_per_pass": len(ops),
        "latency_samples": sum(len(p["ops"]) for p in untraced),
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "attempted": state.attempted,
        "failed": state.failed,
        "error_rate": state.failed / state.attempted,
        "problems": state.problems[:20],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    (out_dir / f"{workload}-trace{int(trace)}.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the metric table in this file and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2, ensure_ascii=False) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Failed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {report['workload']}  seed {report['seed']}  traced {report['traced']}  "
          f"python {report['python']}  nproc {report['nproc']}  git {report['git_sha'][:12]}  "
          f"wpsdeg {report['wpsdeg_version']}")
    print(f"passes {report['passes']}  ops/pass {report['ops_per_pass']}  "
          f"latency samples {report['latency_samples']}  error_rate {report['error_rate']}")
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    for name, metric in report["metrics"].items():
        print(f"{name:32} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
