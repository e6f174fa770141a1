"""rscount benchmark: CLI workloads timed end to end, plus a traced per-layer run.

    python3 perfbench/run.py --workload linear-scan --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60      # every workload, one table
    python3 perfbench/run.py --workload all --smoke           # a few ops, for a quick check

Each measured run of a workload's op list is one fresh child interpreter
(``python -I perfbench/child.py src``), so every cache in the program starts
cold, as for a CLI user.  Children run one at a time, each op after the
previous one returned (a closed loop, one client).  The seed fixes the order
of the ops in each child.  Outputs are checked after each child, outside the
timed region.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = Path(__file__).resolve().parent / "out"

#: Import-only children started per run for ``setup_s`` (after one untimed warm-up).
SETUP_CHILDREN = 5
#: Fewest untraced children per run, and fewest traced ones in a traced run.
MIN_CHILDREN = 3
MIN_TRACED = 2
#: Ops per child in smoke mode.
SMOKE_OPS = 10
#: Longest one child may take before it is killed and its ops count as failed;
#: with a 60 s run this keeps a whole run under 180 s.
CHILD_TIMEOUT_S = 60

#: End-to-end metrics in the result line (and in BENCHMARK.json), with units.
END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail10_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct``% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_mean(values, share: float = 0.1) -> float:
    """Mean of the slowest ``share`` of the values (at least one value)."""
    ordered = sorted(values, reverse=True)
    count = max(1, math.ceil(share * len(ordered)))
    return sum(ordered[:count]) / count


def child_env() -> dict:
    """The parent's environment without the enumeration-cap override."""
    env = dict(os.environ)
    env.pop("RSCOUNT_ENUM_CAP", None)
    return env


def spawn(ops, trace=False, spans_path=None) -> tuple[float, dict | None, str]:
    """Run one child to completion: (set-up seconds, report or None, stderr)."""
    config = json.dumps({"ops": ops, "trace": trace, "spans_path": spans_path})
    started = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-I", str(CHILD), str(SRC)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(), cwd=ROOT, text=True,
    ) as proc:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - started
        try:
            out, err = proc.communicate(config, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += f"\nchild killed after {CHILD_TIMEOUT_S} s"
    if ready != "ready\n" or proc.returncode != 0:
        return setup_s, None, err
    return setup_s, json.loads(out), err


class Run:
    """The children of one benchmark run and the checks of their outputs."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.setup_samples: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._checked: dict = {}

    def ops_for(self, child_index: int, traced_run: bool) -> list[list[str]]:
        # Every child of a traced run gets the same order, so that traced and
        # untraced children do the same work and counts must repeat exactly.
        ops = workloads.build(self.workload, self.seed, 0 if traced_run else child_index)
        return ops[:SMOKE_OPS] if self.smoke else ops

    def measure_setup(self) -> None:
        spawn([])  # untimed: leaves the bytecode cache written
        for _ in range(SETUP_CHILDREN):
            setup_s, report, err = spawn([])
            if report is None:
                raise RuntimeError(f"import-only child failed:\n{err}")
            self.setup_samples.append(setup_s)

    def child(self, index: int, traced_run: bool, trace: bool, spans_path=None) -> dict | None:
        ops = self.ops_for(index, traced_run)
        setup_s, report, err = spawn(ops, trace, spans_path)
        self.setup_samples.append(setup_s)
        self.attempted += len(ops)
        if report is None:
            self.failures.append(f"child {index} crashed: {err.strip()[-2000:]}")
            self.failures.extend(["(op lost with its child)"] * (len(ops) - 1))
            return None
        from check import check_op  # imports rscount from src/; see main()

        for argv, result in zip(ops, report["ops"]):
            if result["error"]:
                self.failures.append(f"{' '.join(argv)}: {result['error'].strip()}")
                continue
            key = (tuple(argv), result["code"], result["stdout"])
            if key not in self._checked:
                self._checked[key] = check_op(argv, result["code"], result["stdout"])
            problem = self._checked[key]
            if problem:
                self.failures.append(f"{' '.join(argv)}: {problem} {result['stderr'].strip()}")
        return report

    def children(self, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
        """Untraced and traced reports.  A traced run alternates untraced and
        traced children; children start while the previous ones leave time
        for one more within ``seconds``, down to the minimum counts."""
        plain, traced = [], []
        started = perf_counter()
        index = 0
        while True:
            want_trace = trace and len(traced) < len(plain)
            spans_path = None
            if want_trace and not traced:  # the first traced child writes its spans
                OUT.mkdir(exist_ok=True)
                spans_path = str(OUT / f"spans-{self.workload}-seed{self.seed}.csv.gz")
            report = self.child(index, trace, want_trace, spans_path)
            index += 1
            if report is not None:
                (traced if want_trace else plain).append(report)
            elapsed = perf_counter() - started
            enough = len(plain) >= (1 if trace else MIN_CHILDREN) and (
                not trace or len(traced) >= MIN_TRACED
            )
            if report is None or (enough and elapsed * (index + 1) / index > seconds):
                return plain, traced


def end_to_end(run: Run, plain: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics (name -> (value, unit)), each the median over the
    untraced children (``setup_s``: over every child of the run), and
    ``op_p90_ms``, which is reported but not gated."""
    latencies = [[o["ms"] for o in r["ops"]] for r in plain]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "op_p50_ms": statistics.median(percentile(ms, 50) for ms in latencies),
        "op_tail10_ms": statistics.median(tail_mean(ms) for ms in latencies),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in plain),
        "setup_s": statistics.median(run.setup_samples),
    }
    p90 = statistics.median(percentile(ms, 90) for ms in latencies)
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, {"op_p90_ms": (p90, "ms")}


def _layer_counts(trace: dict) -> dict[str, int]:
    """Every count in one traced child: these must repeat exactly."""
    out = {f"{name}.calls": s["calls"] for name, s in trace["spans"].items()}
    out.update(trace["counts"])
    out.update(trace["caches"])
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics (name -> (value, unit)) and count mismatches."""
    counts = [_layer_counts(r["trace"]) for r in traced]
    mismatches = [
        f"{key}: {[c.get(key) for c in counts]}"
        for key in sorted(set().union(*counts))
        if len({c.get(key) for c in counts}) > 1
    ]
    first = counts[0]

    def median_of(name, stat):
        return statistics.median(
            r["trace"]["spans"].get(name, {}).get(stat, 0.0) for r in traced
        )

    metrics = {}
    for name in _LAYER_SPANS:
        metrics[f"{name}.calls"] = (first.get(f"{name}.calls", 0), "count")
        for stat in _LAYER_SPANS[name]:
            metrics[f"{name}.{stat}"] = (median_of(name, stat), "s")
    for name in ("fields.squarefree_codes", "fields.is_irreducible"):
        calls = first.get(f"{name}.calls", 0)
        total = median_of(name, "total_s")
        metrics[f"{name}.true_ratio"] = (first.get(f"{name}.true", 0) / calls if calls else 0.0, "ratio")
        metrics[f"{name}.us_per_call"] = (total / calls * 1e6 if calls else 0.0, "us")
    metrics["census.iter_hermitian_self_reciprocal_coeffs.yields"] = (
        first.get("census.iter_hermitian_self_reciprocal_coeffs.yields", 0), "count")
    metrics["oracle.witness_count"] = (first.get("oracle.witness_count", 0), "count")
    for key, value in traced[0]["trace"]["caches"].items():
        metrics[key] = (value, "count")
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace_overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    return metrics, mismatches


#: Timed stats reported per span name (``calls`` is reported for all).
_LAYER_SPANS = {
    "cli.main": ("total_s", "self_s"),
    "closedform.rs_count": ("total_s",),
    "genfun.gf_count": ("total_s", "self_s"),
    "genfun.verify_identity": ("total_s", "self_s"),
    "genfun.symbolic_count_polynomials": ("total_s", "self_s"),
    "series.series_mul": ("total_s",),
    "series.series_from_rational": ("total_s",),
    "series.series_binomial_power": ("total_s",),
    "census.census_count": ("total_s", "self_s"),
    "census.self_reciprocal_irreducibles": ("total_s", "self_s"),
    "census.reciprocal_pairs": ("total_s", "self_s"),
    "census.irreducibles": ("total_s", "self_s"),
    "conjugation.reciprocal": ("total_s",),
    "conjugation.is_self_reciprocal": ("total_s",),
    "conjugation.hermitian_reciprocal": ("total_s",),
    "conjugation.is_hermitian_self_reciprocal": ("total_s",),
    "fields.squarefree_codes": ("total_s",),
    "fields.is_irreducible": ("total_s",),
    "fields.poly_eval": ("total_s",),
    "fields.ff_from_order": ("total_s",),
    "oracle.oracle_count": ("total_s", "self_s"),
}


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    run = Run(workload, seed, smoke)
    run.measure_setup()
    plain, traced = run.children(0 if smoke else seconds, trace)
    metrics, reported, mismatches = {}, {}, []
    if plain and (traced or not trace):
        if trace:
            metrics, mismatches = per_layer(plain, traced)
        else:
            metrics, reported = end_to_end(run, plain)
    failed = len(run.failures)
    reported["error_rate"] = (failed / run.attempted, "ratio")
    return {
        "correct": failed == 0 and not mismatches and bool(metrics),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "failures": run.failures,
        "count_mismatches": mismatches,
        "children": {"untraced": len(plain), "traced": len(traced)},
        "samples": {
            "setup_s": run.setup_samples,
            "wall_s": [r["wall_s"] for r in plain + traced],
            "op_ms": [[o["ms"] for o in r["ops"]] for r in plain + traced],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"first {SMOKE_OPS} ops per child, fewest children")
    args = parser.parse_args(argv)
    if not (SRC / "rscount" / "cli.py").is_file():
        print(f"error: no rscount sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # check.py, imported by Run.child, needs rscount

    stamp = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        results[name] = result
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(dict(result, stamp=stamp, workload=name), indent=1))
        print(f"== {name} (seed {args.seed}, trace {args.trace}): "
              f"{result['attempted']} ops in {result['children']} children, "
              f"{result['failed']} failed")
        for key, metric in {**result["metrics"], **result["reported"]}.items():
            print(f"  {key:58s} {metric['value']:.6g} {metric['unit']}")
        for line in result["failures"][:20] + result["count_mismatches"][:20]:
            print(f"  FAIL {line}")
    print(json.dumps({"stamp": stamp}))
    keys = ("correct", "attempted", "failed", "metrics")
    if len(names) == 1:
        print(json.dumps({k: results[names[0]][k] for k in keys}))
    else:
        print(json.dumps({name: {k: r[k] for k in keys} for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
