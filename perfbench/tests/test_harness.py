"""Tests of the benchmark harness itself (not of rscount).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rscount import cli  # noqa: E402


# -- percentile rule ------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100, shuffled order must not matter
    assert run.percentile(reversed(values), 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 100) == 100
    assert run.percentile([7], 90) == 7
    assert run.percentile([3, 1, 2], 50) == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_leaves_ten_samples_beyond_p90(name):
    ops = workloads.build(name, 1)
    p90 = run.percentile(range(len(ops)), 90)
    assert len(ops) - 1 - p90 >= 10


def test_tail_mean_is_the_mean_of_the_slowest_tenth():
    assert run.tail_mean(range(1, 101)) == sum(range(91, 101)) / 10
    assert run.tail_mean([5.0, 1.0]) == 5.0


def test_seed_permutes_but_keeps_the_op_set():
    a, b = workloads.build("linear-scan", 1), workloads.build("linear-scan", 2)
    assert a == workloads.build("linear-scan", 1)
    assert a != b and sorted(a) == sorted(b)
    assert workloads.build("linear-scan", 1, child=1) != a


def test_workload_sizes():
    assert len(workloads.linear_scan()) == 152
    assert len(workloads.orthogonal_scan()) == 104
    assert len(workloads.series_identities()) == 301


# -- self-time arithmetic -------------------------------------------------------


def test_self_time_subtracts_direct_children():
    # A [0, 10] -> B [1, 4], C [5, 9] -> B [6, 7]
    names = ["A", "B", "C"]
    name_ids = [0, 1, 2, 1]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    out = spans.summarize(names, name_ids, parents, starts, ends)
    assert out["A"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert out["B"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert out["C"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}


def test_total_time_counts_a_reentered_function_once():
    # A [0, 10] -> X [1, 2], A [3, 8] -> A [4, 5]
    out = spans.summarize(
        ["A", "X"], [0, 1, 0, 0], [-1, 0, 0, 2], [0.0, 1.0, 3.0, 4.0], [10.0, 2.0, 8.0, 5.0]
    )
    assert out["A"]["calls"] == 3
    assert out["A"]["total_s"] == 10.0
    assert out["A"]["self_s"] == pytest.approx(10.0 - 1.0)


def test_tracer_records_nested_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert list(tracer.parent) == [-1, 0, 0]
    summary = tracer.report()["spans"]
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]


# -- output checker -------------------------------------------------------------


def _stdout(argv, capsys):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--group", "so+", "--n", "2", "--q", "3", "--method", "all"],
        ["count", "--group", "sl", "--n", "8", "--q", "4", "--method", "genfun"],
        ["verify", "--identity", "gl-product", "--q", "3", "--terms", "8"],
        ["series", "--family", "sp", "--terms", "6", "--char", "odd"],
        ["series", "--family", "gl", "--terms", "6"],
        ["table", "--group", "su", "--q", "5", "--n-max", "6"],
        ["census", "--kind", "reciprocal-pairs", "--q", "4", "--d-max", "4",
         "--method", "enumerate"],
    ],
)
def test_checker_accepts_real_output_and_catches_a_wrong_count(argv, capsys):
    out = _stdout(argv, capsys)
    assert check.check_op(argv, 0, out) is None
    assert check.check_op(argv, 3, out) == "exit code 3"
    if argv[0] == "count":
        payload = json.loads(out)
        if "counts" in payload:
            payload["counts"]["oracle"] += 1
        else:
            payload["count"] += 1
        wrong = json.dumps(payload)
    elif argv[0] == "verify":
        payload = json.loads(out)
        payload["rhs_coeffs"][3] += 1
        wrong = json.dumps(payload)
    elif argv[0] == "series":
        wrong = out.replace("\n3: ", "\n3: 1 + ", 1)
    else:  # csv: bump the count of the last row
        head, last = out.rstrip("\n").rsplit(",", 1)
        wrong = f"{head},{int(last) + 1}\n"
    assert check.check_op(argv, 0, wrong) is not None


def test_qpoly_text_evaluation():
    assert check.eval_qpoly_text("q^3 - 2q + 1", 3) == 22
    assert check.eval_qpoly_text("-q^2 + q - 5", 2) == -7
    assert check.eval_qpoly_text("0", 7) == 0


# -- end to end -----------------------------------------------------------------


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_a_correct_result(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "series-identities",
         "--smoke", "--trace", trace],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = set(run.END_TO_END_UNITS) if trace == "0" else {"cli.main.calls", "trace_overhead_frac"}
    assert expected <= set(result["metrics"])


def test_run_without_sources_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "linear-scan", "--smoke"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
