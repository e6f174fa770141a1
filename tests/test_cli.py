"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rscount.cli as cli
from rscount.census import census_count, CensusKind, EnumerationBoundError
from rscount.genfun import VerificationReport
from rscount.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_formula(capsys):
    code, out, err = run_cli(capsys, "count", "--group", "gl", "--n", "4", "--q", "2")
    assert code == 0
    assert out == '{"schema": 1, "group": "gl", "n": 4, "q": 2, "method": "formula", "count": 5}\n'
    assert err == ""


def test_count_genfun(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--group", "su", "--n", "4", "--q", "3", "--method", "genfun"
    )
    assert code == 0
    assert out == '{"schema": 1, "group": "su", "n": 4, "q": 3, "method": "genfun", "count": 17}\n'


def test_count_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--group", "gl", "--n", "3", "--q", "2", "--method", "oracle"
    )
    assert code == 0
    assert out == (
        '{"schema": 1, "group": "gl", "n": 3, "q": 2, "method": "oracle", '
        '"count": 3, "enumerated": 3}\n'
    )


def test_count_all_agreement(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--group", "sl", "--n", "2", "--q", "3", "--method", "all"
    )
    assert code == 0
    assert out == (
        '{"schema": 1, "group": "sl", "n": 2, "q": 3, "method": "all", '
        '"counts": {"formula": 1, "genfun": 1, "oracle": 1}, '
        '"enumerated": 4, "agree": true}\n'
    )


def test_count_all_disagreement_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gf_count", lambda spec: 999)
    code, out, _ = run_cli(
        capsys, "count", "--group", "gl", "--n", "2", "--q", "2", "--method", "all"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["agree"] is False
    assert payload["counts"]["genfun"] == 999


def test_count_composite_q_warns(capsys):
    code, out, err = run_cli(capsys, "count", "--group", "gl", "--n", "2", "--q", "6")
    assert code == 0
    assert json.loads(out)["count"] == 25
    assert "not a prime power" in err


def test_count_invalid_rank(capsys):
    code, out, err = run_cli(capsys, "count", "--group", "gl", "--n", "0", "--q", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_count_oracle_refuses_beyond_bound(capsys, monkeypatch):
    monkeypatch.setenv("RSCOUNT_ENUM_CAP", "100")
    code, out, err = run_cli(
        capsys, "count", "--group", "gl", "--n", "9", "--q", "2", "--method", "oracle"
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "gl", "--q", "2", "--n-max", "4")
    assert code == 0
    assert out == "n,count\n1,1\n2,1\n3,3\n4,5\n"


def test_table_minus_type_even_char(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "so-", "--q", "2", "--n-max", "3")
    assert code == 0
    assert out == "n,count\n1,3\n2,3\n3,3\n"


def test_table_with_oracle_csv(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--group", "sp", "--q", "3", "--n-max", "3", "--with-oracle"
    )
    assert code == 0
    assert out == "n,count,oracle,agree\n1,1,1,true\n2,3,3,true\n3,11,11,true\n"


def test_table_with_oracle_leaves_unreachable_cells_empty(capsys, monkeypatch):
    monkeypatch.setenv("RSCOUNT_ENUM_CAP", "100")
    code, out, _ = run_cli(
        capsys, "table", "--group", "gl", "--q", "2", "--n-max", "8", "--with-oracle"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,count,oracle,agree"
    assert lines[6] == "6,21,21,true"
    assert lines[7] == "7,43,,"
    assert lines[8] == "8,85,,"


def test_table_json(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--group", "u", "--q", "2", "--n-max", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "schema": 1,
        "group": "u",
        "q": 2,
        "rows": [
            {"n": 1, "count": 3},
            {"n": 2, "count": 3},
            {"n": 3, "count": 3},
        ],
    }


def test_table_json_with_oracle_null_cells(capsys, monkeypatch):
    monkeypatch.setenv("RSCOUNT_ENUM_CAP", "100")
    code, out, _ = run_cli(
        capsys,
        "table", "--group", "gl", "--q", "2", "--n-max", "8",
        "--format", "json", "--with-oracle",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[5] == {"n": 6, "count": 21, "oracle": 21, "agree": True}
    assert rows[7] == {"n": 8, "count": 85, "oracle": None, "agree": None}


def test_table_rejects_bad_n_max(capsys):
    code, _, err = run_cli(capsys, "table", "--group", "gl", "--q", "2", "--n-max", "0")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_identity(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "gl-product", "--q", "2", "--terms", "2"
    )
    assert code == 0
    assert out == (
        '{"schema": 1, "identity": "gl-product", "q": 2, "terms": 2, "pass": true, '
        '"first_mismatch": null, "lhs_coeffs": [1, -1, 0], "rhs_coeffs": [1, -1, 0]}\n'
    )


def test_verify_default_terms(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "symplectic-product", "--q", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == 10
    assert payload["pass"] is True
    assert len(payload["lhs_coeffs"]) == 11


def test_verify_parity_mismatch(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--identity", "signed-product-odd", "--q", "2"
    )
    assert code == 2
    assert out == ""
    assert "identity signed-product-odd requires odd field size, got q=2" in err


def test_verify_all_odd_q(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "all", "--q", "3", "--terms", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["q"] == 3
    assert len(payload["reports"]) == 9
    assert all(report["pass"] for report in payload["reports"])
    skipped = {item["identity"]: item["note"] for item in payload["skipped"]}
    assert skipped == {
        "signed-product-even": "stated for even field sizes only",
        "so-plus-even": "stated for even field sizes only",
        "so-minus-even": "stated for even field sizes only",
    }


def test_verify_all_even_q(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "all", "--q", "2", "--terms", "6")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 6
    assert len(payload["skipped"]) == 6
    assert all(note["note"] == "stated for odd field sizes only" for note in payload["skipped"])


def test_verify_disagreement_exit_code(capsys, monkeypatch):
    fake = VerificationReport(
        identity="gl-product",
        q=2,
        terms=3,
        passed=False,
        first_mismatch=1,
        lhs_coeffs=(1, 0, 0, 0),
        rhs_coeffs=(1, 1, 0, 0),
    )
    monkeypatch.setattr(cli, "verify_identity", lambda identity, q, terms: fake)
    code, out, _ = run_cli(capsys, "verify", "--identity", "gl-product", "--q", "2")
    assert code == 3
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["first_mismatch"] == 1


def test_verify_rejects_bad_terms(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--identity", "gl-product", "--q", "2", "--terms", "0"
    )
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def test_census_csv(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--kind", "irreducible", "--q", "2", "--d-max", "4"
    )
    assert code == 0
    assert out == (
        "kind,q,d,count\n"
        "irreducible,2,1,1\n"
        "irreducible,2,2,1\n"
        "irreducible,2,3,2\n"
        "irreducible,2,4,3\n"
    )


def test_census_self_reciprocal_csv(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--kind", "self-reciprocal", "--q", "3", "--d-max", "4"
    )
    assert code == 0
    assert out == (
        "kind,q,d,count\n"
        "self-reciprocal,3,1,2\n"
        "self-reciprocal,3,2,1\n"
        "self-reciprocal,3,3,0\n"
        "self-reciprocal,3,4,2\n"
    )


def test_census_methods_agree(capsys):
    for method in ("formula", "enumerate"):
        code, out, _ = run_cli(
            capsys,
            "census", "--kind", "hermitian-self-reciprocal",
            "--q", "2", "--d-max", "3", "--method", method,
        )
        assert code == 0
        lines = out.splitlines()
        for d in (1, 2, 3):
            expected = census_count(CensusKind.HERMITIAN_SELF_RECIPROCAL, 2, d).count
            assert lines[d] == f"hermitian-self-reciprocal,2,{d},{expected}"


def test_census_requires_prime_power(capsys):
    code, _, err = run_cli(
        capsys, "census", "--kind", "irreducible", "--q", "6", "--d-max", "2"
    )
    assert code == 2
    assert "prime-power" in err


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_series_gl(capsys):
    code, out, _ = run_cli(capsys, "series", "--family", "gl", "--terms", "3")
    assert code == 0
    assert out == "1: q - 1\n2: q^2 - 2q + 1\n3: q^3 - 2q^2 + 2q - 1\n"


def test_series_sl_needs_char(capsys):
    code, _, err = run_cli(capsys, "series", "--family", "sl", "--terms", "2")
    assert code == 2
    assert "--char" in err


def test_series_sl_both_parities(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--family", "sl", "--terms", "2", "--char", "odd"
    )
    assert code == 0
    assert out == "1: 1\n2: q - 2\n"
    code, out, _ = run_cli(
        capsys, "series", "--family", "sl", "--terms", "2", "--char", "even"
    )
    assert code == 0
    assert out == "1: 1\n2: q - 1\n"


def test_series_sp_odd_char(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--family", "sp", "--terms", "2", "--char", "odd"
    )
    assert code == 0
    assert out == "1: q - 2\n2: q^2 - 3q + 3\n"


def test_series_unitary_no_char_needed(capsys):
    code, out, _ = run_cli(capsys, "series", "--family", "u", "--terms", "2")
    assert code == 0
    assert out == "1: q + 1\n2: q^2 - 1\n"


def test_series_minus_type_even_char(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--family", "so-", "--terms", "3", "--char", "even"
    )
    assert code == 0
    assert out == "1: q + 1\n2: q^2 - 1\n3: q^3 - q^2 - q + 1\n"


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_unknown_group_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["count", "--group", "nope", "--n", "1", "--q", "2"])
    assert excinfo.value.code == 2


_COUNT = ["count", "--group", "gl", "--n", "2", "--q", "3"]

# Help, usage errors, parse errors and runs, each of which main must print
# exactly as the full parser would.
_PINNED_ARGVS = [
    ["-h"],
    ["--help"],
    ["count", "-h"],
    ["table", "-h"],
    ["verify", "--help"],
    ["census", "-h"],
    ["series", "-h"],
    [],
    ["bogus"],
    ["cou"],
    ["--bogus", "count"],
    ["-h", "count"],
    ["count"],
    ["table"],
    ["verify"],
    ["census"],
    ["series"],
    ["count", "--group", "gl"],
    ["count", "--group", "nope", "--n", "1", "--q", "2"],
    _COUNT + ["--method", "nope"],
    ["table", "--group", "gl", "--q", "2", "--n-max", "2", "--format", "xml"],
    ["verify", "--identity", "nope", "--q", "3"],
    ["census", "--kind", "nope", "--q", "2", "--d-max", "2"],
    ["series", "--family", "gl", "--terms", "2", "--char", "nope"],
    ["count", "--group", "gl", "--n", "x", "--q", "2"],
    ["verify", "--identity", "gl-product", "--q", "3", "--terms", "1.5"],
    _COUNT + ["--bogus"],
    ["series", "--family", "gl", "--terms", "2", "--bogus", "1"],
    _COUNT + ["extra"],
    _COUNT + ["table"],
    _COUNT + ["--"],
    _COUNT + ["-h"],
    ["count", "--gr", "gl", "--n=2", "--q=3"],
    ["count", "--group", "sl", "--n", "2", "--q", "3", "--method", "all"],
    ["count", "--group", "gl", "--n", "0", "--q", "2"],
    ["table", "--group", "sp", "--q", "3", "--n-max", "2", "--with-oracle"],
    ["verify", "--identity", "all", "--q", "3", "--terms", "3"],
    ["census", "--kind", "irreducible", "--q", "2", "--d-max", "3"],
    ["census", "--kind", "irreducible", "--q", "6", "--d-max", "3"],
    ["series", "--family", "sl", "--terms", "2", "--char", "odd"],
    ["series", "--family", "sl", "--terms", "2"],
]


def _main_with_full_parser(argv):
    """``main`` with every argv parsed by the parser of all five commands."""
    args = cli.build_parser().parse_args(argv)
    try:
        code, text = cli._COMMANDS[args.command][2](args)
    except EnumerationBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def _outcome(capsys, run, argv):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["50", "120"])
@pytest.mark.parametrize("argv", _PINNED_ARGVS, ids=" ".join)
def test_main_prints_what_the_full_parser_prints(capsys, monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    expected = _outcome(capsys, _main_with_full_parser, list(argv))
    assert _outcome(capsys, main, list(argv)) == expected
    assert _outcome(capsys, main, tuple(argv)) == expected


@pytest.mark.parametrize("argv", [_COUNT, ["table", "--group", "gl", "--q", "2", "--n-max", "2", "x"]])
def test_main_reads_sys_argv_by_default(capsys, monkeypatch, argv):
    expected = _outcome(capsys, main, list(argv))
    monkeypatch.setattr(sys, "argv", ["rscount"] + argv)
    assert _outcome(capsys, lambda _: main(), None) == expected


def test_import_and_parse_do_only_the_needed_work():
    """``import rscount.cli`` loads neither dataclasses nor inspect, and a run
    builds the parser of its own command alone.  Counted in a fresh isolated
    interpreter, by wrapping argparse's ``add_parser``; ``-h`` builds all five,
    which shows that the counter is live."""
    script = textwrap.dedent(
        """
        import argparse, contextlib, io, json, sys
        sys.path.insert(0, sys.argv[1])
        before = set(sys.modules)
        import rscount.cli as cli
        loaded = sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))
        calls = [0]
        add_parser = argparse._SubParsersAction.add_parser
        def counted(self, *args, **kwargs):
            calls[0] += 1
            return add_parser(self, *args, **kwargs)
        argparse._SubParsersAction.add_parser = counted
        runs = []
        for argv in json.loads(sys.argv[2]):
            calls[0] = 0
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            runs.append([code, calls[0]])
        print(json.dumps({"loaded": loaded, "runs": runs}))
        """
    )
    argvs = [
        _COUNT,
        ["table", "--group", "gl", "--q", "2", "--n-max", "2"],
        ["verify", "--identity", "gl-product", "--q", "2", "--terms", "2"],
        ["census", "--kind", "irreducible", "--q", "2", "--d-max", "2"],
        ["series", "--family", "gl", "--terms", "2"],
        ["-h"],
    ]
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("RSCOUNT_ENUM_CAP", None)
    result = subprocess.run(
        [sys.executable, "-I", "-c", script, package_root, json.dumps(argvs)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["loaded"] == []
    assert out["runs"] == [[0, 1]] * 5 + [[0, 5]]


def test_console_script_smoke():
    """The ``__main__`` block: ``python -m rscount.cli`` in a fresh process."""
    result = subprocess.run(
        [sys.executable, "-m", "rscount.cli", "count", "--group", "sp", "--n", "2", "--q", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["count"] == 3


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The body of the wrapper script pip generates for a `[project.scripts]` entry.
_WRAPPER = "import sys\nfrom {module} import {attr}\nsys.argv[0] = 'rscount'\nsys.exit({attr}())\n"


def _declared_console_script(name):
    """The ``module:attr`` target that ``[project.scripts]`` in pyproject.toml gives ``name``."""
    text = PYPROJECT.read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one flat table by hand
        scripts, in_table = {}, False
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("["):
                in_table = line == "[project.scripts]"
            elif in_table and "=" in line:
                key, _, value = line.partition("=")
                scripts[key.strip().strip('"')] = value.strip().strip('"')
        return scripts[name]
    return tomllib.loads(text)["project"]["scripts"][name]


def test_installed_entry_point_smoke():
    """The ``[project.scripts]`` target, run the way the installed ``rscount`` wrapper runs it.

    The target is read from pyproject.toml, so no install step and no
    ``rscount`` on ``PATH`` is needed; a renamed or missing target fails here.
    """
    module, _, attr = _declared_console_script("rscount").partition(":")
    wrapper = _WRAPPER.format(module=module, attr=attr)

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-c", wrapper, *argv], capture_output=True, text=True
        )

    result = run("table", "--group", "so+", "--q", "3", "--n-max", "2")
    assert result.returncode == 0
    assert result.stdout == "n,count\n1,2\n2,6\n"
    assert result.stderr == ""
    # The wrapper turns main's return value into the exit status: 2 is bad input.
    assert run("count", "--group", "gl", "--n", "0", "--q", "2").returncode == 2
