"""End-to-end tests of the command-line interface."""

import itertools
import json
import os
import re
import shlex
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


@pytest.mark.parametrize("n", ["1", "2"])
def test_count_oracle_names_a_q_that_is_not_a_prime_power(capsys, n):
    # SU(1, 6) fixes its constant term in GF(q^2); the error still names q.
    code, out, err = run_cli(
        capsys, "count", "--group", "su", "--n", n, "--q", "6", "--method", "oracle"
    )
    assert code == 2
    assert out == ""
    assert err == "error: q=6 is not a prime power\n"


def test_count_oracle_refuses_beyond_bound(capsys, monkeypatch):
    monkeypatch.setenv("RSCOUNT_ENUM_CAP", "100")
    code, out, err = run_cli(
        capsys, "count", "--group", "gl", "--n", "9", "--q", "2", "--method", "oracle"
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("raw, message", [
    ("abc", "RSCOUNT_ENUM_CAP must be an integer, got 'abc'"),
    ("0", "RSCOUNT_ENUM_CAP must be positive, got 0"),
    ("-3", "RSCOUNT_ENUM_CAP must be positive, got -3"),
])
def test_bad_enumeration_cap_is_a_usage_error(capsys, monkeypatch, raw, message):
    monkeypatch.setenv("RSCOUNT_ENUM_CAP", raw)
    for argv in (
        ("count", "--group", "gl", "--n", "2", "--q", "3", "--method", "oracle"),
        ("census", "--kind", "irreducible", "--q", "2", "--d-max", "3", "--method", "enumerate"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


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


def test_verify_names_a_q_that_is_not_a_prime_power(capsys):
    # verify never succeeds at a composite q, so it prints no warning.
    code, out, err = run_cli(capsys, "verify", "--identity", "gl-product", "--q", "6")
    assert code == 2
    assert out == ""
    assert err == "error: q=6 is not a prime power\n"


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


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    """Every ```python block of README.md runs, so that the documentation
    cannot name a function or argument the package no longer has."""
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def _readme_examples():
    """(environment, argv, shown text) of each ``$ rscount ...`` line in the
    README's sh blocks.  The shown text is every line below the command, up
    to the next ``$`` line or the end of the block; leading ``NAME=value``
    words set the environment."""
    text = README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M)[1:]:
            command, _, shown = chunk.partition("\n")
            words = shlex.split(command[2:])
            env = dict(w.split("=", 1) for w in itertools.takewhile(lambda w: "=" in w, words))
            examples.append((env, words[len(env):], shown))
    return examples


def test_readme_examples_print_what_the_readme_shows(capsys, monkeypatch):
    examples = _readme_examples()
    assert len(examples) == 6
    for env, argv, shown in examples:
        assert argv[0] == "rscount", argv
        with monkeypatch.context() as patch:
            patch.delenv("RSCOUNT_ENUM_CAP", raising=False)
            for name, value in env.items():
                patch.setenv(name, value)
            main(argv[1:])
        captured = capsys.readouterr()
        assert captured.out + captured.err == shown, argv


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
    """Also after ``main``'s cached parsers were used for a rejected argv and
    for ``-h`` at another help width: reuse leaves no state behind."""
    monkeypatch.setenv("COLUMNS", "200")
    _outcome(capsys, main, argv[:1] + ["--bogus"])
    _outcome(capsys, main, ["-h"])
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
    interpreter, by wrapping ``argparse.ArgumentParser.__init__``; ``-h``
    builds the full parser, one parser plus one per command, which shows that
    the counter is live.  A second run of a command, or of ``-h``, builds
    nothing: ``main`` keeps one parser per command and the full one, while
    ``build_parser`` returns a new parser on every call."""
    assert cli.build_parser("count") is not cli.build_parser("count")
    assert cli.build_parser("count").prog == "rscount count"
    assert cli._parser.cache_info().maxsize == len(cli._COMMANDS) + 1
    script = textwrap.dedent(
        """
        import argparse, contextlib, io, json, sys
        sys.path.insert(0, sys.argv[1])
        before = set(sys.modules)
        import rscount.cli as cli
        loaded = sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))
        calls = [0]
        init = argparse.ArgumentParser.__init__
        def counted(self, *args, **kwargs):
            calls[0] += 1
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counted
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
        _COUNT,
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
    assert out["runs"] == [[0, 1]] * 5 + [[0, 1 + len(cli._COMMANDS)]] + [[0, 0]] * 2


def test_fields_above_the_table_limit_scan_in_seconds():
    """The oracle over a field above TABLE_LIMIT reads its log arrays, not
    digit arithmetic: SO+(2, 2^16) and U(1, 256), whose unitary scan runs
    over GF(2^16), agree three ways in a fresh process well inside the
    timeout (digit arithmetic took about 144 s and 4.6 s)."""
    script = textwrap.dedent(
        """
        from rscount.cli import main
        for group, q in (("so+", "65536"), ("u", "256")):
            main(["count", "--group", group, "--n", "1", "--q", q, "--method", "all"])
        """
    )
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.pop("RSCOUNT_ENUM_CAP", None)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert [(row["group"], row["q"], row["agree"]) for row in rows] == [
        ("so+", 65536, True), ("u", 256, True),
    ]
    assert [row["counts"] for row in rows] == [
        dict.fromkeys(("formula", "genfun", "oracle"), count) for count in (65535, 257)
    ]


def test_scans_with_no_product_build_no_log_arrays():
    """A field above TABLE_LIMIT builds its log arrays on first use, and
    GL(1, q) and SL(1, q) make no product: over GF(3^6) and GF(2^9), in a
    fresh process, only the tables of the prime fields are built."""
    script = textwrap.dedent(
        """
        import contextlib, io, json
        import rscount.fields as fields
        from rscount.cli import main
        built, build = [], fields._field_logs
        fields._field_logs = lambda field: built.append(field.q) or build(field)
        with contextlib.redirect_stdout(io.StringIO()):
            for group in ("gl", "sl"):
                for q in ("729", "512"):
                    main(["count", "--group", group, "--n", "1", "--q", q, "--method", "all"])
        print(json.dumps(built))
        """
    )
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert sorted(json.loads(result.stdout)) == [2, 3]


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
