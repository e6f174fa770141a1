"""Command-line frontend: counts, tables, identity verification, censuses, series.

All subcommands build their entire output in memory and write it in one call,
so output is deterministic byte-for-byte and never partial on error.

One table, ``_COMMANDS``, gives each subcommand's help string, argument adder
and handler.  A run whose first argument names a subcommand builds that
subcommand's parser alone; ``-h``, a missing, unknown or abbreviated command,
an option before the command and any argument left over go through the full
parser, so usage, help and error texts are the same either way.

Exit codes: 0 success/agreement, 2 invalid arguments, 3 count or identity
disagreement, 4 enumeration-bound refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .census import CensusKind, EnumerationBoundError, census_count
from .closedform import Family, GroupSpec, rs_count
from .genfun import (
    Identity,
    admissible_parity,
    check_admissible,
    gf_count,
    symbolic_count_polynomials,
    verify_identity,
)
from .numbertheory import as_prime_power
from .oracle import oracle_count

#: JSON schema version stamped on every JSON object this tool prints.
SCHEMA = 1

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_DISAGREE = 3
_EXIT_BOUND = 4


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``rscount`` parser with every subcommand, or with ``command``'s alone.

    A subcommand's usage, help and error texts do not depend on its siblings,
    so the narrow parser prints them as the full one does.
    """
    parser = argparse.ArgumentParser(
        prog="rscount",
        description=(
            "Count regular semisimple conjugacy classes in finite classical "
            "groups by closed formula, generating-function coefficient "
            "extraction, and brute-force enumeration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = _COMMANDS if command is None else [command]
    for name in names:
        help_text, add_arguments, _ = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _count_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", required=True, choices=[f.value for f in Family])
    p.add_argument(
        "--n", required=True, type=int,
        help="rank parameter n (matrix size 2n for sp, ambient dimension 2n or 2n+1 for the so families)",
    )
    p.add_argument("--q", required=True, type=int)
    p.add_argument(
        "--method", default="formula", choices=["formula", "genfun", "oracle", "all"]
    )


def _table_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", required=True, choices=[f.value for f in Family])
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--n-max", required=True, type=int, dest="n_max")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument(
        "--with-oracle",
        action="store_true",
        help="add enumeration counts and an agreement column (cells beyond the "
        "enumeration bound are left empty)",
    )


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--identity",
        required=True,
        choices=[i.value for i in Identity] + ["all"],
        help="identity token, or 'all' to run every identity admissible at q",
    )
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--terms", default=10, type=int)


def _census_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=[k.value for k in CensusKind])
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--d-max", required=True, type=int, dest="d_max")
    p.add_argument("--method", default="formula", choices=["formula", "enumerate"])


def _series_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--terms", required=True, type=int, help="largest rank to print")
    p.add_argument(
        "--char",
        choices=["odd", "even"],
        help="field-size parity (required for sl, su, sp, and the so families)",
    )


def _warn_composite_q(q: int) -> None:
    if q >= 2 and as_prime_power(q) is None:
        print(
            f"warning: q={q} is not a prime power; formula values are polynomial "
            "extrapolations, not group counts",
            file=sys.stderr,
        )


def _cmd_count(args) -> tuple[int, str]:
    family = Family.from_token(args.group)
    spec = GroupSpec(family, args.n, args.q)
    _warn_composite_q(args.q)
    base = {"schema": SCHEMA, "group": family.token, "n": args.n, "q": args.q}
    if args.method == "all":
        formula = rs_count(spec)
        genfun = gf_count(spec)
        oracle = oracle_count(spec)
        agree = formula == genfun == oracle.count
        payload = dict(
            base,
            method="all",
            counts={"formula": formula, "genfun": genfun, "oracle": oracle.count},
            enumerated=oracle.witness_count,
            agree=agree,
        )
        return (
            _EXIT_OK if agree else _EXIT_DISAGREE,
            json.dumps(payload) + "\n",
        )
    if args.method == "formula":
        payload = dict(base, method="formula", count=rs_count(spec))
    elif args.method == "genfun":
        payload = dict(base, method="genfun", count=gf_count(spec))
    else:
        result = oracle_count(spec)
        payload = dict(
            base, method="oracle", count=result.count, enumerated=result.witness_count
        )
    return _EXIT_OK, json.dumps(payload) + "\n"


def _cmd_table(args) -> tuple[int, str]:
    family = Family.from_token(args.group)
    if args.n_max < 1:
        raise ValueError("--n-max must be >= 1")
    _warn_composite_q(args.q)
    rows = []
    for n in range(1, args.n_max + 1):
        spec = GroupSpec(family, n, args.q)
        row: dict = {"n": n, "count": rs_count(spec)}
        if args.with_oracle:
            try:
                result = oracle_count(spec)
                row["oracle"] = result.count
                row["agree"] = result.count == row["count"]
            except EnumerationBoundError:
                row["oracle"] = None
                row["agree"] = None
        rows.append(row)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "group": family.token,
            "q": args.q,
            "rows": rows,
        }
        return _EXIT_OK, json.dumps(payload) + "\n"
    header = "n,count,oracle,agree" if args.with_oracle else "n,count"
    lines = [header]
    for row in rows:
        if args.with_oracle:
            oracle = "" if row["oracle"] is None else str(row["oracle"])
            agree = "" if row["agree"] is None else str(row["agree"]).lower()
            lines.append(f"{row['n']},{row['count']},{oracle},{agree}")
        else:
            lines.append(f"{row['n']},{row['count']}")
    return _EXIT_OK, "\n".join(lines) + "\n"


def _cmd_verify(args) -> tuple[int, str]:
    if args.terms < 1:
        raise ValueError("--terms must be >= 1")
    _warn_composite_q(args.q)
    if args.identity != "all":
        report = verify_identity(Identity.from_token(args.identity), args.q, args.terms)
        payload = {"schema": SCHEMA, **report.to_json()}
        return (
            _EXIT_OK if report.passed else _EXIT_DISAGREE,
            json.dumps(payload) + "\n",
        )
    reports = []
    skipped = []
    all_pass = True
    for identity in Identity:
        try:
            check_admissible(identity, args.q)
        except ValueError:
            skipped.append(
                {
                    "identity": identity.token,
                    "note": f"stated for {admissible_parity(identity)} field sizes only",
                }
            )
            continue
        report = verify_identity(identity, args.q, args.terms)
        all_pass = all_pass and report.passed
        reports.append(report.to_json())
    payload = {
        "schema": SCHEMA,
        "q": args.q,
        "terms": args.terms,
        "reports": reports,
        "skipped": skipped,
    }
    return (_EXIT_OK if all_pass else _EXIT_DISAGREE), json.dumps(payload) + "\n"


def _cmd_census(args) -> tuple[int, str]:
    kind = CensusKind.from_token(args.kind)
    if args.d_max < 1:
        raise ValueError("--d-max must be >= 1")
    if as_prime_power(args.q) is None:
        raise ValueError(f"census requires a prime-power field size, got q={args.q}")
    lines = ["kind,q,d,count"]
    for d in range(1, args.d_max + 1):
        cell = census_count(kind, args.q, d, method=args.method)
        lines.append(f"{kind.value},{args.q},{d},{cell.count}")
    return _EXIT_OK, "\n".join(lines) + "\n"


def _cmd_series(args) -> tuple[int, str]:
    family = Family.from_token(args.family)
    if args.terms < 1:
        raise ValueError("--terms must be >= 1")
    if family.parity_dependent and args.char is None:
        raise ValueError(
            f"family {family.token} needs --char odd|even (its polynomial "
            "depends on the field-size parity)"
        )
    polys = symbolic_count_polynomials(family, args.terms, q_odd=args.char == "odd")
    lines = [f"{n}: {polys[n]}" for n in range(1, args.terms + 1)]
    return _EXIT_OK, "\n".join(lines) + "\n"


#: Each command's help string, argument adder and handler, in help order.
_COMMANDS = {
    "count": ("count classes for one group", _count_arguments, _cmd_count),
    "table": ("counts for ranks 1..n-max", _table_arguments, _cmd_table),
    "verify": ("expand and compare series identities", _verify_arguments, _cmd_verify),
    "census": ("irreducible-polynomial census table", _census_arguments, _cmd_census),
    "series": (
        "counts as integer polynomials in the field size", _series_arguments, _cmd_series
    ),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A run that names its command first builds that command's parser alone.
    # Anything left over is parsed again by the full parser, so that the
    # "unrecognized arguments" error shows the usage with every command.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args, extras = build_parser(command).parse_known_args(argv)
    if extras:
        args = build_parser().parse_args(argv)
    try:
        code, text = _COMMANDS[args.command][2](args)
    except EnumerationBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BOUND
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    sys.stdout.write(text)
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
