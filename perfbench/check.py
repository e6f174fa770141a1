"""Output checker: each op's stdout against a route the op did not print.

Checks run in the parent process, outside every timed region, with ``src/``
on the path:

* ``count --method all`` must report ``agree: true`` and three counts equal
  to the closed formula; ``count --method genfun`` must equal the formula;
* ``verify`` must report ``pass: true`` with equal coefficient lists;
* ``series`` polynomials, evaluated at two prime powers of the stated
  parity, must equal the formula at every rank;
* ``table`` rows (formula route) must equal the series coefficient;
* ``census --method enumerate`` rows must equal the formula census.
"""

from __future__ import annotations

import json
import re

from rscount.census import CensusKind, census_count
from rscount.closedform import Family, GroupSpec, rs_count
from rscount.genfun import gf_count

#: Field sizes at which ``series`` polynomials are evaluated, by --char.
_EVAL_POINTS = {"odd": (3, 5), "even": (2, 4), None: (3, 4)}

_TERM = re.compile(r"(-?)(\d*)(q(?:\^(\d+))?)?")


def eval_qpoly_text(text: str, q: int) -> int:
    """Evaluate a polynomial printed like ``q^3 - 2q + 1`` at q."""
    total = 0
    for term in text.replace("- ", "-").replace("+ ", "").split():
        match = _TERM.fullmatch(term)
        if match is None or not (match.group(2) or match.group(3)):
            raise ValueError(f"unparsable polynomial term {term!r}")
        sign, digits, var, power = match.groups()
        value = int(digits) if digits else 1
        if var:
            value *= q ** (int(power) if power else 1)
        total += -value if sign else value
    return total


def _spec(options: dict, family_key: str = "--group") -> GroupSpec:
    return GroupSpec(Family.from_token(options[family_key]), int(options["--n"]), int(options["--q"]))


def _csv_rows(stdout: str, header: str) -> list[list[str]]:
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def _check_count(options: dict, stdout: str) -> str | None:
    spec = _spec(options)
    expected = rs_count(spec)
    payload = json.loads(stdout)
    if options["--method"] == "all":
        if payload.get("agree") is not True:
            return f"agree is {payload.get('agree')!r}"
        counts = payload["counts"]
        if counts != {"formula": expected, "genfun": expected, "oracle": expected}:
            return f"counts {counts} != formula {expected}"
        return None
    if payload["count"] != expected:
        return f"count {payload['count']} != formula {expected}"
    return None


def _check_verify(options: dict, stdout: str) -> str | None:
    payload = json.loads(stdout)
    terms = int(options["--terms"])
    if payload.get("pass") is not True:
        return f"pass is {payload.get('pass')!r}"
    if payload["lhs_coeffs"] != payload["rhs_coeffs"] or len(payload["lhs_coeffs"]) != terms + 1:
        return "coefficient lists differ or have the wrong length"
    return None


def _check_series(options: dict, stdout: str) -> str | None:
    family = Family.from_token(options["--family"])
    lines = stdout.splitlines()
    terms = int(options["--terms"])
    if [line.split(":")[0] for line in lines] != [str(n) for n in range(1, terms + 1)]:
        return "ranks missing or out of order"
    for n, line in enumerate(lines, start=1):
        poly = line.split(": ", 1)[1]
        for q in _EVAL_POINTS[options.get("--char")]:
            value, expected = eval_qpoly_text(poly, q), rs_count(GroupSpec(family, n, q))
            if value != expected:
                return f"rank {n} at q={q}: polynomial gives {value}, formula {expected}"
    return None


def _check_table(options: dict, stdout: str) -> str | None:
    family = Family.from_token(options["--group"])
    q, n_max = int(options["--q"]), int(options["--n-max"])
    rows = _csv_rows(stdout, "n,count")
    if [int(row[0]) for row in rows] != list(range(1, n_max + 1)):
        return "ranks missing or out of order"
    for n, count in rows:
        expected = gf_count(GroupSpec(family, int(n), q))
        if int(count) != expected:
            return f"rank {n}: table {count} != series {expected}"
    return None


def _check_census(options: dict, stdout: str) -> str | None:
    kind = CensusKind.from_token(options["--kind"])
    q, d_max = int(options["--q"]), int(options["--d-max"])
    rows = _csv_rows(stdout, "kind,q,d,count")
    if [(row[0], int(row[1]), int(row[2])) for row in rows] != [
        (kind.value, q, d) for d in range(1, d_max + 1)
    ]:
        return "cells missing or out of order"
    for _, _, d, count in rows:
        expected = census_count(kind, q, int(d), method="formula").count
        if int(count) != expected:
            return f"degree {d}: enumerated {count} != formula {expected}"
    return None


_CHECKS = {
    "count": _check_count,
    "verify": _check_verify,
    "series": _check_series,
    "table": _check_table,
    "census": _check_census,
}


def check_op(argv: list[str], code, stdout: str) -> str | None:
    """None if the op's output is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    options = dict(zip(argv[1::2], argv[2::2]))
    try:
        return _CHECKS[argv[0]](options, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return f"malformed output: {exc!r}"
