"""The benchmark's workloads: fixed grids of ``rscount`` CLI invocations.

Each op is one argv list for ``rscount.cli.main``.  A workload is a fixed
grid; the seed only permutes the order of its ops, which changes which op
pays for work the program caches and shares (a GL/SL pair shares one
histogram, SO+/SO- cells share one census scan), never the total work.
Every op on every grid runs under the default enumeration cap.
"""

from __future__ import annotations

import random

# Family and identity tokens are spelled out here, not read from rscount, so
# that the inputs stay the same when the program changes.
FAMILIES = ("gl", "sl", "u", "su", "sp", "so-odd", "so+", "so-")
#: Families whose ``series`` polynomial depends on the parity of q.
PARITY_FAMILIES = ("sl", "su", "sp", "so-odd", "so+", "so-")

_IDENTITY_PARITY = {
    "gl-product": "both",
    "unitary-product": "both",
    "symplectic-product": "both",
    "signed-product-odd": "odd",
    "signed-product-even": "even",
    "so-combined-odd": "odd",
    "so-diff-odd": "odd",
    "so-plus-even": "even",
    "so-minus-even": "even",
    "so-odd-dim-series": "odd",
    "so-plus-series": "odd",
    "so-minus-series": "odd",
}


def _count_all(group: str, n: int, q: int) -> list[str]:
    return ["count", "--group", group, "--n", str(n), "--q", str(q), "--method", "all"]


def linear_scan() -> list[list[str]]:
    """Squarefree scans: the three-way GL/SL, U/SU and Sp cells of criterion 1,
    with the GL/SL candidate space capped at 10^5."""
    ops = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 7):
            if q**n <= 10**5:
                ops += [_count_all("gl", n, q), _count_all("sl", n, q)]
    for q, n_max in ((2, 11), (3, 7), (4, 5)):
        for n in range(1, n_max + 1):
            ops += [_count_all("u", n, q), _count_all("su", n, q)]
    # Sp(12, 5) is left out: the scan walks 5^6 candidates but is checked
    # against the cap as 5^12, so it is refused.
    for q, n_max in ((2, 11), (3, 7), (4, 5), (5, 5)):
        for n in range(1, n_max + 1):
            ops.append(_count_all("sp", n, q))
    return ops


def orthogonal_scan() -> list[list[str]]:
    """Census enumeration and irreducibility tests: the orthogonal cells of
    criterion 1 without SO+-(10, 7), larger fields at small rank, and four
    enumerated censuses."""
    ops = []
    for q in (3, 5, 7):
        for m in range(3, 11, 2):
            ops.append(_count_all("so-odd", (m - 1) // 2, q))
        for m in range(2, 11, 2):
            if (m, q) != (10, 7):  # 5.3 s alone: it would dominate the workload
                ops += [_count_all("so+", m // 2, q), _count_all("so-", m // 2, q)]
    for q, m_max in ((2, 12), (4, 8)):
        for m in range(3, m_max + 1, 2):
            ops.append(_count_all("so-odd", (m - 1) // 2, q))
        for m in range(2, m_max + 1, 2):
            ops += [_count_all("so+", m // 2, q), _count_all("so-", m // 2, q)]
    for q in (8, 9, 11, 13):
        for n in (1, 2):
            ops.append(_count_all("so-odd", n, q))
        for n in (1, 2, 3):
            ops += [_count_all("so+", n, q), _count_all("so-", n, q)]
    for kind, q, d_max in (
        ("irreducible", 7, 5),
        ("reciprocal-pairs", 4, 7),
        ("hermitian-self-reciprocal", 3, 5),
        ("hermitian-pairs", 2, 6),
    ):
        ops.append(
            ["census", "--kind", kind, "--q", str(q), "--d-max", str(d_max),
             "--method", "enumerate"]
        )
    return ops


def series_identities() -> list[list[str]]:
    """Series arithmetic only: identity checks, genfun counts, symbolic
    polynomials and formula tables; nothing is enumerated."""
    qs = (2, 3, 4, 5, 7, 8, 9, 11)
    ops = []
    for q in qs:
        for identity, parity in _IDENTITY_PARITY.items():
            if parity == "both" or (parity == "odd") == (q % 2 == 1):
                ops.append(["verify", "--identity", identity, "--q", str(q), "--terms", "48"])
    for family in FAMILIES:
        for n in (8, 16, 24, 32, 40):
            for q in (3, 4, 5, 7):
                ops.append(
                    ["count", "--group", family, "--n", str(n), "--q", str(q),
                     "--method", "genfun"]
                )
    for family in FAMILIES:
        chars = ("odd", "even") if family in PARITY_FAMILIES else (None,)
        for char in chars:
            argv = ["series", "--family", family, "--terms", "40"]
            ops.append(argv + ["--char", char] if char else argv)
    for family in FAMILIES:
        for q in qs:
            ops.append(["table", "--group", family, "--q", str(q), "--n-max", "30"])
    return ops


WORKLOADS = {
    "linear-scan": linear_scan,
    "orthogonal-scan": orthogonal_scan,
    "series-identities": series_identities,
}


def build(name: str, seed: int, child: int = 0) -> list[list[str]]:
    """The op list of workload ``name`` in the order that ``seed`` fixes for
    the ``child``-th child of a run."""
    ops = WORKLOADS[name]()
    random.Random(f"{seed}/{child}").shuffle(ops)
    return ops
