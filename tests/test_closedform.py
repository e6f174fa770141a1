"""Unit tests for the closed-form class-count formulas."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rscount
from rscount.closedform import (
    Family,
    GroupSpec,
    rs_count,
    rs_gl,
    rs_sl,
    rs_so_even_dim,
    rs_so_odd_dim,
    rs_sp,
    rs_su,
    rs_symbolic,
    rs_u,
)

ranks = st.integers(min_value=1, max_value=40)
field_sizes = st.integers(min_value=2, max_value=64)


# ---------------------------------------------------------------------------
# Family / GroupSpec plumbing
# ---------------------------------------------------------------------------


def test_family_tokens_round_trip():
    tokens = ["gl", "sl", "u", "su", "sp", "so-odd", "so+", "so-"]
    assert [f.token for f in Family] == tokens
    for token in tokens:
        assert Family.from_token(token).token == token
    with pytest.raises(ValueError):
        Family.from_token("o")
    with pytest.raises(ValueError):
        Family.from_token("GL")


def test_group_spec_fields():
    spec = GroupSpec(Family.SP, 3, 5)
    assert spec.family is Family.SP
    assert spec.n == 3
    assert spec.q == 5


_ROUTES = ("closedform", "genfun", "oracle")


def _imported_names(tree: ast.Module):
    """(module, name) for every import in a module of the rscount package;
    ``module`` is the last dotted part, so relative and absolute imports match."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], None
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module is None:  # from . import module
                    yield alias.name, None
                else:
                    yield node.module.rpartition(".")[2], alias.name


def test_routes_share_only_the_family_vocabulary():
    """The three routes (closed form, series, enumeration) stay independent:
    none imports another route, except Family and GroupSpec from closedform."""
    package = Path(rscount.__file__).parent
    for route in _ROUTES:
        tree = ast.parse((package / f"{route}.py").read_text(encoding="utf-8"))
        for module, name in _imported_names(tree):
            if module in _ROUTES and module != route:
                assert module == "closedform" and name in ("Family", "GroupSpec"), (
                    route, module, name,
                )


_TABLE_NAMES = {
    "add_table", "mul_table", "neg_table", "inv_table", "TABLE_LIMIT", "_RowsOnDemand",
    "antilog_array", "log_array",
}


def _names(tree: ast.Module):
    """Every identifier a module names: variables, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
            if node.asname:
                yield node.asname


def test_only_fields_knows_the_field_tables():
    """Int codes are the only element type, and only ``fields`` decides
    between the dense tables and the log arrays: no other module names a
    table, a log array, the table limit or the row builder, and none names
    FieldElement."""
    package = Path(rscount.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert {m.stem for m in modules} >= {"fields", "conjugation", "census", "oracle"}
    for path in modules:
        names = set(_names(ast.parse(path.read_text(encoding="utf-8"))))
        assert "FieldElement" not in names, path.name
        if path.stem != "fields":
            assert not names & _TABLE_NAMES, (path.name, names & _TABLE_NAMES)


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_imports_a_name_it_does_not_use():
    """Every name a module imports is used in it or listed in its
    ``__all__``; ``__init__`` is exempt, since it only re-exports."""
    package = Path(rscount.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = imported - used - _exported(tree)
        assert not unused, (path.name, sorted(unused))


#: The only unbounded caches: the table of field singletons, and the scans'
#: cache, which ``capped_cache`` guards by the enumeration cap.
_UNBOUNDED_CACHES = {("fields", "_ff_make"), ("census", "capped_cache")}


def _unbounded_caches(tree: ast.Module):
    """(top-level definition, line) of every ``lru_cache(maxsize=None)`` in a module."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            func = getattr(node, "func", None)
            if (getattr(func, "id", None) or getattr(func, "attr", None)) != "lru_cache":
                continue
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                yield getattr(stmt, "name", "<module>"), node.lineno


def test_every_unbounded_cache_is_on_the_allow_list():
    """Caches are bounded: an ``lru_cache(maxsize=None)`` in ``src/rscount``
    is one of the two listed in ``_UNBOUNDED_CACHES``, and each of those is found."""
    package = Path(rscount.__file__).parent
    found = {
        (path.stem, name): line
        for path in sorted(package.glob("*.py"))
        for name, line in _unbounded_caches(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert set(found) == _UNBOUNDED_CACHES, found


def test_every_name_the_benchmark_tracer_wraps_exists():
    """``perfbench/spans.py`` wraps rscount functions by name, so each name
    it lists must resolve, and each cached one must keep ``cache_info``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    def resolve(name):
        module, _, attr = name.partition(".")
        return getattr(importlib.import_module(f"rscount.{module}"), attr, None)

    for name in spans.SPANNED + spans.GENERATORS + spans.CACHED + spans.PREDICATES:
        assert callable(resolve(name)), name
    for name in spans.CACHED:
        assert callable(getattr(resolve(name), "cache_info", None)), name


# ---------------------------------------------------------------------------
# Anchor values (each checked by hand against the defining formulas)
# ---------------------------------------------------------------------------


def test_gl_anchors():
    assert rs_gl(1, 2) == 1
    assert rs_gl(1, 3) == 2
    assert rs_gl(1, 5) == 4
    assert rs_gl(2, 2) == 1
    assert rs_gl(2, 3) == 4
    assert rs_gl(3, 2) == 3
    assert rs_gl(3, 3) == 14
    assert rs_gl(4, 2) == 5
    assert rs_gl(2, 5) == 16


def test_sl_anchors():
    assert rs_sl(1, 2) == 1
    assert rs_sl(1, 7) == 1
    assert rs_sl(2, 2) == 1
    assert rs_sl(2, 3) == 1
    assert rs_sl(2, 4) == 3
    assert rs_sl(2, 5) == 3
    assert rs_sl(3, 2) == 3
    assert rs_sl(4, 3) == 19


def test_u_anchors():
    assert rs_u(1, 2) == 3
    assert rs_u(1, 5) == 6
    assert rs_u(2, 2) == 3
    assert rs_u(3, 2) == 3
    assert rs_u(4, 2) == 9
    assert rs_u(2, 3) == 8
    assert rs_u(3, 3) == 20


def test_su_anchors():
    assert rs_su(1, 2) == 1
    assert rs_su(1, 9) == 1
    assert rs_su(2, 2) == 1
    assert rs_su(2, 3) == 1
    assert rs_su(3, 2) == 1
    assert rs_su(3, 3) == 5
    assert rs_su(4, 2) == 3
    assert rs_su(4, 3) == 17


def test_sp_anchors():
    assert rs_sp(1, 2) == 1
    assert rs_sp(2, 2) == 1
    assert rs_sp(3, 2) == 3
    assert rs_sp(4, 2) == 5
    assert rs_sp(2, 4) == 9
    assert rs_sp(1, 3) == 1
    assert rs_sp(2, 3) == 3
    assert rs_sp(3, 3) == 11
    assert rs_sp(1, 5) == 3
    assert rs_sp(2, 5) == 13


def test_so_odd_dim_anchors():
    assert rs_so_odd_dim(1, 3) == 3
    assert rs_so_odd_dim(1, 5) == 5
    assert rs_so_odd_dim(2, 3) == 5
    assert rs_so_odd_dim(3, 3) == 17
    assert rs_so_odd_dim(2, 5) == 19
    # Even characteristic: the odd-dimensional group collapses onto Sp(2n, q).
    for n in range(1, 8):
        assert rs_so_odd_dim(n, 2) == rs_sp(n, 2)
        assert rs_so_odd_dim(n, 4) == rs_sp(n, 4)


def test_so_even_dim_anchors_even_q():
    assert rs_so_even_dim(1, 1, 2) == 1
    assert rs_so_even_dim(-1, 1, 2) == 3
    assert rs_so_even_dim(1, 1, 4) == 3
    assert rs_so_even_dim(-1, 1, 4) == 5
    assert rs_so_even_dim(1, 2, 2) == 1
    assert rs_so_even_dim(-1, 2, 2) == 3
    assert rs_so_even_dim(1, 3, 2) == 5
    assert rs_so_even_dim(-1, 3, 2) == 3
    assert rs_so_even_dim(1, 4, 2) == 7
    assert rs_so_even_dim(-1, 4, 2) == 9
    assert rs_so_even_dim(1, 2, 4) == 9
    assert rs_so_even_dim(-1, 2, 4) == 15


def test_so_even_dim_anchors_odd_q():
    assert rs_so_even_dim(1, 1, 3) == 2
    assert rs_so_even_dim(-1, 1, 3) == 4
    assert rs_so_even_dim(1, 2, 3) == 6
    assert rs_so_even_dim(-1, 2, 3) == 8
    assert rs_so_even_dim(1, 2, 5) == 18
    assert rs_so_even_dim(-1, 2, 5) == 24
    assert rs_so_even_dim(1, 3, 3) == 20
    assert rs_so_even_dim(-1, 3, 3) == 18
    assert rs_so_even_dim(1, 3, 5) == 106
    assert rs_so_even_dim(-1, 3, 5) == 100
    assert rs_so_even_dim(1, 4, 3) == 54
    assert rs_so_even_dim(-1, 4, 3) == 60
    assert rs_so_even_dim(1, 5, 3) == 176
    assert rs_so_even_dim(-1, 5, 3) == 170


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_input_validation():
    for bad_call in (
        lambda: rs_gl(0, 2),
        lambda: rs_gl(2, 1),
        lambda: rs_gl(-1, 3),
        lambda: rs_sl(1, 0),
        lambda: rs_sp(0, 3),
        lambda: rs_so_odd_dim(2, 1),
        lambda: rs_so_even_dim(1, 0, 3),
        # bool subclasses int, but True is not the rank 1 or the sign +1.
        lambda: rs_gl(True, 3),
        lambda: rs_sp(2, True),
        lambda: rs_so_even_dim(1, True, 3),
    ):
        with pytest.raises(ValueError):
            bad_call()
    for sign in (0, 2, True, False):
        with pytest.raises(ValueError):
            rs_so_even_dim(sign, 2, 3)


def test_dispatcher_matches_direct_functions():
    for q in (2, 3, 4, 5):
        for n in range(1, 7):
            assert rs_count(GroupSpec(Family.GL, n, q)) == rs_gl(n, q)
            assert rs_count(GroupSpec(Family.SL, n, q)) == rs_sl(n, q)
            assert rs_count(GroupSpec(Family.U, n, q)) == rs_u(n, q)
            assert rs_count(GroupSpec(Family.SU, n, q)) == rs_su(n, q)
            assert rs_count(GroupSpec(Family.SP, n, q)) == rs_sp(n, q)
            assert rs_count(GroupSpec(Family.SO_ODD, n, q)) == rs_so_odd_dim(n, q)
            assert rs_count(GroupSpec(Family.SO_PLUS, n, q)) == rs_so_even_dim(1, n, q)
            assert rs_count(GroupSpec(Family.SO_MINUS, n, q)) == rs_so_even_dim(-1, n, q)


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(n=ranks, q=field_sizes)
def test_gl_recurrence(n, q):
    # rs_gl(n+1) = q * rs_gl(n) + (-1)^n (q - 1), from the closed form.
    assert rs_gl(n + 1, q) == q * rs_gl(n, q) + (-1) ** n * (q - 1)


@settings(max_examples=200, deadline=None)
@given(n=ranks, q=field_sizes)
def test_counts_are_positive(n, q):
    assert rs_gl(n, q) >= 1
    assert rs_sl(n, q) >= 1
    assert rs_u(n, q) >= 1
    assert rs_su(n, q) >= 1
    assert rs_sp(n, q) >= 1
    assert rs_so_odd_dim(n, q) >= 1
    assert rs_so_even_dim(1, n, q) >= 1
    assert rs_so_even_dim(-1, n, q) >= 1


@settings(max_examples=200, deadline=None)
@given(n=ranks, q=field_sizes)
def test_quotient_relations_where_exact(n, q):
    # Away from the (even n, odd q) corrections the special subgroup count is
    # the full-group count divided by the determinant image size.
    if n % 2 == 1 or q % 2 == 0:
        assert rs_sl(n, q) * (q - 1) == rs_gl(n, q)
        assert rs_su(n, q) * (q + 1) == rs_u(n, q)


def test_symplectic_equals_linear_in_even_characteristic():
    for q in (2, 4, 8):
        for n in range(1, 21):
            assert rs_sp(n, q) == rs_gl(n, q)


def test_leading_behaviour():
    # Each count is monic of degree n in q: successive differences in q grow
    # like q^n.  Spot-check by comparing against the symbolic polynomials.
    for n in range(1, 9):
        for q in (3, 5, 7, 9, 11):
            assert rs_symbolic(Family.GL, n).evaluate(q) == rs_gl(n, q)


# ---------------------------------------------------------------------------
# Symbolic polynomials
# ---------------------------------------------------------------------------


def test_symbolic_gl_polynomials():
    polys = [rs_symbolic(Family.GL, n) for n in range(1, 5)]
    assert [p.coeffs for p in polys] == [
        (-1, 1),
        (1, -2, 1),
        (-1, 2, -2, 1),
        (1, -2, 2, -2, 1),
    ]
    # GL's polynomial does not depend on the parity flag.
    assert rs_symbolic(Family.GL, 3, q_odd=True) == rs_symbolic(Family.GL, 3)


def test_symbolic_sl_polynomials():
    assert rs_symbolic(Family.SL, 1).coeffs == (1,)
    assert rs_symbolic(Family.SL, 2, q_odd=False).coeffs == (-1, 1)
    assert rs_symbolic(Family.SL, 2, q_odd=True).coeffs == (-2, 1)
    assert rs_symbolic(Family.SL, 3).coeffs == (1, -1, 1)
    assert rs_symbolic(Family.SL, 4, q_odd=True).coeffs == (-2, 1, -1, 1)


def test_symbolic_u_polynomials():
    assert rs_symbolic(Family.U, 2).coeffs == (-1, 0, 1)
    assert rs_symbolic(Family.U, 3).coeffs == (-1, -2, 0, 1)
    assert rs_symbolic(Family.U, 4).coeffs == (1, 0, -2, 0, 1)
    with pytest.raises(ValueError):
        rs_symbolic(Family.U, 1)


def test_symbolic_unsupported_families():
    for family in (Family.SP, Family.SO_ODD, Family.SO_PLUS, Family.SO_MINUS, Family.SU):
        with pytest.raises(ValueError):
            rs_symbolic(family, 2)
    with pytest.raises(ValueError):
        rs_symbolic(Family.GL, 0)


def test_symbolic_matches_numeric_counts():
    for n in range(1, 13):
        gl_poly = rs_symbolic(Family.GL, n)
        for q in (2, 3, 4, 5, 7, 9):
            assert gl_poly.evaluate(q) == rs_gl(n, q)
        for q in (2, 4, 8):
            assert rs_symbolic(Family.SL, n, q_odd=False).evaluate(q) == rs_sl(n, q)
        for q in (3, 5, 7, 9):
            assert rs_symbolic(Family.SL, n, q_odd=True).evaluate(q) == rs_sl(n, q)
        if n >= 2:
            u_poly = rs_symbolic(Family.U, n)
            for q in (2, 3, 4, 5):
                assert u_poly.evaluate(q) == rs_u(n, q)
