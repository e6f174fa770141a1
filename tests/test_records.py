"""The value semantics of the four record classes.

Each record is immutable, equal (and hashed alike) exactly when its fields
are, pickles and prints by its fields, and keeps its defaults, derived
properties and checks.
"""

import pickle

import pytest

from rscount.census import CensusCount, CensusKind
from rscount.closedform import Family, GroupSpec
from rscount.fields import Poly, ff_from_order
from rscount.genfun import VerificationReport
from rscount.oracle import ConjugacyDatum, OracleResult

_F3 = ff_from_order(3)
_BLOCK = Poly(_F3, (1, 0, 1))
_PAIR = (Poly(_F3, (2, 1)), Poly(_F3, (2, 1)))

# (class, fields, a different value for each field that can change alone).
RECORDS = [
    (
        VerificationReport,
        dict(identity="gl-product", q=3, terms=2, passed=True, first_mismatch=None,
             lhs_coeffs=(1, 2, 5), rhs_coeffs=(1, 2, 5)),
        dict(identity="sl-product", q=5, terms=3, passed=False, first_mismatch=1,
             lhs_coeffs=(1, 2, 6), rhs_coeffs=(1, 3, 5)),
    ),
    (
        OracleResult,
        dict(group=GroupSpec(Family.GL, 2, 3), count=4, witness_count=6, notes="x"),
        dict(group=GroupSpec(Family.SL, 2, 3), count=5, witness_count=7, notes=""),
    ),
    (
        ConjugacyDatum,
        dict(a_minus=1, a_type=1, b_plus=0, b_type=None, blocks=(_BLOCK,),
             pairs=(_PAIR,), total_dim=5),
        dict(a_minus=2, a_type=-1, b_plus=1, b_type=1, blocks=(),
             pairs=(), total_dim=6),
    ),
    (
        CensusCount,
        dict(kind=CensusKind.IRREDUCIBLE, q=3, degree=2, count=3, witnesses=(_BLOCK,)),
        dict(kind=CensusKind.SELF_RECIPROCAL, q=5, degree=3, count=4, witnesses=None),
    ),
]


@pytest.mark.parametrize(
    "cls, fields, others", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)
def test_records_are_immutable_values(cls, fields, others):
    record = cls(**fields)
    twin = cls(**fields)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert {record: 1}[twin] == 1
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({body})"
    unpickled = pickle.loads(pickle.dumps(record))
    assert unpickled == record
    assert repr(unpickled) == repr(record)
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    for name, value in others.items():
        changed = cls(**dict(fields, **{name: value}))
        assert changed != record and not changed == record, name


def test_record_defaults():
    result = OracleResult(GroupSpec(Family.GL, 2, 3), 4, 6)
    assert result.notes == ""
    cell = CensusCount(CensusKind.IRREDUCIBLE, 3, 2, 3)
    assert cell.witnesses is None


def test_conjugacy_datum_properties():
    def datum(a_minus, b_plus, blocks):
        return ConjugacyDatum(a_minus, None, b_plus, None, blocks, (), 0)

    assert not datum(0, 0, ()).has_eigenvalue_part
    assert datum(1, 0, ()).has_eigenvalue_part
    assert datum(0, 2, ()).has_eigenvalue_part
    assert [datum(0, 0, (_BLOCK,) * k).block_pair_sign for k in range(4)] == [1, -1, 1, -1]


def test_verification_report_to_json():
    report = VerificationReport("gl-product", 3, 2, False, 1, (1, 2, 5), (1, 3, 5))
    assert report.to_json() == {
        "identity": "gl-product",
        "q": 3,
        "terms": 2,
        "pass": False,
        "first_mismatch": 1,
        "lhs_coeffs": [1, 2, 5],
        "rhs_coeffs": [1, 3, 5],
    }

