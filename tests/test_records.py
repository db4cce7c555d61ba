"""The record types: immutable named tuples with the fields, repr and checks of their API."""

import math
import pickle

import numpy as np
import pytest

from frechetfit import (
    CONSTANTS,
    LAURENT,
    CubicCoefficients,
    DomainError,
    EstimateResult,
    FrechetParams,
    FrechetShape,
    LaurentCoefficients,
    MathConstants,
    Method,
    MomentReport,
    SamplerConfig,
    SampleStats,
    alpha_exact,
    alpha_order1,
    alpha_order2,
    moment_report,
    shape_variance,
)
from frechetfit.checks import CheckResult

PARAMS = FrechetParams(location=0.5, scale=2.0, alpha=5.0)

# each record built by keyword, and its repr
RECORDS = [
    (FrechetShape(alpha=2.5), "FrechetShape(alpha=2.5)"),
    (PARAMS, "FrechetParams(location=0.5, scale=2.0, alpha=5.0)"),
    (
        MomentReport(order=3, raw=1.5, centered=None, normalized=None, defined=True),
        "MomentReport(order=3, raw=1.5, centered=None, normalized=None, defined=True)",
    ),
    (
        EstimateResult(alpha=8.5, method=Method.EXACT_ROOT, residual=1e-17, iterations=2),
        "EstimateResult(alpha=8.5, method=<Method.EXACT_ROOT: 'exact-root'>, residual=1e-17, iterations=2)",
    ),
    (CubicCoefficients(a3=1.25, a2=0.5), "CubicCoefficients(a3=1.25, a2=0.5)"),
    (
        SampleStats(count=4, mean=1.0, variance=2.0, skewness=0.5, excess_kurtosis=-1.25),
        "SampleStats(count=4, mean=1.0, variance=2.0, skewness=0.5, excess_kurtosis=-1.25)",
    ),
    (
        MathConstants(euler_gamma=0.5, pi_sq_over_6=1.5, apery=1.25),
        "MathConstants(euler_gamma=0.5, pi_sq_over_6=1.5, apery=1.25)",
    ),
    (
        LaurentCoefficients(c_minus1=1.0, c0=-0.5, c1=1.0, c2=-1.0),
        "LaurentCoefficients(c_minus1=1.0, c0=-0.5, c1=1.0, c2=-1.0)",
    ),
    (
        SamplerConfig(seed=7, count=10, params=PARAMS),
        "SamplerConfig(seed=7, count=10, params=FrechetParams(location=0.5, scale=2.0, alpha=5.0))",
    ),
    (
        CheckResult(name="moment-oracle", passed=True, measured=2.5e-13, bound=1e-7),
        "CheckResult(name='moment-oracle', passed=True, measured=2.5e-13, bound=1e-07)",
    ),
]
IDS = [type(r).__name__ for r, _ in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=IDS)
class TestRecord:
    def test_fields_are_read_only(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 1.0)

    def test_no_new_attributes(self, record):
        with pytest.raises(AttributeError):
            record.extra = 1.0

    def test_positional_and_keyword_construction_agree(self, record):
        cls = type(record)
        fields = record._asdict()
        assert cls(*record) == cls(**fields) == record
        assert type(cls(**fields)) is cls

    def test_hash_and_pickle(self, record):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        assert back == record
        assert hash(back) == hash(record)
        assert {record: 1}[back] == 1

    def test_a_tuple_of_its_fields(self, record):
        # what a named tuple adds: it unpacks, indexes, has a len and
        # compares equal to the plain tuple of its fields
        values = tuple(getattr(record, name) for name in record._fields)
        assert len(record) == len(record._fields)
        assert tuple(record) == values
        assert record[0] is values[0]
        assert record == values


def test_defaults():
    assert MathConstants() == CONSTANTS
    assert (CONSTANTS.euler_gamma, CONSTANTS.pi_sq_over_6, CONSTANTS.apery) == (
        0.57721566490153286, 1.6449340668482264, 1.2020569031595943,
    )
    assert LaurentCoefficients() == LAURENT
    assert LAURENT.c_minus1 == 1.0 and LAURENT.c0 == -CONSTANTS.euler_gamma
    assert CubicCoefficients().a2 == CONSTANTS.pi_sq_over_6
    assert CubicCoefficients(a2=2.0) == (CubicCoefficients().a3, 2.0)


def test_params_shape():
    assert PARAMS.shape == FrechetShape(5.0)
    assert type(PARAMS.shape) is FrechetShape


BAD = [
    (lambda: FrechetShape(0.0), "shape parameter must be > 0, got 0.0"),
    (lambda: FrechetShape(alpha=-1.0), "shape parameter must be > 0, got -1.0"),
    (lambda: FrechetShape(math.nan), "shape parameter must be > 0, got nan"),
    (lambda: FrechetShape(math.inf), "shape parameter must be > 0, got inf"),
    (lambda: FrechetParams(math.inf, 1.0, 2.0), "location must be finite, got inf"),
    (lambda: FrechetParams(math.nan, 1.0, 2.0), "location must be finite, got nan"),
    (lambda: FrechetParams(0.0, 0.0, 2.0), "scale must be > 0, got 0.0"),
    (lambda: FrechetParams(0.0, math.inf, 2.0), "scale must be > 0, got inf"),
    (lambda: FrechetParams(location=0.0, scale=1.0, alpha=0.0), "shape parameter must be > 0, got 0.0"),
    (lambda: SamplerConfig(seed=1, count=0, params=PARAMS), "count must be >= 1, got 0"),
    (lambda: SamplerConfig(-1, 5, PARAMS), "seed must be a 64-bit unsigned integer, got -1"),
    (lambda: SamplerConfig(2**64, 5, PARAMS), "seed must be a 64-bit unsigned integer, got 18446744073709551616"),
    # a seed or count that is not an int or a numpy integer, a whole float too
    (lambda: SamplerConfig(1.5, 5, PARAMS), "seed must be a 64-bit unsigned integer, got 1.5"),
    (lambda: SamplerConfig(1, 2.5, PARAMS), "count must be an integer, got 2.5"),
    (lambda: SamplerConfig(1, 3.0, PARAMS), "count must be an integer, got 3.0"),
    (lambda: SamplerConfig(1, math.nan, PARAMS), "count must be an integer, got nan"),
    # _replace builds through _make, which checks the fields too
    (lambda: FrechetShape(2.0)._replace(alpha=-2.0), "shape parameter must be > 0, got -2.0"),
    (lambda: PARAMS._replace(scale=-1.0), "scale must be > 0, got -1.0"),
    (lambda: FrechetParams._make([0.0, 1.0, math.nan]), "shape parameter must be > 0, got nan"),
    (lambda: SamplerConfig(1, 5, PARAMS)._replace(count=0), "count must be >= 1, got 0"),
]


@pytest.mark.parametrize("build, message", BAD, ids=[message for _, message in BAD])
def test_validated_records_raise_domain_error(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


def test_sampler_config_takes_numpy_integers():
    config = SamplerConfig(np.uint64(7), np.int64(10), PARAMS)
    assert config == SamplerConfig(7, 10, PARAMS)


def test_replace_keeps_the_type():
    moved = PARAMS._replace(location=-1.0)
    assert type(moved) is FrechetParams
    assert moved == FrechetParams(-1.0, 2.0, 5.0)


# records as the library builds them (with tuple.__new__, not the class's
# generated __new__): moment_report at a defined order with and without a
# centered moment and at an undefined one, and the three estimators
_V = shape_variance(5.0)
BUILT = [
    *(moment_report(FrechetShape(5.0), k) for k in (1, 3, 6)),
    alpha_order1(_V),
    alpha_order2(_V),
    alpha_exact(_V),
]


def test_built_record_types():
    assert [type(r) for r in BUILT] == [MomentReport] * 3 + [EstimateResult] * 3


@pytest.mark.parametrize("record", BUILT, ids=["report-1", "report-3", "report-6", "order1", "order2", "exact"])
class TestBuiltRecords:
    def test_repr_names_the_fields(self, record):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, record))
        assert repr(record) == f"{type(record).__name__}({fields})"

    def test_asdict(self, record):
        assert record._asdict() == dict(zip(record._fields, record))

    def test_equals_the_record_the_class_builds(self, record):
        cls = type(record)
        assert cls(*record) == cls(**record._asdict()) == record

    def test_pickle(self, record):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        assert back == record
