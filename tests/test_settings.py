"""The three setting rules and the places that apply them: an integer of at
least a minimum, a real strictly between two bounds, and a real of at least
a minimum (so NaN fails both).  No rule takes a bool.  Each rejection is a
ValueError that names the setting."""

import math
from dataclasses import fields

import numpy as np
import pytest

from qnprox import BaselineConfig, SolverConfig, SyntheticLogisticSpec
from qnprox.errors import check_at_least, check_integer, check_interval
from qnprox.linear_solver import KrylovBasis, conjugate_residual
from qnprox.separation import lanczos_extreme, separation_oracle
from helpers import packed

# per config class: the fields a caller must pass, each integer field with
# its minimum, and each real field with its lower bound
CONFIGS = {
    SolverConfig: ({}, {"max_iters": 1, "seed": 0},
                   {"tolerance": 0.0, "rho": 0.0}),
    BaselineConfig: ({}, {"max_iters": 1}, {"tolerance": 0.0}),
    SyntheticLogisticSpec: (dict(n=5, d=3, sigma=0.8, seed=0),
                            {"n": 1, "d": 2, "seed": 0}, {"sigma": 0.0}),
}


def bad_settings():
    for cls, (base, integers, reals) in CONFIGS.items():
        cases = [(name, value) for name, minimum in integers.items()
                 for value in (float(minimum + 1), minimum - 1)]
        # a tolerance of inf is allowed: the run stops after one iteration
        cases += [(name, value) for name, low in reals.items()
                  for value in (math.nan, math.inf, low - 1.0)
                  if not (name == "tolerance" and value == math.inf)]
        # True compares as 1, inside most of these ranges
        cases += [(name, True) for name in (*integers, *reals)]
        for name, value in cases:
            yield pytest.param(cls, base, name, value,
                               id=f"{cls.__name__}-{name}-{value!r}")


# a value of the wrong type must be rejected by name, not by a TypeError
# from a comparison
WRONG_TYPES = [(SolverConfig, "tolerance", "1e-6"),
               (SolverConfig, "rho", "0.1"),
               (BaselineConfig, "max_iters", "0.1"),
               (SolverConfig, "max_iters", None),
               (BaselineConfig, "tolerance", "x")]


@pytest.mark.parametrize("cls, name, value", WRONG_TYPES,
                         ids=[f"{c.__name__}-{n}" for c, n, _ in WRONG_TYPES])
def test_config_rejects_wrong_type_by_name(cls, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must .*{value!r}"):
        cls(**{name: value})


def test_every_settable_value_is_listed():
    listed = 0
    for cls, (_, integers, reals) in CONFIGS.items():
        assert {f.name for f in fields(cls)} == set(integers) | set(reals)
        listed += len(integers) + len(reals)
    assert listed == 10


@pytest.mark.parametrize("cls, base, name, value", bad_settings())
def test_config_rejects_bad_setting(cls, base, name, value):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        cls(**{**base, name: value})


class TestRules:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)], ids=repr)
    def test_integer_accepts_integral_types(self, value):
        check_integer("n", value, 3)

    @pytest.mark.parametrize("value", [2, 3.0, "3", None, np.float64(3.0)],
                             ids=repr)
    def test_integer_names_setting_and_value(self, value):
        with pytest.raises(ValueError) as info:
            check_integer("n", value, 3)
        assert str(info.value).startswith("n must be an integer >= 3")
        assert repr(value) in str(info.value)

    @pytest.mark.parametrize("value, high", [
        (0.5, 1.0), (np.float64(1e-300), 1.0), (np.float32(0.999), 1.0),
        (2, math.inf), (1e300, math.inf)], ids=repr)
    def test_interval_accepts_inside(self, value, high):
        check_interval("q", value, 0.0, high)

    @pytest.mark.parametrize("value", [0.0, 2, np.float32(0.5), math.inf],
                             ids=repr)
    def test_at_least_accepts_the_minimum_and_above(self, value):
        check_at_least("tolerance", value, 0.0)

    @pytest.mark.parametrize("value", [-1e-300, math.nan, -math.inf, "1e-6",
                                       None], ids=repr)
    def test_at_least_names_setting_and_value(self, value):
        with pytest.raises(ValueError) as info:
            check_at_least("tolerance", value, 0.0)
        assert str(info.value).startswith("tolerance must be a real >= 0")
        assert repr(value) in str(info.value)

    @pytest.mark.parametrize("value", [True, False], ids=repr)
    @pytest.mark.parametrize("rule", [
        lambda value: check_integer("n", value, 0),
        lambda value: check_interval("q", value, -1.0, math.inf),
        lambda value: check_at_least("tolerance", value, 0.0),
    ], ids=["integer", "interval", "at_least"])
    def test_rules_reject_a_bool(self, rule, value):
        # a bool is an Integral and a Real, and both values lie in range
        with pytest.raises(ValueError) as info:
            rule(value)
        assert repr(value) in str(info.value)

    @pytest.mark.parametrize("value", [0.0, 1.0, -1.0, math.nan, math.inf,
                                       -math.inf, "0.5", None], ids=repr)
    def test_interval_is_open_and_names_setting_and_value(self, value):
        with pytest.raises(ValueError) as info:
            check_interval("q", value, 0.0, 1.0)
        assert str(info.value).startswith("q must lie in (0, 1)")
        assert repr(value) in str(info.value)


def _identity(v):
    return v.copy()


ROUTINE_CALLS = {
    "alpha-nan": lambda: conjugate_residual(
        KrylovBasis(_identity, np.ones(3)), 1.0, np.ones(3), math.nan),
    "alpha-1.0": lambda: conjugate_residual(
        KrylovBasis(_identity, np.ones(3)), 1.0, np.ones(3), 1.0),
    "delta-nan": lambda: separation_oracle(packed(np.eye(3)), math.nan, 0.1, 0),
    "delta-inf": lambda: separation_oracle(packed(np.eye(3)), math.inf, 0.1, 0),
    "q-nan": lambda: separation_oracle(packed(np.eye(3)), 0.1, math.nan, 0),
    "q-1.0": lambda: separation_oracle(packed(np.eye(3)), 0.1, 1.0, 0),
    "capacity-2.0": lambda: KrylovBasis(_identity, np.ones(3), 2.0),
    "capacity-0": lambda: KrylovBasis(_identity, np.ones(3), 0),
    "iterations-1.5": lambda: lanczos_extreme(
        KrylovBasis(_identity, np.ones(3), 2), 1.5),
    "iterations-0": lambda: lanczos_extreme(
        KrylovBasis(_identity, np.ones(3), 2), 0),
}


@pytest.mark.parametrize("case", ROUTINE_CALLS)
def test_routine_rejects_bad_setting(case):
    name = case.split("-")[0]
    with pytest.raises(ValueError, match=f"^{name} must "):
        ROUTINE_CALLS[case]()
