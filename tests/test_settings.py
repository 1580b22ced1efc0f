"""The three setting rules and the places that apply them: an integer of at
least a minimum, a real strictly between two bounds, and a real of at least
a minimum (so NaN fails both).  Each rejection is a ValueError that names
the setting."""

import math
from dataclasses import fields

import numpy as np
import pytest

from qnprox import BaselineConfig, SolverConfig, SyntheticLogisticSpec
from qnprox.errors import check_at_least, check_integer, check_interval
from qnprox.linear_solver import conjugate_residual
from qnprox.oracles import estimate_smoothness
from qnprox.separation import LanczosRun, lanczos_extreme, separation_oracle
from helpers import QuadraticObjective

# per config class: the fields a caller must pass, each integer field with
# its minimum, and each real field with its lower bound
CONFIGS = {
    SolverConfig: ({}, {"max_iters": 1, "seed": 0, "max_cr_iters": 1},
                   {"alpha1": 0.0, "alpha2": 0.0, "beta": 0.0, "sigma0": 0.0,
                    "L1": 0.0, "tolerance": 0.0, "failure_budget": 0.0,
                    "rho": 0.0}),
    BaselineConfig: ({}, {"max_iters": 1},
                     {"tolerance": 0.0, "c1": 0.0, "c2": 0.0}),
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
        for name, value in cases:
            yield pytest.param(cls, base, name, value,
                               id=f"{cls.__name__}-{name}-{value!r}")


# a value of the wrong type must be rejected by name, not by a TypeError
# from a comparison
WRONG_TYPES = [(SolverConfig, "tolerance", "1e-6"),
               (SolverConfig, "alpha1", "0.1"),
               (BaselineConfig, "c1", "0.1"),
               (BaselineConfig, "c2", None),
               (BaselineConfig, "tolerance", "x")]


@pytest.mark.parametrize("cls, name, value", WRONG_TYPES,
                         ids=[f"{c.__name__}-{n}" for c, n, _ in WRONG_TYPES])
def test_config_rejects_wrong_type_by_name(cls, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must .*{value!r}"):
        cls(**{name: value})


@pytest.mark.parametrize("make, values", [
    (lambda: SolverConfig(alpha1=0.25, alpha2=0.75), ("0.25", "0.75")),
    (lambda: BaselineConfig(c1=0.9, c2=0.1), ("0.9", "0.1")),
], ids=["alpha-sum", "wolfe-order"])
def test_joint_rule_prints_the_offending_values(make, values):
    with pytest.raises(ValueError) as info:
        make()
    assert all(value in str(info.value) for value in values)


def test_every_settable_value_is_listed():
    listed = 0
    for cls, (_, integers, reals) in CONFIGS.items():
        assert {f.name for f in fields(cls)} == set(integers) | set(reals)
        listed += len(integers) + len(reals)
    assert listed == 19


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

    @pytest.mark.parametrize("value", [0.0, 1.0, -1.0, math.nan, math.inf,
                                       -math.inf, "0.5", None], ids=repr)
    def test_interval_is_open_and_names_setting_and_value(self, value):
        with pytest.raises(ValueError) as info:
            check_interval("q", value, 0.0, 1.0)
        assert str(info.value).startswith("q must lie in (0, 1)")
        assert repr(value) in str(info.value)


def _identity(v):
    return v.copy()


def _quadratic():
    return QuadraticObjective(np.eye(3))


ROUTINE_CALLS = {
    "alpha-nan": lambda: conjugate_residual(_identity, np.ones(3), math.nan),
    "alpha-1.0": lambda: conjugate_residual(_identity, np.ones(3), 1.0),
    "delta-nan": lambda: separation_oracle(np.eye(3), math.nan, 0.1, 0),
    "delta-inf": lambda: separation_oracle(np.eye(3), math.inf, 0.1, 0),
    "q-nan": lambda: separation_oracle(np.eye(3), 0.1, math.nan, 0),
    "q-1.0": lambda: separation_oracle(np.eye(3), 0.1, 1.0, 0),
    "capacity-2.0": lambda: LanczosRun(np.eye(3), 2.0, 0),
    "capacity-0": lambda: LanczosRun(np.eye(3), 0, 0),
    "iterations-1.5": lambda: lanczos_extreme(LanczosRun(np.eye(3), 2, 0),
                                              1.5),
    "iterations-0": lambda: lanczos_extreme(LanczosRun(np.eye(3), 2, 0), 0),
    "probes-2.0": lambda: estimate_smoothness(_quadratic(), probes=2.0),
    "probes-0": lambda: estimate_smoothness(_quadratic(), probes=0),
}


@pytest.mark.parametrize("case", ROUTINE_CALLS)
def test_routine_rejects_bad_setting(case):
    name = case.split("-")[0]
    with pytest.raises(ValueError, match=f"^{name} must "):
        ROUTINE_CALLS[case]()
