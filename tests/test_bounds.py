"""Arbitrary-precision feasibility arithmetic for the avoidance guarantees."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

import dsgraph as dg
from dsgraph.bounds import PRECISION_BITS


def test_euler_constant_single_home():
    assert mp.nstr(dg.EULER_E, 16) == "2.718281828459045"
    assert PRECISION_BITS == 256


def test_import_leaves_mpmath_unloaded_until_a_bound_needs_it():
    src = str(Path(dg.__file__).resolve().parent.parent)
    code = (
        "import sys, dsgraph, dsgraph.cli\n"
        "print('mpmath' in sys.modules)\n"
        "from mpmath import mp\n"
        "print(mp.nstr(dsgraph.EULER_E, 16), mp.nstr(dsgraph.bounds.EULER_E, 16))\n"
        "print(hasattr(dsgraph, 'EULER_F'), hasattr(dsgraph.bounds, 'EULER_F'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n") == ["False", "2.718281828459045 2.718281828459045",
                                "False False", ""]


def test_beta_threshold_exact_at_powers_of_two():
    x = dg.beta_threshold(16, 4, 4)
    assert x == mpf(-651)
    assert isinstance(x, mpf)


def test_beta_threshold_monotone_in_n():
    # doubling n costs exactly 512*d/s^2 more bits of sparsity
    a = dg.beta_threshold(2 ** 10, 32, 32)
    b = dg.beta_threshold(2 ** 11, 32, 32)
    assert b - a == mpf(-16)


def test_beta_threshold_log_round_trip():
    with mp.workprec(PRECISION_BITS):
        x = dg.beta_threshold(2 ** 12, 32, 32)
        beta = mp.power(2, x)
        assert abs(mp.log(beta, 2) - x) < mpf(10) ** -20


def test_swap_choice_margin_exact_values():
    ok = dg.swap_choice_margin(11, 11, Fraction(1, 512), Fraction(1, 128), Fraction(1, 8))
    assert ok.satisfied
    assert ok.components["margin"] == Fraction(81, 512)
    bad = dg.swap_choice_margin(10, 10, Fraction(1, 512), Fraction(1, 128), Fraction(1, 8))
    assert not bad.satisfied
    assert bad.components["margin"] == Fraction(-33, 256)
    assert float(bad.components["margin"]) == -0.12890625


def test_swap_choice_margin_positive_on_guarantee_range():
    for s, d in ((11, 11), (11, 64), (16, 32), (64, 256), (256, 256)):
        p = dg.default_params(d, s)
        rep = dg.swap_choice_margin(d, s, p.gamma, p.tau, p.epsilon)
        assert rep.satisfied
        assert rep.components["margin"] > 0


def test_swap_choice_margin_component_breakdown():
    rep = dg.swap_choice_margin(11, 11, Fraction(1, 512), Fraction(1, 128), Fraction(1, 8))
    c = rep.components
    assert c["s"] == 11
    assert c["tau_s"] == Fraction(11, 128)
    assert c["nine_gamma_s"] == Fraction(99, 512)
    assert c["three_epsilon_s"] == Fraction(33, 8)
    assert c["overload_budget"] == Fraction(20, 512) / Fraction(1, 8) * 11
    assert c["margin"] == (c["s"] - c["tau_s"] - c["nine_gamma_s"]
                           - c["three_epsilon_s"] - c["overload_budget"] - c["constant"])


def test_union_bound_zero_beta_is_free():
    rep = dg.permutation_union_bound(8, 4, 4, 0, Fraction(1, 2), Fraction(1, 128))
    assert rep.satisfied
    assert rep.components["term1"] == 0
    assert rep.components["term2"] == 0
    assert rep.components["term1_log2"] == mpf("-inf")


def test_union_bound_at_threshold_satisfied():
    n, d, s = 2 ** 12, 32, 32
    beta = mp.power(2, dg.beta_threshold(n, d, s))
    p = dg.default_params(d, s)
    rep = dg.permutation_union_bound(n, d, s, beta, p.gamma, p.tau)
    assert rep.satisfied
    assert rep.components["term1"] < 0.5
    assert rep.components["term2"] < 0.125
    assert rep.components["sum"] < 1


def test_union_bound_fails_for_dense_lists():
    # beta just below tau/2 keeps the exponent positive but tiny
    rep = dg.permutation_union_bound(2 ** 12, 32, 32, Fraction(1, 300),
                                     Fraction(1, 512), Fraction(1, 128))
    assert not rep.satisfied


def test_union_bound_degenerate_tau():
    with pytest.raises(dg.DegenerateTau):
        dg.permutation_union_bound(8, 11, 11, Fraction(1, 10), Fraction(1, 10),
                                   Fraction(1, 128))
    with pytest.raises(ValueError, match="gamma"):
        dg.permutation_union_bound(8, 4, 4, 0, 0, Fraction(1, 128))


def test_default_params_shape():
    p = dg.default_params(32, 16)
    assert p.gamma == Fraction(1, 1024)
    assert p.tau == Fraction(1, 128)
    assert p.epsilon == Fraction(1, 8)
    assert p.beta == 0
    with pytest.raises(ValueError):
        dg.default_params(4, 5)
    with pytest.raises(ValueError):
        dg.default_params(4, 0)


def test_fixed_ratio_constants_exact():
    assert dg.fixed_ratio_constants(1) == (Fraction(1, 2048), Fraction(512))
    assert dg.fixed_ratio_constants(Fraction(1, 2)) == (Fraction(1, 4096), Fraction(2048))
    with pytest.raises(ValueError):
        dg.fixed_ratio_constants(2)
    with pytest.raises(ValueError):
        dg.fixed_ratio_constants(0)


def test_fixed_ratio_matches_default_gamma():
    # at s = kappa*d the scaled default gamma equals kappa/512 / ... spelled out:
    # gamma = s/(512 d) = kappa/512, and the first constant is gamma*s/s = kappa/2048*4
    for d in (64, 128):
        for num, den in ((1, 2), (1, 4)):
            kappa = Fraction(num, den)
            s = int(kappa * d)
            c1, c2 = dg.fixed_ratio_constants(kappa)
            p = dg.default_params(d, s)
            assert p.gamma == kappa / 512
            assert c1 == kappa / 2048
            assert c2 == 512 / kappa ** 2


def test_list_length_feasible_boundary_exact():
    c = Fraction(1, 2 ** 22)
    assert dg.list_length_feasible(1, 32, 32, c, "constant")
    assert not dg.list_length_feasible(2, 32, 32, c, "constant")


def test_list_length_feasible_kinds_coincide():
    # the power form at exponent c equals the constant form at s**c
    for n in (1, 2 ** 8, 2 ** 16):
        for s, d in ((16, 16), (32, 64)):
            assert (dg.list_length_feasible(n, d, s, 0, "power")
                    == dg.list_length_feasible(n, d, s, 1, "constant"))
            assert (dg.list_length_feasible(n, d, s, 1, "power")
                    == dg.list_length_feasible(n, d, s, s, "constant"))


def test_list_length_feasible_guards():
    with pytest.raises(dg.HypothesisViolated):
        dg.list_length_feasible(8, 10, 10, 1, "constant")
    with pytest.raises(ValueError, match="kind"):
        dg.list_length_feasible(8, 32, 32, 1, "weird")
    with pytest.raises(ValueError):
        dg.list_length_feasible(8, 32, 32, 0, "constant")


def test_bound_report_is_plain_data():
    rep = dg.swap_choice_margin(11, 11, Fraction(1, 512), Fraction(1, 128), Fraction(1, 8))
    assert isinstance(rep, dg.BoundReport)
    assert set(rep.components) == {"s", "tau_s", "nine_gamma_s", "three_epsilon_s",
                                   "overload_budget", "constant", "margin"}
