"""Feasibility thresholds and inequality checks for the solver, in log2 space.

Everything numeric runs in arbitrary-precision binary floating point (mpmath)
with a 256-bit mantissa, because the interesting list-sparsity thresholds sit
at exponents like 2**-651 where hardware floats are useless. Inputs that are
exactly representable (integers, powers of two, rationals) keep exact values
through the computation, so boundary cases compare exactly. mpmath loads on
the first bound computed, not on import, so the rest of the package runs
without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateTau, HypothesisViolated

PRECISION_BITS = 256


@dataclass(frozen=True)
class BoundReport:
    """Verdict on one inequality plus the named sub-quantities behind it."""

    satisfied: bool
    components: dict


def _log2(x):
    """log2 of a positive number; exact for powers of two and their ratios."""
    from mpmath import mp
    if isinstance(x, Fraction):
        return _log2(x.numerator) - _log2(x.denominator)
    if isinstance(x, int):
        if x <= 0:
            raise ValueError("log2 needs a positive argument")
        if x & (x - 1) == 0:
            return mp.mpf(x.bit_length() - 1)
        return mp.log(x, 2)
    value = mp.mpf(x)
    if value <= 0:
        raise ValueError("log2 needs a positive argument")
    return mp.log(value, 2)


def _to_mpf(x):
    from mpmath import mp
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _exactify(x):
    """Ints and Fractions stay exact; floats and mpfs pass through as mpf."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    from mpmath import mp
    return mp.mpf(x)


def _is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def _mul(a, b):
    if _is_rational(a) and _is_rational(b):
        return Fraction(a) * Fraction(b)
    return _to_mpf(a) * _to_mpf(b)


def beta_threshold(n: int, d: int, s: int):
    """log2 of the largest list-sparsity ratio the avoidance guarantee covers.

    Returns log2(beta_max) = -11 + log2(s/d) - (512*d/s**2)*log2(2*n) as a
    256-bit float, exact whenever every log argument is a power of two.
    Larger graphs push the threshold down; richer cycle structure (larger s)
    pulls it up.
    """
    if n < 1 or d < 1 or s < 1:
        raise ValueError("n, d, s must be positive")
    from mpmath import mp
    with mp.workprec(PRECISION_BITS):
        coeff = Fraction(512 * d, s * s)
        return mp.mpf(-11) + _log2(s) - _log2(d) - _to_mpf(coeff) * _log2(2 * n)


def permutation_union_bound(n: int, d: int, s: int, beta, gamma, tau) -> BoundReport:
    """Failure-probability bound for a uniformly random color permutation.

    term1 = n*(e*beta/gamma)**(gamma*s) covers the per-vertex and
    per-neighborhood conflict caps; term2 =
    (n*d/2)*(2*e*beta/(tau-2*beta))**((tau-2*beta)*s) covers the per-edge
    disallowed-cycle cap. ``satisfied`` means term1 + term2 < 1, in which
    case some permutation passes all three phase-one checks.

    beta, gamma, tau may be int, Fraction, float, or mpf. Requires gamma > 0
    and tau > 2*beta (DegenerateTau otherwise; the second base would not be
    positive).
    """
    if n < 1 or d < 1 or s < 1:
        raise ValueError("n, d, s must be positive")
    beta = _exactify(beta)
    gamma = _exactify(gamma)
    tau = _exactify(tau)
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    diff = tau - 2 * beta if _is_rational(tau) and _is_rational(beta) \
        else _to_mpf(tau) - 2 * _to_mpf(beta)
    if not diff > 0:
        raise DegenerateTau(f"need tau > 2*beta, got tau={tau}, beta={beta}")
    from mpmath import mp
    with mp.workprec(PRECISION_BITS):
        log2_e = mp.log(mp.e, 2)
        if beta == 0:
            t1_log2 = t2_log2 = mp.ninf
            term1 = term2 = mp.mpf(0)
        else:
            t1_log2 = _log2(n) + _to_mpf(_mul(gamma, s)) * (
                _log2(beta) + log2_e - _log2(gamma))
            t2_log2 = _log2(Fraction(n * d, 2)) + _to_mpf(_mul(diff, s)) * (
                _log2(_mul(2, beta)) + log2_e - _log2(diff))
            term1 = mp.power(2, t1_log2)
            term2 = mp.power(2, t2_log2)
        total = term1 + term2
        return BoundReport(bool(total < 1), {
            "term1_log2": t1_log2,
            "term2_log2": t2_log2,
            "term1": term1,
            "term2": term2,
            "sum": total,
        })


def swap_choice_margin(d: int, s: int, gamma, tau, epsilon) -> BoundReport:
    """Exact slack guaranteeing the swap phase always finds a usable cycle.

    A conflict edge has at least (1-tau)*s allowed cycles; at most
    9*gamma*s + 3*epsilon*s + 3 of them can hit conflicting or already-used
    edges and at most (20*gamma/epsilon)*d can hit overloaded vertices or
    matchings. margin = s - tau*s - 9*gamma*s - 3*epsilon*s -
    (20*gamma/epsilon)*d - 3, evaluated in exact rationals; ``satisfied``
    means margin > 0.
    """
    if d < 1 or s < 1:
        raise ValueError("d and s must be positive")
    gamma = Fraction(gamma)
    tau = Fraction(tau)
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    tau_s = tau * s
    nine_gamma_s = 9 * gamma * s
    three_epsilon_s = 3 * epsilon * s
    overload_budget = 20 * gamma * d / epsilon
    margin = s - tau_s - nine_gamma_s - three_epsilon_s - overload_budget - 3
    return BoundReport(margin > 0, {
        "s": Fraction(s),
        "tau_s": tau_s,
        "nine_gamma_s": nine_gamma_s,
        "three_epsilon_s": three_epsilon_s,
        "overload_budget": overload_budget,
        "constant": Fraction(3),
        "margin": margin,
    })


def fixed_ratio_constants(kappa) -> tuple[Fraction, Fraction]:
    """Constants (c1, c2) with beta_threshold(n, d, kappa*d) = log2 of c1*(2n)**(-c2/d).

    When s is pinned to a fixed fraction kappa of d, the threshold collapses
    to a two-constant form: c1 = kappa/2048 and c2 = 512/kappa**2. Requires
    0 < kappa <= 1.
    """
    kappa = Fraction(kappa)
    if not 0 < kappa <= 1:
        raise ValueError("kappa must lie in (0, 1]")
    return kappa / 2048, Fraction(512) / kappa**2


def list_length_feasible(n: int, d: int, s: int, c, kind: str) -> bool:
    """Whether a named list-size level sits under the avoidance threshold.

    kind "constant" tests the level c/s for a constant c > 0; kind "power"
    tests the level s**(c-1). Both reduce to the inclusive log2 inequality
    -1 + (s*s/(512*d))*log2(base) >= log2(n) with base = 2**-11*s*s/(c*d)
    for "constant" and base = 2**-11*s**(2-c)/d for "power". Requires
    s >= 11.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if s < 11:
        raise HypothesisViolated(f"list-length checks assume s >= 11, got {s}")
    c = _exactify(c)
    from mpmath import mp
    with mp.workprec(PRECISION_BITS):
        if kind == "constant":
            if not c > 0:
                raise ValueError("kind 'constant' needs c > 0")
            if _is_rational(c):
                log2_base = _log2(Fraction(s * s, 2048 * d) / c)
            else:
                log2_base = _log2(_to_mpf(Fraction(s * s, 2048 * d)) / c)
        elif kind == "power":
            two_minus_c = 2 - c if _is_rational(c) else 2 - _to_mpf(c)
            log2_base = mp.mpf(-11) + _to_mpf(two_minus_c) * _log2(s) - _log2(d)
        else:
            raise ValueError(f"kind must be 'constant' or 'power', got {kind!r}")
        lhs = mp.mpf(-1) + _to_mpf(Fraction(s * s, 512 * d)) * log2_base
        return bool(lhs >= _log2(n))
