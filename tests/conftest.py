"""Shared independent oracles for the test suite.

The series oracle below is the reference for every [derived] Bessel value:
a straight 50-term summation of the ascending series in 60-digit mpmath
arithmetic (extended adaptively for large arguments, where cancellation
consumes ~0.9*x digits). It shares no code with the package evaluators.
"""

import mpmath as mp
import numpy as np
import pytest


def bessel_series_oracle(nu, x, terms=50):
    """High-precision ascending-series value of J_nu(x)."""
    dps = 60 + int(0.9 * abs(float(x)))
    n_terms = max(terms, int(2.2 * abs(float(x))) + 20)
    with mp.workdps(dps):
        nu_, x_ = mp.mpf(nu), mp.mpf(x)
        s = mp.mpf(0)
        for m in range(n_terms):
            s += ((-1) ** m / (mp.factorial(m) * mp.gamma(m + nu_ + 1))
                  * (x_ / 2) ** (2 * m + nu_))
        return float(s)


def bessel_zero_oracle(nu, n, digits=14):
    """Bisection for j_{nu,n} on the Lorch-Muldoon bracket, oracle-valued."""
    lo = mp.pi * (n + mp.mpf(nu) / 2 - mp.mpf(1) / 4)
    hi = mp.pi * (n + mp.mpf(nu) / 4 - mp.mpf(1) / 8)
    if hi - lo < mp.mpf("1e-15"):
        return float(lo)
    flo = bessel_series_oracle(nu, lo)
    for _ in range(int(digits * 3.5)):
        mid = (lo + hi) / 2
        fm = bessel_series_oracle(nu, mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return float((lo + hi) / 2)


def eval_g(sig, t):
    """g(t) = sum_k weights[k] e^{lambda_k (t-T)} of a ControlSignal, on an array t."""
    E = np.exp(sig.lambdas_full[None, :] * (np.asarray(t, dtype=float)[:, None] - sig.T))
    return E @ sig.weights


def family_bits(fam):
    """Every field of a BiorthogonalFamily, arrays as bytes: families hold
    arrays, so ``==`` on two of them is undefined."""
    return (fam.T, fam.tol, fam.gram_condition, *(arr.tobytes() for arr in (
        fam.lambdas_full, fam.coeffs_reflected, fam.residual, fam.gram)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
