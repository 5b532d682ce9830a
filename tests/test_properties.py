"""Property tests over the documented domain: the sweep agrees with its
per-alpha parts, and repeated builds are equal but never shared."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from degctrl import (AccuracyError, MomentVector, build_biortho, cost_lower,
                     cost_sweep, cost_upper, make_basis, project, unit_moment)

from conftest import family_bits

HORIZONS = st.sampled_from([0.5, 1.0, 2.0])
ALPHAS = st.floats(0.0, 0.99)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(alphas=st.lists(ALPHAS, min_size=1, max_size=3).map(sorted), T=HORIZONS,
       n=st.integers(6, 12))
def test_sweep_equals_per_alpha_calls(alphas, T, n):
    report = cost_sweep(alphas, "mode:1", T, n)
    limit_coeffs = np.eye(n)[0]
    for alpha, point in zip(alphas, report.points):
        c = unit_moment(make_basis(alpha, n), 1).coefficients
        mu0 = MomentVector(alpha=alpha, coefficients=c / np.linalg.norm(c),
                           basis_id=f"alpha={alpha!r};N={n}")
        lower = cost_lower(alpha, mu0, T, limit_coeffs=limit_coeffs)
        assert point.lower.hex() == lower.hex()
        try:
            up = cost_upper(alpha, mu0, T, n)
        except AccuracyError as err:
            assert (point.ok, point.upper, point.n_used, point.message) == (
                False, None, None, str(err))
        else:
            assert (point.ok, point.upper.hex(), point.n_used) == (
                True, up.value.hex(), up.n_used)


def _family(lambdas, T):
    """A family's bits, or the class and message of its rejection."""
    try:
        fam = build_biortho(lambdas, T)
    except AccuracyError as err:
        return (type(err).__name__, str(err)), None
    return family_bits(fam), fam


def _bump(x):
    return x * (1.0 - x)


#: what the first caller may do with its basis and family before the second call
USES = {
    "nothing": lambda basis, T: None,
    "fill_tables": lambda basis, T: project(basis, _bump),
    "write_a_read": lambda basis, T: basis.eigenvalues.__setitem__(slice(None), -1.0),
    "prefix_family": lambda basis, T: _family(
        replace(basis, modes=basis.modes[:max(1, basis.n_modes - 2)]).eigenvalues, T),
    "other_build": lambda basis, T: _family(make_basis(0.5 * basis.alpha, 4).eigenvalues,
                                            2.0 * T),
}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(alpha=ALPHAS, n=st.integers(1, 12), T=HORIZONS, family_first=st.booleans(),
       use=st.sampled_from(sorted(USES)))
def test_repeated_builds_are_equal_and_distinct(alpha, n, T, family_first, use):
    basis = make_basis(alpha, n)
    bits, fam = _family(basis.eigenvalues, T)
    coefficients = project(basis, _bump).coefficients.tobytes()
    USES[use](basis, T)
    if family_first:
        again_bits, again_fam = _family(basis.eigenvalues, T)
        again = make_basis(alpha, n)
    else:
        again = make_basis(alpha, n)
        again_bits, again_fam = _family(again.eigenvalues, T)
    assert again is not basis and again == basis
    assert again.eigenvalues.tobytes() == basis.eigenvalues.tobytes()
    assert project(again, _bump).coefficients.tobytes() == coefficients
    assert again_bits == bits
    if fam is not None:
        assert again_fam is not fam

