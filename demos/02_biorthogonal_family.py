#!/usr/bin/env python3
"""Construct a biorthogonal family to the exponentials e^{lambda_n t}.

The moment method needs functions sigma_n on [0, T] with

    int_0^T sigma_n(t) e^{lambda_m t} dt = delta_nm,
    int_0^T sigma_n(t) dt = 0,

the zero-mean condition coming from an artificial exponent lambda_0 = 0
adjoined to the family (it is what lets the accumulated control G return
to zero at time T). Each sigma_n solves a small Gram system of
exponential inner products; the family's L2 norms follow the classical
envelope B_T e^{K sqrt(lambda_n)} e^{-lambda_n T}.
"""

import numpy as np

from degctrl import bound_profile, build_biortho, eval_sigma, make_basis

basis = make_basis(alpha=0.5, n_modes=8)
fam = build_biortho(basis.eigenvalues, T=1.0)

print(f"Gram condition number: {fam.gram_condition:.3e}")
print(f"biorthogonality residual against the long-double Gram: {fam.residual_max:.3e}")
print(f"worst zero-mean defect |int sigma_n dt|: "
      f"{np.max(np.abs(fam.zero_mean_values)):.3e}")

# Replay the defining property by plain quadrature for a few pairs.
t = np.linspace(0.0, 1.0, 4001)
w = np.full_like(t, t[1] - t[0])
w[0] *= 0.5
w[-1] *= 0.5  # trapezoid weights, deliberately unsophisticated
print("\ntrapezoid replay of int sigma_n e^{lambda_m t} dt (n, m <= 3):")
for n in (1, 2, 3):
    row = []
    for m in (1, 2, 3):
        lam = fam.lambdas[m - 1]
        damped = np.dot(w, eval_sigma(fam, n, t) * np.exp(lam * (t - 1.0)))
        row.append(damped * np.exp(lam))
    print("  " + "  ".join(f"{v:+.6f}" for v in row))

# Norm growth: ||sigma_n|| e^{lambda_n T} should trace e^{K sqrt(lambda_n)}.
prof = bound_profile(fam)
print("\nlog ||sigma_n|| + lambda_n T against sqrt(lambda_n):")
for n in range(1, 9):
    print(f"  n={n}: {np.log(fam.sigma_tilde_norm(n)):8.4f}")
print(f"fitted growth constant K = {prof.K:.4f}, B_T = {prof.B:.2f} "
      f"(relative RMS misfit {prof.fit_rel_rms:.1%})")

# The gap condition keeps conditioning comparable across the whole
# degeneracy range, not just at alpha = 0.
print("\nGram condition across alpha:")
for alpha in (0.0, 0.5, 0.9):
    f = build_biortho(make_basis(alpha, 8).eigenvalues, T=1.0)
    print(f"  alpha={alpha}: {f.gram_condition:.3e}")
