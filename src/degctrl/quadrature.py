"""Composite Gauss-Legendre rules.

Nodes never touch panel endpoints, so integrands with integrable endpoint
behaviour (fractional powers at 0) can be fed directly.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def gauss_legendre(nodes: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=16)
def embedded_weights(nodes: int):
    """Read-only weights on [-1, 1] of the rule embedded in the ``nodes``-point
    Gauss-Legendre rule, computed once per count: interpolatory on every
    other node counted from each end, a half symmetric about 0, and zero on
    the others. At 64 nodes it is exact to degree 31 with positive weights,
    so its difference from the Gauss rule on the same integrand values
    estimates the error with no new evaluation.
    """
    x, _ = gauss_legendre(nodes)
    kept = np.minimum(np.arange(nodes), np.arange(nodes)[::-1]) % 2 == 0
    vander = np.polynomial.legendre.legvander(x[kept], np.count_nonzero(kept) - 1)
    w = np.zeros(nodes)   # sum_i w_i P_k(x_i) = int_{-1}^{1} P_k = 2 delta_k0
    w[kept] = np.linalg.solve(vander.T, 2.0 * np.eye(len(vander))[0])
    w.flags.writeable = False
    return w


@lru_cache(maxsize=64)
def _unit_rule(panels: int, nodes: int):
    """Nodes/weights of the composite rule on [0, 1], cached."""
    xg, wg = gauss_legendre(nodes)
    edges = np.linspace(0.0, 1.0, panels + 1)
    h = 1.0 / panels
    x = ((xg[None, :] + 1.0) * (h / 2.0) + edges[:-1, None]).ravel()
    w = np.tile(wg * (h / 2.0), panels)
    return x, w


def panel_rule(a: float, b: float, panels: int = 8, nodes: int = 64):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _unit_rule(panels, nodes)
    return a + (b - a) * x, (b - a) * w


def edge_rule(edges, nodes: int):
    """Composite Gauss-Legendre nodes and weights with ``nodes`` points on
    each panel [edges[k], edges[k+1]] of increasing ``edges``."""
    xg, wg = gauss_legendre(nodes)
    edges = np.asarray(edges, dtype=float)
    a, h = edges[:-1, None], np.diff(edges)[:, None]
    return (a + h * (xg + 1.0) / 2.0).ravel(), (h / 2.0 * wg).ravel()


@lru_cache(maxsize=1)
def _graded_unit():
    """Distances s from the end and weights of the graded rule on [0, 1]:
    24 Gauss nodes on each of [2^-(k+1), 2^-k], k < 16, and [0, 2^-16]."""
    return edge_rule(np.concatenate([[0.0], 2.0 ** -np.arange(16, -1, -1)]), 24)


def graded_rule(T: float):
    """Gauss-Legendre nodes and weights on [0, T], 408 points on 17 panels
    that shrink geometrically toward t = T, where the damped exponentials
    e^{lambda (t-T)} of a family and its control have their boundary
    layers. For T up to 4 it integrates e^{-c (T-t)} to 1e-13 relative
    for every c up to 2 lambda_16 (5,053 at alpha 0), so every product of
    two exponentials of a 16-mode family."""
    s, w = _graded_unit()
    return T - T * s, T * w
