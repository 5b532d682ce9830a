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

