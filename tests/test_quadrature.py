import collections
import math

import numpy as np
import pytest

from degctrl import quadrature, simulate
from degctrl.quadrature import gauss_legendre, graded_rule, panel_rule


class TestGaussLegendre:
    @pytest.mark.parametrize("nodes", [12, 32, 64])
    def test_equals_leggauss_bit_for_bit_and_is_read_only(self, nodes):
        x, w = gauss_legendre(nodes)
        ref_x, ref_w = np.polynomial.legendre.leggauss(nodes)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
        for arr in (x, w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_each_node_count_is_computed_once(self, monkeypatch):
        leggauss = np.polynomial.legendre.leggauss
        calls = collections.Counter()

        def counted(nodes):
            calls[nodes] += 1
            return leggauss(nodes)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        quadrature.gauss_legendre.cache_clear()
        quadrature._unit_rule.cache_clear()
        for a, b, panels, nodes in [(0.0, 1.0, 8, 64), (0.0, 1.0, 16, 64), (0.0, 2.0, 24, 32)]:
            x, w = panel_rule(a, b, panels, nodes)
            assert len(x) == len(w) == panels * nodes
        assert max(calls.values()) == 1
        assert set(calls) == {32, 64}

    def test_module_rules_keep_their_bits(self):
        ref_x, ref_w = np.polynomial.legendre.leggauss(12)
        assert simulate._GAUSS_X.tobytes() == ref_x.tobytes()
        assert simulate._GAUSS_W.tobytes() == ref_w.tobytes()


class TestEmbeddedWeights:
    @pytest.mark.parametrize("nodes", [32, 64])
    def test_exact_to_half_the_degree_with_positive_weights(self, nodes):
        x, _ = gauss_legendre(nodes)
        w = quadrature.embedded_weights(nodes)
        kept = w != 0.0
        assert np.count_nonzero(kept) == nodes // 2 and np.all(w[kept] > 0.0)
        # every other node from each end: a half symmetric about 0
        assert np.array_equal(kept, kept[::-1]) and kept[0] and not kept[1]
        assert np.allclose(w, w[::-1], rtol=0.0, atol=1e-14)
        for degree in range(nodes // 2):
            exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
            assert abs(w @ x**degree - exact) < 1e-14, degree
        # one degree higher the rule is no longer exact: it is not the Gauss rule
        assert abs(w @ x ** (nodes // 2) - 2.0 / (nodes // 2 + 1)) > 1e-13

    def test_computed_once_per_count_and_read_only(self):
        w = quadrature.embedded_weights(64)
        assert quadrature.embedded_weights(64) is w
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestGradedRule:
    #: lambda_16 at alpha 0, (16 pi)^2, the largest 16th eigenvalue on [0, 1)
    LAMBDA_16 = (16.0 * math.pi) ** 2

    def test_layout(self):
        t, w = graded_rule(2.0)
        assert len(t) == len(w) == 408
        assert len(np.unique(t)) == 408 and np.all((0.0 < t) & (t < 2.0))
        assert np.all(w > 0.0) and abs(w.sum() - 2.0) < 1e-15
        # 24 nodes on each panel; the one next to t = T is 2^-16 of T wide
        assert np.count_nonzero(2.0 - t < 2.0 * 2.0 ** -16) == 24
        assert np.count_nonzero(t < 1.0) == 24

    @pytest.mark.parametrize("T", [0.1, 1.0, 4.0])
    def test_damped_exponentials_to_1e_13(self, T):
        # every rate up to 2 lambda_16, so c T up to 2 lambda_16 T
        t, w = graded_rule(T)
        for c in np.concatenate([[0.0], np.geomspace(1e-3, 2.0 * self.LAMBDA_16, 300)]):
            exact = T if c == 0.0 else -math.expm1(-c * T) / c
            got = np.dot(w, np.exp(c * (t - T)))
            assert abs(got - exact) <= 1e-13 * exact, c
