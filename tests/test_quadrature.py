import collections

import numpy as np
import pytest

from degctrl import biortho, quadrature, simulate
from degctrl.quadrature import gauss_legendre, panel_rule


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
        # long double bytes hold padding, so those compare by value, exactly
        ref_x, ref_w = np.polynomial.legendre.leggauss(32)
        assert biortho._XG.dtype == biortho._WG.dtype == np.longdouble
        assert (biortho._XG == ref_x.astype(np.longdouble)).all()
        assert (biortho._WG == ref_w.astype(np.longdouble)).all()
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
