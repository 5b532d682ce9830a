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
