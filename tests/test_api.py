import degctrl

#: names deleted because only tests used them: owner -> attributes
DELETED = {
    degctrl.bessel: ("landau_check", "LandauReport", "gamma_fn"),
    degctrl.spectrum: ("state_l2_norm",),
    degctrl.cost: ("cost_global", "GLOBAL_TEST_SET"),
    degctrl.BiorthogonalFamily: ("span_coefficients", "sigma_norm",
                                 "log_sigma_norm", "save_json"),
    degctrl.SpectralBasis: ("save_json",),
    degctrl.CostReport: ("save_json",),
    degctrl.Trajectory: ("save_json",),
    degctrl.BoundProfile: ("margins",),
    degctrl.ReachabilityScore: ("terms",),
    degctrl.BesselEval: ("term_count",),
    degctrl.simulate: ("reconstruct_state",),
    degctrl.LimitBasis: ("eval", "gram"),
    degctrl.ControlSignal: ("eval_g",),
}


class TestPublicNames:
    def test_every_exported_name_resolves_once(self):
        assert len(set(degctrl.__all__)) == len(degctrl.__all__)
        assert all(hasattr(degctrl, name) for name in degctrl.__all__)

    def test_deleted_names_are_gone(self):
        for owner, names in DELETED.items():
            for name in names:
                assert not hasattr(owner, name), name
                assert not hasattr(degctrl, name), name
                assert name not in degctrl.__all__
