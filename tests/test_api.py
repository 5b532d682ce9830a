import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import degctrl
from degctrl.errors import DomainError, UsageError

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


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: run in a fresh interpreter: the degctrl.* modules loaded after each step
LOAD_STEPS = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("degctrl."))
import degctrl
steps = [loaded()]
degctrl.make_basis
steps.append(loaded())
degctrl.build_biortho
steps.append(loaded())
print(json.dumps(steps))
"""


class TestLazyLoading:
    def test_fresh_interpreter_loads_submodules_on_first_use(self):
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run([sys.executable, "-c", LOAD_STEPS], env=env,
                              capture_output=True, text=True, check=True)
        bare, basis, family = json.loads(proc.stdout)
        assert bare == []
        assert basis == ["degctrl.bessel", "degctrl.errors", "degctrl.quadrature",
                         "degctrl.spectrum"]
        assert family == sorted(basis + ["degctrl.biortho"])

    def test_each_name_is_its_submodules_object_bound_once_read(self):
        for name in degctrl.__all__:
            obj = getattr(degctrl, name)
            assert obj is getattr(sys.modules[obj.__module__], name), name
            assert obj.__module__.startswith("degctrl."), name
            assert vars(degctrl)[name] is obj, name   # later reads skip __getattr__
            assert name in dir(degctrl), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from degctrl import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == degctrl.__all__
        assert len(namespace) == 52

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            degctrl.no_such_name   # noqa: B018
        assert not hasattr(degctrl, "no_such_name")

    def test_submodules_resolve(self):
        assert degctrl.cli is importlib.import_module("degctrl.cli")
        assert degctrl.bessel is importlib.import_module("degctrl.bessel")


def _chain():
    basis = degctrl.make_basis(0.5, 6)
    fam = degctrl.build_biortho(basis.eigenvalues, 1.0)
    mu0 = degctrl.unit_moment(basis, 1)
    rest = degctrl.MomentVector(alpha=0.5, coefficients=np.zeros(6), basis_id=basis.basis_id)
    return basis, fam, mu0, degctrl.synthesize(basis, fam, mu0, rest)


#: name -> (call of (chain, k), a valid k, the error a non-int k raises)
INT_ARGUMENTS = {
    "unit_moment": (lambda c, k: degctrl.unit_moment(c[0], k), 2, DomainError),
    "source_coefficient": (lambda c, k: degctrl.source_coefficient(c[0], k), 2, DomainError),
    "source_coefficient_quadrature": (
        lambda c, k: degctrl.source_coefficient_quadrature(c[0], k), 2, DomainError),
    "eval_eigenfunction": (lambda c, k: degctrl.eval_eigenfunction(c[0], k, 0.5), 2,
                           DomainError),
    "neumann_trace_numeric": (lambda c, k: degctrl.neumann_trace_numeric(c[0], k, 1e-4), 2,
                              DomainError),
    "sigma_tilde_norm": (lambda c, k: c[1].sigma_tilde_norm(k), 2, DomainError),
    "eval_sigma": (lambda c, k: degctrl.eval_sigma(c[1], k, 0.5), 2, DomainError),
    "eval_sigma_reflected": (lambda c, k: c[1].eval_sigma_reflected(k, 0.5), 2, DomainError),
    "bessel_zero": (lambda c, k: degctrl.bessel_zero(0.3, k), 3, DomainError),
    "make_basis": (lambda c, k: degctrl.make_basis(0.5, k), 4, DomainError),
    "make_limit_basis": (lambda c, k: degctrl.make_limit_basis(k), 4, DomainError),
    "project_panels": (lambda c, k: degctrl.project(c[0], lambda x: x * (1.0 - x), panels=k),
                       8, DomainError),
    "cost_upper": (lambda c, k: degctrl.cost_upper(0.5, c[2], 1.0, k), 6, DomainError),
    "cost_sweep": (lambda c, k: degctrl.cost_sweep([0.5], "mode:1", 1.0, k), 6, DomainError),
    "evolve": (lambda c, k: degctrl.evolve(c[0], c[2], c[3], grid_size=k), 64, DomainError),
    "verify_seed": (lambda c, k: degctrl.verify(c[0], c[1], c[2], 1e-6, seed=k), 1,
                    UsageError),
    "save_csv_samples": (lambda c, k: c[3].save_csv(os.devnull, samples=k), 257, DomainError),
    "moment_residual_n_extra": (
        lambda c, k: degctrl.moment_residual(c[0], c[3], c[2], degctrl.MomentVector(
            alpha=0.5, coefficients=np.zeros(6), basis_id=c[0].basis_id), n_extra=k),
        2, UsageError),
}


class TestIntegerArguments:
    @pytest.mark.parametrize("name", INT_ARGUMENTS)
    def test_one_integer_rule(self, name):
        call, k, error = INT_ARGUMENTS[name]
        chain = _chain()
        call(chain, np.int64(k))   # a numpy int is an int
        for bad in (float(k), k + 0.5, True, np.True_):
            with pytest.raises(error, match="int, got"):
                call(chain, bad)

    def test_negative_save_csv_samples(self):
        # numpy's linspace would raise its own ValueError
        with pytest.raises(DomainError, match="samples must be nonnegative, got -1$"):
            _chain()[3].save_csv(os.devnull, samples=-1)
