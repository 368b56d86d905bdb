import numpy as np
import pytest

from tdpf.bounds import mpf_bound
from tdpf.curves import ConstantCurve
from tdpf.errors import InvalidInputError
from tdpf.formulas import evaluate_pf, fit_order, suzuki_plan
from tdpf.linalg import PAULI, spectral_norm
from tdpf.models import Hamiltonian, OperatorCurve
from tdpf.multiproduct import (MpfPlan, evaluate_mpf, measure_mpf_error,
                               moment_residual, mpf_plan, solve_coefficients)
from tdpf.propagator import evolve

X, Z, I2 = PAULI["X"], PAULI["Z"], PAULI["I"]


def static_commuting():
    return Hamiltonian([
        OperatorCurve([(np.kron(Z, I2), ConstantCurve(0.8))]),
        OperatorCurve([(np.kron(I2, Z), ConstantCurve(0.5))]),
    ])


class TestCoefficients:
    def test_single_product(self):
        assert solve_coefficients([1]) == pytest.approx([1.0])

    def test_two_products(self):
        # c1 + c2 = 1, c1 + c2/4 = 0
        c = solve_coefficients([1, 2])
        assert c == pytest.approx([-1.0 / 3.0, 4.0 / 3.0], abs=1e-14)

    @pytest.mark.parametrize("j", range(1, 9))
    def test_residuals_up_to_cap(self, j):
        ks = list(range(1, j + 1))
        assert moment_residual(ks, solve_coefficients(ks)) <= 1e-12

    def test_duplicate_k_rejected(self):
        with pytest.raises(InvalidInputError):
            solve_coefficients([1, 2, 2])

    def test_cap(self):
        with pytest.raises(InvalidInputError):
            solve_coefficients(list(range(1, 10)))


class TestPlans:
    def test_sequential_choice(self):
        plan = mpf_plan(2)
        assert plan.k == (1, 2)
        assert plan.k_norm == 3.0
        assert plan.c_norm == pytest.approx(5.0 / 3.0, abs=1e-14)

    def test_j4_norms_reported(self):
        plan = mpf_plan(4)
        assert np.isfinite(plan.c_norm) and plan.c_norm > 1.0
        assert plan.k_norm == 10.0

    def test_plan_validates_moments(self):
        with pytest.raises(InvalidInputError):
            MpfPlan((1, 2), (0.5, 0.5))
        with pytest.raises(InvalidInputError):
            MpfPlan((2, 1), (4.0 / 3.0, -1.0 / 3.0))

    def test_serialization(self):
        js = mpf_plan(2).to_json()
        assert set(js) == {"J", "k", "c", "p", "c_norm", "k_norm"}
        assert js["J"] == 2 and js["k"] == [1, 2] and js["p"] == 2
        assert js["c"] == pytest.approx([-1.0 / 3.0, 4.0 / 3.0], abs=1e-14)
        assert all(isinstance(c, float) for c in js["c"])


class TestEvaluation:
    def test_single_product_is_base_formula(self, driven2):
        t = 0.2
        got = evaluate_mpf(mpf_plan(1), driven2, t)
        want = evaluate_pf(suzuki_plan(2, 2), driven2, t)
        assert np.allclose(got, want, atol=1e-14)

    def test_commuting_static_floor(self):
        ham = static_commuting()
        plan = mpf_plan(2)
        t = 0.6
        exact = evolve(ham.total_curve(), 0.0, t, tol=1e-12)
        slack = sum(abs(c) * k for c, k in zip(plan.c, plan.k)) * 10 * 1e-12
        assert spectral_norm(evaluate_mpf(plan, ham, t) - exact) <= slack

    def test_zero_time(self, driven2):
        # moment condition m=0 makes sum_j c_j I = I
        assert measure_mpf_error(mpf_plan(2), driven2, 0.0) <= 1e-11

    def test_order_five_convergence(self, driven2):
        plan = mpf_plan(2)
        ts = np.geomspace(0.04, 0.2, 6)
        errs = [measure_mpf_error(plan, driven2, t) for t in ts]
        fit = fit_order(ts, errs)
        assert 4.7 <= fit.slope <= 5.3

    def test_more_products_help(self, driven2):
        t = 0.1
        assert (measure_mpf_error(mpf_plan(2), driven2, t)
                < measure_mpf_error(mpf_plan(1), driven2, t))

    def test_error_below_bound_in_regime(self, driven2):
        plan = mpf_plan(2)
        for t in (0.02, 0.04):
            err = measure_mpf_error(plan, driven2, t)
            rep = mpf_bound(driven2, t, 2, plan.c_norm)
            assert err <= rep.value

    def test_near_unitarity_controlled_by_error(self, driven2):
        plan = mpf_plan(2)
        t = 0.15
        n = evaluate_mpf(plan, driven2, t)
        err = measure_mpf_error(plan, driven2, t)
        dev = spectral_norm(n.conj().T @ n - np.eye(4))
        assert dev <= 2 * err + err**2 + 1e-10
