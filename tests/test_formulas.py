import numpy as np
import pytest

from conftest import driven_chain
from tdpf.bounds import huyghebaert_bound
import tdpf.formulas as formulas
from tdpf.curves import ConstantCurve, ExpCurve, PolynomialCurve, TrigCurve
from tdpf.errors import ConvergenceError, InvalidInputError, NumericalBlowUpError
from tdpf.formulas import (EXACT, INSTANTANEOUS, Stage, evaluate_pf, fit_order,
                           measure_error, suzuki_a, suzuki_plan, trotterize)
from tdpf.linalg import PAULI, matrix_exp, spectral_norm
from tdpf.models import Hamiltonian, OperatorCurve
from tdpf.propagator import evolve

X, Z, I2 = PAULI["X"], PAULI["Z"], PAULI["I"]
TOL = 1e-12


def static_commuting():
    return Hamiltonian([
        OperatorCurve([(np.kron(Z, I2), ConstantCurve(0.8))]),
        OperatorCurve([(np.kron(I2, Z), ConstantCurve(0.5))]),
    ])


def static_noncommuting():
    return Hamiltonian([
        OperatorCurve([(np.kron(X, X), ConstantCurve(0.9))]),
        OperatorCurve([(np.kron(Z, I2) + np.kron(I2, Z), ConstantCurve(0.6))]),
    ])


class TestSuzukiPlan:
    def test_first_order(self):
        plan = suzuki_plan(1, 2)
        assert plan.stages == (Stage(1, 1.0, 0.0), Stage(2, 1.0, 0.0))
        assert plan.n_stages == 2 and plan.n_layers == 1

    def test_counts(self):
        assert suzuki_plan(4, 2).n_stages == 20  # 2 * 5 * Gamma
        assert suzuki_plan(6, 1).n_stages == 50
        assert suzuki_plan(2, 3).n_stages == 6

    def test_recursion_constants(self):
        assert suzuki_a(2) == pytest.approx(0.41449077179437573, abs=1e-15)
        assert 4 * suzuki_a(2) - 1 == pytest.approx(0.6579630871775029, abs=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    @pytest.mark.parametrize("family", [EXACT, INSTANTANEOUS])
    def test_alpha_sums_to_one(self, p, family):
        plan = suzuki_plan(p, 3, family)
        for g in (1, 2, 3):
            total = sum(st.alpha for st in plan.stages if st.gamma == g)
            assert total == pytest.approx(1.0, abs=1e-14)

    def test_odd_order_rejected(self):
        with pytest.raises(InvalidInputError):
            suzuki_plan(3, 2)

    @pytest.mark.parametrize("p", [2, 4])
    def test_palindromic_stage_list(self, p):
        # time reflection maps stage k to stage K+1-k with the same gamma and
        # alpha and with beta -> 1 - beta - alpha
        stages = suzuki_plan(p, 2).stages
        k_count = len(stages)
        for k, st in enumerate(stages):
            mirror = stages[k_count - 1 - k]
            assert mirror.gamma == st.gamma
            assert mirror.alpha == pytest.approx(st.alpha, abs=1e-12)
            assert mirror.beta == pytest.approx(1.0 - st.beta - st.alpha, abs=1e-12)

    def test_exact_family_window_invariants(self):
        plan = suzuki_plan(4, 2)
        assert plan.stages[0].beta == 0.0
        last = plan.stages[-1]
        assert last.beta + last.alpha == pytest.approx(1.0, abs=1e-14)
        for st in plan.stages:
            assert 0.0 <= st.beta <= 1.0
            assert -1e-14 <= st.beta + st.alpha <= 1.0 + 1e-14

    def test_instantaneous_first_order_evaluates_at_endpoint(self):
        plan = suzuki_plan(1, 2, INSTANTANEOUS)
        assert all(st.beta == 1.0 for st in plan.stages)


class TestEvaluatePf:
    def test_commuting_static_first_order_exact(self):
        ham = static_commuting()
        plan = suzuki_plan(1, 2)
        t = 0.7
        exact = evolve(ham.total_curve(), 0.0, t, tol=TOL)
        assert spectral_norm(evaluate_pf(plan, ham, t) - exact) <= 10 * TOL

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_static_reduces_to_time_independent_suzuki(self, p):
        # segments collapse to plain matrix exponentials for constant terms
        ham = static_noncommuting()
        t = 0.3
        mats = [ham.term(1).value(0.0), ham.term(2).value(0.0)]
        plan = suzuki_plan(p, 2)
        direct = np.eye(4, dtype=complex)
        for st in plan.stages:
            direct = matrix_exp(-1j * st.alpha * t * mats[st.gamma - 1]) @ direct
        assert spectral_norm(evaluate_pf(plan, ham, t) - direct) <= 1e-10

    def test_driven_strang_matches_bruteforce(self, driven2):
        # independent re-implementation: S2 = U1(t,t/2) U2(t,t/2) U2(t/2,0) U1(t/2,0)
        t = 0.05
        seg = lambda g, a, b: evolve(driven2.term(g), a, b, tol=1e-13)
        brute = (seg(1, t / 2, t) @ seg(2, t / 2, t)
                 @ seg(2, 0.0, t / 2) @ seg(1, 0.0, t / 2))
        got = evaluate_pf(suzuki_plan(2, 2), driven2, t)
        assert spectral_norm(got - brute) <= 1e-10

    def test_term_count_mismatch(self, driven2):
        with pytest.raises(InvalidInputError):
            evaluate_pf(suzuki_plan(1, 3), driven2, 0.1)

    @pytest.mark.parametrize("family", [EXACT, INSTANTANEOUS])
    def test_unitary(self, driven2, family):
        plan = suzuki_plan(2, 2, family)
        s = evaluate_pf(plan, driven2, 0.4)
        slack = plan.n_stages * 10 * TOL
        assert spectral_norm(s.conj().T @ s - np.eye(4)) <= slack

    def test_general_t0_matches_shifted_model(self):
        # evolving on [t0, t] equals evolving the time-shifted model on [0, t - t0]
        t0, t = 0.3, 0.55
        ham = driven_chain(2)
        shifted = Hamiltonian([
            OperatorCurve([(mat, TrigCurve(c.amp, c.omega, c.phase + c.omega * t0,
                                           c.offset))
                           for mat, c in term.summands])
            for term in ham.terms])
        for family in (EXACT, INSTANTANEOUS):
            plan = suzuki_plan(2, 2, family)
            a = evaluate_pf(plan, ham, t, t0=t0)
            b = evaluate_pf(plan, shifted, t - t0)
            assert spectral_norm(a - b) <= 1e-11

    def test_strang_time_reversal(self, driven2):
        # S2(t,0)^dag equals the Strang formula for the sign-flipped
        # time-reversed terms tau -> -H(t - tau)
        t = 0.2
        plan = suzuki_plan(2, 2)
        reversed_ham = Hamiltonian([
            OperatorCurve([(-mat, TrigCurve(c.amp, -c.omega, c.omega * t + c.phase,
                                            c.offset))
                           for mat, c in term.summands])
            for term in driven2.terms])
        fwd = evaluate_pf(plan, driven2, t)
        rev = evaluate_pf(plan, reversed_ham, t)
        assert spectral_norm(fwd.conj().T - rev) <= 1e-11


SINGLE_CURVES = [ConstantCurve(0.8), TrigCurve(amp=0.9, omega=2.3, phase=0.4, offset=0.3),
                 PolynomialCurve([0.2, -1.0, 0.5, 2.0]), ExpCurve(amp=1.1, rate=-0.8)]


def single_term(curve, factor=1.0):
    """One term: (X x X + Z x I) times ``curve``, scaled by ``factor``."""
    return Hamiltonian([OperatorCurve([(np.kron(X, X) + np.kron(Z, I2), curve)])
                        .scaled(factor)])


class TestClosedFormSegments:
    @pytest.mark.parametrize("factor", [1.0, 1.0 + 0.1j], ids=["hermitian", "scaled"])
    @pytest.mark.parametrize("curve", SINGLE_CURVES, ids=lambda c: c.kind)
    def test_single_curve_segment_matches_evolve(self, monkeypatch, curve, factor):
        # the one-stage plan of a one-term model is one segment U(t, t0)
        ham = single_term(curve, factor)
        t0, t = 0.15, 0.6
        want = evolve(ham.term(1), t0, t, tol=TOL)
        calls = []
        monkeypatch.setattr(formulas, "evolve", lambda *a, **k: calls.append(a))
        got = evaluate_pf(suzuki_plan(1, 1), ham, t, t0=t0, oracle_tol=TOL)
        assert not calls
        assert spectral_norm(got - want) <= TOL

    @pytest.mark.parametrize("curve", SINGLE_CURVES, ids=lambda c: c.kind)
    def test_backward_windows_compose(self, curve):
        # fourth order runs its middle windows backward (negative F); for a
        # term commuting with itself at all times the stages compose exactly
        ham = single_term(curve, 1.0 + 0.1j)
        want = evolve(ham.term(1), 0.0, 0.7, tol=TOL)
        plan = suzuki_plan(4, 1)
        assert any(st.alpha < 0 for st in plan.stages)
        got = evaluate_pf(plan, ham, 0.7, oracle_tol=TOL)
        assert spectral_norm(got - want) <= 2 * TOL

    def test_only_multi_curve_and_extended_terms_call_evolve(self, monkeypatch, driven2):
        calls = []
        real_evolve = formulas.evolve

        def counting_evolve(term, *args, **kwargs):
            calls.append(term)
            return real_evolve(term, *args, **kwargs)

        monkeypatch.setattr(formulas, "evolve", counting_evolve)
        plan = suzuki_plan(2, 2)
        evaluate_pf(plan, driven2, 0.1)  # a bond term and a field term
        assert not calls
        two_curves = Hamiltonian([
            driven2.term(1),
            OperatorCurve([(np.kron(Z, I2), TrigCurve(0.8, 3.1)),
                           (np.kron(I2, Z), ConstantCurve(0.5))])])
        evaluate_pf(plan, two_curves, 0.1)
        assert calls == [two_curves.term(2)] * 2
        calls.clear()
        extended = driven2.extended(0.1, 2)
        evaluate_pf(plan, extended, 0.1)
        assert len(calls) == plan.n_stages

    def test_overflowing_integral_raises(self):
        ham = single_term(ExpCurve(1.0, 800.0))
        with pytest.raises(NumericalBlowUpError):
            evaluate_pf(suzuki_plan(1, 1), ham, 1.0)

    def test_round_off_past_the_segment_tolerance_raises(self):
        # ||A|| = 2e4 and F = 1: round-off 2^-52 * 2e4 = 4.4e-12 > 1e-12
        ham = Hamiltonian([OperatorCurve([(2e4 * X, ConstantCurve(1.0))])])
        with pytest.raises(ConvergenceError):
            evaluate_pf(suzuki_plan(1, 1), ham, 1.0, oracle_tol=1e-12)
        evaluate_pf(suzuki_plan(1, 1), ham, 0.1, oracle_tol=1e-12)  # 4.4e-13 passes


class TestTrotterize:
    def test_r1_is_single_window(self, driven2):
        t = 0.15
        a = trotterize(suzuki_plan(2, 2), driven2, t, 1)
        b = evaluate_pf(suzuki_plan(2, 2), driven2, t)
        assert np.array_equal(a, b)

    def test_error_shrinks_with_r(self, driven2):
        t = 0.4
        plan = suzuki_plan(2, 2)
        e1 = measure_error(plan, driven2, t, r=1)
        e2 = measure_error(plan, driven2, t, r=2)
        assert e2 < e1

    def test_commuting_static_exact_any_r(self):
        ham = static_commuting()
        exact = evolve(ham.total_curve(), 0.0, 0.9, tol=TOL)
        for r in (1, 3):
            got = trotterize(suzuki_plan(1, 2), ham, 0.9, r)
            assert spectral_norm(got - exact) <= r * 10 * TOL

    def test_r_zero_rejected(self, driven2):
        with pytest.raises(InvalidInputError):
            trotterize(suzuki_plan(1, 2), driven2, 0.1, 0)


class TestMeasureError:
    def test_zero_time(self, driven2):
        assert measure_error(suzuki_plan(1, 2), driven2, 0.0) <= 10 * TOL

    def test_commuting_static_floor(self):
        assert measure_error(suzuki_plan(1, 2), static_commuting(), 0.6) <= 10 * TOL

    def test_below_first_order_bound(self, driven2):
        t = 0.1
        err = measure_error(suzuki_plan(1, 2), driven2, t)
        assert err <= huyghebaert_bound(driven2, t).value


class TestFitOrder:
    def test_exact_power_law(self):
        ts = np.geomspace(1e-3, 1e-2, 6)
        errs = 2.7 * ts**3
        fit = fit_order(ts, errs)
        assert fit.slope == pytest.approx(3.0, abs=1e-10)
        assert fit.intercept == pytest.approx(np.log(2.7), abs=1e-9)

    def test_measured_orders(self, driven2):
        for p, lo, hi in ((1, 1.85, 2.15), (2, 2.85, 3.15)):
            ts = np.geomspace(4e-3, 4e-2, 6)
            errs = [measure_error(suzuki_plan(p, 2), driven2, t) for t in ts]
            fit = fit_order(ts, errs)
            assert lo <= fit.slope <= hi

    def test_window_violation(self):
        ts = np.geomspace(1e-3, 1e-2, 6)
        with pytest.raises(InvalidInputError):
            fit_order(ts, 1e-12 * np.ones(6))
        with pytest.raises(InvalidInputError):
            fit_order(ts, 0.5 * np.ones(6))

    def test_needs_five_points(self):
        with pytest.raises(InvalidInputError):
            fit_order([1e-3, 2e-3], [1e-6, 4e-6])

    def test_needs_five_distinct_times(self):
        ts = list(np.geomspace(1e-3, 1e-2, 5))
        for repeated in ([ts[0]] * 5, ts[:4] + [ts[3]], ts[:4] * 2):
            with pytest.raises(InvalidInputError, match="5 grid points"):
                fit_order(repeated, 2.7 * np.array(repeated) ** 3)
        # a repeat beside five distinct times still fits
        fit = fit_order(ts + [ts[0]], 2.7 * np.array(ts + [ts[0]]) ** 3)
        assert fit.slope == pytest.approx(3.0, abs=1e-10)
        assert fit.n_points == 6
