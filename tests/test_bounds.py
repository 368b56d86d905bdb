import math
from itertools import product

import numpy as np
import pytest

from conftest import driven_chain, random_matrix
import tdpf.bounds as bounds
import tdpf.models as models
from tdpf.bounds import (_tight_sum, alpha_com, bar_alpha_com, corollary_bound,
                         grid_max, huyghebaert_bound, mpf_bound,
                         mpf_bound_value, nonunitary_bound, tight_bound)
from tdpf.curves import ConstantCurve, ExpCurve, PolynomialCurve, TrigCurve
from tdpf.errors import (BudgetExceededError, InvalidInputError,
                         OutOfRegimeError, UnsupportedOrderError)
from tdpf.formulas import measure_error, suzuki_plan
from tdpf.linalg import (PAULI, embed_pauli_string, pauli_permutation, spectral_norm,
                         translation_permutation)
from tdpf.models import Hamiltonian, OperatorCurve, build_long_range
from tdpf.sectors import MIN_DIM, find_symmetries

X, Z, I2 = PAULI["X"], PAULI["Z"], PAULI["I"]


def static_commuting():
    return Hamiltonian([
        OperatorCurve([(np.kron(Z, I2), ConstantCurve(0.8))]),
        OperatorCurve([(np.kron(I2, Z), ConstantCurve(0.5))]),
    ])


def static_terms(rng, n_terms, dim=4):
    return Hamiltonian([
        OperatorCurve([(random_matrix(rng, dim, hermitian=True), ConstantCurve(1.0))])
        for _ in range(n_terms)])


def single_qubit_fg():
    f = TrigCurve(0.7, 1.9, phase=0.3)
    g = TrigCurve(0.5, 2.6, offset=0.2)
    return Hamiltonian([OperatorCurve([(X, f)]), OperatorCurve([(Z, g)])]), f, g


def with_zero_term(ham):
    return Hamiltonian(list(ham.terms) + [OperatorCurve([], dim=ham.dim)])


def stage_weights(plan, n_terms):
    """(odd_weights, even_weight, seed_counts) of the grouped tight sum."""
    stages = plan.stages
    odd_weights = {g: 0.0 for g in range(1, n_terms + 1)}
    seed_counts = {g: 0 for g in range(1, n_terms + 1)}
    for st in stages:
        odd_weights[st.gamma] += abs(st.alpha)
        seed_counts[st.gamma] += 1
    even_weight = sum(abs(stages[k + 1].beta - stages[k].beta - stages[k].alpha)
                      for k in range(len(stages) - 1))
    return odd_weights, even_weight, seed_counts


# Reference evaluation: every sequence from scratch, no shared prefixes.

def ref_value(ham, seed, seq, tau, q=0):
    """q-th derivative at tau of D_{s_k} ... D_{s_1} H_seed, where the step
    (g, c) maps X to [H_g, X] + c dX/dt and g None means c dX/dt alone."""
    if not seq:
        return ham.term(seed).value(tau, q)
    *inner, (g, c) = seq
    out = np.zeros((ham.dim, ham.dim), dtype=np.complex128)
    if g is not None:
        for r in range(q + 1):
            h = ham.term(g).value(tau, r)
            x = ref_value(ham, seed, inner, tau, q - r)
            out += math.comb(q, r) * (h @ x - x @ h)
    if c:
        out += c * ref_value(ham, seed, inner, tau, q + 1)
    return out


def ref_sum(ham, tau, p, seeds, steps):
    """fsum over seeds (gamma, w) and length-p step sequences (w, g, c) of
    the weight product times the norm of the nested operator."""
    total = []
    for gamma, weight in seeds:
        for seq in product(steps, repeat=p):
            w = weight * math.prod(s[0] for s in seq)
            node = ref_value(ham, gamma, [s[1:] for s in seq], tau)
            total.append(w * spectral_norm(node))
    return math.fsum(total)


def ref_alpha_com(ham, order, tau, deriv_coefficient):
    n = ham.n_terms
    steps = [(1.0, g, 0) for g in range(1, n + 1)] + [(1.0, None, deriv_coefficient)]
    return ref_sum(ham, tau, order - 1, [(g, 1.0) for g in range(1, n + 1)], steps)


def ref_tight_sum(plan, ham, tau):
    odd_weights, even_weight, seed_counts = stage_weights(plan, ham.n_terms)
    gammas = range(1, ham.n_terms + 1)
    steps = [(odd_weights[g], g, 1j) for g in gammas] + [(even_weight, None, 1j)]
    return ref_sum(ham, tau, plan.order, [(g, seed_counts[g]) for g in gammas], steps)


PARITY_MODELS = {
    "chain2": lambda: driven_chain(2),
    "chain3": lambda: driven_chain(3),
    "chain4": lambda: driven_chain(4),
    "long-range": lambda: build_long_range(
        2, 1.5, {"XX": PolynomialCurve([1.0, 0.5, -0.3]), "ZZ": ExpCurve(0.7, -1.2)},
        {"Z": TrigCurve(0.4, 1.3)}),
    "zero-term": lambda: with_zero_term(single_qubit_fg()[0]),
}


class TestNestedReference:
    def test_reference_vs_finite_differences(self):
        ham, _f, _g = single_qubit_fg()
        for seq in ([(1, 0)], [(1, 1j)], [(1, 0), (None, 2.0)]):
            for tau in (0.2, 0.7):
                for q in (1, 2):
                    h = 1e-5
                    approx = (ref_value(ham, 2, seq, tau + h, q - 1)
                              - ref_value(ham, 2, seq, tau - h, q - 1)) / (2 * h)
                    exact = ref_value(ham, 2, seq, tau, q)
                    assert spectral_norm(exact - approx) <= 1e-6 * max(
                        1.0, spectral_norm(exact))

    @pytest.mark.parametrize("model", sorted(PARITY_MODELS))
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_alpha_com_matches_reference(self, model, p):
        ham = PARITY_MODELS[model]()
        expected = ref_alpha_com(ham, p + 1, 0.37, 2.0 * ham.n_terms)
        assert alpha_com(ham, p + 1, 0.37) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("model", sorted(PARITY_MODELS))
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_bar_alpha_com_matches_reference(self, model, p):
        ham = PARITY_MODELS[model]()
        expected = ref_alpha_com(ham, p + 1, 0.37, 1.0)
        assert bar_alpha_com(ham, p + 1, 0.37) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("model", sorted(PARITY_MODELS))
    @pytest.mark.parametrize("p", [1, 2])
    def test_tight_sum_matches_reference(self, model, p):
        ham = PARITY_MODELS[model]()
        plan = suzuki_plan(p, ham.n_terms)
        expected = ref_tight_sum(plan, ham, 0.37)
        grouped = _tight_sum(plan, ham, 0.37, *stage_weights(plan, ham.n_terms))
        assert grouped == pytest.approx(expected, rel=1e-12)


def non_hermitian_pair():
    """Two terms with non-Hermitian matrices."""
    a = np.array([[0.3, 1.2], [-0.4, 0.1j]])
    return Hamiltonian([OperatorCurve([(a, TrigCurve(0.9, 1.7, phase=0.2))]),
                        OperatorCurve([(Z, PolynomialCurve([0.5, -0.8, 0.3]))])])


class TestTauBatch:
    @pytest.mark.parametrize("order", [2, 3])
    def test_array_matches_per_float_calls_across_chunks(self, order):
        ham = driven_chain(7)  # two parity sectors of 64: eight taus per chunk
        taus = np.linspace(0.0, 0.9, 6)
        for fn in (alpha_com, bar_alpha_com):
            batch = fn(ham, order, taus)
            assert isinstance(batch, np.ndarray) and batch.shape == (6,)
            single = [fn(ham, order, float(tau)) for tau in taus]
            assert isinstance(single[0], float)
            np.testing.assert_allclose(batch, single, rtol=1e-12)

    def test_tight_sum_array_matches_per_float_calls(self):
        ham = driven_chain(7)
        plan = suzuki_plan(1, 2)
        weights = stage_weights(plan, 2)
        taus = np.linspace(0.05, 0.6, 5)
        batch = _tight_sum(plan, ham, taus, *weights)
        single = [_tight_sum(plan, ham, float(tau), *weights) for tau in taus]
        np.testing.assert_allclose(batch, single, rtol=1e-12)


class TestHermitianFastPath:
    def record_paths(self, monkeypatch):
        flags = []
        real = bounds.spectral_norms

        def spy(stack, hermitian=False):
            flags.append(hermitian)
            return real(stack, hermitian)

        monkeypatch.setattr(bounds, "spectral_norms", spy)
        return flags

    def test_hermitian_terms_skip_the_product(self, monkeypatch):
        flags = self.record_paths(monkeypatch)
        alpha_com(driven_chain(3), 3, 0.2)
        _tight_sum(suzuki_plan(2, 2), driven_chain(2), 0.2,
                   *stage_weights(suzuki_plan(2, 2), 2))
        assert flags and all(flags)

    def test_flag_does_not_choose_the_path(self, monkeypatch):
        ham = non_hermitian_pair()
        assert not ham.term(1).is_hermitian
        flags = self.record_paths(monkeypatch)
        alpha_com(ham, 3, 0.4)
        assert flags and not any(flags)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_non_hermitian_matches_reference(self, p):
        ham = non_hermitian_pair()
        for tau in (0.0, 0.37):
            expected = ref_alpha_com(ham, p + 1, tau, 2.0 * ham.n_terms)
            assert alpha_com(ham, p + 1, tau) == pytest.approx(expected, rel=1e-12)

    def test_real_derivative_coefficient_in_a_commutator_step(self):
        # ad_H + c d/dt with real c != 0 leaves the i^k form: general path
        ham = driven_chain(2)
        seeds = [(1, 1.0), (2, 1.0)]
        steps = [(1.0, 1, 0.7), (0.5, 2, 1j), (0.3, None, -1.3)]
        for p in (1, 2):
            expected = ref_sum(ham, 0.3, p, seeds, steps)
            got = bounds._nested_norm_sum(ham, 0.3, p, seeds, steps)
            assert got == pytest.approx(expected, rel=1e-12)


class TestDerivativeBudget:
    def test_budget_enforced(self):
        # the declared budget sits below the scalar curves' own budgets
        curve = OperatorCurve([(X, TrigCurve(1.0, 1.0))], derivative_budget=1)
        ham = Hamiltonian([curve, OperatorCurve([(Z, ConstantCurve(1.0))])])
        alpha_com(ham, 2, 0.1)  # one step needs one derivative
        tight_bound(suzuki_plan(1, 2), ham, 0.1, grid_points=5)
        with pytest.raises(BudgetExceededError) as err:
            alpha_com(ham, 3, 0.1)
        assert isinstance(err.value, InvalidInputError)
        with pytest.raises(BudgetExceededError):
            tight_bound(suzuki_plan(2, 2), ham, 0.1, grid_points=5)


class TestZeroTerm:
    def test_zero_term_is_never_differentiated(self):
        ham, _f, _g = single_qubit_fg()
        padded = with_zero_term(ham)
        assert padded.term(3).derivative_budget == 0
        # the zero term's sequences vanish, so the nonzero norms coincide
        for order in (2, 3, 5):
            assert bar_alpha_com(padded, order, 0.4) == bar_alpha_com(ham, order, 0.4)

    def test_zero_term_drops_only_its_commutator(self):
        # with H_3 = 0 the step ad_{H_3} + i d/dt is the even step i d/dt
        ham, _f, _g = single_qubit_fg()
        padded = with_zero_term(ham)
        plan = suzuki_plan(2, 3)
        odd_weights, even_weight, seed_counts = stage_weights(plan, 3)
        merged = dict(odd_weights)
        merged[3] = 0.0
        expected = _tight_sum(plan, padded, 0.3, merged,
                              even_weight + odd_weights[3], seed_counts)
        got = _tight_sum(plan, padded, 0.3, odd_weights, even_weight, seed_counts)
        assert got == pytest.approx(expected, rel=1e-12)


class TestAlphaCom:
    def test_static_commuting_vanishes(self):
        ham = static_commuting()
        for order in (2, 3, 4):
            assert alpha_com(ham, order, 0.3) == 0.0

    def test_static_two_terms_first_order(self, rng):
        ham = static_terms(rng, 2)
        h1 = ham.term(1).value(0.0)
        h2 = ham.term(2).value(0.0)
        expected = 2.0 * spectral_norm(h1 @ h2 - h2 @ h1)
        assert alpha_com(ham, 2, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_single_qubit_driven_first_order(self):
        # hand enumeration: || [X,Z] || = 2 and the derivative op weighs 2*Gamma
        ham, f, g = single_qubit_fg()
        for tau in (0.0, 0.4, 1.1):
            expected = (4.0 * abs(f.eval(tau) * g.eval(tau))
                        + 4.0 * (abs(f.eval(tau, 1)) + abs(g.eval(tau, 1))))
            assert alpha_com(ham, 2, tau) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n_terms", [2, 3])
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_static_reduction_matches_nested_enumeration(self, rng, n_terms, order):
        ham = static_terms(rng, n_terms)
        mats = [ham.term(g).value(0.0) for g in range(1, n_terms + 1)]
        total = 0.0
        for seq in product(range(n_terms), repeat=order):
            m = mats[seq[0]]
            for g in seq[1:]:
                m = mats[g] @ m - m @ mats[g]
            total += spectral_norm(m)
        assert alpha_com(ham, order, 0.7) == pytest.approx(total, rel=1e-10, abs=1e-10)

    def test_bar_variant(self):
        ham, f, g = single_qubit_fg()
        tau = 0.5
        expected = (4.0 * abs(f.eval(tau) * g.eval(tau))
                    + abs(f.eval(tau, 1)) + abs(g.eval(tau, 1)))
        assert bar_alpha_com(ham, 2, tau) == pytest.approx(expected, rel=1e-12)
        assert bar_alpha_com(ham, 2, tau) <= alpha_com(ham, 2, tau)

    def test_bar_equals_alpha_for_static(self, rng):
        ham = static_terms(rng, 2)
        assert bar_alpha_com(ham, 3, 0.1) == pytest.approx(
            alpha_com(ham, 3, 0.1), rel=1e-12)


class TestCorollaryBound:
    def test_static_commuting_zero(self):
        plan = suzuki_plan(1, 2)
        assert corollary_bound(plan, static_commuting(), 0.3).value == 0.0

    def test_static_time_power(self, rng):
        ham = static_terms(rng, 2)
        plan = suzuki_plan(2, 2)
        b1 = corollary_bound(plan, ham, 0.05).value
        b2 = corollary_bound(plan, ham, 0.10).value
        assert b2 == pytest.approx(2**3 * b1, rel=1e-9)

    def test_dominates_measured_error(self, driven2):
        plan = suzuki_plan(2, 2)
        t = 0.05
        assert measure_error(plan, driven2, t) <= corollary_bound(plan, driven2, t).value

    def test_grid_refinement_stable(self, driven2):
        plan = suzuki_plan(1, 2)
        coarse = corollary_bound(plan, driven2, 0.4, grid_points=65).value
        fine = corollary_bound(plan, driven2, 0.4, grid_points=260).value
        assert abs(fine - coarse) <= 0.01 * coarse

    def test_report_fields(self, driven2):
        rep = corollary_bound(suzuki_plan(1, 2), driven2, 0.2)
        assert rep.bound_kind == "corollary" and rep.p == 1 and rep.t == 0.2
        assert rep.term_count == 3 * 2  # (Gamma+1)^p * Gamma
        assert rep.grid_size == 65
        assert 0.0 <= rep.tau_argmax <= 0.2
        assert set(rep.extra) == {"alpha_com_max", "layers"} and rep.extra["layers"] == 1
        assert rep.value == 3.0 * rep.extra["alpha_com_max"] * 0.2**2  # V = 1, order 2


class TestTightBound:
    def test_static_commuting_zero(self):
        assert tight_bound(suzuki_plan(1, 2), static_commuting(), 0.3).value == 0.0

    def test_order_cap(self, driven2):
        with pytest.raises(UnsupportedOrderError) as err:
            tight_bound(suzuki_plan(4, 2), driven2, 0.1)
        assert "corollary" in str(err.value)

    def test_term_count(self, driven2):
        rep = tight_bound(suzuki_plan(1, 2), driven2, 0.1)
        assert rep.term_count == 2 * 3  # K (2K-1)^p

    @pytest.mark.parametrize("p", [1, 2])
    def test_between_error_and_corollary(self, driven2, p):
        plan = suzuki_plan(p, 2)
        for t in (0.02, 0.05):
            err = measure_error(plan, driven2, t)
            tight = tight_bound(plan, driven2, t).value
            coro = corollary_bound(plan, driven2, t).value
            assert err <= tight <= coro * (1 + 1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_grouped_sum_matches_literal_enumeration(self, driven2, p):
        # oracle: enumerate stage indices k'_1..k'_p in {1..2K-1} literally
        plan = suzuki_plan(p, 2)
        stages = plan.stages
        ops = []
        for kp in range(1, 2 * len(stages)):
            if kp % 2:
                st = stages[(kp + 1) // 2 - 1]
                ops.append((abs(st.alpha), st.gamma, 1j))
            else:
                k = kp // 2
                ops.append((abs(stages[k].beta - stages[k - 1].beta
                                - stages[k - 1].alpha), None, 1j))
        tau = 0.37
        literal = ref_sum(driven2, tau, p, [(st.gamma, 1.0) for st in stages], ops)
        grouped = _tight_sum(plan, driven2, tau, *stage_weights(plan, 2))
        assert grouped == pytest.approx(literal, rel=1e-12)


class TestHuyghebaert:
    def test_commuting_pair_zero(self):
        assert huyghebaert_bound(static_commuting(), 0.5).value <= 1e-12

    def test_static_closed_form(self):
        a, b, t = 0.7, 1.3, 0.45
        ham = Hamiltonian([OperatorCurve([(a * X, ConstantCurve(1.0))]),
                           OperatorCurve([(b * Z, ConstantCurve(1.0))])])
        # ||[aX, bZ]|| = 2ab over the triangle of area t^2/2
        assert huyghebaert_bound(ham, t).value == pytest.approx(a * b * t**2, abs=1e-8)

    def test_dominates_first_order_error(self, driven2):
        for t in (0.05, 0.15):
            err = measure_error(suzuki_plan(1, 2), driven2, t)
            assert err <= huyghebaert_bound(driven2, t).value

    def test_requires_two_terms(self, rng):
        with pytest.raises(InvalidInputError):
            huyghebaert_bound(static_terms(rng, 3), 0.1)


class TestNonunitaryBound:
    def test_hermitian_reduces_to_commutator_bound(self, driven2):
        plan = suzuki_plan(1, 2)
        rep = nonunitary_bound(plan, driven2, 0.2)
        assert rep.extra["amplification"] == pytest.approx(1.0, abs=1e-10)
        base = 3.0 * rep.extra["alpha_com_max"] * 0.2**2
        assert rep.value == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("p", [2, 4])
    def test_hermitian_equals_corollary_bound(self, driven2, p):
        # the factor V^(p+1) of the corollary bound, V > 1 for p > 1
        plan = suzuki_plan(p, 2)
        rep = nonunitary_bound(plan, driven2, 0.05)
        assert rep.extra["amplification"] == 1.0
        assert rep.value == corollary_bound(plan, driven2, 0.05).value

    def test_pure_imaginary_amplification(self):
        ham = Hamiltonian([OperatorCurve([(-1j * X, ConstantCurve(1.0))]),
                           OperatorCurve([(Z, ConstantCurve(0.5))])])
        t = 0.3
        rep = nonunitary_bound(suzuki_plan(1, 2), ham, t)
        # || Im(-iX) || = 1, so the integral is t and the factor e^{4 V t}
        assert rep.extra["amplification"] == pytest.approx(math.exp(4 * t), rel=1e-6)

    def test_dominates_nonunitary_error(self, driven2):
        scaled = driven2.scaled(1 - 0.1j)
        plan = suzuki_plan(1, 2)
        for t in (0.05, 0.1):
            err = measure_error(plan, scaled, t)
            assert err <= nonunitary_bound(plan, scaled, t).value


class TestMpfBound:
    def test_frozen_arithmetic(self):
        # sqrt2 e^2 (5/3) (sqrt2 * 0.1)^5 = 8 e^2 (5/3) 1e-5
        expected = 8.0 * math.e**2 * (5.0 / 3.0) * 1e-5
        assert mpf_bound_value(0.1, 2, 5.0 / 3.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(9.852074798574199e-4, rel=1e-12)

    def test_static_commuting_zero(self):
        rep = mpf_bound(static_commuting(), 0.2, 2, 5.0 / 3.0)
        assert rep.value == 0.0

    def test_out_of_regime(self, driven2):
        with pytest.raises(OutOfRegimeError):
            mpf_bound(driven2, 5.0, 2, 5.0 / 3.0)

    def test_reports_both_suprema(self, driven2):
        t = 0.04
        rep = mpf_bound(driven2, t, 2, 5.0 / 3.0)
        assert rep.extra["alpha_global"] >= rep.extra["alpha_local"] - 1e-12
        assert rep.value == pytest.approx(
            mpf_bound_value(rep.extra["alpha_local"] * t, 2, 5.0 / 3.0), rel=1e-12)


class TestGridMax:
    def test_finds_interior_maximum(self):
        val, arg = grid_max(lambda x: -(x - 0.37) ** 2, 0.0, 1.0, 65)
        assert arg == pytest.approx(0.37, abs=1e-3)
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_batches(self):
        calls = []

        def fn(xs):
            calls.append(np.array(xs))
            return -(xs - 0.37) ** 2

        grid_max(fn, 0.0, 1.0, 9, refine_iters=3)
        assert [len(c) for c in calls] == [9, 2, 1, 1, 1]
        np.testing.assert_array_equal(calls[0], np.linspace(0.0, 1.0, 9))

    def test_no_refinement_evaluates_the_grid_once(self):
        calls = []

        def fn(xs):
            calls.append(np.array(xs))
            return np.sin(3.0 * xs)

        val, arg = grid_max(fn, 0.0, 1.0, 9, refine_iters=0)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.linspace(0.0, 1.0, 9))
        k = int(np.argmax(np.sin(3.0 * calls[0])))
        assert (val, arg) == (np.sin(3.0 * calls[0])[k], calls[0][k])

    def test_degenerate_interval(self):
        val, arg = grid_max(lambda x: x + 1.0, 0.5, 0.5)
        assert (val, arg) == (1.5, 0.5)


# The sector walk against the dense walk.  Hamiltonian(ham.terms) drops the
# model metadata, so its one sector is the whole space and holds the same terms.

def dense_copy(ham):
    return Hamiltonian(ham.terms)


SECTOR_MODELS = {
    "periodic5": lambda: driven_chain(5, "periodic"),
    "periodic6": lambda: driven_chain(6, "periodic"),
    "periodic7": lambda: driven_chain(7, "periodic"),
    "periodic8": lambda: driven_chain(8, "periodic"),
    "open6": lambda: driven_chain(6),
    "long-range5": lambda: build_long_range(
        5, 1.5, {"XX": PolynomialCurve([1.0, 0.5, -0.3])}, {"Z": TrigCurve(0.4, 1.3)}),
    "complex-periodic6": lambda: driven_chain(6, "periodic").scaled(1.0 - 0.1j),
}
# p = 4 at N = 8 costs seconds on the dense reference, so it stops at p = 2
SECTOR_CASES = [(m, p) for m in sorted(SECTOR_MODELS) for p in (1, 2, 4)
                if (m, p) != ("periodic8", 4)]
TAUS = np.array([0.11, 0.37])


def symmetries(ham):
    matrices = [a for term in ham.terms for a, _ in term.summands]
    return find_symmetries(matrices, ham.metadata["n_sites"])


def z_parity(n):
    return pauli_permutation([(i, "Z") for i in range(n)], n)


def same_symmetry(found, expected):
    perm, phase, order = found
    return (np.array_equal(perm, expected[0]) and np.array_equal(phase, expected[1])
            and order == expected[2])


class TestSectorWalk:
    @pytest.mark.parametrize("model,p", SECTOR_CASES)
    def test_alpha_com_matches_dense(self, model, p):
        ham = SECTOR_MODELS[model]()
        assert ham.sectors.count > 1
        dense = dense_copy(ham)
        for fn in (alpha_com, bar_alpha_com):
            np.testing.assert_allclose(fn(ham, p + 1, TAUS), fn(dense, p + 1, TAUS),
                                       rtol=1e-12)

    @pytest.mark.parametrize("model", sorted(SECTOR_MODELS))
    @pytest.mark.parametrize("p", [1, 2])
    def test_tight_sum_matches_dense(self, model, p):
        ham = SECTOR_MODELS[model]()
        plan = suzuki_plan(p, ham.n_terms)
        weights = stage_weights(plan, ham.n_terms)
        np.testing.assert_allclose(_tight_sum(plan, ham, TAUS, *weights),
                                   _tight_sum(plan, dense_copy(ham), TAUS, *weights),
                                   rtol=1e-12)

    def test_dense_copy_is_one_sector_of_its_own_terms(self):
        ham = driven_chain(6, "periodic")
        dense = dense_copy(ham).sectors
        assert dense.count == 1 and dense.sizes == [ham.dim] and dense.size == ham.dim
        assert all(got is term for got, term in zip(dense.terms, ham.terms))
        assert len(dense.terms) == ham.n_terms

    def test_extension_keeps_the_translation_split(self):
        ham = driven_chain(6, "periodic")
        assert ham.sectors.count == ham.extended(0.1, 1).sectors.count == 6
        t, j = 0.02, 1  # alpha_com t < 1/2
        assert ham.extended(t, 2 * j - 1).sectors.count == 6
        dense = Hamiltonian(ham.terms)
        assert dense.extended(t, 2 * j - 1).sectors.count == 1
        got = mpf_bound(ham, t, j, 1.0, grid_points=5).extra["alpha_global"]
        want = mpf_bound(dense, t, j, 1.0, grid_points=5).extra["alpha_global"]
        assert got == pytest.approx(want, rel=1e-12)

    def test_batch_spans_chunks(self):
        ham = driven_chain(8, "periodic")  # 8 sectors of at most 38: 5 taus a chunk
        taus = np.linspace(0.0, 0.9, 7)
        batch = alpha_com(ham, 2, taus)
        np.testing.assert_allclose(batch, [alpha_com(ham, 2, float(t)) for t in taus],
                                   rtol=1e-12)
        np.testing.assert_allclose(batch, alpha_com(dense_copy(ham), 2, taus), rtol=1e-12)

    @pytest.mark.parametrize("n", [6, 8])
    def test_even_periodic_chain_has_parity_and_two_site_translation(self, n):
        ham = driven_chain(n, "periodic")
        translation, parity = symmetries(ham)
        assert same_symmetry(translation, (*translation_permutation(n, 2), n // 2))
        assert same_symmetry(parity, (*z_parity(n), 2))
        assert ham.sectors.count == n  # n / 2 momenta times two parities
        assert sum(ham.sectors.sizes) == ham.dim

    def test_odd_periodic_chain_has_no_translation(self):
        # bonds (6, 0) and (0, 1) share site 0 in term 1: no shift maps the
        # terms onto themselves
        (parity,) = symmetries(driven_chain(7, "periodic"))
        assert same_symmetry(parity, (*z_parity(7), 2))

    def test_a_tiny_change_removes_the_symmetry(self):
        ham = driven_chain(6, "periodic")
        (bonds, bond_curve), (fields, field_curve) = ham.terms[1].summands
        # one entry of the bond group 1.0 -> 1 - 1e-16 breaks translation, not parity
        bond = bonds.copy()
        assert bond[0, 24] == 1.0  # bond (1, 2) flips sites 1 and 2 of |000000>
        bond[0, 24] -= 1e-16
        assert bond[0, 24] != 1.0
        nudged = Hamiltonian([ham.terms[0], OperatorCurve(
            [(bond, bond_curve), (fields, field_curve)])], metadata=ham.metadata)
        (parity,) = symmetries(nudged)
        assert same_symmetry(parity, (*z_parity(6), 2))
        # 1e-16 between states of opposite parity breaks every symmetry
        field = fields.copy()
        field[0, 1] = 1e-16
        broken = Hamiltonian([ham.terms[0], OperatorCurve(
            [(bonds, bond_curve), (field, field_curve)])], metadata=ham.metadata)
        assert symmetries(broken) == []
        assert broken.sectors.count == 1
        assert alpha_com(broken, 3, 0.2) == alpha_com(dense_copy(broken), 3, 0.2)

    def test_term_vanishing_in_a_sector_stays_in_its_walk(self):
        # B = X0 X1 - Y0 Y1 Z2 Z3 Z4 = X0 X1 (1 + prod Z) is zero at odd parity
        n = 5
        xx = embed_pauli_string([(0, "X"), (1, "X")], n)
        yyzzz = embed_pauli_string(
            [(0, "Y"), (1, "Y"), (2, "Z"), (3, "Z"), (4, "Z")], n)
        field = sum(embed_pauli_string([(i, "Z")], n) for i in range(n))
        ham = Hamiltonian([
            OperatorCurve([(xx - yyzzz, TrigCurve(0.6, 1.4, offset=0.3))]),
            OperatorCurve([(field, TrigCurve(0.8, 3.1))]),
            OperatorCurve([(embed_pauli_string([(1, "X"), (2, "X")], n),
                            TrigCurve(0.5, 2.0, offset=1.0))]),
        ], metadata={"model": "nn-chain", "n_sites": n})
        blocks = ham.sectors.terms[0].values([0.3]).reshape(
            ham.sectors.count, ham.sectors.size, ham.sectors.size)
        zero = [not np.any(b) for b in blocks]
        assert ham.sectors.count == 2 and zero.count(True) == 1
        for p in (1, 2):
            assert alpha_com(ham, p + 1, 0.3) == pytest.approx(
                alpha_com(dense_copy(ham), p + 1, 0.3), rel=1e-12)

    def test_hermitian_terms_keep_the_fast_path(self, monkeypatch):
        flags = TestHermitianFastPath().record_paths(monkeypatch)
        ham = driven_chain(6, "periodic")
        alpha_com(ham, 3, 0.2)
        assert ham.sectors.count > 1 and flags and all(flags)

    def test_custom_and_small_models_never_enter_the_sector_code(self, monkeypatch):
        calls = []
        real = models.project

        def spy(terms, n_sites):
            calls.append(n_sites)
            return real(terms, n_sites)

        monkeypatch.setattr(models, "project", spy)
        small = driven_chain(4, "periodic")
        assert small.dim < MIN_DIM
        custom = models.model_from_descriptor({
            "model": "custom", "N": 5, "terms": [
                {"gamma": 1, "paulis": [[0, "X"], [1, "X"]], "curve": {"kind": "constant",
                                                                       "value": 1.0}},
                {"gamma": 2, "paulis": [[0, "Z"]], "curve": {"kind": "trig", "amp": 0.8,
                                                             "omega": 3.1}}]})
        assert custom.dim >= MIN_DIM
        for ham in (small, custom):
            alpha_com(ham, 3, 0.2)
            assert ham.sectors.count == 1
        assert calls == []
        at_min = driven_chain(5, "periodic")  # built, not yet walked: no detection
        assert calls == []
        alpha_com(at_min, 3, 0.2)
        alpha_com(at_min, 2, 0.3)
        assert calls == [5]  # detected once, at the first walk
