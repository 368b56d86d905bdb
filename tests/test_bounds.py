import math
import tracemalloc
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
from tdpf.errors import (BudgetExceededError, ConvergenceError, InvalidInputError,
                         OutOfRegimeError, UnsupportedOrderError)
from tdpf.formulas import measure_error, suzuki_plan
from tdpf.linalg import (PAULI, pauli_permutation, spectral_norm, spectral_norms,
                         translation_permutation)
from tdpf.models import Hamiltonian, OperatorCurve, build_driven_chain, build_long_range
from tdpf.sectors import MIN_DIM, _compose, _sector_bases, find_symmetries

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


def reference_walk(x, weight, depth, derivs, steps, norms, hermitian, first=None):
    """The depth-first walk of one prefix at a time that the block walk
    replaced: x[0..depth] are one prefix's (B * S, m, m) derivative stacks,
    each step (w, g, f, fc) maps X to f [H_g, X] + fc dX/dt, and each leaf
    appends its weighted norms with its own eigensolve.  Like the block
    walk, a root takes its first steps from first (``bounds._roots``), and
    a pure commutator with a zero term is skipped."""
    if depth == 0:
        norms.append(weight * spectral_norms(x[0], hermitian=hermitian))
        return
    for w, g, f, fc in steps if first is None else first:
        h = derivs.get(g)
        if fc == 0 and h is None:
            continue
        if h is None:
            child = [fc * x[q + 1] for q in range(depth)]
        else:
            child = []
            for q in range(depth):
                out = np.zeros_like(x[0])
                for r in range(q + 1):
                    lv, rv = h[r], x[q - r]
                    out += (f * math.comb(q, r)) * (lv @ rv - rv @ lv)
                if fc:
                    out += fc * x[q + 1]
                child.append(out)
        reference_walk(child, weight * w, depth - 1, derivs, steps, norms, hermitian)


def walk_one_prefix_at_a_time(monkeypatch):
    """Make _nested_norm_sum walk each seed's root block with reference_walk."""
    def walk(block, depth, derivs, steps, cap, norms, hermitian, first=None):
        x, w = block
        leaves = []
        reference_walk([a[0] for a in x], float(w[0]), depth, derivs, steps, leaves,
                       hermitian, first)
        norms.append(np.array(leaves).reshape(len(leaves), x[0].shape[1]))

    monkeypatch.setattr(bounds, "_walk", walk)


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
    def record_paths(self, monkeypatch, dtypes=None):
        flags = []
        real = bounds.spectral_norms

        def spy(stack, hermitian=False):
            flags.append(hermitian)
            if dtypes is not None:
                dtypes.append(stack.dtype)
            return real(stack, hermitian)

        monkeypatch.setattr(bounds, "spectral_norms", spy)
        return flags

    def test_hermitian_terms_skip_the_product(self, monkeypatch):
        # a complex walk: a model given as matrices, and one whose XY bonds
        # hold one Y each; a real model's alpha_com walks in float64 instead
        flags = self.record_paths(monkeypatch)
        alpha_com(dense_copy(driven_chain(3)), 3, 0.2)
        xy = build_driven_chain(3, TrigCurve(0.3, 2.0, offset=1.0), TrigCurve(0.8, 3.1),
                                ("X", "Y"))
        assert not any(term.is_real for term in xy.terms)
        alpha_com(xy, 3, 0.2)
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
        # ad_H + c d/dt with real c != 0 has no Hermitian phase: general path
        ham = driven_chain(2)
        seeds = [(1, 1.0), (2, 1.0)]
        steps = [(1.0, 1, 0.7), (0.5, 2, 1j), (0.3, None, -1.3)]
        for p in (1, 2):
            expected = ref_sum(ham, 0.3, p, seeds, steps)
            got = bounds._nested_norm_sum(ham, 0.3, p, seeds, steps)
            assert got == pytest.approx(expected, rel=1e-12)


BLOCK_MODELS = {
    "chain4": lambda: driven_chain(4),
    "non-hermitian": lambda: driven_chain(3).scaled(1 - 0.1j),
    "periodic6": lambda: driven_chain(6, "periodic"),
    "zero-term": lambda: with_zero_term(single_qubit_fg()[0]),
}


def mixed_seeds_and_steps(ham):
    """Seeds and steps with distinct weights that mix the step phases: odd
    terms step with ad_H + i d/dt, even ones with ad_H alone (both phase i),
    and the derivative step has a real coefficient (phase 1)."""
    gammas = range(1, ham.n_terms + 1)
    seeds = [(g, 0.5 + 0.3 * g) for g in gammas]
    steps = [(0.4 + 0.25 * g, g, 1j if g % 2 else 0) for g in gammas] + [(0.6, None, 2.0)]
    return seeds, steps


def walk_sums(ham, orders, taus):
    """alpha_com and bar_alpha_com at each order, the tight sums of p = 1
    and 2, and the mixed sum of length max(orders) - 1, at every tau of
    taus."""
    out = [fn(ham, order, taus) for fn in (alpha_com, bar_alpha_com) for order in orders]
    for p in (1, 2):
        plan = suzuki_plan(p, ham.n_terms)
        out.append(_tight_sum(plan, ham, taus, *stage_weights(plan, ham.n_terms)))
    out.append(bounds._nested_norm_sum(ham, taus, max(orders) - 1,
                                       *mixed_seeds_and_steps(ham)))
    return out


class TestBlockWalk:
    """The block walk against the depth-first walk it replaced, bit for bit."""

    def assert_same_sums(self, monkeypatch, ham, orders, taus):
        blocks = walk_sums(ham, orders, taus)
        with monkeypatch.context() as m:
            walk_one_prefix_at_a_time(m)
            single = walk_sums(ham, orders, taus)
        for got, expected in zip(blocks, single):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("model", sorted(BLOCK_MODELS))
    def test_sums_equal_the_depth_first_walk(self, monkeypatch, model):
        ham = BLOCK_MODELS[model]()
        orders = (3,) if model == "periodic6" else (2, 4, 5)
        for taus in (0.31, np.array([0.0, 0.13, 0.4])):
            self.assert_same_sums(monkeypatch, ham, orders, taus)

    @pytest.mark.parametrize("model", sorted(BLOCK_MODELS))
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_skipped_self_commutators_change_no_sum(self, model, order):
        # the literal sums walk every sequence, the zero ones included
        ham = BLOCK_MODELS[model]()
        n = ham.n_terms
        assert alpha_com(ham, order, 0.37) == pytest.approx(
            ref_alpha_com(ham, order, 0.37, 2.0 * n), rel=1e-14)
        assert bar_alpha_com(ham, order, 0.37) == pytest.approx(
            ref_alpha_com(ham, order, 0.37, 1.0), rel=1e-14)
        seeds, steps = mixed_seeds_and_steps(ham)
        assert bounds._nested_norm_sum(ham, 0.37, order - 1, seeds, steps) == pytest.approx(
            ref_sum(ham, 0.37, order - 1, seeds, steps), rel=1e-14)

    def test_blocks_split_in_the_middle_of_a_level(self, monkeypatch):
        # 4x4 nodes: 5 per block at one tau and 2 at two, while the three
        # steps make up to 3, 9, 27 ... nodes per level
        monkeypatch.setattr(bounds, "BATCH_ENTRIES", 8 * 5 * 16)
        caps = []
        real = bounds._walk

        def spy(block, depth, derivs, steps, cap, *rest):
            caps.append(cap)
            real(block, depth, derivs, steps, cap, *rest)

        monkeypatch.setattr(bounds, "_walk", spy)
        ham = driven_chain(2)
        self.assert_same_sums(monkeypatch, ham, (3, 5), 0.27)
        self.assert_same_sums(monkeypatch, ham, (3, 5), np.array([0.05, 0.3]))
        assert set(caps) == {5, 2}

    def test_one_eigensolve_per_leaf_block(self, monkeypatch):
        sizes = []
        real = bounds.spectral_norms

        def spy(stack, hermitian=False):
            sizes.append(len(stack))
            return real(stack, hermitian)

        monkeypatch.setattr(bounds, "spectral_norms", spy)
        alpha_com(dense_copy(driven_chain(4)), 5, 0.1)
        # 3^3 leaves under each first step: seed 1 takes [H_2, H_1] (for
        # both orders) and the derivative, seed 2 the derivative alone (a
        # seed's commutator with itself is skipped); 32 dense 16x16 nodes per
        # block: 32 + 22 for seed 1 and 27 for seed 2
        assert sorted(sizes) == [22, 27, 32]

    @pytest.mark.parametrize("model", sorted(set(BLOCK_MODELS) - {"non-hermitian"}))
    def test_every_hermitian_leaf_is_hermitian(self, monkeypatch, model):
        # the step phases keep every complex node Hermitian, and a real
        # walk's nodes are symmetric or antisymmetric, with no correction at
        # the leaf
        flags = []
        real = bounds.spectral_norms

        def spy(stack, hermitian=False):
            flags.append(hermitian or stack.dtype == np.float64)
            scale = 1e-13 * np.abs(stack).max()
            adjoint = stack.conj().swapaxes(-1, -2)
            if hermitian:
                assert np.abs(stack - adjoint).max() <= scale
            else:  # each node on its own
                assert (np.minimum(np.abs(stack - adjoint).max(axis=(-2, -1)),
                                   np.abs(stack + adjoint).max(axis=(-2, -1))) <= scale).all()
            return real(stack, hermitian)

        monkeypatch.setattr(bounds, "spectral_norms", spy)
        orders = (3,) if model == "periodic6" else (2, 4)
        walk_sums(BLOCK_MODELS[model](), orders, np.array([0.0, 0.31]))
        assert flags and all(flags)

    @pytest.mark.parametrize("model", sorted(BLOCK_MODELS))
    def test_zero_weight_steps_add_no_leaves(self, monkeypatch, model):
        ham = BLOCK_MODELS[model]()
        seeds, steps = mixed_seeds_and_steps(ham)
        leaves = []
        real = bounds.spectral_norms

        def spy(stack, hermitian=False):
            leaves.append(len(stack))
            return real(stack, hermitian)

        monkeypatch.setattr(bounds, "spectral_norms", spy)
        taus = np.array([0.0, 0.31])
        plain = bounds._nested_norm_sum(ham, taus, 3, seeds, steps)
        plain_leaves = sum(leaves)
        leaves.clear()
        padded = steps[:1] + [(0.0, 1, 1j), (0.0, None, 2.0)] + steps[1:]
        assert np.array_equal(bounds._nested_norm_sum(ham, taus, 3, seeds, padded), plain)
        assert sum(leaves) == plain_leaves

    def test_memory_peak_stays_near_the_depth_first_walk(self, monkeypatch):
        ham, plan = driven_chain(4), suzuki_plan(4, 2)
        corollary_bound(plan, ham, 0.05)  # projections and caches outside the trace

        def peak():
            tracemalloc.start()
            try:
                corollary_bound(plan, ham, 0.05)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        blocks = peak()
        with monkeypatch.context() as m:
            walk_one_prefix_at_a_time(m)
            single = peak()
        assert blocks <= 1.5 * single


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
        assert set(rep.extra) == {"alpha_com_max", "layers", "coefficient"}
        assert rep.extra["layers"] == 1
        assert rep.extra["coefficient"] == 3.0 * rep.extra["alpha_com_max"]  # V = 1
        assert rep.value == 3.0 * rep.extra["alpha_com_max"] * 0.2**2  # order 2


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
        assert huyghebaert_bound(ham, t).value == pytest.approx(a * b * t**2, rel=1e-14)

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
        assert rep.extra["im_integral"] == pytest.approx(t, rel=1e-14)
        assert rep.extra["amplification"] == pytest.approx(math.exp(4 * t), rel=1e-6)

    def test_dominates_nonunitary_error(self, driven2):
        scaled = driven2.scaled(1 - 0.1j)
        plan = suzuki_plan(1, 2)
        for t in (0.05, 0.1):
            err = measure_error(plan, scaled, t)
            assert err <= nonunitary_bound(plan, scaled, t).value


HUYGHEBAERT_TIMES = [0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16, 0.18, 0.2]
NONUNITARY_TIMES = [0.02, 0.04, 0.06, 0.08, 0.1]


class TestQuadrature:
    """The in-house Gauss-Kronrod rule against scipy's QUADPACK and closed
    forms; scipy.integrate is imported by these tests only."""

    @pytest.mark.parametrize("t", HUYGHEBAERT_TIMES)
    def test_huyghebaert_matches_dblquad(self, driven2, t):
        from scipy.integrate import dblquad
        h1, h2 = driven2.term(1), driven2.term(2)

        def integrand(t1, t2):
            a, b = h1.value(t2), h2.value(t1)
            return spectral_norm(a @ b - b @ a)

        expected, _err = dblquad(integrand, 0.0, t, 0.0, lambda t2: t2,
                                 epsabs=bounds._QUAD_EPSABS)
        rep = huyghebaert_bound(driven2, t)
        assert rep.value == pytest.approx(expected, rel=1e-13)
        assert 0.0 < rep.extra["quadrature_error"] <= bounds._QUAD_EPSABS

    @pytest.mark.parametrize("t", NONUNITARY_TIMES)
    def test_nonunitary_integral_matches_quad(self, driven2, t):
        from scipy.integrate import quad
        scaled = driven2.scaled(1 - 0.1j)

        def im_norm(tau):
            return sum(spectral_norm((m - m.conj().T) / 2j)
                       for m in (term.value(tau) for term in scaled.terms))

        expected, _err = quad(im_norm, 0.0, t, epsabs=bounds._QUAD_EPSABS, limit=200)
        rep = nonunitary_bound(suzuki_plan(1, 2), scaled, t, grid_points=5)
        assert rep.extra["im_integral"] == pytest.approx(expected, rel=1e-13)
        assert 0.0 < rep.extra["quadrature_error"] <= 1e-6 * rep.value

    def test_kinked_integrand_subdivides(self):
        calls = []

        def f(xs):
            calls.append(len(xs))
            return np.abs(np.cos(3.1 * xs + 1.5)), 0.0

        value, estimate = bounds._integrate(f, 0.0, 1.0)
        # the kink sits at x = (pi/2 - 1.5) / 3.1
        exact = (2.0 - math.sin(1.5) - math.sin(4.6)) / 3.1
        assert calls[0] == 21 and len(calls) > 1 and set(calls[1:]) == {42}
        assert abs(value - exact) <= bounds._QUAD_EPSABS
        assert abs(value - exact) <= estimate <= bounds._QUAD_EPSABS

    def test_inner_estimates_add_to_the_estimate(self):
        value, estimate = bounds._integrate(lambda xs: (np.ones_like(xs), 1e-10), 0.0, 2.0)
        assert value == pytest.approx(2.0, rel=1e-15)
        assert estimate == pytest.approx(2e-10, rel=1e-12)

    def test_panel_cap_raises(self):
        with pytest.raises(ConvergenceError):
            bounds._integrate(lambda xs: (1.0 / xs, 0.0), 0.0, 1.0)

    def test_integrand_batches_stay_under_the_entry_cap(self, monkeypatch, driven2):
        monkeypatch.setattr(bounds, "BATCH_ENTRIES", 5 * 16)
        sizes = []
        real = bounds.spectral_norms

        def spy(stack, hermitian=False):
            sizes.append(len(stack))
            return real(stack, hermitian)

        monkeypatch.setattr(bounds, "spectral_norms", spy)
        rep = huyghebaert_bound(driven2, 0.1)
        assert max(sizes) == 5
        monkeypatch.setattr(bounds, "spectral_norms", real)
        assert rep.value == huyghebaert_bound(driven2, 0.1).value


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

    def test_out_of_regime_never_walks_the_extension(self, driven2, monkeypatch):
        calls = []
        real = Hamiltonian.extended

        def counted(self, t_end, order):
            calls.append(t_end)
            return real(self, t_end, order)

        monkeypatch.setattr(Hamiltonian, "extended", counted)
        with pytest.raises(OutOfRegimeError):
            mpf_bound(driven2, 5.0, 2, 5.0 / 3.0, grid_points=5)
        assert calls == []
        mpf_bound(driven2, 0.04, 2, 5.0 / 3.0, grid_points=5)
        assert calls == [0.04]

    def test_reports_both_suprema(self, driven2):
        t = 0.04
        rep = mpf_bound(driven2, t, 2, 5.0 / 3.0)
        assert rep.extra["alpha_global"] >= rep.extra["alpha_local"] - 1e-12
        assert rep.value == pytest.approx(
            mpf_bound_value(rep.extra["alpha_local"] * t, 2, 5.0 / 3.0), rel=1e-12)


def plain_grid_max(fn, lo, hi, n_points, refine_iters):
    """Reference grid_max with one fn call per halving round: (max, argmax,
    samples)."""
    xs = np.linspace(lo, hi, n_points)
    vals = fn(xs)
    for _ in range(refine_iters):
        k = int(np.argmax(vals))
        sides = [j for j in (k - 1, k + 1) if 0 <= j < len(xs)]
        mids = np.array([(xs[j] + xs[k]) / 2.0 for j in sides])
        at = [max(j, k) for j in sides]
        xs = np.insert(xs, at, mids)
        vals = np.insert(vals, at, fn(mids))
    k = int(np.argmax(vals))
    return float(vals[k]), float(xs[k]), xs


def narrow_bump(r):
    """x on [0, 1] plus a bump that the 9-point grid and the first r - 1
    halving rounds at hi miss, centred on the round-r midpoint 1 - 2^-(3 + r)."""
    centre, width = 1.0 - 0.125 / 2**r, 0.125 / 2**r / 8
    return lambda xs: xs + 2.0 * np.exp(-((xs - centre) / width) ** 2)


# (function on [0, 1], evaluations past the reference's samples at 30 rounds):
# an endpoint overtaken at round r took the 31 - r midpoints of rounds r..30
# in one call, and only rounds r and r + 1 use theirs (round r + 1's point is
# a midpoint of the interior round that follows), so 29 - r are wasted
GRID_CASES = {
    "max-at-hi": (lambda xs: xs, 0),
    "max-at-lo": (lambda xs: -xs, 0),
    "interior": (lambda xs: -(xs - 0.37) ** 2, 0),
    "hi-overtaken-at-round-1": (narrow_bump(1), 28),
    "hi-overtaken-at-round-5": (narrow_bump(5), 24),
    "lo-overtaken-at-round-5": (lambda xs: narrow_bump(5)(1.0 - xs), 24),
}


class TestGridMax:
    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_matches_one_call_per_round(self, case):
        f, waste = GRID_CASES[case]
        probes = []

        def fn(xs):
            probes.extend(xs.tolist())
            return f(xs)

        want_max, want_arg, samples = plain_grid_max(f, 0.0, 1.0, 9, 30)
        assert grid_max(fn, 0.0, 1.0, 9, refine_iters=30) == (want_max, want_arg)
        assert set(samples.tolist()) <= set(probes)
        assert len(set(probes)) == len(probes)  # no point is evaluated twice
        assert len(probes) == len(samples) + waste <= 2 * len(samples)
        assert waste < 30  # fewer than refine_iters points go unused

    def test_alpha_com_maximum_matches_one_call_per_round(self):
        ham = driven_chain(4)

        def fn(tau):
            return alpha_com(ham, 3, tau)

        want_max, want_arg, _ = plain_grid_max(fn, 0.0, 0.05, 65, 30)
        assert want_arg == 0.05  # the endpoint's rounds evaluate their taus in one walk
        assert grid_max(fn, 0.0, 0.05) == (want_max, want_arg)

    def test_endpoint_maximum_takes_two_walks(self, monkeypatch):
        # the grid, then every halving round's midpoint in one walk
        walk, calls = bounds._nested_norm_sum, []

        def spy(ham, taus, *args):
            calls.append(np.size(taus))
            return walk(ham, taus, *args)

        monkeypatch.setattr(bounds, "_nested_norm_sum", spy)
        report = corollary_bound(suzuki_plan(2, 2), driven_chain(4), 0.05)
        assert report.tau_argmax == 0.05
        assert calls == [65, 30]

    def test_finds_interior_maximum(self):
        val, arg = grid_max(lambda x: -(x - 0.37) ** 2, 0.0, 1.0, 65)
        assert arg == pytest.approx(0.37, abs=1e-3)
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_batches(self):
        # the grid, then per round the midpoints on either side of the best
        # sample: two inside; while the best sample is the endpoint hi, every
        # remaining round's midpoint in one call
        for peak, shapes in [(lambda xs: -(xs - 0.37) ** 2, [9, 2, 2, 2]),
                             (lambda xs: xs, [9, 3])]:
            calls = []

            def fn(xs):
                calls.append(np.array(xs))
                return peak(xs)

            grid_max(fn, 0.0, 1.0, 9, refine_iters=3)
            assert [len(c) for c in calls] == shapes
            np.testing.assert_array_equal(calls[0], np.linspace(0.0, 1.0, 9))
        # the best sample stays at hi = 1, so each round halves the last interval
        assert np.concatenate(calls[1:]).tolist() == [0.9375, 0.96875, 0.984375]

    @pytest.mark.parametrize("rounds", [0, 1, 5, 30])
    @pytest.mark.parametrize("target", [0.37, 0.38])
    def test_argmax_within_halved_spacing(self, target, rounds):
        # the grid spacing is h = 1/8; each round halves it next to the best
        # sample, and targets on both sides of the sample 0.375 need both halves
        val, arg = grid_max(lambda x: -(x - target) ** 2, 0.0, 1.0, 9, refine_iters=rounds)
        assert abs(arg - target) <= 0.125 / 2**rounds
        assert val == -(arg - target) ** 2

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_probes_stay_in_the_interval(self, sign):
        # maximum at hi (sign 1) or at lo (sign -1)
        lo, hi = -0.3, 0.7
        probes = []

        def fn(xs):
            probes.extend(xs)
            return sign * xs

        val, arg = grid_max(fn, lo, hi, 5, refine_iters=30)
        assert min(probes) == lo and max(probes) == hi
        assert len(probes) == 5 + 30
        assert arg == (hi if sign > 0 else lo)
        assert val == sign * arg

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rounds_stop_at_the_float_resolution(self, sign):
        # maximum at hi (sign 1) or at lo (sign -1): the intervals next to it
        # halve from 1/8 down to 2^-51, twice the float spacing at 1, in 48
        # rounds, so the other 152 rounds add no point
        probes = []

        def fn(xs):
            probes.extend(xs.tolist())
            return sign * xs

        arg = 1.0 if sign > 0 else 0.0
        assert grid_max(fn, 0.0, 1.0, 9, refine_iters=200) == (sign * arg, arg)
        assert len(set(probes)) == len(probes) <= 60

    @pytest.mark.parametrize("rounds", [1, 4, 30])
    def test_refinement_never_lowers_the_grid_maximum(self, rounds):
        def fn(xs):
            return np.sin(7.0 * xs) + 0.3 * np.cos(19.0 * xs)

        grid_best = float(np.max(fn(np.linspace(0.0, 2.0, 9))))
        val, arg = grid_max(fn, 0.0, 2.0, 9, refine_iters=rounds)
        assert val >= grid_best
        assert val == fn(np.array([arg]))[0]

    def test_one_grid_point_raises(self):
        with pytest.raises(InvalidInputError, match="n_points must be >= 2"):
            grid_max(lambda x: x, 0.0, 1.0, 1)

    def test_two_grid_points_sample_both_ends(self):
        calls = []

        def fn(xs):
            calls.append(np.array(xs))
            return xs

        assert grid_max(fn, 0.0, 1.0, 2, refine_iters=0) == (1.0, 1.0)
        np.testing.assert_array_equal(calls[0], [0.0, 1.0])

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


# The sector walk against the dense walk.

def dense_copy(ham):
    """The model rebuilt from its terms' summands alone: with no Pauli strings
    it stays one sector, so the walk runs on the dense terms."""
    dense = Hamiltonian([OperatorCurve(t.summands, dim=t.dim,
                                       derivative_budget=t.derivative_budget)
                         for t in ham.terms])
    assert dense.sectors.count == 1
    return dense


SECTOR_MODELS = {
    "open4": lambda: driven_chain(4),
    "periodic4": lambda: driven_chain(4, "periodic"),
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
    return find_symmetries([p for term in ham.terms for p in term.paulis],
                           ham.dim.bit_length() - 1)


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
        copy = dense_copy(ham)
        dense = copy.sectors
        assert dense.count == 1 and dense.sizes == [ham.dim] and dense.size == ham.dim
        assert all(got is term for got, term in zip(dense.terms, copy.terms))
        assert len(dense.terms) == ham.n_terms
        assert all(term.paulis is None for term in copy.terms)

    def test_extension_keeps_the_translation_split(self):
        ham = driven_chain(6, "periodic")
        assert ham.sectors.count == ham.extended(0.1, 1).sectors.count == 6
        t, j = 0.02, 1  # alpha_com t < 1/2
        assert ham.extended(t, 2 * j - 1).sectors.count == 6
        dense = dense_copy(ham)
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
        bond_curve, field_curve = (c for _, c in ham.terms[1].summands)
        bonds, fields = ham.terms[1].paulis

        def with_term2(strings):
            term = OperatorCurve.from_paulis(6, strings)
            return Hamiltonian([ham.terms[0], term])

        # one bond coefficient 1.0 -> 1 - 1e-16 breaks translation, not parity
        (coef, sites), *rest = bonds
        nudged_coef = coef - 1e-16
        assert nudged_coef != 1.0
        nudged = with_term2([(nudged_coef, sites, bond_curve)]
                            + [(c, s, bond_curve) for c, s in rest]
                            + [(c, s, field_curve) for c, s in fields])
        (parity,) = symmetries(nudged)
        assert same_symmetry(parity, (*z_parity(6), 2))
        # a 1e-16 X string on one site breaks every symmetry
        broken = with_term2([(c, s, bond_curve) for c, s in bonds]
                            + [(c, s, field_curve) for c, s in fields]
                            + [(1e-16, [(0, "X")], field_curve)])
        assert symmetries(broken) == []
        assert broken.sectors.count == 1
        assert alpha_com(broken, 3, 0.2) == alpha_com(dense_copy(broken), 3, 0.2)

    def test_repeated_strings_are_merged_before_the_translation_test(self):
        ham = driven_chain(6, "periodic")
        bond_curve, field_curve = (c for _, c in ham.terms[1].summands)
        bonds, fields = ham.terms[1].paulis
        (coef, sites), *rest = bonds
        # one bond written as two halves: the summed matrix is the same
        halves = [(coef / 2, sites, bond_curve), (coef / 2, sites, bond_curve)]
        split = Hamiltonian([ham.terms[0], OperatorCurve.from_paulis(
            6, halves + [(c, s, bond_curve) for c, s in rest]
            + [(c, s, field_curve) for c, s in fields])])
        for got, want in zip(split.terms[1].summands, ham.terms[1].summands):
            np.testing.assert_array_equal(got[0], want[0])
        assert len(symmetries(split)) == len(symmetries(ham)) == 2
        for got, want in zip(symmetries(split), symmetries(ham)):
            assert same_symmetry(got, want)
        assert split.sectors.count == ham.sectors.count == 6

    def test_term_vanishing_in_a_sector_stays_in_its_walk(self):
        # B = X0 X1 - Y0 Y1 Z2 Z3 Z4 = X0 X1 (1 + prod Z) is zero at odd parity
        n = 5
        drive = TrigCurve(0.6, 1.4, offset=0.3)
        field = TrigCurve(0.8, 3.1)
        ham = Hamiltonian([
            OperatorCurve.from_paulis(n, [
                (1.0, [(0, "X"), (1, "X")], drive),
                (-1.0, [(0, "Y"), (1, "Y"), (2, "Z"), (3, "Z"), (4, "Z")], drive)]),
            OperatorCurve.from_paulis(n, [(1.0, [(i, "Z")], field) for i in range(n)]),
            OperatorCurve.from_paulis(n, [(1.0, [(1, "X"), (2, "X")],
                                           TrigCurve(0.5, 2.0, offset=1.0))]),
        ])
        blocks = ham.sectors.terms[0].values([0.3]).reshape(
            ham.sectors.count, ham.sectors.size, ham.sectors.size)
        zero = [not np.any(b) for b in blocks]
        assert ham.sectors.count == 2 and zero.count(True) == 1
        for p in (1, 2):
            assert alpha_com(ham, p + 1, 0.3) == pytest.approx(
                alpha_com(dense_copy(ham), p + 1, 0.3), rel=1e-12)

    def test_hermitian_terms_keep_the_fast_path(self, monkeypatch):
        # the real sectors walk in float64; the complex ones keep the fast path
        dtypes = []
        flags = TestHermitianFastPath().record_paths(monkeypatch, dtypes)
        ham = driven_chain(6, "periodic")
        alpha_com(ham, 3, 0.2)
        assert ham.sectors.count > 1
        complex_flags = [f for f, d in zip(flags, dtypes) if d == np.complex128]
        assert complex_flags and all(complex_flags)
        assert set(dtypes) == {np.dtype(np.float64), np.dtype(np.complex128)}

    def test_small_models_skip_and_custom_models_take_the_sector_code(self, monkeypatch):
        calls = []
        real = models.project

        def spy(terms):
            calls.append(terms[0].dim)
            return real(terms)

        monkeypatch.setattr(models, "project", spy)
        small = driven_chain(3, "periodic")
        assert small.dim < MIN_DIM
        alpha_com(small, 3, 0.2)
        assert small.sectors.count == 1
        assert calls == []
        custom = models.model_from_descriptor({
            "model": "custom", "N": 4, "terms": [
                {"gamma": 1, "paulis": [[0, "X"], [1, "X"]], "curve": {"kind": "constant",
                                                                       "value": 1.0}},
                {"gamma": 2, "paulis": [[0, "Z"]], "curve": {"kind": "trig", "amp": 0.8,
                                                             "omega": 3.1}}]})
        assert custom.dim >= MIN_DIM
        assert calls == []  # built, not yet walked: no detection
        (parity,) = symmetries(custom)
        assert same_symmetry(parity, (*z_parity(4), 2))
        for p in (1, 2):
            assert alpha_com(custom, p + 1, 0.2) == pytest.approx(
                alpha_com(dense_copy(custom), p + 1, 0.2), rel=1e-12)
        assert custom.sectors.count == 2
        assert calls == [16]  # detected once, at the first walk
        at_min = driven_chain(4, "periodic")
        assert at_min.dim == MIN_DIM
        assert calls == [16]
        alpha_com(at_min, 3, 0.2)
        alpha_com(at_min, 2, 0.3)
        assert calls == [16, 16]


# ---------------------------------------------------------------------------
# Reference: symmetries and blocks read from the dense summed matrices
# ---------------------------------------------------------------------------

def _dense_commutes(sym, a, nonzero):
    """S A S† == A, exactly, compared at the nonzero entries of A."""
    perm, phase = sym
    rows, cols = nonzero
    return np.array_equal(a[perm[rows], perm[cols]],
                          phase[rows] * phase[cols].conj() * a[rows, cols])


def dense_symmetries(matrices, n_sites):
    """The generators found on the summed matrices, candidate by candidate."""
    nonzeros = [np.nonzero(a) for a in matrices]

    def holds(sym):
        return all(_dense_commutes(sym, a, nz) for a, nz in zip(matrices, nonzeros))

    def same(g, h):
        return np.array_equal(g[0], h[0]) and np.array_equal(g[1], h[1])

    found = []
    for shift in range(1, n_sites):
        if n_sites % shift == 0 and holds(sym := translation_permutation(n_sites, shift)):
            found.append((*sym, n_sites // shift))
            break
    parities = 0
    for label in "ZXY":
        sym = pauli_permutation([(i, label) for i in range(n_sites)], n_sites)
        if (parities < 2 and holds(sym)
                and all(same(_compose(sym, g[:2]), _compose(g[:2], sym)) for g in found)):
            found.append((*sym, 2))
            parities += 1
    return found


def dense_blocks(term, generators, dim):
    """Each summand's sector blocks, gathered from the rows of its dense sum."""
    perms, phases, bases = _sector_bases(generators, dim)
    size = max(len(reps) for _, _, reps, _ in bases)
    out = []
    for a, _ in term.summands:
        blocks = np.zeros((len(bases), size, size), dtype=np.complex128)
        for k, (_label, conj_chars, reps, stab_size) in enumerate(bases):
            coeff = conj_chars[:, None] * phases[:, reps]
            block = np.einsum("rgs,gs->rs", a[reps][:, perms[:, reps]], coeff)
            blocks[k, :len(reps), :len(reps)] = block / np.sqrt(
                np.outer(stab_size, stab_size))
        if term.is_hermitian:
            blocks = (blocks + blocks.conj().swapaxes(-1, -2)) / 2
        out.append(blocks)
    return out


def chain_model(n, boundary, bonds, field):
    return build_driven_chain(n, TrigCurve(0.3, 2.0, offset=1.0), TrigCurve(0.8, 3.1),
                              tuple(bonds), field, boundary)


def long_range_model(n, channels, fields):
    curves = [PolynomialCurve([1.0, 0.5, -0.3]), TrigCurve(0.5, 2.0), ConstantCurve(0.7)]
    sites = {"Z": TrigCurve(0.4, 1.3), "X": ConstantCurve(0.2)}
    return build_long_range(n, 1.5, dict(zip(channels, curves)),
                            {f: sites[f] for f in fields} or None)


def custom_model(n, strings):
    one = {"kind": "constant", "value": 1.0}
    terms = [{"gamma": g + 1, "paulis": [list(p) for p in sites],
              "curve": dict(one, value=1.0 + 0.25 * g)} for g, sites in enumerate(strings)]
    return models.model_from_descriptor({"model": "custom", "N": n, "terms": terms})


def _reference_cases():
    cases = {}
    for n in range(5, 11):
        for boundary, bonds, field in [("periodic", "XX", "Z"), ("open", "YY", "X"),
                                       ("periodic", "ZZ", "X"), ("open", "XX", "Z")]:
            cases[f"chain{n}-{boundary}-{bonds}-{field}"] = (
                lambda n=n, b=boundary, p=bonds, f=field: chain_model(n, b, p, f))
        if n % 2 == 0:
            cases[f"chain{n}-periodic-YZ-Z"] = lambda n=n: chain_model(n, "periodic", "YZ", "Z")
        for channels, fields in [(("XX", "ZZ", "YY"), "Z"), (("ZZ", "XY"), ""),
                                 (("XX", "ZZ", "YZ"), "ZX"), (("ZZ",), "")]:
            cases[f"long-range{n}-{'-'.join(channels)}-fields{fields or 'none'}"] = (
                lambda n=n, c=channels, f=fields: long_range_model(n, c, f))
        cases[f"custom{n}-bonds"] = lambda n=n: custom_model(
            n, [[(0, "X"), (1, "X")], [(0, "Z")], [(1, "Y"), (2, "Y")], [(n - 1, "Z")]])
        cases[f"custom{n}-all-z"] = lambda n=n: custom_model(
            n, [[], [(i, "Z") for i in range(n)]])
        # every parity commutes with both strings; on an odd chain they
        # anticommute with each other, so only one is kept
        cases[f"custom{n}-xx-zz"] = lambda n=n: custom_model(
            n, [[(0, "X"), (1, "X")], [(1, "Z"), (2, "Z")]])
    return cases


REFERENCE_CASES = _reference_cases()


class TestStringsMatchDenseReference:
    """Symmetries and sector blocks read from the Pauli strings equal, bit for
    bit, those read from the dense summed matrices."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_same_generators_and_blocks(self, case):
        ham = REFERENCE_CASES[case]()
        n = ham.dim.bit_length() - 1
        want = dense_symmetries([a for t in ham.terms for a, _ in t.summands], n)
        got = symmetries(ham)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert same_symmetry(g, w)
        if not want:
            assert ham.sectors.count == 1
            return
        for projected, term in zip(ham.sectors.terms, ham.terms):
            for (blocks, _), ref in zip(projected.summands, dense_blocks(term, want, ham.dim)):
                assert np.array_equal(blocks, ref)


# ---------------------------------------------------------------------------
# The real walk: float64 sectors, one sector of each conjugate pair, and the
# antisymmetric root pairs walked once
# ---------------------------------------------------------------------------

def force_complex(monkeypatch):
    """Read every term as complex, so every walk takes the complex128 walk
    over every sector."""
    monkeypatch.setattr(OperatorCurve, "is_real", property(lambda self: False))


def record_dtypes(monkeypatch):
    """The dtype and sector count (B = 1 tau) of every leaf stack."""
    leaves = []
    real = bounds.spectral_norms

    def spy(stack, hermitian=False):
        leaves.append((stack.dtype, stack.shape[1]))
        return real(stack, hermitian)

    monkeypatch.setattr(bounds, "spectral_norms", spy)
    return leaves


def _real_walk_models():
    cases = {}
    for n in range(4, 11):
        for boundary in ("open", "periodic"):
            # order 3 costs seconds on the complex walk at N >= 9
            cases[f"{boundary}{n}"] = (lambda n=n, b=boundary: driven_chain(n, b),
                                       (2,) if n >= 9 else (2, 3))
    for n in range(4, 9):
        cases[f"long-range{n}"] = (lambda n=n: build_long_range(
            n, 1.5, {"XX": PolynomialCurve([1.0, 0.5, -0.3]), "ZZ": ExpCurve(0.7, -1.2)},
            {"Z": TrigCurve(0.4, 1.3)}), (2,) if n == 8 else (2, 3))
    cases["custom6"] = (lambda: custom_model(
        6, [[(0, "X"), (1, "X")], [(0, "Z")], [(1, "Y"), (2, "Y")], [(5, "Z")]]), (2, 3))
    return cases


REAL_WALK_MODELS = _real_walk_models()


class TestRealWalk:
    @pytest.mark.parametrize("model", sorted(REAL_WALK_MODELS))
    def test_sums_match_the_complex_walk(self, monkeypatch, model):
        build, orders = REAL_WALK_MODELS[model]
        ham = build()
        assert all(term.is_real for term in ham.terms)
        leaves = record_dtypes(monkeypatch)
        got = [fn(ham, order, 0.37) for fn in (alpha_com, bar_alpha_com) for order in orders]
        assert np.dtype(np.float64) in {dtype for dtype, _ in leaves}
        with monkeypatch.context() as m:
            force_complex(m)
            leaves.clear()
            want = [fn(ham, order, 0.37) for fn in (alpha_com, bar_alpha_com)
                    for order in orders]
            assert {dtype for dtype, _ in leaves} == {np.dtype(np.complex128)}
        np.testing.assert_allclose(got, want, rtol=1e-14)

    @pytest.mark.parametrize("case", ["y-odd", "complex-scale", "matrices"])
    def test_complex_models_take_the_complex_walk(self, monkeypatch, case):
        ham = {"y-odd": lambda: custom_model(6, [[(0, "X"), (1, "Y")], [(0, "Z")]]),
               "complex-scale": lambda: driven_chain(6).scaled(1 - 0.1j),
               "matrices": lambda: Hamiltonian([
                   OperatorCurve([(PAULI["Y"], TrigCurve(0.9, 1.7))]),
                   OperatorCurve([(Z, ConstantCurve(0.5))])])}[case]()
        assert not all(term.is_real for term in ham.terms)
        leaves = record_dtypes(monkeypatch)
        got = alpha_com(ham, 3, 0.37)
        assert leaves and {dtype for dtype, _ in leaves} == {np.dtype(np.complex128)}
        n = ham.n_terms
        assert got == pytest.approx(ref_alpha_com(ham, 3, 0.37, 2.0 * n), rel=1e-12)

    def test_complex_group_phases_keep_every_sector_complex(self, monkeypatch):
        # XZ strings on an odd chain keep only the Y parity, whose phase is
        # i^5 times a sign: conjugation maps no sector onto another
        ham = custom_model(5, [[(0, "X"), (1, "Z")], [(1, "X"), (2, "Z")]])
        assert all(term.is_real for term in ham.terms)
        assert ham.sectors.count == 2 and ham.sectors.conjugates is None
        leaves = record_dtypes(monkeypatch)
        got = alpha_com(ham, 3, 0.37)
        assert leaves and {dtype for dtype, _ in leaves} == {np.dtype(np.complex128)}
        assert got == pytest.approx(ref_alpha_com(ham, 3, 0.37, 2.0 * ham.n_terms), rel=1e-12)

    def test_the_scaled_copy_of_a_real_model_stays_real(self):
        ham = driven_chain(6)
        assert all(term.is_real for term in ham.scaled(2.0).terms)
        assert all(term.is_real for term in ham.extended(0.1, 1).terms)
        assert not any(term.is_real for term in dense_copy(ham).terms)

    def test_even_periodic_chains_walk_one_sector_of_each_conjugate_pair(self, monkeypatch):
        ham = driven_chain(8, "periodic")
        leaves = record_dtypes(monkeypatch)
        alpha_com(ham, 2, 0.37)
        walked = {dtype: count for dtype, count in leaves}
        # momenta 0 and pi, each with both parities, are real; the pair
        # k = +-pi/2 walks one of its two, with both parities
        assert walked == {np.dtype(np.float64): 4, np.dtype(np.complex128): 2}
        assert [len(ks) for ks in bounds._sector_groups(ham.sectors, True)] == [4, 2]
        ham12 = driven_chain(12, "periodic")
        assert ham12.sectors.count == 12
        assert [len(ks) for ks in bounds._sector_groups(ham12.sectors, True)] == [4, 4]
        assert bounds._sector_groups(ham12.sectors, False) == ([], list(range(12)))

    @pytest.mark.parametrize("n", [8, 12])
    def test_real_characters_give_exactly_real_blocks(self, n):
        ham = driven_chain(n, "periodic")
        sectors = ham.sectors
        real = [k for k, j in enumerate(sectors.conjugates) if k == j]
        assert len(real) == 4  # momenta 0 and pi, both parities
        stacks = [blocks for term in sectors.terms for blocks, _ in term.summands]
        assert not any(blocks[real].imag.any() for blocks in stacks)
        for k in set(range(sectors.count)) - set(real):
            assert any(blocks[k].imag.any() for blocks in stacks)
        # every character of order 4 is exact: 1, i, -1 or -i
        generators = symmetries(driven_chain(8, "periodic"))
        for _label, conj_chars, _reps, _sizes in _sector_bases(generators, 2**8)[2]:
            assert set(conj_chars) <= {1, 1j, -1, -1j}

    def test_pairing_comes_from_the_labels(self):
        sectors = driven_chain(8, "periodic").sectors
        _, _, bases = _sector_bases(symmetries(driven_chain(8, "periodic")), 2**8)
        labels = [label for label, *_ in bases]
        for k, j in enumerate(sectors.conjugates):
            assert labels[j] == ((-labels[k][0]) % 4, labels[k][1])

    def test_tight_sums_ignore_realness(self, monkeypatch):
        ham = driven_chain(8, "periodic")
        plan = suzuki_plan(2, 2)
        weights = stage_weights(plan, 2)
        leaves = record_dtypes(monkeypatch)
        got = _tight_sum(plan, ham, TAUS, *weights)
        assert {dtype for dtype, _ in leaves} == {np.dtype(np.complex128)}
        assert {count for _, count in leaves} == {2 * ham.sectors.count}
        force_complex(monkeypatch)
        assert np.array_equal(got, _tight_sum(plan, ham, TAUS, *weights))


class TestRootPairs:
    @pytest.mark.parametrize("n_terms, subtrees", [(2, 3), (5, 15)])
    def test_alpha_com_walks_each_antisymmetric_pair_once(self, n_terms, subtrees):
        live = dict.fromkeys(range(1, n_terms + 1))
        seeds = [(g, 1.0) for g in live]
        steps = [(1.0, g, 0j) for g in live] + [(1.0, None, complex(2 * n_terms))]
        roots = bounds._roots(seeds, steps, live)
        assert sum(len(first) for *_, first in roots) == subtrees
        for gamma, _, first in roots:
            # g > gamma, with both orders' weights; the derivative as it was
            assert first == [(2.0, g - 1) for g in live if g > gamma] + [(1.0, n_terms)]

    def test_weights_of_both_orders_add(self):
        live = dict.fromkeys((1, 2, 3))
        seeds = [(1, 0.5), (2, 0.25), (3, 2.0)]
        steps = [(3.0, 1, 0j), (5.0, 2, 0j), (7.0, 2, 1j), (0.1, None, 1 + 0j)]
        roots = bounds._roots(seeds, steps, live)
        assert roots == [
            (1, 0.5, [(0.5 * 5.0 + 0.25 * 3.0, 1), (0.5 * 7.0, 2), (0.5 * 0.1, 3)]),
            # [H_2, H_2] is zero; (2, 3) has no pure commutator with 3
            (2, 0.25, [(0.25 * 7.0, 2), (0.25 * 0.1, 3)]),
            (3, 2.0, [(2.0 * 3.0, 0), (2.0 * 5.0, 1), (2.0 * 7.0, 2), (2.0 * 0.1, 3)])]

    def test_tight_steps_fold_nothing(self):
        live = dict.fromkeys((1, 2))
        seeds = [(1, 1.0), (2, 2.0)]
        steps = [(0.5, 1, 1j), (0.75, 2, 1j), (0.25, None, 1j)]
        roots = bounds._roots(seeds, steps, live)
        assert [first for *_, first in roots] == [
            [(w * sw, j) for j, (sw, _, _) in enumerate(steps)] for _, w in seeds]
