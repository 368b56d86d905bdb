import numpy as np
import pytest

from tdpf.curves import ConstantCurve, TrigCurve, extrapolate_scalar
from tdpf.errors import InvalidInputError, NumericalBlowUpError
import tdpf.floquet as floquet
from tdpf.floquet import (FloquetSpace, build_floquet_operators, build_tf,
                          build_tf_suzuki, check_translation_symmetry,
                          fourier_decompose, fourier_hamiltonian, lifted_factors,
                          reconstruct)
from tdpf.formulas import EXACT, INSTANTANEOUS, evaluate_pf, suzuki_a, suzuki_plan
from tdpf.linalg import PAULI, matrix_exp, spectral_norm
from tdpf.models import Hamiltonian, OperatorCurve
from tdpf.propagator import evolve

X, Z, I2 = PAULI["X"], PAULI["Z"], PAULI["I"]
OMEGA = 2.0
DRIVE_T = 0.5


def single_mode_model(amp=2.5, n_qubits=2):
    """Static XX bond (or X for one qubit) plus a cos(omega t) Z drive."""
    if n_qubits == 1:
        static = OperatorCurve([(X, ConstantCurve(1.0))])
        drive = OperatorCurve([(Z, TrigCurve(amp, OMEGA))])
    else:
        static = OperatorCurve([(np.kron(X, X), ConstantCurve(1.0))])
        drive = OperatorCurve([(np.kron(Z, I2) + np.kron(I2, Z),
                                TrigCurve(amp, OMEGA))])
    return Hamiltonian([static, drive])


def static_model():
    return Hamiltonian([OperatorCurve([(np.kron(X, X), ConstantCurve(0.9))]),
                        OperatorCurve([(np.kron(Z, I2), ConstantCurve(0.6))])])


@pytest.fixture(scope="module")
def drive():
    ham = single_mode_model()
    return ham, fourier_hamiltonian(ham, OMEGA, 1)


class TestFourierDecompose:
    def test_constant_term_only_dc(self):
        term = OperatorCurve([(X, ConstantCurve(0.7))])
        coeffs = fourier_decompose(term, OMEGA, 3)
        assert np.allclose(coeffs[3], 0.7 * X, atol=1e-12)
        for m in (-3, -2, -1, 1, 2, 3):
            assert spectral_norm(coeffs[m + 3]) <= 1e-12

    def test_cosine_term_splits_into_two_modes(self):
        amp = 1.3
        term = OperatorCurve([(X, TrigCurve(amp, OMEGA))])
        coeffs = fourier_decompose(term, OMEGA, 2)
        assert np.allclose(coeffs[2 + 1], amp / 2 * X, atol=1e-12)
        assert np.allclose(coeffs[2 - 1], amp / 2 * X, atol=1e-12)
        for m in (-2, 0, 2):
            assert spectral_norm(coeffs[m + 2]) <= 1e-12

    def test_hermitian_mode_symmetry(self, drive):
        _, fh = drive
        for g in (1, 2):
            for m in range(-1, 2):
                a = fh.coefficient(g, m)
                b = fh.coefficient(g, -m)
                assert spectral_norm(a - b.conj().T) <= 1e-12

    def test_nonperiodic_rejected(self):
        term = OperatorCurve([(X, TrigCurve(1.0, 1.37 * OMEGA))])
        with pytest.raises(InvalidInputError):
            fourier_decompose(term, OMEGA, 2)

    def test_extrapolated_term_decay(self):
        # C^(p+2) extension: |m|^(p+2) ||H_m|| must not grow along the tail
        order = 2
        window = 0.7
        base = TrigCurve(0.8, 1.1, phase=0.3, offset=0.5)
        term = OperatorCurve([(X, extrapolate_scalar(base, window, order))])
        omega = np.pi / window  # period 2 * window
        coeffs = fourier_decompose(term, omega, 64)
        scaled = {m: m**(order + 2) * spectral_norm(coeffs[m + 64])
                  for m in range(1, 65)}
        head = max(scaled[m] for m in range(1, 33))
        tail = max(scaled[m] for m in range(33, 65))
        assert tail <= 1.5 * head + 1e-12


class TestBuildOperators:
    def test_static_is_block_diagonal(self):
        ham = static_model()
        fh = fourier_hamiltonian(ham, OMEGA, 1)
        space = FloquetSpace(3, 4)
        ops = build_floquet_operators(fh, space)
        for l_row in range(-3, 4):
            for l_col in range(-3, 4):
                if l_row != l_col:
                    assert spectral_norm(space.block(ops.lifted("F"), l_row, l_col)) <= 1e-12

    def test_term_decomposition_identity(self, drive):
        _, fh = drive
        space = FloquetSpace(6, 4)
        ops = build_floquet_operators(fh, space)
        recomposed = (sum(ops.lifted(("F", g)) for g in range(1, fh.n_terms + 1))
                      + (fh.n_terms - 1) * ops.lifted("LP"))
        assert spectral_norm(ops.lifted("F") - recomposed) == 0.0

    def test_single_mode_band_structure(self, drive):
        _, fh = drive
        space = FloquetSpace(8, 4)
        ops = build_floquet_operators(fh, space)
        h_add = ops.lifted(("Add", 2))
        for l_row in range(-8, 9):
            for l_col in range(-8, 9):
                blk = spectral_norm(space.block(h_add, l_row, l_col))
                if abs(l_row - l_col) == 1:
                    assert blk > 0.1
                else:
                    assert blk <= 1e-12

    def test_lp_is_diagonal(self, drive):
        _, fh = drive
        space = FloquetSpace(4, 4)
        ops = build_floquet_operators(fh, space)
        ls = np.repeat(np.arange(-4, 5), 4)
        assert np.allclose(ops.lifted("LP"), np.diag(ls * OMEGA), atol=1e-14)

    def test_mode_cutoff_cap(self, drive):
        _, fh = drive
        with pytest.raises(InvalidInputError):
            build_floquet_operators(fh, FloquetSpace(0, 4))


def dense_suzuki(ops, p, t):
    """Reference: the Suzuki recursion on dense exponentials of the lifted
    split [H_1^F, H_LP, H_2^F, ...], with the middle formula at the negative
    time (1 - 4a) s."""
    mats = []
    for g in range(1, len(ops.h_add_terms) + 1):
        mats += ([ops.lifted("LP")] if g > 1 else []) + [ops.lifted(("F", g))]
    ident = np.eye(ops.space.lifted_dim, dtype=np.complex128)

    def build(order, s):
        if order <= 2:
            total = ident
            split = [(m, s) for m in mats] if order == 1 else [
                (m, s / 2) for m in mats + mats[::-1]]
            for mat, duration in split:
                total = matrix_exp(-1j * duration * mat) @ total
            return total
        a = suzuki_a(order // 2)
        wing = build(order - 2, a * s)
        return wing @ wing @ build(order - 2, (1 - 4 * a) * s) @ wing @ wing

    return build(p, t)


class TestBuildTf:
    def test_first_order_product_shape(self, drive):
        # three exponential groups for Gamma = 2
        _, fh = drive
        space = FloquetSpace(6, 4)
        ops = build_floquet_operators(fh, space)
        t = DRIVE_T
        direct = (matrix_exp(-1j * t * ops.lifted(("F", 2)))
                  @ matrix_exp(-1j * t * ops.lifted("LP"))
                  @ matrix_exp(-1j * t * ops.lifted(("F", 1))))
        got = build_tf(suzuki_plan(1, 2), ops, t)
        assert spectral_norm(got - direct) <= 1e-11

    def test_static_block_structure(self):
        ham = static_model()
        fh = fourier_hamiltonian(ham, OMEGA, 1)
        space = FloquetSpace(4, 4)
        ops = build_floquet_operators(fh, space)
        tf = build_tf(suzuki_plan(1, 2), ops, 0.4)
        base = evaluate_pf(suzuki_plan(1, 2), ham, 0.4)
        # the ancilla-diagonal blocks repeat the base formula up to LP phases
        assert spectral_norm(space.block(tf, 0, 0) - base) <= 1e-11
        for l in (1, 2):
            assert spectral_norm(space.block(tf, l, 0)) <= 1e-12

    def test_matches_lifted_suzuki_recursion(self, drive):
        _, fh = drive
        space = FloquetSpace(8, 4)
        ops = build_floquet_operators(fh, space)
        for p in (1, 2, 4):
            a = build_tf(suzuki_plan(p, 2), ops, DRIVE_T)
            b = build_tf_suzuki(ops, p, DRIVE_T)
            assert spectral_norm(a - b) <= 1e-12

    def test_one_eigendecomposition_per_lifted_matrix(self, drive, monkeypatch):
        # H_1^F .. H_G^F and H_1^Add .. H_G^Add; H_LP is never diagonalised
        _, fh = drive
        space = FloquetSpace(6, 4)
        shared = build_floquet_operators(fh, space)
        calls = []
        real_eigh = np.linalg.eigh

        def counting_eigh(mat, *args, **kwargs):
            calls.append(mat.shape)
            return real_eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        builders = (
            lambda ops, p: build_tf(suzuki_plan(p, 2), ops, DRIVE_T),
            lambda ops, p: build_tf(suzuki_plan(p, 2, INSTANTANEOUS), ops, DRIVE_T),
            lambda ops, p: build_tf_suzuki(ops, p, DRIVE_T),
        )
        for p in (1, 2, 4):
            for build in builders:
                before = len(calls)
                want = build(build_floquet_operators(fh, space), p)
                del calls[before:]  # count only the shared operators' calls
                np.testing.assert_array_equal(build(shared, p), want)
        gamma = fh.n_terms
        assert 0 < len(calls) <= 2 * gamma

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_column_blocks_are_columns_of_the_whole_formula(self, drive, p):
        _, fh = drive
        space = FloquetSpace(8, 4)
        ops = build_floquet_operators(fh, space)
        builders = (
            lambda *x: build_tf(suzuki_plan(p, 2), ops, DRIVE_T, *x),
            lambda *x: build_tf(suzuki_plan(p, 2, INSTANTANEOUS), ops, DRIVE_T, *x),
            lambda *x: build_tf_suzuki(ops, p, DRIVE_T, *x),
        )
        for build in builders:
            whole = build()
            for width in (0, space.l_keep, space.l_max):
                lo, hi = (space.l_max - width) * 4, (space.l_max + width + 1) * 4
                got = build(space.slab(width))
                assert got.shape == (space.lifted_dim, hi - lo)
                assert np.linalg.norm(got - whole[:, lo:hi], 2) <= 1e-13

    @pytest.mark.parametrize("scale_im", [0.0, 0.1])
    def test_suzuki_backward_middle_matches_the_dense_recursion(self, scale_im):
        # p = 4 applies the middle formula at negative durations; with
        # scale_im > 0 the model is not Hermitian, and every H_g^F takes the
        # dense path; H_LP is a phase per row either way
        ham = single_mode_model().scaled(1.0 - 1j * scale_im)
        fh = fourier_hamiltonian(ham, OMEGA, 1)
        assert fh.hermitian == (scale_im == 0)
        ops = build_floquet_operators(fh, FloquetSpace(6, 4))
        want = dense_suzuki(ops, 4, DRIVE_T)
        got = build_tf_suzuki(ops, 4, DRIVE_T)
        assert set(ops._eigs) == ({("F", 1), ("F", 2)} if scale_im == 0 else set())
        assert spectral_norm(got - want) <= 1e-12 * spectral_norm(want)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_instantaneous_plan_is_the_literal_lifted_product(self, drive, p):
        # exp(+i H_LP (1-b_K) t) prod_k [exp(-i H_{g_k}^Add a_k t)
        # exp(+i H_LP (b_k - b_{k-1}) t)], stage 1 applied first
        _, fh = drive
        ops = build_floquet_operators(fh, FloquetSpace(6, 4))
        plan = suzuki_plan(p, 2, INSTANTANEOUS)
        want = np.eye(ops.space.lifted_dim, dtype=np.complex128)
        beta_prev = 0.0
        for st in plan.stages:
            want = matrix_exp(1j * (st.beta - beta_prev) * DRIVE_T * ops.lifted("LP")) @ want
            want = matrix_exp(-1j * st.alpha * DRIVE_T * ops.lifted(("Add", st.gamma))) @ want
            beta_prev = st.beta
        want = matrix_exp(1j * (1.0 - beta_prev) * DRIVE_T * ops.lifted("LP")) @ want
        assert spectral_norm(build_tf(plan, ops, DRIVE_T) - want) <= 1e-11

    @pytest.mark.parametrize("duration", [0.37, -0.37])
    def test_lp_is_a_phase_per_row_without_eigh(self, drive, monkeypatch, duration):
        _, fh = drive
        ops = build_floquet_operators(fh, FloquetSpace(6, 4))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(ops.space.lifted_dim, 8)) + 1j * rng.normal(
            size=(ops.space.lifted_dim, 8))
        want = matrix_exp(-1j * duration * ops.lifted("LP")) @ x

        def no_eigh(*args, **kwargs):
            raise AssertionError("H_LP was diagonalised")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        got = ops.apply("LP", duration, x)
        assert np.allclose(got, want, rtol=0, atol=1e-13)
        assert not ops._eigs

    def test_rejects_corrupt_linear_potential_budget(self, drive):
        # a plan whose stage windows do not add up leaves the wrong total
        # linear-potential time Gamma - 1
        from tdpf.formulas import Stage, StagePlan
        _, fh = drive
        ops = build_floquet_operators(fh, FloquetSpace(4, 4))
        bad = StagePlan((Stage(1, 1.0, 0.0), Stage(2, 1.0, 0.5)), 1, 2)
        with pytest.raises(InvalidInputError):
            build_tf(bad, ops, 0.3)
        with pytest.raises(InvalidInputError, match="Gamma - 1"):
            lifted_factors(bad)


def literal_factors(plan, t):
    """The (key, duration) exponentials of a plan's lifted formula, written
    out from its stages; first applied first."""
    stages = plan.stages
    if plan.family == EXACT:
        factors = []
        for st, nxt in zip(stages, stages[1:]):
            factors += [(("F", st.gamma), st.alpha * t),
                        ("LP", (st.beta + st.alpha - nxt.beta) * t)]
        return factors + [(("F", stages[-1].gamma), stages[-1].alpha * t)]
    factors, beta_prev = [], 0.0
    for st in stages:
        factors += [("LP", -(st.beta - beta_prev) * t), (("Add", st.gamma), st.alpha * t)]
        beta_prev = st.beta
    return factors + [("LP", -(1.0 - beta_prev) * t)]


class TestLiftedFactors:
    @pytest.mark.parametrize("family", [EXACT, INSTANTANEOUS])
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("n_terms", [2, 3])
    def test_durations_add_up_per_key(self, family, p, n_terms):
        # each term's slots take its stages' alpha; the linear potential
        # takes Gamma - 1 between exact segments, and -1 around instants
        plan = suzuki_plan(p, n_terms, family)
        kind = "F" if family == EXACT else "Add"
        totals = {}
        for key, c in lifted_factors(plan):
            totals[key] = totals.get(key, 0.0) + c
        for g in range(1, n_terms + 1):
            alpha = sum(st.alpha for st in plan.stages if st.gamma == g)
            assert totals.pop((kind, g)) == pytest.approx(alpha, rel=1e-14)
        lp = n_terms - 1 if family == EXACT else -1.0
        assert totals == {"LP": pytest.approx(lp, rel=1e-14)}

    @pytest.mark.parametrize("family", [EXACT, INSTANTANEOUS])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_build_tf_is_the_literal_factor_product(self, drive, family, p):
        _, fh = drive
        ops = build_floquet_operators(fh, FloquetSpace(6, 4))
        plan = suzuki_plan(p, 2, family)
        np.testing.assert_array_equal(build_tf(plan, ops, DRIVE_T),
                                      ops.apply_factors(literal_factors(plan, DRIVE_T)))


class TestReconstruct:
    def test_static_exact_at_any_truncation(self):
        ham = static_model()
        fh = fourier_hamiltonian(ham, OMEGA, 0)
        t = 0.6
        exact = evolve(ham.total_curve(), 0.0, t, tol=1e-12)
        for l_max in (0, 4):
            space = FloquetSpace(l_max, 4)
            ops = build_floquet_operators(fh, space)
            got = reconstruct(matrix_exp(-1j * t * ops.lifted("F")), space, OMEGA, t)
            assert spectral_norm(got - exact) <= 1e-10

    @pytest.mark.parametrize("builder_order", [1, 2])
    def test_truncation_sweep_pf(self, drive, builder_order):
        ham, fh = drive
        t = DRIVE_T
        plan = suzuki_plan(builder_order, 2)
        target = evaluate_pf(plan, ham, t)
        devs = []
        for l_max in (4, 8, 16, 24):
            space = FloquetSpace(l_max, 4)
            ops = build_floquet_operators(fh, space)
            tf = build_tf(plan, ops, t)
            devs.append(spectral_norm(target - reconstruct(tf, space, OMEGA, t)))
        assert all(b <= a * (1 + 1e-9) + 1e-12 for a, b in zip(devs, devs[1:]))
        assert devs[-1] <= 1e-6

    def test_truncation_sweep_exact_evolution(self, drive):
        ham, fh = drive
        t = DRIVE_T
        exact = evolve(ham.total_curve(), 0.0, t, tol=1e-12)
        devs = []
        for l_max in (4, 8, 16, 24):
            space = FloquetSpace(l_max, 4)
            ops = build_floquet_operators(fh, space)
            got = reconstruct(matrix_exp(-1j * t * ops.lifted("F")), space, OMEGA, t)
            devs.append(spectral_norm(got - exact))
        assert all(b <= a * (1 + 1e-9) + 1e-12 for a, b in zip(devs, devs[1:]))
        assert devs[-1] <= 1e-6

    def test_error_identity(self, drive):
        # reconstruct(e^{-iH^F t} - T^F) reproduces U - S up to truncation
        ham, fh = drive
        t = DRIVE_T
        plan = suzuki_plan(2, 2)
        exact = evolve(ham.total_curve(), 0.0, t, tol=1e-12)
        s_mat = evaluate_pf(plan, ham, t)
        space = FloquetSpace(24, 4)
        ops = build_floquet_operators(fh, space)
        lifted_err = matrix_exp(-1j * t * ops.lifted("F")) - build_tf(plan, ops, t)
        dev = spectral_norm(reconstruct(lifted_err, space, OMEGA, t)
                            - (exact - s_mat))
        assert dev <= 1e-6

    @pytest.mark.parametrize("scale_im", [0.0, 0.1])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_lifted_formulas_match_evaluate_pf(self, p, scale_im):
        # floquet-check's drive; with scale_im > 0 a negative duration is the
        # backward evolution, not the adjoint, in evaluate_pf and both lifted
        # builders alike
        ham = single_mode_model(amp=2.0, n_qubits=1).scaled(1.0 - 1j * scale_im)
        fh = fourier_hamiltonian(ham, OMEGA, 1)
        space = FloquetSpace(32, 2)
        ops = build_floquet_operators(fh, space)
        plan = suzuki_plan(p, 2)
        target = evaluate_pf(plan, ham, DRIVE_T)
        column0 = space.slab(0)
        for tf in (build_tf(plan, ops, DRIVE_T, column0),
                   build_tf_suzuki(ops, p, DRIVE_T, column0)):
            assert spectral_norm(target - reconstruct(tf, space, OMEGA, DRIVE_T)) <= 1e-12

    def test_instantaneous_family_reconstruction(self, drive):
        ham, fh = drive
        t = DRIVE_T
        space = FloquetSpace(24, 4)
        ops = build_floquet_operators(fh, space)
        for p in (1, 2):
            plan = suzuki_plan(p, 2, INSTANTANEOUS)
            target = evaluate_pf(plan, ham, t)
            got = reconstruct(build_tf(plan, ops, t), space, OMEGA, t)
            assert spectral_norm(target - got) <= 1e-6


def literal_translation_symmetry(lifted, space, omega, t, l_keep):
    """Reference: the per-triple loop over (shift, row, col) block pairs."""
    worst = 0.0
    for shift in range(-l_keep, l_keep + 1):
        if shift == 0:
            continue
        phase = np.exp(1j * shift * omega * t)
        for l_row in range(-l_keep, l_keep + 1):
            if abs(l_row - shift) > l_keep:
                continue
            for l_col in range(-l_keep, l_keep + 1):
                if abs(l_col - shift) > l_keep:
                    continue
                dev = spectral_norm(
                    space.block(lifted, l_row, l_col)
                    - phase * space.block(lifted, l_row - shift, l_col - shift))
                worst = max(worst, dev)
    return worst


def transition_profile(lifted, space):
    """[max(||<l|op|0>||, ||<-l|op|0>||) for l = 0..l_keep]: the lifted
    operator's transition amplitudes out of the l = 0 block."""
    return [max(spectral_norm(space.block(lifted, l, 0)),
                spectral_norm(space.block(lifted, -l, 0)))
            for l in range(space.l_keep + 1)]


class TestTranslationSymmetry:
    def test_matches_literal_loop_on_driven_evolution(self, drive):
        _, fh = drive
        space = FloquetSpace(8, 4)
        ops = build_floquet_operators(fh, space)
        lifted = matrix_exp(-1j * DRIVE_T * ops.lifted("F"))
        expected = literal_translation_symmetry(lifted, space, OMEGA, DRIVE_T, 4)
        got = check_translation_symmetry(lifted, space, OMEGA, DRIVE_T)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("l_keep", [0, 1, 3])
    def test_matches_literal_loop_on_random_matrix(self, l_keep):
        rng = np.random.default_rng(7 + l_keep)
        space = FloquetSpace(2 * l_keep, 3)
        n = space.lifted_dim
        lifted = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        expected = literal_translation_symmetry(lifted, space, OMEGA, 0.3, l_keep)
        got = check_translation_symmetry(lifted, space, OMEGA, 0.3)
        if l_keep == 0:
            assert got == expected == 0.0
        else:
            assert got == pytest.approx(expected, rel=1e-12)

    def test_lp_alone_is_symmetric(self, drive):
        # the linear potential enters the lifted generator as -H_LP, so the
        # consistent-phase exponential is exp(+i H_LP t)
        _, fh = drive
        space = FloquetSpace(6, 4)
        ops = build_floquet_operators(fh, space)
        dev = check_translation_symmetry(matrix_exp(1j * 0.7 * ops.lifted("LP")),
                                         space, OMEGA, 0.7)
        assert dev <= 1e-12

    def test_static_lifted_evolution_symmetric(self):
        ham = static_model()
        fh = fourier_hamiltonian(ham, OMEGA, 0)
        space = FloquetSpace(6, 4)
        ops = build_floquet_operators(fh, space)
        dev = check_translation_symmetry(matrix_exp(-1j * 0.5 * ops.lifted("F")),
                                         space, OMEGA, 0.5)
        assert dev <= 1e-12

    def test_driven_interior_symmetry(self, drive):
        _, fh = drive
        space = FloquetSpace(16, 4)
        ops = build_floquet_operators(fh, space)
        dev = check_translation_symmetry(matrix_exp(-1j * DRIVE_T * ops.lifted("F")),
                                         space, OMEGA, DRIVE_T)
        assert dev <= 1e-6

    def test_transition_amplitude_decay(self, drive):
        _, fh = drive
        space = FloquetSpace(24, 4)
        ops = build_floquet_operators(fh, space)
        profile = transition_profile(matrix_exp(-1j * DRIVE_T * ops.lifted("F")), space)
        envelope = profile[2:]
        assert all(b <= a * (1 + 1e-9) + 1e-12
                   for a, b in zip(envelope, envelope[1:]))

    def test_one_screened_stack_per_shift_matches_the_literal_loop(self, monkeypatch):
        # dimension 16 and l_keep 9: each shift's block pairs form one stack,
        # screened by Frobenius norm, and only its candidates reach the
        # eigensolve; block scales over three decades give the screen work
        rng = np.random.default_rng(11)
        space = FloquetSpace(18, 16)
        d, keep = space.dim, space.l_keep
        n = space.lifted_dim
        scales = np.kron(10.0 ** rng.uniform(-3, 0, size=(space.n_blocks,) * 2), np.ones((d, d)))
        lifted = scales * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        calls = []  # ("fro", stack) and ("norm", stack, norms) in call order
        real_fro, real_norms = floquet._frobenius_norms, floquet.spectral_norms

        def recording_fro(stack):
            calls.append(("fro", stack.reshape(-1, d, d).copy()))
            return real_fro(stack)

        def recording_norms(stack):
            norms = real_norms(stack)
            calls.append(("norm", stack.copy(), norms))
            return norms

        monkeypatch.setattr(floquet, "_frobenius_norms", recording_fro)
        monkeypatch.setattr(floquet, "spectral_norms", recording_norms)
        got = check_translation_symmetry(lifted, space, OMEGA, 0.3)
        stacks = [call[1] for call in calls if call[0] == "fro"]
        # one screen per shift s = 1..l_keep, of the pairs (l, l'), (l-s, l'-s)
        # with all four indices in the window: every unordered pair once
        assert len(stacks) == keep
        for shift, stack in enumerate(stacks, start=1):
            phase = np.exp(1j * shift * OMEGA * 0.3)
            inside = range(shift - keep, keep + 1)
            want = [space.block(lifted, l, m) - phase * space.block(lifted, l - shift, m - shift)
                    for l in inside for m in inside]
            np.testing.assert_allclose(stack, np.array(want), rtol=0, atol=1e-14)
        # replay a literal screen: a block is a candidate when its Frobenius
        # norm reaches max(worst so far, stack max / sqrt(d)) less 1e-12
        worst, pos = 0.0, 0
        for stack in stacks:
            assert calls[pos][0] == "fro"
            pos += 1
            fro = [np.linalg.norm(block) for block in stack]
            floor = max(worst, max(fro) / np.sqrt(d)) * (1.0 - 1e-12)
            want = [block for block, f in zip(stack, fro) if f >= floor]
            if want:
                kind, kept, norms = calls[pos]
                assert kind == "norm"
                np.testing.assert_array_equal(kept.reshape(-1, d, d), np.array(want))
                worst = max(worst, float(norms.max()))
                pos += 1
        assert pos == len(calls)
        assert worst == got
        assert sum(len(call[1]) for call in calls if call[0] == "norm") < len(np.concatenate(stacks))
        expected = literal_translation_symmetry(lifted, space, OMEGA, 0.3, keep)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_non_finite_block_raises(self):
        space = FloquetSpace(4, 2)
        lifted = np.eye(space.lifted_dim, dtype=complex)
        lifted[space.l_max * 2 + 1, (space.l_max + 1) * 2] = np.nan
        with pytest.raises(NumericalBlowUpError):
            check_translation_symmetry(lifted, space, OMEGA, 0.3)

    def test_zero_operator_has_no_deviation(self):
        space = FloquetSpace(4, 2)
        lifted = np.zeros((space.lifted_dim, space.lifted_dim), dtype=complex)
        assert check_translation_symmetry(lifted, space, OMEGA, 0.3) == 0.0

    def test_window_slab_reads_like_the_whole_matrix(self, drive):
        _, fh = drive
        space = FloquetSpace(10, 4)
        ops = build_floquet_operators(fh, space)
        whole = matrix_exp(-1j * DRIVE_T * ops.lifted("F"))
        want = check_translation_symmetry(whole, space, OMEGA, DRIVE_T)
        assert want == pytest.approx(literal_translation_symmetry(
            whole, space, OMEGA, DRIVE_T, 5), rel=1e-12)
        for width in (5, 7, 10):
            lo, hi = (10 - width) * 4, (10 + width + 1) * 4
            slab = whole[:, lo:hi]
            assert check_translation_symmetry(slab, space, OMEGA, DRIVE_T) == want
            np.testing.assert_array_equal(reconstruct(slab, space, OMEGA, DRIVE_T),
                                          reconstruct(whole, space, OMEGA, DRIVE_T))
        with pytest.raises(InvalidInputError, match="misses the window"):
            check_translation_symmetry(whole[:, 6 * 4:15 * 4], space, OMEGA, DRIVE_T)


class TestFloquetSpace:
    @pytest.mark.parametrize("l_max", [0, 1, 2, 7, 24])
    def test_window_is_half_the_truncation(self, l_max):
        assert FloquetSpace(l_max, 2).l_keep == l_max // 2

    def test_negative_truncation_rejected(self):
        with pytest.raises(InvalidInputError):
            FloquetSpace(-1, 2)

    def test_block_view_of_a_slab(self):
        space = FloquetSpace(3, 2)
        rng = np.random.default_rng(3)
        whole = rng.normal(size=(space.lifted_dim, space.lifted_dim))
        slab = whole[:, 2 * 2:5 * 2]  # block columns |l| <= 1
        view = space.blocks(slab)
        assert view.shape == (7, 3, 2, 2)
        for l_row in range(-3, 4):
            for l_col in (-1, 0, 1):
                want = whole[(l_row + 3) * 2:(l_row + 4) * 2, (l_col + 3) * 2:(l_col + 4) * 2]
                np.testing.assert_array_equal(view[l_row + 3, l_col + 1], want)
                np.testing.assert_array_equal(space.block(slab, l_row, l_col), want)

    @pytest.mark.parametrize("shape", [(14, 4), (14, 18), (12, 6)],
                             ids=["even-columns", "too-many-columns", "wrong-rows"])
    def test_blocks_rejects_shapes_that_are_no_slab(self, shape):
        space = FloquetSpace(3, 2)  # lifted dimension 14, block columns of width 2
        with pytest.raises(InvalidInputError, match="is not a slab"):
            space.blocks(np.zeros(shape, dtype=complex))
