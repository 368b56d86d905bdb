import numpy as np
import pytest

from tdpf.curves import ConstantCurve, TrigCurve, extrapolate_scalar
from tdpf.errors import InvalidInputError
from tdpf.floquet import (build_floquet_operators, build_tf,
                          build_tf_instantaneous, build_tf_suzuki,
                          check_translation_symmetry, floquet_space,
                          fourier_decompose, fourier_hamiltonian, reconstruct)
from tdpf.formulas import INSTANTANEOUS, evaluate_pf, suzuki_plan
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
        space = floquet_space(3, 4)
        ops = build_floquet_operators(fh, space)
        for l_row in range(-3, 4):
            for l_col in range(-3, 4):
                if l_row != l_col:
                    assert spectral_norm(space.block(ops.h_f, l_row, l_col)) <= 1e-12

    def test_term_decomposition_identity(self, drive):
        _, fh = drive
        space = floquet_space(6, 4)
        ops = build_floquet_operators(fh, space)
        recomposed = sum(ops.h_f_terms) + (fh.n_terms - 1) * ops.h_lp
        assert spectral_norm(ops.h_f - recomposed) == 0.0

    def test_single_mode_band_structure(self, drive):
        _, fh = drive
        space = floquet_space(8, 4)
        ops = build_floquet_operators(fh, space)
        h_add = ops.h_add_terms[1]
        for l_row in range(-8, 9):
            for l_col in range(-8, 9):
                blk = spectral_norm(space.block(h_add, l_row, l_col))
                if abs(l_row - l_col) == 1:
                    assert blk > 0.1
                else:
                    assert blk <= 1e-12

    def test_lp_is_diagonal(self, drive):
        _, fh = drive
        space = floquet_space(4, 4)
        ops = build_floquet_operators(fh, space)
        ls = np.repeat(np.arange(-4, 5), 4)
        assert np.allclose(ops.h_lp, np.diag(ls * OMEGA), atol=1e-14)

    def test_mode_cutoff_cap(self, drive):
        _, fh = drive
        with pytest.raises(InvalidInputError):
            build_floquet_operators(fh, floquet_space(0, 4))


class TestBuildTf:
    def test_first_order_product_shape(self, drive):
        # three exponential groups for Gamma = 2
        _, fh = drive
        space = floquet_space(6, 4)
        ops = build_floquet_operators(fh, space)
        t = DRIVE_T
        direct = (matrix_exp(-1j * t * ops.h_f_terms[1])
                  @ matrix_exp(-1j * t * ops.h_lp)
                  @ matrix_exp(-1j * t * ops.h_f_terms[0]))
        got = build_tf(suzuki_plan(1, 2), ops, t)
        assert spectral_norm(got - direct) <= 1e-11

    def test_static_block_structure(self):
        ham = static_model()
        fh = fourier_hamiltonian(ham, OMEGA, 1)
        space = floquet_space(4, 4)
        ops = build_floquet_operators(fh, space)
        tf = build_tf(suzuki_plan(1, 2), ops, 0.4)
        base = evaluate_pf(suzuki_plan(1, 2), ham, 0.4)
        # the ancilla-diagonal blocks repeat the base formula up to LP phases
        assert spectral_norm(space.block(tf, 0, 0) - base) <= 1e-11
        for l in (1, 2):
            assert spectral_norm(space.block(tf, l, 0)) <= 1e-12

    def test_matches_lifted_suzuki_recursion(self, drive):
        _, fh = drive
        space = floquet_space(8, 4)
        ops = build_floquet_operators(fh, space)
        for p in (1, 2, 4):
            a = build_tf(suzuki_plan(p, 2), ops, DRIVE_T)
            b = build_tf_suzuki(ops, p, DRIVE_T)
            assert spectral_norm(a - b) <= 1e-12

    def test_one_eigendecomposition_per_lifted_matrix(self, drive, monkeypatch):
        # H_1^F .. H_G^F, H_LP and H_1^Add .. H_G^Add: at most 2 G - 1 + G
        _, fh = drive
        space = floquet_space(6, 4)
        shared = build_floquet_operators(fh, space)
        calls = []
        real_eigh = np.linalg.eigh

        def counting_eigh(mat, *args, **kwargs):
            calls.append(mat.shape)
            return real_eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        builders = (
            lambda ops, p: build_tf(suzuki_plan(p, 2), ops, DRIVE_T),
            lambda ops, p: build_tf_instantaneous(suzuki_plan(p, 2, INSTANTANEOUS),
                                                  ops, DRIVE_T),
            lambda ops, p: build_tf_suzuki(ops, p, DRIVE_T),
        )
        for p in (1, 2, 4):
            for build in builders:
                before = len(calls)
                want = build(build_floquet_operators(fh, space), p)
                del calls[before:]  # count only the shared operators' calls
                np.testing.assert_array_equal(build(shared, p), want)
        gamma = fh.n_terms
        assert 0 < len(calls) <= 2 * gamma - 1 + gamma

    def test_requires_exact_family(self, drive):
        _, fh = drive
        ops = build_floquet_operators(fh, floquet_space(4, 4))
        with pytest.raises(InvalidInputError):
            build_tf(suzuki_plan(1, 2, INSTANTANEOUS), ops, 0.3)

    def test_rejects_corrupt_linear_potential_budget(self, drive):
        # a plan whose stage windows do not add up leaves the wrong total
        # linear-potential time Gamma - 1
        from tdpf.formulas import Stage, StagePlan
        _, fh = drive
        ops = build_floquet_operators(fh, floquet_space(4, 4))
        bad = StagePlan((Stage(1, 1.0, 0.0), Stage(2, 1.0, 0.5)), 1, 2)
        with pytest.raises(InvalidInputError):
            build_tf(bad, ops, 0.3)


class TestReconstruct:
    def test_static_exact_at_any_truncation(self):
        ham = static_model()
        fh = fourier_hamiltonian(ham, OMEGA, 0)
        t = 0.6
        exact = evolve(ham.total_curve(), 0.0, t, tol=1e-12)
        for l_max in (0, 2):
            space = floquet_space(l_max, 4, l_keep=l_max)
            ops = build_floquet_operators(fh, space)
            got = reconstruct(matrix_exp(-1j * t * ops.h_f), space, OMEGA, t)
            assert spectral_norm(got - exact) <= 1e-10

    @pytest.mark.parametrize("builder_order", [1, 2])
    def test_truncation_sweep_pf(self, drive, builder_order):
        ham, fh = drive
        t = DRIVE_T
        plan = suzuki_plan(builder_order, 2)
        target = evaluate_pf(plan, ham, t)
        devs = []
        for l_max in (4, 8, 16, 24):
            space = floquet_space(l_max, 4)
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
            space = floquet_space(l_max, 4)
            ops = build_floquet_operators(fh, space)
            got = reconstruct(matrix_exp(-1j * t * ops.h_f), space, OMEGA, t)
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
        space = floquet_space(24, 4)
        ops = build_floquet_operators(fh, space)
        lifted_err = matrix_exp(-1j * t * ops.h_f) - build_tf(plan, ops, t)
        dev = spectral_norm(reconstruct(lifted_err, space, OMEGA, t)
                            - (exact - s_mat))
        assert dev <= 1e-6

    def test_instantaneous_family_reconstruction(self, drive):
        ham, fh = drive
        t = DRIVE_T
        space = floquet_space(24, 4)
        ops = build_floquet_operators(fh, space)
        for p in (1, 2):
            plan = suzuki_plan(p, 2, INSTANTANEOUS)
            target = evaluate_pf(plan, ham, t)
            got = reconstruct(build_tf_instantaneous(plan, ops, t), space, OMEGA, t)
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
        space = floquet_space(8, 4, l_keep=4)
        ops = build_floquet_operators(fh, space)
        lifted = matrix_exp(-1j * DRIVE_T * ops.h_f)
        expected = literal_translation_symmetry(lifted, space, OMEGA, DRIVE_T, 4)
        got = check_translation_symmetry(lifted, space, OMEGA, DRIVE_T)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("l_keep", [0, 1, 3])
    def test_matches_literal_loop_on_random_matrix(self, l_keep):
        rng = np.random.default_rng(7 + l_keep)
        space = floquet_space(4, 3, l_keep=l_keep)
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
        space = floquet_space(6, 4, l_keep=3)
        ops = build_floquet_operators(fh, space)
        dev = check_translation_symmetry(matrix_exp(1j * 0.7 * ops.h_lp),
                                         space, OMEGA, 0.7)
        assert dev <= 1e-12

    def test_static_lifted_evolution_symmetric(self):
        ham = static_model()
        fh = fourier_hamiltonian(ham, OMEGA, 0)
        space = floquet_space(6, 4, l_keep=3)
        ops = build_floquet_operators(fh, space)
        dev = check_translation_symmetry(matrix_exp(-1j * 0.5 * ops.h_f),
                                         space, OMEGA, 0.5)
        assert dev <= 1e-12

    def test_driven_interior_symmetry(self, drive):
        _, fh = drive
        space = floquet_space(16, 4, l_keep=8)
        ops = build_floquet_operators(fh, space)
        dev = check_translation_symmetry(matrix_exp(-1j * DRIVE_T * ops.h_f),
                                         space, OMEGA, DRIVE_T)
        assert dev <= 1e-6

    def test_transition_amplitude_decay(self, drive):
        _, fh = drive
        space = floquet_space(24, 4, l_keep=12)
        ops = build_floquet_operators(fh, space)
        profile = transition_profile(matrix_exp(-1j * DRIVE_T * ops.h_f), space)
        envelope = profile[2:]
        assert all(b <= a * (1 + 1e-9) + 1e-12
                   for a, b in zip(envelope, envelope[1:]))
