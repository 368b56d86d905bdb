import math
import tracemalloc
import warnings
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np
import pytest

import tdpf.linalg as linalg
from conftest import random_matrix
from tdpf.errors import InvalidInputError, NumericalBlowUpError
from tdpf.linalg import (PAULI, batch_size, batched, matrix_exp, matrix_exps,
                         pauli_permutation, pauli_sum, spectral_norm,
                         spectral_norms)
from tdpf.sectors import _compose

X, Y, Z, I2 = PAULI["X"], PAULI["Y"], PAULI["Z"], PAULI["I"]


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_diagonal(self):
        assert spectral_norm(2j * Z) == pytest.approx(2.0, abs=1e-12)

    def test_pauli_commutator(self):
        # direct 2x2 multiplication: [X, Y] = 2iZ
        assert spectral_norm(X @ Y - Y @ X) == pytest.approx(2.0, abs=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            spectral_norm(np.array([[np.nan, 0], [0, 1]]))
        with pytest.raises(InvalidInputError):
            spectral_norm(np.ones((2, 3)))

    def test_triangle_and_submultiplicative(self, rng):
        for _ in range(20):
            a = random_matrix(rng, 6)
            b = random_matrix(rng, 6)
            assert spectral_norm(a + b) <= spectral_norm(a) + spectral_norm(b) + 1e-9
            assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-9

    def test_unitary_invariance(self, rng):
        a = random_matrix(rng, 8)
        h = random_matrix(rng, 8, hermitian=True)
        u = matrix_exp(-1j * h)
        assert spectral_norm(u @ a @ u.conj().T) == pytest.approx(
            spectral_norm(a), abs=1e-9)


def svd_norms(stack):
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


class TestSpectralNorms:
    def test_hermitian_stack(self, rng):
        stack = np.stack([random_matrix(rng, 5, hermitian=True) for _ in range(7)])
        expected = svd_norms(stack)
        np.testing.assert_allclose(spectral_norms(stack, hermitian=True), expected,
                                   rtol=1e-12)
        np.testing.assert_allclose(spectral_norms(stack), expected, rtol=1e-12)

    def test_anti_hermitian_times_minus_i(self, rng):
        stack = np.stack([random_matrix(rng, 6, skew=True) for _ in range(5)])
        np.testing.assert_allclose(spectral_norms(-1j * stack, hermitian=True),
                                   svd_norms(stack), rtol=1e-12)

    def test_general_stack(self, rng):
        stack = np.stack([random_matrix(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        got = spectral_norms(stack)
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, svd_norms(stack), rtol=1e-12)

    def test_real_stack(self, rng, monkeypatch):
        # a real symmetric or antisymmetric stack stays float64 through its
        # eigensolve: its norms agree with the complex path's and with the SVD
        a = rng.normal(size=(6, 5, 5))
        stack = np.concatenate([a + a.swapaxes(-1, -2), a - a.swapaxes(-1, -2)])
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m):
            solved.append(m.dtype)
            return eigvalsh(m)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", spy)
            got = spectral_norms(stack)
        assert solved == [np.dtype(np.float64)]
        np.testing.assert_allclose(got, svd_norms(stack), rtol=1e-14)
        np.testing.assert_allclose(got, spectral_norms(stack.astype(complex)), rtol=1e-14)
        np.testing.assert_allclose(spectral_norms(stack[:6], hermitian=True), got[:6],
                                   rtol=1e-14)

    def test_one_by_one(self):
        stack = np.array([[[3 - 4j]], [[-2.0]], [[0.0]]])
        np.testing.assert_array_equal(spectral_norms(stack), [5.0, 2.0, 0.0])
        np.testing.assert_array_equal(spectral_norms(stack.real, hermitian=True),
                                      [3.0, 2.0, 0.0])

    def test_one_by_one_stacks_on_every_path(self, rng):
        # 1x1 matrices take the eigensolves like any other size
        a = rng.normal(size=(2, 3, 1, 1)) + 1j * rng.normal(size=(2, 3, 1, 1))
        r = a.real
        for got, want in ((spectral_norms(a), np.abs(a)),
                          (spectral_norms(r), np.abs(r)),
                          (spectral_norms(r.astype(complex)), np.abs(r)),
                          (spectral_norms(r, hermitian=True), np.abs(r)),
                          (spectral_norms(r.astype(complex), hermitian=True), np.abs(r))):
            assert got.shape == (2, 3)
            np.testing.assert_allclose(got, want[..., 0, 0], rtol=1e-15, atol=0)

    def test_rejects_nonfinite(self, rng):
        stack = np.stack([random_matrix(rng, 3) for _ in range(4)])
        stack[2, 1, 0] = np.inf
        with pytest.raises(InvalidInputError):
            spectral_norms(stack)
        with pytest.raises(InvalidInputError):
            spectral_norms(np.ones((3, 2, 3)))

    def test_single_matrix_unchanged(self, rng):
        # spectral_norm keeps the A†A eigenvalue formula, bit for bit
        for dim in (2, 4, 9):
            m = random_matrix(rng, dim)
            literal = float(np.sqrt(max(np.linalg.eigvalsh(m.conj().T @ m)[-1], 0.0)))
            assert spectral_norm(m) == literal
        assert spectral_norm(np.array([[3 - 4j]])) == 5.0


class TestMatrixExp:
    def test_zero(self):
        assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-14)

    def test_pauli_rotation(self):
        # closed form: exp(-i (pi/2) X) = cos(pi/2) I - i sin(pi/2) X = -i X
        got = matrix_exp(-1j * (math.pi / 2) * X)
        assert np.allclose(got, -1j * X, atol=1e-12)

    def test_skew_hermitian_matches_taylor(self, rng):
        a = random_matrix(rng, 4, skew=True)
        series = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 31):
            term = term @ a / k
            series += term
        assert spectral_norm(matrix_exp(a) - series) < 1e-10

    def test_general_matrix_matches_taylor(self, rng):
        a = 0.5 * random_matrix(rng, 4)
        series = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 31):
            term = term @ a / k
            series += term
        assert spectral_norm(matrix_exp(a) - series) < 1e-10

    @pytest.mark.parametrize("dim", [2, 16, 128, 256])
    def test_unitarity_for_hermitian_generator(self, rng, dim):
        h = random_matrix(rng, dim, hermitian=True)
        u = matrix_exp(-1j * 0.7 * h)
        assert spectral_norm(u.conj().T @ u - np.eye(dim)) <= 1e-10


# Higham's [13/13] Pade coefficients, b_k = b_0 (26 - k)! 13! / (26! k! (13 - k)!),
# and theta_13 (SIAM J. Matrix Anal. Appl. 26, 1179 (2005))
PADE13 = [float(Fraction(math.factorial(26 - k) * math.factorial(13),
                         math.factorial(26) * math.factorial(k) * math.factorial(13 - k))
                * 64764752532480000) for k in range(14)]
THETA13 = 5.371920351148152


def pade13_exponent(m):
    """Higham's scaling exponent max(0, ceil(log2(||A||_1 / theta_13)))."""
    return max(0, math.ceil(math.log2(np.abs(m).sum(axis=0).max() / THETA13)))


def literal_pade13(m):
    """Higham's scaling and squaring for one matrix, written out."""
    b = PADE13
    s = pade13_exponent(m)
    a = m / 2.0**s
    ident = np.eye(len(m))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def literal_exp(m):
    """The per-matrix exponential written out: a skew-Hermitian matrix by the
    eigendecomposition of iA, any other, Hermitian ones too, by Pade."""
    scale = np.max(np.abs(m), initial=1.0)
    if np.max(np.abs(m + m.conj().T), initial=0.0) <= 1e-13 * scale:
        evals, vecs = np.linalg.eigh(1j * m)
        return (vecs * np.exp(-1j * evals)) @ vecs.conj().T
    return literal_pade13(m)


class TestMatrixExps:
    @staticmethod
    def stack(rng, kind, dim, count=5):
        if kind == "mixed":
            # every class, plus the zero matrix (both Hermitian and skew), a
            # Hermitian matrix nudged just inside the 1e-13 relative threshold,
            # and a small one whose asymmetry only the threshold's floor of
            # 1e-13 absolute accepts
            h = random_matrix(rng, dim, hermitian=True)
            upper = np.triu(np.ones((dim, dim)), 1)
            nudged = h + 5e-14 * np.max(np.abs(h)) * upper
            small = 1e-3 * h + 5e-14 * upper
            return np.stack([h, -1j * 0.3 * h, random_matrix(rng, dim, skew=True),
                             0.5 * random_matrix(rng, dim), np.zeros((dim, dim)),
                             nudged, small, random_matrix(rng, dim, hermitian=True)])
        make = {"hermitian": lambda: random_matrix(rng, dim, hermitian=True),
                "skew": lambda: random_matrix(rng, dim, skew=True),
                "general": lambda: 0.5 * random_matrix(rng, dim)}[kind]
        return np.stack([make() for _ in range(count)])

    @pytest.mark.parametrize("kind", ["hermitian", "skew", "general", "mixed"])
    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 64])
    def test_bitwise_equal_to_literal_formula(self, rng, kind, dim):
        stack = self.stack(rng, kind, dim)
        got = matrix_exps(stack)
        assert got.shape == stack.shape
        for m, e in zip(stack, got):
            assert np.array_equal(e, literal_exp(m))
            assert np.array_equal(matrix_exp(m), e)

    def test_leading_axes_kept(self, rng):
        stack = self.stack(rng, "mixed", 3)[:6].reshape(2, 3, 3, 3)
        got = matrix_exps(stack)
        assert got.shape == (2, 3, 3, 3)
        assert np.array_equal(got[1, 2], literal_exp(stack[1, 2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)])
    def test_rejects_nonfinite(self, rng, bad):
        stack = self.stack(rng, "hermitian", 3)
        stack[2, 0, 1] = bad
        with pytest.raises(InvalidInputError):
            matrix_exps(stack)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            matrix_exps(np.ones((2, 2, 3)))

    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 64])
    def test_general_matches_scipy_expm(self, rng, dim):
        import scipy.linalg  # the reference only; tdpf never imports it
        for norm in (1e-8, 1e-3, 0.1, 1.0, 5.0, 30.0, 200.0):
            a = random_matrix(rng, dim)
            a *= norm / np.abs(a).sum(axis=0).max()
            want = scipy.linalg.expm(a)
            err = spectral_norm(matrix_exp(a) - want) / spectral_norm(want)
            assert err <= 1e-14 * max(1.0, norm), (norm, err)

    @pytest.mark.parametrize("dim", [2, 5, 16, 64])
    def test_hermitian_matches_scipy_expm(self, rng, dim):
        # Hermitian matrices take the Pade pass with the general ones
        import scipy.linalg  # the reference only; tdpf never imports it
        stack = []
        for norm in (1e-3, 0.1, 1.0, 5.0, 20.0):
            h = random_matrix(rng, dim, hermitian=True)
            stack.append(h * norm / np.abs(h).sum(axis=0).max())
        for m, e in zip(stack, matrix_exps(np.stack(stack))):
            want = scipy.linalg.expm(m)
            assert spectral_norm(e - want) <= 1e-13 * spectral_norm(want)

    def test_stack_mixing_scaling_exponents(self, rng):
        # ||A||_1 = theta_13 2^(s - 1/2) needs s squarings (s = 0: theta_13 / 2)
        stack = []
        for s in range(9):
            a = random_matrix(rng, 4)
            a *= THETA13 * 2.0 ** (s - 0.5 if s else -1.0) / np.abs(a).sum(axis=0).max()
            assert pade13_exponent(a) == s
            stack.append(a)
        stack = np.stack(stack)[rng.permutation(9)]
        got = matrix_exps(stack)
        for m, e in zip(stack, got):
            assert np.array_equal(e, matrix_exp(m))
            assert np.array_equal(e, literal_pade13(m))

    @pytest.mark.parametrize("batch", [1, 3])
    def test_overflow_is_a_blow_up_error(self, rng, batch):
        # ||e^A|| is about e^1000 for ||A|| about 1000; no inf or warning escapes
        a = 1000.0 * np.eye(4) + random_matrix(rng, 4)
        stack = np.stack([0.5 * random_matrix(rng, 4) for _ in range(batch - 1)] + [a])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBlowUpError) as excinfo:
                matrix_exps(stack)
        assert excinfo.type is NumericalBlowUpError


class TestBatches:
    @pytest.mark.parametrize("budget", [24, 80, 640, 1 << 16])
    def test_sizes_match_the_formulas_they_replace(self, monkeypatch, budget):
        # the tau chunk B // e, the walk's block cap B // 8 // (x e), the
        # propagator's chunk B // (2 d^2) and the integrand batch B // d^2
        monkeypatch.setattr(linalg, "BATCH_ENTRIES", budget)
        for e in (1, 3, 4, 16, 64, 256, 4096, 65536, 1 << 18):
            assert batch_size(e) == max(1, budget // e)
            for x in (1, 2, 5, 40):
                assert batch_size(8 * x * e) == max(1, budget // 8 // (x * e))
        for d in (1, 2, 4, 16, 128, 256, 1024):
            assert batch_size(2 * d**2) == max(1, budget // (2 * d**2))
            assert batch_size(d**2) == max(1, budget // d**2)

    @pytest.mark.parametrize("budget,entries,count,sizes", [
        (80, 16, 11, [5, 5, 1]),
        (80, 16, 5, [5]),
        (80, 16, 1, [1]),
        (80, 100, 3, [1, 1, 1]),
        (1 << 16, 4, 40, [40]),
        (1 << 16, 256**2, 2, [1, 1]),
    ])
    def test_batched_cuts_where_the_old_loop_cut(self, monkeypatch, budget, entries, count,
                                                 sizes):
        monkeypatch.setattr(linalg, "BATCH_ENTRIES", budget)
        xs = np.linspace(0.0, 1.0, count)
        seen = []

        def fn(part):
            seen.append(part.copy())
            return 2.0 * part

        got = batched(fn, xs, entries)
        step = max(1, budget // entries)
        assert [len(part) for part in seen] == sizes
        for i, part in zip(range(0, count, step), seen):
            assert np.array_equal(part, xs[i:i + step])
        assert np.array_equal(got, 2.0 * xs)


class TestCommutator:
    def test_self_commutator_vanishes(self, rng):
        a = random_matrix(rng, 5)
        assert spectral_norm(a @ a - a @ a) < 1e-12

    def test_xz(self):
        # the PAULI table: XZ - ZX = -2iY
        assert np.allclose(X @ Z - Z @ X, -2j * Y, atol=1e-12)

    def test_identity_commutes(self, rng):
        b = random_matrix(rng, 4)
        assert spectral_norm(np.eye(4) @ b - b @ np.eye(4)) < 1e-13


class TestEmbedPauliString:
    def test_empty_is_identity(self):
        assert np.allclose(pauli_sum([(1.0, [])], 1), I2)

    def test_single_site(self):
        assert np.allclose(pauli_sum([(1.0, [(0, "Z")])], 2), np.kron(Z, I2))

    def test_two_site(self):
        m = pauli_sum([(1.0, [(0, "X"), (1, "X")])], 2)
        assert np.allclose(m, np.kron(X, X))
        assert spectral_norm(m) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_site_rejected(self):
        with pytest.raises(InvalidInputError):
            pauli_sum([(1.0, [(0, "X"), (0, "Z")])], 2)

    def test_cap_enforced(self):
        with pytest.raises(InvalidInputError, match="qubit cap 12"):
            pauli_sum([(1.0, [(0, "X")])], 13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_string_equals_the_kronecker_product(self, n):
        # the Kronecker product of the PAULI factors, site 0 leftmost, is the
        # reference that the signed-permutation scatter must reproduce
        for labels in product("IXYZ", repeat=n):
            sites = [(i, label) for i, label in enumerate(labels) if label != "I"]
            want = reduce(np.kron, [PAULI[label] for label in labels])
            assert np.array_equal(pauli_sum([(1.0, sites)], n), want), labels

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    @pytest.mark.parametrize("label", "XYZ")
    def test_all_site_string_equals_the_dense_product(self, n, label):
        # the parities that sectors.find_symmetries takes
        got = pauli_sum([(1.0, [(i, label) for i in range(n)])], n)
        assert np.array_equal(got, reduce(np.kron, [PAULI[label]] * n))

    def test_composition_is_the_matrix_product(self):
        n = 4
        g = pauli_permutation([(0, "Y"), (2, "X"), (3, "Z")], n)
        h = pauli_permutation([(0, "X"), (1, "Y"), (3, "Y")], n)
        gh_perm, gh_phase = _compose(g, h)
        gh = np.zeros((2**n, 2**n), dtype=np.complex128)
        gh[gh_perm, np.arange(2**n)] = gh_phase
        want = (pauli_sum([(1.0, [(0, "Y"), (2, "X"), (3, "Z")])], n)
                @ pauli_sum([(1.0, [(0, "X"), (1, "Y"), (3, "Y")])], n))
        assert np.array_equal(gh, want)

    def test_sum_adds_each_string_in_order(self):
        strings = [(0.3, [(0, "X"), (1, "X")]), (-1.7, [(0, "Y"), (1, "Y")]),
                   (0.3, [(0, "X"), (1, "X")]), (2.5, [(2, "Z")]), (0.1j, [])]
        want = np.zeros((8, 8), dtype=np.complex128)
        for coef, sites in strings:
            want = want + coef * pauli_sum([(1.0, sites)], 3)
        assert np.array_equal(pauli_sum(strings, 3), want)

    def test_sum_checks_every_string_before_its_register_array(self):
        # a bad last string fails before the 4^12-entry (256 MiB) array exists
        strings = [(1.0, [(i, "Z")]) for i in range(12)] + [(1.0, [(0, "W")])]
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="unknown Pauli label"):
                pauli_sum(strings, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**12 * 16 * 40  # the strings' signed permutations alone

    @pytest.mark.parametrize("sites,n,message", [
        ([(0, "X")], 0, ">= 1"),
        ([(2, "X")], 2, "out of range"),
        ([(0, "W")], 2, "unknown Pauli label"),
    ])
    def test_bad_string_is_rejected(self, sites, n, message):
        with pytest.raises(InvalidInputError, match=message):
            pauli_permutation(sites, n)

    def test_hermitian_eigenvalues_real(self, rng):
        h = random_matrix(rng, 8, hermitian=True)
        evals = np.linalg.eigvals(h)
        assert np.max(np.abs(evals.imag)) < 1e-10
