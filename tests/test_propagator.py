import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import tdpf.linalg as linalg
import tdpf.propagator as propagator
from conftest import driven_chain, random_matrix
from tdpf.curves import ConstantCurve, TrigCurve
from tdpf.errors import ConvergenceError, InvalidInputError
from tdpf.linalg import BATCH_ENTRIES, PAULI, matrix_exp, spectral_norm
from tdpf.models import OperatorCurve
from tdpf.propagator import _A_MINUS, _A_PLUS, _C1, _C2, _cf4_product, evolve

X, Z, I2 = PAULI["X"], PAULI["Z"], PAULI["I"]

TOL = 1e-12


def ode_reference(generator, t0, t1, tol=1e-13):
    """Independent oracle: integrate dU/dt = -i H(t) U with DOP853."""
    dim = generator.dim

    def rhs(t, y):
        u = y.reshape(dim, dim)
        return (-1j * generator.value(t) @ u).ravel()

    sol = solve_ivp(rhs, (t0, t1), np.eye(dim, dtype=complex).ravel(),
                    method="DOP853", rtol=tol, atol=tol)
    return sol.y[:, -1].reshape(dim, dim)


def driven_generator():
    bond = OperatorCurve([(np.kron(X, X), TrigCurve(0.9, 2.0, offset=0.8))])
    field = OperatorCurve([(np.kron(Z, I2), TrigCurve(0.7, 3.1)),
                           (np.kron(I2, Z), TrigCurve(0.7, 3.1))])
    return OperatorCurve(bond.summands + field.summands)


def reference_cf4_product(generator, t0, dt, n_steps):
    """The step-by-step loop: two value calls and two exponentials per step."""
    u = np.eye(generator.dim, dtype=np.complex128)
    h = dt / n_steps
    for k in range(n_steps):
        t = t0 + k * h
        h1 = generator.value(t + _C1 * h)
        h2 = generator.value(t + _C2 * h)
        left = matrix_exp(-1j * h * (_A_MINUS * h1 + _A_PLUS * h2))
        right = matrix_exp(-1j * h * (_A_PLUS * h1 + _A_MINUS * h2))
        u = left @ right @ u
    return u


class TestChunkedProduct:
    def test_dim2_bit_equal(self):
        gen = driven_generator()
        for n in (1, 2, 7, 40):
            assert np.array_equal(_cf4_product(gen, 0.1, 0.6, n),
                                  reference_cf4_product(gen, 0.1, 0.6, n))

    def test_dim2_ragged_chunks_bit_equal(self, monkeypatch):
        # 3 steps per chunk (2 x 3 x 4 entries <= 24): 11 steps end mid-chunk
        monkeypatch.setattr(linalg, "BATCH_ENTRIES", 24)
        gen = driven_generator()
        assert np.array_equal(_cf4_product(gen, 0.0, 0.9, 11),
                              reference_cf4_product(gen, 0.0, 0.9, 11))

    def test_dim16_across_chunk_boundary_bit_equal(self):
        gen = driven_chain(4).total_curve()
        chunk = BATCH_ENTRIES // (2 * gen.dim**2)
        n = 2 * chunk + 5
        assert np.array_equal(_cf4_product(gen, 0.0, 0.4, n),
                              reference_cf4_product(gen, 0.0, 0.4, n))

    def test_non_hermitian_generator_bit_equal(self, rng):
        # general matrices take the batched Pade kernel
        a = 0.4 * random_matrix(rng, 3)
        gen = OperatorCurve([(a, TrigCurve(1.0, 1.3, offset=0.5))])
        assert np.array_equal(_cf4_product(gen, 0.0, 0.6, 9),
                              reference_cf4_product(gen, 0.0, 0.6, 9))


class TestEvolve:
    def test_constant_generator(self):
        h = 0.8 * np.kron(X, Z) + 0.3 * np.kron(Z, I2)
        gen = OperatorCurve([(h, ConstantCurve(1.0))])
        got = evolve(gen, 0.0, 0.9, tol=TOL)
        assert spectral_norm(got - matrix_exp(-1j * 0.9 * h)) <= TOL * 10

    def test_commuting_time_dependence(self):
        # f(tau) A commutes with itself at all times: time ordering collapses
        a = np.kron(X, X)
        amp, omega = 0.6, 1.9
        gen = OperatorCurve([(a, TrigCurve(amp, omega))])
        s = 1.1
        integral = amp * math.sin(omega * s) / omega
        assert spectral_norm(evolve(gen, 0.0, s, tol=TOL)
                             - matrix_exp(-1j * integral * a)) <= TOL * 10

    def test_matches_independent_ode_oracle(self):
        gen = driven_generator()
        got = evolve(gen, 0.0, 0.7, tol=TOL)
        ref = ode_reference(gen, 0.0, 0.7)
        assert spectral_norm(got - ref) < 5e-11

    def test_composition(self):
        gen = driven_generator()
        u01 = evolve(gen, 0.0, 0.3, tol=TOL)
        u12 = evolve(gen, 0.3, 0.8, tol=TOL)
        u02 = evolve(gen, 0.0, 0.8, tol=TOL)
        assert spectral_norm(u12 @ u01 - u02) <= 3 * TOL

    def test_adjoint_relation(self):
        gen = driven_generator()
        fwd = evolve(gen, 0.0, 0.5, tol=TOL)
        bwd = evolve(gen, 0.5, 0.0, tol=TOL)
        assert spectral_norm(fwd.conj().T - bwd) <= 2 * TOL

    def test_backward_is_the_inverse_for_a_non_hermitian_generator(self):
        # t1 < t0 is the backward evolution, the adjoint only when H is Hermitian
        gen = driven_generator().scaled(1 - 0.1j)
        round_trip = evolve(gen, 0.5, 0.0, tol=TOL) @ evolve(gen, 0.0, 0.5, tol=TOL)
        assert spectral_norm(round_trip - np.eye(4)) <= 10 * TOL

    def test_unitarity(self):
        gen = driven_generator()
        u = evolve(gen, 0.0, 1.3, tol=TOL)
        assert spectral_norm(u.conj().T @ u - np.eye(4)) <= 10 * TOL

    def test_identity_at_zero_interval(self):
        gen = driven_generator()
        assert np.array_equal(evolve(gen, 0.4, 0.4), np.eye(4))

    def test_tol_floor(self):
        with pytest.raises(InvalidInputError):
            evolve(driven_generator(), 0.0, 0.1, tol=1e-14)

    def test_convergence_error_carries_disagreement(self):
        # 18 and 36 steps disagree, and the next doubling passes the cap
        with pytest.raises(ConvergenceError) as err:
            evolve(driven_generator(), 0.0, 20.0, tol=1e-13, max_steps=64)
        assert err.value.last_disagreement is not None
        assert err.value.last_disagreement > 0

    @pytest.mark.parametrize("t1, formed", [(20.0, [18, 36]), (50.0, [])])
    def test_no_product_over_the_cap(self, monkeypatch, t1, formed):
        # over [0, 50] the first count is 46, so its doubling 92 passes the
        # cap of 64 before any step: one product alone certifies nothing
        steps = []

        def spy(generator, t0, dt, n_steps):
            steps.append(n_steps)
            return _cf4_product(generator, t0, dt, n_steps)

        monkeypatch.setattr(propagator, "_cf4_product", spy)
        with pytest.raises(ConvergenceError) as err:
            evolve(driven_generator(), 0.0, t1, tol=1e-13, max_steps=64)
        assert steps == formed
        assert max(steps, default=0) <= 64
        assert (err.value.last_disagreement is None) == (not formed)

    def test_a_hopeless_doubling_loop_stops_after_the_third_product(self, monkeypatch):
        # X 3cos(40 tau) + Z over [0, 2000]: 1392, 2784 and 5568 steps
        # disagree by 1.3 and 0.32, and even 16x per doubling would need
        # 5568 * 2^10 steps, over the cap of 2^16; the loop used to run on
        # to 44544 steps
        steps = []

        def spy(generator, t0, dt, n_steps):
            steps.append(n_steps)
            return _cf4_product(generator, t0, dt, n_steps)

        monkeypatch.setattr(propagator, "_cf4_product", spy)
        gen = OperatorCurve([(X, TrigCurve(3.0, 40.0)), (Z, ConstantCurve(1.0))])
        with pytest.raises(ConvergenceError, match="over the cap of 65536") as err:
            evolve(gen, 0.0, 2000.0, max_steps=1 << 16)
        assert steps == [1392, 2784, 5568]
        assert err.value.last_disagreement > 0.1

    def test_non_hermitian_generator(self, rng):
        a = 0.4 * random_matrix(rng, 3)
        gen = OperatorCurve([(a, TrigCurve(1.0, 1.3, offset=0.5))])
        got = evolve(gen, 0.0, 0.6, tol=1e-11)
        ref = ode_reference(gen, 0.0, 0.6)
        assert spectral_norm(got - ref) < 1e-9

    def test_self_convergence_certificate(self):
        # the advertised certificate: an independently computed half-step
        # refinement sits within tol of the returned operator
        gen = driven_generator()
        u = evolve(gen, 0.0, 0.7, tol=1e-10)
        for n in (64, 128, 256):
            if spectral_norm(u - _cf4_product(gen, 0.0, 0.7, n)) <= 1e-10:
                return
        raise AssertionError("no nearby refinement agrees to tol")
