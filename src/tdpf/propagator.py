"""Reference time-ordered propagator.

A fourth-order commutator-free scheme (two exponentials per step, built from
the two Gauss-Legendre evaluation points) is iterated with step doubling
until two consecutive refinements agree to the requested tolerance.  Each
step is a product of exact matrix exponentials, so Hermitian generators stay
unitary at every resolution.

Steps go in chunks: both Gauss points of every step in a chunk come from one
``values`` call, and all the chunk's exponentials from one ``matrix_exps``
call (at most ``BATCH_ENTRIES`` stack entries).  The step factors are then
multiplied onto U one step at a time in the same order as a step-by-step
loop, so the result does not depend on the chunk size.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .linalg import BATCH_ENTRIES, dagger, matrix_exps, spectral_norm

_SQRT3 = math.sqrt(3.0)
_C1 = 0.5 - _SQRT3 / 6.0
_C2 = 0.5 + _SQRT3 / 6.0
_A_MINUS = (3.0 - 2.0 * _SQRT3) / 12.0
_A_PLUS = (3.0 + 2.0 * _SQRT3) / 12.0

MIN_TOL = 1e-13


def _cf4_product(generator, t0: float, dt: float, n_steps: int) -> np.ndarray:
    u = np.eye(generator.dim, dtype=np.complex128)
    h = dt / n_steps
    chunk = max(1, BATCH_ENTRIES // (2 * generator.dim**2))
    for lo in range(0, n_steps, chunk):
        t = t0 + np.arange(lo, min(lo + chunk, n_steps)) * h
        h1, h2 = np.split(generator.values(np.concatenate([t + _C1 * h, t + _C2 * h])), 2)
        # right factor (applied first) weights the earlier Gauss point more
        lefts, rights = np.split(matrix_exps(np.concatenate([
            -1j * h * (_A_MINUS * h1 + _A_PLUS * h2),
            -1j * h * (_A_PLUS * h1 + _A_MINUS * h2)])), 2)
        for step in lefts @ rights:
            u = step @ u
    return u


def evolve(generator, t0: float, t1: float, tol: float = 1e-12,
           max_steps: int = 1 << 20) -> np.ndarray:
    """Time-ordered evolution operator U(t1, t0) of ``generator``.

    ``generator`` needs ``.dim``, ``.value(tau)`` and ``.values(taus)`` (an
    OperatorCurve).  The result is certified by step halving: refinement
    continues until doubling the step count moves the answer by at most
    ``tol``.  The first step count is 0.5 dt ||H(midpoint)||; a count over
    ``max_steps`` raises ConvergenceError before any step is taken.  For
    t1 < t0 the adjoint of the forward evolution is returned, which is the
    backward propagator whenever the generator is Hermitian.
    """
    if tol < MIN_TOL:
        raise InvalidInputError(f"tol {tol} below supported floor {MIN_TOL}")
    if t1 == t0:
        return np.eye(generator.dim, dtype=np.complex128)
    if t1 < t0:
        return dagger(evolve(generator, t1, t0, tol, max_steps))

    dt = t1 - t0
    scale = spectral_norm(generator.value(t0 + 0.5 * dt))
    n = max(1, int(math.ceil(0.5 * dt * max(scale, 1e-12))))
    if n > max_steps:
        raise ConvergenceError(f"propagator needs about {n} steps at ||H|| = {scale:.3e},"
                               f" over the cap of {max_steps}")
    u_prev = _cf4_product(generator, t0, dt, n)
    while True:
        n *= 2
        u_next = _cf4_product(generator, t0, dt, n)
        diff = spectral_norm(u_next - u_prev)
        if diff <= tol:
            return u_next
        if n > max_steps:
            raise ConvergenceError(
                f"propagator did not reach tol={tol} within {n} steps"
                f" (last step-halving disagreement {diff:.3e})",
                last_disagreement=diff)
        u_prev = u_next
