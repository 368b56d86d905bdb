"""Stage plans for time-dependent product formulas and their evaluation.

A plan is an ordered list of stages (gamma_k, alpha_k, beta_k), k = 1..K, with
stage k applied first.  Two families share the plan format:

* exact-segment: stage k is the exact sub-evolution U_gamma(beta t + alpha t,
  beta t); a negative alpha makes it the backward evolution
  U_gamma(beta t, (beta + alpha) t)^-1, which is the adjoint of that forward
  segment only for a Hermitian term.  A term that is one matrix times one
  curve, H_gamma(tau) = f(tau) A, commutes with itself at every pair of
  times, so its segment is exp(-i A F) with F the curve's exact integral
  (``ScalarCurve.integral``) over the segment; only a term of several
  curves, or one whose curve has no closed-form integral (a periodic
  extension), calls the certified propagator ``evolve``;
* instantaneous: stage k is exp(-i H_gamma(beta t) alpha t), the Hamiltonian
  frozen at the stage's evaluation time.

Suzuki plans of any even order come from the fractal window recursion with
a_q = (4 - 4^(1/(2q-1)))^-1; adjacent stages with equal gamma are kept
separate so the layer count V = K / Gamma matches the bound constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .linalg import matrix_exp, spectral_norm
from .models import Hamiltonian, OperatorCurve
from .propagator import MIN_TOL, evolve

EXACT = "exact-segment"
INSTANTANEOUS = "instantaneous"

_BETA_CLAMP = 1e-14
_ROUNDOFF = 2.0**-52  # unit round-off of float64


@dataclass(frozen=True)
class Stage:
    gamma: int  # 1-based term index
    alpha: float
    beta: float


@dataclass(frozen=True)
class StagePlan:
    stages: tuple[Stage, ...]
    order: int
    n_terms: int
    family: str = EXACT

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def n_layers(self) -> int:
        return self.n_stages // self.n_terms

    def validate(self, tol: float = 1e-12) -> None:
        k_count = self.n_stages
        if k_count % self.n_terms:
            raise InvalidInputError("stage count is not a multiple of the term count")
        sums = {g: 0.0 for g in range(1, self.n_terms + 1)}
        for st in self.stages:
            if st.gamma not in sums:
                raise InvalidInputError(f"stage gamma {st.gamma} out of range")
            if not -1.0 - tol <= st.alpha <= 1.0 + tol:
                raise InvalidInputError(f"stage alpha {st.alpha} outside [-1, 1]")
            sums[st.gamma] += st.alpha
        for g, total in sums.items():
            if abs(total - 1.0) > tol:
                raise InvalidInputError(f"alpha sum for term {g} is {total}, not 1")
        if self.family == EXACT:
            if abs(self.stages[0].beta) > tol:
                raise InvalidInputError("exact-segment plan must start at beta = 0")
            last = self.stages[-1]
            if abs(last.beta + last.alpha - 1.0) > tol:
                raise InvalidInputError("exact-segment plan must end at beta + alpha = 1")
            for st in self.stages:
                if not -tol <= st.beta <= 1.0 + tol:
                    raise InvalidInputError(f"stage beta {st.beta} outside [0, 1]")
                if not -tol <= st.beta + st.alpha <= 1.0 + tol:
                    raise InvalidInputError(
                        f"stage beta+alpha {st.beta + st.alpha} outside [0, 1]")


def _clamp01(x: float) -> float:
    if abs(x) <= _BETA_CLAMP:
        return 0.0
    if abs(x - 1.0) <= _BETA_CLAMP:
        return 1.0
    return x


def suzuki_a(q: int) -> float:
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * q - 1)))


def _window_stages(p: int, n_terms: int, lo: float, hi: float, family: str) -> list[Stage]:
    width = hi - lo
    if p == 1:
        if family == EXACT:
            return [Stage(g, width, _clamp01(lo)) for g in range(1, n_terms + 1)]
        return [Stage(g, width, _clamp01(hi)) for g in range(1, n_terms + 1)]
    if p == 2:
        mid = lo + 0.5 * width
        beta_up = lo if family == EXACT else mid
        beta_down = mid
        up = [Stage(g, 0.5 * width, _clamp01(beta_up)) for g in range(1, n_terms + 1)]
        down = [Stage(g, 0.5 * width, _clamp01(beta_down)) for g in range(n_terms, 0, -1)]
        return up + down
    q = p // 2
    a = suzuki_a(q)
    u1, u2 = lo + a * width, lo + 2 * a * width
    u3, u4 = lo + (1 - 2 * a) * width, lo + (1 - a) * width
    sub = p - 2
    # a > 1/4, so u3 < u2: the middle window runs backward, from u2 to u3
    return (_window_stages(sub, n_terms, lo, u1, family)
            + _window_stages(sub, n_terms, u1, u2, family)
            + _window_stages(sub, n_terms, u2, u3, family)
            + _window_stages(sub, n_terms, u3, u4, family)
            + _window_stages(sub, n_terms, u4, hi, family))


def suzuki_plan(p: int, n_terms: int, family: str = EXACT) -> StagePlan:
    """Lie-Suzuki-Trotter stage plan of order p (p = 1 or even) for a
    Hamiltonian with ``n_terms`` terms."""
    if family not in (EXACT, INSTANTANEOUS):
        raise InvalidInputError(f"unknown plan family {family!r}")
    if n_terms < 1:
        raise InvalidInputError("n_terms must be >= 1")
    if p != 1 and (p < 1 or p % 2):
        raise InvalidInputError(f"order must be 1 or even, got {p}")
    stages = tuple(_window_stages(p, n_terms, 0.0, 1.0, family))
    plan = StagePlan(stages, order=p, n_terms=n_terms, family=family)
    expected = n_terms if p == 1 else 2 * 5 ** (p // 2 - 1) * n_terms
    if plan.n_stages != expected:
        raise InvalidInputError(
            f"stage expansion produced {plan.n_stages} stages, expected {expected}")
    if family == EXACT:
        plan.validate()
    return plan


def _single_curve(term: OperatorCurve) -> tuple | None:
    """(A, f, bound on ||A||) of a term that is one matrix times one curve,
    else None.  The bound is Hoelder's sqrt(||A||_1 ||A||_inf), which costs
    one pass over A and equals ||A|| on a chain term's disjoint bonds."""
    if len(term.curves) != 1:
        return None
    (mat, curve), = term.summands
    mags = np.abs(mat)
    return mat, curve, float(np.sqrt(mags.sum(axis=0).max() * mags.sum(axis=1).max()))


def _segment(term: OperatorCurve, single: tuple | None, a: float, b: float,
             tol: float) -> np.ndarray:
    """The exact segment U(b, a) of one term: exp(-i A F) for a single-curve
    term whose curve integrates in closed form to F over [a, b] (negative
    for b < a, the backward evolution), else ``evolve`` at ``tol``.  A
    closed form whose round-off alone, 2^-52 |F| ||A||, could exceed ``tol``
    raises ConvergenceError; a non-finite F raises NumericalBlowUpError."""
    if single is not None:
        mat, curve, norm = single
        integral = curve.integral(a, b)
        if integral is not None:
            if _ROUNDOFF * abs(integral) * norm > tol:
                raise ConvergenceError(
                    f"segment exp(-i A F) with |F| ||A|| <= {abs(integral) * norm:.3e} has"
                    f" round-off above its tolerance {tol:.3e}")
            return matrix_exp(-1j * integral * mat)
    return evolve(term, a, b, tol=tol)


def evaluate_pf(plan: StagePlan, ham: Hamiltonian, t: float, t0: float = 0.0,
                oracle_tol: float = 1e-12) -> np.ndarray:
    """The product-formula matrix S(t, t0) for the plan's family.  An
    exact segment is certified to ``oracle_tol`` / K for K stages, or is in
    closed form (see ``_segment``)."""
    if plan.n_terms != ham.n_terms:
        raise InvalidInputError(
            f"plan has {plan.n_terms} terms but Hamiltonian has {ham.n_terms}")
    delta = t - t0
    total = np.eye(ham.dim, dtype=np.complex128)
    seg_tol = max(oracle_tol / max(plan.n_stages, 1), MIN_TOL)
    if plan.family == EXACT:
        singles = [_single_curve(term) for term in ham.terms]
    for st in plan.stages:
        if plan.family == EXACT:
            a = t0 + st.beta * delta
            factor = _segment(ham.term(st.gamma), singles[st.gamma - 1], a,
                              a + st.alpha * delta, seg_tol)
        else:
            frozen = ham.term(st.gamma).value(t0 + st.beta * delta)
            factor = matrix_exp(-1j * st.alpha * delta * frozen)
        total = factor @ total
    return total


def trotterize(plan: StagePlan, ham: Hamiltonian, t: float, r: int,
               t0: float = 0.0, oracle_tol: float = 1e-12) -> np.ndarray:
    """r-fold windowed product of the plan over [t0, t]."""
    if r < 1:
        raise InvalidInputError("Trotter step count r must be >= 1")
    total = np.eye(ham.dim, dtype=np.complex128)
    width = (t - t0) / r
    for k in range(r):
        total = evaluate_pf(plan, ham, t0 + (k + 1) * width, t0 + k * width,
                            oracle_tol) @ total
    return total


def measure_error(plan: StagePlan, ham: Hamiltonian, t: float, t0: float = 0.0,
                  r: int = 1, oracle_tol: float = 1e-12) -> float:
    """Spectral-norm distance between the oracle evolution and the (possibly
    r-fold Trotterized) product formula."""
    exact = ham.exact_evolution(t0, t, oracle_tol)
    approx = trotterize(plan, ham, t, r, t0, oracle_tol)
    return spectral_norm(exact - approx)


class OrderFit(NamedTuple):
    slope: float
    intercept: float
    residual: float
    n_points: int


def fit_order(ts, errors, oracle_tol: float = 1e-12) -> OrderFit:
    """Least-squares slope of log error against log t.

    Points must lie in the trusted window [100 oracle_tol, 1e-2] so neither
    the oracle floor nor pre-asymptotic curvature pollutes the fit.
    """
    ts = np.asarray(ts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ts.size < 5:
        raise InvalidInputError("order fit needs at least 5 grid points")
    if ts.size != errors.size:
        raise InvalidInputError("t grid and error list differ in length")
    lo, hi = 100.0 * oracle_tol, 1e-2
    bad = (errors < lo) | (errors > hi)
    if np.any(bad):
        raise InvalidInputError(
            f"{int(bad.sum())} error value(s) outside trusted window"
            f" [{lo:.3e}, {hi:.3e}]")
    coeffs, res, *_ = np.polyfit(np.log(ts), np.log(errors), 1, full=True)
    residual = float(res[0]) if len(res) else 0.0
    return OrderFit(float(coeffs[0]), float(coeffs[1]), residual, int(ts.size))
