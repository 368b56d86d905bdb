"""Time-dependent multi-product formulas: a linear combination of k_j-fold
Trotterized base product formulas whose coefficients cancel the low even
error orders, lifting a base order-p formula to order 2J+1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .formulas import EXACT, StagePlan, suzuki_plan, trotterize
from .linalg import spectral_norm
from .models import Hamiltonian
from .propagator import evolve

MAX_PRODUCTS = 8  # double precision keeps the Vandermonde residual <= 1e-12
_RESIDUAL_TOL = 1e-12


def solve_coefficients(ks) -> np.ndarray:
    """Solve the moment system sum_j c_j k_j^(-2m) = delta_{m,0}, m = 0..J-1."""
    ks = [int(k) for k in ks]
    if not ks:
        raise InvalidInputError("need at least one k")
    if len(ks) > MAX_PRODUCTS:
        raise InvalidInputError(f"J={len(ks)} exceeds the supported cap {MAX_PRODUCTS}")
    if any(k < 1 for k in ks):
        raise InvalidInputError("k values must be positive integers")
    if len(set(ks)) != len(ks):
        raise InvalidInputError("k values must be distinct (system is singular)")
    j = len(ks)
    rows = np.array([[float(k) ** (-2 * m) for k in ks] for m in range(j)])
    rhs = np.zeros(j)
    rhs[0] = 1.0
    c = np.linalg.solve(rows, rhs)
    residual = moment_residual(ks, c)
    if residual > _RESIDUAL_TOL:
        raise InvalidInputError(f"moment residual {residual:.3e} above {_RESIDUAL_TOL}")
    return c


def moment_residual(ks, cs) -> float:
    """Largest violation of the defining moment equations."""
    j = len(ks)
    worst = 0.0
    for m in range(j):
        total = sum(c * float(k) ** (-2 * m) for k, c in zip(ks, cs))
        worst = max(worst, abs(total - (1.0 if m == 0 else 0.0)))
    return worst


def choose_k(n_products: int) -> list[int]:
    """k subdivision counts for a J-term combination.

    Only the sequential choice k_j = j ships; the resulting conditioning is
    surfaced through the plan's c_norm / k_norm rather than guessed from the
    literature's (uncited-construction) well-conditioned asymptotics.
    """
    if n_products < 1:
        raise InvalidInputError("J must be >= 1")
    return list(range(1, n_products + 1))


@dataclass(frozen=True)
class MpfPlan:
    k: tuple[int, ...]
    c: tuple[float, ...]
    base_order: int = 2

    def __post_init__(self):
        if list(self.k) != sorted(self.k):
            raise InvalidInputError("k values must be strictly increasing")
        if moment_residual(self.k, self.c) > _RESIDUAL_TOL:
            raise InvalidInputError("coefficients violate the moment conditions")

    @property
    def n_products(self) -> int:
        return len(self.k)

    @property
    def c_norm(self) -> float:
        return float(sum(abs(c) for c in self.c))

    @property
    def k_norm(self) -> float:
        return float(sum(self.k))

    @property
    def order(self) -> int:
        return 2 * self.n_products + 1

    def to_json(self) -> dict:
        return {"J": self.n_products, "k": list(self.k), "c": list(self.c),
                "p": self.base_order, "c_norm": self.c_norm, "k_norm": self.k_norm}


def mpf_plan(n_products: int, base_order: int = 2) -> MpfPlan:
    """Sequential-k plan of J products over an order-p base formula."""
    if base_order != 2:
        if base_order < 2 or base_order % 2:
            raise InvalidInputError("base order must be even")
        warnings.warn(
            "multi-product coefficients cancel even orders starting from 2; "
            f"with base order {base_order} the extrapolation formally starts "
            "from the second order", stacklevel=2)
    ks = choose_k(n_products)
    return MpfPlan(tuple(ks), tuple(float(c) for c in solve_coefficients(ks)),
                   base_order)


def evaluate_mpf(plan: MpfPlan, ham: Hamiltonian, t: float, t0: float = 0.0,
                 oracle_tol: float = 1e-12,
                 base_plan: StagePlan | None = None) -> np.ndarray:
    """sum_j c_j prod_k S_p(k t / k_j, (k-1) t / k_j): generally non-unitary
    as a matrix since it is a linear combination of unitaries."""
    if base_plan is None:
        base_plan = suzuki_plan(plan.base_order, ham.n_terms, EXACT)
    out = np.zeros((ham.dim, ham.dim), dtype=np.complex128)
    for k_j, c_j in zip(plan.k, plan.c):
        out += c_j * trotterize(base_plan, ham, t, k_j, t0, oracle_tol)
    return out


def measure_mpf_error(plan: MpfPlan, ham: Hamiltonian, t: float, t0: float = 0.0,
                      oracle_tol: float = 1e-12,
                      base_plan: StagePlan | None = None) -> float:
    exact = evolve(ham.total_curve(), t0, t, tol=oracle_tol)
    return spectral_norm(exact - evaluate_mpf(plan, ham, t, t0, oracle_tol, base_plan))
