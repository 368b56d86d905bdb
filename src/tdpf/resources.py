"""Trotter-step selection and local-gate counting for resource-table.

One local exponential (single- or two-qubit) counts as one gate.  A product
formula application costs V * (total local terms) gates, where the local
terms are the Pauli strings of the model's terms, and a simulation of length
t costs r such applications, with r chosen so the accumulated error bound
stays below the target.  The results hold only what is computed here; the
caller already knows the model, sizes and targets it asked for.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import _alpha_com_sup, corollary_bound, mpf_bound_value
from .errors import InvalidInputError, OutOfRegimeError
from .formulas import EXACT, suzuki_plan
from .models import Hamiltonian
from .multiproduct import MAX_PRODUCTS, mpf_plan

_R_CAP = 1 << 40


def choose_trotter_steps(bound_at, t: float, eps: float, power: int) -> int:
    """Smallest r >= 1 with r * bound_at(t / r) <= eps.

    ``bound_at`` maps a window length to a one-window error bound, treated as
    the power law C tau^(power+1): r comes in closed form, then is verified
    and stepped to the smallest r that meets the target.
    """
    if eps <= 0:
        raise InvalidInputError("target accuracy must be positive")
    if t <= 0:
        raise InvalidInputError("time must be positive")

    def total(r):
        return r * bound_at(t / r)

    if total(1) <= eps:
        return 1
    r = max(1, math.ceil((bound_at(t) / eps) ** (1.0 / power)))
    while total(r) > eps:
        r += 1
    while r > 1 and total(r - 1) <= eps:
        r -= 1
    return r


def gate_count_pf(ham: Hamiltonian, t: float, eps: float, p: int,
                  grid_points: int = 9, refine_iters: int = 12) -> dict:
    """Trotter steps and local-gate count for one simulation at (t, eps, p).

    The one-window error bound is ``bounds.corollary_bound``'s coefficient
    times tau^(p+1), with the commutator factor alpha measured on the model
    and maximised over tau in up to ``refine_iters`` halving rounds.  Every
    term must carry its Pauli strings, since those are the gates.
    """
    if any(term.paulis is None for term in ham.terms):
        raise InvalidInputError("gate counts need every term's Pauli strings")
    rep = corollary_bound(suzuki_plan(p, ham.n_terms, EXACT), ham, t, grid_points,
                          refine_iters)
    coeff = rep.extra["coefficient"]
    r = choose_trotter_steps(lambda tau: coeff * tau**(p + 1), t, eps, power=p)
    per_step = rep.extra["layers"] * sum(
        len(strings) for term in ham.terms for strings in term.paulis)
    return {"r": r, "gates": r * per_step, "gates_per_step": per_step,
            "alpha": rep.extra["alpha_com_max"]}


def loglog_slope(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def asymptotic_gate_form(model: str, p: int, nu: float | None = None) -> str:
    """Leading-order gate-count form in (N, t, eps) for the model class, with
    the long-range decay exponent ``nu``; d = 1 throughout (poly-log factors
    suppressed)."""
    if model == "nn-chain":
        return f"N t (N t / eps)^(1/{p})"
    if model == "long-range":
        if nu >= 1.0:
            return f"N^2 t (N t / eps)^(1/{p})"
        return f"N^{3 - nu:g} t (N^{2 - nu:g} t / eps)^(1/{p})"
    raise InvalidInputError(f"no asymptotic form for model {model!r}")


def mpf_resources(ham: Hamiltonian, t: float, eps: float,
                  grid_points: int = 9, refine_iters: int = 12) -> dict:
    """Query and ancilla counts for the multi-product route at (t, eps).

    J follows ceil(0.5 log(alpha t / eps)); the commutator rate alpha is the
    sup of (alpha_com^q)^(1/q) over q in {3, 5} only.  That is below the
    rate ``bounds.mpf_bound`` takes, the sup over every odd q <= 2J+1: the
    rate keeps growing in q (ROADMAP item 2), so these counts are not yet
    backed by the bound they cite.
    """
    if eps <= 0:
        raise InvalidInputError("target accuracy must be positive")
    rate = _alpha_com_sup(ham, (3, 5), 0.0, t, grid_points, refine_iters)
    if rate * t <= eps:
        n_products = 1
    else:
        n_products = max(1, math.ceil(0.5 * math.log(rate * t / eps)))
    n_products = min(n_products, MAX_PRODUCTS)
    plan = mpf_plan(n_products)
    c_norm, k_norm = plan.c_norm, plan.k_norm
    order = 2 * n_products + 1

    def bound_at(tau):
        return mpf_bound_value(rate * tau, n_products, c_norm)

    r = choose_trotter_steps(bound_at, t, eps, power=order - 1)
    while rate * t / r >= 0.5 and r < _R_CAP:
        r *= 2
    if rate * t / r >= 0.5:
        raise OutOfRegimeError("multi-product regime condition unreachable")
    queries = math.ceil(r * c_norm * k_norm)
    ancillas = math.ceil(math.log2(n_products)) if n_products > 1 else 0
    return {"J": n_products, "r": r, "queries": queries, "ancillas": ancillas,
            "c_norm": c_norm, "k_norm": k_norm, "alpha": rate}
