"""Trotter-step selection and local-gate counting for resource-table.

One local exponential (single- or two-qubit) counts as one gate.  A product
formula application costs V * (total local terms) gates, and a simulation of
length t costs r such applications, with r chosen so the accumulated error
bound stays below the target.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import _alpha_com_sup, alpha_com, grid_max, mpf_bound_value
from .errors import InvalidInputError, OutOfRegimeError
from .formulas import EXACT, suzuki_plan
from .models import Hamiltonian, induced_norms
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
    c = bound_at(t) / t ** (power + 1)
    r = max(1, math.ceil((c * t ** (power + 1) / eps) ** (1.0 / power)))
    while total(r) > eps:
        r += 1
    while r > 1 and total(r - 1) <= eps:
        r -= 1
    return r


def _analytic_alpha(ham: Hamiltonian, order: int, t: float, grid_points: int,
                    constant: float, refine_iters: int) -> float:
    """Induced-norm scaling surrogate sum_q Gamma^q |||H|||^(p-q) ||H||_1 for
    2-local long-range models, or the extensive local-term count for chains,
    scaled by a constant calibrated against one measured value."""
    meta = ham if isinstance(ham, dict) else ham.metadata
    p = order - 1
    if "pair_table" in meta:
        def factor(taus):
            gamma = meta["n_terms"]
            out = []
            for tau in taus:
                one, induced = induced_norms(meta, tau)
                out.append(sum(gamma**q * induced**(p - q) for q in range(p + 1)) * one)
            return np.array(out)

        best, _ = grid_max(factor, 0.0, t, grid_points, refine_iters)
        return constant * best
    if meta.get("model") == "nn-chain":
        return constant * len(meta["bonds"])
    raise InvalidInputError(f"no analytic scaling rule for model {meta.get('model')!r}")


def gate_count_pf(ham, t: float, eps: float, p: int,
                  bound_source: str = "measured-alpha", grid_points: int = 9,
                  alpha_constant: float = 1.0, refine_iters: int = 12) -> dict:
    """Trotter steps and local-gate count for one simulation at (t, eps, p).

    measured-alpha evaluates the commutator factor on the dense model;
    analytic-scaling uses the induced-norm surrogate (metadata only, so it
    also works at dimensions too large to materialize).  Either maximum over
    tau takes ``refine_iters`` golden-section steps.
    """
    meta = ham if isinstance(ham, dict) else ham.metadata
    form = asymptotic_gate_form(meta, p)  # also rejects unknown model classes
    order = p + 1
    if bound_source == "measured-alpha":
        if not isinstance(ham, Hamiltonian):
            raise InvalidInputError("measured-alpha needs a dense Hamiltonian")
        alpha, _ = grid_max(lambda tau: alpha_com(ham, order, tau), 0.0, t, grid_points,
                            refine_iters)
        n_terms = ham.n_terms
    elif bound_source == "analytic-scaling":
        alpha = _analytic_alpha(ham, order, t, grid_points, alpha_constant, refine_iters)
        n_terms = meta["n_terms"] if "n_terms" in meta else len(meta["local_gate_counts"])
    else:
        raise InvalidInputError(f"unknown bound source {bound_source!r}")
    layers = suzuki_plan(p, n_terms, EXACT).n_layers
    coeff = 3.0 * layers**order * alpha
    r = choose_trotter_steps(lambda tau: coeff * tau**order, t, eps, power=p)
    per_step = layers * sum(meta["local_gate_counts"])
    return {"model": meta.get("model", "?"), "N": meta.get("n_sites"),
            "t": t, "eps": eps, "p": p, "r": r, "gates": r * per_step,
            "gates_per_step": per_step, "alpha": alpha, "bound_kind": bound_source,
            "asymptotic_form": form}


def loglog_slope(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def asymptotic_gate_form(meta: dict, p: int) -> str:
    """Leading-order gate-count form in (N, t, eps) for the model class,
    d = 1 throughout (poly-log factors suppressed)."""
    model = meta.get("model")
    if model == "nn-chain":
        return f"N t (N t / eps)^(1/{p})"
    if model == "long-range":
        nu = meta["nu"]
        if nu >= 1.0:
            return f"N^2 t (N t / eps)^(1/{p})"
        return f"N^{3 - nu:g} t (N^{2 - nu:g} t / eps)^(1/{p})"
    raise InvalidInputError(f"no asymptotic form for model {model!r}")


def mpf_resources(ham: Hamiltonian, t: float, eps: float,
                  grid_points: int = 9, refine_iters: int = 12) -> dict:
    """Query and ancilla counts for the multi-product route at (t, eps).

    J follows ceil(0.5 log(alpha t / eps)); the commutator rate alpha is the
    sup of (alpha_com^q)^(1/q) over q in {3, 5}, which stabilizes quickly in
    q and keeps the estimator affordable at large J.
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
    return {"model": ham.metadata.get("model", "?"), "N": ham.metadata.get("n_sites"),
            "t": t, "eps": eps, "J": n_products, "r": r, "queries": queries,
            "ancillas": ancillas, "c_norm": c_norm, "k_norm": k_norm, "alpha": rate}
