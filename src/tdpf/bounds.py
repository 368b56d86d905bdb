"""Evaluation of the explicit product-formula error bounds.

All bounds reduce to weighted sums of spectral norms of nested operators
D_{s_p} ... D_{s_1} H_gamma(tau), where every step s maps an operator curve X
to [H_g, X] + c dX/dt (a commutator with a term, a derivative, or both).  One
depth-first walk builds each operator-sequence prefix once, as the table of
its value and of the derivatives its continuations still need; derivatives
pass through commutators by the Leibniz rule, and each term derivative
H_g^(r)(tau) is evaluated once per sum.  A sum of length-p sequences needs
p derivatives of every term that is not identically zero, so a smaller
declared derivative budget is an error; zero terms are never differentiated.
The exact norms of the complete sequences are summed; no symbolic norm
inequalities are applied below the level of the published bound formulas.

The walk runs on a batch of taus at once: every node is a (B, dim, dim)
stack, each leaf's norms come from one batched eigensolve, and each tau gets
its own exactly rounded fsum.  Batches hold at most ``linalg.BATCH_ENTRIES``
(2^16) stack entries, so large dimensions go one tau at a time.

The walk runs on the terms' symmetry-sector blocks (``Hamiltonian.sectors``):
every node is a (B * S, m, m) stack of S sectors zero-padded to the
largest size m, tau-major, walked in the same order in every sector, and a
leaf's norm is the largest of its S block norms, taken before the per-tau
fsum.  A term that vanishes in a sector stays in that sector's walk as a
zero block.  A model with no sector split (one of dimension under
``sectors.MIN_DIM``, one with a term given as matrices, or one with no exact
symmetry) is its own single sector, S = 1 and m = dim, and walks its own
terms.

When every live term is Hermitian (decided from its matrices, never from
the Hamiltonian's flag), every node is i^k times a Hermitian matrix: a step
with a commutator and no derivative, or with an imaginary derivative
coefficient, multiplies by i; a derivative step with a real coefficient by
1.  The leaf times (-i)^k, which is exact in floating point, is then
Hermitian, and its norm is its largest |eigenvalue| with no A†A product.
The sector blocks of a Hermitian term are made exactly Hermitian too.  Any
other step, or a non-Hermitian term, takes the general A†A path.

Maxima over tau come from grid_max, which hands its function an array of
points per call: the whole grid, then, in each halving round, the midpoints
of the two intervals next to the best sample so far (one at an endpoint).

Only the first-order and non-unitary bounds integrate adaptively; they
import ``scipy.integrate`` when called, so the other bounds never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (BudgetExceededError, InvalidInputError, OutOfRegimeError,
                     UnsupportedOrderError)
from .formulas import EXACT, StagePlan
from .linalg import BATCH_ENTRIES, spectral_norm, spectral_norms
from .models import Hamiltonian

_QUAD_EPSABS = 1e-8  # absolute error target of both adaptive quadratures

# (-i)^k for k mod 4 = 1, 2, 3
_UNDO_I_POWER = {1: -1j, 2: -1.0, 3: 1j}


# ---------------------------------------------------------------------------
# Nested commutator-and-derivative norm sums
# ---------------------------------------------------------------------------

def _nested_norm_sum(ham: Hamiltonian, taus, p: int, seeds, steps):
    """fsum of weight * ||D_{s_p} ... D_{s_1} H_gamma(tau)|| over all seeds
    (gamma, weight) and all length-p sequences of steps (weight, g, c), where
    a step maps X to [H_g, X] + c dX/dt (g None: derivative only).  A
    sequence's weight is the product of its seed and step weights.  A float
    tau gives a float; an array of taus gives one exactly rounded fsum each."""
    batch = np.atleast_1d(np.asarray(taus, dtype=float))
    live = {}
    for g in range(1, ham.n_terms + 1):
        term = ham.term(g)
        if term.is_zero:
            continue  # sequences through a zero term drop its commutator
        if term.derivative_budget < p:
            raise BudgetExceededError(
                f"term {g} has derivative budget {term.derivative_budget}; "
                f"this sum needs derivatives up to order {p}")
        live[g] = term
    powers = (_i_powers(steps, live)
              if all(term.is_hermitian for term in live.values()) else None)
    walk_steps = list(zip(steps, powers or [0] * len(steps)))
    sectors = ham.sectors
    size = sectors.size
    chunk = max(1, BATCH_ENTRIES // (sectors.count * size**2))  # large: one tau at a time

    def values(g, part, r):  # H_g^(r) at every tau of part, as (len(part) * S, m, m)
        return sectors.terms[g - 1].values(part, r).reshape(-1, size, size)

    sums = []
    for lo in range(0, len(batch), chunk):
        part = batch[lo:lo + chunk]
        # steps use orders < p; only a seed's own table reaches order p
        derivs = {g: [values(g, part, r) for r in range(p)] for g in live}
        norms = []
        for gamma, weight in seeds:
            if weight != 0.0 and gamma in derivs:
                _walk(derivs[gamma] + [values(gamma, part, p)], weight, p, derivs,
                      walk_steps, norms, None if powers is None else 0)
        # a node's norm is the largest of its sector blocks' norms
        leaves = np.array(norms).reshape(len(norms), len(part), sectors.count).max(axis=2)
        sums += [math.fsum(column) for column in leaves.T]
    return np.array(sums) if np.ndim(taus) else sums[0]


def _i_powers(steps, live):
    """The power of i each step contributes when every live term is
    Hermitian, or None when some step leaves that form.  Then every node is
    i^k times a Hermitian matrix: ad_{H_g} and an imaginary c d/dt multiply
    by i, a real c d/dt by 1."""
    powers = []
    for _w, g, c in steps:
        c = complex(c)
        if c.real == 0.0 and (c.imag != 0.0 or g in live):
            powers.append(1)
        elif c.imag == 0.0 and g not in live:
            powers.append(0)
        else:
            return None
    return powers


def _walk(x, weight, depth, derivs, steps, norms, k) -> None:
    """Append the weighted norms of every completion of the prefix whose
    derivatives x[0..depth] are given as tau-batch stacks, with depth steps
    still to apply.  k is the prefix's power of i (None: general matrices);
    (-i)^k is exact in floating point and makes a leaf Hermitian."""
    if depth == 0:
        if k is None:
            norms.append(weight * spectral_norms(x[0]))
        else:
            leaf = x[0] if k % 4 == 0 else x[0] * _UNDO_I_POWER[k % 4]
            norms.append(weight * spectral_norms(leaf, hermitian=True))
        return
    for (w, g, c), power in steps:
        child_weight = weight * w
        h = derivs.get(g)
        if child_weight == 0.0 or (h is None and c == 0):
            continue
        if h is None:
            child = [c * x[q + 1] for q in range(depth)]
        else:
            child = []
            for q in range(depth):
                out = np.zeros_like(x[0])
                for r in range(q + 1):
                    lv, rv = h[r], x[q - r]
                    out += math.comb(q, r) * (lv @ rv - rv @ lv)
                if c:
                    out += c * x[q + 1]
                child.append(out)
        _walk(child, child_weight, depth - 1, derivs, steps, norms,
              None if k is None else k + power)


def _alpha_com_value(ham: Hamiltonian, order: int, tau,
                     deriv_coefficient: float):
    """Sum over operator sequences of || D_{g_p} ... D_{g_1} H_{g_seed} ||,
    D_g = ad_{H_g} for g <= Gamma and deriv_coefficient * d/dt for g = Gamma+1."""
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    n = ham.n_terms
    seeds = [(g, 1.0) for g in range(1, n + 1)]
    steps = [(1.0, g, 0) for g in range(1, n + 1)]
    steps.append((1.0, None, complex(deriv_coefficient)))
    return _nested_norm_sum(ham, tau, order - 1, seeds, steps)


def alpha_com(ham: Hamiltonian, order: int, tau):
    """Commutator-and-derivative factor of the given order (= p + 1) at time
    tau (a float, or an array giving an array); the derivative operator
    carries the weight 2 Gamma."""
    return _alpha_com_value(ham, order, tau, 2.0 * ham.n_terms)


def bar_alpha_com(ham: Hamiltonian, order: int, tau):
    """Variant of alpha_com whose derivative operator carries weight 1; it
    governs the instantaneous-Hamiltonian formula family."""
    return _alpha_com_value(ham, order, tau, 1.0)


# ---------------------------------------------------------------------------
# Reports and the grid maximizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    bound_kind: str
    p: int
    t: float
    value: float
    tau_argmax: float | None = None
    term_count: int | None = None
    grid_size: int | None = None
    extra: dict = field(default_factory=dict)


def grid_max(fn, lo: float, hi: float, n_points: int = 65,
             refine_iters: int = 30) -> tuple[float, float]:
    """(max, argmax) of fn over [lo, hi] from a uniform grid of n_points (at
    least 2) and up to refine_iters halving rounds.  Each round splits the
    two intervals next to the best sample so far at their midpoints.  A
    sampled maximum is a lower bound on the true one, which reports flag via
    the grid_size field.

    fn maps a 1-D array of points to the array of its values.  The grid is
    one call (one point when hi == lo); each round is one call with two
    midpoints, or one when the best sample is an endpoint."""
    if hi < lo:
        raise InvalidInputError("empty maximization interval")
    if hi == lo:
        return float(fn(np.array([lo]))[0]), lo
    if n_points < 2:
        raise InvalidInputError(f"n_points must be >= 2 when hi > lo, got {n_points}")
    xs = np.linspace(lo, hi, n_points)
    vals = fn(xs)
    for _ in range(refine_iters):
        k = int(np.argmax(vals))
        sides = [j for j in (k - 1, k + 1) if 0 <= j < len(xs)]
        mids = np.array([(xs[j] + xs[k]) / 2.0 for j in sides])
        at = [max(j, k) for j in sides]  # each midpoint goes between j and k
        xs = np.insert(xs, at, mids)
        vals = np.insert(vals, at, fn(mids))
    k = int(np.argmax(vals))
    return float(vals[k]), float(xs[k])


# ---------------------------------------------------------------------------
# Error bounds
# ---------------------------------------------------------------------------

def corollary_bound(plan: StagePlan, ham: Hamiltonian, t: float,
                    grid_points: int = 65) -> BoundReport:
    """3 V^(p+1) max_tau alpha_com^(p+1)(tau) t^(p+1) over tau in [0, t]."""
    p = plan.order
    order = p + 1
    best, arg = grid_max(lambda tau: alpha_com(ham, order, tau), 0.0, t, grid_points)
    v = plan.n_layers
    value = 3.0 * v**order * best * t**order
    count = (ham.n_terms + 1) ** p * ham.n_terms
    return BoundReport("corollary", p, t, value, tau_argmax=arg,
                       term_count=count, grid_size=grid_points,
                       extra={"alpha_com_max": best, "layers": v})


def _tight_sum(plan: StagePlan, ham: Hamiltonian, tau,
               odd_weights: dict[int, float], even_weight: float,
               seed_counts: dict[int, int]):
    """Sum over operator-type sequences, with multiplicities folded in, at a
    float tau or at every tau of an array.

    The literal sum runs over stage indices k'_1..k'_p in {1..2K-1}; sequences
    sharing the same operator types have identical norms, so the stage
    weights |alpha~| factor into per-type weight sums.
    """
    gammas = range(1, ham.n_terms + 1)
    seeds = [(g, float(seed_counts[g])) for g in gammas]
    steps = [(odd_weights[g], g, 1j) for g in gammas]
    steps.append((even_weight, None, 1j))
    return _nested_norm_sum(ham, tau, plan.order, seeds, steps)


def tight_bound(plan: StagePlan, ham: Hamiltonian, t: float,
                grid_points: int = 65) -> BoundReport:
    """Stage-resolved error bound 3 t^(p+1) max_tau sum_k sum_{k'_1..k'_p}
    ||prod |alpha~| D_{k'} H_{gamma_k}||, for exact-segment plans of order <= 2.

    Odd stage slots act as ad_{H_gamma} + i d/dt with weight |alpha_k|; even
    slots act as i d/dt with weight |beta_{k+1} - beta_k - alpha_k|.
    """
    p = plan.order
    if p > 2:
        raise UnsupportedOrderError(
            f"tight bound is enumerated only for p <= 2 (got p={p}); "
            "use corollary_bound for higher orders")
    if plan.family != EXACT:
        raise InvalidInputError("tight bound applies to exact-segment plans")
    if plan.n_terms != ham.n_terms:
        raise InvalidInputError("plan/Hamiltonian term count mismatch")
    stages = plan.stages
    k_count = plan.n_stages
    odd_weights = {g: 0.0 for g in range(1, ham.n_terms + 1)}
    seed_counts = {g: 0 for g in range(1, ham.n_terms + 1)}
    for st in stages:
        odd_weights[st.gamma] += abs(st.alpha)
        seed_counts[st.gamma] += 1
    even_weight = sum(abs(stages[k + 1].beta - stages[k].beta - stages[k].alpha)
                      for k in range(k_count - 1))
    best, arg = grid_max(
        lambda tau: _tight_sum(plan, ham, tau, odd_weights, even_weight, seed_counts),
        0.0, t, grid_points)
    value = 3.0 * t**(p + 1) * best
    return BoundReport("tight", p, t, value, tau_argmax=arg,
                       term_count=k_count * (2 * k_count - 1) ** p,
                       grid_size=grid_points, extra={"stage_sum_max": best})


def huyghebaert_bound(ham: Hamiltonian, t: float) -> BoundReport:
    """First-order two-term bound: the ordered double integral of
    ||[H_1(t_2), H_2(t_1)]|| over 0 <= t_1 <= t_2 <= t.

    The first-order formula applies term 1 first, so the conjugation picture
    puts the later time in H_1; the transposed orientation is not a bound
    (it is numerically violated on driven models).
    """
    if ham.n_terms != 2:
        raise InvalidInputError("first-order bound needs exactly two terms")
    from scipy.integrate import dblquad  # loaded only by the runs that need it
    h1, h2 = ham.term(1), ham.term(2)

    def integrand(t1, t2):
        a, b = h1.value(t2), h2.value(t1)
        return spectral_norm(a @ b - b @ a)

    value, _err = dblquad(integrand, 0.0, t, 0.0, lambda t2: t2, epsabs=_QUAD_EPSABS)
    return BoundReport("huyghebaert", 1, t, float(value),
                       extra={"quadrature_epsabs": _QUAD_EPSABS})


def nonunitary_bound(plan: StagePlan, ham: Hamiltonian, t: float,
                     grid_points: int = 65) -> BoundReport:
    """corollary_bound times the exponential amplification factor
    exp(4 V int_0^t sum_g ||Im H_g(tau)|| dtau) for non-Hermitian terms;
    for Hermitian terms the factor is 1 and the two bounds agree."""
    base = corollary_bound(plan, ham, t, grid_points)

    def im_norm(tau):
        total = 0.0
        for term in ham.terms:
            m = term.value(tau)
            total += spectral_norm((m - m.conj().T) / 2j)
        return total

    from scipy.integrate import quad  # loaded only by the runs that need it
    integral, _err = quad(im_norm, 0.0, t, epsabs=_QUAD_EPSABS, limit=200)
    factor = math.exp(4.0 * plan.n_layers * integral)
    return replace(base, bound_kind="nonunitary", value=base.value * factor,
                   extra={**base.extra, "amplification": factor, "im_integral": integral})


def mpf_bound_value(alpha_t: float, n_products: int, c_norm: float) -> float:
    """sqrt2 e^2 ||c||_1 (sqrt2 x)^(2J+1) with x = alpha_com(t) * t."""
    return math.sqrt(2.0) * math.e**2 * c_norm * (math.sqrt(2.0) * alpha_t) ** (2 * n_products + 1)


def _alpha_com_sup(ham: Hamiltonian, orders, lo: float, hi: float,
                   grid_points: int, refine_iters: int = 30) -> float:
    """sup over tau in [lo, hi] and the given orders q of (alpha_com^q)^(1/q)."""
    best = 0.0
    for q in orders:
        m, _ = grid_max(lambda tau: alpha_com(ham, q, tau), lo, hi, grid_points,
                        refine_iters)
        best = max(best, m ** (1.0 / q))
    return best


def mpf_bound(ham: Hamiltonian, t: float, n_products: int, c_norm: float,
              grid_points: int = 33) -> BoundReport:
    """Multi-product error bound sqrt2 e^2 ||c||_1 (sqrt2 alpha_com(t) t)^(2J+1).

    The factor alpha_com(t) is the supremum of (alpha_com^q)^(1/q) over
    tau in [0, t] and odd q <= 2J+1; the small-time condition alpha_com t <
    1/2 is enforced on it.  The derivation's convergence radius references
    the same supremum over a full period 2t of the C^(2J+1) periodic
    extension; that value explodes for bump-glued extensions of short
    windows (their high derivatives are not analytic-bounded), so it is
    reported alongside rather than enforced.
    """
    if n_products < 1:
        raise InvalidInputError("J must be >= 1")
    orders = list(range(3, 2 * n_products + 2, 2))
    alpha_local = _alpha_com_sup(ham, orders, 0.0, t, grid_points)
    alpha_global = _alpha_com_sup(ham.extended(t, 2 * n_products - 1), orders,
                                  0.0, 2.0 * t, grid_points)
    if alpha_local * t >= 0.5:
        raise OutOfRegimeError(
            f"alpha_com * t = {alpha_local * t:.4f} >= 1/2: multi-product "
            "bound is outside its validity regime")
    value = mpf_bound_value(alpha_local * t, n_products, c_norm)
    return BoundReport("mpf", 2 * n_products + 1, t, value, grid_size=grid_points,
                       extra={"J": n_products, "c_norm": c_norm,
                              "alpha_local": alpha_local, "alpha_global": alpha_global})
