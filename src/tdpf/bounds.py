"""Evaluation of the explicit product-formula error bounds.

All bounds reduce to weighted sums of spectral norms of nested operators
D_{s_p} ... D_{s_1} H_gamma(tau), where every step s maps an operator curve X
to [H_g, X] + c dX/dt (a commutator with a term, a derivative, or both).  One
walk builds each operator-sequence prefix once, as the table of its value
and of the derivatives its continuations still need; derivatives pass
through commutators by the Leibniz rule, and each term derivative
H_g^(r)(tau) is evaluated once per sum.  A sum of length-p sequences needs
p derivatives of every term that is not identically zero, so a smaller
declared derivative budget is an error; zero terms are never differentiated.
A seed's own pure commutator step is skipped: by the Leibniz rule
[H_g, H_g]^(q) = sum_r C(q, r) [H_g^(r), H_g^(q-r)] = 0, so its whole subtree
is zero (a step with a derivative part keeps that child).
The exact norms of the complete sequences are summed; no symbolic norm
inequalities are applied below the level of the published bound formulas.

The walk runs on a batch of taus at once: every node is a (B, dim, dim)
stack, and each tau gets its own exactly rounded fsum.  Batches hold at most
``linalg.BATCH_ENTRIES`` (2^16) stack entries, so large dimensions go one
tau at a time.  It walks blocks of prefixes, not one prefix: each step maps
a whole block to its children with one broadcast commutator per Leibniz
term, the children of consecutive steps are gathered into blocks of up to
BATCH_ENTRIES / 8 entries, and each leaf block's norms come from one
batched eigensolve.  A block is cut to one node when one node fills it, and
a walk then does the work of a depth-first walk of single prefixes.  Every
node's entries come from the same operations in the same order either way,
and fsum is exactly rounded, so the order of the leaves does not change a
sum.

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
the Hamiltonian's flag), each step carries a unit phase f and maps X to
f [H_g, X] + (f c) dX/dt: f = i for a step with a commutator or with an
imaginary derivative coefficient, f = 1 for a real coefficient and no
commutator.  A unit phase changes no norm, and every node is Hermitian by
construction, so its norm is its largest |eigenvalue| with no A†A product.
The sector blocks of a Hermitian term are made exactly Hermitian too.  Any
other step, or a non-Hermitian term, gives every step f = 1 and takes the
general A†A path.

Maxima over tau come from grid_max, which hands its function an array of
points per call: the whole grid, then, in each halving round, the midpoints
of the two intervals next to the best sample so far.  While the best sample
is an endpoint, each round halves the one interval next to it, so the
remaining rounds' midpoints are known in advance and go in one call.  Every
value is kept by its point, and a round calls fn only for the midpoints it
does not have yet.

The first-order and non-unitary bounds integrate over time with one
globally adaptive Gauss-Kronrod rule, QUADPACK's 21-point qk21 with its
error estimate: the panel with the largest estimate is halved until the
estimates sum to at most 1e-8, each new pair of panels is one batched
integrand call, and a 200-panel cap raises ConvergenceError.  The estimate
is reported with the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (BudgetExceededError, ConvergenceError, InvalidInputError,
                     OutOfRegimeError, UnsupportedOrderError)
from .formulas import EXACT, StagePlan
from .linalg import BATCH_ENTRIES, spectral_norms
from .models import Hamiltonian

_QUAD_EPSABS = 1e-8  # absolute error target of both adaptive quadratures
_QUAD_PANELS = 200  # most panels a quadrature may split its interval into

# QUADPACK's qk21 (Piessens et al., QUADPACK, 1983): the 21-point Kronrod
# abscissae on [0, 1] in decreasing order (odd positions, counted from 0,
# are the 10-point Gauss abscissae; the last is the centre), their Kronrod
# weights, and the Gauss weights of the odd positions.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208838483100, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# the 21 nodes on [-1, 1] and their weights, left to right
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS = np.zeros(21)
_GAUSS[1:10:2], _GAUSS[11::2] = _WG, _WG[::-1]


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
    phases = [_phase(g, c, live) for _w, g, c in steps]
    hermitian = None not in phases and all(term.is_hermitian for term in live.values())
    # a zero step weight zeroes its whole subtree; a weight product that
    # underflows to 0.0 is walked and adds 0.0 to the fsum
    walk_steps = [(w, g, f, f * c) if hermitian else (w, g, 1, c)
                  for (w, g, c), f in zip(steps, phases) if w != 0.0]
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
        # nodes per block: a few blocks of every level are alive at once
        cap = max(1, BATCH_ENTRIES // 8 // (len(part) * sectors.count * size**2))
        norms = [np.empty((0, len(part) * sectors.count))]
        for gamma, weight in seeds:
            if weight != 0.0 and gamma in derivs:
                table = derivs[gamma] + [values(gamma, part, p)]
                root = ([d[None] for d in table], np.array([weight], dtype=float))
                _walk(root, p, derivs, walk_steps, cap, norms, hermitian, gamma)
        # a node's norm is the largest of its sector blocks' norms
        leaves = np.concatenate(norms).reshape(-1, len(part), sectors.count).max(axis=2)
        sums += [math.fsum(column) for column in leaves.T]
    return np.array(sums) if np.ndim(taus) else sums[0]


def _phase(g, c, live):
    """The unit phase f that makes f ([H_g, X] + c dX/dt) Hermitian for every
    Hermitian X when the live terms are Hermitian, or None if there is none:
    i for a commutator or an imaginary c, 1 for a real c and no commutator."""
    c = complex(c)
    if c.real == 0.0 and (c.imag != 0.0 or g in live):
        return 1j
    if c.imag == 0.0 and g not in live:
        return 1
    return None


def _walk(block, depth, derivs, steps, cap, norms, hermitian, seed=None) -> None:
    """Append the weighted norms of every completion of a block of prefixes.

    block is (x, w): x[q] stacks the q-th derivatives of its n prefixes as an
    (n, B * S, m, m) array, q = 0..depth, with depth steps still to apply,
    and w holds their weights.  A step (weight, g, f, fc) maps X to
    f [H_g, X] + fc dX/dt; with hermitian every node is Hermitian.  Each
    step maps the whole block to its children at once, and the children of
    consecutive steps are gathered into blocks of cap nodes, so a leaf block
    is one eigensolve.  A root block of term seed skips the pure commutator
    step with H_seed, whose subtree is zero."""
    x, w = block
    if depth == 0:
        norms.append(w[:, None] * spectral_norms(x[0], hermitian=hermitian))
        return
    pending, count = [], 0
    for sw, g, f, fc in steps:
        h = derivs.get(g)
        if fc == 0 and (h is None or g == seed):
            continue
        if h is None:
            child = [fc * x[q + 1] for q in range(depth)]
        else:
            child = []
            for q in range(depth):
                out = np.zeros_like(x[0])
                for r in range(q + 1):
                    lv, rv = h[r], x[q - r]
                    out += (f * math.comb(q, r)) * (lv @ rv - rv @ lv)
                if fc:
                    out += fc * x[q + 1]
                child.append(out)
        pending.append((child, w * sw))
        count += len(w)
        if count >= cap:
            merged = _concat(pending)
            for lo in range(0, count - cap + 1, cap):
                _walk(_slice(merged, lo, lo + cap), depth - 1, derivs, steps, cap, norms,
                      hermitian)
            rest = count % cap
            pending = [_slice(merged, count - rest, count)] if rest else []
            count = rest
            del merged  # walked children go before the next step's are made
    if pending:
        _walk(_concat(pending), depth - 1, derivs, steps, cap, norms, hermitian)


def _concat(pieces):
    """One block of the nodes of several, in order; a single block as is."""
    if len(pieces) == 1:
        return pieces[0]
    xs, ws = zip(*pieces)
    return [np.concatenate(col) for col in zip(*xs)], np.concatenate(ws)


def _slice(block, lo, hi):
    """Nodes lo..hi-1 of a block, as views; the whole block as is."""
    x, w = block
    if lo == 0 and hi == len(w):
        return block
    return [a[lo:hi] for a in x], w[lo:hi]


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
    one call (one point when hi == lo), and every evaluated value is kept by
    its point, so each round makes one call with only its missing midpoints.
    While the best sample is an endpoint x_k, the remaining rounds'
    midpoints are m, (m + x_k) / 2, ...: that call takes all of them (one
    per remaining round).  So the samples, the max and the argmax are those
    of one call per round, and fewer than refine_iters points go unused if
    a midpoint overtakes x_k.

    An interval is split only while it is wider than twice the float spacing
    at max(|lo|, |hi|), so every midpoint is a new point inside it; the
    rounds end once neither interval next to the best sample is that wide,
    which on [0, 1] with a 9-point grid is after 48 rounds.

    ``perfbench/tracer.py`` binds ``fn``, ``lo``, ``hi`` and ``n_points`` by
    name, so these parameters keep their names."""
    if hi < lo:
        raise InvalidInputError("empty maximization interval")
    if hi == lo:
        return float(fn(np.array([lo]))[0]), lo
    if n_points < 2:
        raise InvalidInputError(f"n_points must be >= 2 when hi > lo, got {n_points}")
    xs = np.linspace(lo, hi, n_points)
    vals = fn(xs)
    width = 2.0 * np.spacing(max(abs(lo), abs(hi)))  # only wider intervals are split
    known = {}  # midpoint values by point, some evaluated ahead
    for i in range(refine_iters):
        k = int(np.argmax(vals))
        sides = [j for j in (k - 1, k + 1)
                 if 0 <= j < len(xs) and abs(xs[j] - xs[k]) > width]
        if not sides:
            break
        mids = [(xs[j] + xs[k]) / 2.0 for j in sides]
        points = [m for m in mids if m not in known]
        if points and k in (0, len(xs) - 1):
            while len(points) < refine_iters - i and abs(points[-1] - xs[k]) > width:
                points.append((points[-1] + xs[k]) / 2.0)
        if points:
            known.update(zip(points, fn(np.array(points))))
        at = [max(j, k) for j in sides]  # each midpoint goes between j and k
        xs = np.insert(xs, at, mids)
        vals = np.insert(vals, at, [known[m] for m in mids])
    k = int(np.argmax(vals))
    return float(vals[k]), float(xs[k])


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

def _kronrod_panels(f, lo, hi):
    """QUADPACK's qk21 on every panel [lo_j, hi_j], with all 21 * n points in
    one call of f: (values, estimates, weighted inner estimates) per panel."""
    centre, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    fv, inner = f((centre[:, None] + half[:, None] * _NODES).ravel())
    fv = fv.reshape(-1, 21)
    resk, resg = fv @ _KRONROD, fv @ _GAUSS
    resabs = np.abs(fv) @ _KRONROD * np.abs(half)
    resasc = np.abs(fv - resk[:, None] / 2.0) @ _KRONROD * np.abs(half)
    err = np.abs((resk - resg) * half)
    scaled = resasc > 0.0
    err[scaled] = resasc[scaled] * np.minimum(
        1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)  # round-off floor
    inner = np.abs(half) * (np.broadcast_to(inner, fv.size).reshape(-1, 21) @ _KRONROD)
    return resk * half, err, inner


def _integrate(f, lo: float, hi: float) -> tuple[float, float]:
    """(value, estimate) of int_lo^hi f, globally adaptive: the panel with
    the largest qk21 estimate is halved until the estimates sum to at most
    _QUAD_EPSABS, and more than _QUAD_PANELS panels raise ConvergenceError.

    f maps a 1-D array of points to (values, errors), errors being each
    value's own absolute error (0.0 for an exact integrand, an inner
    integral's estimate for a nested one).  The returned estimate adds
    their Kronrod-weighted integral to the panels' estimates."""
    edges = np.array([lo, hi])
    value, err, inner = _kronrod_panels(f, edges[:1], edges[1:])
    while math.fsum(err) > _QUAD_EPSABS:
        if len(edges) > _QUAD_PANELS:
            raise ConvergenceError(
                f"quadrature over [{lo}, {hi}] did not reach {_QUAD_EPSABS} in "
                f"{_QUAD_PANELS} panels (estimate {math.fsum(err):.3g})")
        j = int(np.argmax(err))
        a, b = edges[j], edges[j + 1]
        mid = (a + b) / 2.0
        halves = _kronrod_panels(f, np.array([a, mid]), np.array([mid, b]))
        edges = np.insert(edges, j + 1, mid)
        value, err, inner = (np.concatenate([old[:j], new, old[j + 1:]])
                             for old, new in zip((value, err, inner), halves))
    return math.fsum(value), math.fsum(err) + math.fsum(inner)


def _batched(fn, xs, dim: int):
    """fn over the points xs in batches of at most BATCH_ENTRIES // dim^2,
    so no (points, dim, dim) stack passes BATCH_ENTRIES entries."""
    step = max(1, BATCH_ENTRIES // dim**2)
    return np.concatenate([fn(xs[i:i + step]) for i in range(0, len(xs), step)])


# ---------------------------------------------------------------------------
# Error bounds
# ---------------------------------------------------------------------------

def corollary_bound(plan: StagePlan, ham: Hamiltonian, t: float,
                    grid_points: int = 65, refine_iters: int = 30) -> BoundReport:
    """3 V^(p+1) max_tau alpha_com^(p+1)(tau) t^(p+1) over tau in [0, t],
    the maximum taking up to ``refine_iters`` halving rounds (see
    ``grid_max``); ``extra["coefficient"]`` is the factor of t^(p+1)."""
    p = plan.order
    order = p + 1
    best, arg = grid_max(lambda tau: alpha_com(ham, order, tau), 0.0, t, grid_points,
                         refine_iters)
    v = plan.n_layers
    coefficient = 3.0 * v**order * best
    count = (ham.n_terms + 1) ** p * ham.n_terms
    return BoundReport("corollary", p, t, coefficient * t**order, tau_argmax=arg,
                       term_count=count, grid_size=grid_points,
                       extra={"alpha_com_max": best, "layers": v,
                              "coefficient": coefficient})


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
            f"the stage-resolved bound is implemented only for p <= 2 (got p={p}); "
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
    (it is numerically violated on driven models).  The inner integral over
    t_1 is one adaptive quadrature per outer node; extra["quadrature_error"]
    is the outer estimate plus the weighted inner ones.
    """
    if ham.n_terms != 2:
        raise InvalidInputError("first-order bound needs exactly two terms")
    h1, h2 = ham.term(1), ham.term(2)

    def inner(t2):  # int_0^t2 ||[H_1(t2), H_2(t1)]|| dt1
        a = h1.value(t2)

        def norms(t1s):
            b = h2.values(t1s)
            return spectral_norms(a @ b - b @ a)

        return _integrate(lambda t1s: (_batched(norms, t1s, ham.dim), 0.0), 0.0, t2)

    value, estimate = _integrate(lambda t2s: np.array([inner(t2) for t2 in t2s]).T, 0.0, t)
    return BoundReport("huyghebaert", 1, t, value,
                       extra={"quadrature_epsabs": _QUAD_EPSABS,
                              "quadrature_error": estimate})


def nonunitary_bound(plan: StagePlan, ham: Hamiltonian, t: float,
                     grid_points: int = 65) -> BoundReport:
    """corollary_bound times the exponential amplification factor
    exp(4 V int_0^t sum_g ||Im H_g(tau)|| dtau) for non-Hermitian terms;
    for Hermitian terms the factor is 1 and the two bounds agree.  The
    integral's quadrature estimate e moves the bound by at most
    value * (e^(4 V e) - 1), reported as extra["quadrature_error"]."""
    base = corollary_bound(plan, ham, t, grid_points)

    def im_norms(taus):
        total = np.zeros(len(taus))
        for term in ham.terms:
            m = term.values(taus)
            total += spectral_norms((m - m.conj().swapaxes(-1, -2)) / 2j)
        return total

    integral, estimate = _integrate(
        lambda taus: (_batched(im_norms, taus, ham.dim), 0.0), 0.0, t)
    exponent = 4.0 * plan.n_layers
    factor = math.exp(exponent * integral)
    value = base.value * factor
    return replace(base, bound_kind="nonunitary", value=value,
                   extra={**base.extra, "amplification": factor, "im_integral": integral,
                          "quadrature_error": value * math.expm1(exponent * estimate)})


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
    if alpha_local * t >= 0.5:
        raise OutOfRegimeError(
            f"alpha_com * t = {alpha_local * t:.4f} >= 1/2: multi-product "
            "bound is outside its validity regime")
    alpha_global = _alpha_com_sup(ham.extended(t, 2 * n_products - 1), orders,
                                  0.0, 2.0 * t, grid_points)
    value = mpf_bound_value(alpha_local * t, n_products, c_norm)
    return BoundReport("mpf", 2 * n_products + 1, t, value, grid_size=grid_points,
                       extra={"J": n_products, "c_norm": c_norm,
                              "alpha_local": alpha_local, "alpha_global": alpha_global})
