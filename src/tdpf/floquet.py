"""Truncated Floquet-Hilbert space numerics.

A time-periodic Hamiltonian H(t) = sum_m H_m e^{-i m w t} lifts to the
time-independent H^F = sum_m Add_m (x) H_m - H_LP on the ancilla-extended
space spanned by |l>, |l| <= L.  The shift operators are hard-truncated
(entries falling off the ancilla window are dropped), and results are read
from an interior window |l| <= L_keep to keep boundary pollution out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .formulas import EXACT, StagePlan, suzuki_a
from .linalg import matrix_exp, spectral_norm, spectral_norms
from .models import Hamiltonian, OperatorCurve

FOURIER_SAMPLES = 4096  # trapezoidal-rule points per period


# ---------------------------------------------------------------------------
# Fourier decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierHamiltonian:
    """Per-term Fourier data: coefficients[g][m + mode_cutoff] is H_{g m}."""

    omega: float
    mode_cutoff: int
    coefficients: tuple  # tuple over terms of ndarray (2M+1, d, d)
    dim: int

    @property
    def n_terms(self) -> int:
        return len(self.coefficients)

    def coefficient(self, gamma: int, m: int) -> np.ndarray:
        """1-based term index, signed mode index."""
        return self.coefficients[gamma - 1][m + self.mode_cutoff]


def fourier_decompose(term: OperatorCurve, omega: float, mode_cutoff: int) -> np.ndarray:
    """Trapezoidal-rule Fourier coefficients of one term over one period:
    coeffs[m + M] = H_m.  The input must close up over the period (endpoint
    mismatch <= 1e-8), i.e. be genuinely periodic.
    """
    if omega <= 0:
        raise InvalidInputError("omega must be positive")
    period = 2.0 * math.pi / omega
    mismatch = spectral_norm(term.value(0.0) - term.value(period))
    if mismatch > 1e-8:
        raise InvalidInputError(
            f"term is not {period:.6g}-periodic (endpoint mismatch {mismatch:.3e});"
            " extrapolate it first")
    taus = np.arange(FOURIER_SAMPLES) * (period / FOURIER_SAMPLES)
    vals = term.values(taus)  # (samples, d, d)
    ms = np.arange(-mode_cutoff, mode_cutoff + 1)
    phases = np.exp(1j * omega * np.outer(ms, taus)) / FOURIER_SAMPLES  # (2M+1, samples)
    return np.tensordot(phases, vals, axes=(1, 0))


def fourier_hamiltonian(ham: Hamiltonian, omega: float, mode_cutoff: int) -> FourierHamiltonian:
    return FourierHamiltonian(omega, mode_cutoff,
                              tuple(fourier_decompose(t, omega, mode_cutoff) for t in ham.terms),
                              ham.dim)


# ---------------------------------------------------------------------------
# Lifted operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloquetSpace:
    """Ancilla truncation |l| <= l_max with an interior readout window
    |l| <= l_keep (default half of l_max)."""

    l_max: int
    l_keep: int
    dim: int

    def __post_init__(self):
        if self.l_max < 0 or not 0 <= self.l_keep <= self.l_max:
            raise InvalidInputError("need 0 <= l_keep <= l_max")

    @property
    def n_blocks(self) -> int:
        return 2 * self.l_max + 1

    @property
    def lifted_dim(self) -> int:
        return self.n_blocks * self.dim

    def block(self, op: np.ndarray, l_row: int, l_col: int) -> np.ndarray:
        """<l_row| op |l_col> as a dim x dim block."""
        d, lm = self.dim, self.l_max
        r = (l_row + lm) * d
        c = (l_col + lm) * d
        return op[r:r + d, c:c + d]


def floquet_space(l_max: int, dim: int, l_keep: int | None = None) -> FloquetSpace:
    return FloquetSpace(l_max, l_max // 2 if l_keep is None else l_keep, dim)


@dataclass(frozen=True)
class FloquetOperators:
    h_f: np.ndarray            # full lifted generator
    h_f_terms: tuple           # per-term H_g^F = H_g^Add - H_LP
    h_add_terms: tuple         # per-term shift parts H_g^Add
    h_lp: np.ndarray           # diagonal linear-potential part
    space: FloquetSpace
    omega: float
    _eigs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _lifted(self, key) -> np.ndarray:
        if key == "LP":
            return self.h_lp
        kind, gamma = key
        return (self.h_f_terms if kind == "F" else self.h_add_terms)[gamma - 1]

    def exp(self, key, duration: float) -> np.ndarray:
        """exp(-i M duration) for the lifted matrix M named by ``key``:
        ("F", g) is H_g^F, ("Add", g) is H_g^Add and "LP" is H_LP.  A
        Hermitian M is diagonalised once, on first use, and the decomposition
        serves every later duration and formula built on these operators."""
        if key not in self._eigs:
            mat = self._lifted(key)
            hermitian = (spectral_norm(mat - mat.conj().T)
                         <= 1e-10 * max(spectral_norm(mat), 1.0))
            self._eigs[key] = np.linalg.eigh(mat) if hermitian else None
        eig = self._eigs[key]
        if eig is None:
            return matrix_exp(-1j * duration * self._lifted(key))
        evals, vecs = eig
        return (vecs * np.exp(-1j * duration * evals)) @ vecs.conj().T


def build_floquet_operators(fh: FourierHamiltonian, space: FloquetSpace) -> FloquetOperators:
    if fh.dim != space.dim:
        raise InvalidInputError("Fourier data and space dimensions disagree")
    if fh.mode_cutoff > 2 * space.l_max:
        raise InvalidInputError(
            f"mode cutoff {fh.mode_cutoff} exceeds 2 L = {2 * space.l_max}")
    n = space.n_blocks
    ls = np.arange(-space.l_max, space.l_max + 1)
    h_lp = np.kron(np.diag(ls * fh.omega), np.eye(space.dim)).astype(np.complex128)
    adds = []
    for g in range(1, fh.n_terms + 1):
        acc = np.zeros((space.lifted_dim, space.lifted_dim), dtype=np.complex128)
        for m in range(-fh.mode_cutoff, fh.mode_cutoff + 1):
            coeff = fh.coefficient(g, m)
            if not np.any(coeff):
                continue
            acc += np.kron(np.eye(n, k=-m), coeff)  # |l+m><l|, truncated
        adds.append(acc)
    h_f_terms = tuple(a - h_lp for a in adds)
    h_f = sum(adds) - h_lp
    return FloquetOperators(h_f, h_f_terms, tuple(adds), h_lp, space, fh.omega)


def _lp_phase_diag(ops: FloquetOperators, duration: float) -> np.ndarray:
    """Diagonal of exp(-i H_LP * duration)."""
    ls = np.arange(-ops.space.l_max, ops.space.l_max + 1)
    return np.repeat(np.exp(-1j * ls * ops.omega * duration), ops.space.dim)


def build_tf(plan: StagePlan, ops: FloquetOperators, t: float) -> np.ndarray:
    """Lifted time-independent formula matching an exact-segment plan:
    exp(-i H_{gK}^F aK t) prod_k [exp(-i H_LP (b_k+a_k-b_{k+1}) t)
    exp(-i H_{g_k}^F a_k t)], with exact diagonal H_LP exponentials."""
    if plan.family != EXACT:
        raise InvalidInputError("lifted formula needs an exact-segment plan")
    stages = plan.stages
    lp_total = sum(stages[k].beta + stages[k].alpha - stages[k + 1].beta
                   for k in range(len(stages) - 1))
    if abs(lp_total - (plan.n_terms - 1)) > 1e-12:
        raise InvalidInputError(
            f"plan's total linear-potential time {lp_total} != Gamma - 1")
    total = np.eye(ops.space.lifted_dim, dtype=np.complex128)
    for k, st in enumerate(stages):
        total = ops.exp(("F", st.gamma), st.alpha * t) @ total
        if k + 1 < len(stages):
            gap = (st.beta + st.alpha - stages[k + 1].beta) * t
            if gap != 0.0:
                total = _lp_phase_diag(ops, gap)[:, None] * total
    return total


def build_tf_instantaneous(plan: StagePlan, ops: FloquetOperators, t: float) -> np.ndarray:
    """Lifted counterpart of the instantaneous family: exp(+i H_LP (1-b_K) t)
    prod_k [exp(-i H_{g_k}^Add a_k t) exp(+i H_LP (b_k - b_{k-1}) t)]."""
    stages = plan.stages
    total = np.eye(ops.space.lifted_dim, dtype=np.complex128)
    beta_prev = 0.0
    for st in stages:
        gap = (st.beta - beta_prev) * t
        if gap != 0.0:
            total = _lp_phase_diag(ops, -gap)[:, None] * total
        total = ops.exp(("Add", st.gamma), st.alpha * t) @ total
        beta_prev = st.beta
    total = _lp_phase_diag(ops, -(1.0 - beta_prev) * t)[:, None] * total
    return total


def build_tf_suzuki(ops: FloquetOperators, p: int, t: float) -> np.ndarray:
    """Independent construction of the lifted Suzuki formula: the plain
    time-independent recursion applied to the 2 Gamma - 1 term split
    [H_1^F, H_LP, H_2^F, ..., H_LP, H_Gamma^F].  Only the eigendecompositions
    are shared with build_tf, through ``ops.exp``."""
    keys = []
    for g in range(1, len(ops.h_f_terms) + 1):
        if g > 1:
            keys.append("LP")
        keys.append(("F", g))

    def build(order, s):
        if order == 1:
            total = np.eye(ops.space.lifted_dim, dtype=np.complex128)
            for key in keys:
                total = ops.exp(key, s) @ total
            return total
        if order == 2:
            total = np.eye(ops.space.lifted_dim, dtype=np.complex128)
            for key in keys:
                total = ops.exp(key, s / 2) @ total
            for key in reversed(keys):
                total = ops.exp(key, s / 2) @ total
            return total
        a = suzuki_a(order // 2)
        wing = build(order - 2, a * s)
        mid = build(order - 2, (4 * a - 1) * s).conj().T
        return wing @ wing @ mid @ wing @ wing

    if p != 1 and (p < 1 or p % 2):
        raise InvalidInputError(f"order must be 1 or even, got {p}")
    return build(p, t)


# ---------------------------------------------------------------------------
# Readout
# ---------------------------------------------------------------------------

def reconstruct(lifted: np.ndarray, space: FloquetSpace, omega: float, t: float) -> np.ndarray:
    """sum over |l| <= l_keep of e^{-i l w t} <l| lifted |0>."""
    out = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for l in range(-space.l_keep, space.l_keep + 1):
        out += np.exp(-1j * l * omega * t) * space.block(lifted, l, 0)
    return out


def check_translation_symmetry(lifted: np.ndarray, space: FloquetSpace,
                               omega: float, t: float) -> float:
    """Largest deviation of <l|op|l'> from e^{i l'' w t} <l-l''|op|l'-l''> over
    interior index triples (|l|, |l'|, |l''| <= l_keep), from one batched norm
    call."""
    keep = space.l_keep
    n, d = space.n_blocks, space.dim
    blocks = lifted.reshape(n, d, n, d).transpose(0, 2, 1, 3)  # [row, col]
    ls = np.arange(-keep, keep + 1)
    s, r, c = ls[:, None, None], ls[None, :, None], ls[None, None, :]
    inside = (s != 0) & (np.abs(r - s) <= keep) & (np.abs(c - s) <= keep)
    shift, l_row, l_col = (ls[i] for i in np.nonzero(inside))
    if not shift.size:
        return 0.0
    row, col = l_row + space.l_max, l_col + space.l_max
    phase = np.exp(1j * shift * omega * t)[:, None, None]
    diffs = blocks[row, col]
    diffs -= phase * blocks[row - shift, col - shift]
    return float(spectral_norms(diffs).max())
