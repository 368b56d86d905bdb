"""Truncated Floquet-Hilbert space numerics.

A time-periodic Hamiltonian H(t) = sum_m H_m e^{-i m w t} lifts to the
time-independent H^F = sum_m Add_m (x) H_m - H_LP on the ancilla-extended
space spanned by |l>, |l| <= L.  The shift operators are hard-truncated
(entries falling off the ancilla window are dropped), and results are read
from the window |l| <= L_keep = L // 2 to keep boundary pollution out.

Every lifted formula, of either plan family (``build_tf``) or the
independent Suzuki recursion (``build_tf_suzuki``), is a list of
(key, duration) exponentials exp(-i M duration) that
``FloquetOperators.apply_factors`` applies in one loop to a block of columns
it is given (by default the identity, which gives the whole operator).  A
negative duration is the backward evolution exp(+i M |duration|), which is
the adjoint of the forward one only for a Hermitian model.  H_LP is
diagonal, so its exponential is one phase per row.  When the model's terms
are Hermitian (read from the model, exactly), every other lifted matrix is
diagonalised once and its exponential is never formed; a non-Hermitian
model's lifted matrices are exponentiated densely.  The readouts read few
columns: ``reconstruct`` reads block column 0 and ``check_translation_symmetry``
the block columns |l| <= L_keep, of the whole operator or of a slab of its
2w+1 block columns |l| <= w (``FloquetSpace.slab``), through one block view
(``FloquetSpace.blocks``).  So floquet-check applies e^{-i H^F t} and
``build_tf`` to the window slab |l| <= L_keep only, and ``build_tf_suzuki``
to block column 0 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NumericalBlowUpError
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
    hermitian: bool      # every term is Hermitian, so H_{-m} = H_m†

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
                              ham.dim, all(t.is_hermitian for t in ham.terms))


# ---------------------------------------------------------------------------
# Lifted operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloquetSpace:
    """Ancilla truncation |l| <= l_max, read out on the interior window
    |l| <= l_keep = l_max // 2."""

    l_max: int
    dim: int

    def __post_init__(self):
        if self.l_max < 0:
            raise InvalidInputError("need l_max >= 0")

    @property
    def l_keep(self) -> int:
        return self.l_max // 2

    @property
    def n_blocks(self) -> int:
        return 2 * self.l_max + 1

    @property
    def lifted_dim(self) -> int:
        return self.n_blocks * self.dim

    def blocks(self, op: np.ndarray) -> np.ndarray:
        """The (n_blocks, 2w+1, dim, dim) block view [l_row + l_max, l_col + w]
        of an operator given as its 2w+1 block columns |l| <= w, all rows
        kept; w = l_max for the whole operator."""
        cols = op.shape[1] // self.dim
        if (op.shape != (self.lifted_dim, cols * self.dim) or cols % 2 == 0
                or cols > self.n_blocks):
            raise InvalidInputError(
                f"shape {op.shape} is not a slab of block columns |l| <= w of"
                f" a {self.lifted_dim}-dimensional lifted operator")
        return op.reshape(self.n_blocks, self.dim, cols, self.dim).transpose(0, 2, 1, 3)

    def slab(self, width: int) -> np.ndarray:
        """The identity's block columns |l| <= width, the column block a
        builder acts on to give just those columns of its operator."""
        d = self.dim
        return np.eye(self.lifted_dim, (2 * width + 1) * d, k=-(self.l_max - width) * d,
                      dtype=np.complex128)

    def block(self, op: np.ndarray, l_row: int, l_col: int) -> np.ndarray:
        """<l_row| op |l_col> as a dim x dim block of the whole operator or
        of a slab of its block columns (``blocks``)."""
        view = self.blocks(op)
        return view[l_row + self.l_max, l_col + view.shape[1] // 2]


@dataclass(frozen=True)
class FloquetOperators:
    """The lifted generator H^F = sum_g H_g^Add - H_LP, stored as its parts:
    the per-term shift parts H_g^Add and the diagonal of H_LP."""

    h_add_terms: tuple         # per-term shift parts H_g^Add
    lp_diag: np.ndarray        # diagonal of H_LP: l w on every row of block l
    space: FloquetSpace
    hermitian: bool            # every term of the model is, hence every lifted matrix
    _eigs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def lifted(self, key) -> np.ndarray:
        """The lifted matrix named by ``key``: "F" is H^F, ("F", g) is
        H_g^F = H_g^Add - H_LP, ("Add", g) is H_g^Add and "LP" is H_LP."""
        h_lp = np.diag(self.lp_diag).astype(np.complex128)
        if key == "LP":
            return h_lp
        if key == "F":
            return sum(self.h_add_terms) - h_lp
        kind, gamma = key
        add = self.h_add_terms[gamma - 1]
        return add - h_lp if kind == "F" else add

    def apply(self, key, duration: float, x: np.ndarray) -> np.ndarray:
        """E x with E = exp(-i M duration) for the lifted matrix M =
        ``lifted(key)``, with ``duration`` of either sign.  H_LP is diagonal,
        so its E is one phase per row.  For a Hermitian model every other M
        is diagonalised once, on first use, and
        E x = V (e^{-i lambda duration} . (V† x)) serves every later duration
        and formula built on these operators without forming E; otherwise M
        is exponentiated densely."""
        if key == "LP":
            return np.exp(-1j * duration * self.lp_diag)[:, None] * x
        if not self.hermitian:
            return matrix_exp(-1j * duration * self.lifted(key)) @ x
        if key not in self._eigs:
            self._eigs[key] = np.linalg.eigh(self.lifted(key))
        evals, vecs = self._eigs[key]
        return vecs @ (np.exp(-1j * duration * evals)[:, None] * (vecs.conj().T @ x))

    def apply_factors(self, factors, x: np.ndarray | None = None) -> np.ndarray:
        """The product of the (key, duration) exponentials of ``apply``,
        first applied first, applied to the column block ``x``: by
        default the identity, which gives the whole operator.  A factor of
        zero duration is the identity and is skipped."""
        total = self.space.slab(self.space.l_max) if x is None else x
        for key, duration in factors:
            if duration != 0.0:
                total = self.apply(key, duration, total)
        return total


def build_floquet_operators(fh: FourierHamiltonian, space: FloquetSpace) -> FloquetOperators:
    if fh.dim != space.dim:
        raise InvalidInputError("Fourier data and space dimensions disagree")
    if fh.mode_cutoff > 2 * space.l_max:
        raise InvalidInputError(
            f"mode cutoff {fh.mode_cutoff} exceeds 2 L = {2 * space.l_max}")
    n = space.n_blocks
    ls = np.arange(-space.l_max, space.l_max + 1)
    adds = []
    for g in range(1, fh.n_terms + 1):
        acc = np.zeros((space.lifted_dim, space.lifted_dim), dtype=np.complex128)
        for m in range(-fh.mode_cutoff, fh.mode_cutoff + 1):
            coeff = fh.coefficient(g, m)
            if not np.any(coeff):
                continue
            acc += np.kron(np.eye(n, k=-m), coeff)  # |l+m><l|, truncated
        adds.append(acc)
    return FloquetOperators(tuple(adds), np.repeat(ls * fh.omega, space.dim), space,
                            fh.hermitian)


def build_tf(plan: StagePlan, ops: FloquetOperators, t: float,
             x: np.ndarray | None = None) -> np.ndarray:
    """The lifted time-independent formula of a plan of either family,
    applied to the column block ``x``: by default the identity, which gives
    the whole formula; floquet-check passes the readout window
    |l| <= l_keep.  Stage k is applied first.

    exact-segment: exp(-i H_{gK}^F aK t) prod_k [exp(-i H_LP (b_k+a_k-b_{k+1}) t)
    exp(-i H_{g_k}^F a_k t)], whose linear-potential times add up to Gamma - 1;
    instantaneous: exp(+i H_LP (1-b_K) t) prod_k [exp(-i H_{g_k}^Add a_k t)
    exp(+i H_LP (b_k - b_{k-1}) t)] with b_0 = 0."""
    stages = plan.stages
    factors = []
    if plan.family == EXACT:
        lp_total = sum(st.beta + st.alpha - nxt.beta for st, nxt in zip(stages, stages[1:]))
        if abs(lp_total - (plan.n_terms - 1)) > 1e-12:
            raise InvalidInputError(
                f"plan's total linear-potential time {lp_total} != Gamma - 1")
        for st, nxt in zip(stages, stages[1:]):
            factors += [(("F", st.gamma), st.alpha * t),
                        ("LP", (st.beta + st.alpha - nxt.beta) * t)]
        factors.append((("F", stages[-1].gamma), stages[-1].alpha * t))
    else:
        beta_prev = 0.0
        for st in stages:
            factors += [("LP", -(st.beta - beta_prev) * t),
                        (("Add", st.gamma), st.alpha * t)]
            beta_prev = st.beta
        factors.append(("LP", -(1.0 - beta_prev) * t))
    return ops.apply_factors(factors, x)


def build_tf_suzuki(ops: FloquetOperators, p: int, t: float,
                    x: np.ndarray | None = None) -> np.ndarray:
    """Independent construction of the lifted Suzuki formula: the plain
    time-independent recursion applied to the 2 Gamma - 1 term split
    [H_1^F, H_LP, H_2^F, ..., H_LP, H_Gamma^F], applied to the column block
    ``x`` (default: the identity, the whole formula; floquet-check passes
    block column 0, all that ``reconstruct`` reads).  Order p is
    S_{p-2}(a s)^2 S_{p-2}((1 - 4a) s) S_{p-2}(a s)^2, whose middle factor
    has negative durations (1 - 4a < 0) and so runs backward.  Only the
    eigendecompositions are shared with build_tf, through ``ops.apply``."""
    keys = []
    for g in range(1, len(ops.h_add_terms) + 1):
        if g > 1:
            keys.append("LP")
        keys.append(("F", g))

    def factors(order, s):
        """(key, duration) of each exponential, first applied first."""
        if order == 1:
            return [(key, s) for key in keys]
        if order == 2:
            return [(key, s / 2) for key in keys + keys[::-1]]
        a = suzuki_a(order // 2)
        wing = factors(order - 2, a * s)
        return wing + wing + factors(order - 2, (1 - 4 * a) * s) + wing + wing

    if p != 1 and (p < 1 or p % 2):
        raise InvalidInputError(f"order must be 1 or even, got {p}")
    return ops.apply_factors(factors(p, t), x)


# ---------------------------------------------------------------------------
# Readout
# ---------------------------------------------------------------------------

def reconstruct(lifted: np.ndarray, space: FloquetSpace, omega: float, t: float) -> np.ndarray:
    """sum over |l| <= l_keep of e^{-i l w t} <l| lifted |0>, from the whole
    lifted operator or any slab of its block columns |l| <= w."""
    blocks = space.blocks(lifted)
    out = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for l in range(-space.l_keep, space.l_keep + 1):
        out += np.exp(-1j * l * omega * t) * blocks[l + space.l_max, blocks.shape[1] // 2]
    return out


def check_translation_symmetry(lifted: np.ndarray, space: FloquetSpace,
                               omega: float, t: float) -> float:
    """Largest deviation of <l|op|l'> from e^{i s w t} <l-s|op|l'-s> over
    interior index triples (|l|, |l'|, |l-s|, |l'-s| <= l_keep, s != 0),
    read from the whole operator or a slab of its block columns |l| <= w
    with w >= l_keep.  The triple (-s, l-s, l'-s) compares the same pair of
    blocks up to a unit phase, so only s > 0 is evaluated, as one stack of
    difference blocks per shift (never more entries than the slab).  Each
    stack is screened by Frobenius norm before any eigensolve:
    ||B|| <= ||B||_F <= sqrt(d) ||B||, so a block whose Frobenius norm is
    below both the largest norm so far and the stack's largest Frobenius
    norm over sqrt(d) cannot set the maximum, and only the rest reach
    ``spectral_norms`` (with a 1e-12 relative slack against round-off)."""
    keep, lm = space.l_keep, space.l_max
    blocks = space.blocks(lifted)
    width = blocks.shape[1] // 2
    if width < keep:
        raise InvalidInputError(f"slab |l| <= {width} misses the window |l| <= {keep}")
    worst = 0.0
    for shift in range(1, keep + 1):
        # [row, col] views over l, l' = shift - keep .. keep and their shifts
        here = blocks[lm + shift - keep:lm + keep + 1, width + shift - keep:width + keep + 1]
        back = blocks[lm - keep:lm + keep + 1 - shift, width - keep:width + keep + 1 - shift]
        diffs = here - np.exp(1j * shift * omega * t) * back
        fro = _frobenius_norms(diffs)
        if not np.isfinite(fro).all():
            raise NumericalBlowUpError("lifted operator has non-finite entries")
        floor = max(worst, float(fro.max()) / math.sqrt(space.dim)) * (1.0 - 1e-12)
        kept = diffs[fro >= floor]
        if kept.size:
            worst = max(worst, float(spectral_norms(kept).max()))
    return worst


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (..., d, d) stack of blocks."""
    return np.linalg.norm(stack, axis=(-2, -1))
