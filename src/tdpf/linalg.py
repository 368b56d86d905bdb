"""Dense complex operator arithmetic.

Operators are plain square ``np.ndarray`` matrices with dtype complex128.
The one exception is ``spectral_norms``, which also takes float64 stacks:
the bound walk's nodes are real on a real model, and stay float64 through
their leaf norms.
Dimensions stay small (qubit counts are capped), so everything is done with
dense LAPACK routines.  Batched kernels take ``(..., n, n)`` stacks and make
one LAPACK call per class of matrix, after one check (``_square_stack``).
Only numpy is used: exponentials that are not skew-Hermitian come from an
in-house batched scaling-and-squaring Pade kernel, so no run imports scipy's
linear-algebra package.  How many points a caller stacks at once is set
here alone (``batch_size``, ``batched``).

Pauli strings and chain translations are signed permutations of the basis
states, P|b> = phase[b] |perm[b]> with site 0 the most significant bit of b.
Only this module knows that bit order.  No register has more than
``QUBIT_CAP`` qubits.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NumericalBlowUpError

QUBIT_CAP = 12

# Largest stack a batched caller builds at once: at most 2^16 complex
# entries (1 MiB), so a batch of large matrices shrinks to one at a time.
BATCH_ENTRIES = 1 << 16

PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def batch_size(entries: int) -> int:
    """Points of ``entries`` stack entries each per batch: at least one."""
    return max(1, BATCH_ENTRIES // entries)


def batched(fn, xs, entries: int) -> np.ndarray:
    """``fn``, which maps an array of points to one value each, over ``xs``
    in batches of ``batch_size(entries)``."""
    step = batch_size(entries)
    return np.concatenate([fn(xs[i:i + step]) for i in range(0, len(xs), step)])


def _square_stack(a, single: bool = False, real: bool = False) -> np.ndarray:
    """``a`` checked finite and square, as one matrix if ``single`` or as a
    ``(..., n, n)`` stack; complex128, or float64 if ``real`` and it is."""
    m = np.asarray(a)
    if not (real and m.dtype == np.float64):
        m = m.astype(np.complex128, copy=False)
    if (m.ndim != 2 if single else m.ndim < 2) or m.shape[-1] != m.shape[-2]:
        what = "a square matrix" if single else "a stack of square matrices"
        raise InvalidInputError(f"expected {what}, got shape {m.shape}")
    if not np.isfinite(m).all():  # a complex entry is finite when both parts are
        raise NumericalBlowUpError("matrix has non-finite entries")
    return m


def spectral_norm(a: np.ndarray) -> float:
    """Operator 2-norm ||A|| of one square matrix; see ``spectral_norms``."""
    return float(spectral_norms(_square_stack(a, single=True)))


def spectral_norms(stack: np.ndarray, hermitian: bool = False) -> np.ndarray:
    """Operator 2-norms of a ``(..., n, n)`` stack with one ``eigvalsh`` call.

    A float64 stack stays float64, so its products and eigensolve run in
    real arithmetic; any other stack is taken as complex128.  In general
    ||A|| = sqrt(max eigenvalue of A†A) (A^T A for a real stack); the
    Hermitian eigensolve of that product is cheaper than a full SVD and
    exact enough for the dimensions used here.  With ``hermitian`` every
    matrix must be Hermitian (only its lower triangle is read), and ||A|| =
    max(|lambda_min|, |lambda_max|) needs no product.
    """
    m = _square_stack(stack, real=True)
    if hermitian:
        evals = np.linalg.eigvalsh(m)
        norms = np.maximum(np.abs(evals[..., 0]), np.abs(evals[..., -1]))
    else:
        evals = np.linalg.eigvalsh(m.conj().swapaxes(-1, -2) @ m)
        norms = np.sqrt(np.maximum(evals[..., -1], 0.0))
    if not np.isfinite(norms).all():  # A†A overflows once ||A|| passes about 1e154
        raise NumericalBlowUpError("spectral norm is not finite")
    return norms


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """e^A for one square complex matrix; see ``matrix_exps``."""
    return matrix_exps(_square_stack(a, single=True)[None])[0]


def matrix_exps(stack: np.ndarray) -> np.ndarray:
    """e^A for every matrix of a ``(..., n, n)`` stack.

    Skew-Hermitian inputs (to 1e-13 of the largest entry), the generators
    of unitary steps, go through one stacked eigendecomposition of iA, which
    keeps e^{-iHt} unitary to machine precision.  Everything else, Hermitian
    inputs included, goes through one batched pass of the degree-13
    scaling-and-squaring Pade approximant (``_pade13_exps``).  Each result
    equals that of the same matrix exponentiated alone, bit for bit.  A
    result of the Pade pass that overflows raises NumericalBlowUpError.
    """
    m = _square_stack(stack)
    shape = m.shape
    m = m.reshape((-1,) + shape[-2:])
    scale = 1e-13 * np.max(np.abs(m), axis=(-2, -1), initial=1.0)
    skew = np.max(np.abs(m + m.conj().swapaxes(-1, -2)), axis=(-2, -1), initial=0.0) <= scale
    out = np.empty_like(m)
    if skew.any():
        evals, vecs = np.linalg.eigh(1j * m[skew])  # iA is Hermitian
        out[skew] = (vecs * np.exp(-1j * evals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    if not skew.all():
        out[~skew] = _pade13_exps(m[~skew])
    return out.reshape(shape)


# Degree-13 Pade coefficients b_0..b_13 and the largest 1-norm theta_13 at
# which the unscaled approximant is accurate to double precision (Higham,
# SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _pade13_exps(a: np.ndarray) -> np.ndarray:
    """e^A for an (n, d, d) stack by Higham's scaling and squaring (2005).

    Matrix i is scaled by 2^-s_i with s_i = max(0, ceil(log2(||A_i||_1 /
    theta_13))), the [13/13] Pade approximant r = (V - U)^-1 (V + U) is
    formed with stacked products and one stacked solve, and r_i is squared
    s_i times: each round squares only the matrices with rounds left.
    Every operation acts on each matrix alone, so a result does not depend
    on the rest of the stack.
    """
    b = _PADE13
    with np.errstate(over="ignore"):  # entries near the float limit
        norms = np.abs(a).sum(axis=-2).max(axis=-1)
    if not np.isfinite(norms).all():
        raise NumericalBlowUpError("matrix 1-norm overflows")
    s = np.ceil(np.log2(np.maximum(norms / _THETA13, 1.0))).astype(int)
    a = a * np.ldexp(1.0, -s)[:, None, None]
    ident = np.eye(a.shape[-1], dtype=np.complex128)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for k in range(int(s.max())):
            live = s > k
            r[live] = r[live] @ r[live]
    if not np.isfinite(r).all():
        raise NumericalBlowUpError("matrix exponential overflows")
    return r


def check_pauli_string(sites: list[tuple[int, str]], n_qubits: int) -> None:
    """Raise InvalidInputError unless ``sites`` is a Pauli string on
    ``n_qubits`` qubits, 1 to ``QUBIT_CAP``: (site, label) pairs with
    distinct sites in range and labels in PAULI.  No array is made."""
    if n_qubits < 1:
        raise InvalidInputError("n_qubits must be >= 1")
    if n_qubits > QUBIT_CAP:
        raise InvalidInputError(f"n_qubits={n_qubits} exceeds the qubit cap {QUBIT_CAP}")
    seen: set[int] = set()
    for site, label in sites:
        if site in seen:
            raise InvalidInputError(f"duplicate site {site} in Pauli string")
        if not 0 <= site < n_qubits:
            raise InvalidInputError(f"site {site} out of range for {n_qubits} qubits")
        if label not in PAULI:
            raise InvalidInputError(f"unknown Pauli label {label!r}")
        seen.add(site)


def pauli_permutation(sites: list[tuple[int, str]], n_qubits: int):
    """The Pauli string as a signed permutation: P|b> = phase[b] |perm[b]>.

    ``sites`` lists (site index, label) pairs with 0-based indices; all other
    sites carry the identity.  X and Y flip their site's bit, Z|1> = -|1>,
    and Y|0> = i|1>, Y|1> = -i|0>.  Every input is checked
    (``check_pauli_string``) before any 2^n_qubits array is made.
    """
    check_pauli_string(sites, n_qubits)
    b = np.arange(2**n_qubits)
    flips, sign = 0, np.ones(b.size, dtype=np.int64)
    for site, label in sites:
        shift = n_qubits - 1 - site
        flips |= (label in "XY") << shift
        if label in "YZ":
            sign *= 1 - 2 * ((b >> shift) & 1)
    n_y = [label for _, label in sites].count("Y")
    return b ^ flips, (1, 1j, -1, -1j)[n_y % 4] * sign.astype(np.complex128)


def translation_permutation(n_qubits: int, shift: int):
    """The chain translated by ``shift`` sites, site i to i + shift."""
    b = np.arange(2**n_qubits)
    return ((b >> shift) | (b << (n_qubits - shift))) & (b.size - 1), np.ones(b.size, complex)


def pauli_sum(strings, n_qubits: int) -> np.ndarray:
    """The dense sum_k c_k P_k for ``strings`` of (c_k, sites of P_k) pairs,
    each checked before the output exists; an empty list of sites is the
    identity.  perm is its own inverse, so row r of P_k holds phase[perm[r]]
    in column perm[r]; each string adds those entries in place, in input
    order."""
    signed = [(coef, *pauli_permutation(sites, n_qubits)) for coef, sites in strings]
    rows = np.arange(2**n_qubits)
    out = np.zeros((rows.size, rows.size), dtype=np.complex128)
    for coef, perm, phase in signed:
        out[rows, perm] += coef * phase[perm]
    return out
