"""Dense complex operator arithmetic.

Operators are plain square ``np.ndarray`` matrices with dtype complex128.
Dimensions stay small (qubit counts are capped), so everything is done with
dense LAPACK routines.  Batched kernels take ``(..., n, n)`` stacks and make
one LAPACK call per class of matrix.  scipy is loaded only when a
non-normal matrix is exponentiated, so the common Hermitian and
skew-Hermitian paths never pay for importing ``scipy.linalg``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NumericalBlowUpError

DEFAULT_QUBIT_CAP = 12

# Largest stack a batched caller builds at once: at most 2^16 complex
# entries (1 MiB), so a batch of large matrices shrinks to one at a time.
BATCH_ENTRIES = 1 << 16

PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def as_operator(a: np.ndarray) -> np.ndarray:
    """Validate and normalize a matrix to a square complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if not (np.isfinite(m.real).all() and np.isfinite(m.imag).all()):
        raise NumericalBlowUpError("matrix has non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def spectral_norm(a: np.ndarray) -> float:
    """Operator 2-norm ||A|| of one square matrix; see ``spectral_norms``."""
    return float(spectral_norms(as_operator(a)))


def spectral_norms(stack: np.ndarray, hermitian: bool = False) -> np.ndarray:
    """Operator 2-norms of a ``(..., n, n)`` stack with one ``eigvalsh`` call.

    In general ||A|| = sqrt(max eigenvalue of A†A); the Hermitian eigensolve
    of A†A is cheaper than a full SVD and exact enough for the dimensions
    used here.  With ``hermitian`` every matrix must be Hermitian (only its
    lower triangle is read), and ||A|| = max(|lambda_min|, |lambda_max|)
    needs no product.  1x1 matrices return their modulus.
    """
    m = np.asarray(stack, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"expected a stack of square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():  # a complex entry is finite when both parts are
        raise NumericalBlowUpError("matrix has non-finite entries")
    if m.shape[-1] == 1:
        return np.abs(m[..., 0, 0])
    if hermitian:
        evals = np.linalg.eigvalsh(m)
        norms = np.maximum(np.abs(evals[..., 0]), np.abs(evals[..., -1]))
    else:
        evals = np.linalg.eigvalsh(m.conj().swapaxes(-1, -2) @ m)
        norms = np.sqrt(np.maximum(evals[..., -1], 0.0))
    if not np.isfinite(norms).all():  # A†A overflows once ||A|| passes about 1e154
        raise NumericalBlowUpError("spectral norm is not finite")
    return norms


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """e^A for one square complex matrix; see ``matrix_exps``."""
    return matrix_exps(as_operator(a)[None])[0]


def matrix_exps(stack: np.ndarray) -> np.ndarray:
    """e^A for every matrix of a ``(..., n, n)`` stack.

    Normal inputs (Hermitian / skew-Hermitian to 1e-13 of the largest entry)
    go through one stacked eigendecomposition per class, which keeps
    e^{-iHt} unitary to machine precision.  Everything else falls back, one
    matrix at a time, to scipy's scaling-and-squaring Pade approximant.  Each
    result equals that of the same matrix exponentiated alone, bit for bit.
    """
    m = np.asarray(stack, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"expected a stack of square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():  # a complex entry is finite when both parts are
        raise NumericalBlowUpError("matrix has non-finite entries")
    shape = m.shape
    m = m.reshape((-1,) + shape[-2:])
    adj = m.conj().swapaxes(-1, -2)
    scale = 1e-13 * np.max(np.abs(m), axis=(-2, -1), initial=1.0)
    herm = np.max(np.abs(m - adj), axis=(-2, -1), initial=0.0) <= scale
    skew = ~herm & (np.max(np.abs(m + adj), axis=(-2, -1), initial=0.0) <= scale)
    out = np.empty_like(m)
    if herm.any():
        evals, vecs = np.linalg.eigh(m[herm])
        out[herm] = (vecs * np.exp(evals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    if skew.any():
        evals, vecs = np.linalg.eigh(1j * m[skew])  # iA is Hermitian
        out[skew] = (vecs * np.exp(-1j * evals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    general = np.flatnonzero(~(herm | skew))
    if general.size:
        import scipy.linalg
        for i in general:
            out[i] = scipy.linalg.expm(m[i])
    return out.reshape(shape)


def kron_all(ops: list[np.ndarray]) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def embed_pauli_string(
    sites: list[tuple[int, str]], n_qubits: int, cap: int = DEFAULT_QUBIT_CAP
) -> np.ndarray:
    """Kronecker-embed single-site Paulis into an n_qubit register.

    ``sites`` lists (site index, label) pairs with 0-based indices; all other
    sites carry the identity.  An empty list gives the full identity.
    """
    if n_qubits < 1:
        raise InvalidInputError("n_qubits must be >= 1")
    if n_qubits > cap:
        raise InvalidInputError(f"n_qubits={n_qubits} exceeds the dimension cap {cap}")
    factors = [PAULI["I"]] * n_qubits
    seen: set[int] = set()
    for site, label in sites:
        if site in seen:
            raise InvalidInputError(f"duplicate site {site} in Pauli string")
        if not 0 <= site < n_qubits:
            raise InvalidInputError(f"site {site} out of range for {n_qubits} qubits")
        if label not in PAULI:
            raise InvalidInputError(f"unknown Pauli label {label!r}")
        seen.add(site)
        factors[site] = PAULI[label]
    return kron_all(factors)
