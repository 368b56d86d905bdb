"""Dense complex operator arithmetic.

Operators are plain square ``np.ndarray`` matrices with dtype complex128.
Dimensions stay small (qubit counts are capped), so everything is done with
dense LAPACK routines.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import InvalidInputError

DEFAULT_QUBIT_CAP = 12

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
        raise InvalidInputError("matrix has non-finite entries")
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
        raise InvalidInputError("matrix has non-finite entries")
    if m.shape[-1] == 1:
        return np.abs(m[..., 0, 0])
    if hermitian:
        evals = np.linalg.eigvalsh(m)
        return np.maximum(np.abs(evals[..., 0]), np.abs(evals[..., -1]))
    evals = np.linalg.eigvalsh(m.conj().swapaxes(-1, -2) @ m)
    return np.sqrt(np.maximum(evals[..., -1], 0.0))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """e^A for a square complex matrix.

    Normal inputs (Hermitian / skew-Hermitian) go through an eigendecomposition,
    which keeps e^{-iHt} unitary to machine precision.  Everything else falls
    back to scipy's scaling-and-squaring Pade approximant.
    """
    m = as_operator(a)
    adj = m.conj().T
    scale = np.max(np.abs(m), initial=1.0)
    if np.max(np.abs(m - adj), initial=0.0) <= 1e-13 * scale:  # Hermitian
        evals, vecs = np.linalg.eigh(m)
        return (vecs * np.exp(evals)) @ vecs.conj().T
    if np.max(np.abs(m + adj), initial=0.0) <= 1e-13 * scale:  # skew-Hermitian
        evals, vecs = np.linalg.eigh(1j * m)  # iA is Hermitian
        return (vecs * np.exp(-1j * evals)) @ vecs.conj().T
    return scipy.linalg.expm(m)


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
