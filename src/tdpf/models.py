"""Time-dependent Hamiltonians as sums of labeled terms H(t) = sum_g H_g(t),
each term a list of (matrix, scalar curve) summands, plus builders for the
nearest-neighbor and long-range 2-local model classes and their induced
coefficient norms.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .curves import ScalarCurve, curve_from_descriptor, extrapolate_scalar
from .errors import (InvalidInputError, SchemaError, integer, number, one_of,
                     required)
from .linalg import DEFAULT_QUBIT_CAP, embed_pauli_string

_PAULI_ORDER = ("X", "Y", "Z")
_CHANNELS = tuple(a + b for a in _PAULI_ORDER for b in _PAULI_ORDER)


class OperatorCurve:
    """Matrix-valued function of time: sum_j A_j f_j(t), differentiable to the
    smallest budget among its scalar curves."""

    def __init__(self, summands, dim: int | None = None,
                 derivative_budget: int | None = None):
        self.summands = [(np.asarray(mat, dtype=np.complex128), curve)
                         for mat, curve in summands]
        dims = {m.shape[0] for m, _ in self.summands}
        if len(dims) > 1:
            raise InvalidInputError(f"summand dimensions disagree: {sorted(dims)}")
        if dims:
            self.dim = dims.pop()
        elif dim is not None:
            self.dim = int(dim)
        else:
            raise InvalidInputError("empty OperatorCurve needs an explicit dim")
        budgets = [curve.derivative_budget for _, curve in self.summands]
        if derivative_budget is not None:
            budgets.append(int(derivative_budget))
        self.derivative_budget = min(budgets) if budgets else 0
        self.is_zero = all(not np.any(m) for m, _ in self.summands)

    @cached_property
    def is_hermitian(self) -> bool:
        """Every summand matrix exactly equals its conjugate transpose; the
        curves are real, so every value and derivative is then Hermitian."""
        return all(np.array_equal(m, m.conj().T) for m, _ in self.summands)

    def value(self, tau: float, q: int = 0) -> np.ndarray:
        return self.values([tau], q)[0]

    def values(self, taus, q: int = 0) -> np.ndarray:
        """sum_j A_j f_j^(q)(tau) at every tau of a 1-D batch, as a
        (len(taus), dim, dim) stack."""
        taus = np.asarray(taus, dtype=float)
        out = np.zeros((len(taus), self.dim, self.dim), dtype=np.complex128)
        for mat, curve in self.summands:
            coeffs = np.array([curve.eval(tau, q) for tau in taus])
            out += mat * coeffs[:, None, None]
        return out

    def scaled(self, factor: complex) -> OperatorCurve:
        return OperatorCurve([(factor * m, c) for m, c in self.summands],
                             dim=self.dim, derivative_budget=self.derivative_budget)

    def extended(self, t_end: float, order: int) -> OperatorCurve:
        """Periodic C^(order+2) extension of every scalar summand beyond [0, t_end]."""
        return OperatorCurve(
            [(m, extrapolate_scalar(c, t_end, order)) for m, c in self.summands],
            dim=self.dim)


class Hamiltonian:
    """Ordered list of OperatorCurve terms (gamma = 1..n_terms) sharing one
    Hilbert-space dimension."""

    def __init__(self, terms, metadata: dict | None = None):
        self.terms = list(terms)
        if not self.terms:
            raise InvalidInputError("a Hamiltonian needs at least one term")
        dims = {t.dim for t in self.terms}
        if len(dims) > 1:
            raise InvalidInputError(f"term dimensions disagree: {sorted(dims)}")
        self.dim = dims.pop()
        self.metadata = dict(metadata or {})

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def term(self, gamma: int) -> OperatorCurve:
        """1-based term lookup."""
        if not 1 <= gamma <= self.n_terms:
            raise InvalidInputError(f"term index {gamma} out of 1..{self.n_terms}")
        return self.terms[gamma - 1]

    def total_curve(self) -> OperatorCurve:
        summands = [s for t in self.terms for s in t.summands]
        return OperatorCurve(summands, dim=self.dim)

    def scaled(self, factor: complex) -> Hamiltonian:
        return Hamiltonian([t.scaled(factor) for t in self.terms], metadata=self.metadata)

    def extended(self, t_end: float, order: int) -> Hamiltonian:
        meta = dict(self.metadata)
        meta["extension"] = {"t_end": t_end, "order": order, "period": 2.0 * t_end}
        return Hamiltonian([t.extended(t_end, order) for t in self.terms], metadata=meta)


# ---------------------------------------------------------------------------
# Nearest-neighbor chains
# ---------------------------------------------------------------------------

def _chain_bonds(n_sites: int, boundary: str) -> list[tuple[int, int]]:
    if boundary == "open":
        return [(i, i + 1) for i in range(n_sites - 1)]
    if boundary == "periodic":
        return [(i, (i + 1) % n_sites) for i in range(n_sites)]
    raise InvalidInputError(f"unknown boundary {boundary!r}")


def build_nn_chain(n_sites: int, bond_curves, bond_paulis=("X", "X"),
                   boundary: str = "open", cap: int = DEFAULT_QUBIT_CAP) -> Hamiltonian:
    """Odd/even bond split of sum_i h_{i,i+1}(t) into two terms.

    Bond i couples sites (i, i+1) (0-based); bonds with even index go to term
    1, odd index to term 2, so the bonds inside each term act on disjoint site
    pairs and mutually commute.  ``bond_curves`` is one ScalarCurve shared by
    all bonds or a list with one curve per bond.
    """
    if n_sites < 2:
        raise InvalidInputError("chain needs at least 2 sites")
    if n_sites > cap:
        raise InvalidInputError(f"n_sites={n_sites} exceeds the dimension cap {cap}")
    bonds = _chain_bonds(n_sites, boundary)
    if isinstance(bond_curves, ScalarCurve):
        bond_curves = [bond_curves] * len(bonds)
    if len(bond_curves) != len(bonds):
        raise InvalidInputError(f"need {len(bonds)} bond curves, got {len(bond_curves)}")
    summands: list[list] = [[], []]
    for idx, ((i, j), curve) in enumerate(zip(bonds, bond_curves)):
        mat = embed_pauli_string([(i, bond_paulis[0]), (j, bond_paulis[1])], n_sites, cap)
        summands[idx % 2].append((mat, curve))
    dim = 2**n_sites
    terms = [OperatorCurve(s, dim=dim) for s in summands]
    meta = {"model": "nn-chain", "n_sites": n_sites, "boundary": boundary,
            "bonds": bonds, "local_gate_counts": [len(s) for s in summands]}
    return Hamiltonian(terms, metadata=meta)


def build_driven_chain(n_sites: int, bond_curve: ScalarCurve,
                       field_curve: ScalarCurve | None = None,
                       bond_paulis=("X", "X"), field_pauli: str = "Z",
                       boundary: str = "open",
                       cap: int = DEFAULT_QUBIT_CAP) -> Hamiltonian:
    """Odd/even bond chain with optional driven on-site fields folded into the
    second term.  With n_sites = 2 the second term is the field alone, which
    is the smallest model whose two terms fail to commute."""
    ham = build_nn_chain(n_sites, bond_curve, bond_paulis, boundary, cap)
    if field_curve is None:
        return ham
    field = [(embed_pauli_string([(i, field_pauli)], n_sites, cap), field_curve)
             for i in range(n_sites)]
    terms = [ham.terms[0], OperatorCurve(list(ham.terms[1].summands) + field)]
    meta = dict(ham.metadata)
    meta["field_pauli"] = field_pauli
    meta["local_gate_counts"] = [len(t.summands) for t in terms]
    return Hamiltonian(terms, metadata=meta)


# ---------------------------------------------------------------------------
# Long-range 2-local models (d = 1)
# ---------------------------------------------------------------------------

def _stage_pairs(n_sites: int) -> dict[int, list[tuple[int, int]]]:
    """Assign every unordered pair (i < j) to the unique divide-and-conquer
    stage where i and j first fall into sibling blocks of the dyadic tree."""
    n_levels = max(1, math.ceil(math.log2(n_sites)))
    padded = 2**n_levels
    stages: dict[int, list[tuple[int, int]]] = {g: [] for g in range(1, n_levels + 1)}
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            for gamma_p in range(1, n_levels + 1):
                block = padded // 2**gamma_p
                if i // block != j // block:
                    stages[gamma_p].append((i, j))
                    break
    return stages


def _canonical_channels(pair_curves: dict) -> list[str]:
    def key(ch):
        return (_PAULI_ORDER.index(ch[0]), _PAULI_ORDER.index(ch[1]))

    for ch in pair_curves:
        if len(ch) != 2 or any(p not in _PAULI_ORDER for p in ch):
            raise InvalidInputError(f"bad pair channel {ch!r}; expected e.g. 'XX'")
    return sorted(pair_curves, key=key)


def long_range_tables(n_sites: int, nu: float, pair_curves: dict,
                      site_curves: dict | None = None,
                      coupling: float = 1.0) -> dict:
    """Coefficient metadata for a 1-D 2-local long-range model; cheap at any N.

    Pair coefficients are coupling / |i-j|^nu times the channel curve; stage
    assignment follows the block divide-and-conquer split, giving
    n_channels * ceil(log2 N) pair terms plus one single-site term.
    """
    if n_sites < 2:
        raise InvalidInputError("long-range model needs at least 2 sites")
    channels = _canonical_channels(pair_curves)
    stages = _stage_pairs(n_sites)
    pair_table = []
    for gamma_p in sorted(stages):
        for ch_idx, ch in enumerate(channels):
            for (i, j) in stages[gamma_p]:
                mag = coupling / abs(i - j)**nu if nu != 0 else coupling
                pair_table.append((i, j, ch, gamma_p, mag, pair_curves[ch]))
    site_table = []
    if site_curves:
        for sigma in sorted(site_curves, key=_PAULI_ORDER.index):
            for i in range(n_sites):
                site_table.append((i, sigma, site_curves[sigma]))
    n_stage_terms = len(channels) * len(stages)
    gate_counts = [len(stages[g]) for g in sorted(stages) for _ch in channels]
    if site_table:
        gate_counts.append(len(site_table))
    return {
        "model": "long-range", "n_sites": n_sites, "nu": nu,
        "channels": channels, "n_stages": len(stages),
        "n_terms": n_stage_terms + (1 if site_table else 0),
        "pair_table": pair_table, "site_table": site_table,
        "local_gate_counts": gate_counts,
    }


def build_long_range(n_sites: int, nu: float, pair_curves: dict,
                     site_curves: dict | None = None, coupling: float = 1.0,
                     cap: int = DEFAULT_QUBIT_CAP) -> Hamiltonian:
    """Dense long-range model: one term per (stage, channel) pair plus a
    single-site term when fields are present."""
    if n_sites > cap:
        raise InvalidInputError(f"n_sites={n_sites} exceeds the dimension cap {cap}")
    meta = long_range_tables(n_sites, nu, pair_curves, site_curves, coupling)
    dim = 2**n_sites
    grouped: dict[tuple[int, str], list] = {}
    for (i, j, ch, gamma_p, mag, curve) in meta["pair_table"]:
        mat = mag * embed_pauli_string([(i, ch[0]), (j, ch[1])], n_sites, cap)
        grouped.setdefault((gamma_p, ch), []).append((mat, curve))
    terms = []
    for gamma_p in range(1, meta["n_stages"] + 1):
        for ch in meta["channels"]:
            terms.append(OperatorCurve(grouped.get((gamma_p, ch), []), dim=dim))
    if meta["site_table"]:
        site = [(embed_pauli_string([(i, sigma)], n_sites, cap), curve)
                for (i, sigma, curve) in meta["site_table"]]
        terms.append(OperatorCurve(site, dim=dim))
    meta["local_gate_counts"] = [len(t.summands) for t in terms]
    return Hamiltonian(terms, metadata=meta)


def induced_norms(model, tau: float) -> tuple[float, float]:
    """(||H||_1, |||H|||_1) at time tau from coefficient metadata.

    ||H||_1 sums |h_ij(tau)| over unordered pairs and channels plus all
    |h_i(tau)|; |||H|||_1 is the worst per-site row sum.  Accepts a
    Hamiltonian built by build_long_range or a long_range_tables dict.
    """
    meta = model.metadata if isinstance(model, Hamiltonian) else model
    if "pair_table" not in meta:
        raise InvalidInputError("model carries no pair-coefficient metadata")
    n_sites = meta["n_sites"]
    row = np.zeros(n_sites)
    site_row = np.zeros(n_sites)
    one_norm = 0.0
    for (i, j, _ch, _g, mag, curve) in meta["pair_table"]:
        val = abs(mag * curve.eval(tau))
        one_norm += val
        row[i] += val
        row[j] += val
    for (i, _sigma, curve) in meta["site_table"]:
        val = abs(curve.eval(tau))
        one_norm += val
        site_row[i] += val
    induced = max(row.max(initial=0.0), site_row.max(initial=0.0))
    return one_norm, induced


# ---------------------------------------------------------------------------
# JSON model descriptors
# ---------------------------------------------------------------------------

def model_from_descriptor(desc: dict, cap: int = DEFAULT_QUBIT_CAP,
                          field: str = "model") -> Hamiltonian:
    """Build a model from its JSON descriptor; ``field`` is the config path
    that schema errors name."""
    if not isinstance(desc, dict):
        raise SchemaError(field, "expected a model descriptor object")
    kind = one_of(desc.get("model"), f"{field}.model", ("custom", "nn-chain", "long-range"))
    if kind == "custom":
        return _custom_from_descriptor(desc, cap, field)
    if kind == "nn-chain":
        n = integer(required(desc, "N", field), f"{field}.N", 2)
        bond = curve_from_descriptor(required(desc, "bond_curve", field),
                                     f"{field}.bond_curve")
        field_curve = None
        if "field_curve" in desc:
            field_curve = curve_from_descriptor(desc["field_curve"], f"{field}.field_curve")
        paulis = desc.get("bond_paulis", ["X", "X"])
        if not isinstance(paulis, list) or len(paulis) != 2:
            raise SchemaError(f"{field}.bond_paulis", "expected a pair of Pauli labels")
        paulis = tuple(one_of(p, f"{field}.bond_paulis", _PAULI_ORDER) for p in paulis)
        field_pauli = one_of(desc.get("field_pauli", "Z"), f"{field}.field_pauli",
                             _PAULI_ORDER)
        boundary = one_of(desc.get("boundary", "open"), f"{field}.boundary",
                          ("open", "periodic"))
        try:
            return build_driven_chain(n, bond, field_curve, paulis, field_pauli, boundary, cap)
        except InvalidInputError as exc:
            raise SchemaError(field, str(exc)) from exc
    try:
        return build_long_range(*long_range_fields(desc, field), cap=cap)
    except InvalidInputError as exc:
        raise SchemaError(field, str(exc)) from exc


def long_range_fields(desc: dict, field: str = "model") -> tuple:
    """(N, nu, pair_curves, site_curves, coupling) of a long-range descriptor:
    the arguments of both ``build_long_range`` and ``long_range_tables``."""
    n = integer(required(desc, "N", field), f"{field}.N", 2)
    nu = number(required(desc, "nu", field), f"{field}.nu")
    pair_curves = {one_of(ch, f"{field}.pair_curves.{ch}", _CHANNELS):
                   curve_from_descriptor(d, f"{field}.pair_curves.{ch}")
                   for ch, d in required(desc, "pair_curves", field, dict).items()}
    site_curves = None
    if "site_curves" in desc:
        site_curves = {one_of(s, f"{field}.site_curves.{s}", _PAULI_ORDER):
                       curve_from_descriptor(d, f"{field}.site_curves.{s}")
                       for s, d in required(desc, "site_curves", field, dict).items()}
    coupling = number(desc.get("coupling", 1.0), f"{field}.coupling")
    return n, nu, pair_curves, site_curves, coupling


def _custom_from_descriptor(desc: dict, cap: int, field: str) -> Hamiltonian:
    n = integer(required(desc, "N", field), f"{field}.N", 1)
    raw_terms = required(desc, "terms", field, list)
    if not raw_terms:
        raise SchemaError(f"{field}.terms", "expected a non-empty list")
    seen: dict[int, tuple] = {}
    for idx, entry in enumerate(raw_terms):
        term_field = f"{field}.terms[{idx}]"
        if not isinstance(entry, dict):
            raise SchemaError(term_field, "expected an object")
        gamma = integer(required(entry, "gamma", term_field), f"{term_field}.gamma", 1)
        if gamma in seen:
            raise SchemaError(f"{term_field}.gamma", f"duplicate gamma label {gamma}")
        sites = []
        for p_idx, pair in enumerate(required(entry, "paulis", term_field, list)):
            pair_field = f"{term_field}.paulis[{p_idx}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(pair_field, "expected [site, label] with label in X/Y/Z")
            sites.append((integer(pair[0], pair_field, 0),
                          one_of(pair[1], pair_field, _PAULI_ORDER)))
        curve = curve_from_descriptor(required(entry, "curve", term_field),
                                      f"{term_field}.curve")
        try:
            mat = embed_pauli_string(sites, n, cap)
        except InvalidInputError as exc:
            raise SchemaError(f"{term_field}.paulis", str(exc)) from exc
        seen[gamma] = (mat, curve)
    labels = sorted(seen)
    if labels != list(range(1, len(labels) + 1)):
        raise SchemaError(f"{field}.terms",
                          f"gamma labels must be 1..{len(labels)}, got {labels}")
    budget = desc.get("derivative_budget")
    if budget is not None:
        integer(budget, f"{field}.derivative_budget", 0)
    terms = [OperatorCurve([seen[g]], derivative_budget=budget) for g in labels]
    return Hamiltonian(terms, metadata={"model": "custom", "n_sites": n,
                                        "local_gate_counts": [1] * len(labels)})
