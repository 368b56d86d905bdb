"""Time-dependent Hamiltonians as sums of labeled terms H(t) = sum_g H_g(t),
each term a sum of (matrix, scalar curve) summands with one summed matrix
per distinct curve, plus builders for the nearest-neighbor and long-range
2-local model classes.  A built term is a sum of Pauli strings times curves:
it keeps the strings as ``paulis`` and scatters its matrices from them, one
per curve (``OperatorCurve.from_paulis``), never one per bond, pair or
field.  Those dense 2^N matrices are formed only when something reads them
(the oracle, the product formulas, the Floquet lift, or a walk on a model
that does not split into sectors); a term's shape, derivative budget,
Hermiticity and ``is_zero`` are read from its strings and curves.  The
strings are the model's only record of its structure: a Hamiltonian holds
its terms, and the oracle evolutions it has computed, and nothing else.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .curves import ScalarCurve, curve_from_descriptor, extrapolate_scalar
from .errors import (InvalidInputError, NumericalBlowUpError, SchemaError,
                     integer, number, one_of, required)
from .linalg import QUBIT_CAP, check_pauli_string, pauli_sum
from .propagator import evolve
from .sectors import MIN_DIM, Sectors, merged_strings, project

_PAULI_ORDER = ("X", "Y", "Z")
_CHANNELS = tuple(a + b for a in _PAULI_ORDER for b in _PAULI_ORDER)


class OperatorCurve:
    """Matrix-valued function of time: sum_j A_j f_j(t), differentiable to the
    smallest budget among its scalar curves.

    ``summands`` is any iterable of (matrix, curve) pairs, such as the pieces
    of every term in ``Hamiltonian.total_curve``; builders go through
    ``from_paulis``.  Pairs that share one curve object are summed as they
    arrive, in input order, so the term keeps one matrix per distinct curve,
    in order of first appearance: every quantity reads a term only through
    sum_j A_j f_j.  ``curves`` lists the f_j.  Every A_j has one shape
    (..., dim, dim): a single matrix, or a stack of them such as a term's
    symmetry-sector blocks, all sharing the curve f_j.  ``paulis`` lists
    each A_j as its (coefficient, sites) Pauli strings (see ``from_paulis``);
    it is None for a term given as matrices, which ``sectors`` never splits.

    A term given as matrices keeps them from the constructor.  A term built
    from Pauli strings, and every ``scaled`` or ``extended`` copy, forms its
    matrices once, at the first read of ``summands`` (``value``, ``values``
    or ``Hamiltonian.total_curve``).  ``shape``, ``dim``,
    ``derivative_budget``, ``is_hermitian``, ``is_real`` and ``is_zero``
    come from the strings and curves, so projecting a split model onto its
    sectors and walking its bounds form no dense 2^N matrix."""

    def __init__(self, summands, dim: int | None = None,
                 derivative_budget: int | None = None):
        self.paulis = None
        groups: dict[int, tuple] = {}
        shape = None
        for mat, curve in summands:
            mat = np.asarray(mat, dtype=np.complex128)
            if shape is None:
                shape = mat.shape
            elif mat.shape != shape:
                raise InvalidInputError(
                    f"summand shapes disagree: {shape} and {mat.shape}")
            prev = groups.get(id(curve))
            # never in place: asarray may return the caller's own array
            groups[id(curve)] = (mat if prev is None else prev[0] + mat, curve)
        self.summands = list(groups.values())  # shadows the property: never formed
        if shape is None:
            if dim is None:
                raise InvalidInputError("empty OperatorCurve needs an explicit dim")
            shape = (int(dim), int(dim))
        self._describe([curve for _, curve in self.summands], shape, derivative_budget)

    def _describe(self, curves: list, shape: tuple, derivative_budget: int | None) -> None:
        self.curves = curves
        self.shape = shape
        self.dim = shape[-1]
        budgets = [curve.derivative_budget for curve in curves]
        if derivative_budget is not None:
            budgets.append(int(derivative_budget))
        self.derivative_budget = min(budgets) if budgets else 0

    @classmethod
    def _deferred(cls, form, curves: list, shape: tuple, paulis: list | None,
                  derivative_budget: int | None = None) -> OperatorCurve:
        """The term whose matrices, one per curve, ``form()`` returns at the
        first read of ``summands``."""
        term = cls.__new__(cls)
        term.paulis, term._form = paulis, form
        term._describe(curves, shape, derivative_budget)
        return term

    @cached_property
    def summands(self) -> list:
        """(A_j, f_j) per distinct curve, formed at the first read."""
        return list(zip(self._form(), self.curves))

    @classmethod
    def from_paulis(cls, n_qubits: int, strings, derivative_budget: int | None = None):
        """sum_k c_k P_k f_k(t) from (c_k, sites of P_k, f_k) triples: the
        strings sharing one curve object make one summand.  Every string is
        checked here; the summand's matrix, which ``linalg.pauli_sum``
        scatters from its strings, is formed at the first read of
        ``summands``."""
        groups: dict[int, tuple] = {}
        for coef, sites, curve in strings:
            groups.setdefault(id(curve), (curve, []))[1].append((coef, sites))
        paulis = [group for _, group in groups.values()]
        for group in paulis:
            for _coef, sites in group:
                check_pauli_string(sites, n_qubits)
        dim = 2**n_qubits
        return cls._deferred(lambda: [pauli_sum(group, n_qubits) for group in paulis],
                             [curve for curve, _ in groups.values()], (dim, dim), paulis,
                             derivative_budget)

    @cached_property
    def is_hermitian(self) -> bool:
        """Every summand matrix exactly equals its conjugate transpose (for
        Pauli strings: every coefficient is real); the curves are real, so
        every value and derivative is then Hermitian."""
        if self.paulis is not None:
            return all(complex(c).imag == 0 for group in self.paulis for c, _ in group)
        return all(np.array_equal(m, m.conj().swapaxes(-1, -2)) for m, _ in self.summands)

    @cached_property
    def is_real(self) -> bool:
        """Every summand matrix is real in the computational basis: the term
        has Pauli strings, every coefficient is real and every string has an
        even number of Y factors (Y is i times a real matrix).  A term given
        as matrices is not read as real."""
        if self.paulis is None:
            return False
        return all(complex(c).imag == 0 and [label for _, label in sites].count("Y") % 2 == 0
                   for group in self.paulis for c, sites in group)

    @cached_property
    def is_zero(self) -> bool:
        """Every summand matrix is zero (for Pauli strings: every distinct
        string's summed coefficient is 0, see ``sectors.merged_strings``)."""
        if self.paulis is not None:
            return not any(merged_strings(group) for group in self.paulis)
        return all(not np.any(m) for m, _ in self.summands)

    def value(self, tau: float, q: int = 0) -> np.ndarray:
        return self.values([tau], q)[0]

    def values(self, taus, q: int = 0) -> np.ndarray:
        """sum_j A_j f_j^(q)(tau) at every tau of a 1-D batch, as a
        (len(taus), ..., dim, dim) stack."""
        taus = np.asarray(taus, dtype=float)
        out = np.zeros((len(taus), *self.shape), dtype=np.complex128)
        for mat, curve in self.summands:
            coeffs = np.array([curve.eval(tau, q) for tau in taus])
            out += mat * coeffs.reshape(-1, *[1] * mat.ndim)
        return out

    def scaled(self, factor: complex) -> OperatorCurve:
        """factor times the term: its matrices are factor A_j, from this
        term's A_j, formed at the first read."""
        paulis = None if self.paulis is None else [
            [(factor * c, s) for c, s in group] for group in self.paulis]
        return OperatorCurve._deferred(lambda: [factor * m for m, _ in self.summands],
                                       self.curves, self.shape, paulis, self.derivative_budget)

    def extended(self, t_end: float, order: int) -> OperatorCurve:
        """Periodic C^(order+2) extension of every scalar summand beyond
        [0, t_end], sharing this term's matrices.  Each summand has its own
        curve, so the symmetries ``sectors`` finds in the summands survive."""
        return OperatorCurve._deferred(lambda: [m for m, _ in self.summands],
                                       [extrapolate_scalar(c, t_end, order) for c in self.curves],
                                       self.shape, self.paulis)


class Hamiltonian:
    """Ordered list of OperatorCurve terms (gamma = 1..n_terms) sharing one
    Hilbert-space dimension."""

    def __init__(self, terms):
        self.terms = list(terms)
        if not self.terms:
            raise InvalidInputError("a Hamiltonian needs at least one term")
        dims = {t.dim for t in self.terms}
        if len(dims) > 1:
            raise InvalidInputError(f"term dimensions disagree: {sorted(dims)}")
        self.dim = dims.pop()
        self._evolutions: dict[tuple, np.ndarray] = {}

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @cached_property
    def sectors(self) -> Sectors:
        """The terms as blocks of the joint sectors of their symmetries (see
        ``sectors.py``), found and projected at the first bound walk that
        asks.  Below ``sectors.MIN_DIM``, when a term has no Pauli strings,
        or when no symmetry holds, the one sector is the whole space and its
        terms are this model's own."""
        if self.dim < MIN_DIM or any(t.paulis is None for t in self.terms):
            return Sectors(self.terms, [self.dim])
        return project(self.terms)

    def term(self, gamma: int) -> OperatorCurve:
        """1-based term lookup."""
        if not 1 <= gamma <= self.n_terms:
            raise InvalidInputError(f"term index {gamma} out of 1..{self.n_terms}")
        return self.terms[gamma - 1]

    def total_curve(self) -> OperatorCurve:
        return OperatorCurve((s for t in self.terms for s in t.summands), dim=self.dim)

    def exact_evolution(self, t0: float, t: float, tol: float = 1e-12) -> np.ndarray:
        """The oracle U(t, t0), ``propagator.evolve`` of ``total_curve`` at
        ``tol``, computed once per (t0, t, tol) and shared, read-only, by
        every later call.  Two threads asking for the same U at once may
        each compute it; the results are bit-equal, so either one is kept."""
        key = (t0, t, tol)
        if key not in self._evolutions:
            u = evolve(self.total_curve(), t0, t, tol=tol)
            u.flags.writeable = False
            self._evolutions[key] = u
        return self._evolutions[key]

    def scaled(self, factor: complex) -> Hamiltonian:
        return Hamiltonian([t.scaled(factor) for t in self.terms])

    def extended(self, t_end: float, order: int) -> Hamiltonian:
        return Hamiltonian([t.extended(t_end, order) for t in self.terms])


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
                   boundary: str = "open") -> Hamiltonian:
    """The chain of ``build_driven_chain`` with no field."""
    return build_driven_chain(n_sites, bond_curves, None, bond_paulis, boundary=boundary)


def build_driven_chain(n_sites: int, bond_curve, field_curve: ScalarCurve | None = None,
                       bond_paulis=("X", "X"), field_pauli: str = "Z",
                       boundary: str = "open") -> Hamiltonian:
    """Odd/even bond split of sum_i h_{i,i+1}(t) into two terms, with
    optional driven on-site fields folded into the second term.

    Bond i couples sites (i, i+1) (0-based); bonds with even index go to term
    1, odd index to term 2.  The bonds inside a term act on disjoint site
    pairs, so they commute, except on an odd periodic chain: there the
    closing bond (N-1, 0) has even index N-1 and shares site 0 with bond
    (0, 1) in term 1, and the two commute only when the bond's two Paulis
    are equal (XX, not YZ).  Unequal ``bond_paulis`` on an odd periodic
    chain are therefore refused.  That shared site is also why an odd
    periodic chain has no translation symmetry: no shift maps term 1 onto
    itself.  ``bond_curve`` is one ScalarCurve shared by all bonds or a
    list with one curve per bond.  With n_sites = 2 the second term is the
    field alone, which is the smallest model whose two terms fail to
    commute.
    """
    if n_sites < 2:
        raise InvalidInputError("chain needs at least 2 sites")
    if n_sites > QUBIT_CAP:  # before a list of N bonds, whatever N a config gives
        raise InvalidInputError(f"n_sites={n_sites} exceeds the qubit cap {QUBIT_CAP}")
    if boundary == "periodic" and n_sites % 2 and bond_paulis[0] != bond_paulis[1]:
        raise InvalidInputError(
            f"bond_paulis {''.join(bond_paulis)} on a periodic chain of odd N = {n_sites} "
            f"put the anticommuting bonds ({n_sites - 1}, 0) and (0, 1) into one term; "
            "use equal Paulis or an even N")
    bonds = _chain_bonds(n_sites, boundary)
    curves = [bond_curve] * len(bonds) if isinstance(bond_curve, ScalarCurve) else bond_curve
    if len(curves) != len(bonds):
        raise InvalidInputError(f"need {len(bonds)} bond curves, got {len(curves)}")
    strings = [[(1.0, [(i, bond_paulis[0]), (j, bond_paulis[1])], curve)
                for (i, j), curve in zip(bonds[parity::2], curves[parity::2])]
               for parity in (0, 1)]
    if field_curve is not None:
        strings[1] += [(1.0, [(i, field_pauli)], field_curve) for i in range(n_sites)]
    return Hamiltonian([OperatorCurve.from_paulis(n_sites, s) for s in strings])


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


def _pair_magnitude(coupling: float, distance: int, nu: float) -> float:
    """coupling / distance^nu.  A power past the float range (a large
    positive nu) gives 0.0, the magnitude it underflows to; a power that
    underflows to 0.0 (a large negative nu), or a quotient past the float
    range, is a numerical blow-up."""
    if nu == 0 or coupling == 0:
        return coupling
    try:
        power = float(distance) ** nu
    except OverflowError:
        power = math.inf
    mag = coupling / power if power else math.inf
    if not math.isfinite(mag):
        raise NumericalBlowUpError(
            f"pair coupling {coupling:g} / {distance}^{nu:g} overflows")
    return mag


def build_long_range(n_sites: int, nu: float, pair_curves: dict,
                     site_curves: dict | None = None, coupling: float = 1.0) -> Hamiltonian:
    """1-D 2-local long-range model: the pair (i, j) of stage gamma' in
    channel ab is the string a_i b_j with coefficient coupling / |i-j|^nu and
    the channel's curve.  One term per (stage, channel), in that order, each
    listing its stage's pairs in ``_stage_pairs`` order: n_channels *
    ceil(log2 N) pair terms, then one single-site term when fields are
    present, holding every site of each field in X, Y, Z order."""
    if n_sites < 2:
        raise InvalidInputError("long-range model needs at least 2 sites")
    if n_sites > QUBIT_CAP:  # before the list of all N(N-1)/2 pairs
        raise InvalidInputError(f"n_sites={n_sites} exceeds the qubit cap {QUBIT_CAP}")
    channels = _canonical_channels(pair_curves)
    stages = _stage_pairs(n_sites)
    strings = [[(_pair_magnitude(coupling, j - i, nu), [(i, ch[0]), (j, ch[1])], pair_curves[ch])
                for i, j in stages[gamma_p]]
               for gamma_p in sorted(stages) for ch in channels]
    if site_curves:
        strings.append([(1.0, [(i, sigma)], site_curves[sigma])
                        for sigma in sorted(site_curves, key=_PAULI_ORDER.index)
                        for i in range(n_sites)])
    return Hamiltonian([OperatorCurve.from_paulis(n_sites, s) for s in strings])


# ---------------------------------------------------------------------------
# JSON model descriptors
# ---------------------------------------------------------------------------

def model_from_descriptor(desc: dict, field: str = "model") -> Hamiltonian:
    """Build a model from its JSON descriptor; ``field`` is the config path
    that schema errors name."""
    if not isinstance(desc, dict):
        raise SchemaError(field, "expected a model descriptor object")
    kind = one_of(desc.get("model"), f"{field}.model", ("custom", "nn-chain", "long-range"))
    n = integer(required(desc, "N", field), f"{field}.N", 1 if kind == "custom" else 2)
    if n > QUBIT_CAP:  # before any list or array sized by N
        raise SchemaError(f"{field}.N", f"N={n} exceeds the qubit cap {QUBIT_CAP}")
    if kind == "custom":
        return _custom_from_descriptor(desc, field, n)
    if kind == "nn-chain":
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
            return build_driven_chain(n, bond, field_curve, paulis, field_pauli, boundary)
        except InvalidInputError as exc:
            raise SchemaError(field, str(exc)) from exc
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
    try:
        return build_long_range(n, nu, pair_curves, site_curves, coupling)
    except NumericalBlowUpError:
        raise
    except InvalidInputError as exc:
        raise SchemaError(field, str(exc)) from exc


def _custom_from_descriptor(desc: dict, field: str, n: int) -> Hamiltonian:
    raw_terms = required(desc, "terms", field, list)
    if not raw_terms:
        raise SchemaError(f"{field}.terms", "expected a non-empty list")
    budget = desc.get("derivative_budget")
    if budget is not None:
        integer(budget, f"{field}.derivative_budget", 0)
    seen: dict[int, OperatorCurve] = {}
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
            seen[gamma] = OperatorCurve.from_paulis(n, [(1.0, sites, curve)], budget)
        except InvalidInputError as exc:
            raise SchemaError(f"{term_field}.paulis", str(exc)) from exc
    labels = sorted(seen)
    if labels != list(range(1, len(labels) + 1)):
        raise SchemaError(f"{field}.terms",
                          f"gamma labels must be 1..{len(labels)}, got {labels}")
    return Hamiltonian([seen[g] for g in labels])
