"""Symmetry sectors of a Hamiltonian, for the commutator walk of the bounds.

A signed permutation S maps basis state b to phase(b) |perm(b)>, with every
phase in {1, -1, i, -i}.  When S commutes with every term at every tau, it
commutes with every nested commutator and derivative the bound walk builds,
so each walk node is block-diagonal in the joint eigenspaces (sectors) of a
commuting set of such symmetries, and its spectral norm is the largest norm
of its blocks.

``find_symmetries`` tests candidates exactly on the Pauli strings of each
summand sum_k c_k P_k (``models.OperatorCurve.paulis``): only these sums
share a curve, so only they need be invariant, as a translation maps one
bond to another.  Distinct strings are linearly independent, so a chain
translation (the fewest sites that works) holds when it maps each summand's
strings, repeats merged, onto themselves with equal coefficients.  The
parity prod L (label L on every site) holds when every string has an even
number of sites with another label.  prod Z prod X = (-1)^N prod X prod Z,
so two parities commute only on an even chain, where any two give the
third: at most two are kept on an even chain, one on an odd chain.

``project`` builds each sector's orthonormal basis from orbit
representatives (Sandvik, arXiv:1101.3281): the basis vector of
representative r in the sector of character lambda is the normalised sum
over group elements g of conj(lambda(g)) g|r>, and r belongs to the sector
when its stabiliser's phases agree with lambda.  A sector is labelled by
one integer l_j < order_j per generator, lambda(g) = exp(2 pi i sum_j e_j
l_j / order_j) for g = prod_j gen_j^e_j, and a character that is a quarter
turn is exact: a parity sector, or momentum 0 or pi, has characters of
exactly +-1.  When every group phase is real, complex conjugation maps the
basis of label l onto that of -l (mod the orders), so the blocks of a real
term in the two sectors are complex conjugates, and a sector with l = -l
has real blocks (``Sectors.conjugates``).  Since A commutes with
every g, a block entry needs only entries of A in the representatives'
rows:

    B[r, r'] = sum_g conj(lambda(g)) phase_g(r') A[r, perm_g(r')] / sqrt(s_r s_r')

with s_r the size of r's stabiliser.  Row r of a string c P holds one entry,
c phase(perm(r)) in column perm(r), so ``project`` scatters each term of the
sum straight from the strings' signed permutations, and no dense row of A
is formed: ``project`` reads a term's strings, curves and Hermiticity, never
its matrices, so a built term's dense matrices stay unformed.  Blocks are
zero-padded to the largest sector and stacked, so a projected term is an
``OperatorCurve`` with one summand per summand of the term: its (sectors,
m, m) stack of blocks and its curve.  The blocks of a Hermitian term are
symmetrised, (B + B†)/2, which makes them exactly Hermitian for the walk's
Hermitian fast path.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np

from .linalg import pauli_permutation, translation_permutation

# Smallest dimension that takes the sector walk.  Measured on alpha_com of
# orders 3 and 5 at 1 and 65 taus on the open and periodic driven chains,
# sector walk against dense walk (2 cores, best of 3-21 runs): dimension 32
# runs 1.5-2.7x faster, and 16 (N = 4) 1.4-1.9x at 65 taus and 0.7-1.3x at
# one tau, where a walk takes under 6 ms; 8 is a wash (0.9-1.7x) and 4
# loses (0.57-0.93x).  The sums move by at most 7e-16 relative.
MIN_DIM = 16


class Sectors:
    """Every term of a Hamiltonian projected onto the same joint sectors, as
    operator curves of (count, size, size) block stacks; with one sector,
    the terms themselves.

    ``conjugates[k]`` is the sector that complex conjugation maps sector k
    onto (k itself for a sector of real characters), read from the labels;
    it is None when a group phase is not real, where conjugation maps no
    sector onto another.  A sector with conjugates[k] == k has real blocks
    whenever the terms are real in the computational basis."""

    def __init__(self, terms: list, sizes: list[int], conjugates=(0,)):
        self.terms = terms
        self.sizes = sizes
        self.count = len(sizes)
        self.size = max(sizes)
        self.conjugates = None if conjugates is None else list(conjugates)


# ---------------------------------------------------------------------------
# Signed permutations (perm, phase); see ``linalg.pauli_permutation``
# ---------------------------------------------------------------------------

def _compose(g, h):
    """g h as a signed permutation: (gh)|b> = phase_h(b) phase_g(perm_h b) |...>."""
    return g[0][h[0]], h[1] * g[1][h[0]]


# ---------------------------------------------------------------------------
# Detection and projection
# ---------------------------------------------------------------------------

def merged_strings(strings) -> dict:
    """sum_k c_k P_k as {frozenset of P's sites: summed coefficient}: a
    repeated string adds to its coefficient, in input order, and strings
    whose sum is 0 are dropped.  Distinct strings are linearly independent,
    so the sum is the zero operator exactly when the table is empty."""
    table = defaultdict(int)
    for coef, sites in strings:
        table[frozenset(sites)] += coef
    return {key: coef for key, coef in table.items() if coef}


def find_symmetries(paulis: list[list], n_sites: int) -> list[tuple]:
    """Mutually commuting signed permutations, each with its order, that
    commute exactly with every summand sum_k c_k P_k of ``paulis`` (one
    list of (c_k, sites of P_k) pairs per summand): [(perm, phase, order)]."""
    tables = [merged_strings(strings) for strings in paulis]

    def shifted(table, shift):
        return {frozenset(((i + shift) % n_sites, label) for i, label in key): coef
                for key, coef in table.items()}

    found = []
    for shift in range(1, n_sites):
        if n_sites % shift == 0 and all(shifted(t, shift) == t for t in tables):
            found.append((*translation_permutation(n_sites, shift), n_sites // shift))
            break
    parities = 0
    for label in "ZXY":
        if parities < 2 - n_sites % 2 and all(
                sum(other != label for _, other in key) % 2 == 0 for t in tables for key in t):
            found.append((*pauli_permutation([(i, label) for i in range(n_sites)], n_sites), 2))
            parities += 1
    return found


def _group(generators, dim: int):
    """Every element g = prod_i gen_i^e_i as (perm, phase) with its exponents."""
    elements = []
    for exps in itertools.product(*(range(order) for *_, order in generators)):
        g = (np.arange(dim), np.ones(dim, complex))
        for (perm, phase, _order), e in zip(generators, exps):
            for _ in range(e):
                g = _compose((perm, phase), g)
        elements.append((g, exps))
    return elements


def _sector_bases(generators, dim: int):
    """(perms, phases) of every group element, each (|G|, dim), and per
    non-empty sector (its label, conj(lambda(g)) over g, representatives,
    stabiliser sizes); quarter-turn characters are exact."""
    elements = _group(generators, dim)
    perms = np.array([g[0] for g, _ in elements])
    phases = np.array([g[1] for g, _ in elements])
    exps = np.array([e for _, e in elements])          # (|G|, n_generators)
    orders = np.array([order for *_, order in generators])
    period = int(np.lcm.reduce(orders))
    reps = np.flatnonzero(perms.min(axis=0) == np.arange(dim))
    stab = np.where(perms[:, reps] == reps, phases[:, reps], 0.0)   # (|G|, n_reps)
    stab_size = np.count_nonzero(stab, axis=0)
    bases = []
    for label in itertools.product(*(range(order) for order in orders)):
        turns = (exps @ (np.array(label) * (period // orders))) % period  # of 1 / period
        quarter = 4 * turns % period == 0
        conj_chars = np.where(quarter, np.array([1, -1j, -1, 1j])[4 * turns // period],
                              np.exp(-2j * np.pi * turns / period))
        member = np.abs(conj_chars @ stab) > 0.5 * stab_size   # |G_r| or 0
        if member.any():
            bases.append((label, conj_chars, reps[member], stab_size[member]))
    return perms, phases, bases


def project(terms) -> Sectors:
    """The terms, each carrying its Pauli strings, as sector blocks, or as one
    sector when they share no symmetry."""
    n_sites = terms[0].dim.bit_length() - 1
    generators = find_symmetries([p for term in terms for p in term.paulis], n_sites)
    if not generators:
        return Sectors(terms, [2**n_sites])
    perms, phases, bases = _sector_bases(generators, 2**n_sites)
    inverses = np.argsort(perms, axis=1)  # inverses[g, perm_g(b)] = b
    sizes = [len(reps) for _, _, reps, _ in bases]
    conjugates = None
    if not phases.imag.any():  # conjugation maps the label l to -l
        orders = [order for *_, order in generators]
        index = {label: k for k, (label, *_) in enumerate(bases)}
        conjugates = [index[tuple(-l % o for l, o in zip(label, orders))]
                      for label, *_ in bases]
    size = max(sizes)
    out = []
    for term in terms:
        projected = []
        for strings, curve in zip(term.paulis, term.curves):
            signed = [(coef, *pauli_permutation(sites, n_sites)) for coef, sites in strings]
            cols = np.array([perm for _, perm, _ in signed])                   # (S, dim)
            vals = np.array([coef * phase[perm] for coef, perm, phase in signed])
            blocks = np.zeros((len(bases), size, size), dtype=np.complex128)
            for k, (_label, conj_chars, reps, stab_size) in enumerate(bases):
                # B[r, r'] = sum_g conj(lambda(g)) phase_g(r') A[r, perm_g(r')] / ...
                # summed over g in order; A[r, perm_g(r')] is scattered from the
                # strings, in their order, at r' = perm_g^-1(perm_s(r)) when r'
                # is a representative
                m = len(reps)
                where = np.full(2**n_sites, -1)
                where[reps] = np.arange(m)
                rows = np.broadcast_to(np.arange(m), (len(signed), m))
                targets, entries = cols[:, reps], vals[:, reps]
                coeff = conj_chars[:, None] * phases[:, reps]            # (|G|, m)
                block = np.zeros((m, m), dtype=np.complex128)
                for inverse, c in zip(inverses, coeff):
                    at = where[inverse[targets]]
                    hit = at >= 0
                    image = np.zeros((m, m), dtype=np.complex128)
                    np.add.at(image, (rows[hit], at[hit]), entries[hit])
                    image *= c
                    block += image
                block /= np.sqrt(np.outer(stab_size, stab_size))
                if term.is_hermitian:  # in place, one block at a time
                    block += block.conj().T
                    block /= 2
                blocks[k, :m, :m] = block
            projected.append((blocks, curve))
        # the term's own class, since models imports this module
        out.append(type(term)(projected, dim=size))
    return Sectors(out, sizes, conjugates)
