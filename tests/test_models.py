import json
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest

import tdpf.models as models
from conftest import driven_chain
from tdpf.curves import ConstantCurve, PolynomialCurve, TrigCurve
from tdpf.errors import InvalidInputError, SchemaError
from tdpf.linalg import PAULI, pauli_sum, spectral_norm
from tdpf.propagator import evolve
from tdpf.cli import _model_from_config
from tdpf.models import (Hamiltonian, OperatorCurve, _stage_pairs, build_long_range,
                         build_nn_chain, model_from_descriptor)

X, Z, I2 = PAULI["X"], PAULI["Z"], PAULI["I"]


def string_counts(ham):
    """The number of Pauli strings (local gates) in each term."""
    return [sum(len(strings) for strings in term.paulis) for term in ham.terms]


def chain_bonds(n, boundary="open"):
    """The chain's bonds (i, i+1), in bond-index order."""
    return [(i, (i + 1) % n) for i in range(n if boundary == "periodic" else n - 1)]


def pairs_of(term):
    """The (i, j) site pairs of a term's 2-local strings, in order."""
    return [(i, j) for strings in term.paulis for _c, ((i, _a), (j, _b)) in strings]


class TestOperatorCurve:
    def test_linearity_split_merge(self):
        f = TrigCurve(0.5, 1.7)
        g = PolynomialCurve([1.0, 2.0])
        merged = OperatorCurve([(X, f), (X, g), (Z, f)])
        for tau in (0.0, 0.4, 1.3):
            for q in (0, 1, 2):
                expected = X * (f.eval(tau, q) + g.eval(tau, q)) + Z * f.eval(tau, q)
                assert np.allclose(merged.value(tau, q), expected, atol=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(InvalidInputError):
            OperatorCurve([(X, ConstantCurve(1.0)), (np.eye(4), ConstantCurve(1.0))])

    def test_empty_needs_dim(self):
        with pytest.raises(InvalidInputError):
            OperatorCurve([])
        zero = OperatorCurve([], dim=4)
        assert zero.is_zero and zero.value(0.3).shape == (4, 4)

    def test_budget_is_minimum(self):
        a = TrigCurve(1.0, 1.0, derivative_budget=5)
        b = ConstantCurve(1.0, derivative_budget=9)
        assert OperatorCurve([(X, a), (Z, b)]).derivative_budget == 5

    def test_values_match_value(self):
        # both against the literal sum, since value is values at one tau
        curve = OperatorCurve([(X, TrigCurve(0.5, 1.7)), (1j * Z, PolynomialCurve([1.0, 2.0]))])
        taus = np.array([0.0, 0.4, 1.3])
        for q in (0, 1, 2):
            stack = curve.values(taus, q)
            assert stack.shape == (3, 2, 2)
            for tau, got in zip(taus, stack):
                literal = sum(mat * c.eval(tau, q) for mat, c in curve.summands)
                np.testing.assert_array_equal(got, literal)
                np.testing.assert_array_equal(curve.value(tau, q), literal)

    def test_is_hermitian_from_matrices(self):
        assert OperatorCurve([(X, ConstantCurve(1.0)), (Z, TrigCurve(1.0, 1.0))]).is_hermitian
        assert OperatorCurve([], dim=2).is_hermitian
        assert not OperatorCurve([(1j * Z, ConstantCurve(1.0))]).is_hermitian
        assert not OperatorCurve([(X, ConstantCurve(1.0))]).scaled(1 - 0.1j).is_hermitian

    def test_is_real_from_strings(self):
        f = TrigCurve(0.5, 1.7)
        xx_yy = OperatorCurve.from_paulis(3, [(1.0, [(0, "X"), (1, "X")], f),
                                              (-0.5, [(1, "Y"), (2, "Y")], f)])
        assert xx_yy.is_real and xx_yy.scaled(2.0).is_real
        assert all(term.summands[0][0].imag.any() == (not term.is_real) for term in (
            xx_yy, OperatorCurve.from_paulis(2, [(1.0, [(0, "X"), (1, "Y")], f)])))
        assert not xx_yy.scaled(1 - 0.1j).is_real
        assert not OperatorCurve.from_paulis(2, [(1j, [(0, "Z")], f)]).is_real
        # a term given as matrices is never read as real, even a real one
        assert not OperatorCurve([(X, f)]).is_real

    def test_summands_may_be_stacks(self):
        # a term's sector blocks: one (S, m, m) stack per curve, dim from the last axis
        f, g = TrigCurve(0.5, 1.7), PolynomialCurve([1.0, 2.0])
        a = np.stack([X, Z, np.zeros((2, 2))])
        b = np.stack([Z, 1j * X, X])
        curve = OperatorCurve([(a, f), (b, g)])
        assert curve.dim == 2 and curve.shape == (3, 2, 2) and not curve.is_zero
        taus = np.array([0.0, 0.4, 1.3])
        stack = curve.values(taus, 1)
        assert stack.shape == (3, 3, 2, 2)
        for tau, got in zip(taus, stack):
            np.testing.assert_array_equal(got, a * f.eval(tau, 1) + b * g.eval(tau, 1))
            np.testing.assert_array_equal(curve.value(tau, 1), got)
        assert OperatorCurve([(a, f)]).is_hermitian
        assert not curve.is_hermitian  # i X in one block
        assert OperatorCurve([(np.zeros((3, 2, 2)), f)]).is_zero
        with pytest.raises(InvalidInputError):
            OperatorCurve([(a, f), (X, g)])

    def test_extended_shares_extension_of_shared_curve(self):
        f, g = TrigCurve(0.5, 1.7), PolynomialCurve([1.0, 2.0])
        ext = OperatorCurve([(X, f), (Z, g), (1j * X, f)]).extended(0.3, 1)
        (xs, fx), (zs, gz) = ext.summands  # one extension per curve
        np.testing.assert_array_equal(xs, X + 1j * X)
        np.testing.assert_array_equal(zs, Z)
        assert fx is not gz and fx.eval(0.1) == f.eval(0.1) and gz.eval(0.1) == g.eval(0.1)

    def test_summands_sharing_a_curve_are_summed(self):
        f, g = TrigCurve(0.5, 1.7), PolynomialCurve([1.0, 2.0])
        a, b = X.copy(), X.copy()
        gen = ((m, c) for m, c in [(a, f), (Z, g), (b, f), (1j * Z, g)])
        curve = OperatorCurve(gen)
        assert [c for _, c in curve.summands] == [f, g]
        np.testing.assert_array_equal(curve.summands[0][0], 2 * X)
        np.testing.assert_array_equal(curve.summands[1][0], Z + 1j * Z)
        np.testing.assert_array_equal(a, X)  # the caller's array is never added into
        with pytest.raises(InvalidInputError):
            OperatorCurve((m, f) for m in (X, X, np.eye(4)))

    def test_scaled(self):
        oc = OperatorCurve([(X, ConstantCurve(2.0))])
        assert np.allclose(oc.scaled(1 - 0.1j).value(0.0), (1 - 0.1j) * 2.0 * X)
        assert oc.paulis is None and oc.scaled(2.0).paulis is None


class TestFromPaulis:
    def test_one_summand_per_curve_in_order_of_first_appearance(self):
        f, g = TrigCurve(0.5, 1.7), ConstantCurve(0.3)
        term = OperatorCurve.from_paulis(3, [(0.5, [(0, "X"), (1, "X")], f),
                                             (2.0, [(2, "Z")], g),
                                             (-1.5, [(1, "Y"), (2, "Y")], f)])
        assert [c for _, c in term.summands] == [f, g]
        assert term.paulis == [[(0.5, [(0, "X"), (1, "X")]), (-1.5, [(1, "Y"), (2, "Y")])],
                               [(2.0, [(2, "Z")])]]
        want_f = (0.5 * pauli_sum([(1.0, [(0, "X"), (1, "X")])], 3)
                  - 1.5 * pauli_sum([(1.0, [(1, "Y"), (2, "Y")])], 3))
        np.testing.assert_array_equal(term.summands[0][0], want_f)
        np.testing.assert_array_equal(term.summands[1][0],
                                      2.0 * pauli_sum([(1.0, [(2, "Z")])], 3))
        assert term.is_hermitian and term.dim == 8

    def test_no_strings_is_a_zero_term_of_explicit_dim(self):
        zero = OperatorCurve.from_paulis(3, [])
        assert zero.is_zero and zero.dim == 8 and zero.shape == (8, 8)
        assert zero.summands == [] and zero.paulis == []
        ham = driven_chain(6, "periodic")
        with_zero = Hamiltonian(list(ham.terms) + [OperatorCurve.from_paulis(6, [])])
        assert with_zero.sectors.count == ham.sectors.count == 6

    def test_scaled_and_extended_carry_the_strings(self):
        term = driven_chain(5, "periodic").terms[1]
        scaled = term.scaled(1 - 0.1j)
        assert scaled.paulis == [[((1 - 0.1j) * c, s) for c, s in group]
                                 for group in term.paulis]
        assert term.extended(0.3, 1).paulis is term.paulis

    def test_derivative_budget(self):
        term = OperatorCurve.from_paulis(1, [(1.0, [(0, "X")], TrigCurve(1.0, 1.0))], 3)
        assert term.derivative_budget == 3


TRIG = {"kind": "trig", "amp": 0.3, "omega": 2.0, "offset": 1.0}
FIELD = {"kind": "trig", "amp": 0.8, "omega": 3.1}


def long_range(n):
    return model_from_descriptor({"model": "long-range", "N": n, "nu": 1.5,
                                  "pair_curves": {"XX": TRIG, "ZZ": {"kind": "constant",
                                                                     "value": 0.7}},
                                  "site_curves": {"Z": FIELD}})


def cancelling():
    """Term 1's repeated string cancels exactly: X0 - X0 = 0."""
    f, g = TrigCurve(0.5, 1.7), ConstantCurve(0.3)
    return Hamiltonian([OperatorCurve.from_paulis(2, [(1.0, [(0, "X")], f),
                                                      (0.5, [(1, "Z")], g),
                                                      (-1.0, [(0, "X")], f),
                                                      (-0.5, [(1, "Z")], g)]),
                        OperatorCurve.from_paulis(2, [(1.0, [(0, "Z"), (1, "Y")], f)])])


# Every kind of built model, each built afresh so that no matrix is formed yet.
BUILT_MODELS = {
    **{f"{boundary}{n}": (lambda n=n, b=boundary: driven_chain(n, b))
       for boundary in ("open", "periodic") for n in range(2, 9)},
    "open2-no-field": lambda: build_nn_chain(2, ConstantCurve(1.0)),  # term 2 has no string
    "long-range6": lambda: long_range(6),
    "long-range9": lambda: long_range(9),
    "custom3": lambda: model_from_descriptor({"model": "custom", "N": 3, "terms": [
        {"gamma": 1, "paulis": [[0, "X"], [2, "Y"]], "curve": TRIG},
        {"gamma": 2, "paulis": [[1, "Z"]], "curve": FIELD},
        {"gamma": 3, "paulis": [], "curve": {"kind": "constant", "value": 0.4}}]}),
    "cancelling": cancelling,
}


class TestDeferredMatrices:
    """A built term forms its matrices at the first read of ``summands``,
    bit-equal to the ``pauli_sum`` of each curve's strings."""

    @pytest.mark.parametrize("name", BUILT_MODELS)
    def test_summands_are_the_pauli_sums_per_curve(self, name):
        ham = BUILT_MODELS[name]()
        n = ham.dim.bit_length() - 1
        for term in ham.terms:
            factor = 1 - 0.1j
            scaled, extended = term.scaled(factor), term.extended(0.3, 3)
            want = [pauli_sum(group, n) for group in term.paulis]
            for copy, scale in ((scaled, factor), (term, None), (extended, None)):
                assert len(copy.summands) == len(want) == len(copy.curves)
                assert [c for _, c in copy.summands] == copy.curves
                for (mat, _), sums in zip(copy.summands, want):
                    np.testing.assert_array_equal(mat, sums if scale is None else scale * sums)
            assert [c for _, c in term.summands] == term.curves
            # the extension shares the term's matrices under its own curves
            assert all(a is b for (a, _), (b, _) in zip(extended.summands, term.summands))
            assert term.shape == scaled.shape == extended.shape == (ham.dim, ham.dim)

    @pytest.mark.parametrize("name", BUILT_MODELS)
    def test_is_zero_is_read_from_the_strings(self, name, monkeypatch):
        ham = BUILT_MODELS[name]()
        copies = [c for t in ham.terms for c in (t, t.scaled(1 - 0.1j), t.extended(0.3, 3))]
        formed = []
        real = models.pauli_sum
        monkeypatch.setattr(models, "pauli_sum", lambda *a: formed.append(a) or real(*a))
        zeros = [c.is_zero for c in copies]
        assert formed == []
        assert zeros == [all(not np.any(m) for m, _ in c.summands) for c in copies]
        if name in ("open2-no-field", "cancelling"):
            assert zeros[:3] == [name == "cancelling"] * 3
            assert zeros[3:] == [name == "open2-no-field"] * 3

    def test_a_value_forms_each_summand_once(self, monkeypatch):
        formed = []
        real = models.pauli_sum
        monkeypatch.setattr(models, "pauli_sum", lambda group, n: formed.append(group)
                            or real(group, n))
        term = driven_chain(4).terms[1]  # two curves: the bond and the field
        assert formed == []
        first = term.value(0.2)
        assert [id(g) for g in formed] == [id(g) for g in term.paulis]
        np.testing.assert_array_equal(term.value(0.2), first)
        term.values([0.1, 0.3], 1)
        term.scaled(2.0).value(0.2)
        assert len(formed) == 2


class TestNnChain:
    def test_bond_split_n4(self):
        ham = build_nn_chain(4, ConstantCurve(1.0))
        # 1-indexed bonds {1-2, 3-4} in term 1 and {2-3} in term 2
        h1_expected = (pauli_sum([(1.0, [(0, "X"), (1, "X")])], 4)
                       + pauli_sum([(1.0, [(2, "X"), (3, "X")])], 4))
        h2_expected = pauli_sum([(1.0, [(1, "X"), (2, "X")])], 4)
        assert np.allclose(ham.term(1).value(0.0), h1_expected)
        assert np.allclose(ham.term(2).value(0.0), h2_expected)

    def test_n2_even_term_is_zero(self):
        ham = build_nn_chain(2, ConstantCurve(1.0))
        assert ham.term(2).is_zero
        assert spectral_norm(ham.term(2).value(0.1)) == 0.0

    def test_total_is_sum_of_bonds(self):
        ham = build_nn_chain(4, ConstantCurve(0.7))
        direct = sum(0.7 * pauli_sum([(1.0, [(i, "X"), (i + 1, "X")])], 4)
                     for i in range(3))
        assert np.allclose(ham.total_curve().value(0.0), direct, atol=1e-14)

    def test_cap(self):
        with pytest.raises(InvalidInputError):
            build_nn_chain(13, ConstantCurve(1.0))

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_ring_refuses_unequal_bond_paulis(self, n):
        # with (Y, Z), bonds (n-1, 0) and (0, 1) of term 1 anticommute on site 0
        with pytest.raises(InvalidInputError, match="bond_paulis"):
            build_nn_chain(n, ConstantCurve(1.0), ("Y", "Z"), boundary="periodic")

    @pytest.mark.parametrize("n,paulis,boundary", [
        (5, ("X", "X"), "periodic"), (7, ("Z", "Z"), "periodic"),
        (6, ("Y", "Z"), "periodic"), (5, ("Y", "Z"), "open")])
    def test_terms_commute_internally(self, n, paulis, boundary):
        ham = build_nn_chain(n, ConstantCurve(1.0), paulis, boundary=boundary)
        bonds = chain_bonds(n, boundary)
        for parity, term in enumerate(ham.terms):
            (strings,) = term.paulis
            assert strings == [(1.0, [(i, paulis[0]), (j, paulis[1])])
                               for i, j in bonds[parity::2]]
            pieces = [c * pauli_sum([(1.0, sites)], n) for c, sites in strings]
            for a, b in zip(pieces, pieces[1:] + pieces[:1]):
                assert not np.any(a @ b - b @ a)
            ((total, _),) = term.summands
            np.testing.assert_array_equal(total, sum(pieces))

    def test_odd_ring_with_equal_paulis_keeps_its_split(self):
        # the alpha-large benchmark's N = 7 periodic XX chain
        ham = driven_chain(7, "periodic")
        assert string_counts(ham) == [4, 10]

    def test_periodic_boundary(self):
        ham = build_nn_chain(4, ConstantCurve(1.0), boundary="periodic")
        assert pairs_of(ham.term(1)) == [(0, 1), (2, 3)]
        assert pairs_of(ham.term(2)) == [(1, 2), (3, 0)]
        wrap = pauli_sum([(1.0, [(3, "X"), (0, "X")])], 4)
        assert np.allclose(ham.term(2).value(0.0) - wrap,
                           pauli_sum([(1.0, [(1, "X"), (2, "X")])], 4))

    def test_hermitian_at_random_times(self, rng):
        ham = driven_chain(3)
        for tau in rng.uniform(0.0, 1.0, size=50):
            for term in ham.terms:
                m = term.value(tau)
                assert spectral_norm(m - m.conj().T) <= 1e-12


ALL_CHANNELS = {a + b: ConstantCurve(1.0) for a in "XYZ" for b in "XYZ"}


class TestLongRange:
    def test_term_count_n4(self):
        ham = build_long_range(4, 2.0, ALL_CHANNELS, {"Z": ConstantCurve(0.5)})
        assert ham.n_terms == 9 * 2 + 1  # 9 ceil(log2 4) + 1

    def test_stage_structure_n4(self):
        ham = build_long_range(4, 1.0, {"XX": ConstantCurve(1.0)})
        # one channel: term gamma' holds stage gamma'; stage 1: one pair of
        # adjacent blocks of size 2
        assert sorted(pairs_of(ham.term(1))) == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert sorted(pairs_of(ham.term(2))) == [(0, 1), (2, 3)]

    def test_every_pair_once_n8(self):
        ham = build_long_range(8, 1.5, {"XY": ConstantCurve(1.0)})
        pairs = [pair for term in ham.terms for pair in pairs_of(term)]
        assert sorted(pairs) == [(i, j) for i in range(8) for j in range(i + 1, 8)]
        assert len(set(pairs)) == len(pairs)

    @pytest.mark.parametrize("n,nu,sites", [
        (5, 1.5, None), (6, 0.5, {"Z": TrigCurve(0.4, 1.3), "X": ConstantCurve(0.2)}),
        (8, 3.0, {"Y": ConstantCurve(0.7)})])
    def test_strings_are_the_stage_pairs(self, n, nu, sites):
        # one term per (stage, channel), channels in X, Y, Z order, each
        # holding its stage's pairs in order with coupling / |i-j|^nu and the
        # channel's curve; then one term of every site of each field
        channels = {"YZ": TrigCurve(0.5, 2.0), "XX": ConstantCurve(1.0)}
        ham = build_long_range(n, nu, channels, sites, coupling=0.9)
        stages = _stage_pairs(n)
        want = [[(0.9 / (j - i) ** nu, [(i, ch[0]), (j, ch[1])], channels[ch])
                 for i, j in stages[g]] for g in sorted(stages) for ch in ("XX", "YZ")]
        if sites:
            want.append([(1.0, [(i, s)], sites[s]) for s in ("X", "Y", "Z") if s in sites
                         for i in range(n)])
        # a term keeps its strings one group per curve, in summand order
        assert [[(c, s, curve) for group, (_m, curve) in zip(term.paulis, term.summands)
                 for c, s in group] for term in ham.terms] == want

    def test_summands_commute_within_term(self):
        ham = build_long_range(8, 1.0, {"XZ": ConstantCurve(1.0)})
        for term in ham.terms:
            (strings,) = term.paulis
            mats = [c * pauli_sum([(1.0, sites)], 8) for c, sites in strings]
            for a, b in combinations(mats, 2):
                assert np.array_equal(a @ b, b @ a)
            ((total, _),) = term.summands
            np.testing.assert_array_equal(total, sum(mats))


class TestOneSummandPerCurve:
    """Builders stream their local pieces; a term keeps one matrix per curve."""

    def test_driven_chain(self):
        ham = driven_chain(5)
        assert [len(t.summands) for t in ham.terms] == [1, 2]
        bonds = chain_bonds(5)
        assert string_counts(ham) == [len(bonds[0::2]), len(bonds[1::2]) + 5]

    def test_nn_chain_with_a_curve_per_bond(self):
        curves = [TrigCurve(0.3, 2.0, offset=k) for k in range(6)]
        ham = build_nn_chain(6, curves, boundary="periodic")
        assert [len(t.summands) for t in ham.terms] == [3, 3]
        assert [c for t in ham.terms for _, c in t.summands] == curves[0::2] + curves[1::2]
        assert string_counts(ham) == [3, 3]

    def test_long_range(self):
        site = {"Z": TrigCurve(0.4, 1.3), "X": ConstantCurve(0.2)}
        ham = build_long_range(5, 1.5, {"XX": ConstantCurve(1.0), "YZ": TrigCurve(0.5, 2.0)},
                               site)
        assert [len(t.summands) for t in ham.terms] == [1] * 6 + [2]
        stages = _stage_pairs(5)
        pairs = [len(stages[stage]) for stage in (1, 2, 3) for _ch in ("XX", "YZ")]
        assert string_counts(ham) == pairs + [len(site) * 5] == [4, 4, 4, 4, 2, 2, 10]

    def test_values_match_the_literal_sum_of_local_pieces(self):
        ham = driven_chain(6, "periodic")
        bond, field = TrigCurve(0.3, 2.0, offset=1.0), TrigCurve(0.8, 3.1)
        bonds = [pauli_sum([(1.0, [(i, "X"), (j, "X")])], 6)
                 for i, j in chain_bonds(6, "periodic")]
        zs = [pauli_sum([(1.0, [(i, "Z")])], 6) for i in range(6)]
        taus = np.array([0.0, 0.37, 1.1])
        for q in (0, 1, 2):
            for tau, got in zip(taus, ham.total_curve().values(taus, q)):
                literal = (sum(b * bond.eval(tau, q) for b in bonds)
                           + sum(z * field.eval(tau, q) for z in zs))
                assert np.abs(got - literal).max() <= 1e-15 * np.abs(literal).max()


class TestIngest:
    def test_minimal_custom(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "model": "custom", "N": 1,
            "terms": [{"gamma": 1, "paulis": [[0, "X"]],
                       "curve": {"kind": "constant", "value": 1.0}}],
        }))
        ham = _model_from_config({"model_path": str(path)})
        assert ham.dim == 2 and ham.n_terms == 1
        assert np.allclose(ham.term(1).value(0.0), X)

    def test_duplicate_gamma_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "model": "custom", "N": 1,
            "terms": [
                {"gamma": 1, "paulis": [[0, "X"]],
                 "curve": {"kind": "constant", "value": 1.0}},
                {"gamma": 1, "paulis": [[0, "Z"]],
                 "curve": {"kind": "constant", "value": 2.0}},
            ],
        }))
        with pytest.raises(SchemaError) as err:
            _model_from_config({"model_path": str(path)})
        assert "gamma" in str(err.value)

    def test_nn_chain_descriptor_matches_builder(self):
        desc = {"model": "nn-chain", "N": 4,
                "bond_curve": {"kind": "trig", "amp": 0.3, "omega": 2.0, "offset": 1.0}}
        from_desc = model_from_descriptor(desc)
        built = build_nn_chain(4, TrigCurve(0.3, 2.0, offset=1.0))
        for g in (1, 2):
            for tau in (0.0, 0.37):
                assert np.allclose(from_desc.term(g).value(tau),
                                   built.term(g).value(tau), atol=1e-15)

    def test_bad_field_diagnostic(self):
        with pytest.raises(SchemaError) as err:
            model_from_descriptor({"model": "custom", "N": 1, "terms": [
                {"gamma": 1, "paulis": [[0, "Q"]],
                 "curve": {"kind": "constant", "value": 1.0}}]})
        assert "terms[0].paulis[0]" in str(err.value)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            _model_from_config({"model_path": str(path)})

    @pytest.mark.parametrize("paulis, message", [
        ([[0, "X"], [0, "Z"]], "duplicate site 0 in Pauli string"),
        ([[0, "X"], [2, "Z"]], "site 2 out of range for 2 qubits"),
    ], ids=["duplicate-site", "site-out-of-range"])
    def test_bad_string_is_refused_at_build(self, monkeypatch, paulis, message):
        def no_matrix(*args):
            raise AssertionError("a string is checked before any matrix is formed")

        monkeypatch.setattr(models, "pauli_sum", no_matrix)
        with pytest.raises(SchemaError) as err:
            model_from_descriptor({"model": "custom", "N": 2, "terms": [
                {"gamma": 1, "paulis": paulis,
                 "curve": {"kind": "constant", "value": 1.0}}]})
        assert err.value.field == "model.terms[0].paulis"
        assert str(err.value) == f"model.terms[0].paulis: {message}"

    def test_noncontiguous_gammas(self):
        with pytest.raises(SchemaError):
            model_from_descriptor({"model": "custom", "N": 1, "terms": [
                {"gamma": 2, "paulis": [[0, "X"]],
                 "curve": {"kind": "constant", "value": 1.0}}]})


class TestHamiltonian:
    def test_scaled_drops_hermitian_flag(self, driven2):
        scaled = driven2.scaled(1 - 0.1j)
        m = scaled.term(1).value(0.2)
        # Im H = (H - H^dag) / 2i equals -0.1 x the Hermitian part
        herm = driven2.term(1).value(0.2)
        assert np.allclose((m - m.conj().T) / 2j, -0.1 * herm, atol=1e-13)

    def test_extended_matches_on_window(self, driven2):
        ext = driven2.extended(0.6, 2)
        total, ext_total = driven2.total_curve(), ext.total_curve()
        for tau in np.linspace(0.0, 0.6, 13):
            assert np.allclose(ext_total.value(tau), total.value(tau), atol=1e-14)
        assert np.allclose(ext_total.value(0.1), ext_total.value(0.1 + 1.2), atol=1e-12)

    def test_total_curve(self, driven2):
        tc = driven2.total_curve()
        for tau in (0.0, 0.5):
            by_term = driven2.term(1).value(tau) + driven2.term(2).value(tau)
            assert np.allclose(tc.value(tau), by_term, atol=1e-14)

    def test_exact_evolution_is_computed_once_per_interval_and_tolerance(self, monkeypatch):
        ham = driven_chain(3)
        want = evolve(ham.total_curve(), 0.0, 0.1, tol=1e-12)
        calls = []
        monkeypatch.setattr(models, "evolve", lambda gen, t0, t, tol: calls.append(
            (t0, t, tol)) or evolve(gen, t0, t, tol=tol))
        u = ham.exact_evolution(0.0, 0.1, 1e-12)
        np.testing.assert_array_equal(u, want)
        assert ham.exact_evolution(0.0, 0.1, 1e-12) is u and not u.flags.writeable
        ham.exact_evolution(0.0, 0.2, 1e-12)
        ham.exact_evolution(0.0, 0.1, 1e-10)
        ham.exact_evolution(0.0, 0.2, 1e-12)
        assert calls == [(0.0, 0.1, 1e-12), (0.0, 0.2, 1e-12), (0.0, 0.1, 1e-10)]

    def test_exact_evolution_from_many_threads(self):
        # threads that ask for one U at once, while its terms form their
        # matrices, all get the bit-equal U of a serial call
        times = (0.05, 0.1) * 8
        want = {t: evolve(driven_chain(3).total_curve(), 0.0, t, tol=1e-12) for t in times}
        ham = driven_chain(3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(ham.exact_evolution, 0.0, t, 1e-12) for t in times]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for t, u in zip(times, results):
            np.testing.assert_array_equal(u, want[t])
            np.testing.assert_array_equal(ham.exact_evolution(0.0, t, 1e-12), want[t])
