import json

import numpy as np
import pytest

from conftest import driven_chain
from tdpf.curves import ConstantCurve, PolynomialCurve, TrigCurve
from tdpf.errors import InvalidInputError, SchemaError
from tdpf.linalg import PAULI, commutator, embed_pauli_string, spectral_norm
from tdpf.cli import _model_from_config
from tdpf.models import (OperatorCurve, build_long_range, build_nn_chain,
                         induced_norms, long_range_tables, model_from_descriptor)

X, Z, I2 = PAULI["X"], PAULI["Z"], PAULI["I"]


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

    def test_scaled(self):
        oc = OperatorCurve([(X, ConstantCurve(2.0))])
        assert np.allclose(oc.scaled(1 - 0.1j).value(0.0), (1 - 0.1j) * 2.0 * X)


class TestNnChain:
    def test_bond_split_n4(self):
        ham = build_nn_chain(4, ConstantCurve(1.0))
        # 1-indexed bonds {1-2, 3-4} in term 1 and {2-3} in term 2
        h1_expected = (embed_pauli_string([(0, "X"), (1, "X")], 4)
                       + embed_pauli_string([(2, "X"), (3, "X")], 4))
        h2_expected = embed_pauli_string([(1, "X"), (2, "X")], 4)
        assert np.allclose(ham.term(1).value(0.0), h1_expected)
        assert np.allclose(ham.term(2).value(0.0), h2_expected)

    def test_n2_even_term_is_zero(self):
        ham = build_nn_chain(2, ConstantCurve(1.0))
        assert ham.term(2).is_zero
        assert spectral_norm(ham.term(2).value(0.1)) == 0.0

    def test_total_is_sum_of_bonds(self):
        ham = build_nn_chain(4, ConstantCurve(0.7))
        direct = sum(0.7 * embed_pauli_string([(i, "X"), (i + 1, "X")], 4)
                     for i in range(3))
        assert np.allclose(ham.total_curve().value(0.0), direct, atol=1e-14)

    def test_cap(self):
        with pytest.raises(InvalidInputError):
            build_nn_chain(13, ConstantCurve(1.0))

    def test_periodic_boundary(self):
        ham = build_nn_chain(4, ConstantCurve(1.0), boundary="periodic")
        assert len(ham.metadata["bonds"]) == 4
        wrap = embed_pauli_string([(3, "X"), (0, "X")], 4)
        assert np.allclose(ham.term(2).value(0.0) - wrap,
                           embed_pauli_string([(1, "X"), (2, "X")], 4))

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
        tables = long_range_tables(4, 1.0, {"XX": ConstantCurve(1.0)})
        by_stage = {}
        for (i, j, _ch, stage, _mag, _c) in tables["pair_table"]:
            by_stage.setdefault(stage, []).append((i, j))
        # stage 1: one pair of adjacent blocks of size 2
        assert sorted(by_stage[1]) == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert sorted(by_stage[2]) == [(0, 1), (2, 3)]

    def test_every_pair_once_n8(self):
        tables = long_range_tables(8, 1.5, {"XY": ConstantCurve(1.0)})
        pairs = [(i, j) for (i, j, *_rest) in tables["pair_table"]]
        assert sorted(pairs) == [(i, j) for i in range(8) for j in range(i + 1, 8)]
        assert len(set(pairs)) == len(pairs)

    def test_summands_commute_within_term(self):
        ham = build_long_range(8, 1.0, {"XZ": ConstantCurve(1.0)}, cap=12)
        for term in ham.terms:
            mats = [m for m, _ in term.summands]
            for a_idx in range(len(mats)):
                for b_idx in range(a_idx + 1, len(mats)):
                    assert spectral_norm(commutator(mats[a_idx], mats[b_idx])) == 0.0

    def test_induced_norms_zero(self):
        tables = long_range_tables(4, 1.0, {"XX": ConstantCurve(0.0)})
        assert induced_norms(tables, 0.3) == (0.0, 0.0)

    def test_induced_norms_single_pair(self):
        tables = long_range_tables(2, 3.0, {"XX": ConstantCurve(0.5)})
        one, induced = induced_norms(tables, 0.0)
        assert one == pytest.approx(0.5)
        assert induced == pytest.approx(0.5)

    def test_induced_norms_n4_unit(self):
        # nu = 0, unit coefficients, one channel: 6 unordered pairs, row sum 3
        tables = long_range_tables(4, 0.0, {"XX": ConstantCurve(1.0)})
        one, induced = induced_norms(tables, 0.0)
        assert one == pytest.approx(6.0)
        assert induced == pytest.approx(3.0)

    def test_requires_metadata(self, driven2):
        with pytest.raises(InvalidInputError):
            induced_norms(driven2, 0.0)

    def test_induced_norm_flat_for_decaying_interactions(self):
        # nu > d = 1: per-site row sums saturate, so the fitted N-exponent
        # of |||H|||_1 stays near zero (metadata only, so N can be large)
        ns = [4, 8, 16, 32]
        vals = []
        for n in ns:
            tables = long_range_tables(n, 3.0, {"XX": ConstantCurve(1.0)})
            vals.append(induced_norms(tables, 0.0)[1])
        slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
        assert slope <= 0.1


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
