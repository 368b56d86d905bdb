import math

import numpy as np
import pytest

import tdpf.models as models
from conftest import driven_chain
from tdpf.errors import InvalidInputError
from tdpf.formulas import measure_error, suzuki_plan
from tdpf.models import model_from_descriptor
from tdpf.multiproduct import mpf_plan
from tdpf.resources import (asymptotic_gate_form, choose_trotter_steps, gate_count_pf,
                            loglog_slope, mpf_resources)


class TestChooseTrotterSteps:
    def test_closed_form_example(self):
        # C = 1, p = 2: r^2 >= t^3 / (eps t) ... r = ceil(sqrt(1000)) = 32
        r = choose_trotter_steps(lambda tau: tau**3, 1.0, 1e-3, power=2)
        assert r == 32

    def test_loose_target_gives_one(self):
        assert choose_trotter_steps(lambda tau: tau**2, 0.5, 10.0, power=1) == 1

    def test_minimality(self):
        bound = lambda tau: 2.7 * tau**3
        for eps in (1e-2, 1e-4, 3.3e-5):
            r = choose_trotter_steps(bound, 0.8, eps, power=2)
            assert r * bound(0.8 / r) <= eps
            if r > 1:
                assert (r - 1) * bound(0.8 / (r - 1)) > eps

    def test_halving_eps_growth(self):
        bound = lambda tau: 5.0 * tau**3
        r1 = choose_trotter_steps(bound, 1.0, 1e-3, power=2)
        r2 = choose_trotter_steps(bound, 1.0, 5e-4, power=2)
        assert r2 <= math.ceil(r1 * 2 ** (1 / 2)) + 1

    def test_bad_eps(self):
        with pytest.raises(InvalidInputError):
            choose_trotter_steps(lambda tau: tau, 1.0, 0.0, power=1)


class TestGateCounts:
    def test_gates_per_step_counts_local_exponentials(self):
        ham = driven_chain(4)
        # term 1: bonds {0-1, 2-3}; term 2: bond {1-2} + 4 field sites
        for p, per_step in ((1, 7), (2, 14)):  # p = 2 has V = 2 layers
            res = gate_count_pf(ham, 0.1, 1e-2, p, grid_points=2, refine_iters=0)
            assert res["gates_per_step"] == per_step

    def test_measured_alpha_result_fields(self):
        ham = driven_chain(3)
        res = gate_count_pf(ham, 0.2, 1e-2, 2, grid_points=3, refine_iters=4)
        assert res["r"] >= 1
        assert res["gates"] == res["r"] * res["gates_per_step"]
        # only what it computes: the model, sizes and targets are the caller's
        assert sorted(res) == ["alpha", "gates", "gates_per_step", "r"]

    def test_selected_r_reaches_target(self):
        # the bound is valid, so the chosen step count must meet eps
        ham = driven_chain(2)
        t, eps = 0.3, 1e-2
        res = gate_count_pf(ham, t, eps, 2, grid_points=5)
        err = measure_error(suzuki_plan(2, 2), ham, t, r=res["r"])
        assert err <= eps

    def test_eps_only_changes_r(self):
        ham = driven_chain(3)
        a = gate_count_pf(ham, 0.2, 1e-2, 2, grid_points=3, refine_iters=2)
        b = gate_count_pf(ham, 0.2, 5e-3, 2, grid_points=3, refine_iters=2)
        assert a["gates_per_step"] == b["gates_per_step"]
        assert b["r"] >= a["r"]
        assert b["r"] <= math.ceil(a["r"] * 2 ** (1 / 2)) + 1

    def test_analytic_long_range_needs_no_model(self):
        # the asymptotic form needs only the class and nu, so it is available
        # for sizes far over the dense-model qubit cap; decaying interactions
        # (nu >= d): the Table-form gate count
        assert asymptotic_gate_form("long-range", 2, 3.0) == "N^2 t (N t / eps)^(1/2)"

    def test_asymptotic_forms(self):
        assert asymptotic_gate_form("nn-chain", 2) == "N t (N t / eps)^(1/2)"
        # slowly decaying interactions (nu < d = 1), then decaying ones (nu >= d)
        assert asymptotic_gate_form("long-range", 2, 0.5) == "N^2.5 t (N^1.5 t / eps)^(1/2)"
        assert asymptotic_gate_form("long-range", 2, 3.0) == "N^2 t (N t / eps)^(1/2)"

    @pytest.mark.parametrize("n", [7, 8])
    def test_split_model_forms_no_dense_matrix(self, monkeypatch, n):
        # the periodic driven chain splits into sectors (2 at N = 7, 8 at N = 8):
        # building, projecting and walking it read only its strings and curves
        formed = []
        real = models.pauli_sum
        monkeypatch.setattr(models, "pauli_sum", lambda group, n_qubits: formed.append(group)
                            or real(group, n_qubits))
        ham = model_from_descriptor({
            "model": "nn-chain", "N": n, "boundary": "periodic",
            "bond_curve": {"kind": "trig", "amp": 0.3, "omega": 2.0, "offset": 1.0},
            "field_curve": {"kind": "trig", "amp": 0.8, "omega": 3.1}})
        assert ham.sectors.count > 1
        res = gate_count_pf(ham, 0.5, 1e-3, 2, 3, 0)
        assert formed == [] and res["r"] > 1
        # a read of the values forms each summand's matrix once
        for _ in range(2):
            for term in ham.terms:
                term.value(0.2)
        assert [id(g) for g in formed] == [id(g) for t in ham.terms for g in t.paulis]

    def test_unknown_model_class_rejected(self):
        from tdpf.curves import ConstantCurve
        from tdpf.models import Hamiltonian, OperatorCurve
        from tdpf.linalg import PAULI
        # terms given as matrices carry no strings, so there are no gates to count
        matrices = Hamiltonian(
            [OperatorCurve([(PAULI["X"], ConstantCurve(1.0))]),
             OperatorCurve([(PAULI["Z"], ConstantCurve(0.5))])])
        with pytest.raises(InvalidInputError, match="Pauli strings"):
            gate_count_pf(matrices, 0.2, 1e-2, 2, grid_points=3, refine_iters=2)
        with pytest.raises(InvalidInputError, match="custom"):
            asymptotic_gate_form("custom", 2)


class TestMpfResources:
    def test_single_product_no_ancillas(self):
        ham = driven_chain(2)
        res = mpf_resources(ham, 0.05, 0.5, grid_points=3)
        assert res["J"] == 1 and res["ancillas"] == 0

    def test_conditioning_enters_queries(self):
        ham = driven_chain(2)
        res = mpf_resources(ham, 0.1, 1e-4, grid_points=3)
        if res["J"] == 2:
            plan = mpf_plan(2)
            assert res["c_norm"] == pytest.approx(plan.c_norm)
            assert res["k_norm"] == 3.0
            assert res["queries"] == math.ceil(res["r"] * plan.c_norm * 3.0)

    def test_query_structure_vs_accuracy(self):
        # J grows like (1/2) log(1/eps) while the window count r stays flat;
        # all super-logarithmic query growth comes from the reported
        # sequential-k conditioning norms
        ham = driven_chain(2)
        eps_values = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        results = [mpf_resources(ham, 0.2, eps, grid_points=3) for eps in eps_values]
        logs = np.log([1.0 / e for e in eps_values])
        j_slope = np.polyfit(logs, [r["J"] for r in results], 1)[0]
        assert 0.3 <= j_slope <= 0.7
        rs = [r["r"] for r in results]
        assert max(rs) <= 2 * min(rs)
        for res in results:
            assert res["queries"] == math.ceil(res["r"] * res["c_norm"] * res["k_norm"])
        # while the plain formula's step count grows like eps^(-1/p)
        pf_rs = [gate_count_pf(ham, 0.2, eps, 2, grid_points=3, refine_iters=2)["r"]
                 for eps in eps_values]
        slope = loglog_slope([1.0 / e for e in eps_values], pf_rs)
        assert 0.35 <= slope <= 0.65
