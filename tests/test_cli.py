import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tdpf.bounds as bounds
import tdpf.cli as cli
import tdpf.models as models
import tdpf.propagator as propagator
from tdpf.cli import RESOURCE_COLUMNS, main, run
from tdpf.linalg import pauli_sum
from tdpf.models import model_from_descriptor

DRIVEN2 = {
    "model": "nn-chain", "N": 2,
    "bond_curve": {"kind": "trig", "amp": 0.3, "omega": 2.0, "offset": 1.0},
    "field_curve": {"kind": "trig", "amp": 0.8, "omega": 3.1},
}

SINGLE_MODE_1Q = {
    "model": "custom", "N": 1,
    "terms": [
        {"gamma": 1, "paulis": [[0, "X"]], "curve": {"kind": "constant", "value": 1.0}},
        {"gamma": 2, "paulis": [[0, "Z"]], "curve": {"kind": "trig", "amp": 2.0,
                                                     "omega": 2.0}},
    ],
}

ONE = {"kind": "constant", "value": 1.0}

RESOURCE_CFG = {
    "model_class": "nn-chain", "N_values": [2], "t": 0.2, "eps": 1e-2, "p": 2,
    "grid_points": 3, "model_params": {"bond_curve": DRIVEN2["bond_curve"],
                                       "field_curve": DRIVEN2["field_curve"]}}


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def strict_json(path):
    """Parse a JSON file, rejecting the NaN and Infinity that strict JSON lacks."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestOrderScan:
    def test_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "orders": [1, 2],
            "times": {"min": 4e-3, "max": 4e-2, "count": 5}})
        out = tmp_path / "out"
        assert run("order-scan", cfg, str(out)) == 0
        header, rows = read_csv(out / "order_scan.csv")
        assert header == ["family", "p", "t", "error"]
        assert len(rows) == 10
        summary = json.loads((out / "order_scan_summary.json").read_text())
        assert summary["exact-segment-p1"]["slope"] == pytest.approx(2.0, abs=0.15)
        assert summary["exact-segment-p2"]["slope"] == pytest.approx(3.0, abs=0.15)

    def test_grid_spec_rows_are_plain_numbers(self, tmp_path):
        # times from a {min, max, count} grid arrive as numpy scalars and
        # must still format as parseable CSV cells
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "orders": [1],
            "times": {"min": 5e-3, "max": 2e-2, "count": 3}})
        out = tmp_path / "out"
        assert run("order-scan", cfg, str(out)) == 0
        _, rows = read_csv(out / "order_scan.csv")
        for row in rows:
            assert "np." not in row[2]
            float(row[2]), float(row[3])

    def test_both_families_and_per_order_times(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "orders": [1], "family": "both",
            "times": [1e-2, 2e-2],
            "times_by_order": {"1": [5e-3, 1e-2, 2e-2]}})
        out = tmp_path / "out"
        assert run("order-scan", cfg, str(out)) == 0
        _, rows = read_csv(out / "order_scan.csv")
        assert len(rows) == 6  # 2 families x 3 per-order times
        families = {row[0] for row in rows}
        assert families == {"exact-segment", "instantaneous"}


class TestBoundCheck:
    def test_no_violations(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "orders": [1, 2], "times": [0.02, 0.05],
            "grid_points": 65})
        out = tmp_path / "out"
        assert run("bound-check", cfg, str(out)) == 0
        header, rows = read_csv(out / "bound_check.csv")
        assert header == ["p", "t", "error", "tight_bound", "corollary_bound",
                          "violation"]
        for row in rows:
            assert row[5] == "0"
            assert float(row[2]) <= float(row[3]) <= float(row[4]) * (1 + 1e-9)

    def test_order_limit_lives_in_tight_bound(self, tmp_path, monkeypatch):
        # a tight bound that accepts p = 4 fills that row's tight_bound cell
        monkeypatch.setattr(cli, "tight_bound", cli.corollary_bound)
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "orders": [4], "times": [0.02], "grid_points": 3})
        out = tmp_path / "out"
        assert run("bound-check", cfg, str(out)) == 0
        _, rows = read_csv(out / "bound_check.csv")
        assert rows[0][3] == rows[0][4] != ""

    def test_one_oracle_per_distinct_time(self, tmp_path, monkeypatch):
        # two orders at two times: the exact U of each time serves both orders
        oracles = []
        real = models.evolve
        monkeypatch.setattr(models, "evolve", lambda gen, t0, t, tol: oracles.append(t)
                            or real(gen, t0, t, tol=tol))
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "orders": [1, 2], "times": [0.02, 0.05], "grid_points": 3})
        assert run("bound-check", cfg, str(tmp_path / "out")) == 0
        assert sorted(oracles) == [0.02, 0.05]

    def test_violation_tripwire(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "measure_error", lambda *a, **k: 1e9)
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "orders": [1], "times": [0.02]})
        out = tmp_path / "out"
        assert run("bound-check", cfg, str(out)) == 1
        _, rows = read_csv(out / "bound_check.csv")
        assert rows[0][5] == "1"


class TestHuyghebaert:
    def test_end_to_end_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "times": [0.05, 0.1, 0.15]})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("huyghebaert-check", cfg, str(out_a)) == 0
        assert run("huyghebaert-check", cfg, str(out_b)) == 0
        assert ((out_a / "huyghebaert_check.csv").read_bytes()
                == (out_b / "huyghebaert_check.csv").read_bytes())


class TestFloquetCheck:
    def test_sweep(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": SINGLE_MODE_1Q, "omega": 2.0, "t": 0.5,
            "mode_cutoff": 1, "l_values": [4, 8, 16], "orders": [1, 2]})
        out = tmp_path / "out"
        assert run("floquet-check", cfg, str(out)) == 0
        header, rows = read_csv(out / "floquet_check.csv")
        assert header[:2] == ["L", "L_keep"]
        assert [row[0] for row in rows] == ["4", "8", "16"]
        summary = json.loads((out / "floquet_summary.json").read_text())
        assert summary.pop("monotone_floor") == 1e-12
        for key, entry in summary.items():
            assert entry["monotone_decreasing"], key

    def test_monotone_flag_ignores_round_off_under_its_floor(self):
        # deviations at L >= 16 wander by a few 1e-14 around 2e-14
        wander = [1e-3, 2e-5, 2.1e-14, 4e-14, 1e-14, 3.9e-14, 2e-14]
        assert cli._monotone_decreasing(wander)
        assert not cli._monotone_decreasing(wander + [2e-14 + 1e-11])
        assert not cli._monotone_decreasing([1e-3, 1e-3 + 1e-11])


class TestMpfScan:
    def test_in_regime(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "J_values": [1, 2], "times": [0.02, 0.04],
            "grid_points": 17})
        out = tmp_path / "out"
        assert run("mpf-scan", cfg, str(out)) == 0
        header, rows = read_csv(out / "mpf_scan.csv")
        assert header[0] == "J" and len(rows) == 4
        for row in rows:
            assert row[4] == "1"  # in regime
            assert float(row[2]) <= float(row[3])
        margins = [float(row[7]) * float(row[1]) for row in rows]
        summary = json.loads((out / "mpf_summary.json").read_text())
        assert summary["alpha_global_t_max"] == max(margins)
        assert summary["cells_in_regime_globally"] == sum(m < 0.5 for m in margins)

    def test_out_of_regime_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "J_values": [2], "times": [3.0]})
        out = tmp_path / "out"
        assert run("mpf-scan", cfg, str(out)) == 4
        summary = json.loads((out / "mpf_summary.json").read_text())
        assert summary["alpha_global_t_max"] is None
        assert summary["cells_in_regime_globally"] == 0


class TestResourceTable:
    def test_pf_and_mpf_rows(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model_class": "nn-chain", "N_values": [2, 3], "t": 0.2,
            "eps": 1e-2, "p": 2, "include_mpf": True, "grid_points": 3,
            "model_params": {
                "bond_curve": DRIVEN2["bond_curve"],
                "field_curve": DRIVEN2["field_curve"]}})
        out = tmp_path / "out"
        assert run("resource-table", cfg, str(out)) == 0
        header, rows = read_csv(out / "resource_table.csv")
        assert header == RESOURCE_COLUMNS
        assert len(rows) == 4  # (pf + mpf) x 2 sizes
        assert [(r[0], r[1], r[-1]) for r in rows] == [
            ("nn-chain", n, kind) for n in ("2", "3") for kind in ("measured-alpha", "mpf")]
        summary = json.loads((out / "resource_summary.json").read_text())
        assert "gate_exponent_vs_N" in summary
        assert summary["asymptotic_form"] == "N t (N t / eps)^(1/2)"

    @pytest.mark.parametrize("model_class,params", [
        ("nn-chain", dict(RESOURCE_CFG["model_params"], bond_paulis=["Y", "Z"],
                          field_pauli="X", boundary="periodic")),
        ("long-range", {"nu": 1.5, "coupling": 0.8,
                        "pair_curves": {"ZZ": DRIVEN2["bond_curve"], "XY": ONE},
                        "site_curves": {"X": DRIVEN2["field_curve"]}}),
        ("long-range", {"nu": 0.5, "pair_curves": {"XX": ONE},
                        "site_curves": {"Z": DRIVEN2["field_curve"]}}),
    ])
    def test_models_come_from_the_descriptor(self, tmp_path, monkeypatch,
                                             model_class, params):
        seen = []
        real = cli.gate_count_pf

        def spy(ham, *args, **kwargs):
            seen.append(ham)
            return real(ham, *args, **kwargs)

        monkeypatch.setattr(cli, "gate_count_pf", spy)
        cfg = write_config(tmp_path, "cfg.json", {
            "model_class": model_class, "N_values": [4], "t": 0.2, "eps": 1e-2,
            "p": 1, "grid_points": 3, "model_params": params})
        out = tmp_path / "out"
        assert run("resource-table", cfg, str(out)) == 0
        # the class and nu come from the config, not from the built model
        _, (row,) = read_csv(out / "resource_table.csv")
        assert (row[0], row[1], row[-1]) == (model_class, "4", "measured-alpha")
        form = json.loads((out / "resource_summary.json").read_text())["asymptotic_form"]
        assert form == {None: "N t (N t / eps)^(1/1)", 1.5: "N^2 t (N t / eps)^(1/1)",
                        0.5: "N^2.5 t (N^1.5 t / eps)^(1/1)"}[params.get("nu")]
        (ham,) = seen
        expected = model_from_descriptor(dict(params, model=model_class, N=4))
        assert ham.n_terms == expected.n_terms
        for got, want in zip(ham.terms, expected.terms):
            for tau in (0.0, 0.13):
                np.testing.assert_array_equal(got.value(tau), want.value(tau))
        if model_class == "nn-chain":
            # term 1 of the periodic N = 4 ring: bonds (0, 1) and (2, 3)
            strings = [[(i, "Y"), (j, "Z")] for i, j in ((0, 1), (2, 3))]
            assert ham.term(1).paulis == [[(1.0, sites) for sites in strings]]
            yz = sum(pauli_sum([(1.0, sites)], 4) for sites in strings)
            np.testing.assert_array_equal(ham.term(1).summands[0][0], yz)

    def test_commuting_sizes_write_null_exponent(self, tmp_path):
        # constant XX bonds and no field commute, so alpha = 0 at N = 2 and 3
        cfg = write_config(tmp_path, "cfg.json", {
            "model_class": "nn-chain", "N_values": [2, 3], "t": 0.2, "eps": 1e-2,
            "p": 2, "grid_points": 3, "model_params": {"bond_curve": ONE}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # numpy's divide by zero
            assert run("resource-table", cfg, str(out)) == 0
        summary = strict_json(out / "resource_summary.json")
        assert summary["alpha_exponent_vs_N"] is None
        assert "N = [2, 3]" in summary["alpha_exponent_vs_N_null_reason"]
        assert isinstance(summary["gate_exponent_vs_N"], float)
        assert "gate_exponent_vs_N_null_reason" not in summary

    def test_refine_iters_reaches_every_maximum(self, tmp_path, monkeypatch):
        # with refine_iters 0 every maximum over tau is its grid alone: one call
        calls = []
        real = bounds.grid_max

        def spy(fn, *args, **kwargs):
            calls.append(0)
            index = len(calls) - 1

            def counted(xs):
                calls[index] += 1
                return fn(xs)

            return real(counted, *args, **kwargs)

        monkeypatch.setattr(bounds, "grid_max", spy)  # resources reaches it through bounds
        cfg = write_config(tmp_path, "cfg.json", {
            "model_class": "long-range", "N_values": [3], "t": 0.2, "eps": 1e-2,
            "p": 2, "include_mpf": True, "grid_points": 3, "refine_iters": 0,
            "model_params": {"nu": 2.0, "pair_curves": {"XX": DRIVEN2["bond_curve"]},
                             "site_curves": {"Z": DRIVEN2["field_curve"]}}})
        assert run("resource-table", cfg, str(tmp_path / "out")) == 0
        # at N = 3 the PF alpha, then the MPF rate at q = 3 and 5
        assert calls == [1] * 3

    @pytest.mark.parametrize("nu,code", [(2000, 0), (-2000, 3)])
    def test_extreme_power_law_exponent(self, tmp_path, capsys, nu, code):
        # 3^2000 is past the float range: at nu = 2000 the distance-3
        # coupling underflows to 0.0; at nu = -2000 it overflows
        cfg = write_config(tmp_path, "cfg.json", {
            "model_class": "long-range", "N_values": [4], "t": 0.2, "eps": 1e-2,
            "p": 1, "grid_points": 3,
            "model_params": {"nu": nu, "pair_curves": {"XX": DRIVEN2["bond_curve"]}}})
        assert run("resource-table", cfg, str(tmp_path / "out")) == code
        if code:
            assert "numerical blow-up" in capsys.readouterr().err
        else:
            ham = model_from_descriptor({"model": "long-range", "N": 4, "nu": nu,
                                         "pair_curves": {"XX": DRIVEN2["bond_curve"]}})
            mags = {j - i: mag for term in ham.terms for group in term.paulis
                    for mag, ((i, _a), (j, _b)) in group}
            assert mags == {1: 1.0, 2: 0.0, 3: 0.0}


class TestNonunitaryCheck:
    def test_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "scale_im": 0.1, "times": [0.05, 0.1],
            "grid_points": 17})
        out = tmp_path / "out"
        assert run("nonunitary-check", cfg, str(out)) == 0
        _, rows = read_csv(out / "nonunitary_check.csv")
        for row in rows:
            assert float(row[1]) <= float(row[2])
            assert row[3] == "0"


class TestQuadratureSummary:
    @pytest.mark.parametrize("sub, name, extra", [
        ("huyghebaert-check", "huyghebaert", {}),
        ("nonunitary-check", "nonunitary", {"grid_points": 5}),
    ])
    def test_summary_reports_the_quadrature_error(self, tmp_path, sub, name, extra):
        cfg = write_config(tmp_path, "cfg.json", {"model": DRIVEN2, "times": [0.02, 0.06],
                                                  **extra})
        out = tmp_path / "out"
        assert run(sub, cfg, str(out)) == 0
        header, rows = read_csv(out / f"{name}_check.csv")
        assert header == ["t", "error", "bound", "violation"]
        summary = strict_json(out / f"{name}_summary.json")
        assert set(summary) == {"rows", "violations", "quadrature_error_max",
                                "rows_within_quadrature_error"}
        assert 0.0 < summary["quadrature_error_max"] < 1e-8
        assert summary["rows_within_quadrature_error"] == 0

    def test_a_margin_inside_the_estimate_is_counted(self, tmp_path, monkeypatch):
        real = cli.huyghebaert_bound

        def loose(ham, t):
            rep = real(ham, t)
            return replace(rep, extra={**rep.extra, "quadrature_error": rep.value})

        monkeypatch.setattr(cli, "huyghebaert_bound", loose)
        cfg = write_config(tmp_path, "cfg.json", {"model": DRIVEN2, "times": [0.02, 0.06]})
        out = tmp_path / "out"
        assert run("huyghebaert-check", cfg, str(out)) == 0
        summary = strict_json(out / "huyghebaert_summary.json")
        assert summary["rows_within_quadrature_error"] == 2


class TestPlumbing:
    def test_missing_model_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"times": [0.1]})
        assert run("order-scan", cfg, str(tmp_path / "out")) == 2
        assert "model" in capsys.readouterr().err

    def test_model_path_must_be_a_path(self, tmp_path, capsys):
        # (an integer would even open() as a file descriptor)
        cfg = write_config(tmp_path, "cfg.json", {"model_path": ["m.json"], "times": [0.1]})
        assert run("order-scan", cfg, str(tmp_path / "out")) == 2
        assert "model_path:" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        # the second text holds an integer too long for int() to parse
        path = tmp_path / "broken.json"
        for text in ("{", '{"times": [' + "1" * 5000 + "]}"):
            path.write_text(text)
            assert run("order-scan", str(path), str(tmp_path / "out")) == 2

    def test_unknown_subcommand_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {})
        assert run("frobnicate", cfg, str(tmp_path / "out")) == 2

    def test_bad_oracle_tol_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "times": [0.05]})
        assert run("huyghebaert-check", cfg, str(tmp_path / "out"),
                   oracle_tol=1e-15) == 2

    def test_derivative_budget_exceeded_exits_2(self, tmp_path, capsys):
        # p = 2 bounds need second derivatives; the model declares only one
        model = dict(SINGLE_MODE_1Q, derivative_budget=1)
        cfg = write_config(tmp_path, "cfg.json", {
            "model": model, "orders": [2], "times": [0.01], "grid_points": 5})
        assert run("bound-check", cfg, str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "derivative budget 1" in err

    @pytest.mark.parametrize("subcommand,cfg", [
        ("order-scan", {"model": dict(DRIVEN2, N=5, boundary="periodic",
                                      bond_paulis=["Y", "Z"]),
                        "orders": [1], "times": [0.05]}),
        ("resource-table", dict(RESOURCE_CFG, N_values=[3], model_params=dict(
            RESOURCE_CFG["model_params"], boundary="periodic", bond_paulis=["Y", "Z"]))),
    ])
    def test_odd_ring_with_unequal_bond_paulis_exits_2(self, tmp_path, capsys,
                                                        subcommand, cfg):
        # bonds (N-1, 0) and (0, 1) of term 1 would anticommute on site 0
        path = write_config(tmp_path, "cfg.json", cfg)
        assert run(subcommand, path, str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "bond_paulis" in err

    @pytest.mark.parametrize("subcommand", ["order-scan", "bound-check",
                                            "huyghebaert-check", "floquet-check",
                                            "mpf-scan", "nonunitary-check"])
    def test_negative_derivative_budget_exits_2(self, tmp_path, capsys, subcommand):
        model = dict(SINGLE_MODE_1Q, derivative_budget=-1)
        cfg = write_config(tmp_path, "cfg.json", {
            "model": model, "orders": [1], "times": [0.01], "omega": 2.0})
        assert run(subcommand, cfg, str(tmp_path / "out")) == 2
        assert "model.derivative_budget" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["bound-check", "mpf-scan",
                                            "nonunitary-check", "resource-table"])
    @pytest.mark.parametrize("value", ["9", 1, 2.0, True])
    def test_bad_grid_points_exits_2(self, tmp_path, capsys, subcommand, value):
        cfg = write_config(tmp_path, "cfg.json", dict(
            RESOURCE_CFG if subcommand == "resource-table" else
            {"model": DRIVEN2, "orders": [1], "times": [0.01]}, grid_points=value))
        assert run(subcommand, cfg, str(tmp_path / "out")) == 2
        assert "grid_points" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", -1, 0.5, None])
    def test_bad_refine_iters_exits_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, "cfg.json", dict(RESOURCE_CFG, refine_iters=value))
        assert run("resource-table", cfg, str(tmp_path / "out")) == 2
        assert "refine_iters" in capsys.readouterr().err

    # pytest names a list or dict value by its position in the list, so each
    # such case here and below pins the id it was first collected under, and
    # adding or deleting a case renames no other.  A new case takes an id made
    # of its subcommand, field and the JSON of its value.
    @pytest.mark.parametrize("subcommand,field,value", [
        ("floquet-check", "t", "0.5"),
        ("floquet-check", "t", 0),
        ("floquet-check", "t", float("nan")),
        ("floquet-check", "omega", "2"),
        ("floquet-check", "omega", -2.0),
        ("floquet-check", "mode_cutoff", 1.5),
        ("floquet-check", "mode_cutoff", -1),
        pytest.param("floquet-check", "l_values", [4, "8"], id="floquet-check-l_values-value7"),
        ("floquet-check", "l_values", 4),
        pytest.param("floquet-check", "l_values", [], id="floquet-check-l_values-value9"),
        ("nonunitary-check", "p", "1"),
        ("nonunitary-check", "p", 0),
        ("nonunitary-check", "scale_im", "0.1"),
        ("nonunitary-check", "scale_im", float("inf")),
        ("nonunitary-check", "scale_im", None),
        ("mpf-scan", "p", "2"),
        ("mpf-scan", "p", True),
        pytest.param("mpf-scan", "J_values", [1, "2"], id="mpf-scan-J_values-value17"),
        pytest.param("mpf-scan", "J_values", [0], id="mpf-scan-J_values-value18"),
        ("resource-table", "t", "0.2"),
        ("resource-table", "t", -1.0),
        ("resource-table", "eps", "1e-2"),
        ("resource-table", "eps", 0),
        pytest.param("resource-table", "eps_values", [1e-2, "1e-3"],
                     id="resource-table-eps_values-value23"),
        pytest.param("resource-table", "eps_values", [1e-2, 0.0],
                     id="resource-table-eps_values-value24"),
        ("resource-table", "eps_values", 1e-2),
        ("resource-table", "p", "2"),
        ("resource-table", "p", 2.5),
        pytest.param("order-scan", "family", ["x"], id="order-scan-family-value28"),
        ("order-scan", "times_by_order", "123"),
        pytest.param("order-scan", "times", [0.0], id="order-scan-times-value30"),
        pytest.param("order-scan", "times", [0.01, -0.02], id="order-scan-times-value31"),
        pytest.param("order-scan", "times", [float("nan")], id="order-scan-times-value32"),
        pytest.param("bound-check", "times", [0.0], id="bound-check-times-value33"),
        pytest.param("huyghebaert-check", "times", [0.01, -0.01],
                     id="huyghebaert-check-times-value34"),
        ("order-scan", "oracle_tol", "abc"),
        ("order-scan", "oracle_tol", "1e-11"),
        ("resource-table", "include_mpf", "false"),
        ("resource-table", "include_mpf", 0),
        ("resource-table", "calibrate_N", "2"),
        ("resource-table", "calibrate_N", 2.0),
        ("resource-table", "bound_source", "guess"),
        pytest.param("resource-table", "model_params", [1],
                     id="resource-table-model_params-value42"),
        ("resource-table", "model_params", "x"),
        pytest.param("resource-table", "model_params", dict(RESOURCE_CFG["model_params"], N=9),
                     id="resource-table-model_params-value44"),
        ("resource-table", "calibrate_N", 13),
        ("huyghebaert-check", "TDPF_WORKERS", "abc"),
        ("huyghebaert-check", "--workers", 0),
        ("huyghebaert-check", "--oracle-tol", float("nan")),
        pytest.param("resource-table", "N_values", [4, 13], id="resource-table-N_values-value49"),
        ("resource-table", "bound_source", "analytic-scaling"),
        ("resource-table", "calibrate_N", 3),
        ("mpf-scan", "p", 4),  # the base formula is second order
    ])
    def test_bad_field_exits_2(self, tmp_path, capsys, monkeypatch, subcommand, field, value):
        base = {
            "order-scan": {"model": DRIVEN2, "orders": [1], "times": [0.01]},
            "bound-check": {"model": DRIVEN2, "orders": [1], "times": [0.01],
                            "grid_points": 3},
            "huyghebaert-check": {"model": DRIVEN2, "times": [0.01]},
            "floquet-check": {"model": SINGLE_MODE_1Q, "omega": 2.0, "t": 0.5,
                              "mode_cutoff": 1, "l_values": [4], "orders": [1]},
            "nonunitary-check": {"model": DRIVEN2, "times": [0.01], "grid_points": 5},
            "mpf-scan": {"model": DRIVEN2, "J_values": [1], "times": [0.01],
                         "grid_points": 5},
            "resource-table": RESOURCE_CFG,
        }[subcommand]
        # the last three fields come from the environment and the command line
        outside = {"TDPF_WORKERS": None, "--workers": None, "--oracle-tol": None}
        if field == "TDPF_WORKERS":
            monkeypatch.setenv(field, value)
        elif field in outside:
            outside[field] = value
        cfg = write_config(tmp_path, "cfg.json",
                           base if field in outside else dict(base, **{field: value}))
        assert run(subcommand, cfg, str(tmp_path / "out"), outside["--workers"],
                   outside["--oracle-tol"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{field}:" in err

    @pytest.mark.parametrize("subcommand,update,named", [
        pytest.param("order-scan", {"times_by_order": {"1": [0.0]}}, "times_by_order.1",
                     id="order-scan-update0-times_by_order.1"),
        pytest.param("order-scan", {"times_by_order": {"1": "abc"}}, "times_by_order.1",
                     id="order-scan-update1-times_by_order.1"),
        pytest.param("bound-check", {"times_by_order": {"1": [0.01, float("nan")]}},
                     "times_by_order.1", id="bound-check-update2-times_by_order.1"),
        pytest.param("order-scan", {"times": {"min": 0.0, "max": 0.1, "count": 3}}, "times",
                     id="order-scan-update3-times"),
        pytest.param("order-scan",
                     {"times": {"min": 0.01, "max": 0.1, "count": 3, "log": "no"}}, "times",
                     id="order-scan-update4-times"),
        pytest.param("resource-table",
                     {"model_params": dict(RESOURCE_CFG["model_params"], bond_paulis=["X", "Q"])},
                     "model_params.bond_paulis",
                     id="resource-table-update5-model_params.bond_paulis"),
        pytest.param("resource-table",
                     {"model_params": dict(RESOURCE_CFG["model_params"], field_pauli="Q")},
                     "model_params.field_pauli",
                     id="resource-table-update6-model_params.field_pauli"),
        pytest.param("resource-table",
                     {"model_class": "long-range",
                      "model_params": {"nu": "3", "pair_curves": {"XX": ONE}}},
                     "model_params.nu", id="resource-table-update7-model_params.nu"),
        pytest.param("resource-table",
                     {"model_class": "long-range", "model_params": {"pair_curves": {"XX": ONE}}},
                     "model_params.nu", id="resource-table-update8-model_params.nu"),
        pytest.param("resource-table",
                     {"model_class": "long-range",
                      "model_params": {"nu": True, "pair_curves": {"XX": ONE}}},
                     "model_params.nu", id="resource-table-update9-model_params.nu"),
        pytest.param("resource-table",
                     {"model_class": "long-range",
                      "model_params": {"nu": 3.0, "pair_curves": {"XX": ONE}, "coupling": "2"}},
                     "model_params.coupling", id="resource-table-update10-model_params.coupling"),
        pytest.param("resource-table",
                     {"model_params": dict(
                         RESOURCE_CFG["model_params"],
                         bond_curve={"kind": "trig", "amp": float("nan"), "omega": 2.0})},
                     "model_params.bond_curve.amp",
                     id="resource-table-update11-model_params.bond_curve.amp"),
        pytest.param("resource-table",
                     {"model_class": "long-range",
                      "model_params": {"nu": float("inf"), "pair_curves": {"XX": ONE}}},
                     "model_params.nu", id="resource-table-update12-model_params.nu"),
        pytest.param("bound-check",
                     {"model": dict(DRIVEN2, field_curve={"kind": "constant",
                                                          "value": float("-inf")})},
                     "model.field_curve.value",
                     id="bound-check-update13-model.field_curve.value"),
        # integers too large for a float, a bad label, booleans as integers
        pytest.param("bound-check",
                     {"model": dict(DRIVEN2, bond_curve={"kind": "trig", "amp": 10**400,
                                                         "omega": 2.0})},
                     "model.bond_curve.amp", id="bound-check-update14-model.bond_curve.amp"),
        pytest.param("bound-check",
                     {"model": dict(DRIVEN2, field_curve={"kind": "polynomial",
                                                          "coeffs": [0.5, 10**400]})},
                     "model.field_curve.coeffs",
                     id="bound-check-update15-model.field_curve.coeffs"),
        pytest.param("resource-table",
                     {"model_class": "long-range",
                      "model_params": {"nu": 2000, "pair_curves": {"XX": ONE},
                                       "coupling": 10**400}},
                     "model_params.coupling", id="resource-table-update16-model_params.coupling"),
        pytest.param("resource-table",
                     {"model_class": "long-range",
                      "model_params": {"nu": 3.0, "pair_curves": {"XX": ONE},
                                       "site_curves": {"W": ONE}}},
                     "model_params.site_curves.W",
                     id="resource-table-update17-model_params.site_curves.W"),
        pytest.param("resource-table",
                     {"model_class": "long-range",
                      "model_params": {"nu": 3.0, "pair_curves": {"XQ": ONE}}},
                     "model_params.pair_curves.XQ",
                     id="resource-table-update18-model_params.pair_curves.XQ"),
        pytest.param("bound-check",
                     {"model": dict(DRIVEN2, bond_curve=dict(DRIVEN2["bond_curve"],
                                                             derivative_budget=True))},
                     "model.bond_curve.derivative_budget",
                     id="bound-check-update19-model.bond_curve.derivative_budget"),
        pytest.param("bound-check",
                     {"model": dict(DRIVEN2, bond_curve=dict(DRIVEN2["bond_curve"],
                                                             derivative_budget=False))},
                     "model.bond_curve.derivative_budget",
                     id="bound-check-update20-model.bond_curve.derivative_budget"),
        pytest.param("resource-table",
                     {"model_params": dict(RESOURCE_CFG["model_params"], boundary="ring")},
                     "model_params.boundary", id="resource-table-update21-model_params.boundary"),
    ])
    def test_bad_nested_field_exits_2(self, tmp_path, capsys, subcommand, update, named):
        base = RESOURCE_CFG if subcommand == "resource-table" else {
            "model": DRIVEN2, "orders": [1], "times": [0.01], "grid_points": 3}
        cfg = write_config(tmp_path, "cfg.json", dict(base, **update))
        assert run(subcommand, cfg, str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{named}:" in err

    @pytest.mark.parametrize("model", [
        {"model": "nn-chain", "N": 13, "bond_curve": ONE},
        dict(DRIVEN2, N=13),
        {"model": "long-range", "N": 13, "nu": 3.0, "pair_curves": {"XX": ONE}},
        {"model": "long-range", "N": 13, "nu": 3.0, "pair_curves": {"XX": ONE},
         "site_curves": {"Z": ONE}},
        {"model": "custom", "N": 13, "terms": [{"gamma": 1, "paulis": [[0, "X"]],
                                                 "curve": ONE}]},
        {"model": "custom", "N": 13, "terms": "not a list"},
    ], ids=["nn-chain", "driven-chain", "long-range", "long-range-site-curves", "custom",
            "custom-malformed-terms"])
    def test_over_cap_exits_2_before_any_register_array(self, tmp_path, capsys, model):
        cfg = write_config(tmp_path, "cfg.json", {"model": model, "orders": [1],
                                                  "times": [0.01]})
        tracemalloc.start()
        try:
            code = run("order-scan", cfg, str(tmp_path / "out"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "qubit cap 12" in err and "model.N:" in err
        assert peak < 2**13 * 8  # less than one int64 entry per basis state of 13 qubits

    def test_bound_source_checked_before_any_model(self, tmp_path, capsys, monkeypatch):
        def no_models(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(cli, "model_from_descriptor", no_models)
        for field, value in (("bound_source", "guess"), ("bound_source", "analytic-scaling"),
                             ("calibrate_N", 3), ("N_values", [4, 13])):
            cfg = write_config(tmp_path, "cfg.json", dict(RESOURCE_CFG, **{field: value}))
            assert run("resource-table", cfg, str(tmp_path / "out")) == 2
            assert f"{field}:" in capsys.readouterr().err

    def test_unexpected_exception_exits_5(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "measure_error", boom)
        cfg = write_config(tmp_path, "cfg.json", {"model": DRIVEN2, "times": [0.05]})
        assert run("huyghebaert-check", cfg, str(tmp_path / "out")) == 5
        assert "internal error" in capsys.readouterr().err

    def test_integer_valued_float_fields_accepted(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", dict(RESOURCE_CFG, t=1, eps_values=[1]))
        assert run("resource-table", cfg, str(tmp_path / "out")) == 0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # A†A past 1e308
    def test_numerical_blow_up_exits_3(self, tmp_path, capsys):
        # finite config numbers that overflow inside the run: a curve value of
        # inf, a norm whose A†A overflows (e^500 at the oracle's midpoint), and
        # a math.exp past the float range (e^5000)
        cases = [({"amp": 1e308, "rate": 100}, 0.05, "matrix has non-finite entries"),
                 ({"amp": 1, "rate": 1e4}, 0.1, "spectral norm is not finite"),
                 ({"amp": 1, "rate": 1e5}, 0.1, "exp curve overflowed")]
        for curve, t, message in cases:
            model = {"model": "custom", "N": 1, "terms": [
                {"gamma": 1, "paulis": [[0, "X"]], "curve": dict(curve, kind="exp")},
                {"gamma": 2, "paulis": [[0, "Z"]], "curve": ONE}]}
            cfg = write_config(tmp_path, "cfg.json", {
                "model": model, "orders": [1], "times": [t], "grid_points": 3})
            assert run("bound-check", cfg, str(tmp_path / "out")) == 3
            err = capsys.readouterr().err
            assert f"numerical blow-up: {message}" in err
            assert "config error" not in err

    def test_stiff_config_fails_before_any_oracle_step(self, tmp_path, capsys, monkeypatch):
        # ||H|| = e^20 at the midpoint asks for about 1.2e7 steps, over the 2^20 cap
        steps = []
        monkeypatch.setattr(propagator, "_cf4_product", lambda *args: steps.append(args))
        model = {"model": "nn-chain", "N": 2,
                 "bond_curve": {"kind": "exp", "amp": 1, "rate": 800}}
        cfg = write_config(tmp_path, "cfg.json", {
            "model": model, "orders": [1], "times": [0.05]})
        assert run("order-scan", cfg, str(tmp_path / "out")) == 3
        assert "convergence failure" in capsys.readouterr().err
        assert steps == []

    def test_convergence_failure_exits_3(self, tmp_path, monkeypatch):
        from tdpf.errors import ConvergenceError

        def boom(*args, **kwargs):
            raise ConvergenceError("stalled", last_disagreement=1e-3)

        monkeypatch.setattr(cli, "measure_error", boom)
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "times": [0.05]})
        assert run("huyghebaert-check", cfg, str(tmp_path / "out")) == 3

    def test_manifest(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "times": [0.05]})
        out = tmp_path / "out"
        assert run("huyghebaert-check", cfg, str(out), oracle_tol=1e-11) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "huyghebaert-check"
        assert manifest["oracle_tol"] == 1e-11
        assert len(manifest["config_sha256"]) == 64

    def test_main_entry(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "model": DRIVEN2, "times": [0.05]})
        code = main(["huyghebaert-check", "--config", cfg,
                     "--out", str(tmp_path / "out"), "--workers", "2"])
        assert code == 0

    def test_shipped_configs_are_valid(self):
        config_dir = Path(__file__).resolve().parent.parent / "configs"
        files = sorted(config_dir.glob("*.json"))
        assert len(files) == 7
        for path in files:
            cfg = json.loads(path.read_text())
            if "model" in cfg:
                model_from_descriptor(cfg["model"])
            else:
                assert cfg["model_class"] in ("nn-chain", "long-range")
                for n in cfg["N_values"]:
                    model_from_descriptor(dict(cfg["model_params"],
                                               model=cfg["model_class"], N=n))

    def test_workers_match_serial(self, tmp_path, monkeypatch):
        mapped = []
        real = cli._pmap

        def spy(fn, items, workers):
            mapped.append((list(items), workers))
            return real(fn, items, workers)

        monkeypatch.setattr(cli, "_pmap", spy)
        cases = [
            ("order-scan", {"model": DRIVEN2, "orders": [1],
                            "times": [1e-2, 2e-2, 3e-2, 4e-2, 5e-2]},
             "order_scan", "order_scan_summary"),
            ("resource-table", dict(RESOURCE_CFG, N_values=[2, 3, 4], eps_values=[1e-2, 5e-3],
                                    include_mpf=True, refine_iters=2),
             "resource_table", "resource_summary"),
        ]
        for subcommand, config, csv_name, summary_name in cases:
            cfg = write_config(tmp_path, f"{subcommand}.json", config)
            out_serial, out_parallel = tmp_path / f"{subcommand}-s", tmp_path / f"{subcommand}-p"
            assert run(subcommand, cfg, str(out_serial), workers=1) == 0
            assert run(subcommand, cfg, str(out_parallel), workers=4) == 0
            for name in (f"{csv_name}.csv", f"{summary_name}.json"):
                assert (out_serial / name).read_bytes() == (out_parallel / name).read_bytes()
        assert ([2, 3, 4], 4) in mapped  # resource-table maps its sizes


COLD_START_SCRIPT = """
import json, sys
import tdpf.cli
codes = [tdpf.cli.run(sub, cfg, out) for sub, cfg, out in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def cold_start(tmp_path, runs) -> dict:
    """Exit codes of the (subcommand, config) runs in one fresh interpreter,
    and every scipy module it loaded, the top-level package included: the
    program needs numpy only."""
    args = [(sub, write_config(tmp_path, f"{sub}.json", cfg), str(tmp_path / sub))
            for sub, cfg in runs]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", COLD_START_SCRIPT, json.dumps(args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestColdStart:
    def test_subcommands_without_quadrature_never_load_scipy_subpackages(self, tmp_path):
        runs = [
            ("order-scan", {"model": DRIVEN2, "orders": [1], "times": [0.01, 0.02]}),
            ("bound-check", {"model": DRIVEN2, "orders": [1], "times": [0.01],
                             "grid_points": 3}),
            ("floquet-check", {"model": SINGLE_MODE_1Q, "omega": 2.0, "t": 0.5,
                               "mode_cutoff": 1, "l_values": [4], "orders": [1]}),
            ("mpf-scan", {"model": DRIVEN2, "J_values": [1], "times": [0.02],
                          "grid_points": 3}),
            ("resource-table", RESOURCE_CFG),
        ]
        assert cold_start(tmp_path, runs) == {"codes": [0] * len(runs), "loaded": []}

    def test_import_loads_no_hash_library(self):
        # hashlib maps OpenSSL's libcrypto; only writing a manifest needs it
        script = ("import sys; import numpy; before = set(sys.modules); import tdpf.cli; "
                  "print(sorted(m for m in set(sys.modules) - before if 'hashlib' in m))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_huyghebaert_check_loads_no_scipy_subpackage(self, tmp_path):
        runs = [("huyghebaert-check", {"model": DRIVEN2, "times": [0.02, 0.1]})]
        assert cold_start(tmp_path, runs) == {"codes": [0], "loaded": []}

    def test_nonunitary_check_loads_no_scipy_subpackage(self, tmp_path):
        # the oracle exponentiates the non-normal scaled model in-house
        runs = [("nonunitary-check", {"model": DRIVEN2, "times": [0.02], "grid_points": 3})]
        assert cold_start(tmp_path, runs) == {"codes": [0], "loaded": []}
