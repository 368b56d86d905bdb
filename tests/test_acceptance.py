"""Acceptance suite: one test per shipped acceptance criterion, each printing
a single PASS line with the measured figures (run with -s to see them)."""

import json
import math
from itertools import product

import numpy as np

from conftest import driven_chain
from tdpf.bounds import (alpha_com, corollary_bound, huyghebaert_bound,
                         mpf_bound, nonunitary_bound, tight_bound)
from tdpf.cli import run
from tdpf.curves import ConstantCurve, TrigCurve, extrapolate_scalar
from tdpf.errors import OutOfRegimeError
from tdpf.floquet import (build_floquet_operators, build_tf, build_tf_suzuki,
                          check_translation_symmetry, floquet_space,
                          fourier_decompose, fourier_hamiltonian, reconstruct)
from tdpf.formulas import (EXACT, INSTANTANEOUS, evaluate_pf, fit_order,
                           measure_error, suzuki_plan)
from tdpf.linalg import PAULI, matrix_exp, spectral_norm
from tdpf.models import Hamiltonian, OperatorCurve
from tdpf.multiproduct import (measure_mpf_error, moment_residual, mpf_plan,
                               solve_coefficients)
from tdpf.propagator import evolve
from tdpf.resources import choose_trotter_steps

X, Z, I2 = PAULI["X"], PAULI["Z"], PAULI["I"]

ORACLE_TOL = 1e-12

# per-order t grids inside [1e-3, 5e-2], placed so errors stay in the
# trusted fit window [1e-10, 1e-2] for every chain size
T_GRIDS = {
    1: np.geomspace(1.5e-3, 1.2e-2, 5),
    2: np.geomspace(8e-3, 5e-2, 5),
    4: np.geomspace(2.4e-2, 5e-2, 5),
}
SLOPE_TOL = {1: 0.15, 2: 0.15, 4: 0.30}

_ERROR_CACHE: dict = {}


def scan_errors(n_sites: int, p: int, family: str) -> tuple[np.ndarray, list[float]]:
    key = (n_sites, p, family)
    if key not in _ERROR_CACHE:
        ham = driven_chain(n_sites)
        plan = suzuki_plan(p, 2, family)
        ts = T_GRIDS[p]
        _ERROR_CACHE[key] = (ts, [measure_error(plan, ham, t, oracle_tol=ORACLE_TOL)
                                  for t in ts])
    return _ERROR_CACHE[key]


def test_criterion_01_order_verification():
    worst = []
    for n_sites, family, p in product((2, 3, 4), (EXACT, INSTANTANEOUS), (1, 2, 4)):
        ts, errs = scan_errors(n_sites, p, family)
        fit = fit_order(ts, errs, ORACLE_TOL)
        assert abs(fit.slope - (p + 1)) <= SLOPE_TOL[p], (
            f"N={n_sites} {family} p={p}: slope {fit.slope:.3f}")
        worst.append(abs(fit.slope - (p + 1)))
    print(f"\n[criterion 1] PASS order p+1 confirmed for p in {{1,2,4}}, both "
          f"families, N=2..4 (worst slope offset {max(worst):.3f})")


def test_criterion_02_bound_validity():
    checked = 0
    for n_sites in (2, 3, 4):
        ham = driven_chain(n_sites)
        for p in (1, 2, 4):
            plan = suzuki_plan(p, 2, EXACT)
            ts, errs = scan_errors(n_sites, p, EXACT)
            for t, err in zip(ts, errs):
                coro = corollary_bound(plan, ham, t).value
                if p <= 2:
                    tight = tight_bound(plan, ham, t).value
                    assert err <= tight, (n_sites, p, t)
                    assert tight <= coro * (1 + 1e-9), (n_sites, p, t)
                else:
                    assert err <= coro, (n_sites, p, t)
                checked += 1
    print(f"\n[criterion 2] PASS error <= tight (p<=2) <= corollary at all "
          f"{checked} grid points, zero violations")


def test_criterion_03_first_order_bound():
    ham = driven_chain(2)
    plan = suzuki_plan(1, 2, EXACT)
    margins = []
    for t in np.linspace(0.02, 0.2, 10):
        err = measure_error(plan, ham, t, oracle_tol=ORACLE_TOL)
        bound = huyghebaert_bound(ham, t).value
        assert err <= bound, t
        margins.append(bound - err)
    a, b, t_static = 0.7, 1.3, 0.45
    static = Hamiltonian([OperatorCurve([(a * X, ConstantCurve(1.0))]),
                          OperatorCurve([(b * Z, ConstantCurve(1.0))])])
    closed = huyghebaert_bound(static, t_static).value
    assert abs(closed - a * b * t_static**2) <= 1e-8
    print(f"\n[criterion 3] PASS first-order bound holds at 10 times "
          f"(min margin {min(margins):.2e}); static aX/bZ closed form matches "
          f"to {abs(closed - a * b * t_static**2):.1e}")


def test_criterion_04_commuting_nullity_and_reduction():
    commuting = Hamiltonian([
        OperatorCurve([(np.kron(Z, I2), ConstantCurve(0.8))]),
        OperatorCurve([(np.kron(I2, Z), ConstantCurve(0.5))]),
    ])
    for p in (1, 2, 4):
        assert alpha_com(commuting, p + 1, 0.3) == 0.0
        err = measure_error(suzuki_plan(p, 2, EXACT), commuting, 0.5,
                            oracle_tol=ORACLE_TOL)
        assert err <= 10 * ORACLE_TOL, p
    rng = np.random.default_rng(7)
    worst = 0.0
    for n_terms in (2, 3):
        mats = []
        for _ in range(n_terms):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            mats.append((m + m.conj().T) / 2)
        ham = Hamiltonian([OperatorCurve([(m, ConstantCurve(1.0))]) for m in mats])
        for order in (2, 3, 4):  # p <= 3
            direct = 0.0
            for seq in product(range(n_terms), repeat=order):
                acc = mats[seq[0]]
                for g in seq[1:]:
                    acc = mats[g] @ acc - acc @ mats[g]
                direct += spectral_norm(acc)
            got = alpha_com(ham, order, 0.9)
            worst = max(worst, abs(got - direct) / max(direct, 1.0))
            assert abs(got - direct) <= 1e-10 * max(direct, 1.0)
    print(f"\n[criterion 4] PASS commuting statics give zero factor and oracle-"
          f"floor error; static reduction matches enumeration (worst rel dev "
          f"{worst:.1e})")


def test_criterion_05_floquet_identities():
    omega, t = 2.0, 0.5
    ham = Hamiltonian([
        OperatorCurve([(np.kron(X, X), ConstantCurve(1.0))]),
        OperatorCurve([(np.kron(Z, I2) + np.kron(I2, Z), TrigCurve(2.5, omega))]),
    ])
    fh = fourier_hamiltonian(ham, omega, 1)
    exact = evolve(ham.total_curve(), 0.0, t, tol=ORACLE_TOL)
    pf = {p: evaluate_pf(suzuki_plan(p, 2, EXACT), ham, t, oracle_tol=ORACLE_TOL)
          for p in (1, 2)}
    series: dict[str, list[float]] = {}
    for l_max in (4, 8, 16, 24):
        space = floquet_space(l_max, 4, l_keep=12 if l_max == 24 else None)
        ops = build_floquet_operators(fh, space)
        exp_hf = matrix_exp(-1j * t * ops.h_f)
        devs = {}
        for p in (1, 2):
            plan = suzuki_plan(p, 2, EXACT)
            tf = build_tf(plan, ops, t)
            devs[f"thm2_p{p}"] = spectral_norm(
                pf[p] - reconstruct(tf, space, omega, t))
            devs[f"thm3_p{p}"] = spectral_norm(
                pf[p] - reconstruct(build_tf_suzuki(ops, p, t), space, omega, t))
        tf2 = build_tf(suzuki_plan(2, 2, EXACT), ops, t)
        devs["error_identity"] = spectral_norm(
            reconstruct(exp_hf - tf2, space, omega, t) - (exact - pf[2]))
        devs["lemma1_symmetry"] = max(
            check_translation_symmetry(exp_hf, space, omega, t),
            check_translation_symmetry(tf2, space, omega, t))
        for name, val in devs.items():
            series.setdefault(name, []).append(val)
    for name, vals in series.items():
        assert vals[-1] <= 1e-6, (name, vals)
        assert all(b <= a * (1 + 1e-9) + ORACLE_TOL
                   for a, b in zip(vals, vals[1:])), (name, vals)
    final = max(vals[-1] for vals in series.values())
    print(f"\n[criterion 5] PASS all five identity deviations decrease "
          f"monotonically over L in {{4,8,16,24}} and end <= {final:.1e} at "
          f"L=24, L_keep=12")


def test_criterion_06_multi_product():
    for j in range(1, 9):
        ks = list(range(1, j + 1))
        assert moment_residual(ks, solve_coefficients(ks)) <= 1e-12
    c2 = solve_coefficients([1, 2])
    assert abs(c2[0] + 1.0 / 3.0) <= 1e-14 and abs(c2[1] - 4.0 / 3.0) <= 1e-14
    ham = driven_chain(2)
    plan = mpf_plan(2)
    ts = np.geomspace(0.04, 0.2, 6)
    errs = [measure_mpf_error(plan, ham, t, oracle_tol=ORACLE_TOL) for t in ts]
    fit = fit_order(ts, errs, ORACLE_TOL)
    assert abs(fit.slope - 5.0) <= 0.3, fit.slope
    in_regime = 0
    for t in (0.02, 0.035, 0.05):
        err = measure_mpf_error(plan, ham, t, oracle_tol=ORACLE_TOL)
        try:
            rep = mpf_bound(ham, t, 2, plan.c_norm, extended=ham.extended(t, 3))
        except OutOfRegimeError:
            continue
        assert err <= rep.value, t
        in_regime += 1
    assert in_regime >= 2
    print(f"\n[criterion 6] PASS residuals <= 1e-12 to J=8, c(1,2)=(-1/3,4/3), "
          f"J=2 slope {fit.slope:.3f}, bound holds at {in_regime} in-regime "
          f"points")


def test_criterion_07_scaling_exponents():
    t_sim, eps, p = 0.5, 1e-3, 2
    ns = [4, 6, 8, 10]
    alphas, gates = [], []
    for n in ns:
        ham = driven_chain(n, boundary="periodic")
        alpha = max(alpha_com(ham, p + 1, tau) for tau in np.linspace(0.0, t_sim, 3))
        plan = suzuki_plan(p, 2, EXACT)
        coeff = 3.0 * plan.n_layers ** (p + 1) * alpha
        r = choose_trotter_steps(lambda tau: coeff * tau ** (p + 1), t_sim, eps,
                                 power=p)
        alphas.append(alpha)
        gates.append(r * plan.n_layers * sum(ham.metadata["local_gate_counts"]))
    alpha_slope = np.polyfit(np.log(ns), np.log(alphas), 1)[0]
    gate_slope = np.polyfit(np.log(ns), np.log(gates), 1)[0]
    assert abs(alpha_slope - 1.0) <= 0.2, alpha_slope
    assert abs(gate_slope - 1.5) <= 0.25, gate_slope
    print(f"\n[criterion 7] PASS alpha_com N-exponent {alpha_slope:.3f} "
          f"(target 1.0 +- 0.2), gate-count N-exponent {gate_slope:.3f} "
          f"(target 1.5 +- 0.25)")


def test_criterion_08_periodic_extension():
    order = 2
    window = 0.7
    base = TrigCurve(0.8, 1.1, phase=0.3, offset=0.5)
    ext = extrapolate_scalar(base, window, order)
    for tau in np.linspace(0.0, window, 29):
        assert abs(ext.eval(tau) - base.eval(tau)) <= 1e-12
    for tau in np.linspace(0.0, 2 * window, 31):
        assert abs(ext.eval(tau) - ext.eval(tau + 2 * window)) <= 1e-12
    for tau in np.linspace(4 * window / 3, 5 * window / 3, 11):
        assert ext.eval(tau) == 0.0
    term = OperatorCurve([(X, ext)])
    coeffs = fourier_decompose(term, math.pi / window, 64)
    scaled = {m: m ** (order + 2) * spectral_norm(coeffs[m + 64])
              for m in range(1, 65)}
    head = max(scaled[m] for m in range(1, 33))
    tail = max(scaled[m] for m in range(33, 65))
    assert tail <= 1.5 * head + 1e-12
    print(f"\n[criterion 8] PASS extension matches on-window to 1e-12, is "
          f"2t-periodic, vanishes on the middle third; scaled Fourier tail "
          f"{tail:.2e} <= head {head:.2e}")


def test_criterion_09_nonunitary_mode():
    ham = driven_chain(2).scaled(1.0 - 0.1j)
    plan = suzuki_plan(1, 2, EXACT)
    margins = []
    for t in np.linspace(0.02, 0.1, 5):
        err = measure_error(plan, ham, t, oracle_tol=ORACLE_TOL)
        rep = nonunitary_bound(plan, ham, t)
        assert err <= rep.value, t
        assert rep.extra["amplification"] > 1.0
        margins.append(rep.value - err)
    hermitian_rep = nonunitary_bound(plan, driven_chain(2), 0.1)
    assert abs(hermitian_rep.extra["amplification"] - 1.0) <= 1e-10
    print(f"\n[criterion 9] PASS non-unitary bound holds at 5 times (min "
          f"margin {min(margins):.2e}); Hermitian input reduces the "
          f"amplification factor to 1")


FULL_SUITE = [
    ("order-scan", {"model": None, "orders": [1, 2],
                    "times": [4e-3, 8e-3, 1.6e-2, 3.2e-2]}),
    ("bound-check", {"model": None, "orders": [1, 2], "times": [0.02, 0.05]}),
    ("huyghebaert-check", {"model": None, "times": [0.05, 0.1]}),
    ("floquet-check", {"model": "single-mode", "omega": 2.0, "t": 0.5,
                       "mode_cutoff": 1, "l_values": [4, 8], "orders": [1, 2]}),
    ("mpf-scan", {"model": None, "J_values": [1, 2], "times": [0.02, 0.04],
                  "grid_points": 17}),
    ("resource-table", {"model_class": "nn-chain", "N_values": [2, 3],
                        "t": 0.2, "eps": 1e-2, "p": 2, "include_mpf": True,
                        "grid_points": 3, "model_params": None}),
    ("nonunitary-check", {"model": None, "scale_im": 0.1,
                          "times": [0.05, 0.1], "grid_points": 17}),
]


def _run_full_suite(tmp_path, tag):
    driven2_desc = {
        "model": "nn-chain", "N": 2,
        "bond_curve": {"kind": "trig", "amp": 0.3, "omega": 2.0, "offset": 1.0},
        "field_curve": {"kind": "trig", "amp": 0.8, "omega": 3.1},
    }
    single_mode = {
        "model": "custom", "N": 1,
        "terms": [{"gamma": 1, "paulis": [[0, "X"]],
                   "curve": {"kind": "constant", "value": 1.0}},
                  {"gamma": 2, "paulis": [[0, "Z"]],
                   "curve": {"kind": "trig", "amp": 2.0, "omega": 2.0}}],
    }
    outputs = {}
    for sub, template in FULL_SUITE:
        cfg = dict(template)
        if cfg.get("model") is None and "model" in cfg:
            cfg["model"] = driven2_desc
        elif cfg.get("model") == "single-mode":
            cfg["model"] = single_mode
        if "model_params" in cfg and cfg["model_params"] is None:
            cfg["model_params"] = {"bond_curve": driven2_desc["bond_curve"],
                                   "field_curve": driven2_desc["field_curve"]}
        cfg_path = tmp_path / f"{tag}_{sub}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / tag / sub
        code = run(sub, str(cfg_path), str(out))
        assert code == 0, (sub, code)
        for csv in sorted(out.glob("*.csv")):
            outputs[f"{sub}/{csv.name}"] = csv.read_bytes()
    return outputs


def test_criterion_10_determinism(tmp_path):
    first = _run_full_suite(tmp_path, "run1")
    second = _run_full_suite(tmp_path, "run2")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    print(f"\n[criterion 10] PASS two consecutive full-suite runs produced "
          f"bit-identical CSVs ({len(first)} files compared)")
