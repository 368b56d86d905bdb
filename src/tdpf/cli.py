"""Batch experiment driver.

Every subcommand reads one JSON config, writes plot-ready CSV grids plus a
JSON summary and a manifest (config hash, versions, tolerances) into --out,
and is bit-reproducible given the same config.  Exit codes: 0 ok, 1 bound
violation tripwire, 2 config/schema error, 3 numerical convergence failure,
4 out-of-regime request.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bounds import (corollary_bound, huyghebaert_bound, mpf_bound,
                     nonunitary_bound, tight_bound)
from .errors import (ConvergenceError, InvalidInputError, OutOfRegimeError,
                     SchemaError)
from .floquet import (build_floquet_operators, build_tf, build_tf_suzuki,
                      check_translation_symmetry, floquet_space,
                      fourier_hamiltonian, reconstruct)
from .formulas import (EXACT, INSTANTANEOUS, evaluate_pf, fit_order,
                       measure_error, suzuki_plan)
from .linalg import DEFAULT_QUBIT_CAP, matrix_exp, spectral_norm
from .models import (Hamiltonian, build_driven_chain, build_long_range,
                     long_range_tables, model_from_descriptor)
from .multiproduct import measure_mpf_error, mpf_plan
from .propagator import evolve
from .resources import gate_count_pf, loglog_slope, mpf_resources

_VIOLATION_SLACK = 1e-12

RESOURCE_COLUMNS = ["model", "N", "t", "eps", "p", "r", "gates", "J",
                    "queries", "ancillas", "bound_kind"]


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise SchemaError("<config>", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError("<config>", f"invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise SchemaError("<config>", "top level must be an object")
    return cfg


def _model_from_config(cfg: dict) -> Hamiltonian:
    if "model" in cfg:
        return model_from_descriptor(cfg["model"])
    if "model_path" in cfg:
        desc = _load_config(cfg["model_path"])
        return model_from_descriptor(desc)
    raise SchemaError("model", "config needs 'model' or 'model_path'")


def _times_from_config(cfg: dict, key: str = "times") -> list[float]:
    spec = cfg.get(key)
    if isinstance(spec, list) and spec and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in spec):
        return [float(x) for x in spec]
    if isinstance(spec, dict):
        try:
            lo, hi, count = float(spec["min"]), float(spec["max"]), int(spec["count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(key, f"bad grid spec: {exc}")
        if count < 1 or lo <= 0 or hi < lo:
            raise SchemaError(key, "need 0 < min <= max and count >= 1")
        if spec.get("log", True):
            return list(np.geomspace(lo, hi, count))
        return list(np.linspace(lo, hi, count))
    raise SchemaError(key, "expected a list of times or {min, max, count}")


def _is_int(val, minimum: int) -> bool:
    return not isinstance(val, bool) and isinstance(val, int) and val >= minimum


def _is_real(val, positive: bool) -> bool:
    """A finite JSON number (NaN and Infinity parse as floats), > 0 if positive."""
    return (not isinstance(val, bool) and isinstance(val, (int, float))
            and abs(val) <= sys.float_info.max and (val > 0 or not positive))


def _int_field(cfg: dict, key: str, default: int, minimum: int) -> int:
    val = cfg.get(key, default)
    if not _is_int(val, minimum):
        raise SchemaError(key, f"expected an integer >= {minimum}")
    return val


def _int_list(cfg: dict, key: str, default, minimum: int) -> list[int]:
    vals = cfg.get(key, default)
    if not isinstance(vals, list) or not vals or not all(_is_int(v, minimum) for v in vals):
        raise SchemaError(key, f"expected a non-empty list of integers >= {minimum}")
    return vals


def _float_field(cfg: dict, key: str, default, positive: bool = True) -> float:
    val = cfg.get(key, default)
    if not _is_real(val, positive):
        raise SchemaError(key, "expected a positive number" if positive
                          else "expected a finite number")
    return float(val)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(float(x))  # shortest round-trip; plain even for np.float64
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _manifest(out: Path, subcommand: str, cfg: dict, oracle_tol: float,
              workers: int) -> None:
    blob = json.dumps(cfg, sort_keys=True).encode()
    _write_json(out / "manifest.json", {
        "subcommand": subcommand,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "tdpf_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "oracle_tol": oracle_tol,
        "workers": workers,
    })


def _pmap(fn, items, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _exceeds(value: float, bound: float) -> bool:
    return value > bound + _VIOLATION_SLACK


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_order_scan(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    orders = _int_list(cfg, "orders", [1, 2], 1)
    family_key = cfg.get("family", "exact")
    families = {"exact": [EXACT], "instantaneous": [INSTANTANEOUS],
                "both": [EXACT, INSTANTANEOUS]}.get(family_key)
    if families is None:
        raise SchemaError("family", f"unknown family {family_key!r}")
    times_by_order = cfg.get("times_by_order", {})
    cells = []
    for family in families:
        for p in orders:
            ts = (_times_from_config({"times": times_by_order[str(p)]})
                  if str(p) in times_by_order else _times_from_config(cfg))
            plan = suzuki_plan(p, ham.n_terms, family)
            cells += [(family, p, plan, t) for t in ts]

    def cell(args):
        family, p, plan, t = args
        return [family, p, t, measure_error(plan, ham, t, oracle_tol=oracle_tol)]

    rows = _pmap(cell, cells, workers)
    _write_csv(out / "order_scan.csv", ["family", "p", "t", "error"], rows)
    summary = {}
    for family in families:
        for p in orders:
            pts = [(r[2], r[3]) for r in rows if r[0] == family and r[1] == p]
            key = f"{family}-p{p}"
            try:
                fit = fit_order([t for t, _ in pts], [e for _, e in pts], oracle_tol)
                summary[key] = {"slope": fit.slope, "intercept": fit.intercept,
                                "residual": fit.residual, "n_points": fit.n_points}
            except InvalidInputError as exc:
                summary[key] = {"error": str(exc)}
    _write_json(out / "order_scan_summary.json", summary)
    return 0


def _cmd_bound_check(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    orders = _int_list(cfg, "orders", [1, 2], 1)
    grid_points = _int_field(cfg, "grid_points", 65, 2)
    times_by_order = cfg.get("times_by_order", {})
    cells = []
    for p in orders:
        ts = (_times_from_config({"times": times_by_order[str(p)]})
              if str(p) in times_by_order else _times_from_config(cfg))
        plan = suzuki_plan(p, ham.n_terms, EXACT)
        cells += [(p, plan, t) for t in ts]

    def cell(args):
        p, plan, t = args
        err = measure_error(plan, ham, t, oracle_tol=oracle_tol)
        tight = tight_bound(plan, ham, t, grid_points).value if p <= 2 else None
        coro = corollary_bound(plan, ham, t, grid_points).value
        violation = _exceeds(err, coro if tight is None else tight)
        if tight is not None and _exceeds(tight, coro):
            violation = True
        return [p, t, err, tight, coro, violation]

    rows = _pmap(cell, cells, workers)
    _write_csv(out / "bound_check.csv",
               ["p", "t", "error", "tight_bound", "corollary_bound", "violation"], rows)
    n_violations = sum(1 for r in rows if r[5])
    _write_json(out / "bound_check_summary.json",
                {"rows": len(rows), "violations": n_violations})
    return 1 if n_violations else 0


def _cmd_huyghebaert_check(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    plan = suzuki_plan(1, ham.n_terms, EXACT)
    ts = _times_from_config(cfg)

    def cell(t):
        err = measure_error(plan, ham, t, oracle_tol=oracle_tol)
        bound = huyghebaert_bound(ham, t).value
        return [t, err, bound, _exceeds(err, bound)]

    rows = _pmap(cell, ts, workers)
    _write_csv(out / "huyghebaert_check.csv",
               ["t", "error", "bound", "violation"], rows)
    n_violations = sum(1 for r in rows if r[3])
    _write_json(out / "huyghebaert_summary.json",
                {"rows": len(rows), "violations": n_violations})
    return 1 if n_violations else 0


def _cmd_floquet_check(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    omega = _float_field(cfg, "omega", None)
    t = _float_field(cfg, "t", 0.5)
    mode_cutoff = _int_field(cfg, "mode_cutoff", 2, 0)
    l_values = _int_list(cfg, "l_values", [4, 8, 16, 24], 0)
    orders = _int_list(cfg, "orders", [1, 2], 1)
    fh = fourier_hamiltonian(ham, omega, mode_cutoff)
    exact = evolve(ham.total_curve(), 0.0, t, tol=oracle_tol)
    pf = {p: evaluate_pf(suzuki_plan(p, ham.n_terms, EXACT), ham, t,
                         oracle_tol=oracle_tol) for p in orders}

    def cell(l_max):
        space = floquet_space(l_max, ham.dim)
        ops = build_floquet_operators(fh, space)
        exp_hf = matrix_exp(-1j * t * ops.h_f)
        row = [l_max, space.l_keep]
        dev_sym = check_translation_symmetry(exp_hf, space, fh.omega, t)
        tf2 = None
        for p in orders:
            plan = suzuki_plan(p, ham.n_terms, EXACT)
            tf = build_tf(plan, ops, t)
            if p == max(orders):
                tf2 = (tf, pf[p])
            row.append(spectral_norm(pf[p] - reconstruct(tf, space, fh.omega, t)))
            row.append(spectral_norm(
                pf[p] - reconstruct(build_tf_suzuki(ops, p, t), space, fh.omega, t)))
            dev_sym = max(dev_sym, check_translation_symmetry(tf, space, fh.omega, t))
        row.append(spectral_norm(exact - reconstruct(exp_hf, space, fh.omega, t)))
        tf_mat, s_mat = tf2
        row.append(spectral_norm(
            reconstruct(exp_hf - tf_mat, space, fh.omega, t) - (exact - s_mat)))
        row.append(dev_sym)
        return row

    rows = _pmap(cell, l_values, workers)
    header = ["L", "L_keep"]
    for p in orders:
        header += [f"pf_dev_p{p}", f"suzuki_dev_p{p}"]
    header += ["evolution_dev", "error_identity_dev", "symmetry_dev"]
    _write_csv(out / "floquet_check.csv", header, rows)
    summary = {}
    for col in range(2, len(header)):
        series = [r[col] for r in rows]
        summary[header[col]] = {
            "final": series[-1],
            "monotone_decreasing": all(b <= a * (1 + 1e-9) + 1e-14
                                       for a, b in zip(series, series[1:])),
        }
    _write_json(out / "floquet_summary.json", summary)
    return 0


def _cmd_mpf_scan(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    j_values = _int_list(cfg, "J_values", [1, 2], 1)
    ts = _times_from_config(cfg)
    grid_points = _int_field(cfg, "grid_points", 33, 2)
    base_order = _int_field(cfg, "p", 2, 1)
    cells = [(j, t) for j in j_values for t in ts]

    def cell(args):
        j, t = args
        plan = mpf_plan(j, base_order)
        err = measure_mpf_error(plan, ham, t, oracle_tol=oracle_tol)
        try:
            extended = ham.extended(t, 2 * j - 1)
            rep = mpf_bound(ham, t, j, plan.c_norm, extended, grid_points)
            return [j, t, err, rep.value, True, _exceeds(err, rep.value),
                    rep.extra["alpha_local"], rep.extra["alpha_global"]]
        except OutOfRegimeError:
            return [j, t, err, None, False, False, None, None]

    rows = _pmap(cell, cells, workers)
    _write_csv(out / "mpf_scan.csv",
               ["J", "t", "error", "bound", "in_regime", "violation",
                "alpha_local", "alpha_global"], rows)
    summary = {"plans": {str(j): mpf_plan(j, base_order).to_json() for j in j_values}}
    for j in j_values:
        pts = [(r[1], r[2]) for r in rows if r[0] == j]
        try:
            fit = fit_order([t for t, _ in pts], [e for _, e in pts], oracle_tol)
            summary[f"J{j}_slope"] = fit.slope
        except InvalidInputError as exc:
            summary[f"J{j}_slope_error"] = str(exc)
    n_violations = sum(1 for r in rows if r[5])
    summary["violations"] = n_violations
    _write_json(out / "mpf_summary.json", summary)
    if all(not r[4] for r in rows):
        raise OutOfRegimeError("no (J, t) point satisfied the regime condition")
    return 1 if n_violations else 0


def _params_curve(params: dict, key: str, field: str):
    from .curves import curve_from_descriptor
    if key not in params:
        return None
    return curve_from_descriptor(params[key], field)


def _cmd_resource_table(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    model_class = cfg.get("model_class")
    if model_class not in ("nn-chain", "long-range"):
        raise SchemaError("model_class", f"unknown class {model_class!r}")
    n_values = _int_list(cfg, "N_values", None, 1)
    t = _float_field(cfg, "t", 1.0)
    if "eps_values" in cfg:
        eps_values = cfg["eps_values"]
        if (not isinstance(eps_values, list) or not eps_values
                or not all(_is_real(e, True) for e in eps_values)):
            raise SchemaError("eps_values", "expected a non-empty list of positive numbers")
        eps_values = [float(e) for e in eps_values]
    else:
        eps_values = [_float_field(cfg, "eps", 1e-3)]
    p = _int_field(cfg, "p", 2, 1)
    bound_source = cfg.get("bound_source", "measured-alpha")
    include_mpf = bool(cfg.get("include_mpf", False))
    params = cfg.get("model_params", {})
    grid_points = _int_field(cfg, "grid_points", 9, 2)
    refine_iters = _int_field(cfg, "refine_iters", 12, 0)

    def build(n):
        if model_class == "nn-chain":
            bond = _params_curve(params, "bond_curve", "model_params.bond_curve")
            if bond is None:
                raise SchemaError("model_params.bond_curve", "missing required field")
            field = _params_curve(params, "field_curve", "model_params.field_curve")
            return build_driven_chain(n, bond, field,
                                      boundary=params.get("boundary", "open"))
        pair_curves = {ch: _params_curve(params["pair_curves"], ch,
                                         f"model_params.pair_curves.{ch}")
                       for ch in params.get("pair_curves", {})}
        if not pair_curves:
            raise SchemaError("model_params.pair_curves", "missing required field")
        site_curves = None
        if "site_curves" in params:
            site_curves = {s: _params_curve(params["site_curves"], s,
                                            f"model_params.site_curves.{s}")
                           for s in params["site_curves"]}
        nu = params.get("nu", 1.0)
        coupling = params.get("coupling", 1.0)
        if bound_source == "analytic-scaling" and n > DEFAULT_QUBIT_CAP:
            # metadata-only sweep: dimensions too large to materialize
            if include_mpf:
                raise SchemaError("include_mpf",
                                  f"needs a dense model, but N={n} is over the cap")
            return long_range_tables(n, nu, pair_curves, site_curves, coupling)
        return build_long_range(n, nu, pair_curves, site_curves, coupling)

    alpha_constant = 1.0
    if bound_source == "analytic-scaling" and "calibrate_N" in cfg:
        n_cal = cfg["calibrate_N"]
        dense = build(n_cal)
        measured = gate_count_pf(dense, t, eps_values[0], p, "measured-alpha",
                                 grid_points)["alpha"]
        analytic = gate_count_pf(dense, t, eps_values[0], p, "analytic-scaling",
                                 grid_points, 1.0)["alpha"]
        alpha_constant = measured / analytic if analytic else 1.0

    rows = []
    pf_cells = []
    for n in n_values:
        ham = build(n)
        for eps in eps_values:
            res = gate_count_pf(ham, t, eps, p, bound_source, grid_points,
                                alpha_constant, refine_iters)
            rows.append([res["model"], n, t, eps, p, res["r"], res["gates"],
                         None, None, None, res["bound_kind"]])
            pf_cells.append((n, eps, res))
            if include_mpf:
                mres = mpf_resources(ham, t, eps, grid_points)
                rows.append([mres["model"], n, t, eps, p, mres["r"], None,
                             mres["J"], mres["queries"], mres["ancillas"], "mpf"])
    _write_csv(out / "resource_table.csv", RESOURCE_COLUMNS, rows)

    summary = {"alpha_constant": alpha_constant,
               "asymptotic_form": pf_cells[0][2]["asymptotic_form"]}
    base_eps = eps_values[0]
    pf_at_eps = [(n, res) for (n, eps, res) in pf_cells if eps == base_eps]
    if len({n for n, _ in pf_at_eps}) >= 2:
        ns = [n for n, _ in pf_at_eps]
        summary["gate_exponent_vs_N"] = loglog_slope(ns, [r["gates"] for _, r in pf_at_eps])
        summary["alpha_exponent_vs_N"] = loglog_slope(ns, [r["alpha"] for _, r in pf_at_eps])
    if include_mpf and len(eps_values) >= 2:
        n0 = n_values[0]
        qs = [r[8] for r in rows if r[1] == n0 and r[7] is not None]
        summary["mpf_queries_vs_logeps_slope"] = float(np.polyfit(
            np.log([1.0 / float(e) for e in eps_values]), qs, 1)[0])
    _write_json(out / "resource_summary.json", summary)
    return 0


def _cmd_nonunitary_check(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    scale_im = _float_field(cfg, "scale_im", 0.1, positive=False)
    scaled = ham.scaled(1.0 - 1j * scale_im)
    p = _int_field(cfg, "p", 1, 1)
    plan = suzuki_plan(p, ham.n_terms, EXACT)
    ts = _times_from_config(cfg)
    grid_points = _int_field(cfg, "grid_points", 33, 2)

    def cell(t):
        err = measure_error(plan, scaled, t, oracle_tol=oracle_tol)
        bound = nonunitary_bound(plan, scaled, t, grid_points).value
        return [t, err, bound, _exceeds(err, bound)]

    rows = _pmap(cell, ts, workers)
    _write_csv(out / "nonunitary_check.csv", ["t", "error", "bound", "violation"], rows)
    n_violations = sum(1 for r in rows if r[3])
    _write_json(out / "nonunitary_summary.json",
                {"rows": len(rows), "violations": n_violations})
    return 1 if n_violations else 0


_SUBCOMMANDS = {
    "order-scan": _cmd_order_scan,
    "bound-check": _cmd_bound_check,
    "huyghebaert-check": _cmd_huyghebaert_check,
    "floquet-check": _cmd_floquet_check,
    "mpf-scan": _cmd_mpf_scan,
    "resource-table": _cmd_resource_table,
    "nonunitary-check": _cmd_nonunitary_check,
}


def run(subcommand: str, config_path: str, out_dir: str,
        workers: int | None = None, oracle_tol: float | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    if workers is None:
        workers = int(os.environ.get("TDPF_WORKERS", "1"))
    try:
        if subcommand not in _SUBCOMMANDS:
            raise SchemaError("<subcommand>", f"unknown subcommand {subcommand!r}")
        cfg = _load_config(config_path)
        tol = oracle_tol if oracle_tol is not None else cfg.get("oracle_tol", 1e-12)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        code = _SUBCOMMANDS[subcommand](cfg, out, workers, float(tol))
        _manifest(out, subcommand, cfg, float(tol), workers)
        return code
    except (SchemaError, InvalidInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except OutOfRegimeError as exc:
        print(f"out of regime: {exc}", file=sys.stderr)
        return 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tdpf",
        description="Time-dependent product-formula experiments")
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel workers (default: $TDPF_WORKERS or 1)")
    parser.add_argument("--oracle-tol", type=float, default=None,
                        help="override the reference-propagator tolerance")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, args.workers, args.oracle_tol)


if __name__ == "__main__":
    sys.exit(main())
