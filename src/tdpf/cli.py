"""Batch experiment driver.

Every subcommand reads one JSON config, writes plot-ready CSV grids plus a
JSON summary and a manifest (config hash, versions, tolerances) into --out,
and is bit-reproducible given the same config.  Exit codes: 0 ok, 1 bound
violation tripwire, 2 config/schema error, 3 numerical convergence failure,
4 out-of-regime request, 5 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback
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
from .models import (Hamiltonian, long_range_fields, long_range_tables,
                     model_from_descriptor)
from .multiproduct import measure_mpf_error, mpf_plan
from .propagator import evolve
from .resources import gate_count_pf, loglog_slope, mpf_resources

_VIOLATION_SLACK = 1e-12

RESOURCE_COLUMNS = ["model", "N", "t", "eps", "p", "r", "gates", "J",
                    "queries", "ancillas", "bound_kind"]

_FAMILIES = {"exact": [EXACT], "instantaneous": [INSTANTANEOUS],
             "both": [EXACT, INSTANTANEOUS]}
_BOUND_SOURCES = ("measured-alpha", "analytic-scaling")


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
        if not isinstance(cfg["model_path"], str):
            raise SchemaError("model_path", "expected a file path")
        return model_from_descriptor(_load_config(cfg["model_path"]))
    raise SchemaError("model", "config needs 'model' or 'model_path'")


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


def _positive_list(vals, field: str) -> list[float]:
    if not isinstance(vals, list) or not vals or not all(_is_real(v, True) for v in vals):
        raise SchemaError(field, "expected a non-empty list of positive numbers")
    return [float(v) for v in vals]


def _times(spec, field: str) -> list[float]:
    """A non-empty list of times or a {min, max, count[, log]} grid, every
    time finite and > 0."""
    if not isinstance(spec, dict):
        return _positive_list(spec, field)
    lo, hi, count = spec.get("min"), spec.get("max"), spec.get("count")
    log = spec.get("log", True)
    if not (_is_real(lo, True) and _is_real(hi, True) and lo <= hi
            and _is_int(count, 1) and isinstance(log, bool)):
        raise SchemaError(field, "need a grid with finite 0 < min <= max, an integer"
                          " count >= 1 and a boolean log")
    return list((np.geomspace if log else np.linspace)(float(lo), float(hi), count))


def _times_by_order(cfg: dict, orders: list[int]) -> dict[int, list[float]]:
    """Each order's times: its ``times_by_order`` entry, else ``times``."""
    spec = cfg.get("times_by_order", {})
    if not isinstance(spec, dict):
        raise SchemaError("times_by_order", "expected an object mapping orders to times")
    return {p: _times(spec[str(p)], f"times_by_order.{p}") if str(p) in spec
            else _times(cfg.get("times"), "times") for p in orders}


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(float(x))  # shortest round-trip; plain even for np.float64
    return str(x)


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


def _write_outputs(out: Path, csv_name: str, summary_name: str, header: list[str],
                   rows: list[list], summary: dict | None = None) -> int:
    """Write <csv_name>.csv and <summary_name>.json; return exit code 1 if any
    row's ``violation`` cell is set, else 0.  A table with that column records
    its violation count in the summary, which defaults to the row count."""
    lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
    (out / f"{csv_name}.csv").write_text("\n".join(lines) + "\n")
    if summary is None:
        summary = {"rows": len(rows)}
    violations = 0
    if "violation" in header:
        col = header.index("violation")
        violations = sum(1 for r in rows if r[col])
        summary["violations"] = violations
    _write_json(out / f"{summary_name}.json", summary)
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_order_scan(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    orders = _int_list(cfg, "orders", [1, 2], 1)
    family_key = cfg.get("family", "exact")
    if not isinstance(family_key, str) or family_key not in _FAMILIES:
        raise SchemaError("family", f"unknown family {family_key!r}")
    families = _FAMILIES[family_key]
    times = _times_by_order(cfg, orders)
    cells = []
    for family in families:
        for p in orders:
            plan = suzuki_plan(p, ham.n_terms, family)
            cells += [(family, p, plan, t) for t in times[p]]

    def cell(args):
        family, p, plan, t = args
        return [family, p, t, measure_error(plan, ham, t, oracle_tol=oracle_tol)]

    rows = _pmap(cell, cells, workers)
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
    return _write_outputs(out, "order_scan", "order_scan_summary",
                          ["family", "p", "t", "error"], rows, summary)


def _cmd_bound_check(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    orders = _int_list(cfg, "orders", [1, 2], 1)
    grid_points = _int_field(cfg, "grid_points", 65, 2)
    times = _times_by_order(cfg, orders)
    cells = []
    for p in orders:
        plan = suzuki_plan(p, ham.n_terms, EXACT)
        cells += [(p, plan, t) for t in times[p]]

    def cell(args):
        p, plan, t = args
        err = measure_error(plan, ham, t, oracle_tol=oracle_tol)
        tight = tight_bound(plan, ham, t, grid_points).value if p <= 2 else None
        coro = corollary_bound(plan, ham, t, grid_points).value
        violation = _exceeds(err, coro if tight is None else tight)
        if tight is not None and _exceeds(tight, coro):
            violation = True
        return [p, t, err, tight, coro, violation]

    return _write_outputs(out, "bound_check", "bound_check_summary",
                          ["p", "t", "error", "tight_bound", "corollary_bound", "violation"],
                          _pmap(cell, cells, workers))


def _cmd_huyghebaert_check(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    plan = suzuki_plan(1, ham.n_terms, EXACT)
    ts = _times(cfg.get("times"), "times")

    def cell(t):
        err = measure_error(plan, ham, t, oracle_tol=oracle_tol)
        bound = huyghebaert_bound(ham, t).value
        return [t, err, bound, _exceeds(err, bound)]

    return _write_outputs(out, "huyghebaert_check", "huyghebaert_summary",
                          ["t", "error", "bound", "violation"], _pmap(cell, ts, workers))


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
    summary = {}
    for col in range(2, len(header)):
        series = [r[col] for r in rows]
        summary[header[col]] = {
            "final": series[-1],
            "monotone_decreasing": all(b <= a * (1 + 1e-9) + 1e-14
                                       for a, b in zip(series, series[1:])),
        }
    return _write_outputs(out, "floquet_check", "floquet_summary", header, rows, summary)


def _cmd_mpf_scan(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    j_values = _int_list(cfg, "J_values", [1, 2], 1)
    ts = _times(cfg.get("times"), "times")
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
    summary = {"plans": {str(j): mpf_plan(j, base_order).to_json() for j in j_values}}
    for j in j_values:
        pts = [(r[1], r[2]) for r in rows if r[0] == j]
        try:
            fit = fit_order([t for t, _ in pts], [e for _, e in pts], oracle_tol)
            summary[f"J{j}_slope"] = fit.slope
        except InvalidInputError as exc:
            summary[f"J{j}_slope_error"] = str(exc)
    code = _write_outputs(out, "mpf_scan", "mpf_summary",
                          ["J", "t", "error", "bound", "in_regime", "violation",
                           "alpha_local", "alpha_global"], rows, summary)
    if all(not r[4] for r in rows):
        raise OutOfRegimeError("no (J, t) point satisfied the regime condition")
    return code


def _cmd_resource_table(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    model_class = cfg.get("model_class")
    if model_class not in ("nn-chain", "long-range"):
        raise SchemaError("model_class", f"unknown class {model_class!r}")
    n_values = _int_list(cfg, "N_values", None, 1)
    t = _float_field(cfg, "t", 1.0)
    eps_values = (_positive_list(cfg["eps_values"], "eps_values") if "eps_values" in cfg
                  else [_float_field(cfg, "eps", 1e-3)])
    p = _int_field(cfg, "p", 2, 1)
    bound_source = cfg.get("bound_source", "measured-alpha")
    if bound_source not in _BOUND_SOURCES:
        raise SchemaError("bound_source", f"expected one of {_BOUND_SOURCES}")
    include_mpf = cfg.get("include_mpf", False)
    if not isinstance(include_mpf, bool):
        raise SchemaError("include_mpf", "expected true or false")
    n_cal = _int_field(cfg, "calibrate_N", None, 2) if "calibrate_N" in cfg else None
    if n_cal is not None and n_cal > DEFAULT_QUBIT_CAP:
        raise SchemaError("calibrate_N", f"needs a dense model, at most {DEFAULT_QUBIT_CAP}")
    params = cfg.get("model_params", {})
    if not isinstance(params, dict) or "model" in params or "N" in params:
        raise SchemaError("model_params", "expected an object without 'model' and 'N'")
    grid_points = _int_field(cfg, "grid_points", 9, 2)
    refine_iters = _int_field(cfg, "refine_iters", 12, 0)

    alpha_constant = 1.0
    if bound_source == "analytic-scaling" and n_cal is not None:
        dense = model_from_descriptor(dict(params, model=model_class, N=n_cal),
                                      field="model_params")
        measured = gate_count_pf(dense, t, eps_values[0], p, "measured-alpha",
                                 grid_points)["alpha"]
        analytic = gate_count_pf(dense, t, eps_values[0], p, "analytic-scaling",
                                 grid_points, 1.0)["alpha"]
        alpha_constant = measured / analytic if analytic else 1.0

    rows = []
    pf_cells = []
    for n in n_values:
        desc = dict(params, model=model_class, N=n)
        if (model_class == "long-range" and bound_source == "analytic-scaling"
                and n > DEFAULT_QUBIT_CAP):
            # metadata-only sweep: dimensions too large to materialize
            if include_mpf:
                raise SchemaError("include_mpf",
                                  f"needs a dense model, but N={n} is over the cap")
            ham = long_range_tables(*long_range_fields(desc, "model_params"))
        else:
            ham = model_from_descriptor(desc, field="model_params")
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
    return _write_outputs(out, "resource_table", "resource_summary",
                          RESOURCE_COLUMNS, rows, summary)


def _cmd_nonunitary_check(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    scale_im = _float_field(cfg, "scale_im", 0.1, positive=False)
    scaled = ham.scaled(1.0 - 1j * scale_im)
    p = _int_field(cfg, "p", 1, 1)
    plan = suzuki_plan(p, ham.n_terms, EXACT)
    ts = _times(cfg.get("times"), "times")
    grid_points = _int_field(cfg, "grid_points", 33, 2)

    def cell(t):
        err = measure_error(plan, scaled, t, oracle_tol=oracle_tol)
        bound = nonunitary_bound(plan, scaled, t, grid_points).value
        return [t, err, bound, _exceeds(err, bound)]

    return _write_outputs(out, "nonunitary_check", "nonunitary_summary",
                          ["t", "error", "bound", "violation"], _pmap(cell, ts, workers))


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
        tol = (float(oracle_tol) if oracle_tol is not None
               else _float_field(cfg, "oracle_tol", 1e-12))
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        code = _SUBCOMMANDS[subcommand](cfg, out, workers, tol)
        _manifest(out, subcommand, cfg, tol, workers)
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
    except Exception as exc:  # a defect, never to be read as a bound verdict
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


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
