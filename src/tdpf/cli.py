"""Batch experiment driver.

Every subcommand reads one JSON config, writes plot-ready CSV grids plus a
JSON summary and a manifest (config hash, versions, tolerances) into --out,
and is bit-reproducible given the same config.  Exit codes: 0 ok, 1 bound
violation tripwire, 2 config/schema error, 3 numerical failure (propagator
convergence, or a non-finite intermediate matrix), 4 out-of-regime request,
5 internal error (any other exception).
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
from .errors import (ConvergenceError, InvalidInputError, NumericalBlowUpError,
                     OutOfRegimeError, SchemaError, integer, list_of, number, one_of)
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
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
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


def _times(spec, field: str) -> list[float]:
    """A non-empty list of times or a {min, max, count[, log]} grid, every
    time finite and > 0."""
    if not isinstance(spec, dict):
        return list_of(spec, field, number, True)
    lo, hi = number(spec.get("min"), field, True), number(spec.get("max"), field, True)
    count = integer(spec.get("count"), field, 1)
    log = one_of(spec.get("log", True), field, (True, False))
    if lo > hi:
        raise SchemaError(field, f"need min <= max, got min {lo} > max {hi}")
    return list((np.geomspace if log else np.linspace)(lo, hi, count))


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
    orders = list_of(cfg.get("orders", [1, 2]), "orders", integer, 1)
    families = _FAMILIES[one_of(cfg.get("family", "exact"), "family", tuple(_FAMILIES))]
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
    orders = list_of(cfg.get("orders", [1, 2]), "orders", integer, 1)
    grid_points = integer(cfg.get("grid_points", 65), "grid_points", 2)
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
    omega = number(cfg.get("omega"), "omega", True)
    t = number(cfg.get("t", 0.5), "t", True)
    mode_cutoff = integer(cfg.get("mode_cutoff", 2), "mode_cutoff", 0)
    l_values = list_of(cfg.get("l_values", [4, 8, 16, 24]), "l_values", integer, 0)
    orders = list_of(cfg.get("orders", [1, 2]), "orders", integer, 1)
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
    j_values = list_of(cfg.get("J_values", [1, 2]), "J_values", integer, 1)
    ts = _times(cfg.get("times"), "times")
    grid_points = integer(cfg.get("grid_points", 33), "grid_points", 2)
    base_order = integer(cfg.get("p", 2), "p", 1)
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


def _loglog_exponent(summary: dict, key: str, ns: list[int], values: list[float]) -> None:
    """summary[key] = the log-log slope of values against ns; null, with the
    reason under ``<key>_null_reason``, when some value is not positive."""
    bad = [n for n, v in zip(ns, values) if not v > 0]
    if bad:
        summary[key] = None
        summary[f"{key}_null_reason"] = (f"the fitted value is not positive at N = {bad};"
                                         " a log-log slope needs positive values")
    else:
        summary[key] = loglog_slope(ns, values)


def _cmd_resource_table(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    model_class = one_of(cfg.get("model_class"), "model_class", ("nn-chain", "long-range"))
    n_values = list_of(cfg.get("N_values"), "N_values", integer, 1)
    t = number(cfg.get("t", 1.0), "t", True)
    eps_values = (list_of(cfg["eps_values"], "eps_values", number, True) if "eps_values" in cfg
                  else [number(cfg.get("eps", 1e-3), "eps", True)])
    p = integer(cfg.get("p", 2), "p", 1)
    bound_source = one_of(cfg.get("bound_source", "measured-alpha"), "bound_source",
                          _BOUND_SOURCES)
    include_mpf = one_of(cfg.get("include_mpf", False), "include_mpf", (True, False))
    n_cal = integer(cfg["calibrate_N"], "calibrate_N", 2) if "calibrate_N" in cfg else None
    if n_cal is not None and n_cal > DEFAULT_QUBIT_CAP:
        raise SchemaError("calibrate_N", f"needs a dense model, at most {DEFAULT_QUBIT_CAP}")
    params = cfg.get("model_params", {})
    if not isinstance(params, dict) or "model" in params or "N" in params:
        raise SchemaError("model_params", "expected an object without 'model' and 'N'")
    grid_points = integer(cfg.get("grid_points", 9), "grid_points", 2)
    refine_iters = integer(cfg.get("refine_iters", 12), "refine_iters", 0)

    alpha_constant = 1.0
    if bound_source == "analytic-scaling" and n_cal is not None:
        dense = model_from_descriptor(dict(params, model=model_class, N=n_cal),
                                      field="model_params")
        measured = gate_count_pf(dense, t, eps_values[0], p, "measured-alpha",
                                 grid_points, 1.0, refine_iters)["alpha"]
        analytic = gate_count_pf(dense, t, eps_values[0], p, "analytic-scaling",
                                 grid_points, 1.0, refine_iters)["alpha"]
        alpha_constant = measured / analytic if analytic else 1.0

    def cell(n):
        """(rows, PF results by eps) of one size."""
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
        rows, results = [], []
        for eps in eps_values:
            res = gate_count_pf(ham, t, eps, p, bound_source, grid_points,
                                alpha_constant, refine_iters)
            rows.append([res["model"], n, t, eps, p, res["r"], res["gates"],
                         None, None, None, res["bound_kind"]])
            results.append(res)
            if include_mpf:
                mres = mpf_resources(ham, t, eps, grid_points, refine_iters)
                rows.append([mres["model"], n, t, eps, p, mres["r"], None,
                             mres["J"], mres["queries"], mres["ancillas"], "mpf"])
        return rows, results

    cells = _pmap(cell, n_values, workers)
    rows = [row for cell_rows, _ in cells for row in cell_rows]
    at_base_eps = [results[0] for _, results in cells]  # each size's PF at eps_values[0]
    summary = {"alpha_constant": alpha_constant,
               "asymptotic_form": at_base_eps[0]["asymptotic_form"]}
    if len(set(n_values)) >= 2:
        for key, col in (("gate_exponent_vs_N", "gates"), ("alpha_exponent_vs_N", "alpha")):
            _loglog_exponent(summary, key, n_values, [r[col] for r in at_base_eps])
    if include_mpf and len(eps_values) >= 2:
        n0 = n_values[0]
        qs = [r[8] for r in rows if r[1] == n0 and r[7] is not None]
        summary["mpf_queries_vs_logeps_slope"] = float(np.polyfit(
            np.log([1.0 / float(e) for e in eps_values]), qs, 1)[0])
    return _write_outputs(out, "resource_table", "resource_summary",
                          RESOURCE_COLUMNS, rows, summary)


def _cmd_nonunitary_check(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    scale_im = number(cfg.get("scale_im", 0.1), "scale_im")
    scaled = ham.scaled(1.0 - 1j * scale_im)
    p = integer(cfg.get("p", 1), "p", 1)
    plan = suzuki_plan(p, ham.n_terms, EXACT)
    ts = _times(cfg.get("times"), "times")
    grid_points = integer(cfg.get("grid_points", 33), "grid_points", 2)

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
    try:
        one_of(subcommand, "<subcommand>", tuple(_SUBCOMMANDS))
        if workers is None:
            env = os.environ.get("TDPF_WORKERS", "1").strip()
            workers = integer(int(env) if env.isdecimal() else env, "TDPF_WORKERS", 1)
        else:
            workers = integer(workers, "--workers", 1)
        cfg = _load_config(config_path)
        tol = (number(oracle_tol, "--oracle-tol", True) if oracle_tol is not None
               else number(cfg.get("oracle_tol", 1e-12), "oracle_tol", True))
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        code = _SUBCOMMANDS[subcommand](cfg, out, workers, tol)
        _manifest(out, subcommand, cfg, tol, workers)
        return code
    except NumericalBlowUpError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return 3
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
