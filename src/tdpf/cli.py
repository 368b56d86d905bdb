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
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (corollary_bound, huyghebaert_bound, mpf_bound,
                     nonunitary_bound, tight_bound)
from .errors import (ConvergenceError, InvalidInputError, NumericalBlowUpError,
                     OutOfRegimeError, SchemaError, UnsupportedOrderError, integer,
                     list_of, number, one_of)
from .floquet import (FloquetSpace, build_floquet_operators, build_tf, build_tf_suzuki,
                      check_translation_symmetry, fourier_hamiltonian, reconstruct)
from .formulas import (EXACT, INSTANTANEOUS, evaluate_pf, fit_order,
                       measure_error, suzuki_plan)
from .linalg import QUBIT_CAP, spectral_norm
from .models import Hamiltonian, model_from_descriptor
from .multiproduct import measure_mpf_error, mpf_plan
from .resources import asymptotic_gate_form, gate_count_pf, loglog_slope, mpf_resources

_VIOLATION_SLACK = 1e-12
# floquet-check's deviations at L >= 16 are round-off of 2-4e-14 that moves
# with the summation order; a rise under this floor is not a rise
_MONOTONE_FLOOR = 1e-12

RESOURCE_COLUMNS = ["model", "N", "t", "eps", "p", "r", "gates", "J",
                    "queries", "ancillas", "bound_kind"]

_FAMILIES = {"exact": [EXACT], "instantaneous": [INSTANTANEOUS],
             "both": [EXACT, INSTANTANEOUS]}


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str, field: str) -> dict:
    """The JSON object in the file at ``path``.  A file that cannot be read
    (missing, a directory, no permission) or parsed raises SchemaError
    naming ``field``, the option or key that gave the path."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise SchemaError(field, f"cannot read {path}: {exc.strerror or exc}")
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
        raise SchemaError(field, f"invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise SchemaError(field, "top level must be an object")
    return cfg


def _model_from_config(cfg: dict) -> Hamiltonian:
    if "model" in cfg:
        return model_from_descriptor(cfg["model"])
    if "model_path" in cfg:
        if not isinstance(cfg["model_path"], str):
            raise SchemaError("model_path", "expected a file path")
        return model_from_descriptor(_load_config(cfg["model_path"], "model_path"))
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


def _out_dir(out: Path) -> Path:
    """``out``, made now if it is missing: the directory appears only when a
    run has outputs to write, so a refused config leaves none."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # no permission, or a path changed since run checked it
        raise SchemaError("--out", f"cannot create directory {out}: {exc.strerror or exc}")
    return out


def _manifest(out: Path, subcommand: str, cfg: dict, oracle_tol: float,
              workers: int) -> None:
    # imported here: hashlib loads OpenSSL's libcrypto, which only this hash needs
    import hashlib
    blob = json.dumps(cfg, sort_keys=True).encode()
    _write_json(_out_dir(out) / "manifest.json", {
        "subcommand": subcommand,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "tdpf_version": __version__,
        "numpy_version": np.__version__,
        "oracle_tol": oracle_tol,
        "workers": workers,
    })


def _pmap(fn, items, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: a one-worker run, the default, never starts a pool
    from concurrent.futures import ThreadPoolExecutor
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
    (_out_dir(out) / f"{csv_name}.csv").write_text("\n".join(lines) + "\n")
    if summary is None:
        summary = {"rows": len(rows)}
    violations = 0
    if "violation" in header:
        col = header.index("violation")
        violations = sum(1 for r in rows if r[col])
        summary["violations"] = violations
    _write_json(out / f"{summary_name}.json", summary)
    return 1 if violations else 0


def _write_quadrature_outputs(out: Path, csv_name: str, summary_name: str, ts: list[float],
                              cells: list) -> int:
    """The t, error, bound, violation table of an integrated bound, given
    one (error, report) cell per t.  The summary adds the largest quadrature
    error estimate and the count of rows whose margin bound - error is
    within their own estimate: the quadrature does not resolve those rows."""
    rows = [[t, err, rep.value, _exceeds(err, rep.value)] for t, (err, rep) in zip(ts, cells)]
    estimates = [rep.extra["quadrature_error"] for _err, rep in cells]
    summary = {"rows": len(rows),
               "quadrature_error_max": max(estimates, default=0.0),
               "rows_within_quadrature_error": sum(
                   rep.value - err <= e for (err, rep), e in zip(cells, estimates))}
    return _write_outputs(out, csv_name, summary_name, ["t", "error", "bound", "violation"],
                          rows, summary)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_order_scan(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    orders = list_of(cfg.get("orders", [1, 2]), "orders", integer, 1, distinct=True)
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
    orders = list_of(cfg.get("orders", [1, 2]), "orders", integer, 1, distinct=True)
    grid_points = integer(cfg.get("grid_points", 65), "grid_points", 2)
    times = _times_by_order(cfg, orders)
    cells = []
    for p in orders:
        plan = suzuki_plan(p, ham.n_terms, EXACT)
        cells += [(p, plan, t) for t in times[p]]

    def cell(args):
        p, plan, t = args
        err = measure_error(plan, ham, t, oracle_tol=oracle_tol)
        try:
            tight = tight_bound(plan, ham, t, grid_points).value
        except UnsupportedOrderError:  # past the stage-resolved bound's order limit
            tight = None
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
        return measure_error(plan, ham, t, oracle_tol=oracle_tol), huyghebaert_bound(ham, t)

    return _write_quadrature_outputs(out, "huyghebaert_check", "huyghebaert_summary", ts,
                                     _pmap(cell, ts, workers))


def _monotone_decreasing(series: list[float]) -> bool:
    """No value exceeds the one before it by more than ``_MONOTONE_FLOOR``."""
    return all(b <= a + _MONOTONE_FLOOR for a, b in zip(series, series[1:]))


def _cmd_floquet_check(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    omega = number(cfg.get("omega"), "omega", True)
    t = number(cfg.get("t", 0.5), "t", True)
    mode_cutoff = integer(cfg.get("mode_cutoff", 2), "mode_cutoff", 0)
    l_values = list_of(cfg.get("l_values", [4, 8, 16, 24]), "l_values", integer, 0)
    # the summary reads each column's last row as its final value, and the
    # header names each order's columns once
    orders = list_of(cfg.get("orders", [1, 2]), "orders", integer, 1, distinct=True)
    if any(b <= a for a, b in zip(l_values, l_values[1:])):
        raise SchemaError("l_values", f"expected a strictly increasing list, got {l_values}")
    fh = fourier_hamiltonian(ham, omega, mode_cutoff)
    exact = ham.exact_evolution(0.0, t, oracle_tol)
    pf = {p: evaluate_pf(suzuki_plan(p, ham.n_terms, EXACT), ham, t,
                         oracle_tol=oracle_tol) for p in orders}

    def cell(l_max):
        space = FloquetSpace(l_max, ham.dim)
        ops = build_floquet_operators(fh, space)
        # the symmetry check reads the block columns |l| <= l_keep and
        # reconstruct block column 0, so only those columns are computed
        window, column0 = space.slab(space.l_keep), space.slab(0)
        exp_hf = ops.apply("F", t, window)
        row = [l_max, space.l_keep]
        dev_sym = check_translation_symmetry(exp_hf, space, fh.omega, t)
        tf2 = None
        for p in orders:
            plan = suzuki_plan(p, ham.n_terms, EXACT)
            tf = build_tf(plan, ops, t, window)
            if p == max(orders):
                tf2 = (tf, pf[p])
            row.append(spectral_norm(pf[p] - reconstruct(tf, space, fh.omega, t)))
            row.append(spectral_norm(pf[p] - reconstruct(
                build_tf_suzuki(ops, p, t, column0), space, fh.omega, t)))
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
    summary = {"monotone_floor": _MONOTONE_FLOOR}
    for col in range(2, len(header)):
        series = [r[col] for r in rows]
        summary[header[col]] = {
            "final": series[-1],
            "monotone_decreasing": _monotone_decreasing(series),
        }
    return _write_outputs(out, "floquet_check", "floquet_summary", header, rows, summary)


def _cmd_mpf_scan(cfg: dict, out: Path, workers: int, oracle_tol: float) -> int:
    ham = _model_from_config(cfg)
    j_values = list_of(cfg.get("J_values", [1, 2]), "J_values", integer, 1, distinct=True)
    ts = _times(cfg.get("times"), "times")
    grid_points = integer(cfg.get("grid_points", 33), "grid_points", 2)
    # the coefficients cancel the even error orders of a second-order base
    if integer(cfg.get("p", 2), "p", 1) != 2:
        raise SchemaError("p", f"the multi-product base formula is second order; got {cfg['p']}")
    cells = [(j, t) for j in j_values for t in ts]

    def cell(args):
        j, t = args
        plan = mpf_plan(j)
        err = measure_mpf_error(plan, ham, t, oracle_tol=oracle_tol)
        try:
            rep = mpf_bound(ham, t, j, plan.c_norm, grid_points)
            return [j, t, err, rep.value, True, _exceeds(err, rep.value),
                    rep.extra["alpha_local"], rep.extra["alpha_global"]]
        except OutOfRegimeError:
            return [j, t, err, None, False, False, None, None]

    rows = _pmap(cell, cells, workers)
    # the regime margin on the periodic extension, reported and not enforced
    global_margins = [r[7] * r[1] for r in rows if r[4]]
    summary = {"plans": {str(j): mpf_plan(j).to_json() for j in j_values},
               "alpha_global_t_max": max(global_margins, default=None),
               "cells_in_regime_globally": sum(m < 0.5 for m in global_margins)}
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
    n_values = list_of(cfg.get("N_values"), "N_values", integer, 2, distinct=True)
    if max(n_values) > QUBIT_CAP:
        raise SchemaError("N_values", f"every size must be at most the qubit cap"
                                      f" {QUBIT_CAP}, got {max(n_values)}")
    t = number(cfg.get("t", 1.0), "t", True)
    eps_values = (list_of(cfg["eps_values"], "eps_values", number, True, distinct=True)
                  if "eps_values" in cfg else [number(cfg.get("eps", 1e-3), "eps", True)])
    p = integer(cfg.get("p", 2), "p", 1)
    # alpha is always measured on the model; the key stays for existing configs
    one_of(cfg.get("bound_source", "measured-alpha"), "bound_source", ("measured-alpha",))
    if "calibrate_N" in cfg:
        raise SchemaError("calibrate_N", "not supported: alpha is measured at every size")
    include_mpf = one_of(cfg.get("include_mpf", False), "include_mpf", (True, False))
    params = cfg.get("model_params", {})
    if not isinstance(params, dict) or "model" in params or "N" in params:
        raise SchemaError("model_params", "expected an object without 'model' and 'N'")
    grid_points = integer(cfg.get("grid_points", 9), "grid_points", 2)
    refine_iters = integer(cfg.get("refine_iters", 12), "refine_iters", 0)

    def cell(n):
        """(rows, PF results by eps) of one size."""
        ham = model_from_descriptor(dict(params, model=model_class, N=n), field="model_params")
        rows, results = [], []
        for eps in eps_values:
            res = gate_count_pf(ham, t, eps, p, grid_points, refine_iters)
            rows.append([model_class, n, t, eps, p, res["r"], res["gates"],
                         None, None, None, "measured-alpha"])
            results.append(res)
            if include_mpf:
                mres = mpf_resources(ham, t, eps, grid_points, refine_iters)
                rows.append([model_class, n, t, eps, p, mres["r"], None,
                             mres["J"], mres["queries"], mres["ancillas"], "mpf"])
        return rows, results

    cells = _pmap(cell, n_values, workers)
    rows = [row for cell_rows, _ in cells for row in cell_rows]
    at_base_eps = [results[0] for _, results in cells]  # each size's PF at eps_values[0]
    # nu is read only now: building the models has checked it
    summary = {"asymptotic_form": asymptotic_gate_form(model_class, p, params.get("nu"))}
    if len(n_values) >= 2:
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
        return (measure_error(plan, scaled, t, oracle_tol=oracle_tol),
                nonunitary_bound(plan, scaled, t, grid_points))

    return _write_quadrature_outputs(out, "nonunitary_check", "nonunitary_summary", ts,
                                     _pmap(cell, ts, workers))


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
        cfg = _load_config(config_path, "<config>")
        tol = (number(oracle_tol, "--oracle-tol", True) if oracle_tol is not None
               else number(cfg.get("oracle_tol", 1e-12), "oracle_tol", True))
        out = Path(out_dir)
        # refused before any work when it, or its nearest existing parent,
        # is not a directory; it is made only by the first output (_out_dir)
        found = next((p for p in (out, *out.parents) if os.path.exists(p)), None)
        if found is not None and not found.is_dir():
            raise SchemaError("--out", f"cannot create directory {out_dir}:"
                                       f" {found} is not a directory")
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
