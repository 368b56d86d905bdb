"""Benchmark of the tdpf laboratory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed generates the workload's configs
(``workloads.py``) into ``.perfbench_work/``; tdpf reads only those files.

--trace 0 times the laboratory the way users run it: one fresh
``python -m tdpf.cli`` process per subcommand, one at a time, with
``--workers 1``.  It reports
  setup_s      median over SETUP_REPEATS fresh interpreters that import
               tdpf.cli and build the workload's models;
  run_s        median over passes of the summed wall time of the pass's
               subcommand processes, start-up included (two passes, then
               more while one more still ends within --seconds; no pass is
               left out as a warm-up, since users pay a cold start on every
               invocation);
  peak_rss_mb  largest ru_maxrss among the subcommand processes;
  pass_ratio   cells that pass ``checks.py`` over cells attempted (a cell
               is one CSV row); its complement is the failed-cell ratio.
--trace 1 calls ``tdpf.cli.run`` in this process: after one untimed pass
that pays the in-process imports, pairs of an untraced pass and a pass
traced by ``tracer.py``, in alternating order.  It reports the per-layer metrics (medians over pairs) and
trace.overhead_ratio, traced over untraced wall time.
It also fails every cell whose traced CSV row differs from the untraced one.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it holds the provenance.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0    # the whole run, so that it ends within 180 s

SETUP_SCRIPT = (
    "import json, sys\n"
    "import tdpf.cli\n"
    "from tdpf.models import model_from_descriptor\n"
    "for desc in json.load(open(sys.argv[1])):\n"
    "    model_from_descriptor(desc)\n"
)

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_ratio", "ratio")]
PER_LAYER = tracer.metric_names() + [("cli.cells", "count"),
                                     ("trace.overhead_ratio", "ratio")]


def main(argv=None, tiny: bool = False, reference_dir: Path | None = REFERENCE_DIR) -> int:
    """``tiny`` shrinks the workload and ``reference_dir`` replaces the stored
    references (None skips the comparison); the self-test uses both."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tdpf" / "cli.py").is_file():
        print(f"no tdpf sources under {ROOT / 'src'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed, tiny)
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    configs = []
    for i, step in enumerate(workload.steps):
        path = work / "configs" / f"{i}-{step.subcommand}.json"
        path.write_text(json.dumps(step.config, indent=1, sort_keys=True))
        configs.append(path)
    references = [None if reference_dir is None else reference_dir / args.workload / step.csv
                  for step in workload.steps]

    deadline = time.monotonic() + TIME_LIMIT_S
    if args.trace:
        result = _traced(workload, configs, references, work, args.seconds, deadline)
        units = dict(PER_LAYER)
    else:
        result = _timed(workload, configs, references, work, args.seconds, deadline)
        units = dict(END_TO_END)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in result.pop("metrics").items()}
    provenance = _provenance(args, result.pop("samples"), units)
    summary = {"correct": result["failed"] == 0, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {"provenance": provenance, **summary, "failures": result["reasons"]}, indent=1))
    for reason in result["reasons"]:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(summary))
    return 0


# ---------------------------------------------------------------------------
# Fresh-process timing (--trace 0)
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    # users' runs find compiled bytecode; the warm-up start writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(cmd: list[str], env: dict, cwd: Path, log: Path,
           deadline: float) -> tuple[float, int, int]:
    """Run one child to its end: (wall seconds, exit code, ru_maxrss in KiB).
    A child still running at the deadline is killed."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        reaped = False
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def _another(durations: list[float], started: float, seconds: float,
             deadline: float) -> bool:
    """Whether to start another sample: always a first one, then as long as
    one more of the latest length still ends within --seconds."""
    if not durations:
        return True
    now = time.monotonic()
    return now - started + durations[-1] <= seconds and now + 2 * durations[-1] < deadline


def _timed(workload, configs, references, work: Path, seconds: float,
           deadline: float) -> dict:
    env = _child_env()
    models = work / "models.json"
    models.write_text(json.dumps(workload.models))
    setup_cmd = [sys.executable, "-c", SETUP_SCRIPT, str(models)]
    # one untimed start, so that no timed one pays for compiling bytecode
    _spawn(setup_cmd, env, work, work / "warmup.log", deadline)
    setup = [_spawn(setup_cmd, env, work, work / f"setup{k}.log", deadline)[0]
             for k in range(SETUP_REPEATS)]

    tally = {"peak_kib": 0, "attempted": 0, "failed": 0, "reasons": []}

    def run_pass(name: str) -> float:
        wall = 0.0
        for i, (step, config, ref) in enumerate(zip(workload.steps, configs, references)):
            out = work / name / f"{i}-{step.subcommand}"
            out.mkdir(parents=True)
            cmd = [sys.executable, "-m", "tdpf.cli", step.subcommand, "--config",
                   str(config), "--out", str(out), "--workers", "1"]
            elapsed, code, rss = _spawn(cmd, env, work, out / "tdpf.log", deadline)
            wall += elapsed
            tally["peak_kib"] = max(tally["peak_kib"], rss)
            verdict = checks.check_step(step.subcommand, out / step.csv, step.cells,
                                        code, ref, workload.seed)
            tally["attempted"] += verdict.cells
            tally["failed"] += verdict.n_failed
            tally["reasons"] += [f"{name} {step.subcommand}: {r}" for r in verdict.reasons]
        return wall

    passes: list[float] = []
    started = time.monotonic()
    while len(passes) < 2 or _another(passes, started, seconds, deadline):
        passes.append(run_pass(f"pass{len(passes)}"))
    attempted, failed = tally["attempted"], tally["failed"]
    return {
        "metrics": {"setup_s": statistics.median(setup),
                    "run_s": statistics.median(passes),
                    "peak_rss_mb": tally["peak_kib"] / 1024.0,
                    "pass_ratio": (attempted - failed) / attempted},
        "samples": {"setup_s": setup, "pass_s": passes,
                    "cells_per_pass": attempted // len(passes)},
        "attempted": attempted, "failed": failed, "reasons": tally["reasons"][:20],
    }


# ---------------------------------------------------------------------------
# In-process tracing (--trace 1)
# ---------------------------------------------------------------------------

def _traced(workload, configs, references, work: Path, seconds: float,
            deadline: float) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import tdpf.cli

    def run_pass(out_root: Path, spans) -> float:
        if spans is not None:
            spans.install()
        start = time.perf_counter()
        try:
            for i, (step, config) in enumerate(zip(workload.steps, configs)):
                out = out_root / f"{i}-{step.subcommand}"
                try:
                    codes[out] = tdpf.cli.run(step.subcommand, str(config), str(out),
                                              workers=1)
                except Exception:
                    # the CLI process would exit 1; its cells fail in checks
                    traceback.print_exc()
                    codes[out] = 1
        finally:
            wall = time.perf_counter() - start
            if spans is not None:
                spans.uninstall()
        return wall

    codes: dict[Path, int] = {}
    run_pass(work / "warmup-pass", None)   # untimed: imports and lazy set-up
    samples: list[dict] = []
    attempted, failed, reasons = 0, 0, []
    started = time.monotonic()
    while _another([s["pair_s"] for s in samples], started, seconds, deadline):
        k = len(samples)
        spans = tracer.Tracer()
        plain_dir, traced_dir = work / f"pair{k}" / "untraced", work / f"pair{k}" / "traced"
        # alternate which pass runs first, so warm caches favour neither
        if k % 2 == 0:
            plain = run_pass(plain_dir, None)
            traced = run_pass(traced_dir, spans)
        else:
            traced = run_pass(traced_dir, spans)
            plain = run_pass(plain_dir, None)
        cells = 0
        for i, (step, ref) in enumerate(zip(workload.steps, references)):
            name = f"{i}-{step.subcommand}"
            plain_csv, traced_csv = plain_dir / name / step.csv, traced_dir / name / step.csv
            verdicts = [checks.check_step(step.subcommand, csv, step.cells, codes[csv.parent],
                                          ref, workload.seed)
                        for csv in (plain_csv, traced_csv)]
            for row in _differing_rows(plain_csv, traced_csv, step.cells):
                verdicts[1].fail(row, f"row {row} differs from the untraced run")
            for verdict, side in zip(verdicts, ("untraced", "traced")):
                attempted += verdict.cells
                failed += verdict.n_failed
                reasons += [f"pair {k} {side} {step.subcommand}: {r}" for r in verdict.reasons]
            cells += step.cells
        metrics = spans.metrics()
        metrics["cli.cells"] = cells
        metrics["trace.overhead_ratio"] = traced / plain
        samples.append({"metrics": metrics, "pair_s": plain + traced})
    spans.write(work / "spans.npz")
    # counts repeat exactly from pair to pair; median_low keeps them whole
    return {
        "metrics": {name: (statistics.median_low if isinstance(samples[0]["metrics"][name], int)
                           else statistics.median)(s["metrics"][name] for s in samples)
                    for name, _unit in PER_LAYER},
        "samples": {"pairs": len(samples), "cells_per_pass": samples[0]["metrics"]["cli.cells"]},
        "attempted": attempted, "failed": failed, "reasons": reasons[:20],
    }


def _differing_rows(plain: Path, traced: Path, cells: int) -> list[int]:
    """Rows of the traced CSV that are not byte-identical to the untraced one.
    A missing or short file already fails its cells in ``checks``."""
    if not plain.is_file() or not traced.is_file():
        return []
    a = plain.read_bytes().splitlines()[1:]
    b = traced.read_bytes().splitlines()[1:]
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y and i < cells]


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _provenance(args, samples: dict, units: dict) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": samples, "units": units,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the tdpf sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tdpf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, left at its default."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
