"""Quick self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that
  1. every metric BENCHMARK.json names is printed, with its unit, by a run
     with --trace 0 and by one with --trace 1;
  2. a traced run writes CSVs byte-identical to the untraced run beside it,
     on every workload;
  3. a reference that matches gives pass_ratio 1, and the same reference
     with one value corrupted drives pass_ratio below 1 (the failed-cell
     ratio above 0).
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run
import workloads

ROOT = run.ROOT
WORK = ROOT / ".perfbench_work"


def _run(argv: list[str], reference_dir: Path | None) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, tiny=True, reference_dir=reference_dir)
    if code != 0:
        raise SystemExit(f"run.py {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _argv(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]


def _expect(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []

    # 2. traced and untraced CSVs agree byte for byte, on every workload
    for name in workloads.NAMES:
        result = _run(_argv(name, 1), None)
        pair = WORK / f"{name}-seed0-trace1" / "pair0"
        same = all(
            (pair / "traced" / csv.relative_to(pair / "untraced")).read_bytes()
            == csv.read_bytes()
            for csv in (pair / "untraced").rglob("*.csv"))
        _expect(same and result["failed"] == 0,
                f"{name}: traced CSVs are byte-identical to untraced ones", failures)

    # 1. every named metric, with its unit, on the last traced run and a timed run
    for trace, key in ((1, "per_layer"), (0, "end_to_end")):
        if trace == 0:
            # reference for check 3: the tiny bounds-small outputs at seed 0
            refs = WORK / "selftest-reference"
            shutil.rmtree(refs, ignore_errors=True)
            (refs / "bounds-small").mkdir(parents=True)
            steps = workloads.build("bounds-small", 0, tiny=True).steps
            untraced = WORK / "bounds-small-seed0-trace1" / "pair0" / "untraced"
            for i, step in enumerate(steps):
                shutil.copy(untraced / f"{i}-{step.subcommand}" / step.csv,
                            refs / "bounds-small" / step.csv)
            result = _run(_argv("bounds-small", 0), refs)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        _expect(got == want, f"--trace {trace} prints every {key} metric with its unit",
                failures)

    # 3. a matching reference passes; a corrupted one fails cells
    _expect(result["metrics"]["pass_ratio"]["value"] == 1.0 and result["failed"] == 0,
            "pass_ratio is 1 against a matching reference", failures)
    csv = refs / "bounds-small" / "floquet_check.csv"
    lines = csv.read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = repr(float(fields[2]) * 1.001)
    lines[1] = ",".join(fields)
    csv.write_text("\n".join(lines) + "\n")
    result = _run(_argv("bounds-small", 0), refs)
    _expect(result["metrics"]["pass_ratio"]["value"] < 1.0 and result["failed"] > 0,
            "a corrupted reference value drives pass_ratio below 1", failures)

    print("self-test " + ("passed" if not failures else f"failed: {len(failures)} check(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
