"""Write the seed-0 reference CSVs that ``checks.py`` compares against.

    python3 perfbench/make_reference.py

Run it from the repository root only when a change is meant to alter the
laboratory's numbers, and say so where the change is described: the
references are what every later run is held to.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tdpf.cli

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        workload = workloads.build(name, 0)
        target = REFERENCE / name
        target.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            for i, step in enumerate(workload.steps):
                config = Path(tmp) / f"{i}.json"
                config.write_text(json.dumps(step.config))
                out = Path(tmp) / str(i)
                code = tdpf.cli.run(step.subcommand, str(config), str(out), workers=1)
                if code != 0:
                    print(f"{name} {step.subcommand} exited {code}", file=sys.stderr)
                    return 1
                shutil.copy(out / step.csv, target / step.csv)
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
