"""Seeded workload generator.

A workload is a list of tdpf subcommands, each with the JSON config it runs,
plus the model descriptors its set-up builds.  Seed 0 uses the drive
parameters of the shipped ``configs/*.json``; the grids (times, N, L) are
the benchmark's own, cut to fit its time budget.  Any other seed draws drive
amplitudes and phases from narrow ranges around the shipped ones, inside
which every check in ``checks.py`` holds and the work done barely moves (the
oracle's matrix_exp count by under 0.5 %).  Drive frequencies never change,
so the Floquet drive stays commensurate with the Floquet frequency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Relative half-width of the amplitude draw and half-width of the phase draw.
# Wider draws move the adaptive propagator's step doubling and the order-scan
# errors across the fit window, which changes the work done per seed.
AMP_SPREAD = 0.03
PHASE_SPREAD = 0.05

WHY = {
    "bounds-small": "small matrices, per-call cost: alpha_com/grid_max sums of "
                    "4x4 and 16x16 norms with the curve cache on, and the "
                    "Floquet lift's 2x2-block norms up to L=32",
    "alpha-large": "bounds layer on big matrices: alpha_com at dim 128 and 256 "
                   "with the curve cache off, LAPACK-bound",
}
NAMES = list(WHY)


@dataclass
class Step:
    subcommand: str
    config: dict
    csv: str            # the CSV grid the subcommand writes
    cells: int          # its row count


@dataclass
class Workload:
    name: str
    seed: int
    steps: list[Step]
    models: list[dict] = field(default_factory=list)   # descriptors set-up builds


class _Drive:
    """Drive parameters of one seed."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed) if seed else None

    def trig(self, amp: float, omega: float, offset: float | None = None) -> dict:
        phase = 0.0
        if self._rng is not None:
            amp *= 1.0 + self._rng.uniform(-AMP_SPREAD, AMP_SPREAD)
            phase = self._rng.uniform(-PHASE_SPREAD, PHASE_SPREAD)
        curve = {"kind": "trig", "amp": amp, "omega": omega}
        if phase:
            curve["phase"] = phase
        if offset is not None:
            curve["offset"] = offset
        return curve

    def chain(self, n: int, boundary: str | None = None) -> dict:
        """The shipped driven chain: trig XX bonds and trig Z fields."""
        model = {"model": "nn-chain", "N": n,
                 "bond_curve": self.trig(0.3, 2.0, offset=1.0),
                 "field_curve": self.trig(0.8, 3.1)}
        if boundary is not None:
            model["boundary"] = boundary
        return model


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; ``tiny`` shrinks every grid so a
    self-test runs in seconds."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    drive = _Drive(seed)
    return _BUILDERS[name](drive, seed, tiny)


def _bounds_small(drive: _Drive, seed: int, tiny: bool) -> Workload:
    chain4, chain2 = drive.chain(4), drive.chain(2)
    bound_times = {"1": [0.01, 0.035], "2": [0.01, 0.02, 0.035, 0.05], "4": [0.035]}
    if tiny:
        bound_times = {"1": [0.02], "2": [0.02]}
    mpf_j = [1] if tiny else [1, 2]
    nonunitary_times = [0.02, 0.04] if tiny else [0.02, 0.04, 0.06]
    huyghebaert_times = [0.02, 0.04] if tiny else [0.02, 0.04, 0.06]
    steps = [
        Step("bound-check", {"model": chain4, "orders": [int(p) for p in bound_times],
                             "times": [0.01], "times_by_order": bound_times,
                             "grid_points": 9 if tiny else 65}, "bound_check.csv",
             sum(map(len, bound_times.values()))),
        Step("mpf-scan", {"model": chain2, "J_values": mpf_j, "times": [0.04],
                          "grid_points": 9 if tiny else 33}, "mpf_scan.csv", len(mpf_j)),
        Step("nonunitary-check", {"model": chain2, "scale_im": 0.1,
                                  "times": nonunitary_times,
                                  "grid_points": 9 if tiny else 33},
             "nonunitary_check.csv", len(nonunitary_times)),
        Step("huyghebaert-check", {"model": chain2, "times": huyghebaert_times},
             "huyghebaert_check.csv", len(huyghebaert_times)),
    ]
    floquet_model, floquet_step = _floquet(drive, tiny)
    steps.append(floquet_step)
    return Workload("bounds-small", seed, steps, [chain4, chain2, floquet_model])


def _alpha_large(drive: _Drive, seed: int, tiny: bool) -> Workload:
    n_values = [4, 5] if tiny else [7, 8]
    chain = drive.chain(n_values[0], boundary="periodic")
    params = {key: chain[key] for key in ("bond_curve", "field_curve", "boundary")}
    cfg = {"model_class": "nn-chain", "N_values": n_values, "t": 0.5, "eps": 0.001,
           "p": 2, "bound_source": "measured-alpha", "grid_points": 3,
           "refine_iters": 0, "model_params": params}
    models = [dict(chain, N=n) for n in n_values]
    return Workload("alpha-large", seed,
                    [Step("resource-table", cfg, "resource_table.csv", len(n_values))],
                    models)


def _floquet(drive: _Drive, tiny: bool) -> tuple[dict, Step]:
    """The Floquet lift of a 1-qubit drive: its model and its step."""
    # the Z drive keeps omega = 2.0, the Floquet frequency, at every seed
    model = {"model": "custom", "N": 1, "terms": [
        {"gamma": 1, "paulis": [[0, "X"]], "curve": {"kind": "constant", "value": 1.0}},
        {"gamma": 2, "paulis": [[0, "Z"]], "curve": drive.trig(2.0, 2.0)},
    ]}
    l_values = [4, 8] if tiny else [4, 8, 16, 24, 32]
    cfg = {"model": model, "omega": 2.0, "t": 0.5, "mode_cutoff": 1,
           "l_values": l_values, "orders": [1, 2] if tiny else [1, 2, 4]}
    return model, Step("floquet-check", cfg, "floquet_check.csv", len(l_values))


_BUILDERS = {
    "bounds-small": _bounds_small,
    "alpha-large": _alpha_large,
}
