"""Span tracer installed on tdpf from outside the package.

Every traced function is replaced, in every ``tdpf`` module that binds it,
by a wrapper that records one span: (name, start, end, parent span, thread,
outermost flags, one integer of extra data).  ``from .linalg import
spectral_norm`` copies the function into each importing module, so the
tracer patches every binding whose object is the original, not only the
defining module.  Spans stay in memory until ``write`` and ``metrics`` read
them after the run.

Inclusive time (``.s``) is counted only for the outermost frame of a
function on its thread's stack, because ``evolve`` calls itself for
backward segments.  Self time (``.self_s``) is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from array import array

import numpy as np

# (metric prefix, module, attribute).  A dotted attribute patches a method on
# its class.  Names missing from the module under test are skipped, and their
# metrics read 0.
TRACED = [
    ("linalg.spectral_norm", "linalg", "spectral_norm"),
    ("linalg.matrix_exp", "linalg", "matrix_exp"),
    ("linalg.commutator", "linalg", "commutator"),
    ("linalg.embed_pauli_string", "linalg", "embed_pauli_string"),
    ("curves.scalar_eval", "curves", "ScalarCurve.eval"),
    ("curves.extrapolate_scalar", "curves", "extrapolate_scalar"),
    ("curves.curve_from_descriptor", "curves", "curve_from_descriptor"),
    ("models.curve_value", "models", "OperatorCurve.value"),
    ("models.model_from_descriptor", "models", "model_from_descriptor"),
    ("models.build_driven_chain", "models", "build_driven_chain"),
    ("models.build_long_range", "models", "build_long_range"),
    ("models.induced_norms", "models", "induced_norms"),
    ("propagator.evolve", "propagator", "evolve"),
    ("formulas.suzuki_plan", "formulas", "suzuki_plan"),
    ("formulas.evaluate_pf", "formulas", "evaluate_pf"),
    ("formulas.trotterize", "formulas", "trotterize"),
    ("formulas.measure_error", "formulas", "measure_error"),
    ("formulas.fit_order", "formulas", "fit_order"),
    ("bounds.alpha_com", "bounds", "alpha_com"),
    ("bounds.bar_alpha_com", "bounds", "bar_alpha_com"),
    ("bounds.grid_max", "bounds", "grid_max"),
    ("bounds.corollary_bound", "bounds", "corollary_bound"),
    ("bounds.tight_bound", "bounds", "tight_bound"),
    ("bounds.huyghebaert_bound", "bounds", "huyghebaert_bound"),
    ("bounds.nonunitary_bound", "bounds", "nonunitary_bound"),
    ("bounds.mpf_bound", "bounds", "mpf_bound"),
    ("multiproduct.mpf_plan", "multiproduct", "mpf_plan"),
    ("multiproduct.evaluate_mpf", "multiproduct", "evaluate_mpf"),
    ("multiproduct.measure_mpf_error", "multiproduct", "measure_mpf_error"),
    ("floquet.fourier_hamiltonian", "floquet", "fourier_hamiltonian"),
    ("floquet.floquet_space", "floquet", "floquet_space"),
    ("floquet.build_floquet_operators", "floquet", "build_floquet_operators"),
    ("floquet.build_tf", "floquet", "build_tf"),
    ("floquet.build_tf_suzuki", "floquet", "build_tf_suzuki"),
    ("floquet.reconstruct", "floquet", "reconstruct"),
    ("floquet.check_translation_symmetry", "floquet", "check_translation_symmetry"),
    ("resources.choose_trotter_steps", "resources", "choose_trotter_steps"),
    ("resources.gate_count_pf", "resources", "gate_count_pf"),
    ("resources.mpf_resources", "resources", "mpf_resources"),
    ("cli.run", "cli", "run"),
]

LAYERS = ["linalg", "curves", "models", "propagator", "formulas", "bounds",
          "multiproduct", "floquet", "resources", "cli"]

# Functions whose inclusive time is reported on its own (``<name>.s``).
INCLUSIVE = [
    "bounds.tight_bound", "bounds.corollary_bound", "bounds.mpf_bound",
    "bounds.nonunitary_bound", "bounds.huyghebaert_bound",
    "models.model_from_descriptor", "propagator.evolve", "formulas.evaluate_pf",
    "multiproduct.measure_mpf_error", "floquet.fourier_hamiltonian",
    "floquet.build_floquet_operators", "floquet.build_tf",
    "floquet.build_tf_suzuki", "floquet.check_translation_symmetry",
    "resources.gate_count_pf", "resources.mpf_resources", "cli.run",
]

_FIELDS = 8

_DIM_EXTRA = {"linalg.spectral_norm", "linalg.matrix_exp"}


def metric_names() -> list[tuple[str, str]]:
    """Every metric ``metrics`` returns, with its unit, in a fixed order."""
    out = []
    for name, _mod, _attr in TRACED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{name}.s", "s") for name in INCLUSIVE]
    out += [(f"{layer}.busy_s", "s") for layer in LAYERS]
    out += [
        ("bounds.alpha_com.p50_ms", "ms"),
        ("bounds.grid_max.evals", "count"),
        ("bounds.grid_max.refine_evals", "count"),
        ("linalg.spectral_norm.d3_sum", "count"),
        ("linalg.matrix_exp.d3_sum", "count"),
        ("models.curve_value.repeat_ratio", "ratio"),
        ("propagator.evolve.exp_calls", "count"),
        ("propagator.evolve.halvings", "count"),
        ("formulas.oracle_s", "s"),
    ]
    return out


class _ThreadState(threading.local):
    def __init__(self, n_names: int, n_layers: int):
        self.stack: list[int] = []
        self.fn_depth = [0] * n_names
        self.layer_depth = [0] * n_layers
        self.tid = threading.get_ident()


class Tracer:
    """Install with ``install()``; run the program; ``uninstall()``; then
    read ``metrics()`` and ``write(path)``."""

    def __init__(self):
        self.names = [name for name, _m, _a in TRACED]
        self._index = {name: i for i, name in enumerate(self.names)}
        self._layer_of = [LAYERS.index(name.split(".")[0]) for name in self.names]
        self._state = _ThreadState(len(self.names), len(LAYERS))
        # one span = _FIELDS consecutive doubles, appended when the call ends:
        # id, name, start, end, parent id, thread, flags, extra; flags bit 0
        # marks the outermost frame of its function, bit 1 of its layer
        self.spans = array("d")
        self._ids = itertools.count()
        self._patches: list = []
        self.grid_evals = 0
        self.grid_refine_evals = 0
        self._seen_values: set = set()
        self._curves: dict = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import tdpf.cli  # noqa: F401  (loads every module the CLI reaches)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "tdpf" or key.startswith("tdpf."))]
        for name, mod_name, attr in TRACED:
            module = sys.modules.get(f"tdpf.{mod_name}")
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = getattr(cls, meth, None) if cls is not None else None
                if original is None:
                    continue
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = self._index[name]
        layer = self._layer_of[idx]
        spans = self.spans
        state = self._state
        clock = time.perf_counter
        next_id = self._ids.__next__
        call = self._counting_grid_max(fn) if name == "bounds.grid_max" else fn
        extra_of = None
        if name in _DIM_EXTRA:
            def extra_of(args, kwargs):
                shape = getattr(args[0] if args else kwargs.get("a"), "shape", None)
                return int(shape[0]) if shape else 0
        elif name == "models.curve_value":
            seen, curves = self._seen_values, self._curves

            def extra_of(args, kwargs):
                curve = args[0]
                tau = args[1] if len(args) > 1 else kwargs["tau"]
                q = args[2] if len(args) > 2 else kwargs.get("q", 0)
                # the curve is kept alive so that its id is not reused
                curves[id(curve)] = curve
                key = (id(curve), float(tau), int(q))
                if key in seen:
                    return 1
                seen.add(key)
                return 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = extra_of(args, kwargs) if extra_of is not None else 0
            st = state
            stack = st.stack
            sid = next_id()
            parent = stack[-1] if stack else -1
            flags = (st.fn_depth[idx] == 0) | ((st.layer_depth[layer] == 0) << 1)
            st.fn_depth[idx] += 1
            st.layer_depth[layer] += 1
            stack.append(sid)
            start = clock()
            try:
                return call(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                st.fn_depth[idx] -= 1
                st.layer_depth[layer] -= 1
                spans.extend((sid, idx, start, end, parent, st.tid, flags, extra))

        return wrapper

    def _counting_grid_max(self, fn):
        """grid_max with its ``fn`` argument wrapped in a counter: the first
        n_points evaluations (one when lo == hi) are the grid, the rest are
        golden-section refinement."""
        signature = inspect.signature(fn)

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            inner = bound.arguments["fn"]
            count = 0

            def probe(x):
                nonlocal count
                count += 1
                return inner(x)

            bound.arguments["fn"] = probe
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                grid = (1 if bound.arguments["hi"] == bound.arguments["lo"]
                        else bound.arguments["n_points"])
                self.grid_evals += count
                self.grid_refine_evals += max(count - grid, 0)

        return counted

    # -- results ----------------------------------------------------------

    def _arrays(self):
        """Span columns ordered by span id, so that a parent id indexes its row."""
        table = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, _FIELDS)
        table = table[np.argsort(table[:, 0], kind="stable")]
        ints = table[:, [1, 4, 5, 6, 7]].astype(np.int64)
        return (ints[:, 0], table[:, 2].copy(), table[:, 3].copy(), ints[:, 1],
                ints[:, 2], ints[:, 3], ints[:, 4])

    def write(self, path) -> None:
        """Save every span as columns of an ``.npz`` file."""
        name, start, end, parent, thread, flags, extra = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end,
                 parent=parent, thread=thread, flags=flags, extra=extra)

    def metrics(self) -> dict[str, float]:
        """Per-function and per-layer figures derived from the spans."""
        name, start, end, parent, _thread, flags, extra = self._arrays()
        n = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=self_time, minlength=n)
        incl_s = np.bincount(name, weights=dur * (flags & 1), minlength=n)
        layer_of = np.array(self._layer_of, dtype=np.int64)
        busy = np.bincount(layer_of[name], weights=dur * ((flags >> 1) & 1),
                           minlength=len(LAYERS)) if len(name) else np.zeros(len(LAYERS))
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        ix = self._index

        out: dict[str, float] = {}
        for i, nm in enumerate(self.names):
            out[f"{nm}.calls"] = int(calls[i])
            out[f"{nm}.self_s"] = float(self_s[i])
        for nm in INCLUSIVE:
            out[f"{nm}.s"] = float(incl_s[ix[nm]])
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.busy_s"] = float(busy[k])

        alpha = dur[name == ix["bounds.alpha_com"]]
        out["bounds.alpha_com.p50_ms"] = float(np.median(alpha) * 1e3) if alpha.size else 0.0
        out["bounds.grid_max.evals"] = self.grid_evals
        out["bounds.grid_max.refine_evals"] = self.grid_refine_evals
        for nm in _DIM_EXTRA:
            dims = extra[name == ix[nm]]
            out[f"{nm}.d3_sum"] = int(np.sum(dims ** 3))
        repeats = extra[name == ix["models.curve_value"]]
        out["models.curve_value.repeat_ratio"] = (float(repeats.mean())
                                                 if repeats.size else 0.0)
        evolve, norm, mexp = (ix["propagator.evolve"], ix["linalg.spectral_norm"],
                              ix["linalg.matrix_exp"])
        out["propagator.evolve.exp_calls"] = int(np.sum((name == mexp)
                                                        & (parent_name == evolve)))
        # one norm sizes the first step count, each further norm follows a halving
        norms_under = np.bincount(parent[(name == norm) & (parent_name == evolve)],
                                  minlength=len(dur))
        out["propagator.evolve.halvings"] = int(np.sum(np.maximum(norms_under - 1, 0)))
        out["formulas.oracle_s"] = float(np.sum(dur[(name == evolve) & (
            parent_name == ix["formulas.measure_error"])]))
        return out
