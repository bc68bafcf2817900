"""Layer tracing for the sixvertex benchmark, applied from outside the package.

A ``Tracer`` aggregates nested call spans in memory as they close: for each
span name it keeps the call count, the inclusive busy time of its outermost
activations and the distinct call keys; for each layer (package module) it
keeps the self time, i.e. span time minus the part covered by child spans;
and for the prefix_oracle layer as a whole, its entries from other layers and
their inclusive time.
Spans are strictly nested because the program is single-threaded, so the
covered part of a span is the sum of its direct children's durations.

``traced(tracer)`` wraps the public functions and public methods of every
layer module, plus the runner's per-suite dispatch, and rebinds each wrapper
in every ``sixvertex`` module that holds the original object, so calls made
through ``from .vertex_core import transfer``-style bindings are seen too.
The wrappers only read the clock and record keys; they never touch the
program's arguments, results or random state.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "sixvertex"
LAYERS = ("cli", "report", "vertex_core", "numkit", "dwbc",
          "functional_system", "zeros", "roots_of_unity", "prefix_oracle")
# The layer reported as a whole: entries from another layer and their time.
ORACLE = "prefix_oracle"


def _lam_params_key(args):
    return complex(args[0]), args[1]


def _state_x_key(args):
    return args[0].index, complex(args[1])


# Span names whose distinct call keys are recorded, for unique_frac.
KEYED = {
    "vertex_core.monodromy": _lam_params_key,
    "vertex_core.transfer": _lam_params_key,
    "functional_system.EigenState.lam": _state_x_key,
}

CALLS = (
    "vertex_core.monodromy", "vertex_core.transfer", "vertex_core.b_operator",
    "vertex_core.monodromy_full",
    "functional_system.EigenState.lam", "functional_system.f_n",
    "functional_system.v_coeff", "functional_system.theorem_terms",
    "dwbc.b_product_state", "dwbc.z_bproduct", "dwbc.z_izergin",
    "zeros.extract_zeros", "zeros.poly_in_x",
    "roots_of_unity.check_truncation",
    "numkit.eig_general", "numkit.fit_poly", "numkit.poly_roots",
)
BUSY = (
    "vertex_core.monodromy", "vertex_core.transfer", "vertex_core.b_operator",
    "vertex_core.monodromy_full",
    "functional_system.EigenState.lam", "functional_system.f_n",
    "functional_system.v_coeff", "functional_system.theorem_terms",
    "functional_system.transfer_eigenstates", "functional_system.check_tphi",
    "functional_system.check_fl", "functional_system.check_theorem",
    "dwbc.b_product_state", "dwbc.z_bproduct", "dwbc.z_izergin",
    "dwbc.check_highest_weight",
    "zeros.extract_zeros", "zeros.poly_in_x", "zeros.check_lz01",
    "zeros.check_zero_coincidence", "zeros.wronskian_coeffs",
    "zeros.wronskian_scale",
    "roots_of_unity.check_truncation", "roots_of_unity.check_l3_relation",
    "roots_of_unity.check_l4_relation",
    "roots_of_unity.l4_specialized_residuals",
    "roots_of_unity.truncated_expansion_residual",
    "roots_of_unity.bethe_residual",
    "numkit.eig_general", "numkit.fit_poly", "numkit.poly_roots",
)


@dataclass
class SpanStats:
    calls: int = 0
    busy: float = 0.0
    keys: set = field(default_factory=set)


class Tracer:
    """In-memory span aggregation for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.oracle_calls = 0
        self.oracle_busy = 0.0
        self._stack = []  # [name, layer, start, time covered by children]
        self._name_depth: dict[str, int] = {}
        self._oracle_depth = 0

    def enter(self, name: str, layer: str, key=None) -> None:
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.calls += 1
        if key is not None:
            stats.keys.add(key)
        self._name_depth[name] = self._name_depth.get(name, 0) + 1
        if layer == ORACLE:
            if self._oracle_depth == 0:
                self.oracle_calls += 1
            self._oracle_depth += 1
        self._stack.append([name, layer, self.clock(), 0.0])

    def exit(self) -> None:
        name, layer, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.self_time[layer] += duration - covered
        if self._stack:
            self._stack[-1][3] += duration
        # Inclusive time counts once per outermost activation, so recursion
        # (direct or through another layer) is not double counted.
        self._name_depth[name] -= 1
        if self._name_depth[name] == 0:
            self.spans[name].busy += duration
        if layer == ORACLE:
            self._oracle_depth -= 1
            if self._oracle_depth == 0:
                self.oracle_busy += duration

    def calls(self, name: str) -> int:
        stats = self.spans.get(name)
        return stats.calls if stats else 0

    def busy(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats.busy if stats else 0.0

    def unique_frac(self, name: str) -> float:
        """Share of calls with a distinct key; 0 when never called."""
        stats = self.spans.get(name)
        return len(stats.keys) / stats.calls if stats and stats.calls else 0.0


def layer_metrics(tracer: Tracer, L: int, records: int) -> dict:
    """Per-layer metrics of one traced run, as ``{name: (value, unit)}``."""
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (tracer.calls(name), "count")
    for name in [f"cli.suite.{s}" for s in suites()] + list(BUSY):
        out[f"{name}.busy_s"] = (tracer.busy(name), "s")
    for name in KEYED:
        out[f"{name}.unique_frac"] = (tracer.unique_frac(name), "fraction")
    # Computed, not measured: four dense 2^L x 2^L complex128 blocks per call.
    out["vertex_core.monodromy.bytes_computed"] = (
        tracer.calls("vertex_core.monodromy") * 4 * 16 * 4 ** L, "bytes")
    extracts = tracer.calls("zeros.extract_zeros")
    out["zeros.fits_per_state"] = (
        tracer.calls("zeros.poly_in_x") / extracts if extracts else 0.0, "ratio")
    out[f"{ORACLE}.calls"] = (tracer.oracle_calls, "count")
    out[f"{ORACLE}.busy_s"] = (tracer.oracle_busy, "s")
    out["cli.records"] = (records, "count")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer.self_time[layer], "s")
    return out


def suites() -> tuple[str, ...]:
    """The program's suite names, each timed as ``cli.suite.<name>``."""
    return sys.modules[f"{PACKAGE}.cli"].SUITES


def _wrap(fn, name: str, layer: str, tracer: Tracer):
    key_of = KEYED.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name, layer, key_of(args) if key_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _targets():
    """(owner, attribute, original, span name, layer) for everything traced."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((mod, attr, obj, f"{layer}.{attr}", layer))
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        out.append((obj, meth, fn, f"{layer}.{attr}.{meth}", layer))
    runner = sys.modules[f"{PACKAGE}.cli"]._Runner
    for suite in suites():
        out.append((runner, f"run_{suite}", vars(runner)[f"run_{suite}"],
                    f"cli.suite.{suite}", "cli"))
    return out


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


@contextmanager
def traced(tracer: Tracer):
    """Route every call of a traced function through ``tracer`` meanwhile."""
    for layer in LAYERS:
        __import__(f"{PACKAGE}.{layer}")
    targets = _targets()
    wrappers = {id(orig): _wrap(orig, name, layer, tracer)
                for _, _, orig, name, layer in targets}
    originals = {id(orig): orig for _, _, orig, _, _ in targets}
    restore = []
    try:
        for owner, attr, orig, _, _ in targets:
            restore.append((owner, attr, orig))
            setattr(owner, attr, wrappers[id(orig)])
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        leftover = unwrapped_bindings(originals.values())
        if leftover:
            raise RuntimeError(f"untraced bindings remain: {leftover}")
        yield tracer
    finally:
        for owner, attr, orig in reversed(restore):
            setattr(owner, attr, orig)


def unwrapped_bindings(originals) -> list[str]:
    """Module and class attributes that still hold one of ``originals``."""
    ids = {id(o) for o in originals}
    found = []
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            if id(obj) in ids:
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{m}"
                          for m, fn in vars(obj).items() if id(fn) in ids]
    return found
