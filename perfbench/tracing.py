"""Layer spans for the traced run, recorded from outside the package.

`Tracer.install` rebinds the public functions of cohphase's modules to timing
shims and `Tracer.uninstall` puts the originals back; nothing under src/
changes.  Each public function belongs to a group, and a group to the layer
named before its first dot.  The oracle and cli modules hold several groups,
so their shims replace the module's own globals and calls between their
groups are traced too.  core, analytic and verify are one group each: their
shims replace the bindings other modules hold (cli imports `wrap_principal`
by name and calls `analytic.X` through the module, which is swapped for a view
whose public functions are shims), so calls inside such a module stay direct.

A call through a shim makes a span (group, parent span, start, end, outcome)
unless the innermost open span has the same group, in which case the call is
part of that span.  A span's self time is its duration minus that of its
child spans; a layer's total time sums its spans whose parent lies in another
layer, and those spans are the layer's calls.  Spans are kept in memory in
flat arrays and written out by `save`.
"""

from __future__ import annotations

import time
import types
from array import array
from typing import Callable

import numpy as np

import cohphase
from cohphase import analytic, cli, core, oracle, verify
from cohphase.core import DegenerateStateError, UndefinedTotalPhaseError

LAYERS = ("core", "analytic", "oracle", "verify", "cli")

#: group -> (module, public names); "Class.method" names a classmethod.
GROUPS: dict[str, tuple[object, tuple[str, ...]]] = {
    "core": (core, ("circle_distance", "wrap_principal", "unwrap_sequence", "EntangledSpec.antipodal")),
    "analytic": (analytic, tuple(n for n in analytic.__all__ if n != "OverlapDecomposition")),
    "oracle.cutoff": (oracle, ("fock_cutoff", "poisson_tail")),
    "oracle.build": (oracle, ("coherent_amplitudes", "build_coherent", "build_entangled")),
    "oracle.evolve": (oracle, ("evolve",)),
    "oracle.overlap": (oracle, ("state_overlap", "oracle_total_phase")),
    "oracle.energy": (oracle, ("mean_energy",)),
    "oracle.phase": (oracle, ("oracle_geometric_phase", "oracle_dynamical_phase", "quadrature_dynamical_phase")),
    "verify": (verify, ("run_verification", "format_report")),
    "cli.io": (cli, ("main",)),
    "cli.sweep": (cli, ("sweep_points",)),
    "cli.render": (cli, ("render_sweep_csv",)),
}

OK, UNDEFINED, OVERFLOW, RAISED = range(4)

_MODULES = (cohphase, core, analytic, oracle, verify, cli)

#: Modules that are a single group: only bindings outside them are rebound.
_SINGLE_GROUP = (core, analytic, verify)


def _array_bytes(value: object) -> int:
    if isinstance(value, oracle.TruncatedState):
        return value.coeffs.nbytes
    if isinstance(value, np.ndarray):
        return value.nbytes
    return 0


class Tracer:
    """Spans and boundary counters for one traced run."""

    def __init__(self, callers: tuple = ()) -> None:
        """callers: modules outside the package whose bindings are rebound too."""
        self.groups = list(GROUPS)
        self.group = array("B")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outcome = array("B")
        self._open: list[int] = []
        self._open_group: list[int] = []
        #: Grid cells the oracle built, array bytes crossing its boundary
        #: (arguments read plus results written), and sweep rows produced.
        self.cells = 0
        self.bytes = 0
        self.rows = 0
        self.n_max: list[int] = []
        self._patches = self._make_patches(callers)

    def _observer(self, group: str) -> Callable[[tuple, object], None] | None:
        if group == "cli.sweep":
            def count_rows(args: tuple, result: object) -> None:
                self.rows += len(result)
            return count_rows
        if not group.startswith("oracle."):
            return None

        def count_arrays(args: tuple, result: object) -> None:
            self.bytes += sum(map(_array_bytes, args)) + _array_bytes(result)
            if group == "oracle.build" and isinstance(result, oracle.TruncatedState):
                self.cells += result.coeffs.size
                self.n_max.extend(result.n_max)
        return count_arrays

    def _shim(self, group_id: int, fn: Callable, observe: Callable | None) -> Callable:
        clock = time.perf_counter_ns
        open_spans, open_groups = self._open, self._open_group
        groups, parents, starts, ends, outcomes = self.group, self.parent, self.start, self.end, self.outcome

        def traced(*args, **kwargs):
            if open_groups and open_groups[-1] == group_id:
                return fn(*args, **kwargs)
            index = len(groups)
            groups.append(group_id)
            parents.append(open_spans[-1] if open_spans else -1)
            starts.append(0)
            ends.append(0)
            outcomes.append(OK)
            open_spans.append(index)
            open_groups.append(group_id)
            outcome = OK
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except OverflowError:
                outcome = OVERFLOW
                raise
            except (UndefinedTotalPhaseError, DegenerateStateError):
                outcome = UNDEFINED
                raise
            except BaseException:
                outcome = RAISED
                raise
            finally:
                stop = clock()
                open_spans.pop()
                open_groups.pop()
                starts[index] = start
                ends[index] = stop
                outcomes[index] = outcome
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _make_patches(self, callers: tuple) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every binding to rebind."""
        modules = _MODULES + callers
        patches = []
        views = {module: dict(vars(module)) for module in _SINGLE_GROUP}
        for group_id, (group, (module, names)) in enumerate(GROUPS.items()):
            observe = self._observer(group)
            for name in names:
                if "." in name:
                    cls_name, method = name.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    shim = classmethod(self._shim(group_id, original.__func__, observe))
                    patches.append((owner, method, original, shim))
                    continue
                original = getattr(module, name)
                shim = self._shim(group_id, original, observe)
                if module in views:
                    views[module][name] = shim
                patches.extend(
                    (mod, attr, original, shim)
                    for mod in modules
                    if mod not in views or mod is not module
                    for attr, value in vars(mod).items()
                    if value is original
                )
        for module, namespace in views.items():
            view = types.SimpleNamespace(**namespace)
            patches.extend(
                (mod, attr, module, view)
                for mod in modules
                for attr, value in vars(mod).items()
                if value is module and mod is not cohphase
            )
        return patches

    def install(self) -> None:
        for owner, attr, _, shim in self._patches:
            setattr(owner, attr, shim)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "group": np.frombuffer(self.group, dtype=np.uint8),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "outcome": np.frombuffer(self.outcome, dtype=np.uint8),
        }

    def save(self, path: str) -> None:
        """Write every span, with the group names, as an uncompressed .npz."""
        np.savez(path, group_names=np.array(self.groups), **self.arrays())

    def summary(self, ops: int) -> dict[str, float]:
        """Per-op self and total seconds per layer and group, plus the counters."""
        spans = self.arrays()
        group, parent, outcome = spans["group"], spans["parent"], spans["outcome"]
        duration = (spans["end_ns"] - spans["start_ns"]) / 1e9
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(group))
        self_time = duration - child
        layer_of_group = np.array([LAYERS.index(name.split(".")[0]) for name in self.groups])
        layer = layer_of_group[group]
        parent_layer = np.where(nested, layer[np.maximum(parent, 0)], -1)
        entry = layer != parent_layer

        out: dict[str, float] = {}
        for group_id, name in enumerate(self.groups):
            if "." in name:
                out[f"{name}.self_s"] = float(self_time[group == group_id].sum()) / ops
        for layer_id, name in enumerate(LAYERS):
            mine = layer == layer_id
            calls = int((entry & mine).sum())
            total = float(duration[entry & mine].sum())
            out[f"{name}.self_s"] = float(self_time[mine].sum()) / ops
            out[f"{name}.total_s"] = total / ops
            out[f"{name}.calls"] = calls / ops
            if name == "analytic":
                out["analytic.us_per_call"] = 1e6 * total / calls if calls else 0.0
                analytic_entry = entry & mine
                out["analytic.undefined"] = int((analytic_entry & (outcome == UNDEFINED)).sum()) / ops
                out["analytic.overflow"] = int((analytic_entry & (outcome == OVERFLOW)).sum()) / ops
        out["oracle.cells"] = self.cells / ops
        out["oracle.bytes_computed"] = self.bytes / ops
        out["cli.rows"] = self.rows / ops
        out["trace.spans"] = len(group) / ops
        return out
