"""Spans around calls into each hambif layer, recorded from outside the program.

Each traced function is replaced by a wrapper in every ``hambif.*`` module
that binds it by name (modules import by name, so ``bifurcation`` holds its
own reference to ``spectral_summary``); methods are replaced on their class.
A span is (id, parent, name, start, end, raised), kept in flat arrays while
the run goes on and written out once at the end.  A name that the program
no longer defines is recorded as absent, so the trace survives the removal
of a wrapper.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer -> public functions whose calls are timed; "Class.method" for methods
TARGETS = {
    "cli": ("main",),
    "linalg": ("numeric_rank_with_gap", "morse_index"),
    "spectral": ("spectral_summary", "jordan_partition"),
    "normal_forms": ("structural_decomposition", "block_counts"),
    "bifurcation": (
        "lambda_set", "gamma_jump", "check_main_condition", "bifurcation_index",
        "check_classical_assumptions", "nonresonance_and_branch_count",
    ),
    "continuation": (
        "continue_branch", "correct_orbit", "flow", "seed_from_linearization",
        "PolynomialHamiltonian.gradient", "PolynomialHamiltonian.hessian", "PolynomialHamiltonian.value",
    ),
    "problem": ("parse_problem",),
    "analysis": ("run_analysis", "emit_report"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("calls_per_equilibrium"):
        return "calls/eq"
    if metric.endswith("newton_iters_per_orbit"):
        return "iter/orbit"
    return "count"


class Tracer:
    """Installs span-recording wrappers and aggregates the spans per pass."""

    def __init__(self):
        self.names = SPAN_NAMES
        self.absent: list[str] = []
        self.parent = array("q")
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("b")  # 1: raised, 2: nested inside a span of the same name
        self._stack: list[int] = []
        self._active = [0] * len(self.names)
        self._patches: list[tuple[object, str, object]] = []
        self._pass_bounds: list[tuple[int, int]] = []

    def _wrap(self, index: int, fn):
        parent, name, start, end, flags = self.parent, self.name, self.start, self.end, self.flags
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(index)
            flags.append(2 if active[index] else 0)
            end.append(0.0)
            stack.append(sid)
            active[index] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                flags[sid] |= 1
                raise
            finally:
                end[sid] = clock()
                active[index] -= 1
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "hambif" or key.startswith("hambif.")]
        for index, full in enumerate(self.names):
            layer, _, attr = full.partition(".")
            owner = sys.modules.get(f"hambif.{layer}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                attr = method
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                if full not in self.absent:
                    self.absent.append(full)
                continue
            wrapper = self._wrap(index, original)
            if cls_name:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def traced_pass(self, run_pass):
        """Run one pass with the wrappers installed; returns its result."""
        lo = len(self.start)
        self.install()
        try:
            return run_pass()
        finally:
            self.remove()
            self._pass_bounds.append((lo, len(self.start)))

    def _arrays(self):
        # copies: a live view would pin the arrays and block further appends
        return (np.frombuffer(self.parent, dtype=np.int64).copy(), np.frombuffer(self.name, dtype=np.int16).copy(),
                np.frombuffer(self.start).copy(), np.frombuffer(self.end).copy(),
                np.frombuffer(self.flags, dtype=np.int8).copy())

    def _pass_table(self, arrays, lo: int, hi: int, equilibria: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded in [lo, hi)."""
        parent, name, start, end, flags = (a[lo:hi] for a in arrays)
        dur = end - start
        local_parent = np.where(parent >= 0, parent - lo, -1)
        child = np.bincount(local_parent[local_parent >= 0], weights=dur[local_parent >= 0],
                            minlength=dur.size)
        self_time = dur - child
        raised = (flags & 1).astype(bool)
        outer = (flags & 2) == 0
        table: dict[str, float] = {}
        for index, full in enumerate(self.names):
            mine = name == index
            table[f"{full}.calls"] = int(np.count_nonzero(mine))
            table[f"{full}.total_s"] = float(dur[mine & outer].sum())
            table[f"{full}.self_s"] = float(self_time[mine].sum())
            table[f"{full}.raised"] = int(np.count_nonzero(mine & raised))

        def under(i: int, ancestor: int) -> bool:
            p = local_parent[i]
            while p >= 0:
                if name[p] == ancestor:
                    return True
                p = local_parent[p]
            return False

        idx = {full: i for i, full in enumerate(self.names)}
        correct, flow, cont = idx["continuation.correct_orbit"], idx["continuation.flow"], idx["continuation.continue_branch"]
        newton = sum(under(i, correct) for i in np.flatnonzero(name == flow))
        converged = int(np.count_nonzero((name == correct) & ~raised))
        table["continuation.newton_iters_per_orbit"] = newton / converged if converged else 0.0
        table["continuation.halvings"] = sum(under(i, cont) for i in np.flatnonzero((name == correct) & raised))
        table["spectral.spectral_summary.calls_per_equilibrium"] = (
            table["spectral.spectral_summary.calls"] / equilibria)
        table["linalg.numeric_rank_with_gap.calls_per_equilibrium"] = (
            table["linalg.numeric_rank_with_gap.calls"] / equilibria)
        return table

    def per_pass_tables(self, equilibria: int) -> list[dict[str, float]]:
        """One metrics table per traced pass; ``equilibria`` is the count per pass."""
        arrays = self._arrays()
        return [self._pass_table(arrays, lo, hi, equilibria) for lo, hi in self._pass_bounds]

    def write(self, path) -> None:
        parent, name, start, end, flags = self._arrays()
        np.savez(path, id=np.arange(parent.size), parent=parent, name=name, start=start, end=end,
                 raised=(flags & 1).astype(np.int8), names=np.array(self.names),
                 pass_bounds=np.array(self._pass_bounds, dtype=np.int64).reshape(-1, 2))
