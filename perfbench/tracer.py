"""Layer spans recorded from outside the package.

Each layer of splitvar is timed by wrapping calls into its public surface:
the ``_kernels`` module attributes (which ``grid`` and ``solve`` look up on
every call) and ``solve.minimize_J_delta`` (which ``continuation`` looks up
per level), the density spec callables (rebuilt with ``dataclasses.replace``)
and the public functions of the other modules, which the workloads call
through the wrapped references handed out here.  Nothing under ``src/`` is
edited.

A span's self time is its duration minus the durations of the spans it
encloses, so the self times of one operation add up to its traced wall time.
Hot leaves (kernels, density maps) are aggregated per operation; every other
span is kept with its start, end and parent and written out with the trace.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from contextlib import contextmanager

import numpy as np

from splitvar import _kernels, densities, diagnostics, duality, energy, grid, solve

KERNELS = ("hessvec", "cell_gradient", "scatter_adjoint", "scatter_diag")
DENSITY_MAPS = ("eval", "deriv", "second_deriv")
# leaves are aggregated; any other span is recorded individually
LEAF_PREFIXES = ("kernels.", "densities.")


class Tracer:
    """Span stack with per-operation aggregates; one instance per traced run."""

    def __init__(self):
        self.enabled = False
        self._stack = []  # [name, start, child_time]
        self._t0 = 0.0
        self.begin_op()

    def begin_op(self) -> None:
        self.totals = {}  # name -> [calls, inclusive_s, self_s]
        self.counters = {}
        self.spans = []  # (name, parent, start_s, end_s), relative to op start
        self._t0 = time.perf_counter()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    @contextmanager
    def span(self, name: str):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[1]
            if self._stack:
                self._stack[-1][2] += dur
            agg = self.totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[2]
            if not name.startswith(LEAF_PREFIXES):
                parent = self._stack[-1][0] if self._stack else None
                self.spans.append((name, parent, frame[1] - self._t0, end - self._t0))

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` timed under span ``name`` while the tracer is enabled.

        ``on_call(args, result)`` runs after the call, still inside the span's
        parent, to record counts derived from the arguments or the result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, out)
            return out

        return traced


class Layers:
    """The package's public surface, routed through a tracer.

    The workloads reach splitvar only through an instance of this class, so
    that traced and untraced operations run the same code.  ``traced`` swaps
    the patched module attributes in for the duration of a traced operation.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        t = tracer
        self.continuation = t.wrap("solve.continuation", solve.continuation)
        self.minimize_J_delta = t.wrap(
            "solve.minimize_J_delta", solve.minimize_J_delta, self._on_level
        )
        self.stress = t.wrap("duality.stress", duality.stress)
        self.duality_gap = t.wrap("duality.duality_gap", duality.duality_gap)
        self.eval_J_delta = t.wrap("energy.eval_J_delta", energy.eval_J_delta)
        self.eval_K = t.wrap("energy.eval_K", energy.eval_K)
        self.integrability_sweep = t.wrap(
            "diagnostics.integrability_sweep", diagnostics.integrability_sweep
        )
        self.approximation_experiment = t.wrap(
            "diagnostics.approximation_experiment", diagnostics.approximation_experiment
        )
        self.save_csv = t.wrap("grid.io", grid.save_csv)
        self.load_csv = t.wrap("grid.io", grid.load_csv)
        self.save_vsgf = t.wrap("grid.io", grid.save_vsgf)
        self.load_vsgf = t.wrap("grid.io", grid.load_vsgf)
        # (module, attribute) -> (original, traced), swapped in by ``traced``
        self._patches = {
            (_kernels, name): (fn, t.wrap(f"kernels.{name}", fn, self._on_kernel(name)))
            for name, fn in ((n, getattr(_kernels, n)) for n in KERNELS)
        }
        self._patches[(solve, "minimize_J_delta")] = (
            solve.minimize_J_delta,
            self.minimize_J_delta,
        )

    def _on_level(self, args, out):
        _, record = out
        self.tracer.count("solve.newton_steps", record.iterations)

    def _on_kernel(self, name):
        tracer = self.tracer

        def on_call(args, out):
            if name == "hessvec":
                # computed traffic: each operand read once, the result written once
                moved = sum(a.nbytes for a in args[:3]) + out.nbytes
                tracer.count("kernels.hessvec_bytes", moved)
                if tracer.inside("solve.minimize_J_delta"):
                    tracer.count("solve.hessvec_calls", 1)
            elif name == "cell_gradient" and tracer.inside("solve.minimize_J_delta"):
                tracer.count("solve.energy_evals", 1)

        return on_call

    def pair(self, pair: densities.DensityPair) -> densities.DensityPair:
        """A copy of ``pair`` whose density maps and conjugates are spanned.

        The conjugates wrap the original bound callables, so the scalar
        inversions inside them are charged to the conjugate span alone.
        """
        t = self.tracer

        def spec(s):
            return dataclasses.replace(
                s, **{m: t.wrap("densities.eval", getattr(s, m)) for m in DENSITY_MAPS}
            )

        def conj(fn):
            return t.wrap(
                "densities.conjugate",
                fn,
                lambda args, out: t.count("densities.conjugate_points", int(np.size(args[0]))),
            )

        return densities.DensityPair(
            f1=spec(pair.f1),
            f2=spec(pair.f2),
            conjugate_f1=conj(pair.conjugate_f1),
            conjugate_f2=conj(pair.conjugate_f2),
        )

    @contextmanager
    def traced(self):
        """Enable the tracer and route the patched attributes through it."""
        for (module, name), (_, traced) in self._patches.items():
            setattr(module, name, traced)
        self.tracer.enabled = True
        try:
            yield
        finally:
            self.tracer.enabled = False
            for (module, name), (original, _) in self._patches.items():
                setattr(module, name, original)

