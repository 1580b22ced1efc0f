"""Spans recorded from outside the library, and the objective wrappers.

A traced solve runs with the library's internal stages replaced, for its
duration, by wrappers that record a span around each call: the line search
(``qnprox.solver.backtracking_search``), the conjugate-residual solve
(``qnprox.line_search.conjugate_residual``), the learner step
(``qnprox.solver.learner_step``), the separation oracle
(``qnprox.learner.separation_oracle``) and its Lanczos runs
(``qnprox.separation.lanczos_extreme``).  Each name is patched in the module
whose code calls it, so the library's own calls go through the wrapper.
Objective queries are traced by :class:`TracedObjective`.  Spans are kept in
memory and turned into per-layer metrics after the solve.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np
import qnprox.learner
import qnprox.line_search
import qnprox.separation
import qnprox.solver

# separation inputs kept for the dense eigvalsh reference: every STRIDE-th
# call, at most MAX_SAMPLES of them
W_SAMPLE_STRIDE = 8
W_MAX_SAMPLES = 12


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one traced solve, in the order they were opened.

    ``parent`` is the index of the enclosing span, -1 for a root.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str) -> Span:
        span = Span(name, self._open[-1] if self._open else -1,
                    time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, annotate=None):
        """``fn`` inside a span; ``annotate(span, args, result)`` runs after
        the span closes, so its cost is not charged to the layer."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                annotate(span, args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def to_json(self) -> list:
        return [[s.name, s.parent, s.start, s.end] for s in self.spans]


class CountedObjective:
    """Counts value and gradient queries on their way to the objective.

    ``smoothness`` is passed through: without it ``solve`` would estimate
    L1 by probing, which is a different program.
    """

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.smoothness = inner.smoothness
        self.values = 0
        self.gradients = 0

    def value(self, x: np.ndarray) -> float:
        self.values += 1
        return self.inner.value(x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        self.gradients += 1
        return self.inner.gradient(x)


class TracedObjective(CountedObjective):
    def __init__(self, inner, recorder: Recorder):
        super().__init__(inner)
        self.value = recorder.wrap("oracles.value", self.value)
        self.gradient = recorder.wrap("oracles.gradient", self.gradient)


def _note_line_search(span, args, outcome):
    span.attrs["trials"] = outcome.backtracks + 1


def _note_linear_solver(span, args, result):
    span.attrs["iterations"] = result.iterations
    span.attrs["matvecs"] = result.matvecs


def _note_learner(span, args, result):
    span.attrs["matvecs"] = result[1].matvecs


def _note_lanczos(span, args, result):
    # lanczos_extreme spends one matvec per step plus two Rayleigh quotients
    span.attrs["steps"] = result.matvecs - 2


class _SeparationNotes:
    def __init__(self):
        self.calls = 0
        self.samples: list[np.ndarray] = []

    def __call__(self, span, args, result):
        span.attrs["matvecs"] = result.matvecs
        span.attrs["separated"] = result.separated
        if (self.calls % W_SAMPLE_STRIDE == 0
                and len(self.samples) < W_MAX_SAMPLES):
            self.samples.append(np.array(args[0], copy=True))
        self.calls += 1


@contextlib.contextmanager
def traced_layers(recorder: Recorder):
    """Route the solver's stage calls through ``recorder`` while active.

    Yields the list that collects sampled separation inputs W.
    """
    separation_notes = _SeparationNotes()
    patches = [
        (qnprox.solver, "backtracking_search", "line_search",
         _note_line_search),
        (qnprox.line_search, "conjugate_residual", "linear_solver",
         _note_linear_solver),
        (qnprox.solver, "learner_step", "learner", _note_learner),
        (qnprox.learner, "separation_oracle", "separation",
         separation_notes),
        (qnprox.separation, "lanczos_extreme", "separation.lanczos",
         _note_lanczos),
    ]
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in patches]
    try:
        for module, attr, name, annotate in patches:
            setattr(module, attr,
                    recorder.wrap(name, getattr(module, attr), annotate))
        yield separation_notes.samples
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)
