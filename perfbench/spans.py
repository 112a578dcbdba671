"""Span tracing around ttqst's layer boundaries, from outside the library.

The tracer swaps module and class attributes that the library calls through
(``tt.ttsvd``, ``manifold.retract``, ``MeasurementStream.draw_batch``, ...)
for wrappers that record one span per call: name, start, end and the index of
the enclosing span.  ``uninstall`` puts the originals back.  Spans stay in
memory; ``take`` hands them over and starts a fresh list.
"""

from __future__ import annotations

import time

from ttqst import cli, manifold, measurement, mpo, serialize, solvers, states, tt

# Calls made on every solver round: reported as self milliseconds per round.
ROUND_SPANS = (
    "solvers.round",
    "manifold.TangentGeometry",
    "manifold.project_batch",
    "manifold.tangent_step",
    "manifold.retract",
    "tt.ttsvd",
    "tt.right_orthogonalize",
    "tt.tt_entries.iterate",
    "tt.tt_entries.target",
    "measurement.draw_batch",
    "tt.tt_distance",
    "tt.lambda_min",
    "mpo.coeff_to_mpo",
    "mpo.fidelity",
)
# Calls made a few times per set-up or solve: reported as self milliseconds.
ONCE_SPANS = (
    "solvers.spectral_init",
    "serialize.write_ttr1",
    "solvers.RunTrace.to_csv",
    "cli.main",
    "states.ising_ground",
    "states.random_mps",
    "states.pure_state_coeff",
)


def _entries_name(parent):
    # The iterate's entries are evaluated in a round; the target's entries
    # are the measurements a stream draws.
    if parent == "measurement.draw_batch":
        return "tt.tt_entries.target"
    return "tt.tt_entries.iterate"


# (owner, attribute, span name or function of the parent span's name).
# ``solvers._IterateState.step`` is the online round body; an owner that
# lacks the attribute is skipped, so its span reads zero calls.
_TARGETS = (
    (solvers._IterateState, "step", "solvers.round"),
    (manifold.TangentGeometry, "__init__", "manifold.TangentGeometry"),
    (manifold.TangentGeometry, "project_batch", "manifold.project_batch"),
    (manifold, "tangent_step", "manifold.tangent_step"),
    (manifold, "retract", "manifold.retract"),
    (tt, "ttsvd", "tt.ttsvd"),
    (tt, "right_orthogonalize", "tt.right_orthogonalize"),
    (tt, "tt_entries", _entries_name),
    (measurement.MeasurementStream, "draw_batch", "measurement.draw_batch"),
    (tt, "tt_distance", "tt.tt_distance"),
    (tt, "lambda_min", "tt.lambda_min"),
    (mpo, "coeff_to_mpo", "mpo.coeff_to_mpo"),
    (mpo, "fidelity", "mpo.fidelity"),
    (solvers, "spectral_init", "solvers.spectral_init"),
    (serialize, "write_ttr1", "serialize.write_ttr1"),
    (solvers.RunTrace, "to_csv", "solvers.RunTrace.to_csv"),
    (cli, "main", "cli.main"),
    (states, "ising_ground", "states.ising_ground"),
    (states, "random_mps", "states.random_mps"),
    (states, "pure_state_coeff", "states.pure_state_coeff"),
)


class Tracer:
    """Records ``[name, start, end, parent_index]`` for every wrapped call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def install(self):
        for owner, attr, name in _TARGETS:
            orig = vars(owner).get(attr)
            if orig is None:
                continue
            setattr(owner, attr, self._wrap(orig, name))
            self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def take(self):
        """Spans recorded since the last call, in call order."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, orig, name):
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if callable(name):
                label = name(self.spans[parent][0] if parent >= 0 else None)
            else:
                label = name
            record = [label, 0.0, 0.0, parent]
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
            record[1] = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        wrapper.__name__ = getattr(orig, "__name__", "wrapper")
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper


def self_times(spans):
    """Per span name: ``(self seconds, calls)``.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - child[i], calls + 1)
    return out
