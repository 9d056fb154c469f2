"""Layer spans recorded from outside the package.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records a span (id, parent id, name, job execution, start, end) and,
for a few functions, work counts taken from their arguments and results.
A function is rebound at every module of the package that binds it, so
`trotter.fourier` and `gates.fourier` both record as `gates.fourier`.
Nothing in the package is edited; `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

# module -> which public functions become spans (None: all of them)
LAYERS = {
    "pulse": None,
    "gates": None,
    "fock": None,
    "trotter": None,
    "noise": None,
    "codes": None,
    "qst": None,
    "cli": ("main",),
}

_C16 = 16  # bytes per complex128 element


def _ascend_steps(trace, learning_rate, grow=1.3, shrink=0.5):
    """(accepted steps, backtracks) of one line-search ascent, recovered from
    its trace rows (iteration, 1 - J, accepted step size). Each rejected try
    halves the step and each accepted one grows the next by 1.3: these are
    the defaults of the package's shared ascent loop. A final stagnated
    iteration leaves no row, so its backtracks are not counted."""
    rows = [r for r in trace if r[0] > 0]
    backtracks = 0
    tried = learning_rate
    for _, _, step in rows:
        backtracks += max(0, round(math.log(tried / step) / math.log(1 / shrink)))
        tried = step * grow
    return len(rows), backtracks


def _count_simulate(a, result, counts):
    model, schedule = a["model"], a["schedule"]
    d = model.shape.total_dim
    segs = schedule.n_segments
    counts["pulse.simulate_schedule.segments"] += segs
    if a["return_propagator"]:
        # one d x d eigh per segment and the propagator update: d^3 terms;
        # H, eigenvectors, propagator in and out: 4 d^2 complex values
        counts["computed.segment_propagator.terms"] += segs * d**3
        counts["computed.segment_propagator.bytes"] += segs * 4 * d * d * _C16


def _count_grape(a, result, counts):
    its, back = _ascend_steps(result.trace, a["learning_rate"])
    counts["pulse.grape.iterations"] += its
    counts["pulse.grape.backtracks"] += back


def _count_seqprep(a, result, counts):
    its, back = _ascend_steps(result.trace, a["learning_rate"])
    counts["pulse.seqprep.iterations"] += its
    counts["pulse.seqprep.backtracks"] += back


def _count_trotter(a, result, counts):
    steps = int(result.steps)
    n = a["h"].n_levels
    counts["trotter.steps"] += steps
    # four N x N gate matrices applied to a length-N state per step
    counts["computed.trotter_step.terms"] += steps * 4 * n * n
    counts["computed.trotter_step.bytes"] += steps * 4 * (n * n + 2 * n) * _C16


def _count_trajectory(a, result, counts):
    channel = a["channel"]
    n = channel.shape.total_dim
    k = len(channel.kraus)
    steps = int(result.steps)
    counts["noise.trajectory_steps"] += steps
    counts["noise.jumps"] += len(result.jump_steps)
    # every Kraus matrix (N x N) applied to the length-N state per step
    counts["computed.trajectory_step.terms"] += steps * k * n * n
    counts["computed.trajectory_step.bytes"] += steps * k * (n * n + 2 * n) * _C16


def _count_transfer(a, result, counts):
    counts["qst.rk4_steps"] += len(result.times_s) - 1


COUNTERS = {
    "pulse.simulate_schedule": _count_simulate,
    "pulse.grape_optimize": _count_grape,
    "pulse.optimize_snap_displacement_sequence": _count_seqprep,
    "trotter.evolve_trotter": _count_trotter,
    "noise.apply_channel_trajectory": _count_trajectory,
    "qst.simulate_transfer": _count_transfer,
}


class Tracer:
    """Spans and counts of the traced passes, kept in memory."""

    def __init__(self):
        self.spans = []          # (id, parent, name, execution, start, end)
        self.counts = defaultdict(int)
        self.job = None          # index of the job execution being traced
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched = []       # (module, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        main_stack = self._main_stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span hangs under the submitting span
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.spans.append((sid, parent, name, self.job, t0, t1))
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(bound.arguments, result, self.counts)
            return result

        return traced

    def install(self, package="cavityq"):
        wrappers = {}
        for short, only in LAYERS.items():
            mod = sys.modules[f"{package}.{short}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and (only is None or attr in only)):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def self_times(spans):
    """Self time per span id: the time a span is innermost among the open
    spans, with time shared equally between spans that are innermost at
    once (pool threads). The self times of a job's spans therefore add up
    to the time its spans cover, never more."""
    events = []
    parent_of = {}
    for sid, parent, _, _, t0, t1 in spans:
        parent_of[sid] = parent
        events.append((t0, 1, sid))
        events.append((t1, 0, sid))
    events.sort()
    open_children = defaultdict(int)
    leaves = set()
    is_open = set()
    self_s = defaultdict(float)
    last = None
    for t, starting, sid in events:
        if last is not None and leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                self_s[leaf] += share
        last = t
        parent = parent_of[sid]
        if starting:
            is_open.add(sid)
            leaves.add(sid)
            if parent in is_open:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return self_s
