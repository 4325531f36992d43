"""The host's current speed, read from fixed reference kernels.

On a shared host the same code runs at different speeds, up to about 1.6x
apart, in periods of a few seconds to a minute.  The cause is contention
for the core from outside the virtual machine: the process is not
descheduled (its CPU time equals its wall time), its instructions are just
slower.  A median over a 40 s run does not remove that, because one period
can cover the whole run.  Not all code slows alike: Python-call-bound code
slows most, passes over large arrays least.

So the benchmark times a kernel, which uses no lblift code, next to every
phase it measures (the set-up, each hybrid step, each model of the sweep)
and rescales the phase's wall time to the speed at which that kernel takes
its ``REFERENCE_S``:

    time = wall time * REFERENCE_S[kernel] / (mean kernel time over the phase)

The kernel is sampled just before and just after the phase and, while the
phase runs, on a timer every ``TICK_S``; the time the timer's samples take is
taken out of the phase.  Each phase names the kernel whose slowdown tracked
its own: the Python-call-bound 1D work follows ``calls``, 2D training on
small grids ``stencil``, the 200x200 2D hybrid step ``field``.  A change to
lblift moves the rescaled times as it moves the wall times; a change that
slows the whole process, kernel included, is partly hidden, and the run's
report prints the wall time beside the rescaled one for that reason.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

TICK_S = 0.03

_ROW = np.linspace(0.0, 1.0, 3 * 70).reshape(3, 70)
_BLOCK = np.linspace(0.0, 1.0, 9 * 100 * 100).reshape(9, 100, 100)
_GRID = np.linspace(0.0, 1.0, 9 * 68 * 68).reshape(9, 68, 68)
_FIELD = np.linspace(0.0, 1.0, 9 * 200 * 200).reshape(9, 200, 200)


def _add(a, b):
    return a + b


def _calls() -> None:
    """Python calls, numpy calls on a 1D D1Q3-sized row, one block pass."""
    total = 0
    for i in range(400):
        total = _add(total, i)
    row = _ROW
    for _ in range(60):
        row = np.roll(row, 1, axis=1) * 0.5 + _ROW
    (_BLOCK * 1.0001 + 0.5).sum(axis=0)


def _stencil() -> None:
    """Shifts of a D2Q9 population on a 68x68 grid, the training size."""
    grid = _GRID
    for _ in range(10):
        grid = np.roll(grid, 1, axis=2) * 0.5 + _GRID


def _field() -> None:
    """One pass over a D2Q9 population on the 200x200 hybrid field."""
    (_FIELD * 1.0001 + 0.5).sum(axis=0)


KERNELS = {"calls": _calls, "stencil": _stencil, "field": _field}

# Each kernel's time on the machine described in README.md when nothing
# contends for its core, so that rescaled figures read as seconds there.
REFERENCE_S = {"calls": 0.6e-3, "stencil": 0.55e-3, "field": 0.6e-3}


def sample(kernel: str) -> float:
    """The kernel's time now: the fastest of three back-to-back runs."""
    run = KERNELS[kernel]
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        run()
        best = min(best, perf_counter() - start)
    return best


class Clock:
    """Times consecutive phases and rescales each to reference speed.

    Open it around one repetition, then bracket every phase with
    ``start(kernel)`` and ``stop()``.  ``wall_s`` sums the phases' wall times.
    """

    def __init__(self):
        self.wall_s = 0.0
        self._kernel = None          # the open phase's kernel, if any
        self._samples = []
        self._spent = 0.0            # time the timer's samples took
        self._began = 0.0
        self._last = (None, 0.0)     # the latest end sample: kernel, time
        self._previous_handler = None

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _tick(self, *_):
        if self._kernel is not None:
            began = perf_counter()
            self._samples.append(sample(self._kernel))
            self._spent += perf_counter() - began

    def start(self, kernel: str) -> None:
        last_kernel, last_time = self._last
        self._samples = [last_time if last_kernel == kernel
                         else sample(kernel)]
        self._spent = 0.0
        self._kernel = kernel
        self._began = perf_counter()

    def stop(self) -> float:
        """End the open phase; return its time at reference speed."""
        kernel, self._kernel = self._kernel, None
        wall = perf_counter() - self._began - self._spent
        after = sample(kernel)
        self._last = (kernel, after)
        self.wall_s += wall
        return wall * REFERENCE_S[kernel] / statistics.fmean(
            self._samples + [after])
