"""Finite difference stencils on uniform grids.

Second-order central stencils for spatial derivatives up to total
order 6 (mixed 2D derivatives are tensor products of the 1D stencils),
plus a one-sided formula for the first time derivative from a short
sequence of snapshots.  difference_stencils writes the stencils of
several derivatives as one matrix over grid offsets, applied to the
differences rho(x + u) - rho(x).  Trained lifting coefficients absorb the
truncation terms of the stencils they were trained with, so training and
the lift both read that one matrix.  spatial_derivative applies one
stencil periodically in the plain sum form, wrapping with np.roll.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Sequence, Tuple

import numpy as np

MAX_TOTAL_ORDER = 6


@dataclass(frozen=True)
class DerivSpec:
    """A spatial derivative d^(a+b) / dx^a dy^b, stored as per-axis orders."""

    orders: Tuple[int, ...]

    def __post_init__(self):
        if not self.orders:
            raise ValueError("empty derivative spec")
        if any(o < 0 for o in self.orders):
            raise ValueError("derivative orders must be nonnegative")
        if self.total == 0:
            raise ValueError("zeroth derivative has no stencil")
        if self.total > MAX_TOTAL_ORDER:
            raise ValueError(
                f"total derivative order {self.total} exceeds {MAX_TOTAL_ORDER}"
            )

    @property
    def total(self) -> int:
        return sum(self.orders)

    def label(self) -> str:
        return "d" + "d".join(str(o) for o in self.orders)


@lru_cache(maxsize=None)
def fd_weights(order: int, offsets: Tuple[int, ...]) -> np.ndarray:
    """Finite difference weights for the order-th derivative at offset 0.

    Fornberg's recursion on arbitrary integer offsets, in units of the
    grid spacing.  Exact for polynomials of degree < len(offsets).
    """
    x = np.array(offsets, dtype=float)
    n = len(x)
    if order >= n:
        raise ValueError("need more points than the derivative order")
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order].copy()


def central_offsets(order: int) -> Tuple[int, ...]:
    """Symmetric offsets of the minimal second-order central stencil."""
    half = (order + 1) // 2
    return tuple(range(-half, half + 1))


def _axis_stencil(order: int, dx: float):
    """Offsets and weights, in units of dx, of the 1D central stencil."""
    offsets = central_offsets(order)
    return offsets, fd_weights(order, offsets) / dx ** order


def spatial_derivative(rho: np.ndarray, spec: DerivSpec,
                       dx: float) -> np.ndarray:
    """Apply a (possibly mixed) periodic central difference to a field."""
    rho = np.asarray(rho, dtype=float)
    if len(spec.orders) != rho.ndim:
        raise ValueError("spec arity does not match field rank")
    out = rho
    for axis, order in enumerate(spec.orders):
        if order:
            offsets, w = _axis_stencil(order, dx)
            summed = np.zeros_like(out)
            for off, wk in zip(offsets, w):
                summed += wk * np.roll(out, -off, axis=axis)
            out = summed
    return out


@lru_cache(maxsize=64)
def difference_stencils(specs: Tuple[DerivSpec, ...], dx: float
                        ) -> Tuple[Tuple[Tuple[int, ...], ...], np.ndarray]:
    """The periodic central differences of several specs as one matrix.

    Returns (taps, weights).  taps are the nonzero grid offsets u that any
    of the stencils reaches, sorted; weights has one row per spec, so that

        D_{specs[k]} rho(x) = sum_j weights[k, j] (rho(x + taps[j]) - rho(x)).

    Each stencil is the tensor product of the 1D weights that
    spatial_derivative applies axis by axis; it annihilates constants, so
    the centre weight is carried by the differences.  weights is
    read-only, because the cache hands the same array to every caller.
    """
    axis_stencils = [[_axis_stencil(order, dx) if order else ((0,), (1.0,))
                      for order in spec.orders] for spec in specs]
    taps = sorted({u for per_axis in axis_stencils
                   for u in product(*(offsets for offsets, _ in per_axis))
                   if any(u)})
    column = {u: j for j, u in enumerate(taps)}
    weights = np.zeros((len(specs), len(taps)))
    for k, per_axis in enumerate(axis_stencils):
        for pairs in product(*(zip(*axis) for axis in per_axis)):
            u = tuple(off for off, _ in pairs)
            if any(u):
                weights[k, column[u]] = np.prod([w for _, w in pairs])
    weights.flags.writeable = False
    return tuple(taps), weights


def time_derivative_forward(snapshots: Sequence[np.ndarray],
                            dt: float) -> np.ndarray:
    """Forward one-sided estimate of the first time derivative.

    Evaluated at the first snapshot, using all supplied snapshots; two
    snapshots give (s1 - s0)/dt, three give the second-order formula,
    and so on.
    """
    snaps = [np.asarray(s, dtype=float) for s in snapshots]
    if len(snaps) < 2:
        raise ValueError("need at least two snapshots")
    w = fd_weights(1, tuple(range(len(snaps)))) / dt
    out = np.zeros_like(snaps[0])
    for wk, s in zip(w, snaps):
        out += wk * s
    return out
