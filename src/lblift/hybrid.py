"""Split-domain coupling of a finite-difference PDE solver with LBM.

The domain 0..n-1 (periodic overall) is cut at a split index p: cells
0..p evolve under the macroscopic PDE (FTCS), cells p+1..n-1 under the
full LBM.  Each side feeds the other through one ghost cell per
interface.  The PDE side only needs densities, so its ghosts come from
restricting the LBM field; the LBM side needs full distributions at its
ghosts, which is exactly the one-to-many reconstruction the lifting
operators provide.  The quality of the coupling is the quality of the
lift.  This module is the only one that builds or crops ghost cells:
the LBM and FTCS kernels it calls are plain periodic updates.  The LBM
field is kept with its two ghost columns allocated around it
(HybridState.f_rim), and each step writes the lifted ghosts into that
rim in place, so no field-sized copy is made to add them.

A step reads lifted distributions only at its two ghost columns, x_p
and x_0.  When the lifter states a finite reach h along the split axis
(lifters.lift_reach), the step lifts only the ghost slab of half-width
g = max(h, 1), which keeps the two FTCS ghosts x_{p+1} and x_{n-1}: the
2g+1 density rows around each interface, p-g..p+g then n-g..n-1, 0..g
(mod n), through the unchanged lifter.lift; init_hybrid lifts the LBM
rows p-h..n+h.  Each such lift is periodic, but the rows kept read no
wrapped row, so they are exactly the rows a full-field lift gives, on a
grid of any size, even one smaller than the rows lifted.  A lifter that
states no reach (a constrained-runs lift) is lifted over the whole field.

In 2D the split runs along the first axis only: full-height columns,
periodic in the second axis, so ghost columns carry every y value and
diagonal links find their corners in them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .lattice import (LbmParams, finite_density, integer, restrict,
                      stream_collide)
from .lifters import lift_reach
from .macro_pde import MacroPde, ftcs_step


def default_split(cells: int) -> int:
    # interface through the domain center, across the initial peak
    return cells // 2


def checked_split(total_cells: int, split_index: int) -> Tuple[int, int]:
    """(n, p), refused unless both subdomains keep at least one cell."""
    n = integer(total_cells, "total_cells")
    p = integer(split_index, "split_index")
    if not 1 <= p <= n - 2:
        raise ValueError(
            f"split index {p} leaves an empty subdomain on a {n}-cell grid")
    return n, p


@dataclass
class HybridSpec:
    """Static description of one split-domain problem.

    PDE on cells 0..split_index, LBM on the rest; initial_density covers
    the full domain.

    Construction also fixes which density rows each step reads: `reads`
    are runs (start, stop) of domain rows, in the order the step gathers
    them, each on one side of the split; the first `lifted_rows` gathered
    rows are lifted, `lift_ghosts` are the lifted rows of x_p and x_0,
    and `pde_ghosts` the gathered rows of x_{n-1} and x_{p+1}.  `start`
    holds the rows init_hybrid lifts and those it keeps (_split_state).
    """

    total_cells: int
    split_index: int
    params: LbmParams
    pde: MacroPde
    lifter: object
    initial_density: np.ndarray
    reads: Tuple[Tuple[int, int], ...] = field(init=False, repr=False)
    lifted_rows: int = field(init=False, repr=False)
    lift_ghosts: Tuple[int, int] = field(init=False, repr=False)
    pde_ghosts: Tuple[int, int] = field(init=False, repr=False)
    start: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n, p = checked_split(self.total_cells, self.split_index)
        try:
            rho = finite_density(self.initial_density, self.params.vset)
        except ValueError as error:
            raise ValueError(f"initial density: {error}") from None
        if rho.shape[0] != n:
            raise ValueError(f"initial density shape {rho.shape} does not "
                             f"cover {n} cells along the split axis")
        if len(self.pde.advection) != self.params.vset.dimension:
            raise ValueError("PDE advection dimension does not match the model")
        self.initial_density = rho

        h = lift_reach(self.lifter, self.params)
        if h is None:
            spans = [(0, n)]
            self.start = (slice(None), None)
            self.lifted_rows = n
            self.lift_ghosts, self.pde_ghosts = (p, 0), (n - 1, p + 1)
        else:
            # a slab half-width g >= 1 keeps both FTCS ghosts in the slab
            g = max(h, 1)
            self.start = (np.arange(p - h, n + h + 1) % n,
                          slice(h, n - p + 1 + h))
            spans = [(p - g, p + g + 1), (n - g, n + g + 1)]
            self.lifted_rows = 4 * g + 2
            self.lift_ghosts, self.pde_ghosts = (g, 3 * g + 1), (3 * g, g + 1)
        self.reads = _side_runs(spans, n, p)


def _side_runs(spans, n: int, p: int) -> Tuple[Tuple[int, int], ...]:
    """Domain rows lo..hi-1 (mod n) of each span as runs (start, stop)
    that neither wrap nor cross the split: the PDE holds 0..p, the LBM
    p+1..n-1."""
    runs = []
    for lo, hi in spans:
        while lo < hi:
            base = lo - lo % n
            stop = min(hi, base + (p + 1 if lo - base <= p else n))
            runs.append((lo - base, stop - base))
            lo = stop
    return tuple(runs)


@dataclass
class HybridState:
    """PDE densities on cells 0..p and the rimmed LBM field.

    f_rim holds the LBM cells p+1..n-1 between their two ghost columns,
    x_p first and x_n (= x_0) last, so each step writes its lifted ghosts
    into the rim instead of building a new field around the LBM cells.
    """

    rho_pde: np.ndarray
    f_rim: np.ndarray

    @property
    def f_lbm(self) -> np.ndarray:
        """The LBM cells p+1..n-1: a view of the interior of f_rim."""
        return self.f_rim[:, 1:-1]


def full_density(state: HybridState, spec: HybridSpec) -> np.ndarray:
    """Densities over the whole domain: PDE cells then restricted LBM cells."""
    return np.concatenate([state.rho_pde, restrict(state.f_lbm)], axis=0)


def init_hybrid(spec: HybridSpec) -> HybridState:
    """Split the initial density; the LBM side is the lift of the rows
    spec.start names, p-h..n+h (mod n) for a lifter of reach h, cropped to
    the rimmed LBM cells p..n-1 and 0 (see the module docstring)."""
    rows, kept = spec.start
    return _split_state(
        spec.lifter.lift(spec.initial_density[rows], spec.params), spec, kept)


def _split_state(f: np.ndarray, spec: HybridSpec, kept=None) -> HybridState:
    """The initial state: PDE densities, then the rows `kept` of the lift
    f, by default the rimmed LBM cells p..n-1 and 0 of a full-field lift."""
    p = spec.split_index
    rim = (np.concatenate([f[:, p:], f[:, :1]], axis=1) if kept is None
           else f[:, kept])
    return HybridState(rho_pde=spec.initial_density[: p + 1].copy(), f_rim=rim)


def hybrid_step(state: HybridState, spec: HybridSpec) -> HybridState:
    """Advance both subdomains by one dt with a simultaneous ghost exchange.

    Ghosts on both sides are built from the time-t data first, then the
    two subdomain updates run independently.  The step builds only the
    densities of spec.reads, from rho_pde and the restricted LBM columns:
    the ghost slab (or the whole field, see the module docstring) and the
    PDE ghosts.  The PDE ghosts at x_{-1} (= x_{n-1}, periodic) and
    x_{p+1} are restricted LBM densities; the LBM ghosts at x_p and
    x_n (= x_0) are lifted from the gathered densities, stencils
    straddling the interfaces, and written into the rim of state.f_rim,
    which this overwrites.  Each rimmed subdomain takes one periodic
    step: one step moves data one cell, so the wrap across the rim
    reaches only the ghost cells, which the next step overwrites (LBM)
    or crops (PDE).  The lift refuses a non-finite density only within
    what it is handed; compare_to_reference checks the whole field after
    every step.
    """
    p = spec.split_index
    rho = np.concatenate(
        [state.rho_pde[a:b] if b <= p + 1
         else restrict(state.f_rim[:, a - p:b - p]) for a, b in spec.reads],
        axis=0)

    f_lift = spec.lifter.lift(rho[:spec.lifted_rows], spec.params)
    at_p, at_0 = spec.lift_ghosts
    state.f_rim[:, 0] = f_lift[:, at_p]
    state.f_rim[:, -1] = f_lift[:, at_0]
    f_new = stream_collide(state.f_rim, spec.params)

    west, east = spec.pde_ghosts
    rho_ext = np.concatenate(
        [rho[west:west + 1], state.rho_pde, rho[east:east + 1]], axis=0)
    rho_new = ftcs_step(rho_ext, spec.pde, spec.params.dx,
                        spec.params.dt)[1:-1]

    return HybridState(rho_pde=rho_new, f_rim=f_new)


@dataclass
class HybridComparison:
    """Per-step discrepancy between the hybrid run and a full-domain LBM."""

    max_error: np.ndarray
    l2_error: np.ndarray
    error_fields: Optional[np.ndarray]
    final_state: HybridState


def compare_to_reference(spec: HybridSpec, steps: int,
                         keep_fields: bool = False) -> HybridComparison:
    """Run the hybrid model against a full LBM from the same start.

    The initial density is lifted once: the reference starts from the
    whole lifted field and the hybrid from its LBM part, so at step 0
    the two runs agree and every later discrepancy is coupling error
    plus modeling error of the PDE half.  Errors are recorded after each of
    the `steps` updates: the absolute density difference field (kept
    only on request), its max, and its flat 2-norm.  The run stops at
    the first non-finite hybrid density, whatever the lifter, with a
    ValueError naming the step and the cell: this check, not the lift,
    sees the densities outside the ghost slab.
    """
    if integer(steps, "steps") < 1:
        raise ValueError("need at least one step to compare")
    f_ref = spec.lifter.lift(spec.initial_density, spec.params)
    state = _split_state(f_ref, spec)
    max_err = np.empty(steps)
    l2_err = np.empty(steps)
    fields: List[np.ndarray] = []
    for k in range(steps):
        state = hybrid_step(state, spec)
        try:
            rho = finite_density(full_density(state, spec), spec.params.vset)
        except ValueError as error:
            raise ValueError(f"hybrid step {k + 1}: {error}") from error
        f_ref = stream_collide(f_ref, spec.params)
        diff = np.abs(rho - restrict(f_ref))
        max_err[k] = diff.max()
        l2_err[k] = float(np.sqrt((diff ** 2).sum()))
        if keep_fields:
            fields.append(diff)
    return HybridComparison(
        max_error=max_err,
        l2_error=l2_err,
        error_fields=np.array(fields) if keep_fields else None,
        final_state=state,
    )
