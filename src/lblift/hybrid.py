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

In 2D the split runs along the first axis only: full-height columns,
periodic in the second axis, so ghost columns carry every y value and
diagonal links find their corners in them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .lattice import LbmParams, finite_density, restrict, stream_collide
from .macro_pde import MacroPde, ftcs_step


def default_split(cells: int) -> int:
    # interface through the domain center, across the initial peak
    return cells // 2


@dataclass
class HybridSpec:
    """Static description of one split-domain problem.

    PDE on cells 0..split_index, LBM on the rest; initial_density covers
    the full domain (the lifting stencils want the whole field).
    """

    total_cells: int
    split_index: int
    params: LbmParams
    pde: MacroPde
    lifter: object
    initial_density: np.ndarray

    def __post_init__(self):
        n, p = self.total_cells, self.split_index
        if not 1 <= p <= n - 2:
            raise ValueError(
                f"split index {p} leaves an empty subdomain on a {n}-cell grid")
        rho = np.asarray(self.initial_density, dtype=float)
        dim = self.params.vset.dimension
        if rho.ndim != dim or rho.shape[0] != n:
            raise ValueError(
                f"initial density shape {rho.shape} does not cover {n} cells "
                f"of a {dim}D domain along the split axis")
        if len(self.pde.advection) != dim:
            raise ValueError("PDE advection dimension does not match the model")
        if not np.all(np.isfinite(rho)):
            raise ValueError("initial density contains non-finite values")
        self.initial_density = rho


@dataclass
class HybridState:
    """PDE densities on cells 0..p and the rimmed LBM field.

    f_rim holds the LBM cells p+1..n-1 between their two ghost columns,
    x_p first and x_n (= x_0) last, so each step writes its lifted ghosts
    into the rim instead of building a new field around the LBM cells.
    """

    rho_pde: np.ndarray
    f_rim: np.ndarray
    t: int = 0

    @property
    def f_lbm(self) -> np.ndarray:
        """The LBM cells p+1..n-1: a view of the interior of f_rim."""
        return self.f_rim[:, 1:-1]


def full_density(state: HybridState, spec: HybridSpec) -> np.ndarray:
    """Densities over the whole domain: PDE cells then restricted LBM cells."""
    return np.concatenate([state.rho_pde, restrict(state.f_lbm)], axis=0)


def init_hybrid(spec: HybridSpec) -> HybridState:
    """Split the initial density; the LBM side is created by lifting.

    The lift is evaluated on the full periodic field so that derivative
    stencils near the interface see real data on both sides, then
    cropped to the LBM subdomain.
    """
    return _split_state(spec.lifter.lift(spec.initial_density, spec.params),
                        spec)


def _split_state(f_full: np.ndarray, spec: HybridSpec) -> HybridState:
    """The initial state: PDE densities, then the lift cropped to the
    rimmed LBM subdomain, cells p..n-1 and 0."""
    p = spec.split_index
    return HybridState(rho_pde=spec.initial_density[: p + 1].copy(),
                       f_rim=np.concatenate([f_full[:, p:], f_full[:, :1]],
                                            axis=1))


def hybrid_step(state: HybridState, spec: HybridSpec) -> HybridState:
    """Advance both subdomains by one dt with a simultaneous ghost exchange.

    Ghosts on both sides are built from the time-t data first, then the
    two subdomain updates run independently.  The PDE ghosts at x_{-1}
    (= x_{n-1}, periodic) and x_{p+1} are restricted LBM densities; the
    LBM ghosts at x_p and x_n (= x_0) are lifted from the concatenated
    density field, stencils straddling the interfaces, and written into
    the rim of state.f_rim, which this overwrites.  Each rimmed subdomain
    takes one periodic step: one step moves data one cell, so the wrap
    across the rim reaches only the ghost cells, which the next step
    overwrites (LBM) or crops (PDE).
    """
    p = spec.split_index
    rho = full_density(state, spec)

    f_lift = spec.lifter.lift(rho, spec.params)
    state.f_rim[:, 0] = f_lift[:, p]
    state.f_rim[:, -1] = f_lift[:, 0]
    # free the full lifted field before the step allocates its own, so
    # that the allocator hands its pages on instead of faulting in new ones
    del f_lift
    f_new = stream_collide(state.f_rim, spec.params)

    rho_ext = np.concatenate(
        [rho[-1:], state.rho_pde, rho[p + 1: p + 2]], axis=0)
    rho_new = ftcs_step(rho_ext, spec.pde, spec.params.dx,
                        spec.params.dt)[1:-1]

    return HybridState(rho_pde=rho_new, f_rim=f_new, t=state.t + 1)


@dataclass
class HybridComparison:
    """Per-step discrepancy between the hybrid run and a full-domain LBM."""

    max_error: np.ndarray
    l2_error: np.ndarray
    error_fields: Optional[np.ndarray]
    final_state: HybridState
    final_reference: np.ndarray


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
    ValueError naming the step and the cell.
    """
    if steps < 1:
        raise ValueError("need at least one step to compare")
    f_ref = spec.lifter.lift(spec.initial_density, spec.params)
    state = _split_state(f_ref, spec)
    max_err = np.empty(steps)
    l2_err = np.empty(steps)
    fields: List[np.ndarray] = []
    for k in range(steps):
        state = hybrid_step(state, spec)
        try:
            rho = finite_density(full_density(state, spec))
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
        final_reference=f_ref,
    )
