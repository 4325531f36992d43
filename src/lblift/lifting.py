"""Lifting operators: density -> distribution functions.

A lifting operator reconstructs the full distribution field from the
macroscopic density alone.  The operators here share one representation:
an equilibrium part plus spatial-derivative corrections,

    f_i = f_eq_i + sum_T  a_{T,i} * (D_T rho),

where T runs over derivative multi-orders and a_T is one coefficient
vector per velocity direction.  Coefficient vectors may come from the
closed-form Chapman-Enskog expansion (D1Q3 pure diffusion, orders 0-3)
or from numerical training (any supported model); application is the
same either way.

The optional time term gamma multiplies d rho / dt and only exists on
coefficient sets that went through the time-derivative augmentation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional

import numpy as np

from .lattice import (D1Q3, VELOCITY_SETS, LbmParams, equilibrium,
                      finite_density)
from .stencil import DerivSpec, difference_stencils
# perfbench's tracer wraps spatial_derivative at this module attribute
from .stencil import spatial_derivative  # noqa: F401

# Grid cells per block of the stencil lift: 20 rows of a 200 x 200 field,
# or a whole 1D grid of up to 4096 cells.  The columns of one block (20
# tap differences at D2Q9 order 4, plus the density) then take 690 kB.
_BLOCK_CELLS = 4096


@dataclass
class LiftCoefficients:
    """Derivative-correction coefficients for one BGK model instance.

    fingerprint ties the vectors to the (velocity set, dx, dt, omega,
    advection) they were derived for; applying them to a different model
    is refused.  terms maps DerivSpec -> vector of length q.
    """

    fingerprint: tuple
    terms: Dict[DerivSpec, np.ndarray] = field(default_factory=dict)
    time_term: Optional[np.ndarray] = None

    @property
    def max_order(self) -> int:
        return max((s.total for s in self.terms), default=0)

    def sorted_specs(self) -> List[DerivSpec]:
        return sorted(self.terms, key=lambda s: (s.total, s.orders))

    def flatten(self) -> np.ndarray:
        """Spatial coefficient vectors as one flat array (canonical order)."""
        if not self.terms:
            return np.zeros(0)
        return np.concatenate([self.terms[s] for s in self.sorted_specs()])

    def with_flat(self, values: np.ndarray) -> "LiftCoefficients":
        specs = self.sorted_specs()
        q = len(values) // len(specs)
        parts = values.reshape(len(specs), q)
        return LiftCoefficients(
            fingerprint=self.fingerprint,
            terms={s: parts[k].copy() for k, s in enumerate(specs)},
            time_term=None if self.time_term is None else self.time_term.copy(),
        )


def expansion_terms(dimension: int, max_order: int) -> List[DerivSpec]:
    """All spatial derivative specs with 1 <= total order <= max_order."""
    if max_order < 1:
        return []
    specs = []
    for orders in product(range(max_order + 1), repeat=dimension):
        if 1 <= sum(orders) <= max_order:
            specs.append(DerivSpec(orders))
    specs.sort(key=lambda s: (s.total, s.orders))
    return specs


def zero_coefficients(params: LbmParams, max_order: int) -> LiftCoefficients:
    q = params.vset.q
    terms = {s: np.zeros(q) for s in expansion_terms(params.vset.dimension, max_order)}
    return LiftCoefficients(fingerprint=params.fingerprint(), terms=terms)


def apply_lift(rho: np.ndarray, coeffs: LiftCoefficients,
               params: LbmParams) -> np.ndarray:
    """Lift a density field to distributions on a periodic grid.

    The lift is one linear stencil: the central differences of every
    term, weighted by its coefficient vector, are summed into a
    (q x taps) matrix C = A W, and

        f_i(x) = w_i rho(x) + sum_u C[i, u] (rho(x + u) - rho(x)),

    with w_i the equilibrium weights.  The difference form gives a
    uniform density no correction at all.
    """
    if coeffs.fingerprint != params.fingerprint():
        raise ValueError(
            "coefficient fingerprint does not match the model parameters: "
            f"{coeffs.fingerprint} vs {params.fingerprint()}"
        )
    rho = finite_density(rho)
    if not coeffs.terms:
        return equilibrium(rho, params)
    return _stencil_lift(rho, coeffs, params)


def _stencil_lift(rho: np.ndarray, coeffs: LiftCoefficients,
                  params: LbmParams) -> np.ndarray:
    """f = [C | w] [rho(x + u) - rho(x); rho(x)], in blocks along axis 0.

    Each block gathers one shifted window of the wrap-padded density per
    tap, plus the density itself, and takes one matrix product straight
    into f, so temporaries stay a few hundred kilobytes whatever the grid
    size.
    """
    if rho.ndim != params.vset.dimension:
        raise ValueError(
            f"density rank {rho.ndim} does not match {params.vset.name}")
    specs = tuple(coeffs.sorted_specs())
    taps, weights = difference_stencils(specs, params.dx)
    stencil = np.column_stack(
        [np.column_stack([coeffs.terms[s] for s in specs]) @ weights,
         params.equilibrium_weights()])
    reach = np.abs(np.array(taps)).max(axis=0)
    padded = np.pad(rho, [(h, h) for h in reach], mode="wrap")
    row_shape = rho.shape[1:]
    # per tap: first padded row of the window, and the window on the other axes
    windows = [(reach[0] + u[0],
                tuple(slice(h + s, h + s + n)
                      for h, s, n in zip(reach[1:], u[1:], row_shape)))
               for u in taps]
    row_cells = int(np.prod(row_shape))
    rows_per_block = min(rho.shape[0], max(1, _BLOCK_CELLS // row_cells))
    columns = np.empty((len(taps) + 1, rows_per_block * row_cells))
    f = np.empty((params.vset.q,) + rho.shape)
    f_flat = f.reshape(params.vset.q, -1)
    for start in range(0, rho.shape[0], rows_per_block):
        stop = min(start + rows_per_block, rho.shape[0])
        block = rho[start:stop]
        cols = columns[:, :block.size]
        shaped = cols.reshape((len(taps) + 1,) + block.shape)
        for j, (first, inner) in enumerate(windows):
            np.subtract(padded[(slice(first + start, first + stop),) + inner],
                        block, out=shaped[j])
        shaped[-1] = block
        np.matmul(stencil, cols,
                  out=f_flat[:, start * row_cells:stop * row_cells])
    return f


# ---------------------------------------------------------------------------
# Closed-form Chapman-Enskog coefficients, D1Q3 pure diffusion.
# ---------------------------------------------------------------------------

def analytic_coefficients(params: LbmParams, order: int) -> LiftCoefficients:
    """Chapman-Enskog coefficients for the D1Q3 pure diffusion model.

    order 0 is the bare equilibrium lift; orders 1 to 3 add the closed
    forms  alpha_i = -i dx / (3 omega),
    beta_i = -dx^2 (omega - 2)(3 i^2 - 2) / (18 omega^2)  and
    c3_i = i dx^3 (omega^2 - 2 omega + 2) / (18 omega^3).  They come
    from iterating the Taylor-shifted update rule f = sum_k L^k f_eq and
    eliminating time derivatives through rho_t = D rho_xx, a time
    derivative counting as two spatial orders.
    """
    if params.vset is not D1Q3 and params.vset.name != "D1Q3":
        raise ValueError("closed-form coefficients exist only for D1Q3")
    if any(a != 0.0 for a in params.advection):
        raise ValueError("closed-form coefficients cover pure diffusion only; "
                         "train the advective model numerically")
    if not 0 <= order <= 3:
        raise ValueError("analytic expansion orders run from 0 to 3")
    if params.omega == 0.0:
        raise ValueError("omega = 0 never relaxes towards equilibrium: the "
                         "closed forms divide by omega")

    coeffs = LiftCoefficients(fingerprint=params.fingerprint())
    if order == 0:
        return coeffs

    w, dx = params.omega, params.dx
    alpha = np.array([-dx / (3 * w), 0.0, dx / (3 * w)])
    coeffs.terms[DerivSpec((1,))] = alpha
    if order >= 2:
        beta = np.array([
            -dx ** 2 * (w - 2) * (3 * i * i - 2) / (18 * w ** 2)
            for i in (1, 0, -1)
        ])
        coeffs.terms[DerivSpec((2,))] = beta
    if order >= 3:
        c3 = dx ** 3 * (w * w - 2 * w + 2) / (18 * w ** 3)
        coeffs.terms[DerivSpec((3,))] = np.array([c3, 0.0, -c3])
    return coeffs


# ---------------------------------------------------------------------------
# Plain-text serialization.
# ---------------------------------------------------------------------------

def coefficients_to_text(coeffs: LiftCoefficients) -> str:
    """Serialize to a line-oriented key = value format.

    Floats are written with repr, which round-trips exactly.
    """
    name, dx, dt, omega, advection = coeffs.fingerprint
    lines = [
        "# lblift coefficient file",
        f"set = {name}",
        f"dx = {dx!r}",
        f"dt = {dt!r}",
        f"omega = {omega!r}",
        "advection = " + " ".join(repr(a) for a in advection),
    ]
    for spec in coeffs.sorted_specs():
        vals = " ".join(repr(float(v)) for v in coeffs.terms[spec])
        lines.append(f"term {spec.label()} = {vals}")
    if coeffs.time_term is not None:
        vals = " ".join(repr(float(v)) for v in coeffs.time_term)
        lines.append(f"time dt1 = {vals}")
    return "\n".join(lines) + "\n"


def coefficients_from_text(text: str) -> LiftCoefficients:
    """Read back the coefficients_to_text format.

    A malformed, unknown or repeated line is refused with its number.
    """
    entries: Dict[object, tuple] = {}  # header field, DerivSpec or "time"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        try:
            if line:
                key, value = _coefficient_entry(line)
                if key in entries:
                    raise ValueError(f"{_entry_name(key)} repeats line "
                                     f"{entries[key][0]}")
                entries[key] = (lineno, value)
        except ValueError as error:
            raise ValueError(f"line {lineno}: {error}") from None
    for needed in _HEADER_FIELDS:
        if needed not in entries:
            raise ValueError(f"missing header field {needed!r}")
    fingerprint = tuple(entries.pop(key)[1] for key in _HEADER_FIELDS)
    vset = VELOCITY_SETS[fingerprint[0]]
    for key, (lineno, vec) in entries.items():
        if key != "time" and len(key.orders) != vset.dimension:
            raise ValueError(f"line {lineno}: {_entry_name(key)} has "
                             f"{len(key.orders)} axes, {vset.name} has "
                             f"{vset.dimension}")
        if len(vec) != vset.q:
            raise ValueError(f"line {lineno}: {_entry_name(key)} has "
                             f"{len(vec)} entries, expected {vset.q}")
    time_term = entries.pop("time", (0, None))[1]
    return LiftCoefficients(fingerprint=fingerprint, time_term=time_term,
                            terms={k: v for k, (_, v) in entries.items()})


def _velocity_set_name(value: str) -> str:
    if value not in VELOCITY_SETS:
        raise ValueError(f"unknown velocity set {value!r}")
    return value


# header fields in fingerprint order, each with its value parser
_HEADER_FIELDS = {"set": _velocity_set_name, "dx": float, "dt": float,
                  "omega": float,
                  "advection": lambda text: tuple(map(float, text.split()))}


def _coefficient_entry(line: str) -> tuple:
    """The key and parsed value of one 'key = value' line."""
    key, equals, value = (part.strip() for part in line.partition("="))
    if not equals:
        raise ValueError("expected 'key = value'")
    if key.startswith("term "):
        label = key[5:].strip()
        if not re.fullmatch(r"d[0-9]+(d[0-9]+)*", label):
            raise ValueError(f"term label {label!r} is not d<order> per axis")
        orders = tuple(int(tok) for tok in label[1:].split("d"))
        return DerivSpec(orders), _finite_vector(value)
    if key.startswith("time"):
        return "time", _finite_vector(value)
    if key not in _HEADER_FIELDS:
        raise ValueError(f"unknown key {key!r}")
    return key, _HEADER_FIELDS[key](value)


def _entry_name(key: object) -> str:
    if isinstance(key, DerivSpec):
        return f"term {key.label()}"
    return "time vector" if key == "time" else f"header field {key!r}"


def _finite_vector(value: str) -> np.ndarray:
    vec = np.array([float(tok) for tok in value.split()])
    if not np.all(np.isfinite(vec)):
        raise ValueError("non-finite coefficient")
    return vec
