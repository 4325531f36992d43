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

Application takes the stencil form of the sum, one (q x taps) matrix
over the differences rho(x + u) - rho(x), and evaluates each tap
difference as a short sum of local differences: along the last axis
within a row, and first differences along axis 0 between neighbouring
rows.  A block of rows keeps those of every row it reads in one small
buffer, and one batched matrix product lifts the whole block.  Every
local difference of a uniform density is exactly zero, so it lifts to
exactly f_eq.  A 1D grid is the degenerate case: one row with no reach
along axis 0, whose local differences are the tap differences.

The optional time term gamma multiplies d rho / dt and only exists on
coefficient sets that went through the time-derivative augmentation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .lattice import (_BLOCK_CELLS, D1Q3, VELOCITY_SETS, LbmParams,
                      equilibrium, finite_density, finite_positive,
                      stable_omega)
from .stencil import DerivSpec, difference_stencils
# perfbench's tracer wraps spatial_derivative at this module attribute
from .stencil import spatial_derivative  # noqa: F401

# The stencil lift takes its output rows in blocks of _BLOCK_CELLS cells:
# 40 rows of a 200 x 200 field.  The block's buffer holds 6 slots (4
# differences along the last axis, 1 along axis 0, the density) of its 44
# source rows at D2Q9 order 4: 422 kB.  A 1D grid is always one block of
# one row.


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

    def sorted_specs(self) -> List[DerivSpec]:
        return sorted(self.terms, key=lambda s: (s.total, s.orders))

    def flatten(self) -> np.ndarray:
        """Spatial coefficient vectors as one flat array (canonical order)."""
        if not self.terms:
            return np.zeros(0)
        return np.concatenate([self.terms[s] for s in self.sorted_specs()])


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


class LiftKernel(NamedTuple):
    """The matrix K of the stencil lift of one coefficient set and model.

    matrix (q x columns, read-only) multiplies the window columns first to
    first + columns - 1 of an output row.  A window holds 2 h0 + 1 source
    rows of `slots` local differences each, and shifts are the offsets of
    the differences along the last axis (see _slot_map).
    """

    matrix: np.ndarray
    first: int
    slots: int
    h0: int
    shifts: Tuple[int, ...]


def apply_lift(rho: np.ndarray, coeffs: LiftCoefficients,
               params: LbmParams,
               kernel: Optional[LiftKernel] = None) -> np.ndarray:
    """Lift a density field to distributions on a periodic grid.

    The lift is one linear stencil: the central differences of every
    term, weighted by its coefficient vector, are summed into a
    (q x taps) matrix C = A W, and

        f_i(x) = w_i rho(x) + sum_u C[i, u] (rho(x + u) - rho(x)),

    with w_i the equilibrium weights.  Each tap difference is evaluated
    as a short sum of local differences (see _stencil_lift), all of which
    vanish on a uniform density, so that lifts to exactly f_eq.  kernel
    takes K from an earlier lift_kernel(coeffs, params) call, which a
    caller lifting many densities with one coefficient set makes once;
    without it the lift builds K itself.
    """
    check_fingerprint(coeffs, params)
    rho = finite_density(rho, params.vset)
    if not coeffs.terms:
        return equilibrium(rho, params)
    if kernel is None:
        kernel = lift_kernel(coeffs, params)
    return _stencil_lift(rho, kernel)


def check_fingerprint(coeffs: LiftCoefficients, params: LbmParams) -> None:
    if coeffs.fingerprint != params.fingerprint():
        raise ValueError(
            "coefficient fingerprint does not match the model parameters: "
            f"{coeffs.fingerprint} vs {params.fingerprint()}"
        )


def lift_kernel(coeffs: LiftCoefficients, params: LbmParams) -> LiftKernel:
    """K = [C to_slots, w at the centre rho slot], the matrix of _stencil_lift.

    Its columns are the window slots from the first that a tap or the
    centre rho reads to the last: slots that no coefficient can reach
    are left out of the product.  Coefficients of another model are
    refused, and an empty set has no stencil (it lifts to f_eq).
    """
    check_fingerprint(coeffs, params)
    if not coeffs.terms:
        raise ValueError("an empty coefficient set has no stencil kernel")
    specs = tuple(coeffs.sorted_specs())
    taps, weights = difference_stencils(specs, params.dx)
    h0, shifts, slots, first, to_slots = _slot_map(taps)
    matrix = (np.column_stack([coeffs.terms[s] for s in specs]) @ weights
              @ to_slots)
    matrix[:, h0 * slots + slots - 1 - first] = params.equilibrium_weights()
    matrix.flags.writeable = False
    return LiftKernel(matrix, first, slots, h0, shifts)


@lru_cache(maxsize=64)
def _slot_map(taps: Tuple[Tuple[int, ...], ...]
              ) -> Tuple[int, Tuple[int, ...], int, int, np.ndarray]:
    """The tap differences of a stencil as sums of local differences.

    A tap u = (a, b) of a 2D stencil splits exactly as

        rho(x+a, y+b) - rho(x, y) = I_b(x+a, y) + sum_t (+-) s(x+t, y),

    with I_b(x', y) = rho(x', y+b) - rho(x', y) the difference along the
    last axis within row x', and s(x', y) = rho(x'+1, y) - rho(x', y) the
    first difference along axis 0, summed over 0 <= t < a for a > 0 and
    subtracted over a <= t < 0 for a < 0.  A 1D tap (b,) reads as (0, b):
    it is I_b itself.

    Returns (h0, shifts, slots, first, to_slots).  h0 is the reach along
    axis 0 and shifts the nonzero last-axis offsets b, sorted.  The local
    differences of one source row fill `slots` slots: I_b for each shift,
    then s if h0 > 0, then one slot for rho itself.  The window of an
    output row x is its 2 h0 + 1 source rows x - h0 .. x + h0.  to_slots
    (taps x window slots, entries 0 and +-1) maps tap differences onto
    the window, from slot `first` to the last slot that a tap or the
    centre rho reads; at D2Q9 order 4 that is 26 of 30 slots, and in 1D
    all of them.  to_slots is read-only, because the cache hands the same
    array to every caller.
    """
    taps = [(0,) * (2 - len(u)) + tuple(u) for u in taps]
    h0 = max(abs(a) for a, _ in taps)
    shifts = tuple(sorted({b for _, b in taps if b}))
    slots = len(shifts) + (h0 > 0) + 1
    to_slots = np.zeros((len(taps), (2 * h0 + 1) * slots))
    for j, (a, b) in enumerate(taps):
        if b:
            to_slots[j, (h0 + a) * slots + shifts.index(b)] = 1.0
        for t in range(min(a, 0), max(a, 0)):
            to_slots[j, (h0 + t) * slots + len(shifts)] = np.sign(a)
    used = np.flatnonzero(to_slots.any(axis=0))
    centre = h0 * slots + slots - 1
    first = min(int(used[0]), centre)
    to_slots = to_slots[:, first:max(int(used[-1]), centre) + 1].copy()
    to_slots.flags.writeable = False
    return h0, shifts, slots, first, to_slots


def _stencil_lift(rho: np.ndarray, kernel: LiftKernel) -> np.ndarray:
    """f = K Z: one batched matrix product per block of rows along axis 0.

    The density is taken as a stack of rows along its last axis; a 1D
    grid is one row with no reach along axis 0.  Per block, the buffer
    z[row, slot, y] holds the local differences of _slot_map (and rho)
    of every source row the block reads, from h0 rows before its first
    output row to h0 rows after its last.  The window of the block's
    output row x is then a contiguous run of z from slot `first` of row x
    on, one (window columns x row length) matrix with a uniform row
    stride, so a strided view stacks the windows of the whole block and
    one matmul with the kernel's K writes every row of the block straight
    into f.  Every slot but rho is a difference of neighbouring values,
    so a uniform density gives exactly zero there; in 1D the slots are
    the tap differences themselves.  Each difference is one contiguous
    subtraction over whole wrapped rows of the block, its wrapped columns
    then dropped by the copy into its slot: a subtraction over strided
    rows would cost numpy a buffered iteration per call.  Besides f, the
    temporaries are the wrapped density, z and that difference buffer:
    333, 422 and 72 kB on a 200 x 200 D2Q9 order-4 lift.
    """
    matrix, first, slots, h0, shifts = kernel
    n1 = rho.shape[-1]
    n0 = rho.size // n1
    h1 = max(map(abs, shifts), default=0)
    padded = _wrapped(rho.reshape(n0, n1), h0, h1)
    width = n1 + 2 * h1
    flat = padded.reshape(-1)
    rows_per_block = min(n0, max(1, _BLOCK_CELLS // n1))
    z = np.empty((rows_per_block + 2 * h0, slots, n1))
    windows = as_strided(z.reshape(-1, n1)[first:],
                         shape=(rows_per_block, matrix.shape[1], n1),
                         strides=z.strides, writeable=False)
    # a difference over whole wrapped rows, before it is copied to its slot
    diff = np.empty((rows_per_block + 2 * h0, width))
    diff_flat = diff.reshape(-1)
    q = matrix.shape[0]
    f = np.empty((q,) + rho.shape)
    f_rows = f.reshape(q, n0, n1).transpose(1, 0, 2)
    for start in range(0, n0, rows_per_block):
        stop = min(start + rows_per_block, n0)
        source = stop - start + 2 * h0
        lo, hi = start * width, (start + source) * width
        for j, b in enumerate(shifts):
            np.subtract(flat[lo + h1 + b:hi - h1 + b], flat[lo + h1:hi - h1],
                        out=diff_flat[h1:hi - lo - h1])
            z[:source, j] = diff[:source, h1:h1 + n1]
        if h0:
            np.subtract(flat[lo + width:hi], flat[lo:hi - width],
                        out=diff_flat[:hi - lo - width])
            z[:source - 1, -2] = diff[:source - 1, h1:h1 + n1]
            # no window reads s of the last source row, but 0 * z must be 0
            z[source - 1, -2] = 0.0
        z[:source, -1] = padded[start:start + source, h1:h1 + n1]
        np.matmul(matrix, windows[:stop - start], out=f_rows[start:stop])
    return f


def _wrapped(rows: np.ndarray, h0: int, h1: int) -> np.ndarray:
    """rows with h0 rows and h1 columns wrapped on at each end, as
    np.pad(mode="wrap") gives them, filled by slice copies."""
    n0, n1 = rows.shape
    padded = np.empty((n0 + 2 * h0, n1 + 2 * h1))
    padded[h0:h0 + n0, h1:h1 + n1] = rows
    _wrap_ends(padded[h0:h0 + n0].T, h1)
    _wrap_ends(padded, h0)
    return padded


def _wrap_ends(a: np.ndarray, h: int) -> None:
    """Fill the h entries at each end of a's first axis periodically from
    the n entries between them.  No copy is longer than n, and each reads
    entries already filled, so a reach beyond the period wraps again."""
    n = len(a) - 2 * h
    for done in range(0, h, n):
        k = min(n, h - done)
        a[h + n + done:h + n + done + k] = a[h + done:h + done + k]
        a[h - done - k:h - done] = a[h + n - done - k:h + n - done]


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

    A malformed, unknown or repeated line is refused with its number: so
    is a dx or dt that is not finite and positive, an omega outside
    [0, 2], or an advection whose length is not the set's dimension.
    """
    entries = read_key_values(text, _coefficient_entry, name=_entry_name)
    for needed in _HEADER_FIELDS:
        if needed not in entries:
            raise ValueError(f"missing header field {needed!r}")
    header = {key: entries.pop(key) for key in _HEADER_FIELDS}
    vset = VELOCITY_SETS[header["set"][1]]
    lineno, advection = header["advection"]
    if len(advection) != vset.dimension:
        raise ValueError(f"line {lineno}: advection has {len(advection)} "
                         f"components, {vset.name} has {vset.dimension}")
    fingerprint = tuple(value for _, value in header.values())
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


def read_key_values(text: str, entry: Callable[[str, str], tuple],
                    where: str = "line",
                    name: Callable[[object], str] = lambda key: f"key {key!r}"
                    ) -> Dict[object, tuple]:
    """{key: (line number, value)} of the `key = value` lines of text.

    Text after # is a comment, and blank lines are skipped.  entry(key,
    value) gives the key and parsed value of one line, and refuses an
    unknown key or a bad value with a ValueError.  A line without '=',
    one that entry refuses, or one whose key repeats an earlier line
    (named by name(key)) is refused as `where` and its number.
    """
    entries: Dict[object, tuple] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        try:
            if not equals:
                raise ValueError(f"expected key = value, got {raw.strip()!r}")
            key, value = entry(key, value)
            if key in entries:
                raise ValueError(f"{name(key)} repeats line "
                                 f"{entries[key][0]}")
        except ValueError as error:
            raise ValueError(f"{where} {lineno}: {error}") from None
        entries[key] = (lineno, value)
    return entries


def _velocity_set_name(value: str) -> str:
    if value not in VELOCITY_SETS:
        raise ValueError(f"unknown velocity set {value!r}")
    return value


# header fields in fingerprint order, each with its value parser
_HEADER_FIELDS = {"set": _velocity_set_name, "dx": finite_positive,
                  "dt": finite_positive, "omega": stable_omega,
                  "advection": lambda text: tuple(map(float, text.split()))}


def _coefficient_entry(key: str, value: str) -> tuple:
    """The key and parsed value of one 'key = value' line."""
    if key.startswith("term "):
        label = key[5:].strip()
        if not re.fullmatch(r"d[0-9]+(d[0-9]+)*", label):
            raise ValueError(f"term label {label!r} is not d<order> per axis")
        orders = tuple(int(tok) for tok in label[1:].split("d"))
        return DerivSpec(orders), _finite_vector(value)
    if key == "time dt1":
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
