"""Property tests: coefficient text round-trip, mass conservation of every
lifter, linearity and shift invariance of the stepping kernels and every
lifter, the stepping kernels bit for bit against their np.roll references
off the acceptance matrix and alike on either memory layout, refusal of
empty and non-finite densities by every lifter, and refusal of malformed
coefficient text.

Examples are derandomized, so every run of the suite draws the same ones.
"""

import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lblift import (VELOCITY_SETS, CoefficientLifter, CrConfig, CrLifter,
                    EquilibriumLifter, LbmParams, NceTrainConfig,
                    analytic_coefficients, coefficients_from_text,
                    coefficients_to_text, lbm_step_count, restrict,
                    stream_collide, train_coefficients)
from lblift.constrained_runs import constrained_smooth
from lblift.lattice import reset_density

from conftest import (benchmark_params, off_matrix_models,
                      roll_constrained_smooth, roll_stream_collide, with_flat,
                      zero_coefficients)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None,
                    database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def coefficient_sets(draw):
    vset = VELOCITY_SETS[draw(st.sampled_from(sorted(VELOCITY_SETS)))]
    params = LbmParams(
        vset=vset, dx=draw(positive), dt=draw(positive),
        omega=draw(st.floats(min_value=0.0, max_value=2.0)),
        advection=tuple(draw(finite) for _ in range(vset.dimension)))
    coeffs = zero_coefficients(params, draw(st.integers(1, 4)))
    vector = arrays(np.float64, vset.q, elements=finite)
    for spec in coeffs.terms:
        coeffs.terms[spec] = draw(vector)
    if draw(st.booleans()):
        coeffs.time_term = draw(vector)
    return coeffs


@PROPERTY
@given(coefficient_sets())
def test_coefficient_text_roundtrip_is_bit_exact(coeffs):
    text = coefficients_to_text(coeffs)
    back = coefficients_from_text(text)
    assert back.fingerprint == coeffs.fingerprint
    assert back.terms.keys() == coeffs.terms.keys()
    for spec, vec in coeffs.terms.items():
        assert back.terms[spec].tobytes() == vec.tobytes()
    if coeffs.time_term is None:
        assert back.time_term is None
    else:
        assert back.time_term.tobytes() == coeffs.time_term.tobytes()
    assert coefficients_to_text(back) == text


@lru_cache(maxsize=None)
def trained_lifter(name, advection, order):
    params = benchmark_params(name, advection=advection)
    result = train_coefficients(NceTrainConfig(spatial_order=order, m=1),
                                params)
    return CoefficientLifter(result.coefficients, name="nce")


# label -> (velocity set, advection, lifter factory)
LIFTERS = {
    "equilibrium 1D": ("D1Q3", (0.66,), EquilibriumLifter),
    "equilibrium 2D": ("D2Q9", (1.0, 0.5), EquilibriumLifter),
    "analytic": ("D1Q3", (), lambda: CoefficientLifter(
        analytic_coefficients(benchmark_params("D1Q3"), 3))),
    "trained 1D": ("D1Q3", (0.66,),
                   lambda: trained_lifter("D1Q3", (0.66,), 4)),
    "trained 2D": ("D2Q5", (), lambda: trained_lifter("D2Q5", (), 2)),
    "trained D2Q9": ("D2Q9", (1.0, 0.5),
                     lambda: trained_lifter("D2Q9", (1.0, 0.5), 4)),
    "CR m=0": ("D1Q3", (), lambda: CrLifter(CrConfig(m=0))),
    "CR m=2": ("D1Q3", (0.66,), lambda: CrLifter(CrConfig(m=2))),
    "CR D2Q5 m=1": ("D2Q5", (), lambda: CrLifter(CrConfig(m=1))),
    "CR D2Q9 m=3": ("D2Q9", (1.0, 0.5), lambda: CrLifter(CrConfig(m=3))),
}

densities = st.floats(min_value=0.1, max_value=2.0)


def grid_shapes(dimension):
    """Periodic grid shapes: 8-40 cells in 1D, 5-16 per axis in 2D."""
    if dimension == 1:
        return st.tuples(st.integers(8, 40))
    return st.tuples(st.integers(5, 16), st.integers(5, 16))


@pytest.mark.parametrize("label", sorted(LIFTERS))
def test_every_lifter_conserves_mass(label):
    name, advection, make = LIFTERS[label]
    params = benchmark_params(name, advection=advection)
    lifter = make()

    @PROPERTY
    @given(grid_shapes(params.vset.dimension).flatmap(lambda shape: arrays(np.float64, shape,
                                              elements=densities)))
    def conserves(rho):
        f = lifter.lift(rho, params)
        assert f.shape == (params.vset.q,) + rho.shape
        np.testing.assert_allclose(restrict(f), rho, rtol=0, atol=1e-12)

    conserves()


def assert_linear_and_shift_invariant(op, draw, lead, shape, elements):
    """op(a x + b y) = a op(x) + b op(y), and op(roll(x)) = roll(op(x)).

    x and y have `lead` leading axes before the grid axes; op returns one
    leading axis (the velocities).  Both hold up to round-off: the FFT of
    the CR solve and the sums of the stencil lift are not exactly
    distributive."""
    x, y = (draw(arrays(np.float64, shape, elements=elements))
            for _ in range(2))
    a, b = (draw(st.floats(min_value=0.25, max_value=2.0)) for _ in range(2))
    grid = shape[lead:]
    shift = tuple(draw(st.integers(-n + 1, n - 1)) for n in grid)
    fx, fy = op(x), op(y)
    tol = 1e-12 * max(1.0, np.abs(fx).max(), np.abs(fy).max())
    np.testing.assert_allclose(op(a * x + b * y), a * fx + b * fy,
                               rtol=0, atol=8 * tol)
    rolled = np.roll(x, shift, axis=tuple(range(lead, x.ndim)))
    expected = np.roll(fx, shift, axis=tuple(range(1, fx.ndim)))
    np.testing.assert_allclose(op(rolled), expected, rtol=0, atol=tol)


# (velocity set, advection) of the stepping kernels' cases
KERNEL_MODELS = [("D1Q3", (0.66,)), ("D2Q5", ()), ("D2Q9", (1.0, 0.5))]
signed = st.floats(min_value=-2.0, max_value=2.0)


@pytest.mark.parametrize("name,advection", KERNEL_MODELS)
def test_stream_collide_is_linear_and_shift_invariant(name, advection):
    params = benchmark_params(name, advection=advection)
    q = params.vset.q

    @PROPERTY
    @given(st.data())
    def check(data):
        shape = (q,) + data.draw(grid_shapes(params.vset.dimension))
        assert_linear_and_shift_invariant(
            lambda f: stream_collide(f, params), data.draw, 1, shape, signed)

    check()


@pytest.mark.parametrize("name,advection", KERNEL_MODELS)
def test_constrained_smooth_is_linear_and_shift_invariant(name, advection):
    """Linear in the field and the pinned density together: both are
    packed into one input, the density last."""
    params = benchmark_params(name, advection=advection)
    q = params.vset.q

    @PROPERTY
    @given(st.data())
    def check(data):
        shape = (q + 1,) + data.draw(grid_shapes(params.vset.dimension))
        m = data.draw(st.integers(0, 3))
        assert_linear_and_shift_invariant(
            lambda z: constrained_smooth(z[:-1], z[-1], m, params),
            data.draw, 1, shape, signed)

    check()


def group_grids(dimension):
    """Grids on both sides of stream_collide's group budget: in 1D rows of
    3 to 3,000 cells, which take all q velocities per group up to 2,730
    cells and groups of 2 and 1 beyond; in 2D all q (5 x 45), groups of
    8 and 1 or of 5 (40 x 25) and one velocity per group (101 x 200)."""
    if dimension == 1:
        return st.tuples(st.one_of(st.integers(3, 3000),
                                   st.sampled_from((2730, 2731))))
    return st.sampled_from(((5, 45), (40, 25), (101, 200)))


def signed_field(seed, shape):
    """Normal values, every seventh cell -0.0 in all velocities: the sign
    a sum from +0.0 sets, and a sum from the first velocity does not."""
    f = np.random.default_rng(seed).normal(size=shape)
    f.reshape(shape[0], -1)[:, ::7] = -0.0
    return f


@pytest.mark.parametrize("name", sorted(VELOCITY_SETS))
def test_stream_collide_matches_roll_reference_off_the_matrix(name):
    """Bit for bit the collide-then-np.roll reference, at any group size,
    omega and advection, with the field stored either way round, and the
    input field left as it was: the relaxation terms sit in the rows of
    the new field, never in those of f."""
    @PROPERTY
    @given(off_matrix_models(name), group_grids(VELOCITY_SETS[name].dimension),
           st.integers(0, 2 ** 32 - 1))
    def check(params, grid, seed):
        f = signed_field(seed, (params.vset.q,) + grid)
        want = roll_stream_collide(f, params).tobytes()
        for field in (f, velocity_innermost(f)):
            before = field.tobytes()
            assert stream_collide(field, params).tobytes() == want
            assert field.tobytes() == before

    check()


@pytest.mark.parametrize("name", sorted(VELOCITY_SETS))
def test_constrained_smooth_matches_roll_reference(name):
    """Bit for bit roll_stream_collide steps, their binomial sum and an
    explicit reset of the rest row, at m = 0..3."""
    @PROPERTY
    @given(off_matrix_models(name), group_grids(VELOCITY_SETS[name].dimension),
           st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
    def check(params, grid, m, seed):
        f = signed_field(seed, (params.vset.q,) + grid)
        rho0 = np.random.default_rng(seed + 1).normal(size=grid)
        got = constrained_smooth(f, rho0, m, params)
        want = roll_constrained_smooth(f, rho0, m, params)
        assert got.tobytes() == want.tobytes()

    check()


def velocity_innermost(f):
    """The values of f stored with the velocity axis innermost in memory."""
    inner = np.moveaxis(np.ascontiguousarray(np.moveaxis(f, 0, -1)), -1, 0)
    assert inner.strides[0] == inner.itemsize
    return inner


@pytest.mark.parametrize("name", sorted(VELOCITY_SETS))
def test_kernels_round_alike_whatever_the_memory_layout(name):
    """restrict, stream_collide, reset_density and constrained_smooth
    give the same bits on a field stored with the velocity axis outermost
    and on the same field stored innermost, where np.sum would add the
    velocities pairwise.  On the outermost layout restrict keeps np.sum's
    bits on every grid of more than one cell; on one cell np.sum adds the
    nine D2Q9 velocities pairwise whatever the layout."""
    vset = VELOCITY_SETS[name]

    @PROPERTY
    @given(off_matrix_models(name),
           st.tuples(*(st.integers(1, 12),) * vset.dimension),
           st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
    def check(params, grid, m, seed):
        outer = signed_field(seed, (vset.q,) + grid)
        inner = velocity_innermost(outer)
        rho0 = np.random.default_rng(seed + 1).normal(size=grid)
        if np.prod(grid) > 1:
            assert restrict(outer).tobytes() == outer.sum(axis=0).tobytes()
        for kernel in (restrict, lambda f: stream_collide(f, params),
                       lambda f: reset_density(f.copy(order="K"), rho0, vset),
                       lambda f: constrained_smooth(f, rho0, m, params)):
            assert kernel(outer).tobytes() == kernel(inner).tobytes()

    check()


@pytest.mark.parametrize("label", sorted(LIFTERS))
def test_every_lifter_is_linear_and_shift_invariant(label):
    """The impulse-response trainer and the CR transfer kernel rest on
    this; densities stay positive, as the lifters' inputs do."""
    name, advection, make = LIFTERS[label]
    params = benchmark_params(name, advection=advection)
    lifter = make()

    @PROPERTY
    @given(st.data())
    def check(data):
        shape = data.draw(grid_shapes(params.vset.dimension))
        assert_linear_and_shift_invariant(
            lambda rho: lifter.lift(rho, params), data.draw, 0, shape,
            densities)

    check()


@pytest.mark.parametrize("label", sorted(LIFTERS))
def test_every_lifter_refuses_empty_and_non_finite_densities(label):
    """One ValueError from lattice.finite_density, before any LBM step."""
    name, advection, make = LIFTERS[label]
    params = benchmark_params(name, advection=advection)
    lifter = make()
    empty = [(0,)] if params.vset.dimension == 1 else [(0, 5), (5, 0), (0, 0)]
    steps = lbm_step_count()
    for shape in empty:
        with pytest.raises(ValueError, match=re.escape(
                f"empty density grid of shape {shape}")):
            lifter.lift(np.ones(shape), params)
    rho = np.ones((7,) * params.vset.dimension)
    rho[(3,) * rho.ndim] = np.nan
    with pytest.raises(ValueError, match=r"non-finite density nan at cell "
                                         + re.escape(str((3,) * rho.ndim))):
        lifter.lift(rho, params)
    assert lbm_step_count() == steps


def _valid_coefficients():
    params = benchmark_params("D2Q9", advection=(1.0, 0.5))
    coeffs = with_flat(zero_coefficients(params, 2), np.linspace(-1, 1, 45))
    coeffs.time_term = np.full(params.vset.q, 0.25)
    return coeffs


VALID_TEXT = coefficients_to_text(_valid_coefficients())


def _number_lines(lines):
    return [k for k, line in enumerate(lines)
            if line.startswith(("term ", "time "))]


@st.composite
def malformed_texts(draw):
    lines = VALID_TEXT.splitlines()
    assert len(lines) == 12      # comment, 5 header lines, 5 terms, time
    kind = draw(st.sampled_from([
        "drop header", "garbage number", "non-finite number", "short vector",
        "long vector", "term arity", "term label", "unknown set",
        "no equals sign"]))
    if kind == "drop header":
        field = draw(st.sampled_from(["set", "dx", "dt", "omega",
                                      "advection"]))
        lines = [line for line in lines if not line.startswith(field + " ")]
    elif kind in ("garbage number", "non-finite number", "short vector",
                  "long vector"):
        k = draw(st.sampled_from(_number_lines(lines)))
        key, values = lines[k].split(" = ")
        tokens = values.split()
        slot = draw(st.integers(0, len(tokens) - 1))
        if kind == "garbage number":
            tokens[slot] = draw(st.text(alphabet="xyz_!?,", min_size=1,
                                        max_size=5))
        elif kind == "non-finite number":
            tokens[slot] = draw(st.sampled_from(["nan", "inf", "-inf"]))
        elif kind == "short vector":
            del tokens[slot]
        else:
            tokens.insert(slot, "0.5")
        lines[k] = f"{key} = {' '.join(tokens)}"
    elif kind in ("term arity", "term label"):
        k = draw(st.sampled_from([k for k in _number_lines(lines)
                                  if lines[k].startswith("term ")]))
        key, values = lines[k].split(" = ")
        label = draw(st.sampled_from(
            ["d0d0", "d-1d2", "d1dx", "d", "d7d0"]
            if kind == "term label" else ["d1", "d2d0d0"]))
        lines[k] = f"term {label} = {values}"
    elif kind == "unknown set":
        lines = [f"set = {draw(st.sampled_from(['D3Q19', 'd2q9', '']))}"
                 if line.startswith("set ") else line for line in lines]
    else:
        k = draw(st.integers(1, len(lines) - 1))
        lines[k] = lines[k].replace("=", " ")
    return "\n".join(lines) + "\n"


def test_valid_text_parses():
    coeffs = coefficients_from_text(VALID_TEXT)
    assert len(coeffs.terms) == 5 and coeffs.time_term is not None


@PROPERTY
@given(malformed_texts())
def test_malformed_coefficient_text_is_refused(text):
    with pytest.raises(ValueError):
        coefficients_from_text(text)
