import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lblift import (VELOCITY_SETS, CoefficientLifter, CrConfig, CrLifter,
                    EquilibriumLifter, HybridSpec, HybridState, MacroPde,
                    NceTrainConfig, analytic_coefficients, analytic_pde,
                    compare_to_reference,
                    default_split, full_density, hybrid_step, init_hybrid,
                    lbm_step_count, train_coefficients)
from lblift.hybrid import _split_state
from lblift.lifters import lift_reach

from conftest import (benchmark_params, gaussian_density, off_matrix_models,
                      roll_stream_collide, zero_coefficients)
from test_lifting import reference_lift


def make_spec(params, lifter, cells=200, split=None, rho0=None):
    return HybridSpec(
        total_cells=cells,
        split_index=default_split(cells) if split is None else split,
        params=params,
        pde=analytic_pde(params),
        lifter=lifter,
        initial_density=gaussian_density(params, cells) if rho0 is None
        else rho0,
    )


def order2_lifter(params):
    return CoefficientLifter(analytic_coefficients(params, 2), name="ce2")


def test_default_split_is_midpoint():
    assert default_split(200) == 100
    assert default_split(7) == 3


def test_spec_validation():
    p = benchmark_params("D1Q3")
    with pytest.raises(ValueError):
        make_spec(p, EquilibriumLifter(), split=0)
    with pytest.raises(ValueError):
        make_spec(p, EquilibriumLifter(), split=199)
    with pytest.raises(ValueError):
        make_spec(p, EquilibriumLifter(), rho0=np.ones(100))  # wrong length
    with pytest.raises(ValueError):
        make_spec(p, EquilibriumLifter(), rho0=np.full(200, np.nan))


def test_non_integral_sizes_are_refused():
    """Cell counts, split indices and step counts are refused unless
    Python or numpy integers, naming the field, before any lift."""
    p = benchmark_params("D1Q3")
    for cells, split, field in ((20.0, 10, "total_cells"),
                                (20, 10.0, "split_index"),
                                (20, True, "split_index")):
        with pytest.raises(ValueError, match=f"^{field} .* is not an integer"):
            make_spec(p, EquilibriumLifter(), cells=cells, split=split,
                      rho0=gaussian_density(p, 20))
    spec = make_spec(p, EquilibriumLifter(), cells=np.int64(20),
                     split=np.int32(10), rho0=gaussian_density(p, 20))
    for steps in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="^steps .* is not an integer"):
            compare_to_reference(spec, steps)
    assert compare_to_reference(spec, np.int64(3)).max_error.shape == (3,)


def test_spec_names_the_cell_of_a_non_finite_initial_density():
    p = benchmark_params("D1Q3")
    rho = gaussian_density(p)
    rho[17] = np.nan
    with pytest.raises(ValueError, match=r"^initial density: non-finite "
                                         r"density nan at cell \(17,\)$"):
        make_spec(p, EquilibriumLifter(), rho0=rho)
    with pytest.raises(ValueError, match="density rank 2 does not match D1Q3"):
        make_spec(p, EquilibriumLifter(), rho0=np.ones((200, 3)))


def test_init_shapes_and_density_roundtrip():
    p = benchmark_params("D1Q3")
    spec = make_spec(p, order2_lifter(p))
    state = init_hybrid(spec)
    split = spec.split_index
    assert state.rho_pde.shape == (split + 1,)
    assert state.f_lbm.shape == (3, 200 - split - 1)
    # zero-mass lift columns make restrict o lift the identity
    assert_allclose(full_density(state, spec), spec.initial_density,
                    rtol=1e-13, atol=1e-15)


def test_uniform_density_is_steady():
    p = benchmark_params("D1Q3")
    spec = make_spec(p, order2_lifter(p), rho0=np.full(200, 1.3))
    state = init_hybrid(spec)
    for _ in range(50):
        state = hybrid_step(state, spec)
    assert_allclose(full_density(state, spec), 1.3, rtol=0, atol=0)


def test_mass_drift_stays_small():
    """The ghost exchange is not exactly conservative; the relative mass
    drift over 200 steps stays below 1e-5 (measured ~1.2e-6)."""
    p = benchmark_params("D1Q3")
    spec = make_spec(p, order2_lifter(p))
    state = init_hybrid(spec)
    mass0 = full_density(state, spec).sum()
    for _ in range(200):
        state = hybrid_step(state, spec)
    drift = abs(full_density(state, spec).sum() - mass0) / mass0
    assert drift < 1e-5


def test_coupling_error_concentrates_at_interface():
    """Far from the split the hybrid tracks the reference at least as
    well as near it."""
    p = benchmark_params("D1Q3")
    spec = make_spec(p, order2_lifter(p))
    out = compare_to_reference(spec, 100, keep_fields=True)
    err = out.error_fields[-1]
    split = spec.split_index
    near = np.r_[err[split - 5:split + 6], err[:5], err[-5:]]
    far = err[split + 40:split + 60]
    assert far.max() <= near.max()


def test_compare_to_reference_shapes():
    p = benchmark_params("D1Q3")
    spec = make_spec(p, order2_lifter(p))
    out = compare_to_reference(spec, 30)
    assert out.max_error.shape == (30,)
    assert out.l2_error.shape == (30,)
    assert out.error_fields is None
    assert np.all(out.max_error <= out.l2_error + 1e-18)
    assert out.final_error_field.shape == (200,)
    with_fields = compare_to_reference(spec, 5, keep_fields=True)
    assert with_fields.error_fields.shape == (5, 200)
    assert np.array_equal(with_fields.final_error_field,
                          with_fields.error_fields[-1])


def test_compare_to_reference_lifts_initial_density_once():
    """One lift starts both runs, then one per hybrid step; the hybrid's
    own start equals init_hybrid's."""
    p = benchmark_params("D1Q3")
    calls = []

    class Counting:
        name = "counting"

        def lift(self, rho, params):
            calls.append(rho.copy())
            return order2_lifter(params).lift(rho, params)

    spec = make_spec(p, Counting())
    start = init_hybrid(spec)
    calls.clear()
    out = compare_to_reference(spec, 1)
    assert len(calls) == 2
    assert_allclose(calls[0], spec.initial_density, rtol=0, atol=0)
    stepped = hybrid_step(start, spec)
    assert np.array_equal(out.final_state.f_lbm, stepped.f_lbm)
    assert np.array_equal(out.final_state.rho_pde, stepped.rho_pde)


@pytest.mark.parametrize("lifter", [EquilibriumLifter(), "ce2"],
                         ids=["equilibrium", "ce2"])
def test_compare_to_reference_stops_at_first_non_finite_density(lifter):
    """A PDE half with 400x the model's diffusion is far past the FTCS
    stability limit and overflows; the comparison stops at the first
    non-finite density with the step and the cell, whatever the lifter."""
    p = benchmark_params("D1Q3")
    pde = analytic_pde(p)
    spec = HybridSpec(total_cells=200, split_index=100, params=p,
                      pde=MacroPde(pde.advection, 400 * pde.diffusion),
                      lifter=order2_lifter(p) if lifter == "ce2" else lifter,
                      initial_density=gaussian_density(p))
    with pytest.warns(UserWarning, match="forward Euler may be unstable"), \
            np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as refused:
            compare_to_reference(spec, 200)
        match = re.fullmatch(
            r"hybrid step (\d+): non-finite density \S+ at cell \((\d+),\)",
            str(refused.value))
        assert match, str(refused.value)
        step, cell = (int(g) for g in match.groups())
        assert cell <= spec.split_index
        before = compare_to_reference(spec, step - 1)
    assert np.all(np.isfinite(before.max_error))
    assert np.all(np.isfinite(full_density(before.final_state, spec)))


def ghost_hybrid_step(state, spec):
    """Reference hybrid step whose kernels write only the interior of the
    ghost rim: the np.roll BGK update cropped to it, and FTCS from shifted
    slices along the split axis (np.roll on the others).  The LBM field is
    built around state.f_lbm by concatenation, and the returned rim keeps
    zero ghosts, which the next step never reads."""
    p = spec.split_index
    rho = full_density(state, spec)
    f_lift = spec.lifter.lift(rho, spec.params)
    f_ext = np.concatenate(
        [f_lift[:, p: p + 1], state.f_lbm, f_lift[:, 0:1]], axis=1)
    f_new = np.zeros_like(f_ext)
    f_new[:, 1:-1] = roll_stream_collide(f_ext, spec.params)[:, 1:-1]

    rho_ext = np.concatenate(
        [rho[-1:], state.rho_pde, rho[p + 1: p + 2]], axis=0)
    dx, dt = spec.params.dx, spec.params.dt
    nu = spec.pde.diffusion * dt / dx ** 2
    mid, east, west = rho_ext[1:-1], rho_ext[2:], rho_ext[:-2]
    a = spec.pde.advection[0]
    rho_new = mid + nu * (east - 2.0 * mid + west) \
        - (a * dt / (2.0 * dx)) * (east - west)
    for ax in range(1, mid.ndim):
        east = np.roll(mid, -1, axis=ax)
        west = np.roll(mid, 1, axis=ax)
        a = spec.pde.advection[ax]
        rho_new += nu * (east - 2.0 * mid + west) \
            - (a * dt / (2.0 * dx)) * (east - west)
    return HybridState(rho_pde=rho_new, f_rim=f_new)


def trained_lifter(params, order, m):
    cfg = NceTrainConfig(spatial_order=order, m=m)
    return CoefficientLifter(train_coefficients(cfg, params).coefficients)


@pytest.mark.parametrize("name, advection, lifter, cells, split", [
    ("D1Q3", (), lambda p: CrLifter(CrConfig(m=3)), 200, None),
    ("D1Q3", (0.66,), lambda p: trained_lifter(p, 4, 2), 200, None),
    ("D2Q9", (1.0, 0.5), lambda p: trained_lifter(p, 4, 1), 60, None),
    ("D1Q3", (), lambda p: trained_lifter(p, 6, 2), 200, None),
    ("D1Q3", (0.66,), lambda p: trained_lifter(p, 4, 1), 200, None),
    ("D2Q5", (), lambda p: trained_lifter(p, 4, 1), 60, None),
    ("D2Q9", (1.0, 0.5), lambda p: trained_lifter(p, 6, 3), 60, None),
    ("D2Q9", (), lambda p: trained_lifter(p, 2, 1), 60, None),
    # reach 3: a 14-row slab just fits 15 cells, and its two segments
    # overlap at splits 1 and 13; on 14 and 9 cells the slab holds some
    # rows twice or three times
    ("D1Q3", (), lambda p: trained_lifter(p, 6, 2), 15, 1),
    ("D1Q3", (), lambda p: trained_lifter(p, 6, 2), 15, 7),
    ("D1Q3", (), lambda p: trained_lifter(p, 6, 2), 15, 13),
    ("D1Q3", (), lambda p: trained_lifter(p, 6, 2), 14, 7),
    ("D1Q3", (), lambda p: trained_lifter(p, 6, 2), 9, 4),
    # reach 2: a 10-row slab on 11 rows
    ("D2Q9", (1.0, 0.5), lambda p: trained_lifter(p, 4, 1), 11, 1),
    ("D2Q9", (1.0, 0.5), lambda p: trained_lifter(p, 4, 1), 11, 9),
    ("D2Q9", (), lambda p: EquilibriumLifter(), 11, 3),
], ids=["D1Q3-cr", "D1Q3-trained", "D2Q9-advective-trained",
        "D1Q3-R6-m2", "D1Q3-advective-R4-m1", "D2Q5-R4-m1",
        "D2Q9-advective-R6-m3", "D2Q9-R2-m1",
        "D1Q3-15-split-1", "D1Q3-15-split-7", "D1Q3-15-split-13",
        "D1Q3-14-full-field", "D1Q3-9-below-slab", "D2Q9-11-split-1", "D2Q9-11-split-9",
        "D2Q9-11-equilibrium"])
def test_hybrid_step_matches_ghost_reference(name, advection, lifter, cells,
                                             split):
    """Periodic kernels on the rimmed subdomains, cropped afterwards, give
    bit for bit what kernels updating only the interior give; and the
    ghost slab lift gives bit for bit what the reference's full-field
    lift gives, overlapping slab segments and slabs longer than the grid
    included."""
    p = benchmark_params(name, advection=advection)
    spec = make_spec(p, lifter(p), cells=cells, split=split)
    h = lift_reach(spec.lifter, p)
    assert spec.lifted_rows == (cells if h is None else 4 * max(h, 1) + 2)
    state = ref = init_hybrid(spec)
    for step in range(20):
        state = hybrid_step(state, spec)
        ref = ghost_hybrid_step(ref, spec)
        assert np.array_equal(state.f_lbm, ref.f_lbm), step
        assert np.array_equal(state.rho_pde, ref.rho_pde), step
    assert not np.array_equal(state.rho_pde, init_hybrid(spec).rho_pde)


def spied(lifter, shapes):
    """lifter, its lift now recording the shape of every density handed
    to it."""
    lift = lifter.lift

    def recording(rho, params):
        shapes.append(rho.shape)
        return lift(rho, params)

    lifter.lift = recording
    return lifter


class Forwarding:
    """A wrapper that lifts exactly as the wrapped lifter; it exposes the
    wrapped lifter as `inner` only if asked to."""

    name = "forwarding"

    def __init__(self, lifter, expose):
        if expose:
            self.inner = lifter
        self._lifter = lifter

    def lift(self, rho, params):
        return self._lifter.lift(rho, params)


@pytest.mark.parametrize("name, lifter, started, lifted", [
    ("D1Q3", order2_lifter, (23,), (6,)),
    ("D1Q3", lambda p: trained_lifter(p, 6, 2), (27,), (14,)),
    ("D2Q9", lambda p: EquilibriumLifter(), (21, 40), (6, 40)),
    ("D2Q9", lambda p: trained_lifter(p, 4, 1), (25, 40), (10, 40)),
    ("D1Q3", lambda p: CrLifter(CrConfig(m=1)), (40,), (40,)),
    ("D2Q9", lambda p: Forwarding(trained_lifter(p, 4, 1), False), (40, 40),
     (40, 40)),
    ("D2Q9", lambda p: Forwarding(trained_lifter(p, 4, 1), True), (25, 40),
     (10, 40)),
], ids=["D1Q3-order2", "D1Q3-R6", "D2Q9-equilibrium", "D2Q9-R4",
        "D1Q3-cr", "D2Q9-no-reach", "D2Q9-inner"])
def test_hybrid_step_lifts_the_ghost_slab(name, lifter, started, lifted):
    """Each step hands the lifter the 4g+2 density rows around the two
    interfaces, g = max(h, 1), when the lifter states a finite reach h,
    itself or through `inner`, and the whole field otherwise; init_hybrid
    hands it the n-p+1+2h rows p-h..n+h (21+2h at n = 40, p = 20), and a
    lifter without a reach, a constrained-runs one too, the whole field."""
    p = benchmark_params(name, advection=(1.0, 0.5) if name == "D2Q9" else ())
    outer = lifter(p)
    shapes = []
    spied(getattr(outer, "_lifter", outer), shapes)
    spec = make_spec(p, outer, cells=40)
    state = init_hybrid(spec)
    for _ in range(3):
        state = hybrid_step(state, spec)
    assert shapes == [started] + 3 * [lifted]


@pytest.mark.parametrize("name, lifter, cells", [
    ("D1Q3", lambda p: EquilibriumLifter(), 40),
    ("D1Q3", order2_lifter, 40),
    ("D1Q3", lambda p: trained_lifter(p, 6, 2), 40),
    ("D2Q9", lambda p: trained_lifter(p, 4, 1), 40),
    # reach 3: the 10-row start slab wraps a 6-cell grid
    ("D1Q3", lambda p: trained_lifter(p, 6, 2), 6),
], ids=["D1Q3-equilibrium", "D1Q3-analytic", "D1Q3-R6", "D2Q9-R4",
        "D1Q3-R6-below-slab"])
def test_init_hybrid_is_the_cropped_full_lift(name, lifter, cells):
    """init_hybrid, which lifts only the LBM rows and their reach, starts
    from exactly the state a lift of the whole field, cropped, gives; a
    grid shorter than the start slab included."""
    p = benchmark_params(name, advection=(1.0, 0.5) if name == "D2Q9" else ())
    spec = make_spec(p, lifter(p), cells=cells)
    h = lift_reach(spec.lifter, p)
    assert spec.start[0].size == cells - spec.split_index + 1 + 2 * h
    state = init_hybrid(spec)
    full = _split_state(spec.lifter.lift(spec.initial_density, p), spec)
    assert np.array_equal(state.f_rim, full.f_rim)
    assert np.array_equal(state.rho_pde, full.rho_pde)


@st.composite
def few_row_hybrids(draw):
    """A hybrid off the acceptance matrix: a drawn velocity set, omega in
    (0.3, 1.9) and advection (conftest.off_matrix_models); a coefficient
    lifter of spatial order 0 to 4 with drawn vectors, each term scaled by
    dx to its order, so reaches 0 to 2; 3 to 12 rows of 1 to 6 cells in
    2D, where the ghost slab wraps the grid or holds rows twice; a drawn
    split, densities near 1, and a PDE of diffusion number 0.05 to 0.2,
    inside ftcs_step's bounds at every drawn advection."""
    params = draw(st.sampled_from(sorted(VELOCITY_SETS)).flatmap(
        off_matrix_models))
    rows = draw(st.integers(3, 12))
    shape = (rows,) + tuple(draw(st.integers(1, 6))
                            for _ in range(params.vset.dimension - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs = zero_coefficients(params, draw(st.integers(0, 4)))
    for term in coeffs.terms:
        coeffs.terms[term] = rng.normal(size=params.vset.q) \
            * params.dx ** term.total
    nu = draw(st.floats(0.05, 0.2))
    return HybridSpec(
        total_cells=rows, split_index=draw(st.integers(1, rows - 2)),
        params=params,
        pde=MacroPde(params.advection, nu * params.dx ** 2 / params.dt),
        lifter=CoefficientLifter(coeffs),
        initial_density=1.0 + 0.1 * rng.normal(size=shape))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(few_row_hybrids())
def test_slab_start_and_steps_match_the_whole_field_run_off_the_matrix(spec):
    """The ghost-slab start and three ghost-slab steps give bit for bit
    the run that lifts the whole field, through a wrapper that states no
    reach, on few-row grids and off the acceptance matrix."""
    whole = dataclasses.replace(spec, lifter=Forwarding(spec.lifter, False))
    h = lift_reach(spec.lifter, spec.params)
    assert spec.lifted_rows == 4 * max(h, 1) + 2
    assert whole.lifted_rows == spec.total_cells
    state, ref = init_hybrid(spec), init_hybrid(whole)
    for step in range(4):
        if step:
            state, ref = hybrid_step(state, spec), hybrid_step(ref, whole)
        assert np.array_equal(state.f_rim, ref.f_rim), step
        assert np.array_equal(state.rho_pde, ref.rho_pde), step


def test_cr_hybrid_spec_probes_nothing():
    """Looking up the reach of a constrained-runs lifter runs no LBM step
    and probes no transfer kernel: the spec reads, and starts from, the
    whole field."""
    p = benchmark_params("D1Q3")
    lifter = CrLifter(CrConfig(m=3))
    before = lbm_step_count()
    spec = make_spec(p, lifter)
    assert lbm_step_count() == before
    assert lifter._kernels == {}
    assert spec.reads == ((0, 101), (101, 200))
    assert spec.lifted_rows == 200
    assert spec.start == (slice(None), None)


def test_two_d_uniform_steady():
    p = benchmark_params("D2Q5")
    rho = np.full((40, 40), 0.9)
    spec = HybridSpec(total_cells=40, split_index=20, params=p,
                      pde=analytic_pde(p), lifter=EquilibriumLifter(),
                      initial_density=rho)
    state = init_hybrid(spec)
    for _ in range(20):
        state = hybrid_step(state, spec)
    assert_allclose(full_density(state, spec), 0.9, atol=0)


def test_two_d_shapes():
    p = benchmark_params("D2Q9")
    rho = gaussian_density(p, cells=30)
    spec = HybridSpec(total_cells=30, split_index=14, params=p,
                      pde=analytic_pde(p), lifter=EquilibriumLifter(),
                      initial_density=rho)
    state = init_hybrid(spec)
    assert state.rho_pde.shape == (15, 30)
    assert state.f_lbm.shape == (9, 15, 30)
    # the LBM field keeps its two ghost columns; f_lbm is a view inside,
    # at the start of the lift of the LBM rows that f_rim itself views
    assert state.f_rim.shape == (9, 17, 30)
    assert np.shares_memory(state.f_lbm, state.f_rim)
    state = hybrid_step(state, spec)
    assert state.f_rim.shape == (9, 17, 30)
    assert state.f_lbm.base is state.f_rim
    assert full_density(state, spec).shape == (30, 30)


class ReferenceLifter:
    """A coefficient lift through the per-term spatial_derivative sum."""

    def __init__(self, coefficients):
        self.coefficients = coefficients

    def lift(self, rho, params):
        return reference_lift(rho, self.coefficients, params)


def test_two_d_hybrid_with_reference_lift():
    """The stencil lift in its real use: a 40 x 40 D2Q9 hybrid follows the
    same run with the per-term reference lift to 1e-13 in density over 20
    steps (measured 1.4e-15)."""
    p = benchmark_params("D2Q9", advection=(1.0, 0.5))
    lifter = trained_lifter(p, 4, 1)
    specs = [make_spec(p, lift, cells=40)
             for lift in (lifter, ReferenceLifter(lifter.coefficients))]
    states = [init_hybrid(spec) for spec in specs]
    gap = 0.0
    for _ in range(20):
        states = [hybrid_step(s, spec) for s, spec in zip(states, specs)]
        rho, ref = (full_density(s, spec) for s, spec in zip(states, specs))
        gap = max(gap, np.abs(rho - ref).max())
    assert gap <= 1e-13, gap
    assert not np.array_equal(rho, specs[0].initial_density)
