import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lblift import (CoefficientLifter, CrConfig, CrLifter, EquilibriumLifter,
                    HybridSpec, HybridState, MacroPde, NceTrainConfig,
                    analytic_coefficients, analytic_pde, compare_to_reference,
                    default_split, full_density, hybrid_step, init_hybrid,
                    train_coefficients)

from conftest import benchmark_params, gaussian_density, roll_stream_collide


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


def test_time_counter_advances():
    p = benchmark_params("D1Q3")
    spec = make_spec(p, order2_lifter(p))
    state = init_hybrid(spec)
    state = hybrid_step(hybrid_step(state, spec), spec)
    assert state.t == 2


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
    with_fields = compare_to_reference(spec, 5, keep_fields=True)
    assert with_fields.error_fields.shape == (5, 200)


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
    return HybridState(rho_pde=rho_new, f_rim=f_new, t=state.t + 1)


def trained_lifter(params, order, m):
    cfg = NceTrainConfig(spatial_order=order, m=m)
    return CoefficientLifter(train_coefficients(cfg, params).coefficients)


@pytest.mark.parametrize("name, advection, lifter, cells", [
    ("D1Q3", (), lambda p: CrLifter(CrConfig(m=3)), 200),
    ("D1Q3", (0.66,), lambda p: trained_lifter(p, 4, 2), 200),
    ("D2Q9", (1.0, 0.5), lambda p: trained_lifter(p, 4, 1), 60),
], ids=["D1Q3-cr", "D1Q3-trained", "D2Q9-advective-trained"])
def test_hybrid_step_matches_ghost_reference(name, advection, lifter, cells):
    """Periodic kernels on the rimmed subdomains, cropped afterwards, give
    bit for bit what kernels updating only the interior give."""
    p = benchmark_params(name, advection=advection)
    spec = make_spec(p, lifter(p), cells=cells)
    state = ref = init_hybrid(spec)
    for step in range(20):
        state = hybrid_step(state, spec)
        ref = ghost_hybrid_step(ref, spec)
        assert np.array_equal(state.f_lbm, ref.f_lbm), step
        assert np.array_equal(state.rho_pde, ref.rho_pde), step
    assert state.t == ref.t == 20
    assert not np.array_equal(state.rho_pde, init_hybrid(spec).rho_pde)


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
    # the LBM field keeps its two ghost columns; f_lbm is a view inside
    assert state.f_rim.shape == (9, 17, 30)
    assert state.f_lbm.base is state.f_rim
    state = hybrid_step(state, spec)
    assert state.f_rim.shape == (9, 17, 30)
    assert state.f_lbm.base is state.f_rim
    assert full_density(state, spec).shape == (30, 30)
