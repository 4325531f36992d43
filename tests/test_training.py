import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import factorial, lcm
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose

from lblift import (DerivSpec, LbmParams, LiftCoefficients, NceTrainConfig,
                    analytic_coefficients, analytic_pde, apply_lift,
                    augment_time_derivative, equilibrium, extract_pde,
                    lbm_step_count, restrict, stream_collide,
                    train_coefficients)
from lblift.constrained_runs import (CrConfig, constrained_smooth, cr_lift,
                                     impulse_responses)
from lblift.lifting import expansion_terms
from lblift.stencil import (MAX_TOTAL_ORDER, central_offsets,
                            time_derivative_forward)
from lblift import training
from lblift.training import (RESIDUAL_LIMIT, _probe_points, _probe_system,
                             _Workspace, buffer_width,
                             default_probe_positions)
from lblift.training import test_density_profiles as density_profiles

from conftest import (benchmark_params, difference_derivative,
                      gaussian_density, one_impulse_responses, with_flat,
                      zero_coefficients)


def test_config_validation():
    with pytest.raises(ValueError):
        NceTrainConfig(spatial_order=0)
    with pytest.raises(ValueError):
        NceTrainConfig(spatial_order=7)
    with pytest.raises(ValueError):
        NceTrainConfig(m=5)
    with pytest.raises(ValueError, match=r"^test_cells = 10: the edge margins "
                       r"need at least 4\(m\+3\) = 16 training cells$"):
        NceTrainConfig(test_cells=10)
    with pytest.raises(ValueError, match=r"^test_cells = 23: .* = 24 "):
        NceTrainConfig(m=3, test_cells=23)
    for field, bad in (("m", 1.0), ("spatial_order", 2.0), ("test_cells", 60.0),
                       ("m", True), ("spatial_order", "2")):
        with pytest.raises(ValueError, match=f"^{field} .* is not an integer"):
            NceTrainConfig(**{field: bad})
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^test_length .* is not finite"):
            NceTrainConfig(test_length=bad)
    for bad in (0.0, -3.0):
        with pytest.raises(ValueError, match="^test_length .* is not positive"):
            NceTrainConfig(test_length=bad)
    numpy_ints = NceTrainConfig(spatial_order=np.int64(2), m=np.int32(1),
                                test_cells=np.int64(60))
    p = benchmark_params("D1Q3")
    assert train_coefficients(numpy_ints, p).residual \
        == train_coefficients(NceTrainConfig(), p).residual


def test_test_density_profiles():
    cfg = NceTrainConfig(spatial_order=3, test_cells=60)
    profiles = density_profiles(cfg, 1)
    assert len(profiles) == 1
    width = buffer_width(cfg)
    n = 60 + 2 * width
    x = (np.arange(n) - width) * (cfg.test_length / cfg.test_cells)
    expected = x + x ** 2 / 2 + x ** 3 / 6
    assert_allclose(profiles[0], expected, rtol=1e-13, atol=1e-15)
    # 2D: one density per scale, stacked to keep the system nonsingular
    profiles2 = density_profiles(cfg, 2)
    assert len(profiles2) == cfg.spatial_order + 1
    assert all(p.shape == (n, n) for p in profiles2)


def per_density_profiles(cfg):
    """The 2D test densities over the whole grid built one scale at a
    time, every power formed anew: the loop that the stacked build
    replaced."""
    r = cfg.spatial_order
    width = buffer_width(cfg)
    x = (np.arange(cfg.test_cells + 2 * width) - width) * (
        cfg.test_length / cfg.test_cells)
    grid_x = x[:, None]
    grid_y = x[None, :]
    profiles = []
    for d in range(r + 1):
        scale = 1.0 + 0.5 * d
        rho = np.zeros((grid_x.size, x.size))
        for j in range(r + 1):
            for k in range(r + 1 - j):
                if j + k >= 1:
                    rho += (scale ** j / (factorial(j) * factorial(k))) \
                        * grid_x ** j * grid_y ** k
        profiles.append(rho)
    return profiles


def patch_cells(ws):
    """The buffered-grid cells of the workspace's patches, one index array
    per axis broadcasting to (2 radius + 1,) * dim + (probe,)."""
    span = np.arange(ws.patch_width) - (ws.patch_width - 1) // 2
    dimension = len(ws.probe_ix)
    return tuple(ix + span.reshape((-1,) + (1,) * (dimension - ax))
                 for ax, ix in enumerate(ws.probe_ix))


def side_by_side(patch, dimension):
    """patch[v, d, p] laid out as the workspace lifts it: the (density,
    probe) patches side by side along the last axis."""
    return np.moveaxis(patch, dimension - 1, -1).reshape(
        patch.shape[:dimension - 1] + (-1,))


@pytest.mark.parametrize("r", range(1, MAX_TOTAL_ORDER + 1))
def test_stacked_density_profiles_are_the_per_density_loop(r):
    """Bit for bit: the stacked build on the whole grid, by default and
    given every cell, against the per-density loop, and the evaluation at
    a workspace's patch cells, in
    1D and 2D, with and without the augmentation's extra probes, against
    the whole grid gathered there, which is also the workspace's own
    side-by-side patches."""
    cfg = NceTrainConfig(spatial_order=r, m=1)
    reference = per_density_profiles(cfg)
    every = np.arange(len(reference[0]))
    for at in (None, np.ix_(every, every)):
        stacked = density_profiles(cfg, 2, at)
        assert len(stacked) == len(reference) == r + 1
        for got, want in zip(stacked, reference):
            assert got.tobytes() == want.tobytes()
    for name, extra in product(("D1Q3", "D2Q9"), (False, True)):
        p = benchmark_params(name)
        ws = _Workspace(cfg, p, extra_probes=extra)
        dimension = p.vset.dimension
        cells = patch_cells(ws)
        whole = np.stack(density_profiles(cfg, dimension))
        gathered = whole[(slice(None),) + cells]
        at = np.stack(density_profiles(cfg, dimension, cells))
        assert at.tobytes() == gathered.tobytes(), (name, extra)
        assert ws.patches.tobytes() == side_by_side(
            np.moveaxis(gathered, 0, -2), dimension).tobytes(), (name, extra)


@pytest.mark.parametrize("name", ["D1Q3", "D2Q9"])
def test_patch_cells_lie_inside_the_buffered_grid(name):
    """Every patch index is a cell of the buffered test grid, which numpy
    would otherwise wrap silently for a negative one: at every (R, m),
    with and without the augmentation's extra probes, on the default grid
    and on the smallest one of 4(m+3) cells."""
    p = benchmark_params(name)
    for r, m, extra in product(range(1, MAX_TOTAL_ORDER + 1), range(4),
                               (False, True)):
        for cells in (60, 4 * (m + 3)):
            cfg = NceTrainConfig(spatial_order=r, m=m, test_cells=cells,
                                 test_length=cells * p.dx)
            size = cells + 2 * buffer_width(cfg)
            for ix in patch_cells(_Workspace(cfg, p, extra_probes=extra)):
                assert 0 <= ix.min() and ix.max() < size, (r, m, extra, cells)


def test_default_probes_fit_margins():
    cfg = NceTrainConfig(spatial_order=2, m=1, test_cells=60)
    probes = default_probe_positions(cfg, 4)
    assert probes == (10, 20, 30, 40)
    # too small for the 10,20,... ladder: falls back to spread positions
    tight = NceTrainConfig(spatial_order=2, m=1, test_cells=24)
    fallback = default_probe_positions(tight, 4)
    margin = tight.m + 3
    assert len(fallback) == 4
    assert all(margin <= p <= 24 - 1 - margin for p in fallback)
    assert len(set(fallback)) == 4


def test_recovers_analytic_coefficients():
    p = benchmark_params("D1Q3")
    result = train_coefficients(NceTrainConfig(spatial_order=2, m=1), p)
    exact = analytic_coefficients(p, 2)
    for spec in exact.terms:
        assert_allclose(result.coefficients.terms[spec], exact.terms[spec],
                        atol=1e-12)
    assert result.iterations == 1
    assert result.residual < 1e-11


def test_trained_lift_conserves_mass():
    p = benchmark_params("D1Q3", advection=(0.66,))
    result = train_coefficients(NceTrainConfig(spatial_order=2, m=1), p)
    rho = gaussian_density(p)
    lifted = apply_lift(rho, result.coefficients, p)
    assert_allclose(restrict(lifted), rho, rtol=1e-12)
    # the trained columns themselves carry no mass
    for col in result.coefficients.terms.values():
        assert abs(col.sum()) < 1e-12


def test_training_on_probe_fallback_grid():
    p = benchmark_params("D1Q3")
    cfg = NceTrainConfig(spatial_order=2, m=1, test_cells=24, test_length=1.2)
    result = train_coefficients(cfg, p)
    exact = analytic_coefficients(p, 2)
    for spec in exact.terms:
        assert_allclose(result.coefficients.terms[spec], exact.terms[spec],
                        atol=1e-10)


def test_default_probes_are_distinct_inside_the_margins_and_enough():
    """The probes have no refusals of their own: on every test grid
    NceTrainConfig accepts, from the smallest, the default positions are
    distinct, at least m+3 cells from both edges and no fewer than the
    coefficient vectors they determine, in 1D and 2D and at every order."""
    for m, dimension, order in product(range(4), (1, 2),
                                       range(1, MAX_TOTAL_ORDER + 1)):
        n_terms = len(expansion_terms(dimension, order))
        for cells in (*range(4 * (m + 3), 4 * (m + 3) + 48), 60):
            cfg = NceTrainConfig(spatial_order=order, m=m, test_cells=cells)
            points = _probe_points(cfg, dimension, n_terms)
            case = (m, dimension, order, cells)
            assert len(set(points)) == len(points) >= n_terms, case
            assert all(len(pt) == dimension for pt in points), case
            assert all(m + 3 <= p <= cells - 1 - (m + 3)
                       for pt in points for p in pt), case


def test_test_grid_spacing_must_match_production():
    p = benchmark_params("D1Q3")  # dx = 0.05
    cfg = NceTrainConfig(spatial_order=2, m=1, test_length=3.0, test_cells=30)
    with pytest.raises(ValueError):
        train_coefficients(cfg, p)  # test dx would be 0.1


def test_augment_pins_time_column():
    p = benchmark_params("D1Q3")
    cfg = NceTrainConfig(spatial_order=2, m=1)
    trained = train_coefficients(cfg, p)
    aug = augment_time_derivative(trained.coefficients, cfg, p)
    gamma = aug.coefficients.time_term
    assert_allclose(gamma, -p.dt / p.omega * p.equilibrium_weights(), atol=0)
    assert_allclose(gamma.sum(), -p.dt / p.omega, rtol=1e-15)
    assert aug.sigma_min > 0 and np.isfinite(aug.sigma_max)
    # the refit absorbs rho_t = D rho_xx into the d2 column: its shift
    # from the unaugmented fit is D (dt/omega) w_i, the d1 column is
    # untouched (no advection, no odd time signal)
    shift = (aug.coefficients.terms[DerivSpec((2,))]
             - trained.coefficients.terms[DerivSpec((2,))])
    assert_allclose(shift, 1.0 * p.dt / p.omega * p.equilibrium_weights(),
                    rtol=1e-4)
    assert_allclose(aug.coefficients.terms[DerivSpec((1,))],
                    trained.coefficients.terms[DerivSpec((1,))], atol=1e-10)


def test_augment_rejects_zero_omega():
    p = benchmark_params("D1Q3")
    cfg = NceTrainConfig(spatial_order=2, m=1)
    streaming = LbmParams(vset=p.vset, dx=p.dx, dt=p.dt, omega=0.0)
    with pytest.raises(ValueError, match="omega = 0"):
        augment_time_derivative(zero_coefficients(streaming, 2), cfg,
                                streaming)


def test_augment_refuses_coefficients_of_another_order():
    """Order-4 coefficients handed to an order-2 config, or order-2 ones
    to an order-4 config, are refused naming both orders, rather than
    coming back as an order-2 set."""
    p = benchmark_params("D1Q3")
    order4 = train_coefficients(NceTrainConfig(spatial_order=4, m=1), p)
    with pytest.raises(ValueError, match="spatial order 4 do not fit a "
                       "config of spatial order 2"):
        augment_time_derivative(order4.coefficients,
                                NceTrainConfig(spatial_order=2, m=1), p)
    with pytest.raises(ValueError, match="spatial order 2 do not fit a "
                       "config of spatial order 4"):
        augment_time_derivative(zero_coefficients(p, 2),
                                NceTrainConfig(spatial_order=4, m=1), p)


def test_extract_pde_modes_agree():
    p = benchmark_params("D1Q3")
    cfg = NceTrainConfig(spatial_order=2, m=1)
    aug = augment_time_derivative(train_coefficients(cfg, p).coefficients,
                                  cfg, p)
    summed = extract_pde(aug.coefficients, mode="summation")
    nulled = extract_pde(aug.coefficients, mode="nullspace",
                         system=aug.system)
    assert_allclose(summed.diffusion, 1.0, atol=1e-6)
    assert_allclose(summed.diffusion, nulled.diffusion, atol=1e-8)
    assert_allclose(summed.advection, (0.0,), atol=1e-8)


def test_nullspace_extraction_refuses_a_system_without_time_column():
    """The trained probe block has one column per term and no time
    column, so it holds no PDE relation to read off."""
    p = benchmark_params("D1Q3")
    cfg = NceTrainConfig(spatial_order=2, m=1)
    aug = augment_time_derivative(train_coefficients(cfg, p).coefficients,
                                  cfg, p)
    with pytest.raises(ValueError, match="2 derivative columns and a time"):
        extract_pde(aug.coefficients, mode="nullspace",
                    system=_Workspace(cfg, p).block)
    with pytest.raises(ValueError, match="enlarged probe system"):
        extract_pde(aug.coefficients, mode="nullspace")


def test_extract_requires_time_term():
    p = benchmark_params("D1Q3")
    trained = train_coefficients(NceTrainConfig(spatial_order=2, m=1), p)
    with pytest.raises(ValueError):
        extract_pde(trained.coefficients)


def test_extract_refuses_coefficients_without_a_second_derivative():
    """Order-1 coefficients carry no diffusion term to read off."""
    p = benchmark_params("D1Q3")
    cfg = NceTrainConfig(spatial_order=1, m=1)
    aug = augment_time_derivative(train_coefficients(cfg, p).coefficients,
                                  cfg, p)
    with pytest.raises(ValueError, match="spatial_order >= 2"):
        extract_pde(aug.coefficients, mode="summation")


def test_two_d_training_matches_one_d_structure():
    """D2Q5 axis coefficients: the pure x-derivative columns mirror the
    1D pattern on the moving directions, and training reproduces its own
    fixed point (residual certificate)."""
    p = benchmark_params("D2Q5")
    cfg = NceTrainConfig(spatial_order=2, m=1, test_cells=60)
    result = train_coefficients(cfg, p)
    assert result.residual < 1e-10
    co = result.coefficients.terms
    # symmetry between the two axes: d/dx column on (+1,0)/(-1,0) equals
    # d/dy column on (0,+1)/(0,-1)
    dx_col = co[DerivSpec((1, 0))]
    dy_col = co[DerivSpec((0, 1))]
    assert_allclose(dx_col[1], dy_col[2], atol=1e-12)
    assert_allclose(dx_col[3], dy_col[4], atol=1e-12)
    assert_allclose(dx_col[0], dy_col[0], atol=1e-12)


def newton_reference(cfg, params, rtol=1e-6, max_iter=6, eps=1e-8):
    """The forward-difference Newton iteration on the coefficient map
    a = H(a) that train_coefficients replaced: flat coefficients, from
    a = 0, after the first step below rtol max|a|.

    Each step shrinks by about the relative error of the difference
    Jacobian, at most 1e-3 on the criterion-4 table, so the step after it
    would be below 1e-9 max|a|.  Beyond that the steps hover at the
    rounding floor of H, up to 6e-10 max|a| at R = 6, which a stop rule
    below the floor would wait on.  The rule ends after 2 or 3 steps in
    all 24 (R, m) cases."""
    ws = _Workspace(cfg, params)
    template = zero_coefficients(params, cfg.spatial_order)

    def residual(flat):
        return flat - ws.h_map(with_flat(template, flat))

    flat = template.flatten()
    for _ in range(max_iter):
        res = residual(flat)
        jac = np.empty((flat.size, flat.size))
        for col in range(flat.size):
            step = eps * max(1.0, abs(flat[col]))
            bumped = flat.copy()
            bumped[col] += step
            jac[:, col] = (residual(bumped) - res) / step
        delta = np.linalg.solve(jac, res)
        flat = flat - delta
        if np.max(np.abs(delta)) <= rtol * np.max(np.abs(flat)):
            return flat
    raise AssertionError("reference Newton iteration did not converge")


@pytest.mark.parametrize("m", range(4))
def test_exact_solve_matches_newton_reference(m):
    """Over the criterion-4 D1Q3 table: coefficients within 1e-9 max|a|
    of the Newton reference, a closing residual of at most 1e-11, and
    (n_densities + 1)(m + 1) LBM steps, whatever R."""
    p = benchmark_params("D1Q3")
    for r in range(1, 7):
        cfg = NceTrainConfig(spatial_order=r, m=m)
        before = lbm_step_count()
        result = train_coefficients(cfg, p)
        steps = lbm_step_count() - before
        reference = newton_reference(cfg, p)
        gap = np.abs(result.coefficients.flatten() - reference).max()
        assert gap <= 1e-9 * np.abs(reference).max(), (r, gap)
        assert result.residual <= 1e-11, (r, result.residual)
        assert result.iterations == 1
        n_densities = len(density_profiles(cfg, 1))
        assert steps == result.lbm_steps == (n_densities + 1) * (m + 1)


def test_two_d_step_count():
    """One probe run and one closing run on the probe windows: 2(m + 1)
    LBM steps whatever the number of test densities, 4 for D2Q5 at order 2
    (3 densities) and for advective D2Q9 at order 4 (5 densities) with
    m = 1, and 8 for advective D2Q9 at order 6 (7 densities) with m = 3."""
    for name, advection, order, m, steps in (("D2Q5", (), 2, 1, 4),
                                             ("D2Q9", (1.0, 0.5), 4, 1, 4),
                                             ("D2Q9", (1.0, 0.5), 6, 3, 8)):
        p = benchmark_params(name, advection=advection)
        cfg = NceTrainConfig(spatial_order=order, m=m)
        before = lbm_step_count()
        result = train_coefficients(cfg, p)
        assert lbm_step_count() - before == result.lbm_steps \
            == 2 * (cfg.m + 1) == steps


@pytest.mark.parametrize("name,advection,order", [
    ("D1Q3", (), 4), ("D2Q5", (), 2), ("D2Q9", (1.0, 0.5), 4)])
def test_augmentation_step_count(name, advection, order):
    """The time augmentation runs its two free LBM steps once, on the
    probe windows of every test density together."""
    p = benchmark_params(name, advection=advection)
    cfg = NceTrainConfig(spatial_order=order)
    coeffs = train_coefficients(cfg, p).coefficients
    before = lbm_step_count()
    augment_time_derivative(coeffs, cfg, p)
    assert lbm_step_count() - before == 2


def full_grid(ws):
    """The test densities over the whole test grid, and the workspace's
    probe index on it."""
    return density_profiles(ws.cfg, ws.params.vset.dimension), ws.probe_ix


def at_probes(f, probes):
    """A distribution field at the probes, one row per probe."""
    return f[(slice(None),) + probes].T


def full_grid_h_map(ws, coeffs):
    """H(a) by direct constrained runs of the test densities over the
    whole test grid, one lift per density without a shared kernel."""
    densities, probes = full_grid(ws)
    rows = [at_probes(constrained_smooth(apply_lift(rho, coeffs, ws.params),
                                         rho, ws.cfg.m, ws.params)
                      - equilibrium(rho, ws.params), probes)
            for rho in densities]
    return ws.solve(np.vstack(rows)).ravel()


def full_grid_augment(coeffs, cfg, params):
    """The enlarged system and the re-solved coefficient matrix of the
    time augmentation, from two free LBM steps over the whole test grid."""
    ws = _Workspace(cfg, params, extra_probes=True)
    densities, probes = full_grid(ws)
    rhs, time_col = [], []
    for rho in densities:
        f = [apply_lift(rho, coeffs, params)]
        f += [stream_collide(f[0], params)]
        f += [stream_collide(f[1], params)]
        rho_t = time_derivative_forward([restrict(g) for g in f], params.dt)
        rhs.append(at_probes(f[0] - equilibrium(rho, params), probes))
        time_col.append(rho_t[probes])
    time_col = np.concatenate(time_col)
    gamma = -(params.dt / params.omega) * params.equilibrium_weights()
    return (np.hstack([ws.block, time_col[:, None]]),
            ws.solve(np.vstack(rhs) - np.outer(time_col, gamma)))


def field_loop_linear_part(ws):
    """M column by column: smooth e_i D_T rho with density 0 over the
    whole test grid for every term, velocity and test density, the
    derivative fields taken over the whole grid by difference_derivative."""
    q = ws.params.vset.q
    columns = list(product(ws.specs, range(q)))
    points = len(ws.probe_points)
    densities, probes = full_grid(ws)
    response = np.empty((points * len(densities), q, len(columns)))
    delta = np.zeros((q,) + densities[0].shape)
    zero_density = np.zeros(delta.shape[1:])
    for d, rho in enumerate(densities):
        fields = {spec: difference_derivative(rho, spec, ws.params.dx)
                  for spec in ws.specs}
        rows = response[d * points:(d + 1) * points]
        for k, (spec, i) in enumerate(columns):
            delta[i] = fields[spec]
            rows[:, :, k] = at_probes(constrained_smooth(
                delta, zero_density, ws.cfg.m, ws.params), probes)
            delta[i] = 0.0
    return ws.solve(response.reshape(len(response), -1)).reshape(
        len(columns), -1)


LINEAR_PART_CASES = (
    [("D1Q3", (), r, m) for r in range(1, 7) for m in range(4)]
    + [("D1Q3", (0.5,), 6, 3), ("D2Q5", (), 4, 1),
       ("D2Q9", (1.0, 0.5), 4, 1)])


@pytest.mark.parametrize("name,advection,r,m", LINEAR_PART_CASES)
def test_impulse_linear_part_matches_field_loop(name, advection, r, m):
    p = benchmark_params(name, advection=advection)
    ws = _Workspace(NceTrainConfig(spatial_order=r, m=m), p)
    reference = field_loop_linear_part(ws)
    gap = np.abs(_probe_system(ws, window_responses(ws))[1] - reference).max()
    assert gap <= 1e-10 * np.abs(reference).max(), gap


@pytest.mark.parametrize("name,advection,r,m", LINEAR_PART_CASES)
def test_superposed_offset_matches_direct_h_map(name, advection, r, m):
    """H(0) superposed from the impulse responses matches the direct
    evaluation, constrained runs over the whole test grid of the test
    densities lifted to equilibrium, to 1e-9 max|H(0)|; the worst
    measured gap is 2.6e-10, at D1Q3 (R, m) = (6, 3)."""
    p = benchmark_params(name, advection=advection)
    ws = _Workspace(NceTrainConfig(spatial_order=r, m=m), p)
    reference = full_grid_h_map(ws, LiftCoefficients(p.fingerprint()))
    gap = np.abs(_probe_system(ws, window_responses(ws))[0] - reference).max()
    assert gap <= 1e-9 * np.abs(reference).max(), gap


@pytest.mark.parametrize("name,r,m,extra", [
    ("D1Q3", 6, 3, False), ("D1Q3", 6, 3, True), ("D2Q9", 4, 1, False),
    ("D2Q9", 4, 1, True)])
def test_workspace_windows_are_the_full_fields(name, r, m, extra):
    """windows[t, u, d, p] = D_T rho_d(p - u) bit for bit against the
    lift's difference form, difference_derivative, over the whole test
    grid, for |u| <= m+1 per axis
    (u = 0 alone for the augmentation's extra probes); the block is the
    u = 0 slice, and training reports the condition of its workspace.
    That condition comes from the workspace's own SVD: it matches
    np.linalg.cond to 4e-15 relative, 4x the worst gap measured over the
    acceptance matrix with and without extra probes (9.4e-16)."""
    p = benchmark_params(name)
    cfg = NceTrainConfig(spatial_order=r, m=m)
    ws = _Workspace(cfg, p, extra_probes=extra)
    densities, probes = full_grid(ws)
    reach = 0 if extra else m + 1
    offsets = list(product(range(-reach, reach + 1), repeat=p.vset.dimension))
    assert ws.windows.shape == (len(ws.specs), len(offsets), len(densities),
                                len(ws.probe_points))
    for d, rho in enumerate(densities):
        for t, spec in enumerate(ws.specs):
            field = difference_derivative(rho, spec, p.dx)
            for k, u in enumerate(offsets):
                shifted = tuple(ix - off for ix, off in zip(probes, u))
                assert ws.windows[t, k, d].tobytes() \
                    == field[shifted].tobytes(), (d, spec, u)
    block = np.vstack([np.column_stack(
        [difference_derivative(rho, spec, p.dx)[probes]
         for spec in ws.specs]) for rho in densities])
    assert ws.block.tobytes() == block.tobytes()
    assert_allclose(ws.condition, np.linalg.cond(block), rtol=4e-15, atol=0)
    if not extra:
        assert train_coefficients(cfg, p).condition == ws.condition


@pytest.mark.parametrize("name", ["D1Q3", "D2Q5", "D2Q9"])
def test_patch_windows_are_the_pointwise_gathers(name):
    """windows and density_windows, from one patch around each probe,
    equal difference_derivative over the whole test grid at every window
    point, bit for bit, at every order R and m, with and without the
    augmentation's extra probes."""
    p = benchmark_params(name)
    for r, m, extra in product(range(1, MAX_TOTAL_ORDER + 1), range(4),
                               (False, True)):
        ws = _Workspace(NceTrainConfig(spatial_order=r, m=m), p,
                        extra_probes=extra)
        densities, probes = full_grid(ws)
        stack = np.stack(densities)
        d_ix = np.arange(len(stack)).reshape(-1, 1, 1)
        window = (d_ix,) + tuple(ix[:, None] - off
                                 for ix, off in zip(probes, ws.offsets))
        windows = np.array([
            difference_derivative(stack, DerivSpec((0,) + spec.orders),
                                  p.dx)[window]
            for spec in ws.specs]).transpose(0, 3, 1, 2)
        assert ws.density_windows.tobytes() \
            == stack[window].transpose(2, 0, 1).tobytes(), (r, m, extra)
        assert ws.windows.tobytes() == windows.tobytes(), (r, m, extra)


def exact_fd_weights(order, offsets):
    """fd_weights in Fractions: Fornberg's recursion on exact offsets."""
    x = [Fraction(off) for off in offsets]
    c = [[Fraction(0)] * (order + 1) for _ in x]
    c[0][0] = Fraction(1)
    c1, c4 = Fraction(1), x[0]
    for i in range(1, len(x)):
        c2, c5, c4 = Fraction(1), c4, x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(min(i, order), 0, -1):
                    c[i][k] = c1 * (k * c[i - 1][k - 1] - c5 * c[i - 1][k]) / c2
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            for k in range(min(i, order), 0, -1):
                c[j][k] = (c4 * c[j][k] - k * c[j][k - 1]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    return [row[order] for row in c]


def exact_block_errors(ws):
    """Per term, max |block - exact| / max |exact| over the block's rows,
    exact the term's stencil in rational arithmetic: Fraction weights over
    Fraction(dx)^order, on the float test densities read exactly.  The
    densities around the probes are scaled to one power-of-two
    denominator and the weights to integers, so each axis contracts in
    Python integers."""
    dimension = ws.params.vset.dimension
    half = (ws.cfg.spatial_order + 1) // 2
    span = np.arange(-half, half + 1)
    patch = np.stack(density_profiles(ws.cfg, dimension, tuple(
        ix + span.reshape((-1,) + (1,) * (dimension - ax))
        for ax, ix in enumerate(ws.probe_ix))))
    patch = np.moveaxis(patch, 0, -2).reshape(patch.shape[1:dimension + 1]
                                              + (-1,))
    ratios = [value.as_integer_ratio() for value in patch.ravel()]
    scale = max(den for _, den in ratios)
    numerators = np.array([num * (scale // den) for num, den in ratios],
                          dtype=object).reshape(patch.shape)
    errors = []
    for column, spec in zip(ws.block.T, ws.specs):
        summed = numerators
        denominator = scale * Fraction(ws.params.dx) ** spec.total
        for order in spec.orders:
            offsets = central_offsets(order) if order else (0,)
            weights = exact_fd_weights(order, offsets)
            common = lcm(*(w.denominator for w in weights))
            integers = np.zeros(2 * half + 1, dtype=object)
            for off, w in zip(offsets, weights):
                integers[half + off] = int(w * common)
            summed = np.tensordot(integers, summed, axes=(0, 0))
            denominator *= common
        exact = [Fraction(num) / denominator for num in summed]
        gap = max(abs(Fraction(float(value)) - e)
                  for value, e in zip(column, exact))
        errors.append(float(gap / max(map(abs, exact))))
    return errors


@pytest.mark.parametrize("name,r,bound", [
    ("D1Q3", 5, 1.5e-9), ("D1Q3", 6, 3e-7), ("D2Q9", 4, 1.2e-9),
    ("D2Q9", 6, 1e-4)])
def test_probe_block_against_exact_arithmetic(name, r, bound):
    """The probe block (m = 1), the lift's difference stencils at the
    probes, is within about 3x its measured worst per-term relative error
    of the exact rational evaluation: 4.6e-10 and 9.6e-8 (D1Q3, R = 5 and
    6), 3.8e-10 and 3.1e-5 (D2Q9, R = 4 and 6).  The plain sum form
    sum_v w_v rho(x + v), applied axis by axis, misses every bound: it
    reads 7.5e-9, 1.2e-6, 4.6e-8 and 1.2e-3."""
    ws = _Workspace(NceTrainConfig(spatial_order=r, m=1),
                    benchmark_params(name))
    assert max(exact_block_errors(ws)) <= bound


def per_term_windows(ws):
    """density_windows and windows as cut term by term: a sliding-window
    patch[d, p, v] per probe, difference_derivative of it per term, whose
    centre the patch's wrap does not reach, each window flipped; in the
    workspace's layouts."""
    dimension = ws.params.vset.dimension
    reach = int(ws.offsets.max())
    stencil = (ws.cfg.spatial_order + 1) // 2
    patch = sliding_window_view(
        np.stack(density_profiles(ws.cfg, dimension)),
        (2 * (reach + stencil) + 1,) * dimension,
        axis=tuple(range(1, dimension + 1)))[
            (slice(None),) + tuple(ix - reach - stencil for ix in ws.probe_ix)]

    def window(values):
        centre = tuple(slice((n - 1) // 2 - reach, (n - 1) // 2 + reach + 1)
                       for n in values.shape[2:])
        return np.flip(values[(Ellipsis,) + centre], axis=tuple(
            range(2, values.ndim))).reshape(values.shape[:2] + (-1,))

    windows = np.array([
        window(difference_derivative(patch, DerivSpec((0, 0) + spec.orders),
                                     ws.params.dx))
        for spec in ws.specs])
    return window(patch).transpose(2, 0, 1), windows.transpose(0, 3, 1, 2)


def offset_by_offset_linear_part(ws, kernels):
    """M of _probe_system the other way round: a sum of one broadcast
    product per offset, then the probe solve."""
    rows = sum(w[:, :, None, :, None] * k[:, None, :]
               for w, k in zip(ws.windows.transpose(1, 2, 3, 0), kernels.T))
    columns = len(ws.specs) * ws.params.vset.q
    return ws.solve(rows.reshape(-1, rows[0, 0].size)).reshape(columns, -1)


def offset_by_offset_offset(ws, kernels):
    """h0 of _probe_system as a sum of one broadcast product per offset,
    inward, of the velocity-weighted responses."""
    gw = sum(w * k for w, k in zip(ws.params.equilibrium_weights(), kernels))
    density_windows = ws.density_windows.transpose(1, 2, 0)
    centre = ws.offsets.shape[1] // 2
    diffs = density_windows - density_windows[..., centre, None]
    inward = np.argsort(-np.abs(ws.offsets).sum(axis=0), kind="stable")
    rows = sum(diffs[..., u, None] * gw[:, u] for u in inward)
    return ws.solve(rows.reshape(-1, ws.params.vset.q)).ravel()


def window_responses(ws):
    """kernels[i, j, u] as train_coefficients takes them: the compact
    responses of impulse_responses, the offsets u in ws.offsets order."""
    q = ws.params.vset.q
    return impulse_responses(ws.cfg.m, ws.params).reshape(q, q, -1)


def full_grid_responses(ws):
    """window_responses from one run per impulse on the whole test grid."""
    shape = (ws.cfg.test_cells + 2 * buffer_width(ws.cfg),) \
        * ws.params.vset.dimension
    return np.array([g[(slice(None),) + tuple(ws.offsets)]
                     for g in one_impulse_responses(shape, ws.cfg.m,
                                                    ws.params)])


ACCEPTANCE_CASES = (
    [("D1Q3", advection, r, m) for advection in ((), (0.66,))
     for r in range(1, MAX_TOTAL_ORDER + 1) for m in range(4)]
    + [(name, advection, r, m)
       for name, advection in (("D2Q5", ()), ("D2Q9", (1.0, 0.5)))
       for r in (2, 4, 6) for m in range(4)])


@pytest.mark.parametrize("name,advection,r,m", ACCEPTANCE_CASES)
def test_batched_probe_system_is_the_reference(name, advection, r, m):
    """The batched windows (of training and of the augmentation) and the
    packed impulse probe equal the term-by-term windows and one run per
    impulse on the whole test grid, bit for bit; the probe is one run of
    m+1 LBM steps.  _probe_system solves before it contracts
    over the offsets, so its M and h0 are within a relative gap of their
    offset-by-offset references, which sum first, in units of kappa eps,
    kappa the probe-system condition.  M: 4 kappa eps, 5x the worst
    measured 0.78 (D1Q3, advective, R = 2, m = 3).  h0, weighted by
    velocity after the solve rather than before the sum: 20 kappa eps,
    4x the worst measured 4.96 (D1Q3, advective, R = 1, m = 3)."""
    p = benchmark_params(name, advection=advection)
    cfg = NceTrainConfig(spatial_order=r, m=m)
    for ws in (_Workspace(cfg, p, extra_probes=True), _Workspace(cfg, p)):
        density_windows, windows = per_term_windows(ws)
        assert ws.density_windows.tobytes() == density_windows.tobytes()
        assert ws.windows.tobytes() == windows.tobytes()
    assert ws.offsets.shape[1] == (2 * m + 3) ** p.vset.dimension
    before = lbm_step_count()
    kernels = window_responses(ws)
    assert lbm_step_count() - before == m + 1
    assert kernels.tobytes() == full_grid_responses(ws).tobytes()
    offset, linear = _probe_system(ws, kernels)
    for value, reference, bound in (
            (linear, offset_by_offset_linear_part(ws, kernels), 4),
            (offset, offset_by_offset_offset(ws, kernels), 20)):
        gap = np.abs(value - reference).max() / np.abs(reference).max()
        assert gap <= bound * ws.condition * np.finfo(float).eps, gap


PROBE_SYSTEM_DIGESTS = """
import hashlib, sys
import numpy as np
sys.path[:0] = sys.argv[1:]
from conftest import benchmark_params
from lblift import NceTrainConfig
from lblift.constrained_runs import impulse_responses
from lblift.training import _probe_system, _Workspace
p = benchmark_params("D2Q9", advection=(1.0, 0.5))
for r in (4, 6):
    ws = _Workspace(NceTrainConfig(spatial_order=r, m=1), p)
    offset, linear = _probe_system(
        ws, impulse_responses(1, p).reshape(9, 9, -1))
    for x in (offset, linear, np.float64(ws.condition)):
        print(r, hashlib.sha256(x.tobytes()).hexdigest())
"""


def test_probe_system_does_not_depend_on_the_blas_thread_count():
    """h0, M and the condition of advective D2Q9 training at (R, m) = (4,
    1) and (6, 1) come out byte-identical from two processes run with one
    and with two BLAS threads: the contraction and the solve make no BLAS
    call, and the SVD of blocks this small does not move.  (M at R = 6
    differed when it was solved by lstsq.)  The trained coefficients
    themselves still differ by rounding between the two runs, through the
    BLAS solve of I - M, which this test leaves out."""
    paths = [str(Path(training.__file__).parents[1]),
             str(Path(__file__).parent)]
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        digests.append(subprocess.run(
            [sys.executable, "-c", PROBE_SYSTEM_DIGESTS] + paths, env=env,
            capture_output=True, text=True, check=True).stdout)
    assert len(digests[0].split()) == 12
    assert digests[0] == digests[1]


CROP_CASES = [(name, advection, r, m)
              for name, advection in (("D1Q3", ()), ("D1Q3", (0.66,)),
                                      ("D2Q5", ()), ("D2Q9", (1.0, 0.5)))
              for r in (2, 4, 6) for m in range(4)]


@pytest.mark.parametrize("name,advection,r,m", CROP_CASES)
def test_patch_evaluation_is_the_full_grid_one(name, advection, r, m):
    """H(a) at the trained coefficients, and the time augmentation, by
    the workspace, which lifts only one patch around each probe and runs
    only the windows within the run's steps of it, against their direct
    evaluation over the whole test grid.  The augmentation matches bit
    for bit.  H(a) is within 8 kappa eps relative of the whole grid's,
    kappa the probe-system condition, 4.6x the worst measured 1.72
    (D2Q5, R = 6, m = 1, one BLAS thread): the lift's batched matrix
    product rounds a column by where it falls in the BLAS tiling, and the
    whole-grid reference itself moves with the thread count."""
    p = benchmark_params(name, advection=advection)
    cfg = NceTrainConfig(spatial_order=r, m=m)
    coeffs = train_coefficients(cfg, p).coefficients
    ws = _Workspace(cfg, p)
    reference = full_grid_h_map(ws, coeffs)
    gap = np.abs(ws.h_map(coeffs) - reference).max() / np.abs(reference).max()
    assert gap <= 8 * ws.condition * np.finfo(float).eps, gap
    aug = augment_time_derivative(coeffs, cfg, p)
    system, coeff_matrix = full_grid_augment(coeffs, cfg, p)
    assert aug.system.tobytes() == system.tobytes()
    assert aug.coefficients.flatten().tobytes() == coeff_matrix.tobytes()
    singular_values = np.linalg.svd(system, compute_uv=False)
    assert (aug.sigma_min, aug.sigma_max) \
        == (singular_values[-1], singular_values[0])


# max|NCE(R, m) lift - CR-m lift| / max|f| on 200 x 200, R = 2, 4, 6: twice
# the measured 3.77e-5, 1.98e-7, 3.92e-8 (D2Q5, m = 1), 3.77e-5, 1.97e-7,
# 8.35e-9 (D2Q5, m = 2), 1.56e-5, 8.16e-8, 1.45e-8 (D2Q9, m = 1) and
# 1.56e-5, 8.16e-8, 2.67e-9 (D2Q9, m = 2), rounded up
CR_GAP_BOUNDS = {("D2Q5", 1): (7.6e-5, 4.0e-7, 7.9e-8),
                 ("D2Q5", 2): (7.6e-5, 4.0e-7, 1.7e-8),
                 ("D2Q9", 1): (3.2e-5, 1.7e-7, 2.9e-8),
                 ("D2Q9", 2): (3.2e-5, 1.7e-7, 5.4e-9)}


@pytest.mark.parametrize("name,advection", [("D2Q5", ()),
                                            ("D2Q9", (1.0, 0.5))])
def test_trained_2d_lift_approaches_constrained_runs(name, advection):
    """The trained (R, m) lift is the Taylor truncation of the CR-m lift,
    so on a density smooth across the periodic wrap (a width-1 Gaussian
    on 200 x 200 cells, 1.4e-11 at the wrap) its gap to cr_lift falls as
    R rises, within CR_GAP_BOUNDS.  The drop from R = 4 to R = 6 is
    larger for m = 2 than for m = 1: beyond order 2m+1 the error falls
    along m, not R (criterion 4c)."""
    p = benchmark_params(name, advection=advection)
    rho = gaussian_density(p)
    assert max(rho[0].max(), rho[:, 0].max()) < 1e-10
    drops = {}
    for m in (1, 2):
        reference = cr_lift(rho, CrConfig(m=m), p)
        assert reference.converged
        scale = np.abs(reference.f).max()
        gaps = []
        for r in (2, 4, 6):
            coeffs = train_coefficients(NceTrainConfig(spatial_order=r, m=m),
                                        p).coefficients
            gaps.append(np.abs(apply_lift(rho, coeffs, p)
                               - reference.f).max() / scale)
        assert gaps[0] > gaps[1] > gaps[2], (m, gaps)
        assert all(gap <= bound for gap, bound
                   in zip(gaps, CR_GAP_BOUNDS[name, m])), (m, gaps)
        drops[m] = gaps[1] / gaps[2]
    assert drops[2] > drops[1], drops


def test_training_refuses_a_missed_fixed_point(monkeypatch):
    """A wrong linear part leaves a closing residual far above
    RESIDUAL_LIMIT max|a|, and training raises instead of returning."""
    p = benchmark_params("D1Q3")
    cfg = NceTrainConfig(spatial_order=2, m=1)
    result = train_coefficients(cfg, p)
    scale = np.abs(result.coefficients.flatten()).max()
    assert result.residual <= 1e-3 * RESIDUAL_LIMIT * scale
    def wrong_linear_part(ws, kernels):
        offset, linear = _probe_system(ws, kernels)
        return offset, 0.9 * linear

    monkeypatch.setattr(training, "_probe_system", wrong_linear_part)
    with pytest.raises(RuntimeError, match="miss their fixed point"):
        train_coefficients(cfg, p)


def test_training_refuses_a_wrong_offset(monkeypatch):
    """A superposed H(0) off by 10 % misses the closing evaluation by
    direct constrained runs, and training raises."""
    p = benchmark_params("D1Q3")
    cfg = NceTrainConfig(spatial_order=2, m=1)
    def wrong_offset(ws, kernels):
        offset, linear = _probe_system(ws, kernels)
        return 0.9 * offset, linear

    monkeypatch.setattr(training, "_probe_system", wrong_offset)
    with pytest.raises(RuntimeError, match="miss their fixed point"):
        train_coefficients(cfg, p)


def test_advective_high_order_trains_to_analytic_pde():
    """D1Q3 with advection 0.5 at (R, m) = (6, 3): the summation PDE
    matches the analytic one, whose D carries the -(3/4) a^2 tau term."""
    p = benchmark_params("D1Q3", advection=(0.5,))
    cfg = NceTrainConfig(spatial_order=6, m=3)
    trained = train_coefficients(cfg, p)
    assert trained.residual <= 1e-11
    aug = augment_time_derivative(trained.coefficients, cfg, p)
    pde = extract_pde(aug.coefficients, mode="summation")
    exact = analytic_pde(p)
    assert abs(pde.diffusion - exact.diffusion) <= 1e-6
    assert abs(pde.advection[0] - exact.advection[0]) <= 1e-6
