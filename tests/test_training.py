from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lblift import (DerivSpec, LbmParams, NceTrainConfig,
                    analytic_coefficients, analytic_pde, apply_lift,
                    augment_time_derivative, extract_pde, lbm_step_count,
                    restrict, train_coefficients)
from lblift.constrained_runs import constrained_smooth
from lblift.lifting import zero_coefficients
from lblift.stencil import spatial_derivative
from lblift import training
from lblift.training import (RESIDUAL_LIMIT, _impulse_responses, _linear_part,
                             _Workspace, buffer_width, default_probe_positions)
from lblift.training import test_density_profiles as density_profiles

from conftest import benchmark_params, gaussian_density


def test_config_validation():
    with pytest.raises(ValueError):
        NceTrainConfig(spatial_order=0)
    with pytest.raises(ValueError):
        NceTrainConfig(spatial_order=7)
    with pytest.raises(ValueError):
        NceTrainConfig(m=5)
    with pytest.raises(ValueError):
        NceTrainConfig(test_cells=10)  # smaller than the edge margins allow


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


def test_explicit_probes_validated():
    p = benchmark_params("D1Q3")
    with pytest.raises(ValueError):
        train_coefficients(
            NceTrainConfig(spatial_order=2, m=1, probe_indices=(1, 20)), p)
    with pytest.raises(ValueError):
        train_coefficients(
            NceTrainConfig(spatial_order=2, m=1, probe_indices=(20, 20)), p)
    with pytest.raises(ValueError):  # fewer probes than unknowns
        train_coefficients(
            NceTrainConfig(spatial_order=2, m=1, probe_indices=(20,)), p)


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


def test_extract_requires_time_term():
    p = benchmark_params("D1Q3")
    trained = train_coefficients(NceTrainConfig(spatial_order=2, m=1), p)
    with pytest.raises(ValueError):
        extract_pde(trained.coefficients)


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


def newton_reference(cfg, params, tol=1e-12, max_iter=25, eps=1e-8):
    """The forward-difference Newton iteration on the coefficient map
    a = H(a) that train_coefficients replaced: flat coefficients, from
    a = 0."""
    ws = _Workspace(cfg, params)
    template = zero_coefficients(params, cfg.spatial_order)

    def residual(flat):
        return flat - ws.h_map(template.with_flat(flat))

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
        if np.max(np.abs(delta)) < tol:
            return flat
    raise AssertionError("reference Newton iteration did not converge")


@pytest.mark.parametrize("m", range(4))
def test_exact_solve_matches_newton_reference(m):
    """Over the criterion-4 D1Q3 table: coefficients within 1e-9 max|a|
    of the Newton reference, a closing residual of at most 1e-11, and
    (q + 2 n_densities)(m + 1) LBM steps, whatever R."""
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
        assert steps == result.lbm_steps == (3 + 2 * n_densities) * (m + 1)


def test_two_d_step_count():
    p = benchmark_params("D2Q5")
    cfg = NceTrainConfig(spatial_order=2, m=1)
    before = lbm_step_count()
    result = train_coefficients(cfg, p)
    n_densities = len(density_profiles(cfg, 2))
    assert lbm_step_count() - before == result.lbm_steps \
        == (p.vset.q + 2 * n_densities) * (cfg.m + 1)


def field_loop_linear_part(ws):
    """M column by column: smooth e_i D_T rho with density 0 over the
    whole test grid for every term, velocity and test density, the
    derivative fields taken over the whole grid by spatial_derivative."""
    q = ws.params.vset.q
    columns = list(product(ws.specs, range(q)))
    points = len(ws.probe_points)
    response = np.empty((points * len(ws.densities), q, len(columns)))
    delta = np.zeros((q,) + ws.densities[0].shape)
    zero_density = np.zeros(delta.shape[1:])
    for d, rho in enumerate(ws.densities):
        fields = {spec: spatial_derivative(rho, spec, ws.params.dx)
                  for spec in ws.specs}
        rows = response[d * points:(d + 1) * points]
        for k, (spec, i) in enumerate(columns):
            delta[i] = fields[spec]
            rows[:, :, k] = ws.probe_rows(constrained_smooth(
                delta, zero_density, ws.cfg.m, ws.params))
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
    gap = np.abs(_linear_part(ws) - reference).max()
    assert gap <= 1e-10 * np.abs(reference).max(), gap


@pytest.mark.parametrize("name,r,m,extra", [
    ("D1Q3", 6, 3, False), ("D1Q3", 6, 3, True), ("D2Q9", 4, 1, False),
    ("D2Q9", 4, 1, True)])
def test_workspace_windows_are_the_full_fields(name, r, m, extra):
    """windows[d, t, p, u] = D_T rho_d(p - u) bit for bit against
    spatial_derivative over the whole test grid, for |u| <= m+1 per axis
    (u = 0 alone for the augmentation's extra probes); the block is the
    u = 0 slice, and make_system reports the workspace's condition."""
    p = benchmark_params(name)
    ws = _Workspace(NceTrainConfig(spatial_order=r, m=m), p,
                    extra_probes=extra)
    reach = 0 if extra else m + 1
    offsets = list(product(range(-reach, reach + 1), repeat=p.vset.dimension))
    assert ws.windows.shape == (len(ws.densities), len(ws.specs),
                                len(ws.probe_points), len(offsets))
    for d, rho in enumerate(ws.densities):
        for t, spec in enumerate(ws.specs):
            field = spatial_derivative(rho, spec, p.dx)
            for k, u in enumerate(offsets):
                shifted = tuple(ix - off for ix, off in zip(ws.probe_ix, u))
                assert ws.windows[d, t, :, k].tobytes() \
                    == field[shifted].tobytes(), (d, spec, u)
    block = np.vstack([np.column_stack(
        [spatial_derivative(rho, spec, p.dx)[ws.probe_ix]
         for spec in ws.specs]) for rho in ws.densities])
    assert ws.block.tobytes() == block.tobytes()
    assert ws.make_system().condition == ws.condition \
        == float(np.linalg.cond(block))


def test_training_refuses_a_missed_fixed_point(monkeypatch):
    """A wrong linear part leaves a closing residual far above
    RESIDUAL_LIMIT max|a|, and training raises instead of returning."""
    p = benchmark_params("D1Q3")
    cfg = NceTrainConfig(spatial_order=2, m=1)
    result = train_coefficients(cfg, p)
    scale = np.abs(result.coefficients.flatten()).max()
    assert result.residual <= 1e-3 * RESIDUAL_LIMIT * scale
    monkeypatch.setattr(training, "_linear_part",
                        lambda ws: 0.9 * _linear_part(ws))
    with pytest.raises(RuntimeError, match="miss their fixed point"):
        train_coefficients(cfg, p)


@pytest.mark.parametrize("name,m", [("D1Q3", 0), ("D1Q3", 3), ("D2Q9", 1)])
def test_impulse_responses_vanish_outside_window(name, m):
    p = benchmark_params(name, advection=(0.5,) * (1 if name == "D1Q3" else 2))
    ws = _Workspace(NceTrainConfig(spatial_order=2, m=m), p)
    # the impulse sits at cell 0: centre it, then cut the m+1 window out
    centre = tuple(n // 2 for n in ws.densities[0].shape)
    window = (slice(None),) + tuple(slice(c - m - 1, c + m + 2) for c in centre)
    responses = list(_impulse_responses(ws))
    assert len(responses) == p.vset.q
    for g in responses:
        centred = np.roll(g, centre, axis=tuple(range(1, g.ndim)))
        assert np.abs(centred[window]).max() > 0
        centred[window] = 0.0
        assert not centred.any()


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
