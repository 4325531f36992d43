import numpy as np
import pytest
from numpy.testing import assert_allclose

from lblift import (CrConfig, Moments, constrained_smooth, cr_lift, cr_map,
                    equilibrium, from_moments, lbm_step_count, moments,
                    restrict, run_lbm)
from lblift.constrained_runs import extrapolation_weights

from conftest import benchmark_params, gaussian_density


def test_extrapolation_weights_binomial():
    assert_allclose(extrapolation_weights(0), [1.0])
    assert_allclose(extrapolation_weights(1), [2.0, -1.0])
    assert_allclose(extrapolation_weights(2), [3.0, -3.0, 1.0])
    assert_allclose(extrapolation_weights(3), [4.0, -6.0, 4.0, -1.0])
    for m in range(4):
        assert_allclose(extrapolation_weights(m).sum(), 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        CrConfig(m=4)
    with pytest.raises(ValueError):
        CrConfig(tol=0.0)


def test_constrained_smooth_pins_density():
    p = benchmark_params("D1Q3")
    rho = gaussian_density(p, cells=40)
    f = equilibrium(rho, p)
    for m in range(4):
        g = constrained_smooth(f, rho, m, p)
        assert_allclose(restrict(g), rho, rtol=1e-14, atol=1e-14)


def test_cr_map_shapes():
    p = benchmark_params("D1Q3")
    rho = gaussian_density(p, cells=30)
    v = np.zeros((2, 30))
    out = cr_map(rho, v, CrConfig(m=1), p)
    assert out.shape == (2, 30)


def test_uniform_density_lifts_to_equilibrium():
    p = benchmark_params("D1Q3")
    rho = np.full(24, 0.8)
    res = cr_lift(rho, CrConfig(m=2), p)
    assert res.converged
    assert_allclose(res.f, equilibrium(rho, p), atol=1e-13)


def test_cr_lift_converges_and_improves_with_m():
    p = benchmark_params("D1Q3")
    f_ref = run_lbm(equilibrium(gaussian_density(p), p), p, 1000)
    rho = restrict(f_ref)
    errs = []
    for m in (0, 1, 2):
        res = cr_lift(rho, CrConfig(m=m), p)
        assert res.converged, f"m={m} failed to converge"
        assert res.residual <= CrConfig(m=m).tol * max(
            1.0, float(np.abs(np.stack(
                [moments(res.f).phi, moments(res.f).xi])).max()))
        errs.append(np.linalg.norm(res.f - f_ref))
    assert errs[0] > errs[1] > errs[2]


def test_cr_lift_preserves_density_exactly():
    p = benchmark_params("D1Q3", advection=(0.66,))
    rho = gaussian_density(p, cells=50)
    res = cr_lift(rho, CrConfig(m=1), p)
    assert res.converged
    assert_allclose(restrict(res.f), rho, rtol=1e-13)


def dense_reference_lift(rho, m, params):
    """The fixed point of cr_map from a dense Jacobian: one unit probe per
    column, then one solve."""
    config = CrConfig(m=m)
    eq = moments(equilibrium(rho, params))
    v0 = np.concatenate([eq.phi, eq.xi])

    def residual(v):
        return v - cr_map(rho, v.reshape(2, -1), config, params).ravel()

    r0 = residual(v0)
    jac = np.empty((v0.size, v0.size))
    for col in range(v0.size):
        probe = v0.copy()
        probe[col] += 1.0
        jac[:, col] = residual(probe) - r0
    v = (v0 - np.linalg.solve(jac, r0)).reshape(2, -1)
    return from_moments(Moments(rho=rho, phi=v[0], xi=v[1]))


def test_cr_lift_matches_dense_reference():
    """The block-circulant FFT solve gives the dense fixed point, with and
    without advection: on n = 200, on 61, on the odd and prime grids 7
    and 13, and on 2m+2.  The impulse response spans 2m+3 cells, so on
    the small grids it wraps onto itself."""
    rng = np.random.default_rng(7)
    for advection in ((), (0.66,)):
        p = benchmark_params("D1Q3", advection=advection)
        for m in range(4):
            for cells in (200, 61, 13, 7, 2 * m + 2):
                rho = gaussian_density(p, cells=cells) \
                    + 0.1 * rng.uniform(size=cells)
                res = cr_lift(rho, CrConfig(m=m), p)
                assert res.converged, (advection, m, cells, res.residual)
                assert_allclose(res.f, dense_reference_lift(rho, m, p),
                                rtol=0, atol=1e-12,
                                err_msg=f"a={advection} m={m} n={cells}")


def test_nonconvergence_reported_not_raised():
    p = benchmark_params("D1Q3")
    rho = gaussian_density(p, cells=30)
    res = cr_lift(rho, CrConfig(m=1, tol=1e-30), p)
    assert not res.converged
    assert res.iterations == 1
    assert np.isfinite(res.residual)


def test_cr_lift_rejects_non_finite_density():
    p = benchmark_params("D1Q3")
    rho = np.ones(20)
    rho[6] = np.nan
    rho[11] = np.inf
    with pytest.raises(ValueError,
                       match=r"non-finite density nan at cell \(6,\)"):
        cr_lift(rho, CrConfig(m=1), p)


def test_step_accounting_scales_with_m():
    """A lift makes four map evaluations of m+1 LBM steps each: the
    equilibrium residual, two impulse probes and the closing residual.
    lbm_steps reports exactly the stream_collide calls made."""
    p = benchmark_params("D1Q3")
    rho = gaussian_density(p, cells=40)
    for m in range(4):
        before = lbm_step_count()
        res = cr_lift(rho, CrConfig(m=m), p)
        assert res.converged
        assert res.lbm_steps == 4 * (m + 1)
        assert lbm_step_count() - before == res.lbm_steps
