import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lblift import (D1Q3, LbmParams, MacroPde, analytic_pde, equilibrium,
                    ftcs_step, restrict, stream_collide)

from conftest import benchmark_params


def test_analytic_pde_benchmark_models():
    """All three benchmark parameter sets give diffusion exactly 1."""
    for name in ("D1Q3", "D2Q5", "D2Q9"):
        pde = analytic_pde(benchmark_params(name))
        assert_allclose(pde.diffusion, 1.0, rtol=1e-14)
    pde = analytic_pde(benchmark_params("D2Q9", advection=(1.0, 0.5)))
    assert pde.advection == (1.0, 0.5)
    assert_allclose(pde.diffusion, 1.0, rtol=1e-14)


def test_analytic_pde_one_d_closed_form():
    # for D1Q3 the c_s^2 form equals (2 - omega)/(3 omega) dx^2/dt
    p = benchmark_params("D1Q3")
    expected = (2 - p.omega) / (3 * p.omega) * p.dx ** 2 / p.dt
    assert_allclose(analytic_pde(p).diffusion, expected, rtol=1e-14)


@pytest.mark.parametrize("a", [0.0, 0.5, 0.66])
def test_analytic_pde_matches_lbm_variance_growth(a):
    """A direct periodic D1Q3 run: the variance of a Gaussian grows by
    2 D t once the start-up transient has decayed.  With advection D
    falls below c_s^2 dt (1/omega - 1/2) by (3/4) a^2 dt (1/omega - 1/2),
    1.1e-4 at a = 0.5, which the analytic PDE has to carry."""
    p = benchmark_params("D1Q3", advection=(a,))
    cells = 1600
    x = np.arange(cells) * p.dx
    f = equilibrium(np.exp(-(x - cells * p.dx / 2) ** 2), p)
    variance = {}
    for step in range(1, 1001):
        f = stream_collide(f, p)
        if step in (400, 1000):
            rho = restrict(f)
            mean = (x * rho).sum() / rho.sum()
            variance[step] = ((x - mean) ** 2 * rho).sum() / rho.sum()
    measured = (variance[1000] - variance[400]) / (2 * 600 * p.dt)
    assert_allclose(analytic_pde(p).diffusion, measured, rtol=0, atol=1e-12)
    tau = p.dt * (1 / p.omega - 0.5)
    assert_allclose(measured, p.sound_speed_sq * tau - 0.75 * a * a * tau,
                    rtol=0, atol=1e-12)


def test_analytic_pde_rejects_zero_omega():
    # omega = 0 is a valid model (pure streaming) with no diffusion limit
    p = LbmParams(vset=D1Q3, dx=0.05, dt=1e-3, omega=0.0)
    with pytest.raises(ValueError, match="omega = 0"):
        analytic_pde(p)


def test_analytic_pde_rejects_advective_d2q5():
    """D2Q5's equilibrium second moment tau (Pi_eq - a a) is no multiple of
    the identity once a != 0, so no scalar D exists; D2Q9's is."""
    def diffusion_tensor(p):
        v = p.vset.direction_array() * (p.dx / p.dt)
        a = np.asarray(p.advection)
        pi = np.einsum("i,ia,ib->ab", p.equilibrium_weights(), v, v)
        return p.dt * (1 / p.omega - 0.5) * (pi - np.outer(a, a))

    for a in ((1.0, 0.5), (0.3, 0.0), (0.0, -0.2)):
        p = benchmark_params("D2Q5", advection=a)
        with pytest.raises(ValueError, match="D2Q5 with advection.*tensor"):
            analytic_pde(p)
        d = diffusion_tensor(p)
        assert abs(d[0, 0] - d[1, 1]) + abs(d[0, 1]) > 1e-8
    q9 = benchmark_params("D2Q9", advection=(1.0, 0.5))
    assert_allclose(diffusion_tensor(q9),
                    analytic_pde(q9).diffusion * np.eye(2), atol=1e-14)
    assert_allclose(analytic_pde(benchmark_params("D2Q5")).diffusion, 1.0,
                    rtol=1e-14)


def test_uniform_is_invariant():
    pde = MacroPde(advection=(0.3,), diffusion=1.0)
    rho = np.full(32, 2.5)
    assert_allclose(ftcs_step(rho, pde, 0.05, 1e-3), rho, rtol=1e-15)


def test_mass_conserved_periodic():
    rng = np.random.default_rng(7)
    pde = MacroPde(advection=(0.4, -0.2), diffusion=1.0)
    rho = rng.random((16, 16))
    out = ftcs_step(rho, pde, 0.05, 1e-4)
    assert_allclose(out.sum(), rho.sum(), rtol=1e-13)


def test_fourier_mode_amplification():
    """One FTCS step multiplies the mode e^{ikx} by exactly
    g = 1 - 2 nu (1 - cos k dx) - i (a dt / dx) sin k dx."""
    n, dx, dt = 64, 0.05, 1e-3
    pde = MacroPde(advection=(0.66,), diffusion=1.0)
    x = np.arange(n) * dx
    k = 2 * np.pi / (n * dx) * 3
    nu = pde.diffusion * dt / dx ** 2
    g = 1 - 2 * nu * (1 - np.cos(k * dx)) \
        - 1j * pde.advection[0] * dt / dx * np.sin(k * dx)
    mode = np.exp(1j * k * x)
    steps = 25
    rho = 1.0 + mode.real
    for _ in range(steps):
        rho = ftcs_step(rho, pde, dx, dt)
    expected = 1.0 + (g ** steps * mode).real
    assert_allclose(rho, expected, atol=1e-13)


def test_two_d_axes_are_symmetric():
    pde = MacroPde(advection=(0.0, 0.0), diffusion=1.0)
    rng = np.random.default_rng(5)
    rho = rng.random((20, 20))
    out = ftcs_step(rho, pde, 0.05, 1e-4)
    assert_allclose(ftcs_step(rho.T, pde, 0.05, 1e-4), out.T, rtol=1e-14)


def roll_ftcs_step(rho, pde, dx, dt):
    """Reference FTCS step: neighbours from np.roll on every axis."""
    nu = pde.diffusion * dt / dx ** 2
    out = rho.copy()
    for ax, a in enumerate(pde.advection):
        east = np.roll(rho, -1, axis=ax)
        west = np.roll(rho, 1, axis=ax)
        out += nu * (east - 2.0 * rho + west) \
            - (a * dt / (2.0 * dx)) * (east - west)
    return out


def test_ftcs_step_matches_roll_reference():
    """The wrapped-copy axis 0 gives the np.roll step up to the order
    in which the terms are summed."""
    rng = np.random.default_rng(9)
    for advection, shape, dt in (((0.25,), (30,), 1e-3),
                                 ((0.25,), (1,), 1e-3),
                                 ((0.1, -0.3), (12, 12), 1e-4),
                                 ((0.1, -0.3), (2, 5), 1e-4)):
        pde = MacroPde(advection=advection, diffusion=1.0)
        rho = rng.random(shape)
        assert_allclose(ftcs_step(rho, pde, 0.05, dt),
                        roll_ftcs_step(rho, pde, 0.05, dt), rtol=1e-15)


def test_ftcs_step_keeps_its_summation_order():
    """ftcs_step sums each axis as the one-expression form does, rho plus
    the diffusion term minus the advection term, then one term pair per
    later axis, so its reused buffers give that form bit for bit; later
    axes of one and two cells included, where a wrap copy fills the whole
    axis or half of it."""
    rng = np.random.default_rng(10)
    for advection, shape, dt in (((0.25,), (30,), 1e-3),
                                 ((0.1, -0.3), (12, 7), 1e-4),
                                 ((0.1, -0.3), (2, 5), 1e-4),
                                 ((0.1, -0.3), (7, 1), 1e-4),
                                 ((0.1, -0.3), (1, 6), 1e-4),
                                 ((0.1, -0.3), (3, 2), 1e-4)):
        pde = MacroPde(advection=advection, diffusion=1.0)
        rho = rng.random(shape)
        nu = pde.diffusion * dt / 0.05 ** 2
        expected = None
        for ax, a in enumerate(advection):
            east = np.roll(rho, -1, axis=ax)
            west = np.roll(rho, 1, axis=ax)
            term = nu * (east - 2.0 * rho + west)
            drift = (a * dt / (2.0 * 0.05)) * (east - west)
            if expected is None:
                expected = rho + term - drift
            else:
                expected += term - drift
        assert_array_equal(ftcs_step(rho, pde, 0.05, dt), expected)


def test_non_finite_coefficients_refused():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^diffusion .* is not finite"):
            MacroPde(advection=(0.0,), diffusion=bad)
        with pytest.raises(ValueError, match="^advection component 1 .*finite"):
            MacroPde(advection=(0.0, bad), diffusion=1.0)


@pytest.mark.parametrize("courant", [0.9, 0.95])
def test_advection_diffusion_bound_warns(courant):
    """D1Q3 with dx 0.05, dt 3.75e-3 and omega 1: at Courant number 0.9
    the analytic D is 0.0197 (nu = 0.030), far below sum C^2 / 2, and
    FTCS grows a Gaussian by orders of magnitude; at 0.95 D is negative.
    Both warn, though each Courant number is below 1 and nu below 1/2."""
    dx, dt = 0.05, 3.75e-3
    pde = analytic_pde(LbmParams(D1Q3, dx, dt, 1.0, (courant * dx / dt,)))
    nu = pde.diffusion * dt / dx ** 2
    assert nu < 0.5 and (nu < 0) == (courant == 0.95)
    rho = np.exp(-((np.arange(100) - 50.0) * dx) ** 2)
    with pytest.warns(UserWarning, match="squared Courant numbers sum to"):
        grown = ftcs_step(rho, pde, dx, dt)
    with pytest.warns(UserWarning):
        for _ in range(400):
            grown = ftcs_step(grown, pde, dx, dt)
    assert np.abs(grown).max() > 1e6


def test_advection_diffusion_bound_is_quiet_inside():
    """The benchmark D1Q3 model with advection 0.66 sits inside every bound."""
    pde = analytic_pde(benchmark_params("D1Q3", advection=(0.66,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ftcs_step(np.ones(16), pde, 0.05, 1e-3)


def test_stability_warnings():
    pde = MacroPde(advection=(0.0,), diffusion=1.0)
    rho = np.ones(16)
    with pytest.warns(UserWarning):
        ftcs_step(rho, pde, 0.01, 1e-3)  # nu = 10 >> 1/2
    fast = MacroPde(advection=(100.0,), diffusion=1.0)
    with pytest.warns(UserWarning):
        ftcs_step(rho, fast, 0.05, 1e-3)  # Courant number 2


def test_heat_kernel_decay_rate():
    """Long-run decay of a single mode matches e^{-D k^2 t} within the
    scheme's truncation error."""
    n, dx, dt = 200, 0.05, 1e-3
    pde = MacroPde(advection=(0.0,), diffusion=1.0)
    x = np.arange(n) * dx
    k = 2 * np.pi / (n * dx)
    rho = 1.0 + 0.5 * np.cos(k * x)
    steps = 400
    for _ in range(steps):
        rho = ftcs_step(rho, pde, dx, dt)
    amp = (rho.max() - rho.min()) / 2
    exact = 0.5 * np.exp(-pde.diffusion * k ** 2 * steps * dt)
    assert_allclose(amp, exact, rtol=5e-4)
