from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lblift import (VELOCITY_SETS, CrConfig, CrLifter, HybridSpec, Moments,
                    analytic_pde,
                    compare_to_reference, constrained_smooth, cr_kernel,
                    cr_lift, cr_map, equilibrium, from_moments,
                    lbm_step_count, moments, restrict, run_lbm)
from lblift import constrained_runs
from lblift.constrained_runs import (CR_TOL, extrapolation_weights,
                                    impulse_responses)

from conftest import (benchmark_params, gaussian_density, off_matrix_models,
                      one_impulse_responses)

OFF_MATRIX = settings(derandomize=True, max_examples=40, deadline=None,
                      database=None)


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
    for bad in (1.0, True, "1"):
        with pytest.raises(ValueError, match="m .* is not an integer"):
            CrConfig(m=bad)
    assert CrConfig(m=np.int64(2)).m == 2


def test_constrained_smooth_pins_density():
    p = benchmark_params("D1Q3")
    rho = gaussian_density(p, cells=40)
    f = equilibrium(rho, p)
    for m in range(4):
        g = constrained_smooth(f, rho, m, p)
        assert_allclose(restrict(g), rho, rtol=1e-14, atol=1e-14)


def test_cr_map_shapes():
    """cr_map takes and returns the q-1 non-rest components."""
    p = benchmark_params("D1Q3")
    rho = gaussian_density(p, cells=30)
    v = np.zeros((2, 30))
    out = cr_map(rho, v, CrConfig(m=1), p)
    assert out.shape == (2, 30)
    p = benchmark_params("D2Q9")
    out = cr_map(np.ones((7, 5)), np.zeros((8, 7, 5)), CrConfig(m=1), p)
    assert out.shape == (8, 7, 5)


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
        assert res.residual <= CR_TOL * max(
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


def dense_fixed_point(step, v0):
    """v = step(v) for an affine step, from a dense Jacobian of
    v - step(v) around v0: one unit probe per unknown, then one solve."""
    shape = v0.shape

    def residual(v):
        return v - step(v.reshape(shape)).ravel()

    v0 = v0.ravel()
    r0 = residual(v0)
    jac = np.empty((v0.size, v0.size))
    for col in range(v0.size):
        probe = v0.copy()
        probe[col] += 1.0
        jac[:, col] = residual(probe) - r0
    return (v0 - np.linalg.solve(jac, r0)).reshape(shape)


def dense_reference_lift(rho, m, params):
    """The D1Q3 constrained-runs fixed point in moment space: the fast
    moments (phi, xi) are the unknowns, so this reference shares no
    unknowns with cr_map's f-space components."""
    def moment_map(v):
        f = from_moments(Moments(rho=rho, phi=v[0], xi=v[1]))
        g = moments(constrained_smooth(f, rho, m, params))
        return np.stack([g.phi, g.xi])

    eq = moments(equilibrium(rho, params))
    v = dense_fixed_point(moment_map, np.stack([eq.phi, eq.xi]))
    return from_moments(Moments(rho=rho, phi=v[0], xi=v[1]))


def dense_f_space_lift(rho, m, params):
    """The constrained-runs fixed point of a 2D set, which keeps its rest
    direction first: the unknowns are components 1..q-1, and component 0
    is the density minus their sum."""
    def f_of(v):
        return np.concatenate([(rho - v.sum(axis=0))[None], v])

    def f_space_map(v):
        return constrained_smooth(f_of(v), rho, m, params)[1:]

    return f_of(dense_fixed_point(f_space_map, equilibrium(rho, params)[1:]))


def test_cr_lift_matches_dense_reference():
    """The transfer-kernel lift gives the dense fixed point, with and
    without advection: on n = 200, on 61, on the odd and prime grids 7
    and 13, and on 2m+2.  The impulse response spans 2m+3 cells, so on
    the small grids it wraps onto itself.  A kernel probed once serves
    later densities on the same grid just as well."""
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
                kernel = cr_kernel((cells,), CrConfig(m=m), p)
                for _ in range(2):
                    rho = 1.0 + 0.5 * rng.uniform(size=cells)
                    res = cr_lift(rho, CrConfig(m=m), p, kernel=kernel)
                    assert res.converged, (advection, m, cells, res.residual)
                    assert_allclose(res.f, dense_reference_lift(rho, m, p),
                                    rtol=0, atol=1e-12,
                                    err_msg=f"reused a={advection} m={m} "
                                            f"n={cells}")


def test_two_d_cr_lift_matches_dense_f_space_reference():
    """On a 7x7 grid, D2Q5 and advective D2Q9 lifts give the dense
    f-space fixed point for every m, and a probed kernel serves a later
    density of that grid."""
    rng = np.random.default_rng(3)
    for name, advection in (("D2Q5", ()), ("D2Q9", (1.0, 0.5))):
        p = benchmark_params(name, advection=advection)
        for m in range(4):
            kernel = cr_kernel((7, 7), CrConfig(m=m), p)
            for given in (None, kernel):
                rho = 1.0 + 0.5 * rng.uniform(size=(7, 7))
                res = cr_lift(rho, CrConfig(m=m), p, kernel=given)
                assert res.converged, (name, m, res.residual)
                assert_allclose(res.f, dense_f_space_lift(rho, m, p),
                                rtol=0, atol=1e-12, err_msg=f"{name} m={m}")


def test_two_d_cr_lift_improves_with_m():
    """Against a settled 64x64 state (1,000 free steps), the D2Q5 and
    D2Q9 lift errors fall strictly with m, and every closing residual
    meets tol."""
    for name in ("D2Q5", "D2Q9"):
        p = benchmark_params(name)
        f_ref = run_lbm(equilibrium(gaussian_density(p, 64), p), p, 1000)
        errs = []
        for m in range(4):
            res = cr_lift(restrict(f_ref), CrConfig(m=m), p)
            assert res.converged, (name, m, res.residual)
            errs.append(np.abs(res.f - f_ref).max())
        assert errs[0] > errs[1] > errs[2] > errs[3], (name, errs)


def test_nonconvergence_reported_not_raised(monkeypatch):
    """A closing residual above CR_TOL comes back as converged False with
    a finite residual, not as an exception."""
    monkeypatch.setattr(constrained_runs, "CR_TOL", 1e-30)
    p = benchmark_params("D1Q3")
    rho = gaussian_density(p, cells=30)
    res = cr_lift(rho, CrConfig(m=1), p)
    assert not res.converged
    assert res.iterations == 1
    assert np.isfinite(res.residual)
    assert 0 < res.residual <= CR_TOL


def test_cr_lift_rejects_non_finite_density():
    """cr_lift and CrLifter refuse a non-finite or wrong-rank density
    before any LBM step, the kernel probe included.  The lifter keeps no
    kernel for it, so its next good lift of that size still probes."""
    p = benchmark_params("D1Q3")
    config = CrConfig(m=1)
    lifter = CrLifter(config)
    rho = np.ones(20)
    rho[6] = np.nan
    rho[11] = np.inf
    for bad, message in ((rho, r"non-finite density nan at cell \(6,\)"),
                         (np.ones((20, 3)), r"density rank 2")):
        for refuse in (lambda: cr_lift(bad, config, p),
                       lambda: lifter.lift(bad, p)):
            before = lbm_step_count()
            with pytest.raises(ValueError, match=message):
                refuse()
            assert lbm_step_count() == before
        before = lbm_step_count()
        lifter.lift(np.ones(bad.size), p)
        # one probe run (20 cells hold the 3 windows) and the closing run
        assert lbm_step_count() - before == 2 * (config.m + 1)


def test_cr_lift_refuses_a_kernel_of_another_grid():
    p = benchmark_params("D1Q3")
    config = CrConfig(m=1)
    kernel = cr_kernel((13,), config, p)
    before = lbm_step_count()
    with pytest.raises(ValueError, match=r"\(2, 7\) does not fit 40 cells"):
        cr_lift(gaussian_density(p, cells=40), config, p, kernel=kernel)
    assert lbm_step_count() == before


def test_a_kernel_of_the_same_half_spectrum_fails_the_closing_run():
    """40 and 41 cells share the 21 wavenumbers of a real half spectrum,
    so the shape check passes a 40-cell kernel on 41 cells; the closing
    run catches it, as it does a kernel of another model."""
    p = benchmark_params("D1Q3")
    config = CrConfig(m=1)
    kernel = cr_kernel((40,), config, p)
    res = cr_lift(gaussian_density(p, cells=41), config, p, kernel=kernel)
    assert kernel.shape == (2, 21) and not res.converged
    assert res.residual > 1e-6


def test_step_accounting_scales_with_m():
    """A lift makes one map evaluation of m+1 LBM steps, the closing
    residual, and the kernel probe one run of m+1 more, on 40 cells as on
    a 6x5 grid too small for one D2Q9 window at m >= 1: 2(m+1) without a
    kernel, m+1 with one.  The kernel is the read-only complex transfer,
    one (q-1)-vector per wavenumber, stacked like the non-rest components,
    and every lift returns the kernel it used.  lbm_steps reports exactly
    the stream_collide calls made."""
    rng = np.random.default_rng(5)
    for name, shape in (("D1Q3", (40,)), ("D2Q9", (6, 5))):
        p = benchmark_params(name)
        q = p.vset.q
        rho = 1.0 + rng.uniform(size=shape)
        for m in range(4):
            config = CrConfig(m=m)
            before = lbm_step_count()
            kernel = cr_kernel(shape, config, p)
            assert lbm_step_count() - before == m + 1
            assert kernel.shape == ((q - 1,) + shape[:-1]
                                    + (shape[-1] // 2 + 1,))
            assert kernel.dtype == complex and not kernel.flags.writeable
            for given, evaluations in ((None, 2), (kernel, 1)):
                before = lbm_step_count()
                res = cr_lift(rho, config, p, kernel=given)
                assert res.converged
                assert res.lbm_steps == evaluations * (m + 1)
                assert lbm_step_count() - before == res.lbm_steps
                assert np.array_equal(res.kernel, kernel)


def test_cr_lifter_probes_once_per_grid_and_model():
    """One CrLifter equals a fresh cr_lift on every density, bit for bit.
    Used on 40, 13, then 40 cells again, on diffusive then advective
    params, it probes once per (grid size, model) and never reuses a
    kernel across them: the first lift on a key costs 2(m+1) LBM steps,
    its probe run and its closing run, later ones m+1, on 40 cells as on
    13.  A new lifter probes again."""
    rng = np.random.default_rng(11)
    diffusive = benchmark_params("D1Q3")
    advective = benchmark_params("D1Q3", advection=(0.66,))
    runs = [(diffusive, 40), (diffusive, 13), (diffusive, 40),
            (advective, 40), (advective, 13), (diffusive, 13)]
    for m in range(4):
        config = CrConfig(m=m)
        lifter = CrLifter(config)
        seen = set()
        for p, cells in runs:
            for _ in range(2):
                rho = gaussian_density(p, cells=cells) \
                    + 0.1 * rng.uniform(size=cells)
                before = lbm_step_count()
                f = lifter.lift(rho, p)
                steps = lbm_step_count() - before
                probes = 0 if (p, cells) in seen else 1
                assert steps == (1 + probes) * (m + 1), (m, cells, steps)
                seen.add((p, cells))
                assert np.array_equal(f, cr_lift(rho, config, p).f), \
                    (m, p.advection, cells)
        before = lbm_step_count()
        CrLifter(config).lift(rho, p)
        assert lbm_step_count() - before == 2 * (m + 1)


def test_cr_lifter_keys_kernels_by_grid_shape():
    """A 10x20 and a 20x10 grid have as many cells but not one kernel:
    each probes its own, in one run, and each later lift pays its closing
    run alone.  A density of the wrong rank is refused before any LBM
    step."""
    p = benchmark_params("D2Q5")
    config = CrConfig(m=1)
    lifter = CrLifter(config)
    rng = np.random.default_rng(2)
    for shape, probes in (((10, 20), True), ((20, 10), True),
                          ((10, 20), False), ((20, 10), False)):
        rho = 1.0 + rng.uniform(size=shape)
        before = lbm_step_count()
        f = lifter.lift(rho, p)
        steps = lbm_step_count() - before
        assert steps == (2 if probes else 1) * (config.m + 1), (shape, steps)
        assert np.array_equal(f, cr_lift(rho, config, p).f), shape
    assert sorted(key[0] for key in lifter._kernels) == [(10, 20), (20, 10)]
    before = lbm_step_count()
    with pytest.raises(ValueError, match="density rank 1 does not match D2Q5"):
        lifter.lift(np.ones(200), p)
    assert lbm_step_count() == before


@pytest.mark.parametrize("name,m", [("D1Q3", 0), ("D1Q3", 3), ("D2Q9", 1)])
def test_impulse_responses_vanish_outside_window(name, m):
    """Each of the q responses, one run per impulse on a large grid, lives
    within m+1 cells of its impulse per axis: what lets impulse_responses
    pack all q into windows of 2(m+1)+1 cells."""
    shape = (66,) if name == "D1Q3" else (20, 20)
    p = benchmark_params(name, advection=(0.5,) * len(shape))
    # the impulse sits at cell 0: centre it, then cut the m+1 window out
    centre = tuple(n // 2 for n in shape)
    window = (slice(None),) + tuple(slice(c - m - 1, c + m + 2) for c in centre)
    responses = list(one_impulse_responses(shape, m, p))
    assert len(responses) == p.vset.q
    for g in responses:
        centred = np.roll(g, centre, axis=tuple(range(1, g.ndim)))
        assert np.abs(centred[window]).max() > 0
        centred[window] = 0.0
        assert not centred.any()


PACKED_PROBE_CASES = (
    [("D1Q3", advection, shape) for advection in ((), (0.5,))
     for shape in ((66,), (72,), (200,), (40,), (7,))]
    + [("D2Q5", (), shape) for shape in ((68, 68), (20, 20), (10, 20),
                                         (7, 7), (6, 5))]
    + [("D2Q9", advection, shape) for advection in ((), (1.0, 0.5))
       for shape in ((64, 64), (72, 72), (20, 20), (10, 20), (7, 7),
                     (6, 5))])


@pytest.mark.parametrize("name,advection,shape", PACKED_PROBE_CASES)
def test_packed_impulse_responses_match_one_run_per_impulse(name, advection,
                                                            shape):
    """impulse_responses costs one run of m+1 LBM steps, for m = 0..3, and
    its compact responses, wrapped onto a grid as cr_kernel wraps them,
    equal one run per impulse on that grid bit for bit wherever its axes
    hold 2(m+1)+1 cells.  On a shorter axis (7x7 and 7 cells at m = 3, 6x5
    at m >= 1), where images are summed, they stay within 8 eps of
    max|R_i| of one run per impulse, 4x the worst measured 2.1 eps (D2Q9
    6x5, m = 2)."""
    p = benchmark_params(name, advection=advection)
    q = p.vset.q
    for m in range(4):
        before = lbm_step_count()
        packed = impulse_responses(m, p)
        assert lbm_step_count() - before == m + 1
        assert packed.shape == (q, q) + (2 * m + 3,) * len(shape)
        for i, want in enumerate(one_impulse_responses(shape, m, p)):
            got = constrained_runs._wrap(packed[i], shape)
            if min(shape) >= 2 * m + 3:
                assert np.array_equal(got, want), (m, i)
                continue
            gap = np.abs(got - want).max() / np.abs(want).max()
            assert gap <= 8 * np.finfo(float).eps, (m, i, gap)


@st.composite
def probe_cases(draw, fewest=lambda m: 1):
    """(model, m, grid) off the acceptance matrix: any velocity set, a
    drawn model, m = 0..3 and fewest(m) to fewest(m) + 11 cells per axis."""
    name = draw(st.sampled_from(sorted(VELOCITY_SETS)))
    p = draw(off_matrix_models(name))
    m = draw(st.integers(0, 3))
    shape = draw(st.tuples(*(st.integers(fewest(m), fewest(m) + 11),)
                           * p.vset.dimension))
    return p, m, shape


@OFF_MATRIX
@given(probe_cases(fewest=lambda m: 2 * m + 3))
def test_packed_impulse_responses_fit_any_model_bit_for_bit(case):
    """Where every axis holds a window of 2(m+1)+1 cells, the wrapped
    packed responses equal one run per impulse bit for bit at drawn
    models too."""
    p, m, shape = case
    packed = impulse_responses(m, p)
    for i, want in enumerate(one_impulse_responses(shape, m, p)):
        assert np.array_equal(constrained_runs._wrap(packed[i], shape),
                              want), (m, i)


@pytest.mark.xfail(strict=True, reason=(
    "the pinned 8 eps bound on summed images holds on the canonical "
    "models only; off them one run per impulse is itself up to 106 eps "
    "from exact arithmetic on one cell (CHANGES.md FOUND: D2Q5, omega = "
    "0.30078125, m = 1, 1 x 1 cells)"))
@OFF_MATRIX
@given(probe_cases())
def test_packed_impulse_responses_off_the_acceptance_matrix(case):
    """The check of test_packed_impulse_responses_match_one_run_per_impulse
    at drawn models, m and grids of 1 to 12 cells per axis, many of them
    shorter than 2(m+1)+1: bit for bit where every axis holds a window,
    within the pinned 8 eps of max|R_i| where images are summed."""
    p, m, shape = case
    packed = impulse_responses(m, p)
    for i, want in enumerate(one_impulse_responses(shape, m, p)):
        got = constrained_runs._wrap(packed[i], shape)
        if min(shape) >= 2 * m + 3:
            assert np.array_equal(got, want), (m, i)
        else:
            gap = np.abs(got - want).max() / np.abs(want).max()
            assert gap <= 8 * np.finfo(float).eps, (m, i, gap)


@OFF_MATRIX
@given(off_matrix_models("D1Q3"), st.integers(0, 3), st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1))
def test_cr_lift_matches_dense_reference_off_the_acceptance_matrix(
        p, m, cells, seed):
    """The bound of test_cr_lift_matches_dense_reference at drawn D1Q3
    models, m and grids of 1 to 40 cells: the transfer-kernel lift
    converges and gives the dense moment-space fixed point to 1e-12."""
    rho = 1.0 + 0.5 * np.random.default_rng(seed).uniform(size=cells)
    res = cr_lift(rho, CrConfig(m=m), p)
    assert res.converged, res.residual
    assert_allclose(res.f, dense_reference_lift(rho, m, p), rtol=0,
                    atol=1e-12)


def test_cr_lift_reports_the_steps_it_makes():
    """lbm_steps is the step counter's difference, probe included or not:
    on 13 cells the probe takes one run of m+1 steps at every m."""
    p = benchmark_params("D1Q3")
    rho = gaussian_density(p, cells=13)
    for m in range(4):
        kernel = None
        for runs in (2, 1):
            before = lbm_step_count()
            result = cr_lift(rho, CrConfig(m=m), p, kernel=kernel)
            assert result.lbm_steps == lbm_step_count() - before \
                == runs * (m + 1), (m, kernel is None)
            kernel = result.kernel


@pytest.mark.parametrize("name,omega", [("D2Q9", 2.0), ("D2Q5", 1e-9),
                                        ("D2Q9", 1e-9)])
def test_a_singular_fixed_point_is_refused(name, omega):
    """At these omega values, which LbmParams accepts, some wavenumber
    block of I - B has no inverse; the lift names the grid, m, omega and
    the first singular wavenumber per axis: the grid-scale (0, pi) for
    D2Q9 at omega = 2, and the uniform mode at omega near 0."""
    p = replace(benchmark_params(name), omega=omega)
    wavenumber = "0.000, 3.142" if omega == 2.0 else "0.000, 0.000"
    with pytest.raises(ValueError, match=(
            r"fixed point is singular on 24 x 24 cells at m = 1, "
            rf"omega = {omega!r}, first at wavenumber \({wavenumber}\) "
            r"rad$")):
        cr_lift(np.ones((24, 24)), CrConfig(m=1), p)


def test_a_kernel_of_another_model_is_caught():
    """A kernel probed on diffusive params, used for an advective lift of
    the same grid size, gives the wrong fast moments; the closing
    constrained run catches it.  cr_lift reports converged = False, and a
    CrLifter holding that kernel raises."""
    diffusive = benchmark_params("D1Q3")
    advective = benchmark_params("D1Q3", advection=(0.66,))
    rho = gaussian_density(advective, cells=40)
    for m in range(4):
        config = CrConfig(m=m)
        wrong = cr_kernel((40,), config, diffusive)
        res = cr_lift(rho, config, advective, kernel=wrong)
        assert not res.converged, (m, res.residual)
        assert res.residual > 1e3 * CR_TOL
        assert cr_lift(rho, config, advective).converged
        lifter = CrLifter(config)
        lifter._kernels[((40,), advective, config)] = wrong
        with pytest.raises(RuntimeError, match="missed its tolerance"):
            lifter.lift(rho, advective)


class DenseReferenceLifter:
    """The lifter interface over dense_reference_lift, for hybrid runs."""

    name = "dense-reference"

    def __init__(self, m):
        self.m = m

    def lift(self, rho, params):
        return dense_reference_lift(rho, self.m, params)


def test_hybrid_with_cr_lifter_matches_dense_reference():
    """A short D1Q3 hybrid gives the same max-error history whether its
    lifts come from CrLifter or from the dense reference fixed point."""
    for advection in ((), (0.66,)):
        p = benchmark_params("D1Q3", advection=advection)
        for m in (1, 3):
            histories = []
            for lifter in (CrLifter(CrConfig(m=m)), DenseReferenceLifter(m)):
                spec = HybridSpec(total_cells=40, split_index=20, params=p,
                                  pde=analytic_pde(p), lifter=lifter,
                                  initial_density=gaussian_density(p, 40))
                histories.append(compare_to_reference(spec, 30).max_error)
            assert_allclose(histories[0], histories[1], rtol=0, atol=1e-13,
                            err_msg=f"a={advection} m={m}")
