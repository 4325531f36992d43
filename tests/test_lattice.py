import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from lblift import (D1Q3, D2Q5, D2Q9, LbmParams, Moments, equilibrium,
                    from_moments, lbm_step_count, moments, restrict, run_lbm,
                    stream_collide)
from lblift.lattice import reset_density

from conftest import benchmark_params, gaussian_density, roll_stream_collide


def test_velocity_set_tables():
    assert D1Q3.q == 3 and D1Q3.dimension == 1
    assert D2Q5.q == 5 and D2Q5.dimension == 2
    assert D2Q9.q == 9 and D2Q9.dimension == 2
    for vs in (D1Q3, D2Q5, D2Q9):
        assert abs(sum(vs.weights) - 1.0) < 1e-15
        # zero mean velocity
        assert_allclose(vs.weight_array() @ vs.direction_array(), 0.0,
                        atol=1e-15)
    # isotropy: sum_i w_i c_i c_i = c_s^2/c^2 * I
    for vs in (D1Q3, D2Q5, D2Q9):
        c = vs.direction_array().astype(float)
        second = np.einsum("i,ia,ib->ab", vs.weight_array(), c, c)
        assert_allclose(second, vs.sound_speed_sq_factor * np.eye(vs.dimension),
                        atol=1e-15)


def test_sound_speed():
    p = benchmark_params("D1Q3")
    assert_allclose(p.sound_speed_sq, (2 / 3) * (0.05 / 1e-3) ** 2)
    p2 = benchmark_params("D2Q5")
    assert_allclose(p2.sound_speed_sq, (1 / 3) * (0.05 / 1e-4) ** 2)


def test_params_validation():
    with pytest.raises(ValueError):
        LbmParams(vset=D1Q3, dx=0.05, dt=1e-3, omega=2.5)
    with pytest.raises(ValueError):
        LbmParams(vset=D1Q3, dx=-1.0, dt=1e-3, omega=1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not finite and positive"):
            LbmParams(vset=D1Q3, dx=bad, dt=1e-3, omega=1.0)
        with pytest.raises(ValueError, match="not finite and positive"):
            LbmParams(vset=D1Q3, dx=0.05, dt=bad, omega=1.0)
    with pytest.raises(ValueError):
        LbmParams(vset=D2Q5, dx=0.05, dt=1e-4, omega=1.0, advection=(1.0,))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="advection component 0 .* finite"):
            LbmParams(vset=D1Q3, dx=0.05, dt=1e-3, omega=1.0, advection=(bad,))
        with pytest.raises(ValueError, match="advection component 1 .* finite"):
            LbmParams(vset=D2Q9, dx=0.05, dt=1e-5, omega=1.0,
                      advection=(1.0, bad))


def test_equilibrium_conserves_mass():
    p = benchmark_params("D1Q3", advection=(0.66,))
    rho = gaussian_density(p)
    assert_allclose(restrict(equilibrium(rho, p)), rho, rtol=1e-14)
    p2 = benchmark_params("D2Q9", advection=(1.0, 0.5))
    rho2 = gaussian_density(p2)
    assert_allclose(restrict(equilibrium(rho2, p2)), rho2, rtol=1e-14)


def test_equilibrium_weights_sum_to_one():
    for name, a in (("D1Q3", (0.66,)), ("D2Q5", (0.3, -0.2)),
                    ("D2Q9", (1.0, 0.5))):
        p = benchmark_params(name, advection=a)
        assert_allclose(p.equilibrium_weights().sum(), 1.0, rtol=1e-14)


def test_uniform_equilibrium_is_fixed_point():
    for name in ("D1Q3", "D2Q5", "D2Q9"):
        p = benchmark_params(name)
        shape = (8,) * p.vset.dimension
        f = equilibrium(np.full(shape, 0.7), p)
        assert_allclose(stream_collide(f, p), f, atol=1e-15)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(arrays(np.float64, (3, 16),
              elements=st.floats(-1e3, 1e3, allow_nan=False)))
def test_mass_conserved_by_stream_collide(f):
    p = LbmParams(vset=D1Q3, dx=0.05, dt=1e-3, omega=0.9)
    g = stream_collide(f, p)
    assert_allclose(restrict(g).sum(), restrict(f).sum(),
                    rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(arrays(np.float64, (3, 12),
              elements=st.floats(-1e6, 1e6, allow_nan=False)))
def test_moment_roundtrip_random(f):
    assert_allclose(from_moments(moments(f)), f, rtol=1e-14, atol=1e-9)


def test_moment_definitions():
    f = np.array([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
    m = moments(f)
    assert_array_equal(m.rho, f.sum(axis=0))
    assert_array_equal(m.phi, f[0] - f[2])
    assert_array_equal(m.xi, 0.5 * (f[0] + f[2]))
    with pytest.raises(ValueError):
        moments(np.zeros((5, 4)))


@pytest.mark.parametrize("transform", [
    lambda f: stream_collide(f, benchmark_params("D1Q3")), moments,
], ids=["stream_collide", "moments"])
def test_a_0d_field_is_refused_by_its_rank(transform):
    """A scalar is refused with the ValueError that names its rank, where
    reading its leading axis raised an IndexError."""
    with pytest.raises(ValueError,
                       match="^distribution rank 0 does not match D1Q3$"):
        transform(np.float64(1.0))


def test_rest_is_the_zero_direction():
    assert (D1Q3.rest, D2Q5.rest, D2Q9.rest) == (1, 0, 0)
    for vs in (D1Q3, D2Q5, D2Q9):
        assert vs.directions[vs.rest] == (0,) * vs.dimension


def test_reset_density_keeps_fast_moments():
    rng = np.random.default_rng(3)
    f = rng.normal(size=(3, 20))
    target = rng.normal(size=20)
    g = f.copy()
    assert reset_density(g, target, D1Q3) is g
    assert_allclose(restrict(g), target, rtol=1e-14, atol=1e-14)
    assert_allclose(moments(g).phi, moments(f).phi, rtol=1e-14)
    assert_allclose(moments(g).xi, moments(f).xi, rtol=1e-14)


def test_streaming_moves_mass_along_directions():
    # omega = 0 switches collisions off, leaving pure streaming
    p = LbmParams(vset=D1Q3, dx=0.05, dt=1e-3, omega=0.0)
    f = np.zeros((3, 6))
    f[0, 2] = 1.0  # direction +1
    g = stream_collide(f, p)
    assert g[0, 3] == 1.0 and g[0].sum() == 1.0


def test_run_lbm_counts_steps():
    p = benchmark_params("D1Q3")
    f = equilibrium(gaussian_density(p, cells=16), p)
    before = lbm_step_count()
    run_lbm(f, p, 7)
    assert lbm_step_count() - before == 7
    assert_array_equal(run_lbm(f, p, 0), f)


def test_diffusion_spreads_gaussian():
    """Free LBM run: variance of the density grows, total mass fixed."""
    p = benchmark_params("D1Q3")
    rho0 = gaussian_density(p)
    f = run_lbm(equilibrium(rho0, p), p, 500)
    rho = restrict(f)
    x = np.arange(200) * p.dx
    def var(r):
        w = r / r.sum()
        mu = w @ x
        return w @ (x - mu) ** 2
    assert var(rho) > var(rho0)
    assert_allclose(rho.sum(), rho0.sum(), rtol=1e-12)


@pytest.mark.parametrize("name, advection, shapes", [
    ("D1Q3", (0.66,), [(200,), (3,), (1,)]),
    ("D2Q5", (0.3, -0.2), [(17, 11), (3, 1)]),
    ("D2Q9", (1.0, 0.5), [(40, 25), (5, 3), (3, 1)]),
])
def test_stream_collide_matches_roll_reference(name, advection, shapes):
    p = benchmark_params(name, advection=advection)
    rng = np.random.default_rng(7)
    for shape in shapes:
        f = rng.normal(size=(p.vset.q,) + shape)
        got = stream_collide(f, p)
        ref = roll_stream_collide(f, p)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref), (name, shape)


@pytest.mark.parametrize("vset", [D1Q3, D2Q5, D2Q9], ids=lambda v: v.name)
def test_collision_groups_stream_every_cell_once(vset):
    """At every group size, the groups take the velocities in index order,
    and their moves read each (scratch row, cell) of a group and write
    each (velocity, cell) of the new field exactly once, one link along
    the velocity; on axes of one to three cells, where the wrapped edge
    is all or most of the axis."""
    p = LbmParams(vset=vset, dx=0.05, dt=1e-3, omega=1.0)
    grids = [(1,), (2,), (5,)] if vset.dimension == 1 else [(1, 3), (3, 2),
                                                            (4, 1)]
    for grid in grids:
        cells = np.arange(np.prod(grid)).reshape(grid)
        for group in range(1, vset.q + 1):
            written = np.zeros((vset.q,) + grid, dtype=int)
            streamed = np.full((vset.q,) + grid, -1)
            rows = []
            scratch = np.repeat(cells[None], group, axis=0)
            for row, _, _, moves in p.collision_groups(group):
                velocities = np.atleast_1d(np.arange(vset.q)[row])
                rows.extend(velocities.tolist())
                size = velocities.size
                read = np.zeros((group,) + grid, dtype=int)
                for dst, src in moves:
                    written[dst] += 1
                    read[src] += 1
                    streamed[dst] = scratch[src]
                assert np.all(read[:size] == 1), (grid, group)
                assert np.all(read[size:] == 0), (grid, group)
            assert rows == list(range(vset.q)), group
            assert np.all(written == 1), (grid, group)
            for k, c in enumerate(vset.directions):
                assert np.array_equal(
                    streamed[k], np.roll(cells, c, axis=tuple(
                        range(vset.dimension)))), (grid, group, k)


def test_equilibrium_weights_cached_read_only():
    p = benchmark_params("D2Q9", advection=(1.0, 0.5))
    w = p.equilibrium_weights()
    assert p.equilibrium_weights() is w
    with pytest.raises(ValueError):
        w[0] = 0.0
