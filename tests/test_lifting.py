import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lblift import (CoefficientLifter, DerivSpec, LbmParams,
                    analytic_coefficients, apply_lift, coefficients_from_text,
                    coefficients_to_text, equilibrium, expansion_terms,
                    restrict, run_lbm)
from lblift.lattice import D1Q3
from lblift.lifting import _wrapped
from lblift.stencil import central_offsets, fd_weights, spatial_derivative

from conftest import (benchmark_params, gaussian_density, with_flat,
                      zero_coefficients)


def test_expansion_terms_counts():
    assert len(expansion_terms(1, 3)) == 3
    assert [s.orders for s in expansion_terms(1, 2)] == [(1,), (2,)]
    # 2D: all (j, k) with 1 <= j + k <= R
    terms2 = expansion_terms(2, 2)
    assert set(s.orders for s in terms2) == {(1, 0), (0, 1), (2, 0), (1, 1),
                                             (0, 2)}
    assert len(expansion_terms(2, 4)) == 14


def test_zero_coefficients_apply_is_equilibrium():
    p = benchmark_params("D1Q3")
    rho = gaussian_density(p)
    co = zero_coefficients(p, 2)
    assert_allclose(apply_lift(rho, co, p), equilibrium(rho, p), atol=0)


def test_analytic_coefficients_zero_velocity_sum():
    """Each correction term carries no mass, so restrict o lift = identity."""
    p = benchmark_params("D1Q3")
    co = analytic_coefficients(p, 3)
    for col in co.terms.values():
        assert_allclose(col.sum(), 0.0, atol=1e-16)
    rho = gaussian_density(p)
    assert_allclose(restrict(apply_lift(rho, co, p)), rho, rtol=1e-13)


def test_analytic_coefficients_scope():
    p = benchmark_params("D1Q3")
    with pytest.raises(ValueError):
        analytic_coefficients(p, 4)
    assert analytic_coefficients(p, 0).terms == {}
    # the closed forms cover the pure diffusion D1Q3 model only
    with pytest.raises(ValueError):
        analytic_coefficients(benchmark_params("D1Q3", advection=(0.66,)), 2)
    with pytest.raises(ValueError):
        analytic_coefficients(benchmark_params("D2Q5"), 2)


def test_analytic_lift_tracks_slow_manifold():
    """Lift error against a settled state shrinks as the order grows."""
    p = benchmark_params("D1Q3")
    f_ref = run_lbm(equilibrium(gaussian_density(p), p), p, 300)
    rho = restrict(f_ref)
    errs = [np.linalg.norm(apply_lift(rho, analytic_coefficients(p, k), p)
                           - f_ref) for k in (0, 1, 2)]
    assert errs[0] > errs[1] > errs[2]


def test_coefficient_text_roundtrip():
    rng = np.random.default_rng(11)
    for name, a, time_term in (("D1Q3", (0.66,), False), ("D2Q9", (), True)):
        p = benchmark_params(name, advection=a)
        co = with_flat(zero_coefficients(p, 2), rng.normal(
            size=len(expansion_terms(p.vset.dimension, 2)) * p.vset.q))
        if time_term:
            co.time_term = -p.dt / p.omega * p.equilibrium_weights()
        text = coefficients_to_text(co)
        back = coefficients_from_text(text)
        assert back.fingerprint == co.fingerprint
        assert set(back.terms) == set(co.terms)
        for spec in co.terms:
            assert_allclose(back.terms[spec], co.terms[spec], atol=0)
        if time_term:
            assert_allclose(back.time_term, co.time_term, atol=0)
        else:
            assert back.time_term is None
        # serialization is exact: a second roundtrip is byte-identical
        assert coefficients_to_text(back) == text


def test_flatten_with_flat_roundtrip():
    p = benchmark_params("D1Q3")
    co = analytic_coefficients(p, 2)
    flat = co.flatten()
    assert flat.shape == (len(co.terms) * p.vset.q,)
    back = with_flat(co, flat)
    for spec in co.terms:
        assert_allclose(back.terms[spec], co.terms[spec], atol=0)


def test_fingerprint_mismatch_rejected():
    p = benchmark_params("D1Q3")
    other = LbmParams(vset=p.vset, dx=p.dx, dt=p.dt, omega=0.5)
    co = analytic_coefficients(p, 2)
    with pytest.raises(ValueError):
        apply_lift(gaussian_density(p), co, other)


# ---------------------------------------------------------------------------
# The stencil-matrix lift against the per-term reference.
# ---------------------------------------------------------------------------

def reference_lift(rho, coeffs, params):
    """f_eq plus one periodic spatial_derivative field per term."""
    f = equilibrium(rho, params)
    for spec, vec in coeffs.terms.items():
        d = spatial_derivative(rho, spec, params.dx)
        f += vec.reshape((-1,) + (1,) * rho.ndim) * d[None]
    return f


def random_coefficients(params, order, seed):
    """Coefficient vectors of the size training gives: |a_T| ~ 0.2 dx^|T|."""
    rng = np.random.default_rng(seed)
    co = zero_coefficients(params, order)
    for spec in co.terms:
        co.terms[spec] = 0.2 * params.dx ** spec.total * rng.normal(
            size=params.vset.q)
    return co


def assert_matches_reference(rho, co, p):
    f = apply_lift(rho, co, p)
    ref = reference_lift(rho, co, p)
    assert f.shape == ref.shape
    gap = np.abs(f - ref).max()
    assert gap <= 1e-14 * np.abs(ref).max(), gap


@pytest.mark.parametrize("order", range(1, 7))
def test_stencil_lift_matches_reference_d1q3(order):
    p = benchmark_params("D1Q3", advection=(0.66,))
    assert_matches_reference(gaussian_density(p),
                             random_coefficients(p, order, seed=order), p)


@pytest.mark.parametrize("name", ["D2Q5", "D2Q9"])
def test_stencil_lift_matches_reference_2d(name):
    p = benchmark_params(name, advection=(1.0, 0.5))
    assert_matches_reference(gaussian_density(p),
                             random_coefficients(p, 4, seed=5), p)


def test_stencil_lift_non_square_grid():
    """Both orientations split into row blocks with a shorter last block."""
    p = benchmark_params("D2Q9", advection=(1.0, 0.5))
    rho = 1.0 + 0.1 * np.random.default_rng(2).normal(size=(150, 61))
    assert_matches_reference(rho, random_coefficients(p, 4, seed=6), p)
    assert_matches_reference(rho.T.copy(), random_coefficients(p, 3, seed=7),
                             p)


@pytest.mark.parametrize("cells", [3, 5])
def test_stencil_lift_grid_smaller_than_stencil(cells):
    """Order 6 reaches 3 cells each way, beyond a 3- or 5-cell period."""
    rng = np.random.default_rng(cells)
    p = benchmark_params("D1Q3")
    assert_matches_reference(1.0 + 0.1 * rng.normal(size=cells),
                             random_coefficients(p, 6, seed=8), p)
    p2 = benchmark_params("D2Q5", advection=(1.0, 0.5))
    assert_matches_reference(1.0 + 0.1 * rng.normal(size=(cells, 4)),
                             random_coefficients(p2, 6, seed=9), p2)


def long_double_lift(rho, coeffs, params):
    """The difference form of the lift, summed in long double term by term:

        f = w rho + sum_T a_T sum_u W_T[u] (rho(x + u) - rho(x)),

    with W_T the tensor product of the 1D central weights (float64, as the
    stencils define them) and every difference taken by np.roll."""
    rho = np.asarray(rho, dtype=np.longdouble)
    axes = tuple(range(rho.ndim))
    column = (-1,) + (1,) * rho.ndim
    f = params.equilibrium_weights().astype(np.longdouble).reshape(column) \
        * rho
    for spec, vec in coeffs.terms.items():
        per_axis = []
        for order in spec.orders:
            offsets = central_offsets(order) if order else (0,)
            weights = (fd_weights(order, offsets) / params.dx ** order
                       if order else np.ones(1))
            per_axis.append(list(zip(offsets, weights)))
        d = np.zeros_like(rho)
        for pairs in product(*per_axis):
            u = tuple(off for off, _ in pairs)
            if any(u):
                weight = np.longdouble(np.prod([w for _, w in pairs]))
                d += weight * (np.roll(rho, [-s for s in u], axis=axes) - rho)
        f += vec.astype(np.longdouble).reshape(column) * d
    return f


@pytest.mark.parametrize("shape", [(150, 61), (61, 150), (9, 2), (2, 9)],
                         ids=["150x61", "61x150", "9x2", "2x9"])
@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize("name", ["D2Q5", "D2Q9"])
def test_stencil_lift_matches_long_double_difference_form(name, order, shape):
    """Within 1e-15 max|f| of the exact difference form, on a noisy density
    and the benchmark Gaussian: 150 and 61 rows are no multiple of the 134-
    and 54-row blocks, and 2 cells are narrower than every stencil, so
    the order-4 and -6 stencils wrap round them more than once."""
    p = benchmark_params(name, advection=(1.0, 0.5))
    co = random_coefficients(p, order, seed=order)
    rng = np.random.default_rng(order)
    x, y = ((np.arange(n) - n / 2) * p.dx for n in shape)
    for rho in (1.0 + 0.1 * rng.normal(size=shape),
                np.exp(-np.add.outer(x ** 2, y ** 2))):
        ref = long_double_lift(rho, co, p)
        gap = np.abs(apply_lift(rho, co, p) - ref).max()
        assert gap <= 1e-15 * np.abs(ref).max(), float(gap / np.abs(ref).max())


def test_wrapped_density_equals_np_pad():
    """The slice-copy wrap of the stencil lift gives np.pad's wrap, also
    where a reach exceeds the period and the wrap goes round repeatedly."""
    rng = np.random.default_rng(0)
    for n0, n1 in product(range(1, 5), repeat=2):
        rows = rng.normal(size=(n0, n1))
        for h0, h1 in product(range(8), repeat=2):
            assert_array_equal(_wrapped(rows, h0, h1),
                               np.pad(rows, [(h0, h0), (h1, h1)],
                                      mode="wrap"))


@pytest.mark.parametrize("name, shapes", [
    ("D1Q3", [(40,), (7,)]),
    ("D2Q5", [(30, 20), (9, 2)]),
    ("D2Q9", [(150, 61), (2, 9)]),
])
def test_coefficient_lifter_reuses_the_kernel_of_apply_lift(name, shapes):
    """A CoefficientLifter builds its stencil matrix at its first lift and
    keeps it: on two grid shapes in turn, then on the first again, every
    lift equals apply_lift, which builds the matrix per call, bit for bit."""
    p = benchmark_params(name, advection=(1.0, 0.5)[:len(shapes[0])])
    co = random_coefficients(p, 4, seed=3)
    lifter = CoefficientLifter(co)
    rng = np.random.default_rng(4)
    for shape in shapes + shapes[:1]:
        rho = 1.0 + 0.1 * rng.normal(size=shape)
        assert_array_equal(lifter.lift(rho, p), apply_lift(rho, co, p))
        kernel = lifter._kernel
        assert kernel is not None and not kernel.matrix.flags.writeable
    assert lifter.lift(rho, p).tobytes() == apply_lift(rho, co, p).tobytes()
    assert lifter._kernel is kernel


def test_coefficient_lifter_keeps_refusing_another_model():
    """Holding the stencil matrix of its model, a lifter still refuses
    params of another model with the fingerprint error; and a first lift
    on the wrong model leaves no matrix behind for the right one."""
    p = benchmark_params("D2Q9", advection=(1.0, 0.5))
    co = random_coefficients(p, 4, seed=2)
    rho = 1.0 + 0.1 * np.random.default_rng(2).normal(size=(20, 12))
    others = (benchmark_params("D2Q9"),
              LbmParams(vset=p.vset, dx=p.dx, dt=p.dt, omega=1.5,
                        advection=p.advection))
    lifter = CoefficientLifter(co)
    lifter.lift(rho, p)
    kernel = lifter._kernel
    for other in others:
        with pytest.raises(ValueError, match="coefficient fingerprint does "
                                             "not match"):
            lifter.lift(rho, other)
    assert lifter._kernel is kernel
    fresh = CoefficientLifter(co)
    with pytest.raises(ValueError, match="coefficient fingerprint"):
        fresh.lift(rho, others[0])
    assert fresh._kernel is None
    assert_array_equal(fresh.lift(rho, p), apply_lift(rho, co, p))


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("name", ["D1Q3", "D2Q5", "D2Q9"])
def test_coefficient_lifter_reach_bounds_the_support_of_an_impulse(name,
                                                                   order):
    """A unit density at one cell, zero elsewhere, lifts to distributions
    that differ from f_eq only within `reach` cells of it along the first
    axis, and do differ `reach` cells away: reach is the exact extent of
    the lift's dependence along the split axis.  An empty set (order 0)
    has reach 0 and lifts to f_eq."""
    shape = (25,) if name == "D1Q3" else (25, 12)
    p = benchmark_params(name, advection=(1.0, 0.5)[:len(shape)])
    rho = np.zeros(shape)
    rho[(12, 5)[:len(shape)]] = 1.0
    lifter = CoefficientLifter(random_coefficients(p, order, seed=order))
    h = lifter.reach(p)
    moved = lifter.lift(rho, p) - equilibrium(rho, p)
    rows = np.flatnonzero(
        np.abs(moved).reshape(p.vset.q, 25, -1).max(axis=(0, 2)))
    assert h == (order + 1) // 2
    if order:
        assert rows.min() == 12 - h and rows.max() == 12 + h, (rows, h)
    else:
        assert rows.size == 0


def test_stencil_lift_temporaries_stay_small():
    """One 200 x 200 D2Q9 order-4 lift allocates its 2.88 MB output and
    less than 0.92 MB more: the wrapped density (333 kB), the row-block
    buffer (422 kB) and one row block of differences (72 kB).  The peak
    measured 3.71 MB (tracemalloc, numpy 2.4)."""
    p = benchmark_params("D2Q9", advection=(1.0, 0.5))
    co = random_coefficients(p, 4, seed=4)
    rho = gaussian_density(p)
    apply_lift(rho, co, p)  # fill the stencil caches first
    tracemalloc.start()
    try:
        apply_lift(rho, co, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.8e6, peak


def test_stencil_lift_uniform_density_is_exactly_equilibrium():
    """Every slot of the lift but rho is a local difference, so a uniform
    density lifts to f_eq bit for bit, also on non-square grids and on
    grids narrower than the order-6 stencil."""
    for name, shape in (("D1Q3", (50,)), ("D2Q9", (30, 20)),
                        ("D2Q5", (30, 20)), ("D2Q9", (17, 45)),
                        ("D2Q5", (45, 17)), ("D2Q9", (5, 4)),
                        ("D2Q5", (4, 5))):
        p = benchmark_params(name)
        rho = np.full(shape, 1.3)
        assert_array_equal(apply_lift(rho, random_coefficients(p, 6, seed=1),
                                      p),
                           equilibrium(rho, p))


def test_apply_lift_rejects_non_finite_density():
    p = benchmark_params("D2Q9")
    co = random_coefficients(p, 2, seed=3)
    rho = np.ones((20, 30))
    rho[4, 7] = np.nan
    rho[9, 2] = np.inf
    with pytest.raises(ValueError,
                       match=r"non-finite density nan at cell \(4, 7\)"):
        apply_lift(rho, co, p)
    rho[4, 7] = 1.0
    with pytest.raises(ValueError, match=r"inf at cell \(9, 2\)"):
        apply_lift(rho, co, p)


def test_analytic_coefficients_reject_zero_omega():
    p = LbmParams(vset=D1Q3, dx=0.05, dt=1e-3, omega=0.0)
    with pytest.raises(ValueError, match="omega = 0"):
        analytic_coefficients(p, 1)


def test_analytic_order_three_needs_no_sympy(monkeypatch):
    """Order 3 is a closed form; sympy may be missing altogether."""
    monkeypatch.setitem(sys.modules, "sympy", None)
    for omega in (10 / 11, 50 / 31, 125 / 64, 1.3, 0.5):
        for dx in (0.05, 0.1):
            p = LbmParams(vset=D1Q3, dx=dx, dt=1e-3, omega=omega)
            w = omega
            expected = [-dx ** 3 * i * (i * i * w * w - 6 * i * i * w
                                        + 6 * i * i - 2 * w * w + 8 * w - 8)
                        / (18 * w ** 3) for i in (1, 0, -1)]
            got = analytic_coefficients(p, 3).terms[DerivSpec((3,))]
            assert_allclose(got, expected, rtol=1e-15, atol=0)
    # values of the symbolic Chapman-Enskog expansion the closed form replaced
    for omega, dx, c3 in ((10 / 11, 0.05, 9.319444444444448e-06),
                          (1.3, 0.1, 2.7562838213725796e-05),
                          (0.5, 0.1, 0.0005555555555555557)):
        p = LbmParams(vset=D1Q3, dx=dx, dt=1e-3, omega=omega)
        assert_allclose(analytic_coefficients(p, 3).terms[DerivSpec((3,))],
                        [c3, 0.0, -c3], rtol=1e-15, atol=0)


def test_coefficient_text_rejects_wrong_term_arity():
    text = coefficients_to_text(analytic_coefficients(
        benchmark_params("D1Q3"), 2))
    with pytest.raises(ValueError,
                       match=r"^line 9: term d1d0 has 2 axes, D1Q3 has 1$"):
        coefficients_from_text(text + "term d1d0 = 0.0 0.0 0.0\n")


@pytest.mark.parametrize("extra, message", [
    ("term x1 = 0.0 0.0 0.0", r"line 9: term label 'x1' is not d<order>"),
    ("term d = 0.0 0.0 0.0", r"line 9: term label 'd' is not d<order>"),
    ("term d1x = 0.0 0.0 0.0", r"line 9: term label 'd1x' is not d<order>"),
    ("term d0 = 0.0 0.0 0.0", r"line 9: zeroth derivative has no stencil"),
    ("dx = 0.1", r"line 9: header field 'dx' repeats line 3"),
    ("set = D1Q3", r"line 9: header field 'set' repeats line 2"),
    ("term d01 = 0.0 0.0 0.0", r"line 9: term d1 repeats line 7"),
    ("time dt1 = 0.0 0.0 0.0\ntime dt1 = 0.0 0.0 0.0",
     r"line 10: time vector repeats line 9"),
    ("dxx = 0.1", r"line 9: unknown key 'dxx'"),
    ("term d2 = 0.0 zero 0.0", r"line 9: could not convert"),
], ids=["label-x1", "label-d", "label-d1x", "label-d0", "repeat-dx",
        "repeat-set", "repeat-d1", "repeat-time", "unknown-key",
        "bad-number"])
def test_coefficient_text_refuses_malformed_lines(extra, message):
    """A mislabelled, repeated or unknown line is refused by number
    instead of loading as another term or overriding an earlier value."""
    text = coefficients_to_text(analytic_coefficients(
        benchmark_params("D1Q3"), 2))
    assert text.splitlines()[2] == "dx = 0.05"
    assert text.splitlines()[6].startswith("term d1 = ")
    with pytest.raises(ValueError, match="^" + message):
        coefficients_from_text(text + extra + "\n")


def test_coefficient_text_reads_the_time_vector_only_as_time_dt1():
    """The time vector loads only from `time dt1`, the key that
    coefficients_to_text writes; any other key starting with "time" is
    refused as an unknown key, naming its line."""
    text = coefficients_to_text(analytic_coefficients(
        benchmark_params("D1Q3"), 2))
    for key in ("timestamp", "time dt7", "time", "timedt1"):
        with pytest.raises(ValueError,
                           match=rf"^line 9: unknown key '{key}'$"):
            coefficients_from_text(text + f"{key} = 1.0 2.0 3.0\n")
    back = coefficients_from_text(text + "time dt1 = 1.0 2.0 3.0\n")
    assert back.time_term.tolist() == [1.0, 2.0, 3.0]


def test_coefficient_text_header_values_name_their_line():
    text = coefficients_to_text(analytic_coefficients(
        benchmark_params("D1Q3"), 2))
    with pytest.raises(ValueError, match=r"^line 3: could not convert"):
        coefficients_from_text(text.replace("dx = 0.05", "dx = 0.05 0.1"))
    with pytest.raises(ValueError, match=r"^line 2: unknown velocity set"):
        coefficients_from_text(text.replace("set = D1Q3", "set = D1Q4"))
    # values that load as floats but that no model has
    omega = "omega = 0.9090909090909091"
    for old, new, message in (
            ("advection = 0.0", "advection = 0.0 0.5",
             r"^line 6: advection has 2 components, D1Q3 has 1$"),
            ("advection = 0.0", "advection =",
             r"^line 6: advection has 0 components, D1Q3 has 1$"),
            ("dx = 0.05", "dx = nan", r"^line 3: nan is not finite and "),
            ("dx = 0.05", "dx = -1", r"^line 3: -1.0 is not finite and "),
            ("dt = 0.001", "dt = 0", r"^line 4: 0.0 is not finite and "),
            ("dt = 0.001", "dt = inf", r"^line 4: inf is not finite and "),
            (omega, "omega = 2.5", r"^line 5: omega 2.5 outside"),
            (omega, "omega = nan", r"^line 5: omega nan outside")):
        assert old in text
        with pytest.raises(ValueError, match=message):
            coefficients_from_text(text.replace(old, new))


def test_coefficient_text_rejects_wrong_time_length():
    text = coefficients_to_text(analytic_coefficients(
        benchmark_params("D1Q3"), 2))
    with pytest.raises(ValueError, match=r"^line 9: time vector has 2 "
                                         r"entries, expected 3$"):
        coefficients_from_text(text + "time dt1 = 1.0 2.0\n")
