"""Acceptance checks: one test per numbered criterion.

Each test prints a single `criterion N: PASS/FAIL` line with measured
values before asserting, so a verbose run doubles as the acceptance
report.  Published table values are asserted at their stated relative
tolerances; structural guarantees (orderings, exactness, determinism)
are asserted directly.
"""

import time
from itertools import product

import numpy as np
import pytest

from lblift import (CoefficientLifter, CrConfig, EquilibriumLifter,
                    ExperimentConfig, HybridSpec, NceTrainConfig,
                    analytic_coefficients, analytic_pde, apply_lift,
                    augment_time_derivative, compare_to_reference,
                    cost_summary, cr_lift, default_split, extract_pde,
                    from_moments, full_density, hybrid_step, init_hybrid,
                    moments, restrict, run_experiment, train_coefficients)
from lblift.stencil import DerivSpec

from conftest import benchmark_params, gaussian_density


def report(name: str, ok: bool, detail: str):
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def within(measured: float, target: float, rel: float) -> bool:
    return abs(measured - target) <= rel * abs(target)


def lift_error(f_ref, coeffs, params) -> float:
    return float(np.linalg.norm(
        apply_lift(restrict(f_ref), coeffs, params) - f_ref))


@pytest.fixture(scope="module")
def nce_table(d1_params, d1_reference):
    """Trained coefficients and settled-state lift errors for every
    (m, R) combination, shared by the criterion 4 tests."""
    results, errors = {}, {}
    for m, r in product(range(4), range(1, 7)):
        res = train_coefficients(NceTrainConfig(spatial_order=r, m=m),
                                 d1_params)
        results[m, r] = res
        errors[m, r] = lift_error(d1_reference, res.coefficients, d1_params)
    return results, errors


def test_criterion_1_moment_roundtrip():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        scale = 10.0 ** rng.integers(-3, 4)
        f = rng.uniform(-scale, scale, size=(3, 50))
        back = from_moments(moments(f))
        tol = 4.0 * np.spacing(np.abs(f).max(axis=0))
        ulps = np.abs(back - f) / tol
        worst = max(worst, float(ulps.max()) * 4.0)
        assert np.all(np.abs(back - f) <= tol)
    elapsed = time.perf_counter() - start
    report("criterion 1", elapsed < 1.0,
           f"1000 random D1Q3 fields round-trip within 4 ulps "
           f"(worst {worst:.2f} ulps) in {elapsed:.3f}s")


def test_criterion_2_analytic_lift_table(d1_params, d1_reference):
    targets = {0: 0.0388, 1: 5.2341e-4, 2: 2.7570e-5}
    measured = {k: lift_error(d1_reference, analytic_coefficients(d1_params, k),
                              d1_params) for k in (0, 1, 2, 3)}
    ok = all(within(measured[k], targets[k], 0.05) for k in (0, 1, 2))
    ok = ok and within(measured[3], 1.2439e-5, 0.25)
    report("criterion 2", ok,
           "settled-state lift errors "
           + ", ".join(f"order {k}: {measured[k]:.4e} (target {t})"
                       for k, t in {**targets, 3: 1.2439e-5}.items()))


def test_criterion_3_constrained_runs_table(d1_params, d1_reference,
                                            d1_adv_params, d1_adv_reference):
    rho = restrict(d1_reference)
    errs = {}
    for m in range(4):
        res = cr_lift(rho, CrConfig(m=m), d1_params)
        assert res.converged
        errs[m] = float(np.linalg.norm(res.f - d1_reference))
    rho_a = restrict(d1_adv_reference)
    adv = {}
    for m in (0, 1):
        res = cr_lift(rho_a, CrConfig(m=m), d1_adv_params)
        assert res.converged
        adv[m] = float(np.linalg.norm(res.f - d1_adv_reference))
    ok = (within(errs[0], 1.0e-3, 0.10) and within(errs[1], 1.3578e-6, 0.10)
          and within(errs[2], 2.9359e-9, 0.10) and errs[3] <= 5e-11
          and within(adv[0], 1.4e-3, 0.10) and within(adv[1], 1.7927e-6, 0.10))
    report("criterion 3", ok,
           f"constant {errs[0]:.4e}, linear {errs[1]:.4e}, "
           f"quadratic {errs[2]:.4e}, cubic {errs[3]:.4e}; "
           f"advective constant {adv[0]:.4e}, linear {adv[1]:.4e}")


def test_criterion_4a_coefficient_recovery(d1_params, nce_table):
    results, _ = nce_table
    exact = analytic_coefficients(d1_params, 2)
    worst = 0.0
    for m in (1, 2, 3):
        co = results[m, 2].coefficients
        for spec in exact.terms:
            gap = float(np.linalg.norm(co.terms[spec] - exact.terms[spec]))
            worst = max(worst, gap)
    report("criterion 4a", worst <= 1e-12,
           f"R=2 trained alpha/beta match closed forms, worst gap {worst:.2e}"
           f" (bound 1e-12)")


def test_criterion_4b_trained_lift_error(nce_table):
    _, errors = nce_table
    err = errors[1, 2]
    report("criterion 4b", within(err, 2.7570e-5, 0.05),
           f"R=2, m=1 settled-state error {err:.4e} (target 2.7570e-5, 5%)")


def coefficient_gap(a, b) -> float:
    """Largest relative gap between the matching term vectors of two
    coefficient sets with the same terms."""
    assert a.terms.keys() == b.terms.keys()
    return max(float(np.linalg.norm(a.terms[s] - b.terms[s])
                     / max(np.linalg.norm(a.terms[s]),
                           np.linalg.norm(b.terms[s])))
               for s in a.terms)


def test_criterion_4c_monotone_improvement(nce_table):
    """Monotone improvement in both table directions, over the range
    where the expansion provides it.

    In diffusive scaling one time derivative counts as two spatial
    orders, so a smoothness condition of order m fixes every expansion
    term up to spatial order 2m+1, whatever m is above that.  Hence:

    - rows m and m+1 tie for R <= 2m+1: they train the same coefficients
      and give the same lift error, up to the round-off of training
      (relative gap per term at most 6.6e-6 measured, against at least
      0.66 in the untied cells);
    - beyond R = 2m+1 row m stops improving: its error settles near twice
      the row's best value (ratio 1.96 to 2.0 measured), close to the
      constrained-runs error of the same m in criterion 3.

    The test checks, for m = 0..3 and R = 1..6:

    1. along R: errors[m, R] < errors[m, R-1] for 2 <= R <= 2m+1;
    2. along m: errors[m+1, R] < errors[m, R] for R > 2m+1;
    3. ties: rows m and m+1 train coefficients within a relative gap of
       1e-4 per term for R <= 2m+1; plateau: errors[m, R] <=
       3 errors[m, 2m+1] for R > 2m+1.

    The published table has the same structure:

        (m, R)        measured   published
        (1, 2)        2.758e-5   2.7570e-5   (criterion 4b)
        (1, 3)        6.880e-7   6.8686e-7   best of row 1
        (1, 4)        1.360e-6   1.3630e-6   row 1 rises, factor 1.98
        (2, 4) (3, 4) 4.107e-8   4.8021e-8   tied in both rows
        (2, 5) (3, 5) 1.502e-9   1.8727e-9   tied in both rows

    Open point, not asserted: at R = 4 and R = 5 the m >= 2 rows measure
    15-20 % below the published values (ratios 0.855 and 0.802).  No lever
    tried moves them onto the published values while keeping the rest of
    the table:
    - test_length 1.5 or 6 (30 or 120 test cells): every ratio unchanged
      to 3 digits;
    - probe positions shifted by -3, +3 or +5 cells: within 0.1 %;
    - a reference settled for 2,000 steps instead of 1,000: every cell
      falls, R <= 3 too ((1, 2) to 0.36, (2, 5) to 0.12);
    - fourth-order stencils for training and lifting: the gap widens
      ((2, 4) 0.54, (2, 5) 0.56) and criterion 4b breaks ((1, 2) 0.55).
    The exact affine solve left the table unchanged to 4 digits, so the
    training tolerance is not the cause either.  Only criteria 4b and 4d
    pin values from this table.
    """
    results, errors = nce_table
    rs = range(1, 7)
    gaps = {(m, r): coefficient_gap(results[m, r].coefficients,
                                    results[m + 1, r].coefficients)
            for m in range(3) for r in rs if r <= 2 * m + 1}
    ratios = {(m, r): errors[m, r] / errors[m, 2 * m + 1]
              for m in range(4) for r in rs if r > 2 * m + 1}
    broken = {
        "improvement along R": [(m, r) for m in range(4) for r in rs
                                if 2 <= r <= 2 * m + 1
                                and not errors[m, r] < errors[m, r - 1]],
        "improvement along m": [(m, r) for m in range(3) for r in rs
                                if r > 2 * m + 1
                                and not errors[m + 1, r] < errors[m, r]],
        "tie of rows m and m+1": [cell for cell, gap in gaps.items()
                                  if not gap <= 1e-4],
        "plateau": [cell for cell, ratio in ratios.items()
                    if not ratio <= 3.0],
    }
    table = "; ".join(
        f"m={m}: " + " ".join(f"{errors[m, r]:.3e}" for r in rs)
        for m in range(4))
    failed = "; ".join(f"{check} broken at (m, R) {cells}"
                       for check, cells in broken.items() if cells)
    report("criterion 4c", not failed,
           (failed or "improves along R up to 2m+1 and along m beyond it")
           + f"; worst tie gap {max(gaps.values()):.1e} (bound 1e-4),"
           f" worst plateau ratio {max(ratios.values()):.2f} (bound 3);"
           f" full table {table}")


def test_criterion_4d_high_order_floor(nce_table):
    _, errors = nce_table
    err = errors[3, 6]
    report("criterion 4d", err <= 1e-9,
           f"R=6, m=3 settled-state error {err:.4e} (bound 1e-9)")


def test_criterion_5_pde_extraction(d1_params, d1_adv_params):
    details = []
    ok = True
    for m in (1, 2, 3):
        cfg = NceTrainConfig(spatial_order=2, m=m)
        aug = augment_time_derivative(
            train_coefficients(cfg, d1_params).coefficients, cfg, d1_params)
        d_sum = extract_pde(aug.coefficients, mode="summation").diffusion
        d_null = extract_pde(aug.coefficients, mode="nullspace",
                             system=aug.system).diffusion
        ok = ok and abs(d_sum - 1.0) <= 1e-6 and abs(d_sum - d_null) <= 1e-8
        details.append(f"m={m}: D {d_sum:.12f} (modes differ "
                       f"{abs(d_sum - d_null):.1e})")
    cfg = NceTrainConfig(spatial_order=2, m=1)
    aug = augment_time_derivative(
        train_coefficients(cfg, d1_adv_params).coefficients, cfg,
        d1_adv_params)
    a_hat = extract_pde(aug.coefficients, mode="summation").advection[0]
    ok = ok and abs(a_hat - 0.66) <= 1e-4
    details.append(f"a {a_hat:.10f}")
    p2 = benchmark_params("D2Q5")
    aug2 = augment_time_derivative(
        train_coefficients(cfg, p2).coefficients, cfg, p2)
    d2 = extract_pde(aug2.coefficients, mode="summation").diffusion
    ok = ok and abs(d2 - 1.0) <= 1e-4
    details.append(f"D2Q5 D {d2:.10f}")
    report("criterion 5", ok, "; ".join(details))


def hybrid_peak_error(params, lifter, pde=None, steps=200, cells=200):
    spec = HybridSpec(
        total_cells=cells,
        split_index=default_split(cells),
        params=params,
        pde=analytic_pde(params) if pde is None else pde,
        lifter=lifter,
        initial_density=gaussian_density(params, cells),
    )
    return float(compare_to_reference(spec, steps).max_error.max())


def test_criterion_6a_lifter_ordering(d1_params):
    eq = hybrid_peak_error(d1_params, EquilibriumLifter())
    ce1 = hybrid_peak_error(
        d1_params, CoefficientLifter(analytic_coefficients(d1_params, 1),
                                     name="ce1"))
    ce2 = hybrid_peak_error(
        d1_params, CoefficientLifter(analytic_coefficients(d1_params, 2),
                                     name="ce2"))
    report("criterion 6a", eq > ce1 > ce2,
           f"peak hybrid error eq {eq:.4e} > order-1 {ce1:.4e} > "
           f"order-2 {ce2:.4e}")


def test_criterion_6b_extracted_pde(d1_params):
    """The PDE extracted from the R = 6, m = 2 coefficients serves the
    hybrid as well as the analytic PDE.

    Both hybrids differ only in D, and the hybrid error falls with any D
    above the true value (relative change -1.85e4 per unit of D, measured
    for |dD| from 1e-8 to 1e-6), so an ordering of the two errors is
    decided by the sign of the round-off in the extracted D.  The check
    is therefore a closeness one: |D_ext - D| <= 1e-8 and the two peak
    errors agree within a relative 1e-4, i.e. |dD| below about 5e-9
    (measured 1.4e-9 and 9.9e-6; moving D_ext by 1e-8 either way fails
    the second check).
    """
    cfg = NceTrainConfig(spatial_order=6, m=2)
    trained = train_coefficients(cfg, d1_params)
    lifter = CoefficientLifter(trained.coefficients, name="nce6")
    aug = augment_time_derivative(trained.coefficients, cfg, d1_params)
    extracted = extract_pde(aug.coefficients, mode="summation")
    d_gap = abs(extracted.diffusion - analytic_pde(d1_params).diffusion)
    err_extracted = hybrid_peak_error(d1_params, lifter, pde=extracted)
    err_analytic = hybrid_peak_error(d1_params, lifter)
    ratio_gap = abs(err_extracted / err_analytic - 1.0)
    report("criterion 6b", d_gap <= 1e-8 and ratio_gap <= 1e-4,
           f"NCE-extracted PDE (D {extracted.diffusion:.12f}, gap "
           f"{d_gap:.1e}, bound 1e-8) peak error {err_extracted:.12e} vs "
           f"analytic-PDE error {err_analytic:.12e} (relative gap "
           f"{ratio_gap:.1e}, bound 1e-4)")


def test_criterion_6c_uniform_steady_state(d1_params):
    spec = HybridSpec(
        total_cells=200, split_index=100, params=d1_params,
        pde=analytic_pde(d1_params),
        lifter=CoefficientLifter(analytic_coefficients(d1_params, 2),
                                 name="ce2"),
        initial_density=np.full(200, 1.1),
    )
    state = init_hybrid(spec)
    for _ in range(200):
        state = hybrid_step(state, spec)
    drift = float(np.abs(full_density(state, spec) - 1.1).max())
    report("criterion 6c", drift == 0.0,
           f"uniform density after 200 hybrid steps, max drift {drift}")


def test_criterion_6d_two_d_hybrid_gain():
    cases = [("D2Q5", ()), ("D2Q9", ()), ("D2Q9", (1.0, 0.5))]
    details = []
    ok = True
    for name, adv in cases:
        params = benchmark_params(name, advection=adv)
        cfg = NceTrainConfig(spatial_order=4, m=1)
        trained = train_coefficients(cfg, params)
        nce = CoefficientLifter(trained.coefficients, name="nce4")
        err_eq = hybrid_peak_error(params, EquilibriumLifter())
        err_nce = hybrid_peak_error(params, nce)
        ok = ok and err_nce <= err_eq / 10.0
        details.append(f"{name} a={adv or (0.0,) * 2}: eq {err_eq:.4e}, "
                       f"NCE-4 {err_nce:.4e} ({err_eq / err_nce:.1f}x)")
    report("criterion 6d", ok, "; ".join(details))


def test_criterion_7_cost_accounting(d1_params):
    # NCE training cost is one-time and independent of the production run
    nce_counts = [cost_summary(ExperimentConfig(
        kind="cost_table", lifter="nce", order=2, m=1, steps=s))
        for s in (50, 200)]
    training_flat = (nce_counts[0].lbm_steps_training
                     == nce_counts[1].lbm_steps_training)
    training_bounded = nce_counts[1].lbm_steps_training <= 500
    # CR burns at least (m+1) steps per solve of every lift
    rho = gaussian_density(d1_params)
    per_lift_ok = True
    for m in range(4):
        res = cr_lift(rho, CrConfig(m=m), d1_params)
        per_lift_ok = per_lift_ok and res.converged \
            and res.lbm_steps >= (m + 1) * max(res.iterations, 1)
    # total extra steps over a 200-step hybrid run: NCE training of
    # 2(m + 1) steps, then 201 CR lifts of m+1 steps each
    # plus one kernel probe of m+1, as on any grid
    totals = [nce_counts[1].total_extra_steps]
    for m in range(4):
        totals.append(cost_summary(ExperimentConfig(
            kind="cost_table", lifter="cr", m=m, steps=200)).total_extra_steps)
    exact_totals = totals == [4, 202, 404, 606, 808]
    report("criterion 7",
           training_flat and training_bounded and per_lift_ok and exact_totals,
           f"NCE training {nce_counts[1].lbm_steps_training} steps "
           f"(<= 500, run-length independent); per-lift floor holds; "
           f"totals NCE/CR-m0..3 {totals}")


def test_criterion_8_determinism(tmp_path):
    configs = [
        ExperimentConfig(kind="lift_bench", lifter="nce", order=4, m=1),
        ExperimentConfig(kind="train_only", lifter="nce", order=6, m=1),
        ExperimentConfig(kind="hybrid", lifter="analytic", order=2, steps=25),
        ExperimentConfig(kind="cost_table", lifter="cr", m=1, steps=25),
    ]
    identical = True
    for k, cfg in enumerate(configs):
        first = run_experiment(cfg, tmp_path / f"first{k}")
        second = run_experiment(cfg, tmp_path / f"second{k}")
        for pa, pb in zip(first, second):
            identical = identical and pa.read_bytes() == pb.read_bytes()
    report("criterion 8", identical,
           "all four experiment kinds rerun to byte-identical artifacts")
