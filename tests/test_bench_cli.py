import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lblift.bench as bench
from lblift import ExperimentConfig, cost_summary, lbm_step_count, \
    lift_restrict_error, parse_config, run_experiment, train_coefficients
from lblift.cli import _COMMANDS, main
from lblift.hybrid import checked_split, compare_to_reference, default_split
from lblift.macro_pde import stability_breaches
from lblift.training import ConfigError, NceTrainConfig


def test_parse_config_happy_path():
    cfg = parse_config("""
# comment line
kind = hybrid
velocity_set = D2Q9   # trailing comment
omega = 125/64        # fractions are read exactly
advection = 1, 0.5
lifter = equilibrium
steps = 50
""")
    assert cfg.kind == "hybrid"
    assert cfg.velocity_set == "D2Q9"
    assert cfg.omega == 125 / 64
    assert cfg.advection == (1.0, 0.5)
    assert cfg.steps == 50


def test_parse_config_diagnostics_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_config("kind = hybrid\nbogus_key = 3\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_config("kind = hybrid\nsteps = 5\nsteps = 6\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config("steps = many\nkind = hybrid\n")
    with pytest.raises(ValueError, match="expected key = value"):
        parse_config("kind hybrid\n")
    with pytest.raises(ValueError, match="kind"):
        parse_config("steps = 5\n")


def test_parse_config_names_the_line_of_a_refused_value():
    """A value that parses but that ExperimentConfig refuses is reported
    with its config line, comments and blank lines counted."""
    with pytest.raises(ValueError,
                       match=r"^config line 2: reference_steps = -1"):
        parse_config("kind = lift_bench\nreference_steps = -1\n")
    with pytest.raises(ValueError, match=r"^config line 4: steps = 0"):
        parse_config("# a comment\nkind = hybrid\n\nsteps = 0\n")
    with pytest.raises(ValueError, match=r"^config line 1: lifter = magic: "
                                         r"not one of equilibrium, analytic, "
                                         r"nce, cr$"):
        parse_config("lifter = magic\n", kind="hybrid")
    # dt and omega follow the rules of LbmParams, which ExperimentConfig
    # applies
    with pytest.raises(ValueError, match=r"^config line 2: dt = 0.0: 0.0 is "
                                         r"not finite and positive$"):
        parse_config("kind = hybrid\ndt = 0\n")
    with pytest.raises(ValueError, match=r"^config line 3: omega = 3.0: "
                                         r"omega 3.0 outside the stable"):
        parse_config("kind = hybrid\n\nomega = 3  # unstable\n")


@pytest.mark.parametrize("key, value, message", [
    ("dt", -1.0, "-1.0 is not finite and positive"),
    ("dt", float("inf"), "inf is not finite and positive"),
    ("omega", 3.0, "omega 3.0 outside the stable range [0, 2]"),
    ("omega", float("nan"), "omega nan outside the stable range [0, 2]"),
], ids=["dt-negative", "dt-inf", "omega-3", "omega-nan"])
def test_a_directly_built_config_meets_the_dt_and_omega_rules(key, value,
                                                               message):
    """An ExperimentConfig built in code refuses a dt or omega that breaks
    the model's rules as a ConfigError on that key, as a parsed one does,
    where it once built and failed only in run_experiment, naming no
    key."""
    with pytest.raises(ConfigError) as refused:
        ExperimentConfig(kind="lift_bench", lifter="equilibrium",
                         **{key: value})
    assert str(refused.value) == f"{key} = {value}: {message}"
    assert refused.value.keys == (key,)


def test_parse_config_refuses_an_overflowing_length():
    """length = 1e400 overflows float(Fraction(...)); it is refused with a
    ValueError naming its config line, not a bare OverflowError."""
    with pytest.raises(ValueError, match=r"^config line 2: cannot parse "
                                         r"length = '1e400' \(integer "
                                         r"division result too large"):
        parse_config("kind = hybrid\nlength = 1e400\n")


@pytest.mark.parametrize("lifter", ["equilibrium", "analytic", "nce"])
def test_parse_config_refuses_a_length_whose_stencil_weights_overflow(
        lifter):
    """length = 1e-300 on 200 cells makes 1/dx^2 overflow; it is refused
    as it is read, naming its config line, whatever the lifter, where the
    run would have met RuntimeWarnings and a nan density (a division by
    zero in ftcs_step for the equilibrium lifter).  An order-6 lift needs
    1/dx^6: length = 1e-60 passes at order 2 and is refused at 6, a
    trained lifter too, whose training runs at the lattice spacing.  The
    canonical 10-unit box of 200 cells parses at every order."""
    head = f"kind = hybrid\nlifter = {lifter}\n"
    with pytest.raises(ValueError, match=(
            r"^config line 3: length = 1e-300, cells = 200: 1/dx\^2 is not "
            r"finite, dx = 5e-303$")):
        parse_config(head + "length = 1e-300\n")
    assert parse_config(head + "length = 1e-60\n").length == 1e-60
    with pytest.raises(ValueError, match=r"^config line 4: .* 1/dx\^6 is not"):
        parse_config(head + "order = 6\nlength = 1e-60\n")
    for order in range(1, 4 if lifter == "analytic" else 7):
        cfg = parse_config(head + f"order = {order}\nlength = 10\n")
        assert (cfg.length, cfg.cells, cfg.order) == (10.0, 200, order)


# the three ways a config trains, after its kind and lifter line
TRAINING_HEADS = ("kind = train_only\nlifter = analytic\n",
                  "kind = hybrid\nlifter = nce\n",
                  "kind = hybrid\npde_source = extracted\n")


@pytest.mark.parametrize("text", [
    "kind = train_only\ncells = 201\n",
    "kind = train_only\nlength = 3.14159\ncells = 200\n",
    "kind = train_only\nvelocity_set = D2Q9\ncells = 201\n"])
def test_a_config_trains_at_its_own_dx(tmp_path, text):
    """A dx that leaves no whole number of cells on a 3-unit grid trains
    for that dx, through its lattice twin on the 60 training cells."""
    config = parse_config(text)
    dx = bench.experiment_params(config).dx
    assert bench.train_config(config) == NceTrainConfig(spatial_order=2, m=1)
    run_experiment(config, tmp_path)
    with open(tmp_path / "train_summary.csv") as summary:
        row = dict(zip(*(line.rstrip("\n").split(",") for line in summary)))
    assert float(row["dx"]) == dx
    assert float(row["residual"]) < 1e-10
    assert float(row["condition"]) < 1e7


@pytest.mark.parametrize("cells,order", [(2000, 6), (20000, 4)])
def test_a_fine_grid_trains_through_the_cli(tmp_path, capsys, cells, order):
    """length = 3 at 2,000 cells and order 6, or at 20,000 cells and order
    4, trains through `lblift train`, where training on test densities
    sampled at dx itself failed with a RuntimeError naming no key
    (closing residual 3.7e-9 > 5.5e-10 at 2,000 cells).  Without
    advection its lattice twin runs the dynamics of the canonical
    model, whose probe system it solves: the same condition."""
    config = tmp_path / "fine.cfg"
    config.write_text(f"kind = train_only\nlength = 3\ncells = {cells}\n"
                      f"order = {order}\n")
    assert main(["train", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    with open(tmp_path / "out" / "train_summary.csv") as summary:
        row = dict(zip(*(line.rstrip("\n").split(",") for line in summary)))
    assert float(row["dx"]) == 3 / cells
    assert float(row["residual"]) < 1e-11
    canonical = bench.experiment_params(ExperimentConfig(kind="train_only"))
    assert float(row["condition"]) == train_coefficients(
        NceTrainConfig(spatial_order=order, m=1), canonical).condition


def test_parse_config_names_the_line_of_a_training_order_out_of_range():
    """order = 9 in a config that trains is refused as it is read, naming
    its line; a config that does not train is not refused here."""
    for head in TRAINING_HEADS:
        with pytest.raises(ValueError, match=r"^config line 4: order = 9: "
                           r"spatial_order 9 outside 1..6$"):
            parse_config(head + "# too high\norder = 9\n")
    assert parse_config("kind = lift_bench\nlifter = equilibrium\n"
                        "order = 9\n").order == 9


def test_parse_config_names_the_line_of_a_training_m_out_of_range():
    """m = 7 in a config that trains is refused as it is read, naming its
    line; a config whose run reads no m is not refused."""
    for head in TRAINING_HEADS:
        with pytest.raises(ValueError, match=r"^config line 3: m = 7: "
                           r"smoothness order m=7, expected 0..3$"):
            parse_config(head + "m = 7\n")
    assert parse_config("kind = lift_bench\nlifter = equilibrium\n"
                        "m = 7\n").m == 7


def test_parse_config_names_the_line_of_a_cr_order_out_of_range():
    """m = 7 with the constrained-runs lifter is refused as it is read, by
    CrConfig's rule and naming its line, where it failed only when the
    run built the lifter; a config that only trains refuses it by the
    training rule instead."""
    for kind in ("lift_bench", "hybrid", "cost_table"):
        with pytest.raises(ValueError, match=r"^config line 4: m = 7: "
                           r"extrapolation order m=7, expected 0..3$"):
            parse_config(f"kind = {kind}\nlifter = cr\n# too high\nm = 7\n")
    with pytest.raises(ValueError, match=r"^config line 3: m = 7: "
                       r"smoothness order m=7"):
        parse_config("kind = train_only\nlifter = cr\nm = 7\n")
    assert parse_config("kind = hybrid\nlifter = cr\nm = 3\n").m == 3


def test_parse_config_names_the_line_of_an_advection_of_another_dimension():
    """An advection vector whose length is not the velocity set's
    dimension is refused as it is read, by LbmParams' rule and naming its
    line, where it failed only when the run built the model."""
    with pytest.raises(ValueError, match=(
            r"^config line 3: advection = 1.0: advection vector must match "
            r"the lattice dimension$")):
        parse_config("kind = hybrid\nvelocity_set = D2Q9\nadvection = 1\n")
    with pytest.raises(ValueError, match=r"^config line 2: advection = "
                       r"1.0, 0.5: advection vector must match"):
        parse_config("kind = lift_bench\nadvection = 1, 1/2\n")
    assert parse_config("kind = hybrid\nvelocity_set = D2Q9\n"
                        "lifter = equilibrium\n"
                        "advection = 1, 1/2\n").advection == (1.0, 0.5)


def test_cli_refuses_an_unstable_hybrid_on_its_omega_line(tmp_path, capsys):
    """D1Q3 with the analytic lifter at omega = 1e-12 on 40 cells: a PDE
    diffusion number of 6.67e+11, far past 1/2.  Its 3 hybrid steps once
    exited 0 with a max_error of 2.9e75; the config is now refused as it
    is read, naming the omega line and the number, and writes nothing."""
    cfg = tmp_path / "unstable.cfg"
    cfg.write_text("kind = hybrid\nvelocity_set = D1Q3\nlifter = analytic\n"
                   "omega = 1e-12\ncells = 40\nsteps = 3\n")
    out = tmp_path / "out"
    assert main(["hybrid", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: config line 4: omega = 1e-12: unstable PDE step, diffusion "
        "number 1*6.67e+11 exceeds 1/2; forward Euler may be unstable\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["hybrid", "cost_table"])
def test_parse_config_names_the_dt_line_of_an_unstable_pde_step(kind):
    """The Courant bounds name the dt line, or the advection line when dt
    is left to its default: a Courant number of 1.2, then squared Courant
    numbers above 2 nu at omega = 1.99, where nu = (2/3)(1/omega - 1/2)
    is 0.00168.  The canonical D1Q3 step, nu = 0.4, parses."""
    head = f"kind = {kind}\nvelocity_set = D1Q3\n"
    with pytest.raises(ValueError, match=(
            r"^config line 4: dt = 0.001: unstable PDE step, advection "
            r"Courant number 1.2 exceeds 1$")):
        parse_config(head + "advection = 60\ndt = 1/1000\n")
    with pytest.raises(ValueError, match=(
            r"^config line 3: dt = 0.001: unstable PDE step, squared Courant "
            r"numbers sum to 0.01, above 2 nu = 0.00331")):
        parse_config(head + "advection = 5\nomega = 1.99\n")
    assert parse_config(head + "lifter = equilibrium\n"
                        "advection = 0.66\n").advection == (0.66,)


@pytest.mark.parametrize("build", ["hybrid_spec", "hybrid_pde"])
def test_an_unstable_extracted_pde_is_refused_after_training(build):
    """An extracted PDE is known only once trained: hybrid_spec, and
    hybrid_pde, which perfbench builds its hybrids from, refuse its
    unstable step after the training and its augmentation, before any
    hybrid step, naming the dt line."""
    cfg = parse_config("kind = hybrid\nvelocity_set = D1Q3\nlifter = nce\n"
                       "pde_source = extracted\nomega = 1.99\ndt = 1e-3\n"
                       "advection = 5\nsteps = 3\n")
    before = lbm_step_count()
    with pytest.raises(ValueError, match=(
            r"^config line 6: dt = 0.001: unstable PDE step, squared Courant "
            r"numbers sum to 0.01, above 2 nu = 0.00331")):
        if build == "hybrid_spec":
            bench.hybrid_spec(cfg)
        else:
            bench.hybrid_pde(cfg, bench.experiment_params(cfg))
    # one training of 2(m + 1) steps and the two-step augmentation
    assert lbm_step_count() - before == 2 * 2 + 2


@pytest.mark.parametrize("split", [0, 15, 500, -1])
def test_parse_config_names_the_line_of_a_split_index_out_of_range(split):
    """A split index that leaves either subdomain empty is refused as it
    is read, by HybridSpec's rule and naming its line, in the kinds that
    run a hybrid, where it failed only when the run built the hybrid; the
    kinds that split nothing take it, and 1 and cells - 2 pass."""
    for kind in ("hybrid", "cost_table"):
        head = f"kind = {kind}\ncells = 16\n"
        with pytest.raises(ValueError, match=(
                rf"^config line 3: split_index = {split}: split index "
                rf"{split} leaves an empty subdomain on a 16-cell grid$")):
            parse_config(head + f"split_index = {split}\n")
        for fine in (1, 14):
            assert parse_config(
                head + f"split_index = {fine}\n").split_index == fine
    assert parse_config(f"kind = lift_bench\ncells = 16\n"
                        f"split_index = {split}\n").split_index == split


@pytest.mark.parametrize("text, named", [
    ("kind = hybrid\nlifter = equilibrium\ncells = 100000000000000000000\n",
     r"config line 3: cells = 100000000000000000000: "
     r"100000000000000000000\^1 grid cells"),
    ("kind = hybrid\nvelocity_set = D2Q9\ncells = 100000\n",
     r"config line 3: cells = 100000: 100000\^2 grid cells"),
    ("kind = lift_bench\nvelocity_set = D2Q5\nlength = 3\ncells = 2001\n",
     r"config line 4: cells = 2001: 2001\^2 grid cells"),
], ids=["hybrid-1d", "hybrid-2d", "lift-bench-2d"])
def test_a_grid_over_the_bound_is_refused_on_the_cells_line(
        tmp_path, text, named):
    """A config of a kind that builds its grid, any kind but train_only,
    whose grid, cells ** dimension, exceeds
    MAX_GRID_CELLS is refused naming its cells line before any array of
    the run is allocated (numpy's own refusal, "Maximum allowed size
    exceeded", named no key, and D2Q9 at 100,000 cells asked for 74.5
    GiB).  The bound is inclusive: 4,000,000 cells in 1D and 2000 a side
    in 2D parse."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^{named}, over 4000000$"):
            run_experiment(parse_config(text), tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    assert list(tmp_path.iterdir()) == []
    assert bench.MAX_GRID_CELLS == 4 * 10 ** 6
    for velocity_set, cells in (("D1Q3", 4 * 10 ** 6), ("D2Q9", 2000)):
        assert parse_config(f"kind = hybrid\nvelocity_set = {velocity_set}"
                            f"\nlifter = equilibrium\ncells = {cells}\n"
                            ).cells == cells


def test_a_training_config_over_the_grid_bound_trains_through_the_cli(
        tmp_path, capsys):
    """A train_only config builds only the training grid of its lattice
    twin, so its cells are not held to MAX_GRID_CELLS: D2Q9 at 6000 cells
    a side, 3.6e7 grid cells, trains through `lblift train`, where it was
    refused on its cells line.  Without advection its twin runs the
    dynamics of the canonical model: the same probe system."""
    config = tmp_path / "fine.cfg"
    config.write_text("velocity_set = D2Q9\nlength = 3\ncells = 6000\n"
                      "order = 6\n")
    assert main(["train", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    with open(tmp_path / "out" / "train_summary.csv") as summary:
        row = dict(zip(*(line.rstrip("\n").split(",") for line in summary)))
    assert float(row["dx"]) == 3 / 6000
    assert float(row["residual"]) < 1e-9
    canonical = bench.experiment_params(ExperimentConfig(
        kind="train_only", velocity_set="D2Q9"))
    assert float(row["condition"]) == train_coefficients(
        NceTrainConfig(spatial_order=6, m=1), canonical).condition


# configs whose run failed naming no line, each refused as it is read:
# (subcommand, config text, the line named)
REFUSED_ON_A_LINE = [
    ("lift-bench", "lifter = analytic\norder = 4\n", 2),
    ("lift-bench", "advection = 0.5\n", 1),
    ("hybrid", "velocity_set = D2Q9\ncells = 40\nsteps = 2\n", 1),
    ("cost", "velocity_set = D2Q5\ncells = 20\nsteps = 2\n", 1),
    ("lift-bench", "lifter = analytic\nomega = 1e-300\n", 2),
    ("hybrid", "lifter = nce\nadvection = 1e300\n", 2),
    ("hybrid", "lifter = equilibrium\ndt = 1e-300\n", 2),
    ("hybrid", "lifter = nce\npde_source = extracted\norder = 1\n"
     "steps = 2\n", 3),
    ("train", "lifter = nce\nlength = 1e300\n", 2),
]


@pytest.mark.parametrize("command, text, line", REFUSED_ON_A_LINE, ids=[
    "analytic-order-4", "analytic-advective", "analytic-d2q9",
    "analytic-d2q5", "analytic-tiny-omega", "pde-huge-advection",
    "pde-tiny-dt", "extracted-order-1", "train-huge-length"])
def test_a_config_whose_run_failed_is_refused_on_its_line(
        tmp_path, capsys, command, text, line):
    """Each config is refused through the CLI with exit 1 and a message
    that names the line at fault, before any LBM step: the configured
    lifter is built as the config is read (an analytic lifter of order
    4, with advection, on a 2D set or at omega = 1e-300), an analytic
    PDE whose diffusion overflows is refused, an extracted PDE needs
    order 2, and training scales by (dx/0.05)^order, which overflows at
    length = 1e300.  Each once exited 1 naming no line."""
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    before = lbm_step_count()
    assert main([command, "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 1
    assert lbm_step_count() == before
    assert capsys.readouterr().err.startswith(f"error: config line {line}: ")
    assert not (tmp_path / "out").exists()


def test_parse_config_kind_from_command():
    cfg = parse_config("velocity_set = D1Q3\n", kind="train_only")
    assert cfg.kind == "train_only"
    with pytest.raises(ValueError, match="requires"):
        parse_config("kind = hybrid\n", kind="train_only")


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="hybrid", lifter="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="hybrid", pde_source="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="hybrid", velocity_set="D9Q9")
    with pytest.raises(ValueError, match="reference_steps = -5"):
        ExperimentConfig(kind="lift_bench", reference_steps=-5)
    with pytest.raises(ValueError, match="^length = inf: inf is not finite "
                       "and positive$"):
        ExperimentConfig(kind="train_only", length=float("inf"))
    with pytest.raises(ValueError, match="reference_steps = -1"):
        parse_config("kind = lift_bench\nreference_steps = -1\n")
    assert ExperimentConfig(kind="lift_bench",
                            reference_steps=0).reference_steps == 0


def test_cr_lift_bench_on_a_two_d_set(tmp_path):
    """lifter = cr runs on D2Q9 from a config file: one settling run, one
    kernel probe of m+1 steps (32x32 holds the 9 windows of 2m+3 cells)
    and one closing run of m+1, and a lift
    error far below the equilibrium lift's."""
    text = ("kind = lift_bench\nvelocity_set = D2Q9\ncells = 32\n"
            "m = 2\nreference_steps = 300\n")
    errors = {}
    for lifter in ("cr", "equilibrium"):
        cfg = parse_config(text + f"lifter = {lifter}\n")
        before = lbm_step_count()
        run_experiment(cfg, tmp_path / lifter)
        lift_steps = lbm_step_count() - before - cfg.reference_steps
        assert lift_steps == (2 * 3 if lifter == "cr" else 0)
        header, row = (tmp_path / lifter / "lift_bench.csv").read_text() \
            .splitlines()
        errors[lifter] = float(row.split(",")[-1])
    assert row.startswith("equilibrium,D2Q9,")
    assert errors["cr"] < 1e-4 * errors["equilibrium"], errors


def test_defaults_match_benchmark_models():
    for name, dt in (("D1Q3", 1e-3), ("D2Q5", 1e-4), ("D2Q9", 1e-5)):
        cfg = ExperimentConfig(kind="lift_bench", velocity_set=name,
                               lifter="equilibrium")
        p = bench.experiment_params(cfg)
        assert p.dt == dt
        assert p.dx == 0.05
        assert_allclose(bench.analytic_pde(p).diffusion, 1.0, rtol=1e-14)


def test_lift_error_of_exact_copy_is_zero(monkeypatch):
    """A lifter that returns the reference itself scores exactly 0."""
    cfg = ExperimentConfig(kind="lift_bench", velocity_set="D1Q3")
    params = bench.experiment_params(cfg)
    f_ref = bench.reference_state(params, bench.initial_density(cfg),
                                  cfg.reference_steps)

    class Cheat:
        name = "cheat"
        def lift(self, rho, p):
            return f_ref

    monkeypatch.setattr(bench, "make_lifter", lambda c, p: (Cheat(), 0))
    assert lift_restrict_error(cfg) == 0.0


def test_trained_quadratic_lift_error():
    # settled-state benchmark, R=4 with quadratic smoothing
    cfg = ExperimentConfig(kind="lift_bench", lifter="nce", order=4, m=2)
    err = lift_restrict_error(cfg)
    assert abs(err - 4.1047e-8) / 4.1047e-8 < 0.1


def test_cost_nce_is_one_time():
    counter = cost_summary(ExperimentConfig(kind="cost_table", lifter="nce",
                                            order=2, m=1, steps=40))
    assert counter.lbm_steps_training > 0
    assert counter.lbm_steps_lifting == 0
    assert counter.steps_per_lift == 0.0
    assert counter.lifts_performed == 41  # init plus one per step


def test_cost_cr_charges_every_step():
    counter = cost_summary(ExperimentConfig(kind="cost_table", lifter="cr",
                                            m=0, steps=40))
    assert counter.lbm_steps_training == 0
    assert counter.lifts_performed == 41
    assert counter.lbm_steps_lifting >= counter.lifts_performed


def test_cost_separation_in_run_length():
    """NCE total extra steps is flat in T; CR grows with T."""
    nce = [cost_summary(ExperimentConfig(kind="cost_table", lifter="nce",
                                         order=2, m=1, steps=s))
           for s in (20, 40)]
    assert nce[0].total_extra_steps == nce[1].total_extra_steps
    cr = [cost_summary(ExperimentConfig(kind="cost_table", lifter="cr",
                                        m=0, steps=s))
          for s in (20, 40)]
    assert cr[1].total_extra_steps > cr[0].total_extra_steps


def test_run_experiment_artifacts(tmp_path):
    cfg = ExperimentConfig(kind="hybrid", lifter="analytic", order=2,
                           steps=10)
    paths = run_experiment(cfg, tmp_path)
    names = {p.name for p in paths}
    assert names == {"hybrid_summary.csv", "hybrid_error_field.csv"}
    summary = (tmp_path / "hybrid_summary.csv").read_text().splitlines()
    assert summary[0] == "step,max_error,l2_error"
    assert len(summary) == 11
    field = (tmp_path / "hybrid_error_field.csv").read_text().splitlines()
    assert field[0] == "step,index,abs_error"
    assert len(field) == 1 + 10 * 200


def test_run_experiment_2d_field_keeps_final_step(tmp_path):
    cfg = ExperimentConfig(kind="hybrid", velocity_set="D2Q5", cells=24,
                           lifter="equilibrium", steps=4)
    run_experiment(cfg, tmp_path)
    field = (tmp_path / "hybrid_error_field.csv").read_text().splitlines()
    assert field[0] == "step,ix,iy,abs_error"
    assert len(field) == 1 + 24 * 24
    assert all(line.startswith("4,") for line in field[1:])


def test_a_2d_hybrid_run_holds_no_per_step_error_fields(tmp_path):
    """A 2D hybrid experiment, which writes its final error field alone,
    peaks below the size of a per-step history of 200 fields of 40 x 40;
    the field it writes is the last of that history."""
    cfg = ExperimentConfig(kind="hybrid", velocity_set="D2Q9", cells=40,
                           lifter="equilibrium", steps=200)
    history = cfg.steps * cfg.cells ** 2 * 8
    tracemalloc.start()
    try:
        run_experiment(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < history, (peak, history)
    lines = (tmp_path / "hybrid_error_field.csv").read_text().splitlines()
    written = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
    fields = compare_to_reference(bench.hybrid_spec(cfg), cfg.steps,
                                  keep_fields=True).error_fields
    assert np.array_equal(np.reshape(written, fields.shape[1:]), fields[-1])


def test_csv_floats_roundtrip(tmp_path):
    cfg = ExperimentConfig(kind="lift_bench", lifter="analytic", order=2)
    run_experiment(cfg, tmp_path)
    header, row = (tmp_path / "lift_bench.csv").read_text().splitlines()
    err = float(row.split(",")[-1])
    assert err == lift_restrict_error(cfg)


def test_lift_bench_trains_once(tmp_path):
    cfg = ExperimentConfig(kind="lift_bench", lifter="nce", order=4, m=1)
    before = lbm_step_count()
    run_experiment(cfg, tmp_path)
    # the settling run plus one training of 2(m + 1) steps
    assert lbm_step_count() - before == cfg.reference_steps + (1 + 1) * 2


def test_hybrid_spec_with_extracted_pde_trains_once():
    cfg = ExperimentConfig(kind="hybrid", lifter="nce", order=6, m=2,
                           pde_source="extracted")
    before = lbm_step_count()
    bench.hybrid_spec(cfg)
    # one training of 2(m + 1) steps plus the two-step
    # augmentation
    assert lbm_step_count() - before == (1 + 1) * 3 + 2


def test_determinism_byte_identical(tmp_path):
    configs = [
        ExperimentConfig(kind="lift_bench", lifter="cr", m=1),
        ExperimentConfig(kind="train_only", lifter="nce", order=2, m=1),
        ExperimentConfig(kind="hybrid", lifter="analytic", steps=15),
        ExperimentConfig(kind="cost_table", lifter="cr", m=0, steps=15),
    ]
    for k, cfg in enumerate(configs):
        a, b = tmp_path / f"a{k}", tmp_path / f"b{k}"
        paths_a = run_experiment(cfg, a)
        paths_b = run_experiment(cfg, b)
        assert [p.name for p in paths_a] == [p.name for p in paths_b]
        for pa, pb in zip(paths_a, paths_b):
            assert pa.read_bytes() == pb.read_bytes()


def test_cli_roundtrip(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("lifter = analytic\norder = 2\n")
    out_dir = tmp_path / "out"
    code = main(["lift-bench", "--config", str(cfg_file),
                 "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 0
    assert "lift_bench.csv" in captured.out
    assert (out_dir / "lift_bench.csv").exists()


def test_cli_reports_errors(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "missing.cfg")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate = 3\n")
    code = main(["train", "--config", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "line 1" in captured.err
    mismatched = tmp_path / "mismatch.cfg"
    mismatched.write_text("kind = hybrid\n")
    code = main(["cost", "--config", str(mismatched)])
    captured = capsys.readouterr()
    assert code == 1
    assert "cost_table" in captured.err


def test_cli_has_all_subcommands():
    from lblift.cli import build_parser
    parser = build_parser()
    subs = parser._subparsers._group_actions[0].choices
    assert set(subs) == {"train", "lift-bench", "hybrid", "cost"}


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "demos"
                  / "configs").glob("*.cfg"))
ARTIFACTS = {"lift_bench": ["lift_bench.csv"],
             "train_only": ["coefficients.txt", "train_summary.csv"],
             "hybrid": ["hybrid_error_field.csv", "hybrid_summary.csv"],
             "cost_table": ["cost.csv"]}


@pytest.mark.parametrize("cfg_file", CONFIGS, ids=lambda path: path.stem)
def test_shipped_configs_run_through_the_cli(cfg_file, tmp_path, capsys):
    """Every config in demos/configs runs with the subcommand of its kind
    and writes the artifacts of that kind, and nothing else."""
    kind = parse_config(cfg_file.read_text()).kind
    command = {k: c for c, (k, _) in _COMMANDS.items()}[kind]
    assert main([command, "--config", str(cfg_file),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(path.name for path in tmp_path.iterdir()) == ARTIFACTS[kind]


# Config text off the beaten path: each key left out, or stated with a
# value a run would take or, for up to two keys, with an edge value: for
# a number 0, negatives, huge, tiny, non-integral, fractions or overflow
# literals, for a word one that no rule knows.
EDGE_NUMBERS = st.sampled_from([
    "0", "-0", "0.0",                                  # zero
    "-1", "-3", "-0.5", "-1e-3", "-200",               # negatives
    "100001", "1e18", "1e300", "100000000000000000000",  # huge
    "5e-324", "1e-300", "1e-12", "1e-6",               # tiny
    "0.5", "2.5", "1.99", "0.3",                       # non-integral
    "10/11", "125/64", "1/1000", "7/3", "1/0",         # fractions
    "1e400", "-1e400", "1" + "0" * 400,                # overflow literals
])
PLAIN_VALUES = {
    "velocity_set": sorted(bench.VELOCITY_SETS),
    "length": ["3", "10", "7.7"],
    "cells": ["4", "16", "60", "64", "200"],
    "dt": ["1e-3", "1e-4", "1e-5"],
    "omega": ["1", "10/11", "50/31", "125/64"],
    "advection": ["0", "0.66", "1, 0.5", "0, 0"],
    "lifter": list(bench.LIFTERS),
    "order": ["1", "2", "4", "6"],
    "m": ["0", "1", "2", "3"],
    "steps": ["1", "3"],
    "reference_steps": ["0", "5"],
    "split_index": ["1", "7"],
    "pde_source": ["analytic", "extracted"],
    "extract_mode": ["summation", "nullspace"],
}
WORDS = ("velocity_set", "lifter", "pde_source", "extract_mode")
KEYS = [key.name for key in fields(ExperimentConfig) if key.init]


def edge_values(key):
    if key in WORDS:
        return st.just("bogus")
    if key == "advection":
        return st.lists(EDGE_NUMBERS, min_size=1, max_size=2).map(", ".join)
    return EDGE_NUMBERS


@st.composite
def config_texts(draw, kind):
    """The text of a config of kind: every other key drawn."""
    edges = draw(st.sets(st.sampled_from(KEYS[1:]), max_size=2))
    lines = [f"kind = {kind}"]
    for key in KEYS[1:]:
        value = draw(edge_values(key) if key in edges else st.one_of(
            st.none(), st.sampled_from(PLAIN_VALUES[key])))
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", bench.KINDS)
def test_config_text_is_refused_on_a_line_or_builds(kind):
    """Each config text either is refused with a ValueError that names
    one of its lines, every one of which states a key, or gives a config whose pieces all
    build: the model on a grid within MAX_GRID_CELLS, the training
    settings when the config trains, the split
    of a hybrid run with a stable analytic PDE step, and the configured
    lifter when building it trains nothing.
    Nothing here runs an experiment, and nothing field-sized is
    allocated, huge grids included."""

    @settings(derandomize=True, max_examples=40, deadline=None,
              database=None)
    @given(config_texts(kind))
    # a 2D grid of 10^10 cells, which parsed in every kind that did not
    # train and whose run asked for 74.5 GiB: refused on its cells line
    @example(f"kind = {kind}\nvelocity_set = D2Q9\ncells = 100000\n")
    # the closed forms of the default analytic lifter, D1Q3 only, which
    # parsed on D2Q9 and failed in the run naming no line
    @example(f"kind = {kind}\nvelocity_set = D2Q9\n")
    def check(text):
        lines = text.splitlines()
        tracemalloc.start()
        try:
            try:
                config = parse_config(text)
            except ValueError as refused:
                named = re.match(r"config line (\d+): ", str(refused))
                assert named, str(refused)
                assert int(named[1]) <= len(lines), str(refused)
                return
            params = bench.experiment_params(config)
            assert kind == "train_only" or config.cells \
                ** params.vset.dimension <= bench.MAX_GRID_CELLS, text
            if (kind == "train_only" or config.lifter == "nce"
                    or (kind == "hybrid" and config.pde_source == "extracted")):
                bench.train_config(config)
            if kind in ("hybrid", "cost_table"):
                split = config.split_index
                checked_split(config.cells, default_split(config.cells)
                              if split is None else split)
                if kind == "cost_table" or config.pde_source == "analytic":
                    pde = bench.analytic_pde(params)
                    assert not stability_breaches(pde, params.dx, params.dt)
            if config.lifter != "nce" and kind != "train_only":
                bench.make_lifter(config, params)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 1e6, (peak, text)

    check()


def test_the_readme_lists_every_config_key_in_declaration_order():
    """The Config keys table of the README names exactly the init fields
    of ExperimentConfig, the one declaration of the keys, in order."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n### Config keys\n", 1)[1].split("\n#", 1)[0]
    assert re.findall(r"^\| `(\w+)` \|", section, flags=re.M) == KEYS
