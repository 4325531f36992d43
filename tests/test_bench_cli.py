import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lblift.bench as bench
from lblift import ExperimentConfig, cost_summary, lbm_step_count, \
    lift_restrict_error, parse_config, run_experiment
from lblift.cli import _COMMAND_KIND, main


def test_parse_config_happy_path():
    cfg = parse_config("""
# comment line
kind = hybrid
velocity_set = D2Q9   # trailing comment
omega = 125/64        # fractions are read exactly
advection = 1, 0.5
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
    with pytest.raises(ValueError, match=r"^config line 1: unknown lifter"):
        parse_config("lifter = magic\n", kind="hybrid")
    # dt and omega follow the rules of LbmParams, refused as they are read
    with pytest.raises(ValueError, match=r"^config line 2: cannot parse "
                                         r"dt = '0' \(0.0 is not finite"):
        parse_config("kind = hybrid\ndt = 0\n")
    with pytest.raises(ValueError, match=r"^config line 3: cannot parse "
                                         r"omega = '3' \(omega 3.0 outside"):
        parse_config("kind = hybrid\n\nomega = 3  # unstable\n")


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
    1/dx^6: length = 1e-60 passes at order 2 and is refused at 6, and a
    trained lifter refuses it first for its training grid of 6e+62 cells.
    The canonical 10-unit box of 200 cells parses at every order."""
    head = f"kind = hybrid\nlifter = {lifter}\n"
    with pytest.raises(ValueError, match=(
            r"^config line 3: length = 1e-300, cells = 200: 1/dx\^2 is not "
            r"finite, dx = 5e-303$")):
        parse_config(head + "length = 1e-300\n")
    if lifter == "nce":
        with pytest.raises(ValueError, match=r"^config line 3: length = "
                           r"1e-60, cells = 200: 6e\+62 training cells, "
                           r"over 100000$"):
            parse_config(head + "length = 1e-60\n")
    else:
        assert parse_config(head + "length = 1e-60\n").length == 1e-60
    with pytest.raises(ValueError, match=r"^config line 4: .* 1/dx\^6 is not"):
        parse_config(head + "order = 6\nlength = 1e-60\n")
    for order in range(1, 7):
        cfg = parse_config(head + f"order = {order}\nlength = 10\n")
        assert (cfg.length, cfg.cells, cfg.order) == (10.0, 200, order)


# the three ways a config trains, after its kind and lifter line
TRAINING_HEADS = ("kind = train_only\nlifter = analytic\n",
                  "kind = hybrid\nlifter = nce\n",
                  "kind = hybrid\npde_source = extracted\n")


@pytest.mark.parametrize("velocity_set,cells,test_cells", [
    ("D1Q3", 4, 1), ("D2Q9", 8, 2)])
def test_parse_config_names_the_line_of_too_few_training_cells(
        tmp_path, velocity_set, cells, test_cells):
    """A config that trains on a grid whose dx leaves too few cells on the
    3-unit training grid is refused as it is read, naming the cells line,
    the training cells, the 4(m+3) the edge margins need and the fewest
    cells that train at this length and m; those train, one fewer does
    not.  A config that does not train takes the grid."""
    for head in TRAINING_HEADS:
        text = head + f"velocity_set = {velocity_set}\ncells = {cells}\n"
        with pytest.raises(ValueError, match=(
                rf"^config line 4: cells = {cells}: test_cells = "
                rf"{test_cells}: the edge margins need at least 4\(m\+3\) = "
                r"16 training cells; the fewest cells that train at length "
                r"= 10.0 and m = 1: 60$")):
            parse_config(text)
    text = f"kind = train_only\nvelocity_set = {velocity_set}\n"
    run_experiment(parse_config(text + "cells = 60\n"), tmp_path)
    with pytest.raises(ValueError, match=r"^config line 3: cells = 59: "
                       r"17.7 training cells, not a whole number"):
        parse_config(text + "cells = 59\n")
    assert parse_config(f"kind = hybrid\ncells = {cells}\n").cells == cells
    assert bench.fewest_training_cells(7.7, 3) == 77


def test_parse_config_names_the_line_of_a_training_grid_off_the_dx():
    """A config that trains at a dx that leaves no whole number of cells on
    the 3-unit training grid is refused as it is read, naming the cells
    line (before, training refused it with no line); a length that no
    grid within MAX_TEST_CELLS training cells fits says so."""
    for head in TRAINING_HEADS:
        with pytest.raises(ValueError, match=(
                r"^config line 3: cells = 201: 60.3 training cells, not a "
                r"whole number; the fewest cells that train at length = "
                r"10.0 and m = 1: 60$")):
            parse_config(head + "cells = 201\n")
    with pytest.raises(ValueError, match=(
            r"^config line 3: cells = 200: 190.986 training cells, not a "
            r"whole number; the fewest cells that train at length = "
            r"3.14159 and m = 1: none$")):
        parse_config("kind = train_only\nlength = 3.14159\ncells = 200\n")
    assert parse_config("kind = hybrid\ncells = 201\n").cells == 201


def test_parse_config_names_the_line_of_a_training_order_out_of_range():
    """order = 9 in a config that trains is refused as it is read, naming
    its line; a config that does not train is not refused here."""
    for head in TRAINING_HEADS:
        with pytest.raises(ValueError, match=r"^config line 4: order = 9: "
                           r"spatial_order 9 outside 1..6$"):
            parse_config(head + "# too high\norder = 9\n")
    assert parse_config("kind = lift_bench\norder = 9\n").order == 9


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
    assert parse_config(head + "advection = 0.66\n").advection == (0.66,)


def test_an_unstable_extracted_pde_is_refused_after_training():
    """An extracted PDE is known only once trained: hybrid_spec refuses
    its unstable step after the training and its augmentation, before any
    hybrid step, naming the dt line."""
    cfg = parse_config("kind = hybrid\nvelocity_set = D1Q3\nlifter = nce\n"
                       "pde_source = extracted\nomega = 1.99\ndt = 1e-3\n"
                       "advection = 5\nsteps = 3\n")
    before = lbm_step_count()
    with pytest.raises(ValueError, match=(
            r"^config line 6: dt = 0.001: unstable PDE step, squared Courant "
            r"numbers sum to 0.01")):
        bench.hybrid_spec(cfg)
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
    ("kind = hybrid\nlifter = nce\nlength = 0.001\n",
     r"config line 3: length = 0.001, cells = 200: 600000 training cells"),
    ("kind = hybrid\nlifter = nce\nlength = 0.001\ncells = 64\n",
     r"config line 3: length = 0.001, cells = 64: 192000 training cells"),
    ("kind = train_only\ncells = 100000000000000000000\n",
     r"config line 2: length = 10.0, cells = 100000000000000000000: "
     r"3e\+19 training cells"),
    # the smallest dx whose 1/dx^2 stays finite is far below any limit
    ("kind = hybrid\nlifter = nce\nlength = 1e-150\n",
     r"config line 3: length = 1e-150, cells = 200: 6e\+152 training cells"),
], ids=["hybrid-tiny-length", "hybrid-tiny-length-64", "train-huge-cells",
        "hybrid-huge-cells"])
def test_an_oversized_training_grid_is_refused_before_allocating(
        tmp_path, text, named):
    """A config whose dx would give the 3-unit training grid more than
    MAX_TEST_CELLS cells a side is refused naming the config line of
    length (of cells, when the config states no length), length, cells
    and the training cells implied, before any array of the run is
    allocated (numpy's own refusal, "Maximum allowed size exceeded",
    named no key)."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^{named}, over 100000$"):
            run_experiment(parse_config(text), tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    assert list(tmp_path.iterdir()) == []


def test_the_training_grid_limit_is_inclusive():
    """MAX_TEST_CELLS training cells a side pass train_config, one more
    does not."""
    assert bench.MAX_TEST_CELLS == 100000
    cfg = ExperimentConfig(kind="train_only", length=3.0, cells=100000)
    assert bench.train_config(cfg).test_cells == 100000
    with pytest.raises(ValueError, match="100001 training cells, over"):
        bench.train_config(ExperimentConfig(kind="train_only", length=3.0,
                                            cells=100001))


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
    with pytest.raises(ValueError, match="^length = inf: must be positive "
                       "and finite$"):
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
        cfg = ExperimentConfig(kind="lift_bench", velocity_set=name)
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
    command = {k: c for c, k in _COMMAND_KIND.items()}[kind]
    assert main([command, "--config", str(cfg_file),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(path.name for path in tmp_path.iterdir()) == ARTIFACTS[kind]
