"""What each lifting route costs in extra LBM steps.

Trained coefficients pay a one-time training bill on a tiny test grid
and lift for free afterwards.  Constrained runs pay per application:
every lift burns m+1 LBM steps on its closing constrained run, which
checks the fixed point.  The first lift pays m+1 more for one probe
run of q unit impulses, one per velocity, 2(m+1)+1 cells apart (the map
is linear and shift-invariant, so the impulse responses give its whole
transfer kernel); the lifter keeps that kernel for later lifts on the
same grid shape.  The table meters both in a 200-step 1D hybrid run (the
LBM half's own updates are the model, not overhead, and are excluded).
"""

from lblift import ExperimentConfig, cost_summary


def main():
    rows = [ExperimentConfig(kind="cost_table", lifter="nce", order=2, m=1,
                             steps=200)]
    for m in range(4):
        rows.append(ExperimentConfig(kind="cost_table", lifter="cr", m=m,
                                     steps=200))
    print(f"  {'lifter':>12s} {'training':>9s} {'lifting':>9s} "
          f"{'lifts':>6s} {'per lift':>9s} {'total':>8s}")
    for config in rows:
        c = cost_summary(config)
        print(f"  {c.lifter:>12s} {c.lbm_steps_training:>9d} "
              f"{c.lbm_steps_lifting:>9d} {c.lifts_performed:>6d} "
              f"{c.steps_per_lift:>9.1f} {c.total_extra_steps:>8d}")
    print("\ntotal extra steps order: trained < CR m=0 < m=1 < m=2 < m=3")


if __name__ == "__main__":
    main()
