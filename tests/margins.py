"""Gate margins on the gated seeds and on seeds the gate never sees.

Prints, for the gated seeds 0-4 and the fixed unseen seeds 5-14:

- criteria 4/5: the per-seed paired RMSE difference dil - gp of fit_eval on
  synthetic_1d and synthetic_2d at the calibrated settings, the count of
  seeds where dil is lower, and the mean and sample sd of the differences;
- criterion 7: the quadratic BO hits (incumbent within 0.05 of the optimum)
  and the largest cum_regret / regret_bound over every step;
- criterion 8: per trajectory, the strict wins, exact ties and losses of
  dil_gp's held-out ACE against gp_gaussian's, and each pair's first BO
  step whose queries differ, as experiments.compare_tuners reports them.

It checks nothing and gates nothing: it is the report that a change which
moves bits quotes before and after. Each per-seed number is printed with
all its digits, so two trees print the same text exactly when they agree
bit for bit. pytest does not collect it. Serial, it takes about 45 s:

    PYTHONPATH=src python tests/margins.py
"""

import statistics
from functools import partial

from dilgp.bo import bo_run
from dilgp.data import GENERATORS
from dilgp.experiments import (QUADRATIC_OPTIMUM, QUADRATIC_SPACE, compare_tuners, fit_eval,
                               quadratic_objective, settings_for)
from dilgp.quad import TrajectoryKind
from dilgp.train import ModelSpec

GATED = tuple(range(5))
UNSEEN = tuple(range(5, 15))

# criterion 7's surrogate and loop
BO_QUAD_SPEC = ModelSpec(model="dil_gp", sigma2=0.1, t1=30, t2=5, eta1=0.1, eta2=0.005, lam=0.01)


def _spread(values) -> str:
    return f"mean {statistics.fmean(values):+.4f} (sd {statistics.stdev(values):.3f})"


def shift_margins(dataset: str) -> dict[int, float]:
    """dil - gp held-out RMSE per seed (criteria 4/5)."""
    diffs = {}
    for seed in GATED + UNSEEN:
        rmse = {model: fit_eval(*GENERATORS[dataset](seed), settings_for(dataset, model),
                                seed=seed)[0].rmse
                for model in ("dil_gp", "gp_gaussian")}
        diffs[seed] = rmse["dil_gp"] - rmse["gp_gaussian"]
    return diffs


def bo_margins(seed: int) -> tuple[bool, float]:
    """(hit, largest cum_regret / regret_bound) of criterion 7's run."""
    state, steps = bo_run(quadratic_objective, QUADRATIC_SPACE, BO_QUAD_SPEC, "ucb",
                          t_bo=30, n_init=5, seed=seed, f_star=0.0)
    hit = abs(float(state.incumbent_x[0]) - QUADRATIC_OPTIMUM) <= 0.05
    return hit, max(rec["cum_regret"] / rec["regret_bound"] for rec in steps)


def _counts(outcomes) -> str:
    outcomes = list(outcomes)
    return "/".join(str(outcomes.count(o)) for o in ("win", "tie", "loss"))


def main() -> None:
    p = partial(print, flush=True)
    for criterion, dataset in ((4, "synthetic_1d"), (5, "synthetic_2d")):
        diffs = shift_margins(dataset)
        p(f"criterion {criterion} ({dataset}), rmse dil - gp per seed:")
        for seed, diff in diffs.items():
            p(f"  seed {seed:2d}: {diff!r}")
        for name, seeds in (("gated 0-4", GATED), ("unseen 5-14", UNSEEN),
                            ("all 0-14", GATED + UNSEEN)):
            vals = [diffs[s] for s in seeds]
            p(f"  {name}: dil lower on {sum(v < 0 for v in vals)}/{len(vals)}, {_spread(vals)}")

    runs = {seed: bo_margins(seed) for seed in GATED + UNSEEN}
    p("criterion 7 (quadratic BO), hit and max cum_regret / regret_bound per seed:")
    for seed, (hit, ratio) in runs.items():
        p(f"  seed {seed:2d}: {'hit ' if hit else 'miss'} {ratio!r}")
    for name, seeds in (("gated 0-4", GATED), ("unseen 5-14", UNSEEN)):
        p(f"  {name}: hits {sum(runs[s][0] for s in seeds)}/{len(seeds)}, "
          f"largest ratio {max(runs[s][1] for s in seeds)!r}")

    p("criterion 8 (PID held-out ACE), dil vs gp per trajectory and seed:")
    pairs = {(kind, row["seed"]): (row["outcome"], row["first_divergent_step"],
                                   row["dil_heldout"], row["gp_heldout"])
             for kind in TrajectoryKind for row in compare_tuners(kind, GATED + UNSEEN)["rows"]}
    for (kind, seed), (outcome, step, d, g) in pairs.items():
        p(f"  {kind.value:11s} seed {seed:2d}: {outcome:4s} first divergent step {step}, "
          f"dil {d!r} gp {g!r}")
    for name, seeds in (("gated 0-4", GATED), ("unseen 5-14", UNSEEN)):
        p(f"  {name}, strict wins/ties/losses:")
        for kind in TrajectoryKind:
            outs = [pairs[kind, s][0] for s in seeds]
            p(f"    {kind.value:11s} {_counts(outs)}, dil <= gp on "
              f"{sum(o != 'loss' for o in outs)}/{len(seeds)}")
        outs = [pairs[k, s][0] for k in TrajectoryKind for s in seeds]
        steps = [pairs[k, s][1] for k in TrajectoryKind for s in seeds]
        known = [s for s in steps if s is not None]
        p(f"    all rows {_counts(outs)}; first divergent step median "
          f"{statistics.median(known)}, range {min(known)}-{max(known)}, "
          f"never {len(steps) - len(known)}")


if __name__ == "__main__":
    main()
