"""One-command reproduction of the self-play experiments and certifications.

Each experiment writes, under its output directory:

* ``summary.json`` with the analytically-solved reference equilibrium (from
  the solvers, never hand-entered), per-seed run statistics, and aggregate
  checks;
* per-seed trajectory CSVs for the learning experiments;
* a gnuplot-ready ``plot_player<i>.dat`` / ``plot.gp`` pair for the first
  seed, drawing policy probabilities against iterations with horizontal
  reference lines at the equilibrium probabilities;
* ``sweep.csv`` for the nonexistence sweep.

Learning experiments run ``n_seeds`` consecutive seeds starting at the base
seed; outputs are deterministic given (name, seed, iterations) and merge by
seed order even when runs execute in parallel workers.

The restricted Colonel Blotto hull encodes a row player that deliberately
allots two regiments while the other two land independently uniformly at
random: the extra pair adds (2,0)/(1,1)/(0,2) with probabilities
(1/4, 1/2, 1/4), so each deliberate base split convolves into a generator
over the five full allotments.  Under this reading the restricted game's
minimax value is exactly 0.  ``blotto_interpretation_oracle`` also solves
the uniform-over-splits reading (extra split drawn from (1/3, 1/3, 1/3)),
and its value is 0 as well, up to the rounding of 1/3, so the recorded
``interpretation_oracle`` values do not tell the two readings apart: the
hull follows the independent-uniform reading by choice, not because the
cross-check rules the other one out.
"""

from __future__ import annotations

import concurrent.futures
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .games import (
    JointPolicy,
    MalformedInputError,
    Policy,
    StochasticGame,
    bach_stravinsky,
    blotto_4_3,
    fact5_game,
    game_to_dict,
    joint_policy_to_list,
    rps,
)
from .learners import PlayerSpec, TrajectoryLog, self_play
from .restrictions import ConvexHullGlobal, FullSpace, StateUniform
from .solvers import (
    best_response_convexity_test,
    certificate_to_dict,
    check_equilibrium,
    enumerate_deterministic,
    minimax_zero_sum_matrix,
    restricted_equilibrium_via_implicit,
    support_enumeration_bimatrix,
    sweep_existence,
    sweep_to_csv,
)
from .values import induce_mdp, mdp_policy_value

logger = logging.getLogger("sgl.experiments")

EXPERIMENT_NAMES = (
    "rps",
    "rps-restricted",
    "blotto",
    "blotto-restricted",
    "fact1",
    "fact5",
    "bos-equilibria",
)

FACT5_SWEEP_RESOLUTION = 0.005


@dataclass(frozen=True)
class ReproductionSpec:
    """Which experiment to run, from which base seed, for how long, and where."""

    name: str
    seed: int = 0
    iterations: int = 1_000_000
    outdir: Path = Path("out")
    n_seeds: int = 10
    workers: int = 1

    def __post_init__(self) -> None:
        if self.name not in EXPERIMENT_NAMES:
            raise MalformedInputError(
                f"unknown experiment {self.name!r}; choose from {EXPERIMENT_NAMES}"
            )
        if self.n_seeds < 1 or self.workers < 1:
            raise MalformedInputError(
                f"n_seeds ({self.n_seeds}) and workers ({self.workers}) must be at least 1"
            )
        object.__setattr__(self, "outdir", Path(self.outdir))


def rps_restriction_hull() -> ConvexHullGlobal:
    """Column forced to play the middle action exactly half the time."""
    return ConvexHullGlobal(
        (Policy([[0.5, 0.5, 0.0]]), Policy([[0.0, 0.5, 0.5]]))
    )


# Armies the random regiments add to the first battlefield, under each reading.
INDEPENDENT_UNIFORM_EXTRA = {0: 0.25, 1: 0.5, 2: 0.25}
UNIFORM_OVER_SPLITS_EXTRA = {0: 1.0 / 3.0, 1: 1.0 / 3.0, 2: 1.0 / 3.0}


def blotto_restriction_hull(extra: dict[int, float]) -> ConvexHullGlobal:
    """Row allots two regiments deliberately; two more land at random.

    Convolving each deliberate split (2-0, 1-1, 0-2) with the distribution
    ``extra`` of armies added to the first battlefield yields one generator
    per deliberate split over the five rows.
    """
    generators = []
    for first in (2, 1, 0):
        row = np.zeros(5)
        for added, p in extra.items():
            row[4 - (first + added)] = p  # action index 0 is the 4-0 split
        generators.append(Policy(row[np.newaxis, :]))
    return ConvexHullGlobal(tuple(generators))


def blotto_interpretation_oracle() -> dict:
    """Minimax values of the restricted Blotto under both readings of the hull.

    Independent-uniform extra armies give value exactly 0; drawing the extra
    split uniformly from the three splits also gives 0, up to the rounding
    of 1/3 in its generators (the stored game's exact value is about
    -2.8e-17), so the two values do not distinguish the readings.
    """
    game = blotto_4_3()
    readings = {}
    for label, extra in (
        ("independent_uniform", INDEPENDENT_UNIFORM_EXTRA),
        ("uniform_over_splits", UNIFORM_OVER_SPLITS_EXTRA),
    ):
        hull = blotto_restriction_hull(extra)
        solution = restricted_equilibrium_via_implicit(
            game, [hull, FullSpace(1, 4)]
        )
        readings[label] = solution.value
    return readings


# ---------------------------------------------------------------------------
# Learning runs
# ---------------------------------------------------------------------------


def _run_learning_seed(args) -> tuple[int, TrajectoryLog]:
    game, specs, iterations, seed = args
    return seed, self_play(game, specs, iterations, seed)


def _learning_runs(
    game: StochasticGame,
    specs: list[PlayerSpec],
    spec: ReproductionSpec,
) -> list[tuple[int, TrajectoryLog]]:
    seeds = [spec.seed + k for k in range(spec.n_seeds)]
    jobs = [(game, specs, spec.iterations, s) for s in seeds]
    if spec.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=spec.workers) as pool:
            results = list(pool.map(_run_learning_seed, jobs))
    else:
        results = [_run_learning_seed(job) for job in jobs]
    results.sort(key=lambda pair: pair[0])
    return results


def _run_stats(log: TrajectoryLog, restricted_player: int | None) -> dict:
    stats = {
        "seed": log.seed,
        "final_policies": [
            list(log.player_rows(i)[-1].explicit) for i in range(log.n_players)
        ],
        "mean_final_policies": [
            [float(x) for x in log.mean_final_policy(i, 0.1)]
            for i in range(log.n_players)
        ],
        "window_avg_rewards": [
            log.window_average_reward(i, 0.1) for i in range(log.n_players)
        ],
        "running_avg_rewards": [
            log.player_rows(i)[-1].avg_reward for i in range(log.n_players)
        ],
        "stabilization_iteration": log.stabilization_iteration(),
    }
    if restricted_player is not None:
        stats["mean_final_weights"] = [
            float(x)
            for x in log.mean_final_policy(restricted_player, 0.1, explicit=False)
        ]
    return stats


def _write_plot_files(
    outdir: Path,
    log: TrajectoryLog,
    reference: list[list[float]],
    action_names: list[list[str]],
) -> None:
    """Policy-vs-iteration data plus a gnuplot script with reference lines."""
    plot_names = []
    for i in range(log.n_players):
        rows = log.player_rows(i)
        path = outdir / f"plot_player{i}.dat"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# iteration " + " ".join(action_names[i]) + "\n")
            for r in rows:
                fh.write(
                    f"{r.iteration} " + " ".join(repr(float(p)) for p in r.explicit) + "\n"
                )
        plot_names.append(path.name)
    lines = [
        "set xlabel 'iterations'",
        "set ylabel 'action probability'",
        "set yrange [0:1.05]",
        "set key outside",
    ]
    for i, name in enumerate(plot_names):
        curves = [
            f"'{name}' using 1:{k + 2} with lines title '{action_names[i][k]}'"
            for k in range(len(action_names[i]))
        ]
        curves += [
            f"{ref} with lines dashtype 2 lc rgb 'gray' notitle"
            for ref in dict.fromkeys(round(x, 9) for x in reference[i])
        ]
        lines.append(f"set title 'player {i}'")
        lines.append("plot " + ", \\\n     ".join(curves))
        lines.append("pause -1")
    (outdir / "plot.gp").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# The named experiments
# ---------------------------------------------------------------------------


def _nash_reference(game: StochasticGame, spaces: list, player: int | None) -> dict:
    value, row, col = minimax_zero_sum_matrix(game)
    return {
        "kind": "nash",
        "value_row": value,
        "row": [float(x) for x in row],
        "col": [float(x) for x in col],
    }


def _restricted_reference(game: StochasticGame, spaces: list, player: int) -> dict:
    solution = restricted_equilibrium_via_implicit(game, spaces)
    return {
        "kind": "restricted",
        "value_row": solution.value,
        "row": [float(x) for x in solution.explicit_joint[0].probs[0]],
        "col": [float(x) for x in solution.explicit_joint[1].probs[0]],
        ("row_weights", "col_weights")[player]: [
            float(x) for x in solution.weights[player]
        ],
        "certificate": certificate_to_dict(solution.certificate, game),
    }


def _blotto_restricted_reference(game: StochasticGame, spaces: list, player: int) -> dict:
    """The restricted reference with the interpretation oracle before the certificate."""
    reference = _restricted_reference(game, spaces, player)
    reference["interpretation_oracle"] = blotto_interpretation_oracle()
    reference["certificate"] = reference.pop("certificate")
    return reference


# Learning experiments: the game, the restricted player, its hull (or none)
# and the reference builder.
_LEARNING = {
    "rps": (rps, None, None, _nash_reference),
    "rps-restricted": (rps, 1, rps_restriction_hull, _restricted_reference),
    "blotto": (blotto_4_3, None, None, _nash_reference),
    "blotto-restricted": (
        blotto_4_3,
        0,
        lambda: blotto_restriction_hull(INDEPENDENT_UNIFORM_EXTRA),
        _blotto_restricted_reference,
    ),
}


def _experiment_learning(spec: ReproductionSpec) -> dict:
    game_of, restricted_player, hull_of, reference_of = _LEARNING[spec.name]
    game = game_of()
    spaces = [FullSpace(game.n_states, k) for k in game.action_counts]
    player_specs = [PlayerSpec() for _ in spaces]
    if hull_of is not None:
        spaces[restricted_player] = hull_of()
        player_specs[restricted_player] = PlayerSpec(space=spaces[restricted_player])
    reference = reference_of(game, spaces, restricted_player)
    runs = _learning_runs(game, player_specs, spec)
    outdir = spec.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    stats = []
    for seed, log in runs:
        log.to_csv(outdir / f"trajectory_seed{seed}.csv")
        stats.append(_run_stats(log, restricted_player))
    _write_plot_files(
        outdir,
        runs[0][1],
        [reference["row"], reference["col"]],
        [list(names) for names in game.action_sets],
    )
    return {
        "experiment": spec.name,
        "base_seed": spec.seed,
        "n_seeds": spec.n_seeds,
        "iterations": spec.iterations,
        "game": game_to_dict(game),
        "reference": reference,
        "runs": stats,
    }


def _experiment_fact1(spec: ReproductionSpec) -> dict:
    game = rps()
    certificates = enumerate_deterministic(game, epsilon=0.5)
    spec.outdir.mkdir(parents=True, exist_ok=True)
    return {
        "experiment": spec.name,
        "epsilon": 0.5,
        "profiles": len(certificates),
        "equilibria": sum(1 for c in certificates if c.verdict),
        "min_max_gap": min(c.max_gap for c in certificates),
        "certificates": [certificate_to_dict(c, game) for c in certificates],
    }


def _fact5_trichotomy_report(game: StochasticGame) -> dict:
    """Column best responses over shared-strategy play, as a function of row mixing.

    Checks that below the 1/2 threshold the unique best branch is the first
    column action, above it the second, and at the threshold both pure
    branches tie while the even mixture is strictly worse.
    """
    results = []
    for u in (0.0, 0.1, 0.25, 0.4, 0.49, 0.5, 0.51, 0.6, 0.75, 0.9, 1.0):
        row = Policy.state_uniform(game.n_states, [u, 1.0 - u])
        mdp = induce_mdp(game, 1, [row])

        def col_value(v: float) -> float:
            probs = np.tile([v, 1.0 - v], (game.n_states, 1))
            return float(mdp_policy_value(mdp, probs)[mdp.initial_index])

        at_l, at_r, at_mid = col_value(1.0), col_value(0.0), col_value(0.5)
        if u < 0.5:
            ok = at_l > at_r + 1e-9 and at_l > at_mid + 1e-9
            verdict = "unique L"
        elif u > 0.5:
            ok = at_r > at_l + 1e-9 and at_r > at_mid + 1e-9
            verdict = "unique R"
        else:
            ok = abs(at_l - at_r) <= 1e-9 and at_l > at_mid + 1e-9
            verdict = "both pure, no mixed"
        results.append(
            {
                "row_weight_on_first": u,
                "value_L": at_l,
                "value_R": at_r,
                "value_mix": at_mid,
                "expected": verdict,
                "holds": bool(ok),
            }
        )
    return {"cases": results, "all_hold": all(c["holds"] for c in results)}


def _experiment_fact5(spec: ReproductionSpec) -> dict:
    game = fact5_game()
    spaces = [
        StateUniform(game.n_states, 2),
        StateUniform(game.n_states, 2),
    ]
    trichotomy = _fact5_trichotomy_report(game)
    pure_certs = []
    for ru, rn in ((1.0, "U"), (0.0, "D")):
        for cv, cn in ((1.0, "L"), (0.0, "R")):
            joint = JointPolicy(
                (
                    Policy.state_uniform(game.n_states, [ru, 1.0 - ru]),
                    Policy.state_uniform(game.n_states, [cv, 1.0 - cv]),
                )
            )
            cert = check_equilibrium(game, joint, spaces, epsilon=1e-9)
            entry = certificate_to_dict(cert, game)
            entry["profile"] = f"({rn},{cn})"
            pure_certs.append(entry)
    sweep = sweep_existence(game, spaces, FACT5_SWEEP_RESOLUTION, epsilon=1e-8)
    spec.outdir.mkdir(parents=True, exist_ok=True)
    sweep_to_csv(sweep, spec.outdir / "sweep.csv")
    row_half = Policy.state_uniform(game.n_states, [0.5, 0.5])
    nonconvex = not best_response_convexity_test(
        game, 1, [row_half], spaces[1], trials=16, seed=spec.seed
    )
    summary = {
        "experiment": spec.name,
        "game": game_to_dict(game),
        "trichotomy": trichotomy,
        "pure_profiles": pure_certs,
        "pure_profiles_all_fail": all(not c["verdict"] for c in pure_certs),
        "sweep": {
            "resolution": FACT5_SWEEP_RESOLUTION,
            "epsilon": sweep.epsilon,
            "min_max_gap": sweep.min_max_gap,
            "refinement_bound": sweep.refinement_bound,
            "margin": sweep.margin,
            "argmin_params": [list(p) for p in sweep.argmin_params],
            "grid_points": len(sweep.rows),
        },
        "column_best_response_set_nonconvex": nonconvex,
        "claim": (
            "no epsilon-equilibrium found at the stated resolution with the "
            "stated margin; numerical evidence only, not an unconditional proof"
        ),
    }
    logger.info(
        "fact5 sweep: min max-gap %.6f, refinement bound %.6f, margin %.6f",
        sweep.min_max_gap,
        sweep.refinement_bound,
        sweep.margin,
    )
    return summary


def _experiment_bos(spec: ReproductionSpec) -> dict:
    game = bach_stravinsky()
    result = support_enumeration_bimatrix(game)
    spec.outdir.mkdir(parents=True, exist_ok=True)
    return {
        "experiment": spec.name,
        "count": len(result.equilibria),
        "degenerate": result.degenerate,
        "equilibria": [
            joint_policy_to_list(eq, game.states) for eq in result.equilibria
        ],
    }


_RUNNERS = {
    **{name: _experiment_learning for name in _LEARNING},
    "fact1": _experiment_fact1,
    "fact5": _experiment_fact5,
    "bos-equilibria": _experiment_bos,
}


def reproduce(spec: ReproductionSpec) -> dict:
    """Run one named experiment; returns the summary after writing all files."""
    logger.info("reproducing %s into %s", spec.name, spec.outdir)
    summary = _RUNNERS[spec.name](spec)
    spec.outdir.mkdir(parents=True, exist_ok=True)
    with open(spec.outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return summary
