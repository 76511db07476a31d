"""Command-line surface.

Commands: ``validate`` checks a game file; ``solve`` runs minimax, support
enumeration or the restricted implicit-game route; ``check`` certifies a
joint policy; ``sweep`` grid-sweeps for equilibrium existence; ``learn``
runs self-play; ``reproduce`` runs one named experiment into ``--out``, or
with ``all`` every experiment into ``<out>/<name>/``.

Restricted spaces come in one way: ``--spaces FILE``, a JSON list with one
space object per player, read by ``restrictions.load_spaces``.  Without it
every player has the full policy space (``sweep`` requires it).  Every
variant's convex hull is one hull over blocks of states, and ``solve``,
``check`` and ``sweep`` pick each best-response route from the game and
the block structure of that hull, not from the variant's tag.  ``learn``
runs a ``full`` entry unrestricted and any hull of one block (every global
hull, and every hull of a one-state game) as a hull seat over its
generators; it refuses every other space with exit 3.  A hull seat learns
one weight vector per state, so its final joint policy can leave a global
hull of a multi-state game; ``learn`` reports each player's membership as
``final_in_space``.

Exit codes: 0 on success, 2 for malformed input (bad files, schema
violations, policies outside their spaces), 3 for unsupported combinations
(e.g. minimax on a general-sum game) and for a computation that misses its
tolerance (an ArithmeticError, e.g. a Bellman residual above VALUE_TOL at
gamma = 0.9999999999999), 4 when an average-reward game fails the
support-union check (``values.check_ergodic``); no policy's chain is
refused.  Results print as JSON on stdout; commands with file outputs
also write them.

The SGL_LOG_LEVEL environment variable (error, info, debug) controls
logging verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .games import (
    ErgodicityError,
    MalformedInputError,
    UnsupportedOperationError,
    joint_policy_from_list,
    joint_policy_to_list,
    load_game,
    read_json,
    validate,
)
from .learners import PlayerSpec, WolfPhcConfig, final_joint_policy, self_play
from .restrictions import FullSpace, load_spaces
from .solvers import (
    certificate_to_dict,
    check_equilibrium,
    minimax_zero_sum_matrix,
    restricted_equilibrium_via_implicit,
    support_enumeration_bimatrix,
    sweep_existence,
    sweep_to_csv,
)
from .experiments import EXPERIMENT_NAMES, ReproductionSpec, reproduce

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_UNSUPPORTED = 3
EXIT_ERGODICITY = 4


def _configure_logging() -> None:
    level_name = os.environ.get("SGL_LOG_LEVEL", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise MalformedInputError(
            f"SGL_LOG_LEVEL must be one of {sorted(levels)}, got {level_name!r}"
        )
    logging.basicConfig(
        level=levels[level_name],
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    print(text)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")


def _spaces(args, game):
    """The --spaces file's spaces, or every player's full space without one."""
    if args.spaces is None:
        return [FullSpace(game.n_states, k) for k in game.action_counts]
    return load_spaces(args.spaces, game)


def _cmd_validate(args) -> int:
    game = load_game(args.game)
    problems = validate(game)
    _emit({"valid": not problems, "violations": problems}, args.out)
    return EXIT_OK if not problems else EXIT_MALFORMED


def _cmd_solve(args) -> int:
    game = load_game(args.game)
    if args.method == "minimax":
        value, row, col = minimax_zero_sum_matrix(game)
        _emit(
            {
                "value": value,
                "row": [float(x) for x in row],
                "col": [float(x) for x in col],
            },
            args.out,
        )
        return EXIT_OK
    if args.method == "support-enum":
        result = support_enumeration_bimatrix(game)
        _emit(
            {
                "count": len(result.equilibria),
                "degenerate": result.degenerate,
                "equilibria": [
                    joint_policy_to_list(eq, game.states) for eq in result.equilibria
                ],
            },
            args.out,
        )
        return EXIT_OK
    # restricted: solve through the implicit game over hull generators
    solution = restricted_equilibrium_via_implicit(game, _spaces(args, game))
    _emit(
        {
            "value": solution.value,
            "weights": [[float(x) for x in w] for w in solution.weights],
            "joint_policy": joint_policy_to_list(solution.explicit_joint, game.states),
            "certificate": certificate_to_dict(solution.certificate, game),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    game = load_game(args.game)
    joint = joint_policy_from_list(read_json(args.policy, "policy"), game)
    cert = check_equilibrium(game, joint, _spaces(args, game), epsilon=args.eps)
    _emit(certificate_to_dict(cert, game), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    game = load_game(args.game)
    result = sweep_existence(game, _spaces(args, game), args.resolution, args.eps)
    if args.out:
        sweep_to_csv(result, args.out)
    payload = {
        "min_max_gap": result.min_max_gap,
        "refinement_bound": result.refinement_bound,
        "margin": result.margin,
        "epsilon": result.epsilon,
        "epsilon_equilibrium_found": result.epsilon_equilibrium_found,
        "argmin_params": [list(p) for p in result.argmin_params],
        "argmin_joint": joint_policy_to_list(result.argmin_joint, game.states),
        "grid_points": len(result.gaps),
        "csv": args.out,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_learn(args) -> int:
    game = load_game(args.game)
    config = WolfPhcConfig()
    if args.config:
        config = WolfPhcConfig.from_dict(read_json(args.config, "config"))
    spaces = _spaces(args, game)
    specs = [PlayerSpec(algo=args.algo, config=config, space=space) for space in spaces]
    log = self_play(game, specs, args.iters, args.seed)
    if args.out:
        log.to_csv(args.out)
    final_joint = final_joint_policy(log)
    payload = {
        "iterations": log.iterations,
        "seed": log.seed,
        "checkpoint_every": log.checkpoint_every,
        "final_policies": [explicit[-1, 0].tolist() for explicit in log.explicit],
        "avg_rewards": [float(avg[-1]) for avg in log.avg_rewards],
        "final_joint": joint_policy_to_list(final_joint, game.states),
        "final_in_space": [
            bool(space.contains(policy))
            for space, policy in zip(spaces, final_joint.policies)
        ],
        "csv": args.out,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    every = args.name == "all"
    reports = []
    for name in EXPERIMENT_NAMES if every else (args.name,):
        spec = ReproductionSpec(
            name=name,
            seed=args.seed,
            iterations=args.iters,
            outdir=Path(args.out) / name if every else Path(args.out),
            n_seeds=args.seeds,
            workers=args.workers,
        )
        summary = reproduce(spec)
        reports.append({"experiment": name, "outdir": str(spec.outdir),
                        "keys": sorted(summary)})
    print(json.dumps(reports if every else reports[0], indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgl",
        description="Stochastic games with limited agents: values, restricted "
        "equilibria, certification, and self-play.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a game file against its invariants")
    p_val.add_argument("game")
    p_val.add_argument("--out", default=None)
    p_val.set_defaults(func=_cmd_validate)

    p_solve = sub.add_parser("solve", help="solve a matrix game")
    p_solve.add_argument(
        "method", choices=["minimax", "support-enum", "restricted"],
    )
    p_solve.add_argument("game")
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--spaces", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser("check", help="certify a joint policy")
    p_check.add_argument("--game", required=True)
    p_check.add_argument("--policy", required=True)
    p_check.add_argument("--spaces", default=None)
    p_check.add_argument("--eps", type=float, default=1e-9)
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="grid sweep for equilibrium existence")
    p_sweep.add_argument("--game", required=True)
    p_sweep.add_argument("--spaces", required=True)
    p_sweep.add_argument("--resolution", type=float, default=0.01)
    p_sweep.add_argument("--eps", type=float, default=1e-8)
    p_sweep.add_argument("--out", default=None, help="CSV output path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_learn = sub.add_parser("learn", help="run self-play learners")
    p_learn.add_argument("--game", required=True)
    p_learn.add_argument("--algo", choices=["wolf-phc", "q"], default="wolf-phc")
    p_learn.add_argument("--config", default=None, help="learner config JSON")
    p_learn.add_argument("--iters", type=int, default=1_000_000)
    p_learn.add_argument("--seed", type=int, default=0)
    p_learn.add_argument("--out", default=None, help="trajectory CSV path")
    p_learn.add_argument("--spaces", default=None)
    p_learn.set_defaults(func=_cmd_learn)

    p_rep = sub.add_parser("reproduce", help="run a named experiment end to end")
    p_rep.add_argument("name", choices=[*EXPERIMENT_NAMES, "all"])
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--iters", type=int, default=1_000_000)
    p_rep.add_argument("--out", default="out")
    p_rep.add_argument("--seeds", type=int, default=10, help="number of seeds")
    p_rep.add_argument("--workers", type=int, default=1)
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        _configure_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ErgodicityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERGODICITY
    except (UnsupportedOperationError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (MalformedInputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
