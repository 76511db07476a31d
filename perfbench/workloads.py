"""The benchmark's three workloads: inputs from a seed, warm-ups, rounds and checks.

A round is one pass over a workload's operations.  Every round of a run
attempts the same operations, so the share of failed operations is the
same in every run whatever the seed or the run length.  An operation fails
when `sgl` raises during it; its output is checked only when it did not
fail, against `oracles` (which never import `sgl`) or against properties
the method must have.

Calls go through module attributes (``solvers.check_equilibrium``, not a
name imported here) so that the traced mode sees them.
"""

from __future__ import annotations

import csv
import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from sgl import experiments, games, learners, restrictions, solvers, values

# ---------------------------------------------------------------------------
# Sizes.  Changing any of these changes what the benchmark measures.
# ---------------------------------------------------------------------------

CERTIFY_HULL_GAMES = 2  # multi-state games with a 3-generator global hull
CERTIFY_HULL_STATES = 4
CERTIFY_GAMMA = 0.9

SELFPLAY_ITERATIONS = 40_000  # per seed, for each reproduced experiment
SELFPLAY_SEEDS = 2
SELFPLAY_FACT5_ITERATIONS = 40_000
SELFPLAY_DETERMINISM_ITERATIONS = 3_000
# Final-window exploitability (sum of both players' best-response gains)
# that the learned policies must stay under at SELFPLAY_ITERATIONS.  Over
# seeds 0-59 the largest seen were 0.026 and 0.165; the uniform start of
# rps-restricted scores 0.25.
EXPLOITABILITY_BOUND = {"rps": 0.05, "rps-restricted": 0.2}

SOLVE_MINIMAX_GAMES = 16
SOLVE_SUPPORT_GAMES = 8
SOLVE_IMPLICIT_GAMES = 8
SOLVE_LARGE_GAMES = 4  # per reward criterion
SOLVE_LARGE_STATES = (40, 80)  # state count drawn from [40, 80)
SOLVE_GAMMA = 0.9
# Seed-independent inputs on which the program fails every time.
FAULT_MINIMAX_GAMES = 24  # integer games from default_rng(3), plus FAULT_EXAMPLE
FAULT_IMPLICIT_GAMES = 12  # integer games with lattice hulls from default_rng(3)
FAULT_EXAMPLE = np.array(
    [[2, -2, -1], [1, 1, -2], [1, 1, 3], [1, 3, 3], [-3, -3, 0]], dtype=float
)

VALUE_TOL = 1e-9
SIMPLEX_TOL = 1e-12


@dataclass
class Outcome:
    """One attempted operation: its label and either a value or the exception."""

    label: str
    seconds: float
    value: object = None
    error: BaseException | None = None


@dataclass
class Round:
    """One pass over a workload's operations; ``outdir`` takes the files they write."""

    outdir: Path
    outcomes: list[Outcome] = field(default_factory=list)

    def attempt(self, label: str, fn, *args, **kwargs) -> None:
        start = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # an operation failing is a counted outcome
            self.outcomes.append(Outcome(label, time.perf_counter() - start, error=exc))
        else:
            self.outcomes.append(Outcome(label, time.perf_counter() - start, value=value))

    def ok(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.error is None]


class Checks:
    """Collects failed output checks; an empty list means the outputs are correct."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def that(self, condition, message: str) -> None:
        if not bool(condition):
            self.failures.append(message)

    def close(self, got: float, want: float, tol: float, what: str) -> None:
        self.that(abs(float(got) - float(want)) <= tol,
                  f"{what}: got {got!r}, expected {want!r} within {tol:g}")


# ---------------------------------------------------------------------------
# Input generators (plain arrays; turned into sgl objects by the workloads)
# ---------------------------------------------------------------------------


def dense_game_arrays(rng, n_states: int, counts: tuple[int, ...]):
    """Full-support random transitions (every policy's chain is irreducible)."""
    n_joint = int(np.prod(counts))
    transition = rng.dirichlet(np.ones(n_states), size=(n_states, n_joint))
    rewards = rng.uniform(-1.0, 1.0, size=(len(counts), n_states, n_joint))
    return transition, rewards


def sgl_game(transition, rewards, counts, formulation) -> games.StochasticGame:
    return games.StochasticGame(
        states=tuple(f"s{k}" for k in range(transition.shape[0])),
        action_sets=tuple(tuple(f"p{i}a{k}" for k in range(c)) for i, c in enumerate(counts)),
        transition=transition,
        rewards=rewards,
        initial_state="s0",
        formulation=formulation,
    )


def planted_matrix(rng, n: int):
    """An n x n zero-sum game whose unique equilibrium is completely mixed.

    A = (I - 1 x^T) B (I - y 1^T) + v 1 1^T makes x^T A = v 1^T and A y = v 1
    for the drawn interior (x, y) and value v.
    """
    x = rng.dirichlet(np.ones(n))
    y = rng.dirichlet(np.ones(n))
    v = float(rng.uniform(-0.5, 0.5))
    b = rng.uniform(-1.0, 1.0, size=(n, n))
    one = np.ones(n)
    a = (np.eye(n) - np.outer(one, x)) @ b @ (np.eye(n) - np.outer(y, one)) + v
    return a, v


def fault_minimax_matrices() -> list[np.ndarray]:
    """Integer-payoff games from default_rng(3), independent of the run's seed."""
    rng = np.random.default_rng(3)
    out = [FAULT_EXAMPLE]
    for _ in range(FAULT_MINIMAX_GAMES):
        m, n = rng.integers(3, 9, size=2)
        out.append(rng.integers(-3, 4, size=(m, n)).astype(float))
    return out


def fault_implicit_inputs() -> list[tuple[np.ndarray, np.ndarray]]:
    """(row payoff, hull generators) with generator entries on a quarter lattice."""
    rng = np.random.default_rng(3)
    out = []
    for _ in range(FAULT_IMPLICIT_GAMES):
        m, n = rng.integers(3, 9, size=2)
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        k = int(rng.integers(2, 5))
        gens = np.stack([rng.multinomial(4, np.ones(m) / m) / 4.0 for _ in range(k)])
        out.append((a, gens))
    return out


def transient_state_game() -> games.StochasticGame:
    """Two states: staying in s0 pays 1, going leads to s1, which returns to s0.

    Every state is reachable from every other under some action, so the
    game passes `check_ergodic`; the optimal response (always stay) leaves
    s1 transient.
    """
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = 1.0  # stay
    transition[0, 1, 1] = 1.0  # go
    transition[1, :, 0] = 1.0
    rewards = np.zeros((2, 2, 2))
    rewards[0, 0, 0] = 1.0
    return games.StochasticGame(
        states=("s0", "s1"),
        action_sets=(("stay", "go"), ("wait",)),
        transition=transition,
        rewards=rewards,
        initial_state="s0",
        formulation=games.Average(),
    )


def matrix_of(a: np.ndarray) -> games.StochasticGame:
    return games.matrix_game([a, -a])


def solve_minimax_as_policies(game: games.StochasticGame):
    """Minimax value and strategies, taken up as sgl policies (the program's own
    strategy validation), as `restricted_equilibrium_via_implicit` does with its
    implicit weights."""
    value, row, col = solvers.minimax_zero_sum_matrix(game)
    games.Policy(row[np.newaxis, :])
    games.Policy(col[np.newaxis, :])
    return value, row, col


def check_minimax(chk: Checks, label: str, a: np.ndarray, result, value_want: float) -> None:
    value, row, col = result
    chk.that(oracles.simplex_violation(row) <= SIMPLEX_TOL, f"{label}: row off the simplex")
    chk.that(oracles.simplex_violation(col) <= SIMPLEX_TOL, f"{label}: column off the simplex")
    row_sec, col_sec = oracles.securities(a, row, col)
    chk.close(row_sec, value, VALUE_TOL, f"{label}: row security vs value")
    chk.close(col_sec, value, VALUE_TOL, f"{label}: column security vs value")
    chk.close(value, value_want, VALUE_TOL, f"{label}: value")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Seeded inputs, warm-ups, one round's operations and their output checks."""

    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        """Inputs from ``seed``; ``scratch`` holds warm-up outputs and outputs
        kept for `check_once`."""
        self.seed = seed
        self.scratch = scratch
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def warm_up(self) -> None:
        """One cheap call into each layer the workload uses."""
        raise NotImplementedError

    def run_round(self, rnd: Round) -> None:
        raise NotImplementedError

    def check(self, rnd: Round, chk: Checks) -> None:
        raise NotImplementedError

    def check_once(self, chk: Checks) -> None:
        """Checks made once per run, after the rounds."""

    def info(self) -> list[str]:
        """Findings from the last check, for standard error."""
        return []


class Certify(Workload):
    """Restricted-equilibrium certificates: Facts 1 and 5, BoS, and route (c) games."""

    name = "certify"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.fact5_kept = None  # (summary, copy of sweep.csv, its digest) of round 1
        self.fact5_oracle = None
        self.hull_games = []
        n_s = CERTIFY_HULL_STATES
        for _ in range(CERTIFY_HULL_GAMES):
            transition, rewards = dense_game_arrays(self.rng, n_s, (3, 2))
            gens = self.rng.dirichlet(np.ones(3), size=(3, n_s))  # (k, S, A)
            weights = self.rng.dirichlet(np.ones(3))
            opponent = self.rng.dirichlet(np.ones(2), size=n_s)
            game = sgl_game(transition, rewards, (3, 2), games.Discounted(CERTIFY_GAMMA))
            hull = restrictions.ConvexHullGlobal(tuple(games.Policy(g) for g in gens))
            joint = games.JointPolicy((hull.policy_of_weights(weights), games.Policy(opponent)))
            spaces = [hull, restrictions.FullSpace(n_s, 2)]
            self.hull_games.append((transition, rewards, gens, game, joint, spaces))

    def warm_up(self) -> None:
        game = games.fact5_game()
        spaces = [restrictions.StateUniform(3, 2), restrictions.StateUniform(3, 2)]
        joint = games.JointPolicy.uniform(game)
        values.policy_value(game, joint)
        solvers.restricted_best_response(game, 1, [joint[0]], spaces[1])
        solvers.sweep_existence(game, spaces, 0.5, epsilon=1e-8)
        solvers.check_equilibrium(game, joint, spaces, epsilon=1e-9)
        solvers.support_enumeration_bimatrix(games.bach_stravinsky())
        experiments.reproduce(experiments.ReproductionSpec(
            name="fact1", outdir=self.scratch / "warmup" / "fact1"))

    def run_round(self, rnd: Round) -> None:
        for name in ("fact1", "fact5", "bos-equilibria"):
            spec = experiments.ReproductionSpec(name=name, seed=self.seed,
                                                outdir=rnd.outdir / name)
            rnd.attempt(name, experiments.reproduce, spec)
        for k, (_, _, _, game, joint, spaces) in enumerate(self.hull_games):
            rnd.attempt(f"hull{k}:best_response", solvers.restricted_best_response,
                        game, 0, [joint[1]], spaces[0])
            rnd.attempt(f"hull{k}:check", solvers.check_equilibrium,
                        game, joint, spaces, 1e-9)

    def check(self, rnd: Round, chk: Checks) -> None:
        got = {o.label: o.value for o in rnd.ok()}
        if "fact1" in got:
            fact1 = got["fact1"]
            gaps = oracles.pure_profile_gaps(oracles.RPS_ROW, -oracles.RPS_ROW)
            chk.that(fact1["profiles"] == gaps.size == 9, "fact1: profile count")
            chk.that(fact1["equilibria"] == int((gaps <= fact1["epsilon"]).sum()) == 0,
                     "fact1: equilibrium count")
            chk.close(fact1["min_max_gap"], gaps.min(), VALUE_TOL, "fact1: min max-gap")
            chk.close(fact1["min_max_gap"], 1.0, VALUE_TOL, "fact1: min max-gap")
        if "fact5" in got:
            self._keep_fact5(got["fact5"], rnd.outdir / "fact5" / "sweep.csv", chk)
        if "bos-equilibria" in got:
            bos = got["bos-equilibria"]
            a = np.array([[2.0, 0.0], [0.0, 1.0]])
            b = np.array([[1.0, 0.0], [0.0, 2.0]])
            chk.that(not bos["degenerate"], "bos: flagged degenerate")
            chk.that(bos["count"] == 3, "bos: equilibrium count")
            for eq in bos["equilibria"]:
                x, y = np.asarray(eq[0]["s0"]), np.asarray(eq[1]["s0"])
                chk.that(oracles.is_nash(a, b, x, y, VALUE_TOL), f"bos: {eq} is not Nash")
        for k, (transition, rewards, gens, game, joint, spaces) in enumerate(self.hull_games):
            br = got.get(f"hull{k}:best_response")
            cert = got.get(f"hull{k}:check")
            opponent = joint[1].probs
            t0, r0 = oracles.induced_mdp(transition, rewards, 0, [joint[0].probs, opponent])
            if br is not None:
                label = f"hull{k} route (c)"
                _, resid = oracles.hull_weights(gens.reshape(3, -1), br.policy.probs.ravel())
                chk.that(resid <= 1e-9, f"{label}: policy outside the hull ({resid:g})")
                own = oracles.mdp_value(t0, r0, br.policy.probs, CERTIFY_GAMMA)[0]
                chk.close(br.value, own, VALUE_TOL, f"{label}: value of the returned policy")
                grid = oracles.hull_grid_max(t0, r0, gens, CERTIFY_GAMMA, 0, 0.02)
                chk.that(br.value >= grid - VALUE_TOL,
                         f"{label}: value {br.value} below the grid maximum {grid}")
            if cert is not None and br is not None:
                current = oracles.policy_values(
                    transition, rewards, [joint[0].probs, opponent], CERTIFY_GAMMA
                )
                chk.close(cert.gaps[0], max(br.value - current[0], 0.0), VALUE_TOL,
                          f"hull{k}: hull player's gap")
                t1, r1 = oracles.induced_mdp(transition, rewards, 1, [joint[0].probs, opponent])
                best = oracles.optimal_values_discounted(t1, r1, CERTIFY_GAMMA)[0]
                chk.close(cert.gaps[1], max(best - current[1], 0.0), 1e-8,
                          f"hull{k}: full-space player's gap")

    def _keep_fact5(self, summary: dict, sweep_csv: Path, chk: Checks) -> None:
        """Keep the first round's sweep for `check_once`; later rounds must match it."""
        sweep = summary["sweep"]
        n = int(round(1.0 / sweep["resolution"])) + 1
        chk.that(sweep["grid_points"] == n * n, "fact5: lattice size")
        chk.that(sweep["margin"] > 0.0, "fact5: margin not positive")
        digest = hashlib.sha256(sweep_csv.read_bytes()).hexdigest()
        if self.fact5_kept is None:
            kept = self.scratch / "fact5-sweep.csv"
            shutil.copyfile(sweep_csv, kept)
            self.fact5_kept = (summary, kept, digest)
        else:
            chk.that(digest == self.fact5_kept[2], "fact5: sweep.csv differs between rounds")
            chk.that(sweep == self.fact5_kept[0]["sweep"], "fact5: summary differs between rounds")

    def check_once(self, chk: Checks) -> None:
        """The whole Fact 5 gap lattice against the oracle (after the timed phase,
        so its memory stays out of `peak_rss_mb`)."""
        if self.fact5_kept is None:
            return
        summary, sweep_csv, _ = self.fact5_kept
        sweep = summary["sweep"]
        resolution = sweep["resolution"]
        n = int(round(1.0 / resolution)) + 1
        with open(sweep_csv, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        chk.that(header[-1] == "max_gap" and table.shape == (n * n, len(header)),
                 "fact5: sweep.csv shape")
        lattice = oracles.fact5_gap_lattice(resolution, resolution / 10.0)
        grid = np.linspace(0.0, 1.0, n)
        chk.that(np.allclose(table[:, 0].reshape(n, n), grid[:, None])
                 and np.allclose(table[:, 1].reshape(n, n), grid[None, :]),
                 "fact5: sweep.csv lattice order")
        tolerance = self._route_c_tolerance(summary)
        diff = float(np.abs(table[:, -1].reshape(n, n) - lattice).max())
        chk.that(diff <= tolerance + VALUE_TOL,
                 f"fact5: lattice differs from the oracle by {diff:g} > {tolerance:g}")
        chk.close(sweep["min_max_gap"], lattice.min(), tolerance + VALUE_TOL,
                  "fact5: min max-gap vs oracle")
        self.fact5_oracle = (float(lattice.min()), diff, tolerance)

    @staticmethod
    def _route_c_tolerance(summary: dict) -> float:
        """Route (c)'s reported tolerance for both best responses at the sweep argmin."""
        game = games.fact5_game()
        space = restrictions.StateUniform(3, 2)
        u, v = (p[0] for p in summary["sweep"]["argmin_params"])
        row = games.Policy.state_uniform(3, [u, 1.0 - u])
        col = games.Policy.state_uniform(3, [v, 1.0 - v])
        return max(solvers.restricted_best_response(game, 0, [col], space).tolerance,
                   solvers.restricted_best_response(game, 1, [row], space).tolerance)

    def info(self) -> list[str]:
        if self.fact5_oracle is None:
            return []
        low, diff, tol = self.fact5_oracle
        return [f"fact5 oracle min max-gap {low:.9f}, largest lattice difference "
                f"{diff:.3g}, route (c) tolerance {tol:.3g}"]


class SelfPlay(Workload):
    """WoLF-PHC self-play through `reproduce`, plus multi-state play on Fact 5."""

    name = "selfplay"
    LEARNING = ("rps", "rps-restricted", "blotto", "blotto-restricted")

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.exploitability: dict[str, list[float]] = {}
        self.fact5 = games.fact5_game()
        hull = restrictions.StateUniform(3, 2).as_hull()
        self.fact5_specs = [learners.PlayerSpec(space=hull), learners.PlayerSpec(space=hull)]

    def warm_up(self) -> None:
        spec = experiments.ReproductionSpec(name="rps-restricted", seed=self.seed,
                                            iterations=2_000, n_seeds=1,
                                            outdir=self.scratch / "warmup" / "rps-restricted")
        experiments.reproduce(spec)
        learners.self_play(self.fact5, self.fact5_specs, 2_000, self.seed)
        solvers.minimax_zero_sum_matrix(games.blotto_4_3())

    def run_round(self, rnd: Round) -> None:
        for name in self.LEARNING:
            spec = experiments.ReproductionSpec(
                name=name, seed=self.seed, iterations=SELFPLAY_ITERATIONS,
                n_seeds=SELFPLAY_SEEDS, workers=1, outdir=rnd.outdir / name,
            )
            rnd.attempt(name, experiments.reproduce, spec)
        rnd.attempt("fact5:self_play", learners.self_play, self.fact5, self.fact5_specs,
                    SELFPLAY_FACT5_ITERATIONS, self.seed)

    def check(self, rnd: Round, chk: Checks) -> None:
        got = {o.label: o.value for o in rnd.ok()}
        rps_a, blotto_a = oracles.RPS_ROW, oracles.BLOTTO_ROW
        rps_hull, blotto_hull = oracles.RPS_COLUMN_HULL, oracles.BLOTTO_ROW_HULL
        closed = {"rps": 0.0, "rps-restricted": 1.0 / 6.0, "blotto": 14.0 / 9.0,
                  "blotto-restricted": 0.0}
        setups = {
            "rps": (rps_a, None, None),
            "rps-restricted": (rps_a, None, rps_hull),
            "blotto": (blotto_a, None, None),
            "blotto-restricted": (blotto_a, blotto_hull, None),
        }
        for name in self.LEARNING:
            summary = got.get(name)
            if summary is None:
                continue
            a, row_g, col_g = setups[name]
            chk.close(summary["reference"]["value_row"], closed[name], VALUE_TOL,
                      f"{name}: reference value")
            own_value, _, _ = oracles.matrix_value(
                (row_g if row_g is not None else np.eye(a.shape[0])) @ a
                @ (col_g.T if col_g is not None else np.eye(a.shape[1]))
            )
            chk.close(own_value, closed[name], 1e-8, f"{name}: oracle value")
            if name == "rps-restricted":
                for got_w, want_w in zip(summary["reference"]["col_weights"], (2 / 3, 1 / 3)):
                    chk.close(got_w, want_w, VALUE_TOL, f"{name}: column weights")
            gens = [row_g, col_g]
            payoffs = [a, -a]
            ex = []
            for run in summary["runs"]:
                path = rnd.outdir / name / f"trajectory_seed{run['seed']}.csv"
                rows = _read_trajectory(path)
                _check_rows(chk, f"{name} seed {run['seed']}", rows, gens, payoffs, ("s0",))
                window = [r for r in rows if r[0] > 0.9 * SELFPLAY_ITERATIONS]
                means = [np.mean([r[4] for r in window if r[1] == i], axis=0) for i in (0, 1)]
                for i in (0, 1):
                    chk.that(np.allclose(means[i], run["mean_final_policies"][i],
                                         rtol=0.0, atol=1e-12),
                             f"{name}: final-window mean policy of player {i}")
                ex.append(oracles.exploitability(a, means[0], means[1], row_g, col_g))
            self.exploitability[name] = ex
            bound = EXPLOITABILITY_BOUND.get(name)
            if bound is not None:
                chk.that(max(ex) < bound, f"{name}: exploitability {max(ex):.4f} >= {bound}")
        log = got.get("fact5:self_play")
        if log is not None:
            hull = np.stack([g.probs for g in self.fact5_specs[0].space.generators])
            rows = [(r.iteration, r.player, r.state, list(r.probs), list(r.explicit),
                     r.avg_reward) for r in log.rows]
            chk.that(len(rows) == 2 * 3 * (SELFPLAY_FACT5_ITERATIONS // log.checkpoint_every),
                     "fact5 self-play: checkpoint row count")
            payoffs = [self.fact5.rewards[0], self.fact5.rewards[1]]
            _check_rows(chk, "fact5 self-play", rows, [hull, hull], payoffs, self.fact5.states)

    def check_once(self, chk: Checks) -> None:
        """Two short runs with one seed give identical logs."""
        n = SELFPLAY_DETERMINISM_ITERATIONS
        first = learners.self_play(self.fact5, self.fact5_specs, n, self.seed)
        second = learners.self_play(self.fact5, self.fact5_specs, n, self.seed)
        chk.that(first.rows == second.rows, "self-play: same seed, different logs")

    def info(self) -> list[str]:
        return [f"final-window exploitability {name}: "
                + ", ".join(f"{x:.4f}" for x in ex)
                for name, ex in self.exploitability.items()]


def _number(field: str) -> float:
    """A CSV number; restricted players' explicit probabilities are written as
    ``np.float64(x)`` (the repr of a NumPy scalar), which is read here as x."""
    if field.startswith("np.float64(") and field.endswith(")"):
        field = field[len("np.float64("):-1]
    return float(field)


def _read_trajectory(path: Path) -> list[tuple]:
    """Checkpoint rows (iteration, player, state, probs, explicit, average reward)."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for it, player, state, probs, explicit, _, avg in reader:
            rows.append((int(it), int(player), state,
                         [_number(x) for x in probs.split(";")],
                         [_number(x) for x in explicit.split(";")], float(avg)))
    return rows


def _check_rows(chk: Checks, label: str, rows, generators, payoffs, states) -> None:
    """Checkpoints on the simplex, hull play equal to weights . generators, rewards in range.

    ``states`` lists the game's state names in the game's order.
    """
    n_states = len(states)
    for i in (0, 1):
        mine = [r for r in rows if r[1] == i]
        probs = np.array([r[3] for r in mine])
        explicit = np.array([r[4] for r in mine])
        worst = max(max(oracles.simplex_violation(p) for p in probs),
                    max(oracles.simplex_violation(p) for p in explicit))
        chk.that(worst <= 1e-9, f"{label}: player {i} checkpoint off the simplex ({worst:g})")
        g = generators[i]
        if g is not None:
            g = g.reshape(g.shape[0], n_states, -1)
            idx = [states.index(r[2]) for r in mine]
            blend = np.einsum("nk,nka->na", probs, g[:, idx, :].transpose(1, 0, 2))
            dev = float(np.abs(blend - explicit).max())
            chk.that(dev <= 1e-12,
                     f"{label}: player {i} explicit != weights . generators ({dev:g})")
        pay = np.asarray(payoffs[i])
        avg = np.array([r[5] for r in mine])
        chk.that(avg.min() >= pay.min() - 1e-12 and avg.max() <= pay.max() + 1e-12,
                 f"{label}: player {i} average reward outside the payoff range")


class Solve(Workload):
    """Exact solvers on generated games, plus the seed-independent fault inputs."""

    name = "solve"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        rng = self.rng
        self.minimax = []
        for _ in range(SOLVE_MINIMAX_GAMES):
            a, v = planted_matrix(rng, int(rng.integers(3, 9)))
            self.minimax.append((a, v, matrix_of(a)))
        self.bimatrix = []
        for _ in range(SOLVE_SUPPORT_GAMES):
            a = rng.uniform(-1.0, 1.0, size=(5, 5))
            b = rng.uniform(-1.0, 1.0, size=(5, 5))
            self.bimatrix.append((a, b, games.matrix_game([a, b])))
        self.implicit = []
        for _ in range(SOLVE_IMPLICIT_GAMES):
            k = int(rng.integers(2, 5))
            m = k + int(rng.integers(0, 4))
            gens = rng.dirichlet(np.ones(m), size=k)
            target, v = planted_matrix(rng, k)
            pinv = np.linalg.pinv(gens)
            a = pinv @ target + (np.eye(m) - pinv @ gens) @ rng.uniform(-1, 1, size=(m, k))
            hull = restrictions.ConvexHullGlobal(
                tuple(games.Policy(g[np.newaxis, :]) for g in gens))
            self.implicit.append((a, gens, v, matrix_of(a), [hull, restrictions.FullSpace(1, k)]))
        self.large = []
        for average in (False, True):
            for _ in range(SOLVE_LARGE_GAMES):
                n_s = int(rng.integers(*SOLVE_LARGE_STATES))
                transition, rewards = dense_game_arrays(rng, n_s, (3, 3))
                formulation = games.Average() if average else games.Discounted(SOLVE_GAMMA)
                game = sgl_game(transition, rewards, (3, 3), formulation)
                opponent = rng.dirichlet(np.ones(3), size=n_s)
                own = rng.dirichlet(np.ones(3), size=n_s)
                statewise = rng.dirichlet(np.ones(3), size=(n_s, 3))
                spaces = [restrictions.FullSpace(n_s, 3),
                          restrictions.ConvexHullStatewise(tuple(tuple(g) for g in statewise))]
                self.large.append((transition, rewards, statewise, opponent, own, game, spaces))
        self.fault_minimax = [(a, matrix_of(a)) for a in fault_minimax_matrices()]
        self.fault_implicit = [
            (a, gens, matrix_of(a),
             [restrictions.ConvexHullGlobal(tuple(games.Policy(g[np.newaxis, :]) for g in gens)),
              restrictions.FullSpace(1, a.shape[1])])
            for a, gens in fault_implicit_inputs()
        ]
        self.transient = transient_state_game()

    def warm_up(self) -> None:
        solve_minimax_as_policies(games.rps())
        solvers.support_enumeration_bimatrix(games.bach_stravinsky())
        game, spaces = self.implicit[0][3:]
        solvers.restricted_equilibrium_via_implicit(game, spaces)
        for entry in (self.large[0], self.large[-1]):
            _, _, _, opponent, own, game, spaces = entry
            solvers.restricted_best_response(game, 0, [games.Policy(opponent)], spaces[1])
            joint = games.JointPolicy((games.Policy(own), games.Policy(opponent)))
            values.policy_value(game, joint)

    def run_round(self, rnd: Round) -> None:
        for k, (_, _, game) in enumerate(self.minimax):
            rnd.attempt(f"minimax{k}", solve_minimax_as_policies, game)
        for k, (_, _, game) in enumerate(self.bimatrix):
            rnd.attempt(f"support{k}", solvers.support_enumeration_bimatrix, game)
        for k, (_, _, _, game, spaces) in enumerate(self.implicit):
            rnd.attempt(f"implicit{k}", solvers.restricted_equilibrium_via_implicit, game, spaces)
        for k, (_, _, _, opponent, own, game, spaces) in enumerate(self.large):
            others = [games.Policy(opponent)]
            rnd.attempt(f"large{k}:full", solvers.restricted_best_response,
                        game, 0, others, spaces[0])
            rnd.attempt(f"large{k}:statewise", solvers.restricted_best_response,
                        game, 0, others, spaces[1])
            joint = games.JointPolicy((games.Policy(own), others[0]))
            rnd.attempt(f"large{k}:value", values.policy_value, game, joint)
        for k, (_, game) in enumerate(self.fault_minimax):
            rnd.attempt(f"fault_minimax{k}", solve_minimax_as_policies, game)
        for k, (_, _, game, spaces) in enumerate(self.fault_implicit):
            rnd.attempt(f"fault_implicit{k}", solvers.restricted_equilibrium_via_implicit,
                        game, spaces)
        space = restrictions.FullSpace(2, 2)
        rnd.attempt("fault_transient", solvers.restricted_best_response, self.transient, 0,
                    [games.Policy([[1.0], [1.0]])], space)

    def check(self, rnd: Round, chk: Checks) -> None:
        got = {o.label: o.value for o in rnd.ok()}
        for k, (a, v, _) in enumerate(self.minimax):
            if f"minimax{k}" in got:
                check_minimax(chk, f"minimax{k}", a, got[f"minimax{k}"], v)
        for k, (a, _) in enumerate(self.fault_minimax):
            if f"fault_minimax{k}" in got:
                check_minimax(chk, f"fault_minimax{k}", a, got[f"fault_minimax{k}"],
                              oracles.matrix_value(a)[0])
        for k, (a, b, _) in enumerate(self.bimatrix):
            result = got.get(f"support{k}")
            if result is None:
                continue
            chk.that(not result.degenerate, f"support{k}: flagged degenerate")
            chk.that(len(result.equilibria) % 2 == 1, f"support{k}: even equilibrium count")
            for eq in result.equilibria:
                x, y = eq[0].probs[0], eq[1].probs[0]
                chk.that(oracles.is_nash(a, b, x, y, VALUE_TOL), f"support{k}: not Nash")
        for k, (a, gens, v, _, _) in enumerate(self.implicit):
            if f"implicit{k}" in got:
                self._check_implicit(chk, f"implicit{k}", a, gens, got[f"implicit{k}"], v)
        for k, (a, gens, _, _) in enumerate(self.fault_implicit):
            if f"fault_implicit{k}" in got:
                want = oracles.matrix_value(gens @ a)[0]
                self._check_implicit(chk, f"fault_implicit{k}", a, gens,
                                     got[f"fault_implicit{k}"], want)
        for k, (transition, rewards, statewise, opponent, own, game, _) in enumerate(self.large):
            average = isinstance(game.formulation, games.Average)
            t, r = oracles.induced_mdp(transition, rewards, 0, [own, opponent])
            n_s = t.shape[0]
            for kind, gens in (("full", [np.eye(3)] * n_s), ("statewise", list(statewise))):
                br = got.get(f"large{k}:{kind}")
                if br is None:
                    continue
                label = f"large{k} route (b) {kind}"
                if average:
                    gain = oracles.optimal_gain_rvi(t, r, gens)
                    chk.close(br.value, gain, 1e-8, f"{label}: gain vs relative value iteration")
                else:
                    resid = oracles.bellman_residual(t, r, gens, br.policy.probs, SOLVE_GAMMA)
                    chk.that(resid <= VALUE_TOL, f"{label}: Bellman residual {resid:g}")
                    own_v = oracles.mdp_value(t, r, br.policy.probs, SOLVE_GAMMA)[0]
                    chk.close(br.value, own_v, VALUE_TOL, f"{label}: value")
            value = got.get(f"large{k}:value")
            if value is not None:
                want = oracles.policy_values(transition, rewards, [own, opponent],
                                             None if average else SOLVE_GAMMA)
                chk.that(np.allclose(value, want, rtol=0.0, atol=VALUE_TOL),
                         f"large{k}: policy_value {value} vs {want}")

    @staticmethod
    def _check_implicit(chk: Checks, label: str, a, gens, result, value_want) -> None:
        w_row, w_col = result.weights
        chk.that(oracles.simplex_violation(w_row) <= SIMPLEX_TOL, f"{label}: row weights")
        chk.that(oracles.simplex_violation(w_col) <= SIMPLEX_TOL, f"{label}: column weights")
        x = result.explicit_joint[0].probs[0]
        y = result.explicit_joint[1].probs[0]
        chk.that(np.abs(x - w_row @ gens).max() <= SIMPLEX_TOL, f"{label}: row != weights . hull")
        chk.close(result.value, value_want, 1e-8, f"{label}: value vs oracle")
        chk.that((gens @ a @ y).max() <= result.value + VALUE_TOL, f"{label}: row can gain")
        chk.that((x @ a).min() >= result.value - VALUE_TOL, f"{label}: column can gain")


WORKLOADS = {cls.name: cls for cls in (Certify, SelfPlay, Solve)}
