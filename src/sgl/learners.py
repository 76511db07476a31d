"""Self-play learners: WoLF-PHC, a restricted-space variant, and Q-learning.

WoLF-PHC is policy hill-climbing with a variable step: after the usual
Q-value estimate update, the policy moves probability mass toward the
greedy action by delta_win when the learner is "winning" (its current
mixed policy scores strictly better against its own Q-values than its
historical average policy) and by the larger delta_lose otherwise.
Equality counts as losing, which keeps the rule deterministic and learns
fast when not strictly ahead.

The restricted variant runs the identical update (``wolf_phc_step``) over
a fixed set of generator strategies instead of primitive actions: the
learner samples a generator from its weight vector, executes a primitive
action drawn from that generator, and hill-climbs in the weight simplex.
Its induced explicit policy is the weight-blend of the generators, so by
construction it never leaves the hull.

Matches are single-threaded and own their mutable state; the RNG is seeded
per match and split per player, so a (seed, config, game) triple fixes the
whole trajectory bit-exactly.  Step functions mutate the learner in place
and return it.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

import numpy as np

from .games import (
    JointPolicy,
    MalformedInputError,
    Policy,
    StochasticGame,
)
from .restrictions import ConvexHullGlobal


@dataclass(frozen=True, slots=True)
class WolfPhcConfig:
    """Hyperbolic schedules for the learning, hill-climb, and exploration rates.

    alpha(t)      = 1 / (alpha_offset + t / alpha_scale)
    delta_win(t)  = 1 / (win_offset + t / win_scale)
    delta_lose(t) = lose_ratio * delta_win(t)
    explore(t)    = explore_base / (1 + t / explore_scale)

    Defaults are tuned for the million-iteration reproduction runs.  The
    hill-climb step must stay well below the effective Q tracking rate for
    rarely-played actions (roughly alpha * explore / arms), otherwise
    self-play cycles along the simplex boundary instead of spiralling in;
    hence the slow delta decay and the slowly-decaying exploration.
    """

    alpha_offset: float = 10.0
    alpha_scale: float = 10000.0
    win_offset: float = 20000.0
    win_scale: float = 1.0
    lose_ratio: float = 4.0
    explore_base: float = 0.2
    explore_scale: float = 300000.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.alpha_offset < 1.0 or self.win_offset < 1.0:
            raise MalformedInputError("rate offsets must be >= 1 so rates stay in (0, 1]")
        if self.alpha_scale <= 0 or self.win_scale <= 0 or self.explore_scale <= 0:
            raise MalformedInputError("schedule scales must be positive")
        if self.lose_ratio <= 1.0:
            raise MalformedInputError("delta_lose must exceed delta_win at every step")
        if not (0.0 <= self.explore_base < 1.0):
            raise MalformedInputError("exploration base must lie in [0, 1)")
        if not (0.0 <= self.gamma < 1.0):
            raise MalformedInputError("gamma must lie in [0, 1)")

    def alpha(self, t: int) -> float:
        return 1.0 / (self.alpha_offset + t / self.alpha_scale)

    def delta_win(self, t: int) -> float:
        return 1.0 / (self.win_offset + t / self.win_scale)

    def delta_lose(self, t: int) -> float:
        return self.lose_ratio * self.delta_win(t)

    def explore(self, t: int) -> float:
        return self.explore_base / (1.0 + t / self.explore_scale)

    def to_dict(self) -> dict:
        return {
            "alpha": {"offset": self.alpha_offset, "scale": self.alpha_scale},
            "delta_win": {"offset": self.win_offset, "scale": self.win_scale},
            "delta_lose_ratio": self.lose_ratio,
            "explore": {"base": self.explore_base, "scale": self.explore_scale},
            "gamma": self.gamma,
        }

    @staticmethod
    def from_dict(data: dict) -> "WolfPhcConfig":
        try:
            return WolfPhcConfig(
                alpha_offset=float(data["alpha"]["offset"]),
                alpha_scale=float(data["alpha"]["scale"]),
                win_offset=float(data["delta_win"]["offset"]),
                win_scale=float(data["delta_win"]["scale"]),
                lose_ratio=float(data["delta_lose_ratio"]),
                explore_base=float(data["explore"]["base"]),
                explore_scale=float(data["explore"]["scale"]),
                gamma=float(data.get("gamma", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInputError(f"bad learner config: {exc}") from exc


@dataclass(slots=True)
class LearnerState:
    """Mutable per-player learning state.

    ``arms`` are primitive actions for the standard learner and hull
    generators for the restricted one; ``generators`` then holds the
    (arms, states, actions) tensor mapping weights to explicit play.
    """

    config: WolfPhcConfig
    q: list[list[float]]
    policy: list[list[float]]
    avg_policy: list[list[float]]
    counts: list[int]
    generators: np.ndarray | None = None
    last_delta_was_lose: bool = False

    @property
    def n_states(self) -> int:
        return len(self.q)

    @property
    def n_arms(self) -> int:
        return len(self.q[0])

    def explicit_row(self, s: int) -> list[float]:
        """The explicit action distribution played at state s."""
        if self.generators is None:
            return list(self.policy[s])
        w = np.asarray(self.policy[s])
        return (w @ self.generators[:, s, :]).tolist()


def fresh_learner(
    n_states: int,
    n_arms: int,
    config: WolfPhcConfig,
    generators: np.ndarray | None = None,
) -> LearnerState:
    return LearnerState(
        config=config,
        q=[[0.0] * n_arms for _ in range(n_states)],
        policy=[[1.0 / n_arms] * n_arms for _ in range(n_states)],
        avg_policy=[[1.0 / n_arms] * n_arms for _ in range(n_states)],
        counts=[0] * n_states,
        generators=generators,
    )


def wolf_phc_step(
    learner: LearnerState, s: int, a: int, r: float, s2: int, t: int
) -> LearnerState:
    """One WoLF-PHC update after playing arm ``a`` in state ``s`` at step ``t``.

    Order matters: Q first, then the visit count and incremental average
    policy, then the win test (strict inequality; ties lose), then the
    hill-climb with clip-and-renormalize projection back to the simplex.
    """
    cfg = learner.config
    q_row = learner.q[s]
    n = len(q_row)
    if not (0 <= a < n):
        raise MalformedInputError(f"arm {a} out of range for {n} arms")
    gamma = cfg.gamma
    target = r if gamma == 0.0 else r + gamma * max(learner.q[s2])
    q_row[a] += (target - q_row[a]) / (cfg.alpha_offset + t / cfg.alpha_scale)
    learner.counts[s] += 1
    inv_c = 1.0 / learner.counts[s]
    pol = learner.policy[s]
    avg = learner.avg_policy[s]
    # One pass: average-policy update, both expectations, greedy arm.
    exp_pol = 0.0
    exp_avg = 0.0
    greedy = 0
    best = q_row[0]
    for b in range(n):
        p = pol[b]
        qb = q_row[b]
        m = avg[b]
        m += (p - m) * inv_c
        avg[b] = m
        exp_pol += p * qb
        exp_avg += m * qb
        if qb > best:
            best = qb
            greedy = b
    delta_win = 1.0 / (cfg.win_offset + t / cfg.win_scale)
    losing = not (exp_pol > exp_avg)
    delta = cfg.lose_ratio * delta_win if losing else delta_win
    learner.last_delta_was_lose = losing
    if n > 1:
        dec = delta / (n - 1)
        total = 0.0
        for b in range(n):
            v = pol[b] + (delta if b == greedy else -dec)
            if v < 0.0:
                v = 0.0
            elif v > 1.0:
                v = 1.0
            pol[b] = v
            total += v
        inv_total = 1.0 / total
        pol[:] = [v * inv_total for v in pol]
    return learner


def q_learner_step(
    learner: LearnerState, s: int, a: int, r: float, s2: int, t: int
) -> LearnerState:
    """Standard Q-learning; the policy is the greedy pure strategy."""
    cfg = learner.config
    q_row = learner.q[s]
    n = len(q_row)
    if not (0 <= a < n):
        raise MalformedInputError(f"arm {a} out of range for {n} arms")
    gamma = cfg.gamma
    target = r if gamma == 0.0 else r + gamma * max(learner.q[s2])
    q_row[a] += (target - q_row[a]) / (cfg.alpha_offset + t / cfg.alpha_scale)
    learner.counts[s] += 1
    greedy = 0
    best = q_row[0]
    for b in range(1, n):
        if q_row[b] > best:
            best = q_row[b]
            greedy = b
    pol = learner.policy[s]
    for b in range(n):
        pol[b] = 1.0 if b == greedy else 0.0
    return learner


# ---------------------------------------------------------------------------
# Self-play
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlayerSpec:
    """What one seat runs: the algorithm, its schedules, and an optional hull."""

    algo: str = "wolf-phc"
    config: WolfPhcConfig = field(default_factory=WolfPhcConfig)
    space: ConvexHullGlobal | None = None

    def __post_init__(self) -> None:
        if self.algo not in ("wolf-phc", "q"):
            raise MalformedInputError(f"unknown learner algorithm {self.algo!r}")
        if self.algo == "q" and self.space is not None:
            raise MalformedInputError("the Q baseline does not support hull restriction")


@dataclass(frozen=True)
class CheckpointRow:
    iteration: int
    player: int
    state: str
    probs: tuple[float, ...]
    explicit: tuple[float, ...]
    inst_reward: float
    avg_reward: float


@dataclass
class TrajectoryLog:
    """Sampled self-play history plus exact running-average rewards."""

    states: tuple[str, ...]
    n_players: int
    iterations: int
    seed: int
    checkpoint_every: int
    rows: list[CheckpointRow]

    def player_rows(self, player: int, state: str | None = None) -> list[CheckpointRow]:
        state = state if state is not None else self.states[0]
        return [r for r in self.rows if r.player == player and r.state == state]

    def final_fraction_rows(
        self, player: int, fraction: float, state: str | None = None
    ) -> list[CheckpointRow]:
        rows = self.player_rows(player, state)
        cutoff = self.iterations * (1.0 - fraction)
        return [r for r in rows if r.iteration > cutoff]

    def mean_final_policy(
        self, player: int, fraction: float = 0.1, explicit: bool = True,
        state: str | None = None,
    ) -> np.ndarray:
        rows = self.final_fraction_rows(player, fraction, state)
        if not rows:
            raise ValueError("no checkpoints in the requested window")
        mats = [r.explicit if explicit else r.probs for r in rows]
        return np.mean(np.asarray(mats), axis=0)

    def window_average_reward(self, player: int, fraction: float = 0.1) -> float:
        """Exact mean instantaneous reward over the final fraction of steps.

        Recovered from the running averages at the window's edges, so it is
        exact despite checkpoint sampling.
        """
        rows = self.player_rows(player)
        cutoff = self.iterations * (1.0 - fraction)
        before = [r for r in rows if r.iteration <= cutoff]
        last = rows[-1]
        if not before:
            return last.avg_reward
        edge = before[-1]
        span = last.iteration - edge.iteration
        if span <= 0:
            return last.avg_reward
        total = last.avg_reward * last.iteration - edge.avg_reward * edge.iteration
        return total / span

    def stabilization_iteration(
        self, threshold: float = 0.01, window: int = 10_000
    ) -> int:
        """First checkpoint after which explicit-policy movement stays small.

        Movement at a checkpoint is the largest per-player L1 change of the
        explicit policy (summed over states) across the trailing ``window``
        iterations, rescaled to a per-``window`` rate.  Returns the first
        checkpoint iteration from which every later movement is below the
        threshold (the final iteration if never stable).

        One pass groups each player's explicit rows by checkpoint, in
        ``states`` order; each checkpoint's partner is the latest checkpoint
        at least ``window`` iterations earlier.
        """
        if window < 1:
            raise ValueError("window must be at least one iteration")
        order = {state: k for k, state in enumerate(self.states)}
        grouped: list[dict[int, list]] = [{} for _ in range(self.n_players)]
        for r in self.rows:
            grouped[r.player].setdefault(r.iteration, []).append((order[r.state], r.explicit))
        iters = sorted(grouped[0])
        its = np.asarray(iters, dtype=np.int64)
        prev = np.searchsorted(its, its - window, side="right") - 1
        cur = np.flatnonzero(prev >= 0)
        if cur.size == 0:
            return self.iterations
        prev = prev[cur]
        move = np.zeros(cur.size)
        for by_iter in grouped:
            series = np.array([
                [p for _, explicit in sorted(by_iter[it], key=itemgetter(0)) for p in explicit]
                for it in iters
            ])
            np.maximum(move, np.abs(series[cur] - series[prev]).sum(axis=1), out=move)
        rates = move * (window / (its[cur] - its[prev]))
        unstable = np.flatnonzero(~(rates < threshold))
        start = int(unstable[-1]) + 1 if unstable.size else 0
        return int(its[cur[start]]) if start < cur.size else self.iterations

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "iteration",
                    "player",
                    "state",
                    "action_or_generator_probs",
                    "explicit_policy_probs",
                    "inst_reward",
                    "avg_reward",
                ]
            )
            for r in self.rows:
                writer.writerow(
                    [
                        r.iteration,
                        r.player,
                        r.state,
                        ";".join(repr(float(p)) for p in r.probs),
                        ";".join(repr(float(p)) for p in r.explicit),
                        repr(float(r.inst_reward)),
                        repr(float(r.avg_reward)),
                    ]
                )


def load_trajectory_rows(path) -> list[CheckpointRow]:
    rows = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for record in csv.DictReader(fh):
            rows.append(
                CheckpointRow(
                    iteration=int(record["iteration"]),
                    player=int(record["player"]),
                    state=record["state"],
                    probs=tuple(
                        float(x) for x in record["action_or_generator_probs"].split(";")
                    ),
                    explicit=tuple(
                        float(x) for x in record["explicit_policy_probs"].split(";")
                    ),
                    inst_reward=float(record["inst_reward"]),
                    avg_reward=float(record["avg_reward"]),
                )
            )
    return rows


def _cumulative(rows: np.ndarray) -> list[list[float]]:
    return [list(np.cumsum(row)) for row in rows]


def self_play(
    game: StochasticGame,
    specs: Sequence[PlayerSpec],
    iterations: int,
    seed: int,
    checkpoint_every: int | None = None,
) -> TrajectoryLog:
    """Run simultaneous self-play and return the sampled trajectory.

    Matrix games play one simultaneous round per iteration; multi-state
    games follow the transition kernel from the initial state as a
    continuing task.  The same (game, specs, iterations, seed) always
    yields the identical log.
    """
    if len(specs) != game.n_players:
        raise MalformedInputError("need one player spec per player")
    if iterations < 1:
        raise MalformedInputError("iterations must be positive")
    if checkpoint_every is None:
        checkpoint_every = max(1, iterations // 2000)
    master = random.Random(seed)
    player_rngs = [random.Random(master.getrandbits(63)) for _ in specs]
    env_rng = random.Random(master.getrandbits(63))

    n = game.n_players
    n_states = game.n_states
    single_state = n_states == 1
    counts = game.action_counts
    strides = [int(np.prod(counts[i + 1 :])) for i in range(n)]
    rewards = [
        [[float(game.rewards[i, s, j]) for j in range(game.n_joint_actions)]
         for s in range(n_states)]
        for i in range(n)
    ]
    cum_t = None
    if not single_state:
        cum_t = [_cumulative(game.transition[s]) for s in range(n_states)]

    learners: list[LearnerState] = []
    arm_cumulative: list[list[list[list[float]]] | None] = []
    for i, spec in enumerate(specs):
        if spec.space is not None:
            if spec.space.n_states != n_states or spec.space.n_actions != counts[i]:
                raise MalformedInputError(f"player {i} hull does not match the game")
            gens = np.stack([g.probs for g in spec.space.generators])
            learners.append(fresh_learner(n_states, gens.shape[0], spec.config, gens))
            arm_cumulative.append([_cumulative(gens[:, s]) for s in range(n_states)])
        else:
            learners.append(fresh_learner(n_states, counts[i], spec.config))
            arm_cumulative.append(None)

    steps = [q_learner_step if spec.algo == "q" else wolf_phc_step for spec in specs]
    # Per-player constants of the sampling loop, bound once.
    seats = [
        (learner.policy, rng.random, learner.config.explore_base,
         learner.config.explore_scale, arm_cum, stride)
        for learner, rng, arm_cum, stride
        in zip(learners, player_rngs, arm_cumulative, strides)
    ]
    env_random = env_rng.random

    totals = [0.0] * n
    rows: list[CheckpointRow] = []
    s = game.initial_index
    arms = [0] * n
    for t in range(iterations):
        j = 0
        for i, seat in enumerate(seats):
            policy, rand, explore_base, explore_scale, arm_cum, stride = seat
            e = explore_base / (1.0 + t / explore_scale)
            pol = policy[s]
            k = len(pol)
            u = rand()
            acc = 0.0
            arm = k - 1
            uniform = e / k
            keep = 1.0 - e
            for b in range(k):
                acc += keep * pol[b] + uniform
                if u < acc:
                    arm = b
                    break
            arms[i] = arm
            if arm_cum is None:
                action = arm
            else:
                cum = arm_cum[s][arm]
                v = rand()
                action = len(cum) - 1
                for b, threshold in enumerate(cum):
                    if v < threshold:
                        action = b
                        break
            j += stride * action
        if single_state:
            s2 = 0
        else:
            cum = cum_t[s][j]
            v = env_random()
            s2 = len(cum) - 1
            for b, threshold in enumerate(cum):
                if v < threshold:
                    s2 = b
                    break
        for i in range(n):
            r = rewards[i][s][j]
            totals[i] += r
            steps[i](learners[i], s, arms[i], r, s2, t)
        if (t + 1) % checkpoint_every == 0:
            for i in range(n):
                inst = rewards[i][s][j]
                avg = totals[i] / (t + 1)
                for state_idx in range(n_states):
                    rows.append(
                        CheckpointRow(
                            iteration=t + 1,
                            player=i,
                            state=game.states[state_idx],
                            probs=tuple(learners[i].policy[state_idx]),
                            explicit=tuple(learners[i].explicit_row(state_idx)),
                            inst_reward=inst,
                            avg_reward=avg,
                        )
                    )
        s = s2
    return TrajectoryLog(
        states=game.states,
        n_players=n,
        iterations=iterations,
        seed=seed,
        checkpoint_every=checkpoint_every,
        rows=rows,
    )


def final_joint_policy(game: StochasticGame, log: TrajectoryLog) -> JointPolicy:
    """The explicit joint policy at the last checkpoint."""
    policies = []
    for i in range(game.n_players):
        rows_by_state = []
        for state in game.states:
            rows = [r for r in log.rows if r.player == i and r.state == state]
            rows_by_state.append(rows[-1].explicit)
        policies.append(Policy(np.asarray(rows_by_state)))
    return JointPolicy(tuple(policies))
