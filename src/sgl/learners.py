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
A seat takes a hull of one block (``PlayerSpec``): a global hull, or in a
one-state game any hull.  It learns one weight vector per state, so its
explicit policy stays in the hull in one-state games but can leave a
global hull, whose states share one weight vector, in a multi-state game.

Matches are single-threaded and own their mutable state; the RNG is seeded
per match and split per player, so a (seed, config, game) triple fixes the
whole trajectory bit-exactly.  Step functions mutate the learner in place
and return it.

``wolf_phc_step`` and ``q_learner_step`` are the single-step API.
``self_play`` does not call them: it runs one kernel, Python source
generated for the game's layout (player count, arms per seat, WoLF or Q,
hull or not, discounted or not, one state or many) and compiled once per
layout.  The kernel keeps each seat's rows in scalar locals and spells out
every update with constant indices, in the step functions' exact
expressions and summation order; each seeded ``random.Random`` stream is
handed to numpy and read in blocks of uniforms.  Its trajectories are
bit-identical to the per-iteration loop over the step functions, which the
tests keep as their oracle (``tests/util.py::reference_self_play``).

At each checkpoint the kernel appends one flat tuple (iteration, every
seat's last reward and reward total, every seat's policy rows), and
``self_play`` turns the list into one ``TrajectoryLog`` of arrays: a hull
seat's explicit play is one batched product per state.  The writers and
statistics read those arrays; ``TrajectoryLog.rows`` builds the row view
only when asked.
"""

from __future__ import annotations

import csv
import functools
import io
import random
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .games import (
    JointPolicy,
    MalformedInputError,
    Policy,
    StochasticGame,
    UnsupportedOperationError,
    _in_order,
    _number,
    _repr_rows,
    parses,
)
from .restrictions import ConvexHull


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
    @parses("learner config")
    def from_dict(data: dict) -> "WolfPhcConfig":
        alpha, win, lose_ratio, explore, gamma = _in_order(
            data, ("alpha", "delta_win", "delta_lose_ratio", "explore", "gamma"), "learner config"
        )
        return WolfPhcConfig(*map(_number, (
            *_in_order(alpha, ("offset", "scale"), "alpha schedule"),
            *_in_order(win, ("offset", "scale"), "delta_win schedule"),
            lose_ratio,
            *_in_order(explore, ("base", "scale"), "explore schedule"),
            gamma,
        )))


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
    """What one seat runs: the algorithm, its schedules, and its space.

    A seat without a space, or with a ``full`` one, plays its actions.  A
    hull of one block, as every hull of a one-state game is, makes a hull
    seat over its ``generators``.  Any other space is unsupported.
    """

    algo: str = "wolf-phc"
    config: WolfPhcConfig = field(default_factory=WolfPhcConfig)
    space: ConvexHull | None = None

    def __post_init__(self) -> None:
        if self.algo not in ("wolf-phc", "q"):
            raise MalformedInputError(f"unknown learner algorithm {self.algo!r}")
        if self.algo == "q" and self.generators is not None:
            raise MalformedInputError("the Q baseline does not support hull restriction")

    @property
    def generators(self) -> np.ndarray | None:
        """A hull seat's (arms, states, actions) generator table, or None for a
        seat that plays its actions."""
        if self.space is None or getattr(self.space, "variant", None) == "full":
            return None
        if self.space.as_hull() is not self.space or len(self.space.tables) != 1:
            raise UnsupportedOperationError("learners only support full spaces and hulls of one block")
        return self.space.tables[0]


@dataclass(frozen=True)
class CheckpointRow:
    iteration: int
    player: int
    state: str
    probs: tuple[float, ...]
    explicit: tuple[float, ...]
    inst_reward: float
    avg_reward: float


@dataclass(eq=False)
class TrajectoryLog:
    """Sampled self-play history plus exact running-average rewards, by column.

    ``checkpoints`` (N,) holds the iteration of each checkpoint.  Per seat
    i, at checkpoint n: ``probs[i][n]`` (states, arms) is the policy over the
    seat's arms (actions, or hull generators), ``explicit[i][n]`` (states,
    actions) the primitive play it induces, and ``inst_rewards[i][n]`` and
    ``avg_rewards[i][n]`` the last reward and the running average reward.
    A seat without a hull plays its arms, so one array is both its
    ``probs`` and its ``explicit``.
    """

    states: tuple[str, ...]
    n_players: int
    iterations: int
    seed: int
    checkpoint_every: int
    checkpoints: np.ndarray
    probs: tuple[np.ndarray, ...]
    explicit: tuple[np.ndarray, ...]
    inst_rewards: tuple[np.ndarray, ...]
    avg_rewards: tuple[np.ndarray, ...]

    @functools.cached_property
    def rows(self) -> list[CheckpointRow]:
        """One row per (checkpoint, player, state), in that order, built on first use."""
        seats = []
        for i in range(self.n_players):
            probs = [tuple(map(tuple, at)) for at in self.probs[i].tolist()]
            explicit = probs
            if self.explicit[i] is not self.probs[i]:
                explicit = [tuple(map(tuple, at)) for at in self.explicit[i].tolist()]
            seats.append((probs, explicit, self.inst_rewards[i].tolist(),
                          self.avg_rewards[i].tolist()))
        return [
            CheckpointRow(it, i, state, probs[n][s], explicit[n][s], inst[n], avg[n])
            for n, it in enumerate(self.checkpoints.tolist())
            for i, (probs, explicit, inst, avg) in enumerate(seats)
            for s, state in enumerate(self.states)
        ]

    def _window_start(self, fraction: float) -> int:
        """Index of the first checkpoint in the final ``fraction`` of the run."""
        cutoff = self.iterations * (1.0 - fraction)
        return int(np.searchsorted(self.checkpoints, cutoff, side="right"))

    def mean_final_policy(
        self, player: int, fraction: float = 0.1, explicit: bool = True,
        state: str | None = None,
    ) -> np.ndarray:
        s = 0 if state is None else self.states.index(state)
        table = (self.explicit if explicit else self.probs)[player]
        window = table[self._window_start(fraction):, s]
        if not len(window):
            raise ValueError("no checkpoints in the requested window")
        return np.mean(window, axis=0)

    def window_average_reward(self, player: int, fraction: float = 0.1) -> float:
        """Exact mean instantaneous reward over the final fraction of steps.

        Recovered from the running averages at the window's edges, so it is
        exact despite checkpoint sampling.
        """
        its = self.checkpoints.tolist()
        avg = self.avg_rewards[player].tolist()
        edge = self._window_start(fraction) - 1
        if edge < 0:
            return avg[-1]
        span = its[-1] - its[edge]
        if span <= 0:
            return avg[-1]
        total = avg[-1] * its[-1] - avg[edge] * its[edge]
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

        Each checkpoint's partner is the latest checkpoint at least
        ``window`` iterations earlier.
        """
        if window < 1:
            raise ValueError("window must be at least one iteration")
        its = self.checkpoints
        prev = np.searchsorted(its, its - window, side="right") - 1
        cur = np.flatnonzero(prev >= 0)
        if cur.size == 0:
            return self.iterations
        prev = prev[cur]
        move = np.zeros(cur.size)
        for explicit in self.explicit:
            series = explicit.reshape(its.size, -1)
            np.maximum(move, np.abs(series[cur] - series[prev]).sum(axis=1), out=move)
        rates = move * (window / (its[cur] - its[prev]))
        unstable = np.flatnonzero(~(rates < threshold))
        start = int(unstable[-1]) + 1 if unstable.size else 0
        return int(its[cur[start]]) if start < cur.size else self.iterations

    def to_csv(self, path) -> list[list[str]]:
        """Write one line per row, in the bytes ``csv.writer`` would produce.

        Each float column is formatted whole by ``_repr_rows`` (a float's
        ``repr`` never needs quoting); each state name, which may, is
        quoted once through ``csv.writer``.  Lines are assembled as they are
        written, so only the column texts are held.  Returns each seat's
        explicit play in the first state as texts, one per checkpoint with
        the entries separated by spaces, for writers of the same numbers to
        reuse.
        """
        its = [str(it) for it in self.checkpoints.tolist()]
        columns = []
        for i in range(self.n_players):
            inst = _repr_rows(self.inst_rewards[i])
            avg = _repr_rows(self.avg_rewards[i])
            for s, state in enumerate(self.states):
                buf = io.StringIO()
                csv.writer(buf).writerow([state, ""])
                head = f",{i},{buf.getvalue()[:-3]},"  # drop the ",\r\n" of the empty field
                probs = _repr_rows(self.probs[i][:, s])
                explicit = probs
                if self.explicit[i] is not self.probs[i]:
                    explicit = _repr_rows(self.explicit[i][:, s])
                columns.append((head, probs, explicit, inst, avg))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(
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
            fh.writelines(
                f"{it}{head}{probs[n]},{explicit[n]},{inst[n]},{avg[n]}\r\n"
                for n, it in enumerate(its)
                for head, probs, explicit, inst, avg in columns
            )
        return [
            "\n".join(column[2]).replace(";", " ").split("\n")
            for column in columns[::len(self.states)]
        ]


# Steps of uniforms drawn per stream at a time: a few thousand keep the
# draw lists small and the memory flat.
_BLOCK = 2048


def _uniform_stream(rng: random.Random) -> np.random.RandomState:
    """A numpy generator that continues ``rng``'s MT19937 stream exactly.

    Both turn two 32-bit outputs into a double the same way, so
    ``random_sample(n)`` returns the next n values of ``rng.random()``.
    """
    _, internal, _ = rng.getstate()
    stream = np.random.RandomState(0)
    stream.set_state(("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1]))
    return stream


class _SeatLayout(NamedTuple):
    """The integers that shape one seat's part of the generated kernel."""

    arms: int
    wolf: bool
    hull_actions: int  # primitive actions behind a hull seat's arms; 0 without a hull
    discounted: bool
    stride: int  # weight of this seat's action in the flat joint index


@functools.lru_cache(maxsize=32)
def _kernel(n_states: int, seats: tuple[_SeatLayout, ...]):
    """The compiled self-play loop for one layout (see ``_kernel_source``)."""
    namespace: dict = {}
    exec(compile(_kernel_source(n_states, seats), "<self-play kernel>", "exec"), namespace)
    return namespace["kernel"]


def _kernel_source(n_states: int, seats: tuple[_SeatLayout, ...]) -> str:
    """Python source of the whole self-play loop, unrolled for one layout.

    Seat i's policy, Q row and average policy at the current state are the
    locals ``p{i}_{b}``, ``q{i}_{b}`` and ``m{i}_{b}``: a matrix game keeps
    them for the whole run, a multi-state game loads them from per-state
    tuples each step and stores them back.  Every float is computed by the
    expression, and summed in the order, of the sampling loop,
    ``wolf_phc_step`` and ``q_learner_step``, so the trajectory is
    bit-identical to theirs.  Sums are chunked and picks are flat
    ``while True`` / ``break`` runs, so wide rows do not deepen the syntax
    tree.  At each checkpoint the loop appends one flat tuple to
    ``checkpoints``.  Only the layout's integers and fixed text enter the
    source.
    """
    if type(n_states) is not int or any(
        type(v) not in (int, bool) for seat in seats for v in seat
    ):
        raise TypeError("a kernel layout holds integers only")
    single = n_states == 1
    n = len(seats)
    lines = [
        "def kernel(iterations, s, every, block, seats, env, transitions, checkpoints):",
        "    " + ", ".join(
            f"(P{i}, Q{i}, M{i}, C{i}, R{i}, H{i}, rs{i}, eb{i}, es{i}, ao{i}, asc{i}, "
            f"wo{i}, ws{i}, lr{i}, g{i})" for i in range(n)) + ", = seats",
    ]

    def emit(depth: int, *texts: str) -> None:
        lines.extend("    " * depth + text for text in texts)

    def names(prefix: str, i: int, k: int) -> list[str]:
        return [f"{prefix}{i}_{b}" for b in range(k)]

    def tup(items: list[str]) -> str:
        return "(" + ", ".join(items) + ",)"

    def total(depth: int, out: str, terms: list[str]) -> None:
        # Added left to right, as the scalar loops accumulate.
        for k in range(0, len(terms), 32):
            emit(depth, f"{out} = " + " + ".join(([out] if k else []) + terms[k:k + 32]))

    def pick(depth: int, cases: list[tuple[str, str]], last: str) -> None:
        # Run the body of the first case whose test holds, else ``last``.
        if not cases:
            emit(depth, last)
            return
        emit(depth, "while True:")
        for test, body in cases:
            emit(depth + 1, f"if {test}: {body}; break")
        emit(depth + 1, f"{last}; break")

    def move_rows(depth: int, i: int, k: int, tables: str, load: bool) -> None:
        # Seat i's rows at the current state (row 0 in a matrix game) into
        # its locals, or back.
        for table in tables:
            local = tup(names(table.lower(), i, k))
            stored = f"{table}{i}[{'0' if single else 's'}]"
            emit(depth, f"{local} = {stored}" if load else f"{stored} = {local}")

    # Prologue: a matrix game holds every row in locals for the whole run.
    for i, seat in enumerate(seats):
        emit(1, f"tot{i} = 0.0")
        if single:
            move_rows(1, i, seat.arms, "PQM", load=True)
            emit(1, f"c{i} = C{i}[0]", f"R{i} = R{i}[0]")
            if seat.hull_actions:
                emit(1, f"H{i} = H{i}[0]")
    emit(1, "save = checkpoints.append", "nxt = every - 1", "t0 = 0", "while t0 < iterations:")
    emit(2, "nb = min(block, iterations - t0)")
    targets, sources = ["t"], ["range(t0, t0 + nb)"]
    for i, seat in enumerate(seats):
        emit(2, f"U{i} = rs{i}.random_sample({'(nb, 2)' if seat.hull_actions else 'nb'}).tolist()")
        targets.append(f"(u{i}, h{i})" if seat.hull_actions else f"u{i}")
        sources.append(f"U{i}")
    if not single:
        emit(2, "W = env.random_sample(nb).tolist()")
        targets.append("w")
        sources.append("W")
    emit(2, f"for {', '.join(targets)} in zip({', '.join(sources)}):")

    # Sampling: each seat's arm from its exploring policy mix, a hull seat's
    # action from that arm's generator, then the next state.
    joint = []
    for i, seat in enumerate(seats):
        k = seat.arms
        p = names("p", i, k)
        if not single:
            move_rows(3, i, k, "P", load=True)
        if k == 1:
            emit(3, f"a{i} = 0")
        else:
            emit(3, f"explore = eb{i} / (1.0 + t / es{i})", f"uniform = explore / {k}",
                 "keep = 1.0 - explore", "while True:")
            for b in range(k - 1):
                emit(4, f"acc {'=' if b == 0 else '+='} keep * {p[b]} + uniform",
                     f"if u{i} < acc: a{i} = {b}; break")
            emit(4, f"a{i} = {k - 1}; break")
        action = f"a{i}"
        if seat.hull_actions:
            emit(3, f"cum = H{i}[a{i}]" if single else f"cum = H{i}[s][a{i}]")
            pick(3, [(f"h{i} < cum[{b}]", f"x{i} = {b}") for b in range(seat.hull_actions - 1)],
                 f"x{i} = {seat.hull_actions - 1}")
            action = f"x{i}"
        joint.append(action if seat.stride == 1 else f"{seat.stride} * {action}")
    emit(3, "j = " + " + ".join(joint))
    if not single:
        emit(3, "cum = transitions[s][j]")
        pick(3, [(f"w < cum[{b}]", f"s2 = {b}") for b in range(n_states - 1)],
             f"s2 = {n_states - 1}")

    # Updates: reward, the Q step, then WoLF's average policy, expectations
    # and hill-climb, or Q-learning's greedy pure policy.
    for i, seat in enumerate(seats):
        k = seat.arms
        p, q, m = names("p", i, k), names("q", i, k), names("m", i, k)
        emit(3, f"r{i} = R{i}[j]" if single else f"r{i} = R{i}[s][j]", f"tot{i} += r{i}")
        if not single:
            move_rows(3, i, k, "QM", load=True)
            emit(3, f"c{i} = C{i}[s]")
        if not seat.discounted:
            emit(3, f"target = r{i}")
        elif single:
            emit(3, f"top = {q[0]}", *(f"if {qb} > top: top = {qb}" for qb in q[1:]),
                 f"target = r{i} + g{i} * top")
        else:
            emit(3, f"target = r{i} + g{i} * max(Q{i}[s2])")
        emit(3, f"rate = ao{i} + t / asc{i}")
        pick(3, [(f"a{i} == {b}", f"{q[b]} += (target - {q[b]}) / rate") for b in range(k - 1)],
             f"{q[-1]} += (target - {q[-1]}) / rate")
        emit(3, f"c{i} += 1", "greedy = 0", f"best = {q[0]}",
             *(f"if {q[b]} > best: best = {q[b]}; greedy = {b}" for b in range(1, k)))
        if not seat.wolf:
            emit(3, *(f"{pb} = 0.0" for pb in p))
            pick(3, [(f"greedy == {b}", f"{p[b]} = 1.0") for b in range(k - 1)], f"{p[-1]} = 1.0")
        elif k > 1:
            emit(3, f"inv_c = 1.0 / c{i}",
                 *(f"{m[b]} += ({p[b]} - {m[b]}) * inv_c" for b in range(k)))
            total(3, "exp_pol", [f"{p[b]} * {q[b]}" for b in range(k)])
            total(3, "exp_avg", [f"{m[b]} * {q[b]}" for b in range(k)])
            emit(3, f"delta_win = 1.0 / (wo{i} + t / ws{i})",
                 f"delta = delta_win if exp_pol > exp_avg else lr{i} * delta_win",
                 f"dec = delta / {k - 1}",
                 *(f"v{b} = {p[b]} - dec" for b in range(k)))
            pick(3, [(f"greedy == {b}", f"v{b} = {p[b]} + delta") for b in range(k - 1)],
                 f"v{k - 1} = {p[-1]} + delta")
            for b in range(k):
                emit(3, f"if v{b} < 0.0: v{b} = 0.0", f"elif v{b} > 1.0: v{b} = 1.0")
            total(3, "total", [f"v{b}" for b in range(k)])
            emit(3, "inv_total = 1.0 / total", *(f"{p[b]} = v{b} * inv_total" for b in range(k)))
        if not single:
            move_rows(3, i, k, "PQM", load=False)
            emit(3, f"C{i}[s] = c{i}")

    # Checkpoint: one flat tuple of the iteration, each seat's last reward
    # and reward total, then each seat's policy rows state by state.
    policies = [
        ", ".join(names("p", i, seat.arms)) if single
        else ", ".join(f"*P{i}[{k}]" for k in range(n_states))
        for i, seat in enumerate(seats)
    ]
    emit(3, "if t == nxt:")
    emit(4, "nxt += every")
    emit(4, "save((t + 1, " + ", ".join(
        [f"r{i}" for i in range(n)] + [f"tot{i}" for i in range(n)] + policies) + "))")
    if not single:
        emit(3, "s = s2")
    emit(2, "t0 += nb")
    return "\n".join(lines) + "\n"


def _cumulative(rows: np.ndarray) -> list[tuple[float, ...]]:
    return [tuple(np.cumsum(row).tolist()) for row in rows]


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
    yields the identical log.  The loop is the kernel ``_kernel_source``
    generates for the game's layout; each seat (and, in a multi-state
    game, the environment) draws its uniforms in blocks from its own
    seeded stream.
    """
    if len(specs) != game.n_players:
        raise MalformedInputError("need one player spec per player")
    if iterations < 1:
        raise MalformedInputError("iterations must be positive")
    if checkpoint_every is None:
        checkpoint_every = max(1, iterations // 2000)
    if checkpoint_every < 1:
        raise MalformedInputError("checkpoint_every must be positive")
    master = random.Random(seed)
    player_rngs = [random.Random(master.getrandbits(63)) for _ in specs]
    env_rng = random.Random(master.getrandbits(63))

    n = game.n_players
    n_states = game.n_states
    counts = game.action_counts
    rewards = np.asarray(game.rewards, dtype=float)
    layouts, seats, hulls = [], [], []
    for i, (spec, rng) in enumerate(zip(specs, player_rngs)):
        cfg = spec.config
        space = spec.space
        if space is not None and (space.n_states, space.n_actions) != (n_states, counts[i]):
            raise MalformedInputError(f"player {i}'s space does not match the game")
        hull = spec.generators
        arms = counts[i] if hull is None else hull.shape[0]
        layouts.append(_SeatLayout(
            arms=int(arms), wolf=spec.algo == "wolf-phc",
            hull_actions=0 if hull is None else int(counts[i]),
            discounted=cfg.gamma != 0.0, stride=int(np.prod(counts[i + 1:])),
        ))
        seats.append((
            [(1.0 / arms,) * arms] * n_states, [(0.0,) * arms] * n_states,
            [(1.0 / arms,) * arms] * n_states, [0] * n_states,
            [tuple(row) for row in rewards[i].tolist()],
            None if hull is None else [_cumulative(hull[:, s]) for s in range(n_states)],
            _uniform_stream(rng), cfg.explore_base, cfg.explore_scale, cfg.alpha_offset,
            cfg.alpha_scale, cfg.win_offset, cfg.win_scale, cfg.lose_ratio, cfg.gamma,
        ))
        hulls.append(hull)
    env, transitions = None, None
    if n_states > 1:
        env = _uniform_stream(env_rng)
        transitions = [_cumulative(game.transition[s]) for s in range(n_states)]

    checkpoints: list[tuple] = []
    kernel = _kernel(n_states, tuple(layouts))
    kernel(iterations, game.initial_index, checkpoint_every, _BLOCK, seats, env,
           transitions, checkpoints)
    # Every entry is a float or an iteration below 2**53, so float64 holds
    # them all exactly, and the division is the running average's own.
    table = np.array(checkpoints, dtype=float).reshape(
        len(checkpoints), 1 + 2 * n + n_states * sum(seat.arms for seat in layouts))
    probs, explicit = [], []
    col = 1 + 2 * n
    for seat, hull in zip(layouts, hulls):
        width = n_states * seat.arms
        weights = np.ascontiguousarray(table[:, col:col + width]).reshape(-1, n_states, seat.arms)
        col += width
        probs.append(weights)
        if hull is None:
            explicit.append(weights)
        else:
            # Row by row, (1, arms) @ (arms, actions): the product a single
            # row's vector-matrix product computes, bit for bit.
            explicit.append(np.stack([
                np.matmul(weights[:, s, np.newaxis, :], hull[:, s, :])[:, 0, :]
                for s in range(n_states)
            ], axis=1))
    return TrajectoryLog(
        states=game.states,
        n_players=n,
        iterations=iterations,
        seed=seed,
        checkpoint_every=checkpoint_every,
        checkpoints=table[:, 0].astype(np.int64),
        probs=tuple(probs),
        explicit=tuple(explicit),
        inst_rewards=tuple(table[:, 1 + i].copy() for i in range(n)),
        avg_rewards=tuple(table[:, 1 + n + i] / table[:, 0] for i in range(n)),
    )


def final_joint_policy(log: TrajectoryLog) -> JointPolicy:
    """The explicit joint policy at the last checkpoint."""
    return JointPolicy(tuple(Policy(explicit[-1]) for explicit in log.explicit))
