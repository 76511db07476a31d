"""Finite stochastic games in exact tabular form.

A game couples n players, a finite state list S, per-player finite action
lists A_i, a transition kernel T(s, a, s') over joint actions a, and one
reward table R_i(s, a) per player.  Matrix games are the |S| = 1 case and
MDPs the n = 1 case.

Joint actions are indexed in row-major order over per-player action
indices, and that flat index is used everywhere: the transition tensor has
shape (|S|, prod |A_i|, |S|) and the reward tensor (n, |S|, prod |A_i|).
Row-major order is also the on-disk convention, so files and in-memory
tables agree without remapping.  In a file, every object keyed by field,
state or joint action (a game and its transitions and rewards, a policy,
a statewise hull's generators, a learner config) lists exactly its keys,
and a joint key is ``"i,j"``, as ``save_game`` writes it, with no padding.

Tolerances: STRUCTURAL_TOL guards structural identities (rows summing to
one, exact payoff equalities) and VALUE_TOL guards solved linear systems.
Probability rows read from files (transitions, policies, hull generators)
may miss the simplex by LOAD_TOL; ``load_distribution`` repairs them.

``Policy``, ``JointPolicy`` and ``StochasticGame`` hold arrays, which have
no single truth value, so they compare and hash by identity.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

STRUCTURAL_TOL = 1e-12
VALUE_TOL = 1e-10
LOAD_TOL = 1e-9


class MalformedInputError(ValueError):
    """A file or in-memory structure violates the game/policy/space schema."""


class UnsupportedOperationError(ValueError):
    """The requested operation is not defined for this input combination."""


class ErgodicityError(ValueError):
    """An average-reward game fails the support-union check of
    ``values.check_ergodic``, the paper's assumption; no policy's chain is
    refused, since every chain has gains."""


# ---------------------------------------------------------------------------
# Reward formulations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Discounted:
    """Geometrically discounted reward with factor ``gamma`` in (0, 1)."""

    gamma: float

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma < 1.0):
            raise MalformedInputError(f"gamma must lie in (0, 1), got {self.gamma}")


@dataclass(frozen=True)
class Average:
    """Long-run average reward: each state's gain, defined for every chain."""


RewardFormulation = Discounted | Average


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


def check_strategy(probs: np.ndarray, tol: float = STRUCTURAL_TOL) -> None:
    """Raise unless ``probs`` is a probability vector within ``tol``.

    Both tests are written so that NaN fails them, so a NaN or infinite
    entry is rejected too.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise MalformedInputError("mixed strategy must be a 1-D vector")
    if not np.all(probs >= -tol):
        raise MalformedInputError(f"negative or NaN strategy entry in {probs}")
    if not abs(probs.sum() - 1.0) <= tol:
        raise MalformedInputError(f"strategy does not sum to 1: {probs}")


def _frozen_array(a: np.ndarray | Sequence, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Policy:
    """One player's per-state mixed strategies, as a (|S|, |A_i|) array."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.probs)
        if arr.ndim != 2:
            raise MalformedInputError("policy array must be (states, actions)")
        object.__setattr__(self, "probs", arr)
        for row in arr:
            check_strategy(row)

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def n_actions(self) -> int:
        return self.probs.shape[1]

    @staticmethod
    def uniform(n_states: int, n_actions: int) -> "Policy":
        return Policy(np.full((n_states, n_actions), 1.0 / n_actions))

    @staticmethod
    def pure(n_states: int, n_actions: int, choices: Sequence[int]) -> "Policy":
        probs = np.zeros((n_states, n_actions))
        probs[np.arange(n_states), list(choices)] = 1.0
        return Policy(probs)

    @staticmethod
    def state_uniform(n_states: int, strategy: Sequence[float]) -> "Policy":
        """The policy playing the same mixed strategy in every state."""
        return Policy(np.tile(np.asarray(strategy, dtype=float), (n_states, 1)))


@dataclass(frozen=True, eq=False)
class JointPolicy:
    """One policy per player, in player order."""

    policies: tuple[Policy, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "policies", tuple(self.policies))

    def __getitem__(self, i: int) -> Policy:
        return self.policies[i]

    def __len__(self) -> int:
        return len(self.policies)

    def replace(self, i: int, policy: Policy) -> "JointPolicy":
        parts = list(self.policies)
        parts[i] = policy
        return JointPolicy(tuple(parts))

    @staticmethod
    def uniform(game: "StochasticGame") -> "JointPolicy":
        return JointPolicy(
            tuple(
                Policy.uniform(len(game.states), len(acts))
                for acts in game.action_sets
            )
        )


# ---------------------------------------------------------------------------
# The game tuple
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StochasticGame:
    """The tuple (n, S, A_1..n, T, R_1..n) plus an initial state and criterion.

    ``transition[s, j, s']`` is the probability of moving to state s' when
    joint action j (flat row-major index) is played in state s, and
    ``rewards[i, s, j]`` is player i's immediate reward there.
    """

    states: tuple[str, ...]
    action_sets: tuple[tuple[str, ...], ...]
    transition: np.ndarray
    rewards: np.ndarray
    initial_state: str
    formulation: RewardFormulation

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(
            self, "action_sets", tuple(tuple(a) for a in self.action_sets)
        )
        object.__setattr__(self, "transition", _frozen_array(self.transition))
        object.__setattr__(self, "rewards", _frozen_array(self.rewards))

    @property
    def n_players(self) -> int:
        return len(self.action_sets)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.action_sets)

    @property
    def n_joint_actions(self) -> int:
        return int(np.prod(self.action_counts))

    @property
    def initial_index(self) -> int:
        return self.states.index(self.initial_state)

    @property
    def is_matrix_game(self) -> bool:
        return self.n_states == 1

    def joint_index(self, actions: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(actions), self.action_counts))

    def joint_actions(self) -> Iterator[tuple[int, ...]]:
        """All joint action tuples, in flat (row-major) index order."""
        return itertools.product(*(range(k) for k in self.action_counts))

    def require_finite(self) -> None:
        """Raise unless every reward and transition entry is finite.

        A game is built unchecked so that ``validate`` can list everything
        wrong with it; ``matrix_game`` and the exact matrix solvers call
        this instead.
        """
        problems = _non_finite(self)
        if problems:
            raise MalformedInputError(problems[0])

    def payoff_matrix(self, player: int) -> np.ndarray:
        """For a 2-player matrix game, player's payoffs as an (|A_1|, |A_2|) array."""
        if not self.is_matrix_game or self.n_players != 2:
            raise UnsupportedOperationError("payoff_matrix needs a 2-player matrix game")
        return self.rewards[player, 0].reshape(self.action_counts)


def _non_finite(game: StochasticGame) -> list[str]:
    """The problems ``validate`` reports for non-finite rewards or transitions."""
    problems = []
    if not np.all(np.isfinite(game.rewards)):
        problems.append("non-finite reward entries")
    if not np.all(np.isfinite(game.transition)):
        problems.append("non-finite transition entries")
    return problems


def validate(game: StochasticGame) -> list[str]:
    """Check every structural invariant; returns violations (empty = valid)."""
    problems: list[str] = []
    n, s, j = game.n_players, game.n_states, game.n_joint_actions
    if n < 1:
        problems.append("player count must be at least 1")
    if s < 1:
        problems.append("state list is empty")
    if len(set(game.states)) != s:
        problems.append("duplicate state identifiers")
    for i, acts in enumerate(game.action_sets):
        if len(acts) < 1:
            problems.append(f"player {i} has no actions")
        if len(set(acts)) != len(acts):
            problems.append(f"player {i} has duplicate action identifiers")
    if game.transition.shape != (s, j, s):
        problems.append(
            f"transition shape {game.transition.shape} != {(s, j, s)}"
        )
        return problems
    if game.rewards.shape != (n, s, j):
        problems.append(f"rewards shape {game.rewards.shape} != {(n, s, j)}")
        return problems
    if game.initial_state not in game.states:
        problems.append(f"initial state {game.initial_state!r} not in state list")
    problems.extend(_non_finite(game))
    if np.any(game.transition < -STRUCTURAL_TOL):
        problems.append("negative transition probabilities")
    sums = game.transition.sum(axis=2)
    bad = np.argwhere(np.abs(sums - 1.0) > STRUCTURAL_TOL)
    for s_idx, j_idx in bad:
        actions = np.unravel_index(j_idx, game.action_counts)
        problems.append(
            f"transition row for state {game.states[s_idx]!r}, joint action "
            f"{tuple(int(a) for a in actions)} sums to {sums[s_idx, j_idx]!r}"
        )
    return problems


# ---------------------------------------------------------------------------
# Structural classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameClassification:
    is_zero_sum: bool
    is_no_control: bool
    is_single_controller: tuple[bool, ...]
    is_team: bool


def classify(game: StochasticGame, tol: float = STRUCTURAL_TOL) -> GameClassification:
    """Exact structural predicates, evaluated over all (s, a) pairs.

    ``is_single_controller[i]`` is true when transitions depend on player
    i's action component alone (vacuously true for action-independent
    transitions, so a no-control game is single-controller for everyone).
    """
    zero_sum = bool(np.all(np.abs(game.rewards.sum(axis=0)) <= tol))
    team = bool(
        all(
            np.all(np.abs(game.rewards[i] - game.rewards[0]) <= tol)
            for i in range(1, game.n_players)
        )
    )
    # Reshape to (S, A_1, ..., A_n, S) so per-player dependence is an axis check.
    shaped = game.transition.reshape(
        (game.n_states, *game.action_counts, game.n_states)
    )
    varies = []
    for i in range(game.n_players):
        ref = shaped.take(indices=0, axis=1 + i)
        varies.append(any(
            np.max(np.abs(shaped.take(indices=k, axis=1 + i) - ref)) > tol
            for k in range(1, game.action_counts[i])
        ))
    # Player i is the sole controller iff no other player's axis varies.
    controllers = [not any(varies[:i] + varies[i + 1:]) for i in range(game.n_players)]
    return GameClassification(
        is_zero_sum=zero_sum,
        is_no_control=not any(varies),
        is_single_controller=tuple(controllers),
        is_team=team,
    )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def matrix_game(
    payoffs: Sequence[np.ndarray],
    action_names: Sequence[Sequence[str]] | None = None,
    formulation: RewardFormulation = Average(),
    state_name: str = "s0",
) -> StochasticGame:
    """A single-state game from per-player payoff tensors of shape |A_1| x ... x |A_n|."""
    tensors = [np.asarray(p, dtype=float) for p in payoffs]
    shape = tensors[0].shape
    n = len(tensors)
    if any(t.shape != shape for t in tensors):
        raise MalformedInputError("players' payoff tensors must share one shape")
    if len(shape) != n:
        raise MalformedInputError("payoff tensor rank must equal the player count")
    if action_names is None:
        action_names = [[f"a{k}" for k in range(m)] for m in shape]
    j = int(np.prod(shape))
    transition = np.ones((1, j, 1))
    rewards = np.stack([t.reshape(1, j) for t in tensors])
    game = StochasticGame(
        states=(state_name,),
        action_sets=tuple(tuple(a) for a in action_names),
        transition=transition,
        rewards=rewards,
        initial_state=state_name,
        formulation=formulation,
    )
    game.require_finite()
    return game


ROCK_PAPER_SCISSORS_ROW = np.array(
    [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]
)


def rps(formulation: RewardFormulation = Average()) -> StochasticGame:
    """Rock-Paper-Scissors, zero-sum: row wins +1 against the losing action."""
    return matrix_game(
        [ROCK_PAPER_SCISSORS_ROW, -ROCK_PAPER_SCISSORS_ROW],
        action_names=[("Rock", "Paper", "Scissors")] * 2,
        formulation=formulation,
    )


def bach_stravinsky(formulation: RewardFormulation = Average()) -> StochasticGame:
    """Bach-or-Stravinsky coordination game; each player prefers a different event."""
    row = np.array([[2.0, 0.0], [0.0, 1.0]])
    col = np.array([[1.0, 0.0], [0.0, 2.0]])
    return matrix_game(
        [row, col],
        action_names=[("Bach", "Stravinsky")] * 2,
        formulation=formulation,
    )


BLOTTO_ROW = np.array(
    [
        [4.0, 2.0, 1.0, 0.0],
        [1.0, 3.0, 0.0, -1.0],
        [-2.0, 2.0, 2.0, -2.0],
        [-1.0, 0.0, 3.0, 1.0],
        [0.0, 1.0, 2.0, 4.0],
    ]
)


def blotto_4_3(formulation: RewardFormulation = Average()) -> StochasticGame:
    """Colonel Blotto with 4 row regiments against 3 column regiments.

    Each player splits its regiments across two battlefields; outflanking a
    battlefield wins one plus the number of defeated regiments, and ties pay
    zero. Actions are labelled by the split, e.g. "3-1".
    """
    return matrix_game(
        [BLOTTO_ROW, -BLOTTO_ROW],
        action_names=[
            ("4-0", "3-1", "2-2", "1-3", "0-4"),
            ("3-0", "2-1", "1-2", "0-3"),
        ],
        formulation=formulation,
    )


# Default stage payoffs for the two-branch game below, to the row player.
# They are chosen so that, when both players must reuse one mixed strategy
# in every state, the column player's best responses are always pure: with
# row weight u on U, the unique best response picks the left branch for
# u < 1/2 and the right branch for u > 1/2, and at u = 1/2 both pure
# branches tie while every strict mixture does worse.
FACT5_LEFT = ((1.0, 0.0), (0.0, 2.0))
FACT5_RIGHT = ((2.0, 0.0), (0.0, 1.0))


def fact5_game(
    left: Sequence[Sequence[float]] = FACT5_LEFT,
    right: Sequence[Sequence[float]] = FACT5_RIGHT,
    eps: float = 0.1,
    gamma: float = 0.95,
    formulation: RewardFormulation | None = None,
) -> StochasticGame:
    """Three-state zero-sum game whose branch choice belongs to the column player.

    From the start state the column player's action steers play into the
    "left" or "right" 2x2 stage game (reaching the named branch with
    probability 1 - eps and the opposite one with probability eps,
    regardless of the row player's action); both branches pay the shown
    row payoff and return deterministically to the start state, which
    itself pays nothing.
    """
    left_m = np.asarray(left, dtype=float)
    right_m = np.asarray(right, dtype=float)
    if left_m.shape != (2, 2) or right_m.shape != (2, 2):
        raise MalformedInputError("branch payoff matrices must be 2x2")
    if not (0.0 < eps < 1.0):
        raise MalformedInputError(f"eps must lie in (0, 1), got {eps}")
    states = ("s0", "left", "right")
    action_sets = (("U", "D"), ("L", "R"))
    transition = np.zeros((3, 4, 3))
    rewards = np.zeros((2, 3, 4))
    for r in range(2):
        for c in range(2):
            j = 2 * r + c
            target, other = (1, 2) if c == 0 else (2, 1)
            transition[0, j, target] = 1.0 - eps
            transition[0, j, other] = eps
            transition[1, j, 0] = 1.0
            transition[2, j, 0] = 1.0
            rewards[0, 1, j] = left_m[r, c]
            rewards[0, 2, j] = right_m[r, c]
    rewards[1] = -rewards[0]
    return StochasticGame(
        states=states,
        action_sets=action_sets,
        transition=transition,
        rewards=rewards,
        initial_state="s0",
        formulation=formulation if formulation is not None else Discounted(gamma),
    )


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def parses(what: str):
    """Make a parser of JSON data raise MalformedInputError on a missing key or
    a value of the wrong type.

    Every statement of such a parser reads outside input, so a KeyError,
    TypeError, ValueError or AttributeError raised in it means the input is
    malformed, not that the program is at fault.
    """

    def decorate(parse):
        @functools.wraps(parse)
        def checked(*args):
            try:
                return parse(*args)
            except MalformedInputError:
                raise
            except KeyError as exc:
                raise MalformedInputError(f"{what} lacks the key {exc}") from exc
            except (AttributeError, TypeError, ValueError) as exc:
                raise MalformedInputError(f"malformed {what}: {exc}") from exc

        return checked

    return decorate


def _repr_rows(mat: np.ndarray, sep: str = ";") -> list[str]:
    """Each row of a float array as its entries' ``repr``s joined by ``sep``.

    The rows of a 1-D array are its entries.  One C-level ``repr`` of the
    (nested) list, then one split: a float's ``repr`` holds no comma, space
    or bracket.  The text is the same as joining ``repr(float(x))`` row by
    row, ``-0.0`` included.
    """
    if not len(mat):
        return []
    if mat.ndim == 1:
        return repr(mat.tolist())[1:-1].split(", ")
    return repr(mat.tolist())[2:-2].replace(", ", sep).split(f"]{sep}[")


def load_distribution(row: np.ndarray, what: str) -> np.ndarray:
    """A probability row read from a file, allowed LOAD_TOL of slop.

    A row within STRUCTURAL_TOL of the simplex is returned unchanged; any
    other row within LOAD_TOL is clipped at 0 and renormalized, so what is
    stored meets the STRUCTURAL_TOL invariant that ``Policy``, the hulls and
    ``validate`` check.
    """
    if not np.all(np.isfinite(row)):
        raise MalformedInputError(f"non-finite {what} entries: {row.tolist()}")
    if np.any(row < -LOAD_TOL) or abs(row.sum() - 1.0) > LOAD_TOL:
        raise MalformedInputError(f"{what} is not a distribution: {row.tolist()}")
    if np.all(row >= -STRUCTURAL_TOL) and abs(row.sum() - 1.0) <= STRUCTURAL_TOL:
        return row
    row = np.clip(row, 0.0, None)
    return row / row.sum()


def _number(value) -> float:
    """A JSON number as a float; a string, boolean or null is malformed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedInputError(f"expected a number, got {value!r}")
    return float(value)


def _joint_key(actions: Sequence[int]) -> str:
    return ",".join(str(int(a)) for a in actions)


def _in_order(data, keys: Sequence[str], what: str) -> list:
    """The values of the JSON object ``data`` at ``keys``, in that order.  An
    object with a missing, unknown or differently spelt key is malformed."""
    if not isinstance(data, dict):
        raise MalformedInputError(f"{what} must be a JSON object")
    if data.keys() != set(keys):
        missing, unknown = sorted(set(keys) - data.keys()), sorted(data.keys() - set(keys))
        raise MalformedInputError(f"{what} lacks the keys {missing}; unknown keys {unknown}")
    return [data[key] for key in keys]


_GAME_KEYS = (
    "players", "states", "actions", "initial_state", "formulation", "transitions", "rewards"
)


def game_to_dict(game: StochasticGame) -> dict:
    """Serialize to the on-disk schema (states by name, joint actions by key)."""
    transitions: dict[str, dict[str, dict[str, float]]] = {}
    for s, state in enumerate(game.states):
        per_state: dict[str, dict[str, float]] = {}
        for actions in game.joint_actions():
            j = game.joint_index(actions)
            row = game.transition[s, j]
            per_state[_joint_key(actions)] = {
                game.states[t]: float(row[t]) for t in range(game.n_states) if row[t] != 0.0
            }
        transitions[state] = per_state
    rewards = []
    for i in range(game.n_players):
        per_player: dict[str, dict[str, float]] = {}
        for s, state in enumerate(game.states):
            per_player[state] = {
                _joint_key(actions): float(game.rewards[i, s, game.joint_index(actions)])
                for actions in game.joint_actions()
            }
        rewards.append(per_player)
    if isinstance(game.formulation, Discounted):
        formulation: dict | str = {"discounted": game.formulation.gamma}
    else:
        formulation = "average"
    return {
        "players": game.n_players,
        "states": list(game.states),
        "actions": [list(a) for a in game.action_sets],
        "initial_state": game.initial_state,
        "formulation": formulation,
        "transitions": transitions,
        "rewards": rewards,
    }


@parses("game")
def game_from_dict(data: dict) -> StochasticGame:
    """Parse the on-disk schema; raises MalformedInputError on any violation."""
    n, raw_states, raw_actions, initial, raw_formulation, raw_transitions, raw_rewards = (
        _in_order(data, _GAME_KEYS, "game")
    )
    n = int(n)
    states = [str(s) for s in raw_states]
    actions = [[str(a) for a in acts] for acts in raw_actions]
    initial = str(initial)
    if len(actions) != n:
        raise MalformedInputError("actions list length disagrees with player count")
    if len(raw_rewards) != n:
        raise MalformedInputError("rewards list length disagrees with player count")
    if raw_formulation == "average":
        formulation: RewardFormulation = Average()
    else:
        (gamma,) = _in_order(raw_formulation, ["discounted"], "formulation")
        formulation = Discounted(_number(gamma))
    counts = [len(a) for a in actions]
    n_states = len(states)
    keys = [_joint_key(a) for a in itertools.product(*map(range, counts))]
    state_index = {s: k for k, s in enumerate(states)}
    transition = np.zeros((n_states, len(keys), n_states))
    for s, per_state in enumerate(_in_order(raw_transitions, states, "transitions")):
        what = f"transitions at {states[s]!r}"
        for j, dist in enumerate(_in_order(per_state, keys, what)):
            for target, p in dist.items():
                if target not in state_index:
                    raise MalformedInputError(f"transition to unknown state {target!r}")
                transition[s, j, state_index[target]] = _number(p)
            transition[s, j] = load_distribution(
                transition[s, j], f"transition row {states[s]}/{keys[j]}"
            )
    rewards = np.zeros((n, n_states, len(keys)))
    for i, per_player in enumerate(raw_rewards):
        for s, per_state in enumerate(_in_order(per_player, states, f"player {i}'s rewards")):
            what = f"player {i}'s rewards at {states[s]!r}"
            rewards[i, s] = [_number(v) for v in _in_order(per_state, keys, what)]
    game = StochasticGame(
        states=tuple(states),
        action_sets=tuple(tuple(a) for a in actions),
        transition=transition,
        rewards=rewards,
        initial_state=initial,
        formulation=formulation,
    )
    problems = validate(game)
    if problems:
        raise MalformedInputError("; ".join(problems))
    return game


def save_game(game: StochasticGame, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(game), fh, indent=2)


def read_json(path, what: str):
    """The JSON value in the file at ``path``.  A file that cannot be opened
    or parsed raises MalformedInputError, naming it as the ``what`` file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"cannot read {what} file {path}: {exc}") from exc


def load_game(path) -> StochasticGame:
    return game_from_dict(read_json(path, "game"))


# ---------------------------------------------------------------------------
# Policy (de)serialization
# ---------------------------------------------------------------------------


def policy_to_dict(policy: Policy, states: Sequence[str]) -> dict:
    return {states[s]: [float(p) for p in policy.probs[s]] for s in range(policy.n_states)}


@parses("policy")
def policy_from_dict(data: dict, states: Sequence[str], n_actions: int) -> Policy:
    probs = np.zeros((len(states), n_actions))
    for s, row in enumerate(_in_order(data, states, "policy")):
        row = np.array([_number(x) for x in row])
        if row.shape != (n_actions,):
            raise MalformedInputError(f"policy row for {states[s]!r} has wrong length")
        probs[s] = load_distribution(row, f"policy row for {states[s]!r}")
    return Policy(probs)


def joint_policy_to_list(joint: JointPolicy, states: Sequence[str]) -> list[dict]:
    return [policy_to_dict(p, states) for p in joint.policies]


@parses("joint policy")
def joint_policy_from_list(data: Sequence[dict], game: StochasticGame) -> JointPolicy:
    if len(data) != game.n_players:
        raise MalformedInputError("joint policy must list one policy per player")
    return JointPolicy(
        tuple(
            policy_from_dict(d, game.states, len(game.action_sets[i]))
            for i, d in enumerate(data)
        )
    )
