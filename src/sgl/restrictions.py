"""Restricted policy spaces and implicit games.

A restricted policy space is a non-empty subset of one player's policy
polytope.  The solvers see it only through a membership test, its extreme
points (``vertices``), random members, and a parameter lattice for grid
sweeps.  Membership and members speak ``Policy``; the lattice is two arrays,
every point's parameters and its (|S|, |A|) policy table, with no ``Policy``
built per point.  Three classes hold every variant:

* ``ConvexHullStatewise``: per-state generator strategies, one (k_s, |A|)
  array per state, blended with independent per-state weights, so it is
  closed under per-state blending of members;
* ``ConvexHullGlobal``: generator policies mixed with one weight vector
  shared across states, convex but *not* closed under per-state blending;
  ``blend`` mixes a whole (n, k) weight table over its read-only (k, |S|,
  |A|) generator array at once;
* ``DeterministicOnly``: the finite set of pure policies, non-convex once
  it has two members.

Several solver routines hinge on the separation between the two hulls.
The other named variants are constructor functions returning a hull:

* ``FullSpace(n_states, n_actions)``: the statewise hull of the unit
  vectors, the whole policy polytope;
* ``FixedCoordinates(n_states, n_actions, pins)``: the statewise hull of
  each state's extreme strategies, pinned (state, action) entries fixed and
  the free mass on one free action;
* ``StateUniform(n_states, n_actions)``: the global hull of the
  all-states-one-action pure policies, one shared strategy in every state;
* ``Singleton(policy)``: the global hull of one generator.

A state whose generators include every unit vector is the whole simplex,
so membership there needs no LP.

Spaces read from and write to JSON objects tagged by ``variant``.  Each
space keeps the tag it was built under and writes it back: the classes
write ``convex_hull_statewise``, ``convex_hull_global`` and
``deterministic_only``; the constructors write ``full``,
``fixed_coordinates``, ``state_uniform`` and ``singleton`` with their own
arguments (the shape, pins by state name, or the one policy) rather than
generators.  ``space_from_dict`` reads all seven tags.

An implicit game rewrites a game from the point of view of limited agents:
each player's implicit actions are distributions over its explicit actions
(the tau mappings), transitions are the induced expectations, and rewards
default to the induced expectations as well (an explicit override models
reward shaping, where tau stays the identity).  With default rewards, the
value of any implicit joint policy equals the explicit value of its mapped
policy; `map_policy` performs that mapping.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .games import (
    JointPolicy,
    MalformedInputError,
    Policy,
    StochasticGame,
    STRUCTURAL_TOL,
    UnsupportedOperationError,
    _number,
    check_strategy,
    parses,
    validate,
)

MEMBERSHIP_TOL = 1e-9
MAX_ENUMERATION = 10**6  # pure-policy enumeration guard


@functools.lru_cache(maxsize=16)
def simplex_grid(k: int, resolution: float) -> np.ndarray:
    """All length-k probability vectors with entries on a grid of the given step.

    The step is snapped to 1/N for N = round(1/resolution) so the grid
    always contains every vertex of the simplex.  Returns a read-only
    (points, k) array, built once per (k, resolution), with the points in
    lexicographic order of their numerators.
    """
    if k < 1:
        raise ValueError("need at least one coordinate")
    n = max(1, round(1.0 / resolution))
    numerators = np.zeros((1, 0), dtype=np.int64)
    remaining = np.array([n])
    for _ in range(k - 1):
        # Each prefix branches into every count 0..remaining for the next entry.
        reps = remaining + 1
        count = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        numerators = np.column_stack([np.repeat(numerators, reps, axis=0), count])
        remaining = np.repeat(remaining, reps) - count
    grid = np.column_stack([numerators, remaining]) / n
    grid.setflags(write=False)
    return grid


def _recover_weights_lp(
    targets: np.ndarray, generators: np.ndarray
) -> tuple[float, np.ndarray]:
    """Best sup-norm fit of simplex weights: min_t |G^T w - p|_inf <= t.

    ``generators`` is (k, D), ``targets`` is (D,).  Returns (t*, w*).
    """
    k, d = generators.shape
    # Variables: w_0..w_{k-1}, t.  Constraints: +-(G^T w - p) <= t.
    a_ub = np.zeros((2 * d, k + 1))
    b_ub = np.zeros(2 * d)
    a_ub[:d, :k] = generators.T
    a_ub[:d, k] = -1.0
    b_ub[:d] = targets
    a_ub[d:, :k] = -generators.T
    a_ub[d:, k] = -1.0
    b_ub[d:] = -targets
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    res = linprog(
        c=np.eye(k + 1)[k],
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * k + [(0.0, None)],
        method="highs",
    )
    if not res.success:
        raise ArithmeticError(f"weight recovery LP failed: {res.message}")
    return float(res.fun), np.asarray(res.x[:k])


# ---------------------------------------------------------------------------
# Space variants
# ---------------------------------------------------------------------------


class RestrictedPolicySpace:
    """Interface shared by every restriction variant.

    Concrete spaces know their policy shape and whether they are convex,
    answer membership queries, draw random members, expose extreme points,
    and expose a low-dimensional parameterization used by grid sweeps.
    ``variant`` is the file-format tag the space was built under.
    """

    n_states: int
    n_actions: int
    is_convex: bool
    variant: str

    def contains(self, policy: Policy, tol: float = MEMBERSHIP_TOL) -> bool:
        raise NotImplementedError

    def random_member(self, rng: np.random.Generator) -> Policy:
        raise NotImplementedError

    def vertices(self) -> list[Policy]:
        """Extreme points; exact optimizers of linear objectives live here."""
        raise NotImplementedError

    def param_dim(self) -> int:
        raise NotImplementedError

    def param_points(self, resolution: float) -> tuple[np.ndarray, np.ndarray]:
        """A lattice covering the space: (params (n, param_dim()), probs (n, |S|, |A|)).

        Row p of ``params`` holds lattice point p's parameters and
        ``probs[p]`` its policy table; the points come in
        ``itertools.product`` order over the space's own lattices.
        """
        raise NotImplementedError

    def _check_shape(self, policy: Policy) -> None:
        if policy.probs.shape != (self.n_states, self.n_actions):
            raise MalformedInputError(
                f"policy shape {policy.probs.shape} does not match space "
                f"({self.n_states}, {self.n_actions})"
            )


@dataclass(frozen=True)
class ConvexHullGlobal(RestrictedPolicySpace):
    """Mixtures of generator policies sharing one weight vector across states."""

    generators: tuple[Policy, ...]
    is_convex: bool = True
    variant: str = field(default="convex_hull_global", init=False, compare=False, repr=False)
    generator_probs: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.generators:
            raise MalformedInputError("hull needs at least one generator")
        shape = self.generators[0].probs.shape
        if any(g.probs.shape != shape for g in self.generators):
            raise MalformedInputError("hull generators must share one shape")
        stacked = np.stack([g.probs for g in self.generators])
        stacked.setflags(write=False)
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "generator_probs", stacked)

    @property
    def n_states(self) -> int:  # type: ignore[override]
        return self.generators[0].n_states

    @property
    def n_actions(self) -> int:  # type: ignore[override]
        return self.generators[0].n_actions

    @property
    def k(self) -> int:
        return len(self.generators)

    def as_hull(self) -> "ConvexHullGlobal":
        """The space itself: every global restriction is already a hull."""
        return self

    def blend(self, weights: np.ndarray) -> np.ndarray:
        """Policy tables (n, |S|, |A|) of an (n, k) weight table, in one product.

        numpy multiplies a lone row on another BLAS path, so outside exact
        (unit-vector) blends a row's last bit can depend on n."""
        flat = self.generator_probs.reshape(self.k, -1)
        probs = (weights @ flat).reshape((weights.shape[0], self.n_states, self.n_actions))
        # Blends of valid rows can drift at machine scale; renormalize exactly.
        np.maximum(probs, 0.0, out=probs)
        probs /= probs.sum(axis=2, keepdims=True)
        return probs

    def policy_of_weights(self, weights: Sequence[float]) -> Policy:
        return Policy(self.blend(np.asarray(weights, dtype=float)[np.newaxis])[0])

    def recover_weights(self, policy: Policy) -> tuple[float, np.ndarray]:
        self._check_shape(policy)
        return _recover_weights_lp(policy.probs.ravel(), self.generator_probs.reshape(self.k, -1))

    def contains(self, policy: Policy, tol: float = MEMBERSHIP_TOL) -> bool:
        gap, _ = self.recover_weights(policy)
        return gap <= tol

    def random_member(self, rng: np.random.Generator) -> Policy:
        return self.policy_of_weights(rng.dirichlet(np.ones(self.k)))

    def vertices(self) -> list[Policy]:
        return list(self.generators)

    def param_dim(self) -> int:
        return self.k - 1

    def param_points(self, resolution: float) -> tuple[np.ndarray, np.ndarray]:
        """The weight grid: each point's leading k - 1 weights and its blend."""
        grid = simplex_grid(self.k, resolution)
        return grid[:, :-1], self.blend(grid)


def _covers_simplex(rows: np.ndarray) -> bool:
    """Whether the rows include every unit vector, making their hull the simplex."""
    n_actions = rows.shape[1]
    unit = ((rows == 1.0).sum(axis=1) == 1) & ((rows == 0.0).sum(axis=1) == n_actions - 1)
    return np.unique(rows[unit].argmax(axis=1)).size == n_actions


@dataclass(frozen=True)
class ConvexHullStatewise(RestrictedPolicySpace):
    """Per-state convex strategy sets, blended independently at each state.

    ``generators[s]`` is a read-only (k_s, |A|) array whose rows are the
    extreme strategies available at state s.  ``pins`` holds the pins of a
    hull built by ``FixedCoordinates``, for the file format.
    """

    generators: tuple[np.ndarray, ...]
    is_convex: bool = True
    variant: str = field(default="convex_hull_statewise", init=False, compare=False, repr=False)
    pins: tuple[tuple[int, int, float], ...] = field(
        default=(), init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        try:
            gens = tuple(np.array(per_state, dtype=float) for per_state in self.generators)
        except ValueError as exc:
            raise MalformedInputError("generator strategies must share one length") from exc
        if not gens or any(len(per_state) == 0 for per_state in gens):
            raise MalformedInputError("every state needs at least one generator")
        if any(g.ndim != 2 or g.shape[1] != gens[0].shape[1] for g in gens):
            raise MalformedInputError("generator strategies must share one length")
        for row in np.concatenate(gens):
            check_strategy(row)
        for stacked in gens:
            stacked.setflags(write=False)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_whole", tuple(_covers_simplex(g) for g in gens))

    @property
    def n_states(self) -> int:  # type: ignore[override]
        return len(self.generators)

    @property
    def n_actions(self) -> int:  # type: ignore[override]
        return self.generators[0].shape[1]

    def contains(self, policy: Policy, tol: float = MEMBERSHIP_TOL) -> bool:
        self._check_shape(policy)
        for s, stacked in enumerate(self.generators):
            if self._whole[s]:
                continue
            gap, _ = _recover_weights_lp(policy.probs[s], stacked)
            if gap > tol:
                return False
        return True

    def random_member(self, rng: np.random.Generator) -> Policy:
        rows = []
        for stacked in self.generators:
            w = rng.dirichlet(np.ones(stacked.shape[0]))
            rows.append(stacked.T @ w)
        return Policy(np.vstack(rows))

    def _vertex_probs(self) -> np.ndarray:
        """Every per-state choice of generators, (n, |S|, |A|), in
        ``itertools.product`` order."""
        total = math.prod(len(per_state) for per_state in self.generators)
        if total > MAX_ENUMERATION:
            raise UnsupportedOperationError(
                f"{total} vertices exceed the enumeration bound"
            )
        choice = np.indices([len(g) for g in self.generators]).reshape(self.n_states, -1)
        return np.stack([g[c] for g, c in zip(self.generators, choice)], axis=1)

    def vertices(self) -> list[Policy]:
        return [Policy(probs) for probs in self._vertex_probs()]

    def param_dim(self) -> int:
        return sum(len(per_state) - 1 for per_state in self.generators)

    def param_points(self, resolution: float) -> tuple[np.ndarray, np.ndarray]:
        """The product of the states' weight grids: each point's leading
        k_s - 1 weights state by state, and its per-state blends."""
        grids = [simplex_grid(len(per_state), resolution) for per_state in self.generators]
        choice = np.indices([len(grid) for grid in grids]).reshape(self.n_states, -1)
        params = np.concatenate([grid[c, :-1] for grid, c in zip(grids, choice)], axis=1)
        probs = np.stack(
            [(grid @ g)[c] for grid, g, c in zip(grids, self.generators, choice)], axis=1
        )
        return params, probs


@dataclass(frozen=True)
class DeterministicOnly(RestrictedPolicySpace):
    """The finite set of pure policies; non-convex once it has two members."""

    n_states: int
    n_actions: int
    variant: str = field(default="deterministic_only", init=False, compare=False, repr=False)

    @property
    def is_convex(self) -> bool:  # type: ignore[override]
        return self.n_actions**self.n_states <= 1

    def contains(self, policy: Policy, tol: float = MEMBERSHIP_TOL) -> bool:
        self._check_shape(policy)
        near_one = np.abs(policy.probs.max(axis=1) - 1.0) <= tol
        return bool(np.all(near_one))

    def random_member(self, rng: np.random.Generator) -> Policy:
        choices = rng.integers(0, self.n_actions, size=self.n_states)
        return Policy.pure(self.n_states, self.n_actions, choices)

    def vertices(self) -> list[Policy]:
        return FullSpace(self.n_states, self.n_actions).vertices()

    def param_dim(self) -> int:
        return 1

    def param_points(self, resolution: float) -> tuple[np.ndarray, np.ndarray]:
        """The pure policies in ``vertices`` order, each parameterized by its index."""
        probs = FullSpace(self.n_states, self.n_actions)._vertex_probs()
        return np.arange(len(probs), dtype=float)[:, np.newaxis], probs


# ---------------------------------------------------------------------------
# Constructors of the named hulls
# ---------------------------------------------------------------------------


def _tagged(space: RestrictedPolicySpace, variant: str) -> RestrictedPolicySpace:
    object.__setattr__(space, "variant", variant)
    return space


def FullSpace(n_states: int, n_actions: int) -> ConvexHullStatewise:
    """The whole policy polytope: the statewise hull of the unit vectors."""
    unit = tuple(np.eye(n_actions))
    return _tagged(ConvexHullStatewise((unit,) * n_states), "full")


def FixedCoordinates(
    n_states: int, n_actions: int, pins: Sequence[tuple[int, int, float]]
) -> ConvexHullStatewise:
    """Simplex with pinned entries: listed (state, action) pairs hold fixed mass.

    Pins are independent across states, so the space is the statewise hull
    of each state's extreme strategies: the pins fixed and all free mass on
    one free action.
    """
    pins = tuple((int(s), int(a), float(p)) for s, a, p in pins)
    pin_rows: list[dict[int, float]] = [dict() for _ in range(n_states)]
    for s, a, p in pins:
        if not (0 <= s < n_states and 0 <= a < n_actions):
            raise MalformedInputError(f"pin ({s}, {a}) out of range")
        if a in pin_rows[s]:
            raise MalformedInputError(f"duplicate pin for ({s}, {a})")
        if p < -STRUCTURAL_TOL or p > 1.0 + STRUCTURAL_TOL:
            raise MalformedInputError(f"pin probability {p} outside [0, 1]")
        pin_rows[s][a] = p
    per_state_rows = []
    for s, row_pins in enumerate(pin_rows):
        total = sum(row_pins.values())
        if total > 1.0 + STRUCTURAL_TOL:
            raise MalformedInputError(f"pins at state {s} sum to {total} > 1")
        free = [a for a in range(n_actions) if a not in row_pins]
        if not free and abs(total - 1.0) > STRUCTURAL_TOL:
            raise MalformedInputError(f"state {s} fully pinned but mass != 1")
        base = np.zeros(n_actions)
        base[list(row_pins)] = list(row_pins.values())
        mass = 1.0 - total
        if free and mass > STRUCTURAL_TOL:
            per_state_rows.append(tuple(base + mass * np.eye(n_actions)[free]))
        else:
            per_state_rows.append((base,))
    hull = _tagged(ConvexHullStatewise(tuple(per_state_rows)), "fixed_coordinates")
    object.__setattr__(hull, "pins", pins)
    return hull


def StateUniform(n_states: int, n_actions: int) -> ConvexHullGlobal:
    """One shared mixed strategy in every state: the global hull of the
    all-states-one-action pure policies."""
    generators = tuple(
        Policy.pure(n_states, n_actions, [a] * n_states) for a in range(n_actions)
    )
    return _tagged(ConvexHullGlobal(generators), "state_uniform")


def Singleton(policy: Policy) -> ConvexHullGlobal:
    """Exactly one admissible policy: the global hull of one generator."""
    return _tagged(ConvexHullGlobal((policy,)), "singleton")


# ---------------------------------------------------------------------------
# Implicit games
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TauMapping:
    """Per-player stochastic maps from implicit actions to explicit actions.

    ``taus[i][s, b, a]`` is the probability that implicit action b of
    player i realizes explicit action a in state s; each (s, b) row is a
    distribution.
    """

    taus: tuple[np.ndarray, ...]
    implicit_action_sets: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        taus = tuple(np.asarray(t, dtype=float) for t in self.taus)
        names = tuple(tuple(a) for a in self.implicit_action_sets)
        if len(taus) != len(names):
            raise MalformedInputError("need implicit action names for every player")
        for i, t in enumerate(taus):
            if t.ndim != 3:
                raise MalformedInputError(f"tau for player {i} must be 3-D")
            if t.shape[1] != len(names[i]):
                raise MalformedInputError(f"tau/{i} rows disagree with action names")
            if np.any(t < -STRUCTURAL_TOL):
                raise MalformedInputError(f"tau/{i} has negative entries")
            sums = t.sum(axis=2)
            if np.max(np.abs(sums - 1.0)) > STRUCTURAL_TOL:
                raise MalformedInputError(
                    f"tau rows for player {i} must each sum to 1"
                )
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "implicit_action_sets", names)

    @property
    def n_players(self) -> int:
        return len(self.taus)


def identity_tau(game: StochasticGame) -> TauMapping:
    return TauMapping(
        taus=tuple(
            np.tile(np.eye(k), (game.n_states, 1, 1)) for k in game.action_counts
        ),
        implicit_action_sets=game.action_sets,
    )


@dataclass(frozen=True)
class ImplicitGame:
    """A derived game together with the tau mappings tying it to its source."""

    game: StochasticGame
    tau: TauMapping
    explicit: StochasticGame

    def mapping_residual(self) -> float:
        """Max deviation of the implicit transitions from the tau expectation."""
        weights = _joint_tau_weights(self.explicit, self.tau)
        worst = 0.0
        for s in range(self.explicit.n_states):
            expected = weights[s] @ self.explicit.transition[s]
            worst = max(worst, float(np.max(np.abs(expected - self.game.transition[s]))))
        return worst


def _joint_tau_weights(explicit: StochasticGame, tau: TauMapping) -> list[np.ndarray]:
    """Per state, the (implicit-joint x explicit-joint) realization weights.

    Row-major joint indexing lets the per-player tau slices combine by
    Kronecker product in player order.
    """
    out = []
    for s in range(explicit.n_states):
        w = np.ones((1, 1))
        for t in tau.taus:
            w = np.kron(w, t[s])
        out.append(w)
    return out


def build_implicit(
    explicit: StochasticGame,
    tau: TauMapping,
    reward_override: np.ndarray | None = None,
) -> ImplicitGame:
    """Derive the implicit game induced by tau.

    Transitions are the tau expectations of the explicit transitions.
    Rewards default to the tau expectations of the explicit rewards; a
    ``reward_override`` of shape (n, |S|, implicit joint count) replaces
    them wholesale (reward shaping keeps tau the identity and overrides
    only this table).
    """
    if tau.n_players != explicit.n_players:
        raise MalformedInputError("tau must cover every player")
    for i, t in enumerate(tau.taus):
        if t.shape[0] != explicit.n_states or t.shape[2] != explicit.action_counts[i]:
            raise MalformedInputError(f"tau for player {i} has wrong shape")
    weights = _joint_tau_weights(explicit, tau)
    n_implicit_joint = weights[0].shape[0]
    transition = np.zeros((explicit.n_states, n_implicit_joint, explicit.n_states))
    rewards = np.zeros((explicit.n_players, explicit.n_states, n_implicit_joint))
    for s in range(explicit.n_states):
        transition[s] = weights[s] @ explicit.transition[s]
        for i in range(explicit.n_players):
            rewards[i, s] = weights[s] @ explicit.rewards[i, s]
    if reward_override is not None:
        reward_override = np.asarray(reward_override, dtype=float)
        if reward_override.shape != rewards.shape:
            raise MalformedInputError(
                f"reward override shape {reward_override.shape} != {rewards.shape}"
            )
        rewards = reward_override
    implicit = StochasticGame(
        states=explicit.states,
        action_sets=tau.implicit_action_sets,
        transition=transition,
        rewards=rewards,
        initial_state=explicit.initial_state,
        formulation=explicit.formulation,
    )
    problems = validate(implicit)
    if problems:
        raise MalformedInputError("implicit game invalid: " + "; ".join(problems))
    return ImplicitGame(game=implicit, tau=tau, explicit=explicit)


def broken_actuator(
    explicit: StochasticGame, i: int, broken_action: int, null_action: int
) -> ImplicitGame:
    """Implicit game where one of player i's actions behaves like a null action.

    Transition and reward rows with the broken component equal the rows
    with the null component; tau maps broken deterministically to null.
    """
    k = explicit.action_counts[i]
    if not (0 <= broken_action < k and 0 <= null_action < k):
        raise MalformedInputError("broken/null action out of range")
    base = identity_tau(explicit)
    taus = [np.array(t) for t in base.taus]
    taus[i][:, broken_action, :] = 0.0
    taus[i][:, broken_action, null_action] = 1.0
    return build_implicit(
        explicit, TauMapping(tuple(taus), explicit.action_sets)
    )


def epsilon_exploration(
    explicit: StochasticGame, eps: Sequence[float]
) -> ImplicitGame:
    """Implicit game for per-player epsilon-greedy execution noise.

    Each player's chosen action is kept with probability 1 - eps_i and
    replaced by a uniform action with probability eps_i.
    """
    if len(eps) != explicit.n_players:
        raise MalformedInputError("need one epsilon per player")
    taus = []
    for i, e in enumerate(eps):
        e = float(e)
        if not (0.0 <= e < 1.0):
            raise MalformedInputError(f"epsilon {e} outside [0, 1)")
        k = explicit.action_counts[i]
        mat = (1.0 - e) * np.eye(k) + e / k
        taus.append(np.tile(mat, (explicit.n_states, 1, 1)))
    return build_implicit(
        explicit, TauMapping(tuple(taus), explicit.action_sets)
    )


def map_policy(ig: ImplicitGame, implicit_joint: JointPolicy) -> JointPolicy:
    """Translate an implicit joint policy into the explicit game.

    pi_i(s, a) = sum_b pihat_i(s, b) tau_i(s, b, a).
    """
    if len(implicit_joint) != ig.game.n_players:
        raise MalformedInputError("implicit joint policy has wrong player count")
    mapped = []
    for i, pol in enumerate(implicit_joint.policies):
        if pol.probs.shape != (ig.game.n_states, ig.game.action_counts[i]):
            raise MalformedInputError(f"implicit policy {i} has wrong shape")
        probs = np.einsum("sb,sba->sa", pol.probs, ig.tau.taus[i])
        mapped.append(Policy(probs))
    return JointPolicy(tuple(mapped))


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def space_to_dict(space: RestrictedPolicySpace, states: Sequence[str]) -> dict:
    from .games import policy_to_dict

    variant = space.variant
    if variant == "convex_hull_global":
        return {
            "variant": variant,
            "generators": [policy_to_dict(g, states) for g in space.generators],
        }
    if variant == "singleton":
        return {"variant": variant, "policy": policy_to_dict(space.generators[0], states)}
    if variant == "convex_hull_statewise":
        return {
            "variant": variant,
            "generators": {
                states[s]: [[float(x) for x in g] for g in per_state]
                for s, per_state in enumerate(space.generators)
            },
        }
    record = {"variant": variant, "states": len(states), "actions": space.n_actions}
    if variant == "fixed_coordinates":
        record["pins"] = [[states[s], a, p] for s, a, p in space.pins]
    return record


@parses("space")
def space_from_dict(
    data: dict, states: Sequence[str], n_actions: int
) -> RestrictedPolicySpace:
    from .games import policy_from_dict

    if not isinstance(data, dict) or "variant" not in data:
        raise MalformedInputError("space object must carry a 'variant' field")
    variant = data["variant"]
    n_states = len(states)
    shape = (data.get("states", n_states), data.get("actions", n_actions))
    if shape != (n_states, n_actions):
        raise MalformedInputError(
            f"{variant} space has shape {shape}, the player has {(n_states, n_actions)}"
        )
    if variant == "full":
        return FullSpace(n_states, n_actions)
    if variant == "singleton":
        return Singleton(policy_from_dict(data["policy"], states, n_actions))
    if variant == "convex_hull_global":
        gens = tuple(
            policy_from_dict(g, states, n_actions) for g in data["generators"]
        )
        return ConvexHullGlobal(gens)
    if variant == "convex_hull_statewise":
        raw = data["generators"]
        missing = set(states) - set(raw)
        if missing:
            raise MalformedInputError(f"statewise hull missing states {sorted(missing)}")
        gens = tuple(
            tuple(np.array([_number(x) for x in g]) for g in raw[state])
            for state in states
        )
        for per_state in gens:
            for g in per_state:
                if g.shape != (n_actions,) or np.any(g < -MEMBERSHIP_TOL) or abs(g.sum() - 1.0) > MEMBERSHIP_TOL:
                    raise MalformedInputError("statewise generator is not a distribution")
        return ConvexHullStatewise(gens)
    if variant == "state_uniform":
        return StateUniform(n_states, n_actions)
    if variant == "fixed_coordinates":
        pins = []
        for entry in data["pins"]:
            state_name, action, prob = entry
            if state_name not in states:
                raise MalformedInputError(f"pin for unknown state {state_name!r}")
            if action != int(action):
                raise MalformedInputError(f"pin action {action!r} is not an integer")
            pins.append((list(states).index(state_name), int(action), _number(prob)))
        return FixedCoordinates(n_states, n_actions, tuple(pins))
    if variant == "deterministic_only":
        return DeterministicOnly(n_states, n_actions)
    raise MalformedInputError(f"unknown space variant {variant!r}")


def save_spaces(
    spaces: Sequence[RestrictedPolicySpace], game: StochasticGame, path
) -> None:
    payload = [space_to_dict(sp, game.states) for sp in spaces]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def load_spaces(path, game: StochasticGame) -> list[RestrictedPolicySpace]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"cannot read spaces file {path}: {exc}") from exc
    if not isinstance(data, list) or len(data) != game.n_players:
        raise MalformedInputError("spaces file must list one space per player")
    return [
        space_from_dict(d, game.states, game.action_counts[i])
        for i, d in enumerate(data)
    ]

