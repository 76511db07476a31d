"""Restricted policy spaces and implicit games."""

import hashlib
import itertools

import numpy as np
import pytest

from sgl import restrictions
from sgl.games import (
    Average,
    Discounted,
    JointPolicy,
    MalformedInputError,
    Policy,
    UnsupportedOperationError,
    fact5_game,
    rps,
)
from sgl.restrictions import (
    ConvexHullGlobal,
    ConvexHullStatewise,
    DeterministicOnly,
    FixedCoordinates,
    FullSpace,
    Singleton,
    StateUniform,
    TauMapping,
    broken_actuator,
    build_implicit,
    epsilon_exploration,
    identity_tau,
    map_policy,
    save_spaces,
    simplex_grid,
    space_from_dict,
    space_to_dict,
)
from sgl.solvers import restricted_best_response
from sgl.values import policy_value
from util import (
    convexity_probe,
    random_game,
    random_global_hull,
    random_joint_policy,
    random_policy,
    random_statewise_hull,
    reference_hull_contains,
    reference_hull_vertices,
    reference_param_dim,
    reference_simplex_grid,
)

ALL_SPACES = {}


def _build_spaces():
    """One representative instance of every variant, over 2 states x 3 actions."""
    hull = ConvexHullGlobal(
        (
            Policy([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]),
            Policy([[0.0, 0.5, 0.5], [0.6, 0.2, 0.2]]),
        )
    )
    statewise = ConvexHullStatewise(
        (
            (np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.5, 0.5])),
            (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])),
        )
    )
    return {
        "full": FullSpace(2, 3),
        "singleton": Singleton(Policy([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])),
        "hull_global": hull,
        "hull_statewise": statewise,
        "state_uniform": StateUniform(2, 3),
        "fixed": FixedCoordinates(2, 3, ((0, 1, 0.5), (1, 0, 0.25))),
        "deterministic": DeterministicOnly(2, 3),
    }


ALL_SPACES = _build_spaces()

SAVED_SPACE_DIGESTS = {
    "deterministic": "0fa705f1aa37b3664df60b34de29a99e84a7f5c72c2d7322b1f7b278f716956a",
    "fixed": "40e2cddceff2ef238877815b4884b76bc0a0e5e47479be0f7516d3dfada45eca",
    "full": "772fbfc9ba9f5c330b6ac8731135cf45a5f09c9f1be5b2b2e6eca6454755fc88",
    "hull_global": "564884d87ab0b482e38b9e46701fc2cd0ff5ada571a99d77439349a600a303b4",
    "hull_statewise": "9af9e26a0cf0558c509bd7217b19811681d20d6c4096decc04a37a6bdd36be91",
    "singleton": "95972748b3058d103c64f7bee2c3ddba8456afa1b5ab4432b13d4804112774f7",
    "state_uniform": "bd8a89cab73ce2f3bde821da93cb72f4504bb7a7fef4e976ee4ed21cbd2fdcb7",
}


class TestMembership:
    def test_pinned_half_accepts_and_rejects(self):
        space = FixedCoordinates(1, 3, ((0, 1, 0.5),))
        assert space.contains(Policy([[0.25, 0.5, 0.25]]))
        assert not space.contains(Policy([[1 / 3, 1 / 3, 1 / 3]]))

    def test_hull_weight_recovery(self):
        hull = ConvexHullGlobal(
            (Policy([[0.5, 0.5, 0.0]]), Policy([[0.0, 0.5, 0.5]]))
        )
        # (1/3, 1/2, 1/6) = 2/3 * s1 + 1/3 * s2.
        assert hull.contains(Policy([[1 / 3, 0.5, 1 / 6]]))
        assert not hull.contains(Policy([[1 / 3, 1 / 3, 1 / 3]]))
        gap, weights = hull.recover_weights(Policy([[1 / 3, 0.5, 1 / 6]]))
        assert gap <= 1e-9
        assert np.allclose(weights, [2 / 3, 1 / 3], atol=1e-9)

    def test_state_uniform(self):
        space = StateUniform(2, 2)
        assert space.contains(Policy([[0.3, 0.7], [0.3, 0.7]]))
        assert not space.contains(Policy([[0.3, 0.7], [0.7, 0.3]]))

    def test_deterministic(self):
        space = DeterministicOnly(2, 2)
        assert space.contains(Policy.pure(2, 2, [1, 0]))
        assert not space.contains(Policy([[0.5, 0.5], [1.0, 0.0]]))

    def test_every_vertex_is_a_member(self):
        for name, space in ALL_SPACES.items():
            for vertex in space.vertices():
                assert space.contains(vertex), name

    def test_whole_simplex_states_need_no_hull_solver(self, monkeypatch):
        # States whose generators include every unit vector answer membership
        # without an LP, whatever their action count.
        def forbidden(*args):
            raise AssertionError("hull solver called on a whole-simplex state")

        monkeypatch.setattr(restrictions, "_recover_weights_lp", forbidden)
        rng = np.random.default_rng(4)
        for space in (FullSpace(2, 15), FixedCoordinates(2, 15, ())):
            assert space.contains(random_policy(rng, 2, 15))
        pinned = FixedCoordinates(2, 3, ((0, 1, 0.5),))
        with pytest.raises(AssertionError):
            pinned.contains(pinned.vertices()[0])

    def test_random_members_are_members(self):
        rng = np.random.default_rng(0)
        for name, space in ALL_SPACES.items():
            for _ in range(20):
                assert space.contains(space.random_member(rng)), name


class TestSharedHullMethods:
    """The one hull implementation against each class's own former code."""

    @staticmethod
    def _hulls():
        rng = np.random.default_rng(17)
        for _ in range(50):
            n_states, n_actions, k = (int(x) for x in rng.integers((2, 2, 1), (5, 5, 5)))
            yield rng, random_global_hull(rng, n_states, n_actions, k)
            n_states, n_actions = (int(x) for x in rng.integers(2, 5, size=2))
            yield rng, ConvexHullStatewise(tuple(
                tuple(rng.dirichlet(np.ones(n_actions)) for _ in range(rng.integers(1, 5)))
                for _ in range(n_states)
            ))

    def test_membership_vertices_and_dimension_match_per_class_oracles(self):
        for rng, hull in self._hulls():
            members = [hull.random_member(rng) for _ in range(2)]
            alphas = rng.uniform(size=(hull.n_states, 1))
            per_state = Policy(alphas * members[0].probs + (1 - alphas) * members[1].probs)
            queries = [*members, per_state, random_policy(rng, hull.n_states, hull.n_actions)]
            for policy in queries:
                assert hull.contains(policy) == reference_hull_contains(hull, policy)
            assert all(hull.contains(member) for member in members)
            vertices = np.stack([v.probs for v in hull.vertices()])
            assert vertices.tobytes() == reference_hull_vertices(hull).tobytes()
            assert hull.param_dim() == reference_param_dim(hull)

    @pytest.mark.parametrize("blocks", [[[0, 1], [2]], [[0, 2], [1]]])
    def test_mixed_partition_shares_the_methods_and_has_no_route_yet(self, blocks):
        # Two states aliased in one block, the third alone.
        rng = np.random.default_rng(3)
        pair = np.stack([rng.dirichlet(np.ones(2), size=2) for _ in range(2)])
        hull = restrictions.ConvexHull(blocks, [pair, np.eye(2)[:, np.newaxis]])
        assert (hull.n_states, hull.k, hull.param_dim()) == (3, 4, 2)
        assert all(hull.contains(hull.random_member(rng)) for _ in range(10))
        want = np.empty((4, 3, 2))
        for v, (a, b) in enumerate(itertools.product((0, 1), (0, 1))):
            want[v, blocks[0]], want[v, blocks[1]] = pair[a], np.eye(2)[b]
        assert hull.vertex_probs().tobytes() == want.tobytes()
        # Two generators fit one row of the block with one weight; not both.
        mixed = np.full((3, 2), 0.5)
        mixed[blocks[0]] = [pair[0][0], pair[1][1]]
        assert not hull.contains(Policy(mixed))
        with pytest.raises(UnsupportedOperationError):
            restricted_best_response(fact5_game(), 0, [Policy.uniform(3, 2)], hull)


class TestSimplexGrid:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_pointwise_recursion(self, k):
        for resolution in (1.0, 0.7, 0.5, 1 / 3, 0.1, 0.03):
            grid = simplex_grid(k, resolution)
            assert not grid.flags.writeable
            assert grid.tolist() == [list(p) for p in reference_simplex_grid(k, resolution)]

    def test_rejects_empty_simplex(self):
        with pytest.raises(ValueError):
            simplex_grid(0, 0.1)



def pointwise_lattice(space, resolution: float) -> list[tuple[tuple[float, ...], np.ndarray]]:
    """The lattice one point at a time, as the list of (parameter tuple, Policy)
    pairs that ``param_points`` returned before it returned arrays, with each
    policy's table in place of the ``Policy``."""
    if isinstance(space, DeterministicOnly):
        return [((float(k),), pol.probs) for k, pol in enumerate(space.vertices())]
    if isinstance(space, ConvexHullGlobal):
        stacked = np.stack([g.probs for g in space.generators])
        points = []
        for w in simplex_grid(space.k, resolution):
            probs = np.clip(np.tensordot(w, stacked, axes=1), 0.0, None)
            points.append((tuple(w[:-1].tolist()), probs / probs.sum(axis=1, keepdims=True)))
        return points
    grids = [simplex_grid(len(per_state), resolution) for per_state in space.generators]
    return [
        (tuple(x for w in combo for x in w[:-1].tolist()),
         np.vstack([g.T @ w for g, w in zip(space.generators, combo)]))
        for combo in itertools.product(*grids)
    ]


def _unit_generators(space) -> bool:
    if isinstance(space, DeterministicOnly):
        return True
    if isinstance(space, ConvexHullGlobal):
        rows = space.generator_probs.reshape(-1, space.n_actions)
    else:
        rows = np.vstack(space.generators)
    return bool(np.all((rows == 0.0) | (rows == 1.0)))


class TestParamPoints:
    """``param_points`` is (params (n, param_dim()), probs (n, |S|, |A|)) in
    ``itertools.product`` order, every row a member, and each row the blend
    the per-point lattice made: bit for bit for unit-vector generators, within
    1e-15 otherwise (a batched product may round the last bit differently)."""

    @staticmethod
    def _check(space, resolution: float, membership: bool = True) -> None:
        params, probs = space.param_points(resolution)
        reference = pointwise_lattice(space, resolution)
        assert params.shape == (len(reference), space.param_dim())
        assert probs.shape == (len(reference), space.n_states, space.n_actions)
        assert [tuple(row) for row in params.tolist()] == [theta for theta, _ in reference]
        want = np.stack([table for _, table in reference])
        if _unit_generators(space):
            assert probs.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(probs - want)) <= 1e-15
        if membership:
            assert all(space.contains(Policy(table)) for table in probs)

    @pytest.mark.parametrize("name", sorted(ALL_SPACES))
    @pytest.mark.parametrize("resolution", [1.0, 0.5, 0.25])
    def test_every_variant(self, name, resolution):
        self._check(ALL_SPACES[name], resolution)

    def test_fine_lattices_of_three_state_spaces(self):
        for space in (FullSpace(3, 2), StateUniform(3, 2), DeterministicOnly(3, 2)):
            self._check(space, 0.05, membership=False)
        self._check(FixedCoordinates(3, 3, ((0, 1, 0.5), (2, 0, 0.25))), 0.1, membership=False)

    def test_random_hulls_within_last_bit(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            n_states, n_actions, k = (int(x) for x in rng.integers(2, 4, size=3))
            self._check(random_global_hull(rng, n_states, n_actions, k), 0.05, membership=False)
            self._check(random_statewise_hull(rng, 2, n_actions, k), 0.1, membership=False)


class TestConvexity:
    def test_probe_matches_declared_flags(self):
        for name, space in ALL_SPACES.items():
            assert convexity_probe(space, trials=200, seed=7) == space.is_convex, name

    def test_singleton_and_state_uniform_convex(self):
        assert convexity_probe(ALL_SPACES["singleton"], trials=50, seed=0)
        assert convexity_probe(ALL_SPACES["state_uniform"], trials=50, seed=0)

    def test_deterministic_over_rps_not_convex(self):
        assert not convexity_probe(DeterministicOnly(1, 3), trials=100, seed=0)

    def test_single_point_deterministic_is_convex(self):
        space = DeterministicOnly(2, 1)
        assert space.is_convex
        assert convexity_probe(space, trials=20, seed=0)

    def test_statewise_blends_stay_inside_statewise_hull(self):
        rng = np.random.default_rng(5)
        space = ALL_SPACES["hull_statewise"]
        for _ in range(25):
            a = space.random_member(rng)
            b = space.random_member(rng)
            for alphas in ([0.0, 1.0], [1.0, 0.0], rng.uniform(size=2)):
                blend = Policy(
                    np.vstack(
                        [
                            alphas[s] * a.probs[s] + (1 - alphas[s]) * b.probs[s]
                            for s in range(2)
                        ]
                    )
                )
                assert space.contains(blend)

    def test_global_hull_fails_statewise_blend(self):
        """Per-state blending escapes spaces whose weights are tied across states."""
        hull = ConvexHullGlobal(
            (Policy([[1.0, 0.0], [1.0, 0.0]]), Policy([[0.0, 1.0], [0.0, 1.0]]))
        )
        a, b = hull.generators
        mixed_states = Policy(np.vstack([a.probs[0], b.probs[1]]))
        assert not hull.contains(mixed_states)
        uniform_space = StateUniform(2, 2)
        assert uniform_space.contains(a) and uniform_space.contains(b)
        assert not uniform_space.contains(mixed_states)


class TestSerialization:
    def test_round_trip_every_variant(self):
        states = ("s0", "s1")
        for name, space in ALL_SPACES.items():
            data = space_to_dict(space, states)
            back = space_from_dict(data, states, space.n_actions)
            assert type(back) is type(space), name
            assert space_to_dict(back, states) == data, name

    @pytest.mark.parametrize("name", sorted(SAVED_SPACE_DIGESTS))
    def test_saved_file_bytes_are_pinned(self, tmp_path, name):
        # save_spaces of [space] over states ("s0", "s1"): the bytes written
        # before the variants other than the two hulls and the deterministic
        # space became constructor functions.
        game = random_game(np.random.default_rng(0), n_states=2, action_counts=(3, 3))
        path = tmp_path / "spaces.json"
        save_spaces([ALL_SPACES[name]], game, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_SPACE_DIGESTS[name]

    def test_pins_serialize_by_state_name(self):
        data = space_to_dict(ALL_SPACES["fixed"], ("s0", "s1"))
        assert data["pins"] == [["s0", 1, 0.5], ["s1", 0, 0.25]]

    @pytest.mark.parametrize(
        "variant", ["full", "state_uniform", "deterministic_only", "fixed_coordinates"]
    )
    def test_shape_fields_must_match_the_player(self, variant):
        record = {"variant": variant, "pins": []}
        space = space_from_dict(record, ("s0", "s1"), 3)
        assert (space.n_states, space.n_actions) == (2, 3)
        with pytest.raises(MalformedInputError):
            space_from_dict({**record, "states": 5, "actions": 7}, ("s0", "s1"), 3)
        with pytest.raises(MalformedInputError):
            space_from_dict({**record, "actions": 2}, ("s0", "s1"), 3)

    def test_unknown_variant_rejected(self):
        with pytest.raises(MalformedInputError):
            space_from_dict({"variant": "mystery"}, ("s0",), 2)

    @pytest.mark.parametrize("record", [
        {"variant": "convex_hull_statewise", "generators": {"s0": [["1", "0"]]}},
        {"variant": "convex_hull_statewise", "generators": {"s0": [[1, None]]}},
        {"variant": "convex_hull_statewise", "generators": {"s0": [[True, False]]}},
        {"variant": "fixed_coordinates", "pins": [["s0", 1, "0.5"]]},
    ], ids=["string", "null", "boolean", "string-pin"])
    def test_numbers_must_be_json_numbers(self, record):
        # The same check game and policy files get: numeric strings are refused.
        with pytest.raises(MalformedInputError):
            space_from_dict(record, ("s0",), 2)

    def test_bad_statewise_generator_rejected(self):
        with pytest.raises(MalformedInputError):
            space_from_dict(
                {"variant": "convex_hull_statewise", "generators": {"s0": [[0.5, 0.6]]}},
                ("s0",),
                2,
            )
        # Built in memory as well: the lattice hands out generator blends
        # without a Policy per point, so the generators are checked once here.
        with pytest.raises(MalformedInputError):
            ConvexHullStatewise(((np.array([0.5, 0.6]),),))


class TestPins:
    def test_pins_must_fit_the_simplex(self):
        with pytest.raises(MalformedInputError):
            FixedCoordinates(1, 2, ((0, 0, 0.7), (0, 1, 0.7)))
        with pytest.raises(MalformedInputError):
            FixedCoordinates(1, 2, ((0, 0, 0.3), (0, 1, 0.3)))  # fully pinned != 1
        FixedCoordinates(1, 2, ((0, 0, 0.3), (0, 1, 0.7)))

    def test_duplicate_pin_rejected(self):
        with pytest.raises(MalformedInputError):
            FixedCoordinates(1, 3, ((0, 1, 0.5), (0, 1, 0.5)))


class TestImplicitGames:
    def test_identity_tau_reproduces_game(self, rps_game):
        ig = build_implicit(rps_game, identity_tau(rps_game))
        assert np.array_equal(ig.game.transition, rps_game.transition)
        assert np.array_equal(ig.game.rewards, rps_game.rewards)
        assert ig.mapping_residual() <= 1e-15

    def test_rps_column_hull_matrix(self, rps_game, rps_column_hull):
        gens = np.stack([g.probs[0] for g in rps_column_hull.generators])
        tau = TauMapping(
            (identity_tau(rps_game).taus[0], gens[np.newaxis, :, :]),
            (rps_game.action_sets[0], ("s1", "s2")),
        )
        ig = build_implicit(rps_game, tau)
        expected = np.array([[-0.5, 0.0], [0.5, -0.5], [0.0, 0.5]])
        assert np.allclose(ig.game.payoff_matrix(0), expected, atol=1e-15)

    def test_blotto_row_hull_matrix(self, blotto_game, blotto_row_hull):
        gens = np.stack([g.probs[0] for g in blotto_row_hull.generators])
        tau = TauMapping(
            (gens[np.newaxis, :, :], identity_tau(blotto_game).taus[1]),
            (("g1", "g2", "g3"), blotto_game.action_sets[1]),
        )
        ig = build_implicit(blotto_game, tau)
        expected = np.array(
            [
                [1.0, 2.5, 0.75, -1.0],
                [-1.0, 1.75, 1.75, -1.0],
                [-1.0, 0.75, 2.5, 1.0],
            ]
        )
        assert np.allclose(ig.game.payoff_matrix(0), expected, atol=1e-15)

    def test_reward_override_replaces_table(self, rps_game):
        override = np.ones((2, 1, 9))
        ig = build_implicit(rps_game, identity_tau(rps_game), reward_override=override)
        assert np.array_equal(ig.game.rewards, override)
        assert np.array_equal(ig.game.transition, rps_game.transition)

    def test_tau_rows_must_sum_to_one(self, rps_game):
        taus = [np.array(t) for t in identity_tau(rps_game).taus]
        taus[0][0, 0, 0] = 0.5
        with pytest.raises(MalformedInputError):
            TauMapping(tuple(taus), rps_game.action_sets)

    def test_broken_actuator_rows_match_null(self):
        rng = np.random.default_rng(8)
        game = random_game(rng, n_states=3, action_counts=(3, 2))
        ig = broken_actuator(game, i=0, broken_action=2, null_action=0)
        for s in range(3):
            for b in range(2):
                j_broken = game.joint_index((2, b))
                j_null = game.joint_index((0, b))
                assert np.allclose(
                    ig.game.transition[s, j_broken], ig.game.transition[s, j_null]
                )
                assert np.allclose(
                    ig.game.rewards[:, s, j_broken], ig.game.rewards[:, s, j_null]
                )
        from sgl.games import validate

        assert validate(ig.game) == []

    def test_broken_actuator_range_check(self, rps_game):
        with pytest.raises(MalformedInputError):
            broken_actuator(rps_game, 0, broken_action=5, null_action=0)

    def test_epsilon_zero_is_identity(self, rps_game):
        ig = epsilon_exploration(rps_game, [0.0, 0.0])
        assert np.allclose(ig.game.rewards, rps_game.rewards, atol=1e-15)

    def test_epsilon_out_of_range(self, rps_game):
        with pytest.raises(MalformedInputError):
            epsilon_exploration(rps_game, [1.0, 0.0])

    def test_epsilon_mixes_toward_uniform_rows(self, rps_game):
        ig = epsilon_exploration(rps_game, [0.9999, 0.9999])
        # Near-total noise: every implicit payoff approaches the grand mean 0.
        assert np.max(np.abs(ig.game.rewards)) < 1e-3

    def test_epsilon_value_equals_mixed_explicit_value(self, rps_game):
        eps = [0.3, 0.3]
        ig = epsilon_exploration(rps_game, eps)
        for r in range(3):
            for c in range(3):
                implicit_joint = JointPolicy(
                    (Policy.pure(1, 3, [r]), Policy.pure(1, 3, [c]))
                )
                vi = policy_value(ig.game, implicit_joint)
                mixed = map_policy(ig, implicit_joint)
                ve = policy_value(rps_game, mixed)
                assert np.max(np.abs(vi - ve)) <= 1e-12

    def test_map_policy_examples(self, rps_game, rps_column_hull):
        gens = np.stack([g.probs[0] for g in rps_column_hull.generators])
        tau = TauMapping(
            (identity_tau(rps_game).taus[0], gens[np.newaxis, :, :]),
            (rps_game.action_sets[0], ("s1", "s2")),
        )
        ig = build_implicit(rps_game, tau)
        pure = JointPolicy((Policy.uniform(1, 3), Policy([[1.0, 0.0]])))
        assert np.allclose(
            map_policy(ig, pure)[1].probs, [[0.5, 0.5, 0.0]], atol=1e-15
        )
        mixed = JointPolicy((Policy.uniform(1, 3), Policy([[2 / 3, 1 / 3]])))
        assert np.allclose(
            map_policy(ig, mixed)[1].probs, [[1 / 3, 0.5, 1 / 6]], atol=1e-15
        )

    def test_value_preservation_property(self):
        """Implicit value equals explicit value of the mapped policy."""
        rng = np.random.default_rng(23)
        for k in range(100):
            average = k % 3 == 2
            game = random_game(
                rng,
                n_states=int(rng.integers(1, 4)),
                action_counts=(2, int(rng.integers(2, 4))),
                average=average,
            )
            taus = []
            names = []
            for i, count in enumerate(game.action_counts):
                n_implicit = int(rng.integers(1, 4))
                tau = rng.dirichlet(np.ones(count), size=(game.n_states, n_implicit))
                taus.append(tau)
                names.append(tuple(f"b{j}" for j in range(n_implicit)))
            ig = build_implicit(game, TauMapping(tuple(taus), tuple(names)))
            assert ig.mapping_residual() <= 1e-12
            implicit_joint = random_joint_policy(rng, ig.game)
            explicit_joint = map_policy(ig, implicit_joint)
            vi = policy_value(ig.game, implicit_joint)
            ve = policy_value(game, explicit_joint)
            assert np.max(np.abs(vi - ve)) <= 1e-10


