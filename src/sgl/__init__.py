"""Stochastic games with limited agents.

Exact values and equilibria for finite stochastic games, restricted policy
spaces for modelling agent limitations and the implicit games they induce,
certification of equilibrium existence and nonexistence at desk scale, and
WoLF-PHC self-play with and without restrictions.
"""

from .games import (
    Average,
    Discounted,
    ErgodicityError,
    JointPolicy,
    MalformedInputError,
    Policy,
    RewardFormulation,
    StochasticGame,
    UnsupportedOperationError,
    bach_stravinsky,
    blotto_4_3,
    classify,
    fact5_game,
    load_game,
    matrix_game,
    rps,
    save_game,
    validate,
)
from .values import (
    InducedMDP,
    check_ergodic,
    induce_mdp,
    policy_value,
    policy_values,
)
from .restrictions import (
    ConvexHullGlobal,
    ConvexHullStatewise,
    DeterministicOnly,
    FixedCoordinates,
    FullSpace,
    RestrictedPolicySpace,
    Singleton,
    StateUniform,
    broken_actuator,
    build_implicit,
    epsilon_exploration,
    implicit_policy,
)
from .solvers import (
    BestResponseResult,
    EquilibriumCertificate,
    best_response_convexity_test,
    check_equilibrium,
    enumerate_deterministic,
    minimax_zero_sum_matrix,
    restricted_best_response,
    restricted_equilibrium_via_implicit,
    support_enumeration_bimatrix,
    sweep_existence,
)
from .learners import (
    LearnerState,
    PlayerSpec,
    TrajectoryLog,
    WolfPhcConfig,
    q_learner_step,
    self_play,
    wolf_phc_step,
)

__version__ = "0.1.0"
