"""Planning optimal play against online learners in repeated matrix games.

The library covers: matrix-game values and best-response structure (games),
the MWU / replicator / best-response learners and a simulator (learners),
closed-form continuous rewards and Frank-Wolfe planning for zero-sum games
(planner), and the Hamiltonian-cycle hardness reduction for controlling a
best-responding learner (ocdp).
"""

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InputError,
    PreconditionError,
    StrategizerError,
)
from .games import (
    AssumptionWitness,
    BimatrixGame,
    GameValueResult,
    as_simplex,
    best_response_set,
    check_assumption_no_pure,
    game_value,
    matching_pennies,
    min_br_minmax,
    unique_br_game,
)
from .learners import (
    BEST_RESPONSE,
    MWU,
    REPLICATOR,
    Schedule,
    Trajectory,
    respond,
    simulate,
    softmax,
)
from .ocdp import (
    CycleCheck,
    DirectedGraph,
    OcdpInstance,
    OcdpPlayout,
    brute_force_ocdp,
    extract_cycle,
    normalize_payoffs,
    play_ocdp,
    playout_labels,
    reduce_hamiltonian,
    verify_cycle,
)
from .planner import (
    AlternatingPlan,
    PlannerResult,
    alternating_gain,
    alternating_plan,
    frank_wolfe,
    optimize_continuous,
    planner_report,
    reward_bounds,
    reward_cont,
)

__version__ = "0.1.0"

__all__ = [
    "AlternatingPlan", "AssumptionWitness", "BEST_RESPONSE", "BimatrixGame",
    "CapExceededError", "CycleCheck", "DimensionMismatchError", "DirectedGraph",
    "GameValueResult", "InputError", "MWU", "OcdpInstance", "OcdpPlayout",
    "PlannerResult", "PreconditionError", "REPLICATOR", "Schedule",
    "StrategizerError", "Trajectory", "alternating_gain", "alternating_plan",
    "as_simplex", "best_response_set", "brute_force_ocdp",
    "check_assumption_no_pure", "extract_cycle", "frank_wolfe",
    "game_value", "matching_pennies", "min_br_minmax",
    "normalize_payoffs", "optimize_continuous", "planner_report", "play_ocdp",
    "playout_labels", "reduce_hamiltonian", "respond",
    "reward_bounds", "reward_cont", "simulate", "softmax", "unique_br_game",
    "verify_cycle",
]
