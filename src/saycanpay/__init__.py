"""Long-horizon planning with learned feasibility- and payoff-aware action scoring."""

from .core import (
    ActionInstance,
    AdapterError,
    ContractError,
    DataFileError,
    GoalSpec,
    History,
    InfeasibleActionError,
    ModelFileError,
    ScoredCandidate,
    TrainingDivergedError,
    UnsolvableError,
    accumulate,
    clamp,
    decode_score,
    length_normalize,
)
from .decoding import DecodingConfig, PlanResult, run_strategy
from .envs import ENV_IDS, Environment, EpisodeSpec, get_env, reset
from .evaluate import BackendChoice, EpisodeResult, evaluate_episodes, plan_episode
from .models import LinearScorer, SayPolicy, TrainConfig, train
from .oracle import DELTA, Trajectory, bfs_plan

__version__ = "0.1.0"

__all__ = [
    "ActionInstance",
    "AdapterError",
    "BackendChoice",
    "ContractError",
    "DataFileError",
    "DELTA",
    "DecodingConfig",
    "ENV_IDS",
    "Environment",
    "EpisodeResult",
    "EpisodeSpec",
    "GoalSpec",
    "History",
    "InfeasibleActionError",
    "LinearScorer",
    "ModelFileError",
    "PlanResult",
    "SayPolicy",
    "ScoredCandidate",
    "TrainConfig",
    "TrainingDivergedError",
    "Trajectory",
    "UnsolvableError",
    "accumulate",
    "bfs_plan",
    "clamp",
    "decode_score",
    "evaluate_episodes",
    "get_env",
    "length_normalize",
    "plan_episode",
    "reset",
    "run_strategy",
    "train",
]
