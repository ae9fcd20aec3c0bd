"""Bilevel knapsack toolkit.

Instance generation, an exact dynamic-programming oracle, a graph-network
heuristic trained by supervised learning, a sampling-based solution
search, and a benchmark harness.
"""

from .exact import ExactResult, collect_labels, solve_exact
from .graphrep import NormalizationScheme, TripartiteGraph, build_graph
from .instance import (BlkpInstance, GenConfig, InstanceError, generate,
                       read_instance, write_instance)
from .knapsack import (BilevelEvaluation, DpTooLarge, FollowerResponse,
                       InfeasibleLeader, Mode, OverflowRiskError, evaluate_bilevel,
                       ReplyTable, follower_response, knapsack_max, reply_table)
from .pnanet import (CheckpointError, ModelParams, PnaConfig, forward,
                     load_checkpoint, save_checkpoint)
from .search import SearchConfig, SearchResult, solution_search, solve_heuristic
from .trainer import TrainConfig, TrainingDiverged, TrainResult, build_dataset, train

__version__ = "0.1.0"

__all__ = [
    "BlkpInstance", "GenConfig", "InstanceError", "generate",
    "read_instance", "write_instance",
    "knapsack_max", "follower_response", "reply_table", "evaluate_bilevel", "ReplyTable",
    "Mode", "FollowerResponse", "BilevelEvaluation", "InfeasibleLeader",
    "DpTooLarge", "OverflowRiskError", "solve_exact", "collect_labels", "ExactResult",
    "build_graph", "TripartiteGraph", "NormalizationScheme",
    "PnaConfig", "ModelParams", "forward", "save_checkpoint",
    "load_checkpoint", "CheckpointError",
    "TrainConfig", "TrainResult", "TrainingDiverged", "build_dataset", "train",
    "SearchConfig", "SearchResult", "solution_search", "solve_heuristic",
]
