"""Symbolic-regression genetic programming with lexicase-style parent
selection, tournament/random/age-fitness-Pareto baselines, and a benchmark
harness."""

from .afp import AfpCandidate, afp_generation, environmental_select
from .data import (Dataset, LoadError, SplitDataset, generate_uball5d, load_csv,
                   save_csv, split_normalize, uball5d)
from .engine import EngineConfig, GenerationRecord, RunLog, diversity, mae, run_trial
from .expr import (DEFAULT_OPERATORS, Operator, OperatorSet, Program,
                   hill_climb_constants, point_mutation, predict, random_program,
                   subtree_crossover, subtree_span)
from .selection import (ErrorMatrix, Method, PassMatrix, SelectionConfig,
                        SelectionEvent, build_error_matrix, build_pass_matrix,
                        exact_selection_probabilities, lexicase_select, mad,
                        random_select, tournament_select)

__version__ = "0.1.0"

__all__ = [
    "AfpCandidate", "afp_generation", "environmental_select",
    "Dataset", "LoadError", "SplitDataset", "generate_uball5d", "load_csv",
    "save_csv", "split_normalize", "uball5d",
    "EngineConfig", "GenerationRecord", "RunLog", "diversity", "mae", "run_trial",
    "DEFAULT_OPERATORS", "Operator", "OperatorSet", "Program",
    "hill_climb_constants", "point_mutation", "predict", "random_program",
    "subtree_crossover", "subtree_span",
    "ErrorMatrix", "Method", "PassMatrix", "SelectionConfig", "SelectionEvent",
    "build_error_matrix", "build_pass_matrix", "exact_selection_probabilities",
    "lexicase_select", "mad", "random_select", "tournament_select",
]
