"""Self-training for small symbolic sequence policies in executable environments."""

from symtrain.autodiff import Param, Tape, sgd_step
from symtrain.environments import EnvKind, ExecutionResult, TaskInstance, execute, generate_dataset
from symtrain.pool import CandidatePool, Trajectory, filter_pair
from symtrain.policy import GenerationParams, PolicyModel, Vocab, default_vocab
from symtrain.engine import IterationReport, RunConfig, run

__all__ = [
    "CandidatePool",
    "EnvKind",
    "ExecutionResult",
    "GenerationParams",
    "IterationReport",
    "Param",
    "PolicyModel",
    "RunConfig",
    "Tape",
    "TaskInstance",
    "Trajectory",
    "Vocab",
    "default_vocab",
    "execute",
    "filter_pair",
    "generate_dataset",
    "run",
    "sgd_step",
]

__version__ = "0.1.0"
