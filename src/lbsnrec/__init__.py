"""Joint modeling of friendship links and check-in trajectories.

Subpackages: data ingestion and splits, the embedding/recurrent model core,
negative-sampled training with manual BPTT, a finite-difference gradient
oracle, Recall@K evaluation for next-location and friend recommendation, a
planted-structure synthetic generator, and a CLI tying it all together.
"""

from .data import (CheckIn, Dataset, SocialGraph, Splits, Trajectory,
                   build_dataset, filter_dataset, load_dataset, make_splits,
                   overlap_coefficient, parse_checkins, parse_edges,
                   save_dataset, split_into_subtrajectories)
from .evaluation import EvalReport, eval_friend_rec, eval_next_location, recall_at_k
from .model import (ForwardTrace, ModelParams, VariantMask, forward_trajectory,
                    joint_log_likelihood_full, load_checkpoint,
                    location_log_prob_full, network_log_likelihood_full,
                    save_checkpoint)
from .synth import SynthConfig, chance_baselines, generate
from .training import (Gradients, OptimizerState, TrainConfig, adagrad_update,
                       init_params, train)

__all__ = [
    "CheckIn", "Dataset", "SocialGraph", "Splits", "Trajectory",
    "build_dataset", "filter_dataset", "load_dataset", "make_splits",
    "overlap_coefficient", "parse_checkins", "parse_edges", "save_dataset",
    "split_into_subtrajectories",
    "EvalReport", "eval_friend_rec", "eval_next_location", "recall_at_k",
    "ForwardTrace", "ModelParams", "VariantMask", "forward_trajectory",
    "joint_log_likelihood_full", "load_checkpoint", "location_log_prob_full",
    "network_log_likelihood_full", "save_checkpoint",
    "SynthConfig", "chance_baselines", "generate",
    "Gradients", "OptimizerState", "TrainConfig", "adagrad_update",
    "init_params", "train",
]

__version__ = "0.1.0"
