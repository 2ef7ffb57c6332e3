"""Link pattern prediction in multi-relational networks.

Predicts all relation types between object pairs at once by factorizing a
partially observed N x N x T binary tensor into sender, receiver and
relation-type latent factors, trained either by MAP (alternating least
squares under the identity link, conjugate gradient under the logistic
link) or by a fully conjugate hierarchical Bayesian Gibbs sampler.
"""

from .evaluate import (ExperimentResult, SplitSpec, TrainSettings, auc,
                       evaluate_method, relation_ablation, split_fibers,
                       write_results_csv)
from .exceptions import (ConfigError, DataConflictError, DegenerateSplitError,
                         DimensionMismatchError, DivergenceError, FormatError,
                         LinkPatternError, NotPositiveDefiniteError, StallError,
                         TripleParseError, UndefinedMetricError)
from .gibbs import (ChainConfig, FactorHyperState, GibbsState, HyperPriors,
                    SampleSet, gibbs_sweep, predictive_scores,
                    run_chain, sample_alpha, sample_factor_hypers, sample_r_rows,
                    sample_u_rows, sample_v_rows)
from .io import (SynthSpec, generate_synthetic, load_factors, load_triples,
                 save_factors, save_triples)
from .model import (LatentFactors, ModelConfig, log_likelihood, logistic,
                    predict_entries, reconstruct_entries)
from .optimize import MapConfig, OptTrace, fit_map, gradients, objective
from .tensor import RelationalTensor, TensorSlice

__version__ = "0.1.0"

__all__ = [
    "ChainConfig", "ConfigError", "DataConflictError", "DegenerateSplitError",
    "DimensionMismatchError", "DivergenceError", "ExperimentResult",
    "FactorHyperState", "FormatError", "GibbsState", "HyperPriors",
    "LatentFactors", "LinkPatternError", "MapConfig", "ModelConfig",
    "NotPositiveDefiniteError", "OptTrace", "RelationalTensor", "SampleSet",
    "SplitSpec", "StallError", "SynthSpec", "TensorSlice", "TrainSettings",
    "TripleParseError", "UndefinedMetricError", "auc", "evaluate_method",
    "fit_map", "generate_synthetic", "gibbs_sweep", "gradients",
    "load_factors", "load_triples", "log_likelihood", "logistic", "objective",
    "predict_entries", "predictive_scores", "reconstruct_entries",
    "relation_ablation", "run_chain", "sample_alpha", "sample_factor_hypers",
    "sample_r_rows", "sample_u_rows", "sample_v_rows", "save_factors",
    "save_triples", "split_fibers", "write_results_csv", "__version__",
]
