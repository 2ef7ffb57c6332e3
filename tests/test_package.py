import dataclasses
import math

import numpy as np
import pytest

import linkpattern
from linkpattern.exceptions import ConfigError
from linkpattern.gibbs import ChainConfig, HyperPriors
from linkpattern.io import SynthSpec
from linkpattern.model import ModelConfig
from linkpattern.optimize import MapConfig


def test_every_export_resolves():
    missing = [name for name in linkpattern.__all__ if not hasattr(linkpattern, name)]
    assert missing == []
    assert len(set(linkpattern.__all__)) == len(linkpattern.__all__)


@pytest.mark.parametrize("config,field,bad,error", [
    (MapConfig(), "gamma_u", -50.0, ValueError),
    (ModelConfig(3), "rank", 0, ValueError),
    (ChainConfig(), "burn_in", -1, ConfigError),
    (SynthSpec(4, 2, 2), "observed_fraction", 0, ValueError),
    (MapConfig(), "gamma_u", math.nan, ValueError),
    (MapConfig(), "init_scale", math.inf, ValueError),
    (MapConfig(), "max_iterations", 3.5, ValueError),
    (ModelConfig(3), "rank", 2.5, ValueError),
    (ChainConfig(burn_in=2), "num_samples", 10.5, ConfigError),
    (ChainConfig(), "thin", 1.5, ConfigError),
    (HyperPriors.default(2), "nu0", math.nan, ValueError),
    (HyperPriors.default(2), "gamma_shape", math.nan, ValueError),
    (HyperPriors.default(2), "kappa0", math.inf, ValueError),
    (HyperPriors.default(2), "mu0", np.array([0.0, math.nan]), ValueError),
    (SynthSpec(4, 2, 2), "binarize_threshold", math.nan, ValueError),
    (SynthSpec(4, 2, 2), "n_objects", 4.5, ValueError),
], ids=["MapConfig", "ModelConfig", "ChainConfig", "SynthSpec",
        "MapConfig-nan-gamma", "MapConfig-inf-init-scale",
        "MapConfig-fractional-iterations", "ModelConfig-fractional-rank",
        "ChainConfig-fractional-samples", "ChainConfig-fractional-thin",
        "HyperPriors-nan-nu0", "HyperPriors-nan-gamma-shape", "HyperPriors-inf-kappa0",
        "HyperPriors-nan-mu0", "SynthSpec-nan-threshold", "SynthSpec-fractional-objects"])
def test_configs_are_frozen_and_replace_rechecks(config, field, bad, error):
    # a field set after construction would skip __post_init__'s checks,
    # which reject NaN, infinite and fractional values too
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, bad)
    with pytest.raises(error):
        dataclasses.replace(config, **{field: bad})
