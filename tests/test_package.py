import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import linkpattern
from linkpattern.evaluate import SplitSpec, TrainSettings
from linkpattern.exceptions import ConfigError
from linkpattern.gibbs import ChainConfig, HyperPriors
from linkpattern.io import SynthSpec
from linkpattern.model import ModelConfig
from linkpattern.optimize import MapConfig
from linkpattern.rng import substream

SRC = Path(__file__).resolve().parents[1] / "src"


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
    (MapConfig(), "seed", 1.5, ValueError),
    (ChainConfig(), "seed", 2.7, ConfigError),
    (SynthSpec(4, 2, 2), "seed", 0.5, ValueError),
    (SplitSpec(0.2), "seed", 0.5, ValueError),
    (TrainSettings(), "gamma", math.nan, ValueError),
    (TrainSettings(), "num_samples", 10, ConfigError),
], ids=["MapConfig", "ModelConfig", "ChainConfig", "SynthSpec",
        "MapConfig-nan-gamma", "MapConfig-inf-init-scale",
        "MapConfig-fractional-iterations", "ModelConfig-fractional-rank",
        "ChainConfig-fractional-samples", "ChainConfig-fractional-thin",
        "HyperPriors-nan-nu0", "HyperPriors-nan-gamma-shape", "HyperPriors-inf-kappa0",
        "HyperPriors-nan-mu0", "SynthSpec-nan-threshold", "SynthSpec-fractional-objects",
        "MapConfig-fractional-seed", "ChainConfig-fractional-seed",
        "SynthSpec-fractional-seed", "SplitSpec-fractional-seed",
        "TrainSettings-nan-gamma", "TrainSettings-no-retained-draws"])
def test_configs_are_frozen_and_replace_rechecks(config, field, bad, error):
    # a field set after construction would skip __post_init__'s checks,
    # which reject NaN, infinite and fractional values too
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, bad)
    with pytest.raises(error):
        dataclasses.replace(config, **{field: bad})


def test_seeds_must_be_integers():
    # a fractional seed must not silently run as the integer stream below it
    with pytest.raises(ValueError):
        substream(1.5, "x")
    # numpy integers and negative seeds stay valid, in configs too
    assert substream(np.int64(3), "x").random() == substream(3, "x").random()
    assert substream(-1, "x").random() == substream(2 ** 64 - 1, "x").random()
    for seed in (np.int64(3), -1):
        MapConfig(seed=seed), ChainConfig(seed=seed), SplitSpec(0.2, seed)
        SynthSpec(4, 2, 2, seed=seed)


def test_package_and_cli_import_no_scipy():
    # numpy is the only runtime dependency; scipy is installed for the tests
    code = ("import sys, linkpattern, linkpattern.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
