import dataclasses

import pytest

import linkpattern
from linkpattern.exceptions import ConfigError
from linkpattern.gibbs import ChainConfig
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
], ids=["MapConfig", "ModelConfig", "ChainConfig"])
def test_configs_are_frozen_and_replace_rechecks(config, field, bad, error):
    # a field set after construction once slipped past __post_init__'s checks
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, bad)
    with pytest.raises(error):
        dataclasses.replace(config, **{field: bad})
