"""Every integer setting follows one rule, `blkp.instance.check_int`."""

import pytest

from blkp.exact import collect_labels, solve_exact
from blkp.instance import GenConfig, InstanceError, generate
from blkp.pnanet import PnaConfig
from blkp.search import SearchConfig
from blkp.trainer import TrainConfig

_EXACT = solve_exact(generate(GenConfig(3, 3, seed=0)))

# setting: (its name in a refusal, its least value, the error, a call that sets it)
SETTINGS = {
    "SearchConfig.n_samples": ("n_samples", 1, ValueError, lambda v: SearchConfig(n_samples=v)),
    "SearchConfig.seed": ("seed", 0, ValueError, lambda v: SearchConfig(seed=v)),
    "TrainConfig.batch_size": ("batch_size", 1, ValueError, lambda v: TrainConfig(batch_size=v)),
    "TrainConfig.epochs": ("epochs", 0, ValueError, lambda v: TrainConfig(epochs=v)),
    "TrainConfig.early_stop_patience": ("early_stop_patience", 0, ValueError,
                                        lambda v: TrainConfig(early_stop_patience=v)),
    "TrainConfig.seed": ("seed", 0, ValueError, lambda v: TrainConfig(seed=v)),
    "PnaConfig.iterations": ("iterations", 0, ValueError, lambda v: PnaConfig(iterations=v)),
    "GenConfig.n1": ("GenConfig: n1", 1, InstanceError, lambda v: GenConfig(v, 3)),
    "GenConfig.n2": ("GenConfig: n2", 1, InstanceError, lambda v: GenConfig(2, v)),
    "GenConfig.value_max": ("GenConfig: value_max", 1, InstanceError,
                            lambda v: GenConfig(2, 3, value_max=v)),
    "GenConfig.seed": ("GenConfig: seed", 0, InstanceError, lambda v: GenConfig(2, 3, seed=v)),
    "collect_labels.k": ("k", 0, ValueError, lambda v: collect_labels(_EXACT, k=v)),
}


@pytest.mark.parametrize("setting", SETTINGS)
def test_integer_setting_follows_one_rule(setting):
    name, least, error, make = SETTINGS[setting]
    make(least)
    # true would run as 1; 2.0 and "2" are no Python int
    for value in (True, 2.0, "2"):
        with pytest.raises(error) as exc:
            make(value)
        assert str(exc.value) == f"{name} must be an integer, got {value!r}"
    with pytest.raises(error) as exc:
        make(least - 1)
    assert str(exc.value) == f"{name} must be >= {least}, got {least - 1}"
