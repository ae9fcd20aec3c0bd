import io

import numpy as np
import pytest

from blkp.instance import (CORRELATED, UNCORRELATED, BlkpInstance, GenConfig,
                           InstanceError, generate, instance_from_dict,
                           instance_to_dict, read_instance, write_instance)


def test_correlated_structure():
    cfg = GenConfig(n1=2, n2=2, data_type=CORRELATED,
                    alpha_lo=0.5, alpha_hi=0.5, seed=11)
    inst = generate(cfg)
    assert np.array_equal(inst.d1, inst.a1 + 100)
    assert np.array_equal(inst.c, inst.a2 + 100)
    assert inst.b == round(0.5 * inst.total_weight)


def test_generation_deterministic():
    cfg = GenConfig(n1=5, n2=7, seed=42)
    assert generate(cfg) == generate(cfg)


def test_degenerate_value_max_one():
    cfg = GenConfig(n1=3, n2=4, data_type=UNCORRELATED,
                    alpha_lo=1.0, alpha_hi=1.0, value_max=1, seed=0)
    inst = generate(cfg)
    for arr in (inst.a1, inst.d1, inst.a2, inst.d2, inst.c):
        assert (arr == 1).all()
    assert inst.b == inst.n1 + inst.n2


@pytest.mark.parametrize("seed", range(25))
def test_generated_instances_satisfy_invariants(seed):
    rng = np.random.default_rng(seed)
    cfg = GenConfig(
        n1=int(rng.integers(1, 20)), n2=int(rng.integers(1, 20)),
        data_type=CORRELATED if seed % 2 else UNCORRELATED,
        seed=seed)
    inst = generate(cfg)  # __post_init__ validates
    assert 0 <= inst.b <= inst.total_weight


def test_different_seeds_differ():
    same = sum(generate(GenConfig(5, 5, seed=2 * k)) ==
               generate(GenConfig(5, 5, seed=2 * k + 1))
               for k in range(100))
    assert same == 0


def test_round_trip():
    inst = generate(GenConfig(6, 3, data_type=CORRELATED, seed=9))
    buf = io.StringIO()
    write_instance(inst, buf)
    buf.seek(0)
    assert read_instance(buf) == inst


def test_round_trip_file(tmp_path):
    inst = generate(GenConfig(4, 4, seed=1))
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    assert read_instance(path) == inst


def test_read_rejects_length_mismatch():
    doc = instance_to_dict(generate(GenConfig(3, 3, seed=5)))
    doc["d1"] = doc["d1"][:-1]
    with pytest.raises(InstanceError, match="d1"):
        instance_from_dict(doc)


def test_read_rejects_zero_weight():
    doc = instance_to_dict(generate(GenConfig(3, 3, seed=5)))
    doc["a1"][0] = 0
    with pytest.raises(InstanceError, match="a1"):
        instance_from_dict(doc)


@pytest.mark.parametrize("field,value", [
    ("a1", [1.7, 1, 1]),      # would be truncated to 1
    ("b", 10.5),
    ("c", [2 ** 70, 1, 1]),   # beyond int64
    ("n1", 2 ** 64),
    ("d2", ["3", 1, 1]),
])
def test_read_rejects_non_int64_entries(field, value):
    doc = instance_to_dict(generate(GenConfig(3, 3, seed=5)))
    doc[field] = value
    with pytest.raises(InstanceError, match=field):
        instance_from_dict(doc)


def test_read_rejects_garbage():
    with pytest.raises(InstanceError, match="malformed"):
        read_instance(io.StringIO("not json {"))


def test_invalid_config():
    with pytest.raises(InstanceError):
        GenConfig(0, 3)
    with pytest.raises(InstanceError):
        GenConfig(3, 3, alpha_lo=0.8, alpha_hi=0.5)
    with pytest.raises(InstanceError):
        GenConfig(3, 3, data_type="X")


def test_capacity_over_total_weight_rejected():
    with pytest.raises(InstanceError, match="b"):
        BlkpInstance(1, 1, [2], [3], [2], [5], [4], 100)


@pytest.mark.parametrize("fields,args", [
    # every entry fits int64 but the total does not
    ("a1, a2", (2, 1, [2 ** 62, 2 ** 62], [1, 1], [2 ** 62], [1], [1], 5)),
    ("d1, d2", (2, 1, [1, 1], [2 ** 62, 2 ** 62], [1], [2 ** 62], [1], 2)),
])
def test_totals_beyond_int64_rejected(fields, args):
    with pytest.raises(InstanceError, match=fields):
        BlkpInstance(*args)
