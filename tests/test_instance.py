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


def test_round_trip(tmp_path):
    inst = generate(GenConfig(6, 3, data_type=CORRELATED, seed=9))
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    assert read_instance(path) == inst


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
    ("n1", [3]),              # read "malformed field: '<' not supported ...", naming no field
    ("b", [5]),
    ("n1", 0),
    ("n2", 0),
    ("b", -1),
    ("format", "blkp-checkpoint"),
    ("format_version", 2),
    ("format_version", True),  # true and 1.0 compare equal to 1, and were read
    ("format_version", 1.0),
    ("meta", [["seed", 5]]),  # a list of pairs was read as a dict
])
def test_read_rejects_non_int64_entries(field, value):
    doc = instance_to_dict(generate(GenConfig(3, 3, seed=5)))
    doc[field] = value
    with pytest.raises(InstanceError, match=field):
        instance_from_dict(doc)


@pytest.mark.parametrize("field", ["n1", "a2", "b"])
def test_read_rejects_missing_field(field):
    doc = instance_to_dict(generate(GenConfig(3, 3, seed=5)))
    del doc[field]
    with pytest.raises(InstanceError, match=f"^{field}: field missing$"):
        instance_from_dict(doc)


def test_read_accepts_integral_floats():
    inst = generate(GenConfig(3, 3, seed=5))
    doc = instance_to_dict(inst)
    doc["a1"] = [float(v) for v in doc["a1"]]
    doc["b"] = float(doc["b"])
    assert instance_from_dict(doc) == inst


@pytest.mark.parametrize("data", [b"not json {", b'{"n1": "\xff"}'], ids=["not_json", "not_utf8"])
def test_read_rejects_garbage(tmp_path, data):
    path = tmp_path / "inst.json"
    path.write_bytes(data)
    with pytest.raises(InstanceError, match="malformed"):
        read_instance(path)


def test_invalid_config():
    with pytest.raises(InstanceError):
        GenConfig(0, 3)
    with pytest.raises(InstanceError):
        GenConfig(3, 3, alpha_lo=0.8, alpha_hi=0.5)
    with pytest.raises(InstanceError):
        GenConfig(3, 3, data_type="X")
    with pytest.raises(InstanceError, match="GenConfig: seed must be >= 0"):
        GenConfig(2, 3, seed=-1)
    with pytest.raises(InstanceError, match="GenConfig: value_max must be >= 1"):
        GenConfig(2, 3, value_max=0)
    # "0.5" raised TypeError, and true generated with alpha 1
    for fields in ({"alpha_lo": "0.5"}, {"alpha_lo": True, "alpha_hi": 1.0},
                   {"alpha_hi": True}):
        name = next(iter(fields))
        with pytest.raises(InstanceError, match=f"GenConfig: {name} must be a number"):
            GenConfig(3, 3, **fields)


@pytest.mark.parametrize("name, value", [("n1", 2.5), ("n1", True), ("n2", 3.0),
                                         ("value_max", 10.5), ("seed", 1.5), ("seed", "1")])
def test_non_integer_config_rejected(name, value):
    # n1 2.5 used to fail inside numpy, seed 1.5 inside SeedSequence, naming
    # no field, and value_max 10.5 generated an instance
    fields = {"n1": 2, "n2": 3, name: value}
    with pytest.raises(InstanceError, match=f"GenConfig: {name} must be an integer"):
        GenConfig(**fields)


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


@pytest.mark.parametrize("field, value", [
    ("a1", [1.7]),     # was truncated to 1
    ("b", 2.9),        # was truncated to 2
    ("d1", [True]),    # was read as 1
    ("c", ["3"]),      # was read as 3
    ("a2", [2 ** 70]),  # raised a bare OverflowError
    ("n1", True),      # was accepted, and the file written from it refused
])
def test_constructor_applies_the_integer_rule(field, value):
    fields = {"n1": 1, "n2": 1, "a1": [1], "d1": [1], "a2": [1], "d2": [1], "c": [1], "b": 1}
    fields[field] = value
    with pytest.raises(InstanceError, match=f"^{field}: entry "):
        BlkpInstance(**fields)


def test_numpy_integer_scalars_are_stored_as_int(tmp_path):
    # an np.int64 count made write_instance raise TypeError
    one = np.int64(1)
    inst = BlkpInstance(one, one, np.array([1], dtype=np.int32), [one], [1], [1], [1], one)
    assert [type(v) for v in (inst.n1, inst.n2, inst.b)] == [int, int, int]
    assert inst.a1.dtype == inst.d1.dtype == np.int64
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    assert read_instance(path) == inst


def test_scalar_item_vector_rejected():
    with pytest.raises(InstanceError, match=r"^a1: length \(\) does not match count 1$"):
        BlkpInstance(1, 1, a1=5, d1=[1], a2=[1], d2=[1], c=[1], b=1)


def test_equality_with_a_non_instance_is_not_implemented():
    inst = BlkpInstance(1, 1, a1=[1], d1=[1], a2=[1], d2=[1], c=[1], b=1)
    assert inst.__eq__(3) is NotImplemented
    assert not inst == 3 and inst != 3
