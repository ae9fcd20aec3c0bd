"""Bilevel knapsack instances: data model, random generation, file I/O.

An instance has two disjoint item sets sharing one knapsack of capacity b.
Leader items carry (weight a1, leader profit d1); follower items carry
(weight a2, leader profit d2, follower profit c). All data are positive
integers, capacity is a non-negative integer.

One rule holds however an instance is made, by the constructor, by
`generate` or from a file: every field is an integer within the 64-bit
range (an integral float such as 2.0 counts), held as a Python int for
n1, n2 and b and as an int64 array for the item vectors. A fraction, a
bool, a string, a list where a count belongs or a value past int64 is
refused with an `InstanceError` naming the field, as is a vector whose
length differs from its count, an entry below its least value, totals
past int64, or a capacity beyond the total weight. The file reader adds
only the document's own checks: its format and version, a missing field,
and a `meta` that is not an object.

Settings have one rule too, `check_int`, applied to every integer field
of `GenConfig`, `search.SearchConfig`, `trainer.TrainConfig` and
`pnanet.PnaConfig` and to `exact.collect_labels`'s k: a Python int, not a
bool, a float such as 2.0 or a string, and at least the setting's least
value, or a refusal naming the setting.

Random generation uses numpy's default PCG64 generator so that instances
reproduce exactly from a seed across platforms. Draw order is fixed:
a1, a2, d2, then (UC only) d1, c, then the capacity ratio.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

FORMAT_VERSION = 1

UNCORRELATED = "UC"
CORRELATED = "C"


_INT64 = np.iinfo(np.int64)


class InstanceError(ValueError):
    """Raised when instance data violates the model invariants."""


# Every field, in file order: a vector names the count field its length must
# equal, and each field the least entry it admits.
_FIELDS = {"n1": (None, 1), "n2": (None, 1), "a1": ("n1", 1), "d1": ("n1", 1),
           "a2": ("n2", 1), "d2": ("n2", 1), "c": ("n2", 1), "b": (None, 0)}


def integer(name: str, v, error=InstanceError) -> int:
    """v as an int, refused unless int64 holds it exactly; an integral float such as 2.0 is one.

    A refusal is an `error` naming `name`.
    """
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise error(f"{name}: entry {v!r} is not an integer")
    if not _INT64.min <= v <= _INT64.max:
        raise error(f"{name}: entry {v} is outside the 64-bit integer range")
    return int(v)


def int_vector(name: str, value, n: int, error=InstanceError) -> np.ndarray:
    """value as an int64 array of n entries, each an integer by `integer`."""
    # generate's int64 arrays skip the per-entry loop
    if not (isinstance(value, np.ndarray) and value.dtype == np.int64):
        entries = value.tolist() if isinstance(value, np.ndarray) else value
        if isinstance(entries, (list, tuple)):
            entries = [integer(name, v, error) for v in entries]
        else:  # a scalar, then refused by the length check
            entries = integer(name, entries, error)
        value = np.array(entries, dtype=np.int64)
    if value.shape != (n,):
        raise error(f"{name}: length {value.shape} does not match count {n}")
    return value


@dataclass
class BlkpInstance:
    n1: int
    n2: int
    a1: np.ndarray  # leader weights
    d1: np.ndarray  # leader profits of leader items
    a2: np.ndarray  # follower weights
    d2: np.ndarray  # leader profits of follower items
    c: np.ndarray   # follower profits
    b: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, (count, least) in _FIELDS.items():
            if count is None:
                value = integer(name, getattr(self, name))
                below = value < least
            else:
                value = int_vector(name, getattr(self, name), getattr(self, count))
                below = value.min() < least  # the length check leaves n >= 1 entries
            if below:
                raise InstanceError(f"{name}: {'entries ' if count else ''}must be >= {least}")
            setattr(self, name, value)
        # exact sums: bounding the totals keeps every subset sum of weights or
        # leader profits that the solvers form in int64 from wrapping
        total_weight = sum(self.a1.tolist()) + sum(self.a2.tolist())
        if total_weight > _INT64.max:
            raise InstanceError("a1, a2: total weight exceeds the 64-bit integer range")
        if sum(self.d1.tolist()) + sum(self.d2.tolist()) > _INT64.max:
            raise InstanceError("d1, d2: total leader profit exceeds the 64-bit integer range")
        if self.b > total_weight:
            raise InstanceError("b: exceeds total item weight")

    def __eq__(self, other):
        if not isinstance(other, BlkpInstance):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in _FIELDS)

    @property
    def total_weight(self) -> int:
        return int(self.a1.sum() + self.a2.sum())


def is_int(value) -> bool:
    """Whether value is a Python int: a bool, a float such as 2.0 or a string is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_int(name: str, value, least: int, error=ValueError) -> None:
    """Raise `error`, naming the setting, unless value is an int by `is_int` and >= least."""
    if not is_int(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")


def is_number(value) -> bool:
    """Whether value is a Python int or float: a bool or a string such as "1e3" is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def binary_vector(v, n: int, name: str) -> np.ndarray:
    """v as an int64 0/1 vector of length n; anything else raises ValueError."""
    v = np.asarray(v)
    if v.shape != (n,) or not ((v == 0) | (v == 1)).all():
        raise ValueError(f"{name} must be a 0/1 vector of length {n}")
    return v.astype(np.int64)


@dataclass(frozen=True)
class GenConfig:
    n1: int
    n2: int
    data_type: str = UNCORRELATED
    alpha_lo: float = 0.5
    alpha_hi: float = 0.75
    value_max: int = 1000
    seed: int = 0

    def __post_init__(self):
        # n1 2.5 would fail inside numpy, and the seed -1 inside it naming no field
        for name, least in (("n1", 1), ("n2", 1), ("value_max", 1), ("seed", 0)):
            check_int(f"GenConfig: {name}", getattr(self, name), least, InstanceError)
        if self.data_type not in (UNCORRELATED, CORRELATED):
            raise InstanceError(f"GenConfig: unknown data_type {self.data_type!r}")
        for name in ("alpha_lo", "alpha_hi"):  # true would run as 1, "0.5" not compare
            value = getattr(self, name)
            if not is_number(value):
                raise InstanceError(f"GenConfig: {name} must be a number, got {value!r}")
        if not (0.0 < self.alpha_lo <= self.alpha_hi <= 1.0):
            raise InstanceError("GenConfig: need 0 < alpha_lo <= alpha_hi <= 1")


def generate(cfg: GenConfig) -> BlkpInstance:
    """Draw a random instance.

    Uncorrelated (UC): all profits and weights uniform in [1, value_max].
    Correlated (C): d1 = a1 + 100 and c = a2 + 100.
    Capacity b = round(alpha * total weight), alpha uniform in
    [alpha_lo, alpha_hi].
    """
    rng = np.random.default_rng(cfg.seed)
    hi = cfg.value_max + 1
    a1 = rng.integers(1, hi, size=cfg.n1, dtype=np.int64)
    a2 = rng.integers(1, hi, size=cfg.n2, dtype=np.int64)
    d2 = rng.integers(1, hi, size=cfg.n2, dtype=np.int64)
    if cfg.data_type == CORRELATED:
        d1 = a1 + 100
        c = a2 + 100
    else:
        d1 = rng.integers(1, hi, size=cfg.n1, dtype=np.int64)
        c = rng.integers(1, hi, size=cfg.n2, dtype=np.int64)
    alpha = rng.uniform(cfg.alpha_lo, cfg.alpha_hi)
    b = int(np.rint(alpha * (int(a1.sum()) + int(a2.sum()))))
    meta = {
        "data_type": cfg.data_type,
        "seed": cfg.seed,
        "alpha": alpha,
        "value_max": cfg.value_max,
    }
    return BlkpInstance(cfg.n1, cfg.n2, a1, d1, a2, d2, c, b, meta=meta)


def instance_to_dict(inst: BlkpInstance) -> dict:
    return {"format": "blkp-instance", "format_version": FORMAT_VERSION,
            **{k: np.asarray(getattr(inst, k)).tolist() for k in _FIELDS}, "meta": inst.meta}


def instance_from_dict(doc: dict) -> BlkpInstance:
    """The instance a document holds; its fields are checked by the constructor."""
    if not isinstance(doc, dict) or doc.get("format") != "blkp-instance":
        raise InstanceError("format: not a blkp-instance document")
    version = doc.get("format_version")
    if not is_int(version) or version != FORMAT_VERSION:  # true and 1.0 equal 1
        raise InstanceError(f"format_version: expected {FORMAT_VERSION}, got {version}")
    missing = [k for k in _FIELDS if k not in doc]
    if missing:
        raise InstanceError(f"{missing[0]}: field missing")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise InstanceError("meta: not an object")
    return BlkpInstance(**{k: doc[k] for k in _FIELDS}, meta=dict(meta))


def write_instance(inst: BlkpInstance, path) -> None:
    """Write a single instance to `path` as a self-describing JSON document."""
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)


def read_instance(path) -> BlkpInstance:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise InstanceError(f"malformed document: {exc}") from exc
    return instance_from_dict(doc)
