"""Bilevel knapsack instances: data model, random generation, file I/O.

An instance has two disjoint item sets sharing one knapsack of capacity b.
Leader items carry (weight a1, leader profit d1); follower items carry
(weight a2, leader profit d2, follower profit c). All data are positive
integers, capacity is a non-negative integer.

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
        self.a1 = np.asarray(self.a1, dtype=np.int64)
        self.d1 = np.asarray(self.d1, dtype=np.int64)
        self.a2 = np.asarray(self.a2, dtype=np.int64)
        self.d2 = np.asarray(self.d2, dtype=np.int64)
        self.c = np.asarray(self.c, dtype=np.int64)
        self.b = int(self.b)
        validate_instance(self)

    def __eq__(self, other):
        if not isinstance(other, BlkpInstance):
            return NotImplemented
        return (
            self.n1 == other.n1
            and self.n2 == other.n2
            and self.b == other.b
            and np.array_equal(self.a1, other.a1)
            and np.array_equal(self.d1, other.d1)
            and np.array_equal(self.a2, other.a2)
            and np.array_equal(self.d2, other.d2)
            and np.array_equal(self.c, other.c)
        )

    @property
    def total_weight(self) -> int:
        return int(self.a1.sum() + self.a2.sum())


def validate_instance(inst: BlkpInstance) -> None:
    if inst.n1 < 1:
        raise InstanceError("n1: must be >= 1")
    if inst.n2 < 1:
        raise InstanceError("n2: must be >= 1")
    for name, arr, n in (
        ("a1", inst.a1, inst.n1),
        ("d1", inst.d1, inst.n1),
        ("a2", inst.a2, inst.n2),
        ("d2", inst.d2, inst.n2),
        ("c", inst.c, inst.n2),
    ):
        if arr.shape != (n,):
            raise InstanceError(f"{name}: length {arr.shape} does not match count {n}")
        if (arr < 1).any():
            raise InstanceError(f"{name}: entries must be >= 1")
    # exact sums: bounding the totals keeps every subset sum of weights or
    # leader profits that the solvers form in int64 from wrapping
    total_weight = sum(inst.a1.tolist()) + sum(inst.a2.tolist())
    if total_weight > _INT64.max:
        raise InstanceError("a1, a2: total weight exceeds the 64-bit integer range")
    if sum(inst.d1.tolist()) + sum(inst.d2.tolist()) > _INT64.max:
        raise InstanceError("d1, d2: total leader profit exceeds the 64-bit integer range")
    if inst.b < 0:
        raise InstanceError("b: must be >= 0")
    if inst.b > total_weight:
        raise InstanceError("b: exceeds total item weight")


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
        if self.n1 < 1 or self.n2 < 1:
            raise InstanceError("GenConfig: n1 and n2 must be >= 1")
        if self.data_type not in (UNCORRELATED, CORRELATED):
            raise InstanceError(f"GenConfig: unknown data_type {self.data_type!r}")
        if not (0.0 < self.alpha_lo <= self.alpha_hi <= 1.0):
            raise InstanceError("GenConfig: need 0 < alpha_lo <= alpha_hi <= 1")
        if self.value_max < 1:
            raise InstanceError("GenConfig: value_max must be >= 1")


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
    return {
        "format": "blkp-instance",
        "format_version": FORMAT_VERSION,
        "n1": inst.n1,
        "n2": inst.n2,
        "a1": inst.a1.tolist(),
        "d1": inst.d1.tolist(),
        "a2": inst.a2.tolist(),
        "d2": inst.d2.tolist(),
        "c": inst.c.tolist(),
        "b": inst.b,
        "meta": inst.meta,
    }


_FIELDS = ("n1", "n2", "a1", "d1", "a2", "d2", "c", "b")


def _integers(name: str, value):
    """A JSON integer or integer list; int64 would truncate or overflow on others."""
    for v in value if isinstance(value, list) else [value]:
        if isinstance(v, float) and v.is_integer():
            v = int(v)
        if isinstance(v, bool) or not isinstance(v, int):
            raise InstanceError(f"{name}: entry {v!r} is not an integer")
        if not _INT64.min <= v <= _INT64.max:
            raise InstanceError(f"{name}: entry {v} is outside the 64-bit integer range")
    return value


def instance_from_dict(doc: dict) -> BlkpInstance:
    if not isinstance(doc, dict) or doc.get("format") != "blkp-instance":
        raise InstanceError("format: not a blkp-instance document")
    if doc.get("format_version") != FORMAT_VERSION:
        raise InstanceError(f"format_version: expected {FORMAT_VERSION}, got {doc.get('format_version')}")
    missing = [k for k in _FIELDS if k not in doc]
    if missing:
        raise InstanceError(f"{missing[0]}: field missing")
    fields = {k: _integers(k, doc[k]) for k in _FIELDS}
    try:
        return BlkpInstance(**fields, meta=dict(doc.get("meta", {})))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InstanceError):
            raise
        raise InstanceError(f"malformed field: {exc}") from exc


def write_instance(inst: BlkpInstance, sink) -> None:
    """Write a single instance as a self-describing JSON document.

    `sink` is a path or an open text file.
    """
    doc = instance_to_dict(inst)
    if hasattr(sink, "write"):
        json.dump(doc, sink, indent=1)
    else:
        with open(sink, "w") as fh:
            json.dump(doc, fh, indent=1)


def read_instance(source) -> BlkpInstance:
    try:
        if hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source) as fh:
                doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed document: {exc}") from exc
    return instance_from_dict(doc)
