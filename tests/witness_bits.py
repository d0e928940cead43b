"""How two witnesses, or two cases, are compared exactly.

A witness is the same as another when its kind, sizes, sides, gap and
detail are the same, the floats bitwise, and its case holds the same keys
with equal values: the same arrays (``same_arrays``), bitwise, the same
family by name and the same model by name and size. A case's layout is not
compared here; the tests of its JSON round trip check it.
"""
from __future__ import annotations

import numpy as np


def plain(value):
    """What two equal case values share: a family's name, a model's name and
    size, or the shape and the values of an array, a point's weights or
    estimators' values, integers as ints and floats bitwise."""
    if hasattr(value, "dim"):
        return value.name, value.space.size
    if hasattr(value, "name"):
        return value.name
    value = getattr(value, "weights", value)
    if isinstance(value, list) and value and hasattr(value[0], "values"):
        value = [a.values for a in value]
    array = np.asarray(value)
    return array.shape, array.tolist() if array.dtype.kind in "biu" else array.astype(float).tobytes()


def same_arrays(case, other) -> bool:
    """Equal keys, equal maps, bitwise equal float rows, families of one name and models of one size."""
    return case.keys() == other.keys() and all(plain(case[key]) == plain(other[key]) for key in case)


def witness_bits(witness) -> tuple | None:
    """A witness's kind, sizes, sides, gap (floats as ``float.hex``) and
    detail, and its case by ``plain``: equal for witnesses that are the same
    bitwise, with case arrays equal by ``same_arrays``."""
    if witness is None:
        return None
    floats = (witness.lhs, witness.rhs, witness.gap)
    return (witness.kind, witness.m, witness.n, *(float(v).hex() for v in floats), witness.detail,
            {key: plain(value) for key, value in witness.case.items()})
