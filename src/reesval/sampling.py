"""Deterministic sampling of lattice boxes for the cross-check harness."""

from __future__ import annotations

import random
from math import prod
from typing import Sequence

from .core import check_collection, check_count


def _decode(index: int, bounds: Sequence[int]) -> tuple[int, ...]:
    coords = []
    for b in bounds:
        coords.append(index % (b + 1))
        index //= b + 1
    return tuple(coords)


def sample_box(bounds: Sequence[int], cap: int, seed_key: str) -> list[tuple[int, ...]]:
    """Lattice points of prod [0, bounds[i]]: all of them when the box holds
    at most `cap` points, otherwise `cap` points drawn without replacement
    by a generator seeded from `seed_key` (stable across runs and machines).
    Either way the points come in index order, the index of a point m being
    sum m_i * prod_{j<i} (bounds[j] + 1): coordinate 0 varies fastest.
    """
    check_count(cap, "cap", 0)
    bounds = tuple(check_count(b, "bound", 0) for b in check_collection(bounds, "bounds"))
    vol = prod(b + 1 for b in bounds)
    if vol <= cap:
        return [_decode(i, bounds) for i in range(vol)]
    rng = random.Random(seed_key)
    picks = sorted(rng.sample(range(vol), cap))
    return [_decode(i, bounds) for i in picks]
