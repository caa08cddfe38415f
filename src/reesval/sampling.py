"""Deterministic sampling of lattice boxes for the cross-check harness."""

from __future__ import annotations

import random
from typing import Sequence

from .core import check_collection, check_count


def box_volume(bounds: Sequence[int]) -> int:
    vol = 1
    for b in bounds:
        vol *= b + 1
    return vol


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
    """
    check_count(cap, "cap", 0)
    bounds = check_collection(bounds, "bounds")
    for b in bounds:
        check_count(b, "bound", 0)
    vol = box_volume(bounds)
    if vol <= cap:
        return [_decode(i, bounds) for i in range(vol)]
    rng = random.Random(seed_key)
    picks = sorted(rng.sample(range(vol), cap))
    return [_decode(i, bounds) for i in picks]
