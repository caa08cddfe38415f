"""Deterministic sampling of lattice boxes for the cross-check harness."""

from __future__ import annotations

import random
from math import prod
from typing import Sequence

from .core import check_collection, check_count


def sample_box(bounds: Sequence[int], cap: int, seed_key: str) -> list[tuple[int, ...]]:
    """Lattice points of prod [0, bounds[i]]: all of them when the box holds
    at most `cap` points, otherwise `cap` points drawn without replacement
    by a generator seeded from `seed_key` (stable across runs and machines).
    Either way the points come in index order, the index of a point m being
    sum m_i * prod_{j<i} (bounds[j] + 1): coordinate 0 varies fastest.
    The points are built column by column from their indexes; the empty
    box has the one point ().
    """
    check_count(cap, "cap", 0)
    bounds = tuple(check_count(b, "bound", 0) for b in check_collection(bounds, "bounds"))
    vol = prod(b + 1 for b in bounds)
    picks = range(vol) if vol <= cap else sorted(random.Random(seed_key).sample(range(vol), cap))
    columns = []
    stride = 1
    for b in bounds:
        columns.append([i // stride % (b + 1) for i in picks])
        stride *= b + 1
    return list(zip(*columns)) if columns else [()] * len(picks)
