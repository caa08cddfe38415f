"""Guard-bit lanes: many small integers held in one Python int.

Lane i of a packed int is bits [i*w, (i+1)*w) on every platform, and its
top bit 2**(w-1) is its guard.  pack(v, w) = sum v_i * 2**(i*w) for
0 <= v_i < 2**w, and `unpack` reads back those base-2**w digits.  Every
packed kernel (the stored vectors of `normalize` and of the closure
oracle's kept members, divisibility in the decomposition, row membership
in the closure walk and both per-sample cuts, `vbar`'s row dots) stands
on one fact, proved here once.

Packing is linear: for ints c_k, sum c_k * pack(v_k) is
sum_i L_i * 2**(i*w) with L_i = sum_k c_k * v_k[i], whatever the signs.
So when every L_i lies in [0, 2**w), the result is pack(L): no carry or
borrow crossed a lane.  With G = guards(count, w), if every lane s_i of a
combination S has |s_i| < 2**(w-1), then G + S = pack(2**(w-1) + s), each
lane in [1, 2**w - 1], and guard bit i is set iff s_i >= 0.  For entries
below 2**(w-1), pack(x) | G = pack(x) + G, so
((pack(x) | G) - pack(y)) & G == G iff y <= x lane by lane.  width(peak)
puts peak below 2**(w-1); a caller takes peak at least every value it
packs and every |s_i| it tests.

Stored vectors ("is some stored v <= m?") use that test with one lane
per stored vector and one int per coordinate: lane i of column j holds
2**(w-1) - v_i[j], which is in [1, 2**(w-1)] for 0 <= v_i[j] < 2**(w-1),
so G + S with s_i = m[j] - v_i[j] is m[j] * ONE + column j, where ONE is
G >> (w-1).  |s_i| < 2**(w-1) for m[j] below 2**(w-1) too, so the guard
bits that survive the AND over the columns are the v_i <= m: d big-int
steps for all stored vectors at once.  Storing v in the next lane adds
2**(w-1) - v[j] at that lane, which was 0, to each column; the next lane
starts at G.bit_length(), so no count is kept.

At w = 64, array("Q") packs and reads back at C speed, byte-swapped on a
big-endian host so that it gives the ints of the shift loop.
"""

from __future__ import annotations

import sys
from array import array
from typing import Sequence

_SWAP = sys.byteorder == "big"


def width(peak: int) -> int:
    """The lane width that keeps every value in [-peak, peak] off the guard."""
    return peak.bit_length() + 1


def pack(values: Sequence[int], w: int) -> int:
    """values[i] in lane i, for 0 <= values[i] < 2**w."""
    if w == 64:
        raw = array("Q", values)
        if _SWAP:
            raw.byteswap()
        return int.from_bytes(raw, "little")
    x = 0
    for v in reversed(values):
        x = (x << w) | v
    return x


def guards(count: int, w: int) -> int:
    """The guard bit of each of lanes 0..count-1."""
    return ((1 << (count * w)) - 1) // ((1 << w) - 1) << (w - 1)


def unpack(x: int, count: int, w: int) -> list[int]:
    """Lanes 0..count-1 of x, for 0 <= x < 2**(count*w)."""
    if w == 64:
        raw = array("Q", x.to_bytes(8 * count, "little"))
        if _SWAP:
            raw.byteswap()
        return raw.tolist()
    mask = (1 << w) - 1
    return [(x >> (i * w)) & mask for i in range(count)]


def any_below(columns: Sequence[int], guard: int, m: Sequence[int], w: int) -> bool:
    """True when some vector stored in (columns, guard) is <= m entrywise,
    for m's entries below 2**(w-1) (see the module docstring)."""
    hit = guard
    ones = guard >> (w - 1)
    for e, column in zip(m, columns):
        hit &= e * ones + column
    return hit != 0


def store(columns: Sequence[int], guard: int, v: Sequence[int], w: int) -> tuple[list[int], int]:
    """(columns, guard) with v, entries below 2**(w-1), in the next lane.

    A store starts as ([0] * d, 0); the given one is left unchanged."""
    shift = guard.bit_length()
    bit = 1 << (shift + w - 1)
    return [column + bit - (e << shift) for column, e in zip(columns, v)], guard | bit
