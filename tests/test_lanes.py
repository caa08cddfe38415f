"""The guard-bit lane layout that every packed kernel reads."""

import random

from reesval import lanes


def test_lanes_round_trip_and_guard_test():
    # lane i is bits [i*w, (i+1)*w) at every width: at w = 64 the array
    # path must give the shift sum's int on any host, which pins its byte
    # order; the guard test reads x_i >= y_i lane by lane for entries below
    # the guard, and width(peak) keeps peak below it
    rng = random.Random(2101)
    for w in range(2, 71):
        for count in (0, 1, 2, 3, 40, *(rng.randint(0, 40) for _ in range(4))):
            v = [rng.choice((0, 1, (1 << w) - 1, rng.getrandbits(w))) for _ in range(count)]
            x = lanes.pack(v, w)
            assert x == sum(e << (w * i) for i, e in enumerate(v)), (w, v)
            assert lanes.unpack(x, count, w) == v, (w, v)
            guard = lanes.guards(count, w)
            assert guard == lanes.pack([1 << (w - 1)] * count, w)
            top = (1 << (w - 1)) - 1
            xs = [rng.choice((0, top, rng.randint(0, top))) for _ in range(count)]
            ys = [rng.choice((0, top, e, e + 1, rng.randint(0, top))) for e in xs]
            ys = [min(e, top) for e in ys]
            test = ((lanes.pack(xs, w) | guard) - lanes.pack(ys, w)) & guard
            assert lanes.unpack(test >> (w - 1), count, w) == [
                int(a >= b) for a, b in zip(xs, ys)
            ], (w, xs, ys)
            assert lanes.width(top) == w and lanes.width(top + 1) == w + 1

