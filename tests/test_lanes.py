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


def test_stored_vectors_answer_some_stored_v_below_m():
    # any_below and store against a plain scan: at every width, past 64
    # stored vectors, with entries at 0 and at 2**(w-1) - 1, the largest
    # below the guard; each query is
    # a stored vector, the same with one entry one lower, or a random one;
    # the store leaves the given one unchanged, which lets callers share an
    # empty store
    rng = random.Random(2501)
    for w in range(1, 71):
        top = (1 << (w - 1)) - 1
        d = rng.randint(1, 4)
        columns, guard = [0] * d, 0
        stored = []
        for _ in range(66):
            v = tuple(rng.choice((0, top, rng.randint(0, top))) for _ in range(d))
            j = rng.randrange(d)
            lower = v[:j] + (max(v[j] - 1, 0),) + v[j + 1:]
            for m in (v, lower, tuple(rng.randint(0, top) for _ in range(d))):
                expected = any(all(a <= b for a, b in zip(q, m)) for q in stored)
                assert lanes.any_below(columns, guard, m, w) == expected, (w, stored, m)
            given, kept = columns, columns[:]
            columns, guard = lanes.store(columns, guard, v, w)
            assert given == kept  # the given store is left as it was
            stored.append(v)
        assert guard == lanes.guards(len(stored), w)
