"""Packed lane arithmetic checked against scalar Group arithmetic."""

import random

import numpy as np
import pytest

from groupconn._pack import Packer, pack_supported
from groupconn.groups import Z3, Z4, Z2xZ2, make_group

# z4 and z2^2 use the power-of-two layout, z3 and z2 x z3 the 4-bit lanes
GROUPS = [Z4, Z2xZ2, Z3, make_group([2, 3])]


def _lengths(group):
    longest = max(n for n in range(1, 64) if pack_supported(group, n))
    return [1, 2, 5, longest]


def _vectors(group, length, seed):
    rng = random.Random(seed)
    k = group.order
    vecs = [tuple(rng.randrange(k) for _ in range(length)) for _ in range(60)]
    vecs += [tuple(rng.randrange(1, k) for _ in range(length)) for _ in range(20)]
    vecs.append((0,) * length)
    vecs.append((k - 1,) * length)
    one_zero = [1] * length
    one_zero[rng.randrange(length)] = 0
    vecs.append(tuple(one_zero))
    return vecs


def _columns(packer, vecs):
    packed = [packer.pack(v) for v in vecs]
    return tuple(np.array([p[f] for p in packed], dtype=np.uint64) for f in range(len(packer.group.factors)))


def _row(cols, i):
    return tuple(w[i] for w in cols)


def _cases():
    for group in GROUPS:
        for length in _lengths(group):
            yield pytest.param(group, length, id=f"{group.spec_string()}-{length}")


@pytest.mark.parametrize("group,length", _cases())
def test_pack_unpack_round_trip(group, length):
    packer = Packer(group, length)
    vecs = _vectors(group, length, 1)
    for v in vecs:
        assert packer.unpack(packer.pack(v)) == list(v)
    cols = _columns(packer, vecs)
    for i, v in enumerate(vecs):
        assert packer.unpack(_row(cols, i)) == list(v)


@pytest.mark.parametrize("group,length", _cases())
def test_add_and_neg_match_group(group, length):
    packer = Packer(group, length)
    xs, ys = _vectors(group, length, 2), _vectors(group, length, 3)
    sums = packer.add(_columns(packer, xs), _columns(packer, ys))
    for i, (x, y) in enumerate(zip(xs, ys)):
        assert packer.unpack(_row(sums, i)) == [group.add(a, b) for a, b in zip(x, y)]
    # scalar packed values take the same path as arrays
    assert packer.unpack(packer.add(packer.pack(xs[0]), packer.pack(ys[0]))) == [
        group.add(a, b) for a, b in zip(xs[0], ys[0])
    ]


@pytest.mark.parametrize("group,length", _cases())
def test_key_is_dense_little_endian_index(group, length):
    packer = Packer(group, length)
    vecs = _vectors(group, length, 5)
    keys = packer.key(_columns(packer, vecs))
    k = group.order
    for i, v in enumerate(vecs):
        assert int(keys[i]) == sum(a * k**p for p, a in enumerate(v))


def test_layout_limits():
    assert pack_supported(Z4, 31) and not pack_supported(Z4, 32)
    assert pack_supported(Z3, 15) and not pack_supported(Z3, 16)
    assert not pack_supported(Z4, 0)
    with pytest.raises(ValueError):
        Packer(Z4, 32)
    with pytest.raises(ValueError):
        Packer(make_group([8, 3]), 2)
