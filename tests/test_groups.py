import itertools
import time

import pytest
from hypothesis import given, strategies as st

from groupconn.groups import Group, Z2, Z3, Z4, Z2xZ2, make_group, parse_group

SMALL_GROUPS = [
    make_group(f)
    for f in ([2], [3], [4], [2, 2], [5], [6], [2, 3], [8], [2, 4], [2, 2, 2], [7])
]


def test_make_group_orders():
    assert make_group([4]).order == 4
    assert make_group([2, 2]).order == 4
    assert make_group([2, 3]).order == 6


def test_make_group_rejects_bad_factors():
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([1])
    with pytest.raises(ValueError):
        make_group([0, 2])


def test_order_cap():
    with pytest.raises(ValueError):
        make_group([65])
    # a huge exponent is refused before its factor list is built
    for spec in ("z2^1000000", "z2^1000000000000"):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="maximum 64"):
            parse_group(spec)
        assert time.perf_counter() - t0 < 1.0


def test_add_examples():
    assert Z4.add(3, 2) == 1
    assert Z2xZ2.add(3, 1) == 2  # (1,1) + (1,0) = (0,1)
    for g in SMALL_GROUPS:
        for a in g.elements():
            assert g.add(a, 0) == a


def test_neg_examples():
    assert Z4.neg(1) == 3
    assert Z2xZ2.neg(3) == 3
    for g in SMALL_GROUPS:
        assert g.neg(0) == 0


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        Z4.add(4, 0)
    with pytest.raises(ValueError):
        Z4.neg(-1)


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: g.spec_string())
def test_group_axioms_exhaustive(g: Group):
    els = list(g.elements())
    for a, b in itertools.product(els, repeat=2):
        assert g.add(a, b) == g.add(b, a)
        assert g.add(a, g.neg(a)) == 0
        assert g.sub(a, b) == g.add(a, g.neg(b))
    for a, b, c in itertools.product(els[: min(len(els), 8)], repeat=3):
        assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))


def test_z4_differs_from_z2xz2():
    assert all(Z2xZ2.add(a, a) == 0 for a in Z2xZ2.elements())
    assert Z4.add(1, 1) == 2


def test_tuple_round_trip():
    for g in SMALL_GROUPS:
        for a in g.elements():
            assert g.from_tuple(g.to_tuple(a)) == a


def test_format_and_parse_element():
    assert Z2xZ2.format_element(3) == "(1,1)"
    assert Z2xZ2.parse_element("(1,1)") == 3
    assert Z4.format_element(2) == "(2)"
    assert Z4.parse_element("2") == 2


def test_parse_group_specs():
    assert parse_group("z4").factors == (4,)
    assert parse_group("z2^2").factors == (2, 2)
    assert parse_group("c:2,3").factors == (2, 3)
    with pytest.raises(ValueError):
        parse_group("nope")


def test_spec_string_round_trip():
    for g in SMALL_GROUPS:
        assert parse_group(g.spec_string()).factors == g.factors


@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_neg_is_involution(g, data):
    a = data.draw(st.integers(0, g.order - 1))
    assert g.neg(g.neg(a)) == a
