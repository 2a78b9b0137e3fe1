import itertools

import pytest

from vilenkin.group import (
    Cylinder,
    GroupPoint,
    coset_partition,
    make_base,
    nat_expand,
    nat_value,
    point_of,
    rank_of,
    unit_point,
    zero_point,
)


def test_make_base_orders():
    assert make_base((2, 2, 2, 2)).orders == (1, 2, 4, 8, 16)
    assert make_base((2, 3, 2, 3)).orders == (1, 2, 6, 12, 36)


def test_make_base_cycles_pattern():
    base = make_base((2, 3), 5)
    assert base.moduli == (2, 3, 2, 3, 2)
    assert base.size == 72
    assert base.max_digit == 3


def test_make_base_rejects_small_moduli():
    with pytest.raises(ValueError):
        make_base((1, 2))
    with pytest.raises(ValueError):
        make_base((2, 0, 2))
    with pytest.raises(ValueError):
        make_base((2,), 0)


def test_point_add_examples():
    b = make_base((2, 2, 2))
    x = GroupPoint(b, (1, 0, 1))
    y = GroupPoint(b, (1, 1, 0))
    assert (x + y).coords == (0, 1, 1)  # XOR in base 2

    b23 = make_base((2, 3))
    z = GroupPoint(b23, (1, 2))
    assert (z + z).coords == (0, 1)

    assert x + zero_point(b) == x


def test_point_add_rejects_mismatched_bases():
    x = zero_point(make_base((2, 2)))
    y = zero_point(make_base((2, 3)))
    with pytest.raises(ValueError, match="mismatched"):
        x + y


def test_point_coordinates_validated():
    b = make_base((2, 3))
    with pytest.raises(ValueError):
        GroupPoint(b, (2, 0))
    with pytest.raises(ValueError):
        GroupPoint(b, (0,))


@pytest.mark.parametrize("moduli,depth", [((2,), 8), ((2, 3, 2, 3), 4)])
def test_add_sub_inverse_exhaustive(moduli, depth):
    base = make_base(moduli, depth)
    points = [point_of(base, r, base.depth) for r in range(base.size)]
    for x, y in itertools.product(points, repeat=2):
        assert (x + y) - y == x


def test_rank_examples():
    b = make_base((2, 2, 2))
    assert rank_of(GroupPoint(b, (1, 0, 1)), 3) == 5  # binary 101, x_0 leading
    assert rank_of(zero_point(b), 3) == 0
    assert point_of(b, 0, 3) == zero_point(b)
    b23 = make_base((2, 3))
    assert rank_of(GroupPoint(b23, (1, 2)), 2) == 5  # 1*3 + 2


@pytest.mark.parametrize("moduli,depth", [((2,), 6), ((2, 3), 4), ((3, 2, 4), 3)])
def test_rank_point_bijection_every_level(moduli, depth):
    base = make_base(moduli, depth)
    for level in range(base.depth + 1):
        seen = set()
        for r in range(base.orders[level]):
            p = point_of(base, r, level)
            assert rank_of(p, level) == r
            seen.add(p.coords)
        assert len(seen) == base.orders[level]


def test_rank_level_out_of_range():
    base = make_base((2,), 3)
    with pytest.raises(ValueError):
        rank_of(zero_point(base), 4)
    with pytest.raises(ValueError):
        point_of(base, 0, -1)
    with pytest.raises(ValueError):
        point_of(base, 8, 3)


def test_nat_expand_examples():
    b = make_base((2, 2, 2))
    e = nat_expand(b, 5)
    assert e.digits == (1, 0, 1)
    assert e.order == 2
    z = nat_expand(b, 0)
    assert z.digits == (0, 0, 0)
    assert z.order == 0
    b232 = make_base((2, 3, 2))
    e7 = nat_expand(b232, 7)
    assert e7.digits == (1, 0, 1)  # 7 = 1*1 + 0*2 + 1*6
    assert e7.order == 2


def test_nat_expand_range_check():
    base = make_base((2, 3))
    with pytest.raises(ValueError):
        nat_expand(base, 6)
    with pytest.raises(ValueError):
        nat_expand(base, -1)


@pytest.mark.parametrize("moduli,depth", [((2,), 7), ((2, 3, 2), 3), ((5, 3), 3)])
def test_nat_expand_round_trip(moduli, depth):
    base = make_base(moduli, depth)
    for n in range(base.size):
        e = nat_expand(base, n)
        assert nat_value(base, e.digits) == n
        if n:
            assert e.digits[e.order] != 0
            assert all(d == 0 for d in e.digits[e.order + 1 :])


def test_coset_partition_dyadic_level2():
    base = make_base((2,), 4)
    cells = coset_partition(base, 2)
    anchors = [c.anchor.coords[:2] for c in cells]
    # pair family first (both digits nonzero), then the single-digit family
    assert anchors == [(1, 1), (1, 0), (0, 1)]
    assert sum(c.measure for c in cells) == pytest.approx(3 / 4)


@pytest.mark.parametrize(
    "moduli,depth", [((2,), 8), ((2, 3, 2, 3), 4), ((3,), 4), ((6, 6, 2), 3)]
)
def test_coset_partition_tiles_complement_exactly(moduli, depth):
    base = make_base(moduli, depth)
    for level in range(1, base.depth + 1):
        cells = coset_partition(base, level)
        covered: list[int] = []
        for c in cells:
            covered.extend(c.block(base.depth))
        zero_block = Cylinder(base, level, 0).block(base.depth)
        expected = set(range(base.size)) - set(zero_block)
        assert len(covered) == len(expected)  # pairwise disjoint
        assert set(covered) == expected
        assert sum(c.measure for c in cells) == pytest.approx(1 - 1 / base.orders[level])


def test_coset_partition_level_out_of_range():
    base = make_base((2,), 3)
    with pytest.raises(ValueError):
        coset_partition(base, 0)
    with pytest.raises(ValueError):
        coset_partition(base, 4)


def test_cylinder_block_and_contains():
    base = make_base((2, 3, 2), 3)
    cell = Cylinder.at(GroupPoint(base, (1, 2, 0)), 2)
    assert cell.rank == 5
    assert list(cell.block(3)) == [10, 11]
    assert cell.contains(GroupPoint(base, (1, 2, 1)))
    assert not cell.contains(GroupPoint(base, (1, 1, 1)))
    assert cell.measure == pytest.approx(1 / 6)


@pytest.mark.parametrize("moduli", [(2, 3), (3,), (5, 4, 3)])
def test_cylinder_is_its_rank_at_every_point_and_level(moduli):
    """A cylinder built from a point or from its rank is the set of points
    sharing that point's first n digits, checked on every point and level."""
    base = make_base(moduli, 3)
    points = [GroupPoint(base, c) for c in itertools.product(*(range(m) for m in base.moduli))]
    for p in points:
        for n in range(base.depth + 1):
            cell = Cylinder.at(p, n)
            assert cell == Cylinder(base, n, rank_of(p, n))
            assert cell.anchor.coords == p.coords[:n] + (0,) * (base.depth - n)
            assert [cell.contains(q) for q in points] == [q.coords[:n] == p.coords[:n] for q in points]
            for m in range(n, base.depth + 1):
                shared = [r for r in range(base.orders[m]) if point_of(base, r, m).coords[:n] == p.coords[:n]]
                assert list(cell.block(m)) == shared


def test_unit_point_multiples():
    base = make_base((5,), 3)
    assert unit_point(base, 1).coords == (0, 1, 0)
    assert unit_point(base, 1, 4).coords == (0, 4, 0)
    with pytest.raises(ValueError):
        unit_point(base, 3)


def test_load_base_from_config(tmp_path):
    import json

    from vilenkin.group import load_base

    path = tmp_path / "base.json"
    path.write_text(json.dumps({"moduli": [2, 3], "depth": 5}))
    base = load_base(path)
    assert base.moduli == (2, 3, 2, 3, 2)
    path.write_text(json.dumps({"moduli": [4, 4]}))
    assert load_base(path).depth == 2
    path.write_text(json.dumps({"depth": 3}))
    with pytest.raises(ValueError, match="moduli"):
        load_base(path)
