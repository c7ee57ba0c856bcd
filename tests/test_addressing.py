from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_dfat_ranks
from hartsim.addressing import (
    AddressSpace,
    CapacityError,
    DepthOverflowError,
    SchemeConfig,
    SchemeKind,
    Threshold,
    binary_to_gray,
    dfat_index,
    gray_to_binary,
    level_order_index,
    position_id,
    threshold_from_ratio,
    tree_height_estimate,
)
from hartsim.avl import LEFT, RIGHT


# ----------------------------------------------------------------------
# Gray coding
# ----------------------------------------------------------------------
def test_gray_examples():
    assert binary_to_gray(0, 8) == 0
    assert binary_to_gray(7, 3) == 4
    assert binary_to_gray(2, 3) == 3


def test_gray_inverse_examples():
    assert gray_to_binary(0, 8) == 0
    assert gray_to_binary(4, 3) == 7
    assert gray_to_binary(3, 3) == 2


@pytest.mark.parametrize("func", [binary_to_gray, gray_to_binary])
def test_gray_range_checks(func):
    with pytest.raises(ValueError):
        func(-1, 4)
    with pytest.raises(ValueError):
        func(16, 4)


def test_gray_adjacency_and_bijectivity_small_widths():
    for width in range(1, 11):
        size = 1 << width
        codes = [binary_to_gray(k, width) for k in range(size)]
        assert sorted(codes) == list(range(size))  # bijection
        for k in range(size - 1):
            assert (codes[k] ^ codes[k + 1]).bit_count() == 1
        for k in range(size):
            assert gray_to_binary(codes[k], width) == k


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 21) - 1))
def test_gray_roundtrip_wide(value):
    assert gray_to_binary(binary_to_gray(value, 21), 21) == value


# ----------------------------------------------------------------------
# DFAT indexing
# ----------------------------------------------------------------------
def test_dfat_root_is_zero():
    assert dfat_index((), 3) == 0
    assert dfat_index((), 21) == 0


def test_dfat_seven_position_enumeration():
    expect = {
        (): 0,
        (LEFT,): 1,
        (LEFT, RIGHT): 2,
        (LEFT, LEFT): 3,
        (RIGHT,): 4,
        (RIGHT, RIGHT): 5,
        (RIGHT, LEFT): 6,
    }
    for path, rank in expect.items():
        assert dfat_index(path, 3) == rank


def test_dfat_right_child_skips_left_subtree():
    assert dfat_index((RIGHT,), 3) == 4


def test_dfat_matches_traversal_oracle():
    for capacity in range(1, 7):
        oracle = brute_force_dfat_ranks(capacity)
        assert len(oracle) == (1 << capacity) - 1
        for path, rank in oracle.items():
            assert dfat_index(path, capacity) == rank
        # injective, with range [0, 2**capacity - 1)
        ranks = sorted(oracle.values())
        assert ranks == list(range((1 << capacity) - 1))


def test_dfat_depth_overflow():
    with pytest.raises(DepthOverflowError):
        dfat_index((LEFT, LEFT, LEFT), 3)
    with pytest.raises(DepthOverflowError):
        dfat_index((LEFT,), 1)


def test_level_order_index():
    assert level_order_index((), 4) == 0
    assert level_order_index((LEFT,), 4) == 1
    assert level_order_index((RIGHT,), 4) == 2
    assert level_order_index((RIGHT, LEFT), 4) == 5
    with pytest.raises(DepthOverflowError):
        level_order_index((LEFT, LEFT), 2)


def test_position_id_unique_across_depths():
    seen = set()
    for capacity_path, rank in brute_force_dfat_ranks(5).items():
        pid = position_id(capacity_path)
        assert pid not in seen
        seen.add(pid)


def test_dfat_subtree_ranks_are_contiguous():
    """Positions inside any subtree occupy one contiguous rank interval,
    so a rotation never needs ranks from outside the rotated subtree."""
    capacity = 5
    oracle = brute_force_dfat_ranks(capacity)
    for root_path in oracle:
        ranks = sorted(
            rank
            for path, rank in oracle.items()
            if path[: len(root_path)] == root_path
        )
        assert ranks == list(range(ranks[0], ranks[0] + len(ranks)))


# ----------------------------------------------------------------------
# height estimate and thresholds
# ----------------------------------------------------------------------
def test_height_estimate_exact_values():
    assert tree_height_estimate(1) == 1
    assert tree_height_estimate(63) == 6
    assert tree_height_estimate((1 << 19) - 1) == 19
    for exponent in range(1, 25):
        assert tree_height_estimate((1 << exponent) - 1) == exponent
        # one past the full tree needs one more level
        assert tree_height_estimate(1 << exponent) == exponent + 1


def test_height_estimate_rejects_non_positive():
    with pytest.raises(ValueError):
        tree_height_estimate(0)


def test_threshold_examples():
    assert threshold_from_ratio(6, Fraction(1, 2)) == 3
    assert threshold_from_ratio(6, Fraction(1, 4)) == 2  # round(1.5) away from zero
    assert threshold_from_ratio(6, Fraction(3, 4)) == 5  # round(4.5)
    assert threshold_from_ratio(1, Fraction(1, 4)) == 1  # clamped
    assert threshold_from_ratio(19, Fraction(3, 4)) == 14  # round(14.25)


def test_threshold_matches_direct_formula_exhaustively():
    half = Fraction(1, 2)
    for height in range(1, 65):
        for ratio in (Fraction(1, 4), half, Fraction(3, 4)):
            value = ratio * height
            expected = max(1, int(value + half))  # round half away from zero
            assert threshold_from_ratio(height, ratio) == expected


def test_threshold_rejects_bad_ratio():
    for ratio in (0, -1, Fraction(5, 4)):
        with pytest.raises(ValueError):
            threshold_from_ratio(6, ratio)


def test_threshold_for_tree():
    threshold = Threshold.for_tree(63, Fraction(1, 2))
    assert threshold.height == 6
    assert threshold.level == 3
    assert 1 <= threshold.level <= threshold.height


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(SchemeKind.HART, 8)  # missing ratio
    with pytest.raises(ValueError):
        SchemeConfig(SchemeKind.HART, 8, Fraction(3, 2))
    cfg = SchemeConfig(SchemeKind.HART, 8, 0.5)
    assert cfg.threshold_ratio == Fraction(1, 2)


# ----------------------------------------------------------------------
# address space / spare queue
# ----------------------------------------------------------------------
def test_spare_queue_hands_out_lowest_free():
    space = AddressSpace(3)
    space.claim(0, "a")
    space.claim(1, "b")
    assert space.allocate_lowest_free("c") == 2


def test_spare_queue_fresh_space_starts_at_zero():
    space = AddressSpace(3)
    assert space.allocate_lowest_free("a") == 0


def test_spare_queue_capacity_error_with_null_reserved():
    space = AddressSpace(3)
    for value in range(7):  # 7 == null word, never handed out
        space.claim(value, f"n{value}")
    with pytest.raises(CapacityError):
        space.allocate_lowest_free("x")


def test_spare_queue_reuses_released_values_below_cursor():
    space = AddressSpace(4)
    for value in range(6):
        space.claim(value, f"n{value}")
    assert space.allocate_lowest_free("a") == 6
    space.release(2)
    space.release(4)
    assert space.allocate_lowest_free("b") == 2
    assert space.allocate_lowest_free("c") == 4
    assert space.allocate_lowest_free("d") == 7


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("cral"), st.integers(0, 15)), max_size=100))
def test_spare_queue_matches_brute_force_lowest_free(ops):
    """Random claim / release / spare / linear sequences: every spare
    allocation is the lowest free value, and the heap of freed values
    only ever holds values below the scan cursor."""
    space = AddressSpace(4)  # values 0..14, 15 is null
    for op, pick in ops:
        free = [v for v in range(space.null_word) if v not in space.occupied]
        taken = sorted(space.occupied)
        if op == "c" and free:
            space.claim(free[pick % len(free)], "n")
        elif op == "r" and taken:
            space.release(taken[pick % len(taken)])
        elif op == "a" and free:
            assert space.allocate_lowest_free("n") == free[0]
        elif op == "l" and free and free[-1] >= space.next_linear:
            space.allocate_next_linear("n")
        assert all(v < space._cursor for v in space._freed)


def test_claim_rejects_null_and_occupied():
    space = AddressSpace(3)
    space.claim(5, "a")
    with pytest.raises(ValueError):
        space.claim(5, "b")
    with pytest.raises(ValueError):
        space.claim(7, "b")  # null word
    assert not space.is_free(7)


def test_linear_counter_skips_occupied_values():
    space = AddressSpace(4)
    space.claim(1, "squatter")
    assert space.allocate_next_linear("a") == 0
    assert space.allocate_next_linear("b") == 2  # 1 is taken
    assert space.allocate_next_linear("c") == 3
    assert space.next_linear == 4


def test_linear_counter_capacity_error():
    space = AddressSpace(2)  # values 0..2, 3 is null
    for _ in range(3):
        space.allocate_next_linear("n")
    with pytest.raises(CapacityError):
        space.allocate_next_linear("x")
