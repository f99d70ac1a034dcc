"""Permutations, fixed traversals, and schedule arithmetic vs enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arpg import ordering as od


def test_raster_2x2():
    assert np.array_equal(od.fixed_order("raster", 2, 2), [1, 2, 3, 4])


def test_fixed_orders_are_bijections():
    for kind in od.FIXED_ORDER_KINDS:
        for h, w in [(1, 1), (2, 2), (3, 3), (4, 8), (8, 8), (5, 7), (32, 32)]:
            order = od.fixed_order(kind, h, w)
            assert od.is_permutation(order, h * w), (kind, h, w)


def _spiral_walker(h, w):
    # independent oracle: walk clockwise, turning right at walls or visited cells
    seen = np.zeros((h, w), dtype=bool)
    deltas = [(0, 1), (1, 0), (0, -1), (-1, 0)]
    r = c = d = 0
    out = []
    for _ in range(h * w):
        out.append(r * w + c + 1)
        seen[r, c] = True
        nr, nc = r + deltas[d][0], c + deltas[d][1]
        if not (0 <= nr < h and 0 <= nc < w and not seen[nr, nc]):
            d = (d + 1) % 4
            nr, nc = r + deltas[d][0], c + deltas[d][1]
        r, c = nr, nc
    return np.array(out)


def test_spiral_in_matches_walker_oracle():
    assert np.array_equal(od.fixed_order("spiral_in", 3, 3), [1, 2, 3, 6, 9, 8, 7, 4, 5])
    for h, w in [(3, 3), (4, 4), (2, 5), (5, 2), (6, 7)]:
        assert np.array_equal(od.fixed_order("spiral_in", h, w), _spiral_walker(h, w))


def test_spiral_out_reverses_spiral_in():
    assert np.array_equal(od.fixed_order("spiral_out", 3, 3),
                          od.fixed_order("spiral_in", 3, 3)[::-1])


def test_alternate_checkerboard():
    order = od.fixed_order("alternate", 2, 2)
    assert np.array_equal(order, [1, 4, 2, 3])


def test_z_curve_small():
    # 2x2 Morton: (0,0),(0,1),(1,0),(1,1)
    assert np.array_equal(od.fixed_order("z_curve", 2, 2), [1, 2, 3, 4])
    # 4x4 first quad covers the top-left 2x2 block
    order = od.fixed_order("z_curve", 4, 4)
    assert set(order[:4]) == {1, 2, 5, 6}


def test_unknown_order_kind():
    with pytest.raises(ValueError):
        od.fixed_order("hilbert", 4, 4)


def test_schedule_all_ones_at_steps_equals_total():
    for kind in od.SCHEDULE_KINDS:
        counts = od.schedule_counts(od.DecodeSchedule(kind, 16, 16))
        assert counts == [1] * 16


def test_schedule_single_step():
    for kind in od.SCHEDULE_KINDS:
        assert od.schedule_counts(od.DecodeSchedule(kind, 1, 64)) == [64]


def test_schedule_arccos_worked_example():
    assert od.schedule_counts(od.DecodeSchedule("arccos", 4, 16)) == [3, 2, 4, 7]


def test_schedule_sums_and_positivity():
    for total in (16, 64):
        for kind in od.SCHEDULE_KINDS:
            for steps in range(1, total + 1):
                counts = od.schedule_counts(od.DecodeSchedule(kind, steps, total))
                assert len(counts) == steps
                assert sum(counts) == total
                assert min(counts) >= 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kind=st.sampled_from(od.SCHEDULE_KINDS),
       total_steps=st.integers(1, 4096).flatmap(
           lambda t: st.tuples(st.just(t), st.integers(1, t))))
def test_schedule_counts_property(kind, total_steps):
    total, steps = total_steps
    counts = od.schedule_counts(od.DecodeSchedule(kind, steps, total))
    assert len(counts) == steps
    assert min(counts) >= 1
    assert sum(counts) == total


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kind=st.sampled_from(od.FIXED_ORDER_KINDS),
       h=st.integers(1, 12), w=st.integers(1, 12))
def test_fixed_order_bijection_property(kind, h, w):
    order = od.fixed_order(kind, h, w)
    assert order.shape == (h * w,)
    assert np.array_equal(np.sort(order), np.arange(1, h * w + 1))


def test_schedule_rejects_bad_steps():
    with pytest.raises(ValueError):
        od.schedule_counts(od.DecodeSchedule("arccos", 65, 64))
    with pytest.raises(ValueError):
        od.schedule_counts(od.DecodeSchedule("arccos", 0, 64))
    with pytest.raises(ValueError):
        od.schedule_counts(od.DecodeSchedule("sigmoid", 4, 64))
    for steps, total in ((2.5, 16), (4, 16.0), (float("nan"), 16), (True, 16)):
        with pytest.raises(ValueError, match="must be an integer"):
            od.schedule_counts(od.DecodeSchedule("arccos", steps, total))


def test_cfg_linear_endpoints_and_midpoint():
    assert od.cfg_scale_at("linear", 5.4, 0.0) == 1.0
    assert abs(od.cfg_scale_at("linear", 5.4, 1.0) - 5.4) < 1e-15
    assert abs(od.cfg_scale_at("linear", 3.0, 0.5) - 2.0) < 1e-15


def test_cfg_constant_and_monotone():
    assert od.cfg_scale_at("constant", 2.5, 0.0) == od.cfg_scale_at("constant", 2.5, 1.0) == 2.5
    scales = [od.cfg_scale_at("linear", 4.0, u) for u in np.linspace(0, 1, 11)]
    assert all(b >= a for a, b in zip(scales, scales[1:]))
    assert min(scales) >= 1.0


def test_cfg_rejects_bad_inputs():
    with pytest.raises(ValueError):
        od.cfg_scale_at("linear", 2.0, 1.5)
    with pytest.raises(ValueError):
        od.cfg_scale_at("warp", 2.0, 0.5)
