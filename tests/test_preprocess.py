import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fediot.errors import SchemaError
from fediot.preprocess import (
    ScalingBounds,
    local_min_max,
    merge_bounds,
    scale,
)


def column_scan_oracle(features):
    # Independent pure-python column scan.
    n, f = features.shape
    mins = [min(features[i][j] for i in range(n)) for j in range(f)]
    maxs = [max(features[i][j] for i in range(n)) for j in range(f)]
    return mins, maxs


finite_matrix = arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.integers(1, 6)),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)

three_column_matrix = arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.just(3)),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


class TestLocalMinMax:
    def test_small_example(self):
        got = local_min_max(np.array([[0.0, 5.0], [2.0, 1.0]]))
        np.testing.assert_array_equal(got.x_min, [0.0, 1.0])
        np.testing.assert_array_equal(got.x_max, [2.0, 5.0])

    @given(finite_matrix)
    def test_matches_column_scan_oracle(self, features):
        got = local_min_max(features)
        mins, maxs = column_scan_oracle(features)
        np.testing.assert_array_equal(got.x_min, mins)
        np.testing.assert_array_equal(got.x_max, maxs)

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            local_min_max(np.zeros((0, 3)))


class TestMergeBounds:
    def test_small_example(self):
        a = ScalingBounds(np.array([0.0, 1.0]), np.array([2.0, 5.0]))
        b = ScalingBounds(np.array([-1.0, 2.0]), np.array([1.0, 9.0]))
        got = merge_bounds([a, b])
        np.testing.assert_array_equal(got.x_min, [-1.0, 1.0])
        np.testing.assert_array_equal(got.x_max, [2.0, 9.0])

    @given(st.lists(three_column_matrix, min_size=1, max_size=4))
    def test_merge_equals_bounds_of_concatenation(self, matrices):
        merged = merge_bounds([local_min_max(m) for m in matrices])
        direct = local_min_max(np.concatenate(matrices))
        np.testing.assert_array_equal(merged.x_min, direct.x_min)
        np.testing.assert_array_equal(merged.x_max, direct.x_max)

    def test_merge_is_order_independent(self):
        rng = np.random.default_rng(0)
        parts = [local_min_max(rng.normal(size=(5, 4))) for _ in range(3)]
        a = merge_bounds(parts)
        b = merge_bounds(parts[::-1])
        np.testing.assert_array_equal(a.x_min, b.x_min)
        np.testing.assert_array_equal(a.x_max, b.x_max)

    def test_dimension_mismatch_rejected(self):
        a = ScalingBounds(np.zeros(2), np.ones(2))
        b = ScalingBounds(np.zeros(3), np.ones(3))
        with pytest.raises(SchemaError):
            merge_bounds([a, b])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            merge_bounds([])


class TestScale:
    def test_midpoint(self):
        bounds = ScalingBounds(np.array([0.0]), np.array([10.0]))
        got = scale(np.array([[5.0]]), bounds)
        assert got[0, 0] == 0.5

    def test_degenerate_feature_maps_to_zero(self):
        bounds = ScalingBounds(np.array([3.0, 0.0]), np.array([3.0, 1.0]))
        got = scale(np.array([[3.0, 0.25], [7.0, 0.5]]), bounds)
        np.testing.assert_array_equal(got[:, 0], [0.0, 0.0])
        np.testing.assert_array_equal(got[:, 1], [0.25, 0.5])

    @given(finite_matrix)
    def test_training_data_lands_in_unit_box(self, features):
        bounds = local_min_max(features)
        got = scale(features, bounds)
        assert np.all(got >= 0.0) and np.all(got <= 1.0)

    def test_out_of_bounds_values_are_not_clamped(self):
        bounds = ScalingBounds(np.array([0.0]), np.array([1.0]))
        got = scale(np.array([[2.0], [-1.0]]), bounds)
        np.testing.assert_array_equal(got[:, 0], [2.0, -1.0])

    def test_input_kept_and_bits_of_the_three_array_form(self):
        features = np.random.default_rng(0).normal(size=(20, 4))
        features[:, 2] = 1.5  # a constant column
        before = features.copy()
        bounds = local_min_max(features)
        span = bounds.x_max - bounds.x_min
        want = np.where(span > 0, (features - bounds.x_min) / np.where(span > 0, span, 1.0), 0.0)
        assert scale(features, bounds).tobytes() == want.tobytes()
        np.testing.assert_array_equal(features, before)

    def test_shape_mismatch_rejected(self):
        bounds = ScalingBounds(np.zeros(2), np.ones(2))
        with pytest.raises(SchemaError):
            scale(np.zeros((4, 3)), bounds)

    def test_identity_bounds_keep_every_edge_value_bit_for_bit(self):
        # x_min 0 and x_max 1 give x - 0 and then x / 1, both exact for every
        # float64 but a signaling NaN, which arithmetic quiets (quiet NaNs keep
        # sign and payload), so clients that carry these bounds train on their
        # rows as given.
        big, tiny = np.finfo(np.float64).max, np.finfo(np.float64).smallest_subnormal
        edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny,
                          np.finfo(np.float64).smallest_normal * 0.75, big, -big, 1.0, -2.5])
        features = np.stack([edges, edges[::-1], np.roll(edges, 3)], axis=1)
        identity = ScalingBounds(np.zeros(3), np.ones(3))
        assert scale(features, identity).tobytes() == features.tobytes()
        out = np.empty_like(features)
        assert scale(features, identity, out=out) is out
        assert out.tobytes() == features.tobytes()

    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)), elements=st.floats(allow_nan=False)))
    def test_identity_bounds_keep_drawn_floats_bit_for_bit(self, features):
        identity = ScalingBounds(np.zeros(3), np.ones(3))
        assert scale(features, identity).tobytes() == features.tobytes()


class TestScalingBounds:
    def test_min_above_max_rejected(self):
        with pytest.raises(SchemaError):
            ScalingBounds(np.array([5.0]), np.array([1.0]))
