import hashlib

import numpy as np
import pytest

from fediot.aggregation import (
    AggregationSpec,
    aggregate,
    average,
    coordinate_median,
    reduce_rows,
    s_resample,
    sort_rows,
    trimmed_mean,
)
from fediot.errors import ConfigError, SchemaError
from fediot.harness import SWEEP_RULES
from fediot.neuralnet import ModelParameters, classifier_preset


def models_from_rows(rows):
    rows = np.asarray(rows, dtype=np.float64)
    arch = classifier_preset("A", input_dim=rows.shape[1] - 1)
    return [ModelParameters(arch, row) for row in rows]


def rows(values):
    return np.asarray(values, dtype=np.float64)


def sort_oracle_median(rows):
    # Independent per-coordinate sort oracle.
    rows = np.asarray(rows, dtype=np.float64)
    out = np.empty(rows.shape[1])
    for j in range(rows.shape[1]):
        col = sorted(rows[:, j].tolist())
        mid = len(col) // 2
        out[j] = col[mid] if len(col) % 2 else (col[mid - 1] + col[mid]) / 2.0
    return out


def sort_oracle_trimmed(rows, c):
    rows = np.asarray(rows, dtype=np.float64)
    out = np.empty(rows.shape[1])
    for j in range(rows.shape[1]):
        col = sorted(rows[:, j].tolist())[c : len(rows) - c]
        out[j] = sum(col) / len(col)
    return out


class TestAverage:
    def test_small_example(self):
        got = average(rows([[0.0, 2.0], [4.0, 6.0]]))
        np.testing.assert_array_equal(got, [2.0, 4.0])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        updates = rng.normal(size=(5, 8))
        a = average(updates)
        b = average(updates[::-1])
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            aggregate([], AggregationSpec("avg"))

    def test_architecture_mismatch_rejected(self):
        a = ModelParameters(classifier_preset("A", input_dim=2), np.zeros(3))
        b = ModelParameters(classifier_preset("A", input_dim=3), np.zeros(4))
        with pytest.raises(SchemaError):
            aggregate([a, b], AggregationSpec("avg"))


class TestCoordinateMedian:
    def test_odd_count_picks_middle(self):
        got = coordinate_median(rows([[1.0, 9.0], [5.0, 1.0], [9.0, 5.0]]))
        np.testing.assert_array_equal(got, [5.0, 5.0])

    def test_even_count_averages_two_middles(self):
        got = coordinate_median(rows([[1.0, 0], [3.0, 0], [5.0, 0], [100.0, 0]]))
        assert got[0] == 4.0

    def test_matches_sort_oracle_bitwise(self):
        rng = np.random.default_rng(1)
        for k in (3, 4, 5, 8, 9):
            updates = rng.normal(size=(k, 6)) * rng.uniform(0.1, 100)
            # The oracle comes first: coordinate_median overwrites its argument.
            expected = sort_oracle_median(updates)
            np.testing.assert_array_equal(coordinate_median(updates), expected)

    def test_ignores_one_wild_outlier(self):
        updates = np.ones((5, 4))
        updates[2] = 1e12
        got = coordinate_median(updates)
        np.testing.assert_array_equal(got, np.ones(4))


class TestTrimmedMean:
    def test_small_example(self):
        got = trimmed_mean(rows([[1.0, 0], [2.0, 0], [3.0, 0], [4.0, 0], [100.0, 0]]), trim_c=1)
        assert got[0] == 3.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        for k, c in ((5, 1), (8, 2), (9, 3), (4, 1)):
            updates = rng.normal(size=(k, 7))
            # The oracle comes first: trimmed_mean overwrites its argument.
            expected = sort_oracle_trimmed(updates, c)
            np.testing.assert_allclose(trimmed_mean(updates, trim_c=c), expected, rtol=1e-12)

    def test_trims_by_value_per_coordinate(self):
        # The extreme value sits in a different model per coordinate.
        updates = np.zeros((3, 2))
        updates[0, 0] = 50.0
        updates[2, 1] = -50.0
        got = trimmed_mean(updates, trim_c=1)
        np.testing.assert_array_equal(got, [0.0, 0.0])

    def test_over_trimming_rejected(self):
        models = models_from_rows(np.zeros((4, 2)))
        with pytest.raises(ConfigError, match=r"TM\(2\) needs at least 5 models, got 4"):
            aggregate(models, AggregationSpec("tm", trim_c=2))
        with pytest.raises(ConfigError):
            aggregate(models, AggregationSpec("tm", trim_c=0))


class TestSortRows:
    # Largest k whose 2^k zero-one columns are checked exhaustively.
    ZERO_ONE_MAX_K = 16

    @pytest.mark.parametrize("k", range(1, ZERO_ONE_MAX_K + 1))
    def test_network_sorts_every_zero_one_input(self, k):
        # 0-1 principle: a comparator network that sorts all 2^k columns of
        # zeros and ones sorts every input.
        columns = np.arange(2**k)
        bits = ((columns[None, :] >> np.arange(k)[:, None]) & 1).astype(np.float64)
        expected = np.sort(bits, axis=0)
        np.testing.assert_array_equal(np.stack(sort_rows(bits)), expected)

    @pytest.mark.parametrize("k", range(1, 34))
    def test_rules_match_numpy_bitwise_with_ties(self, k):
        # Many equal values per column.
        rng = np.random.default_rng(k)
        updates = np.round(rng.normal(size=(k, 301)) * 2) + 0.25
        assert coordinate_median(updates.copy()).tobytes() == np.median(updates, axis=0).tobytes()
        for c in range(1, (k - 1) // 2 + 1):
            expected = np.sort(updates, axis=0)[c : k - c].mean(axis=0)
            assert trimmed_mean(updates.copy(), c).tobytes() == expected.tobytes()
        assert np.stack(sort_rows(updates.copy())).tobytes() == np.sort(updates, axis=0).tobytes()

    @pytest.mark.parametrize("k", (2, 3, 8, 16, 17, 32))
    def test_signed_zero_ties_agree_by_value(self, k):
        # np.sort orders -0.0 and 0.0 arbitrarily, so compare values only.
        rng = np.random.default_rng(k)
        updates = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(k, 200))
        np.testing.assert_array_equal(np.stack(sort_rows(updates.copy())), np.sort(updates, axis=0))
        np.testing.assert_array_equal(coordinate_median(updates.copy()), np.median(updates, axis=0))
        expected = np.sort(updates, axis=0)[1 : k - 1].mean(axis=0) if k > 2 else None
        if expected is not None:
            np.testing.assert_array_equal(trimmed_mean(updates.copy(), 1), expected)


class TestResampling:
    def rand_updates(self, k=8, d=5, seed=3):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(k, d + 1)) * 3

    def test_s1_is_a_permutation(self):
        updates = self.rand_updates()
        out = s_resample(updates, 1, np.random.default_rng(0))
        original = {row.tobytes() for row in updates}
        assert {row.tobytes() for row in out} == original

    def test_mean_is_preserved(self):
        updates = self.rand_updates()
        for s in (1, 2, 3):
            out = s_resample(updates, s, np.random.default_rng(s))
            np.testing.assert_allclose(average(out), average(updates), rtol=1e-12, atol=1e-14)

    def test_output_count_matches_input_count(self):
        updates = self.rand_updates(k=5)
        assert s_resample(updates, 3, np.random.default_rng(1)).shape == updates.shape

    def test_deterministic_in_seed(self):
        updates = self.rand_updates()
        a = s_resample(updates, 2, np.random.default_rng(7))
        b = s_resample(updates, 2, np.random.default_rng(7))
        c = s_resample(updates, 2, np.random.default_rng(8))
        np.testing.assert_array_equal(a, b)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_each_output_mixes_at_most_s_inputs(self):
        # With s=2 every output is the midpoint of two inputs; recover the
        # pair memberships from a d=1 row set with distinct values.
        updates = np.array([[float(i), 0.0] for i in range(6)])
        out = s_resample(updates, 2, np.random.default_rng(5))
        doubled = sorted(round(2 * row[0]) for row in out)
        # Total usage of each input is exactly s: the sum over outputs of
        # (2 * output) equals 2 * sum of inputs.
        assert sum(doubled) == 2 * sum(range(6))

    def test_bad_s_rejected(self):
        with pytest.raises(ConfigError):
            s_resample(self.rand_updates(), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_capped_loop_and_leaves_same_generator_state(self, s):
        # Later rounds and dropout draw from the same generator, so
        # s_resample must consume exactly the draws the capped loop does.
        for k in range(1, 34):
            updates = self.rand_updates(k=k, d=4, seed=k)
            for seed in (0, 1, 2006):
                rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = s_resample(updates, s, rng)
                want = capped_resample_reference(updates, s, reference_rng)
                assert got.tobytes() == want.tobytes()
                assert rng.bit_generator.state == reference_rng.bit_generator.state


    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_out_buffer_matches_the_allocating_form(self, s):
        # The rows of a larger, dirty scratch array take exactly the bits
        # and draws of a fresh result.
        scratch = np.full((12, 5), np.nan)
        for k in (1, 2, 5, 8, 12):
            updates = self.rand_updates(k=k, d=4, seed=k)
            rng, fresh_rng = np.random.default_rng(k), np.random.default_rng(k)
            got = s_resample(list(updates), s, rng, out=scratch[:k])
            want = s_resample(updates, s, fresh_rng)
            assert got.base is scratch
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == fresh_rng.bit_generator.state


def capped_resample_reference(updates, s, rng, max_draws=10**6):
    # Reference: the rejection loop with a cap of max_draws draws per output slot.
    k = updates.shape[0]
    usage = np.zeros(k, dtype=np.int64)
    out = np.empty_like(updates)
    for row in range(k):
        chosen = np.empty(s, dtype=np.intp)
        for slot in range(s):
            for _ in range(max_draws):
                j = int(rng.integers(0, k))
                if usage[j] < s:
                    usage[j] += 1
                    chosen[slot] = j
                    break
            else:
                raise RuntimeError(f"resampling found no free row in {max_draws} draws")
        out[row] = updates[chosen].mean(axis=0)
    return out


class TestAggregateDispatch:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            AggregationSpec("medoid")
        with pytest.raises(ConfigError):
            AggregationSpec("tm")
        with pytest.raises(ConfigError):
            AggregationSpec("avg", trim_c=1)
        with pytest.raises(ConfigError):
            AggregationSpec("med", resample_s=-1)

    def test_describe(self):
        assert AggregationSpec("avg").describe() == "AVG"
        assert AggregationSpec("med").describe() == "MED"
        assert AggregationSpec("tm", trim_c=2).describe() == "TM(2)"
        assert AggregationSpec("tm", trim_c=2, resample_s=2).describe() == "2-RS+TM(2)"

    def test_min_models(self):
        assert AggregationSpec("avg").min_models == 1
        assert AggregationSpec("med", resample_s=2).min_models == 1
        assert AggregationSpec("tm", trim_c=2).min_models == 5
        assert AggregationSpec("tm", trim_c=2, resample_s=2).min_models == 5

    def test_dispatch_matches_direct_calls(self):
        rng = np.random.default_rng(4)
        updates = rng.normal(size=(7, 5))
        models = models_from_rows(updates)
        np.testing.assert_array_equal(
            aggregate(models, AggregationSpec("avg")).flat, average(updates)
        )
        np.testing.assert_array_equal(
            aggregate(models, AggregationSpec("med")).flat, coordinate_median(updates.copy())
        )
        np.testing.assert_array_equal(
            aggregate(models, AggregationSpec("tm", trim_c=2)).flat, trimmed_mean(updates.copy(), 2)
        )

    def test_resample_then_average_equals_average(self):
        rng = np.random.default_rng(5)
        updates = rng.normal(size=(8, 6))
        spec = AggregationSpec("avg", resample_s=2)
        got = aggregate(models_from_rows(updates), spec, np.random.default_rng(9))
        np.testing.assert_allclose(got.flat, average(updates), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "spec", SWEEP_RULES + (AggregationSpec("avg", resample_s=2),), ids=lambda spec: spec.describe()
    )
    @pytest.mark.parametrize("k", (5, 8, 9))
    def test_row_views_reduce_like_the_stacked_array(self, spec, k):
        # The training loop hands reduce_rows views of scattered buffer rows
        # and a scratch array for resampling; the bits and the generator's
        # draws must be those of the stacked (k, d) array.
        updates = np.random.default_rng(k).normal(0.0, 3.0, size=(k, 33))
        buffer = np.empty((k + 2, 33))
        slots = np.random.default_rng(k + 1).permutation(k + 2)[:k]
        buffer[slots] = updates
        rng, stacked_rng = np.random.default_rng(6), np.random.default_rng(6)
        got = reduce_rows([buffer[j] for j in slots], spec, rng, np.full((k + 2, 33), np.nan))
        want = reduce_rows(updates.copy(), spec, stacked_rng)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == aggregate(models_from_rows(updates), spec, np.random.default_rng(6)).flat.tobytes()
        assert rng.bit_generator.state == stacked_rng.bit_generator.state
        if spec == AggregationSpec("avg"):
            assert got.tobytes() == updates.mean(axis=0).tobytes()

    def test_short_resampling_buffer_rejected(self):
        # Six buffer rows for eight updates would resample, and reduce, only six.
        updates = np.random.default_rng(7).normal(size=(8, 5))
        spec = AggregationSpec("tm", trim_c=2, resample_s=2)
        with pytest.raises(SchemaError, match="6 rows"):
            reduce_rows(list(updates), spec, np.random.default_rng(0), np.empty((6, 5)))

    def test_resample_requires_rng(self):
        models = models_from_rows(np.zeros((4, 3)))
        with pytest.raises(ConfigError):
            aggregate(models, AggregationSpec("med", resample_s=2))


def pinned_models(k, seed):
    updates = np.random.default_rng(seed).normal(0.0, 3.0, size=(k, 257))
    return models_from_rows(updates)


# sha256 of aggregate(...).flat.tobytes(), recorded before the rules moved to
# (k, d) arrays. Any faster rule must reproduce these bits exactly.
PINNED_DIGESTS = {
    "AVG": "1bf9bd2696618f35490660a272ee612aabeae2e4598244a097be29fa7ea2748d",
    "MED": "3eaaeb7904d9dc7739876552472225c4da3a1c55bafdff5af0d3200b277e6734",
    "TM(1)": "b9697b79e53f11874ffc87e7963ef9b3e77915d8f5441ab6d146e24270b5f369",
    "TM(2)": "b6c804bdffa7e6788c138315c575fa9922d0e6a4280c45bbb3c602a0a4c7102b",
    "2-RS+TM(2)": "ecd0b780203491ade6aba8d86b05a3cd7f91f595ed89ce312a0da514866a45a6",
}


@pytest.mark.parametrize("spec", SWEEP_RULES, ids=lambda spec: spec.describe())
def test_sweep_rule_bits_are_pinned(spec):
    got = aggregate(pinned_models(8, 2018), spec, np.random.default_rng(2006))
    assert hashlib.sha256(got.flat.tobytes()).hexdigest() == PINNED_DIGESTS[spec.describe()]


def test_odd_count_median_bits_are_pinned():
    got = aggregate(pinned_models(5, 1803), AggregationSpec("med"))
    digest = "9311d704671d4958dd48eef5f28464e6934b10d49e7d55f8c9354d0a28dd0f4f"
    assert hashlib.sha256(got.flat.tobytes()).hexdigest() == digest
