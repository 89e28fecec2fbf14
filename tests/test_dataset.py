import math
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fediot.dataset import (
    SUPERVISED_FRACTIONS,
    UNSUPERVISED_FRACTIONS,
    BalanceSpec,
    DataSource,
    DevicePartition,
    Fleet,
    ManifestEntry,
    SampleSet,
    chronological_split,
    generate_synthetic_fleet,
    load_device_csv,
    load_manifest,
    partition_from_manifest,
    rebalance,
)
from fediot.harness import _repetitions, config_from_dict, derive_seed, synthetic_streams
from fediot.errors import (
    ConfigError,
    EmptyPartError,
    MissingClassError,
    ParseError,
    SchemaError,
)


def make_stream(n, labels=None, n_features=3):
    # All benign unless labels are given.
    features = np.arange(n * n_features, dtype=np.float64).reshape(n, n_features)
    return SampleSet(features, np.asarray([0] * n if labels is None else labels, dtype=np.int64))


def alternating_labels(n):
    return [i % 2 for i in range(n)]


def synthetic(devices, samples, feature_dim, **geometry):
    """A synthetic DataSource; a fleet's device 0 draws the same stream at any fleet size."""
    return DataSource(devices=devices, samples_per_device=samples, feature_dim=feature_dim, **geometry)


class TestLoadDeviceCsv:
    def test_unlabeled_round_trip(self, tmp_path):
        # A file without a label column takes the class it is given.
        path = tmp_path / "dev.csv"
        path.write_text("1.0,2.5,-3.0\n4.0,5.0,6.25\n")
        got = load_device_csv(str(path), 1, schema=3)
        np.testing.assert_array_equal(got.labels, [1, 1])
        np.testing.assert_array_equal(got.features, [[1.0, 2.5, -3.0], [4.0, 5.0, 6.25]])

    def test_labeled_round_trip(self, tmp_path):
        # A label column wins over the class given.
        path = tmp_path / "dev.csv"
        path.write_text("1,2,3,0\n4,5,6,1\n7,8,9,0\n")
        got = load_device_csv(str(path), 1, schema=3)
        np.testing.assert_array_equal(got.labels, [0, 1, 0])
        np.testing.assert_array_equal(got.features[1], [4.0, 5.0, 6.0])

    def test_header_skipped_when_flagged(self, tmp_path):
        path = tmp_path / "dev.csv"
        path.write_text("a,b,c\n1,2,3\n")
        got = load_device_csv(str(path), 0, schema=3, has_header=True)
        assert len(got) == 1

    def test_header_without_flag_is_parse_error(self, tmp_path):
        path = tmp_path / "dev.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError, match="row 0"):
            load_device_csv(str(path), 0, schema=3)

    def test_row_arity_error_names_row(self, tmp_path):
        path = tmp_path / "dev.csv"
        path.write_text("1,2,3\n1,2\n")
        with pytest.raises(SchemaError, match="row 1"):
            load_device_csv(str(path), 0, schema=3)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "dev.csv"
        path.write_text("1,2,3,2\n")
        with pytest.raises(ParseError, match="label"):
            load_device_csv(str(path), 0, schema=3)

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e309"])
    def test_non_finite_cell_named_by_file_row_and_column(self, tmp_path, cell):
        # Row numbers count the header and blank lines, as the other errors do.
        path = tmp_path / "dev.csv"
        path.write_text(f"a,b,c\n1,2,3\n\n4,{cell},6\n")
        with pytest.raises(ParseError, match=r"dev.csv: row 3: column 1: non-finite cell"):
            load_device_csv(str(path), 0, schema=3, has_header=True)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "dev.csv"
        path.write_text("")
        got = load_device_csv(str(path), 0, schema=3)
        assert len(got) == 0


class TestChronologicalSplit:
    def test_supervised_1000_gives_790_10_200(self):
        part = chronological_split(make_stream(1000, alternating_labels(1000)), "supervised")
        assert (len(part.train), len(part.unused), len(part.test)) == (790, 10, 200)
        assert part.threshold_sel is None

    def test_unsupervised_1000_benign_gives_395_395_10_200(self):
        part = chronological_split(make_stream(1000, [0] * 1000), "unsupervised")
        sizes = (len(part.train), len(part.threshold_sel), len(part.unused), len(part.test))
        assert sizes == (395, 395, 10, 200)

    def test_supervised_parts_are_consecutive_slices(self):
        stream = make_stream(57, alternating_labels(57))
        part = chronological_split(stream, "supervised")
        a, b = math.floor(0.79 * 57), math.floor(0.01 * 57)
        np.testing.assert_array_equal(part.gather("train").features, stream.features[:a])
        np.testing.assert_array_equal(part.gather("unused").features, stream.features[a : a + b])
        np.testing.assert_array_equal(part.gather("test").features, stream.features[a + b :])
        np.testing.assert_array_equal(part.gather("test").labels, stream.labels[a + b :])

    def test_unsupervised_routes_all_attacks_to_test(self):
        labels = alternating_labels(100)
        part = chronological_split(make_stream(100, labels), "unsupervised")
        assert np.all(part.gather("train").labels == 0)
        assert np.all(part.gather("threshold_sel").labels == 0)
        assert int(np.sum(part.gather("test").labels)) == sum(labels)

    @given(n=st.integers(3, 2000))
    def test_supervised_is_a_partition_in_order(self, n):
        # Row order is capture order, so the parts are runs of row positions.
        part = chronological_split(make_stream(n), "supervised")
        np.testing.assert_array_equal(np.concatenate([part.train, part.unused, part.test]), np.arange(n))
        if len(part.train) and len(part.test):
            assert part.train.max() < part.test.min()

    @given(n=st.integers(8, 500))
    def test_unsupervised_benign_chronology(self, n):
        labels = [i % 2 for i in range(n)]
        part = chronological_split(make_stream(n, labels), "unsupervised")
        benign_test = part.test[part.records.labels[part.test] == 0]
        assert part.train.max() < part.threshold_sel.min()
        if benign_test.size:
            assert part.threshold_sel.max() < benign_test.min()
        total_benign = (
            len(part.train) + len(part.threshold_sel) + len(part.unused) + benign_test.size
        )
        assert total_benign == n - sum(labels)

    def test_too_few_samples_is_empty_part_error(self):
        with pytest.raises(EmptyPartError):
            chronological_split(make_stream(2), "supervised")
        with pytest.raises(EmptyPartError):
            chronological_split(make_stream(3, [0, 0, 0]), "unsupervised")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            chronological_split(make_stream(10), "semi")


def part_multiset(rows):
    return Counter(rows.tolist())


class TestRebalance:
    def split(self, n=400):
        return chronological_split(make_stream(n, alternating_labels(n)), "supervised")

    def test_exact_class_counts_per_part(self):
        part = self.split()
        spec = BalanceSpec(0.25, 200)
        got = rebalance(part, spec, rng_seed=7)
        t_train, t_unused = math.floor(0.79 * 200), math.floor(0.01 * 200)
        t_test = 200 - t_train - t_unused
        for name, total in (("train", t_train), ("unused", t_unused), ("test", t_test)):
            nb, na = np.bincount(got.gather(name).labels, minlength=2)
            assert nb == math.floor(0.25 * total)
            assert na == total - nb

    def test_no_sample_crosses_part_boundary(self):
        part = self.split()
        got = rebalance(part, BalanceSpec(0.5, 300), rng_seed=3)
        for name in ("train", "unused", "test"):
            assert set(getattr(got, name).tolist()) <= set(getattr(part, name).tolist())

    def test_upsampling_keeps_every_original(self):
        part = self.split(n=200)
        got = rebalance(part, BalanceSpec(0.5, 1000), rng_seed=11)
        counts = part_multiset(got.train)
        originals = set(part.train.tolist())
        assert set(counts) == originals
        assert all(c >= 1 for c in counts.values())
        assert sum(counts.values()) == math.floor(0.79 * 1000)

    def test_downsampling_keeps_a_subset_without_duplicates(self):
        part = self.split(n=1000)
        got = rebalance(part, BalanceSpec(0.5, 100), rng_seed=11)
        counts = part_multiset(got.train)
        assert all(c == 1 for c in counts.values())
        assert set(counts) <= set(part.train.tolist())

    def test_supervised_preset_totals(self):
        # Balance (0.50, 100000) must yield 50000 benign plus 50000 attack
        # records across the device, with a 79000-record train part.
        part = self.split(n=2000)
        got = rebalance(part, BalanceSpec(0.5, 100_000), rng_seed=1)
        assert len(got.train) == 79_000
        totals = np.zeros(2, dtype=int)
        for name in ("train", "unused", "test"):
            totals += np.bincount(got.gather(name).labels, minlength=2)
        assert totals.tolist() == [50_000, 50_000]

    def test_unsupervised_budgets_benign_stream(self):
        labels = ([0] * 800) + ([1] * 200)
        part = chronological_split(make_stream(1000, labels), "unsupervised")
        got = rebalance(part, BalanceSpec(0.5, 400), rng_seed=5)
        assert len(got.train) == math.floor(0.395 * 400)
        assert len(got.threshold_sel) == math.floor(0.395 * 400)
        benign_total = (
            len(got.train)
            + len(got.threshold_sel)
            + len(got.unused)
            + int(np.sum(got.gather("test").labels == 0))
        )
        assert benign_total == 400
        nb_test = int(np.sum(got.gather("test").labels == 0))
        na_test = int(np.sum(got.gather("test").labels == 1))
        assert na_test == round(nb_test * (1 - 0.5) / 0.5)

    def test_same_seed_same_output(self):
        part = self.split()
        a = rebalance(part, BalanceSpec(0.5, 500), rng_seed=9)
        b = rebalance(part, BalanceSpec(0.5, 500), rng_seed=9)
        np.testing.assert_array_equal(a.gather("train").features, b.gather("train").features)
        c = rebalance(part, BalanceSpec(0.5, 500), rng_seed=10)
        assert not np.array_equal(a.gather("train").features, c.gather("train").features)

    def test_resampling_stream_is_pinned(self, tmp_path):
        # Exact draws for a fixed seed, so a change in the order of the
        # resampler's draws fails here. Every part is in capture order, which
        # is row order.
        def stream(labels):
            return SampleSet(np.zeros((len(labels), 2)), np.asarray(labels))

        def parts(partition):
            names = ("train", "unused", "test", "threshold_sel")
            return {
                name: (rows.tolist(), partition.records.labels[rows].tolist())
                for name in names
                if (rows := getattr(partition, name)) is not None
            }

        sup = chronological_split(stream(alternating_labels(40)), "supervised")
        assert parts(rebalance(sup, BalanceSpec(0.2, 30), rng_seed=2024)) == {
            "train": (
                [1, 2, 3, 3, 5, 6, 7, 9, 11, 13, 15, 17, 18, 19, 21, 23, 23, 25, 27, 27, 29, 29, 30],
                [1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0],
            ),
            "unused": ([], []),
            "test": ([31, 32, 33, 35, 37, 39, 39], [1, 0, 1, 1, 1, 1, 1]),
        }

        uns = chronological_split(stream([int(i % 3 == 2) for i in range(60)]), "unsupervised")
        assert parts(rebalance(uns, BalanceSpec(0.2, 20), rng_seed=2024)) == {
            "train": ([1, 3, 4, 9, 12, 13, 16], [0] * 7),
            "unused": ([], []),
            "test": (
                [2, 5, 5, 8, 8, 11, 11, 14, 17, 20, 23, 26, 29, 32, 35,
                 38, 41, 44, 45, 46, 47, 48, 49, 50, 51, 53, 53, 55, 56, 59],
                [1] * 18 + [0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1],
            ),
            "threshold_sel": ([22, 25, 30, 31, 36, 40, 42], [0] * 7),
        }

        (tmp_path / "b.csv").write_text("".join(f"{i},0\n" for i in range(30)))
        (tmp_path / "a.csv").write_text("".join(f"{i},1\n" for i in range(8)))
        (tmp_path / "m.csv").write_text("d,b.csv,benign\nd,a.csv,attack\n")
        (man,) = partition_from_manifest(load_manifest(str(tmp_path / "m.csv")), "unsupervised", 2).values()
        assert parts(rebalance(man, BalanceSpec(0.25, 20), rng_seed=2024)) == {
            "train": ([0, 2, 4, 6, 7, 9, 10], [0] * 7),
            "unused": ([], []),
            "test": (
                [22, 23, 24, 26, 28, 29, 30, 30, 31, 31, 31, 31, 31, 32, 32, 32, 33, 33, 34, 35, 36,
                 36, 37, 37],
                [0] * 6 + [1] * 18,
            ),
            "threshold_sel": ([12, 14, 15, 17, 18, 19, 20], [0] * 7),
        }

    def test_missing_class_errors(self):
        pure_benign = chronological_split(make_stream(100, [0] * 100), "supervised")
        with pytest.raises(MissingClassError):
            rebalance(pure_benign, BalanceSpec(0.5, 100), rng_seed=0)

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            BalanceSpec(0.0, 100)
        with pytest.raises(ConfigError):
            BalanceSpec(0.5, 0)


class TestSyntheticFleet:
    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(["supervised", "unsupervised"]),
        devices=st.integers(2, 4),
        samples=st.integers(40, 300),
        dim=st.integers(1, 6),
        benign_fraction=st.floats(0.2, 0.8),
        patterns=st.integers(1, 4),
        spread=st.sampled_from([0.0, 0.5, 2.0]),
        shift=st.sampled_from([-4.0, 0.0, 8.0]),
        sigma=st.sampled_from([0.0, 0.5, 1.0]),
        balance_fraction=st.floats(0.2, 0.8),
        spd=st.integers(10, 150),
        seed=st.integers(0, 2**32),
    )
    def test_fleet_draw_keeps_the_whole_streams_named_rows(
        self, mode, devices, samples, dim, benign_fraction, patterns, spread, shift, sigma,
        balance_fraction, spd, seed,
    ):
        # The oracle is the whole-stream path: draw every device's stream,
        # then split and rebalance it. Each device's range of the fleet's
        # record array must hold that stream's named rows, in row order, bit
        # for bit, and each part must gather the same records.
        source = DataSource(devices=devices, samples_per_device=samples, feature_dim=dim,
                            benign_fraction=benign_fraction, attack_patterns=patterns,
                            benign_spread=spread, attack_shift=shift, noise_sigma=sigma)
        spec = BalanceSpec(balance_fraction, spd)

        def split(device, stream):
            return rebalance(chronological_split(stream, mode, device), spec, int(device[4:]))

        streams = generate_synthetic_fleet(source, seed)
        try:
            want = [split(f"dev-{i}", stream) for i, stream in enumerate(streams)]
        except (EmptyPartError, MissingClassError) as exc:
            event("split fails")
            with pytest.raises(type(exc)):
                generate_synthetic_fleet(source, seed, split)
            return
        fleet = generate_synthetic_fleet(source, seed, split)
        assert list(fleet) == [f"dev-{i}" for i in range(devices)]
        start = 0
        for stream, ref, got in zip(streams, want, fleet.values()):
            named = np.unique(np.concatenate([getattr(ref, name) for name in PART_NAMES
                                              if getattr(ref, name) is not None]))
            stop = start + named.size
            assert fleet.records.features[start:stop].tobytes() == stream.features[named].tobytes()
            assert fleet.records.labels[start:stop].tobytes() == stream.labels[named].tobytes()
            assert np.shares_memory(got.records.features, fleet.records.features[start:stop])
            assert len(got.records) == named.size
            for name in PART_NAMES:
                if getattr(ref, name) is None:
                    assert getattr(got, name) is None
                    continue
                assert got.gather(name).features.tobytes() == ref.gather(name).features.tobytes(), name
                assert got.gather(name).labels.tobytes() == ref.gather(name).labels.tobytes(), name
            start = stop
        assert start == len(fleet.records)

    def test_two_streams_of_ten(self):
        streams = generate_synthetic_fleet(synthetic(2, 10, 4), seed=123)
        assert len(streams) == 2
        for stream in streams:
            assert stream.features.shape == (10, 4)
            assert stream.labels is not None
            assert set(stream.labels.tolist()) == {0, 1}

    def test_deterministic_in_seed(self):
        a = generate_synthetic_fleet(synthetic(2, 10, 4), seed=123)
        b = generate_synthetic_fleet(synthetic(2, 10, 4), seed=123)
        c = generate_synthetic_fleet(synthetic(2, 10, 4), seed=124)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)
            np.testing.assert_array_equal(x.labels, y.labels)
        assert not np.array_equal(a[0].features, c[0].features)

    def test_devices_differ_from_each_other(self):
        streams = generate_synthetic_fleet(synthetic(3, 50, 6), seed=0)
        assert not np.array_equal(streams[0].features, streams[1].features)

    def test_exact_benign_count(self):
        stream = generate_synthetic_fleet(synthetic(2, 1000, 4, benign_fraction=0.3), seed=5)[0]
        nb, na = np.bincount(stream.labels, minlength=2)
        assert nb == 300 and na == 700

    def test_every_split_part_sees_both_classes(self):
        stream = generate_synthetic_fleet(synthetic(2, 1000, 4), seed=7)[0]
        part = chronological_split(stream, "supervised")
        for name in ("train", "unused", "test"):
            nb, na = np.bincount(part.gather(name).labels, minlength=2)
            assert nb > 0 and na > 0

    def test_attack_rows_are_shifted(self):
        stream = generate_synthetic_fleet(synthetic(2, 400, 8, attack_shift=6.0, noise_sigma=0.5), seed=2)[0]
        benign = stream.features[stream.labels == 0]
        attack = stream.features[stream.labels == 1]
        center = benign.mean(axis=0)
        d_benign = np.linalg.norm(benign - center, axis=1).mean()
        d_attack = np.linalg.norm(attack - center, axis=1).mean()
        assert d_attack > 2 * d_benign


class TestManifest:
    def write_fleet(self, tmp_path):
        rows_b = "\n".join(f"{i},{i},0.5" for i in range(20))
        rows_a = "\n".join(f"{i},{i},9.5" for i in range(10))
        (tmp_path / "d1_benign.csv").write_text(rows_b + "\n")
        (tmp_path / "d1_attack.csv").write_text(rows_a + "\n")
        manifest = tmp_path / "fleet.csv"
        manifest.write_text(
            "device_id,path,class\n"
            "d1,d1_benign.csv,benign\n"
            "d1,d1_attack.csv,attack\n"
        )
        return manifest

    def test_load_manifest(self, tmp_path):
        entries = load_manifest(str(self.write_fleet(tmp_path)))
        assert [e.device_id for e in entries] == ["d1", "d1"]
        assert [e.label for e in entries] == [0, 1]
        assert all(e.path.startswith(str(tmp_path)) for e in entries)

    @pytest.mark.parametrize("device_id", ["", "lab/dev-1", "lab\\dev-1"])
    def test_device_id_that_is_no_file_name_rejected(self, tmp_path, device_id):
        # A device id names its round-log file in a bundle.
        manifest = tmp_path / "fleet.csv"
        manifest.write_text(f"device_id,path,class\nd0,b.csv,benign\n{device_id},b.csv,benign\n")
        with pytest.raises(SchemaError, match="row 2: device_id .* path separator"):
            load_manifest(str(manifest))

    def test_unknown_class_rejected(self, tmp_path):
        manifest = tmp_path / "fleet.csv"
        manifest.write_text("d1,x.csv,weird\n")
        with pytest.raises(ParseError, match="class"):
            load_manifest(str(manifest))

    def test_supervised_partition_splits_each_file(self, tmp_path):
        entries = load_manifest(str(self.write_fleet(tmp_path)))
        (got,) = partition_from_manifest(entries, "supervised", schema=3).values()
        # 20-row benign file gives 15/0/5, 10-row attack file gives 7/0/3.
        assert len(got.train) == 15 + 7
        assert np.bincount(got.gather("train").labels, minlength=2).tolist() == [15, 7]
        assert np.bincount(got.gather("test").labels, minlength=2).tolist() == [5, 3]

    def test_unsupervised_partition_reserves_attack_files(self, tmp_path):
        entries = load_manifest(str(self.write_fleet(tmp_path)))
        (got,) = partition_from_manifest(entries, "unsupervised", schema=3).values()
        assert np.all(got.gather("train").labels == 0)
        assert int(np.sum(got.gather("test").labels)) == 10
        assert len(got.threshold_sel) == math.floor(0.395 * 20)

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_capture_order_runs_on_across_files(self, tmp_path, mode):
        # The attack file follows the benign one, so its records come later.
        entries = load_manifest(str(self.write_fleet(tmp_path)))
        (got,) = partition_from_manifest(entries, mode, schema=3).values()
        names = ["train", "unused", "test"] + (["threshold_sel"] if got.threshold_sel is not None else [])
        rows = np.concatenate([getattr(got, name) for name in names])
        assert sorted(rows.tolist()) == list(range(30))
        assert set(rows[got.records.labels[rows] == 1].tolist()) == set(range(20, 30))

    def test_unsupervised_device_without_benign_capture_named(self, tmp_path):
        manifest = self.write_fleet(tmp_path)
        with open(manifest, "a") as handle:
            handle.write("d2,d1_attack.csv,attack\n")
        entries = load_manifest(str(manifest))
        with pytest.raises(MissingClassError, match="d2: no benign capture"):
            partition_from_manifest(entries, "unsupervised", schema=3)
        assert len(partition_from_manifest(entries, "supervised", schema=3)) == 2


class TestSampleSet:
    def test_rejects_mismatched_shapes(self):
        with pytest.raises(SchemaError):
            SampleSet(np.zeros((3, 2)), np.zeros(2, dtype=np.int64))
        with pytest.raises(SchemaError):
            SampleSet(np.zeros((3, 2)), np.array([0, 1, 2]))


@st.composite
def fleets(draw):
    """A Fleet of 1-4 partitions over consecutive ranges of one record
    array. Parts repeat records and leave some unnamed; threshold_sel is set
    on every member or on none."""
    with_thr = draw(st.booleans())
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    total = sum(sizes)
    labels = np.asarray(draw(st.lists(st.integers(0, 1), min_size=total, max_size=total)), dtype=np.int64)
    records = SampleSet(np.arange(total * 2, dtype=np.float64).reshape(total, 2), labels)
    members, start = [], 0
    for m, n in enumerate(sizes):
        rows = st.lists(st.integers(0, n - 1), max_size=10).map(lambda r: np.asarray(r, dtype=np.intp))
        parts = [draw(rows) for _ in range(3)] + [draw(rows) if with_thr else None]
        view = SampleSet(records.features[start : start + n], records.labels[start : start + n])
        members.append(DevicePartition(f"dev-{m}", view, *parts))
        start += n
    return Fleet(records, members)


class TestPool:
    @given(fleet=fleets())
    def test_joined_parts_gather_the_members_parts(self, fleet):
        members = list(fleet.values())
        starts = np.cumsum([0] + [len(m.records) for m in members])[:-1].tolist()
        pool = DevicePartition.concat("pooled", fleet.records, members, starts)
        assert pool.records is fleet.records
        for name in PART_NAMES:
            if getattr(members[0], name) is None:
                assert getattr(pool, name) is None
                continue
            want = [m.gather(name) for m in members]
            got = pool.gather(name)
            assert got.features.tobytes() == np.concatenate([w.features for w in want]).tobytes(), name
            assert got.labels.tobytes() == np.concatenate([w.labels for w in want]).tobytes(), name

    @given(fleet=fleets(), data=st.data())
    def test_fleet_pool_names_only_train_and_threshold_records(self, fleet, data):
        ids = data.draw(st.lists(st.sampled_from(list(fleet)), min_size=1, unique=True))
        pool = fleet.pool("pooled", ids)
        assert pool.records is fleet.records and pool.unused.size == pool.test.size == 0
        for name in ("train", "threshold_sel"):
            if fleet[ids[0]].threshold_sel is None and name == "threshold_sel":
                assert pool.threshold_sel is None
                continue
            want = [fleet[d].gather(name) for d in ids]
            assert pool.gather(name).features.tobytes() == np.concatenate([w.features for w in want]).tobytes()

    def test_zero_partitions_rejected(self):
        with pytest.raises(ValueError, match="zero partitions"):
            DevicePartition.concat("pooled", SampleSet(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)), [], [])

    def test_pool_allocates_no_feature_row(self):
        # 8 devices of 500 records, 64 features, every record named by
        # train: a pool that gathered the records would allocate their
        # 2 MB; its train indices take 32 kB.
        n, devices = 500, 8
        features = np.random.default_rng(0).normal(size=(n * devices, 64))
        records = SampleSet(features, np.zeros(n * devices, dtype=np.int64))
        empty = np.empty(0, dtype=np.intp)
        fleet = Fleet(records, [
            DevicePartition(f"dev-{d}", SampleSet(features[d * n : (d + 1) * n], records.labels[d * n : (d + 1) * n]),
                            np.arange(n), empty, empty)
            for d in range(devices)
        ])
        tracemalloc.start()
        try:
            pool = fleet.pool("pooled", list(fleet))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pool.records.features is features
        assert peak < 0.1 * features.nbytes


# The dense split and rebalance that parts as row indices replaced: every part
# a DensePart holding its own copy of its rows, with each row's position in
# its device's capture order. Gathering an index part must give the same bytes.
@dataclass(frozen=True)
class DensePart:
    features: np.ndarray
    labels: np.ndarray
    rows: np.ndarray

    def take(self, indices):
        idx = np.asarray(indices, dtype=np.intp)
        return DensePart(self.features[idx], self.labels[idx], self.rows[idx])


def dense_stream(samples, offset=0):
    return DensePart(samples.features, samples.labels, np.arange(len(samples)) + offset)


def dense_split(stream, mode):
    n = len(stream.rows)

    def cut(positions, fractions):
        sizes = [int(f * positions.size) for f in fractions[:-1]]
        return np.split(positions, np.cumsum(sizes))

    if mode == "supervised":
        return [stream.take(p) for p in cut(np.arange(n), SUPERVISED_FRACTIONS)] + [None]
    train, thr_sel, unused, test = cut(np.flatnonzero(stream.labels == 0), UNSUPERVISED_FRACTIONS)
    test = np.sort(np.concatenate([test, np.flatnonzero(stream.labels == 1)]))
    return [stream.take(p) for p in (train, unused, test, thr_sel)]


def dense_rebalance(parts, spec, rng_seed):
    rng = np.random.default_rng(rng_seed)
    spd, bf = spec.samples_per_device, spec.benign_fraction

    def resize(part, targets):
        chosen = []
        for label, target in targets.items():
            indices = np.flatnonzero(part.labels == label)
            if target == indices.size:
                chosen.append(indices)
            elif target < indices.size:
                chosen.append(rng.choice(indices, size=target, replace=False))
            else:
                chosen.append(np.concatenate([indices, rng.choice(indices, size=target - indices.size)]))
        picked = part.take(np.concatenate(chosen))
        return picked.take(np.argsort(picked.rows, kind="stable"))

    train, unused, test, thr_sel = parts
    if thr_sel is None:
        sizes = [int(f * spd) for f in SUPERVISED_FRACTIONS[:-1]]
        sizes.append(spd - sum(sizes))
        return [resize(p, {0: int(bf * t), 1: t - int(bf * t)}) for p, t in zip(parts, sizes)] + [None]
    t_train, t_thr, t_unused = (int(f * spd) for f in UNSUPERVISED_FRACTIONS[:-1])
    t_btest = spd - t_train - t_thr - t_unused
    test = resize(test, {0: t_btest, 1: round(t_btest * (1.0 - bf) / bf)})
    return [resize(train, {0: t_train}), resize(unused, {0: t_unused}), test, resize(thr_sel, {0: t_thr})]


def dense_manifest_split(entries, mode, schema):
    by_device = {}
    for entry in entries:
        by_device.setdefault(entry.device_id, []).append(entry)
    out = {}
    for device_id, files in by_device.items():
        pieces, offset = [], 0
        for entry in files:
            stream = dense_stream(load_device_csv(entry.path, entry.label, schema), offset)
            offset += len(stream.rows)
            if mode == "unsupervised" and entry.label == 1:
                empty = stream.take([])
                pieces.append([empty, empty, stream, empty])
            else:
                pieces.append(dense_split(stream, mode))
        out[device_id] = [
            None if part[0] is None else DensePart(*(
                np.concatenate([getattr(p, field) for p in part]) for field in ("features", "labels", "rows")
            ))
            for part in zip(*pieces)
        ]
    return out


PART_NAMES = ("train", "unused", "test", "threshold_sel")


def fleet_config(mode, source, path="", samples=240, spd=None):
    raw = {
        "name": "fleet",
        "mode": mode,
        "approach": "federated",
        "data": {"source": source, "devices": 3, "samples_per_device": samples, "feature_dim": 4,
                 "path": path, "schema": 4},
        # Unsupervised fleets spend 80% of a 240-record stream on the benign
        # budget, so every repetition upsamples their benign parts.
        "balance": {"benign_fraction": 0.5, "samples_per_device": spd or samples},
        "protocol": {"folds": ["dev-0"], "repetitions": 2, "master_seed": 5},
    }
    return config_from_dict(raw)


def write_manifest_fleet(tmp_path):
    streams = generate_synthetic_fleet(synthetic(3, 240, 4), seed=8)
    lines = ["device_id,path,class"]
    for i, stream in enumerate(streams):
        for label, name in ((0, "benign"), (1, "attack")):
            path = tmp_path / f"dev-{i}-{name}.csv"
            rows = stream.features[stream.labels == label]
            path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
            lines.append(f"dev-{i},{path.name},{name}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return str(manifest)


def assert_parts_equal(partition, dense_parts, held=None):
    # held lists the capture positions of the partition's records in row
    # order. A pooled device holds the ones some dense part names, so by
    # default a record's row is its rank among those.
    if held is None:
        held = np.unique(np.concatenate([dense.rows for dense in dense_parts if dense is not None]))
    for name, dense in zip(PART_NAMES, dense_parts):
        if dense is None:
            assert getattr(partition, name) is None
            continue
        got = partition.gather(name)
        assert got.features.tobytes() == dense.features.tobytes(), name
        assert got.labels.tobytes() == dense.labels.tobytes(), name
        assert getattr(partition, name).tolist() == np.searchsorted(held, dense.rows).tolist(), name


class TestIndexedParts:
    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_synthetic_fleet_gathers_the_dense_parts(self, mode):
        config = fleet_config(mode, "synthetic")
        reps = 0
        for rep, partitions, _ in _repetitions(config):
            for i, stream in enumerate(synthetic_streams(config, rep)):
                device = f"dev-{i}"
                seed = derive_seed(config.protocol.master_seed, rep, "balance", device)
                dense = dense_rebalance(dense_split(dense_stream(stream), mode), config.balance, seed)
                assert_parts_equal(partitions[device], dense)
            reps += 1
        assert reps == 2

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_manifest_fleet_gathers_the_dense_parts(self, tmp_path, mode):
        path = write_manifest_fleet(tmp_path)
        config = fleet_config(mode, "manifest", path, spd=300)
        split = dense_manifest_split(load_manifest(path), mode, 4)
        reps = 0
        for rep, partitions, _ in _repetitions(config):
            for device, parts in split.items():
                seed = derive_seed(config.protocol.master_seed, rep, "balance", device)
                # A manifest device holds every record it read.
                held = np.arange(len(partitions[device].records))
                assert_parts_equal(partitions[device], dense_rebalance(parts, config.balance, seed), held)
            reps += 1
        assert reps == 2

    def test_repetition_holds_each_distinct_record_once(self):
        config = fleet_config("unsupervised", "synthetic")
        _, partitions, _ = next(_repetitions(config))
        held = dense = distinct = 0
        for p in partitions.values():
            parts = [getattr(p, name) for name in PART_NAMES]
            held += p.records.features.nbytes
            dense += sum(part.size for part in parts) * 4 * 8
            distinct += np.unique(np.concatenate(parts)).size
        assert held == distinct * 4 * 8
        assert held < 0.75 * dense  # the upsampled parts repeat records

    @pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
    def test_split_and_rebalance_index_the_records_they_were_given(self, mode):
        stream = generate_synthetic_fleet(synthetic(2, 300, 4), seed=3)[0]
        split = chronological_split(stream, mode, "dev")
        assert split.records is stream
        balanced = rebalance(split, BalanceSpec(0.5, 500), rng_seed=1)
        assert np.shares_memory(balanced.records.features, stream.features)
        assert all(getattr(balanced, name).dtype == np.intp for name in PART_NAMES[:3])

    def test_manifest_records_read_once_and_shared_by_repetitions(self, tmp_path, monkeypatch):
        path = write_manifest_fleet(tmp_path)
        config = fleet_config("supervised", "manifest", path)
        reads = []

        def counting(*args, **kwargs):
            reads.append(args[0])
            return load_device_csv(*args, **kwargs)

        monkeypatch.setattr("fediot.dataset.load_device_csv", counting)
        records = [{d: p.records for d, p in partitions.items()} for _, partitions, _ in _repetitions(config)]
        assert sorted(reads) == sorted(e.path for e in load_manifest(path))
        assert len(records) == 2
        assert all(records[1][d] is records[0][d] for d in records[0])
