"""Device traffic streams: CSV ingestion, chronological splits, rebalancing, synthesis."""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, EmptyPartError, MissingClassError, ParseError, SchemaError

FEATURE_DIM = 115

# Chronological split fractions; every part except the last is floored,
# the last part absorbs the remainder.
SUPERVISED_FRACTIONS = (0.79, 0.01, 0.20)
UNSUPERVISED_FRACTIONS = (0.395, 0.395, 0.01, 0.20)

BENIGN = 0
ATTACK = 1

_MANIFEST_COLUMNS = ("device_id", "path", "class")
_CLASS_NAMES = ("benign", "attack")  # indexed by label


@dataclass(frozen=True)
class SampleSet:
    """Labeled traffic records, one row per record; a device's rows are in capture order.

    Attributes:
        features: (n, F) float array, one row per record, or None in a
            labels-only set: a synthetic device is split and rebalanced on
            its labels before any of its features is drawn.
        labels: (n,) int array with 0 benign / 1 attack.
    """

    features: np.ndarray | None
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.features is not None and self.features.ndim != 2:
            raise SchemaError(f"features must be 2-D, got shape {self.features.shape}")
        n = len(self.labels) if self.features is None else self.features.shape[0]
        if self.labels.shape != (n,):
            raise SchemaError(f"labels shape {self.labels.shape} != ({n},)")
        bad = ~np.isin(self.labels, (BENIGN, ATTACK))
        if bad.any():
            raise SchemaError(f"labels must be 0 or 1, found {self.labels[bad][:5]}")

    def __len__(self) -> int:
        return self.labels.shape[0]

    def take(self, indices: np.ndarray) -> SampleSet:
        """Gather records by position, preserving the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        return SampleSet(self.features[idx], self.labels[idx])


@dataclass(frozen=True)
class DevicePartition:
    """The split data of one device: its records, each held once, and per
    part an intp array of row positions into them, in part order.

    A position may repeat (upsampling); readers gather the rows they need.
    threshold_sel is present only for unsupervised splits, where it feeds
    anomaly threshold selection. The unused part is a chronological gap
    between training and testing data and is never read by training code.
    """

    device_id: str
    records: SampleSet
    train: np.ndarray
    unused: np.ndarray
    test: np.ndarray
    threshold_sel: np.ndarray | None = None

    def gather(self, part: str) -> SampleSet:
        """The records of one part, named by field, as a new SampleSet in part order."""
        return self.records.take(getattr(self, part))

    def _parts(self) -> list[np.ndarray | None]:
        return [self.train, self.unused, self.test, self.threshold_sel]

    @staticmethod
    def concat(
        device_id: str, records: SampleSet, parts: list[DevicePartition], starts: list[int]
    ) -> DevicePartition:
        """Join partitions whose records are rows of records, the i-th from starts[i] on.

        Each part of the result is the members' parts, shifted by their
        starts, joined in member order. No record is copied.
        """
        if not parts:
            raise ValueError("cannot pool zero partitions")

        def joined(pieces: tuple[np.ndarray | None, ...]) -> np.ndarray | None:
            if pieces[0] is None:
                return None
            return np.concatenate([piece + start for piece, start in zip(pieces, starts)])

        return DevicePartition(device_id, records, *map(joined, zip(*(p._parts() for p in parts))))


class Fleet(dict):
    """One repetition's partitions by device id, over one record array.

    records holds every device's records once, in device order: each
    partition's records are a view of the next contiguous range of it.
    """

    def __init__(self, records: SampleSet, partitions: list[DevicePartition]) -> None:
        super().__init__((p.device_id, p) for p in partitions)
        self.records = records

    def pool(self, device_id: str, ids: list[str]) -> DevicePartition:
        """The named devices' train and threshold parts joined in order, as
        rows of the fleet's records: no feature row is copied."""
        starts = dict(zip(self, np.cumsum([0] + [len(p.records) for p in self.values()]).tolist()))
        none = np.empty(0, dtype=np.intp)
        members = [replace(self[d], unused=none, test=none) for d in ids]
        return DevicePartition.concat(device_id, self.records, members, [starts[d] for d in ids])

    def clear(self) -> None:
        """Drop the partitions and the record array: an emptied fleet holds no record."""
        super().clear()
        self.records = None


@dataclass(frozen=True)
class BalanceSpec:
    """Per-device class balance and size target applied after splitting."""

    benign_fraction: float
    samples_per_device: int

    def __post_init__(self) -> None:
        if not 0.0 < self.benign_fraction < 1.0:
            raise ConfigError(f"benign_fraction must be in (0, 1), got {self.benign_fraction}")
        if self.samples_per_device <= 0:
            raise ConfigError(f"samples_per_device must be positive, got {self.samples_per_device}")


# Both fleet sources reject a fleet of fewer than 2 devices with this message.
_FLEET_FLOOR = "a fleet needs at least 2 devices (1 trains, 1 is held out)"


@dataclass(frozen=True)
class DataSource:
    """Where the device streams come from.

    source 'synthetic' draws one non-IID stream per device; 'manifest' reads
    a CSV manifest of per-device capture files.
    """

    source: str = "synthetic"
    devices: int = 9
    samples_per_device: int = 5000
    feature_dim: int = FEATURE_DIM
    benign_fraction: float = 0.5
    attack_patterns: int = 3
    benign_spread: float = 2.0
    attack_shift: float = 4.0
    noise_sigma: float = 1.0
    path: str = ""
    schema: int = FEATURE_DIM
    has_header: bool = False

    def __post_init__(self) -> None:
        if self.source not in ("synthetic", "manifest"):
            raise ConfigError(f"data source must be synthetic or manifest, got {self.source!r}")
        if self.source == "synthetic":
            if self.devices < 2:
                raise ConfigError(_FLEET_FLOOR)
            if self.samples_per_device < 1 or self.attack_patterns < 1:
                raise ConfigError(f"samples_per_device and attack_patterns must be >= 1, got "
                                  f"{self.samples_per_device}, {self.attack_patterns}")
            if not 0 < self.benign_fraction < 1:
                raise ConfigError(f"benign_fraction must lie in (0, 1), got {self.benign_fraction}")
            if not (self.noise_sigma >= 0 and self.benign_spread >= 0):  # also rejects NaN
                raise ConfigError(f"noise_sigma and benign_spread must be >= 0, got "
                                  f"{self.noise_sigma}, {self.benign_spread}")
            if not all(map(math.isfinite, (self.attack_shift, self.benign_spread, self.noise_sigma))):
                raise ConfigError(f"attack_shift, benign_spread and noise_sigma must be finite, got "
                                  f"{self.attack_shift}, {self.benign_spread}, {self.noise_sigma}")
        if self.source == "manifest" and not self.path:
            raise ConfigError("manifest data source needs a path")


def _csv_rows(path: str, has_header: bool) -> int:
    # The records load_device_csv reads from path: its non-blank lines, the
    # header excepted. Counting lines takes a fifth of the time csv.reader
    # takes; a quoted cell spanning lines counts twice, and the parse then
    # finds fewer records than counted and raises.
    with open(path, newline="") as handle:
        return sum(1 for no, line in enumerate(handle) if line.strip("\r\n") and not (has_header and no == 0))


def load_device_csv(
    path: str, label: int, schema: int = FEATURE_DIM, has_header: bool = False, out: SampleSet | None = None
) -> SampleSet:
    """Load one device stream from a CSV file.

    Args:
        path: CSV file with one record per row, in capture order. The first
            data row fixes whether a final 0/1 label column follows the
            features.
        label: the class (0 benign / 1 attack) of every record of a file
            without a label column.
        schema: expected number of feature columns.
        has_header: skip the first row when True.
        out: the records to parse into, one per non-empty data row, which
            are returned; new arrays when omitted.

    Raises:
        SchemaError: a row has the wrong number of columns, or the file does
            not hold as many records as out.
        ParseError: a cell is non-numeric or non-finite, or a label is not 0/1.
    """
    if out is None:
        n = _csv_rows(path, has_header)
        out = SampleSet(np.empty((n, schema)), np.zeros(n, dtype=np.int64))
    features, labels, capacity = out.features, out.labels, len(out)
    row_nos: list[int] = []
    labeled = None
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for row_no, row in enumerate(reader):
            if has_header and row_no == 0:
                continue
            if not row:
                continue
            if labeled is None:
                if len(row) == schema:
                    labeled = False
                elif len(row) == schema + 1:
                    labeled = True
                else:
                    raise SchemaError(
                        f"{path}: row {row_no}: expected {schema} or {schema + 1} "
                        f"columns, found {len(row)}"
                    )
            expected = schema + 1 if labeled else schema
            if len(row) != expected:
                raise SchemaError(
                    f"{path}: row {row_no}: expected {expected} columns, found {len(row)}"
                )
            i = len(row_nos)
            if i == capacity:
                raise SchemaError(f"{path}: holds more than the {i} records counted")
            try:
                features[i] = [float(cell) for cell in row[:schema]]
            except ValueError as exc:
                raise ParseError(f"{path}: row {row_no}: non-numeric cell: {exc}") from None
            if labeled:
                cell = row[schema].strip()
                if cell not in ("0", "1"):
                    raise ParseError(f"{path}: row {row_no}: label must be 0 or 1, got {cell!r}")
                labels[i] = int(cell)
            row_nos.append(row_no)
    if len(row_nos) != capacity:
        raise SchemaError(f"{path}: holds {len(row_nos)} records, not the {capacity} counted")
    if not labeled:
        labels[:] = label
    # float() also reads nan, inf and overflowing literals such as 1e309.
    if not np.isfinite(features).all():
        row, column = np.argwhere(~np.isfinite(features))[0]
        raise ParseError(
            f"{path}: row {row_nos[row]}: column {column}: non-finite cell {float(features[row, column])!r}"
        )
    return out


def _part_sizes(n: int, fractions: tuple[float, ...], what: str) -> list[int]:
    # Floor every part except the last; the last absorbs the remainder.
    if n < len(fractions):
        raise EmptyPartError(f"{what} cannot fill {len(fractions)} split parts")
    sizes = [int(f * n) for f in fractions[:-1]]
    sizes.append(n - sum(sizes))
    return sizes


def _cut(positions: np.ndarray, fractions: tuple[float, ...], what: str) -> list[np.ndarray]:
    # Consecutive runs of the given positions, one per fraction.
    return np.split(positions, np.cumsum(_part_sizes(positions.size, fractions, what))[:-1])


def chronological_split(samples: SampleSet, mode: str, device_id: str = "device") -> DevicePartition:
    """Split one device stream into time-ordered parts over its records.

    Supervised mode cuts the stream into train / unused / test blocks of
    fractions 0.79 / 0.01 / 0.20. Unsupervised mode applies fractions
    0.395 / 0.395 / 0.01 / 0.20 to the benign records only (train,
    threshold_sel, unused, benign test) and adds every attack record to the
    test part, which keeps capture order. The partition's records are
    samples itself: no feature row is copied.

    Raises:
        EmptyPartError: the stream holds fewer records than parts.
        ConfigError: unknown mode.
    """
    n = len(samples)
    if mode == "supervised":
        parts = _cut(np.arange(n), SUPERVISED_FRACTIONS, f"{device_id}: {n} samples")
        return DevicePartition(device_id, samples, *parts)
    if mode != "unsupervised":
        raise ConfigError(f"unknown split mode {mode!r}")
    benign = np.flatnonzero(samples.labels == BENIGN)
    train, thr_sel, unused, test = _cut(
        benign, UNSUPERVISED_FRACTIONS, f"{device_id}: {benign.size} benign samples"
    )
    test = np.sort(np.concatenate([test, np.flatnonzero(samples.labels == ATTACK)]))
    return DevicePartition(device_id, samples, train, unused, test, thr_sel)


def _resample(indices: np.ndarray, target: int, rng: np.random.Generator) -> np.ndarray:
    # Downsampling keeps a uniform subset; upsampling keeps every original
    # once and adds uniform duplicates.
    n = indices.size
    if target == n:
        return indices
    if target < n:
        return rng.choice(indices, size=target, replace=False)
    extra = rng.choice(indices, size=target - n, replace=True)
    return np.concatenate([indices, extra])


def _resize(
    records: SampleSet, part: np.ndarray, targets: dict[int, int], rng: np.random.Generator, what: str
) -> np.ndarray:
    # Resample each class of the part to its target count, in the order
    # given, then put the picked records back into capture order, which is
    # row order.
    labels = records.labels[part]
    chosen = []
    for label, target in targets.items():
        indices = np.flatnonzero(labels == label)
        if target > 0 and indices.size == 0:
            raise MissingClassError(f"{what}: no {_CLASS_NAMES[label]} samples to reach {target}")
        chosen.append(_resample(indices, target, rng))
    return np.sort(part[np.concatenate(chosen)])


def rebalance(partition: DevicePartition, spec: BalanceSpec, rng_seed: int) -> DevicePartition:
    """Resize every part of a partition to an exact size and class mix.

    Part size targets follow the split fractions applied to
    spec.samples_per_device. Supervised parts each get a benign share of
    floor(benign_fraction * part size). Unsupervised parts are benign by
    construction, so samples_per_device budgets the benign stream and only
    the attack side of the test part is resized, to match benign_fraction
    within the test part. No record ever crosses a part boundary. Only the
    indices are redrawn, over the partition's own records.
    """
    rng = np.random.default_rng(rng_seed)
    spd, bf, who = spec.samples_per_device, spec.benign_fraction, partition.device_id
    records = partition.records

    def resize(name: str, targets: dict[int, int]) -> np.ndarray:
        return _resize(records, getattr(partition, name), targets, rng, f"{who} {name}")

    if partition.threshold_sel is None:
        sizes = _part_sizes(spd, SUPERVISED_FRACTIONS, f"{who}: target {spd}")
        return DevicePartition(who, records, *[
            resize(name, {BENIGN: int(bf * t), ATTACK: t - int(bf * t)})
            for name, t in zip(("train", "unused", "test"), sizes)
        ])
    t_train, t_thr, t_unused, t_btest = _part_sizes(
        spd, UNSUPERVISED_FRACTIONS, f"{who}: target {spd}"
    )
    # The draw order is part of the seeded stream: test first, then the benign parts.
    test = resize("test", {BENIGN: t_btest, ATTACK: round(t_btest * (1.0 - bf) / bf)})
    train = resize("train", {BENIGN: t_train})
    unused = resize("unused", {BENIGN: t_unused})
    return DevicePartition(who, records, train, unused, test, resize("threshold_sel", {BENIGN: t_thr}))


def _striped_labels(n: int, benign_fraction: float) -> np.ndarray:
    # Spread exactly round(f * n) benign records evenly through the stream so
    # that every split part sees both classes.
    n_benign = int(round(benign_fraction * n))
    marks = np.arange(1, n + 1) * n_benign // n
    labels = np.ones(n, dtype=np.int64)
    labels[np.diff(np.concatenate([[0], marks])) > 0] = BENIGN
    return labels


def generate_synthetic_fleet(
    source: DataSource,
    seed: int,
    split: Callable[[str, SampleSet], DevicePartition] | None = None,
) -> list[SampleSet] | Fleet:
    """Generate labeled traffic streams for a synthetic device fleet.

    Every device draws benign records around its own center, so devices are
    not identically distributed. Attack records shift the device center along
    one of a small set of directions shared by the whole fleet, the way one
    malware family produces similar traffic on different devices. Device i
    is dev-i; everything is deterministic in the seed.

    Without split, returns one whole stream per device. With split, a
    function from a device id and its labels-only stream to that device's
    partition, returns the Fleet: every device is split on its labels
    first, which fixes the records its parts name and so the size of the
    one record array; then each device in turn draws its whole stream and
    keeps only those records, straight in its range of the array. A record
    is built from its own draws, elementwise, so it has the same bits
    whichever others are kept.

    Raises:
        ConfigError: the geometry overflows float64.
    """
    n, dim = source.samples_per_device, source.feature_dim
    fleet_ss, *device_ss = np.random.SeedSequence(seed).spawn(source.devices + 1)
    fleet_rng = np.random.default_rng(fleet_ss)
    directions = fleet_rng.normal(size=(source.attack_patterns, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    labels = _striped_labels(n, source.benign_fraction)
    attack_rows = np.flatnonzero(labels == ATTACK)
    whole, none = np.arange(n), np.empty(0, dtype=np.intp)
    plans = [
        DevicePartition(f"dev-{i}", SampleSet(None, labels), whole, none, none)
        if split is None else split(f"dev-{i}", SampleSet(None, labels))
        for i in range(source.devices)
    ]
    named = []  # per device, a mask of the records some part names
    for plan in plans:
        # A mask, not np.unique: that imports numpy.ma, 0.5 MB more resident.
        mask = np.zeros(n, dtype=bool)
        for part in plan._parts():
            if part is not None:
                mask[part] = True
        named.append(mask)
    total = sum(int(np.count_nonzero(mask)) for mask in named)
    features, fleet_labels = np.empty((total, dim)), np.empty(total, dtype=labels.dtype)
    partitions, start = [], 0
    for plan, mask, dev_ss in zip(plans, named, device_ss):
        rows = np.flatnonzero(mask)
        rng = np.random.default_rng(dev_ss)
        out = features[start : start + rows.size]
        labels.take(rows, out=fleet_labels[start : start + rows.size], mode="clip")
        center = source.benign_spread * rng.normal(size=dim)
        if rows.size == n:  # every record is named: draw in place
            rng.standard_normal(out=out)
        else:  # the raw stream lives only until its named rows are gathered
            rng.standard_normal((n, dim)).take(rows, axis=0, out=out, mode="clip")
        patterns = rng.integers(0, source.attack_patterns, size=attack_rows.size)
        out *= source.noise_sigma
        out += center
        hit = np.flatnonzero(labels[rows] == ATTACK)
        patterns = patterns[np.searchsorted(attack_rows, rows[hit])]
        # One pattern at a time, so the temporaries hold one pattern's rows.
        for pattern, step in enumerate(source.attack_shift * directions):
            out[hit[patterns == pattern]] += step
        # A NaN or infinity makes the sum of squares NaN or inf, so only then
        # (or when finite squares overflow) is every record checked.
        flat = out.reshape(-1)
        if not np.isfinite(np.dot(flat, flat)) and not np.isfinite(out).all():
            raise ConfigError(
                f"data: {plan.device_id} draws non-finite features; benign_spread {source.benign_spread}, "
                f"attack_shift {source.attack_shift} and noise_sigma {source.noise_sigma} overflow float64"
            )
        records = SampleSet(out, fleet_labels[start : start + rows.size])
        parts = plan._parts()
        if rows.size < n:  # a part's rows in the device's range
            parts = [None if part is None else np.searchsorted(rows, part) for part in parts]
        partitions.append(DevicePartition(plan.device_id, records, *parts))
        start += rows.size
    if split is None:
        return [p.records for p in partitions]
    return Fleet(SampleSet(features, fleet_labels), partitions)


@dataclass(frozen=True)
class ManifestEntry:
    device_id: str
    path: str
    label: int


def load_manifest(path: str) -> list[ManifestEntry]:
    """Read a fleet manifest: CSV rows of device_id, path, class.

    class is 'benign' or 'attack' and fixes the label of every record in the
    referenced file. Relative paths are resolved against the manifest's
    directory. A header row is skipped when present. A device_id names
    files in a bundle, so an empty one or one holding a path separator
    raises SchemaError.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, newline="") as handle:
        for row_no, row in enumerate(csv.reader(handle)):
            if not row:
                continue
            if row_no == 0 and tuple(c.strip().lower() for c in row) == _MANIFEST_COLUMNS:
                continue
            if len(row) != 3:
                raise SchemaError(f"{path}: row {row_no}: expected 3 columns, found {len(row)}")
            device_id, file_path, cls = (c.strip() for c in row)
            if not device_id or "/" in device_id or "\\" in device_id:
                raise SchemaError(
                    f"{path}: row {row_no}: device_id {device_id!r} is empty or holds a path separator"
                )
            if cls not in _CLASS_NAMES:
                raise ParseError(f"{path}: row {row_no}: class must be benign or attack, got {cls!r}")
            if not os.path.isabs(file_path):
                file_path = os.path.join(base, file_path)
            entries.append(ManifestEntry(device_id, file_path, _CLASS_NAMES.index(cls)))
    if not entries:
        raise SchemaError(f"{path}: manifest lists no files")
    return entries


def partition_from_manifest(
    entries: list[ManifestEntry],
    mode: str,
    schema: int = FEATURE_DIM,
    has_header: bool = False,
) -> Fleet:
    """Build the fleet of one partition per device from per-class capture files.

    Each file is one uninterrupted capture, so the chronological split is
    applied per file and the per-file parts are joined. A device's captures
    follow each other in manifest order: its records are the rows of its
    files in that order, so row order is capture order. Every file's rows
    are counted first, then each file is parsed straight into its range of
    the fleet's one record array, devices in order of first mention. A file
    without a label column takes its manifest class. In unsupervised mode
    attack files go to the test part whole.

    Raises:
        MissingClassError: an unsupervised device lists no benign capture.
    """
    by_device: dict[str, list[ManifestEntry]] = {}
    for entry in entries:
        by_device.setdefault(entry.device_id, []).append(entry)
    for device_id, files in by_device.items():
        if mode == "unsupervised" and all(entry.label == ATTACK for entry in files):
            raise MissingClassError(f"{device_id}: no benign capture to train on")
    counts = [[_csv_rows(entry.path, has_header) for entry in files] for files in by_device.values()]
    total = sum(map(sum, counts))
    features, labels = np.empty((total, schema)), np.zeros(total, dtype=np.int64)
    partitions, start = [], 0
    for (device_id, files), sizes in zip(by_device.items(), counts):
        first = start
        parts, starts = [], []
        for entry, size in zip(files, sizes):
            stream = load_device_csv(
                entry.path, entry.label, schema, has_header,
                out=SampleSet(features[start : start + size], labels[start : start + size]),
            )
            if mode == "unsupervised" and entry.label == ATTACK:
                empty = np.empty(0, dtype=np.intp)
                parts.append(DevicePartition(device_id, stream, empty, empty, np.arange(size), empty))
            else:
                parts.append(chronological_split(stream, mode, device_id))
            starts.append(start - first)
            start += size
        records = SampleSet(features[first:start], labels[first:start])
        partitions.append(DevicePartition.concat(device_id, records, parts, starts))
    return Fleet(SampleSet(features, labels), partitions)
