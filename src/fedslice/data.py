"""Per-slice client datasets: synthetic generation, CSV ingestion, scaling.

Each client in a slice federation owns an hourly time series with three model
inputs (aggregated slice traffic, channel quality, MIMO full-rank usage) and
one output (CPU load percentage). Synthetic clients follow a 24-hour diurnal
traffic cycle shaped by a per-client profile so that the federation is
measurably non-IID. Real data arrives as CSV with one column per OTT
application; the slice traffic feature is the sum of the slice's columns.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

OTT_COLUMNS = (
    "Apple",
    "Facebook",
    "Facebook Messages",
    "Facebook Video",
    "HTTPS",
    "Instagram",
    "Netflix",
    "QUIC",
    "Whatsapp",
    "Youtube",
)
CQI_COLUMN = "CQI"
MIMO_COLUMN = "MIMO_FI"
TARGET_COLUMN = "CPU_Load"
CSV_COLUMNS = OTT_COLUMNS + (CQI_COLUMN, MIMO_COLUMN, TARGET_COLUMN)

FEATURE_NAMES = ("slice_traffic", CQI_COLUMN, MIMO_COLUMN)
N_FEATURES = len(FEATURE_NAMES)

CQI_MAX = 15.0
CPU_MAX = 100.0


@dataclass(frozen=True)
class SliceSpec:
    """A logical network slice and the OTT applications aggregated into it."""

    name: str
    ott_apps: tuple[str, ...]


SLICES = (
    SliceSpec("eMBB", ("Netflix", "Youtube", "Facebook Video")),
    SliceSpec("SocialMedia", ("Facebook", "Facebook Messages", "Whatsapp", "Instagram")),
    SliceSpec("Browsing", ("Apple", "HTTPS", "QUIC")),
)
SLICE_BY_NAME = {s.name: s for s in SLICES}
DEFAULT_SLICE_NAMES = tuple(SLICE_BY_NAME)


def slice_by_name(name: str) -> SliceSpec:
    try:
        return SLICE_BY_NAME[name]
    except KeyError:
        raise ConfigError(f"unknown slice {name!r}, expected one of {sorted(SLICE_BY_NAME)}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    # Exact int/float comparison: NaN, infinities and integers past float range fail.
    return ((_is_int(value) or isinstance(value, float))
            and -sys.float_info.max <= value <= sys.float_info.max)


# Each field annotation -> (value check, what the error says it must be).
_FIELD_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (_is_finite, "a finite number"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "tuple[int, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
                        "a list of integers"),
    "tuple[str, ...]": (lambda v: isinstance(v, (list, tuple))
                        and all(isinstance(x, str) for x in v), "a list of strings"),
    "tuple[float, float, float]": (lambda v: isinstance(v, (list, tuple)) and len(v) == 3
                                   and all(map(_is_finite, v)), "a list of 3 finite numbers"),
}


def check_fields(record) -> None:
    """Raise ConfigError naming the first field of a dataclass that does not fit its annotation.

    Integers exclude bools and floats; a "float" is a finite int or float.
    """
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        is_valid, kind = _FIELD_TYPES[f.type]
        if not is_valid(value):
            raise ConfigError(f"{f.name} must be {kind}, got {value!r}")


def from_json(cls, raw, where: str):
    """`cls(**raw)` for a JSON object with no unknown or missing key; errors start with `where`.

    Keys with defaults may be left out; `cls` checks the values itself.
    """
    try:
        if not isinstance(raw, dict):
            raise ConfigError(f"must be a JSON object, got {type(raw).__name__}")
        fields = dataclasses.fields(cls)
        unknown = sorted(set(raw) - {f.name for f in fields})
        if unknown:
            raise ConfigError(f"unknown key(s): {', '.join(unknown)}")
        missing = [f.name for f in fields if f.name not in raw
                   and f.default is dataclasses.MISSING]
        if missing:
            raise ConfigError(f"missing key(s): {', '.join(missing)}")
        return cls(**raw)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class DataSpec:
    """The client population `run` and `gen-data` share: clients, rows, seed and slices."""

    n_clients: int = 10
    samples_per_client: int = 1000
    seed: int = 42
    slices: tuple[str, ...] = DEFAULT_SLICE_NAMES

    def __post_init__(self) -> None:
        check_fields(self)
        object.__setattr__(self, "slices", tuple(self.slices))
        if self.n_clients < 1:
            raise ConfigError("n_clients must be at least 1")
        # Past float range a row count cannot be split by a fraction.
        if not (self.samples_per_client >= 2 and _is_finite(self.samples_per_client)):
            raise ConfigError(
                f"samples_per_client must be finite and at least 2, got {self.samples_per_client}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.slices:
            raise ConfigError("slices must name at least one slice")
        for name in self.slices:
            try:
                slice_by_name(name)
            except ConfigError as exc:
                raise ConfigError(f"slices: {exc}") from None
        if len(set(self.slices)) != len(self.slices):
            raise ConfigError(f"slices must not repeat a name, got {list(self.slices)}")


@dataclass(frozen=True)
class MinMaxScaler:
    """Per-feature and target min-max parameters fitted on a train split.

    Constant columns (span 0) map to 0 on transform and back to their minimum
    on inverse transform.
    """

    feature_min: np.ndarray
    feature_span: np.ndarray
    target_min: float
    target_span: float

    @classmethod
    def fit(cls, features: np.ndarray, targets: np.ndarray) -> "MinMaxScaler":
        fmin = features.min(axis=0)
        fspan = features.max(axis=0) - fmin
        tmin = float(targets.min())
        tspan = float(targets.max()) - tmin
        return cls(fmin, fspan, tmin, tspan)

    def transform_features(self, features: np.ndarray) -> np.ndarray:
        span = np.where(self.feature_span > 0.0, self.feature_span, 1.0)
        scaled = (features - self.feature_min) / span
        return np.where(self.feature_span > 0.0, scaled, 0.0)

    def transform_target(self, targets: np.ndarray) -> np.ndarray:
        if self.target_span > 0.0:
            return (targets - self.target_min) / self.target_span
        return np.zeros_like(np.asarray(targets, dtype=np.float64))

    def inverse_target(self, scaled: np.ndarray) -> np.ndarray:
        return np.asarray(scaled, dtype=np.float64) * self.target_span + self.target_min


@dataclass(frozen=True)
class ClientDataset:
    """One client's local samples for one slice, with split, scaler and pools.

    A dataset keeps only what training, attribution, evaluation and
    provisioning read: the min-max-scaled features and targets of every row,
    the raw (CPU-percent) targets of the test rows, which provisioning
    reports in, the scaler and the attribution pool order. Raw features and
    raw train targets are dropped once scaled, and every array owns its
    memory, so no parse buffer or generation table outlives the dataset.
    The split is chronological: the first `n_train` rows train, the rest
    test, and the split properties are views. The attribution pool is a
    seeded permutation of the train rows, fixed for the dataset's lifetime.
    """

    client_id: int
    n_train: int
    attribution_indices: np.ndarray
    scaler: MinMaxScaler
    scaled_features: np.ndarray
    scaled_targets: np.ndarray
    raw_test_targets: np.ndarray

    def __post_init__(self) -> None:
        for name in ("attribution_indices", "scaled_features", "scaled_targets",
                     "raw_test_targets"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return self.scaled_features.shape[0]

    @property
    def train_features(self) -> np.ndarray:
        return self.scaled_features[:self.n_train]

    @property
    def train_targets(self) -> np.ndarray:
        return self.scaled_targets[:self.n_train]

    @property
    def test_features(self) -> np.ndarray:
        return self.scaled_features[self.n_train:]

    @property
    def test_targets(self) -> np.ndarray:
        return self.scaled_targets[self.n_train:]

    def attribution_pool(self, count: int) -> np.ndarray:
        """Scaled features of the first `count` rows of the attribution pool."""
        return self.scaled_features[self.attribution_indices[:count]]


def train_rows(n: int, train_fraction: float) -> int:
    """Rows of the chronological train split of an `n`-row dataset.

    `round(n * train_fraction)`, kept to at least one row and leaving at
    least one test row.
    """
    if n < 2:
        raise ConfigError("a dataset needs at least 2 rows to split")
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    return min(max(int(round(n * train_fraction)), 1), n - 1)


def make_dataset(
    client_id: int,
    features: np.ndarray,
    targets: np.ndarray,
    shuffle_rng: np.random.Generator,
    train_fraction: float = 0.8,
) -> ClientDataset:
    """Chronological train/test split, train-only scaler fit, seeded pool order."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    targets = np.ascontiguousarray(targets, dtype=np.float64).reshape(-1)
    n_train = train_rows(features.shape[0], train_fraction)
    scaler = MinMaxScaler.fit(features[:n_train], targets[:n_train])
    return ClientDataset(
        client_id=client_id,
        n_train=n_train,
        attribution_indices=shuffle_rng.permutation(n_train),
        scaler=scaler,
        scaled_features=scaler.transform_features(features),
        scaled_targets=scaler.transform_target(targets),
        # A copy: a view would keep all of `targets`, and what it views, alive.
        raw_test_targets=targets[n_train:].copy(),
    )


@dataclass(frozen=True)
class NonIidProfile:
    """Generative knobs that make one synthetic client's data distinct.

    Construction raises ConfigError, naming the field, unless every field
    has its type, `client_id` is non-negative, `traffic_scale` is positive
    and `noise_level` is non-negative, so every profile can generate data.
    Numbers are stored as Python floats.
    """

    client_id: int
    traffic_scale: float
    diurnal_phase: float
    cqi_mean: float
    noise_level: float
    mix_weights: tuple[float, float, float]
    diurnal_amplitude: float = 0.5

    def __post_init__(self) -> None:
        check_fields(self)
        for f in dataclasses.fields(self):
            if f.type == "float":
                object.__setattr__(self, f.name, float(getattr(self, f.name)))
        object.__setattr__(self, "mix_weights", tuple(float(w) for w in self.mix_weights))
        if self.client_id < 0:
            raise ConfigError(f"client_id must be non-negative, got {self.client_id}")
        if self.traffic_scale <= 0.0:
            raise ConfigError(f"traffic_scale must be positive, got {self.traffic_scale!r}")
        if self.noise_level < 0.0:
            raise ConfigError(f"noise_level cannot be negative, got {self.noise_level!r}")


def default_profiles(n_clients: int, seed: int) -> list[NonIidProfile]:
    """Deterministic zone profiles: 4x traffic-scale spread, staggered phases.

    Traffic scales and diurnal phases vary strongly across clients, so raw
    traffic marginals are far apart (covariate non-IIDness), while the
    CPU-load mix keeps each feature's contribution budget comparable across
    zones; that keeps a size-weighted federation learnable by a tiny shared
    model at desk scale.
    """
    rng = np.random.default_rng(seed)
    profiles = []
    cqi_mean = 8.0
    mean_mimo = 25.0 + 60.0 * cqi_mean / CQI_MAX
    budget = 70.0
    for k in range(n_clients):
        u = k / max(n_clients - 1, 1)
        traffic_scale = 4.0 ** u
        phase = 24.0 * k / n_clients + float(rng.uniform(-1.0, 1.0))
        shares = rng.dirichlet((400.0, 400.0, 400.0))
        mix = (
            budget * shares[0] / traffic_scale,
            budget * shares[1] / cqi_mean,
            budget * shares[2] / mean_mimo,
        )
        profiles.append(NonIidProfile(k, traffic_scale, phase, cqi_mean, 3.1, mix))
    return profiles


def _split_seed(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    signal_ss, shuffle_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(signal_ss), np.random.default_rng(shuffle_ss)


def generate_client_table(
    profile: NonIidProfile,
    slice_spec: SliceSpec,
    n_samples: int,
    seed: int,
) -> dict[str, np.ndarray]:
    """Full canonical-schema columns for one synthetic client of one slice.

    The slice's aggregate traffic follows a diurnal sinusoid scaled by the
    profile and is split across the slice's OTT applications with fixed
    per-client proportions; applications outside the slice carry no traffic.
    CPU load is the profile's mix of the three features plus heteroscedastic
    noise, clipped to [0, 100].
    """
    rng, _ = _split_seed(seed)
    hours = np.arange(n_samples)
    base = 1.0 + profile.diurnal_amplitude * np.sin(
        2.0 * np.pi * (hours + profile.diurnal_phase) / 24.0
    )
    traffic = profile.traffic_scale * base
    traffic = traffic + profile.traffic_scale * 0.05 * profile.noise_level * rng.standard_normal(n_samples)
    traffic = np.maximum(traffic, 0.0)

    cqi = np.clip(profile.cqi_mean + 1.5 * rng.standard_normal(n_samples), 0.0, CQI_MAX)
    mimo = np.clip(
        100.0 * (0.25 + 0.6 * cqi / CQI_MAX) + 8.0 * rng.standard_normal(n_samples),
        0.0,
        100.0,
    )

    w_traffic, w_cqi, w_mimo = profile.mix_weights
    signal = w_traffic * traffic + w_cqi * cqi + w_mimo * mimo
    # Noise spread rises and falls with the traffic cycle (heteroscedastic).
    noise_sd = profile.noise_level * (0.5 + traffic / (2.0 * profile.traffic_scale))
    cpu = np.clip(signal + noise_sd * rng.standard_normal(n_samples), 0.0, CPU_MAX)

    app_shares = rng.dirichlet(np.full(len(slice_spec.ott_apps), 2.0))
    table: dict[str, np.ndarray] = {}
    for col in OTT_COLUMNS:
        table[col] = np.zeros(n_samples)
    for app, share in zip(slice_spec.ott_apps, app_shares):
        table[app] = traffic * share
    table[CQI_COLUMN] = cqi
    table[MIMO_COLUMN] = mimo
    table[TARGET_COLUMN] = cpu
    return table


def aggregate_table(table: dict[str, np.ndarray], slice_spec: SliceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a full column table to the (slice_traffic, CQI, MIMO) matrix + target."""
    n = len(table[TARGET_COLUMN])
    slice_traffic = np.zeros(n)
    for app in slice_spec.ott_apps:
        slice_traffic = slice_traffic + table[app]
    features = np.column_stack([slice_traffic, table[CQI_COLUMN], table[MIMO_COLUMN]])
    return features, np.asarray(table[TARGET_COLUMN], dtype=np.float64)


def generate_client(
    profile: NonIidProfile,
    slice_spec: SliceSpec,
    n_samples: int,
    seed: int,
    train_fraction: float = 0.8,
) -> ClientDataset:
    """Synthetic ClientDataset equal to exporting the table and re-ingesting it."""
    table = generate_client_table(profile, slice_spec, n_samples, seed)
    features, targets = aggregate_table(table, slice_spec)
    _, shuffle_rng = _split_seed(seed)
    return make_dataset(profile.client_id, features, targets, shuffle_rng, train_fraction)


def write_csv(path: str | Path, header, row_format: str, rows) -> None:
    """Write `header`, then one `row_format % row` line per row tuple, CRLF-ended.

    Nothing is quoted, so no cell may hold a comma, a quote or a line break;
    the bytes are then those `csv.writer` writes.
    """
    row_format += "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row_format % row for row in rows)


def write_client_csv(table: dict[str, np.ndarray], path: str | Path) -> None:
    """Write a full column table in the canonical CSV schema, `%.17g` floats.

    A column that is `+0.0` in every row is written as the literal `0` that
    `%.17g` would print, without formatting each of its cells.
    """
    columns = np.column_stack([np.asarray(table[c], dtype=np.float64) for c in CSV_COLUMNS])
    live = columns.any(axis=0) | np.signbit(columns).any(axis=0)
    write_csv(path, CSV_COLUMNS, ",".join("%.17g" if x else "0" for x in live),
              map(tuple, columns[:, live].tolist()))


# Characters numpy's parser strips as whitespace around a number and `float()` does not.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def read_table_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Parse a canonical CSV into a column table, validating schema and cells.

    Columns are found by header name, so extra or reordered columns are fine.
    Every cell must parse as a finite float in Python `float()` spelling,
    quoted cells included. numpy's C parser reads the body; a file it refuses,
    one holding a non-finite value or one holding a character of
    `_NUMPY_ONLY_SPACE` is walked cell by cell with `float()`, which names the
    first bad cell's physical row and column. Blank lines are skipped but
    still count toward reported row numbers.
    """
    path = Path(path)
    with path.open("r", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ConfigError(f"{path}: file is empty") from None
        body = fh.read()
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise ConfigError(f"{path}: missing column(s) {', '.join(missing)}")
    col_pos = {c: header.index(c) for c in CSV_COLUMNS}
    try:
        with warnings.catch_warnings():
            # loadtxt only warns on a body with no rows; the walk handles that file too.
            warnings.simplefilter("error", UserWarning)
            values = np.loadtxt(io.StringIO(body, newline=""), delimiter=",", quotechar='"',
                                comments=None, ndmin=2, usecols=list(col_pos.values()))
    except (ValueError, UserWarning):
        pass
    else:
        if np.isfinite(values).all() and not any(c in body for c in _NUMPY_ONLY_SPACE):
            return dict(zip(col_pos, values.T))
    return _walk_cells(path, body, col_pos)


def _walk_cells(path: Path, body: str, col_pos: dict[str, int]) -> dict[str, np.ndarray]:
    """The column table of the CSV `body` after the header, each cell parsed with `float()`.

    Raises ConfigError naming the first short or unparseable cell in
    row-major order, else the first non-finite cell of the first such column
    in `CSV_COLUMNS` order. Rows are numbered from 2, blank ones included.
    """
    records = csv.reader(io.StringIO(body, newline=""))
    numbered = [(row_number, row) for row_number, row in enumerate(records, start=2) if row]
    columns: dict[str, list[float]] = {col: [] for col in col_pos}
    for row_number, row in numbered:
        for col, pos in col_pos.items():
            cell = row[pos] if pos < len(row) else ""
            try:
                columns[col].append(float(cell))
            except ValueError:
                raise ConfigError(
                    f"{path}: row {row_number}, column {col!r}: cannot parse {cell!r}"
                ) from None
    table = {col: np.array(values, dtype=np.float64) for col, values in columns.items()}
    for col, values in table.items():
        finite = np.isfinite(values)
        if not finite.all():
            index = int(np.argmin(finite))
            raise ConfigError(f"{path}: row {numbered[index][0]}, column {col!r}: "
                              f"non-finite value {values[index]}")
    return table


def ingest_csv(
    path: str | Path,
    slice_spec: SliceSpec,
    client_id: int,
    seed: int = 0,
    train_fraction: float = 0.8,
) -> ClientDataset:
    """Load a canonical CSV and aggregate it into one slice's ClientDataset."""
    table = read_table_csv(path)
    features, targets = aggregate_table(table, slice_spec)
    _, shuffle_rng = _split_seed(seed)
    try:
        return make_dataset(client_id, features, targets, shuffle_rng, train_fraction)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
