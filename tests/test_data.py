import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedslice import data
from fedslice.data import (
    CSV_COLUMNS,
    MinMaxScaler,
    NonIidProfile,
    OTT_COLUMNS,
    SLICES,
    TARGET_COLUMN,
    aggregate_table,
    default_profiles,
    format_g17,
    generate_client,
    generate_client_table,
    ingest_csv,
    make_dataset,
    read_table_csv,
    slice_by_name,
    write_client_csv,
)
from fedslice.errors import ConfigError

EMBB = slice_by_name("eMBB")


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic, computed from scratch."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.shape[0]
    fb = np.searchsorted(b, grid, side="right") / b.shape[0]
    return float(np.max(np.abs(fa - fb)))


def raw_rows(p, n_samples, seed):
    """The raw (features, targets) a dataset of `generate_client(p, EMBB, ...)` is built from."""
    return aggregate_table(generate_client_table(p, EMBB, n_samples, seed), EMBB)


def profile(**overrides):
    base = dict(
        client_id=0,
        traffic_scale=2.0,
        diurnal_phase=3.0,
        cqi_mean=8.0,
        noise_level=2.0,
        mix_weights=(10.0, 2.0, 0.4),
    )
    base.update(overrides)
    return NonIidProfile(**base)


class TestSlices:
    def test_three_slices_partition_the_ott_apps(self):
        all_apps = [app for s in SLICES for app in s.ott_apps]
        assert sorted(all_apps) == sorted(OTT_COLUMNS)
        assert [s.name for s in SLICES] == ["eMBB", "SocialMedia", "Browsing"]

    def test_embb_apps(self):
        assert set(EMBB.ott_apps) == {"Netflix", "Youtube", "Facebook Video"}

    def test_unknown_slice_name(self):
        with pytest.raises(ConfigError):
            slice_by_name("URLLC")


class TestGenerator:
    def test_same_seed_is_identical(self):
        a = generate_client(profile(), EMBB, 100, seed=5)
        b = generate_client(profile(), EMBB, 100, seed=5)
        for name in ("scaled_features", "scaled_targets", "raw_test_targets",
                     "attribution_indices"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        for x, y in zip(raw_rows(profile(), 100, 5), raw_rows(profile(), 100, 5)):
            assert np.array_equal(x, y)

    def test_constant_traffic_maps_straight_to_cpu(self):
        # No diurnal swing, no noise, CPU driven only by traffic.
        p = profile(traffic_scale=42.0, noise_level=0.0,
                    mix_weights=(1.0, 0.0, 0.0), diurnal_amplitude=0.0)
        features, targets = raw_rows(p, 50, seed=1)
        assert np.array_equal(targets, np.full(50, 42.0))
        assert np.array_equal(features[:, 0], np.full(50, 42.0))
        assert np.array_equal(generate_client(p, EMBB, 50, seed=1).raw_test_targets,
                              np.full(10, 42.0))

    def test_scale_difference_separates_traffic_marginals(self):
        a, _ = raw_rows(profile(traffic_scale=1.0), 1000, seed=3)
        b, _ = raw_rows(profile(client_id=1, traffic_scale=4.0), 1000, seed=4)
        assert ks_statistic(a[:, 0], b[:, 0]) > 0.5

    def test_zero_scale_profile_rejected(self):
        with pytest.raises(ConfigError, match="traffic_scale must be positive"):
            generate_client(profile(traffic_scale=0.0), EMBB, 50, seed=1)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError, match="noise_level cannot be negative"):
            generate_client(profile(noise_level=-1.0), EMBB, 50, seed=1)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigError, match="a dataset needs at least 2 rows to split"):
            generate_client(profile(), EMBB, 1, seed=1)

    def test_physical_ranges(self):
        features, targets = raw_rows(profile(), 500, seed=9)
        assert np.all(features[:, 0] >= 0.0)
        assert np.all((features[:, 1] >= 0.0) & (features[:, 1] <= 15.0))
        assert np.all((features[:, 2] >= 0.0) & (features[:, 2] <= 100.0))
        assert np.all((targets >= 0.0) & (targets <= 100.0))


class TestDefaultProfiles:
    def test_profiles_are_pairwise_distinct(self):
        profiles = default_profiles(10, seed=42)
        seen = {(p.traffic_scale, p.diurnal_phase) for p in profiles}
        assert len(seen) == 10

    def test_default_federation_is_measurably_non_iid(self):
        profiles = default_profiles(10, seed=42)
        traffic = [raw_rows(p, 1000, seed=100 + k)[0][:, 0] for k, p in enumerate(profiles)]
        stats = [
            ks_statistic(traffic[i], traffic[j])
            for i in range(10) for j in range(i + 1, 10)
        ]
        assert max(stats) > 0.3


class TestScaler:
    def test_min_max_definition(self):
        features = np.array([[0.0], [5.0], [10.0]])
        scaler = MinMaxScaler.fit(features, np.array([0.0, 1.0, 2.0]))
        assert np.array_equal(scaler.transform_features(features)[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        features = np.array([[7.0], [7.0], [7.0]])
        scaler = MinMaxScaler.fit(features, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(scaler.transform_features(features)[:, 0], [0.0, 0.0, 0.0])

    def test_roundtrip_identity(self, rng):
        features = rng.uniform(-10, 30, (40, 3))
        targets = rng.uniform(0, 100, 40)
        scaler = MinMaxScaler.fit(features, targets)
        back_t = scaler.inverse_target(scaler.transform_target(targets))
        assert np.allclose(back_t, targets, rtol=0, atol=1e-12)

    def test_fit_ignores_test_rows(self, rng):
        features = rng.uniform(0, 1, (50, 3))
        targets = rng.uniform(0, 100, 50)
        ds_plain = make_dataset(0, features, targets, np.random.default_rng(1))
        poisoned = features.copy()
        poisoned[-1] = [1e9, -1e9, 1e9]  # last row is in the test split
        ds_poisoned = make_dataset(0, poisoned, targets, np.random.default_rng(1))
        assert np.array_equal(ds_plain.scaler.feature_min, ds_poisoned.scaler.feature_min)
        assert np.array_equal(ds_plain.scaler.feature_span, ds_poisoned.scaler.feature_span)


class TestSplit:
    def test_chronological_disjoint_cover(self, rng):
        ds = make_dataset(0, rng.uniform(0, 1, (100, 3)),
                          rng.uniform(0, 100, 100), np.random.default_rng(0))
        assert ds.n_train == 80
        assert np.array_equal(ds.train_features, ds.scaled_features[:80])
        assert np.array_equal(ds.test_features, ds.scaled_features[80:])
        # The splits are views of the scaled rows, not copies.
        assert np.shares_memory(ds.train_targets, ds.scaled_targets)
        assert np.shares_memory(ds.test_targets, ds.scaled_targets)

    def test_train_split_scales_into_unit_interval(self):
        ds = generate_client(profile(), EMBB, 400, seed=11)
        train_feats = ds.train_features
        train_targets = ds.train_targets
        assert np.all((train_feats >= 0.0) & (train_feats <= 1.0))
        assert np.all((train_targets >= 0.0) & (train_targets <= 1.0))

    def test_attribution_pool_is_a_train_permutation(self):
        ds = generate_client(profile(), EMBB, 100, seed=12)
        assert sorted(ds.attribution_indices) == list(range(ds.n_train))

    @pytest.mark.parametrize("n_rows, dtype", [(1_000, np.uint16), (82_000, np.uint32)])
    def test_pool_order_is_held_in_the_smallest_unsigned_dtype(self, rng, n_rows, dtype):
        # 800 train rows fit 16 bits; 65,600 need 32. Either way the pool is
        # the rows an int64 permutation from the same generator picks.
        features = rng.uniform(0, 1, (n_rows, 3))
        ds = make_dataset(0, features, rng.uniform(0, 100, n_rows), np.random.default_rng(5))
        order = np.random.default_rng(5).permutation(ds.n_train)
        assert order.dtype == np.int64
        assert ds.attribution_indices.dtype == dtype
        assert np.array_equal(ds.attribution_indices, order)
        assert (ds.attribution_pool(ds.n_train).tobytes()
                == ds.scaled_features[order].tobytes())

    def test_each_client_stream_is_its_seed_sequence_child(self):
        # A client's signal (0) and pool shuffle (1) streams are the children
        # of SeedSequence(seed).spawn(2), each derived on its own.
        for seed in (0, 8, 42, 2**40 + 3):
            for stream, child in enumerate(np.random.SeedSequence(seed).spawn(2)):
                expected = np.random.default_rng(child).random(16)
                assert data._client_rng(seed, stream).random(16).tobytes() == expected.tobytes()

    def test_a_dataset_holds_its_scaled_rows_once(self, tmp_path):
        # 1,000 rows: scaled features and targets, an 800-row pool order in
        # 16 bits and 200 raw test targets, each in memory of its own, so no
        # view can keep a parse buffer or a generation table alive.
        p = profile(client_id=2)
        path = tmp_path / "client02_eMBB.csv"
        write_client_csv(generate_client_table(p, EMBB, 1000, seed=8), path)
        for ds in (generate_client(p, EMBB, 1000, seed=8),
                   ingest_csv(path, EMBB, client_id=2, seed=8)):
            arrays = {f.name: getattr(ds, f.name) for f in dataclasses.fields(ds)
                      if isinstance(getattr(ds, f.name), np.ndarray)}
            assert {name: a.nbytes for name, a in arrays.items()} == {
                "attribution_indices": 1_600, "scaled_features": 24_000,
                "scaled_targets": 8_000, "raw_test_targets": 1_600}
            assert sum(a.nbytes for a in arrays.values()) == 35_200
            assert all(a.base is None for a in arrays.values())


class TestCsv:
    def test_handcrafted_rows_aggregate_exactly(self, tmp_path):
        header = ",".join(CSV_COLUMNS)
        # Columns: Apple,Facebook,Facebook Messages,Facebook Video,HTTPS,
        #          Instagram,Netflix,QUIC,Whatsapp,Youtube,CQI,MIMO_FI,CPU_Load
        rows = [
            "1,2,3,4,5,6,7,8,9,10,11,12,13",
            "0,0,0,1.5,0,0,2.5,0,0,3.0,9.0,55.0,40.0",
            "1,1,1,1,1,1,1,1,1,1,7.0,50.0,30.0",
        ]
        path = tmp_path / "client.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        ds = ingest_csv(path, EMBB, client_id=0)
        # eMBB traffic = Netflix + Youtube + Facebook Video.
        expected = np.array([
            [7.0 + 10.0 + 4.0, 11.0, 12.0],
            [2.5 + 3.0 + 1.5, 9.0, 55.0],
            [3.0, 7.0, 50.0],
        ])
        features, targets = aggregate_table(read_table_csv(path), EMBB)
        assert np.array_equal(features, expected)
        assert np.array_equal(targets, [13.0, 40.0, 30.0])
        # Two train rows; the dataset keeps the raw target of the test row only.
        assert ds.n_train == 2
        assert np.array_equal(ds.raw_test_targets, [30.0])

    def test_zero_ott_columns_give_zero_traffic(self, tmp_path):
        header = ",".join(CSV_COLUMNS)
        rows = ["0,0,0,0,0,0,0,0,0,0,8.0,50.0,20.0"] * 3
        path = tmp_path / "client.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        features, _ = aggregate_table(read_table_csv(path), EMBB)
        assert np.array_equal(features[:, 0], np.zeros(3))
        ds = ingest_csv(path, EMBB, client_id=0)
        assert np.array_equal(ds.scaled_features[:, 0], np.zeros(3))

    def test_missing_column_names_the_column(self, tmp_path):
        cols = [c for c in CSV_COLUMNS if c != "CQI"]
        path = tmp_path / "client.csv"
        path.write_text(",".join(cols) + "\n" + ",".join("1" * len(cols)) + "\n")
        with pytest.raises(ConfigError, match=r"client\.csv: missing column\(s\) CQI$"):
            ingest_csv(path, EMBB, client_id=0)

    def test_bad_cell_reports_row_number(self, tmp_path):
        header = ",".join(CSV_COLUMNS)
        good = ",".join(["1"] * 13)
        bad = ",".join(["1"] * 10 + ["oops", "1", "1"])
        path = tmp_path / "client.csv"
        path.write_text(header + "\n" + good + "\n" + bad + "\n")
        with pytest.raises(ConfigError, match=r"client\.csv: row 3, column 'CQI': cannot parse 'oops'"):
            ingest_csv(path, EMBB, client_id=0)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_row_and_column(self, tmp_path, cell):
        header = ",".join(CSV_COLUMNS)
        good = ",".join(["1"] * 13)
        bad = ",".join(["1"] * 10 + [cell, "1", "1"])
        path = tmp_path / "client.csv"
        path.write_text(header + "\n" + good + "\n\n" + bad + "\n")
        with pytest.raises(ConfigError, match=r"client\.csv: row 4, column 'CQI'"):
            read_table_csv(path)

    def test_short_row_names_the_first_missing_column(self, tmp_path):
        header = ",".join(CSV_COLUMNS)
        path = tmp_path / "client.csv"
        path.write_text(header + "\n" + ",".join(["1"] * 13) + "\n"
                        + ",".join(["1"] * 11) + "\n")
        with pytest.raises(ConfigError) as info:
            read_table_csv(path)
        assert str(info.value) == f"{path}: row 3, column 'MIMO_FI': cannot parse ''"

    def test_quoted_cells_parse(self, tmp_path):
        header = ",".join(CSV_COLUMNS)
        path = tmp_path / "client.csv"
        path.write_text(header + "\n" + ",".join(['"1.5"'] * 12 + ['" 2 "']) + "\n")
        table = read_table_csv(path)
        assert table["Apple"].tolist() == [1.5]
        assert table[TARGET_COLUMN].tolist() == [2.0]

    def test_cells_follow_python_float_spelling(self, tmp_path):
        header = ",".join(CSV_COLUMNS)
        path = tmp_path / "client.csv"
        path.write_text(header + "\n" + ",".join([" 1.5 "] * 12 + ["1_000"]) + "\n")
        table = read_table_csv(path)
        assert table["Apple"].tolist() == [1.5]
        assert table[TARGET_COLUMN].tolist() == [1000.0]

    def test_reordered_header_with_extra_columns_reads_by_name(self, tmp_path):
        header = ["extra_a"] + list(reversed(CSV_COLUMNS)) + ["extra_b"]
        rows = [["x"] + [str(10 * r + i) for i in range(len(CSV_COLUMNS))] + ["y"]
                for r in range(3)]
        path = tmp_path / "client.csv"
        path.write_text("\n".join(",".join(row) for row in [header] + rows) + "\n")
        table = read_table_csv(path)
        for col in CSV_COLUMNS:
            pos = header.index(col)
            assert table[col].tolist() == [float(row[pos]) for row in rows]

    def test_bad_cell_after_blank_line_reports_physical_row(self, tmp_path):
        header = ",".join(CSV_COLUMNS)
        good = ",".join(["1"] * 13)
        bad = ",".join(["1"] * 12 + ["oops"])
        path = tmp_path / "client.csv"
        path.write_text(header + "\n" + good + "\n\n\n" + bad + "\n")
        with pytest.raises(ConfigError) as info:
            read_table_csv(path)
        assert str(info.value) == f"{path}: row 5, column 'CPU_Load': cannot parse 'oops'"

    def test_first_bad_cell_in_row_major_order_is_named(self, tmp_path):
        header = ",".join(CSV_COLUMNS)
        # Row 2 is bad in a late column, row 3 in an early one: row 2 wins.
        first = ",".join(["1"] * 12 + ["late"])
        second = ",".join(["early"] + ["1"] * 12)
        path = tmp_path / "client.csv"
        path.write_text(header + "\n" + first + "\n" + second + "\n")
        with pytest.raises(ConfigError) as info:
            read_table_csv(path)
        assert str(info.value) == f"{path}: row 2, column 'CPU_Load': cannot parse 'late'"

    def test_lf_and_crlf_read_the_same(self, tmp_path):
        # A CR-only file too.
        lines = [",".join(CSV_COLUMNS)] + [",".join([str(r + 0.25)] * 13) for r in range(4)]
        tables = []
        for name, end in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            path = tmp_path / f"{name}.csv"
            path.write_bytes((end.join(lines) + end).encode())
            tables.append(read_table_csv(path))
        for col in CSV_COLUMNS:
            for table in tables:
                assert table[col].tolist() == [0.25, 1.25, 2.25, 3.25]

    def test_a_read_stays_within_its_memory_bound(self, tmp_path):
        # A 1,000-row file as gen-data writes it, about 131 KB. Measured:
        # 269,977 bytes above what the call starts with, the file's bytes
        # beside numpy's parse (776,046 when the body was held as a str and
        # again as a 4-byte-per-character StringIO); the bound leaves a 48%
        # margin.
        path = tmp_path / "client02_eMBB.csv"
        write_client_csv(generate_client_table(profile(client_id=2), EMBB, 1000, seed=8), path)
        read_table_csv(path)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            read_table_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 400_000

    def test_a_record_the_csv_module_refuses_names_the_file_and_row(self, tmp_path):
        # A quote opened in row 3 and never closed runs past the csv
        # module's 131,072-character field limit.
        good = ",".join(["1"] * 13)
        path = tmp_path / "client.csv"
        path.write_text("\n".join([",".join(CSV_COLUMNS), good, '"' + good] + [good] * 6000))
        with pytest.raises(ConfigError) as info:
            read_table_csv(path)
        assert str(info.value) == f"{path}: row 3: field larger than field limit (131072)"
        path.write_text('"' + ",".join(CSV_COLUMNS) + "\n" + good * 6000)
        with pytest.raises(ConfigError) as info:
            read_table_csv(path)
        assert str(info.value) == f"{path}: row 1: field larger than field limit (131072)"

    @pytest.mark.parametrize("cell", [
        "1.5", " 1.5 ", '"1.5"', '" 2 "', "+1.5", ".5", "5.", "1E+05", "-0", "Infinity",
        "nan", "1_000", "\u0661\u0662", "0x10", '"1,5"',
        # numpy's parser strips these around a number; float() does not.
        "\x1c1", "1\x1f",
    ])
    def test_cells_agree_with_python_float(self, tmp_path, cell):
        header = ",".join(CSV_COLUMNS)
        good = ",".join(["1"] * 13)
        # The cell sits in row 4, column CQI, after a blank row 3.
        row = ",".join(["1"] * 10 + [cell, "1", "1"])
        path = tmp_path / "client.csv"
        path.write_text(header + "\n" + good + "\n\n" + row + "\n")
        [text] = next(csv.reader([cell]))
        try:
            expected = float(text)
        except ValueError:
            expected = None
        if expected is None or not np.isfinite(expected):
            with pytest.raises(ConfigError) as info:
                read_table_csv(path)
            assert str(info.value).startswith(f"{path}: row 4, column 'CQI': ")
            return
        got = read_table_csv(path)["CQI"]
        assert got.view(np.uint64).tolist() == np.array([1.0, expected]).view(np.uint64).tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: st.lists(
        st.one_of(st.just(0.0), st.just(-0.0),
                  st.floats(allow_nan=False, allow_infinity=False)),
        min_size=13 * n, max_size=13 * n)))
    def test_written_doubles_read_back_bitwise(self, tmp_path_factory, values):
        columns = np.array(values, dtype=np.float64).reshape(len(CSV_COLUMNS), -1)
        path = tmp_path_factory.mktemp("roundtrip") / "client.csv"
        write_client_csv(dict(zip(CSV_COLUMNS, columns)), path)
        table = read_table_csv(path)
        for col, written in zip(CSV_COLUMNS, columns):
            assert table[col].view(np.uint64).tolist() == written.view(np.uint64).tolist()

    def test_writer_golden_bytes(self, tmp_path):
        table = {c: np.zeros(2) for c in CSV_COLUMNS}
        table["Apple"] = np.array([-0.0, 1e-300])
        # Facebook is -0.0 in every row and stays -0; the columns left at np.zeros print 0.
        table["Facebook"] = np.array([-0.0, -0.0])
        table["CQI"] = np.array([0.1, 7.0])
        table["MIMO_FI"] = np.array([55.5, 2.5e16])
        table[TARGET_COLUMN] = np.array([1.0 / 3.0, 100.0])
        path = tmp_path / "client.csv"
        write_client_csv(table, path)
        assert path.read_bytes() == (
            b"Apple,Facebook,Facebook Messages,Facebook Video,HTTPS,Instagram,Netflix,"
            b"QUIC,Whatsapp,Youtube,CQI,MIMO_FI,CPU_Load\r\n"
            b"-0,-0,0,0,0,0,0,0,0,0,0.10000000000000001,55.5,0.33333333333333331\r\n"
            b"1e-300,-0,0,0,0,0,0,0,0,0,7,25000000000000000,100\r\n"
        )

    def test_writer_matches_percent_oracle(self, tmp_path, rng):
        # Zero columns first, in the middle and last; zeros and signs inside live ones.
        for live in ([3, 6, 9, 10, 11], [0, 4, 7, 10, 11, 12], [1, 2, 5, 8, 12], []):
            table = {c: np.zeros(300) for c in CSV_COLUMNS}
            for j in live:
                values = rng.standard_normal(300) * 10.0 ** rng.integers(-6, 19, 300)
                values[rng.random(300) < 0.1] = 0.0
                table[CSV_COLUMNS[j]] = values
            path = tmp_path / "client.csv"
            write_client_csv(table, path)
            rows = zip(*(table[c].tolist() for c in CSV_COLUMNS))
            assert path.read_bytes().decode() == "".join(
                [",".join(CSV_COLUMNS) + "\r\n"]
                + [",".join("%.17g" % x for x in row) + "\r\n" for row in rows])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_writer_refuses_a_non_finite_cell(self, tmp_path, bad):
        table = {c: np.ones(4) for c in CSV_COLUMNS}
        table["MIMO_FI"][2] = bad
        table[TARGET_COLUMN][0] = bad
        path = tmp_path / "client.csv"
        with pytest.raises(ConfigError, match=r"^column 'MIMO_FI': non-finite value$"):
            write_client_csv(table, path)
        assert not path.exists()

    def test_empty_file_is_schema_error(self, tmp_path):
        path = tmp_path / "client.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match=r"client\.csv: file is empty"):
            ingest_csv(path, EMBB, client_id=0)

    def test_export_then_ingest_roundtrip(self, tmp_path):
        p = profile(client_id=3)
        table = generate_client_table(p, EMBB, 120, seed=21)
        path = tmp_path / "client03_eMBB.csv"
        write_client_csv(table, path)

        direct = generate_client(p, EMBB, 120, seed=21)
        ingested = ingest_csv(path, EMBB, client_id=3, seed=21)
        for name in ("scaled_features", "scaled_targets", "raw_test_targets",
                     "attribution_indices"):
            assert np.array_equal(getattr(direct, name), getattr(ingested, name))

        re_read = read_table_csv(path)
        for col in CSV_COLUMNS:
            assert np.array_equal(re_read[col], table[col])

    def test_aggregate_matches_row_sum_oracle(self, rng):
        table = generate_client_table(profile(), EMBB, 60, seed=14)
        features, _ = aggregate_table(table, EMBB)
        for i in range(60):
            expected = sum(float(table[app][i]) for app in EMBB.ott_apps)
            assert features[i, 0] == pytest.approx(expected, abs=1e-12)


def g17_oracle(cells, tails):
    return b"".join(b"%.17g" % x + tails[j] for row in cells.tolist() for j, x in enumerate(row))


def below(x):
    return float(np.nextafter(x, 0.0))


def above(x):
    return float(np.nextafter(x, np.inf))


# Where fixed notation starts and stops, an exact tie, the largest double below
# each power of ten (the closest to a wrong exponent or to rounding up to the
# next power), the powers themselves, subnormals and zeros.
G17_CASES = ([1e-4, below(1e-4), above(1e-4), 1e17, below(1e17), above(1e17),
              1.0 + 2.0 ** -17, 99999999999999984.0, 5e-324, 2.2250738585072009e-308, 0.0]
             + [below(float(f"1e{k}")) for k in range(-3, 17)]
             + [float(f"1e{k}") for k in range(-3, 17)])


class TestFormatG17:
    def test_named_cases_match_percent(self):
        cells = np.array(G17_CASES + [-x for x in G17_CASES])[:, None]
        assert format_g17(cells, [b"\n"]) == g17_oracle(cells, [b"\n"])

    def test_exact_tie_rounds_to_even(self):
        assert format_g17(np.array([[1.0 + 2.0 ** -17]]), [b""]) == b"1.0000076293945312"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(min_value=-1e17, max_value=1e17),
                              st.integers(-2 ** 60, 2 ** 60).map(lambda n: n / 2 ** 17)),
                    min_size=1, max_size=24))
    def test_finite_doubles_match_percent(self, values):
        cells = np.array(values, dtype=np.float64)[:, None]
        assert format_g17(cells, [b","]) == g17_oracle(cells, [b","])

    def test_every_bit_pattern_and_tail_across_chunks(self, rng):
        cells = rng.integers(0, 2 ** 64, (1500, 3), dtype=np.uint64).view(np.float64)
        cells[::7, 1] = rng.uniform(-1e3, 1e3, cells[::7, 1].shape)
        tails = [b",", b",0,0,0,0,0,", b"\r\n"]
        assert format_g17(cells, tails) == g17_oracle(cells, tails)
