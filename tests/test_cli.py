import json
from pathlib import Path

import numpy as np
import pytest

from fedslice import cli
from fedslice.metrics import comm_cost, read_rounds_csv


def tiny_config(**overrides):
    base = {
        "n_clients": 4,
        "n_selected": 2,
        "n_rounds": 2,
        "local_epochs": 4,
        "samples_per_client": 40,
        "attribution_samples": 8,
        "ig_steps": 4,
        "seed": 42,
    }
    base.update(overrides)
    return base


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(tiny_config(**overrides)))
    return path


def run_cli(*args):
    return cli.main([str(a) for a in args])


class TestRun:
    def test_default_policies_write_nine_round_csvs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        rounds = sorted(p.name for p in out.glob("rounds_*.csv"))
        assert len(rounds) == 9  # 3 slices x 3 policies
        assert (out / "manifest.json").exists()
        assert (out / "summary.json").exists()
        assert (out / "comm_ledger.csv").exists()
        assert capsys.readouterr().out.count("slice=") == 9

    def test_manifest_echoes_effective_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        run_cli("run", "--config", cfg, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        config = manifest["config"]
        assert config["n_clients"] == 4
        assert config["learning_rate"] == 0.0015  # default filled in
        assert config["batch_size"] == 32
        assert config["policies"] == ["intelliselect", "no_policy", "score"]
        assert manifest["seed"] == 42
        assert sorted(manifest["outputs"]) == sorted(manifest["outputs"])

    def test_override_zero_rounds_succeeds_with_empty_rounds(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out,
                       "--override", "n_rounds=0") == 0
        rows = read_rounds_csv(out / "rounds_eMBB_intelliselect.csv")
        assert rows == []

    def test_unknown_config_key_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o",
                       "--override", "n_round=5") == 2
        assert "n_round" in capsys.readouterr().err

    def test_missing_config_file_is_exit_2(self, tmp_path):
        assert run_cli("run", "--config", tmp_path / "nope.json",
                       "--out", tmp_path / "o") == 2

    def test_malformed_json_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("run", "--config", bad, "--out", tmp_path / "o") == 2

    def test_policy_subset_flag(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out,
                       "--policies", "no_policy") == 0
        assert len(list(out.glob("rounds_*.csv"))) == 3
        assert not list(out.glob("rounds_*_intelliselect.csv"))

    def test_unknown_policy_flag_is_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o",
                       "--policies", "uniform") == 2

    def test_runtime_failure_maps_to_exit_3(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("deliberate")
        monkeypatch.setattr(cli, "run_slice", boom)
        cfg = write_config(tmp_path)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 3

    def test_runs_without_config_file_use_defaults(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--out", out, "--override", "n_clients=3",
                       "--override", "n_selected=2", "--override", "n_rounds=1",
                       "--override", "local_epochs=2",
                       "--override", "samples_per_client=30",
                       "--override", "attribution_samples=5",
                       "--override", "ig_steps=4",
                       "--policies", "intelliselect") == 0
        assert (out / "manifest.json").exists()


class TestGenData:
    def profiles_file(self, tmp_path, **overrides):
        spec = {"n_clients": 2, "samples_per_client": 20, "seed": 42}
        spec.update(overrides)
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(spec))
        return path

    def test_writes_one_csv_per_client_and_slice(self, tmp_path):
        profiles = self.profiles_file(tmp_path)
        out = tmp_path / "data"
        assert run_cli("gen-data", "--profiles", profiles, "--out", out) == 0
        files = sorted(p.name for p in out.glob("*.csv"))
        assert len(files) == 6  # 2 clients x 3 slices
        first = (out / files[0]).read_text().splitlines()
        assert len(first) == 21  # header + 20 rows

    def test_same_seed_writes_identical_bytes(self, tmp_path):
        profiles = self.profiles_file(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("gen-data", "--profiles", profiles, "--out", out_a)
        run_cli("gen-data", "--profiles", profiles, "--out", out_b)
        for path_a in out_a.glob("*.csv"):
            assert path_a.read_bytes() == (out_b / path_a.name).read_bytes()

    def test_zero_clients_is_exit_2(self, tmp_path):
        profiles = self.profiles_file(tmp_path, n_clients=0)
        assert run_cli("gen-data", "--profiles", profiles, "--out", tmp_path / "d") == 2

    def test_explicit_profiles_are_used(self, tmp_path):
        spec = {
            "n_clients": 1,
            "samples_per_client": 20,
            "seed": 1,
            "slices": ["eMBB"],
            "profiles": [{
                "client_id": 0,
                "traffic_scale": 5.0,
                "diurnal_phase": 0.0,
                "cqi_mean": 8.0,
                "noise_level": 0.0,
                "mix_weights": [1.0, 0.0, 0.0],
                "diurnal_amplitude": 0.0,
            }],
        }
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "d"
        assert run_cli("gen-data", "--profiles", path, "--out", out) == 0
        text = (out / "client00_eMBB.csv").read_text().splitlines()
        assert text[1].split(",")[-1] == "5"  # CPU equals constant traffic

    def test_run_ingests_generated_data(self, tmp_path):
        profiles = self.profiles_file(tmp_path, n_clients=3, samples_per_client=40)
        data_dir = tmp_path / "data"
        run_cli("gen-data", "--profiles", profiles, "--out", data_dir)

        cfg = write_config(tmp_path, n_clients=3, samples_per_client=40,
                           data_dir=str(data_dir))
        out_csv = tmp_path / "from_csv"
        assert run_cli("run", "--config", cfg, "--out", out_csv,
                       "--policies", "intelliselect") == 0

        cfg_syn = write_config(tmp_path, name="syn.json", n_clients=3,
                               samples_per_client=40)
        out_syn = tmp_path / "from_synth"
        assert run_cli("run", "--config", cfg_syn, "--out", out_syn,
                       "--policies", "intelliselect") == 0
        a = read_rounds_csv(out_csv / "rounds_eMBB_intelliselect.csv")
        b = read_rounds_csv(out_syn / "rounds_eMBB_intelliselect.csv")
        assert [r["mse"] for r in a] == [r["mse"] for r in b]

    def test_missing_data_file_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, data_dir=str(tmp_path / "empty"))
        (tmp_path / "empty").mkdir()
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "missing dataset" in capsys.readouterr().err


class TestMalformedData:
    """Bad CSV input fails at ingestion with exit 2 and names the file."""

    def generate(self, tmp_path, n_rows):
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps({"n_clients": 3, "samples_per_client": n_rows,
                                        "seed": 42, "slices": ["eMBB"]}))
        data_dir = tmp_path / "data"
        assert run_cli("gen-data", "--profiles", profiles, "--out", data_dir) == 0
        return data_dir

    def run_on(self, tmp_path, data_dir, **overrides):
        cfg = write_config(tmp_path, n_clients=3, slices=["eMBB"],
                           data_dir=str(data_dir), **overrides)
        return run_cli("run", "--config", cfg, "--out", tmp_path / "o",
                       "--policies", "no_policy")

    def test_non_finite_cell_is_exit_2(self, tmp_path, capsys):
        data_dir = self.generate(tmp_path, 60)
        path = data_dir / "client02_eMBB.csv"
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[10] = "nan"  # CQI
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert self.run_on(tmp_path, data_dir) == 2
        err = capsys.readouterr().err
        assert "client02_eMBB.csv: row 6, column 'CQI'" in err

    def test_ragged_clients_are_exit_2(self, tmp_path, capsys):
        data_dir = self.generate(tmp_path, 60)
        path = data_dir / "client01_eMBB.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:40]) + "\n")
        assert self.run_on(tmp_path, data_dir) == 2
        err = capsys.readouterr().err
        assert "client01_eMBB.csv (39 rows)" in err
        assert "client00_eMBB.csv (60 rows)" in err

    def test_attribution_pool_larger_than_train_split_is_exit_2(self, tmp_path, capsys):
        data_dir = self.generate(tmp_path, 60)
        assert self.run_on(tmp_path, data_dir, attribution_samples=100) == 2
        err = capsys.readouterr().err
        assert "client00_eMBB.csv: train split has 48 rows" in err

    def test_long_files_are_not_held_to_samples_per_client(self, tmp_path):
        data_dir = self.generate(tmp_path, 200)
        assert self.run_on(tmp_path, data_dir, samples_per_client=40,
                           attribution_samples=100) == 0


class TestCompare:
    def make_run(self, tmp_path, name, policies, **overrides):
        cfg = write_config(tmp_path, name=f"{name}.json", **overrides)
        out = tmp_path / name
        assert run_cli("run", "--config", cfg, "--out", out,
                       "--policies", ",".join(policies)) == 0
        return out

    def test_comparing_run_with_itself_gives_zero_deltas(self, tmp_path, capsys):
        out = self.make_run(tmp_path, "base", ["intelliselect"])
        csv_out = tmp_path / "cmp.csv"
        assert run_cli("compare", out, out, "--out", csv_out) == 0
        text = capsys.readouterr().out
        assert "final_mse +0" in text or "final_mse -0" in text or "final_mse +0.0" in text
        lines = csv_out.read_text().splitlines()
        delta_rows = [l for l in lines if l.startswith("eMBB,")]
        for row in delta_rows:
            fields = row.split(",")
            assert float(fields[3]) == 0.0
            assert int(fields[6]) == 0

    def test_comm_delta_matches_formula_difference(self, tmp_path):
        out_a = self.make_run(tmp_path, "intel", ["intelliselect"])
        out_b = self.make_run(tmp_path, "nopol", ["no_policy"])
        csv_out = tmp_path / "cmp.csv"
        assert run_cli("compare", out_a, out_b, "--out", csv_out) == 0

        cfg = tiny_config()
        expected = (
            comm_cost("no_policy", cfg["n_clients"], cfg["n_selected"], 3, 23,
                      cfg["n_rounds"]).total
            - comm_cost("intelliselect", cfg["n_clients"], cfg["n_selected"], 3, 23,
                        cfg["n_rounds"]).total
        )
        lines = csv_out.read_text().splitlines()
        delta_rows = [l for l in lines if l.startswith("eMBB,intelliselect,no_policy")]
        assert len(delta_rows) == 1
        assert int(delta_rows[0].split(",")[6]) == expected

    def test_mismatched_seeds_exit_2(self, tmp_path, capsys):
        out_a = self.make_run(tmp_path, "s42", ["intelliselect"])
        out_b = self.make_run(tmp_path, "s43", ["intelliselect"], seed=43)
        assert run_cli("compare", out_a, out_b) == 2
        assert "seed" in capsys.readouterr().err

    def test_directory_without_manifest_exit_2(self, tmp_path):
        out = self.make_run(tmp_path, "ok", ["intelliselect"])
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("compare", out, empty) == 2


class TestParsing:
    def test_override_requires_equals(self):
        with pytest.raises(Exception):
            cli._parse_override("n_rounds")

    def test_override_values_parse_as_json_when_possible(self):
        assert cli._parse_override("n_rounds=3") == ("n_rounds", 3)
        assert cli._parse_override("data_dir=/tmp/x") == ("data_dir", "/tmp/x")
        assert cli._parse_override('slices=["eMBB"]') == ("slices", ["eMBB"])
