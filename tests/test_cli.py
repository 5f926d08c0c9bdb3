import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import read_rounds_csv
from fedslice import cli, federation
from fedslice.metrics import comm_cost

# sha256 of the rounds tables `test_rounds_match_the_pinned_digest` builds.
PINNED_ROUNDS_DIGEST = "9419c33b7314583d8aaf48bcf597a8b2e2873889391326e8869cddc75670c9d4"
# sha256 of the attribution and selection tables
# `test_blocked_attributions_match_the_pinned_digest` builds.
PINNED_BLOCKED_DIGEST = "21acf32297db21ede78c14be15f84b54da1aaea14df6b9b2f04fa678dbb5716a"


def tiny_config(**overrides):
    base = {
        "n_clients": 4,
        "n_selected": 2,
        "n_rounds": 2,
        "local_epochs": 4,
        "samples_per_client": 40,
        "attribution_samples": 8,
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


def run_python(*args, cwd, **env):
    """Run `python *args` in a fresh process that imports this fedslice, with `env` added."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env})
    assert proc.returncode == 0, proc.stderr
    return proc


def wall_clock_free(out):
    """Every file of a run directory by name, without wall-clock fields and output paths."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name.startswith("rounds_"):
            rows = list(csv.reader(io.StringIO(path.read_text(), newline="")))
            files[path.name] = [row[:2] + row[3:] for row in rows]  # column 3 is cum_time_ms
        elif path.suffix == ".json":
            doc = json.loads(path.read_text())
            doc.pop("started_utc", None)
            if "outputs" in doc:
                doc["outputs"] = sorted(doc["outputs"])
            for entries in doc.get("slices", {}).values():
                for entry in entries.values():
                    entry.pop("cum_time_ms")
            files[path.name] = doc
        else:
            files[path.name] = path.read_bytes()
    return files


def profile_entry(client_id, **overrides):
    base = {"client_id": client_id, "traffic_scale": 2.0, "diurnal_phase": 0.0,
            "cqi_mean": 8.0, "noise_level": 1.0, "mix_weights": [1.0, 0.5, 0.1]}
    base.update(overrides)
    return base


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
        # The output index names every file the run wrote but the manifest itself.
        written = {str(path) for path in out.iterdir() if path.name != "manifest.json"}
        assert set(manifest["outputs"].values()) == written
        assert all(out.joinpath(path).is_file() for path in manifest["outputs"].values())

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

    def test_malformed_json_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("run", "--config", bad, "--out", tmp_path / "o") == 2
        assert f"{bad}: Expecting property name" in capsys.readouterr().err
        assert run_cli("gen-data", "--profiles", bad, "--out", tmp_path / "d") == 2
        assert f"{bad}: Expecting property name" in capsys.readouterr().err
        assert not (tmp_path / "o").exists() and not (tmp_path / "d").exists()

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

    def test_empty_policy_list_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for policies in (",", ""):
            assert run_cli("run", "--config", cfg, "--out", tmp_path / "o",
                           "--policies", policies) == 2
            assert "at least one policy" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_repeated_policy_is_exit_2_before_any_output(self, tmp_path, capsys):
        # A repeat would train the federation twice, overwrite its files and
        # count its communication twice.
        cfg = write_config(tmp_path)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o",
                       "--policies", "intelliselect,intelliselect") == 2
        assert ("policies must not repeat a name, got ['intelliselect', 'intelliselect']"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where", ["override", "config file"])
    def test_policy_key_is_exit_2_pointing_to_policies(self, tmp_path, capsys, where):
        if where == "override":
            args = ("--config", write_config(tmp_path), "--override", "policy=score")
        else:
            args = ("--config", write_config(tmp_path, policy="score"))
        assert run_cli("run", *args, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "'policy'" in err and "policies" in err
        assert not (tmp_path / "o").exists()

    def test_config_echo_names_only_the_policies_run(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--config", write_config(tmp_path), "--out", out,
                       "--policies", "no_policy") == 0
        for name in ("manifest.json", "summary.json"):
            config = json.loads((out / name).read_text())["config"]
            assert "policy" not in config
            assert "n_features" not in config
            assert config["policies"] == ["no_policy"]

    def test_policies_as_list_key_string_key_or_flag_write_identical_runs(self, tmp_path):
        # The flag wins over a key; a comma string names policies as a list does.
        ways = {
            "list": ("--config", write_config(tmp_path, "list.json",
                                              policies=["score", "intelliselect"])),
            "string": ("--config", write_config(tmp_path, "string.json",
                                                policies=" score, intelliselect,")),
            "flag": ("--config", write_config(tmp_path, "flag.json", policies="no_policy"),
                     "--policies", "score,intelliselect"),
        }
        runs = []
        for name, args in ways.items():
            assert run_cli("run", *args, "--out", tmp_path / name) == 0
            runs.append(wall_clock_free(tmp_path / name))
        assert runs[0] == runs[1] == runs[2]
        assert sorted(runs[0]) == sorted([
            "comm_ledger.csv", "manifest.json", "summary.json",
            *(f"{kind}_{s}_{p}.csv" for kind in ("rounds", "attributions", "selection")
              for s in ("eMBB", "SocialMedia", "Browsing") for p in ("score", "intelliselect")),
            *(f"provisioning_{s}.csv" for s in ("eMBB", "SocialMedia", "Browsing")),
        ])

    @pytest.mark.parametrize("override", [
        "seed=-1",
        "learning_rate=NaN",
        "learning_rate=-1",
        pytest.param("learning_rate=1" + "0" * 400, id="learning_rate=10**400"),
        "ig_steps=0",
        "attribution_samples=0",
        "slices=[]",
        "layer_sizes=[4,3,2,1]",
        "n_features=3",
        'learning_rate="abc"',
        'batch_size="x"',
        'train_fraction="0.8"',
        "layer_sizes=3",
        "policies=3",
        'slices="eMBB"',
        'slices=["eMBB","eMBB"]',
        'slices=["URLLC"]',
        "samples_per_client=1",
        pytest.param("samples_per_client=1" + "0" * 400, id="samples_per_client=10**400"),
        "layer_sizes=[3]",
        "layer_sizes=[3,0,1]",
        "layer_sizes=[3,3,2]",
        "n_rounds=true",
    ])
    def test_bad_config_value_is_exit_2_before_any_output(self, tmp_path, capsys,
                                                          override):
        assert run_cli("run", "--config", write_config(tmp_path), "--out", tmp_path / "o",
                       "--policies", "no_policy", "--override", override) == 2
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_attribution_pool_beyond_train_rows_is_exit_2(self, tmp_path, capsys):
        # round(10 * 0.99) is 10 rows, but one row is always kept for testing.
        assert run_cli("run", "--out", tmp_path / "o",
                       "--override", "samples_per_client=10", "--override", "train_fraction=0.99",
                       "--override", "attribution_samples=10", "--override", "n_clients=2",
                       "--override", "n_selected=1", "--override", "n_rounds=1",
                       "--override", 'slices=["eMBB"]') == 2
        assert "attribution_samples (10) exceeds the train split size (9)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_runtime_failure_maps_to_exit_3(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("deliberate")
        monkeypatch.setattr(cli, "run_experiment", boom)
        cfg = write_config(tmp_path)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 3

    def test_non_finite_summary_value_is_exit_3_and_writes_no_summary(self, tmp_path, capsys):
        # One CPU_Load cell of -1e308 passes ingestion, and an
        # under-provisioning sum overflows to infinity, which JSON cannot hold:
        # the run must fail naming summary.json, not write a bare `Infinity`.
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps({"n_clients": 2, "samples_per_client": 50,
                                        "seed": 42, "slices": ["eMBB"]}))
        data_dir = tmp_path / "data"
        assert run_cli("gen-data", "--profiles", profiles, "--out", data_dir) == 0
        path = data_dir / "client00_eMBB.csv"
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[lines[0].split(",").index("CPU_Load")] = "-1e308"
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, n_clients=2, n_selected=1, n_rounds=1,
                           samples_per_client=50, slices=["eMBB"], data_dir=str(data_dir))
        out = tmp_path / "o"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli("run", "--config", cfg, "--out", out) == 3
        summary = out / "summary.json"
        assert (f"runtime failure: {summary}: Out of range float values are not JSON "
                "compliant") in capsys.readouterr().err
        assert not summary.exists()

    def test_rounds_match_the_pinned_digest(self, tmp_path):
        # Acceptance criterion 10's config, once. The pin covers every round's
        # selection exactly and its MSE to 10 significant digits, not the raw
        # bytes: CI's numpy builds may differ in the last bits. A change that
        # moves outputs edits the digest and lists the moved cells.
        config = {"n_clients": 6, "n_selected": 3, "n_rounds": 3, "local_epochs": 10,
                  "samples_per_client": 200, "attribution_samples": 30, "seed": 42}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        lines = []
        for path in sorted(out.glob("rounds_*.csv")):
            lines.append(path.name)
            lines += [f"{r['round']},{r['mse']:.9e},{r['selected']},{r['params_transmitted']}"
                      for r in read_rounds_csv(path)]
        text = "\n".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_ROUNDS_DIGEST, text

    def test_blocked_attributions_match_the_pinned_digest(self, tmp_path):
        # 600-sample pools fit 3 to a 2,048-row attribution call, so the 8
        # clients are attributed in calls of 3, 3 and 2 every pass. The pin
        # covers the attributions and the selection audits, each value to 10
        # significant digits, as the rounds pin does.
        config = {"n_clients": 8, "n_selected": 3, "n_rounds": 2, "local_epochs": 2,
                  "samples_per_client": 800, "attribution_samples": 600, "seed": 42,
                  "slices": ["eMBB"]}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out,
                       "--policies", "intelliselect,score") == 0
        lines = []
        for path in sorted([*out.glob("attributions_*.csv"), *out.glob("selection_*.csv")]):
            rows = list(csv.reader(io.StringIO(path.read_text(), newline="")))
            lines.append(path.name)
            lines.append(",".join(rows[0]))
            n_ints = 3 if path.name.startswith("selection_") else 2
            lines += [",".join(row[:n_ints] + [f"{float(v):.9e}" for v in row[n_ints:]])
                      for row in rows[1:]]
        text = "\n".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_BLOCKED_DIGEST, text

    def test_runs_without_config_file_use_defaults(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--out", out, "--override", "n_clients=3",
                       "--override", "n_selected=2", "--override", "n_rounds=1",
                       "--override", "local_epochs=2",
                       "--override", "samples_per_client=30",
                       "--override", "attribution_samples=5",
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

    @pytest.mark.parametrize("overrides, key", [
        ({"n_clients": "abc"}, "n_clients"),
        ({"n_clients": 2.7}, "n_clients"),
        ({"n_clients": True}, "n_clients"),
        ({"samples_per_client": "1e400"}, "samples_per_client"),
        ({"samples_per_client": 10 ** 400}, "samples_per_client"),
        ({"seed": -1}, "seed"),
        ({"slices": "eMBB"}, "slices"),
        ({"slices": []}, "slices"),
        ({"slices": ["eMBB", "URLLC"]}, "slices"),
        ({"slices": ["eMBB", "eMBB"]}, "slices"),
        ({"profiles": {"client_id": 0}}, "profiles"),
        ({"profiles": [profile_entry(0, traffic_scale="x"), profile_entry(1)]},
         "traffic_scale"),
        ({"profiles": [profile_entry(0), profile_entry(1, traffic_scale="NaN")]},
         "traffic_scale"),
        ({"profiles": [profile_entry(0, mix_weights=[1.0, 0.5]), profile_entry(1)]},
         "mix_weights"),
        ({"profiles": [profile_entry(0), profile_entry(1, mix_weights=[1.0, "a", 0.1])]},
         "mix_weights"),
        ({"profiles": [profile_entry(0.0), profile_entry(1)]}, "client_id"),
        ({"profiles": [profile_entry(0), profile_entry(-1)]}, "client_id"),
        ({"profiles": [profile_entry(0), profile_entry(1, colour="red")]}, "colour"),
        ({"profiles": [{"client_id": 0}, profile_entry(1)]}, "traffic_scale"),
        ({"profiles": [profile_entry(0), profile_entry(0)]}, "client_id"),
    ], ids=["n_clients-str", "n_clients-float", "n_clients-bool", "samples-1e400",
            "samples-10**400", "seed-negative", "slices-str", "slices-empty", "slices-unknown",
            "slices-repeated", "profiles-object", "traffic_scale-str", "traffic_scale-nan",
            "mix_weights-two", "mix_weights-str", "client_id-float", "client_id-negative",
            "entry-unknown-key", "entry-missing-field", "client_id-duplicate"])
    def test_bad_profile_value_is_exit_2_naming_path_and_key(self, tmp_path, capsys,
                                                             overrides, key):
        spec = {"n_clients": 2, "samples_per_client": 20, "seed": 42, "slices": ["eMBB"]}
        spec.update(overrides)
        # json.dumps cannot write 1e400 or NaN from a Python value, so placeholders
        # are swapped for the literals; Python's parser reads 1e400 as inf.
        text = json.dumps(spec).replace('"1e400"', "1e400").replace('"NaN"', "NaN")
        path = tmp_path / "profiles.json"
        path.write_text(text)
        out = tmp_path / "d"
        assert run_cli("gen-data", "--profiles", path, "--out", out) == 2
        err = capsys.readouterr().err
        assert str(path) in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("traffic_scale", 0.0), ("noise_level", -1.0)])
    def test_bad_second_profile_writes_no_csv(self, tmp_path, capsys, field, value):
        spec = {"n_clients": 2, "samples_per_client": 20, "seed": 42, "slices": ["eMBB"],
                "profiles": [profile_entry(0), profile_entry(1, **{field: value})]}
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "d"
        out.mkdir()
        assert run_cli("gen-data", "--profiles", path, "--out", out) == 2
        assert f"{path}: profiles[1]: {field}" in capsys.readouterr().err
        assert list(out.glob("*.csv")) == []

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

    def test_bad_train_fraction_under_data_dir_names_the_key_not_a_file(self, tmp_path,
                                                                       capsys):
        data_dir = tmp_path / "data"
        assert run_cli("gen-data", "--profiles", self.profiles_file(tmp_path),
                       "--out", data_dir) == 0
        cfg = write_config(tmp_path, n_clients=2, n_selected=1, samples_per_client=20,
                           train_fraction=1.5, data_dir=str(data_dir))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "train_fraction must be in (0, 1), got 1.5" in err
        assert ".csv" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_data_file_is_exit_2(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, data_dir=str(tmp_path / "empty"))
        (tmp_path / "empty").mkdir()
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "missing dataset" in capsys.readouterr().err

        # One file missing among present ones: no file is parsed before the report.
        data_dir = tmp_path / "data"
        run_cli("gen-data", "--profiles", self.profiles_file(tmp_path, n_clients=3),
                "--out", data_dir)
        missing = data_dir / "client01_SocialMedia.csv"
        missing.unlink()
        ingested = []
        original = cli.ingest_csv
        monkeypatch.setattr(cli, "ingest_csv",
                            lambda *a, **kw: ingested.append(a[0]) or original(*a, **kw))
        cfg = write_config(tmp_path, name="data.json", n_clients=3, samples_per_client=20,
                           data_dir=str(data_dir))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o2") == 2
        assert f"missing dataset file(s): {missing}" in capsys.readouterr().err
        assert ingested == []


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

    def test_ragged_clients_run_end_to_end(self, tmp_path, monkeypatch):
        # 300/250/200-row files: 240/200/160 train rows. Every round trains
        # one lockstep call per distinct train row count among its participants.
        data_dir = self.generate(tmp_path, 300)
        for k, n_rows in ((1, 250), (2, 200)):
            path = data_dir / f"client{k:02d}_eMBB.csv"
            path.write_text("\n".join(path.read_text().splitlines()[:n_rows + 1]) + "\n")
        call_rows, checked_rounds = [], []
        original_train, original_round = federation.train_clients, federation.run_round

        def recording_train(start_params, features, *args, **kwargs):
            call_rows.append(features[0].shape[0])
            return original_train(start_params, features, *args, **kwargs)

        def checked_round(runs, cfg):
            call_rows.clear()
            original_round(runs, cfg)
            participants = {run.datasets[k].n_train
                            for run in runs for k in run.records[-1].selection.selected}
            assert sorted(call_rows) == sorted(participants)
            checked_rounds.append(len(call_rows))

        monkeypatch.setattr(federation, "train_clients", recording_train)
        monkeypatch.setattr(federation, "run_round", checked_round)
        cfg = write_config(tmp_path, n_clients=3, slices=["eMBB"], data_dir=str(data_dir))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 0
        # no_policy trains all three clients, so every round has three row counts.
        assert checked_rounds == [3, 3]
        rows = read_rounds_csv(tmp_path / "o" / "rounds_eMBB_no_policy.csv")
        assert [r["selected"] for r in rows] == [(0, 1, 2)] * 2

    def test_attribution_pool_larger_than_train_split_is_exit_2(self, tmp_path, capsys):
        data_dir = self.generate(tmp_path, 60)
        assert self.run_on(tmp_path, data_dir, attribution_samples=100) == 2
        err = capsys.readouterr().err
        assert "client00_eMBB.csv: train split has 48 rows" in err

    def test_one_row_file_is_exit_2_naming_it(self, tmp_path, capsys):
        data_dir = self.generate(tmp_path, 20)
        path = data_dir / "client01_eMBB.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
        assert self.run_on(tmp_path, data_dir) == 2
        assert f"{path}: a dataset needs at least 2 rows" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_header_only_file_is_exit_2_naming_it(self, tmp_path, capsys):
        data_dir = self.generate(tmp_path, 20)
        path = data_dir / "client01_eMBB.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        assert self.run_on(tmp_path, data_dir) == 2
        assert f"{path}: a dataset needs at least 2 rows to split" in capsys.readouterr().err

    def test_long_files_are_not_held_to_samples_per_client(self, tmp_path):
        data_dir = self.generate(tmp_path, 200)
        assert self.run_on(tmp_path, data_dir, samples_per_client=40,
                           attribution_samples=100) == 0


class TestCsvBytes:
    """The CSVs a run and gen-data write are the bytes Python's `csv` module writes."""

    def test_every_csv_survives_a_csv_module_round_trip(self, tmp_path):
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps({"n_clients": 1, "samples_per_client": 20,
                                        "slices": ["SocialMedia"]}))
        assert run_cli("gen-data", "--profiles", profiles, "--out", tmp_path / "data") == 0
        out = tmp_path / "out"
        assert run_cli("run", "--config", write_config(tmp_path), "--out", out) == 0
        paths = [tmp_path / "data" / "client00_SocialMedia.csv", *sorted(out.glob("*.csv"))]
        assert {p.name.split("_")[0] for p in paths} == {
            "client00", "rounds", "attributions", "selection", "comm", "provisioning"}
        for path in paths:
            text = path.read_bytes().decode()
            rewritten = io.StringIO()
            csv.writer(rewritten).writerows(csv.reader(io.StringIO(text, newline="")))
            assert rewritten.getvalue() == text, path.name


def string_convergence_round(text):
    """A summary.json whose eMBB/intelliselect convergence round is a string."""
    summary = json.loads(text)
    summary["slices"]["eMBB"]["intelliselect"]["convergence_round"] = "x"
    return json.dumps(summary)


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

    def test_zero_round_runs_give_empty_delta_cells(self, tmp_path, capsys):
        out_a = self.make_run(tmp_path, "a", ["intelliselect"], n_rounds=0, slices=["eMBB"])
        out_b = self.make_run(tmp_path, "b", ["intelliselect"], n_rounds=0, slices=["eMBB"])
        csv_out = tmp_path / "cmp.csv"
        assert run_cli("compare", out_a, out_b, "--out", csv_out) == 0
        assert "final_mse n/a" in capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(csv_out.read_bytes().decode(), newline="")))
        assert rows[-1] == ["eMBB", "intelliselect", "intelliselect", "", "", "0.0", "0"]

    def test_mismatched_seeds_exit_2(self, tmp_path, capsys):
        out_a = self.make_run(tmp_path, "s42", ["intelliselect"])
        out_b = self.make_run(tmp_path, "s43", ["intelliselect"], seed=43)
        assert run_cli("compare", out_a, out_b) == 2
        assert "seed" in capsys.readouterr().err

    def test_directory_without_manifest_exit_2(self, tmp_path, capsys):
        out = self.make_run(tmp_path, "ok", ["intelliselect"])
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("compare", out, empty) == 2
        assert f"{empty}: no manifest.json found" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, message", [
        ("manifest.json", "{not json", "Expecting property name"),
        ("manifest.json", "[]", "integer 'seed'"),
        ("summary.json", "{not json", "Expecting property name"),
        ("summary.json", "[]", "must be a JSON object"),
        ("summary.json", '{"schema_version": 2}', "schema_version must be 1"),
        ("summary.json", string_convergence_round,
         "'convergence_round' must be an int or null"),
    ], ids=["manifest-malformed", "manifest-list", "summary-malformed", "summary-list",
            "summary-schema", "summary-convergence-round"])
    def test_bad_run_dir_json_is_exit_2_naming_file(self, tmp_path, capsys, name, text,
                                                    message):
        run_dir = self.make_run(tmp_path, "run", ["intelliselect"])
        path = run_dir / name
        path.write_text(text(path.read_text()) if callable(text) else text)
        assert run_cli("compare", run_dir, run_dir, "--out", tmp_path / "cmp.csv") == 2
        err = capsys.readouterr().err
        assert f"{run_dir / name}: " in err and message in err
        assert not (tmp_path / "cmp.csv").exists()


class TestBlasThreads:
    def test_rounds_do_not_depend_on_the_blas_thread_setting(self, tmp_path):
        # 80 clients pool 16,000 test rows. OpenBLAS splits a dot product over
        # more than 10,000 elements across its threads, which moves the MSE's
        # last bits unless the CLI pins one thread.
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            run_python("-m", "fedslice.cli", "run", "--out", out, "--policies", "no_policy",
                       "--override", "n_clients=80", "--override", "seed=1",
                       "--override", "n_rounds=1", "--override", "local_epochs=1",
                       "--override", "batch_size=null", "--override", 'slices=["eMBB"]',
                       cwd=tmp_path, OPENBLAS_NUM_THREADS=threads)
            tables.append({path.name: [row[:2] + row[3:]  # drop cum_time_ms
                                       for row in csv.reader(io.StringIO(path.read_text()))]
                           for path in out.glob("rounds_*.csv")})
        assert list(tables[0]) == ["rounds_eMBB_no_policy.csv"]
        assert tables[0] == tables[1]

    def test_cli_import_runs_one_thread_whatever_the_environment_says(self, tmp_path):
        probe = ("import fedslice.cli, os; print(os.environ['OPENBLAS_NUM_THREADS']); "
                 "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
                 "else 'none')")
        setting, threads = run_python("-c", probe, cwd=tmp_path,
                                      OPENBLAS_NUM_THREADS="4").stdout.split()
        assert setting == "1"
        assert threads in ("1", "none")  # none: no /proc to count them in


class TestParsing:
    def test_override_requires_equals(self):
        with pytest.raises(Exception):
            cli._parse_override("n_rounds")

    def test_override_values_parse_as_json_when_possible(self):
        assert cli._parse_override("n_rounds=3") == ("n_rounds", 3)
        assert cli._parse_override("data_dir=/tmp/x") == ("data_dir", "/tmp/x")
        assert cli._parse_override('slices=["eMBB"]') == ("slices", ["eMBB"])
