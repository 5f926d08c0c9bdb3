import contextlib
import csv
import dataclasses
import hashlib
import hmac
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_rounds_csv
from fedslice import cli, federation, metrics
from fedslice.data import CSV_COLUMNS, ingest_csv, slice_by_name
from fedslice.metrics import comm_cost
from fedslice.nn import ModelParams

# sha256 of the rounds tables `test_rounds_match_the_pinned_digest` builds.
PINNED_ROUNDS_DIGEST = "9419c33b7314583d8aaf48bcf597a8b2e2873889391326e8869cddc75670c9d4"
# sha256 of the attribution and selection tables
# `test_blocked_attributions_match_the_pinned_digest` builds.
PINNED_BLOCKED_DIGEST = "21acf32297db21ede78c14be15f84b54da1aaea14df6b9b2f04fa678dbb5716a"
# sha256 over "<name> <sha256 of the file>" lines of every CSV `gen-data` writes
# for 6 clients x 200 rows of the three slices, by seed (the perfbench cross-check
# profile); recorded with the row-by-row `"%.17g" % cell` writer.
PINNED_GEN_DATA_DIGESTS = {
    42: "eeba3b4bf1985308e89373f89625ff3dff9f8e542011da03368e04364566edf5",
    7: "8c9b558861553f902330530d9ad1d96167deaba0b2ac7d3eec902d45e8caf480",
}


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


UTF8_BOM = b"\xef\xbb\xbf"


def bitwise(value):
    """A dataclass's fields, recursively, with floats and arrays as their bytes."""
    if dataclasses.is_dataclass(value):
        return [bitwise(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value.hex() if isinstance(value, float) else value


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

    def test_config_or_profiles_that_is_a_directory_is_exit_2_naming_it(self, tmp_path, capsys):
        folder = tmp_path / "folder"
        folder.mkdir()
        assert run_cli("run", "--config", folder, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith(f"error: {folder}: ")
        assert run_cli("gen-data", "--profiles", folder, "--out", tmp_path / "d") == 2
        assert capsys.readouterr().err.startswith(f"error: {folder}: ")

    def test_config_that_is_not_utf8_is_exit_2_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"seed": 42, "note": "café"}'.encode("latin-1"))
        assert run_cli("run", "--config", bad, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: not UTF-8 text: invalid continuation byte\n")

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

    @pytest.mark.parametrize("epochs, failure", [
        (1, ": non-finite test MSE "),
        (2, ", clients [0, 1]: non-finite gradient during local training\n"),
    ])
    def test_overflowing_learning_rate_is_exit_3_naming_the_round_before_any_output(
            self, tmp_path, capsys, epochs, failure):
        # One full-batch step of 1e300 leaves a model whose test MSE is not
        # finite, and a second step's gradient is not finite either. A
        # warning that escaped would be an error under the suite's filter
        # and end the run with another message.
        out = tmp_path / "o"
        assert run_cli("run", "--out", out, "--policies", "no_policy",
                       "--override", "learning_rate=1e300", "--override", "n_clients=2",
                       "--override", "n_selected=2", "--override", "n_rounds=1",
                       "--override", f"local_epochs={epochs}", "--override", "batch_size=null",
                       "--override", 'slices=["eMBB"]') == 3
        err = capsys.readouterr().err
        assert err.startswith(f"runtime failure: round 0: slice eMBB, policy no_policy{failure}")
        assert not out.exists()

    @pytest.mark.parametrize("below", [(), ("sub",)])
    def test_out_that_cannot_be_a_directory_is_exit_2_before_any_work(self, tmp_path, capsys,
                                                                     monkeypatch, below):
        def boom(*args, **kwargs):
            raise RuntimeError("the experiment ran")
        monkeypatch.setattr(cli, "run_experiment", boom)
        taken = tmp_path / "taken"
        taken.write_text("a file")
        out = taken.joinpath(*below)
        assert run_cli("run", "--config", write_config(tmp_path), "--out", out) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {taken} is not a directory\n"

    def test_non_finite_summary_value_is_exit_3_and_writes_no_summary(self, tmp_path, capsys,
                                                                       monkeypatch):
        # An under-provisioning sum that overflowed to infinity, which JSON
        # cannot hold: the run must fail naming summary.json, not write a bare
        # `Infinity`. Ingestion refuses the extreme cells that could make one,
        # so the overflow is patched in.
        real = metrics.slice_provisioning

        def overflowed(params, datasets):
            report = real(params, datasets)
            return dataclasses.replace(report, errors=np.full_like(report.errors, -np.inf))

        monkeypatch.setattr(metrics, "slice_provisioning", overflowed)
        cfg = write_config(tmp_path, n_clients=2, n_selected=1, n_rounds=1, slices=["eMBB"])
        out = tmp_path / "o"
        assert run_cli("run", "--config", cfg, "--out", out) == 3
        summary = out / "summary.json"
        assert (f"runtime failure: {summary}: Out of range float values are not JSON "
                "compliant") in capsys.readouterr().err
        assert not summary.exists()

    def test_non_finite_manifest_value_is_exit_3_and_writes_no_manifest(self, tmp_path, capsys,
                                                                         monkeypatch):
        # The config's floats are checked finite, so a non-finite one in the
        # manifest is a program fault. It is patched in after `persist` has
        # written summary.json, which would refuse it first.
        real_persist, real_to_dict = metrics.persist, federation.ExperimentConfig.to_dict

        def persist_then_corrupt(out_dir, cfg, runs):
            paths = real_persist(out_dir, cfg, runs)
            monkeypatch.setattr(federation.ExperimentConfig, "to_dict",
                                lambda c: {**real_to_dict(c), "learning_rate": float("nan")})
            return paths

        monkeypatch.setattr(metrics, "persist", persist_then_corrupt)
        cfg = write_config(tmp_path, n_clients=2, n_selected=1, n_rounds=1, slices=["eMBB"])
        out = tmp_path / "o"
        assert run_cli("run", "--config", cfg, "--out", out) == 3
        manifest = out / cli.MANIFEST_NAME
        assert (f"runtime failure: {manifest}: Out of range float values are not JSON "
                "compliant") in capsys.readouterr().err
        assert (out / "summary.json").exists()
        assert not manifest.exists()

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

    @pytest.mark.parametrize("seed", sorted(PINNED_GEN_DATA_DIGESTS))
    def test_generated_files_match_the_pinned_digests(self, tmp_path, seed):
        profiles = self.profiles_file(tmp_path, n_clients=6, samples_per_client=200, seed=seed)
        out = tmp_path / "data"
        assert run_cli("gen-data", "--profiles", profiles, "--out", out) == 0
        files = sorted(out.glob("*.csv"))
        assert len(files) == 18
        listing = "".join(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
                          for p in files)
        assert hashlib.sha256(listing.encode()).hexdigest() == PINNED_GEN_DATA_DIGESTS[seed]

    def test_non_finite_generated_cell_is_exit_2_and_leaves_no_csv(self, tmp_path, capsys):
        spec = {"n_clients": 2, "samples_per_client": 20, "seed": 42,
                "slices": ["SocialMedia", "eMBB"],
                "profiles": [profile_entry(0), profile_entry(1, traffic_scale=1.7e308)]}
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "d"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert run_cli("gen-data", "--profiles", path, "--out", out) == 2
        assert capsys.readouterr().err == (f"error: {path}: profiles[1]: slice SocialMedia, "
                                           "column 'Facebook': non-finite value\n")
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]

    @pytest.mark.parametrize("below", [(), ("sub",)])
    def test_out_that_cannot_be_a_directory_is_exit_2_and_writes_nothing(self, tmp_path,
                                                                        capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("a file")
        out = taken.joinpath(*below)
        assert run_cli("gen-data", "--profiles", self.profiles_file(tmp_path),
                       "--out", out) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {taken} is not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["profiles.json", "taken"]

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

    def set_cells(self, path, cells, blank_before=None):
        """Write `cells`, {(data row, column): text}, into a CSV; optionally add
        two blank lines before a data row."""
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        for (row, col), text in cells.items():
            fields = lines[row].split(",")
            fields[header.index(col)] = text
            lines[row] = ",".join(fields)
        if blank_before is not None:
            lines[blank_before:blank_before] = ["", ""]
        path.write_text("\n".join(lines) + "\n")

    def test_cpu_load_of_minus_1e308_is_exit_2_naming_the_cell(self, tmp_path, capsys):
        # Once this finite cell passed ingestion, and an under-provisioning sum
        # overflowed: exit 3 naming summary.json.
        data_dir = self.generate(tmp_path, 50)
        self.set_cells(data_dir / "client00_eMBB.csv", {(5, "CPU_Load"): "-1e308"})
        assert self.run_on(tmp_path, data_dir) == 2
        assert (f"error: {data_dir / 'client00_eMBB.csv'}: row 6, column 'CPU_Load': "
                "-1e+308 is outside [0, 100]") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_extreme_cpu_loads_in_two_rows_are_exit_2_naming_the_first(self, tmp_path, capsys):
        # Once these finite cells passed ingestion and exited 3 in training
        # ("non-finite gradient during local training").
        data_dir = self.generate(tmp_path, 50)
        self.set_cells(data_dir / "client00_eMBB.csv",
                       {(5, "CPU_Load"): "-1e308", (7, "CPU_Load"): "1e308"})
        assert self.run_on(tmp_path, data_dir) == 2
        err = capsys.readouterr().err
        assert "client00_eMBB.csv: row 6, column 'CPU_Load': -1e+308 is outside" in err
        assert "row 8" not in err

    @pytest.mark.parametrize("col, text, shown, bounds", [
        ("CQI", "-5", "-5.0", "[0, 15]"),
        ("CQI", "15.5", "15.5", "[0, 15]"),
        ("MIMO_FI", "100.25", "100.25", "[0, 100]"),
        ("CPU_Load", "-0.5", "-0.5", "[0, 100]"),
        ("Netflix", "-1e-300", "-1e-300", "[0, inf]"),
        ("Apple", "-2", "-2.0", "[0, inf]"),  # outside eMBB's traffic, still checked
    ])
    def test_cell_outside_its_physical_range_is_exit_2(self, tmp_path, capsys, col, text, shown,
                                                       bounds):
        data_dir = self.generate(tmp_path, 50)
        self.set_cells(data_dir / "client01_eMBB.csv", {(9, col): text})
        assert self.run_on(tmp_path, data_dir) == 2
        assert (f"client01_eMBB.csv: row 10, column {col!r}: {shown} is outside {bounds}"
                in capsys.readouterr().err)

    def test_range_bounds_themselves_are_accepted(self, tmp_path):
        data_dir = self.generate(tmp_path, 50)
        self.set_cells(data_dir / "client01_eMBB.csv",
                       {(3, "CQI"): "15", (4, "CQI"): "-0.0", (5, "MIMO_FI"): "100",
                        (6, "CPU_Load"): "100", (7, "CPU_Load"): "0", (8, "Netflix"): "1e300"})
        assert self.run_on(tmp_path, data_dir) == 0

    def test_overflowing_slice_traffic_is_exit_2_naming_the_row(self, tmp_path, capsys):
        data_dir = self.generate(tmp_path, 50)
        self.set_cells(data_dir / "client02_eMBB.csv",
                       {(4, "Netflix"): "1.7e308", (4, "Youtube"): "1.7e308"})
        assert self.run_on(tmp_path, data_dir) == 2
        assert ("client02_eMBB.csv: row 5: eMBB traffic, the sum of 'Netflix', 'Youtube', "
                "'Facebook Video', overflows") in capsys.readouterr().err

    def test_cell_that_is_not_utf8_is_exit_2_naming_the_file(self, tmp_path, capsys,
                                                             earlier=b""):
        data_dir = self.generate(tmp_path, 50)
        path = data_dir / "client01_eMBB.csv"
        lines = path.read_bytes().split(b"\r\n")
        lines[5] += earlier
        lines[20] += b"\xe9"  # into CPU_Load, the last column
        path.write_bytes(b"\r\n".join(lines))
        assert self.run_on(tmp_path, data_dir) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text: invalid continuation byte\n")

    @pytest.mark.parametrize("earlier", [
        b"oops",  # an unparseable cell in row 6
        b"\x1c",  # a character numpy strips and float() refuses, in row 6
    ])
    def test_byte_that_is_not_utf8_wins_over_an_earlier_bad_cell(self, tmp_path, capsys,
                                                                 earlier):
        self.test_cell_that_is_not_utf8_is_exit_2_naming_the_file(tmp_path, capsys, earlier)

    @pytest.mark.parametrize("cells, named", [
        # Found by `TestInputBoundary`: this finite test-row cell passed
        # ingestion, and the test MSE overflowed (exit 3 naming summary.json).
        ({(33, "Youtube"): "1.7e+308"}, "row 34, eMBB traffic: 1.7e+308 scales to 6e+307"),
        # A train span of 1e-200 puts the first test row's CQI out of reach too,
        ({**{(r, "CQI"): "0" for r in range(2, 33)}, (1, "CQI"): "1e-200"},
         "row 34, column 'CQI': "),
        # and one of 5e-324 scales a test row's CPU load to infinity.
        ({**{(r, "CPU_Load"): "0" for r in range(2, 33)}, (1, "CPU_Load"): "5e-324"},
         "row 34, column 'CPU_Load': "),
    ])
    def test_value_scaled_far_outside_the_train_rows_is_exit_2_naming_it(self, tmp_path, capsys,
                                                                         cells, named):
        data_dir = self.generate(tmp_path, 40)  # rows 2-33 train, 34-41 test
        path = data_dir / "client01_eMBB.csv"
        self.set_cells(path, cells)
        assert self.run_on(tmp_path, data_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {named}")
        assert err.endswith(", outside [-1e+100, 1e+100] (the train rows scale into [0, 1])\n")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Spreadsheet programs save "CSV UTF-8" files with one.
        data_dir = self.generate(tmp_path, 50)
        plain = data_dir / "client00_eMBB.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(UTF8_BOM + plain.read_bytes())
        plain_ds, marked_ds = (ingest_csv(path, slice_by_name("eMBB"), client_id=0, seed=7)
                               for path in (plain, marked))
        assert bitwise(marked_ds) == bitwise(plain_ds)

    @pytest.mark.parametrize("col, text, message", [
        ("CQI", "x", "row 6, column 'CQI': cannot parse 'x'"),
        ("Apple", "-2", "row 6, column 'Apple': -2.0 is outside [0, inf]"),
    ])
    def test_byte_order_mark_keeps_the_bad_cell_named(self, tmp_path, capsys, col, text,
                                                      message):
        data_dir = self.generate(tmp_path, 50)
        path = data_dir / "client01_eMBB.csv"
        self.set_cells(path, {(5, col): text})
        path.write_bytes(UTF8_BOM + path.read_bytes())
        assert self.run_on(tmp_path, data_dir) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_csv_that_is_a_directory_is_exit_2_naming_it(self, tmp_path, capsys):
        data_dir = self.generate(tmp_path, 50)
        path = data_dir / "client00_eMBB.csv"
        path.unlink()
        path.mkdir()
        assert self.run_on(tmp_path, data_dir) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_row_outside_range_counts_blank_lines(self, tmp_path, capsys):
        data_dir = self.generate(tmp_path, 50)
        self.set_cells(data_dir / "client00_eMBB.csv", {(7, "MIMO_FI"): "101"}, blank_before=3)
        assert self.run_on(tmp_path, data_dir) == 2
        assert "client00_eMBB.csv: row 10, column 'MIMO_FI': 101.0 is outside" in (
            capsys.readouterr().err)

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


def summary_entry(rounds, final_mse, convergence_round, cum_time_ms, total_comm_params):
    return {"rounds": rounds, "final_mse": final_mse, "convergence_round": convergence_round,
            "cum_time_ms": cum_time_ms, "total_comm_params": total_comm_params}


# Hand-made compare inputs: per case, one {slice: {policy: entry}} per run.
_S1 = {
    "eMBB": {"intelliselect": summary_entry(3, 0.012345678901234567, 1, 153.25, 1125),
             "no_policy": summary_entry(3, 0.02, 2, 98.0, 1380)},
    "Browsing": {"intelliselect": summary_entry(3, 1.5e-05, 0, 12, 1125),
                 "no_policy": summary_entry(3, 2.75e-05, 2, 7.125, 1380)},
}
_S2 = {
    "eMBB": {"intelliselect": summary_entry(3, 0.011, 2, 160.5, 1125),
             "no_policy": summary_entry(3, 0.019999999999999997, 1, 101.75, 1380)},
    "Browsing": {"intelliselect": summary_entry(3, 1.25e-05, 1, 11.5, 1125),
                 "no_policy": summary_entry(3, 3e-05, 0, 8, 1380)},
}
COMPARE_CASES = {
    "same-policies-two-slices": [_S1, _S2],
    "three-runs": [
        {"SocialMedia": {"score": summary_entry(2, 0.5, 1, 40.0, 776)}},
        {"SocialMedia": {"score": summary_entry(2, 0.25, 0, 41.5, 776)}},
        {"SocialMedia": {"intelliselect": summary_entry(2, 0.75, 1, 39.0, 750)}},
    ],
    "single-policy-across-names": [
        {"eMBB": {"intelliselect": summary_entry(4, 0.125, 3, 88.0, 1500)}},
        {"eMBB": {"no_policy": summary_entry(4, 0.0625, 2, 70.25, 1840)}},
    ],
    "zero-rounds": [
        {"eMBB": {"intelliselect": summary_entry(0, None, None, 0.0, 0)}},
        {"eMBB": {"intelliselect": summary_entry(2, 0.3, 1, 20.5, 750)}},
    ],
    "multi-policy-against-single": [
        {"eMBB": {"intelliselect": summary_entry(1, 0.4, 0, 10.0, 375),
                  "score": summary_entry(1, 0.45, 0, 11.0, 388)},
         "Browsing": {"score": summary_entry(1, 0.2, 0, 5.0, 388)}},
        {"eMBB": {"score": summary_entry(1, 0.5, 0, 12.0, 388)},
         "Browsing": {"no_policy": summary_entry(1, 0.1, 0, 6.0, 460)}},
    ],
}
# sha256 of what `compare` prints and writes for `COMPARE_CASES`.
PINNED_COMPARE_DIGEST = "2460d6daa8533267b3a2dd2c1a8b97f5acbcdf3dd888abfb6aabb13527e46d1c"


def write_run_dir(path, slices, seed=42):
    """A run directory holding only a manifest and a summary of the given entries."""
    path.mkdir()
    (path / "manifest.json").write_text(json.dumps({"seed": seed}))
    total = sum(e["total_comm_params"] for entries in slices.values() for e in entries.values())
    (path / "summary.json").write_text(json.dumps({
        "schema_version": 1, "config": {}, "comm_model": {}, "slices": slices,
        "provisioning": {}, "total_comm_params": total}))
    return path


def edited(change):
    """A function of a JSON file's text that applies `change` to the parsed document."""
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return edit


def entry_of(summary):
    """The eMBB/intelliselect entry of a parsed summary.json."""
    return summary["slices"]["eMBB"]["intelliselect"]


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
        expected = cfg["n_rounds"] * (
            sum(comm_cost("no_policy", cfg["n_clients"], cfg["n_selected"], 3, 23))
            - sum(comm_cost("intelliselect", cfg["n_clients"], cfg["n_selected"], 3, 23))
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

    def test_compare_output_matches_the_pinned_digest(self, tmp_path, capsys):
        # Hand-made summaries, so no wall-clock value gets in: the pin covers
        # the table, the deltas printed and the comparison CSV byte for byte.
        digest = hashlib.sha256()
        for case, runs in COMPARE_CASES.items():
            dirs = [write_run_dir(tmp_path / f"{case}_{i}", slices)
                    for i, slices in enumerate(runs)]
            csv_out = tmp_path / f"{case}.csv"
            assert run_cli("compare", *dirs, "--out", csv_out) == 0, case
            digest.update(capsys.readouterr().out.replace(str(tmp_path), "<tmp>").encode())
            digest.update(csv_out.read_bytes())
        assert digest.hexdigest() == PINNED_COMPARE_DIGEST

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
        ("summary.json", edited(lambda s: s.update(schema_version=True)),
         "schema_version must be 1"),
        ("manifest.json", edited(lambda m: m.update(seed=True)), "integer 'seed'"),
        ("summary.json", edited(lambda s: entry_of(s).update(convergence_round="x")),
         "slices['eMBB']['intelliselect']: convergence_round must be an integer or null"),
        ("summary.json", edited(lambda s: s["slices"].update(eMBB=5)),
         "slices['eMBB'] must be a dict, got 5"),
        ("summary.json", edited(lambda s: s["slices"]["eMBB"].update(intelliselect=5)),
         "slices['eMBB']['intelliselect']: must be a JSON object, got int"),
        ("summary.json", edited(lambda s: s["comm_model"].update(intelliselect=5)),
         "comm_model['intelliselect'] must be a dict, got 5"),
        ("summary.json", edited(lambda s: entry_of(s).pop("cum_time_ms")),
         "slices['eMBB']['intelliselect']: missing key(s): cum_time_ms"),
        ("summary.json", edited(lambda s: entry_of(s).update(fallbacks=0)),
         "slices['eMBB']['intelliselect']: unknown key(s): fallbacks"),
        ("summary.json", edited(lambda s: entry_of(s).update(final_mse=True)),
         "final_mse must be a finite number or null, got True"),
        ("summary.json", edited(lambda s: entry_of(s).update(final_mse=float("nan"))),
         "final_mse must be a finite number or null, got nan"),
    ], ids=["manifest-malformed", "manifest-list", "summary-malformed", "summary-list",
            "summary-schema", "summary-schema-bool", "manifest-seed-bool",
            "summary-convergence-round", "summary-slice-int", "summary-entry-int",
            "summary-comm-model-int", "summary-entry-missing-key", "summary-entry-unknown-key",
            "summary-final-mse-bool", "summary-final-mse-nan"])
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


TINY_RUN = ("run", "--out", "o", "--policies", "intelliselect", "--override", "n_clients=2",
            "--override", "n_selected=1", "--override", "n_rounds=1", "--override", "local_epochs=1",
            "--override", "samples_per_client=20", "--override", "attribution_samples=4",
            "--override", 'slices=["eMBB"]')
# Runs the CLI in this process, then uses every hash path numpy.random's import
# chain (secrets, hmac, hashlib) could need.
RUN_THEN_HASH = """
import sys
from fedslice import cli
assert cli.main(sys.argv[1:]) == 0
import hashlib, hmac, numpy.random
print(repr(sys.modules.get("_hashlib", "absent")))
print(hashlib.sha256(b"abc").hexdigest(), hmac.new(b"key", b"msg", "sha256").hexdigest())
numpy.random.default_rng().random()  # seeded from OS entropy
"""


class TestNoOpenSSL:
    """The CLI keeps `_hashlib`, and so OpenSSL's libcrypto, out of its process.

    Each test runs in a fresh process: this one imported `_hashlib` long ago
    (pytest and hypothesis hash), so the block never applies here.
    """

    def expected_hashes(self):
        return (f"{hashlib.sha256(b'abc').hexdigest()} "
                f"{hmac.new(b'key', b'msg', 'sha256').hexdigest()}")

    def test_run_blocks_hashlib_and_hashing_still_works(self, tmp_path):
        probe = RUN_THEN_HASH + ("import os\nmaps = '/proc/self/maps'\n"
                                 "print(os.path.exists(maps) and 'libcrypto' in open(maps).read())\n")
        lines = run_python("-c", probe, *TINY_RUN, cwd=tmp_path).stdout.splitlines()
        assert lines[-3:] == ["None", self.expected_hashes(), "False"]

    def test_gen_data_loads_no_hashlib(self, tmp_path):
        (tmp_path / "profiles.json").write_text(json.dumps(
            {"n_clients": 2, "samples_per_client": 20, "seed": 42, "slices": ["eMBB"]}))
        # The verbose import log names every module a process loads.
        control = run_python("-c", "import hashlib", cwd=tmp_path, PYTHONVERBOSE="1").stderr
        assert "import '_hashlib'" in control
        err = run_python("-m", "fedslice.cli", "gen-data", "--profiles", "profiles.json",
                         "--out", "data", cwd=tmp_path, PYTHONVERBOSE="1").stderr
        assert (tmp_path / "data" / "client01_eMBB.csv").exists()
        assert "import '_hashlib'" not in err

    def test_a_caller_that_loaded_hashlib_first_keeps_it(self, tmp_path):
        script = "import _hashlib\n" + RUN_THEN_HASH.replace(
            'repr(sys.modules.get("_hashlib", "absent"))', 'sys.modules["_hashlib"] is _hashlib')
        lines = run_python("-c", script, *TINY_RUN, cwd=tmp_path).stdout.splitlines()
        assert lines[-2:] == ["True", self.expected_hashes()]

    def test_without_builtin_hash_modules_nothing_is_blocked(self, tmp_path):
        # As on a CPython built with only blake2 of its own hash modules: a
        # meta-path finder refuses the others. Blocking `_hashlib` there would
        # leave hashlib no md5 or sha (it logs "code for hash ... was not
        # found"), and an `import random` after it no sha512.
        hidden = ("_md5", "_sha1", "_sha2", "_sha256", "_sha512", "_sha3")
        script = (
            "import sys\n"
            f"HIDDEN = {hidden!r}\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name in HIDDEN:\n"
            "            raise ModuleNotFoundError(f'no module named {name!r}', name=name)\n"
            "for name in HIDDEN:\n"
            "    sys.modules.pop(name, None)\n"
            "sys.meta_path.insert(0, Refuse())\n"
        ) + RUN_THEN_HASH
        proc = run_python("-c", script, *TINY_RUN, cwd=tmp_path)
        assert proc.stdout.splitlines()[-2].startswith("<module '_hashlib'")
        assert proc.stdout.splitlines()[-1] == self.expected_hashes()
        assert "code for hash" not in proc.stderr


class TestNoLogging:
    """fedslice reports on stderr with `print`; it loads no `logging`."""

    def test_run_and_gen_data_load_no_logging(self, tmp_path):
        # pytest loads logging itself, so the commands run in a fresh process.
        (tmp_path / "profiles.json").write_text(json.dumps(
            {"n_clients": 2, "samples_per_client": 20, "seed": 42, "slices": ["eMBB"]}))
        script = (
            "import sys\nfrom fedslice import cli\n"
            f"assert cli.main({list(TINY_RUN)!r}) == 0\n"
            "assert cli.main(['gen-data', '--profiles', 'profiles.json', '--out', 'd']) == 0\n"
            "print('logging' in sys.modules)\n"
        )
        assert run_python("-c", script, cwd=tmp_path).stdout.splitlines()[-1] == "False"

    def test_each_in_process_run_prints_its_fallback_notices(self, tmp_path, capsys,
                                                             monkeypatch):
        # On an all-zero initial model every client's attribution is all-zero.
        monkeypatch.setattr(federation, "init_params",
                            lambda spec, seed: ModelParams(np.zeros(spec.param_count), spec))
        cfg = write_config(tmp_path, n_rounds=1, slices=["eMBB"])
        for out in ("first", "second"):
            assert run_cli("run", "--config", cfg, "--out", tmp_path / out,
                           "--policies", "score") == 0
        assert capsys.readouterr().err.splitlines() == 2 * [
            f"slice eMBB, policy score, round 0, client {k}: all-zero attribution, "
            "using the uniform vector"
            for k in range(4)
        ]


def refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


# Any finite double, with the extremes, subnormals and signed zeros drawn often.
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([1.7e308, -1.7e308, 5e-324, -5e-324, 2.0 ** -1040, 0.0, -0.0]))


class TestInputBoundary:
    """Whatever finite numbers a profile or client CSV holds, a command exits 0 or 2."""

    RUN_CONFIG = {"n_clients": 3, "n_selected": 2, "n_rounds": 1, "local_epochs": 1,
                  "attribution_samples": 4, "slices": ["eMBB"], "seed": 42}

    @staticmethod
    def invoke(*args):
        """Exit code and stderr of one in-process command."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli(*args)
        return code, err.getvalue()

    def run_on(self, base, data_dir, named):
        """Run on `data_dir`; a refusal must name one of the `named` files."""
        cfg = base / "config.json"
        cfg.write_text(json.dumps({**self.RUN_CONFIG, "data_dir": str(data_dir)}))
        code, err = self.invoke("run", "--config", cfg, "--out", base / "out")
        assert code in (0, 2), err
        if code == 2:
            assert any(str(path) in err for path in named), err
        else:
            for name in ("summary.json", "manifest.json"):
                json.loads((base / "out" / name).read_text(), parse_constant=refuse_constant)

    @pytest.fixture(scope="class")
    def data_dir(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("boundary")
        profiles = base / "profiles.json"
        profiles.write_text(json.dumps({"n_clients": 3, "samples_per_client": 40, "seed": 42,
                                        "slices": ["eMBB"]}))
        assert self.invoke("gen-data", "--profiles", profiles, "--out", base / "data")[0] == 0
        return base / "data"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 40), st.sampled_from(CSV_COLUMNS), FINITE),
                    min_size=1, max_size=3))
    def test_any_finite_csv_cells(self, tmp_path_factory, data_dir, cells):
        base = tmp_path_factory.mktemp("cells")
        data = shutil.copytree(data_dir, base / "data")
        path = data / "client01_eMBB.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        for row, col, value in cells:
            fields = lines[row].split(",")
            fields[header.index(col)] = repr(value)
            lines[row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        self.run_on(base, data, [path])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from(
        [b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\r", b"\n", b"\r\n", b'"', b",",
         b"\xe9", b"\xef\xbb\xbf", b"0", b"7", b"9e9"])), min_size=1, max_size=3))
    def test_any_bytes_inserted_into_a_csv(self, tmp_path_factory, data_dir, inserts):
        base = tmp_path_factory.mktemp("bytes")
        data = shutil.copytree(data_dir, base / "data")
        path = data / "client01_eMBB.csv"
        raw = path.read_bytes()
        for where, chunk in inserts:
            at = int(where * (len(raw) + 1))
            raw = raw[:at] + chunk + raw[at:]
        path.write_bytes(raw)
        self.run_on(base, data, [path])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fixed_dictionaries({
        "traffic_scale": FINITE, "diurnal_phase": FINITE, "cqi_mean": FINITE,
        "noise_level": FINITE, "mix_weights": st.lists(FINITE, min_size=3, max_size=3),
        "diurnal_amplitude": FINITE}), min_size=3, max_size=3))
    def test_any_finite_profile_numbers(self, tmp_path_factory, numbers):
        base = tmp_path_factory.mktemp("profiles")
        profiles = base / "profiles.json"
        profiles.write_text(json.dumps({
            "n_clients": 3, "samples_per_client": 40, "seed": 42, "slices": ["eMBB"],
            "profiles": [{"client_id": k, **entry} for k, entry in enumerate(numbers)]}))
        data = base / "data"
        code, err = self.invoke("gen-data", "--profiles", profiles, "--out", data)
        assert code in (0, 2), err
        if code == 2:
            assert str(profiles) in err, err
            assert not list(base.glob("**/*.csv"))
        else:
            self.run_on(base, data, sorted(data.glob("*.csv")))


class TestParsing:
    def test_override_requires_equals(self):
        with pytest.raises(Exception):
            cli._parse_override("n_rounds")

    def test_override_values_parse_as_json_when_possible(self):
        assert cli._parse_override("n_rounds=3") == ("n_rounds", 3)
        assert cli._parse_override("data_dir=/tmp/x") == ("data_dir", "/tmp/x")
        assert cli._parse_override('slices=["eMBB"]') == ("slices", ["eMBB"])
