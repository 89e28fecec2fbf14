import json
import os
import subprocess
import sys

import pytest

from fediot.cli import main


@pytest.fixture
def tiny_config_path(tmp_path):
    raw = {
        "name": "cli-tiny",
        "mode": "supervised",
        "approach": "federated",
        "data": {"source": "synthetic", "devices": 3, "samples_per_device": 300, "feature_dim": 5},
        "balance": {"benign_fraction": 0.5, "samples_per_device": 300},
        "model": {"preset": "A"},
        "training": {"learning_rate": 0.3, "batch_size": 8, "epochs": 2},
        "protocol": {"folds": ["dev-0"], "repetitions": 1, "master_seed": 3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_run_prints_summary_json(self, capsys, tmp_path, tiny_config_path):
        code, out, err = invoke(capsys, "run", tiny_config_path, "--out", str(tmp_path / "res"))
        assert code == 0 and err == ""
        summary = json.loads(out)
        assert summary["runs"] == 2
        assert 0.0 <= summary["summary"]["known/accuracy"] <= 1.0
        assert os.path.isdir(summary["bundle"])

    def test_unknown_profile_is_json_error(self, capsys):
        code, out, err = invoke(capsys, "run", "no-such-profile")
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert "no-such-profile" in record["message"]


class TestSynthAndIngest:
    def test_synth_then_ingest_roundtrip(self, capsys, tmp_path, tiny_config_path):
        fleet = str(tmp_path / "fleet")
        code, out, _ = invoke(capsys, "synth", tiny_config_path, "--out", fleet)
        assert code == 0
        created = json.loads(out)
        assert created["devices"] == 3
        assert os.path.isfile(created["manifest"])

        code, out, _ = invoke(capsys, "ingest", created["manifest"], "--schema", "5")
        assert code == 0
        summary = json.loads(out)
        assert summary["devices"] == 3
        assert summary["rows"] == 900
        sizes = summary["per_device"]["dev-0"]
        assert sizes["train"] + sizes["unused"] + sizes["test"] == 300

    def test_run_from_synthesized_manifest(self, capsys, tmp_path, tiny_config_path):
        fleet = str(tmp_path / "fleet")
        _, out, _ = invoke(capsys, "synth", tiny_config_path, "--out", fleet)
        manifest = json.loads(out)["manifest"]
        raw = json.loads(open(tiny_config_path).read())
        raw["data"] = {"source": "manifest", "path": manifest, "schema": 5}
        config2 = tmp_path / "manifest-config.json"
        config2.write_text(json.dumps(raw))
        code, out, _ = invoke(capsys, "run", str(config2), "--out", str(tmp_path / "res"))
        assert code == 0
        assert json.loads(out)["runs"] == 2

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e309"])
    def test_non_finite_cell_rejected_by_ingest_and_run(self, capsys, tmp_path, tiny_config_path, cell):
        # float() reads each of these cells; before the check a NaN zeroed a
        # feature for the whole group and an infinity was blamed on a client.
        fleet = tmp_path / "fleet"
        _, out, _ = invoke(capsys, "synth", tiny_config_path, "--out", str(fleet))
        manifest = json.loads(out)["manifest"]
        data = fleet / "dev-1-benign.csv"
        lines = data.read_text().splitlines()
        cells = lines[4].split(",")
        cells[2] = cell
        lines[4] = ",".join(cells)
        data.write_text("\n".join(lines) + "\n")
        raw = json.loads(open(tiny_config_path).read())
        raw["data"] = {"source": "manifest", "path": manifest, "schema": 5}
        config = tmp_path / "manifest-config.json"
        config.write_text(json.dumps(raw))
        runs = (["ingest", manifest, "--schema", "5"], ["run", str(config), "--out", str(tmp_path / "res")])
        for argv in runs:
            code, out, err = invoke(capsys, *argv)
            assert code == 1 and out == ""
            record = json.loads(err)
            assert record["error"] == "ParseError"
            assert f"{data}: row 4: column 2: non-finite cell" in record["message"]

    def test_ingest_missing_manifest_fails_cleanly(self, capsys):
        code, out, err = invoke(capsys, "ingest", "/nope/manifest.csv")
        assert code == 1
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_ingest_names_unsupervised_device_without_benign_capture(self, capsys, tmp_path):
        (tmp_path / "b.csv").write_text("".join(f"{i},{i}\n" for i in range(8)))
        (tmp_path / "a.csv").write_text("9,9\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("d1,b.csv,benign\nd1,a.csv,attack\nc,a.csv,attack\n")
        code, out, err = invoke(
            capsys, "ingest", str(manifest), "--schema", "2", "--mode", "unsupervised"
        )
        assert code == 1 and out == ""
        record = json.loads(err)
        assert record["error"] == "MissingClassError"
        assert record["message"].startswith("c: ")

    def test_synth_rejects_manifest_source(self, capsys, tmp_path, tiny_config_path):
        raw = json.loads(open(tiny_config_path).read())
        raw["data"] = {"source": "manifest", "path": "x.csv"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, _, err = invoke(capsys, "synth", str(bad))
        assert code == 1
        assert json.loads(err)["error"] == "ConfigError"


class TestSweepAndReport:
    def test_sweep_and_report(self, capsys, tmp_path, tiny_config_path):
        raw = json.loads(open(tiny_config_path).read())
        raw["data"]["devices"] = 7
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(raw))
        code, out, _ = invoke(capsys, "sweep", str(config), "--f", "0,1", "--out", str(tmp_path))
        assert code == 0
        bundle = json.loads(out)["bundle"]
        assert json.loads(out)["cells"] == 30

        code, out, _ = invoke(capsys, "report", bundle, "--format", "csv")
        assert code == 0
        files = json.loads(out)["files"]
        assert any(f.endswith("f1_vs_f.csv") for f in files)

    def test_bad_f_list_is_json_error(self, capsys, tiny_config_path):
        code, _, err = invoke(capsys, "sweep", tiny_config_path, "--f", "0,x")
        assert code == 1
        assert "integers" in json.loads(err)["message"]

    def test_report_on_run_bundle(self, capsys, tmp_path, tiny_config_path):
        _, out, _ = invoke(capsys, "run", tiny_config_path, "--out", str(tmp_path / "res"))
        bundle = json.loads(out)["bundle"]
        code, out, _ = invoke(capsys, "report", bundle, "--format", "md")
        assert code == 0
        assert json.loads(out)["files"][0].endswith("report.md")

    def test_report_on_non_bundle_fails(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "report", str(tmp_path))
        assert code == 1
        assert json.loads(err)["error"] == "ConfigError"


class TestEntryPoint:
    def test_module_invocation(self, tiny_config_path, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fediot.cli", "run", tiny_config_path,
             "--out", str(tmp_path / "res")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["runs"] == 2
