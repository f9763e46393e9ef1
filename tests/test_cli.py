"""CLI tests (drive main() in-process, capture stdout)."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestPlan:
    def test_plan_prints_decision(self, capsys):
        code, out = run_cli(
            capsys, "plan", "--app", "BT", "--deadline-factor", "1.5", "--kappa", "2"
        )
        assert code == 0
        assert "expected cost" in out
        assert "fallback:" in out
        assert "bid combinations" in out

    def test_plan_lammps_processes(self, capsys):
        code, out = run_cli(
            capsys, "plan", "--app", "LAMMPS", "--processes", "32", "--kappa", "2"
        )
        assert code == 0
        assert "LAMMPS" in out

    def test_unknown_app_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["plan", "--app", "EP"])


class TestJobsOption:
    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_backtest_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--quick", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestReplay:
    def test_replay_reports_statistics(self, capsys):
        code, out = run_cli(
            capsys,
            "replay",
            "--app",
            "BT",
            "--samples",
            "30",
            "--kappa",
            "2",
        )
        assert code == 0
        assert "replays" in out and "deadline misses" in out

    def test_persistent_semantics_flag(self, capsys):
        code, out = run_cli(
            capsys,
            "replay",
            "--app",
            "BT",
            "--samples",
            "20",
            "--kappa",
            "2",
            "--semantics",
            "persistent",
        )
        assert code == 0
        assert "persistent" in out


class TestMarkets:
    def test_lists_twelve_markets(self, capsys):
        code, out = run_cli(capsys, "markets", "--days", "3")
        assert code == 0
        assert out.count("us-east-1") == 12


class TestExportAndHistory:
    def test_export_then_reuse(self, capsys, tmp_path):
        path = tmp_path / "hist.json"
        code, out = run_cli(capsys, "export-history", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro.spot-history.v1"
        assert len(doc["markets"]) == 12
        # plan against the exported history
        code, out = run_cli(
            capsys, "plan", "--app", "BT", "--history", str(path), "--kappa", "2"
        )
        assert code == 0
        assert "expected cost" in out


class TestArtifactsVerb:
    def test_stats_then_clear(self, capsys, tmp_path):
        import numpy as np

        from repro.execution.artifacts import ArtifactStore

        store = ArtifactStore(tmp_path)
        store.save("planner", "aa" + "0" * 62, {"x": np.zeros(4)})
        code, out = run_cli(capsys, "artifacts", "--dir", str(tmp_path))
        assert code == 0
        assert "1 artifact(s)" in out
        assert "planner" in out
        code, out = run_cli(capsys, "artifacts", "--dir", str(tmp_path), "--clear")
        assert code == 0
        assert "cleared 1 artifact(s)" in out
        assert "0 artifact(s), 0 bytes" in out

    def test_evict_down_to_max_bytes(self, capsys, tmp_path):
        import numpy as np

        from repro.execution.artifacts import ArtifactStore

        store = ArtifactStore(tmp_path)
        for i in range(3):
            store.save("kernel", f"{i:02x}" + "0" * 62, {"x": np.zeros(16)})
        code, out = run_cli(
            capsys, "artifacts", "--dir", str(tmp_path), "--max-bytes", "0"
        )
        assert code == 0
        assert "evicted 3 artifact(s)" in out

    def test_disabled_store_reports_and_fails(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", "")
        code, out = run_cli(capsys, "artifacts")
        assert code == 1
        assert "disabled" in out
