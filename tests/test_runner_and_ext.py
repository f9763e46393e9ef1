"""Runner CLI and extension-experiment tests."""

import json

import pytest

from repro.experiments import ext_correlation, ext_semantics, runner


class TestRunner:
    def test_quick_single_experiment(self, capsys):
        code = runner.main(["--quick", "--only", "fig1", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FIG1" in out
        assert "ran 1 experiment tables" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["--only", "fig99"])

    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            runner.main(["--quick", "--only", "fig1", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_json_export(self, capsys, tmp_path):
        path = tmp_path / "results.json"
        code = runner.main(
            ["--quick", "--only", "fig2", "fig4", "--json", str(path)]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro.experiment-results.v1"
        ids = [t["experiment_id"] for t in doc["tables"]]
        assert ids == ["FIG2", "FIG4"]
        for table in doc["tables"]:
            assert len(table["columns"]) > 0
            for row in table["rows"]:
                assert len(row) == len(table["columns"])


class TestExtSemantics:
    @pytest.fixture(scope="class")
    def res(self, paper_env):
        return ext_semantics.run(paper_env, apps=("BT",), n_samples=60)

    def test_rows_cover_all_cells(self, res):
        assert len(res.rows) == 4  # 1 app x 2 deadlines x 2 semantics

    def test_persistent_not_more_expensive(self, res):
        rows = res.data["rows"]
        for dl in ("loose", "tight"):
            assert (
                rows[f"BT:{dl}:persistent"]["cost"]
                <= rows[f"BT:{dl}:single-shot"]["cost"] + 0.05
            )

    def test_persistent_not_faster(self, res):
        rows = res.data["rows"]
        for dl in ("loose", "tight"):
            assert (
                rows[f"BT:{dl}:persistent"]["time"]
                >= rows[f"BT:{dl}:single-shot"]["time"] - 0.05
            )


class TestExtCorrelation:
    def test_two_point_sweep(self, paper_env):
        res = ext_correlation.run(
            paper_env, correlations=(0.0, 1.0), n_samples=50
        )
        rows = res.data["rows"]
        assert set(rows) == {0.0, 1.0}
        # full correlation makes the single-group plan strictly worse
        assert rows[1.0]["single"] >= rows[0.0]["single"] - 0.05
        # the replicated plan keeps completing on spot
        assert rows[1.0]["replicated_done"] >= 0.8
