import json
import math

import pytest

from qmht.cli import main
from qmht.linalg import DENSE_LIMIT_ENV

SQ = 1.0 / math.sqrt(2.0)


def write_scenario(path, **overrides):
    scenario = {
        "schema_version": 1,
        "states": [
            {"kind": "pure", "vector": [[1.0, 0.0], [0.0, 0.0]]},
            {"kind": "pure", "vector": [[SQ, 0.0], [SQ, 0.0]]},
        ],
        "n_min": 1,
        "n_max": 1,
        "detectors": ["helstrom"],
    }
    scenario.update(overrides)
    path.write_text(json.dumps(scenario))
    return path


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestRunCommand:
    def test_helstrom_single_row(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json")
        out = tmp_path / "report.csv"
        assert main(["run", "--scenario", str(scen), "--out", str(out), "--format", "csv"]) == 0
        header, rows = parse_csv(out.read_text())
        assert header == [
            "n", "detector", "err", "exponent", "lemma3_bound",
            "lambda_min_gram", "epsilon", "qcb_xi", "qcb_pair",
        ]
        assert len(rows) == 1
        assert abs(float(rows[0]["err"]) - 0.146446609407) < 1e-9
        assert rows[0]["qcb_pair"] == "1-2"
        assert rows[0]["lemma3_bound"] == ""

    def test_twelve_significant_digits(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", detectors=["gs"])
        out = tmp_path / "report.csv"
        main(["run", "--scenario", str(scen), "--out", str(out), "--format", "csv"])
        _, rows = parse_csv(out.read_text())
        assert rows[0]["err"] == "0.25"
        assert rows[0]["qcb_xi"] == "0.69314718056"

    def test_byte_identical_reruns(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json", detectors=["gs", "epsilon"], n_max=4, seed=7
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--scenario", str(scen), "--out", str(out1), "--format", "csv"])
        main(["run", "--scenario", str(scen), "--out", str(out2), "--format", "csv"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_renormalization_warning(self, tmp_path, capsys):
        scen = write_scenario(
            tmp_path / "s.json",
            states=[
                {"kind": "pure", "vector": [[0.999, 0.0], [0.0, 0.0]]},
                {"kind": "pure", "vector": [[SQ, 0.0], [SQ, 0.0]]},
            ],
        )
        out = tmp_path / "r.csv"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "renormalizing" in captured.err

    def test_mixed_dimensions_exit_2(self, tmp_path, capsys):
        scen = write_scenario(
            tmp_path / "s.json",
            states=[
                {"kind": "pure", "vector": [[1.0, 0.0], [0.0, 0.0]]},
                {"kind": "diagonal", "probs": [0.2, 0.3, 0.5]},
            ],
        )
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 2

    def test_dense_limit_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DENSE_LIMIT_ENV, "4")
        scen = write_scenario(tmp_path / "s.json", n_max=5)
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 3

    def test_invalid_combination_exit_2(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", detectors=["classical-ml"])
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 2

    def test_bad_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "r.csv")]) == 2

    def test_unknown_detector_kind_exit_2(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", detectors=["magic"])
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [("seed", [1]), ("seed", {"a": 1}), ("epsilon_override", [0.3])],
    )
    def test_non_numeric_option_exit_2(self, tmp_path, capsys, key, value):
        scen = write_scenario(tmp_path / "s.json", **{key: value})
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_round_trip_matches_in_memory_report(self, tmp_path):
        from qmht.cli import load_scenario
        from qmht.tensorlab import run_power_experiment

        scen = write_scenario(
            tmp_path / "s.json", detectors=["gs", "helstrom"], n_max=3
        )
        out = tmp_path / "report.json"
        main(["run", "--scenario", str(scen), "--out", str(out), "--format", "json"])
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["qcb"]["argmin_pair"] == [1, 2]

        scenario = load_scenario(str(scen))
        memory = {
            (row.n, row.detector): row
            for kind in scenario.detectors
            for row in run_power_experiment(scenario.states, range(1, 4), kind).rows
        }
        assert len(payload["rows"]) == len(memory)
        for row in payload["rows"]:
            expected = memory[(row["n"], row["detector"])]
            assert abs(row["err"] - expected.err) <= 1e-12
            assert abs(row["exponent"] - expected.exponent) <= 1e-12
            if expected.error_bound is None:
                assert row["lemma3_bound"] is None
            else:
                assert abs(row["lemma3_bound"] - expected.error_bound) <= 1e-12

    def test_json_serializes_infinity_as_string(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            states=[
                {"kind": "pure", "vector": [[1.0, 0.0], [0.0, 0.0]]},
                {"kind": "pure", "vector": [[0.0, 0.0], [1.0, 0.0]]},
            ],
            detectors=["gs"],
        )
        out = tmp_path / "report.json"
        main(["run", "--scenario", str(scen), "--out", str(out), "--format", "json"])
        payload = json.loads(out.read_text())
        assert payload["qcb"]["xi"] == "inf"
        assert payload["rows"][0]["exponent"] == "inf"


class TestChernoffCommand:
    def test_three_state_table(self, tmp_path, capsys):
        scen = write_scenario(
            tmp_path / "s.json",
            states=[
                {"kind": "pure", "vector": [[1.0, 0.0], [0.0, 0.0]]},
                {"kind": "pure", "vector": [[0.0, 0.0], [1.0, 0.0]]},
                {"kind": "pure", "vector": [[SQ, 0.0], [SQ, 0.0]]},
            ],
        )
        assert main(["chernoff", "--scenario", str(scen)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "pair (1,2): xi=inf  s*=0.5  q*=0"
        assert lines[1].startswith("pair (1,3): xi=0.69314718056")
        assert lines[2].startswith("pair (2,3): xi=0.69314718056")
        assert lines[3] == "minimum: xi=0.69314718056 at pair (1,3)"

    def test_duplicate_states_exit_2(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            states=[
                {"kind": "diagonal", "probs": [0.5, 0.5]},
                {"kind": "diagonal", "probs": [0.5, 0.5]},
            ],
        )
        assert main(["chernoff", "--scenario", str(scen)]) == 2

    def test_diagonal_endpoint_pair(self, tmp_path, capsys):
        scen = write_scenario(
            tmp_path / "s.json",
            states=[
                {"kind": "diagonal", "probs": [0.5, 0.5]},
                {"kind": "diagonal", "probs": [1.0, 0.0]},
            ],
        )
        assert main(["chernoff", "--scenario", str(scen)]) == 0
        out = capsys.readouterr().out
        assert "xi=0.69314718056" in out
        assert "s*=0" in out


class TestCheckLiCommand:
    def test_reports_witnesses(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json")
        assert main(["check-li", "--scenario", str(scen)]) == 0
        out = capsys.readouterr().out
        assert "pair (1,2): LI holds" in out
        assert "lambda_max=0.5" in out

    def test_dense_state_loading(self, tmp_path, capsys):
        scen = write_scenario(
            tmp_path / "s.json",
            states=[
                {
                    "kind": "dense",
                    "real": [[0.5, 0.0], [0.0, 0.5]],
                    "imag": [[0.0, 0.0], [0.0, 0.0]],
                },
                {"kind": "diagonal", "probs": [1.0, 0.0]},
            ],
        )
        assert main(["check-li", "--scenario", str(scen)]) == 0
        assert "LI fails" in capsys.readouterr().out
