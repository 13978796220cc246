import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import qmht
from qmht.chernoff import multiple_qcb
from qmht.cli import CSV_COLUMNS, load_scenario, main, render_json
from qmht.detectors import epsilon_detector, evaluate_errors, gs_detector, holevo_helstrom
from qmht.errors import NumericalConsistencyError, ScenarioError
from qmht.linalg import DENSE_LIMIT_ENV, DensityMatrix
from qmht.sampling import random_density_matrix, random_pure_state
from qmht.tensorlab import run_power_experiment
from conftest import diagonal, pure

SQ = 1.0 / math.sqrt(2.0)
SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")
PINNED_REPORTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
BUNDLED = sorted(f[: -len(".json")] for f in os.listdir(SCENARIOS) if f.endswith(".json"))


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
        assert capsys.readouterr().err == "error: states must share one dimension\n"

    @pytest.mark.parametrize(
        "state",
        [
            {"kind": "diagonal", "probs": [None, 1.0]},
            {"kind": "diagonal", "probs": [math.inf, 0.5]},
            {"kind": "dense", "real": [[None, 0.0], [0.0, 1.0]], "imag": [[0.0, 0.0], [0.0, 0.0]]},
            {"kind": "pure", "vector": [[math.nan, 0.0], [1.0, 0.0]]},
            # a JSON string or bool is not a number, and probs is a flat list
            {"kind": "diagonal", "probs": ["0.5", "0.5"]},
            {"kind": "diagonal", "probs": [True, False]},
            {"kind": "diagonal", "probs": [[0.5, 0.5]]},
            {"kind": "dense", "real": [["0.5", "0"], ["0", "0.5"]], "imag": [[0, 0], [0, 0]]},
            {"kind": "dense", "real": [[0.5, 0], [0, 0.5]], "imag": [[0, False], [False, 0]]},
            # an integer past the float range is non-finite, not an OverflowError
            {"kind": "diagonal", "probs": [10**400, 1]},
        ],
    )
    def test_non_finite_state_entry_exit_2(self, tmp_path, capsys, state):
        scen = write_scenario(
            tmp_path / "s.json",
            states=[state, {"kind": "diagonal", "probs": [0.5, 0.5]}],
            detectors=["gs"],
        )
        out = tmp_path / "r.csv"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert "error: state 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("vector", [[["1", "0"], ["0", "0"]], [[True, False], [False, False]]])
    def test_non_number_pure_vector_entry_exit_2(self, tmp_path, capsys, vector):
        # never read as float("1") or float(True)
        scen = write_scenario(
            tmp_path / "s.json",
            states=[
                {"kind": "pure", "vector": vector},
                {"kind": "pure", "vector": [[SQ, 0.0], [SQ, 0.0]]},
            ],
        )
        out = tmp_path / "r.csv"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 2
        assert "error: state 1: entry 0 is not a numeric [re, im] pair" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_pure_vector_entry_exit_2(self, tmp_path, capsys):
        scen = write_scenario(
            tmp_path / "s.json",
            states=[
                {"kind": "pure", "vector": [[None, 0.0], [1.0, 0.0]]},
                {"kind": "pure", "vector": [[SQ, 0.0], [SQ, 0.0]]},
            ],
        )
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 2
        assert "entry 0 is not a numeric [re, im] pair" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", [[math.inf, 0.0], [0.0, -math.inf], [math.nan, 0.0], [0, -(10**400)]]
    )
    def test_non_finite_pure_vector_entry_names_the_state(self, tmp_path, capsys, entry):
        # Infinity used to reach the renormalization, inf / inf
        scen = write_scenario(
            tmp_path / "s.json",
            states=[
                {"kind": "pure", "vector": [[SQ, 0.0], [SQ, 0.0]]},
                {"kind": "pure", "vector": [[1.0, 0.0], entry]},
            ],
        )
        out = tmp_path / "r.csv"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: state 2: entry 1 is non-finite" in err
        assert "renormalizing" not in err
        assert not out.exists()

    def test_dense_limit_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DENSE_LIMIT_ENV, "4")
        scen = write_scenario(tmp_path / "s.json", n_max=5)
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 3

    def test_multiplicity_past_the_float_range_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(DENSE_LIMIT_ENV, str(10**400))
        states = [{"kind": "diagonal", "probs": p} for p in ([0.9, 0.1], [0.3, 0.7])]
        scen = write_scenario(
            tmp_path / "s.json", states=states, n_min=1100, n_max=1100, detectors=["classical-ml"]
        )
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 3
        assert "at n = 1100 exceeds the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", [100000, 1e300])
    def test_far_dense_limit_exit_3_at_once(self, tmp_path, capsys, monkeypatch, n_max):
        # the smallest n over the cap is found from the range's bounds, with
        # no power per n and no walk over the range
        monkeypatch.delenv(DENSE_LIMIT_ENV, raising=False)
        scen = write_scenario(tmp_path / "s.json", detectors=["gs", "helstrom"], n_max=n_max)
        start = time.perf_counter()
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 3
        assert time.perf_counter() - start < 1.0
        assert "error: 2**15 exceeds the dense limit 16384" in capsys.readouterr().err

    def test_far_sweep_of_one_by_one_states_exit_2_at_once(self, tmp_path, capsys):
        one = {"kind": "pure", "vector": [[1, 0]]}
        scen = write_scenario(
            tmp_path / "s.json", states=[one, one], detectors=["gs"], n_max=1e300
        )
        start = time.perf_counter()
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 2
        assert time.perf_counter() - start < 1.0
        assert "error: states 0 and 1 are duplicates" in capsys.readouterr().err

    def test_one_sweep_per_run(self, tmp_path, monkeypatch):
        import qmht.cli

        calls = []
        plain = qmht.cli.run_power_experiment

        def counting(states, n_range, *kinds, **options):
            calls.append(kinds)
            return plain(states, n_range, *kinds, **options)

        monkeypatch.setattr(qmht.cli, "run_power_experiment", counting)
        kinds = ["epsilon", "gs", "helstrom"]
        scen = write_scenario(tmp_path / "s.json", detectors=kinds, n_max=3)
        out = tmp_path / "r.csv"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
        assert calls == [tuple(kinds)]
        _, rows = parse_csv(out.read_text())
        assert [row["detector"] for row in rows] == [kind for kind in kinds for _ in range(3)]

    def test_epsilon_override_below_floor_exit_2(self, tmp_path, capsys, monkeypatch):
        import qmht.cli

        def sweep(*args, **kwargs):
            raise AssertionError("no sweep may run for a rejected scenario")

        monkeypatch.setattr(qmht.cli, "run_power_experiment", sweep)
        scen = write_scenario(
            tmp_path / "s.json", detectors=["gs", "epsilon"], epsilon_override=1e-4
        )
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 2
        assert "epsilon_override: epsilon must lie in" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.3", True, False])
    def test_epsilon_override_must_be_a_json_number(self, tmp_path, capsys, monkeypatch, value):
        # a string or a bool is rejected as given, never read as float(value)
        import qmht.cli

        def sweep(*args, **kwargs):
            raise AssertionError("no sweep may run for a rejected scenario")

        monkeypatch.setattr(qmht.cli, "run_power_experiment", sweep)
        scen = write_scenario(
            tmp_path / "s.json", detectors=["gs", "epsilon"], epsilon_override=value
        )
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 2
        expected = f"error: epsilon_override must be a number, got {value!r}"
        assert expected in capsys.readouterr().err

    def test_integral_epsilon_override_is_a_number(self, tmp_path, capsys):
        # a JSON integer is a number; 0 then fails the embedding guard
        scen = write_scenario(tmp_path / "s.json", detectors=["epsilon"], epsilon_override=0)
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 2
        assert "epsilon_override: epsilon must lie in" in capsys.readouterr().err

    def test_invalid_combination_exit_2(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", detectors=["classical-ml"])
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 2

    def test_bad_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "r.csv")]) == 2

    def test_report_schema_version_is_not_a_scenario_version(self, tmp_path, capsys):
        # version 2 is the JSON report's; a scenario file is version 1
        scen = write_scenario(tmp_path / "s.json", schema_version=2)
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 2
        assert "unsupported schema_version 2" in capsys.readouterr().err

    def test_unknown_detector_kind_exit_2(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json", detectors=["magic"])
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == "error: unknown detector kind 'magic'\n"

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("many", "QMHT_DENSE_LIMIT must be an integer, got 'many'"),
            ("1e6", "QMHT_DENSE_LIMIT must be an integer, got '1e6'"),
            ("0", "QMHT_DENSE_LIMIT must be positive, got 0"),
            ("-16", "QMHT_DENSE_LIMIT must be positive, got -16"),
        ],
    )
    def test_unreadable_dense_limit_exit_2(self, tmp_path, capsys, monkeypatch, raw, message):
        monkeypatch.setenv(DENSE_LIMIT_ENV, raw)
        scen = write_scenario(tmp_path / "s.json")
        out = tmp_path / "r.csv"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_numerical_consistency_error_exit_4(self, tmp_path, capsys, monkeypatch):
        import qmht.cli

        def failing(*args, **options):
            raise NumericalConsistencyError("frame rows are not orthonormal")

        monkeypatch.setattr(qmht.cli, "run_power_experiment", failing)
        scen = write_scenario(tmp_path / "s.json")
        out = tmp_path / "r.csv"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 4
        assert capsys.readouterr().err == "error: frame rows are not orthonormal\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("seed", [1]), ("seed", {"a": 1}), ("epsilon_override", [0.3])],
    )
    def test_non_numeric_option_exit_2(self, tmp_path, capsys, key, value):
        scen = write_scenario(tmp_path / "s.json", **{key: value})
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_min": 1.9, "n_max": 2.7},
            {"n_max": 2.7},
            {"n_max": True},
            {"n_min": True},
            {"seed": 7.5},
            {"seed": False},
        ],
    )
    def test_non_integral_option_exit_2(self, tmp_path, capsys, overrides):
        scen = write_scenario(tmp_path / "s.json", **overrides)
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.csv")]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_integral_float_option_runs(self, tmp_path):
        scen = write_scenario(tmp_path / "s.json", n_max=2.0, seed=7.0)
        out = tmp_path / "r.csv"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
        _, rows = parse_csv(out.read_text())
        assert [row["n"] for row in rows] == ["1", "2"]

    def test_duplicate_detector_kind_exit_2_before_sweep(self, tmp_path, capsys, monkeypatch):
        import qmht.cli

        def sweep(*args, **kwargs):
            raise AssertionError("no sweep may run for a rejected scenario")

        monkeypatch.setattr(qmht.cli, "run_power_experiment", sweep)
        scen = write_scenario(tmp_path / "s.json", detectors=["gs", "helstrom", "gs"])
        out = tmp_path / "r.csv"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 2
        assert "'gs' is listed twice" in capsys.readouterr().err
        assert not out.exists()

    def test_json_round_trip_matches_in_memory_report(self, tmp_path):
        from qmht.cli import load_scenario
        from qmht.tensorlab import run_power_experiment

        scen = write_scenario(
            tmp_path / "s.json", detectors=["gs", "helstrom"], n_max=3
        )
        out = tmp_path / "report.json"
        main(["run", "--scenario", str(scen), "--out", str(out), "--format", "json"])
        payload = json.loads(out.read_text())
        # the report schema is 2 (it dropped keys) while scenarios stay at 1
        assert payload["schema_version"] == 2
        assert set(payload) == {"schema_version", "qcb", "rows"}
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
            # report schema 2: each row carries the CSV columns and no more
            assert set(row) == set(CSV_COLUMNS)
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


def dumped_report(report):
    """The JSON report as the json module writes its payload:
    ``json.dumps(payload, indent=2, allow_nan=False)`` and a newline, with the
    payload built field by field (None as null, an infinite bound, exponent,
    xi, lambda_min_gram or epsilon as "inf"), the oracle of ``render_json``."""

    def number(value):
        if value is None:
            return None
        if math.isinf(value):
            return "inf"
        return float(value)

    qcb = report.qcb
    pair = [qcb.argmin_pair[0] + 1, qcb.argmin_pair[1] + 1]
    payload = {
        "schema_version": 2,
        "qcb": {
            "xi": number(qcb.xi),
            "argmin_pair": pair,
            "pairwise": [
                {
                    "pair": [i + 1, j + 1],
                    "xi": number(res.xi),
                    "s_star": res.s_star,
                    "q_star": res.q_star,
                }
                for (i, j), res in sorted(qcb.pairwise.items())
            ],
        },
        "rows": [
            {
                "n": row.n,
                "detector": row.detector,
                "err": row.err,
                "exponent": number(row.exponent),
                "lemma3_bound": number(row.error_bound),
                "lambda_min_gram": number(row.lambda_min_gram),
                "epsilon": number(row.epsilon),
                "qcb_xi": number(qcb.xi),
                "qcb_pair": pair,
            }
            for row in report.rows
        ],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


class TestJsonTemplate:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_reports_equal_the_dumped_payload(self, name, tmp_path):
        path = os.path.join(SCENARIOS, f"{name}.json")
        scenario = load_scenario(path)
        report = run_power_experiment(
            scenario.states,
            range(scenario.n_min, scenario.n_max + 1),
            *scenario.detectors,
            epsilon_override=scenario.epsilon_override,
        )
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", path, "--out", str(out), "--format", "json"]) == 0
        assert out.read_text(encoding="utf-8") == render_json(report) == dumped_report(report)

    @staticmethod
    def random_reports(rng):
        """Reports of aligned, pure and block families with r = 2 and 3, one
        with no rows, and twenty copies of one report with its fields set at
        random to inf, -inf, None or floats of every size."""
        every = ("gs", "epsilon", "helstrom", "classical-ml")
        for r in (2, 3):
            kinds = every if r == 2 else every[:2]
            aligned = [diagonal(rng.dirichlet(np.ones(3))) for _ in range(r)]
            pure = [random_pure_state(3, rng) for _ in range(r)]
            block = [random_density_matrix(2, rng) for _ in range(r)]
            yield run_power_experiment(aligned, range(1, 5), *kinds[:2], *kinds[3:])
            yield run_power_experiment(pure, range(1, 4), *kinds[:3])
            yield run_power_experiment(block, range(1, 4), *kinds[:3])
        # an orthogonal pair: err 0, an inf exponent and an inf xi
        yield run_power_experiment([diagonal([1.0, 0.0]), diagonal([0.0, 1.0])], [1, 2], "gs")
        pair = [diagonal([0.6, 0.4]), diagonal([0.3, 0.7])]
        base = run_power_experiment(pair, range(1, 4), "gs", "epsilon", "helstrom")
        yield dataclasses.replace(base, rows=[])

        def scalar():
            sign = rng.choice([-1.0, 1.0])
            return float(sign * rng.uniform(1.0, 10.0) * 10.0 ** rng.integers(-320, 300))

        def field():
            return [None, math.inf, -math.inf, scalar(), 0.0, 1.0][rng.integers(6)]

        for _ in range(20):
            rows = [
                dataclasses.replace(
                    row, err=scalar(), exponent=field(), error_bound=field(),
                    lambda_min_gram=field(), epsilon=field(),
                )
                for row in base.rows
            ]
            pairwise = {
                pair: dataclasses.replace(res, xi=field() or 0.5, s_star=scalar(), q_star=scalar())
                for pair, res in base.qcb.pairwise.items()
            }
            qcb = dataclasses.replace(base.qcb, xi=field() or 0.5, pairwise=pairwise)
            yield dataclasses.replace(base, rows=rows, qcb=qcb)

    def test_random_reports_equal_the_dumped_payload(self):
        rng = np.random.default_rng(33)
        reports = list(self.random_reports(rng))
        assert len(reports) == 28
        kinds = {row.detector for report in reports for row in report.rows}
        assert kinds == {"gs", "epsilon", "helstrom", "classical-ml"}
        for report in reports:
            assert render_json(report) == dumped_report(report)
        # every field that may be unset or infinite was written both ways
        for name in ("exponent", "error_bound", "lambda_min_gram", "epsilon"):
            fields = [getattr(row, name) for report in reports for row in report.rows]
            assert None in fields and math.inf in fields and -math.inf in fields, name

    @pytest.mark.parametrize(
        ("where", "value"),
        [
            ("err", math.nan),
            ("err", math.inf),
            ("exponent", math.nan),
            ("s_star", math.nan),
            ("q_star", -math.inf),
        ],
    )
    def test_non_finite_raw_floats_raise_as_json_dumps_does(
        self, where, value, tmp_path, monkeypatch, capsys
    ):
        import qmht.cli

        report = run_power_experiment([diagonal([0.6, 0.4]), diagonal([0.3, 0.7])], [1, 2], "gs")
        if where in ("s_star", "q_star"):
            qcb = report.qcb
            pairwise = {
                pair: dataclasses.replace(res, **{where: value})
                for pair, res in qcb.pairwise.items()
            }
            report = dataclasses.replace(report, qcb=dataclasses.replace(qcb, pairwise=pairwise))
        else:
            row = dataclasses.replace(report.rows[0], **{where: value})
            report = dataclasses.replace(report, rows=[row])
        with pytest.raises(ValueError) as dumped:
            dumped_report(report)
        with pytest.raises(ValueError, match=re.escape(str(dumped.value))):
            render_json(report)
        # so `qmht run` still exits 2 and writes no report
        monkeypatch.setattr(qmht.cli, "run_power_experiment", lambda *args, **options: report)
        scen = write_scenario(tmp_path / "s.json", detectors=["gs"])
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", str(scen), "--out", str(out), "--format", "json"]) == 2
        assert capsys.readouterr().err == f"error: {dumped.value}\n"
        assert not out.exists()


class TestOneBoundPerRun:
    KINDS = ["gs", "helstrom", "classical-ml", "epsilon"]
    STATES = [
        {"kind": "diagonal", "probs": [0.6, 0.3, 0.1]},
        {"kind": "diagonal", "probs": [0.2, 0.3, 0.5]},
    ]

    @staticmethod
    def counted_bounds(monkeypatch):
        # every Chernoff bound, whichever function asks for it, builds the
        # supports of its family once: one call per bound, with its size
        import qmht.chernoff

        calls = []
        plain = qmht.chernoff._supports

        def counting(states):
            calls.append(len(states))
            return plain(states)

        monkeypatch.setattr(qmht.chernoff, "_supports", counting)
        return calls

    def test_run_computes_one_bound(self, tmp_path, monkeypatch):
        from qmht.tensorlab import run_power_experiment

        calls = self.counted_bounds(monkeypatch)
        scen = write_scenario(
            tmp_path / "s.json", states=self.STATES, detectors=self.KINDS, n_max=4
        )
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", str(scen), "--out", str(out), "--format", "json"]) == 0
        assert calls == [2]

        states = load_scenario(str(scen)).states
        separate = [
            row
            for kind in self.KINDS
            for row in run_power_experiment(states, range(1, 5), kind).rows
        ]
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == len(separate)
        for row, expected in zip(rows, separate):
            assert (row["n"], row["detector"]) == (expected.n, expected.detector)
            for key, value in (
                ("err", expected.err),
                ("exponent", expected.exponent),
                ("lemma3_bound", expected.error_bound),
                ("lambda_min_gram", expected.lambda_min_gram),
                ("epsilon", expected.epsilon),
            ):
                if value is None:
                    assert row[key] is None
                else:
                    assert abs(row[key] - value) <= 1e-15 * max(1.0, abs(value))

    def test_classical_ml_bound_is_the_overlap_sum(self, monkeypatch):
        from qmht.tensorlab import run_power_experiment

        calls = self.counted_bounds(monkeypatch)
        states = [diagonal(spec["probs"]) for spec in self.STATES]
        report = run_power_experiment(states, range(1, 5), "classical-ml")
        assert calls == [2]
        # classical-ml bound = 2 sum_pairs q_star^n / r, from the bound computed
        q_star = report.qcb.pairwise[(0, 1)].q_star
        assert 0.0 < q_star < 1.0
        assert [row.error_bound for row in report.rows] == [
            2.0 * q_star**n / 2 for n in range(1, 5)
        ]


class TestOneChernoffRule:
    """``qmht run``, ``qmht chernoff`` and the API read a family's bound by
    one rule: exactly diagonal states off their diagonals, any other state,
    however nearly diagonal, off an eigensolve."""

    @staticmethod
    def counted_eigensolves(monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            plain = getattr(np.linalg, name)

            def counting(mat, *args, plain=plain, **kwargs):
                calls.append(np.shape(mat))
                return plain(mat, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        return calls

    def test_a_diagonal_scenario_takes_no_eigensolve(self, tmp_path, monkeypatch):
        calls = self.counted_eigensolves(monkeypatch)
        for name, decomposed in (("commuting_pair", False), ("mixed_qubit_pair", True)):
            calls.clear()
            path = os.path.join(SCENARIOS, f"{name}.json")
            assert main(["run", "--scenario", path, "--out", str(tmp_path / "r.csv")]) == 0
            assert bool(calls) == decomposed, (name, calls)

    def test_a_pure_pair_with_a_rounding_level_coherence_keeps_its_bound(
        self, tmp_path, capsys
    ):
        # |0> and (1e-17, 1): the off-diagonal entry 1e-17 commutes to
        # rounding but keeps the spectra, where q* = 1e-34
        states = [pure([1.0, 0.0]), pure([1e-17, 1.0])]
        xi = 78.28789316179756
        assert multiple_qcb(states).xi == xi
        assert run_power_experiment(states, [1, 2], "helstrom").qcb.xi == xi
        scen = write_scenario(
            tmp_path / "s.json",
            states=[
                {"kind": "pure", "vector": [[1.0, 0.0], [0.0, 0.0]]},
                {"kind": "pure", "vector": [[1e-17, 0.0], [1.0, 0.0]]},
            ],
        )
        assert main(["chernoff", "--scenario", str(scen)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "minimum: xi=78.2878931618 at pair (1,2)"


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

    def test_q_star_rounding_to_one_prints_zero_xi(self, tmp_path, capsys):
        # a nearly parallel pure pair: q* rounds to 1, and xi once printed -0
        scen = write_scenario(
            tmp_path / "s.json",
            states=[
                {"kind": "pure", "vector": [[1.0, 0.0], [1e-9, 0.0]]},
                {"kind": "pure", "vector": [[1.0, 0.0], [-1e-9, 0.0]]},
            ],
        )
        assert main(["chernoff", "--scenario", str(scen)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "minimum: xi=0 at pair (1,2)"
        for fmt in ("csv", "json"):
            out = tmp_path / f"report.{fmt}"
            assert main(["run", "--scenario", str(scen), "--out", str(out), "--format", fmt]) == 0
        row = out.with_suffix(".csv").read_text().splitlines()[1].split(",")
        assert row[CSV_COLUMNS.index("qcb_xi")] == "0"
        report = json.loads(out.read_text())
        assert math.copysign(1.0, report["qcb"]["xi"]) == 1.0
        assert math.copysign(1.0, report["rows"][0]["qcb_xi"]) == 1.0


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


class TestStateLoading:
    @pytest.mark.parametrize(
        "state, message, expected",
        [
            (
                {"kind": "pure", "vector": [[0.6, 0.0], [0.0, 0.6]]},
                "vector with norm 0.848528137424",
                [[0.5, -0.5j], [0.5j, 0.5]],
            ),
            (
                {"kind": "diagonal", "probs": [0.2, 0.6]},
                "probabilities with sum 0.8",
                [[0.25, 0.0], [0.0, 0.75]],
            ),
            (
                {
                    "kind": "dense",
                    "real": [[0.3, 0.1], [0.1, 0.5]],
                    "imag": [[0.0, 0.2], [-0.2, 0.0]],
                },
                "matrix with trace 0.8",
                [[0.375, 0.125 + 0.25j], [0.125 - 0.25j, 0.625]],
            ),
        ],
    )
    def test_each_kind_warns_and_renormalizes(self, tmp_path, capsys, state, message, expected):
        scen = write_scenario(tmp_path / "s.json", states=[state, state])
        states = load_scenario(str(scen)).states
        warnings = capsys.readouterr().err.splitlines()
        assert warnings == [f"warning: state {k}: renormalizing {message}" for k in (1, 2)]
        for rho in states:
            assert np.abs(rho.mat - np.array(expected)).max() <= 1e-15

    def test_small_deviations_are_divided_without_a_warning(self, tmp_path, capsys):
        scen = write_scenario(
            tmp_path / "s.json",
            states=[
                {"kind": "diagonal", "probs": [0.5, 0.5 + 1e-9]},
                {"kind": "diagonal", "probs": [0.5, 0.5 + 1e-16]},
            ],
        )
        states = load_scenario(str(scen)).states
        assert capsys.readouterr().err == ""
        probs = np.array([0.5, 0.5 + 1e-9])
        assert np.array_equal(np.diag(states[0].mat).real, probs / probs.sum())
        assert states[1].mat[1, 1] == 0.5 + 1e-16

    @pytest.mark.parametrize(
        "state, unit, message",
        [
            # unscaled, the norm's squares overflow, and underflow
            (
                {"kind": "pure", "vector": [[1e200, 0.0], [0.0, 1e200]]},
                {"kind": "pure", "vector": [[SQ, 0.0], [0.0, SQ]]},
                "vector with norm 1.41421356237e+200",
            ),
            (
                {"kind": "pure", "vector": [[1e-200, 0.0], [0.0, -1e-200]]},
                {"kind": "pure", "vector": [[SQ, 0.0], [0.0, -SQ]]},
                "vector with norm 1.41421356237e-200",
            ),
            # a sum past the float range is printed at its power-of-two scale
            (
                {"kind": "diagonal", "probs": [6e307, 1.4e308]},
                {"kind": "diagonal", "probs": [0.3, 0.7]},
                "probabilities with sum 1.11253692925 * 2^1024",
            ),
            (
                {
                    "kind": "dense",
                    "real": [[6e307, 0.0, 0.0], [0.0, 8e307, 0.0], [0.0, 0.0, 8e307]],
                    "imag": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                },
                {"kind": "diagonal", "probs": [3 / 11, 4 / 11, 4 / 11]},
                "matrix with trace 2.44758124436 * 2^1023",
            ),
            # entries past half the float range: A + A^H would overflow
            (
                {
                    "kind": "dense",
                    "real": [[1.2e308, 0.0], [0.0, 6e307]],
                    "imag": [[0.0, 0.0], [0.0, 0.0]],
                },
                {"kind": "diagonal", "probs": [2 / 3, 1 / 3]},
                "matrix with trace 1.00128323633 * 2^1024",
            ),
        ],
    )
    def test_far_scales_load_as_the_unit_scale(self, tmp_path, capsys, state, unit, message):
        scen = write_scenario(tmp_path / "s.json", states=[state, unit])
        far, near = load_scenario(str(scen)).states
        assert capsys.readouterr().err == f"warning: state 1: renormalizing {message}\n"
        assert np.abs(far.mat - near.mat).max() <= 1e-15

    @pytest.mark.parametrize(
        "state, tail",
        [
            ([0.5, 0.5], ": expected an object"),
            ({"probs": [0.5, 0.5]}, ": unknown state kind None"),
            ({"kind": "mixed", "probs": [0.5, 0.5]}, ": unknown state kind 'mixed'"),
            ({"kind": "pure", "vector": []}, ": expected a nonempty list of [re, im] pairs"),
            ({"kind": "pure", "vector": "1, 0"}, ": expected a nonempty list of [re, im] pairs"),
            ({"kind": "pure", "vector": [[1.0, 0.0, 0.0], [0.0, 0.0]]},
             ": entry 0 is not a [re, im] pair"),
            ({"kind": "pure", "vector": [[1.0, 0.0], 0.0]}, ": entry 1 is not a [re, im] pair"),
            ({"kind": "pure", "vector": [[0.0, 0.0], [0.0, 0.0]]}, ": zero vector"),
            ({"kind": "diagonal", "probs": 0.5}, ": expected a nonempty list of numbers"),
            ({"kind": "diagonal", "probs": []}, ": expected a nonempty list of numbers"),
            ({"kind": "diagonal", "probs": [-0.1, 1.1]}, ": negative probability"),
            ({"kind": "diagonal", "probs": [0.0, 0.0]}, ": probabilities sum to zero"),
            # a rounding below 0 counts as 0, and the rest still sums to 0
            ({"kind": "diagonal", "probs": [-1e-13, 0.0]}, ": probabilities sum to zero"),
            ({"kind": "dense", "real": [[0.5, 0.0]], "imag": [[0.0, 0.0], [0.0, 0.0]]},
             " (real part): expected a nonempty square list of rows"),
            ({"kind": "dense", "real": [[0.5, 0.0], [0.0, 0.5]], "imag": None},
             " (imag part): expected a nonempty square list of rows"),
            ({"kind": "dense", "real": [[0.5, 0.0], [0.0, 0.5]], "imag": [[0.0]]},
             ": real and imag shapes differ"),
            ({"kind": "dense", "real": [[0.5, 0.1], [0.0, 0.5]], "imag": [[0.0, 0.0], [0.0, 0.0]]},
             ": matrix is not Hermitian: max asymmetry 1.000e-01"),
            ({"kind": "dense", "real": [[0.0, 0.0], [0.0, 0.0]], "imag": [[0.0, 0.0], [0.0, 0.0]]},
             ": nonpositive trace"),
            ({"kind": "dense", "real": [[-0.5, 0.0], [0.0, -0.5]], "imag": [[0.0, 0.0], [0.0, 0.0]]},
             ": nonpositive trace"),
            ({"kind": "dense", "real": [[1.5, 0.0], [0.0, -0.5]], "imag": [[0.0, 0.0], [0.0, 0.0]]},
             ": matrix has negative eigenvalue -5.000e-01"),
        ],
    )
    def test_malformed_state_exit_2_naming_it(self, tmp_path, capsys, state, tail):
        scen = write_scenario(
            tmp_path / "s.json", states=[{"kind": "diagonal", "probs": [0.5, 0.5]}, state]
        )
        out = tmp_path / "r.csv"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: state 2{tail}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"states": []}, "scenario needs a nonempty states list"),
            ({"states": {"kind": "diagonal", "probs": [1.0]}}, "scenario needs a nonempty states list"),
            ({"n_min": 3, "n_max": 2}, "need 1 <= n_min <= n_max, got 3..2"),
            ({"n_min": 0}, "need 1 <= n_min <= n_max, got 0..1"),
            ({"detectors": []}, "scenario needs a nonempty detectors list"),
            ({"detectors": "gs"}, "scenario needs a nonempty detectors list"),
        ],
    )
    def test_malformed_scenario_exit_2(self, tmp_path, capsys, overrides, message):
        scen = write_scenario(tmp_path / "s.json", **overrides)
        assert load_scenario_error(scen) == message
        out = tmp_path / "r.csv"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unreadable_scenario_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["chernoff", "--scenario", str(missing)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        assert main(["chernoff", "--scenario", str(listed)]) == 2
        assert capsys.readouterr().err == "error: scenario root must be an object\n"

    @pytest.mark.parametrize("command", ["run", "chernoff", "check-li"])
    def test_one_state_exit_2(self, tmp_path, capsys, command):
        one = [{"kind": "diagonal", "probs": [0.5, 0.5]}]
        scen = write_scenario(tmp_path / "s.json", states=one)
        argv = [command, "--scenario", str(scen)]
        if command == "run":
            argv += ["--out", str(tmp_path / "r.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {command} needs at least two states\n"


def load_scenario_error(path) -> str:
    """The message of the ScenarioError that ``load_scenario`` raises."""
    with pytest.raises(ScenarioError) as raised:
        load_scenario(str(path))
    return str(raised.value)


def _same_field(mine: str, pinned: str) -> bool:
    """Printed fields agree exactly, or as numbers to 1e-11 relative."""
    if mine == pinned:
        return True
    if "" in (mine, pinned):
        return False
    return math.isclose(float(mine), float(pinned), rel_tol=1e-11, abs_tol=0.0)


class TestBundledScenarios:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_report_matches_pinned_csv(self, name, tmp_path):
        # tests/data pins every printed field of each bundled report; change
        # a pin only with a stated reason. 1e-11 relative lets a 12-digit
        # rounding tie (pure_pair helstrom n = 8) fall either way across
        # BLAS builds
        out = tmp_path / "report.csv"
        path = os.path.join(SCENARIOS, f"{name}.json")
        assert main(["run", "--scenario", path, "--out", str(out), "--format", "csv"]) == 0
        header, rows = parse_csv(out.read_text())
        with open(os.path.join(PINNED_REPORTS, f"{name}.csv"), encoding="utf-8") as handle:
            pinned_header, pinned = parse_csv(handle.read())
        assert header == pinned_header
        keys = [(row["n"], row["detector"], row["qcb_pair"]) for row in rows]
        assert keys == [(row["n"], row["detector"], row["qcb_pair"]) for row in pinned]
        for mine, ref in zip(rows, pinned):
            for key in header:
                assert _same_field(mine[key], ref[key]), (mine["n"], mine["detector"], key)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_chernoff_matches_pinned_stdout(self, name, capsys):
        # tests/data/<name>_chernoff.txt pins the whole `qmht chernoff` output
        path = os.path.join(SCENARIOS, f"{name}.json")
        assert main(["chernoff", "--scenario", path]) == 0
        with open(os.path.join(PINNED_REPORTS, f"{name}_chernoff.txt"), "rb") as handle:
            assert capsys.readouterr().out.encode("utf-8") == handle.read()

    @pytest.mark.parametrize("name", BUNDLED)
    def test_chernoff_prints_s_star_to_six_digits(self, name, capsys):
        # s* is fixed to about 1e-12 but printed to six significant digits
        path = os.path.join(SCENARIOS, f"{name}.json")
        assert main(["chernoff", "--scenario", path]) == 0
        printed = re.findall(r"s\*=(\S+)", capsys.readouterr().out)
        r = len(load_scenario(path).states)
        assert len(printed) == r * (r - 1) // 2
        for text in printed:
            mantissa = text.split("e")[0].replace(".", "").lstrip("0")
            assert len(mantissa) <= 6, text

    @staticmethod
    def dense_report_rows(tmp_path, name, detectors, n_max, dense_max=None):
        """The scenario's JSON rows up to n = ``dense_max`` (default n_max),
        each with its dense Kronecker-power error."""
        path = os.path.join(SCENARIOS, f"{name}.json")
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", path, "--out", str(out), "--format", "json"]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [(row["n"], row["detector"]) for row in rows] == [
            (n, kind) for kind in detectors for n in range(1, n_max + 1)
        ]
        states = load_scenario(path).states
        for row in rows:
            if row["n"] > (dense_max or n_max):
                continue
            powered = [
                DensityMatrix(functools.reduce(np.kron, [rho.mat] * row["n"]))
                for rho in states
            ]
            if row["detector"] == "gs":
                det, _ = gs_detector(powered)
            elif row["detector"] == "epsilon":
                det, _ = epsilon_detector(powered, row["epsilon"])
            else:
                det = holevo_helstrom(*powered)
            yield row, evaluate_errors(powered, det).averaged

    def test_mixed_qubit_pair_matches_dense_kronecker_powers(self, tmp_path):
        rows = self.dense_report_rows(tmp_path, "mixed_qubit_pair", ("gs", "helstrom"), 7)
        for row, dense in rows:
            assert abs(row["err"] - dense) < 1e-10

    def test_mixed_qutrit_pair_matches_dense_kronecker_powers(self, tmp_path):
        # a full-rank non-commuting qutrit pair: gs, epsilon and helstrom all
        # run the Gelfand-Tsetlin blocks; dense powers are checked to n = 5
        rows = self.dense_report_rows(
            tmp_path, "mixed_qutrit_pair", ("gs", "epsilon", "helstrom"), 7, dense_max=5
        )
        checked = 0
        for row, dense in rows:
            assert abs(row["err"] - dense) < 1e-12
            checked += 1
        assert checked == 15

    def test_mixed_qutrit_triple_matches_dense_kronecker_powers(self, tmp_path):
        rows = self.dense_report_rows(tmp_path, "mixed_qutrit_triple", ("gs", "epsilon"), 4)
        for row, dense in rows:
            assert abs(row["err"] - dense) < 1e-12


class TestRuntimeImports:
    def test_run_loads_no_scipy(self, tmp_path):
        # the runtime needs numpy only: a fresh interpreter that imports the
        # package, runs qutrit and qubit reports on the Schur-Weyl blocks and
        # a commuting one on the type classes, and builds and scores every
        # dense detector has loaded no scipy module
        script = "\n".join([
            "import sys",
            "import numpy as np",
            "import qmht, qmht.cli",
            "from qmht import detectors",
            "from qmht.sampling import random_density_matrix",
            "for name in ('mixed_qutrit_pair', 'pure_pair', 'commuting_pair'):",
            "    scenario = f'{sys.argv[1]}/{name}.json'",
            "    out = f'{sys.argv[2]}/{name}.csv'",
            "    assert qmht.cli.main(['run', '--scenario', scenario, '--out', out]) == 0",
            "states = [random_density_matrix(4, np.random.default_rng(k)) for k in range(3)]",
            "diagonal = [qmht.DensityMatrix(np.diag(np.diag(rho.mat))) for rho in states]",
            "for family, det in [",
            "    (states, detectors.gs_detector(states)[0]),",
            "    (states, detectors.epsilon_detector(states, 0.3)[0]),",
            "    (states, detectors.pgm(states, [1 / 3] * 3)),",
            "    (states[:2], detectors.holevo_helstrom(*states[:2])),",
            "    (diagonal, detectors.bayes_commuting(diagonal)[0]),",
            "]:",
            "    detectors.evaluate_errors(family, det)",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(qmht.__file__)))
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run(
            [sys.executable, "-c", script, SCENARIOS, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
