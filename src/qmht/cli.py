"""Scenario-driven command line front end.

Scenarios are JSON files describing the hypothesis states and the sweep;
reports come back as CSV or JSON with a fixed column set. Hypothesis indices
are printed one-based.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .chernoff import MultipleChernoffResult, multiple_qcb
from .errors import DimensionLimitError, NumericalConsistencyError, ScenarioError
from .linalg import DensityMatrix, HermitianMatrix
from .tensorlab import (
    DETECTOR_KINDS,
    ExperimentReport,
    pairwise_li_check,
    run_power_experiment,
)

SCHEMA_VERSION = 1
NORM_WARN_ATOL = 1e-8
CSV_COLUMNS = (
    "n",
    "detector",
    "err",
    "exponent",
    "lemma3_bound",
    "lambda_min_gram",
    "epsilon",
    "qcb_xi",
    "qcb_pair",
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_LIMIT = 3
EXIT_NUMERICAL = 4


@dataclass
class Scenario:
    """Parsed scenario: states, sweep range, detector kinds, and options."""

    states: list[DensityMatrix]
    n_min: int
    n_max: int
    detectors: list[str]
    epsilon_override: float | None = None


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _complex_vector(entries, where: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise ScenarioError(f"{where}: expected a nonempty list of [re, im] pairs")
    out = np.empty(len(entries), dtype=complex)
    for k, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"{where}: entry {k} is not a [re, im] pair")
        out[k] = complex(float(pair[0]), float(pair[1]))
    return out


def _real_matrix(entries, where: str) -> np.ndarray:
    try:
        mat = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: not a numeric matrix") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ScenarioError(f"{where}: expected a square matrix, got shape {mat.shape}")
    return mat


def _load_state(spec, index: int) -> DensityMatrix:
    where = f"state {index + 1}"
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where}: expected an object")
    kind = spec.get("kind")
    if kind == "pure":
        vec = _complex_vector(spec.get("vector"), where)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise ScenarioError(f"{where}: zero vector")
        if abs(norm - 1.0) > NORM_WARN_ATOL:
            _warn(f"{where}: renormalizing vector with norm {norm:.12g}")
        if abs(norm - 1.0) > 1e-15:
            vec = vec / norm
        return DensityMatrix(np.outer(vec, vec.conj()))
    if kind == "diagonal":
        raw = spec.get("probs")
        if not isinstance(raw, list) or not raw:
            raise ScenarioError(f"{where}: expected a nonempty probability list")
        probs = np.asarray(raw, dtype=float)
        if float(probs.min()) < -1e-12:
            raise ScenarioError(f"{where}: negative probability")
        probs = np.maximum(probs, 0.0)
        total = float(probs.sum())
        if total <= 0.0:
            raise ScenarioError(f"{where}: probabilities sum to zero")
        if abs(total - 1.0) > NORM_WARN_ATOL:
            _warn(f"{where}: renormalizing probabilities with sum {total:.12g}")
        if abs(total - 1.0) > 1e-15:
            probs = probs / total
        return DensityMatrix(np.diag(probs).astype(complex))
    if kind == "dense":
        real = _real_matrix(spec.get("real"), f"{where} (real part)")
        imag = _real_matrix(spec.get("imag"), f"{where} (imag part)")
        if real.shape != imag.shape:
            raise ScenarioError(f"{where}: real and imag shapes differ")
        mat = real + 1j * imag
        try:
            herm = HermitianMatrix(mat)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        trace = float(np.trace(herm.mat).real)
        if trace <= 0.0:
            raise ScenarioError(f"{where}: nonpositive trace")
        if abs(trace - 1.0) > NORM_WARN_ATOL:
            _warn(f"{where}: renormalizing matrix with trace {trace:.12g}")
        scaled = herm.mat / trace if abs(trace - 1.0) > 1e-15 else herm.mat
        try:
            return DensityMatrix(scaled)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: unknown state kind {kind!r}")


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be an object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version!r}")
    specs = raw.get("states")
    if not isinstance(specs, list) or len(specs) < 1:
        raise ScenarioError("scenario needs a nonempty states list")
    states = [_load_state(spec, k) for k, spec in enumerate(specs)]
    dim = states[0].dim
    if any(rho.dim != dim for rho in states):
        raise ScenarioError("states must share one dimension")
    try:
        n_min = int(raw.get("n_min", 1))
        n_max = int(raw.get("n_max", n_min))
    except (TypeError, ValueError) as exc:
        raise ScenarioError("n_min and n_max must be integers") from exc
    if n_min < 1 or n_min > n_max:
        raise ScenarioError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    detectors = raw.get("detectors", [])
    if not isinstance(detectors, list) or not detectors:
        raise ScenarioError("scenario needs a nonempty detectors list")
    for kind in detectors:
        if kind not in DETECTOR_KINDS:
            raise ScenarioError(f"unknown detector kind {kind!r}")
    epsilon_override = raw.get("epsilon_override")
    try:
        if epsilon_override is not None:
            epsilon_override = float(epsilon_override)
    except (TypeError, ValueError) as exc:
        raise ScenarioError("epsilon_override must be a number") from exc
    try:
        if raw.get("seed") is not None:
            int(raw["seed"])  # accepted and validated; no sweep is random
    except (TypeError, ValueError) as exc:
        raise ScenarioError("seed must be an integer") from exc
    return Scenario(
        states=states,
        n_min=n_min,
        n_max=n_max,
        detectors=list(detectors),
        epsilon_override=epsilon_override,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return f"{value:.12g}"


def _pair_label(pair: tuple[int, int]) -> str:
    return f"{pair[0] + 1}-{pair[1] + 1}"


def render_csv(report: ExperimentReport) -> str:
    lines = [",".join(CSV_COLUMNS)]
    qcb_xi = _fmt(report.qcb.xi)
    qcb_pair = _pair_label(report.qcb.argmin_pair)
    for row in report.rows:
        lines.append(
            ",".join(
                (
                    str(row.n),
                    row.detector,
                    _fmt(row.err),
                    _fmt(row.exponent),
                    _fmt(row.error_bound),
                    _fmt(row.lambda_min_gram),
                    _fmt(row.epsilon),
                    qcb_xi,
                    qcb_pair,
                )
            )
        )
    return "\n".join(lines) + "\n"


def _jsonable_float(value):
    if value is None:
        return None
    if math.isinf(value):
        return "inf"
    return float(value)


def _qcb_payload(qcb: MultipleChernoffResult) -> dict:
    return {
        "xi": _jsonable_float(qcb.xi),
        "argmin_pair": [qcb.argmin_pair[0] + 1, qcb.argmin_pair[1] + 1],
        "pairwise": [
            {
                "pair": [i + 1, j + 1],
                "xi": _jsonable_float(res.xi),
                "s_star": res.s_star,
                "q_star": res.q_star,
            }
            for (i, j), res in sorted(qcb.pairwise.items())
        ],
    }


def render_json(report: ExperimentReport) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "qcb": _qcb_payload(report.qcb),
        "rows": [
            {
                "n": row.n,
                "detector": row.detector,
                "err": row.err,
                "exponent": _jsonable_float(row.exponent),
                "lemma3_bound": _jsonable_float(row.error_bound),
                "lambda_min_gram": _jsonable_float(row.lambda_min_gram),
                "epsilon": _jsonable_float(row.epsilon),
                "qcb_xi": _jsonable_float(report.qcb.xi),
                "qcb_pair": [
                    report.qcb.argmin_pair[0] + 1,
                    report.qcb.argmin_pair[1] + 1,
                ],
                "exceeds_qcb_ceiling": row.exceeds_qcb_ceiling,
            }
            for row in report.rows
        ],
        "exponent_slopes": {
            kind: _jsonable_float(slope)
            for kind, slope in report.exponent_slopes.items()
        },
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if len(scenario.states) < 2:
        raise ScenarioError("run needs at least two states")
    rows = []
    slopes: dict[str, float | None] = {}
    qcb = None
    for kind in scenario.detectors:
        report = run_power_experiment(
            scenario.states,
            range(scenario.n_min, scenario.n_max + 1),
            kind,
            epsilon_override=scenario.epsilon_override,
        )
        rows.extend(report.rows)
        slopes.update(report.exponent_slopes)
        qcb = report.qcb
    combined = ExperimentReport(rows=rows, qcb=qcb, exponent_slopes=slopes)
    text = render_csv(combined) if args.format == "csv" else render_json(combined)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return EXIT_OK


def _cmd_chernoff(args) -> int:
    scenario = load_scenario(args.scenario)
    if len(scenario.states) < 2:
        raise ScenarioError("chernoff needs at least two states")
    qcb = multiple_qcb(scenario.states)
    for (i, j), res in sorted(qcb.pairwise.items()):
        print(
            f"pair ({i + 1},{j + 1}): xi={_fmt(res.xi)}  "
            f"s*={_fmt(res.s_star)}  q*={_fmt(res.q_star)}"
        )
    i, j = qcb.argmin_pair
    print(f"minimum: xi={_fmt(qcb.xi)} at pair ({i + 1},{j + 1})")
    return EXIT_OK


def _cmd_check_li(args) -> int:
    scenario = load_scenario(args.scenario)
    if len(scenario.states) < 2:
        raise ScenarioError("check-li needs at least two states")
    report = pairwise_li_check(scenario.states)
    for entry in report.pairs:
        i, j = entry.pair
        verdict = "holds" if entry.holds else "fails"
        print(f"pair ({i + 1},{j + 1}): LI {verdict}  lambda_max={_fmt(entry.witness)}")
    print(f"all pairs: {'LI holds' if report.all_pass else 'LI fails'}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmht",
        description="Detectors, Chernoff bounds, and n-copy sweeps for "
        "multiple quantum hypothesis testing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario sweep and write a report")
    run.add_argument("--scenario", required=True, help="scenario JSON path")
    run.add_argument("--out", required=True, help="output report path")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.set_defaults(func=_cmd_run)

    chern = sub.add_parser("chernoff", help="print all pairwise Chernoff bounds")
    chern.add_argument("--scenario", required=True, help="scenario JSON path")
    chern.set_defaults(func=_cmd_chernoff)

    check = sub.add_parser("check-li", help="check pairwise support intersections")
    check.add_argument("--scenario", required=True, help="scenario JSON path")
    check.set_defaults(func=_cmd_check_li)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except NumericalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def script_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_main()
