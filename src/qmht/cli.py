"""Scenario-driven command line front end.

Scenarios are JSON files describing the hypothesis states and the sweep;
reports come back as CSV or JSON with a fixed column set. Both formats print
one list of row dicts keyed in ``CSV_COLUMNS`` order (``_report_rows``): the
JSON report as one ``json.dumps`` of its payload, the CSV report as each
row's fields printed by ``_fmt``. Hypothesis indices are printed one-based.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .chernoff import multiple_qcb
from .detectors import NONNEGATIVE_FLOOR, embedding_guard
from .errors import DimensionLimitError, NumericalConsistencyError, ScenarioError
from .linalg import DensityMatrix, HermitianMatrix
from .tensorlab import (
    DETECTOR_KINDS,
    ExperimentReport,
    pairwise_li_check,
    run_power_experiment,
)

# the scenario files read and the JSON reports written are versioned apart
SCENARIO_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 2
NORM_WARN_ATOL = 1e-8
# an input this close to normalization is used as given, not divided by its
# norm, sum or trace
RENORMALIZE_ATOL = 1e-15
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


def _number(value) -> float | None:
    """A JSON number (an int or a float, not true or false) as a float, with
    an int past the float range as inf; None for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _complex_vector(entries, where: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise ScenarioError(f"{where}: expected a nonempty list of [re, im] pairs")
    out = np.empty(len(entries), dtype=complex)
    for k, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"{where}: entry {k} is not a [re, im] pair")
        re, im = map(_number, pair)
        if re is None or im is None:
            raise ScenarioError(f"{where}: entry {k} is not a numeric [re, im] pair")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ScenarioError(f"{where}: entry {k} is non-finite")
        out[k] = complex(re, im)
    return out


def _real_list(entries, where: str, what: str) -> np.ndarray:
    """A nonempty flat list of finite JSON numbers, as floats."""
    if not isinstance(entries, list) or not entries:
        raise ScenarioError(f"{where}: expected a nonempty list of numbers")
    values = [_number(value) for value in entries]
    for k, value in enumerate(values):
        if value is None or not math.isfinite(value):
            raise ScenarioError(f"{where}: {what} {k} is non-finite or not a number: {entries[k]!r}")
    return np.array(values)


def _real_matrix(entries, where: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries or not all(
        isinstance(row, list) and len(row) == len(entries) for row in entries
    ):
        raise ScenarioError(f"{where}: expected a nonempty square list of rows")
    return np.array([_real_list(row, f"{where} row {i}", "entry") for i, row in enumerate(entries)])


def _normalized(value, total: float, what: str, where: str):
    """``value`` over its norm, sum or trace ``total``: warned beyond
    ``NORM_WARN_ATOL`` and used as given within ``RENORMALIZE_ATOL`` of 1."""
    if abs(total - 1.0) > NORM_WARN_ATOL:
        _warn(f"{where}: renormalizing {what} {total:.12g}")
    return value / total if abs(total - 1.0) > RENORMALIZE_ATOL else value


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
        vec = _normalized(vec, norm, "vector with norm", where)
        return DensityMatrix(np.outer(vec, vec.conj()))
    if kind == "diagonal":
        probs = _real_list(spec.get("probs"), where, "probability")
        if float(probs.min()) < NONNEGATIVE_FLOOR:
            raise ScenarioError(f"{where}: negative probability")
        probs = np.maximum(probs, 0.0)
        total = float(probs.sum())
        if total <= 0.0:
            raise ScenarioError(f"{where}: probabilities sum to zero")
        probs = _normalized(probs, total, "probabilities with sum", where)
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
        scaled = _normalized(herm.mat, trace, "matrix with trace", where)
        try:
            return DensityMatrix(scaled)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: unknown state kind {kind!r}")


def _integer(raw: dict, key: str, default) -> int:
    """``raw[key]`` (or ``default``) as an int; JSON numbers must be integral."""
    value = raw.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    return value


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
    if version != SCENARIO_SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version!r}")
    specs = raw.get("states")
    if not isinstance(specs, list) or len(specs) < 1:
        raise ScenarioError("scenario needs a nonempty states list")
    states = [_load_state(spec, k) for k, spec in enumerate(specs)]
    dim = states[0].dim
    if any(rho.dim != dim for rho in states):
        raise ScenarioError("states must share one dimension")
    n_min = _integer(raw, "n_min", 1)
    n_max = _integer(raw, "n_max", n_min)
    if n_min < 1 or n_min > n_max:
        raise ScenarioError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    detectors = raw.get("detectors", [])
    if not isinstance(detectors, list) or not detectors:
        raise ScenarioError("scenario needs a nonempty detectors list")
    for k, kind in enumerate(detectors):
        if kind not in DETECTOR_KINDS:
            raise ScenarioError(f"unknown detector kind {kind!r}")
        if kind in detectors[:k]:
            raise ScenarioError(f"detector kind {kind!r} is listed twice")
    epsilon_override = raw.get("epsilon_override")
    if epsilon_override is not None:
        # a JSON number only: not a string, and not true or false
        if _number(epsilon_override) is None:
            raise ScenarioError(f"epsilon_override must be a number, got {epsilon_override!r}")
        epsilon_override = _number(epsilon_override)
        if "epsilon" in detectors:
            try:
                embedding_guard(epsilon_override)
            except ValueError as exc:
                raise ScenarioError(f"epsilon_override: {exc}") from exc
    if raw.get("seed") is not None:
        _integer(raw, "seed", None)  # accepted and validated; no sweep is random
    return Scenario(
        states=states,
        n_min=n_min,
        n_max=n_max,
        detectors=list(detectors),
        epsilon_override=epsilon_override,
    )


def _fmt(value) -> str:
    """A printed field the CSV way: a float to 12 significant digits, with
    either infinity as inf; null as an empty cell; a pair as i-j; anything
    else (n, the detector, "inf") as ``str`` gives it."""
    if value is None:
        return ""
    if isinstance(value, list):
        return "%d-%d" % tuple(value)
    if isinstance(value, float):
        return "inf" if math.isinf(value) else f"{value:.12g}"
    return str(value)


def _json_field(value) -> float | str | None:
    """A float field that may be unset or infinite, as the report holds it:
    None (null) for None, "inf" for either infinity, the float otherwise."""
    if value is None:
        return None
    if math.isinf(value):
        return "inf"
    return float(value)


def _report_rows(report: ExperimentReport) -> list[dict]:
    """The rows both formats print, keyed in ``CSV_COLUMNS`` order: err as
    the row holds it, the other floats by ``_json_field``, the pair one-based."""
    qcb_xi = _json_field(report.qcb.xi)
    pair = [i + 1 for i in report.qcb.argmin_pair]
    rows = []
    for row in report.rows:
        floats = (row.exponent, row.error_bound, row.lambda_min_gram, row.epsilon)
        fields = (row.n, row.detector, row.err, *map(_json_field, floats), qcb_xi, pair)
        rows.append(dict(zip(CSV_COLUMNS, fields)))
    return rows


def render_csv(report: ExperimentReport) -> str:
    """The header and each report row's fields printed by ``_fmt``."""
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(map(_fmt, row.values())) for row in _report_rows(report))
    return "\n".join(lines) + "\n"


def render_json(report: ExperimentReport) -> str:
    """The schema-2 report: ``json.dumps(payload, indent=2, allow_nan=False)``
    and a newline. err, s_star and q_star are written as raw floats, so a NaN
    anywhere, or an infinity in one of them, raises json's ValueError."""
    qcb = report.qcb
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "qcb": {
            "xi": _json_field(qcb.xi),
            "argmin_pair": [i + 1 for i in qcb.argmin_pair],
            "pairwise": [
                {
                    "pair": [i + 1, j + 1],
                    "xi": _json_field(res.xi),
                    "s_star": res.s_star,
                    "q_star": res.q_star,
                }
                for (i, j), res in sorted(qcb.pairwise.items())
            ],
        },
        "rows": _report_rows(report),
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _load_states_to_compare(args) -> Scenario:
    """The scenario of ``args.command``, which compares states: at least two."""
    scenario = load_scenario(args.scenario)
    if len(scenario.states) < 2:
        raise ScenarioError(f"{args.command} needs at least two states")
    return scenario


def _cmd_run(args) -> int:
    scenario = _load_states_to_compare(args)
    report = run_power_experiment(
        scenario.states,
        range(scenario.n_min, scenario.n_max + 1),
        *scenario.detectors,
        epsilon_override=scenario.epsilon_override,
    )
    text = render_csv(report) if args.format == "csv" else render_json(report)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return EXIT_OK


def _cmd_chernoff(args) -> int:
    scenario = _load_states_to_compare(args)
    qcb = multiple_qcb(scenario.states)
    # binary_qcb fixes s* to about NEWTON_STEP_TOL = 1e-12; it is printed to
    # six significant digits (xi and q* to twelve), and the JSON report's
    # s_star keeps full precision
    for (i, j), res in sorted(qcb.pairwise.items()):
        print(
            f"pair ({i + 1},{j + 1}): xi={_fmt(res.xi)}  "
            f"s*={res.s_star:.6g}  q*={_fmt(res.q_star)}"
        )
    i, j = qcb.argmin_pair
    print(f"minimum: xi={_fmt(qcb.xi)} at pair ({i + 1},{j + 1})")
    return EXIT_OK


def _cmd_check_li(args) -> int:
    scenario = _load_states_to_compare(args)
    report = pairwise_li_check(scenario.states)
    for entry in report.pairs:
        i, j = entry.pair
        verdict = "holds" if entry.holds else "fails"
        print(f"pair ({i + 1},{j + 1}): LI {verdict}  lambda_max={_fmt(entry.witness)}")
    print(f"all pairs: {'LI holds' if report.all_pass else 'LI fails'}")
    return EXIT_OK


@functools.cache
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
