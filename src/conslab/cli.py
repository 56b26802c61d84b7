"""Config-driven experiment runner.

Each subcommand reads a single JSON config file, validates it against a
schema, runs the corresponding pipeline, and writes a JSON report plus one
or more CSV tables to the output directory.  Reports embed the artifact
version and a SHA-256 digest of the canonical config, never timestamps, so
a rerun of the same config in sequential mode is byte-identical.

Command-line flags cover only paths, verbosity, and a --threads count that
is validated but read by no computation (nothing runs in parallel); every
experiment parameter lives in the config file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import dataclasses
from pathlib import Path
from typing import Optional

import numpy as np
import jsonschema

from . import _runtime
from .errors import ConfigError, ConslabError
from .fields import (DiscreteField, Field, Lattice, estimate_besov,
                     make_lacunary_field, make_shock_field)
from .commutator import lemma_bound_audit, residual_R
from .dissipation import RankineHugoniot, build_dissipation_report, \
    rankine_hugoniot_speed
from .mollifier import kernel_table, make_kernel, verify_estimates
from .systems import (BUILTIN_CATALOGUE, BUILTIN_NAMES, FD_STEP, SystemSpec,
                      check_compatibility, extend_to_compact_range,
                      make_builtin, uniform_box_sampler)
from .testfunctions import TESTFN_KINDS, from_config as testfn_from_config

log = logging.getLogger("conslab.cli")

ARTIFACT_NAME = "conslab"

# ---------------------------------------------------------------------------
# config schemas

_NUMBER_POS = {"type": "number", "exclusiveMinimum": 0}
_INT_POS = {"type": "integer", "minimum": 1}
_SEED = {"type": "integer", "minimum": 0}
_ALPHA = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_VECTOR = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_SPEED = {"anyOf": [{"type": "number"}, {"const": "rankine-hugoniot"}]}

_LATTICE = {
    "type": "object",
    "required": ["n_time", "n_space"],
    "properties": {
        "k": {"type": "integer", "minimum": 1},
        "n_time": {"type": "integer", "minimum": 8},
        "n_space": {"type": "integer", "minimum": 8},
        "extent_time": _NUMBER_POS,
        "extent_space": _NUMBER_POS,
    },
    "additionalProperties": False,
}

# eps_i = eps_max * 2^-i for i = 0 .. n_levels-1; n_levels >= 1 so an empty
# sweep is rejected at the schema layer.
_SWEEP = {
    "type": "object",
    "required": ["eps_max", "n_levels"],
    "properties": {"eps_max": _NUMBER_POS, "n_levels": _INT_POS},
    "additionalProperties": False,
}

_SYSTEM = {
    "type": "object",
    "required": ["name"],
    "properties": {
        "name": {"enum": list(BUILTIN_NAMES)},
        "params": {"type": "object"},
    },
    "additionalProperties": False,
}

_EXTENSION = {
    "type": "object",
    "required": ["lower", "upper", "delta"],
    "properties": {"lower": _VECTOR, "upper": _VECTOR, "delta": _NUMBER_POS},
    "additionalProperties": False,
}

# Lacunary field parameters other than alpha: a field's own, or shared by
# every alpha row of onsager-suite.
_LACUNARY = {
    "n_octaves": _INT_POS,
    "seed": _SEED,
    "travel_speed": {"type": "number"},
    "amplitude": _NUMBER_POS,
}

# The shock's two states and its speed: the shock field kind, the
# dissipation command and onsager-suite's shock block.
_SHOCK = {"left": _VECTOR, "right": _VECTOR, "speed": _SPEED}

# Each field kind's required keys and properties; a kind admits only its own.
_FIELD_KINDS = {
    "shock": (list(_SHOCK), _SHOCK),
    "lacunary": (["alpha", "n_octaves", "seed"], {"alpha": _ALPHA, **_LACUNARY}),
    "constant": (["value"], {"value": _VECTOR}),
}


def _kind_branch(kind: str, required, properties) -> dict:
    then = {"required": required, "properties": {"kind": {}, **properties},
            "additionalProperties": False}
    return {"if": {"properties": {"kind": {"const": kind}}}, "then": then}


_FIELD = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": list(_FIELD_KINDS)}},
    "allOf": [_kind_branch(kind, *rule) for kind, rule in _FIELD_KINDS.items()],
}

_TESTFN = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": list(TESTFN_KINDS)}},
}

_OUTPUT = {
    "type": "object",
    "properties": {"basename": {"type": "string", "minLength": 1}},
    "additionalProperties": False,
}

def _command_schema(description: str, extra_required,
                    extra_properties) -> dict:
    # validate_config matches "command" against the invoked name itself.
    return {
        "description": description,
        "type": "object",
        "required": ["command"] + list(extra_required),
        "properties": {"command": {"type": "string"}, "output": _OUTPUT,
                       **extra_properties},
        "additionalProperties": False,
    }


# One schema per command, in help order; each description is its help line.
_SCHEMAS = {
    "check-companion": _command_schema(
        "sample the multiplier identity over random states",
        ["systems"],
        {
            "systems": {"type": "array", "minItems": 1, "items": {
                **_SYSTEM, "properties": {**_SYSTEM["properties"], "box": {
                    "type": "object",
                    "required": ["lower", "upper"],
                    "properties": {"lower": _VECTOR, "upper": _VECTOR},
                    "additionalProperties": False,
                }},
            }},
            "n_samples": _INT_POS,
            "seed": _SEED,
            "method": {"enum": ["auto", "analytic", "finite-difference"]},
            "fd_step": _NUMBER_POS,
            "tolerance": _NUMBER_POS,
        },
    ),
    "besov": _command_schema(
        "estimate a field's Besov exponent from shift differences",
        ["lattice", "field"],
        {
            "system": _SYSTEM,
            "lattice": _LATTICE,
            "field": _FIELD,
            "q": _NUMBER_POS,
            "n_shifts": _INT_POS,
        },
    ),
    "mollifier-audit": _command_schema(
        "measure mollification approximation/derivative rates",
        ["lattice", "field", "sweep"],
        {
            "system": _SYSTEM,
            "lattice": _LATTICE,
            "field": _FIELD,
            "sweep": _SWEEP,
            "q": _NUMBER_POS,
            "alpha_ref": {"type": "number"},
        },
    ),
    "commutator-sweep": _command_schema(
        "commutator norms, lemma bounds, and the residual sweep",
        ["system", "lattice", "field", "sweep", "test_function"],
        {
            "system": _SYSTEM,
            "extension": _EXTENSION,
            "lattice": _LATTICE,
            "field": _FIELD,
            "sweep": _SWEEP,
            "q": _NUMBER_POS,
            "test_function": _TESTFN,
        },
    ),
    "dissipation": _command_schema(
        "Rankine-Hugoniot accounting for a two-state shock",
        ["system", "lattice", "left", "right", "test_functions"],
        {
            "system": _SYSTEM,
            "lattice": _LATTICE,
            **_SHOCK,
            "test_functions": {"type": "array", "minItems": 1,
                               "items": _TESTFN},
        },
    ),
    "onsager-suite": _command_schema(
        "decay-threshold verdict table plus the shock row",
        ["system", "lattice", "sweep", "alphas", "test_function", "shock"],
        {
            "system": _SYSTEM,
            "lattice": _LATTICE,
            "sweep": _SWEEP,
            "q": _NUMBER_POS,
            "alphas": {"type": "array", "minItems": 1, "items": _ALPHA},
            "lacunary": {
                "type": "object",
                "required": ["n_octaves", "seed"],
                "properties": _LACUNARY,
                "additionalProperties": False,
            },
            "test_function": _TESTFN,
            "shock": {
                "type": "object",
                "required": ["left", "right", "test_function"],
                "properties": {
                    **_SHOCK,
                    "test_function": _TESTFN,
                    "lattice": _LATTICE,
                    "sweep": _SWEEP,
                },
                "additionalProperties": False,
            },
        },
    ),
}


def load_config(path) -> dict:
    def reject(literal):
        raise ConfigError(f"{path}: {literal} is not a JSON number")

    def finite(literal):
        value = float(literal)
        if not np.isfinite(value):
            raise ConfigError(f"{path}: {literal} overflows a double")
        return value

    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh, parse_constant=reject, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config


def validate_config(config: dict, command: str) -> None:
    """Schema-check a config; raise ConfigError naming the offending path."""
    declared = config.get("command")
    if declared != command:
        raise ConfigError(
            f"config declares command {declared!r} but was invoked as "
            f"{command!r}")
    validator = jsonschema.Draft202012Validator(_SCHEMAS[command])
    error = jsonschema.exceptions.best_match(validator.iter_errors(config))
    if error is not None:
        raise ConfigError(f"config {error.json_path}: {error.message}")


# ---------------------------------------------------------------------------
# builders shared by the runners

def _build_system(spec: dict) -> SystemSpec:
    return make_builtin(spec["name"], spec.get("params"))


def _build_lattice(spec: dict) -> Lattice:
    return Lattice(
        k=spec.get("k", 1),
        n_time=spec["n_time"],
        n_space=spec["n_space"],
        extent_time=spec.get("extent_time", 1.0),
        extent_space=spec.get("extent_space", 1.0),
    )


def _resolve_speed(system: SystemSpec, spec: dict, key: str,
                   rh: Optional[RankineHugoniot] = None) -> float:
    """The shock speed spec["speed"]; key is its path in the config, and
    rh the jump's solution when the caller has it already."""
    if spec.get("speed", "rankine-hugoniot") != "rankine-hugoniot":
        return float(spec["speed"])
    if rh is None:
        rh = rankine_hugoniot_speed(system, spec["left"], spec["right"])
    if not rh.consistent:
        raise ConfigError(
            "the given states admit no common Rankine-Hugoniot speed "
            f"(per-component speeds {rh.speeds.tolist()}); "
            f"set {key} to an explicit number instead")
    return rh.speed


def _build_field(spec: dict, lattice: Lattice,
                 system: Optional[SystemSpec]) -> Field:
    kind = spec["kind"]
    if kind == "shock":
        if system is None:
            raise ConfigError("field.kind 'shock' requires a system entry")
        speed = _resolve_speed(system, spec, "field.speed")
        return make_shock_field(system, spec["left"], spec["right"], speed,
                                lattice)
    if kind == "lacunary":
        return make_lacunary_field(
            spec["alpha"], spec["n_octaves"], spec["seed"],
            spec.get("travel_speed", 1.0), lattice,
            amplitude=spec.get("amplitude", 1.0))
    value = np.asarray(spec["value"], dtype=float)
    values = np.broadcast_to(value, lattice.shape + value.shape).copy()
    return DiscreteField(lattice=lattice, values=values)


def _sweep_epsilons(spec: dict) -> list:
    return [spec["eps_max"] * 2.0 ** -i for i in range(spec["n_levels"])]


# ---------------------------------------------------------------------------
# serialization

def _jsonify(obj):
    """Recursively convert reports to JSON-safe builtins.

    numpy scalars/arrays become Python numbers/lists; non-finite floats
    become null (CSV keeps their repr instead).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonify(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if np.isfinite(value) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if obj is None or isinstance(obj, (int, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def _payload(command: str, config: dict, report: dict) -> dict:
    from . import __version__
    return {
        "artifact": {"name": ARTIFACT_NAME, "version": __version__},
        "command": command,
        "config_digest": config_digest(config),
        "report": _jsonify(report),
    }


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
    log.info("wrote %s", path)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# runners: each returns (report dict, {suffix: (header, rows)}, exit code)

def run_check_companion(config: dict):
    n_samples = config.get("n_samples", 1000)
    seed = config.get("seed", 0)
    method = config.get("method", "auto")
    fd_step = config.get("fd_step", FD_STEP)
    tolerance = config.get("tolerance")

    entries = []
    rows = []
    worst = 0.0
    for spec in config["systems"]:
        system = _build_system(spec)
        box = spec.get("box")   # else the catalogue's, for the default laws
        lower, upper = BUILTIN_CATALOGUE[spec["name"]].box if box is None \
            else (box["lower"], box["upper"])
        report = check_compatibility(
            system, uniform_box_sampler(lower, upper), n_samples,
            fd_step=fd_step, rng=seed, method=method)
        worst = max(worst, report.max_residual)
        entries.append({"system": spec["name"], "report": report})
        rows.append([spec["name"], report.method, report.samples,
                     report.max_residual, report.worst_column,
                     " ".join(repr(float(v)) for v in report.worst_state)])
        log.info("%s: max residual %.3e (%s)", spec["name"],
                 report.max_residual, report.method)

    report = {"systems": entries, "max_residual_overall": worst,
              "tolerance": tolerance}
    code = 2 if tolerance is not None and worst > tolerance else 0
    tables = {"": (["system", "method", "n_samples", "max_residual",
                    "worst_column", "worst_state"], rows)}
    return report, tables, code


def run_besov(config: dict):
    system = _build_system(config["system"]) if "system" in config else None
    lattice = _build_lattice(config["lattice"])
    field = _build_field(config["field"], lattice, system)
    estimate = estimate_besov(field, config.get("q", 3.0),
                              n_shifts=config.get("n_shifts", 9))
    rows = [[s, n] for s, n in zip(estimate.shifts, estimate.diff_norms)]
    report = {"estimate": estimate,
              "lattice": field.lattice}
    return report, {"": (["shift", "diff_norm"], rows)}, 0


def run_mollifier_audit(config: dict):
    system = _build_system(config["system"]) if "system" in config else None
    lattice = _build_lattice(config["lattice"])
    field = _build_field(config["field"], lattice, system)
    epsilons = _sweep_epsilons(config["sweep"])
    alpha_ref = config.get("alpha_ref")
    if alpha_ref is None:
        if config["field"]["kind"] != "lacunary":
            raise ConfigError(
                "alpha_ref is required unless the field is lacunary")
        alpha_ref = config["field"]["alpha"]
    audit = verify_estimates(field, config.get("q", 3.0), epsilons, alpha_ref)
    rows = [[e, g, a, t] for e, g, a, t in
            zip(audit.epsilons, audit.gradient_norms,
                audit.approximation_norms, audit.translation_norms)]
    tables = {
        "": (["epsilon", "gradient_norm", "approximation_norm",
              "translation_norm"], rows),
        "_kernel": kernel_table(make_kernel(epsilons[-1], field.lattice)),
    }
    report = {"audit": audit, "lattice": field.lattice}
    return report, tables, 0


def run_commutator_sweep(config: dict):
    system = _build_system(config["system"])
    if "extension" in config:
        ext = config["extension"]
        system = extend_to_compact_range(
            system, (ext["lower"], ext["upper"]), ext["delta"])
    lattice = _build_lattice(config["lattice"])
    field = _build_field(config["field"], lattice, system)
    epsilons = _sweep_epsilons(config["sweep"])
    kernels = [make_kernel(e, field.lattice) for e in epsilons]
    q = config.get("q", 3.0)
    testfn = testfn_from_config(config["test_function"])

    sweep = lemma_bound_audit(system, field, kernels, q)
    residual = residual_R(system, field, kernels, testfn)
    rows = [[e, w, b, i1, i2, t] for e, w, b, i1, i2, t in
            zip(epsilons, sweep.commutator_Lq_norms,
                sweep.lemma_bound_values, residual.I1, residual.I2,
                residual.total)]
    report = {"sweep": sweep, "residual": residual,
              "lattice": field.lattice}
    header = ["epsilon", "commutator_Lq", "lemma_bound", "I1", "I2", "total"]
    return report, {"": (header, rows)}, 0


def run_dissipation(config: dict):
    system = _build_system(config["system"])
    lattice = _build_lattice(config["lattice"])
    speed = _resolve_speed(system, config, "speed")
    field = make_shock_field(system, config["left"], config["right"], speed,
                             lattice)
    testfns = [testfn_from_config(s) for s in config["test_functions"]]
    report = build_dissipation_report(system, field, config["left"],
                                      config["right"], testfns)
    rows = [[i, spec["kind"], rs, rq] for i, (spec, rs, rq) in enumerate(
        zip(config["test_functions"], report.system_weak_residuals,
            report.companion_weak_residuals))]
    out = {"dissipation": report, "speed": speed, "lattice": field.lattice}
    header = ["test_function", "kind", "system_weak_residual",
              "companion_weak_residual"]
    return out, {"": (header, rows)}, 0


# onsager-suite acceptance tolerances (see run_onsager_suite).
SLOPE_MARGIN = 0.15
LIMIT_RTOL = 0.05
STABILITY_WINDOW = 0.10


def run_onsager_suite(config: dict):
    """Theorem-style summary: residual decay per alpha, plus the shock row.

    A lacunary row passes when its fitted |R| slope clears 3*alpha - 1 minus
    SLOPE_MARGIN (0.15); rows with alpha <= 1/3 carry no prediction and are
    flagged rather than judged.  The shock row passes when the extrapolated
    limit matches the closed-form dissipation rate within relative error
    LIMIT_RTOL (0.05) and the last three sweep values spread, relative to
    their mean, by less than STABILITY_WINDOW (0.10).
    """
    system = _build_system(config["system"])
    lattice = _build_lattice(config["lattice"])
    epsilons = _sweep_epsilons(config["sweep"])
    lac = config.get("lacunary", {"n_octaves": 10, "seed": 7})
    testfn = testfn_from_config(config["test_function"])
    shock = config["shock"]
    shock_tf = testfn_from_config(shock["test_function"])
    if not hasattr(shock_tf, "time_integral"):
        raise ConfigError(
            "shock.test_function must have a well-defined time integral "
            "(kind 'time-bump' or 'shock-aligned') so the closed-form "
            "dissipation rate is comparable")
    rh = rankine_hugoniot_speed(system, shock["left"], shock["right"])
    shock_speed = _resolve_speed(system, shock, "shock.speed", rh)
    closed = rh.consistent_rate() * shock_tf.time_integral

    rows = []
    failed = False
    # the alpha rows share the lacunary parameters and so one snapped
    # lattice: the first row builds the kernels, every row uses them
    kernels = None
    for alpha in config["alphas"]:
        field = _build_field({"kind": "lacunary", "alpha": alpha, **lac},
                             lattice, system)
        if kernels is None:
            kernels = [make_kernel(e, field.lattice) for e in epsilons]
        residual = residual_R(system, field, kernels, testfn)
        threshold = 3.0 * alpha - 1.0
        slope = residual.rate_fit.slope
        terminal = abs(residual.total[-1]) / max(abs(residual.total[0]),
                                                 np.finfo(float).tiny)
        if alpha <= 1.0 / 3.0:
            verdict = "no-decay-expected"
        elif residual.rate_fit.degenerate:
            verdict = "fail"
        else:
            verdict = "pass" if slope >= threshold - SLOPE_MARGIN else "fail"
        failed = failed or verdict == "fail"
        rows.append({"row": "lacunary", "alpha": alpha, "slope": slope,
                     "threshold": threshold, "terminal_ratio": terminal,
                     "verdict": verdict})
        log.info("alpha=%.3g slope=%.3f threshold=%.3f verdict=%s",
                 alpha, slope, threshold, verdict)

    shock_field = make_shock_field(
        system, shock["left"], shock["right"], shock_speed,
        _build_lattice(shock.get("lattice", config["lattice"])))
    shock_kernels = [make_kernel(e, shock_field.lattice) for e in
                     _sweep_epsilons(shock.get("sweep", config["sweep"]))]
    shock_res = residual_R(system, shock_field, shock_kernels, shock_tf)
    limit = shock_res.limit_estimate
    tail = np.abs(np.asarray(shock_res.total[-3:], dtype=float))
    spread = float((tail.max() - tail.min()) / np.mean(tail)) \
        if len(tail) == 3 and np.mean(tail) > 0 else float("inf")
    rel_err = abs(limit - closed) / max(abs(closed), np.finfo(float).tiny)
    shock_ok = rel_err <= LIMIT_RTOL and spread < STABILITY_WINDOW
    failed = failed or not shock_ok
    rows.append({"row": "shock", "terminal_ratio": spread, "limit": limit,
                 "closed_form": closed,
                 "verdict": "pass" if shock_ok else "fail"})
    log.info("shock limit=%.6g closed=%.6g rel_err=%.2e spread=%.2e",
             limit, closed, rel_err, spread)

    # each row states its own columns; the others read None
    header = ["row", "alpha", "slope", "threshold", "terminal_ratio",
              "limit", "closed_form", "verdict"]
    rows = [{h: r.get(h) for h in header} for r in rows]
    report = {"rows": rows, "all_pass": not failed}
    table = [list(r.values()) for r in rows]
    return report, {"": (header, table)}, 2 if failed else 0


_RUNNERS = {
    "check-companion": run_check_companion,
    "besov": run_besov,
    "mollifier-audit": run_mollifier_audit,
    "commutator-sweep": run_commutator_sweep,
    "dissipation": run_dissipation,
    "onsager-suite": run_onsager_suite,
}


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    from . import __version__
    parser = argparse.ArgumentParser(
        prog="conslab",
        description="Conservation-law companion-residual laboratory.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, schema in _SCHEMAS.items():
        p = sub.add_parser(name, help=schema["description"])
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--outdir", default=None,
                       help="output directory (default: $CONSLAB_OUTDIR or .)")
        p.add_argument("--basename", default=None,
                       help="output file stem (default: from config or command)")
        p.add_argument("--threads", type=int, default=None,
                       help="validated (>= 1) and stored; no computation "
                       "reads it (kernel spectra run on BLAS threads): "
                       "reports are byte-identical at any value per machine")
        p.add_argument("-v", "--verbose", action="count", default=0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    threads = args.threads if args.threads is not None else os.cpu_count() or 1
    if threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 1
    _runtime.set_workers(threads)

    try:
        config = load_config(args.config)
        validate_config(config, args.command)
        report, tables, code = _RUNNERS[args.command](config)

        outdir = Path(args.outdir or os.environ.get("CONSLAB_OUTDIR", "."))
        outdir.mkdir(parents=True, exist_ok=True)
        basename = args.basename or \
            config.get("output", {}).get("basename", args.command)

        _write_json(outdir / f"{basename}.json",
                    _payload(args.command, config, report))
        for suffix, (header, rows) in tables.items():
            _write_csv(outdir / f"{basename}{suffix}.csv", header, rows)
        return code
    except (ConslabError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
