"""End-to-end runs of the config-driven command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conslab
from conslab import cli, dissipation, testfunctions
from conslab.cli import config_digest, main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def run(command, config, tmp_path, *extra):
    path = write_config(tmp_path, config)
    outdir = tmp_path / "out"
    return main([command, "--config", str(path), "--outdir", str(outdir),
                 *extra]), outdir


def load_report(outdir, basename):
    payload = json.loads((outdir / f"{basename}.json").read_text())
    return payload


SMALL_BESOV = {
    "command": "besov",
    "lattice": {"n_time": 16, "n_space": 1024},
    "field": {"kind": "lacunary", "alpha": 0.5, "n_octaves": 8, "seed": 3,
              "travel_speed": 0.0},
    "q": 3.0,
    "n_shifts": 6,
    "output": {"basename": "small"},
}


# ---------------------------------------------------------------------------
# argument and config validation

def test_cli_import_loads_no_scipy():
    # cold start: the transforms are numpy.fft's, so a fresh
    # `import conslab.cli` loads no scipy module at all
    src = str(Path(conslab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, conslab.cli; print(*(m for m in sys.modules if "
            "m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == []


def test_requires_subcommand():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert f"conslab {conslab.__version__}" in capsys.readouterr().out


def test_missing_config_file(tmp_path, capsys):
    code = main(["besov", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_config_not_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["besov", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_config_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["besov", "--config", str(path)]) == 1
    assert "top level must be a JSON object" in capsys.readouterr().err


def test_declared_command_mismatch(tmp_path, capsys):
    code, _ = run("dissipation", SMALL_BESOV, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert "declares command 'besov'" in err
    assert "'dissipation'" in err


def test_schema_error_names_the_path(tmp_path, capsys):
    config = {
        "command": "mollifier-audit",
        "lattice": {"n_time": 64, "n_space": 256},
        "field": {"kind": "lacunary", "alpha": 0.5, "n_octaves": 5,
                  "seed": 0},
        "sweep": {"eps_max": 0.25, "n_levels": 0},
    }
    code, _ = run("mollifier-audit", config, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert "$.sweep.n_levels" in err
    assert "minimum of 1" in err


def test_schema_rejects_unknown_keys(tmp_path, capsys):
    config = dict(SMALL_BESOV, bogus=1)
    code, _ = run("besov", config, tmp_path)
    assert code == 1
    assert "'bogus'" in capsys.readouterr().err


def test_schema_rejects_unknown_system(tmp_path, capsys):
    config = {
        "command": "check-companion",
        "systems": [{"name": "navier-stokes"}],
    }
    code, _ = run("check-companion", config, tmp_path)
    assert code == 1
    assert "is not one of" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
def test_config_rejects_non_finite_literals(tmp_path, capsys, literal):
    # Python's json accepts these literals; the schema would pass them on
    path = tmp_path / "inf.json"
    path.write_text(
        '{"command": "mollifier-audit", '
        '"lattice": {"n_time": 64, "n_space": 256}, '
        '"field": {"kind": "lacunary", "alpha": 0.5, "n_octaves": 5, '
        f'"seed": 0}}, "sweep": {{"eps_max": {literal}, "n_levels": 4}}}}',
        encoding="utf-8")
    assert main(["mollifier-audit", "--config", str(path),
                 "--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{literal} is not a JSON number" in err


@pytest.mark.parametrize("literal", ["1e400", "-1e400"])
def test_config_rejects_overflowing_numbers(tmp_path, capsys, literal):
    # float() turns these into infinities, which no schema bound catches
    path = tmp_path / "huge.json"
    path.write_text(
        '{"command": "mollifier-audit", '
        '"lattice": {"n_time": 64, "n_space": 256}, '
        '"field": {"kind": "lacunary", "alpha": 0.5, "n_octaves": 5, '
        f'"seed": 0, "travel_speed": {literal}}}, '
        '"sweep": {"eps_max": 0.25, "n_levels": 4}}',
        encoding="utf-8")
    assert main(["mollifier-audit", "--config", str(path),
                 "--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{literal} overflows a double" in err


def test_commutator_sweep_has_no_method_key(tmp_path, capsys):
    config = json.loads((CONFIG_DIR / "commutator_sweep.json").read_text())
    config["method"] = "fft"
    code, _ = run("commutator-sweep", config, tmp_path)
    assert code == 1
    assert "'method'" in capsys.readouterr().err


def test_threads_must_be_positive(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_BESOV)
    assert main(["besov", "--config", str(path), "--threads", "0"]) == 1
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_memory_error_is_an_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(config):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setitem(cli._RUNNERS, "besov", exhausted)
    code, outdir = run("besov", SMALL_BESOV, tmp_path)
    assert code == 1
    assert capsys.readouterr().err == "error: Unable to allocate 8.00 TiB\n"
    assert not outdir.exists()


def test_lattice_too_large_to_index_is_an_error_line(tmp_path, capsys):
    config = {"command": "besov",
              "lattice": {"n_time": 2 ** 32, "n_space": 2 ** 32},
              "field": {"kind": "constant", "value": [1.0]}}
    code, _ = run("besov", config, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "more nodes than an array can index" in err


def test_shock_field_requires_system(tmp_path, capsys):
    config = {
        "command": "besov",
        "lattice": {"n_time": 16, "n_space": 256},
        "field": {"kind": "shock", "left": [1.0], "right": [0.0],
                  "speed": 0.5},
    }
    code, _ = run("besov", config, tmp_path)
    assert code == 1
    assert "requires a system entry" in capsys.readouterr().err


def test_rh_speed_resolution_rejects_inconsistent_pair(tmp_path, capsys):
    config = {
        "command": "dissipation",
        "system": {"name": "elastodynamics-1d"},
        "lattice": {"n_time": 32, "n_space": 64},
        "left": [1.0, 0.3],
        "right": [1.5, 0.1],
        "speed": "rankine-hugoniot",
        "test_functions": [{"kind": "time-bump", "center": 0.5,
                            "radius": 0.3}],
    }
    code, _ = run("dissipation", config, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert "no common Rankine-Hugoniot speed" in err
    # the speed of a dissipation config is the top-level key
    assert "set speed to an explicit number" in err


# The same inconsistent pair where the speed sits under another key.
INCONSISTENT = {"left": [1.0, 0.3], "right": [1.5, 0.1],
                "speed": "rankine-hugoniot"}


@pytest.mark.parametrize("command, config, key", [
    ("onsager-suite",
     {"lattice": {"n_time": 32, "n_space": 64},
      "sweep": {"eps_max": 0.25, "n_levels": 2}, "alphas": [0.6],
      "test_function": {"kind": "bump", "center": [0.5, 0.5],
                        "radius": [0.3, 0.3]},
      "shock": {**INCONSISTENT, "test_function": {
          "kind": "time-bump", "center": 0.5, "radius": 0.3}}},
     "shock.speed"),
    ("besov",
     {"lattice": {"n_time": 32, "n_space": 64},
      "field": {"kind": "shock", **INCONSISTENT}},
     "field.speed"),
], ids=["onsager-suite", "besov"])
def test_rh_speed_error_names_the_config_key(tmp_path, capsys, command,
                                             config, key):
    config = {"command": command, "system": {"name": "elastodynamics-1d"},
              **config}
    code, _ = run(command, config, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert "no common Rankine-Hugoniot speed" in err
    assert f"set {key} to an explicit number" in err


# A valid config per place a shock spec sits, and the spec's JSON path.
_BURGERS_SHOCK = {"left": [1.0], "right": [0.0], "speed": 0.5}
_TIME_BUMP = {"kind": "time-bump", "center": 0.5, "radius": 0.3}
_SHOCK_SPECS = {
    "field": ({"command": "besov", "system": {"name": "burgers"},
               "lattice": {"n_time": 16, "n_space": 64},
               "field": {"kind": "shock", **_BURGERS_SHOCK}}, ["field"]),
    "dissipation": ({"command": "dissipation", "system": {"name": "burgers"},
                     "lattice": {"n_time": 16, "n_space": 64},
                     **_BURGERS_SHOCK, "test_functions": [_TIME_BUMP]}, []),
    "onsager-suite": ({"command": "onsager-suite",
                       "system": {"name": "burgers"},
                       "lattice": {"n_time": 16, "n_space": 64},
                       "sweep": {"eps_max": 0.25, "n_levels": 1},
                       "alphas": [0.6], "test_function": _TIME_BUMP,
                       "shock": {**_BURGERS_SHOCK,
                                 "test_function": _TIME_BUMP}}, ["shock"]),
}


@pytest.mark.parametrize("place", list(_SHOCK_SPECS))
@pytest.mark.parametrize("key, value, message", [
    ("bogus", 1.0, "'bogus' was unexpected"),
    ("speed", "fast", "'fast' is not"),
])
def test_shock_spec_schema(tmp_path, capsys, place, key, value, message):
    config, keys = _SHOCK_SPECS[place]
    config = json.loads(json.dumps(config))
    cli.validate_config(config, config["command"])
    spec = config
    for k in keys:
        spec = spec[k]
    spec[key] = value
    code, _ = run(config["command"], config, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    path = "".join(["$"] + [f".{k}" for k in keys]) + \
        (".speed" if key == "speed" else "")
    assert err.startswith(f"error: config {path}: ")
    assert message in err


def test_schema_test_function_kinds_are_the_catalogue():
    assert cli._TESTFN["properties"]["kind"]["enum"] == \
        list(testfunctions._CATALOGUE)


def test_mollifier_audit_nonlacunary_needs_alpha_ref(tmp_path, capsys):
    config = {
        "command": "mollifier-audit",
        "system": {"name": "burgers"},
        "lattice": {"n_time": 64, "n_space": 256},
        "field": {"kind": "shock", "left": [1.0], "right": [0.0],
                  "speed": 0.5},
        "sweep": {"eps_max": 0.25, "n_levels": 2},
    }
    code, _ = run("mollifier-audit", config, tmp_path)
    assert code == 1
    assert "alpha_ref is required" in capsys.readouterr().err


def test_onsager_shock_test_function_needs_time_integral(tmp_path, capsys,
                                                         monkeypatch):
    calls = []
    real_residual_R = conslab.cli.residual_R

    def counting_residual_R(*args, **kwargs):
        calls.append(args)
        return real_residual_R(*args, **kwargs)

    monkeypatch.setattr(conslab.cli, "residual_R", counting_residual_R)
    config = {
        "command": "onsager-suite",
        "system": {"name": "burgers"},
        "lattice": {"n_time": 64, "n_space": 256},
        "sweep": {"eps_max": 0.25, "n_levels": 1},
        "alphas": [0.2],
        "lacunary": {"n_octaves": 5, "seed": 0},
        "test_function": {"kind": "bump", "center": [0.5, 0.5],
                          "radius": [0.3, 0.3]},
        "shock": {
            "left": [1.0], "right": [0.0],
            "test_function": {"kind": "bump", "center": [0.5, 0.5],
                              "radius": [0.3, 0.3]},
        },
    }
    code, _ = run("onsager-suite", config, tmp_path)
    assert code == 1
    assert "time integral" in capsys.readouterr().err
    assert calls == []  # rejected before any alpha row is computed


def test_field_state_count_must_match_system(tmp_path, capsys):
    config = {
        "command": "commutator-sweep",
        "system": {"name": "burgers"},
        "lattice": {"n_time": 32, "n_space": 64},
        "field": {"kind": "constant", "value": [1.0, 2.0]},
        "sweep": {"eps_max": 0.25, "n_levels": 2},
        "test_function": {"kind": "bump", "center": [0.5, 0.5],
                          "radius": [0.3, 0.3]},
    }
    code, _ = run("commutator-sweep", config, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "shape (2,)" in err and "has 1 state components" in err


def test_field_space_dimension_must_match_system(tmp_path):
    # a k = 1 lattice under a k = 2 system once died in axis_derivative
    # with a raw IndexError
    config = {
        "command": "commutator-sweep",
        "system": {"name": "euler-incompressible-2d"},
        "lattice": {"n_time": 32, "n_space": 32},
        "field": {"kind": "constant", "value": [0.0, 0.1, 0.2]},
        "sweep": {"eps_max": 0.25, "n_levels": 2},
        "test_function": {"kind": "bump", "center": [0.5, 0.5],
                          "radius": [0.3, 0.3]},
    }
    path = write_config(tmp_path, config)
    src = str(Path(conslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "conslab.cli", "commutator-sweep",
         "--config", str(path), "--outdir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert "k = 1" in errors[0] and "k = 2" in errors[0]


# ---------------------------------------------------------------------------
# artifact layout and determinism

def test_payload_embeds_artifact_and_digest(tmp_path):
    code, outdir = run("besov", SMALL_BESOV, tmp_path)
    assert code == 0
    payload = load_report(outdir, "small")
    assert payload["artifact"] == {"name": "conslab",
                                   "version": conslab.__version__}
    assert payload["command"] == "besov"
    assert payload["config_digest"] == config_digest(SMALL_BESOV)
    assert "timestamp" not in json.dumps(payload)


def test_basename_precedence(tmp_path):
    # flag beats config; config beats the command-name default
    code, outdir = run("besov", SMALL_BESOV, tmp_path, "--basename", "flag")
    assert code == 0
    assert (outdir / "flag.json").exists() and (outdir / "flag.csv").exists()
    assert not (outdir / "small.json").exists()

    bare = {k: v for k, v in SMALL_BESOV.items() if k != "output"}
    code, outdir2 = run("besov", dict(bare), tmp_path)
    assert code == 0
    assert (outdir2 / "besov.json").exists()


def test_outdir_env_fallback(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("CONSLAB_OUTDIR", str(target))
    path = write_config(tmp_path, SMALL_BESOV)
    assert main(["besov", "--config", str(path)]) == 0
    assert (target / "small.json").exists()


def test_single_thread_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path, SMALL_BESOV)
    outs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        assert main(["besov", "--config", str(path), "--outdir", str(outdir),
                     "--threads", "1"]) == 0
        outs.append(outdir)
    for name in ("small.json", "small.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_parallel_matches_sequential(tmp_path):
    path = write_config(tmp_path, SMALL_BESOV)
    values = []
    for threads, sub in (("1", "seq"), ("4", "par")):
        outdir = tmp_path / sub
        assert main(["besov", "--config", str(path), "--outdir", str(outdir),
                     "--threads", threads]) == 0
        values.append(load_report(outdir, "small")["report"]["estimate"])
    assert values[0]["fitted_alpha"] == pytest.approx(
        values[1]["fitted_alpha"], abs=1e-12)
    np.testing.assert_allclose(values[0]["diff_norms"],
                               values[1]["diff_norms"], rtol=1e-12)


# ---------------------------------------------------------------------------
# command runs on the shipped configs (small variants where slow)

def test_shipped_check_companion(tmp_path):
    code = main(["check-companion", "--config",
                 str(CONFIG_DIR / "check_companion.json"),
                 "--outdir", str(tmp_path)])
    assert code == 0
    payload = load_report(tmp_path, "check_companion")
    assert payload["report"]["max_residual_overall"] <= 1e-6
    lines = (tmp_path / "check_companion.csv").read_text().splitlines()
    assert lines[0] == ("system,method,n_samples,max_residual,"
                       "worst_column,worst_state")
    assert len(lines) == 1 + 6


# the boxes check-companion has always sampled for a system entry without
# one; a changed default changes every such report
DEFAULT_BOXES = {
    "burgers": ([-2.0], [2.0]),
    "euler-compressible-1d": ([0.3, -2.0], [2.0, 2.0]),
    "euler-compressible-m-form-1d": ([0.3, -2.0], [2.0, 2.0]),
    "elastodynamics-1d": ([0.3, -2.0], [2.0, 2.0]),
    "euler-incompressible-2d": ([-2.0] * 3, [2.0] * 3),
    "mhd-incompressible-1d": ([-2.0] * 6, [2.0] * 6),
}


def test_check_companion_without_a_box_samples_the_default(tmp_path):
    # the report and table of entries without a box are byte for byte
    # those of the same entries with the default box given
    def outputs(systems, where):
        config = {"command": "check-companion", "systems": systems,
                  "n_samples": 200, "method": "auto",
                  "output": {"basename": "out"}}
        code, outdir = run("check-companion", config, where)
        assert code == 0
        return (json.dumps(load_report(outdir, "out")["report"]),
                (outdir / "out.csv").read_bytes())

    (tmp_path / "bare").mkdir()
    (tmp_path / "boxed").mkdir()
    bare = outputs([{"name": name} for name in DEFAULT_BOXES],
                   tmp_path / "bare")
    boxed = outputs([{"name": name, "box": {"lower": lo, "upper": hi}}
                     for name, (lo, hi) in DEFAULT_BOXES.items()],
                    tmp_path / "boxed")
    assert bare == boxed


def test_check_companion_tolerance_gate(tmp_path):
    config = {
        "command": "check-companion",
        "systems": [{"name": "burgers"}],
        "n_samples": 50,
        "method": "finite-difference",
        "tolerance": 1e-30,
    }
    code, outdir = run("check-companion", config, tmp_path)
    assert code == 2  # ran fine, criterion failed
    payload = load_report(outdir, "check-companion")
    assert payload["report"]["max_residual_overall"] > 1e-30


def test_check_companion_non_finite_residual_is_an_error(tmp_path, capsys):
    # at fd_step 1e308 the differences overflow to NaN; no report is a pass
    config = {
        "command": "check-companion",
        "systems": [{"name": "burgers"}],
        "method": "finite-difference",
        "fd_step": 1e308,
        "tolerance": 1e-6,
    }
    code, outdir = run("check-companion", config, tmp_path)
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not outdir.exists()


def test_shipped_besov(tmp_path):
    code = main(["besov", "--config", str(CONFIG_DIR / "besov_lacunary.json"),
                 "--outdir", str(tmp_path)])
    assert code == 0
    payload = load_report(tmp_path, "besov_lacunary")
    alpha = payload["report"]["estimate"]["fitted_alpha"]
    assert 0.45 <= alpha <= 0.55
    lines = (tmp_path / "besov_lacunary.csv").read_text().splitlines()
    assert lines[0] == "shift,diff_norm"
    assert len(lines) == 1 + 6


@pytest.mark.parametrize("q, want, rtol", [
    (1000.5, [1.2454660640827522, 0.787666443964782, 0.631217907895176,
              0.40952242959638857, 0.2802977618106002, 0.188598429302754],
     1e-12),
    # at q = 1e12 the norms are the max differences, to 1e-9
    (1e12, [1.2536456062963643, 0.7933828908700459, 0.6360276966250296,
            0.41265512554861294, 0.28244201750061987, 0.1900411923578311],
     1e-9)])
def test_besov_norms_at_a_large_q_neither_underflow_nor_overflow(
        tmp_path, q, want, rtol):
    # summed directly, |v|^q underflowed to 0 where |v| < 1 and overflowed
    # to inf where |v| > 1 (a RuntimeWarning fails the test); the values
    # come from a scaled reference computation
    config = json.loads((CONFIG_DIR / "besov_lacunary.json").read_text())
    code, outdir = run("besov", dict(config, q=q), tmp_path)
    assert code == 0
    estimate = load_report(outdir, "besov_lacunary")["report"]["estimate"]
    np.testing.assert_allclose(estimate["diff_norms"], want, rtol=rtol,
                               atol=0)


def test_shipped_commutator_sweep(tmp_path):
    code = main(["commutator-sweep", "--config",
                 str(CONFIG_DIR / "commutator_sweep.json"),
                 "--outdir", str(tmp_path)])
    assert code == 0
    payload = load_report(tmp_path, "commutator_sweep")
    lines = (tmp_path / "commutator_sweep.csv").read_text().splitlines()
    assert lines[0] == "epsilon,commutator_Lq,lemma_bound,I1,I2,total"
    assert len(lines) == 1 + 3
    sweep = payload["report"]["sweep"]
    assert all(w <= b for w, b in zip(sweep["commutator_Lq_norms"],
                                      sweep["lemma_bound_values"]))


def test_commutator_sweep_extension_key(tmp_path):
    # C8 elastodynamics shock: the mollified states stay inside the delta
    # enlargement, where the extension is the identity
    s = float(np.sqrt((1.2 ** 3 - 1.0) / 0.2))
    config = {
        "command": "commutator-sweep",
        "system": {"name": "elastodynamics-1d"},
        "lattice": {"n_time": 128, "n_space": 256},
        "field": {"kind": "shock", "left": [1.0, 0.1 * s],
                  "right": [1.2, -0.1 * s], "speed": s},
        "sweep": {"eps_max": 0.125, "n_levels": 2},
        "test_function": {"kind": "shock-aligned", "speed": s,
                          "xi_center": 0.5, "inner_radius": 0.1,
                          "outer_radius": 0.3, "time_center": 0.5,
                          "time_radius": 0.4},
    }
    code, outdir = run("commutator-sweep", config, tmp_path,
                       "--basename", "raw")
    assert code == 0
    extended = dict(config, extension={"lower": [1.0, -1.0],
                                       "upper": [2.0, 1.0], "delta": 0.25})
    code, _ = run("commutator-sweep", extended, tmp_path, "--basename", "ext")
    assert code == 0
    raw = load_report(outdir, "raw")["report"]["residual"]
    ext = load_report(outdir, "ext")["report"]["residual"]
    assert len(ext["total"]) == 2 and all(t != 0.0 for t in raw["total"])
    np.testing.assert_allclose(ext["total"], raw["total"], rtol=0,
                               atol=1e-10)


def test_shipped_dissipation(tmp_path):
    code = main(["dissipation", "--config",
                 str(CONFIG_DIR / "dissipation_shock.json"),
                 "--outdir", str(tmp_path)])
    assert code == 0
    payload = load_report(tmp_path, "dissipation_shock")
    report = payload["report"]["dissipation"]
    assert report["consistent"] is True
    assert report["shock_dissipation_rate"] == pytest.approx(-1.0 / 12.0,
                                                             abs=1e-14)
    assert payload["report"]["speed"] == pytest.approx(0.5)
    assert report["companion_weak_residuals"][0] == pytest.approx(
        -1.0 / 12.0, rel=1e-9)
    assert abs(report["companion_weak_residuals"][1]) <= 1e-12
    lines = (tmp_path / "dissipation_shock.csv").read_text().splitlines()
    assert lines[0] == ("test_function,kind,system_weak_residual,"
                       "companion_weak_residual")
    assert lines[1].startswith("0,shock-aligned,")
    assert lines[2].startswith("1,time-bump,")


def test_shipped_mollifier_audit(tmp_path):
    code = main(["mollifier-audit", "--config",
                 str(CONFIG_DIR / "mollifier_audit.json"),
                 "--outdir", str(tmp_path)])
    assert code == 0
    payload = load_report(tmp_path, "mollifier_audit")
    audit = payload["report"]["audit"]
    assert len(audit["epsilons"]) == 4
    assert all(g > 0 for g in audit["gradient_norms"])
    lines = (tmp_path / "mollifier_audit.csv").read_text().splitlines()
    assert lines[0] == ("epsilon,gradient_norm,approximation_norm,"
                       "translation_norm")
    kernel_lines = (tmp_path / "mollifier_audit_kernel.csv") \
        .read_text().splitlines()
    assert kernel_lines[0] == "dt,dx1,off_t,off_x1,weight"
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in kernel_lines[1:]])
    # one row per node of the (2 r_t + 1) x (2 r_x + 1) stencil
    r_t, r_x = np.abs(rows[:, :2]).max(axis=0)
    assert len(rows) == (2 * r_t + 1) * (2 * r_x + 1)
    lattice = payload["report"]["lattice"]
    cell = (lattice["extent_time"] / lattice["n_time"]) * \
        (lattice["extent_space"] / lattice["n_space"])
    assert rows[:, -1].sum() * cell == pytest.approx(1.0, abs=1e-12)


def test_dissipation_inconsistent_pair_serializes_nan_as_null(tmp_path):
    config = {
        "command": "dissipation",
        "system": {"name": "elastodynamics-1d"},
        "lattice": {"n_time": 32, "n_space": 64},
        "left": [1.0, 0.3],
        "right": [1.5, 0.1],
        "speed": 0.0,
        "test_functions": [{"kind": "time-bump", "center": 0.5,
                            "radius": 0.3}],
    }
    code, outdir = run("dissipation", config, tmp_path)
    assert code == 0
    report = load_report(outdir, "dissipation")["report"]["dissipation"]
    assert report["consistent"] is False
    assert report["shock_dissipation_rate"] is None


def test_dissipation_infinite_companion_speed_serializes_as_null(tmp_path):
    # Burgers 1 -> -1 stands still, while its companion flux jumps with no
    # jump in the companion density: an infinite companion speed
    rh = conslab.rankine_hugoniot_speed(conslab.make_builtin("burgers"),
                                        [1.0], [-1.0])
    assert rh.consistent and rh.speed == 0.0
    assert rh.companion_speed == rh.mismatch == np.inf
    assert rh.rate == pytest.approx(-2.0 / 3.0, rel=1e-15)
    config = {
        "command": "dissipation",
        "system": {"name": "burgers"},
        "lattice": {"n_time": 32, "n_space": 64, "extent_time": 2.0},
        "left": [1.0],
        "right": [-1.0],
        "test_functions": [{"kind": "time-bump", "center": 1.0,
                            "radius": 0.8, "unit_integral": True}],
    }
    code, outdir = run("dissipation", config, tmp_path)
    assert code == 0
    report = load_report(outdir, "dissipation")["report"]["dissipation"]
    assert report["consistent"] is True
    assert report["rh_speed_companion"] is None
    assert report["mismatch"] is None
    assert report["shock_dissipation_rate"] == pytest.approx(-2.0 / 3.0,
                                                             rel=1e-15)


@pytest.mark.parametrize("speed", ["rankine-hugoniot", 0.5])
def test_onsager_suite_solves_its_jump_once(tmp_path, monkeypatch, speed):
    # the shock's speed and its closed-form rate come from one solve
    solves = []
    solve = cli.rankine_hugoniot_speed

    def counting_solve(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(cli, "rankine_hugoniot_speed", counting_solve)
    monkeypatch.setattr(dissipation, "rankine_hugoniot_speed",
                        counting_solve)
    config = {
        "command": "onsager-suite",
        "system": {"name": "burgers"},
        "lattice": {"n_time": 64, "n_space": 128},
        "sweep": {"eps_max": 0.125, "n_levels": 2},
        "alphas": [0.5],
        "lacunary": {"n_octaves": 3, "seed": 7, "travel_speed": 1.0},
        "test_function": {"kind": "bump", "center": [0.5, 0.5],
                          "radius": [0.35, 0.35]},
        "shock": {
            "left": [1.0], "right": [0.0], "speed": speed,
            "lattice": {"n_time": 64, "n_space": 64},
            "sweep": {"eps_max": 0.25, "n_levels": 2},
            "test_function": {"kind": "time-bump", "center": 0.5,
                              "radius": 0.35},
        },
        "output": {"basename": "suite"},
    }
    code, outdir = run("onsager-suite", config, tmp_path)
    assert code in (0, 2)  # verdicts do not matter at this size
    shock = load_report(outdir, "suite")["report"]["rows"][-1]
    time_integral = conslab.TimeBump(center=0.5, radius=0.35).time_integral
    assert shock["closed_form"] == pytest.approx(-time_integral / 12.0,
                                                 rel=1e-12)
    assert len(solves) == 1


def test_onsager_suite_verdicts(tmp_path):
    config = {
        "command": "onsager-suite",
        "system": {"name": "burgers"},
        "lattice": {"n_time": 1024, "n_space": 2048},
        "sweep": {"eps_max": 0.0625, "n_levels": 5},
        "q": 3.0,
        "alphas": [0.2, 0.6],
        "lacunary": {"n_octaves": 9, "seed": 7, "travel_speed": 1.0},
        "test_function": {"kind": "bump", "center": [0.5, 0.5],
                          "radius": [0.35, 0.35]},
        "shock": {
            "left": [1.0], "right": [0.0],
            "speed": "rankine-hugoniot",
            "lattice": {"n_time": 512, "n_space": 512},
            "sweep": {"eps_max": 0.125, "n_levels": 3},
            "test_function": {
                "kind": "shock-aligned", "speed": 0.5, "xi_center": 0.5,
                "inner_radius": 0.15, "outer_radius": 0.35,
                "time_center": 1.0, "time_radius": 0.8,
                "unit_time_integral": True,
            },
        },
        "output": {"basename": "suite"},
    }
    code, outdir = run("onsager-suite", config, tmp_path)
    assert code == 0
    report = load_report(outdir, "suite")["report"]
    assert report["all_pass"] is True
    rows = {(r["row"], r["alpha"]): r for r in report["rows"]}
    assert rows[("lacunary", 0.2)]["verdict"] == "no-decay-expected"
    good = rows[("lacunary", 0.6)]
    assert good["verdict"] == "pass"
    assert good["slope"] >= good["threshold"] - 0.15
    shock = rows[("shock", None)]
    assert shock["verdict"] == "pass"
    assert shock["limit"] == pytest.approx(-1.0 / 12.0, rel=0.05)
    assert shock["closed_form"] == pytest.approx(-1.0 / 12.0, rel=1e-12)
    lines = (outdir / "suite.csv").read_text().splitlines()
    assert lines[0] == ("row,alpha,slope,threshold,terminal_ratio,"
                       "limit,closed_form,verdict")
    assert len(lines) == 1 + 3
    assert lines[1].endswith(",,,no-decay-expected")
    assert lines[2].endswith(",,,pass")
    assert lines[-1].startswith("shock,,,,")
    assert lines[-1].endswith(",pass")


def test_onsager_suite_builds_the_lacunary_kernels_once(tmp_path,
                                                        monkeypatch):
    calls = []
    make_kernel = cli.make_kernel

    def counting_make_kernel(*args, **kwargs):
        calls.append(args)
        return make_kernel(*args, **kwargs)

    monkeypatch.setattr(cli, "make_kernel", counting_make_kernel)
    config = {
        "command": "onsager-suite",
        "system": {"name": "burgers"},
        "lattice": {"n_time": 128, "n_space": 256},
        "sweep": {"eps_max": 0.125, "n_levels": 3},
        "alphas": [0.2, 0.5, 0.7],
        "lacunary": {"n_octaves": 4, "seed": 7, "travel_speed": 1.0},
        "test_function": {"kind": "bump", "center": [0.5, 0.5],
                          "radius": [0.35, 0.35]},
        "shock": {
            "left": [1.0], "right": [0.0],
            "speed": "rankine-hugoniot",
            "lattice": {"n_time": 64, "n_space": 64},
            "sweep": {"eps_max": 0.25, "n_levels": 2},
            "test_function": {"kind": "time-bump", "center": 0.5,
                              "radius": 0.35},
        },
        "output": {"basename": "suite"},
    }
    code, outdir = run("onsager-suite", config, tmp_path)
    assert code in (0, 2)  # verdicts do not matter at this size
    assert len(load_report(outdir, "suite")["report"]["rows"]) == 4
    # three levels for all the alpha rows together, two for the shock
    assert len(calls) == 3 + 2
