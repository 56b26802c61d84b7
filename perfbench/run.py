"""conslab benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # every workload, tiny lattices
    python3 perfbench/run.py --record     # rewrite references.json

Every measured process is a fresh worker.py process.  With --trace 0 the
last line holds the end-to-end metrics of BENCHMARK.json; with --trace 1 it
holds the per-layer metrics of a traced run, plus trace.overhead_s, the
traced minus the untraced experiment time.  Earlier lines record the machine,
the raw samples and every failed check.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import PHASE_SEEDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCES = HERE / "references.json"
WORKLOADS = tuple(workloads.WORKLOADS)
SETUP_SAMPLES = 3          # set-up time is the median of this many processes
DEADLINE_S = 170           # a run must end within 180 s
RTOL, ATOL = 1e-9, 1e-14   # reference agreement; ATOL covers rounding-level values


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name: str, ok: bool, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


# ---------------------------------------------------------------------------
# worker processes


def run_worker(mode, workload, seed, seconds, deadline):
    """Start worker.py and wait for it; returns (start on the monotonic
    clock, the JSON object it printed last)."""
    cmd = [sys.executable, str(WORKER), mode, workload, str(seed),
           str(seconds)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        sys.exit(f"error: {mode} worker for {workload} passed the deadline")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {mode} worker for {workload} exited with "
                 f"{proc.returncode}")
    return start, json.loads(lines[-1])


# ---------------------------------------------------------------------------
# checks


def variant(workload: str, seed: int) -> str:
    """Reference key: rough-decay has one per lacunary phase realization."""
    if workload == "rough-decay":
        return f"{workload}/phase-seed-{PHASE_SEEDS[seed % len(PHASE_SEEDS)]}"
    return workload


def agree(actual, ref) -> bool:
    if isinstance(ref, bool) or isinstance(actual, bool):
        return actual is ref
    if isinstance(ref, (int, float)) and isinstance(actual, (int, float)):
        if math.isnan(ref) or math.isnan(actual):
            return math.isnan(ref) and math.isnan(actual)
        return abs(actual - ref) <= RTOL * max(abs(actual), abs(ref)) + ATOL
    if isinstance(ref, list) and isinstance(actual, list):
        return len(ref) == len(actual) and all(map(agree, actual, ref))
    if isinstance(ref, dict) and isinstance(actual, dict):
        return ref.keys() == actual.keys() and \
            all(agree(actual[k], ref[k]) for k in ref)
    return actual == ref


def check_reference(checks: Checks, out: dict, ref) -> None:
    if ref is None:
        checks.add("reference recorded", False, "no reference for this run")
        return
    for key, value in ref.items():
        checks.add(f"reference {key}", agree(out.get(key), value),
                   f"{out.get(key)!r} != {value!r}"
                   if not isinstance(value, dict) else "report differs")


def accuracy(workload: str, out: dict) -> dict:
    """Headline numbers of the paper that the workload reproduces."""
    if workload == "rough-decay":
        total = out["total"]
        return {"slope_margin": out["slope"] - (3 * 0.6 - 1),
                "terminal_ratio": abs(total[-1]) / abs(total[0])}
    if workload == "shock-limit":
        tail = [abs(v) for v in out["total"][-3:]]
        return {"limit_rel_err": abs(out["limit"] + 1 / 12) * 12,
                "defect_rel_err":
                    abs(out["companion_weak_residuals"][0] + 1 / 12) * 12,
                "tail_spread": (max(tail) - min(tail)) / (sum(tail) / 3)}
    if workload == "bounded-audit":
        return {"gap": out["gap"], "bad_set_slope": out["bad_set_slope"]}
    return {}


def check_paper(checks: Checks, workload: str, out: dict) -> None:
    """The paper's bounds, as the acceptance tests state them."""
    a = accuracy(workload, out)
    if workload == "rough-decay":
        checks.add("slope >= 3*alpha - 1 - 0.15", a["slope_margin"] >= -0.15,
                   f"slope margin {a['slope_margin']:.4f}")
        checks.add("terminal ratio <= 0.10", a["terminal_ratio"] <= 0.10,
                   f"{a['terminal_ratio']:.4f}")
    elif workload == "shock-limit":
        checks.add("Aitken limit within 5% of -1/12",
                   a["limit_rel_err"] <= 0.05, f"{a['limit_rel_err']:.4f}")
        checks.add("companion defect within 2% of -1/12",
                   a["defect_rel_err"] <= 0.02, f"{a['defect_rel_err']:.4f}")
        checks.add("last-three spread < 0.10", a["tail_spread"] < 0.10,
                   f"{a['tail_spread']:.4f}")
    elif workload == "bounded-audit":
        checks.add("extended vs raw gap <= 1e-10", a["gap"] <= 1e-10,
                   f"{a['gap']:.3e}")
        checks.add("bad-set slope in 1 +- 0.2",
                   abs(a["bad_set_slope"] - 1) <= 0.2,
                   f"{a['bad_set_slope']:.4f}")
    else:
        for name, code in out["exit_codes"].items():
            checks.add(f"{name} exit code 0", code == 0, str(code))


def check_outputs(checks, workload, outputs, ref, smoke) -> None:
    for out in outputs:
        if "error" in out:
            checks.add("experiment raised", False, out["error"])
            continue
        check_reference(checks, out, ref)
        if not smoke:
            check_paper(checks, workload, out)


def expected_counts(workload: str, levels: int, smoke: bool) -> dict:
    """The ROADMAP profile, per eps level where it scales with the sweep."""
    if workload == "rough-decay":
        return {"mollifier.calls": 2 * levels, "mollifier.channels": 2 * levels,
                "mollifier.spectra": levels, "systems.G_calls": 2 * levels,
                "systems.G_distinct": levels + 1, "systems.B_calls": levels,
                "systems.DB_calls": levels,
                "testfunctions.evaluate_calls": 1}
    if workload == "shock-limit":
        return {"testfunctions.evaluate_calls": 3,
                "testfunctions.distinct_lattices": 1}
    if workload == "bounded-audit" and not smoke:
        return {"commutator.shift_offsets": 190}
    return {}


def check_counts(checks, workload, traced, smoke) -> None:
    for key, want in expected_counts(workload, traced["levels"], smoke).items():
        got = traced["counts"][key]
        checks.add(f"count {key}", got == want, f"{got} != {want}")


# ---------------------------------------------------------------------------


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "B" if "bytes" in name else "count"


def load_references(smoke: bool) -> dict:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text())["smoke" if smoke else "full"]


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def benchmark(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    refs = load_references(False).get(variant(args.workload, args.seed))
    checks = Checks()
    common = (args.workload, args.seed)
    if args.trace:
        _, plain = run_worker("measure", *common, 0, deadline)
        _, traced = run_worker("trace", *common, 0, deadline)
        for result in (plain, traced):
            check_outputs(checks, args.workload, result["outputs"], refs, False)
        check_counts(checks, args.workload, traced, False)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["times"][0] - plain["times"][0]
        emit({"machine": plain["machine"], "workload": args.workload,
              "untraced_wall_s": plain["times"][0],
              "traced_wall_s": traced["times"][0],
              "counts": traced["counts"], "spans": traced["spans"]})
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in metrics.items()}
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            start, res = run_worker("setup", *common, 0, deadline)
            setups.append(res["setup_end"] - start)
        start, res = run_worker("measure", *common, args.seconds, deadline)
        setups.append(res["setup_end"] - start)
        check_outputs(checks, args.workload, res["outputs"], refs, False)
        last_ok = [o for o in res["outputs"] if "error" not in o]
        emit({"machine": res["machine"], "workload": args.workload,
              "seed": args.seed, "wall_s_samples": res["times"],
              "cpu_s_samples": res["cpu_times"], "setup_s_samples": setups,
              "accuracy": accuracy(args.workload, last_ok[-1]) if last_ok else {}})
        passed = checks.attempted - len(checks.failures)
        metrics = {
            "wall_s": {"value": statistics.median(res["times"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "pass_frac": {"value": passed / checks.attempted, "unit": "ratio"},
        }
    for failure in checks.failures:
        emit({"failed_check": failure})
    emit({"correct": not checks.failures, "attempted": checks.attempted,
          "failed": len(checks.failures), "metrics": metrics})
    return 0


def smoke() -> int:
    t0 = time.monotonic()
    _, res = run_worker("smoke", "-", 0, 0, t0 + DEADLINE_S)
    refs = load_references(True)
    checks = Checks()
    timings = {}
    for name in WORKLOADS:
        r = res[name]
        check_outputs(checks, name, r["outputs"] + r["traced"]["outputs"],
                      refs.get(variant(name, 0)), True)
        check_counts(checks, name, r["traced"], True)
        timings[name] = {"untraced_s": r["times"][0],
                         "traced_s": r["traced"]["times"][0],
                         "machine": r["machine"]}
    for failure in checks.failures:
        emit({"failed_check": failure})
    emit({"smoke": True, "correct": not checks.failures,
          "attempted": checks.attempted, "failed": len(checks.failures),
          "total_s": time.monotonic() - t0, "workloads": timings})
    return 0 if not checks.failures else 1


def record() -> int:
    """Record the reference outputs of this commit (full and smoke size)."""
    full = {}
    for name in WORKLOADS:
        seeds = range(len(PHASE_SEEDS)) if name == "rough-decay" else [0]
        for seed in seeds:
            t0 = time.monotonic()
            _, res = run_worker("measure", name, seed, 0, t0 + 600)
            out = res["outputs"][0]
            if "error" in out:
                sys.exit(f"error: {name} seed {seed}: {out['error']}")
            checks = Checks()
            check_paper(checks, name, out)
            print(variant(name, seed), accuracy(name, out),
                  checks.failures or "paper bounds hold", file=sys.stderr)
            full[variant(name, seed)] = out
    _, res = run_worker("smoke", "-", 0, 0, time.monotonic() + 600)
    small = {variant(name, 0): res[name]["outputs"][0] for name in WORKLOADS}
    REFERENCES.write_text(json.dumps({"full": full, "smoke": small},
                                     indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads on tiny lattices, for quick A/B "
                             "checks; prints no workload metrics")
    parser.add_argument("--record", action="store_true",
                        help="rewrite references.json from this commit")
    args = parser.parse_args()
    if not (ROOT / "src" / "conslab").is_dir():
        sys.exit(f"error: no conslab sources under {ROOT / 'src'}")
    if args.record:
        return record()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
