"""One benchmark process.  run.py starts it and reads the JSON object it
prints as its last line.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS

MODE is one of
  setup    build the workload's inputs and stop (a set-up time sample);
  measure  set up, then repeat the experiment until SECONDS have passed,
           at least once, untraced;
  trace    trace set-up and one run of the experiment;
  smoke    every workload at smoke size, untraced and then traced
           (WORKLOAD, SEED and SECONDS are ignored).
Set-up ends are reported on the system-wide monotonic clock, which run.py
also reads just before starting the process.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import ROOT, WORKLOADS, array_bytes, fresh_kernels, workers

sys.path.insert(0, str(ROOT / "src"))


def check_origin() -> None:
    """Refuse to measure a conslab that is not this checkout's src/."""
    import conslab
    src = (ROOT / "src").resolve()
    if src not in Path(conslab.__file__).resolve().parents:
        raise SystemExit(f"conslab was imported from {conslab.__file__}, "
                         f"not from {src}")


def experiment(run, inp) -> tuple:
    """Time one run (wall and CPU seconds); an exception is an output, not
    a lost sample."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        out = run(inp)
    except Exception as exc:                       # recorded as a failure
        traceback.print_exc()
        out = {"error": f"{type(exc).__name__}: {exc}"}
    return time.perf_counter() - t0, time.process_time() - c0, out


def llc_bytes():
    """Last-level cache size from glibc's sysconf (no file is read)."""
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return None
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    # _SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE
    for name in (197, 194, 191):
        size = libc.sysconf(name)
        if size > 0:
            return size
    return None


def machine(name: str, inp: dict) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "llc_bytes": llc_bytes(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0],
            "workers": workers(name),
            "array_bytes": array_bytes(inp)}


def trace_counts(tracer) -> dict:
    """Deterministic counts the traced run checks."""
    c, k = tracer.counts, tracer.keys
    return {"mollifier.calls": c["mollifier.calls"],
            "mollifier.channels": c["mollifier.channels"],
            "mollifier.spectra": c["mollifier.spectra"],
            "systems.G_calls": c["systems.G_calls"],
            "systems.G_distinct": len(k["systems.G_calls"]),
            "systems.B_calls": c["systems.B_calls"],
            "systems.DB_calls": c["systems.DB_calls"],
            "testfunctions.evaluate_calls": c["testfunctions.evaluate_calls"],
            "testfunctions.distinct_lattices":
                len(k["testfunctions.evaluate_calls"]),
            "commutator.shift_offsets": c["commutator.shift_offsets"]}


def traced_run(tracer, name: str, seed: int, smoke: bool) -> dict:
    from tracing import layer_metrics
    setup, run = WORKLOADS[name]
    inp = setup(seed, smoke, tracer)
    check_origin()
    wall, _, out = experiment(run, inp)
    return {"times": [wall], "outputs": [out],
            "layers": layer_metrics(tracer), "counts": trace_counts(tracer),
            "spans": tracer.span_table(), "levels": len(inp.get("epsilons", []))}


def main(argv) -> dict:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode == "smoke":
        return smoke_all()
    setup, run = WORKLOADS[name]
    if mode == "trace":
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
        return traced_run(tracer, name, seed, False)

    inp = setup(seed, False)
    setup_end = time.monotonic()
    check_origin()
    if mode == "setup":
        return {"setup_end": setup_end}
    times, cpu, outputs = [], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        if times:
            fresh_kernels(inp)
        wall, cpu_s, out = experiment(run, inp)
        times.append(wall)
        cpu.append(cpu_s)
        outputs.append(out)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_end": setup_end, "times": times, "cpu_times": cpu,
            "outputs": outputs,
            "peak_rss_mb": peak_kb * 1024 / 1e6, "machine": machine(name, inp)}


def smoke_all() -> dict:
    """Every workload at smoke size in one process: untraced, then traced.
    conslab.cli.main sets the process-wide worker cap, so it is put back
    before each workload that calls the library directly."""
    from conslab import _runtime
    from tracing import Tracer, install
    cap = _runtime.get_workers()
    result = {}
    for name, (setup, run) in WORKLOADS.items():
        _runtime.set_workers(cap)
        inp = setup(0, True)
        wall, _, out = experiment(run, inp)
        result[name] = {"times": [wall], "outputs": [out],
                        "machine": machine(name, inp)}
    tracer = Tracer()
    install(tracer)
    for name in WORKLOADS:
        _runtime.set_workers(cap)
        tracer.reset()
        result[name]["traced"] = traced_run(tracer, name, 0, True)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
