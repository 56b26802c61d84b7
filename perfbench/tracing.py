"""Spans and counters recorded around conslab's public functions.

Nothing in conslab is edited: `install` replaces module attributes and one
class attribute with timing wrappers, in every namespace where callers look
the names up, and `wrap_system` / `TracedTestFunction` wrap the objects the
benchmark passes in.  Spans are kept in memory; `layer_metrics` turns them
into the per-layer figures of BENCHMARK.json.

Self time of a span is its duration minus the durations of the spans opened
directly inside it.  Input fingerprints (for the unique-input ratios) are
hashed before a span's clock starts, so they show up in trace.overhead_s and
not in any layer time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from collections import defaultdict

import numpy as np


def fingerprint(arr) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(memoryview(arr).cast("B"))
    h.update(repr((arr.shape, arr.dtype.str)).encode())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._open = []
        self.counts = defaultdict(int)
        self.keys = defaultdict(set)   # distinct-input sets per counter

    def reset(self) -> None:
        self.spans.clear()
        self._open.clear()
        self.counts.clear()
        self.keys.clear()

    # -- spans -----------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """fn with a span around each call.  before(*args, **kwargs) and
        after(result) run outside the span, to record counts."""
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- aggregation -----------------------------------------------------
    def _durations(self):
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        return dur, child

    def total(self, name: str) -> float:
        """Summed duration of `name` spans not nested in another `name` span."""
        dur, _ = self._durations()
        out = 0.0
        for i, s in enumerate(self.spans):
            if s[0] == name and not self._inside(i, name):
                out += dur[i]
        return out

    def self_time(self, names) -> float:
        dur, child = self._durations()
        return sum((dur[i] - child[i] for i, s in enumerate(self.spans)
                    if s[0] in names), 0.0)

    def _inside(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def span_table(self) -> dict:
        """name -> [count, inclusive seconds, self seconds]."""
        dur, child = self._durations()
        table = {}
        for i, s in enumerate(self.spans):
            row = table.setdefault(s[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {k: [v[0], round(v[1], 6), round(v[2], 6)]
                for k, v in sorted(table.items())}

    def unique_frac(self, counter: str) -> float:
        calls = self.counts[counter]
        return len(self.keys[counter]) / calls if calls else 0.0


# ---------------------------------------------------------------------------
# wrappers around the program's objects


def wrap_system(tracer: Tracer, system):
    """The same system with every evaluator traced as systems.eval."""
    def evaluator(label, fn):
        def before(U, *args, **kwargs):
            U = np.asarray(U)
            tracer.counts["systems.eval_calls"] += 1
            tracer.counts[f"systems.{label}_calls"] += 1
            tracer.counts["systems.eval_nodes"] += int(np.prod(U.shape[:-1]))
            key = fingerprint(U)
            tracer.keys["systems.eval_calls"].add(key)
            tracer.keys[f"systems.{label}_calls"].add(key)
        return tracer.wrap("systems.eval", fn, before)

    fields = {name: evaluator(name, getattr(system, name))
              for name in ("G", "B", "Q", "DG", "DB", "DQ")
              if getattr(system, name) is not None}
    return dataclasses.replace(system, **fields)


class TracedTestFunction:
    """Delegates to a conslab test function; evaluate() is traced."""

    def __init__(self, tracer: Tracer, inner):
        def count(lattice, periodic_time=True):
            tracer.counts["testfunctions.evaluate_calls"] += 1
            tracer.keys["testfunctions.evaluate_calls"].add(
                (lattice, periodic_time))
        self._inner = inner
        self.evaluate = tracer.wrap("testfunctions.evaluate", inner.evaluate,
                                    count)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _CountingNumpy:
    """Stands in for `np` inside conslab.commutator, counting np.roll calls:
    each one is a stencil offset visited by the lemma audit's shift loop."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def roll(self, *args, **kwargs):
        self._tracer.counts["commutator.shift_offsets"] += 1
        return np.roll(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def install(tracer: Tracer) -> None:
    """Replace conslab's public functions with traced ones, in every module
    namespace where their callers look them up.  Meant for a process that
    exits after the traced run: nothing is restored."""
    import conslab.cli as cli
    import conslab.commutator as commutator
    import conslab.dissipation as dissipation
    import conslab.fields as fields
    import conslab.mollifier as mollifier

    def count_nodes(field):
        tracer.counts["fields.nodes"] += int(np.prod(field.lattice.shape))

    for name in ("make_lacunary_field", "make_shock_field"):
        traced = tracer.wrap("fields.generate", getattr(fields, name),
                             after=count_nodes)
        setattr(fields, name, traced)
        setattr(cli, name, traced)

    def half_spectrum(shape) -> int:
        return int(np.prod(shape[:-1])) * (shape[-1] // 2 + 1)

    def count_mollify(field, kernel, *args, **kwargs):
        shape = field.lattice.shape
        channels = int(np.prod(field.values.shape[len(shape):]))
        tracer.counts["mollifier.calls"] += 1
        tracer.counts["mollifier.channels"] += channels
        # Computed, not measured: per channel the real input is read, the
        # half spectrum is written, read with the kernel spectrum, written
        # back as the product and read by the inverse transform, and the
        # real output is written.
        tracer.counts["mollifier.bytes_computed"] += channels * (
            2 * 8 * int(np.prod(shape)) + 5 * 16 * half_spectrum(shape))
        tracer.keys["mollifier.calls"].add(fingerprint(field.values))

    traced = tracer.wrap("mollifier.mollify", mollifier.mollify, count_mollify)
    mollifier.mollify = traced
    commutator.mollify = traced

    # A kernel caches its spectrum, so only its first request transforms.
    # The set holds the kernels themselves, so no id is reused.
    def count_spectrum(kernel):
        transformed = tracer.keys["mollifier.spectra"]
        if kernel not in transformed:
            transformed.add(kernel)
            shape = kernel.lattice.shape
            tracer.counts["mollifier.spectra"] += 1
            tracer.counts["mollifier.bytes_computed"] += \
                8 * int(np.prod(shape)) + 16 * half_spectrum(shape)

    mollifier.MollifierKernel.spectrum = tracer.wrap(
        "mollifier.spectrum", mollifier.MollifierKernel.spectrum,
        count_spectrum)

    traced = tracer.wrap("mollifier.audit", mollifier.verify_estimates)
    mollifier.verify_estimates = traced
    cli.verify_estimates = traced

    for name, span in (("residual_R", "commutator.residual"),
                       ("lemma_bound_audit", "commutator.lemma"),
                       ("good_set_measure", "commutator.goodset")):
        traced = tracer.wrap(span, getattr(commutator, name))
        setattr(commutator, name, traced)
        if hasattr(cli, name):
            setattr(cli, name, traced)
    commutator.np = _CountingNumpy(tracer)

    traced = tracer.wrap("dissipation.report",
                         dissipation.build_dissipation_report)
    dissipation.build_dissipation_report = traced
    cli.build_dissipation_report = traced

    # Systems and test functions that the CLI runners build themselves.
    make_builtin = cli.make_builtin
    cli.make_builtin = lambda *a, **kw: wrap_system(tracer,
                                                    make_builtin(*a, **kw))
    testfn = cli.testfn_from_config
    cli.testfn_from_config = lambda spec: TracedTestFunction(tracer,
                                                             testfn(spec))
    for command, runner in list(cli._RUNNERS.items()):
        cli._RUNNERS[command] = tracer.wrap("cli.run", runner)


def layer_metrics(tracer: Tracer) -> dict:
    c = tracer.counts
    t = tracer.total
    commutator_spans = ("commutator.residual", "commutator.lemma",
                        "commutator.goodset")
    return {
        "fields.generate_s": t("fields.generate"),
        "fields.nodes": c["fields.nodes"],
        "systems.eval_calls": c["systems.eval_calls"],
        "systems.G_calls": c["systems.G_calls"],
        "systems.eval_nodes": c["systems.eval_nodes"],
        "systems.eval_s": t("systems.eval"),
        "systems.unique_input_frac": tracer.unique_frac("systems.eval_calls"),
        "mollifier.calls": c["mollifier.calls"],
        "mollifier.channels": c["mollifier.channels"],
        "mollifier.spectra": c["mollifier.spectra"],
        "mollifier.mollify_s": t("mollifier.mollify"),
        "mollifier.audit_s": t("mollifier.audit"),
        "mollifier.bytes_computed": c["mollifier.bytes_computed"],
        "mollifier.unique_input_frac": tracer.unique_frac("mollifier.calls"),
        "commutator.residual_s": t("commutator.residual"),
        "commutator.lemma_s": t("commutator.lemma"),
        "commutator.goodset_s": t("commutator.goodset"),
        "commutator.self_s": tracer.self_time(commutator_spans),
        "commutator.shift_offsets": c["commutator.shift_offsets"],
        "testfunctions.evaluate_calls": c["testfunctions.evaluate_calls"],
        "testfunctions.evaluate_s": t("testfunctions.evaluate"),
        "testfunctions.unique_input_frac":
            tracer.unique_frac("testfunctions.evaluate_calls"),
        "dissipation.report_s": t("dissipation.report"),
        "cli.run_s": t("cli.run"),
        "cli.self_s": tracer.self_time(("cli.main",)),
        "cli.output_bytes": c["cli.output_bytes"],
    }
