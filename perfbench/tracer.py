"""Span tracing of zplkit from outside, at its module boundaries.

The package binds its callees with `from ... import`, so each wrapper goes
on the name as the calling module sees it.  Spans carry a name, start, end,
parent span and op index; they stay in memory until the run writes them
out.  Nothing under src/ is touched.
"""

from __future__ import annotations

import builtins
import importlib
import json
import os
import time

_clock = time.perf_counter

# (module, attribute, span name); one span name may sit on several bindings
WRAPPED = [
    ("zplkit.lineshape", "faddeeva", "numerics.faddeeva"),
    ("zplkit.physics", "adaptive_gauss_kronrod",
     "numerics.adaptive_gauss_kronrod"),
    ("zplkit.physics", "debye_integral", "physics.debye_integral"),
    ("zplkit.fitting", "voigt_value_and_derivatives",
     "lineshape.voigt_value_and_derivatives"),
    ("zplkit.fitting", "least_squares", "optimize.least_squares"),
    ("zplkit.fitting", "fit_voigt", "fitting.fit_voigt"),
    ("zplkit.fitting", "extract_components", "fitting.extract_components"),
    ("zplkit.fitting", "compare_models", "fitting.compare_models"),
    ("zplkit.fitting", "fit_series", "fitting.fit_series"),
    ("zplkit.io_formats", "load_spectrum", "io_formats.load_spectrum"),
    ("zplkit.io_formats", "save_spectrum", "io_formats.save_spectrum"),
    ("zplkit.cli", "fit_voigt", "fitting.fit_voigt"),
    ("zplkit.cli", "classify_lineshape", "fitting.classify_lineshape"),
    ("zplkit.cli", "analyze_series", "fitting.analyze_series"),
    ("zplkit.cli", "compare_models", "fitting.compare_models"),
    ("zplkit.cli", "mc_coherence", "simulate.mc_coherence"),
    ("zplkit.cli", "spectrum_from_coherence",
     "simulate.spectrum_from_coherence"),
    ("zplkit.cli", "generate_synthetic_series",
     "io_formats.generate_synthetic_series"),
    ("zplkit.cli", "load_series", "io_formats.load_series"),
    ("zplkit.cli", "load_spectrum", "io_formats.load_spectrum"),
    ("zplkit.cli", "save_spectrum", "io_formats.save_spectrum"),
    ("zplkit.cli", "write_result_record", "io_formats.write_result_record"),
    ("zplkit.cli", "main", "cli.main"),
    ("zplkit.cli", "cmd_synth", "cli.synth"),
    ("zplkit.cli", "cmd_series", "cli.series"),
    ("zplkit.cli", "cmd_fit", "cli.fit"),
    ("zplkit.cli", "cmd_compare", "cli.compare"),
    ("zplkit.cli", "cmd_simulate", "cli.simulate"),
]

# modules whose file reads are counted, by shadowing the builtin `open`
READERS = ("zplkit.cli", "zplkit.io_formats")


def _describe_solve(info, args, result):
    info["iterations"] = result.n_iterations
    info["converged"] = bool(result.converged)


def _describe_mc(info, args, result):
    config = args[0]
    info["traj_steps"] = config.n_trajectories * config.n_steps


# what a span records about its call once the call has returned
_DESCRIBE = {
    "numerics.faddeeva":
        lambda info, args, result: info.update(points=int(result.size)),
    "optimize.least_squares": _describe_solve,
    "fitting.fit_series":
        lambda info, args, result: info.update(iterations=result.n_iterations),
    "simulate.mc_coherence": _describe_mc,
    "simulate.spectrum_from_coherence":
        lambda info, args, result: info.update(points=int(result.n_points)),
}


class Tracer:
    def __init__(self):
        # span: [name, parent index or -1, start, end, op, info dict]
        self.spans = []
        self._stack = []
        self.op = None
        self.bytes_read = {}

    def _wrap(self, name, fn, prepare=None, describe=None):
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, self.op, {}]
            stack.append(len(spans))
            spans.append(span)
            if prepare is not None:
                args = prepare(span[5], args)
            span[2] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = _clock()
                stack.pop()
            if describe is not None:
                describe(span[5], args, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _prepare_least_squares(self, info, args):
        residual, jacobian, *rest = args
        return (self._wrap("optimize.residual", residual),
                self._wrap("optimize.jacobian", jacobian), *rest)

    @staticmethod
    def _prepare_quadrature(info, args):
        func, *rest = args
        info["integrand_evals"] = 0  # one per 15-node Kronrod panel

        def counted(x):
            info["integrand_evals"] += 1
            return func(x)

        return (counted, *rest)

    def install(self):
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            prepare = {"optimize.least_squares": self._prepare_least_squares,
                       "numerics.adaptive_gauss_kronrod":
                           self._prepare_quadrature}.get(name)
            setattr(module, attr, self._wrap(name, getattr(module, attr),
                                             prepare, _DESCRIBE.get(name)))
        for module_name in READERS:
            importlib.import_module(module_name).open = self._counting_open

    def _counting_open(self, file, mode="r", *args, **kwargs):
        if "r" in mode and "+" not in mode:
            self.bytes_read[self.op] = (self.bytes_read.get(self.op, 0)
                                        + os.path.getsize(file))
        return builtins.open(file, mode, *args, **kwargs)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, op, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "op": op, "start": start, "end": end,
                                     **info}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, ops, bytes_written, setup_op):
    """Per-op layer metrics over the given ops, from the recorded spans.

    Counts are per op and repeat exactly for the same inputs; times are ms
    per op.  A ratio whose denominator is zero on a workload (say, Faddeeva
    ns per point where no Faddeeva call is made) reads 0.
    """
    wanted = set(ops)
    spans = tracer.spans
    child_ms = [0.0] * len(spans)
    for name, parent, start, end, op, info in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
    calls, ms, self_ms, extra = {}, {}, {}, {}
    solves_in_fits = 0
    setup_quadratures = 0
    setup_quadrature_ms = 0.0
    for i, (name, parent, start, end, op, info) in enumerate(spans):
        dur = (end - start) * 1e3
        if op == setup_op and name == "numerics.adaptive_gauss_kronrod":
            setup_quadratures += 1
            setup_quadrature_ms += dur
        if op not in wanted:
            continue
        calls[name] = calls.get(name, 0) + 1
        ms[name] = ms.get(name, 0.0) + dur
        self_ms[name] = self_ms.get(name, 0.0) + dur - child_ms[i]
        for key, value in info.items():
            extra[(name, key)] = extra.get((name, key), 0) + value
        if (name == "optimize.least_squares" and parent >= 0
                and spans[parent][0] == "fitting.fit_voigt"):
            solves_in_fits += 1

    n = len(ops)

    def per_op(table, name):
        return table.get(name, 0) / n

    def x(name, key):
        return extra.get((name, key), 0)

    fad, quad = "numerics.faddeeva", "numerics.adaptive_gauss_kronrod"
    vvd, lsq = "lineshape.voigt_value_and_derivatives", "optimize.least_squares"
    fit, mc = "fitting.fit_voigt", "simulate.mc_coherence"
    spec = "simulate.spectrum_from_coherence"
    cli_names = ("synth", "series", "fit", "compare", "simulate")
    m = {
        f"{fad}.calls": (per_op(calls, fad), "count"),
        f"{fad}.points": (x(fad, "points") / n, "count"),
        f"{fad}.ms": (per_op(ms, fad), "ms"),
        f"{fad}.ns_per_point": (_ratio(ms.get(fad, 0.0) * 1e6,
                                       x(fad, "points")), "ns"),
        f"{quad}.calls": (per_op(calls, quad), "count"),
        f"{quad}.integrand_evals": (x(quad, "integrand_evals") / n, "count"),
        f"{quad}.ms": (per_op(ms, quad), "ms"),
        f"{vvd}.calls": (per_op(calls, vvd), "count"),
        f"{vvd}.ms": (per_op(ms, vvd), "ms"),
        f"{vvd}.self_ms": (per_op(self_ms, vvd), "ms"),
        f"{lsq}.calls": (per_op(calls, lsq), "count"),
        f"{lsq}.iterations": (x(lsq, "iterations") / n, "count"),
        f"{lsq}.residual_evals": (per_op(calls, "optimize.residual"), "count"),
        f"{lsq}.jacobian_evals": (per_op(calls, "optimize.jacobian"), "count"),
        f"{lsq}.ms": (per_op(ms, lsq), "ms"),
        f"{lsq}.self_ms": (per_op(self_ms, lsq), "ms"),
        f"{lsq}.converged_ratio": (_ratio(x(lsq, "converged"),
                                          calls.get(lsq, 0)), "ratio"),
        f"{fit}.calls": (per_op(calls, fit), "count"),
        f"{fit}.ms": (per_op(ms, fit), "ms"),
        f"{fit}.solves_per_fit": (_ratio(solves_in_fits, calls.get(fit, 0)),
                                  "ratio"),
        "fitting.classify_lineshape.ms": (
            per_op(ms, "fitting.classify_lineshape"), "ms"),
        "fitting.analyze_series.ms": (
            per_op(ms, "fitting.analyze_series"), "ms"),
        "fitting.extract_components.ms": (
            per_op(ms, "fitting.extract_components"), "ms"),
        "fitting.compare_models.ms": (
            per_op(ms, "fitting.compare_models"), "ms"),
        "fitting.fit_series.calls": (per_op(calls, "fitting.fit_series"),
                                     "count"),
        "fitting.fit_series.iterations": (
            x("fitting.fit_series", "iterations") / n, "count"),
        "physics.debye_integral.calls": (
            per_op(calls, "physics.debye_integral"), "count"),
        "physics.debye_integral.ms": (
            per_op(ms, "physics.debye_integral"), "ms"),
        f"{mc}.ms": (per_op(ms, mc), "ms"),
        f"{mc}.traj_steps_per_s": (_ratio(x(mc, "traj_steps") * 1e3,
                                          ms.get(mc, 0.0)), "1/s"),
        f"{spec}.ms": (per_op(ms, spec), "ms"),
        f"{spec}.points": (x(spec, "points") / n, "count"),
    }
    for name in ("generate_synthetic_series", "load_series", "load_spectrum",
                 "save_spectrum", "write_result_record"):
        m[f"io_formats.{name}.ms"] = (per_op(ms, f"io_formats.{name}"), "ms")
    m["io_formats.bytes_written"] = (sum(bytes_written[op] for op in ops) / n,
                                     "bytes")
    m["io_formats.bytes_read"] = (sum(tracer.bytes_read.get(op, 0)
                                      for op in ops) / n, "bytes")
    for name in cli_names:
        m[f"cli.{name}.ms"] = (per_op(ms, f"cli.{name}"), "ms")
    m["cli.self_ms"] = (sum(self_ms.get(f"cli.{c}", 0.0)
                            for c in ("main",) + cli_names) / n, "ms")
    m[f"setup.{quad}.calls"] = (setup_quadratures, "count")
    m[f"setup.{quad}.ms"] = (setup_quadrature_ms, "ms")
    return m
