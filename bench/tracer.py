"""Span tracer that wraps the public functions of each `hamens` layer.

The wrappers are installed from outside the package: every module of
`hamens` that holds a reference to a wrapped function (because it imported
it by name) gets the wrapper in its place, and methods are replaced on their
classes.  A span records name, start, end and parent; spans stay in memory in
flat arrays and are written to an .npz file when the traced process ends.

A call into a function whose span name is already open (a method that
recurses over the points of an array, or `RunConfig.build_family` calling
`MapFamily.from_ensemble`) opens no second span, so inclusive times never
count the same interval twice.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

ROOT_SPAN = "cli.main"

_ANGULAR_KINDS = {"SphereAngular": "sphere", "BagelAngular": "bagel",
                  "DumbbellAngular": "dumbbell", "CardioidAngular": "cardioid",
                  "KneadedCardioidAngular": "kneaded"}


class Tracer:
    """In-memory span store plus per-layer work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open: Counter = Counter()
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name (no new span if one is already open)."""
        if self._open[name]:
            return fn(*args, **kwargs)
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(float("nan"))
        self._stack.append(index)
        self._open[name] += 1
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            self.counts[f"{name}.raised.{type(err).__name__}"] += 1
            raise
        finally:
            self.end[index] = perf_counter()
            self._stack.pop()
            self._open[name] -= 1

    def wrap(self, name, fn, on_call=None):
        """A wrapper of fn that opens a span; on_call(tracer, args) may count work.

        ``name`` is a string or a function of the call arguments.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args)
            if on_call is not None and not self._open[span]:
                on_call(self, args)
            return self.call(span, fn, *args, **kwargs)
        return wrapper

    def dump(self, path):
        np.savez(path, names=np.array(self.names or [""]), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end), counts=np.array(json.dumps(dict(self.counts))))


def _replace_everywhere(original, wrapper):
    """Point every loaded hamens module attribute that is `original` at `wrapper`."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "hamens" and not mod_name.startswith("hamens."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _count(key, size_of):
    def on_call(tracer, args):
        tracer.counts[key] += size_of(args)
    return on_call


def _mc_samples(args):
    # mc_average(ensemble, rho0, t, cfg): t == 0 returns r0 without drawing
    return args[3].n_samples if float(args[2]) != 0.0 else 0


def install(tracer: Tracer):
    """Wrap the layer entry points of an imported `hamens` package."""
    import hamens.cli  # noqa: F401  (loads every module that gets wrapped)
    from hamens import (angular, config, dynmap, generator, montecarlo, propagation,
                        quadrature, radial, validation)

    grid_points = _count("dynmap.points", lambda a: np.size(a[2]))
    functions = [
        (config.load_config, "config.load_config", None),
        (angular.directional_moments_quadrature, "angular.moments_quadrature", None),
        (quadrature.sphere_integral, "quadrature.sphere_integral", None),
        (quadrature.panel_integrate, "quadrature.panel_integrate", None),
        (dynmap.bloch_trajectory, "dynmap.trajectory", grid_points),
        (dynmap.purity_trajectory, "dynmap.trajectory", grid_points),
        (generator.rate_trajectory, "generator.rate_trajectory", None),
        (generator.extract_generator, "generator.extract", None),
        (generator.pole_scan, "generator.pole_scan", None),
        (generator.offdiagonal_rate, "generator.offdiagonal_rate", None),
        (montecarlo.mc_average, "montecarlo.mc_average", _count("montecarlo.samples", _mc_samples)),
        (montecarlo.sample_radial, "montecarlo.sample_radial", None),
        (montecarlo.sample_angular,
         lambda a: f"montecarlo.sample_angular.{_ANGULAR_KINDS.get(type(a[0]).__name__, 'other')}", None),
        (validation.check_radial_quadrature, "validation.radial_quadrature", None),
        (validation.check_mc_vs_map, "validation.mc_vs_map", None),
        (validation.check_extraction, "validation.extraction", None),
        (validation.check_roundtrip, "validation.roundtrip", None),
    ]
    for fn, name, on_call in functions:
        _replace_everywhere(fn, tracer.wrap(name, fn, on_call))

    master = propagation.integrate_master
    traced_master = tracer.wrap("propagation.integrate_master", master)

    @functools.wraps(master)
    def integrate_master(genfn, *args, **kwargs):
        def counted(t):
            tracer.counts["propagation.generator_evals"] += 1
            return genfn(t)
        return traced_master(counted, *args, **kwargs)
    _replace_everywhere(master, integrate_master)

    # radial expectations: methods, overridden per model class
    points = _count("radial.expectation_calls", lambda a: np.size(a[-1]))
    for cls in (radial.RadialModel, radial.GaussianRadial, radial.ExponentialCutoffRadial,
                radial.ReciprocalSquareRadial, radial.TabulatedRadial):
        for meth in ("expectation", "cos_expectation", "sin_expectation",
                     "dcos_expectation", "dsin_expectation"):
            if meth in vars(cls):
                setattr(cls, meth, tracer.wrap("radial.expectation", vars(cls)[meth], points))

    build_family = config.RunConfig.build_family
    config.RunConfig.build_family = tracer.wrap("ensemble.build_family", build_family)
    from_ensemble = vars(dynmap.MapFamily)["from_ensemble"].__func__
    dynmap.MapFamily.from_ensemble = classmethod(tracer.wrap("ensemble.build_family", from_ensemble))


# -- aggregation --------------------------------------------------------------

def load_spans(path):
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def span_summary(spans):
    """Inclusive time, self time and span count per span name; plus the counters."""
    names = [str(n) for n in spans["names"]]
    name_id = spans["name_id"]
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    out = {}
    for i, name in enumerate(names):
        sel = name_id == i
        if np.any(sel):
            out[name] = {"s": float(dur[sel].sum()), "self_s": float(self_time[sel].sum()),
                         "calls": int(sel.sum())}
    return out, Counter(json.loads(str(spans["counts"])))
