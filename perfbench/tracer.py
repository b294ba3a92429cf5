"""Spans around the public functions of each greencurves module, from outside.

``Tracer.installed()`` replaces every public function of the layer modules
with a recording wrapper in every greencurves module namespace that bound it
(``integration`` and ``mainlemma`` import ``winding_numbers`` and
``distance_to_curve`` by name, ``cli`` imports ``index_field``), wraps the
``PieceSet`` methods on the class itself, and wraps the ``value`` and
``dbar`` callables of every function descriptor the factories return.  On
exit every original object is put back.

A span is ``[name, start, end, parent, info]``; ``info`` holds the work
counts read from the call's arguments and result.  Spans stay in memory and
are written out once, when the run ends.  Spans nest through one stack, so
the traced run must be single-threaded (``GC_THREADS=1``).
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "curves", "winding", "integration", "vitushkin", "mainlemma", "functions", "svg")
CHECKS = ("green", "decompose", "vitushkin", "mainlemma", "square", "mollifier")
EVAL = ("functions.value", "functions.dbar")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("winding.winding_numbers.s", "s"),
    ("winding.winding_numbers.calls", "count"),
    ("winding.winding_numbers.edge_points", "count"),
    ("winding.distance_to_curve.s", "s"),
    ("winding.distance_to_curve.calls", "count"),
    ("winding.distance_to_curve.edge_points", "count"),
    ("winding.distance_to_curve.point_query_calls", "count"),
    ("winding.index_field.s", "s"),
    ("winding.index_field.cells", "count"),
    ("winding.index_field.near_frac", "ratio"),
    ("integration.area_integral_weighted.s", "s"),
    ("integration.area_integral_weighted.level1.subcells", "count"),
    ("integration.area_integral_weighted.level2.subcells", "count"),
    ("integration.area_integral_weighted.level3.subcells", "count"),
    ("integration.area_integral_weighted.level4.subcells", "count"),
    ("integration.area_integral_weighted.straddle_frac", "ratio"),
    ("integration.contour_integral.s", "s"),
    ("integration.contour_integral.calls", "count"),
    ("integration.green_on_square.s", "s"),
    ("integration.green_on_square.subsquares", "count"),
    ("integration.mollifier_identity_check.s", "s"),
    ("vitushkin.PieceSet.eval.s", "s"),
    ("vitushkin.PieceSet.eval.calls", "count"),
    ("vitushkin.PieceSet.eval.points", "count"),
    ("vitushkin.PieceSet.piece.calls", "count"),
    ("vitushkin.PieceSet.piece.hit_ratio", "ratio"),
    ("vitushkin.PieceSet.active_pieces.s", "s"),
    ("vitushkin.PieceSet.active_pieces.active_ratio", "ratio"),
    ("vitushkin.PieceSet.contour_integrals.s", "s"),
    ("vitushkin.PieceSet.contour_integrals.pieces", "count"),
    ("vitushkin.build_partition.bumps", "count"),
    ("vitushkin.delta_sweep.self_s", "s"),
    ("functions.value.s", "s"),
    ("functions.value.points", "count"),
    ("functions.dbar.s", "s"),
    ("functions.dbar.points", "count"),
    ("curves.self_intersections.s", "s"),
    ("curves.self_intersections.pairs", "count"),
    ("curves.self_intersections.events", "count"),
    ("curves.self_intersections.hit_ratio", "ratio"),
    ("curves.jordan_decompose.self_s", "s"),
    ("curves.jordan_decompose.loops", "count"),
    ("mainlemma.circle_crossings.s", "s"),
    ("mainlemma.circle_crossings.calls", "count"),
    ("mainlemma.circle_crossings.crossings", "count"),
    ("mainlemma.circle_crossings.errors", "count"),
    ("mainlemma.with_jitter.retries", "count"),
    ("mainlemma.exterior_components.calls_per_disc", "ratio"),
    ("mainlemma.select_interval.s", "s"),
    ("mainlemma.select_interval.calls", "count"),
    ("mainlemma.build_generations.s", "s"),
    ("mainlemma.build_generations.max_depth", "count"),
    ("mainlemma.exterior_integral_identity.self_s", "s"),
    ("mainlemma.bound_check.self_s", "s"),
    ("mainlemma.geometry_dump.self_s", "s"),
    ("svg.render_svg.s", "s"),
    ("svg.render_svg.bytes", "bytes"),
    *[(f"cli.check.{c}_s", "s") for c in CHECKS],
    ("cli.run_scenario.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _queries(args, kwargs):
    return {"points": int(np.size(_arg(args, kwargs, 1, "zs"))),
            "edges": _arg(args, kwargs, 0, "curve").n}


# post hooks: (args, kwargs, result, pre) -> info dict stored on the span
_POST = {
    "winding.winding_numbers": lambda a, k, out, pre: _queries(a, k),
    "winding.distance_to_curve": lambda a, k, out, pre: _queries(a, k),
    "winding.index_field": lambda a, k, out, pre: {
        "cells": int(out.values.size), "near": int(out.near_mask.sum())},
    "integration.area_integral_weighted": lambda a, k, out, pre: {
        "straddle": out[1]["straddle_area"],
        "band": float(_arg(a, k, 0, "field_").near_mask.sum()) * _arg(a, k, 0, "field_").grid.cell_area},
    "integration.green_on_square": lambda a, k, out, pre: {
        "subsquares": sum(4 ** g for g in range(int(_arg(a, k, 3, "depth")) + 1))},
    "vitushkin.PieceSet.eval": lambda a, k, out, pre: {"points": int(np.size(out))},
    "vitushkin.PieceSet.piece": lambda a, k, out, pre: {"hit": pre},
    "vitushkin.PieceSet.active_pieces": lambda a, k, out, pre: {"asked": pre, "active": len(out)},
    "vitushkin.PieceSet.contour_integrals": lambda a, k, out, pre: {"pieces": len(out)},
    "vitushkin.build_partition": lambda a, k, out, pre: {"bumps": out.n_bumps},
    "curves.self_intersections": lambda a, k, out, pre: {
        "pairs": pre * (pre - 3) // 2, "events": len(out)},
    "curves.jordan_decompose": lambda a, k, out, pre: {"loops": len(out.loops)},
    "mainlemma.circle_crossings": lambda a, k, out, pre: {"crossings": len(out)},
    "mainlemma.build_generations": lambda a, k, out, pre: {"max_depth": out.max_depth},
    "svg.render_svg": lambda a, k, out, pre: {"bytes": len(out)},
}


def _points(a, k, out, pre):
    return {"points": int(np.size(a[0]))}


def _asked(a, k):
    js = k.get("js", a[1] if len(a) > 1 else None)
    return a[0].partition.n_bumps if js is None else len(js)


# pre hooks: (args, kwargs) -> value read before the call
_PRE = {
    # PieceSet keeps its per-piece cache in _cache; a hit is a j already there
    "vitushkin.PieceSet.piece": lambda a, k: _arg(a, k, 1, "j") in a[0]._cache,
    "vitushkin.PieceSet.active_pieces": _asked,
    "curves.self_intersections": lambda a, k: _arg(a, k, 0, "curve").n,
}

_PIECESET_METHODS = ("eval", "piece", "active_pieces", "contour_integrals")
_FACTORIES = ("make_function", "with_cutoff", "truncated_cauchy")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, post=None):
        post = post or _POST.get(name)
        pre = _PRE.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            before = pre(args, kwargs) if pre else None
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = clock()
                rec[4] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[2] = clock()
            if post:
                rec[4] = post(args, kwargs, out, before)
            return out

        return wrapper

    def _wrap_descriptor(self, args, kwargs, out, pre):
        """Post hook of the descriptor factories: trace the returned value and dbar."""
        out.value = self.wrap("functions.value", out.value, _points)
        out.dbar = self.wrap("functions.dbar", out.dbar, _points)

    @contextmanager
    def installed(self):
        """Wrap every public layer function and PieceSet method; restore on exit."""
        import greencurves.cli  # noqa: F401  (loads every layer module)
        from greencurves.vitushkin import PieceSet

        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"greencurves.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                post = self._wrap_descriptor if layer == "functions" and attr in _FACTORIES else None
                replace[obj] = self.wrap(f"{layer}.{attr}", obj, post)
        undo = []
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "greencurves" or mname.startswith("greencurves.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, replace[obj])
        for meth in _PIECESET_METHODS:
            orig = PieceSet.__dict__[meth]
            undo.append((PieceSet, meth, orig))
            setattr(PieceSet, meth, self.wrap(f"vitushkin.PieceSet.{meth}", orig))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)


_TIMING = re.compile(r"^\[timing\] (\w+): ([0-9.]+)s$", re.M)


def check_seconds(stderr_text: str) -> dict:
    """Per-check seconds summed from run_scenario(verbose=True)'s [timing] lines."""
    out = defaultdict(float)
    for name, secs in _TIMING.findall(stderr_text):
        out[name] += float(secs)
    return out


def layer_metrics(spans: list, first: int = 0) -> dict:
    """Per-layer values from spans[first:] (one traced pass), by PER_LAYER name."""
    by_name = defaultdict(list)
    dur = defaultdict(float)       # name -> time in spans not nested in a same-layer call
    top = defaultdict(list)        # name -> those outermost spans
    child_time = defaultdict(float)
    kids = defaultdict(list)
    for i in range(first, len(spans)):
        name, t0, t1, parent, _ = spans[i]
        by_name[name].append(i)
        pname = spans[parent][0] if parent >= 0 else ""
        if pname != name and not (name in EVAL and pname in EVAL):
            dur[name] += t1 - t0
            top[name].append(i)
        if parent >= first:
            child_time[parent] += t1 - t0
            kids[parent].append(i)
    calls = defaultdict(int, {name: len(idx) for name, idx in by_name.items()})

    def infos(name, outer_only=False):
        return [spans[i][4] or {} for i in (top if outer_only else by_name)[name]]

    def self_s(name):
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in by_name[name])

    def total(name, key):
        return sum(info.get(key, 0) for info in infos(name))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for fn in ("winding_numbers", "distance_to_curve"):
        name = f"winding.{fn}"
        m[f"{name}.s"] = dur[name]
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.edge_points"] = sum(i.get("points", 0) * i.get("edges", 0) for i in infos(name))
    m["winding.distance_to_curve.point_query_calls"] = sum(
        1 for i in infos("winding.distance_to_curve") if i.get("points") == 1)
    m["winding.index_field.s"] = dur["winding.index_field"]
    m["winding.index_field.cells"] = total("winding.index_field", "cells")
    m["winding.index_field.near_frac"] = ratio(total("winding.index_field", "near"),
                                               m["winding.index_field.cells"])
    area = "integration.area_integral_weighted"
    m[f"{area}.s"] = dur[area]
    levels = defaultdict(int)
    for i in by_name[area]:
        # each distance_to_curve call directly under one area integral is one refinement level
        dists = [c for c in kids[i] if spans[c][0] == "winding.distance_to_curve"]
        for lvl, c in enumerate(dists, 1):
            levels[lvl] += (spans[c][4] or {}).get("points", 0)
    for lvl in range(1, 5):
        m[f"{area}.level{lvl}.subcells"] = levels[lvl]
    m[f"{area}.straddle_frac"] = ratio(total(area, "straddle"), total(area, "band"))
    m["integration.contour_integral.s"] = dur["integration.contour_integral"]
    m["integration.contour_integral.calls"] = calls["integration.contour_integral"]
    m["integration.green_on_square.s"] = dur["integration.green_on_square"]
    m["integration.green_on_square.subsquares"] = total("integration.green_on_square", "subsquares")
    m["integration.mollifier_identity_check.s"] = dur["integration.mollifier_identity_check"]
    ps = "vitushkin.PieceSet"
    m[f"{ps}.eval.s"] = dur[f"{ps}.eval"]
    m[f"{ps}.eval.calls"] = calls[f"{ps}.eval"]
    m[f"{ps}.eval.points"] = total(f"{ps}.eval", "points")
    m[f"{ps}.piece.calls"] = calls[f"{ps}.piece"]
    m[f"{ps}.piece.hit_ratio"] = ratio(total(f"{ps}.piece", "hit"), calls[f"{ps}.piece"])
    m[f"{ps}.active_pieces.s"] = dur[f"{ps}.active_pieces"]
    m[f"{ps}.active_pieces.active_ratio"] = ratio(total(f"{ps}.active_pieces", "active"),
                                                  total(f"{ps}.active_pieces", "asked"))
    m[f"{ps}.contour_integrals.s"] = dur[f"{ps}.contour_integrals"]
    m[f"{ps}.contour_integrals.pieces"] = total(f"{ps}.contour_integrals", "pieces")
    m["vitushkin.build_partition.bumps"] = total("vitushkin.build_partition", "bumps")
    m["vitushkin.delta_sweep.self_s"] = self_s("vitushkin.delta_sweep")
    for name in EVAL:
        m[f"{name}.s"] = dur[name]
        m[f"{name}.points"] = sum(i.get("points", 0) for i in infos(name, outer_only=True))
    si = "curves.self_intersections"
    m[f"{si}.s"] = dur[si]
    m[f"{si}.pairs"] = total(si, "pairs")
    m[f"{si}.events"] = total(si, "events")
    m[f"{si}.hit_ratio"] = ratio(m[f"{si}.events"], m[f"{si}.pairs"])
    m["curves.jordan_decompose.self_s"] = self_s("curves.jordan_decompose")
    m["curves.jordan_decompose.loops"] = total("curves.jordan_decompose", "loops")
    cc = "mainlemma.circle_crossings"
    m[f"{cc}.s"] = dur[cc]
    m[f"{cc}.calls"] = calls[cc]
    m[f"{cc}.crossings"] = total(cc, "crossings")
    m[f"{cc}.errors"] = sum(1 for i in infos(cc) if "error" in i)
    m["mainlemma.with_jitter.retries"] = sum(
        max(0, sum(1 for c in kids[i] if spans[c][0] == cc) - 1)
        for i in by_name["mainlemma.with_jitter"])
    m["mainlemma.exterior_components.calls_per_disc"] = ratio(
        calls["mainlemma.exterior_components"], calls["mainlemma.with_jitter"])
    m["mainlemma.select_interval.s"] = dur["mainlemma.select_interval"]
    m["mainlemma.select_interval.calls"] = calls["mainlemma.select_interval"]
    m["mainlemma.build_generations.s"] = dur["mainlemma.build_generations"]
    m["mainlemma.build_generations.max_depth"] = max(
        (i.get("max_depth", -1) for i in infos("mainlemma.build_generations")), default=0)
    for fn in ("exterior_integral_identity", "bound_check", "geometry_dump"):
        m[f"mainlemma.{fn}.self_s"] = self_s(f"mainlemma.{fn}")
    m["svg.render_svg.s"] = dur["svg.render_svg"]
    m["svg.render_svg.bytes"] = total("svg.render_svg", "bytes")
    m["cli.run_scenario.self_s"] = self_s("cli.run_scenario")
    m["trace.spans"] = len(spans) - first
    return m
