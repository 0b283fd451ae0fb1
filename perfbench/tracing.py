"""Spans around the public functions of each teneig module.

A traced run swaps each function below for a wrapper that records one
span per call: name, start, end, parent span and operation.  The
program's own files are not touched; the wrappers are installed on the
imported modules and removed when the run ends.  Spans stay in memory
and are written out as gzipped JSON lines after the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time

import numpy as np

# (span name, module, attribute); a dotted attribute is a method
TRACED = (
    ("polysys.eval", "teneig.polysys", "PolySystem.evaluate"),
    ("polysys.eval", "teneig.polysys", "PolySystem.jacobian"),
    ("polysys.eval", "teneig.polysys", "PolySystem.value_and_jacobian"),
    ("polysys.build", "teneig.polysys", "build_eigen_system"),
    ("polysys.build", "teneig.polysys", "build_shifted_system"),
    ("linalg.solve", "numpy.linalg", "solve"),
    ("homotopy.track_all", "teneig.homotopy", "track_all"),
    ("homotopy.group", "teneig.homotopy", "group_into_classes"),
    ("spectra.eigenclasses", "teneig.spectra", "eigenclasses"),
    ("spectra.singular_probe", "teneig.spectra", "singular_probe"),
    ("dynamics.nilpotency", "teneig.dynamics", "nilpotency"),
    ("exact", "teneig.exact", "charpoly_exact_2_3"),
    ("exact", "teneig.exact", "hyperdeterminant_222"),
    ("exact", "teneig.exact", "is_singular_222"),
    ("tensorio.load", "teneig.tensorio", "load_tensor"),
    ("tensorio.dump", "teneig.tensorio", "report_to_json"),
    ("cli.main", "teneig.cli", "main"),
)

SHAPE_TAGS = ("m3n3", "m4n3", "m3n5", "m4n4", "motzkin")
CLI_COMMANDS = ("eig", "charpoly", "psd", "singular", "dynamics")

# per_layer metrics: name -> (unit, better); BENCHMARK.json lists the same
PER_LAYER = {
    "polysys.eval_calls": ("count", "lower"),
    "polysys.eval_points": ("count", "lower"),
    "polysys.eval_s": ("s", "lower"),
    "polysys.build_s": ("s", "lower"),
    "linalg.solve_calls": ("count", "lower"),
    "linalg.solve_s": ("s", "lower"),
    "homotopy.solves": ("count", "lower"),
    "homotopy.paths": ("count", "lower"),
    "homotopy.steps": ("count", "lower"),
    "homotopy.paths_failed": ("count", "lower"),
    "homotopy.track_self_s": ("s", "lower"),
    "homotopy.endgame_paths": ("count", "lower"),
    "homotopy.endgame_steps": ("count", "lower"),
    "homotopy.windings": ("count", "lower"),
    "homotopy.group_self_s": ("s", "lower"),
    "homotopy.recheck_solves": ("count", "lower"),
    "homotopy.recheck_s": ("s", "lower"),
    "homotopy.classes_per_path": ("ratio", "higher"),
    "spectra.eigenclasses_calls": ("count", "lower"),
    "spectra.solves_per_op": ("ratio", "lower"),
    "spectra.probe_s": ("s", "lower"),
    **{f"spectra.solve_s.{tag}": ("s", "lower") for tag in SHAPE_TAGS},
    "dynamics.symbolic_s": ("s", "lower"),
    "exact.calls": ("count", "lower"),
    "exact.s": ("s", "lower"),
    "tensorio.load_s": ("s", "lower"),
    "tensorio.dump_s": ("s", "lower"),
    **{f"cli.{cmd}_s": ("s", "lower") for cmd in CLI_COMMANDS},
    "trace.overhead_s": ("s", "lower"),
}


_ONE_POINT = {"points": 1}     # shared: most calls evaluate one point


def _eval_attrs(args, result):
    u = np.asarray(args[1])
    return _ONE_POINT if u.ndim == 1 else {"points": int(u.shape[0])}


def _track_attrs(args, result):
    endgame = [o for o in result if o.winding > 0]
    return {"paths": len(result),
            "steps": sum(o.steps for o in result),
            "failed": sum(not o.converged for o in result),
            "endgame_paths": len(endgame),
            "endgame_steps": sum(o.steps for o in endgame),
            "windings": sum(o.winding for o in endgame)}


def _report_attrs(args, result):
    return {"classes": len(result.classes)}


def _main_attrs(args, result):
    return {"command": args[0][0]}


ATTRS = {"polysys.eval": _eval_attrs, "homotopy.track_all": _track_attrs,
         "spectra.eigenclasses": _report_attrs, "cli.main": _main_attrs}


class Tracer:
    """Records spans while an operation is open; passes calls through
    untouched otherwise, so the output checks leave no spans.

    A span is a plain tuple (name, start, end, parent, op, attrs).  The
    garbage collector stops tracking tuples of atomic values, so a
    million spans do not slow every later collection, as tracked
    objects such as dataclass instances would.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._op = None
        self._patched: list = []

    def install(self) -> None:
        for name, module, attr in TRACED:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            # a function imported by name elsewhere (from .spectra import
            # eigenclasses) is a second reference that must be swapped too
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or mod_name.split(".")[0] == "teneig":
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = attrs(args, result) if attrs and result is not None \
                    else None
                spans[idx] = (name, t0, t1, parent, op, extra)

        return wrapper

    def run_op(self, index: int, label: str, tag: str, fn):
        """Run one operation under a root span of its own."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._op = index
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._op = None
            self._stack.pop()
            self.spans[idx] = ("op", t0, t1, None, index,
                               {"label": label, "tag": tag})

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, attrs) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "op": op, "parent": parent,
                    "start": start - origin, "end": end - origin,
                    "attrs": attrs}) + "\n")


def layer_metrics(spans: list, n_ops: int, overhead_s: float) -> dict:
    """Every per-layer metric from one traced run's spans."""
    names, starts, ends, parents, _, attrs = zip(*spans)
    dur = [e - s for s, e in zip(starts, ends)]
    child = [0.0] * len(spans)
    for p, d in zip(parents, dur):
        if p is not None:
            child[p] += d

    def by(name):
        return [i for i, s in enumerate(names) if s == name]

    def total(idx, key):
        return sum(attrs[i][key] for i in idx if attrs[i])

    def inside(i, name):
        p = parents[i]
        while p is not None:
            if names[p] == name:
                return True
            p = parents[p]
        return False

    def median(values):
        return statistics.median(values) if values else 0.0

    ev, track, group = by("polysys.eval"), by("homotopy.track_all"), \
        by("homotopy.group")
    eig, exact, mains = by("spectra.eigenclasses"), by("exact"), by("cli.main")
    recheck = [i for i in track if inside(i, "homotopy.group")]
    paths = total(track, "paths")
    out = {
        "polysys.eval_calls": len(ev),
        "polysys.eval_points": total(ev, "points"),
        "polysys.eval_s": sum(dur[i] for i in ev),
        "polysys.build_s": sum(dur[i] for i in by("polysys.build")),
        "linalg.solve_calls": len(by("linalg.solve")),
        "linalg.solve_s": sum(dur[i] for i in by("linalg.solve")),
        "homotopy.solves": len(track),
        "homotopy.paths": paths,
        "homotopy.steps": total(track, "steps"),
        "homotopy.paths_failed": total(track, "failed"),
        "homotopy.track_self_s": sum(dur[i] - child[i] for i in track),
        "homotopy.endgame_paths": total(track, "endgame_paths"),
        "homotopy.endgame_steps": total(track, "endgame_steps"),
        "homotopy.windings": total(track, "windings"),
        "homotopy.group_self_s": sum(dur[i] - child[i] for i in group),
        "homotopy.recheck_solves": len(recheck),
        "homotopy.recheck_s": sum(dur[i] for i in recheck),
        "homotopy.classes_per_path":
            total(eig, "classes") / paths if paths else 0.0,
        "spectra.eigenclasses_calls": len(eig),
        "spectra.solves_per_op": len(track) / n_ops,
        "spectra.probe_s": sum(dur[i] for i in by("spectra.singular_probe")),
        "dynamics.symbolic_s":
            sum(dur[i] - child[i] for i in by("dynamics.nilpotency")),
        "exact.calls": len(exact),
        "exact.s": sum(dur[i] for i in exact if names[parents[i]] != "exact"),
        "tensorio.load_s": sum(dur[i] for i in by("tensorio.load")),
        "tensorio.dump_s": sum(dur[i] for i in by("tensorio.dump")),
        "trace.overhead_s": overhead_s,
    }
    for tag in SHAPE_TAGS:
        out[f"spectra.solve_s.{tag}"] = median(
            [dur[i] for i in eig if names[parents[i]] == "op"
             and attrs[parents[i]]["tag"] == tag])
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_s"] = median(
            [dur[i] for i in mains if attrs[i] and attrs[i]["command"] == cmd])
    return out
