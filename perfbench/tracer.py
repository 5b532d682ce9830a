"""Spans around calls into degctrl's public functions, recorded from outside.

``cost`` and ``cli`` import the pipeline functions by name, so patching
only the defining module would miss their calls. ``Tracer.install``
therefore replaces the function in every ``degctrl.*`` namespace that
binds it, and ``uninstall`` puts the originals back.

Spans stay in memory as (op, name, start, end, parent, info) tuples and
are written out once, by ``dump``. Per-layer statistics are reductions of
the spans: a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _bessel_points(args, kwargs, result):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["x"]))}


def _newton_iters(args, kwargs, result):
    return {"newton_iters": result.newton_iters}


def _backoff(args, kwargs, result):
    n_modes = args[3] if len(args) > 3 else kwargs["n_modes"]
    return {"backoff_steps": n_modes - result.n_used}


def _dir_state(path):
    """(mtime, size) of every file in ``path``."""
    try:
        entries = [e for e in os.scandir(path) if e.is_file()]
    except FileNotFoundError:
        return {}
    return {e.name: (st.st_mtime_ns, st.st_size) for e in entries for st in [e.stat()]}


def _out_dir(argv):
    argv = list(argv or [])
    return argv[argv.index("--out-dir") + 1] if "--out-dir" in argv else "."


# qualified name -> function computing extra counters from (args, kwargs, result)
TARGETS = {
    "bessel.bessel_j_many": _bessel_points,
    "bessel.bessel_zero": _newton_iters,
    "bessel.bessel_j_prime": None,
    "spectrum.make_basis": None,
    "spectrum.project": None,
    "biortho.build_biortho": None,
    "control.synthesize": None,
    "control.moment_residual": None,
    "simulate.evolve": None,
    "cost.cost_upper": _backoff,
    "cost.cost_lower": None,
    "cost.cost_sweep": None,
    "cli.main": None,   # bytes_written is measured around the call
}

# exceptions of build_biortho that count as a rejected mode count
REJECTIONS = {"ConditioningError": "rejected_conditioning",
              "AccuracyError": "rejected_accuracy"}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.op = -1
        self._originals = {}
        for qual in TARGETS:
            mod, func = qual.split(".")
            self._originals[qual] = getattr(importlib.import_module(f"degctrl.{mod}"), func)

    def install(self):
        wrappers = {id(orig): (orig, self._wrap(qual, orig))
                    for qual, orig in self._originals.items()}
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "degctrl" or name.startswith("degctrl.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def _wrap(self, qual, orig):
        extra = TARGETS[qual]
        spans, stack = self.spans, self._stack
        is_main = qual == "cli.main"

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if is_main:
                before = _dir_state(_out_dir(args[0] if args else kwargs.get("argv")))
            info = {}
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except Exception as err:
                info["error"] = type(err).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (self.op, qual, t0, t1, parent, info)
            # counters are read after the span closes; the dict is shared
            if extra is not None:
                info.update(extra(args, kwargs, result))
            if is_main:
                after = _dir_state(_out_dir(args[0] if args else kwargs.get("argv")))
                info["bytes_written"] = sum(size for name, (mt, size) in after.items()
                                            if before.get(name) != (mt, size))
            return result
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            for op, qual, t0, t1, parent, info in self.spans:
                fh.write(json.dumps({"op": op, "name": qual, "start": t0, "end": t1,
                                     "parent": parent, **info}) + "\n")


def layer_stats(spans, n_ops, scales):
    """Per-op averages of calls, self time and counters, by qualified name.

    ``scales[op]`` converts op's span times to reference speed.
    """
    child_time = defaultdict(float)
    for op, qual, t0, t1, parent, info in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    totals = defaultdict(float)
    for idx, (op, qual, t0, t1, parent, info) in enumerate(spans):
        totals[f"{qual}.calls"] += 1
        totals[f"{qual}.self_ms"] += 1e3 * (t1 - t0 - child_time[idx]) * scales[op]
        for key, val in info.items():
            if key == "error":
                if qual == "biortho.build_biortho" and val in REJECTIONS:
                    totals[f"{qual}.{REJECTIONS[val]}"] += 1
            else:
                totals[f"{qual}.{key}"] += val
    return {key: val / n_ops for key, val in totals.items()}


def root_time(spans):
    """Seconds covered by spans without a parent, per op id."""
    out = defaultdict(float)
    for op, qual, t0, t1, parent, info in spans:
        if parent < 0:
            out[op] += t1 - t0
    return out
