"""Span tracing of the dilgp layers from outside the library.

`LayerTracer` replaces, for the duration of a `with` block, every function
and method defined in the layer modules (and the scipy.linalg entry points
that `gp` and `train` call) with a wrapper that records one span per call.
Spans are kept in memory as (name, start, end, parent, ok, note) tuples and
reduced afterwards; nothing under src/ is modified on disk.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under a root add up to the root's
duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("kernels", "gp", "train", "bo", "quad", "data", "experiments")
# Modules whose scipy.linalg calls are counted as LAPACK work of the gp layer.
LAPACK_CALLERS = ("gp", "train")
FACTORIZATIONS = ("cholesky", "cho_factor")
# The benchmark opens one span named JOB_SPAN_PREFIX + <model> around each job.
JOB_SPAN_PREFIX = "bench.job."

NAME, START, END, PARENT, OK, NOTE = range(6)


def _lapack_name(fn_name: str, args, kwargs) -> str:
    """Role name of one scipy.linalg call: a factorization, a solve with an
    n x n right-hand side (a dense inverse), or another solve."""
    if fn_name in FACTORIZATIONS:
        return "gp.cholesky"
    b = args[1] if len(args) > 1 else kwargs.get("b")
    if isinstance(b, np.ndarray) and b.ndim == 2 and b.shape[0] == b.shape[1] > 1:
        return "gp.dense_solve"
    return f"gp.{fn_name}"


def _train_trace_len(result):
    """Outer rounds completed by a training call: the length of the
    TrainTrace it returns, if any."""
    train = sys.modules["dilgp.train"]
    items = result if isinstance(result, tuple) else (result,)
    for item in items:
        if isinstance(item, train.TrainTrace):
            return len(item)
    return None


def _diverged(result):
    return bool(getattr(result, "diverged", False))


# Extra per-call facts recorded in a span's note, by span name or layer.
NOTES = {"train": _train_trace_len, "quad.simulate": _diverged}


class LayerTracer:
    """Records spans while installed. Use as a context manager around a pass;
    `span(name)` opens a span from the benchmark's own code."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    # -- span recording -------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), None, parent, False, None))
        self._stack.append(idx)
        return idx

    def _close(self, idx, ok, note=None):
        end = perf_counter()
        self._stack.pop()
        name, start, _, parent, _, _ = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, ok, note)

    @contextmanager
    def span(self, name):
        idx, ok = self._open(name), False
        try:
            yield
            ok = True
        finally:
            self._close(idx, ok)

    def wrap(self, name, fn, namer=None, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, False)
                raise
            self._close(idx, True, note(result) if note else None)
            return result

        return traced

    # -- installation ---------------------------------------------------
    def _replacements(self) -> dict:
        """id of the original callable -> wrapper, for every traced function.
        (Keyed by id because module globals may hold unhashable values.)"""
        out = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"dilgp.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    out[id(obj)] = self.wrap(name, obj, note=NOTES.get(name) or NOTES.get(layer))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not meth.startswith("__")
                                                       or meth in ("__init__", "__post_init__")):
                            self._restore.append((obj, meth, fn))
                            setattr(obj, meth, self.wrap(f"{layer}.{obj.__name__}.{meth}", fn))
            if layer in LAPACK_CALLERS:
                for attr, obj in vars(mod).items():
                    if inspect.isroutine(obj) and (obj.__module__ or "").startswith("scipy.linalg"):
                        out[id(obj)] = self.wrap(attr, obj,
                                                 namer=functools.partial(_lapack_name, attr))
        return out

    def __enter__(self):
        importlib.import_module("dilgp")
        by_id = self._replacements()
        for modname, mod in list(sys.modules.items()):
            if modname != "dilgp" and not modname.startswith("dilgp."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, exc_type, exc, tb):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()
        return False


# -- reduction ------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def by_name(spans, own=None) -> dict:
    """name -> {"calls", "self_s", "failed"} over all spans."""
    own = self_times(spans) if own is None else own
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "failed": 0})
    for s, t in zip(spans, own):
        rec = out[s[NAME]]
        rec["calls"] += 1
        rec["self_s"] += t
        rec["failed"] += not s[OK]
    return dict(out)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def by_layer(spans, own=None) -> dict:
    """layer -> total self time. Spans opened by the benchmark count as 'bench'."""
    own = self_times(spans) if own is None else own
    out = defaultdict(float)
    for s, t in zip(spans, own):
        out[layer_of(s[NAME])] += t
    return dict(out)


def training_counts(spans) -> dict:
    """Per model: factorizations, dense solves and outer rounds inside the
    training calls, i.e. under the outermost train-layer span of each job.

    The model comes from the enclosing job span opened by the benchmark
    (JOB_SPAN_PREFIX + model); the rounds from the TrainTrace returned by the
    outermost train-layer call that returns one.
    """
    model = [None] * len(spans)
    in_train = [False] * len(spans)
    counted = [False] * len(spans)   # an enclosing train call already gave rounds
    out = defaultdict(lambda: {"cholesky": 0, "dense_solve": 0, "rounds": 0, "calls": 0})
    for i, s in enumerate(spans):
        p = s[PARENT]
        is_train = layer_of(s[NAME]) == "train"
        model[i] = s[NAME][len(JOB_SPAN_PREFIX):] if s[NAME].startswith(JOB_SPAN_PREFIX) else (
            model[p] if p >= 0 else None)
        in_train[i] = is_train or (p >= 0 and in_train[p])
        gives_rounds = is_train and s[NOTE] is not None
        counted[i] = p >= 0 and counted[p]
        if model[i] is None or not in_train[i]:
            continue
        rec = out[model[i]]
        if gives_rounds and not counted[i]:
            rec["rounds"] += s[NOTE]
            rec["calls"] += 1
            counted[i] = True
        elif s[NAME] == "gp.cholesky" and s[OK]:
            rec["cholesky"] += 1
        elif s[NAME] == "gp.dense_solve":
            rec["dense_solve"] += 1
    return dict(out)
