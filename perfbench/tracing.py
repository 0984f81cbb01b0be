"""Span recording around the program's public entry points.

The program is not modified: :class:`Patcher` swaps each named function
or method for a wrapper that opens a span, and puts the original back
afterwards.  A module-level function is replaced in *every* loaded
module that binds it (``repro.donn.model.encode_amplitude`` as well as
``repro.donn.encoding.encode_amplitude``), so call sites that imported
the name directly are traced too.

Spans stay in memory.  Each records its name, start, end, thread,
parent (the innermost open span on the same thread) and a weight (the
rows or bytes the call handled), which is all the self-time arithmetic
needs: a span's self time is its duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    weight: float = 1.0


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``span id -> duration minus its children's coverage``."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            parent = by_id[span.parent]
            children[span.parent].append(
                (max(span.start, parent.start), min(span.end, parent.end)))
    return {span.id: (span.end - span.start)
            - union_length(children.get(span.id, ()))
            for span in spans}


class Tracer:
    """Collects spans and counters from any thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: While false, wrappers call straight through (the untraced
        #: baseline a traced run compares itself with).
        self.enabled = True
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, name, self.clock()

    def end(self, token: tuple, weight: float = 1.0,
            end: Optional[float] = None) -> None:
        span_id, parent, name, start = token
        end = self.clock() if end is None else end
        self._stack().pop()
        self.spans.append(Span(span_id, parent, name, start, end,
                               threading.get_ident(), weight))

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, name: str, fn: Callable,
             weigh: Optional[Callable[..., float]] = None) -> Callable:
        """``fn`` inside a span.  ``weigh(result, *args, **kwargs)`` gives
        the span's weight (default 1); the counters ``<name>.calls`` and
        ``<name>.weight`` sum calls and weights."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            token = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(token)
                raise
            end = self.clock()
            weight = 1.0 if weigh is None else float(
                weigh(result, *args, **kwargs))
            self.end(token, weight, end)
            self.count(name + ".calls")
            self.count(name + ".weight", weight)
            return result

        return traced

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def self_seconds(self, spans: Optional[Sequence[Span]] = None
                     ) -> Dict[str, float]:
        """Total self time per span name."""
        spans = self.spans if spans is None else spans
        totals: Dict[str, float] = defaultdict(float)
        selfs = self_times(spans)
        for span in spans:
            totals[span.name] += selfs[span.id]
        return dict(totals)

    def covered(self, thread: int, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by top-level spans of one
        thread (equal to the sum of every span's self time there)."""
        return union_length(
            (max(span.start, start), min(span.end, end))
            for span in self.spans
            if span.thread == thread and span.parent is None
            and span.end > start and span.start < end)


def _resolve(path: str):
    """``"pkg.mod:Class"`` or ``"pkg.mod"`` -> the object."""
    module_name, _, attr = path.partition(":")
    obj = importlib.import_module(module_name)
    for part in filter(None, attr.split(".")):
        obj = getattr(obj, part)
    return obj


class Patcher:
    """Install tracing wrappers and restore the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def function(self, module: str, attr: str, name: str,
                 weigh=None) -> None:
        """Wrap a module-level function everywhere it is bound."""
        original = getattr(_resolve(module), attr)
        wrapper = self.tracer.wrap(name, original, weigh)
        package = module.split(".")[0]
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith(package):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapper)

    def method(self, owner: str, attr: str, name: str,
               weigh=None) -> None:
        """Wrap a method on the class that defines it."""
        cls = _resolve(owner)
        self.replace(cls, attr,
                     self.tracer.wrap(name, cls.__dict__[attr], weigh))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr``; :meth:`restore` puts the old value back."""
        self._undo.append(functools.partial(setattr, owner, attr,
                                            vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _fft_bytes(result, x, *args, **kwargs) -> float:
    """Computed bytes moved by one transform: input plus output array."""
    return getattr(x, "nbytes", 0) + getattr(result, "nbytes", 0)


def _engine_rows(result, engine, inputs, *args, **kwargs) -> float:
    shape = getattr(inputs, "shape", ())
    return shape[0] if len(shape) == 3 else 1


def _dispatch_rows(result, pool, kind, fields, *args, **kwargs) -> float:
    return len(fields)


#: Compute layers traced in every in-process workload.
COMPUTE_TARGETS = [
    ("function", "repro.backend.dispatch", "fft", "backend.fft", _fft_bytes),
    ("function", "repro.backend.dispatch", "ifft", "backend.fft", _fft_bytes),
    ("function", "repro.backend.dispatch", "fft2", "backend.fft", _fft_bytes),
    ("function", "repro.backend.dispatch", "ifft2", "backend.fft",
     _fft_bytes),
    ("function", "repro.donn.encoding", "encode_amplitude", "donn.encode",
     None),
    ("method", "repro.donn.model:DONN", "forward", "autodiff.forward", None),
    ("method", "repro.autodiff.tensor:Tensor", "backward",
     "autodiff.backward", None),
    ("method", "repro.autodiff.optim:Adam", "step", "autodiff.optim_step",
     None),
    ("method", "repro.roughness.regularizers:RoughnessRegularizer",
     "__call__", "roughness.regularizer", None),
    ("method", "repro.roughness.regularizers:IntraBlockRegularizer",
     "__call__", "roughness.regularizer", None),
    ("method", "repro.sparsify.slr:SLRSparsifier", "run", "sparsify.slr",
     None),
    ("method", "repro.twopi.optimizer:TwoPiOptimizer", "optimize_mask",
     "twopi.optimize_mask", None),
    ("method", "repro.runtime.engine:InferenceEngine", "__init__",
     "runtime.engine_build", None),
    ("method", "repro.runtime.engine:InferenceEngine", "predict",
     "runtime.engine", _engine_rows),
    ("method", "repro.runtime.engine:InferenceEngine", "logits",
     "runtime.engine", _engine_rows),
]

#: The in-process server's request path: admission, and the
#: micro-batcher handing a batch to the shard pool.
SERVE_TARGETS = [
    ("method", "repro.serve.server:Server", "submit", "serve.submit", None),
    ("method", "repro.serve.workers:ShardedPool", "submit",
     "serve.dispatch", _dispatch_rows),
]

#: The recipe's stages, so the layers above add up to the recipe wall.
STAGE_TARGETS = [
    ("method", f"repro.pipeline.stages:{cls}", "run", f"pipeline.{name}",
     None)
    for cls, name in (("TrainStage", "train"), ("SparsifyStage", "sparsify"),
                      ("ScoreStage", "score"), ("TwoPiStage", "twopi"))
]


def install(patcher: Patcher, targets) -> None:
    for kind, owner, attr, name, weigh in targets:
        getattr(patcher, kind)(owner, attr, name, weigh)


def compute_layers(selfs: Dict[str, float], counts: Dict[str, float],
                   wall: float) -> Dict[str, float]:
    """Self times and call counts of the compute layers."""
    layers = {
        "backend.fft_calls": counts.get("backend.fft.calls", 0),
        "backend.fft_s": selfs.get("backend.fft", 0.0),
        "backend.fft_bytes": counts.get("backend.fft.weight", 0),
        "backend.fft_share": (selfs.get("backend.fft", 0.0) / wall
                              if wall > 0 else 0.0),
        "twopi.calls": counts.get("twopi.optimize_mask.calls", 0),
    }
    for layer in ("donn.encode", "autodiff.forward", "autodiff.backward",
                  "autodiff.optim_step", "roughness.regularizer",
                  "runtime.engine"):
        layers[f"{layer}_s"] = selfs.get(layer, 0.0)
        layers[f"{layer}_calls"] = counts.get(f"{layer}.calls", 0)
    for layer in ("sparsify.slr", "twopi.optimize_mask",
                  "runtime.engine_build"):
        layers[f"{layer}_s"] = selfs.get(layer, 0.0)
    calls = counts.get("runtime.engine.calls", 0)
    layers["runtime.engine_rows_per_call"] = (
        counts.get("runtime.engine.weight", 0) / calls if calls else 0.0)
    return layers
