"""In-memory span recording around the program's public functions.

The traced run measures layers from outside the program: ``install``
replaces each public function at the place its callers look it up (a
class attribute, or the module global a caller reads at call time)
with a wrapper that records one span per call. Spans are plain tuples
kept in memory — ``(id, parent id, name, start, duration, attrs)``,
with the parent taken from a per-thread stack — and written as JSONL
once the process is done. Everything else (self time, counts, ratios,
how much of each root span its children cover) is derived from them
by :func:`summarize`.

Untraced runs never import this module's wrappers into the program,
so the end-to-end numbers carry no instrumentation.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, attrs_of=None):
        """``fn`` recording a span per call; ``attrs_of(args, result)``
        adds attributes (sizes, hit flags) after the call returns."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _perf() - t0
                stack.pop()
            attrs = attrs_of(args, result) if attrs_of is not None else None
            tracer.spans.append((span_id, parent, name, t0, dur, attrs))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, target: str, name: str, attrs_of=None) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr`` in place."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, attrs_of))
        self._patched.append((owner, attr, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- export ------------------------------------------------------
    def dump(self, path, process: str) -> None:
        with open(path, "w") as fh:
            for span in self.span_dicts(process):
                fh.write(json.dumps(span) + "\n")

    def span_dicts(self, process: str) -> list[dict]:
        return [
            {
                "process": process,
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "dur": dur,
                "attrs": attrs or {},
            }
            for span_id, parent, name, start, dur, attrs in self.spans
        ]


def load_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ----------------------------------------------------------------------
# The program's public functions, by layer
# ----------------------------------------------------------------------
def _n_obs(args, result):
    scene = args[0]
    return {"obs": sum(len(t.observations) for t in scene.tracks)}


def _nbytes(args, result):
    return {"bytes": len(result)}


def _hit(args, result):
    return {"hit": result is not None}


def _n_changed(args, result):
    return {"changed": len(result)}


def _op(args, result):
    request = args[1]
    return {"op": str(request.get("op")) if isinstance(request, dict) else "?"}


#: (lookup point, span name, attribute extractor). A function imported
#: by name into a caller's module is wrapped in that module too, since
#: that is where the caller looks it up.
TARGETS = (
    # core.compile / columnar / learning
    ("repro.core.engine:compile_scene", "compile", _n_obs),
    ("repro.serving.session:compile_scene", "compile", _n_obs),
    ("repro.core.engine:Fixy.scorer", "engine.lookup", None),
    ("repro.core.engine:Fixy.compile", "engine.lookup", None),
    # core.scoring
    ("repro.core.scoring:Scorer.rank", "rank", None),
    ("repro.api.backends:merge_rankings", "merge", None),
    ("repro.api.pool:merge_rankings", "merge", None),
    # warehouse.store / index
    ("repro.warehouse.store:SceneWarehouse.get_blob", "warehouse.fetch", _nbytes),
    ("repro.warehouse.store:SceneWarehouse.get_compiled", "warehouse.sidecar_get", _hit),
    ("repro.warehouse.store:restore_compiled", "warehouse.sidecar_restore", None),
    ("repro.warehouse.store:SceneWarehouse.put_compiled", "warehouse.sidecar_write", None),
    ("repro.warehouse.store:pack_compiled", "warehouse.sidecar_pack", _nbytes),
    ("repro.warehouse.store:SceneWarehouse.query", "warehouse.query", None),
    ("repro.warehouse.store:SceneWarehouse.gc_compiled", "warehouse.gc", None),
    ("repro.warehouse.store:SceneWarehouse.ingest", "warehouse.ingest", None),
    # api.frames
    ("repro.api.frames:unpack_scene", "frames.unpack", None),
    ("repro.api.frames:pack_scene", "frames.pack", None),
    ("repro.api.frames:encode_frame", "frames.encode", _nbytes),
    # api.pool / remote
    ("repro.api.pool:WorkerPool.audit", "pool.audit", None),
    ("repro.api.pool:WorkerPool._dispatch", "pool.dispatch", None),
    # serving.session / standing
    ("repro.serving.session:SceneSession.apply", "session.apply", _n_changed),
    # api.audit
    ("repro.api.audit:Audit.run", "audit", None),
    # serving front (server processes): one root span per request
    ("repro.serving.service:StreamingService.handle", "service.handle", _op),
    ("repro.serving.service:StreamingService.handle_frame", "service.handle", _op),
)


def install(tracer: Tracer, targets=TARGETS) -> Tracer:
    for target, name, attrs_of in targets:
        tracer.patch(target, name, attrs_of)
    return tracer


# ----------------------------------------------------------------------
# Derived per-layer figures
# ----------------------------------------------------------------------
def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, inclusive busy time (outermost calls only),
    self time, summed attrs; plus root coverage per root name.

    Spans are keyed by ``(process, id)``; a span's self time is its
    duration minus the durations of its direct children.
    """
    by_key = {(s["process"], s["id"]): s for s in spans}
    child_time: dict = defaultdict(float)
    child_names: dict = defaultdict(set)
    for s in spans:
        if s["parent"]:
            key = (s["process"], s["parent"])
            child_time[key] += s["dur"]
            child_names[key].add(s["name"])

    def nested_in_same(s) -> bool:
        parent = by_key.get((s["process"], s["parent"]))
        while parent is not None:
            if parent["name"] == s["name"]:
                return True
            parent = by_key.get((parent["process"], parent["parent"]))
        return False

    layers: dict = defaultdict(
        lambda: {
            "calls": 0,
            "busy_s": 0.0,
            "self_s": 0.0,
            "attrs": defaultdict(float),
            "busy_by": defaultdict(float),
        }
    )
    roots: dict = defaultdict(lambda: [0.0, 0.0])
    for s in spans:
        key = (s["process"], s["id"])
        layer = layers[s["name"]]
        layer["calls"] += 1
        if not nested_in_same(s):
            layer["busy_s"] += s["dur"]
        layer["self_s"] += max(0.0, s["dur"] - child_time[key])
        for attr, value in (s.get("attrs") or {}).items():
            if isinstance(value, str):  # a label: split busy time by it
                if not nested_in_same(s):
                    layer["busy_by"][value] += s["dur"]
            else:
                layer["attrs"][attr] += float(value)
        if not s["parent"]:
            roots[s["name"]][0] += s["dur"]
            roots[s["name"]][1] += min(child_time[key], s["dur"])
    lookups = [s for s in spans if s["name"] == "engine.lookup"]
    lookup_hits = sum(
        1
        for s in lookups
        if "compile" not in child_names[(s["process"], s["id"])]
    )
    return {
        "layers": {
            name: {
                "calls": v["calls"],
                "busy_s": v["busy_s"],
                "self_s": v["self_s"],
                "attrs": dict(v["attrs"]),
                "busy_by": dict(v["busy_by"]),
            }
            for name, v in layers.items()
        },
        "coverage": {
            name: (covered / total if total > 0 else 0.0)
            for name, (total, covered) in roots.items()
        },
        "engine_lookups": len(lookups),
        "engine_lookup_hits": lookup_hits,
    }
