"""The audit-stack benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each
exists): ``batch`` and ``serve-mixed``. ``--trace 0`` reports the
end-to-end metrics;
``--trace 1`` runs the workload twice in one process — untraced, then
with spans recorded around the program's public functions here and in
every server process it starts — and reports the per-layer metrics
derived from those spans plus the tracing overhead between the two.

Output: a ``{"report": ...}`` line (environment, validity accounting,
check details), then, as the last line, the result
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
whenever a result was printed; a run that cannot execute the program
(no ``src/`` beside this directory, a server that will not start)
exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "scenes_per_s": "1/s",
    "cold_scenes_per_s": "1/s",
    "audit_p50_ms": "ms",
    "audit_p96_ms": "ms",
    "edit_p50_ms": "ms",
    "edit_p96_ms": "ms",
    "precision_at_10": "ratio",
    "ok_ratio": "ratio",
}

#: Tail latency percentile: the highest with at least ten samples beyond
#: it on serve-mixed (~3k audits and ~2.5k edits in 25 s); on batch's
#: ~10 audits per run it is the slowest.
TAIL_Q = 0.96


def environment() -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in SRC.rglob("*.py")
    )
    try:
        n_cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        n_cpus = os.cpu_count() or 1
    return {
        "n_cpus": n_cpus,
        "host": platform.node(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": src_lines,
    }


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------
class Context:
    def __init__(self, inputs, tmp: str, trace_dir: str | None):
        self.inputs = inputs
        self.tmp = tmp
        self.trace_dir = trace_dir


def execute(ctx, name: str, seconds: float, reps: int, tracer=None) -> dict:
    """Set up ``reps`` times, measure the window, collect check data."""
    import workloads as W

    wl = W.WORKLOADS[name](ctx)
    rec = W.Recorder()
    setups = []
    state = None
    try:
        for rep in range(reps):
            state, parts = wl.setup()
            setups.append(parts)
            wl.cold(state, rec)
            if rep < reps - 1:
                wl.teardown(state)
                state = None
        wl.warm(state)
        counters_before = counters(wl, state)
        window = [time.perf_counter(), None]
        if tracer is not None:
            tracer.spans.clear()
        # Everything alive now (inputs, set-up) is long-lived: keep it out
        # of the collector during the window. A full collection over the
        # inputs takes ~0.4 s on 2 CPUs and would land, at a random
        # moment, in the program's timings (on serve-mixed: as a stalled
        # client).
        gc.collect()
        gc.freeze()
        try:
            wl.window(state, rec, seconds)
        finally:
            gc.unfreeze()
        window[1] = time.perf_counter()
        if tracer is not None:
            tracer.unpatch()
        rec.extra["counters"] = {
            k: v - counters_before.get(k, 0.0)
            for k, v in counters(wl, state).items()
        }
        peak_rss = W.vm_hwm_mb() + wl.peak_rss_servers(state)
        outputs = collect_outputs(wl, state)
    finally:
        if state is not None:
            wl.teardown(state)
    return {
        "wl": wl,
        "rec": rec,
        "setups": setups,
        "peak_rss_mb": peak_rss,
        "outputs": outputs,
        "window": window,
    }


def counters(wl, state) -> dict:
    """Program counters read before/after the window (deltas reported)."""
    from repro.obs.metrics import get_registry

    out = {}
    registry = get_registry()
    for name in (
        "repro_pool_requeues_total",
        "repro_pool_scene_cache_hits_total",
        "repro_pool_scene_cache_misses_total",
    ):
        metric = registry.get(name)
        out[name] = metric.total() if metric is not None else 0.0
    if wl.name == "serve-mixed":
        snapshot = state["client"].request("metrics")["metrics"]
        for series_name in (
            "repro_gateway_shed_total",
            "repro_gateway_coalesce_total",
        ):
            for series in snapshot.get(series_name, {}).get("series", []):
                labels = ",".join(
                    f"{k}={v}" for k, v in sorted(series["labels"].items())
                )
                out[f"{series_name}{{{labels}}}"] = float(series["value"])
    return out


def scenes_per_s(run: dict) -> float:
    """Scenes audited per second: batch, corpus audits over the time
    spent in ``Audit.run``; serve-mixed, audits answered over the
    window (a closed loop, so the program's speed sets it)."""
    rec = run["rec"]
    return rec.audit_scenes / rec.audit_s


def collect_outputs(wl, state) -> dict:
    """Program outputs the checks need that come after the window."""
    if wl.name == "serve-mixed":
        return {
            "standing": wl.final_standing(state),
            "fixy": state["fixy"],
            "fps": list(state["fps"]),
            "maintenance": wl.maintenance_stats,
        }
    return {
        "standing": state["sessions"].final_signatures(),
        "fixy": state["fixy"],
        "maintenance": state["sessions"].maintenance(),
    }


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def item_key(kind: str, item):
    if kind == "tracks":
        return item.track_id
    if kind == "bundles":
        return (item.track_id, item.item.frame)
    return item.item.obs_id


def check(run: dict) -> dict:
    """Every check a workload's outputs must pass; returns the details."""
    import workloads as W
    from repro.core.compile import compile_scene
    from repro.core.scoring import Scorer

    wl, rec, outputs = run["wl"], run["rec"], run["outputs"]
    fixy = outputs["fixy"]
    scenes = wl.inputs.scenes
    labeled = {ls.scene_id: ls for ls in wl.inputs.labeled}
    filters = {k: W.make_spec(k).compile_filter() for k in W.KINDS}

    def columnar_blocks(scene):
        scorer = Scorer(
            compile_scene(
                scene, fixy.features, learned=fixy.learned, aofs=fixy.aofs
            )
        )
        return {k: scorer.rank(k, filters[k]) for k in W.KINDS}

    def merged(blocks_list):
        items = [item for block in blocks_list for item in block]
        items.sort(key=lambda s: s.score, reverse=True)  # stable, as the API
        return items[: W.TOP_K]

    problems = []
    all_blocks = [columnar_blocks(s) for s in scenes]
    if wl.name == "serve-mixed":
        expected = {
            ("scene", fp): W.signature(merged([all_blocks[i]["tracks"]]))
            for i, fp in enumerate(outputs["fps"])
        }
        expected[("corpus",)] = W.signature(merged([b["tracks"] for b in all_blocks]))
        top_key = ("corpus",)
    else:
        selections = wl.selections()
        expected = {}
        for key in {key for key, _ in rec.results}:
            path, kind, selection = key
            chosen = set(selections[selection])
            expected[key] = W.signature(
                merged(
                    [all_blocks[i][kind] for i in wl.merge_order(path) if i in chosen]
                )
            )
        top_key = ("inline", "tracks", "all")
    top = next(sig for key, sig in rec.results if key == top_key)
    top_ids = [(s[0], s[1]) for s in top]

    mismatched = sum(1 for key, sig in rec.results if sig != expected[key])
    if mismatched:
        problems.append(f"{mismatched} of {len(rec.results)} rankings differ")

    # Scalar reference on every scene in the corpus top-10.
    scene_index = {s.scene_id: i for i, s in enumerate(scenes)}
    scalar_scenes = sorted({scene_index[sid] for sid, _ in top_ids})
    worst = 0.0
    for i in scalar_scenes:
        ref = Scorer(
            compile_scene(
                scenes[i],
                fixy.features,
                learned=fixy.learned,
                aofs=fixy.aofs,
                vectorized=False,
            )
        )
        for kind in W.KINDS:
            got = {item_key(kind, s): s.score for s in all_blocks[i][kind]}
            want = {item_key(kind, s): s.score for s in ref.rank(kind, filters[kind])}
            if got.keys() != want.keys():
                problems.append(f"scalar reference ranks other {kind} in {scenes[i].scene_id}")
                continue
            for k, score in want.items():
                if math.isinf(score) or math.isinf(got[k]):
                    if score != got[k]:
                        worst = math.inf
                else:
                    worst = max(worst, abs(score - got[k]))
    if worst > W.SCALAR_TOL:
        problems.append(f"columnar vs scalar score error {worst:.3g} > {W.SCALAR_TOL}")

    # Standing top-k vs a from-scratch compile of the client's copy.
    for plan, got in zip(wl.plans, outputs["standing"]):
        scorer = Scorer(
            compile_scene(plan.copy, fixy.features, learned=fixy.learned, aofs=fixy.aofs)
        )
        want = W.signature(scorer.rank("tracks", filters["tracks"])[: W.TOP_K])
        if got != want:
            problems.append(f"standing top-k of {plan.copy.scene_id} differs")

    # Paper figure of merit: P@10 against the generator's ledger.
    hits = 0
    for scene_id, track_id in top_ids:
        ls = labeled[scene_id]
        track = next(t for t in ls.scene.tracks if t.track_id == track_id)
        hits += bool(ls.auditor().audit_missing_track(track).is_error)
    precision = hits / W.TOP_K

    validity = {}
    if wl.name == "batch":
        validity["peak_resident_scenes"] = rec.extra["peak_resident_scenes"]
        if rec.extra["peak_resident_scenes"] > W.WAREHOUSE_BATCH:
            problems.append("out-of-core residency exceeded the batch budget")
        requeues = rec.extra["counters"]["repro_pool_requeues_total"]
        validity["requeues"] = requeues
        if requeues:
            problems.append(f"{requeues:g} partitions requeued")
    return {
        "problems": problems,
        "rankings_checked": len(rec.results),
        "scalar_scenes": len(scalar_scenes),
        "scalar_max_abs_err": worst,
        "precision_at_10": precision,
        "validity": validity,
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(run: dict, checks: dict) -> dict:
    import workloads as W

    rec = run["rec"]
    setup_s = statistics.median(sum(p.values()) for p in run["setups"])
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": run["peak_rss_mb"],
        "scenes_per_s": scenes_per_s(run),
        "cold_scenes_per_s": statistics.median(n / s for n, s in rec.cold),
        "audit_p50_ms": W.pct(rec.audit_ms, 0.50),
        "audit_p96_ms": W.pct(rec.audit_ms, TAIL_Q),
        "edit_p50_ms": W.pct(rec.edit_ms, 0.50),
        "edit_p96_ms": W.pct(rec.edit_ms, TAIL_Q),
        "precision_at_10": checks["precision_at_10"],
        "ok_ratio": (rec.attempted - rec.failed) / rec.attempted,
    }
    return {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in values.items()
    }


def per_layer(
    run: dict, spans: list, server_stats: list, overhead: float, setups: list
) -> dict:
    import tracer as T
    import workloads as W

    start, stop = run["window"]
    in_window = [s for s in spans if start <= s["start"] <= stop]
    every = T.summarize(in_window)
    server = T.summarize([s for s in in_window if s["process"] != "client"])
    layers, slayers = every["layers"], server["layers"]
    rec = run["rec"]

    def get(summary, name, field="busy_s"):
        return summary.get(name, {}).get(field, 0.0)

    def attr(summary, name, key):
        return summary.get(name, {}).get("attrs", {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    counters = rec.extra["counters"]
    shed = sum(v for k, v in counters.items() if k.startswith("repro_gateway_shed_total"))
    leads = sum(v for k, v in counters.items() if "coalesce" in k and "outcome=lead" in k)
    chits = sum(v for k, v in counters.items() if "coalesce" in k and "outcome=hit" in k)
    cache_hits = counters["repro_pool_scene_cache_hits_total"]
    cache_misses = counters["repro_pool_scene_cache_misses_total"]
    waits = [w for st in server_stats for t, w in st["queue_wait"] if start <= t <= stop]
    depths = [d for st in server_stats for t, d in st["queue_depth"] if start <= t <= stop]
    maintenance = run["outputs"]["maintenance"]
    handled_by = slayers.get("service.handle", {}).get("busy_by", {})
    session_apply = layers.get("session.apply", {"calls": 0, "attrs": {}})
    setup_parts = setups[0]
    values = {
        "compile.calls": get(layers, "compile", "calls"),
        "compile.busy_s": get(layers, "compile"),
        "compile.obs_per_s": ratio(attr(layers, "compile", "obs"), get(layers, "compile")),
        "compile.cache_hit_ratio": ratio(every["engine_lookup_hits"], every["engine_lookups"]),
        "rank.calls": get(layers, "rank", "calls"),
        "rank.busy_s": get(layers, "rank"),
        "merge.busy_s": get(layers, "merge"),
        "warehouse.fetch.calls": get(layers, "warehouse.fetch", "calls"),
        "warehouse.fetch.busy_s": get(layers, "warehouse.fetch"),
        "warehouse.fetch.bytes": attr(layers, "warehouse.fetch", "bytes"),
        "warehouse.sidecar_restore.busy_s": get(layers, "warehouse.sidecar_restore"),
        "warehouse.sidecar_hit_ratio": ratio(
            attr(layers, "warehouse.sidecar_get", "hit"),
            get(layers, "warehouse.sidecar_get", "calls"),
        ),
        "warehouse.sidecar_write.busy_s": get(layers, "warehouse.sidecar_write"),
        "warehouse.sidecar_write.bytes": attr(layers, "warehouse.sidecar_pack", "bytes"),
        "warehouse.query.busy_s": get(layers, "warehouse.query"),
        "warehouse.gc.busy_s": get(layers, "warehouse.gc"),
        "frames.unpack.calls": get(layers, "frames.unpack", "calls"),
        "frames.unpack.busy_s": get(layers, "frames.unpack"),
        "frames.pack.busy_s": get(layers, "frames.pack"),
        "frames.encode.busy_s": get(layers, "frames.encode"),
        "frames.bytes_sent": attr(layers, "frames.encode", "bytes"),
        "pool.dispatch.busy_s": get(layers, "pool.dispatch"),
        "pool.wait_s": get(layers, "pool.audit", "self_s"),
        "pool.requeues": counters["repro_pool_requeues_total"],
        "pool.scene_cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "pool.partition_skew": statistics.median(rec.extra.get("partition_skew") or [0.0]),
        "worker.handle.busy_s": get(slayers, "service.handle") if run["wl"].name == "batch" else 0.0,
        "worker.compile.busy_s": get(slayers, "compile") if run["wl"].name == "batch" else 0.0,
        "gateway.service.audit.busy_s": handled_by.get("audit", 0.0) if run["wl"].name == "serve-mixed" else 0.0,
        "gateway.service.edit.busy_s": handled_by.get("edit", 0.0) if run["wl"].name == "serve-mixed" else 0.0,
        "gateway.service.standing.busy_s": handled_by.get("standing", 0.0) if run["wl"].name == "serve-mixed" else 0.0,
        "gateway.queue_wait_p50_ms": 1e3 * W.pct(waits, 0.5) if waits else 0.0,
        "gateway.queue_wait_p99_ms": 1e3 * W.pct(waits, 0.99) if waits else 0.0,
        "gateway.shed": shed,
        "gateway.coalesce_hit_ratio": ratio(chits, chits + leads),
        "gateway.queue_depth_max": max(depths, default=0),
        "session.apply.busy_s": get(layers, "session.apply"),
        "session.tracks_recompiled_per_edit": ratio(
            session_apply["attrs"].get("changed", 0.0), session_apply["calls"]
        ),
        "standing.maintain.busy_s": maintenance["maintain_s"],
        "standing.tracks_rescored_per_edit": ratio(
            maintenance["tracks_rescored"], maintenance["edits"]
        ),
        "audit.self_s": get(layers, "audit", "self_s"),
        "setup.fit_s": setup_parts.get("fit_s", 0.0),
        "setup.ingest_s": setup_parts.get("ingest_s", 0.0),
        "setup.server_start_s": setup_parts.get("server_start_s", 0.0),
        "setup.session_open_s": setup_parts.get("session_open_s", 0.0),
        "obs.tracing_overhead_ratio": overhead,
        "coverage.audit": every["coverage"].get("audit", 0.0),
        "coverage.session_apply": every["coverage"].get("session.apply", 0.0),
        "coverage.server_request": server["coverage"].get("service.handle", 0.0),
        "ops.shed": rec.shed,
    }
    return {
        name: {"value": float(value), "unit": PER_LAYER_UNITS[name]}
        for name, value in values.items()
    }


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes") or name.endswith("bytes_sent"):
        return "bytes"
    if "ratio" in name or "coverage" in name or name.endswith("per_edit") or name.endswith("skew"):
        return "ratio"
    return "count"


PER_LAYER_NAMES = (
    "compile.calls", "compile.busy_s", "compile.obs_per_s",
    "compile.cache_hit_ratio", "rank.calls", "rank.busy_s", "merge.busy_s",
    "warehouse.fetch.calls", "warehouse.fetch.busy_s",
    "warehouse.fetch.bytes", "warehouse.sidecar_restore.busy_s",
    "warehouse.sidecar_hit_ratio", "warehouse.sidecar_write.busy_s",
    "warehouse.sidecar_write.bytes", "warehouse.query.busy_s",
    "warehouse.gc.busy_s", "frames.unpack.calls", "frames.unpack.busy_s",
    "frames.pack.busy_s", "frames.encode.busy_s", "frames.bytes_sent",
    "pool.dispatch.busy_s", "pool.wait_s", "pool.requeues",
    "pool.scene_cache_hit_ratio", "pool.partition_skew",
    "worker.handle.busy_s", "worker.compile.busy_s",
    "gateway.service.audit.busy_s", "gateway.service.edit.busy_s",
    "gateway.service.standing.busy_s", "gateway.queue_wait_p50_ms",
    "gateway.queue_wait_p99_ms", "gateway.shed",
    "gateway.coalesce_hit_ratio", "gateway.queue_depth_max",
    "session.apply.busy_s",
    "session.tracks_recompiled_per_edit", "standing.maintain.busy_s",
    "standing.tracks_rescored_per_edit", "audit.self_s", "setup.fit_s",
    "setup.ingest_s", "setup.server_start_s", "setup.session_open_s",
    "obs.tracing_overhead_ratio", "coverage.audit",
    "coverage.session_apply", "coverage.server_request", "ops.shed",
)
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER_NAMES}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import inputs
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; expected one of "
            f"{sorted(W.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    data = inputs.load_inputs(args.seed)
    W.reset_peak_rss()
    tmp = tempfile.mkdtemp(prefix="run-", dir=HERE / ".cache")
    try:
        if args.trace == 0:
            run = execute(Context(data, tmp, None), args.workload, args.seconds, W.SETUP_REPS)
            checks = check(run)
            metrics = end_to_end(run, checks)
        else:
            import tracer as T

            base = execute(
                Context(data, tmp, None), args.workload, args.seconds, W.SETUP_REPS
            )
            data = inputs.load_inputs(args.seed)
            trace_dir = os.path.join(tmp, "spans")
            os.makedirs(trace_dir)
            tr = T.install(T.Tracer())
            run = execute(
                Context(data, tmp, trace_dir), args.workload, args.seconds, W.SETUP_REPS,
                tracer=tr,
            )
            checks = check(run)
            spans = tr.span_dicts("client")
            stats = []
            for path in sorted(Path(trace_dir).glob("*.jsonl")):
                spans.extend(T.load_jsonl(path))
                stats_path = Path(str(path) + ".stats.json")
                if stats_path.exists():
                    stats.append(json.loads(stats_path.read_text()))
            if args.workload == "serve-mixed":
                overhead = (
                    W.pct(run["rec"].audit_ms, 0.5) / W.pct(base["rec"].audit_ms, 0.5) - 1.0
                )
            else:
                overhead = scenes_per_s(base) / scenes_per_s(run) - 1.0
            metrics = per_layer(run, spans, stats, overhead, base["setups"])
    finally:
        W.stop_servers(W.STARTED)
        shutil.rmtree(tmp, ignore_errors=True)

    rec = run["rec"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "sizes": {
            "corpus_scenes": inputs.CORPUS_SIZE,
            "compile_lru": 16,
            "scene_cache": 256,
            "warehouse_batch": W.WAREHOUSE_BATCH,
        },
        "ops": {
            "attempted": rec.attempted,
            "succeeded": rec.attempted - rec.failed,
            "failed": rec.failed,
            "shed": rec.shed,
            "audits": len(rec.audit_ms),
            "edits": len(rec.edit_ms),
            "cold": len(rec.cold),
            "rounds": rec.extra.get("rounds"),
        },
        "setup_parts": run["setups"],
        "latency_samples": {"audit": len(rec.audit_ms), "edit": len(rec.edit_ms)},
        "samples_ms": {"audit": rec.audit_ms, "edit": rec.edit_ms},
        "checks": checks,
    }
    print(json.dumps({"report": report}, default=str))
    print(
        json.dumps(
            {
                "correct": not checks["problems"],
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
