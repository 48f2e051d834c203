"""The two workloads, their set-up, and their output checks.

Every workload follows one shape (``run.execute``):

1. **Set-up, repeated** ``SETUP_REPS`` times: the program's own
   set-up — fit + grid warmup, warehouse ingest, server start-up and
   registration, session opens — timed as ``setup_s`` (median over the
   repetitions). On serve-mixed each repetition is followed by a cold
   first-touch audit of the whole corpus; ``batch`` starts every round
   with its own cold audit instead. All set-ups but the last are torn down again.
2. **The measured window**: ``--seconds`` of the workload's loop on the
   last set-up. ``batch`` is a closed loop of whole rounds (a round is
   a fixed mix, so throughput is comparable across runs);
   ``serve-mixed`` is a closed loop of ``SERVE_CLIENTS`` reviewers.
3. **Output checks** (``run.check``), outside every timed region:
   rankings against a fresh in-memory columnar compile (byte-identical,
   raw float64 bytes) and against the scalar reference
   ``compile_scene(vectorized=False)`` (within the density grid's
   validated tolerance), standing top-k against a from-scratch compile
   of the client's own edited copy, plus the validity assertions.

Sessions with a standing missing-track subscription exist on every
workload: a batch user corrects labels between audits through the
in-process session API, a serving user through the gateway. That is
what ``edit_p50_ms``/``edit_p96_ms`` time.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

from inputs import EditPlan, copy_scene

HERE = Path(__file__).resolve().parent

#: Set-up repetitions per run (``setup_s`` is their median).
SETUP_REPS = 2
TOP_K = 10
KINDS = ("tracks", "bundles", "observations")
#: Sessions with a standing subscription, and edits per session per
#: batch round.
N_SESSIONS = 4
EDITS_PER_ROUND = 64
#: Out-of-core resident-batch budget of the warehouse audits.
WAREHOUSE_BATCH = 4
#: Worker processes behind the remote audits.
REMOTE_WORKERS = 2
#: serve-mixed reviewers. Each sends their next request when the answer
#: to the previous one arrives (closed loop), so the gateway is never
#: idle and every request is timed from its send; each owns half of the
#: sessions. Tried and dropped on a 2-vCPU VM: an open loop (Poisson at
#: 25 req/s, a sixth of capacity; its millisecond latencies were mostly
#: vCPU wake-up delay, and ten seeds spread by 0.3 to 0.5 of the
#: median) and four reviewers (no more throughput than two, as the
#: handlers share one GIL, and twice the spread).
SERVE_CLIENTS = 2
#: Untimed traffic before the serve-mixed window.
WARMUP_S = 5.0
#: serve-mixed traffic. There is no measured trace of Fixy users to
#: take these from; they are assumptions, stated as such in
#: BENCHMARK.json:
#: - half a reviewer's requests are audits (the read path the workload
#:   is about), half are work on their own sessions;
#: - a reviewer makes about four label corrections per look at the
#:   standing top-10 (P@10 is about 0.6 on this corpus, so a look
#:   finds about six real errors, not all corrected at once);
#: - Zipf s = 1.5 over 48 scenes puts ~90% of audits on the 16 most
#:   popular scenes, so the hot head fits the 16-entry compile LRU and
#:   the tail still misses (11% of the audits in a traced run), as the
#:   workload intends.
SERVE_MIX = (("audit", 0.50), ("edit", 0.40), ("standing", 0.10))
ZIPF_S = 1.5
#: Scalar-reference agreement bound: the density grid's validated
#: interpolation error (``LearnedModel.enable_fast_eval`` tol).
SCALAR_TOL = 1e-5
SERVER_START_TIMEOUT = 90.0
REQUEST_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def missing_filter():
    from repro.api import FilterSpec

    # The paper's missing-track query: model-only components.
    return FilterSpec(has_model=True, has_human=False)


def make_spec(kind: str, **fields):
    from repro.api import AuditSpec

    return AuditSpec(kind=kind, top_k=TOP_K, filters=missing_filter(), **fields)


def signature(items) -> list[tuple]:
    """Bit-exact ranking fingerprint (scores as raw float64 bytes)."""
    return [
        (i.scene_id, i.track_id, i.n_factors, struct.pack("<d", i.score))
        for i in items
    ]


def dict_signature(dicts) -> list[tuple]:
    return [
        (d["scene_id"], d["track_id"], d["n_factors"], struct.pack("<d", d["score"]))
        for d in dicts
    ]


def pct(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered) + 0.5)) - 1))]


def fit_engine(train):
    from repro.core import Fixy, default_features

    fixy = Fixy(default_features()).fit(train)
    fixy.warmup_fast_eval()
    return fixy


def vm_hwm_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def reset_peak_rss() -> None:
    """Start this process's peak-RSS mark from its current size, so input
    loading does not count as the program's memory."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


#: Every server this process started; ``run.py`` stops them all on its
#: way out, whatever path it leaves by.
STARTED: list = []


class Server:
    """One ``repro.cli serve`` process started through ``launch.py``."""

    def __init__(self, argv: list[str], trace_out: str | None = None):
        cmd = [sys.executable, str(HERE / "launch.py")]
        if trace_out is not None:
            cmd += ["--trace-out", trace_out]
        self.proc = subprocess.Popen(
            cmd + ["--"] + argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        STARTED.append(self)
        self.address = None
        self._lines: list[str] = []
        self._ready = threading.Event()
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._lines.append(line)
            match = re.search(r"listening on (\S+)", line)
            if match and self.address is None:
                self.address = match.group(1)
                self._ready.set()
        self._ready.set()

    def wait_ready(self) -> str:
        self._ready.wait(SERVER_START_TIMEOUT)
        if self.address is None:
            self.stop()
            raise RuntimeError(
                "server did not start: " + "".join(self._lines[-20:])
            )
        return self.address

    def peak_rss_mb(self) -> float:
        try:
            return vm_hwm_mb(self.proc.pid)
        except OSError:
            return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._drain.join(timeout=10)


def start_servers(argvs, trace_dir: str | None) -> list[Server]:
    servers = []
    try:
        for i, argv in enumerate(argvs):
            trace_out = (
                os.path.join(trace_dir, f"server-{i}-{time.monotonic_ns()}.jsonl")
                if trace_dir is not None
                else None
            )
            servers.append(Server(argv, trace_out))
        for server in servers:
            server.wait_ready()
    except BaseException:
        stop_servers(servers)
        raise
    return servers


def stop_servers(servers: list[Server]) -> None:
    """Stop every server, even if stopping one of them raises."""
    try:
        for server in servers:
            server.stop()
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait()


# ----------------------------------------------------------------------
# Shared state and recording
# ----------------------------------------------------------------------
class Recorder:
    """Outcomes of the measured window."""

    def __init__(self):
        #: Latencies; a failed, shed or timed-out request is a sample of
        #: ``REQUEST_TIMEOUT`` (it missed every latency limit).
        self.audit_ms: list[float] = []
        self.edit_ms: list[float] = []
        self.audit_scenes = 0
        self.audit_s = 0.0
        self.cold: list[tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0
        self.shed = 0
        self.results: list[tuple] = []  # (check key, signature)
        self.extra: dict = {}

    def audit(self, n_scenes: int, seconds: float) -> None:
        self.attempted += 1
        self.audit_ms.append(1e3 * seconds)
        self.audit_scenes += n_scenes
        self.audit_s += seconds

    def edit(self, seconds: float) -> None:
        self.attempted += 1
        self.edit_ms.append(1e3 * seconds)


class Sessions:
    """In-process sessions with a standing subscription each."""

    def __init__(self, fixy, plans: list[EditPlan]):
        self.plans = plans
        self.sessions = []
        self.standing = []
        for plan in plans:
            session = fixy.session(plan.fresh)
            self.sessions.append(session)
            self.standing.append(session.subscribe(make_spec("tracks")))

    def edit_round(self, rec: Recorder) -> None:
        for _ in range(EDITS_PER_ROUND):
            for plan, session, standing in zip(
                self.plans, self.sessions, self.standing
            ):
                edit = plan.next_edit()
                t0 = time.perf_counter()
                session.apply(edit)
                standing.results()
                rec.edit(time.perf_counter() - t0)
                plan.acknowledge(edit)

    def final_signatures(self) -> list[list[tuple]]:
        return [signature(s.results()) for s in self.standing]

    def maintenance(self) -> dict:
        stats = [s.stats for s in self.standing]
        edits = sum(st.edits_seen for st in stats)
        return {
            "maintain_s": sum(st.maintain_s for st in stats),
            "tracks_rescored": sum(st.tracks_rescored for st in stats),
            "edits": edits,
        }


def make_plans(inputs) -> list[EditPlan]:
    """Client-side edit plans for the ``N_SESSIONS`` sessions.

    The session scenes are the first ones by scene id, not by the
    seeded order: edit cost depends on the scene, and the edits
    themselves are what the seed varies."""
    chosen = sorted(inputs.labeled, key=lambda ls: ls.scene_id)[:N_SESSIONS]
    return [EditPlan(ls.scene, inputs.rng) for ls in chosen]


def refresh_session_scenes(plans) -> None:
    """Fresh, unedited copies for the sessions of one set-up (sessions
    mutate the scene they own); copying is input preparation, not
    set-up."""
    for plan in plans:
        plan.fresh = copy_scene(plan.original)


# ----------------------------------------------------------------------
# batch: the offline auditor's loop
# ----------------------------------------------------------------------
#: The audits of one batch round: (path, kind, selection). Every round
#: runs the same mix, so rounds are comparable across runs.
BATCH_ROUND = (
    ("inline", "tracks", "all"),  # the honest in-memory baseline
    ("warehouse", "tracks", "all"),  # warm: sidecar restores
    ("warehouse", "bundles", "tag"),
    ("warehouse", "observations", "n_tracks"),
    ("remote", "tracks", "all"),
)


class Batch:
    """Closed loop of corpus audits along every batch path.

    One round audits the resident corpus inline (every scene compiles:
    48 scenes against the 16-entry compile LRU), drops the warehouse's
    compiled-columns sidecars and runs one cold out-of-core audit
    (compile + sidecar writes, batch budget 4), runs three warm
    out-of-core audits under predicates for all scenes, a tag subset and
    an ``n_tracks`` range (fetch, re-hash, unpack, sidecar restore), audits
    the corpus on the ``remote`` backend against two worker processes
    (24 scenes each, again past their compile LRU), and applies label
    corrections to the sessions.
    """

    name = "batch"

    def __init__(self, ctx):
        self.ctx = ctx
        self.inputs = ctx.inputs
        self.plans = make_plans(self.inputs)
        scenes = self.inputs.scenes
        n_tracks = sorted(len(s.tracks) for s in scenes)
        self.track_range = (
            n_tracks[len(n_tracks) // 4],
            n_tracks[(3 * len(n_tracks)) // 4],
        )
        # Tags follow the scene's identity, not the seeded order, so
        # the tag subset is the same scenes on every seed.
        self.tags = [
            "even" if int(s.scene_id.rsplit("-", 1)[1]) % 2 == 0 else "odd"
            for s in scenes
        ]
        self._rep = 0

    def predicates(self):
        from repro.warehouse import ScenePredicate

        lo, hi = self.track_range
        return {
            "all": None,
            "tag": ScenePredicate.tag("even"),
            "n_tracks": ScenePredicate.range("n_tracks", lo, hi),
        }

    def selections(self):
        lo, hi = self.track_range
        scenes = self.inputs.scenes
        return {
            "all": list(range(len(scenes))),
            "tag": [i for i in range(len(scenes)) if self.tags[i] == "even"],
            "n_tracks": [
                i for i, s in enumerate(scenes) if lo <= len(s.tracks) <= hi
            ],
        }

    def setup(self):
        from repro.api import Audit, AuditClient, SceneSource
        from repro.warehouse import SceneWarehouse

        refresh_session_scenes(self.plans)
        self._rep += 1
        db = os.path.join(self.ctx.tmp, f"corpus-{self._rep}.db")
        model = os.path.join(self.ctx.tmp, f"model-{self._rep}.json")
        parts = {}
        t0 = time.perf_counter()
        fixy = fit_engine(self.inputs.train)
        parts["fit_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        with SceneWarehouse(db) as warehouse:
            for scene, tag in zip(self.inputs.scenes, self.tags):
                warehouse.ingest(scene, tags=(tag,))
        parts["ingest_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        fixy.learned.save(model)
        servers = start_servers(
            [
                ["serve", "--listen", "127.0.0.1:0", "--model", model]
                for _ in range(REMOTE_WORKERS)
            ],
            self.ctx.trace_dir,
        )
        addresses = [s.address for s in servers]
        for address in addresses:  # registration handshake
            with AuditClient.connect(address, timeout=REQUEST_TIMEOUT) as client:
                client.request("hello")
        parts["server_start_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        sessions = Sessions(fixy, self.plans)
        parts["session_open_s"] = time.perf_counter() - t0

        predicates = self.predicates()
        audits = {}
        for path, kind, key in BATCH_ROUND:
            if path == "inline":
                spec = make_spec(kind)
            elif path == "warehouse":
                spec = make_spec(
                    kind,
                    scenes=SceneSource(
                        warehouse=db, batch=WAREHOUSE_BATCH, predicate=predicates[key]
                    ),
                )
            else:
                spec = make_spec(kind).with_backend(
                    "remote", workers=addresses, timeout=REQUEST_TIMEOUT
                )
            audits[(path, kind, key)] = Audit(spec, fixy=fixy)
        state = {
            "fixy": fixy,
            "servers": servers,
            "sessions": sessions,
            "audits": audits,
            "warehouse": SceneWarehouse(db, create=False),
        }
        return state, parts

    def _audit(self, state, rec, path, kind, key, cold=False):
        audit = state["audits"][(path, kind, key)]
        t0 = time.perf_counter()
        if path == "warehouse":
            result = audit.run()
        else:
            result = audit.run(scenes=self.inputs.scenes)
        elapsed = time.perf_counter() - t0
        n = result.provenance.n_scenes
        if cold:
            rec.cold.append((n, elapsed))
            rec.attempted += 1
        else:
            rec.audit(n, elapsed)
        stream = result.provenance.stream
        if stream is not None:
            rec.extra["peak_resident_scenes"] = max(
                rec.extra.get("peak_resident_scenes", 0),
                stream["peak_resident_scenes"],
            )
        times = [w["rank_s"] for w in result.provenance.workers or []]
        if times:
            rec.extra.setdefault("partition_skew", []).append(
                max(times) / statistics.mean(times)
            )
        rec.results.append(((path, kind, key), signature(result.items)))

    def cold(self, state, rec: Recorder) -> None:
        """Nothing extra: every round starts with its own cold audit."""

    def warm(self, state) -> None:
        """Register the remote pool and fill the workers' scene caches
        (untimed: the window measures warm remote audits)."""
        self._audit(state, Recorder(), "remote", "tracks", "all")

    def window(self, state, rec: Recorder, seconds: float) -> None:
        """Whole rounds only (a round is the fixed mix), and none that
        would overrun the window."""
        t0 = time.perf_counter()
        deadline = t0 + seconds
        rounds = 0
        while rounds == 0 or (
            time.perf_counter() + (time.perf_counter() - t0) / rounds <= deadline
        ):
            self.round(state, rec)
            rounds += 1
        rec.extra["rounds"] = rounds

    def round(self, state, rec: Recorder) -> None:
        state["warehouse"].gc_compiled(keep_models=())
        self._audit(state, rec, "warehouse", "tracks", "all", cold=True)
        for path, kind, key in BATCH_ROUND:
            self._audit(state, rec, path, kind, key)
        state["sessions"].edit_round(rec)

    def teardown(self, state) -> None:
        try:
            state["warehouse"].close()
            for audit in state["audits"].values():
                audit.close()
        finally:
            stop_servers(state["servers"])

    def peak_rss_servers(self, state) -> float:
        return sum(s.peak_rss_mb() for s in state["servers"])

    def merge_order(self, path: str) -> list[int]:
        """Corpus indices in the order ``path`` merges per-scene blocks:
        the corpus order, or the warehouse's canonical fingerprint order
        for out-of-core audits."""
        if path != "warehouse":
            return list(range(len(self.inputs.scenes)))
        from repro.api import frames

        fps = [
            frames.scene_fingerprint(frames.pack_scene(s))
            for s in self.inputs.scenes
        ]
        return sorted(range(len(fps)), key=lambda i: fps[i])


# ----------------------------------------------------------------------
# serve-mixed: reviewers in a closed loop against the async gateway
# ----------------------------------------------------------------------
class ServeMixed:
    name = "serve-mixed"

    def __init__(self, ctx):
        self.ctx = ctx
        self.inputs = ctx.inputs
        self.plans = make_plans(self.inputs)
        self._rep = 0
        self.spec_dict = make_spec("tracks").to_dict()
        self.maintenance_stats = {"maintain_s": 0.0, "tracks_rescored": 0, "edits": 0}

    def setup(self):
        from repro.api import AuditClient
        from repro.warehouse import SceneWarehouse

        self._rep += 1
        model = os.path.join(self.ctx.tmp, f"gw-model-{self._rep}.json")
        db = os.path.join(self.ctx.tmp, f"gw-corpus-{self._rep}.db")
        scene_dicts = [plan.original.to_dict() for plan in self.plans]
        parts = {}
        t0 = time.perf_counter()
        fixy = fit_engine(self.inputs.train)
        parts["fit_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        with SceneWarehouse(db) as warehouse:
            fps = [warehouse.ingest(scene) for scene in self.inputs.scenes]
        parts["ingest_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        fixy.learned.save(model)
        (server,) = start_servers(
            [
                [
                    "serve", "--listen", "127.0.0.1:0", "--async",
                    "--warehouse", db, "--model", model,
                ]
            ],
            self.ctx.trace_dir,
        )
        client = AuditClient.connect(server.address, timeout=REQUEST_TIMEOUT)
        client.request("hello")
        parts["server_start_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        sessions = []
        for i, scene_dict in enumerate(scene_dicts):
            opened = client.request("open", scene=scene_dict, session_id=f"s{i}")
            sub = client.request(
                "subscribe", session_id=opened["session_id"], spec=self.spec_dict
            )
            sessions.append((opened["session_id"], sub["audit_id"]))
        parts["session_open_s"] = time.perf_counter() - t0
        state = {
            "fixy": fixy,
            "fps": fps,
            "servers": [server],
            "client": client,
            "sessions": sessions,
        }
        return state, parts

    def cold(self, state, rec: Recorder) -> None:
        """First touch of every scene (fetch, unpack, compile): one
        audit of the whole corpus by scene hash, one cold sample. Its
        top-10 is also the one the precision check scores."""
        fps = list(state["fps"])
        t0 = time.perf_counter()
        response = state["client"].request(
            "audit", spec=self.spec_dict, scene_hashes=fps
        )
        rec.cold.append((len(fps), time.perf_counter() - t0))
        rec.attempted += 1
        rec.results.append((("corpus",), dict_signature(response["result"]["items"])))

    def warm(self, state) -> None:
        """``WARMUP_S`` of the same traffic, untimed: the window then
        starts with the compile LRU holding the popular scenes, not the
        last ones of the cold audit (which scenes those are follows the
        seeded corpus order)."""
        self.window(state, Recorder(), WARMUP_S)

    def requests(self, state, client: int, rng):
        """Reviewer ``client``'s requests, generated as they are sent:
        the ``SERVE_MIX`` in a seeded order, audits of Zipf-popular
        scenes, edits and standing reads of the reviewer's own
        sessions."""
        # Popularity rank by scene id: the hot head is the same scenes
        # on every seed (their sizes set what a hot audit costs).
        fps = list(state["fps"])
        ids = [s.scene_id for s in self.inputs.scenes]
        rank = {i: r for r, i in enumerate(sorted(range(len(ids)), key=ids.__getitem__))}
        weights = [1.0 / (rank[i] + 1) ** ZIPF_S for i in range(len(fps))]
        ops = [op for op, _ in SERVE_MIX]
        shares = [share for _, share in SERVE_MIX]
        # A session's requests come from one reviewer only, so the
        # program applies its edits in the order the client acknowledges
        # them.
        owned = range(client, len(self.plans), SERVE_CLIENTS)
        while True:
            op = rng.choices(ops, shares)[0]
            plan = edit = None
            if op == "audit":
                fp = rng.choices(fps, weights)[0]
                body = {"op": "audit", "spec": self.spec_dict, "scene_hashes": [fp]}
            else:
                k = rng.choice(owned)
                plan = self.plans[k]
                session_id, audit_id = state["sessions"][k]
                if op == "edit":
                    edit = plan.next_edit()
                    body = {"op": "edit", "session_id": session_id, "edit": edit.to_dict()}
                else:
                    body = {"op": "standing", "session_id": session_id, "audit_id": audit_id}
            body["v"] = 2
            yield {
                "op": op,
                "body": body,
                "line": (json.dumps(body) + "\n").encode("utf-8"),
                "ack": (plan, edit),
            }

    def window(self, state, rec: Recorder, seconds: float) -> None:
        host, port = state["servers"][0].address.rsplit(":", 1)
        rng = self.inputs.rng
        clients = [
            self.requests(state, i, random.Random(rng.getrandbits(64)))
            for i in range(SERVE_CLIENTS)
        ]
        outcomes, elapsed = asyncio.run(
            _closed_loop((host, int(port)), clients, seconds)
        )
        audits = 0
        for req, latency, response in (o for out in outcomes for o in out):
            rec.attempted += 1
            ok = isinstance(response, dict) and response.get("ok")
            if not ok:
                latency = REQUEST_TIMEOUT
                rec.failed += 1
                error = response.get("error") if isinstance(response, dict) else None
                if isinstance(error, dict) and error.get("code") == "overloaded":
                    rec.shed += 1
            if req["op"] == "audit":
                rec.audit_ms.append(1e3 * latency)
                if ok:
                    audits += 1
                    fp = req["body"]["scene_hashes"][0]
                    rec.results.append(
                        (("scene", fp), dict_signature(response["result"]["items"]))
                    )
            elif req["op"] == "edit":
                rec.edit_ms.append(1e3 * latency)
                if ok:
                    plan, edit = req["ack"]
                    plan.acknowledge(edit)
        rec.audit_scenes = audits
        rec.audit_s = elapsed

    def final_standing(self, state) -> list[list[tuple]]:
        client = state["client"]
        out = []
        for session_id, audit_id in state["sessions"]:
            response = client.request(
                "standing", session_id=session_id, audit_id=audit_id
            )
            out.append(dict_signature(response["results"]))
            stats = response["stats"]
            agg = self.maintenance_stats
            agg["maintain_s"] += stats["maintain_ms"] / 1e3
            agg["tracks_rescored"] += stats["tracks_rescored"]
            agg["edits"] += stats["edits_seen"]
        return out

    def teardown(self, state) -> None:
        try:
            state["client"].close()
        finally:
            stop_servers(state["servers"])

    def peak_rss_servers(self, state) -> float:
        return sum(s.peak_rss_mb() for s in state["servers"])


async def _closed_loop(address, clients, seconds: float):
    """Each client sends its next request when the answer to the last
    one arrives, until ``seconds`` have passed. Returns each client's
    ``(request, latency_s, response)`` list (``response`` is None when
    the request timed out or the connection closed; that client then
    stops) and the time from the first send to the last answer."""
    conns = [
        await asyncio.open_connection(*address, limit=2**26) for _ in clients
    ]
    outcomes = [[] for _ in clients]
    t_start = time.perf_counter()
    deadline = t_start + seconds

    async def client(requests, conn, out):
        reader, writer = conn
        while time.perf_counter() < deadline:
            request = next(requests)
            sent = time.perf_counter()
            writer.write(request["line"])
            try:
                await writer.drain()
                raw = await asyncio.wait_for(reader.readline(), REQUEST_TIMEOUT)
            except (asyncio.TimeoutError, OSError):
                raw = b""
            out.append(
                (request, time.perf_counter() - sent, json.loads(raw) if raw else None)
            )
            if not raw:
                return

    try:
        await asyncio.gather(
            *(client(r, c, o) for r, c, o in zip(clients, conns, outcomes))
        )
        elapsed = time.perf_counter() - t_start
    finally:
        for _, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
    return outcomes, elapsed


WORKLOADS = {cls.name: cls for cls in (Batch, ServeMixed)}
