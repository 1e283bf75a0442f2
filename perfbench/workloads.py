"""The four workloads. Each ``run_<workload>(ctx)`` measures for
``ctx.seconds`` and returns a :class:`Result`; with ``ctx.trace`` it also
fills ``per_layer`` from spans and server counters."""

import itertools
import json
import os
import threading
import time

import gen
import http1
import oracle
import procs
from stats import median

CLI_SETUPS = 61
SERVER_SETUPS = 61
# Servers keep every result they compute, so their resident memory grows
# with the ops a run completes. Their peak RSS is read once this many ops
# are done (a fixed amount of work, so a faster program that completes
# more ops in the window is not charged for the extra results), or at
# the end of a run that completes fewer.
RSS_AFTER_OPS = {"serve-mix": 400, "fleet-sweep": 40}


class Result:
    def __init__(self):
        self.attempted = self.failed = 0
        self.reasons = []
        self.lat_ms = []
        self.work_unit = ""
        self.rss_mb = 0.0
        self.setup_s = []
        self.notes = {}
        self.per_layer = {}
        self.hit_lat_ms = []
        # Per group of ops with the same cost mix (a Levels block, or a
        # block of the serve-mix plan): [work, seconds, cpu seconds, ops].
        self.groups = {}

    def group(self, key, work, secs, cpu, ops=1):
        g = self.groups.setdefault(key, [0.0, 0.0, 0.0, 0])
        g[0] += work
        g[1] += secs
        g[2] += cpu
        g[3] += ops

    def op(self, lat_s, reason):
        self.attempted += 1
        self.lat_ms.append(lat_s * 1e3)
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def cli_setup(ctx, res):
    """For CLI workloads, set-up is the wall time of ``cqla list``."""
    for _ in range(CLI_SETUPS):
        r = procs.run_cli(ctx.cqla, ["list"])
        if r.rc != 0:
            raise RuntimeError("cqla list failed")
        res.setup_s.append(r.wall_s)


def account(res, r):
    res.rss_mb = max(res.rss_mb, r.maxrss_mb)


def cli_reason(r):
    if r.rc != 0:
        return f"exit {r.rc}: {r.stderr.decode(errors='replace').strip()[:200]}"
    return None


def timed_ops(ctx, ops):
    """Yields ops until the measurement window closes. Ops that mark a
    ``cycle_start`` end the window only at a cycle boundary, so every run
    holds whole cycles of a mixed workload."""
    end = time.perf_counter() + ctx.seconds
    for op in ops:
        if time.perf_counter() >= end and op.get("cycle_start", True):
            return
        yield op


def measured_ops(ctx, ops):
    """The ops a run executes: with ``--record-reference`` exactly the
    prefix the reference digests cover, else every op until the window
    closes."""
    if ctx.record:
        return itertools.islice(ops, oracle.RECORD_OPS[ctx.workload])
    return timed_ops(ctx, ops)


def finish_oracle(ctx, res, orc):
    if ctx.record:
        orc.save(oracle.RECORD_OPS[ctx.workload])
    res.notes.update(orc.note())


# ---------------------------------------------------------- design-sweep

GOLDEN = {"grid": "grid_sweep.json", "table5": "table5.json", "fig7": "fig7.json"}
POINTS = {"grid": 24, "table5": 12, "fig7": 30}


def check_design(orc, op, r):
    reason = cli_reason(r)
    if reason:
        return reason
    if op["kind"] in GOLDEN:
        if r.stdout != orc.golden(GOLDEN[op["kind"]]):
            return f"{op['kind']} differs from tests/golden/{GOLDEN[op['kind']]}"
        return None
    clauses = op["spec"].split()
    reason = oracle.check_grid_doc(r.stdout, "machine", oracle.count_points(clauses),
                                   oracle.machine_params(clauses))
    return reason or orc.digest(op["id"], r.stdout)


def design_points(op):
    return POINTS.get(op["kind"]) or oracle.count_points(op["spec"].split())


def run_cli_workload(ctx, res, ops, argv, check, work, stdin=None):
    orc = oracle.Oracle(ctx.root, ctx.workload, ctx.seed, ctx.record)
    for op in ops:
        r = procs.run_cli(ctx.cqla, argv(op), stdin(op) if stdin else None)
        res.op(r.wall_s, check(orc, op, r))
        res.group(op["group"], work(op), r.wall_s, r.cpu_s)
        account(res, r)
    finish_oracle(ctx, res, orc)


def run_design(ctx):
    res = Result()
    res.work_unit = "points_per_s"
    cli_setup(ctx, res)
    if ctx.trace:
        return trace_replay(ctx, res, gen.design_ops(ctx.seed), gen.design_argv, None)
    run_cli_workload(ctx, res, measured_ops(ctx, gen.design_ops(ctx.seed)), gen.design_argv,
                     check_design, design_points)
    return res


# ------------------------------------------------------ compile-programs


def compile_argv(op):
    return ["compile", "-", f"width={op['width']}", "--format", "json"]


def check_compile(orc, op, r):
    reason = cli_reason(r) or oracle.check_compile_doc(r.stdout, op)
    if reason:
        return reason
    return orc.digest(op["id"], r.stdout)


def run_compile(ctx):
    res = Result()
    res.work_unit = "gates_per_s"
    cli_setup(ctx, res)
    if ctx.trace:
        return trace_replay(ctx, res, gen.compile_ops(ctx.seed), compile_argv, lambda op: op["program"])
    run_cli_workload(ctx, res, measured_ops(ctx, gen.compile_ops(ctx.seed)), compile_argv,
                     check_compile, lambda op: op["gates"], stdin=lambda op: op["program"])
    return res


# ----------------------------------------------------- traced CLI replay


def trace_replay(ctx, res, ops, argv, stdin):
    """Replays the workload's ops in-process under spans for half the
    window, then runs the same ops through the CLI untraced, so each
    replay's per-op total sits beside the op's untraced latency. An op on
    which one of the tracer's replicas computed a different value from
    the program fails: its per-layer figures would not be the
    program's."""
    replay_ops = list(itertools.islice(ops, 400))
    path = os.path.join(ctx.work, f"{ctx.workload}-ops.jsonl")
    with open(path, "w") as f:
        for op in replay_ops:
            f.write(json.dumps(op) + "\n")
    out = ctx.tracer(path, ctx.seconds / 2)
    n = int(out["ops"])
    cli_ms = []
    orc = oracle.Oracle(ctx.root, ctx.workload, ctx.seed)
    check = check_design if ctx.workload == "design-sweep" else check_compile
    mismatched = {int(i) for i in out["mismatch_ops"]}
    for op in replay_ops[:n]:
        r = procs.run_cli(ctx.cqla, argv(op), stdin(op) if stdin else None)
        reason = check(orc, op, r)
        if op["id"] in mismatched:
            reason = reason or f"op {op['id']}: a tracer replica disagrees with the program"
        res.op(r.wall_s, reason)
        cli_ms.append(r.wall_s * 1e3)
    res.notes.update(orc.note())
    replay = out["replay_op_ms"]
    res.per_layer.update(out["metrics"])
    res.per_layer["trace.replay_op_ms"] = median(replay)
    res.per_layer["trace.untraced_op_ms"] = median(cli_ms)
    res.per_layer["trace.gap_ms"] = median([c - r for c, r in zip(cli_ms, replay)])
    return res


# ------------------------------------------------------------- serve-mix

CLASSES = ("run_hit", "run_miss", "grid_stream", "compile", "job", "rejected")
STATS = ("cache_hits", "cache_misses", "coalesced", "cache_evictions", "compile_cache_hits")


class ServeClient:
    """One closed-loop keep-alive client: sends its next request only
    after the previous answer is complete."""

    def __init__(self, addr, shared):
        self.conn = http1.Conn(addr)
        self.shared = shared

    def run(self, next_op, end):
        while time.perf_counter() < end:
            op = next_op()
            if op is None:
                break
            t0 = time.perf_counter()
            cls, first, reason, hit, reqs = self.execute(op)
            lat = time.perf_counter() - t0
            self.shared.record(cls, first, lat, reason, hit, reqs)
        self.conn.close()

    def execute(self, op):
        sh, kind = self.shared, op["kind"]
        if kind == "popular":
            key = op["path"]
            hit = sh.seen(key)
            resp = self.conn.request("GET", key)
            reason = served(resp, 200) or (
                None if resp.body == sh.orc.golden(f"registry/{op['artifact']}.json")
                else f"{key} differs from tests/golden/registry/{op['artifact']}.json")
            return ("run_hit" if hit else "run_miss"), resp.t_first, reason, hit, 1
        if kind == "cold":
            resp = self.conn.request("GET", op["path"])
            reason = served(resp, 200) or machine_doc(resp.body) or sh.orc.digest(op["id"], resp.body)
            return "run_miss", resp.t_first, reason, False, 1
        if kind == "grid":
            resp = self.conn.request("GET", op["path"])
            reason = served(resp, 200) or chunk_count(resp, op["points"]) or oracle.check_grid_doc(
                resp.body, "machine", op["points"], query_params(op["path"])) or sh.orc.digest(op["id"], resp.body)
            return "grid_stream", resp.t_first, reason, False, 1
        if kind == "compile":
            key = f"compile {oracle.sha(op['program'].encode())} width={op['width']}"
            hit = sh.seen(key)
            resp = self.conn.request("POST", op["path"], op["program"])
            reason = served(resp, 200) or oracle.check_compile_doc(resp.body, op) or sh.same(key, resp.body) \
                or sh.orc.digest(op["id"], resp.body)
            return "compile", resp.t_first, reason, hit, 1
        if kind == "job":
            return self.job(op)
        resp = self.conn.request(op["method"], op["path"])
        return "rejected", resp.t_first, oracle.check_error_doc(resp, op["expect"]), False, 1

    def job(self, op):
        create = self.conn.request("POST", "/v1/jobs/machine", op["body"])
        reason = served(create, 202)
        if reason:
            return "job", create.t_first, reason, False, 1
        doc, reason = oracle.parse(create.body)
        if reason:
            return "job", create.t_first, reason, False, 1
        jid = doc.get("job")
        full = self.conn.request("GET", f"/v1/jobs/{jid}/stream")
        clauses = op["body"].split()
        reason = served(full, 200) or chunk_count(full, op["points"]) or oracle.check_grid_doc(
            full.body, "machine", op["points"], oracle.machine_params(clauses))
        if reason:
            return "job", create.t_first, reason, False, 2
        k = op["resume_from"]
        resumed = self.conn.request("GET", f"/v1/jobs/{jid}/stream?from={k}")
        reason = served(resumed, 200) or (
            None if resumed.body == b"".join(full.chunks[1 + k:])
            else f"job stream resumed at {k} does not match the full stream's tail")
        reason = reason or self.shared.orc.digest(op["id"], full.body)
        return "job", create.t_first, reason, False, 3


def served(resp, status):
    if not resp.complete:
        return f"truncated response (status {resp.status})"
    if resp.status != status:
        return f"status {resp.status}, expected {status}: {resp.body[:200]!r}"
    return None


def chunk_count(resp, points):
    if resp.chunks is None or len(resp.chunks) != points + 2:
        return f"stream has {None if resp.chunks is None else len(resp.chunks)} chunks, expected {points + 2}"
    return None


def machine_doc(body):
    doc, err = oracle.parse(body)
    if err:
        return err
    data = doc.get("data", {})
    if doc.get("artifact") != "machine" or "specialization" not in data or "hierarchy" not in data:
        return "machine document lacks its sections"
    return None


def query_params(path):
    query = path.split("?", 1)[1]
    return oracle.machine_params(query.split("&"))


class ServeShared:
    def __init__(self, orc, ops, pid):
        self.lock = threading.Lock()
        self.orc, self.ops, self.pid = orc, ops, pid
        self.keys, self.bodies = set(), {}
        self.samples = []
        self.requests = 0
        # (time, server CPU seconds, requests) at the start and after every
        # block of the plan, so each group has the same mix of ops.
        self.marks = [(time.perf_counter(), procs.proc_cpu_s(pid), 0)]
        self.hwm_mb = None

    def next_op(self):
        """The next op, or ``None`` once a finite stream is used up."""
        with self.lock:
            return next(self.ops, None)

    def seen(self, key):
        with self.lock:
            if key in self.keys:
                return True
            self.keys.add(key)
            return False

    def same(self, key, body):
        with self.lock:
            first = self.bodies.setdefault(key, body)
        return None if first == body else f"{key}: a repeat answered different bytes"

    def record(self, cls, first, lat, reason, hit, reqs):
        with self.lock:
            self.samples.append((cls, first, lat, reason, hit, reqs))
            self.requests += reqs
            n = len(self.samples)
            if n % len(gen.SERVE_PLAN) == 0:
                self.marks.append((time.perf_counter(), procs.proc_cpu_s(self.pid), self.requests))
            if n == RSS_AFTER_OPS["serve-mix"]:
                self.hwm_mb = procs.proc_hwm_mb(self.pid)


def stats_doc(addr):
    resp = http1.get(addr, "/v1/stats")
    doc, err = oracle.parse(resp.body)
    if err or resp.status != 200:
        raise RuntimeError(f"/v1/stats failed: {resp.status}")
    return doc


def run_serve(ctx):
    res = Result()
    res.work_unit = "requests_per_s"
    server = None
    try:
        for _ in range(SERVER_SETUPS):
            if server:
                server.stop()
            server = procs.Server(ctx.cqla, ctx.nproc)
            res.setup_s.append(server.setup_s)
        orc = oracle.Oracle(ctx.root, ctx.workload, ctx.seed, ctx.record)
        ops_iter = gen.serve_ops(ctx.seed)
        pre = list(itertools.islice(ops_iter, 1500))
        stream = itertools.chain(pre, ops_iter)
        if ctx.record:
            stream = itertools.islice(stream, oracle.RECORD_OPS[ctx.workload])
        stats0 = stats_doc(server.addr)
        shared = ServeShared(orc, stream, server.pid)
        clients = [ServeClient(server.addr, shared) for _ in range(ctx.nproc)]
        end = float("inf") if ctx.record else time.perf_counter() + ctx.seconds
        threads = [threading.Thread(target=c.run, args=(shared.next_op, end)) for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        block = len(gen.SERVE_PLAN)
        if len(shared.marks) == 1:
            # Not one whole block in the window: the run is one group.
            block = len(shared.samples)
            shared.marks.append((time.perf_counter(), procs.proc_cpu_s(server.pid), shared.requests))
        for (t0, c0, r0), (t1, c1, r1) in zip(shared.marks, shared.marks[1:]):
            res.group(len(res.groups), r1 - r0, t1 - t0, c1 - c0, block)
        stats1 = stats_doc(server.addr)
        res.rss_mb = shared.hwm_mb or procs.proc_hwm_mb(server.pid)
    finally:
        if server:
            server.stop()
    finish_oracle(ctx, res, orc)
    by_class = {c: [] for c in CLASSES}
    for cls, first, lat, reason, hit, reqs in shared.samples:
        res.op(lat, reason)
        by_class[cls].append((first, lat))
        if hit:
            res.hit_lat_ms.append(lat * 1e3)
    reconnects = sum(c.conn.reconnects for c in clients)
    delta = {k: stats1.get(k, 0) - stats0.get(k, 0) for k in STATS}
    looked = delta["cache_hits"] + delta["cache_misses"]
    res.notes["hit_share"] = delta["cache_hits"] / looked if looked else 0.0
    res.notes["reconnects"] = reconnects
    res.notes["loop"] = f"closed loop, {ctx.nproc} keep-alive clients, no queue builds"
    if ctx.trace:
        pl = res.per_layer
        for c in CLASSES:
            samples = by_class[c]
            pl[f"serve.{c}.first_byte_ms"] = median([f * 1e3 for f, _ in samples])
            pl[f"serve.{c}.total_ms"] = median([t * 1e3 for _, t in samples])
            pl[f"serve.{c}.count"] = len(samples)
        for k in STATS:
            pl[f"serve.{k}"] = delta[k]
        pl["serve.cache_hit_ratio"] = res.notes["hit_share"]
        pl["serve.reconnects"] = reconnects
        serve_replay(ctx, res, pre, orc)
    return res


def serve_replay(ctx, res, ops, orc):
    """In-process part of the traced serve run: the server's request
    parser and response writer on the mix's own requests and bodies, and
    grid parsing plus the thread-count pass on its grid streams."""
    path = os.path.join(ctx.work, "serve-mix-ops.jsonl")
    artifacts = sorted({op["artifact"] for op in ops if op["kind"] == "popular"})
    with open(path, "w") as f:
        for op in ops[:300]:
            method, body = ("POST", op["program"]) if op["kind"] == "compile" else (op.get("method", "GET"), "")
            if op["kind"] == "job":
                method, body, target = "POST", op["body"], "/v1/jobs/machine"
            else:
                target = op["path"]
            raw = f"{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            if method == "POST":
                raw += f"Content-Length: {len(body.encode())}\r\n"
            f.write(json.dumps({"kind": "request", "raw": raw + "\r\n" + body}) + "\n")
            if op["kind"] == "grid":
                spec = " ".join(op["path"].split("?", 1)[1].split("&"))
                f.write(json.dumps({"kind": "grid", "spec": spec}) + "\n")
        for a in artifacts:
            f.write(json.dumps({"kind": "body", "text": orc.golden(f"registry/{a}.json").decode()}) + "\n")
    out = ctx.tracer(path, 0)
    for k, v in out["metrics"].items():
        if k.startswith(("serve.", "sweep.", "experiments.grid_parse", "eval.duplicate")):
            res.per_layer[k] = v


# ----------------------------------------------------------- fleet-sweep

WORKERS = 2


def fleet_argv(op, workers):
    return ["sweep"] + op["args"] + ["--workers", ",".join(w.addr for w in workers), "--format", "json"]


def run_fleet(ctx):
    res = Result()
    res.work_unit = "points_per_s"
    orc = oracle.Oracle(ctx.root, ctx.workload, ctx.seed, ctx.record)
    done, workers = [], []
    dist = {"makespan": [], "local": [], "busy": [], "idle": []}
    try:
        for _ in range(SERVER_SETUPS):
            for w in workers:
                w.stop()
            workers, setup = procs.start_fleet(ctx.cqla, WORKERS, 1)
            res.setup_s.append(setup)
        workers_mb = None
        for op in measured_ops(ctx, gen.fleet_ops(ctx.seed)):
            if len(done) == RSS_AFTER_OPS["fleet-sweep"]:
                workers_mb = max(procs.proc_hwm_mb(w.pid) for w in workers)
            b0 = sum(procs.proc_cpu_s(w.pid) for w in workers)
            r = procs.run_cli(ctx.cqla, fleet_argv(op, workers))
            busy = sum(procs.proc_cpu_s(w.pid) for w in workers) - b0
            res.group(op["group"], op["points"], r.wall_s, r.cpu_s + busy)
            account(res, r)
            done.append((op, r))
            dist["makespan"].append(r.wall_s * 1e3)
            dist["busy"].append(busy)
            dist["idle"].append(max(0.0, 1 - busy / (r.wall_s * WORKERS)))
        if workers_mb is None:
            workers_mb = max(procs.proc_hwm_mb(w.pid) for w in workers)
        res.rss_mb = max(res.rss_mb, workers_mb)
    finally:
        for w in workers:
            w.stop()
    # Oracle: every fleet document equals the same spec run in one
    # process (timed with one thread when tracing: the fleet's unit).
    threads = "1" if ctx.trace else str(ctx.nproc)
    for op, r in done:
        local = procs.run_cli(ctx.cqla, ["sweep"] + op["args"] + ["--format", "json", "--threads", threads])
        dist["local"].append(local.wall_s * 1e3)
        reason = cli_reason(r) or cli_reason(local)
        if not reason and r.stdout != local.stdout:
            reason = f"fleet document differs from the single-process run of {op['args']}"
        reason = reason or orc.digest(op["id"], r.stdout)
        res.op(r.wall_s, reason)
    finish_oracle(ctx, res, orc)
    if ctx.trace:
        pl = res.per_layer
        pl["dist.makespan_ms"] = median(dist["makespan"])
        pl["dist.local_ms"] = median(dist["local"])
        pl["dist.speedup"] = median([l / m for l, m in zip(dist["local"], dist["makespan"])])
        pl["dist.worker_busy_s"] = median(dist["busy"])
        pl["dist.worker_idle_share"] = median(dist["idle"])
        path = os.path.join(ctx.work, "fleet-sweep-ops.jsonl")
        with open(path, "w") as f:
            for op, _ in done:
                spec = op["args"][0] if op["kind"] == "sweep" else " ".join(op["args"][1:])
                f.write(json.dumps({"kind": op["kind"], "spec": spec, "workers": WORKERS}) + "\n")
        out = ctx.tracer(path, 0)
        for k, v in out["metrics"].items():
            if k.startswith(("dist.", "sweep.", "eval.duplicate", "experiments.grid_parse")):
                pl[k] = v
    return res


RUNNERS = {"design-sweep": run_design, "compile-programs": run_compile,
           "serve-mix": run_serve, "fleet-sweep": run_fleet}
