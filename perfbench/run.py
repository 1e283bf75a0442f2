#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds the release ``cqla`` binary and the in-process replayer in
``perfbench/tracer`` from the checkout, runs one workload
against it for ``--seconds``, checks every op's output, prints a
human-readable summary, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``, measured with
no tracing; with ``--trace 1`` they are its per-layer metrics, from a
separate run that records spans. ``--record-reference`` runs the fixed
prefix of the default seed's op stream with no time limit and rewrites
its reference digests instead of checking them.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)


class Ctx:
    pass


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    """Release-builds the binary the workloads drive and the replayer of
    traced runs. Both build on every run, so the first run in a checkout
    pays for both and later runs find them up to date."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [["cargo", "build", "--release", "--offline", "--bin", "cqla"],
             ["cargo", "build", "--release", "--offline", "--manifest-path",
              os.path.join(HERE, "tracer", "Cargo.toml")]]
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if p.returncode != 0:
            sys.stderr.write(p.stdout.decode(errors="replace")[-4000:])
            die(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "cqla"), os.path.join(release, "cqla-tracer")


def tracer_fn(exe, ctx):
    def call(ops_path, seconds):
        spans = os.path.join(ctx.work, f"{ctx.workload}-spans.jsonl")
        p = subprocess.run([exe, ctx.workload, ops_path, str(seconds), spans],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)
        if p.returncode != 0:
            sys.stderr.write(p.stderr.decode(errors="replace")[-4000:])
            raise RuntimeError("cqla-tracer failed")
        out = json.loads(p.stdout)
        if out["mirror_errors"]:
            print(f"perfbench: warning: {int(out['mirror_errors'])} memo calls the tracer's "
                  "mirror did not predict; per-table splits are approximate", file=sys.stderr)
        return out
    return call


def end_to_end(res, metric_names):
    """Rates are medians over the run's groups of ops (see
    ``Result.group``), so one burst of load from outside moves them less
    than a whole-run total would."""
    groups = [g for g in res.groups.values() if g[1] > 0 and g[3] > 0]
    tail, pct, n = stats.tail(res.lat_ms)
    values = {
        "setup_s": stats.median(res.setup_s),
        "latency_p50_ms": stats.median(res.lat_ms),
        "latency_tail_ms": tail,
        "throughput_per_s": stats.median([w / s for w, s, _, _ in groups]),
        "cpu_ms_per_op": stats.median([1e3 * c / k for _, _, c, k in groups]),
        "peak_rss_mb": res.rss_mb,
    }
    missing = [m for m in metric_names if m not in values]
    if missing:
        die(f"no measurement for end-to-end metrics {missing}")
    return values, pct, n


def summary(ctx, res, bench, values, pct, n):
    w = print
    w(f"# workload {ctx.workload}  seed {ctx.seed}  seconds {ctx.seconds}  trace {ctx.trace}  "
      f"nproc {ctx.nproc}")
    w(f"# ops attempted {res.attempted}  failed {res.failed}  "
      f"error_rate {res.failed / max(1, res.attempted):.4f}")
    for r in res.reasons:
        w(f"#   failure: {r}")
    if not ctx.trace:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        for name, v in values.items():
            extra = ""
            if name == "latency_tail_ms":
                extra = f"  (p{pct:.1f} of n={n})"
            elif name == "latency_p50_ms":
                extra = f"  (n={n})"
            elif name == "throughput_per_s":
                extra = f"  (= {res.work_unit}, median of {len(res.groups)} groups)"
            elif name == "setup_s":
                extra = f"  (median of {len(res.setup_s)})"
            w(f"#   {name:<18} {v:14.4f} {units.get(name, '')}{extra}")
        if res.hit_lat_ms:
            w(f"#   {'hit_latency_p50_ms':<18} {stats.median(res.hit_lat_ms):14.4f} ms  "
              f"(n={len(res.hit_lat_ms)})")
    for k, v in res.notes.items():
        w(f"#   {k}: {v}")
    if ctx.trace:
        layers = {k: v for k, v in res.per_layer.items()
                  if k.endswith("compute_ms") or k in ("cache.sim_run_ms", "circuit.asm_parse_ms",
                                                       "circuit.decompose_ms", "json.render_ms")}
        if any(layers.values()):
            top = sorted(layers.items(), key=lambda kv: -kv[1])[:4]
            w("#   largest layers (ms per op): " + ", ".join(f"{k} {v:.2f}" for k, v in top))
        for k in sorted(res.per_layer):
            w(f"#   {k:<34} {res.per_layer[k]:14.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=oracle.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(bench_path):
        die("BENCHMARK.json not found at the checkout root")
    with open(bench_path) as f:
        bench = json.load(f)
    if args.workload not in workloads.RUNNERS:
        die(f"unknown workload {args.workload!r}; one of {sorted(workloads.RUNNERS)}")
    for need in ("Cargo.toml", "crates", os.path.join("tests", "golden")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"not a full checkout: {need} is missing")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    ctx = Ctx()
    ctx.root, ctx.workload, ctx.seed, ctx.trace = ROOT, args.workload, args.seed, args.trace
    ctx.seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    ctx.record = args.record_reference
    ctx.nproc = os.cpu_count() or 1
    ctx.work = os.path.join(target, "perfbench-work")
    os.makedirs(ctx.work, exist_ok=True)
    ctx.cqla, tracer = build(target)
    ctx.tracer = tracer_fn(tracer, ctx)

    res = workloads.RUNNERS[args.workload](ctx)
    if res.attempted == 0:
        die("no op completed in the measurement window")

    if args.trace:
        metrics = {m["name"]: {"value": float(res.per_layer.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in bench["per_layer"]}
        values, pct, n = {}, 0.0, 0
    else:
        values, pct, n = end_to_end(res, [m["name"] for m in bench["end_to_end"]])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
    summary(ctx, res, bench, values, pct, n)
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
