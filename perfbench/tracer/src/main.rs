//! `cqla-tracer WORKLOAD OPS.jsonl SECONDS SPANS.jsonl`
//!
//! Replays a benchmark workload's generated inputs in-process through
//! the public functions of each layer, recording a span around every
//! call (kept in memory, written to `SPANS.jsonl` once at the end), and
//! prints one JSON object of per-layer metrics on stdout. Replays op
//! after op until `SECONDS` have passed (at least one op). Each replayed
//! op's own total (the artifact run as the CLI runs it, plus rendering)
//! is reported so the caller can set it beside the untraced op latency.

mod mirror;
mod spans;

use std::collections::BTreeMap;
use std::io::{BufReader, Cursor};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cqla_circuit::{asm, decompose_toffolis, QubitId};
use cqla_core::experiments::{
    find, primary_blocks, Fig7, Grid, Table5, FIG7_FACTORS, FIG7_SIZES, TABLE5_PAR_XFER,
    TABLE5_SIZES,
};
use cqla_core::json::{self, Json};
use cqla_core::{
    memo_counters, CacheSim, CqlaConfig, FetchPolicy, HierarchyConfig, HierarchyStudy,
    SpecializationStudy,
};
use cqla_ecc::{Code, Level};
use cqla_iontrap::{TechPoint, TechnologyParams};
use cqla_serve::http::{read_request, Response};
use cqla_sweep::{GridRun, PointOutcome, Sweep, SweepRun};

use mirror::{sim_run, Mirror, TABLES};
use spans::Recorder;

struct Replay {
    rec: Recorder,
    ops: u64,
    replay_op_ms: Vec<f64>,
    mirror_errors: u64,
    /// Ids of ops on which a replica disagreed with the program.
    mismatch_ops: Vec<f64>,
    /// Extra metrics a mode computes outside the span totals.
    extra: BTreeMap<String, f64>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [workload, ops_path, seconds, spans_path] = args.as_slice() else {
        eprintln!("usage: cqla-tracer WORKLOAD OPS.jsonl SECONDS SPANS.jsonl");
        return ExitCode::from(2);
    };
    let Ok(seconds) = seconds.parse::<f64>() else {
        eprintln!("cqla-tracer: SECONDS must be a number");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(ops_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cqla-tracer: cannot read {ops_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ops = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match json::parse(line) {
            Ok(op) => ops.push(op),
            Err(e) => {
                eprintln!("cqla-tracer: bad op line: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let budget = Duration::from_secs_f64(seconds);
    let mut r = Replay {
        rec: Recorder::new(),
        ops: 0,
        replay_op_ms: Vec::new(),
        mirror_errors: 0,
        mismatch_ops: Vec::new(),
        extra: BTreeMap::new(),
    };
    match workload.as_str() {
        "design-sweep" => replay_ops(&mut r, &ops, budget, design_op),
        "compile-programs" => replay_ops(&mut r, &ops, budget, compile_op),
        "serve-mix" => serve(&mut r, &ops),
        "fleet-sweep" => fleet(&mut r, &ops),
        other => {
            eprintln!("cqla-tracer: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    }
    if let Err(e) = r.rec.write_jsonl(Path::new(spans_path)) {
        eprintln!("cqla-tracer: cannot write {spans_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report(&r).to_compact());
    ExitCode::SUCCESS
}

fn field<'a>(op: &'a Json, key: &str) -> &'a str {
    op.get(key).and_then(Json::as_str).unwrap_or("")
}

fn replay_ops(
    r: &mut Replay,
    ops: &[Json],
    budget: Duration,
    f: fn(&mut Replay, &mut Mirror, &Json),
) {
    let start = Instant::now();
    let mut grids = 0;
    for op in ops {
        if r.ops > 0 && start.elapsed() >= budget {
            break;
        }
        let id = op.get("id").and_then(Json::as_f64).unwrap_or(0.0);
        r.rec.set_op(id as u64);
        let mut m = Mirror::new();
        f(r, &mut m, op);
        r.mirror_errors += m.errors;
        if !m.mismatches.is_empty() {
            r.mismatch_ops.push(id);
        }
        r.ops += 1;
        // A thread-count pass over the first few grids an op carries.
        if grids < 3 && field(op, "kind") == "machine" {
            grids += 1;
            let grid = machine_grid(&mut r.rec, field(op, "spec"));
            parallel_pass(r, &grid);
        }
    }
}

fn tech_of(label: &str) -> TechnologyParams {
    TechPoint::parse(label).map_or_else(TechnologyParams::projected, TechPoint::params)
}

fn code_of(slug: &str) -> Code {
    Code::parse(slug).unwrap_or(Code::BaconShor913)
}

fn machine_grid(rec: &mut Recorder, spec: &str) -> Grid {
    let exp = find("machine").expect("machine is registered");
    rec.add("experiments.grid_parses", 1.0);
    rec.span("experiments.grid_parse", |_| {
        Grid::parse("machine", &exp.specs(), spec)
    })
    .expect("generated machine grids parse")
}

/// The in-process equivalent of one CLI op: the artifact's own entry
/// point on a fresh context, then the JSON rendering the CLI prints.
/// Returns the document.
fn run_and_render(r: &mut Replay, run: impl FnOnce() -> Json) -> Json {
    let t = Instant::now();
    let doc = r.rec.span("experiments.run", |_| run());
    let text = r.rec.span("json.render", |_| doc.to_pretty());
    r.rec.add("json.doc_bytes", (text.len() + 1) as f64);
    r.replay_op_ms.push(t.elapsed().as_secs_f64() * 1e3);
    doc
}

fn design_op(r: &mut Replay, m: &mut Mirror, op: &Json) {
    let rec = &mut r.rec;
    match field(op, "kind") {
        "grid" => {
            let sweep = Sweep::builtin("grid").expect("grid is builtin");
            for p in sweep.points() {
                let tech = p.tech.params();
                m.specialization(rec, &tech, p.code, p.input_bits, p.blocks);
                if let Some(x) = p.par_xfer {
                    let mut config = HierarchyConfig::new(p.code, p.input_bits, x, p.blocks);
                    config.cache_factor = p.cache_factor;
                    m.hierarchy(rec, &tech, &config);
                }
                m.verify(rec, true, |ctx| PointOutcome::evaluate_ctx(p, ctx));
            }
            run_and_render(r, || SweepRun::execute(&sweep, 1).to_json());
        }
        "table5" => {
            let tech = TechnologyParams::projected();
            for code in Code::ALL {
                for x in TABLE5_PAR_XFER {
                    for bits in TABLE5_SIZES {
                        let config = HierarchyConfig::new(code, bits, x, primary_blocks(bits));
                        m.hierarchy(rec, &tech, &config);
                    }
                }
            }
            m.verify(rec, true, |ctx| Table5::default().rows_ctx(ctx));
            run_and_render(r, || {
                let exp = find("table5").expect("table5 is registered");
                exp.run().document(exp.id())
            });
        }
        "fig7" => {
            let mut in_order = Vec::new();
            for bits in FIG7_SIZES {
                let pe = 9 * primary_blocks(bits) as usize;
                for factor in FIG7_FACTORS {
                    let capacity = ((pe as f64 * factor).round() as usize).max(1);
                    // In-order cells simulate directly, outside any memo.
                    let adder = mirror::draper(rec, bits);
                    let circuit = adder.circuit();
                    let inputs: Vec<QubitId> = adder
                        .a_register()
                        .chain(adder.b_register())
                        .map(QubitId::new)
                        .collect();
                    let run = sim_run(
                        rec,
                        &CacheSim::new(capacity),
                        &circuit,
                        FetchPolicy::InOrder,
                        &inputs,
                        2,
                    );
                    in_order.push(run.hit_rate());
                    m.cache(rec, bits, capacity);
                }
            }
            // The warm rows re-simulate the in-order cells, so this pass
            // checks the mirror but is not timed as assembly.
            let rows = m.verify(rec, false, |ctx| Fig7.rows_ctx(ctx));
            let program: Vec<f64> = rows
                .iter()
                .filter(|row| row.policy == FetchPolicy::InOrder)
                .map(|row| row.hit_rate)
                .collect();
            m.check("fig7 in-order cache.sim_run", &in_order, &program);
            run_and_render(r, || {
                let exp = find("fig7").expect("fig7 is registered");
                exp.run().document(exp.id())
            });
        }
        "machine" => {
            let grid = machine_grid(rec, field(op, "spec"));
            for point in grid.points() {
                let mut p: BTreeMap<&str, &str> = BTreeMap::new();
                for (k, v) in &point {
                    p.insert(k, v);
                }
                let get = |k: &str, d: &'static str| p.get(k).copied().unwrap_or(d);
                let tech = tech_of(get("tech", "projected"));
                let code = code_of(get("code", "bacon-shor"));
                let bits: u32 = get("bits", "1024").parse().expect("bits");
                let blocks: u32 = get("blocks", "100").parse().expect("blocks");
                let xfer: u32 = get("xfer", "10").parse().expect("xfer");
                let cache: f64 = get("cache", "2").parse().expect("cache");
                m.specialization(rec, &tech, code, bits, blocks);
                let mut config = HierarchyConfig::new(code, bits, xfer, blocks);
                config.cache_factor = cache;
                m.hierarchy(rec, &tech, &config);
                m.verify(rec, true, |ctx| {
                    let s = SpecializationStudy::new(&tech)
                        .evaluate_ctx(CqlaConfig::new(code, bits, blocks), ctx);
                    let h = HierarchyStudy::new(&tech).evaluate_ctx(config, ctx);
                    std::hint::black_box((s, h));
                });
            }
            run_and_render(r, || GridRun::execute(&grid, 1).to_json());
        }
        other => panic!("unknown design op kind `{other}`"),
    }
}

fn compile_op(r: &mut Replay, m: &mut Mirror, op: &Json) {
    let rec = &mut r.rec;
    let text = field(op, "program");
    let width = op.get("width").and_then(Json::as_f64).unwrap_or(9.0) as u32;
    let program = rec
        .span("circuit.asm_parse", |_| asm::parse(text))
        .expect("generated programs parse");
    let lowered = rec.span("circuit.decompose", |_| decompose_toffolis(&program));
    rec.add("circuit.gates_lowered", lowered.len() as f64);
    // The memo calls and direct simulations of the compile artifact,
    // with its defaults: projected technology, Steane code, cache 2.
    let tech = TechnologyParams::projected();
    let code = Code::Steane713;
    m.compiled(rec, &lowered, width);
    m.ecc(rec, &tech, code, Level::ONE);
    m.ecc(rec, &tech, code, Level::TWO);
    m.level1_share(rec, &tech, code, program.num_qubits());
    // The artifact's direct cold and warm `CacheSim` passes, outside any
    // memo; their result is checked against the document below.
    let mut cache = (0.0, 0);
    if !lowered.is_empty() {
        let capacity = (2.0 * (9 * u64::from(width)) as f64).round().max(1.0) as usize;
        let inputs: Vec<QubitId> = (0..program.num_qubits()).map(QubitId::new).collect();
        let sim = CacheSim::new(capacity);
        let policy = FetchPolicy::OptimizedLookahead;
        let cold = sim_run(rec, &sim, &lowered, policy, &inputs, 1);
        let warm = sim_run(rec, &sim, &lowered, policy, &inputs, 2);
        cache = (warm.hit_rate(), warm.fetch_misses() - cold.fetch_misses());
    }
    m.area(rec, &tech, code, u64::from(program.num_qubits()), width);
    let mut exp = find("compile").expect("compile is registered");
    exp.set("source", "inline-asm")
        .expect("inline-asm is valid");
    exp.set("program", text).expect("program accepts any text");
    exp.set("width", &width.to_string())
        .expect("generated widths are valid");
    // The artifact on the warm context re-runs its direct cache passes,
    // so this pass checks the mirror but is not timed as assembly.
    m.verify(rec, false, |ctx| exp.run_ctx(ctx));
    let doc = run_and_render(r, || exp.run().document(exp.id()));
    let field = |k: &str| {
        doc.get("data")
            .and_then(|d| d.get("cache"))
            .and_then(|c| c.get(k))
            .and_then(Json::as_f64)
    };
    let program_cache = (
        field("hit_rate").unwrap_or(f64::NAN),
        field("fetches_per_run").map_or(u64::MAX, |f| f as u64),
    );
    m.check("compile cache.sim_run", &cache, &program_cache);
}

/// Runs each grid at 1 and at all available threads, each on the
/// executor's own fresh context, and counts memo misses the parallel
/// run computed beyond the serial one (two threads missing one key at
/// once both compute it).
fn parallel_pass(r: &mut Replay, grid: &Grid) {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let (_, m0) = memo_counters();
    let t = Instant::now();
    let one = GridRun::execute(grid, 1);
    let t1 = t.elapsed();
    let (_, m1) = memo_counters();
    let t = Instant::now();
    let many = GridRun::execute(grid, threads);
    let tn = t.elapsed();
    let (_, m2) = memo_counters();
    assert_eq!(
        one.to_json().to_compact(),
        many.to_json().to_compact(),
        "grid documents must not depend on the thread count"
    );
    let e = &mut r.extra;
    *e.entry("sweep.grid_execute_1t_ms".into()).or_default() += t1.as_secs_f64() * 1e3;
    *e.entry("sweep.grid_execute_nt_ms".into()).or_default() += tn.as_secs_f64() * 1e3;
    *e.entry("eval.duplicate_computes".into()).or_default() +=
        (m2 - m1).saturating_sub(m1 - m0) as f64;
    *e.entry("sweep.passes".into()).or_default() += 1.0;
    e.insert("sweep.threads".into(), threads as f64);
}

/// `serve-mix`: the server's own request parser and response writer on
/// in-memory buffers, plus grid parsing and the thread-count pass on
/// the mix's grid streams. Ops: `{"kind":"request","raw":…}`,
/// `{"kind":"body","text":…}`, `{"kind":"grid","spec":…}`.
fn serve(r: &mut Replay, ops: &[Json]) {
    const ROUNDS: usize = 20;
    let (mut parse_ns, mut parses, mut write_ns, mut writes, mut grids) =
        (0u128, 0u64, 0u128, 0u64, 0);
    for op in ops {
        match field(op, "kind") {
            "request" => {
                let raw = field(op, "raw").as_bytes();
                let t = Instant::now();
                for _ in 0..ROUNDS {
                    let mut reader = BufReader::new(Cursor::new(raw));
                    std::hint::black_box(
                        read_request(&mut reader).expect("generated requests parse"),
                    );
                }
                parse_ns += t.elapsed().as_nanos();
                parses += ROUNDS as u64;
            }
            "body" => {
                let resp = Response::ok(field(op, "text").to_owned());
                let mut out = Vec::new();
                let t = Instant::now();
                for _ in 0..ROUNDS {
                    out.clear();
                    resp.write_to(&mut out, false)
                        .expect("writes to memory succeed");
                }
                write_ns += t.elapsed().as_nanos();
                writes += ROUNDS as u64;
            }
            "grid" => {
                let grid = machine_grid(&mut r.rec, field(op, "spec"));
                if grids < 3 {
                    grids += 1;
                    parallel_pass(r, &grid);
                }
            }
            _ => {}
        }
    }
    r.ops = 1;
    r.extra.insert(
        "serve.read_request_us".into(),
        parse_ns as f64 / 1e3 / parses.max(1) as f64,
    );
    r.extra.insert(
        "serve.write_response_us".into(),
        write_ns as f64 / 1e3 / writes.max(1) as f64,
    );
}

/// `fleet-sweep`: the coordinator's shard plan for every op (parse, then
/// split into one contiguous shard per worker and render each shard's
/// request body), plus the thread-count pass on the first grids.
/// Ops: `{"kind":"sweep"|"grid","spec":…,"workers":N}`.
fn fleet(r: &mut Replay, ops: &[Json]) {
    let (mut plan_ns, mut plans, mut grids) = (0u128, 0u64, 0);
    for op in ops {
        let workers = op.get("workers").and_then(Json::as_f64).unwrap_or(2.0) as usize;
        let spec = field(op, "spec");
        let t = Instant::now();
        let bodies: Vec<String> = if field(op, "kind") == "grid" {
            let exp = find("machine").expect("machine is registered");
            let grid = Grid::parse("machine", &exp.specs(), spec).expect("generated grids parse");
            grid.shard(workers)
                .iter()
                .map(|g| g.spec().to_owned())
                .collect()
        } else {
            // A copy of the coordinator's private split: `n` contiguous
            // shards whose sizes differ by at most one.
            let sweep = Sweep::parse(spec).expect("generated sweeps parse");
            let points = sweep.points();
            let n = workers.clamp(1, points.len().max(1));
            let mut rest = &points[..];
            let mut shards = Vec::with_capacity(n);
            for i in 0..n {
                let size = points.len() / n + usize::from(i < points.len() % n);
                let (head, tail) = rest.split_at(size);
                if !head.is_empty() {
                    shards.push(
                        head.iter()
                            .map(cqla_sweep::parse::render_point)
                            .collect::<Vec<_>>()
                            .join("\n"),
                    );
                }
                rest = tail;
            }
            shards
        };
        plan_ns += t.elapsed().as_nanos();
        plans += 1;
        std::hint::black_box(bodies);
        if field(op, "kind") == "grid" && grids < 3 {
            grids += 1;
            let grid = machine_grid(&mut r.rec, spec);
            parallel_pass(r, &grid);
        }
    }
    r.ops = 1;
    r.extra.insert(
        "dist.shard_plan_us".into(),
        plan_ns as f64 / 1e3 / plans.max(1) as f64,
    );
}

fn report(r: &Replay) -> Json {
    let agg = r.rec.aggregate();
    let ops = r.ops.max(1) as f64;
    let ms = |name: &str| agg.get(name).map_or(0.0, |a| a.total_ns as f64 / 1e6) / ops;
    let count = |name: &str| r.rec.count(name) / ops;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    m.insert(
        "workloads.shor_app_size_ms".into(),
        ms("workloads.shor_app_size"),
    );
    m.insert(
        "workloads.shor_app_size_calls".into(),
        count("workloads.shor_app_size_calls"),
    );
    m.insert(
        "workloads.draper_build_ms".into(),
        ms("workloads.draper_build"),
    );
    m.insert(
        "workloads.draper_build_calls".into(),
        count("workloads.draper_build_calls"),
    );
    let (mut hits, mut misses) = (0.0, 0.0);
    for t in TABLES {
        let h = r.rec.count(&format!("eval.{t}.hits"));
        let mi = r.rec.count(&format!("eval.{t}.misses"));
        hits += h;
        misses += mi;
        m.insert(format!("eval.{t}.compute_ms"), ms(&format!("eval.{t}")));
        m.insert(format!("eval.{t}.hits"), h / ops);
        m.insert(format!("eval.{t}.misses"), mi / ops);
    }
    m.insert(
        "eval.hit_ratio".into(),
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    m.insert("eval.assembly_ms".into(), ms("eval.assembly"));
    let sim_ns = agg.get("cache.sim_run").map_or(0.0, |a| a.total_ns as f64);
    let accesses = r.rec.count("cache.sim_accesses");
    m.insert("cache.sim_run_ms".into(), ms("cache.sim_run"));
    m.insert("cache.sim_accesses".into(), accesses / ops);
    m.insert(
        "cache.sim_ns_per_access".into(),
        if accesses > 0.0 {
            sim_ns / accesses
        } else {
            0.0
        },
    );
    for (metric, span) in [
        ("circuit.asm_parse_ms", "circuit.asm_parse"),
        ("circuit.asm_emit_ms", "circuit.asm_emit"),
        ("circuit.decompose_ms", "circuit.decompose"),
        ("circuit.dag_build_ms", "circuit.dag_build"),
        ("circuit.list_schedule_ms", "circuit.list_schedule"),
        ("compile.schedule_costs_ms", "compile.schedule_costs"),
        ("experiments.run_ms", "experiments.run"),
        ("json.render_ms", "json.render"),
    ] {
        m.insert(metric.into(), ms(span));
    }
    m.insert(
        "circuit.gates_lowered".into(),
        count("circuit.gates_lowered"),
    );
    m.insert("json.doc_bytes".into(), count("json.doc_bytes"));
    let parses = r.rec.count("experiments.grid_parses");
    let parse_ns = agg
        .get("experiments.grid_parse")
        .map_or(0.0, |a| a.total_ns as f64);
    m.insert(
        "experiments.grid_parse_us".into(),
        if parses > 0.0 {
            parse_ns / 1e3 / parses
        } else {
            0.0
        },
    );
    let e = |k: &str| r.extra.get(k).copied().unwrap_or(0.0);
    let passes = e("sweep.passes").max(1.0);
    let (t1, tn) = (
        e("sweep.grid_execute_1t_ms") / passes,
        e("sweep.grid_execute_nt_ms") / passes,
    );
    m.insert("sweep.grid_execute_1t_ms".into(), t1);
    m.insert("sweep.grid_execute_nt_ms".into(), tn);
    m.insert(
        "sweep.parallel_efficiency".into(),
        if tn > 0.0 {
            t1 / (tn * e("sweep.threads").max(1.0))
        } else {
            0.0
        },
    );
    m.insert(
        "eval.duplicate_computes".into(),
        e("eval.duplicate_computes"),
    );
    for k in [
        "serve.read_request_us",
        "serve.write_response_us",
        "dist.shard_plan_us",
    ] {
        m.insert(k.into(), e(k));
    }
    let self_ms: Vec<(&str, Json)> = agg
        .iter()
        .map(|(name, a)| (*name, Json::from(a.self_ns as f64 / 1e6 / ops)))
        .collect();
    Json::obj([
        ("ops", Json::from(r.ops as f64)),
        ("mirror_errors", Json::from(r.mirror_errors as f64)),
        (
            "mismatch_ops",
            Json::Arr(r.mismatch_ops.iter().map(|&v| Json::from(v)).collect()),
        ),
        (
            "replay_op_ms",
            Json::Arr(r.replay_op_ms.iter().map(|&v| Json::from(v)).collect()),
        ),
        ("self_ms", Json::obj(self_ms)),
        (
            "metrics",
            Json::obj(m.into_iter().map(|(k, v)| (k, Json::from(v)))),
        ),
    ])
}
