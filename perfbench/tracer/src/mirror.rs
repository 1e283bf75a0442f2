//! Per-table attribution of `EvalCtx` work from outside the crate.
//!
//! `EvalCtx` reports only its summed hit/miss counters, so the tracer
//! replays each design point's memo calls itself, in the order the
//! studies make them, one public `EvalCtx` method per call. A key seen
//! for the first time is a miss: the `EvalCtx` method itself runs under
//! the table's `eval.<t>` span, so that span times the program's own
//! computation. Then a replica of the memo's compute closure runs under
//! `replica.<t>`, calling the same public functions with the same
//! arguments (`ShorInstance::app_size`, `DraperAdder::new`,
//! `CacheSim::run`, ...) so the inner layers get spans of their own; its
//! result must equal the value the program returned, or the replica has
//! drifted from the program and the op is reported. A repeated key is a
//! hit and is only counted. After the mirror, the real study runs on the
//! warm context; if that costs any miss, or a different number of hits
//! than the mirror made, the mirror's call pattern has drifted and the
//! run warns.

use std::collections::HashSet;
use std::fmt::Debug;

use cqla_circuit::{asm, Circuit, DependencyDag, Gate, ListScheduler, QubitId, Width};
use cqla_compile::ScheduleCosts;
use cqla_core::{
    AdderCosts, AreaModel, CacheBehavior, CacheRun, CacheSim, CqlaConfig, EvalCtx, FetchPolicy,
    HierarchyConfig, QlaBaseline,
};
use cqla_ecc::fidelity::{AppSize, FidelityBudget};
use cqla_ecc::{Code, EccMetrics, Level};
use cqla_iontrap::TechnologyParams;
use cqla_workloads::{DraperAdder, ShorInstance};

use crate::spans::Recorder;

/// The seven memo tables of `EvalCtx`, by metric name.
pub const TABLES: [&str; 7] = [
    "ecc",
    "adder",
    "qla_makespan",
    "cache",
    "level1_share",
    "area",
    "compiled",
];

#[derive(Clone, Copy)]
enum Table {
    Ecc,
    Adder,
    QlaMakespan,
    Cache,
    Level1Share,
    Area,
    Compiled,
}

impl Table {
    fn span(self) -> &'static str {
        match self {
            Self::Ecc => "eval.ecc",
            Self::Adder => "eval.adder",
            Self::QlaMakespan => "eval.qla_makespan",
            Self::Cache => "eval.cache",
            Self::Level1Share => "eval.level1_share",
            Self::Area => "eval.area",
            Self::Compiled => "eval.compiled",
        }
    }

    fn replica(self) -> &'static str {
        match self {
            Self::Ecc => "replica.ecc",
            Self::Adder => "replica.adder",
            Self::QlaMakespan => "replica.qla_makespan",
            Self::Cache => "replica.cache",
            Self::Level1Share => "replica.level1_share",
            Self::Area => "replica.area",
            Self::Compiled => "replica.compiled",
        }
    }

    fn hits(self) -> &'static str {
        match self {
            Self::Ecc => "eval.ecc.hits",
            Self::Adder => "eval.adder.hits",
            Self::QlaMakespan => "eval.qla_makespan.hits",
            Self::Cache => "eval.cache.hits",
            Self::Level1Share => "eval.level1_share.hits",
            Self::Area => "eval.area.hits",
            Self::Compiled => "eval.compiled.hits",
        }
    }

    fn misses(self) -> &'static str {
        match self {
            Self::Ecc => "eval.ecc.misses",
            Self::Adder => "eval.adder.misses",
            Self::QlaMakespan => "eval.qla_makespan.misses",
            Self::Cache => "eval.cache.misses",
            Self::Level1Share => "eval.level1_share.misses",
            Self::Area => "eval.area.misses",
            Self::Compiled => "eval.compiled.misses",
        }
    }
}

/// A fresh `EvalCtx` plus the mirror's record of which keys it holds.
pub struct Mirror {
    ctx: EvalCtx,
    seen: HashSet<String>,
    /// Memo calls the mirror made since the last [`Mirror::verify`].
    calls: u64,
    /// Memo calls whose hit/miss pattern differed from the mirror's.
    pub errors: u64,
    /// Replicas whose result differed from the program's, by span name.
    pub mismatches: Vec<&'static str>,
}

impl Mirror {
    pub fn new() -> Self {
        Self {
            ctx: EvalCtx::new(),
            seen: HashSet::new(),
            calls: 0,
            errors: 0,
            mismatches: Vec::new(),
        }
    }

    fn call<R: PartialEq + Debug>(
        &mut self,
        rec: &mut Recorder,
        table: Table,
        key: String,
        replica: impl FnOnce(&mut Recorder) -> R,
        fill: impl FnOnce(&EvalCtx) -> R,
    ) -> R {
        self.calls += 1;
        let (h0, m0) = self.ctx.counters();
        let ctx = &self.ctx;
        let (out, miss) = if self.seen.insert(format!("{}|{key}", table.span())) {
            rec.add(table.misses(), 1.0);
            let out = rec.span(table.span(), |_| fill(ctx));
            let copy = rec.span(table.replica(), replica);
            self.check(table.replica(), &copy, &out);
            (out, true)
        } else {
            rec.add(table.hits(), 1.0);
            (fill(ctx), false)
        };
        let (h1, m1) = self.ctx.counters();
        if (miss && m1 != m0 + 1) || (!miss && h1 != h0 + 1) {
            self.errors += 1;
        }
        out
    }

    /// Records a mismatch when a replica's result `copy` differs from
    /// the program's `real`.
    pub fn check<R: PartialEq + Debug>(&mut self, what: &'static str, copy: &R, real: &R) {
        if copy != real {
            eprintln!("cqla-tracer: {what} computed {copy:?}, the program {real:?}");
            self.mismatches.push(what);
        }
    }

    /// Runs the real study `f` on the warm context and checks that it
    /// made exactly the memo calls the mirror made, all of them hits.
    pub fn verify<R>(
        &mut self,
        rec: &mut Recorder,
        timed: bool,
        f: impl FnOnce(&EvalCtx) -> R,
    ) -> R {
        let (h0, m0) = self.ctx.counters();
        let ctx = &self.ctx;
        let out = if timed {
            rec.span("eval.assembly", |_| f(ctx))
        } else {
            f(ctx)
        };
        let (h1, m1) = self.ctx.counters();
        if m1 != m0 || h1 - h0 != self.calls {
            self.errors += 1;
        }
        self.calls = 0;
        out
    }

    pub fn ecc(&mut self, rec: &mut Recorder, tech: &TechnologyParams, code: Code, level: Level) {
        let key = format!("{}|{code:?}|{level:?}", tech.name());
        self.call(
            rec,
            Table::Ecc,
            key,
            |_| EccMetrics::compute(code, level, tech),
            |ctx| ctx.ecc_metrics(code, level, tech),
        );
    }

    pub fn adder(&mut self, rec: &mut Recorder, bits: u32, blocks: u32) {
        self.call(
            rec,
            Table::Adder,
            format!("{bits}|{blocks}"),
            |rec| {
                let adder = draper(rec, bits);
                let dag = rec.span("circuit.dag_build", |_| {
                    DependencyDag::new(adder.circuit_ref())
                });
                let weight = Gate::two_qubit_gate_equivalents;
                let schedule = rec.span("circuit.list_schedule", |_| {
                    ListScheduler::new(&dag).schedule(Width::Blocks(blocks as usize), weight)
                });
                AdderCosts {
                    utilization: schedule.utilization(),
                    ideal_makespan: dag
                        .critical_path(weight)
                        .max(dag.total_work(weight).div_ceil(u64::from(blocks))),
                }
            },
            |ctx| ctx.adder_costs(bits, blocks),
        );
    }

    pub fn qla(&mut self, rec: &mut Recorder, tech: &TechnologyParams, bits: u32) {
        // `qla_adder_time` = ECC step of the QLA code at level 2 times
        // the unlimited-width makespan.
        self.ecc(rec, tech, QlaBaseline::CODE, Level::TWO);
        self.call(
            rec,
            Table::QlaMakespan,
            bits.to_string(),
            |rec| {
                let adder = draper(rec, bits);
                let dag = rec.span("circuit.dag_build", |_| {
                    DependencyDag::new(adder.circuit_ref())
                });
                let s = rec.span("circuit.list_schedule", |_| {
                    ListScheduler::new(&dag)
                        .schedule(Width::Unlimited, Gate::two_qubit_gate_equivalents)
                });
                s.makespan()
            },
            |ctx| ctx.qla_adder_makespan_units(bits),
        );
    }

    pub fn cache(&mut self, rec: &mut Recorder, bits: u32, capacity: usize) {
        self.call(
            rec,
            Table::Cache,
            format!("{bits}|{capacity}"),
            |rec| {
                let adder = draper(rec, bits);
                let circuit = adder.circuit();
                let inputs: Vec<QubitId> = adder
                    .a_register()
                    .chain(adder.b_register())
                    .map(QubitId::new)
                    .collect();
                let sim = CacheSim::new(capacity);
                let policy = FetchPolicy::OptimizedLookahead;
                let cold = sim_run(rec, &sim, &circuit, policy, &inputs, 1);
                let warm = sim_run(rec, &sim, &circuit, policy, &inputs, 2);
                CacheBehavior {
                    hit_rate: warm.hit_rate(),
                    fetches_per_addition: warm.fetch_misses() - cold.fetch_misses(),
                }
            },
            |ctx| ctx.cache_behavior(bits, capacity),
        );
    }

    pub fn level1_share(
        &mut self,
        rec: &mut Recorder,
        tech: &TechnologyParams,
        code: Code,
        bits: u32,
    ) {
        let key = format!("{}|{code:?}|{bits}", tech.name());
        self.call(
            rec,
            Table::Level1Share,
            key,
            |rec| {
                let budget = FidelityBudget::new(code, tech);
                let shor = ShorInstance::new(bits.max(32));
                rec.add("workloads.shor_app_size_calls", 1.0);
                let (k, q) = rec.span("workloads.shor_app_size", |_| shor.app_size());
                budget.max_level1_share(AppSize::new(k, q))
            },
            |ctx| ctx.level1_share(code, tech, bits),
        );
    }

    pub fn area(
        &mut self,
        rec: &mut Recorder,
        tech: &TechnologyParams,
        code: Code,
        memory_qubits: u64,
        blocks: u32,
    ) {
        let key = format!("{}|{code:?}|{memory_qubits}|{blocks}", tech.name());
        self.call(
            rec,
            Table::Area,
            key,
            |_| AreaModel::new(tech).area_reduction(code, memory_qubits, blocks),
            |ctx| ctx.area_reduction(tech, code, memory_qubits, blocks),
        );
    }

    pub fn compiled(&mut self, rec: &mut Recorder, lowered: &Circuit, blocks: u32) {
        let key = rec.span("circuit.asm_emit", |_| asm::emit(lowered));
        self.call(
            rec,
            Table::Compiled,
            format!("{blocks}|{key}"),
            |rec| {
                rec.span("compile.schedule_costs", |rec| {
                    let dag = rec.span("circuit.dag_build", |_| DependencyDag::new(lowered));
                    let weight = Gate::two_qubit_gate_equivalents;
                    let s = rec.span("circuit.list_schedule", |_| {
                        ListScheduler::new(&dag).schedule(Width::Blocks(blocks as usize), weight)
                    });
                    ScheduleCosts {
                        makespan: s.makespan(),
                        critical_path: dag.critical_path(weight),
                        total_work: dag.total_work(weight),
                        depth: dag.depth(),
                        peak_parallelism: s.peak_parallelism(),
                        utilization: s.utilization(),
                    }
                })
            },
            |ctx| ctx.compiled_costs(lowered, blocks),
        );
    }

    /// The memo calls of `SpecializationStudy::evaluate_ctx`.
    pub fn specialization(
        &mut self,
        rec: &mut Recorder,
        tech: &TechnologyParams,
        code: Code,
        bits: u32,
        blocks: u32,
    ) {
        self.adder(rec, bits, blocks);
        self.ecc(rec, tech, code, Level::TWO);
        self.qla(rec, tech, bits);
        let memory_qubits = CqlaConfig::new(code, bits, blocks).memory_qubits();
        self.area(rec, tech, code, memory_qubits, blocks);
    }

    /// The memo calls of `HierarchyStudy::evaluate_ctx`.
    pub fn hierarchy(
        &mut self,
        rec: &mut Recorder,
        tech: &TechnologyParams,
        config: &HierarchyConfig,
    ) {
        let (code, bits) = (config.code, config.input_bits);
        self.cache(rec, bits, config.cache_capacity());
        self.adder(rec, bits, config.blocks);
        self.ecc(rec, tech, code, Level::ONE);
        self.ecc(rec, tech, code, Level::TWO);
        self.qla(rec, tech, bits);
        self.level1_share(rec, tech, code, bits);
        self.ecc(rec, tech, code, Level::ONE);
    }
}

pub fn draper(rec: &mut Recorder, bits: u32) -> DraperAdder {
    rec.add("workloads.draper_build_calls", 1.0);
    rec.span("workloads.draper_build", |_| DraperAdder::new(bits))
}

pub fn sim_run(
    rec: &mut Recorder,
    sim: &CacheSim,
    circuit: &Circuit,
    policy: FetchPolicy,
    inputs: &[QubitId],
    repeats: u32,
) -> CacheRun {
    let run = rec.span("cache.sim_run", |_| {
        sim.run(circuit, policy, inputs, repeats)
    });
    rec.add("cache.sim_accesses", run.accesses() as f64);
    run
}
