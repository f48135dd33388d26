//! The single-node workloads, `power` and `spill`: TPC-H plans from
//! `wimpi-queries` run as one closed-loop stream of whole passes, each pass
//! in a seeded order.

use std::sync::Arc;
use std::time::Instant;

use wimpi_engine::{optimizer, EngineConfig, Executor, QueryContext, Relation, WorkProfile};
use wimpi_hwsim::{modeled_spill_penalty, pi3b, predict};
use wimpi_obs::Span;
use wimpi_queries::{query, run_governed, run_traced_governed, QueryPlan};
use wimpi_storage::spill::{SpillConfig, SpillCounters, SpillDisk};
use wimpi_storage::{Catalog, Value};

use crate::report::{
    answer_crc, array, peak_rss_mb, percentiles_json, profile_json, query_metric, Obj, Rng,
};
use crate::setup;
use crate::stats::{geomean, median, quartiles, Percentile, Ratio};
use crate::trace::{OpBreakdown, Recorder};
use crate::{Outcome, RunArgs};

/// Per-query memory budget of `spill`.
pub const SPILL_BUDGET: u64 = 4 << 10;

/// The choke-point queries that reach the spill rung under
/// [`SPILL_BUDGET`] at SF 0.1.
pub const SPILL_QUERIES: [usize; 3] = [3, 4, 13];

/// Capacity of each `spill` query's fault-free spill disk: far more than
/// any of them writes.
const SPILL_DISK_BYTES: u64 = 1 << 30;

/// Hardware threads the modeled Pi 3B+ runs each query with.
const PI_THREADS: u32 = 4;

/// One single-node workload: which queries, under which engine settings.
pub struct EngineWorkload {
    queries: Vec<usize>,
    cfg: EngineConfig,
    budget: Option<u64>,
}

impl EngineWorkload {
    /// All 22 queries on the fused executor with zone-map pruning.
    pub fn power(threads: usize) -> Self {
        EngineWorkload {
            queries: (1..=22).collect(),
            cfg: EngineConfig::with_threads(threads)
                .with_executor(Executor::Fused)
                .with_prune_scans(true),
            budget: None,
        }
    }

    /// The spilling choke-point queries on the materializing executor, each
    /// under [`SPILL_BUDGET`] with a spill disk attached.
    pub fn spill(threads: usize) -> Self {
        EngineWorkload {
            queries: SPILL_QUERIES.to_vec(),
            cfg: EngineConfig::with_threads(threads),
            budget: Some(SPILL_BUDGET),
        }
    }

    /// A fresh governor context (and spill disk) for one query.
    fn context(&self) -> (QueryContext, Option<Arc<SpillDisk>>) {
        match self.budget {
            None => (QueryContext::default(), None),
            Some(b) => {
                let disk = Arc::new(SpillDisk::new(SpillConfig::with_capacity(SPILL_DISK_BYTES)));
                (QueryContext::with_budget(b).with_spill(Arc::clone(&disk)), Some(disk))
            }
        }
    }

    fn execute(&self, q: &QueryPlan, cat: &Catalog) -> Executed {
        let (ctx, disk) = self.context();
        let out = run_governed(q, cat, &self.cfg, &ctx);
        Executed::new(out.map(|(r, p)| (r, p, None)), &ctx, disk)
    }

    fn execute_traced(&self, q: &QueryPlan, cat: &Catalog) -> Executed {
        let (ctx, disk) = self.context();
        let out = run_traced_governed(q, cat, &self.cfg, &ctx);
        Executed::new(out.map(|(r, p, s)| (r, p, Some(s))), &ctx, disk)
    }
}

/// One query execution and everything the benchmark reads from it.
struct Executed {
    result: Result<(Relation, WorkProfile), String>,
    span: Option<Span>,
    spill: SpillCounters,
    spill_sim_s: f64,
    high_water: u64,
}

impl Executed {
    fn new(
        out: wimpi_engine::Result<(Relation, WorkProfile, Option<Span>)>,
        ctx: &QueryContext,
        disk: Option<Arc<SpillDisk>>,
    ) -> Self {
        let (result, span) = match out {
            Ok((r, p, s)) => (Ok((r, p)), s),
            Err(e) => (Err(e.to_string()), None),
        };
        Executed {
            result,
            span,
            spill: disk.as_ref().map(|d| d.counters()).unwrap_or_default(),
            spill_sim_s: disk.as_ref().map_or(0.0, |d| d.sim_seconds()),
            high_water: ctx.high_water(),
        }
    }
}

/// The part of a work profile that repeats exactly: everything but the
/// measured memory peak, which depends on how parallel reservations
/// interleave.
fn exact_part(p: &WorkProfile) -> WorkProfile {
    WorkProfile { peak_bytes: 0, ..*p }
}

/// What one query does the same way every time: its work, its spill
/// ledger, its modeled Pi time and its answer.
struct QueryFacts {
    n: usize,
    plan: QueryPlan,
    referee: Relation,
    profile: WorkProfile,
    spill: SpillCounters,
    spill_sim_s: f64,
    high_water: u64,
    modeled_s: f64,
}

fn optimize_all(q: &QueryPlan, cat: &Catalog) {
    let plans = match q {
        QueryPlan::Single(p) => vec![p.clone()],
        QueryPlan::TwoPhase { first, second, .. } => vec![first.clone(), second(Value::F64(0.0))],
    };
    for p in plans {
        optimizer::optimize(p, cat).expect("a TPC-H plan optimizes");
    }
}

/// Runs a single-node workload end to end.
pub fn run(w: &EngineWorkload, args: &RunArgs) -> Outcome {
    let setup = setup::repeat(setup::engine_catalog);
    let cat = &setup.value;
    let mut out = Outcome::default();

    // Referee: serial, materializing, unpruned, unbudgeted.
    let serial = EngineConfig::serial();
    let mut facts: Vec<QueryFacts> = w
        .queries
        .iter()
        .map(|&n| {
            let plan = query(n);
            let (referee, _) = wimpi_queries::run_with(&plan, cat, &serial)
                .unwrap_or_else(|e| panic!("referee Q{n} failed: {e}"));
            QueryFacts {
                n,
                plan,
                referee,
                profile: WorkProfile::default(),
                spill: SpillCounters::default(),
                spill_sim_s: 0.0,
                high_water: 0,
                modeled_s: 0.0,
            }
        })
        .collect();

    // Warm-up pass, in query order: fills caches and records each query's
    // exact work under the workload's settings.
    for f in &mut facts {
        let e = w.execute(&f.plan, cat);
        match &e.result {
            Ok((rel, prof)) => {
                if *rel != f.referee {
                    out.problem(format!("Q{}: warm-up answer differs from the referee", f.n));
                }
                f.profile = *prof;
                let hw = pi3b();
                f.modeled_s =
                    predict(&hw, prof, PI_THREADS).total_s() * modeled_spill_penalty(&hw, prof);
            }
            Err(err) => out.problem(format!("Q{}: warm-up failed: {err}", f.n)),
        }
        f.spill = e.spill;
        f.spill_sim_s = e.spill_sim_s;
        f.high_water = e.high_water;
    }

    // Timed phase: whole passes until the time is up.
    let mut rng = Rng::new(args.seed, 0);
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); facts.len()];
    let mut rows_in = 0u64;
    let mut pass_s: Vec<f64> = Vec::new();
    let start = Instant::now();
    while pass_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let pass_start = Instant::now();
        let mut order: Vec<usize> = (0..facts.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let f = &facts[i];
            out.attempted += 1;
            let t = Instant::now();
            let e = w.execute(&f.plan, cat);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match e.result {
                Ok((rel, prof)) => {
                    if rel != f.referee {
                        out.problem(format!("Q{}: answer differs from the referee", f.n));
                    }
                    if exact_part(&prof) != exact_part(&f.profile) {
                        out.problem(format!("Q{}: work profile did not repeat", f.n));
                    }
                    rows_in += prof.rows_in;
                    latencies[i].push(ms);
                }
                Err(err) => {
                    out.failed += 1;
                    out.note(format!("Q{}: {err}", f.n));
                }
            }
        }
        pass_s.push(pass_start.elapsed().as_secs_f64());
    }
    let wall_s = start.elapsed().as_secs_f64();

    let all: Vec<f64> = latencies.iter().flatten().copied().collect();
    let pcts = [0.5, 0.95, 0.99].map(|q| Percentile::of(&all, q));
    let medians: Vec<f64> = latencies.iter().map(|l| median(l).unwrap_or(0.0)).collect();
    let m = &mut out.metrics;
    m.set("throughput_qps", all.len() as f64 / wall_s);
    m.set("latency_p50_ms", pcts[0].value);
    m.set("latency_p95_ms", pcts[1].value);
    m.set("query_geomean_ms", geomean(&medians).unwrap_or(0.0));
    m.set("ok_ratio", Ratio::new(all.len() as f64, out.attempted as f64).or_zero());
    m.set("modeled_pi3b_s", facts.iter().map(|f| f.modeled_s).sum());
    setup.record(m);
    for (f, med) in facts.iter().zip(&medians) {
        m.set(query_metric(f.n), *med);
    }
    let total_latency_s: f64 = all.iter().sum::<f64>() / 1e3;
    m.set("exec.rows_per_s", Ratio::new(rows_in as f64, total_latency_s).or_zero());
    let total = facts.iter().fold(WorkProfile::default(), |acc, f| acc + f.profile);
    m.set_work(&total);
    if w.budget.is_some() {
        m.set(
            "governor.peak_mb",
            facts.iter().map(|f| f.high_water).max().unwrap_or(0) as f64 / 1e6,
        );
        m.set(
            "spill.spilled_mb",
            facts.iter().map(|f| f.spill.spilled_bytes).sum::<u64>() as f64 / 1e6,
        );
        m.set(
            "spill.chunks_written",
            facts.iter().map(|f| f.spill.chunks_written).sum::<u64>() as f64,
        );
        m.set("spill.chunk_reads", facts.iter().map(|f| f.spill.chunk_reads).sum::<u64>() as f64);
        m.set("spill.read_retries", facts.iter().map(|f| f.spill.read_retries).sum::<u64>() as f64);
        m.set("spill.modeled_io_s", facts.iter().map(|f| f.spill_sim_s).sum());
        let rung = facts.iter().filter(|f| f.spill.spilled_bytes > 0).count();
        m.set("spill.spill_rung_queries", rung as f64);
    }

    let mut traced = Obj::default();
    if args.trace {
        traced = traced_pass(w, &facts, cat, &mut rng, &mut out);
    }

    for f in &facts {
        let key = format!("q{:02}", f.n);
        out.ledger.put_profile(&key, &exact_part(&f.profile));
        out.ledger.put(format!("{key}.answer_crc"), u64::from(answer_crc(&f.referee)));
        out.ledger.put(format!("{key}.spill.chunks_written"), f.spill.chunks_written);
        out.ledger.put(format!("{key}.spill.chunk_reads"), f.spill.chunk_reads);
    }
    out.metrics.set("peak_rss_mb", peak_rss_mb());

    let queries = array(facts.iter().zip(&latencies).map(|(f, l)| {
        let [q1, med, q3] = quartiles(l).unwrap_or([0.0; 3]);
        Obj::default()
            .raw("query", f.n.to_string())
            .raw("answer_crc32c", format!("\"{:08x}\"", answer_crc(&f.referee)))
            .raw("samples", l.len().to_string())
            .num("median_ms", med)
            .num("q1_ms", q1)
            .num("q3_ms", q3)
            .num("modeled_pi3b_s", f.modeled_s)
            .raw("work_profile", profile_json(&f.profile))
            .raw("spilled_bytes", f.spill.spilled_bytes.to_string())
            .raw("spill_chunks_written", f.spill.chunks_written.to_string())
            .raw("spill_chunk_reads", f.spill.chunk_reads.to_string())
            .num("governor_peak_mb", f.high_water as f64 / 1e6)
            .finish()
    }));
    out.report = Obj::default()
        .raw("setup", setup.to_json())
        .raw("pass_s", array(pass_s.iter().map(|s| s.to_string())))
        .num("timed_wall_s", wall_s)
        .raw("latency_percentiles", percentiles_json(&pcts, &all))
        .raw("queries", queries)
        .raw("traced", traced.finish());
    out
}

/// An untraced pass and a traced pass over the same seeded order: per-layer
/// self times, fused/prune counts and tracing overhead.
fn traced_pass(
    w: &EngineWorkload,
    facts: &[QueryFacts],
    cat: &Catalog,
    rng: &mut Rng,
    out: &mut Outcome,
) -> Obj {
    let mut order: Vec<usize> = (0..facts.len()).collect();
    rng.shuffle(&mut order);
    let t = Instant::now();
    for &i in &order {
        let _ = w.execute(&facts[i].plan, cat);
    }
    let untraced_s = t.elapsed().as_secs_f64();

    let rec = Recorder::default();
    let mut ops = OpBreakdown::default();
    let mut traced_s = 0.0;
    for &i in &order {
        let f = &facts[i];
        let request = f.n as u64;
        rec.span("request", request, None, |root| {
            rec.span("optimizer.optimize", request, Some(root), |_| optimize_all(&f.plan, cat));
            let t = Instant::now();
            let e =
                rec.span("queries.run", request, Some(root), |_| w.execute_traced(&f.plan, cat));
            traced_s += t.elapsed().as_secs_f64();
            match (&e.result, &e.span) {
                (Ok((rel, prof)), Some(span)) => {
                    if *rel != f.referee {
                        out.problem(format!("Q{}: traced answer differs from the referee", f.n));
                    }
                    if exact_part(prof) != exact_part(&f.profile) {
                        out.problem(format!("Q{}: traced work profile differs", f.n));
                    }
                    ops.add(span, w.cfg.morsel_rows);
                }
                _ => out.problem(format!("Q{}: traced run failed", f.n)),
            }
        });
    }

    let m = &mut out.metrics;
    let opt = rec.durations_us("optimizer.optimize");
    m.set("optimizer.optimize_us", median(&opt).unwrap_or(0.0));
    ops.record(m, w.cfg.threads);
    let pruned: u64 = facts.iter().map(|f| f.profile.pruned_morsels).sum();
    m.set(
        "prune.pruned_morsel_ratio",
        Ratio::new(pruned as f64, ops.scanned_morsels as f64).or_zero(),
    );
    m.set("obs.trace_overhead_ratio", Ratio::new(traced_s, untraced_s).or_zero());
    out.spans = Some(rec.to_jsonl());
    Obj::default()
        .num("untraced_pass_s", untraced_s)
        .num("traced_pass_s", traced_s)
        .raw("operators", ops.to_json())
}
