//! The `serve` workload: TPC-H SQL text planned client-side and served by
//! the failure-aware coordinator on a simulated WIMPI cluster, from a
//! closed loop of `nproc` clients.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use wimpi_cluster::coordinator::{Coordinator, CoordinatorConfig, QueryRequest};
use wimpi_cluster::distribute::{distribute, Strategy};
use wimpi_cluster::WimpiCluster;
use wimpi_engine::{
    execute_query_traced, optimizer, EngineConfig, Relation, ServiceConfig, WorkProfile,
};
use wimpi_obs::Registry;
use wimpi_queries::QueryPlan;
use wimpi_storage::Catalog;

use crate::report::{answer_crc, array, peak_rss_mb, percentiles_json, profile_json, Obj, Rng};
use crate::setup;
use crate::stats::{geomean, mean, median, Percentile, Ratio};
use crate::trace::{OpBreakdown, Recorder};
use crate::{Outcome, RunArgs};

/// The TPC-H queries `wimpi-sql` can plan.
pub const TEMPLATES: [usize; 6] = [1, 3, 5, 6, 12, 14];

/// One request in three repeats a hot text.
const HOT_ONE_IN: usize = 3;

/// Texts per template a run draws from: one hot, the rest cold.
const TEXTS_PER_TEMPLATE: usize = 17;

/// Result-cache budget of the coordinator. It holds the six hot answers
/// (about 650 bytes) and about fifty recent cold ones (about 110 bytes
/// each), far fewer than the ~96 cold inserts between two requests for the
/// same cold text, so a cold text seen again has been evicted and misses,
/// while a hot text, touched every ~18 requests, stays.
const RESULT_CACHE_BYTES: u64 = 6 << 10;

/// Requests generated per run; no run gets near the end.
const STREAM_LEN: usize = 1 << 17;

/// Requests of the traced pass.
const TRACED_REQUESTS: usize = 60;

/// One distinct SQL text.
struct Text {
    template: usize,
    sql: String,
}

const Q1: &str = "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, \
    sum(l_extendedprice) as sum_base_price, \
    sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, \
    sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, \
    avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, \
    avg(l_discount) as avg_disc, count(*) as count_order \
    from lineitem where l_shipdate <= date '1998-12-01' - interval '{DELTA}' day \
    group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus";

const Q3: &str = "select l_orderkey, o_orderdate, o_shippriority, \
    sum(l_extendedprice * (1 - l_discount)) as revenue \
    from customer, orders, lineitem \
    where c_mktsegment = '{SEGMENT}' and c_custkey = o_custkey and l_orderkey = o_orderkey \
    and o_orderdate < date '{DATE}' and l_shipdate > date '{DATE}' \
    group by l_orderkey, o_orderdate, o_shippriority \
    order by revenue desc, o_orderdate limit 10";

const Q5: &str = "select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue \
    from customer, orders, lineitem, supplier, nation, region \
    where c_custkey = o_custkey and l_orderkey = o_orderkey and l_suppkey = s_suppkey \
    and c_nationkey = s_nationkey and s_nationkey = n_nationkey \
    and n_regionkey = r_regionkey and r_name = '{REGION}' \
    and o_orderdate >= date '{DATE}' and o_orderdate < date '{DATE}' + interval '1' year \
    group by n_name order by revenue desc";

const Q6: &str = "select sum(l_extendedprice * l_discount) as revenue from lineitem \
    where l_shipdate >= date '{DATE}' and l_shipdate < date '{DATE}' + interval '1' year \
    and l_discount between {LO} and {HI} and l_quantity < {QUANTITY}";

const Q12: &str = "select l_shipmode, \
    sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 1 else 0 end) as high_line_count, \
    sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 0 else 1 end) as low_line_count \
    from orders, lineitem \
    where o_orderkey = l_orderkey and l_shipmode in ('{MODE1}', '{MODE2}') \
    and l_commitdate < l_receiptdate and l_shipdate < l_commitdate \
    and l_receiptdate >= date '{DATE}' and l_receiptdate < date '{DATE}' + interval '1' year \
    group by l_shipmode order by l_shipmode";

const Q14: &str = "select 100 * sum(case when p_type like 'PROMO%' \
    then l_extendedprice * (1 - l_discount) else 0.00 end) / \
    sum(l_extendedprice * (1 - l_discount)) as promo_revenue \
    from lineitem, part \
    where l_partkey = p_partkey and l_shipdate >= date '{DATE}' \
    and l_shipdate < date '{DATE}' + interval '1' month";

const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];
const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const YEARS: std::ops::RangeInclusive<u32> = 1993..=1997;

fn fill(template: &str, params: &[(&str, String)]) -> String {
    params.iter().fold(template.to_string(), |s, (k, v)| s.replace(&format!("{{{k}}}"), v))
}

/// Every distinct text: each template over the full TPC-H substitution
/// range of its parameters (an unordered pair of ship modes for Q12).
fn all_texts() -> Vec<Text> {
    let mut texts = Vec::new();
    let mut add = |template, sql| texts.push(Text { template, sql });
    for delta in 60..=120 {
        add(1, fill(Q1, &[("DELTA", delta.to_string())]));
    }
    for seg in SEGMENTS {
        for day in 1..=31 {
            add(3, fill(Q3, &[("SEGMENT", seg.into()), ("DATE", format!("1995-03-{day:02}"))]));
        }
    }
    for region in REGIONS {
        for y in YEARS {
            add(5, fill(Q5, &[("REGION", region.into()), ("DATE", format!("{y}-01-01"))]));
        }
    }
    for y in YEARS {
        for d in 2..=9 {
            for qty in 24..=25 {
                let params = [
                    ("DATE", format!("{y}-01-01")),
                    ("LO", format!("0.{:02}", d - 1)),
                    ("HI", format!("0.{:02}", d + 1)),
                    ("QUANTITY", qty.to_string()),
                ];
                add(6, fill(Q6, &params));
            }
        }
    }
    for (i, m1) in SHIPMODES.iter().enumerate() {
        for m2 in &SHIPMODES[i + 1..] {
            for y in YEARS {
                let params = [
                    ("MODE1", m1.to_string()),
                    ("MODE2", m2.to_string()),
                    ("DATE", format!("{y}-01-01")),
                ];
                add(12, fill(Q12, &params));
            }
        }
    }
    for y in YEARS {
        for month in 1..=12 {
            add(14, fill(Q14, &[("DATE", format!("{y}-{month:02}-01"))]));
        }
    }
    texts
}

/// The seeded request stream: text ids, plus the hot set. Each template's
/// texts are shuffled and cut to [`TEXTS_PER_TEMPLATE`]; the first is hot,
/// the rest are handed out in order (cycling) to cold requests. The stream
/// is a run of shuffled blocks, each holding every template's hot text once
/// and `HOT_ONE_IN - 1` of its cold texts, so every stretch of the stream
/// has the same hit share and template mix and only their order, and the
/// texts, depend on the seed.
fn request_stream(texts: &[Text], seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::new(seed, 1);
    let mut pools: Vec<Vec<usize>> = TEMPLATES
        .iter()
        .map(|&t| (0..texts.len()).filter(|&i| texts[i].template == t).collect())
        .collect();
    for p in &mut pools {
        rng.shuffle(p);
        p.truncate(TEXTS_PER_TEMPLATE);
    }
    let hot: Vec<usize> = pools.iter_mut().map(|p| p.remove(0)).collect();
    let mut next = vec![0usize; pools.len()];
    let mut stream = Vec::with_capacity(STREAM_LEN);
    while stream.len() < STREAM_LEN {
        let mut block = hot.clone();
        for (p, n) in pools.iter().zip(&mut next) {
            for _ in 1..HOT_ONE_IN {
                block.push(p[*n % p.len()]);
                *n += 1;
            }
        }
        rng.shuffle(&mut block);
        stream.extend(block);
    }
    (stream, hot)
}

/// One served request as the client saw it.
struct Served {
    text: usize,
    /// SQL text to answer.
    total_ms: f64,
    /// `Coordinator::run_blocking` alone.
    run_ms: f64,
    outcome: Result<(Relation, bool, f64), String>,
}

/// Plans and serves one request.
fn serve_one(coord: &Coordinator, cat: &Catalog, texts: &[Text], id: usize) -> Served {
    let t = Instant::now();
    let plan = wimpi_sql::plan(&texts[id].sql, cat);
    let t_run = Instant::now();
    let outcome = match plan {
        Ok(p) => {
            let req = QueryRequest::new(format!("Q{}", texts[id].template), QueryPlan::Single(p));
            match coord.run_blocking(req) {
                Ok(a) if a.degraded => Err("degraded answer".to_string()),
                Ok(a) => Ok((a.result, a.from_cache, a.sim_seconds)),
                Err(e) => Err(e.to_string()),
            }
        }
        Err(e) => Err(e.to_string()),
    };
    let end = Instant::now();
    Served {
        text: id,
        total_ms: (end - t).as_secs_f64() * 1e3,
        run_ms: (end - t_run).as_secs_f64() * 1e3,
        outcome,
    }
}

/// Coordinator counters the run reads, as deltas over the timed phase.
const COUNTERS: [&str; 7] = [
    "coord_result_cache_hits_total",
    "coord_result_cache_misses_total",
    "coord_plan_cache_hits_total",
    "coord_plan_cache_misses_total",
    "coord_subruns_total",
    "coord_retries_total",
    "coord_hedges_total",
];

fn snapshot(r: &Registry) -> BTreeMap<&'static str, u64> {
    COUNTERS.iter().map(|&c| (c, r.counter(c))).collect()
}

/// Runs the `serve` workload end to end.
pub fn run(args: &RunArgs) -> Outcome {
    let setup = setup::repeat(|| {
        let (cluster, phases) = setup::cluster();
        (Arc::new(cluster), phases)
    });
    let cluster = Arc::clone(&setup.value);
    let cat = cluster.node_catalog(0);
    let texts = all_texts();
    let (stream, hot) = request_stream(&texts, args.seed);
    let clients = args.threads;
    let coord = Coordinator::new(
        Arc::clone(&cluster),
        CoordinatorConfig {
            service: ServiceConfig {
                workers: args.threads,
                queue_depth: clients.max(ServiceConfig::default().queue_depth),
                ..ServiceConfig::default()
            },
            result_cache_bytes: RESULT_CACHE_BYTES,
            ..CoordinatorConfig::default()
        },
    );
    let mut out = Outcome::default();

    // Warm-up: each hot text once, which also fills the plan cache.
    let mut served: Vec<Served> =
        hot.iter().map(|&id| serve_one(&coord, cat, &texts, id)).collect();
    let before = snapshot(coord.metrics());

    // Timed phase: a closed loop of `clients` clients over the stream.
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let timed: Vec<Served> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while start.elapsed().as_secs_f64() < args.seconds {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&id) = stream.get(k) else { break };
                        mine.push(serve_one(&coord, cat, &texts, id));
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = snapshot(coord.metrics());
    let delta = |c: &str| (after[c] - before[c]) as f64;

    out.attempted = timed.len() as u64;
    out.failed = timed.iter().filter(|s| s.outcome.is_err()).count() as u64;
    for s in timed.iter().filter_map(|s| s.outcome.as_ref().err()) {
        out.note(s.clone());
    }
    let ok: Vec<&Served> = timed.iter().filter(|s| s.outcome.is_ok()).collect();
    let is_hit = |s: &Served| matches!(s.outcome, Ok((_, true, _)));
    let all: Vec<f64> = ok.iter().map(|s| s.total_ms).collect();
    let pcts = [0.5, 0.95, 0.99].map(|q| Percentile::of(&all, q));
    let per_template = |stat: fn(&[f64]) -> Option<f64>, f: &dyn Fn(&Served) -> Option<f64>| {
        TEMPLATES
            .iter()
            .map(|&t| {
                let v: Vec<f64> = ok
                    .iter()
                    .filter(|s| texts[s.text].template == t)
                    .filter_map(|s| f(s))
                    .collect();
                stat(&v).unwrap_or(0.0)
            })
            .collect::<Vec<f64>>()
    };
    // Per template, over misses only: a hit is a different (and far
    // cheaper) request. Each template contributes its mean miss time, which
    // averages the host's slow and fast stretches over the whole run the
    // way `throughput_qps` does; a quantile jumps when the share of
    // requests caught in a slow stretch crosses it. The median stays in the
    // report.
    let miss_ms = |s: &Served| (!is_hit(s)).then_some(s.total_ms);
    let template_ms = per_template(mean, &miss_ms);
    let template_median_ms = per_template(median, &miss_ms);
    let template_sim_s = per_template(median, &|s| match s.outcome {
        Ok((_, false, sim)) => Some(sim),
        _ => None,
    });

    let m = &mut out.metrics;
    m.set("throughput_qps", ok.len() as f64 / wall_s);
    m.set("latency_p50_ms", pcts[0].value);
    m.set("latency_p95_ms", pcts[1].value);
    m.set("query_geomean_ms", geomean(&template_ms).unwrap_or(0.0));
    m.set("ok_ratio", Ratio::new(ok.len() as f64, out.attempted as f64).or_zero());
    m.set("modeled_pi3b_s", template_sim_s.iter().sum());
    setup.record(m);

    let hits: Vec<f64> = ok.iter().filter(|s| is_hit(s)).map(|s| s.run_ms * 1e3).collect();
    let misses: Vec<f64> = ok.iter().filter(|s| !is_hit(s)).map(|s| s.run_ms).collect();
    let rc_hits = delta("coord_result_cache_hits_total");
    let rc_misses = delta("coord_result_cache_misses_total");
    let pc_hits = delta("coord_plan_cache_hits_total");
    let pc_misses = delta("coord_plan_cache_misses_total");
    m.set("coordinator.result_cache_hit_ratio", Ratio::new(rc_hits, rc_hits + rc_misses).or_zero());
    m.set("coordinator.plan_cache_hit_ratio", Ratio::new(pc_hits, pc_hits + pc_misses).or_zero());
    m.set("coordinator.hit_us_p50", median(&hits).unwrap_or(0.0));
    m.set("coordinator.miss_ms_p50", median(&misses).unwrap_or(0.0));
    m.set("coordinator.miss_ms_p99", Percentile::of(&misses, 0.99).value);
    m.set(
        "coordinator.subruns_per_miss",
        Ratio::new(delta("coord_subruns_total"), rc_misses).or_zero(),
    );
    m.set("coordinator.retries_total", delta("coord_retries_total"));
    m.set("coordinator.hedges_total", delta("coord_hedges_total"));
    let svc = coord.service_metrics();
    let svc_ms = |name: &str, q: f64| svc.histogram_quantile(name, q).unwrap_or(0.0) * 1e3;
    m.set("service.wait_ms_p50", svc_ms("service_wait_seconds", 0.5));
    m.set("service.wait_ms_p99", svc_ms("service_wait_seconds", 0.99));
    m.set("service.latency_ms_p50", svc_ms("service_latency_seconds", 0.5));
    m.set("service.in_flight_peak", svc.gauge("service_in_flight_peak").unwrap_or(0.0));
    m.set("service.queue_depth_peak", svc.gauge("service_queue_depth_peak").unwrap_or(0.0));
    m.set("service.shed_total", svc.counter("service_shed_total") as f64);

    let mut traced = Obj::default();
    if args.trace {
        let next = cursor.load(Ordering::Relaxed).min(stream.len());
        let ids = &stream[next..(next + TRACED_REQUESTS).min(stream.len())];
        let (obj, more) = traced_pass(&coord, &cluster, cat, &texts, ids, &hot, &mut out);
        traced = obj;
        served.extend(more);
    }
    served.extend(timed);

    // Referee: every distinct text served, plus the hot set, on a clean
    // cluster run, computed after the timed phase.
    let mut distinct: BTreeSet<usize> = served.iter().map(|s| s.text).collect();
    distinct.extend(&hot);
    let referee = referee_answers(
        &cluster,
        cat,
        &texts,
        &distinct.into_iter().collect::<Vec<_>>(),
        args.threads,
    );
    for s in &served {
        if let Ok((rel, _, _)) = &s.outcome {
            match &referee[&s.text] {
                Ok((r, _)) if r == rel => {}
                Ok(_) => {
                    out.problem(format!("{}: answer differs from the referee", texts[s.text].sql))
                }
                Err(e) => out.problem(format!("referee failed: {e}")),
            }
        }
    }
    for (&id, t) in hot.iter().zip(TEMPLATES) {
        if let Ok((rel, prof)) = &referee[&id] {
            out.ledger.put_profile(&format!("hot.q{t:02}"), prof);
            out.ledger.put(format!("hot.q{t:02}.answer_crc"), u64::from(answer_crc(rel)));
        }
    }
    out.metrics.set("peak_rss_mb", peak_rss_mb());

    let hot_json = array(hot.iter().map(|&id| {
        match &referee[&id] {
            Ok((rel, prof)) => Obj::default()
                .raw("template", texts[id].template.to_string())
                .str("sql", &texts[id].sql)
                .raw("answer_crc32c", format!("\"{:08x}\"", answer_crc(rel)))
                .raw("answer_bytes", rel.stream_bytes().to_string())
                .raw("node_work_profile", profile_json(prof))
                .finish(),
            Err(e) => Obj::default().str("error", e).finish(),
        }
    }));
    let templates = array((0..TEMPLATES.len()).map(|i| {
        Obj::default()
            .raw("template", TEMPLATES[i].to_string())
            .num("mean_miss_ms", template_ms[i])
            .num("median_miss_ms", template_median_ms[i])
            .num("median_miss_sim_s", template_sim_s[i])
            .finish()
    }));
    out.report = Obj::default()
        .raw("setup", setup.to_json())
        .raw("clients", clients.to_string())
        .num("timed_wall_s", wall_s)
        .raw("latency_percentiles", percentiles_json(&pcts, &all))
        .raw(
            "cache",
            Obj::default()
                .raw("client_hits", hits.len().to_string())
                .raw("client_misses", misses.len().to_string())
                .num("result_cache_hits", rc_hits)
                .num("result_cache_misses", rc_misses)
                .num("plan_cache_hits", pc_hits)
                .num("plan_cache_misses", pc_misses)
                .finish(),
        )
        .raw("distinct_texts_served", referee.len().to_string())
        .raw("templates", templates)
        .raw("hot", hot_json)
        .raw("traced", traced.finish());
    out
}

/// A clean `WimpiCluster::run` answer (and summed node work) per text, on
/// `threads` threads.
fn referee_answers(
    cluster: &WimpiCluster,
    cat: &Catalog,
    texts: &[Text],
    ids: &[usize],
    threads: usize,
) -> BTreeMap<usize, Result<(Relation, WorkProfile), String>> {
    let chunk = ids.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = ids
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&id| {
                            let run = wimpi_sql::plan(&texts[id].sql, cat)
                                .map_err(|e| e.to_string())
                                .and_then(|p| {
                                    cluster
                                        .run(&QueryPlan::Single(p), Strategy::PartialAggPushdown)
                                        .map_err(|e| e.to_string())
                                });
                            let r = run.map(|d| {
                                let work = d
                                    .node_profiles
                                    .iter()
                                    .fold(WorkProfile::default(), |a, p| a + *p);
                                (d.result, work)
                            });
                            (id, r)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts.into_iter().flat_map(|h| h.join().expect("referee thread panicked")).collect()
    })
}

/// The traced pass: `ids` served one at a time with a span around every
/// layer call, then each hot text's node plan traced on every node.
fn traced_pass(
    coord: &Coordinator,
    cluster: &WimpiCluster,
    cat: &Catalog,
    texts: &[Text],
    ids: &[usize],
    hot: &[usize],
    out: &mut Outcome,
) -> (Obj, Vec<Served>) {
    let rec = Recorder::default();
    let mut served = Vec::new();
    for (k, &id) in ids.iter().enumerate() {
        let request = k as u64;
        rec.span("request", request, None, |root| {
            let t = Instant::now();
            let parsed = rec.span("sql.parse", request, Some(root), |_| {
                wimpi_sql::parser::parse(&texts[id].sql)
            });
            let plan = parsed.and_then(|q| {
                rec.span("sql.plan", request, Some(root), |_| {
                    wimpi_sql::planner::plan_query(&q, cat)
                })
            });
            let plan = match plan {
                Ok(p) => p,
                Err(e) => return out.problem(format!("traced plan failed: {e}")),
            };
            rec.span("optimizer.optimize", request, Some(root), |_| {
                optimizer::optimize(plan.clone(), cat)
            })
            .unwrap_or_else(|e| panic!("optimizing a planned template failed: {e}"));
            let t_run = Instant::now();
            let req =
                QueryRequest::new(format!("Q{}", texts[id].template), QueryPlan::Single(plan));
            let answer = rec
                .span("coordinator.run_blocking", request, Some(root), |_| coord.run_blocking(req));
            let end = Instant::now();
            served.push(Served {
                text: id,
                total_ms: (end - t).as_secs_f64() * 1e3,
                run_ms: (end - t_run).as_secs_f64() * 1e3,
                outcome: answer
                    .map(|a| (a.result, a.from_cache, a.sim_seconds))
                    .map_err(|e| e.to_string()),
            });
        });
    }

    // The node plans of the hot texts, traced on every node's partition.
    let serial = EngineConfig::serial();
    let mut ops = OpBreakdown::default();
    let mut work = WorkProfile::default();
    for &id in hot {
        let plan = wimpi_sql::plan(&texts[id].sql, cat).expect("a hot text plans");
        let node_plan = distribute(&plan, Strategy::PartialAggPushdown)
            .expect("a template touching lineitem distributes")
            .node_plan;
        for node in 0..cluster.num_nodes() as usize {
            let request = 1_000_000 + id as u64;
            let run = rec.span("queries.run", request, None, |_| {
                execute_query_traced(&node_plan, cluster.node_catalog(node), &serial)
            });
            match run {
                Ok((_, prof, span)) => {
                    ops.add(&span, serial.morsel_rows);
                    work += prof;
                }
                Err(e) => out.problem(format!("traced node run failed: {e}")),
            }
        }
    }

    let m = &mut out.metrics;
    m.set("sql.parse_us", median(&rec.durations_us("sql.parse")).unwrap_or(0.0));
    m.set("sql.plan_us", median(&rec.durations_us("sql.plan")).unwrap_or(0.0));
    m.set("optimizer.optimize_us", median(&rec.durations_us("optimizer.optimize")).unwrap_or(0.0));
    ops.record(m, serial.threads);
    m.set_work(&work);
    m.set("exec.rows_per_s", Ratio::new(work.rows_in as f64, ops.wall_ns as f64 / 1e9).or_zero());
    for (k, v) in crate::report::profile_fields(&work) {
        out.ledger.put(format!("hot.node_traced.{k}"), v);
    }
    out.spans = Some(rec.to_jsonl());
    (Obj::default().raw("operators", ops.to_json()).raw("requests", ids.len().to_string()), served)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_text_plans_and_texts_are_distinct() {
        let cat = wimpi_tpch::Generator::new(0.01).generate_catalog().unwrap();
        let texts = all_texts();
        assert_eq!(texts.len(), 61 + 155 + 25 + 80 + 105 + 60);
        let distinct: BTreeSet<&str> = texts.iter().map(|t| t.sql.as_str()).collect();
        assert_eq!(distinct.len(), texts.len());
        for t in &texts {
            assert!(!t.sql.contains('{'), "unfilled parameter: {}", t.sql);
            let plan = wimpi_sql::plan(&t.sql, &cat).unwrap_or_else(|e| panic!("{e}: {}", t.sql));
            assert!(plan.tables().contains(&"lineitem".to_string()));
        }
    }

    #[test]
    fn stream_is_seeded_with_one_hot_text_per_template() {
        let texts = all_texts();
        let (a, hot) = request_stream(&texts, 5);
        let (b, _) = request_stream(&texts, 5);
        let (c, _) = request_stream(&texts, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let templates: Vec<usize> = hot.iter().map(|&i| texts[i].template).collect();
        assert_eq!(templates, TEMPLATES);
        // Every block holds each template's hot text once and two of its
        // cold texts, so one request in three is a hit.
        let block = HOT_ONE_IN * TEMPLATES.len();
        for block in a[..100 * block].chunks(block) {
            for (&t, &h) in TEMPLATES.iter().zip(&hot) {
                assert_eq!(block.iter().filter(|&&i| i == h).count(), 1);
                assert_eq!(block.iter().filter(|&&i| texts[i].template == t).count(), HOT_ONE_IN);
            }
        }
    }
}
