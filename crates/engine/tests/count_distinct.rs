//! `count(distinct)` against a naive reference on every aggregation path:
//! both executors, threads 1/2/4 over many small morsels, and the Grace and
//! spill rungs of a budgeted run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use wimpi_engine::expr::col;
use wimpi_engine::plan::{AggExpr, PlanBuilder};
use wimpi_engine::{execute_governed, execute_traced, EngineConfig, Executor, QueryContext};
use wimpi_obs::Span;
use wimpi_storage::{Catalog, Column, DataType, Field, Schema, SpillConfig, SpillDisk, Table};

const ROWS: i64 = 20_000;
const GROUPS: i64 = 5_000;
const MORSEL_ROWS: usize = 997;

/// Each group gets four rows whose values repeat in some groups and not in
/// others, spread over many morsels.
fn columns() -> (Vec<i64>, Vec<i64>) {
    (0..ROWS).map(|i| ((i * 13) % GROUPS, (i * i) % 9 - 4)).unzip()
}

fn catalog() -> Catalog {
    let (g, v) = columns();
    let mut cat = Catalog::new();
    cat.register(
        "t",
        Table::new(
            Schema::new(vec![Field::new("g", DataType::Int64), Field::new("v", DataType::Int64)]),
            vec![Column::Int64(g), Column::Int64(v)],
        )
        .expect("table builds"),
    );
    cat
}

fn reference() -> BTreeMap<i64, i64> {
    let (g, v) = columns();
    let mut sets: BTreeMap<i64, BTreeSet<i64>> = BTreeMap::new();
    for (g, v) in g.into_iter().zip(v) {
        sets.entry(g).or_default().insert(v);
    }
    sets.into_iter().map(|(g, s)| (g, s.len() as i64)).collect()
}

fn plan() -> wimpi_engine::LogicalPlan {
    PlanBuilder::scan("t")
        .aggregate(
            vec![(col("g"), "g")],
            vec![AggExpr::count_distinct(col("v"), "u"), AggExpr::count_star("n")],
        )
        .build()
}

fn counts(rel: &wimpi_engine::Relation) -> BTreeMap<i64, i64> {
    let g = rel.column("g").unwrap().as_i64().unwrap();
    let u = rel.column("u").unwrap().as_i64().unwrap();
    assert_eq!(g.len(), GROUPS as usize);
    g.iter().copied().zip(u.iter().copied()).collect()
}

fn count_ops(s: &Span, op: &str) -> usize {
    usize::from(s.op == op) + s.children.iter().map(|c| count_ops(c, op)).sum::<usize>()
}

#[test]
fn count_distinct_matches_reference_on_every_path() {
    let cat = catalog();
    let want = reference();
    assert!(want.values().any(|&c| c < 4) && want.values().any(|&c| c > 1));
    let plan = plan();
    for executor in [Executor::Materialize, Executor::Fused] {
        for threads in [1, 2, 4] {
            let cfg = EngineConfig::with_threads(threads)
                .with_morsel_rows(MORSEL_ROWS)
                .with_executor(executor);
            let what = format!("{} at {threads} threads", executor.label());

            let (rel, _, root) = execute_traced(&plan, &cat, &cfg).expect("unbudgeted run");
            assert_eq!(counts(&rel), want, "{what}");
            if executor == Executor::Fused {
                assert_eq!(count_ops(&root, "fused"), 1, "{what}: fused pipeline runs");
                assert_eq!(count_ops(&root, "fallback"), 0, "{what}: no fallback");
            }

            // ~170 table entries: Grace partitioning fits.
            let ctx = QueryContext::with_budget(16 << 10);
            let (rel, _) = execute_governed(&plan, &cat, &cfg, &ctx).expect("grace run");
            assert_eq!(counts(&rel), want, "{what}, grace");
            assert!(ctx.fallbacks() > 0, "{what}: the budget forces the Grace path");

            // Five table entries: only the spill rung's deeper fan-out fits.
            let disk = Arc::new(SpillDisk::new(SpillConfig::with_capacity(64 << 20)));
            let ctx = QueryContext::with_budget(480).with_spill(Arc::clone(&disk));
            let (rel, prof) = execute_governed(&plan, &cat, &cfg, &ctx).expect("spill run");
            assert_eq!(counts(&rel), want, "{what}, spill");
            assert!(prof.spilled_bytes > 0, "{what}: the spill rung engages");
            assert_eq!(disk.used(), 0, "{what}: spill chunks freed");
        }
    }
}
