//! The metric catalog, the result line, the run report, the exact-count
//! ledger, and small helpers shared by the workloads (answer digests, peak
//! RSS, the seeded request generator).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use wimpi_engine::{Relation, WorkProfile};
use wimpi_storage::checksum::Crc32c;
use wimpi_storage::integrity::chunk_checksum;
use wimpi_storage::Column;

use crate::stats::{highest_supported, Percentile};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("query_geomean_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("modeled_pi3b_s", "model-s"),
];

/// Per-layer metrics other than the per-query medians, printed by every
/// traced run: `(name, unit)`. Metrics a workload does not exercise read 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("tpch.generate_s", "s"),
    ("tpch.cluster_by_s", "s"),
    ("storage.seal_zone_maps_s", "s"),
    ("cluster.build_s", "s"),
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("optimizer.optimize_us", "us"),
    ("exec.scan_self_ms", "ms"),
    ("exec.filter_self_ms", "ms"),
    ("exec.eval_self_ms", "ms"),
    ("exec.join_self_ms", "ms"),
    ("exec.join_build_self_ms", "ms"),
    ("exec.join_probe_self_ms", "ms"),
    ("exec.aggregate_self_ms", "ms"),
    ("exec.sort_self_ms", "ms"),
    ("exec.other_self_ms", "ms"),
    ("exec.parallel_busy_ratio", "ratio"),
    ("exec.cpu_ops_m", "Mops"),
    ("exec.seq_read_mb", "MB"),
    ("exec.seq_write_mb", "MB"),
    ("exec.rand_accesses_m", "Maccesses"),
    ("exec.hash_mb", "MB"),
    ("exec.rows_in_m", "Mrows"),
    ("exec.rows_per_s", "rows/s"),
    ("fused.pipelines", "count"),
    ("fused.fallbacks", "count"),
    ("fused.fused_ratio", "ratio"),
    ("fused.self_ms", "ms"),
    ("prune.pruned_morsel_ratio", "ratio"),
    ("prune.pruned_mb", "MB"),
    ("governor.peak_mb", "MB"),
    ("spill.spilled_mb", "MB"),
    ("spill.chunks_written", "count"),
    ("spill.chunk_reads", "count"),
    ("spill.read_retries", "count"),
    ("spill.modeled_io_s", "model-s"),
    ("spill.spill_rung_queries", "count"),
    ("service.wait_ms_p50", "ms"),
    ("service.wait_ms_p99", "ms"),
    ("service.latency_ms_p50", "ms"),
    ("service.in_flight_peak", "count"),
    ("service.queue_depth_peak", "count"),
    ("service.shed_total", "count"),
    ("coordinator.result_cache_hit_ratio", "ratio"),
    ("coordinator.plan_cache_hit_ratio", "ratio"),
    ("coordinator.hit_us_p50", "us"),
    ("coordinator.miss_ms_p50", "ms"),
    ("coordinator.miss_ms_p99", "ms"),
    ("coordinator.subruns_per_miss", "ratio"),
    ("coordinator.retries_total", "count"),
    ("coordinator.hedges_total", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// Name of the per-layer median for TPC-H query `n`.
pub fn query_metric(n: usize) -> String {
    format!("queries.q{n:02}_ms")
}

/// Every per-layer metric with its unit, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    let at = PER_LAYER.iter().position(|(n, _)| *n == "optimizer.optimize_us").expect("listed") + 1;
    all.splice(at..at, (1..=22).map(|n| (query_metric(n), "ms")));
    all
}

/// Metric values gathered by one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(HashMap<String, f64>);

impl Metrics {
    /// Records a metric. Panics on a non-finite value: the result line is
    /// JSON, and a NaN there is a benchmark bug.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    /// Records the exact work counts of a summed profile.
    pub fn set_work(&mut self, p: &WorkProfile) {
        self.set("exec.cpu_ops_m", p.cpu_ops as f64 / 1e6);
        self.set("exec.seq_read_mb", p.seq_read_bytes as f64 / 1e6);
        self.set("exec.seq_write_mb", p.seq_write_bytes as f64 / 1e6);
        self.set("exec.rand_accesses_m", p.rand_accesses as f64 / 1e6);
        self.set("exec.hash_mb", p.hash_bytes as f64 / 1e6);
        self.set("exec.rows_in_m", p.rows_in as f64 / 1e6);
        self.set("prune.pruned_mb", p.pruned_bytes as f64 / 1e6);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The metrics a run prints, in catalog order: every end-to-end metric
    /// (each must have been recorded) or every per-layer one (unrecorded
    /// ones read 0 — the workload does not exercise that layer).
    pub fn select(&self, traced: bool) -> Vec<(String, f64, &'static str)> {
        if traced {
            per_layer()
                .into_iter()
                .map(|(n, u)| {
                    let v = self.get(&n).unwrap_or(0.0);
                    (n, v, u)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    let v = self.get(n).unwrap_or_else(|| panic!("end-to-end metric {n} unset"));
                    (n.to_string(), v, u)
                })
                .collect()
        }
    }
}

/// The last line of standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("{}: {{\"value\": {v}, \"unit\": {}}}", json_str(n), json_str(u)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object assembled field by field.
#[derive(Debug, Default)]
pub struct Obj(Vec<String>);

impl Obj {
    /// A field holding already-rendered JSON.
    pub fn raw(mut self, key: &str, json: impl Into<String>) -> Self {
        self.0.push(format!("{}: {}", json_str(key), json.into()));
        self
    }

    /// A numeric field (non-finite values render as `null`).
    pub fn num(self, key: &str, v: f64) -> Self {
        let json = if v.is_finite() { format!("{v}") } else { "null".to_string() };
        self.raw(key, json)
    }

    /// A string field.
    pub fn str(self, key: &str, v: &str) -> Self {
        let json = json_str(v);
        self.raw(key, json)
    }

    /// The rendered object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

/// Renders a JSON array of already-rendered elements.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

/// The reported latency percentiles with their support, plus the highest
/// percentile the sample supports.
pub fn percentiles_json(pcts: &[Percentile], samples: &[f64]) -> String {
    let one = |p: &Percentile| {
        Obj::default()
            .num("q", p.q)
            .num("value_ms", p.value)
            .raw("samples", p.n.to_string())
            .raw("supported", p.supported.to_string())
            .finish()
    };
    let highest = highest_supported(samples.len()).map(|q| one(&Percentile::of(samples, q)));
    Obj::default()
        .raw("reported", array(pcts.iter().map(one)))
        .raw("highest_supported", highest.unwrap_or_else(|| "null".to_string()))
        .finish()
}

/// Every [`WorkProfile`] counter as a JSON object, zeros included.
pub fn profile_json(p: &WorkProfile) -> String {
    profile_fields(p).into_iter().fold(Obj::default(), |o, (k, v)| o.raw(k, v.to_string())).finish()
}

/// Every [`WorkProfile`] counter by name.
pub fn profile_fields(p: &WorkProfile) -> [(&'static str, u64); 14] {
    [
        ("cpu_ops", p.cpu_ops),
        ("seq_read_bytes", p.seq_read_bytes),
        ("seq_write_bytes", p.seq_write_bytes),
        ("rand_accesses", p.rand_accesses),
        ("hash_bytes", p.hash_bytes),
        ("rows_in", p.rows_in),
        ("rows_out", p.rows_out),
        ("network_bytes", p.network_bytes),
        ("pruned_morsels", p.pruned_morsels),
        ("pruned_bytes", p.pruned_bytes),
        ("peak_bytes", p.peak_bytes),
        ("spilled_bytes", p.spilled_bytes),
        ("spill_read_retries", p.spill_read_retries),
        ("spill_corruptions_detected", p.spill_corruptions_detected),
    ]
}

/// CRC32C digest of an answer: row count, then per column its name and
/// its values (numeric columns as their stored bytes, strings decoded, so
/// the digest does not depend on dictionary layout).
pub fn answer_crc(rel: &Relation) -> u32 {
    let mut h = Crc32c::new();
    h.update_u64(rel.num_rows() as u64);
    for (name, col) in rel.fields() {
        h.update_u64(name.len() as u64);
        h.update(name.as_bytes());
        match col.as_ref() {
            Column::Str(d) => {
                for i in 0..d.len() {
                    h.update_u64(d.get(i).len() as u64);
                    h.update(d.get(i).as_bytes());
                }
            }
            other => h.update_u32(chunk_checksum(other, 0..other.len())),
        }
    }
    h.finish()
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only source of randomness, seeded by
/// `--seed`, so one seed always yields the same request stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Counts that must repeat exactly for one (program, workload, seed):
/// work profiles, spill ledgers and answer digests.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger(pub BTreeMap<String, u64>);

impl Ledger {
    /// Records one count.
    pub fn put(&mut self, key: impl Into<String>, v: u64) {
        self.0.insert(key.into(), v);
    }

    /// Records every counter of a work profile under `prefix`.
    pub fn put_profile(&mut self, prefix: &str, p: &WorkProfile) {
        for (k, v) in profile_fields(p) {
            self.put(format!("{prefix}.{k}"), v);
        }
    }

    fn render(&self) -> String {
        self.0.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
    }

    fn parse(text: &str) -> Option<Ledger> {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let (k, v) = line.split_once(' ')?;
            map.insert(k.to_string(), v.parse().ok()?);
        }
        Some(Ledger(map))
    }

    /// Checks the ledger against the one an earlier run of the same program
    /// binary, workload and seed left in `dir`, or records it when there is
    /// none. Returns the keys whose counts differ (empty when they repeat).
    pub fn check_against_previous(&self, dir: &Path, name: &str) -> Vec<String> {
        let Some(path) = ledger_path(dir, name) else { return Vec::new() };
        match std::fs::read_to_string(&path).ok().and_then(|t| Ledger::parse(&t)) {
            Some(prev) => {
                let keys: std::collections::BTreeSet<&String> =
                    prev.0.keys().chain(self.0.keys()).collect();
                keys.into_iter()
                    .filter(|k| prev.0.get(*k) != self.0.get(*k))
                    .map(|k| format!("{k}: previous {:?}, now {:?}", prev.0.get(k), self.0.get(k)))
                    .collect()
            }
            None => {
                if let Err(e) = std::fs::write(&path, self.render()) {
                    eprintln!("perfbench: could not record {}: {e}", path.display());
                }
                Vec::new()
            }
        }
    }
}

/// `<dir>/exact-<name>-<crc of this executable>.txt`, so a rebuilt program
/// never compares against a stale ledger. `None` when the executable
/// cannot be read.
fn ledger_path(dir: &Path, name: &str) -> Option<PathBuf> {
    let exe = std::fs::read(std::env::current_exe().ok()?).ok()?;
    Some(dir.join(format!("exact-{name}-{:08x}.txt", wimpi_storage::crc32c(&exe))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn catalog_names_are_unique_and_valid() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'), "{n}");
        }
        assert_eq!(per_layer().len(), PER_LAYER.len() + 22);
        assert_eq!(per_layer()[7].0, "queries.q01_ms");
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let Ok(text) = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        ) else {
            return;
        };
        for (n, u) in END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).chain(per_layer()) {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(true, 3, 0, &[("a_ms".to_string(), 1.5, "ms")]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a_ms": {"value": 1.5, "unit": "ms"}}}"#
        );
    }

    #[test]
    fn unset_per_layer_metrics_read_zero() {
        let mut m = Metrics::default();
        m.set("sql.parse_us", 2.0);
        let traced = m.select(true);
        assert_eq!(traced.len(), per_layer().len());
        assert!(traced.iter().any(|(n, v, _)| n == "sql.parse_us" && *v == 2.0));
        assert!(traced.iter().any(|(n, v, _)| n == "spill.spilled_mb" && *v == 0.0));
    }

    #[test]
    fn answer_digest_sees_values_not_dictionaries() {
        let a = wimpi_storage::DictColumn::from_parts(vec![0, 1], vec!["x".into(), "y".into()]);
        let b = wimpi_storage::DictColumn::from_parts(
            vec![1, 0],
            vec!["y".into(), "x".into(), "unused".into()],
        );
        let rel = |d| Relation::new(vec![("s".to_string(), Arc::new(Column::Str(d)))]).unwrap();
        assert_eq!(answer_crc(&rel(a.clone())), answer_crc(&rel(b)));
        let c = wimpi_storage::DictColumn::from_parts(vec![1, 0], vec!["x".into(), "y".into()]);
        assert_ne!(answer_crc(&rel(a)), answer_crc(&rel(c)));
    }

    #[test]
    fn rng_is_seeded_and_shuffles_everything() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 1);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut v: Vec<usize> = (0..50).collect();
        Rng::new(3, 0).shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn ledger_round_trips() {
        let mut l = Ledger::default();
        l.put("q01.cpu_ops", 12);
        l.put_profile("total", &WorkProfile { cpu_ops: 5, ..WorkProfile::default() });
        assert_eq!(Ledger::parse(&l.render()), Some(l.clone()));
        assert_eq!(l.0["total.cpu_ops"], 5);
    }

    #[test]
    fn ledger_check_flags_counts_that_did_not_repeat() {
        let dir = std::env::temp_dir().join(format!("perfbench-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut first = Ledger::default();
        first.put("q01.cpu_ops", 12);
        assert!(first.check_against_previous(&dir, "t").is_empty(), "first run records");
        assert!(first.check_against_previous(&dir, "t").is_empty(), "same counts repeat");
        let mut changed = first.clone();
        changed.put("q01.cpu_ops", 13);
        let diffs = changed.check_against_previous(&dir, "t");
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].starts_with("q01.cpu_ops"), "{diffs:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
