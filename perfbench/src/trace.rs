//! Tracing for the traced run: the benchmark's own spans around each call
//! into a layer, and the per-operator breakdown of the engine's span trees.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use wimpi_obs::Span;

use crate::report::{array, Metrics, Obj};
use crate::stats::{parallel_busy, self_times, Ratio};

/// One span the benchmark recorded around a call into a layer.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    /// Span id (unique within the run).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The request every span of one request shares.
    pub request: u64,
    /// Layer call, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl BenchSpan {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Keeps the benchmark's spans in memory until the run writes them out.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<BenchSpan>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span named `name` for `request`, returning its
    /// result and the span id (for children to name as their parent).
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.origin.elapsed().as_nanos() as u64;
        let span = BenchSpan { id, parent, request, name, start_ns: start, end_ns: end };
        self.spans.lock().expect("span recorder lock poisoned").push(span);
        out
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<BenchSpan> {
        self.spans.lock().expect("span recorder lock poisoned").clone()
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans().iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        self.spans()
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                Obj::default()
                    .raw("id", s.id.to_string())
                    .raw("parent", parent)
                    .raw("request", s.request.to_string())
                    .str("name", s.name)
                    .raw("start_ns", s.start_ns.to_string())
                    .raw("end_ns", s.end_ns.to_string())
                    .finish()
                    + "\n"
            })
            .collect()
    }
}

/// Engine operator categories the per-layer self times are reported in.
pub const OP_CATEGORIES: [&str; 10] = [
    "scan",
    "filter",
    "eval",
    "join",
    "join_build",
    "join_probe",
    "aggregate",
    "sort",
    "fused",
    "other",
];

/// The category a span's self time belongs to. Stage spans inside an
/// operator (`predicates`, `partials`, a `fallback` marker) count toward
/// the operator that owns them.
fn category(op: &str, parent: &str) -> &'static str {
    match op {
        "scan" => "scan",
        "filter" => "filter",
        "eval" | "project" => "eval",
        "join" => "join",
        "build" => "join_build",
        "probe" => "join_probe",
        "aggregate" => "aggregate",
        "sort" => "sort",
        "fused" => "fused",
        "predicates" | "partials" | "fallback" => category(parent, ""),
        _ => "other",
    }
}

/// Per-operator totals over the span trees of one traced pass.
#[derive(Debug, Default, Clone)]
pub struct OpBreakdown {
    /// Self nanoseconds per category of [`OP_CATEGORIES`].
    pub self_ns: [i64; OP_CATEGORIES.len()],
    /// Root wall nanoseconds summed over the trees.
    pub wall_ns: u64,
    /// Morsel busy nanoseconds and wall nanoseconds of the spans that ran
    /// morsels.
    pub busy_ns: u64,
    /// See `busy_ns`.
    pub parallel_wall_ns: u64,
    /// Fused aggregate pipelines (`fused` spans).
    pub fused_pipelines: u64,
    /// Fused pipelines that fell back to the materializing operators.
    pub fused_fallbacks: u64,
    /// Morsels the scans produced (base of the pruned-morsel ratio).
    pub scanned_morsels: u64,
}

impl OpBreakdown {
    /// Folds one query's span tree in. `morsel_rows` is the engine's morsel
    /// size, used to count the morsels each scan produced.
    pub fn add(&mut self, root: &Span, morsel_rows: usize) {
        for (op, parent, ns) in self_times(root) {
            let cat = category(&op, &parent);
            let i = OP_CATEGORIES.iter().position(|c| *c == cat).expect("known category");
            self.self_ns[i] += ns;
        }
        self.wall_ns += root.wall_ns;
        let (busy, wall) = parallel_busy(root);
        self.busy_ns += busy;
        self.parallel_wall_ns += wall;
        let mut stack = vec![root];
        while let Some(s) = stack.pop() {
            match s.op.as_str() {
                "fused" => {
                    self.fused_pipelines += 1;
                    if s.children.iter().any(|c| c.op == "fallback") {
                        self.fused_fallbacks += 1;
                    }
                }
                "scan" => {
                    self.scanned_morsels += s.rows_out.div_ceil(morsel_rows.max(1) as u64);
                }
                _ => {}
            }
            stack.extend(s.children.iter());
        }
    }

    /// Self time of one category in milliseconds.
    pub fn self_ms(&self, category: &str) -> f64 {
        let i = OP_CATEGORIES.iter().position(|c| *c == category).expect("known category");
        self.self_ns[i] as f64 / 1e6
    }

    /// Records per-operator self times, parallel busy share and fused
    /// pipeline counts; `threads` is the engine's worker count.
    pub fn record(&self, m: &mut Metrics, threads: usize) {
        for (name, cat) in [
            ("exec.scan_self_ms", "scan"),
            ("exec.filter_self_ms", "filter"),
            ("exec.eval_self_ms", "eval"),
            ("exec.join_self_ms", "join"),
            ("exec.join_build_self_ms", "join_build"),
            ("exec.join_probe_self_ms", "join_probe"),
            ("exec.aggregate_self_ms", "aggregate"),
            ("exec.sort_self_ms", "sort"),
            ("exec.other_self_ms", "other"),
            ("fused.self_ms", "fused"),
        ] {
            m.set(name, self.self_ms(cat));
        }
        let pool = threads as f64 * self.parallel_wall_ns as f64;
        m.set("exec.parallel_busy_ratio", Ratio::new(self.busy_ns as f64, pool).or_zero());
        m.set("fused.pipelines", self.fused_pipelines as f64);
        m.set("fused.fallbacks", self.fused_fallbacks as f64);
        let fused = (self.fused_pipelines - self.fused_fallbacks) as f64;
        m.set("fused.fused_ratio", Ratio::new(fused, self.fused_pipelines as f64).or_zero());
    }

    /// The breakdown as a JSON object for the run report.
    pub fn to_json(&self) -> String {
        let cats = array(OP_CATEGORIES.iter().enumerate().map(|(i, c)| {
            Obj::default().str("op", c).num("self_ms", self.self_ns[i] as f64 / 1e6).finish()
        }));
        Obj::default()
            .raw("self", cats)
            .num("wall_ms", self.wall_ns as f64 / 1e6)
            .num("morsel_busy_ms", self.busy_ns as f64 / 1e6)
            .num("parallel_wall_ms", self.parallel_wall_ns as f64 / 1e6)
            .raw("fused_pipelines", self.fused_pipelines.to_string())
            .raw("fused_fallbacks", self.fused_fallbacks.to_string())
            .raw("scanned_morsels", self.scanned_morsels.to_string())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: &str, wall_ns: u64, rows_out: u64, children: Vec<Span>) -> Span {
        let mut s = Span::leaf(op, "");
        s.wall_ns = wall_ns;
        s.rows_out = rows_out;
        s.children = children;
        s
    }

    #[test]
    fn breakdown_attributes_stages_to_their_operator() {
        let fused = span(
            "fused",
            100,
            1,
            vec![
                span("scan", 1, 150_000, vec![]),
                span("predicates", 0, 0, vec![]),
                span("partials", 60, 0, vec![]),
                span("fallback", 0, 0, vec![]),
            ],
        );
        let root = span("query", 120, 1, vec![span("sort", 110, 1, vec![fused])]);
        let mut b = OpBreakdown::default();
        b.add(&root, 65_536);
        assert_eq!(b.self_ns.iter().sum::<i64>(), 120);
        assert_eq!(b.self_ms("fused"), 99e-6);
        assert_eq!(b.self_ms("scan"), 1e-6);
        assert_eq!(b.self_ms("sort"), 10e-6);
        assert_eq!(b.self_ms("other"), 10e-6);
        assert_eq!((b.fused_pipelines, b.fused_fallbacks), (1, 1));
        assert_eq!(b.scanned_morsels, 3);
    }

    #[test]
    fn recorder_keeps_parents_and_requests() {
        let r = Recorder::default();
        let child = r.span("request", 7, None, |root| {
            r.span("sql.parse", 7, Some(root), |_| ());
            root
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "sql.parse");
        assert_eq!(spans[0].parent, Some(child));
        assert!(spans.iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert_eq!(r.durations_us("sql.parse").len(), 1);
        assert_eq!(r.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn engine_trees_self_times_sum_to_root_wall() {
        use wimpi_engine::{EngineConfig, Executor, QueryContext};
        let cat = wimpi_tpch::Generator::new(0.01).generate_catalog().unwrap();
        let cfg = EngineConfig::with_threads(2).with_morsel_rows(4096);
        for cfg in [cfg, cfg.with_executor(Executor::Fused).with_prune_scans(true)] {
            for n in [1, 3, 13, 15, 21] {
                let q = wimpi_queries::query(n);
                let (_, _, root) =
                    wimpi_queries::run_traced_governed(&q, &cat, &cfg, &QueryContext::default())
                        .unwrap();
                let total: i64 = crate::stats::self_times(&root).iter().map(|s| s.2).sum();
                assert_eq!(total, root.wall_ns as i64, "Q{n}");
                let mut b = OpBreakdown::default();
                b.add(&root, cfg.morsel_rows);
                assert_eq!(b.self_ns.iter().sum::<i64>(), root.wall_ns as i64, "Q{n}");
                assert!(b.scanned_morsels > 0, "Q{n}");
            }
        }
    }
}
