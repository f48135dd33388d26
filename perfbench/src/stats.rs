//! Statistics helpers: percentiles with their support, medians and
//! quartiles, geometric means, ratios that carry their base, and span self
//! time.

use wimpi_obs::Span;

/// Samples that must lie beyond a percentile before it counts as supported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between closest ranks (the "type 7" estimator). `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// The median, or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// First quartile, median and third quartile, or `None` when empty.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    Some([quantile(samples, 0.25)?, quantile(samples, 0.5)?, quantile(samples, 0.75)?])
}

/// Samples lying strictly beyond the `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    (n as f64 * (1.0 - q.clamp(0.0, 1.0)) + 1e-9).floor() as usize
}

/// The highest percentile (as a fraction) with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when `n` is too small to support any.
pub fn highest_supported(n: usize) -> Option<f64> {
    (n > MIN_BEYOND).then(|| 1.0 - MIN_BEYOND as f64 / n as f64)
}

/// One reported percentile: the fraction asked for, its value, the sample
/// count it came from, and whether enough samples lie beyond it to use it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile asked for, as a fraction.
    pub q: f64,
    /// Its value (0 for an empty sample).
    pub value: f64,
    /// Samples it was computed over.
    pub n: usize,
    /// At least [`MIN_BEYOND`] samples lie beyond it.
    pub supported: bool,
}

impl Percentile {
    /// The `q`-quantile of `samples` with its support.
    pub fn of(samples: &[f64], q: f64) -> Self {
        Percentile {
            q,
            value: quantile(samples, q).unwrap_or(0.0),
            n: samples.len(),
            supported: samples_beyond(samples.len(), q) >= MIN_BEYOND,
        }
    }
}

/// Arithmetic mean, or `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// A ratio that keeps its base. A zero base has no value; it reports 0 and
/// says so through [`Ratio::value`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Base (denominator).
    pub base: f64,
}

impl Ratio {
    /// `num / base`.
    pub fn new(num: f64, base: f64) -> Self {
        Ratio { num, base }
    }

    /// The ratio, or `None` for a zero base.
    pub fn value(&self) -> Option<f64> {
        (self.base != 0.0).then(|| self.num / self.base)
    }

    /// The ratio, with 0 standing in for a zero base.
    pub fn or_zero(&self) -> f64 {
        self.value().unwrap_or(0.0)
    }
}

/// Span kinds whose wall time is a worker's, overlapping its siblings':
/// they are parallel busy time, not nested intervals of their parent.
pub const PARALLEL_SPANS: [&str; 1] = ["morsel"];

/// Self time of every span in a tree, as `(op, parent op, self ns)` in
/// depth-first order. A span's self time is its wall time minus the wall
/// time of its nested children, so the self times of one tree sum exactly
/// to the root's `wall_ns`. Parallel morsel spans are left out of both
/// sides (see [`parallel_busy`]). Self time is signed: timer granularity
/// can make children read a little longer than their parent.
pub fn self_times(root: &Span) -> Vec<(String, String, i64)> {
    let mut out = Vec::new();
    collect_self(root, "", &mut out);
    out
}

fn collect_self(span: &Span, parent: &str, out: &mut Vec<(String, String, i64)>) {
    let nested: Vec<&Span> =
        span.children.iter().filter(|c| !PARALLEL_SPANS.contains(&c.op.as_str())).collect();
    let kids: i64 = nested.iter().map(|c| c.wall_ns as i64).sum();
    out.push((span.op.clone(), parent.to_string(), span.wall_ns as i64 - kids));
    for c in nested {
        collect_self(c, &span.op, out);
    }
}

/// Parallel busy time of a tree: `(summed morsel wall ns, summed wall ns of
/// the spans that ran morsels)`. Busy time over `threads ×` the second is
/// the share of the worker pool that was busy while an operator ran in
/// parallel.
pub fn parallel_busy(root: &Span) -> (u64, u64) {
    let mut busy = 0;
    let mut wall = 0;
    let mut stack = vec![root];
    while let Some(s) = stack.pop() {
        let morsels: u64 = s
            .children
            .iter()
            .filter(|c| PARALLEL_SPANS.contains(&c.op.as_str()))
            .map(|c| c.wall_ns)
            .sum();
        if morsels > 0 {
            busy += morsels;
            wall += s.wall_ns;
        }
        stack.extend(s.children.iter());
    }
    (busy, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: &str, wall_ns: u64, children: Vec<Span>) -> Span {
        let mut s = Span::leaf(op, "");
        s.wall_ns = wall_ns;
        s.children = children;
        s
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&s, 1.0 / 3.0), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some([2.0, 3.0, 4.0]));
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(!Percentile::of(&hundred, 0.95).supported);
        assert!(Percentile::of(&hundred, 0.90).supported);
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = Percentile::of(&thousand, 0.99);
        assert!(p99.supported);
        assert_eq!(p99.n, 1000);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(
            Percentile::of(&[], 0.5),
            Percentile { q: 0.5, value: 0.0, n: 0, supported: false }
        );
    }

    #[test]
    fn highest_supported_percentile_leaves_ten_beyond() {
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(1000), Some(0.99));
        let q = highest_supported(250).unwrap();
        assert_eq!(samples_beyond(250, q), MIN_BEYOND);
        assert!(samples_beyond(250, q + 0.001) < MIN_BEYOND);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn geomean_of_positive_values() {
        assert!((geomean(&[1.0, 4.0, 16.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn ratio_reports_base_and_handles_zero() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), Some(0.75));
        assert_eq!(r.base, 4.0);
        let z = Ratio::new(0.0, 0.0);
        assert_eq!(z.value(), None);
        assert_eq!(z.or_zero(), 0.0);
    }

    #[test]
    fn self_times_sum_to_root_wall() {
        let morsels = vec![span("morsel", 70, vec![]), span("morsel", 65, vec![])];
        let probe = span("probe", 30, vec![]);
        let build = span("build", 20, vec![]);
        let scan = span("scan", 5, vec![]);
        let join = span("join", 80, vec![scan, build, probe]);
        let agg = span("aggregate", 90, morsels);
        let root = span("query", 200, vec![join, agg]);
        let selfs = self_times(&root);
        let total: i64 = selfs.iter().map(|(_, _, ns)| ns).sum();
        assert_eq!(total, root.wall_ns as i64);
        let join_self = selfs.iter().find(|(op, _, _)| op == "join").unwrap().2;
        assert_eq!(join_self, 80 - 5 - 20 - 30);
        // Morsels are parallel busy time, not nested children.
        let agg_self = selfs.iter().find(|(op, _, _)| op == "aggregate").unwrap().2;
        assert_eq!(agg_self, 90);
        assert!(selfs.iter().all(|(op, _, _)| op != "morsel"));
        assert_eq!(selfs.iter().find(|(op, _, _)| op == "probe").unwrap().1, "join");
        assert_eq!(parallel_busy(&root), (135, 90));
    }

    #[test]
    fn self_time_is_signed_when_children_overrun() {
        let root = span("query", 10, vec![span("sort", 12, vec![])]);
        let selfs = self_times(&root);
        assert_eq!(selfs[0].2, -2);
        assert_eq!(selfs.iter().map(|s| s.2).sum::<i64>(), 10);
    }
}
