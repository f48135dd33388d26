//! Set-up: the data every workload runs on, built several times per run so
//! `setup_s` is a median, with each phase timed on its own.

use std::time::Instant;

use wimpi_cluster::{ClusterConfig, WimpiCluster};
use wimpi_storage::Catalog;
use wimpi_tpch::{cluster_by, Generator};

use crate::report::{array, Metrics, Obj};
use crate::stats::median;

/// TPC-H scale factor of every workload.
pub const SF: f64 = 0.1;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Nodes of the `serve` cluster.
pub const CLUSTER_NODES: u32 = 4;

/// Physical layout of the single-node catalog: each table is re-ordered on
/// its date column so zone maps can prune.
const CLUSTER_KEYS: [(&str, &str); 2] = [("lineitem", "l_shipdate"), ("orders", "o_orderdate")];

/// Seconds spent in each set-up phase. Phases a workload does not run
/// read 0.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    /// `Generator::generate_catalog`.
    pub generate_s: f64,
    /// `tpch::cluster_by` on lineitem and orders.
    pub cluster_by_s: f64,
    /// `Catalog::seal_zone_maps`.
    pub seal_s: f64,
    /// `WimpiCluster::build` (generation, partitioning and sealing).
    pub build_s: f64,
}

impl Phases {
    /// Whole set-up time.
    pub fn total(&self) -> f64 {
        self.generate_s + self.cluster_by_s + self.seal_s + self.build_s
    }
}

/// The product of the last set-up, with the median timings of all of them.
pub struct Timed<T> {
    /// What the last set-up built.
    pub value: T,
    /// Median whole set-up time.
    pub setup_s: f64,
    /// Median of each phase.
    pub phases: Phases,
    /// Every set-up's whole time.
    pub totals: Vec<f64>,
}

impl<T> Timed<T> {
    /// Records `setup_s` and the phase medians.
    pub fn record(&self, m: &mut Metrics) {
        m.set("setup_s", self.setup_s);
        m.set("tpch.generate_s", self.phases.generate_s);
        m.set("tpch.cluster_by_s", self.phases.cluster_by_s);
        m.set("storage.seal_zone_maps_s", self.phases.seal_s);
        m.set("cluster.build_s", self.phases.build_s);
    }

    /// Set-up timings for the run report.
    pub fn to_json(&self) -> String {
        let p = &self.phases;
        Obj::default()
            .raw("totals_s", array(self.totals.iter().map(|t| t.to_string())))
            .num("generate_s", p.generate_s)
            .num("cluster_by_s", p.cluster_by_s)
            .num("seal_zone_maps_s", p.seal_s)
            .num("cluster_build_s", p.build_s)
            .finish()
    }
}

/// Runs `build` [`SETUP_REPEATS`] times, dropping each product before the
/// next set-up starts, and keeps the last.
pub fn repeat<T>(mut build: impl FnMut() -> (T, Phases)) -> Timed<T> {
    let mut runs = Vec::with_capacity(SETUP_REPEATS);
    let mut value = None;
    for _ in 0..SETUP_REPEATS {
        drop(value.take());
        let (v, phases) = build();
        value = Some(v);
        runs.push(phases);
    }
    let med = |f: fn(&Phases) -> f64| {
        median(&runs.iter().map(f).collect::<Vec<_>>()).expect("at least one set-up")
    };
    let totals: Vec<f64> = runs.iter().map(Phases::total).collect();
    Timed {
        value: value.expect("at least one set-up"),
        setup_s: median(&totals).expect("at least one set-up"),
        phases: Phases {
            generate_s: med(|p| p.generate_s),
            cluster_by_s: med(|p| p.cluster_by_s),
            seal_s: med(|p| p.seal_s),
            build_s: med(|p| p.build_s),
        },
        totals,
    }
}

/// The single-node catalog of `power` and `spill`: generated, clustered on
/// the date columns, zone maps sealed.
pub fn engine_catalog() -> (Catalog, Phases) {
    let t = Instant::now();
    let mut cat = Generator::new(SF).generate_catalog().expect("TPC-H generation succeeds");
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for (name, key) in CLUSTER_KEYS {
        let table = cat.table(name).expect("generated table exists");
        let sorted = cluster_by(table, key).expect("clustering a generated table succeeds");
        cat.register(name, sorted);
    }
    let cluster_by_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    cat.seal_zone_maps();
    let seal_s = t.elapsed().as_secs_f64();
    (cat, Phases { generate_s, cluster_by_s, seal_s, build_s: 0.0 })
}

/// The `serve` cluster: [`CLUSTER_NODES`] simulated nodes holding SF
/// [`SF`].
pub fn cluster() -> (WimpiCluster, Phases) {
    let t = Instant::now();
    let cluster =
        WimpiCluster::build(ClusterConfig::new(CLUSTER_NODES, SF)).expect("cluster build succeeds");
    (cluster, Phases { build_s: t.elapsed().as_secs_f64(), ..Phases::default() })
}
