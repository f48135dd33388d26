//! Behaviour fingerprint: all 22 TPC-H queries on both executors at SF 0.01,
//! serial, pinned against a checked-in golden file.
//!
//! Each line records a layout-independent answer digest (CRC32C over the
//! row count and, per column, its name and values — numeric columns as
//! their stored bytes, strings decoded) and every `WorkProfile` counter. A
//! host-side optimisation must leave this file byte-identical; because some
//! charges scale with dictionary cardinality, a change in how gathered
//! string columns lay out their dictionaries shows up here too.
//!
//! Regenerate deliberately with
//! `WIMPI_BLESS=1 cargo test --release --test behaviour_fingerprint`
//! and say in the change why the behaviour moved.

use std::fmt::Write as _;

use wimpi::engine::{EngineConfig, Executor, Relation, WorkProfile};
use wimpi::queries::{query, run_with};
use wimpi::storage::checksum::Crc32c;
use wimpi::storage::integrity::chunk_checksum;
use wimpi::storage::Column;
use wimpi::tpch::Generator;

const SF: f64 = 0.01;
const GOLDEN: &str = "tests/golden/behaviour_fingerprint.txt";

/// CRC32C of an answer that does not depend on dictionary layout.
fn answer_crc(rel: &Relation) -> u32 {
    let mut h = Crc32c::new();
    h.update_u64(rel.num_rows() as u64);
    for (name, col) in rel.fields() {
        h.update_u64(name.len() as u64);
        h.update(name.as_bytes());
        match col.as_ref() {
            Column::Str(d) => {
                for s in d.iter() {
                    h.update_u64(s.len() as u64);
                    h.update(s.as_bytes());
                }
            }
            other => h.update_u32(chunk_checksum(other, 0..other.len())),
        }
    }
    h.finish()
}

/// Every counter, by name. Destructured without `..` so a new counter
/// fails to compile here until the fingerprint records it.
fn profile_line(p: &WorkProfile) -> String {
    let WorkProfile {
        cpu_ops,
        seq_read_bytes,
        seq_write_bytes,
        rand_accesses,
        hash_bytes,
        rows_in,
        rows_out,
        network_bytes,
        pruned_morsels,
        pruned_bytes,
        peak_bytes,
        spilled_bytes,
        spill_read_retries,
        spill_corruptions_detected,
    } = *p;
    format!(
        "cpu_ops={cpu_ops} seq_read_bytes={seq_read_bytes} seq_write_bytes={seq_write_bytes} \
         rand_accesses={rand_accesses} hash_bytes={hash_bytes} rows_in={rows_in} \
         rows_out={rows_out} network_bytes={network_bytes} pruned_morsels={pruned_morsels} \
         pruned_bytes={pruned_bytes} peak_bytes={peak_bytes} spilled_bytes={spilled_bytes} \
         spill_read_retries={spill_read_retries} \
         spill_corruptions_detected={spill_corruptions_detected}"
    )
}

fn fingerprint() -> String {
    let cat = Generator::new(SF).generate_catalog().expect("generation succeeds");
    let mut out = String::new();
    for qn in 1..=22 {
        let q = query(qn);
        for executor in [Executor::Materialize, Executor::Fused] {
            let cfg = EngineConfig::serial().with_executor(executor);
            let (rel, prof) = run_with(&q, &cat, &cfg).expect("query runs");
            writeln!(
                out,
                "q{qn:02} {} rows={} crc={:08x} {}",
                executor.label(),
                rel.num_rows(),
                answer_crc(&rel),
                profile_line(&prof)
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn behaviour_matches_golden_fingerprint() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let got = fingerprint();
    if std::env::var_os("WIMPI_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden fingerprint is checked in");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "behaviour fingerprint diverged");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "fingerprint line count changed");
}
