//! What one run measured, and the names and units the benchmark reports.

use crate::gen::{Kind, PhaseResult};
use crate::procfs;
use crate::span::Span;
use crate::stat::{ratio, Lat};
use hyperion_core::HyperionDb;
use std::collections::BTreeMap;

/// The end-to-end metrics of the result line, in report order, with their
/// units.  Every workload reports every one of them.
pub const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("bytes_per_key", "B"),
    ("rss_mb", "MiB"),
];

/// End-to-end metrics printed with every run but left out of the result
/// line: on a machine shared with other tenants their run-to-run spread is
/// wider than any bound that could gate them (see README.md).
pub const UNGATED: [(&str, &str); 3] = [
    ("throughput_kops", "kops"),
    ("read_p99_us", "us"),
    ("write_tail_us", "us"),
];

/// The per-layer metrics of a traced run, with their units.
pub const LAYERS: [(&str, &str); 35] = [
    ("gen.lag_p99_us", "us"),
    ("protocol.encode_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("protocol.bytes_per_op", "B"),
    ("server.io_cpu_us_per_op", "us"),
    ("server.worker_cpu_us_per_op", "us"),
    ("server.accept_cpu_us_per_op", "us"),
    ("server.read_group_avg", "keys"),
    ("server.write_group_avg", "keys"),
    ("server.shed_frac", "ratio"),
    ("server.residual_us", "us"),
    ("db.get_ns", "ns"),
    ("db.multi_get_ns_per_key", "ns"),
    ("db.put_ns", "ns"),
    ("db.scan_ns", "ns"),
    ("db.scan_buffered_per_returned", "ratio"),
    ("db.route_ns", "ns"),
    ("db.shard_skew", "ratio"),
    ("seqlock.lock_free_frac", "ratio"),
    ("seqlock.retries_per_kread", "count"),
    ("seqlock.fallbacks_per_kread", "count"),
    ("trie.get_ns", "ns"),
    ("trie.put_ns", "ns"),
    ("trie.seek_ns", "ns"),
    ("trie.next_ns", "ns"),
    ("write.splits_per_kput", "count"),
    ("write.ejections_per_kput", "count"),
    ("write.cjt_rebuilds_per_kput", "count"),
    ("shortcut.hit_rate", "ratio"),
    ("shortcut.invalidations_per_kput", "count"),
    ("mem.allocs_per_kput", "count"),
    ("mem.capacity_over_requested", "ratio"),
    ("mem.rss_over_footprint", "ratio"),
    ("trace.overhead_read_p50", "ratio"),
    ("trace.overhead_throughput", "ratio"),
];

/// Named values; setting an unknown name is a bug in the benchmark.
#[derive(Default, Clone, Debug)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[derive(Default)]
pub struct RunOut {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: Layers,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures: any entry fails the run.
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
    pub kernel: &'static str,
}

impl RunOut {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            E2E.iter().chain(&UNGATED).any(|(n, _)| *n == name),
            "unknown end-to-end metric {name}"
        );
        self.e2e.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(why());
        }
    }

    pub fn check_structure(&mut self, db: &HyperionDb) {
        if let Err(e) = db.validate_structure() {
            self.errors.push(format!("validate_structure: {e}"));
        }
    }

    pub fn absorb_mismatches(&mut self, phase: &str, result: &PhaseResult) {
        if result.mismatches > 0 {
            self.errors.push(format!(
                "{phase}: {} responses differ from the oracle; first: {}",
                result.mismatches,
                result.first_mismatch.as_deref().unwrap_or("?")
            ));
        } else if let Some(why) = &result.first_mismatch {
            self.errors.push(format!("{phase}: {why}"));
        }
    }

    /// The latency metrics of the sub-phases the workload's latencies come
    /// from: the quantiles of every measured request of every sub-phase
    /// together.  Computed from the same ten `ycsb_e_net` runs, this spread
    /// 0.066 (scans) and 0.041 (inserts) where the median of each
    /// sub-phase's good-side window quartile spread 0.089 and 0.072.  `ops`
    /// is their (read, write) op count.
    pub fn latencies(&mut self, subs: &mut [PhaseResult], write_tail: f64, ops: (u64, u64)) {
        let over_subs = |kind: Kind, q: f64| {
            let mut all = Lat::new();
            for p in subs.iter() {
                let windows = match kind {
                    Kind::Read => &p.read,
                    Kind::Write => &p.write,
                };
                windows.iter().for_each(|w| all.merge(w));
            }
            all.quantile_us(q)
        };
        self.e2e("read_p50_us", over_subs(Kind::Read, 0.5));
        self.e2e("read_p99_us", over_subs(Kind::Read, 0.99));
        self.e2e("write_p50_us", over_subs(Kind::Write, 0.5));
        self.e2e("write_tail_us", over_subs(Kind::Write, write_tail));
        // How far the sub-phases differ, beside the pooled value.
        let per_sub: Vec<String> = subs
            .iter_mut()
            .map(|p| format!("{:.0}", p.quantile_us(Kind::Read, 0.5)))
            .collect();
        self.note(format!(
            "read_p50_us by sub-phase: {} us",
            per_sub.join(" ")
        ));
        let samples = |kind: Kind| subs.iter().map(|p| p.samples(kind)).sum::<u64>();
        self.note(format!(
            "latency samples: {} reads, {} writes (of {} and {} issued) in {} sub-phases; \
             write_tail_us is p{}",
            samples(Kind::Read),
            samples(Kind::Write),
            ops.0,
            ops.1,
            subs.len(),
            write_tail * 100.0
        ));
    }

    /// The memory metrics, taken once the run is over.
    pub fn end_of_run(&mut self, db: &HyperionDb, live_keys: usize) {
        let footprint = db.footprint_bytes() as f64;
        self.e2e("bytes_per_key", ratio(footprint, live_keys as f64));
        self.e2e(
            "rss_mb",
            procfs::vm_bytes("VmHWM") as f64 / (1024.0 * 1024.0),
        );
        self.layers.set(
            "mem.rss_over_footprint",
            ratio(procfs::vm_bytes("VmRSS") as f64, footprint),
        );
        self.note(format!(
            "{live_keys} live keys, footprint {:.1} MiB, failed_frac {}",
            footprint / (1024.0 * 1024.0),
            ratio(self.failed as f64, self.attempted as f64)
        ));
    }
}
