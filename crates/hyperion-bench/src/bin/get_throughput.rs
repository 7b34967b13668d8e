//! `get_throughput` — read-path microbenchmark and CI smoke check.
//!
//! Measures Hyperion read throughput on the workloads of Tables 1–2 (random
//! u64 integer keys, n-gram string keys), comparing three read paths:
//!
//! * **point gets** — one `HyperionMap::get` per key, shuffled probe order,
//!   with a 1-in-8 mix of missing keys (the realistic serving shape);
//! * **`get_many`** — the same probes in sorted-resume batches: the read
//!   engine descends once per shared prefix and resumes its container scans
//!   across consecutive keys (mirroring `put_many`);
//! * **`multi_get`** — the same batches through a sharded `HyperionDb`, one
//!   lock acquisition *and* one resume-scan group per shard per batch.
//!
//! With `--smoke` the run shrinks and every result is checked against a
//! `BTreeMap` oracle (hits, misses, duplicate probes, order faithfulness),
//! wiring the read engine into CI next to `put_throughput --smoke`.
//!
//! ```bash
//! cargo run --release -p hyperion-bench --bin get_throughput            # full
//! cargo run --release -p hyperion-bench --bin get_throughput -- --smoke # CI
//! ```

use hyperion_bench::hist::Hist;
use hyperion_bench::json::{arg_json_path, merge_into_file};
use hyperion_bench::{mops, timed_best_of};
use hyperion_core::db::{FibonacciPartitioner, HyperionDb};
use hyperion_core::{HyperionConfig, HyperionMap};
use hyperion_workloads::{random_integer_keys, Mt19937_64, NgramCorpus, NgramCorpusConfig};
use std::collections::BTreeMap;

/// Keys per `get_many` / `multi_get` batch (small = per-request serving
/// shape, large = offline/bulk shape where descent sharing and the
/// prefetched frontier pay off most).
const BATCHES: &[usize] = &[256, 4096];
/// Shards of the `HyperionDb` used for the `multi_get` rows.
const DB_SHARDS: usize = 8;

fn timed<T>(f: impl FnMut() -> T) -> (T, f64) {
    timed_best_of(3, f)
}

/// Shuffled probe set over `keys` with a 1-in-8 mix of missing keys.
/// Returns the probes and the number of expected hits.
fn probes(keys: &[Vec<u8>], seed: u64) -> (Vec<Vec<u8>>, usize) {
    let mut rng = Mt19937_64::new(seed);
    let mut out: Vec<Vec<u8>> = Vec::with_capacity(keys.len());
    let mut hits = 0usize;
    for key in keys {
        if rng.next_u64() % 8 == 0 {
            // A probe that can never hit: longer than any stored key of this
            // workload shape.
            let mut miss = key.clone();
            miss.extend_from_slice(b"\xffmiss");
            out.push(miss);
        } else {
            out.push(key.clone());
            hits += 1;
        }
    }
    // Fisher–Yates shuffle so point probes do not arrive in insertion order.
    for i in (1..out.len()).rev() {
        let j = (rng.next_u64() as usize) % (i + 1);
        out.swap(i, j);
    }
    // Recount hits after the miss substitution (duplicate source keys keep
    // the count correct: substitution decided per probe).
    (out, hits)
}

struct Workbench {
    label: &'static str,
    map: HyperionMap,
    db: Option<HyperionDb>,
    probes: Vec<Vec<u8>>,
    expected_hits: usize,
    oracle: BTreeMap<Vec<u8>, u64>,
}

impl Workbench {
    fn build(
        label: &'static str,
        config: HyperionConfig,
        keys: Vec<Vec<u8>>,
        values: Vec<u64>,
        seed: u64,
        with_db: bool,
    ) -> Workbench {
        let mut map = HyperionMap::with_config(config);
        map.put_many(
            keys.iter()
                .map(|k| k.as_slice())
                .zip(values.iter().copied()),
        );
        let db = with_db.then(|| {
            let db = HyperionDb::builder()
                .shards(DB_SHARDS)
                .config(config)
                .partitioner(FibonacciPartitioner)
                .build();
            for (k, v) in keys.iter().zip(values.iter()) {
                db.put(k, *v).expect("db put");
            }
            db
        });
        let mut oracle = BTreeMap::new();
        for (k, v) in keys.iter().zip(values.iter()) {
            oracle.insert(k.clone(), *v);
        }
        let (probes, expected_hits) = probes(&keys, seed);
        Workbench {
            label,
            map,
            db,
            probes,
            expected_hits,
            oracle,
        }
    }

    fn run(&self, check: bool, metrics: &mut Vec<(String, f64)>) {
        let n = self.probes.len();
        let refs: Vec<&[u8]> = self.probes.iter().map(|k| k.as_slice()).collect();

        // Point gets.
        let (hits, secs) = timed(|| {
            let mut hits = 0usize;
            for key in &refs {
                if self.map.get(key).is_some() {
                    hits += 1;
                }
            }
            hits
        });
        assert_eq!(hits, self.expected_hits, "{}: point get hits", self.label);
        println!(
            "{}/point_get      {n:>8} keys  {:>8.3} Mops",
            self.label,
            mops(n, secs)
        );
        metrics.push((format!("get/{}_point_mops", self.label), mops(n, secs)));

        // Per-operation latency distribution of the same point gets: the
        // throughput row averages the whole loop, the histogram shows the
        // tail (`bench_gate` treats the `_us` metrics as lower-is-better).
        let mut hist = Hist::new();
        let mut hits = 0usize;
        for key in &refs {
            let start = std::time::Instant::now();
            if self.map.get(key).is_some() {
                hits += 1;
            }
            hist.record(start.elapsed().as_nanos() as u64);
        }
        assert_eq!(
            hits, self.expected_hits,
            "{}: latency pass hits",
            self.label
        );
        println!("{}/point_get latency: {}", self.label, hist.summary_us());
        metrics.extend(hist.percentile_metrics(&format!("get/{}_point", self.label)));

        for &batch in BATCHES {
            // Batched gets through the map's sorted-resume engine.
            let (results, secs) = timed(|| {
                let mut results: Vec<Option<u64>> = Vec::with_capacity(n);
                for chunk in refs.chunks(batch) {
                    results.extend(self.map.get_many(chunk));
                }
                results
            });
            let hits = results.iter().flatten().count();
            assert_eq!(hits, self.expected_hits, "{}: get_many hits", self.label);
            println!(
                "{}/get_many({batch:>4})  {n:>8} keys  {:>8.3} Mops",
                self.label,
                mops(n, secs)
            );
            metrics.push((
                format!("get/{}_get_many_{batch}_mops", self.label),
                mops(n, secs),
            ));
            if check {
                self.check_results(&results, "get_many");
            }

            // Batched gets through the sharded front end.
            let Some(db) = &self.db else { continue };
            let (results, secs) = timed(|| {
                let mut results: Vec<Option<u64>> = Vec::with_capacity(n);
                for chunk in refs.chunks(batch) {
                    results.extend(db.multi_get(chunk).expect("multi_get"));
                }
                results
            });
            let hits = results.iter().flatten().count();
            assert_eq!(hits, self.expected_hits, "{}: multi_get hits", self.label);
            println!(
                "{}/multi_get({batch:>4}) {n:>8} keys  {:>8.3} Mops  ({DB_SHARDS} shards)",
                self.label,
                mops(n, secs)
            );
            metrics.push((
                format!("get/{}_multi_get_{batch}_mops", self.label),
                mops(n, secs),
            ));
            if check {
                self.check_results(&results, "multi_get");
            }
        }
    }

    /// Reduced row set for A/B variants (the `_noshortcut` pair rows): point
    /// gets and batched map gets only — no latency histogram and no sharded
    /// rows, so the comparison isolates the map-level read engine where the
    /// shortcut acts.
    fn run_lite(&self, check: bool, metrics: &mut Vec<(String, f64)>) {
        let n = self.probes.len();
        let refs: Vec<&[u8]> = self.probes.iter().map(|k| k.as_slice()).collect();

        let (hits, secs) = timed(|| {
            let mut hits = 0usize;
            for key in &refs {
                if self.map.get(key).is_some() {
                    hits += 1;
                }
            }
            hits
        });
        assert_eq!(hits, self.expected_hits, "{}: point get hits", self.label);
        println!(
            "{}/point_get      {n:>8} keys  {:>8.3} Mops",
            self.label,
            mops(n, secs)
        );
        metrics.push((format!("get/{}_point_mops", self.label), mops(n, secs)));

        for &batch in BATCHES {
            let (results, secs) = timed(|| {
                let mut results: Vec<Option<u64>> = Vec::with_capacity(n);
                for chunk in refs.chunks(batch) {
                    results.extend(self.map.get_many(chunk));
                }
                results
            });
            let hits = results.iter().flatten().count();
            assert_eq!(hits, self.expected_hits, "{}: get_many hits", self.label);
            println!(
                "{}/get_many({batch:>4})  {n:>8} keys  {:>8.3} Mops",
                self.label,
                mops(n, secs)
            );
            metrics.push((
                format!("get/{}_get_many_{batch}_mops", self.label),
                mops(n, secs),
            ));
            if check {
                self.check_results(&results, "get_many");
            }
        }
    }

    /// Concurrent point gets through the sharded `HyperionDb`: `threads`
    /// reader threads each own a disjoint slice of the probe set and hammer
    /// `HyperionDb::get` — the optimistic seqlock read path — in parallel.
    /// With no writers the shard versions never move, so every get should
    /// complete lock-free and the sweep measures pure reader scaling.
    ///
    /// `writers` background threads (0 = quiescent sweep) insert and delete
    /// churn keys under their own prefix for the duration of the run,
    /// keeping the shard seqlocks moving: that is what turns the retry and
    /// fallback counters from a liveness claim into a measured rate.
    fn run_threaded(&self, threads: usize, writers: usize, metrics: &mut Vec<(String, f64)>) {
        use std::sync::atomic::{AtomicBool, Ordering};

        let Some(db) = &self.db else { return };
        let n = self.probes.len();
        let chunk = n.div_ceil(threads.max(1));
        let before = db.stats().optimistic;
        let stop = AtomicBool::new(false);
        let (hits, secs) = std::thread::scope(|scope| {
            for w in 0..writers {
                let stop = &stop;
                scope.spawn(move || {
                    let mut rng = Mt19937_64::new(0x3117 + w as u64);
                    while !stop.load(Ordering::Relaxed) {
                        let r = rng.next_u64();
                        let mut key = Vec::with_capacity(11);
                        key.extend_from_slice(b"\xffw:");
                        key.extend_from_slice(&r.to_be_bytes());
                        db.put(&key, r).expect("writer put");
                        if r % 2 == 0 {
                            db.delete(&key).expect("writer delete");
                        }
                    }
                });
            }
            let timed_run = timed(|| {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = self
                        .probes
                        .chunks(chunk)
                        .map(|slice| {
                            scope.spawn(move || {
                                let mut hits = 0usize;
                                for key in slice {
                                    if db.get(key).expect("db get").is_some() {
                                        hits += 1;
                                    }
                                }
                                hits
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("reader thread"))
                        .sum::<usize>()
                })
            });
            stop.store(true, Ordering::Relaxed);
            timed_run
        });
        assert_eq!(
            hits, self.expected_hits,
            "{}: threaded point get hits",
            self.label
        );
        let d = db.stats().optimistic;
        let (hits_d, retries_d, fallbacks_d) = (
            d.hits - before.hits,
            d.retries - before.retries,
            d.fallbacks - before.fallbacks,
        );
        let lock_free = 100.0 * hits_d as f64 / (hits_d + fallbacks_d).max(1) as f64;
        println!(
            "{}/point_get(t{threads}w{writers}) {n:>8} keys  {:>8.3} Mops  \
             ({DB_SHARDS} shards, {lock_free:.2}% lock-free, {retries_d} retries, \
             {fallbacks_d} fallbacks)",
            self.label,
            mops(n, secs)
        );
        let key = if writers == 0 {
            format!("get/{}_point_t{threads}_mops", self.label)
        } else {
            format!("get/{}_point_t{threads}w{writers}_mops", self.label)
        };
        metrics.push((key, mops(n, secs)));
    }

    /// Prints the optimistic-read counters the threaded sweep accumulated on
    /// the sharded front end (lock-free hits vs seqlock retries vs mutex
    /// fallbacks).
    fn report_optimistic(&self) {
        let Some(db) = &self.db else { return };
        let s = db.stats().optimistic;
        println!(
            "{}/optimistic     hits {:>10}  retries {:>6}  fallbacks {:>6}  ({:>5.1}% lock-free)",
            self.label,
            s.hits,
            s.retries,
            s.fallbacks,
            100.0 * s.lock_free_rate(),
        );
    }

    /// Prints the map-level shortcut counters accumulated across the timed
    /// passes (hit rate of the read path, table occupancy, bytes/key).
    fn report_shortcut(&self) {
        let s = self.map.shortcut_stats();
        let probes = s.hits + s.misses;
        let keys = self.oracle.len().max(1);
        println!(
            "{}/shortcut       hits {:>10}  misses {:>10}  ({:>5.1}% of {} probes)  \
             entries {}  slots {}  invalidations {}  ({:.2} B/key)",
            self.label,
            s.hits,
            s.misses,
            100.0 * s.hit_rate(),
            probes,
            s.entries,
            s.slots,
            s.invalidations,
            (s.slots * 16) as f64 / keys as f64,
        );
    }

    /// Order faithfulness: `results[i]` must be the oracle's answer for
    /// `probes[i]`, including duplicates and misses.
    fn check_results(&self, results: &[Option<u64>], path: &str) {
        assert_eq!(results.len(), self.probes.len(), "{path}: result length");
        for (key, got) in self.probes.iter().zip(results) {
            assert_eq!(
                *got,
                self.oracle.get(key).copied(),
                "{}: {path} mismatch for {:?}",
                self.label,
                String::from_utf8_lossy(key)
            );
        }
    }
}

/// Reader-thread counts for the concurrent point-get sweep. `--threads N`
/// (or a comma list, `--threads 1,2,4,8`) overrides the default sweep.
fn arg_threads() -> Vec<usize> {
    arg_counts("--threads").unwrap_or_else(|| vec![1, 2, 4, 8])
}

/// Background writer threads churning the db during the threaded sweep
/// (`--writers W`); defaults to a quiescent, purely read-side sweep.
fn arg_writers() -> usize {
    arg_counts("--writers")
        .and_then(|v| v.first().copied())
        .unwrap_or(0)
}

fn arg_counts(flag: &str) -> Option<Vec<usize>> {
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        if arg == flag {
            if let Some(v) = args.get(i + 1) {
                let parsed: Vec<usize> =
                    v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
                if !parsed.is_empty() {
                    return Some(parsed);
                }
            }
        }
    }
    None
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json_path = arg_json_path();
    let threads = arg_threads();
    let writers = arg_writers();
    let n = if smoke { 20_000 } else { 500_000 };
    println!(
        "get_throughput (n = {n}{})",
        if smoke { ", smoke" } else { "" }
    );
    let mut metrics: Vec<(String, f64)> = Vec::new();

    let workload = random_integer_keys(n, 0xbe7c);
    let bench = Workbench::build(
        "int_random",
        HyperionConfig::for_integers(),
        workload.keys.clone(),
        workload.values.clone(),
        0x9e7,
        true,
    );
    bench.run(smoke, &mut metrics);
    for &t in &threads {
        bench.run_threaded(t, writers, &mut metrics);
    }
    bench.report_optimistic();
    bench.report_shortcut();
    // A/B pair: the same workload with the shortcut disabled, so the JSON
    // carries shortcut-on/off metric pairs and `bench_gate` guards both.
    Workbench::build(
        "int_random_noshortcut",
        HyperionConfig {
            shortcut_capacity: 0,
            ..HyperionConfig::for_integers()
        },
        workload.keys,
        workload.values,
        0x9e7,
        false,
    )
    .run_lite(smoke, &mut metrics);

    let corpus = NgramCorpus::generate(&NgramCorpusConfig {
        entries: if smoke { n } else { 200_000 },
        ..Default::default()
    });
    let workload = corpus.workload.shuffled(0xc0ffee);
    let bench = Workbench::build(
        "str_ngram",
        HyperionConfig::for_strings(),
        workload.keys.clone(),
        workload.values.clone(),
        0x5712,
        true,
    );
    bench.run(smoke, &mut metrics);
    for &t in &threads {
        bench.run_threaded(t, writers, &mut metrics);
    }
    bench.report_optimistic();
    bench.report_shortcut();
    Workbench::build(
        "str_ngram_noshortcut",
        HyperionConfig {
            shortcut_capacity: 0,
            ..HyperionConfig::for_strings()
        },
        workload.keys,
        workload.values,
        0x5712,
        false,
    )
    .run_lite(smoke, &mut metrics);

    if let Some(path) = json_path {
        merge_into_file(&path, &metrics).expect("writing metric file");
        println!("metrics merged into {}", path.display());
    }
    println!("ok");
}
