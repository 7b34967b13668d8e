//! `scan_throughput` — ordered-traversal microbenchmark and CI smoke check.
//!
//! Measures the cursor engine in both directions on random u64 integer keys:
//!
//! * **forward / reverse full scans** over `HyperionMap` (`iter()` vs
//!   `iter().rev()`, i.e. the frame-stack cursor vs the checkpointing
//!   backward cursor);
//! * **forward / reverse merged scans** over a sharded `HyperionDb`
//!   (`DbScan` min-heap vs max-heap hand-over-hand merge);
//! * **`last` / `pred` point queries** against the red-black tree baseline
//!   (the ordered structure the paper's `std::map` rows stand for);
//! * the **RB-tree full scan** as the ordered-baseline scan reference.
//!
//! With `--smoke` the run shrinks to 100 k keys and every traversal is
//! checked against a `BTreeMap` oracle (full order, bounded ranges, reverse
//! prefixes, two-ended iteration).  With `--json <path>` the Mops and B/key
//! metrics merge into the flat metric file next to `put_throughput` /
//! `get_throughput` (see `hyperion_bench::json`).
//!
//! ```bash
//! cargo run --release -p hyperion-bench --bin scan_throughput             # full
//! cargo run --release -p hyperion-bench --bin scan_throughput -- --smoke # CI
//! ```

use hyperion_baselines::RedBlackTree;
use hyperion_bench::json::{arg_json_path, merge_into_file};
use hyperion_bench::{mops, timed_best_of};
use hyperion_core::db::{HyperionDb, RangePartitioner};
use hyperion_core::{HyperionConfig, HyperionMap, OrderedRead};
use hyperion_workloads::{random_integer_keys, Mt19937_64};
use std::collections::BTreeMap;

const DB_SHARDS: usize = 8;

fn timed<T>(f: impl FnMut() -> T) -> (T, f64) {
    timed_best_of(3, f)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json_path = arg_json_path();
    let n = if smoke { 100_000 } else { 500_000 };
    println!(
        "scan_throughput (n = {n}{})",
        if smoke { ", smoke" } else { "" }
    );

    let workload = random_integer_keys(n, 0x5ca9);
    let mut map = HyperionMap::with_config(HyperionConfig::for_integers());
    map.put_many(
        workload
            .keys
            .iter()
            .map(|k| k.as_slice())
            .zip(workload.values.iter().copied()),
    );
    let db = HyperionDb::builder()
        .shards(DB_SHARDS)
        .config(HyperionConfig::for_integers())
        .partitioner(RangePartitioner)
        .build();
    let mut rb = RedBlackTree::new();
    for (k, v) in workload.keys.iter().zip(&workload.values) {
        db.put(k, *v).expect("db put");
        hyperion_core::KvWrite::put(&mut rb, k, *v);
    }
    let oracle: BTreeMap<Vec<u8>, u64> = workload
        .keys
        .iter()
        .cloned()
        .zip(workload.values.iter().copied())
        .collect();
    let n = oracle.len();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let report = |label: &str, keys: usize, secs: f64, metrics: &mut Vec<(String, f64)>| {
        let rate = mops(keys, secs);
        println!("{label:<26} {keys:>8} keys  {rate:>8.3} Mops");
        metrics.push((format!("scan/{label}_mops"), rate));
    };

    // Forward and reverse full scans over the map.
    let (fwd, secs) = timed(|| map.iter().collect::<Vec<_>>());
    assert_eq!(fwd.len(), n);
    report("map_fwd", n, secs, &mut metrics);
    let (rev, secs) = timed(|| map.iter().rev().collect::<Vec<_>>());
    assert_eq!(rev.len(), n);
    report("map_rev", n, secs, &mut metrics);

    // Merged scans over the sharded front end, both directions.
    let (got, secs) = timed(|| db.iter().count());
    assert_eq!(got, n);
    report("db_fwd", n, secs, &mut metrics);
    let (got, secs) = timed(|| db.iter_rev().count());
    assert_eq!(got, n);
    report("db_rev", n, secs, &mut metrics);

    // The RB-tree baseline scan (the paper's std::map stand-in).
    let (got, secs) = timed(|| {
        let mut count = 0usize;
        rb.for_each_from(&[], &mut |_, _| {
            count += 1;
            true
        });
        count
    });
    assert_eq!(got, n);
    report("rbtree_fwd", n, secs, &mut metrics);

    // last/pred point queries: Hyperion reverse cursor vs RB-tree descent.
    let queries = (n / 4).max(1);
    let mut rng = Mt19937_64::new(0x9ed);
    let probes: Vec<Vec<u8>> = (0..queries)
        .map(|_| rng.next_u64().to_be_bytes().to_vec())
        .collect();
    let (hits, secs) = timed(|| probes.iter().filter(|p| map.pred(p).is_some()).count());
    report("map_pred", queries, secs, &mut metrics);
    // Successor-style seeks: cursor repositioning (shortcut-seeded descent
    // when the hashed shortcut layer is enabled) plus one forward step.
    let (seek_hits, secs) = timed(|| {
        let mut cursor = map.cursor();
        probes
            .iter()
            .filter(|p| {
                cursor.seek(p);
                cursor.next().is_some()
            })
            .count()
    });
    assert!(seek_hits <= queries);
    report("map_seek", queries, secs, &mut metrics);
    let (rb_hits, secs) = timed(|| {
        probes
            .iter()
            .filter(|p| OrderedRead::pred(&rb, p).is_some())
            .count()
    });
    assert_eq!(hits, rb_hits, "pred hit counts diverge");
    report("rbtree_pred", queries, secs, &mut metrics);

    if smoke {
        oracle_checks(&map, &db, &rb, &oracle);
        println!("oracle checks passed");
    }

    if let Some(path) = json_path {
        merge_into_file(&path, &metrics).expect("writing metric file");
        println!("metrics merged into {}", path.display());
    }
    println!("ok");
}

/// Every reverse traversal against the `BTreeMap` oracle: full scans, bounded
/// reverse ranges, reverse prefixes, two-ended iteration and `last`/`pred`.
fn oracle_checks(
    map: &HyperionMap,
    db: &HyperionDb,
    rb: &RedBlackTree,
    oracle: &BTreeMap<Vec<u8>, u64>,
) {
    let expected_rev: Vec<(Vec<u8>, u64)> =
        oracle.iter().rev().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(
        map.iter().rev().collect::<Vec<_>>(),
        expected_rev,
        "map reverse scan"
    );
    assert_eq!(
        db.iter_rev().collect::<Vec<_>>(),
        expected_rev,
        "db reverse scan"
    );
    assert_eq!(map.last(), expected_rev.first().cloned(), "map last");
    assert_eq!(
        OrderedRead::last(db),
        expected_rev.first().cloned(),
        "db last"
    );
    assert_eq!(
        OrderedRead::last(rb),
        expected_rev.first().cloned(),
        "rb last"
    );

    // Bounded reverse ranges at the key-space quartiles.
    let bounds: Vec<Vec<u8>> = (0..=4u64)
        .map(|i| (i.wrapping_mul(u64::MAX / 4)).to_be_bytes().to_vec())
        .collect();
    for pair in bounds.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        let expected: Vec<(Vec<u8>, u64)> = oracle
            .range(lo.clone()..hi.clone())
            .rev()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(
            map.range(&lo[..]..&hi[..]).rev().collect::<Vec<_>>(),
            expected,
            "map reverse range"
        );
        assert_eq!(
            db.range_rev(&lo[..]..&hi[..]).collect::<Vec<_>>(),
            expected,
            "db reverse range"
        );
        // pred at the boundary agrees everywhere.
        let expected_pred = oracle
            .range(..lo.clone())
            .next_back()
            .map(|(k, v)| (k.clone(), *v));
        assert_eq!(map.pred(lo), expected_pred, "map pred");
        assert_eq!(OrderedRead::pred(db, lo), expected_pred, "db pred");
        assert_eq!(OrderedRead::pred(rb, lo), expected_pred, "rb pred");
    }

    // Reverse prefixes on the first byte.
    for first in [0x00u8, 0x42, 0x80, 0xff] {
        let mut expected: Vec<Vec<u8>> = oracle
            .keys()
            .filter(|k| k.first() == Some(&first))
            .cloned()
            .collect();
        expected.reverse();
        assert_eq!(
            map.prefix(&[first])
                .rev()
                .map(|(k, _)| k)
                .collect::<Vec<_>>(),
            expected,
            "map reverse prefix {first:#x}"
        );
        assert_eq!(
            db.prefix_rev(&[first]).map(|(k, _)| k).collect::<Vec<_>>(),
            expected,
            "db reverse prefix {first:#x}"
        );
    }

    // Two-ended iteration covers every key exactly once.
    let mut iter = map.iter();
    let mut front = Vec::new();
    let mut back = Vec::new();
    while let Some(pair) = iter.next() {
        front.push(pair);
        match iter.next_back() {
            Some(pair) => back.push(pair),
            None => break,
        }
    }
    back.reverse();
    front.extend(back);
    let all: Vec<(Vec<u8>, u64)> = oracle.iter().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(front, all, "two-ended iteration");
}
