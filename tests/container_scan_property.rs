//! Container-scan properties ([`hyperion_core::scan_kernel`]).
//!
//! Drives maps through interleaved `put`/`put_many`/`delete` under tiny
//! split/eject thresholds — so containers split, eject and grow jump tables
//! constantly — and asserts every read surface (point gets, `get_many`,
//! ordered iteration in both directions, seeks, predecessor queries) agrees
//! with a `BTreeMap` oracle, with `validate_structure` checking the layout
//! after every mutation phase.

use hyperion::workloads::Mt19937_64;
use hyperion::{HyperionConfig, HyperionMap};
use std::collections::BTreeMap;

/// Tiny container thresholds: every few hundred bytes of writes ejects or
/// splits a container, exercising the scanner on every structural path.
fn tiny_config() -> HyperionConfig {
    HyperionConfig {
        eject_threshold: 512,
        split_base: 1024,
        split_increment: 512,
        split_min_part: 64,
        ..HyperionConfig::default()
    }
}

/// Keys over a narrow alphabet so prefixes collide heavily, containers fill
/// fast and delta-encoded runs are long.
fn clustered_key(rng: &mut Mt19937_64, max_len: usize) -> Vec<u8> {
    let len = 1 + (rng.next_u64() as usize) % max_len;
    (0..len).map(|_| (rng.next_u64() % 23) as u8).collect()
}

#[test]
fn scans_match_oracle_under_interleaved_mutation() {
    for case in 0..24u64 {
        let mut rng = Mt19937_64::new(0x5ca7 + case);
        let mut map = HyperionMap::with_config(tiny_config());
        let mut oracle: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for phase in 0..6 {
            match rng.next_u64() % 3 {
                // A batched bulk load through the write engine's splice path.
                0 => {
                    let n = 50 + (rng.next_u64() as usize) % 400;
                    let batch: Vec<(Vec<u8>, u64)> = (0..n)
                        .map(|_| (clustered_key(&mut rng, 10), rng.next_u64()))
                        .collect();
                    map.put_many(batch.iter().map(|(k, v)| (k.as_slice(), *v)));
                    oracle.extend(batch);
                }
                // Point puts through the single-pass write descent.
                1 => {
                    for _ in 0..100 {
                        let (k, v) = (clustered_key(&mut rng, 10), rng.next_u64());
                        map.put(&k, v);
                        oracle.insert(k, v);
                    }
                }
                // Deletes, probing present and absent keys alike.
                _ => {
                    for _ in 0..80 {
                        let k = clustered_key(&mut rng, 10);
                        let expected = oracle.remove(&k).is_some();
                        assert_eq!(map.delete(&k), expected, "case {case}: delete");
                    }
                }
            }
            map.validate_structure()
                .unwrap_or_else(|e| panic!("case {case} phase {phase}: {e}"));
        }
        assert_eq!(map.len(), oracle.len(), "case {case}: len");

        // Point gets: every stored key plus perturbed misses.
        for (k, v) in &oracle {
            assert_eq!(map.get(k), Some(*v), "case {case}: get {k:x?}");
        }
        let mut probes: Vec<Vec<u8>> = oracle.keys().cloned().collect();
        for _ in 0..200 {
            probes.push(clustered_key(&mut rng, 12));
        }
        let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
        for (probe, got) in probes.iter().zip(map.get_many(&refs)) {
            let expected = oracle.get(probe).copied();
            assert_eq!(got, expected, "case {case}: get_many {probe:x?}");
        }

        // Ordered iteration, both directions.
        let expected: Vec<(Vec<u8>, u64)> = oracle.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(
            map.iter().collect::<Vec<_>>(),
            expected,
            "case {case}: forward iteration"
        );
        let mut reversed = expected.clone();
        reversed.reverse();
        assert_eq!(
            map.iter().rev().collect::<Vec<_>>(),
            reversed,
            "case {case}: reverse iteration"
        );

        // Seeks and predecessor queries at random split points.
        for _ in 0..50 {
            let probe = clustered_key(&mut rng, 10);
            let want_seek = oracle
                .range(probe.clone()..)
                .next()
                .map(|(k, v)| (k.clone(), *v));
            let mut cur = map.cursor();
            cur.seek(&probe);
            assert_eq!(cur.next(), want_seek, "case {case}: seek {probe:x?}");
            let want_pred = oracle
                .range(..probe.clone())
                .next_back()
                .map(|(k, v)| (k.clone(), *v));
            assert_eq!(map.pred(&probe), want_pred, "case {case}: pred {probe:x?}");
        }
    }
}

/// Wide-fanout containers (many T records, many S children) stress the
/// jump-table seeded finds; random u64 keys at volume force splits into
/// chain slots.  Gets, batched gets and seeks must agree with the oracle on
/// a 60 k-key map.
#[test]
fn wide_integer_maps_match_oracle() {
    let mut rng = Mt19937_64::new(0x51d3);
    let mut map = HyperionMap::with_config(HyperionConfig::for_integers());
    let mut oracle: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let batch: Vec<(Vec<u8>, u64)> = (0..60_000u64)
        .map(|i| (rng.next_u64().to_be_bytes().to_vec(), i))
        .collect();
    map.put_many(batch.iter().map(|(k, v)| (k.as_slice(), *v)));
    oracle.extend(batch);
    map.validate_structure().expect("structure after bulk load");
    // Interleave deletes and point puts, then re-validate.
    let doomed: Vec<Vec<u8>> = oracle.keys().step_by(7).cloned().collect();
    for k in &doomed {
        assert!(map.delete(k));
        oracle.remove(k);
    }
    for i in 0..5_000u64 {
        let k = rng.next_u64().to_be_bytes().to_vec();
        map.put(&k, i);
        oracle.insert(k, i);
    }
    map.validate_structure().expect("structure after churn");
    assert_eq!(map.len(), oracle.len());
    let probes: Vec<&[u8]> = oracle.keys().step_by(3).map(|k| k.as_slice()).collect();
    let got = map.get_many(&probes);
    for (probe, got) in probes.iter().zip(&got) {
        assert_eq!(*got, oracle.get(*probe).copied(), "get_many {probe:x?}");
    }
    for (k, v) in oracle.iter().step_by(11) {
        assert_eq!(map.get(k), Some(*v), "get {k:x?}");
    }
    // Seeks across the whole key space.
    for _ in 0..200 {
        let probe = rng.next_u64().to_be_bytes();
        let want = oracle
            .range(probe.to_vec()..)
            .next()
            .map(|(k, v)| (k.clone(), *v));
        let mut cur = map.cursor();
        cur.seek(&probe);
        assert_eq!(cur.next(), want, "seek {probe:x?}");
    }
}
