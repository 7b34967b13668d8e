//! `int_embedded`: 2 M random u64 keys in an 8-shard db, no server.  A
//! reader thread does uniform point gets, 1 in 8 for absent keys, while a
//! writer thread inserts fresh keys and deletes its own oldest insert, so
//! the live key count stays fixed.

use crate::ladder::{self, LadderInput, LadderWrite, ScanProbe};
use crate::net::db_window_layers;
use crate::report::RunOut;
use crate::span::{self, Span};
use crate::stat::{good_quartile, median, ratio, Better, Lat, Windows};
use hyperion_core::{HyperionConfig, HyperionDb, HyperionDbBuilder, PutOutcome, WriteBatch};
use hyperion_workloads::Mt19937_64;
use std::collections::{HashSet, VecDeque};
use std::time::{Duration, Instant};

pub const KEYS: usize = 2_000_000;
pub const SHARDS: usize = 8;
/// Keys the writer keeps live; inserted before the run, not timed.
const RING: usize = 1 << 16;
/// The writer's key range: four windows of [`RING`] keys at the mean step
/// of 1.5 × 2^40, about 1/43 of the key space, with some 46 000 loaded
/// keys.
const REGION: u64 = 4 * RING as u64 * (3 << 39);
const LOAD_BATCH: usize = 1 << 16;
const SETUPS: usize = 3;
/// Absent keys the reader cycles through (computed up front, so the reader
/// loop does no searching of its own).
const ABSENT_POOL: usize = 1 << 16;

pub fn db_builder() -> HyperionDbBuilder {
    HyperionDb::builder()
        .shards(SHARDS)
        .config(HyperionConfig::for_integers())
}

impl ThreadOut {
    fn new(windows: &Windows) -> ThreadOut {
        ThreadOut {
            lat: (0..windows.count()).map(|_| Lat::new()).collect(),
            done: vec![0; windows.count()],
            ops: 0,
            wrong: 0,
            first_wrong: None,
            spans: Vec::new(),
        }
    }

    #[inline]
    fn record(&mut self, windows: &Windows, t0: Instant, t1: Instant, ops: u64) {
        self.ops += ops;
        if let Some(w) = windows.of(t1) {
            self.done[w] += ops;
            self.lat[w].record(t1 - t0);
        }
    }

    /// The `q`-quantile of every call in the measured windows together.
    fn quantile_us(&self, q: f64) -> f64 {
        let mut all = Lat::new();
        self.lat.iter().for_each(|l| all.merge(l));
        all.quantile_us(q)
    }
}

fn key(k: u64) -> [u8; 8] {
    k.to_be_bytes()
}

/// The writer's value for its key `k`.
fn writer_value(k: u64) -> u64 {
    k.rotate_left(17) ^ 0x5bd1_e995
}

/// The loaded keys in load order (key `i` holds value `i`), a sorted copy,
/// and the keys a reader probes as absent.  Writer keys are odd and absent
/// probes even, so the two never meet.
pub struct Data {
    pub keys: Vec<u64>,
    pub sorted: Vec<u64>,
    pub absent: Vec<u64>,
}

pub fn data(seed: u64) -> Data {
    let mut rng = Mt19937_64::new(seed);
    let mut keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64()).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != keys.len() {
        // A 64-bit collision: keep first occurrences, top up with fresh keys.
        let mut seen = HashSet::with_capacity(KEYS);
        keys.retain(|k| seen.insert(*k));
        while keys.len() < KEYS {
            let k = rng.next_u64();
            if seen.insert(k) {
                keys.push(k);
            }
        }
        sorted = keys.clone();
        sorted.sort_unstable();
    }
    let mut absent = Vec::with_capacity(ABSENT_POOL);
    while absent.len() < ABSENT_POOL {
        let k = rng.next_u64() & !1;
        if sorted.binary_search(&k).is_err() {
            absent.push(k);
        }
    }
    Data {
        keys,
        sorted,
        absent,
    }
}

/// The reader's op stream: a key and the value it must hold.
pub struct Reader<'a> {
    data: &'a Data,
    rng: Mt19937_64,
    absent_at: usize,
}

impl<'a> Reader<'a> {
    pub fn new(data: &'a Data, seed: u64) -> Reader<'a> {
        Reader {
            data,
            rng: Mt19937_64::new(seed ^ 0x4ead),
            absent_at: 0,
        }
    }

    #[inline]
    pub fn next(&mut self) -> (u64, Option<u64>) {
        let r = self.rng.next_u64();
        if r % 8 == 0 {
            self.absent_at = (self.absent_at + 1) % ABSENT_POOL;
            (self.data.absent[self.absent_at], None)
        } else {
            let i = ((r >> 3) % KEYS as u64) as usize;
            (self.data.keys[i], Some(i as u64))
        }
    }
}

/// The writer's op stream: insert a fresh odd key, delete the oldest live
/// one, like a ring log.  Fresh keys ascend 1 to 2 × 2^40 apart, so they
/// fall between the loaded keys (about 2^43 apart) in key order, through a
/// seeded range of [`REGION`] keys, and wrap around to its start; the
/// live ones are a window of a quarter of it.
///
/// Random fresh keys, tried first, made each put touch cold memory, and
/// put latency then followed the machine's memory regime: ten runs read a
/// p50 of either about 2.5 or 3.5 µs (quartile spread 0.37).  Ascending
/// keys keep the put path warm.  The range wraps because containers keep
/// their room after deletes: a window that only moved on would grow the
/// footprint with every key it passed, so `bytes_per_key` would follow the
/// run's throughput.
pub struct Writer<'a> {
    data: &'a Data,
    rng: Mt19937_64,
    start: u64,
    /// Offset of the next fresh key from `start`.
    next: u64,
    pub live: VecDeque<u64>,
}

impl<'a> Writer<'a> {
    /// A writer whose first [`RING`] keys are already live.
    pub fn new(data: &'a Data, seed: u64) -> Writer<'a> {
        let mut rng = Mt19937_64::new(seed ^ 0x3417e);
        let start = (rng.next_u64() % (u64::MAX - REGION)) | 1;
        let mut w = Writer {
            data,
            rng,
            start,
            next: 0,
            live: VecDeque::with_capacity(RING + 1),
        };
        for _ in 0..RING {
            let k = w.fresh();
            w.live.push_back(k);
        }
        w
    }

    fn fresh(&mut self) -> u64 {
        loop {
            let k = self.start + self.next;
            // An even step keeps the keys odd.
            let step = (1 << 40) + ((self.rng.next_u64() >> 24) & !1);
            self.next = (self.next + step) % REGION;
            if self.data.sorted.binary_search(&k).is_err() {
                return k;
            }
        }
    }

    /// The next (insert, delete) pair.
    pub fn next(&mut self) -> (u64, u64) {
        let k = self.fresh();
        self.live.push_back(k);
        let old = self.live.pop_front().expect("the ring is never empty");
        (k, old)
    }
}

/// Loads every key by `WriteBatch`; returns the seconds it took.
fn load(db: &HyperionDb, data: &Data) -> f64 {
    let start = Instant::now();
    for (c, chunk) in data.keys.chunks(LOAD_BATCH).enumerate() {
        let mut batch = WriteBatch::with_capacity(chunk.len());
        for (j, k) in chunk.iter().enumerate() {
            batch.put(&key(*k), (c * LOAD_BATCH + j) as u64);
        }
        db.apply(&batch).expect("loading by WriteBatch");
    }
    start.elapsed().as_secs_f64()
}

struct ThreadOut {
    /// Latency and completed ops per window.
    lat: Vec<Lat>,
    done: Vec<u64>,
    ops: u64,
    wrong: u64,
    first_wrong: Option<String>,
    spans: Vec<Span>,
}

pub fn run(seed: u64, secs: f64, trace_stride: u64) -> RunOut {
    let mut out = RunOut::default();
    let data = data(seed);
    let db = db_builder().build();
    let first_setup = load(&db, &data);
    out.kernel = db.stats().scan_backend.kernel_name();
    let mut writer = Writer::new(&data, seed);
    let mut batch = WriteBatch::with_capacity(RING);
    for &k in &writer.live {
        batch.put(&key(k), writer_value(k));
    }
    db.apply(&batch).expect("pre-filling the writer's keys");

    let duration = Duration::from_secs_f64(secs);
    let warmup = Duration::from_secs_f64(secs * 0.15);
    let d0 = db.stats();
    let start = Instant::now();
    let end = start + duration;
    let windows = Windows::new(
        start + warmup,
        duration - warmup,
        (duration - warmup).as_secs_f64() as usize,
    );
    let (reads, writes, cpu_s) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut t = ThreadOut::new(&windows);
            let mut ops = Reader::new(&data, seed);
            while Instant::now() < end {
                for _ in 0..256 {
                    let (k, want) = ops.next();
                    let t0 = Instant::now();
                    let got = db.get(&key(k));
                    let t1 = Instant::now();
                    t.record(&windows, t0, t1, 1);
                    if trace_stride > 0 && t.ops % trace_stride == 0 {
                        let id = span::fresh_id();
                        span::push(&mut t.spans, "db.get", (id, 0, id), t0, t1);
                    }
                    if got.as_ref().ok() != Some(&want) {
                        t.wrong += 1;
                        t.first_wrong
                            .get_or_insert_with(|| format!("get {k:#x}: {got:?}, want {want:?}"));
                    }
                }
            }
            t
        });
        let writer = scope.spawn(|| {
            let mut t = ThreadOut::new(&windows);
            while Instant::now() < end {
                for _ in 0..64 {
                    let (k, old) = writer.next();
                    let t0 = Instant::now();
                    let put = db.put(&key(k), writer_value(k));
                    let t1 = Instant::now();
                    let del = db.delete(&key(old));
                    let t2 = Instant::now();
                    t.record(&windows, t0, t1, 2);
                    if trace_stride > 0 && (t.ops / 2) % trace_stride == 0 {
                        let id = span::fresh_id();
                        span::push(&mut t.spans, "db.put", (id, 0, id), t0, t1);
                        let id = span::fresh_id();
                        span::push(&mut t.spans, "db.delete", (id, 0, id), t1, t2);
                    }
                    if !matches!(put, Ok(PutOutcome::Inserted)) || !matches!(del, Ok(true)) {
                        t.wrong += 1;
                        t.first_wrong.get_or_insert_with(|| {
                            format!("insert {k:#x}: {put:?}; delete {old:#x}: {del:?}")
                        });
                    }
                }
            }
            t
        });
        let cpu_s =
            windows.sample_cpu(&|| reader.is_finished() && writer.is_finished(), &mut || {});
        (
            reader.join().expect("reader thread panicked"),
            writer.join().expect("writer thread panicked"),
            cpu_s,
        )
    });
    let d1 = db.stats();
    out.attempted = reads.ops + writes.ops;
    let window_s = windows.len().as_secs_f64();
    let ops: Vec<f64> = (0..windows.count())
        .map(|w| (reads.done[w] + writes.done[w]) as f64)
        .collect();
    let kops: Vec<f64> = ops.iter().map(|n| n / window_s / 1e3).collect();
    out.e2e("throughput_kops", good_quartile(&kops, Better::Higher));
    out.e2e(
        "cpu_us_per_op",
        ratio(cpu_s.iter().sum::<f64>() * 1e6, ops.iter().sum()),
    );
    out.e2e("read_p50_us", reads.quantile_us(0.5));
    out.e2e("read_p99_us", reads.quantile_us(0.99));
    out.e2e("write_p50_us", writes.quantile_us(0.5));
    out.e2e("write_tail_us", writes.quantile_us(0.99));
    out.note(format!(
        "reader: {} gets; writer: {} inserts and as many deletes; {} windows; \
         write_tail_us is p99",
        reads.ops,
        writes.ops / 2,
        windows.count()
    ));
    db_window_layers(&d0, &d1, writes.ops, &mut out.layers);
    for (who, t) in [("reader", &reads), ("writer", &writes)] {
        out.check(t.wrong == 0, || {
            format!(
                "{who}: {} wrong answers; first: {}",
                t.wrong,
                t.first_wrong.as_deref().unwrap_or("?")
            )
        });
    }
    out.spans.extend(reads.spans);
    out.spans.extend(writes.spans);

    out.check_structure(&db);
    let mut wrong = 0usize;
    for (i, k) in data.keys.iter().enumerate().step_by(16) {
        wrong += usize::from(db.get(&key(*k)).ok() != Some(Some(i as u64)));
    }
    for &k in &writer.live {
        wrong += usize::from(db.get(&key(k)).ok() != Some(Some(writer_value(k))));
    }
    let live_keys = db.len();
    out.check(wrong == 0 && live_keys == KEYS + RING, || {
        format!("final state: {wrong} keys hold a wrong value, {live_keys} keys live")
    });
    out.end_of_run(&db, live_keys);
    drop(db);
    // The other set-ups come after the memory readings, so the peak
    // resident set is that of one loaded db.
    let mut setups = vec![first_setup];
    for _ in 1..SETUPS {
        setups.push(load(&db_builder().build(), &data));
    }
    out.e2e("setup_s", median(&setups));
    out
}

/// The layer ladder on this workload's data and op streams.
pub fn ladder(seed: u64) -> ladder::LadderOut {
    const READS: usize = 20_000;
    const SCANS: usize = 1_000;
    const WRITES: usize = 2_000;
    let data = data(seed);
    let mut writer = Writer::new(&data, seed);
    // The data set: loaded keys plus the writer's pre-filled ring, sorted
    // with values for the scan answers.
    let ring: Vec<u64> = writer.live.iter().copied().collect();
    let mut all: Vec<(u64, u64)> = data
        .keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .chain(ring.iter().map(|&k| (k, writer_value(k))))
        .collect();
    let load_keys: Vec<[u8; 8]> = all.iter().map(|(k, _)| key(*k)).collect();
    let load: Vec<(&[u8], u64)> = load_keys
        .iter()
        .zip(&all)
        .map(|(k, (_, v))| (k.as_slice(), *v))
        .collect();
    all.sort_unstable();
    let mut reader = Reader::new(&data, seed);
    let mut probe_rng = Mt19937_64::new(seed ^ 0x1add);
    let mut reads = Vec::with_capacity(READS);
    let mut scans = Vec::with_capacity(SCANS);
    while reads.len() < READS {
        let (k, want) = reader.next();
        if scans.len() < SCANS && want.is_some() {
            // The workload has no scans: probe the scan path from the keys
            // it reads.
            let limit = 1 + probe_rng.next_below(20) as usize;
            let at = all.partition_point(|(x, _)| *x < k);
            scans.push(ScanProbe {
                start: key(k).to_vec(),
                end: None,
                limit,
                expect: all[at..(at + limit).min(all.len())]
                    .iter()
                    .map(|(k, v)| (key(*k).to_vec(), *v))
                    .collect(),
            });
        }
        reads.push((key(k).to_vec(), want));
    }
    let mut writes = Vec::with_capacity(WRITES);
    while writes.len() < WRITES {
        let (k, old) = writer.next();
        writes.push(LadderWrite::Put(key(k).to_vec(), writer_value(k)));
        writes.push(LadderWrite::Del(key(old).to_vec()));
    }
    ladder::run(LadderInput {
        config: HyperionConfig::for_integers(),
        builder: &db_builder,
        load: &load,
        reads: &reads,
        scans: &scans,
        writes: &writes,
        read_is_scan: false,
        read_group: 0.0,
    })
}
