//! `ycsb_b_net` and `ycsb_e_net`: 200 k n-gram keys behind the embedded
//! server on loopback, driven over one connection by the open-loop and then
//! the closed-loop generator.

use crate::gen::{self, Expect, Kind, Op, OpSource, Pace, PhaseOpts, PhaseResult};
use crate::ladder::{self, LadderInput, LadderWrite, ScanProbe};
use crate::procfs;
use crate::report::{Layers, RunOut};
use crate::stat::{median, ratio};
use hyperion_core::{DbStats, FibonacciPartitioner, HyperionConfig, HyperionDb};
use hyperion_server::{Client, Request, Server, ServerConfig, ServerHandle, StatsSnapshot};
use hyperion_workloads::{Mt19937_64, NgramCorpus, NgramCorpusConfig, Zipf};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const KEYS: usize = 200_000;
pub const SHARDS: usize = 8;
const WINDOW: usize = 64;
const SETUPS: usize = 3;
const SUBPHASES: usize = 10;
/// The open loop's share of a run.  Its latencies and CPU per op are gated;
/// the closed loop only gives the throughput, which is printed but not
/// gated, so the open loop gets most of the time and E, which sends about
/// 50 PUTs a second, the most PUT samples.
const OPEN_SHARE: f64 = 0.85;
/// Seconds per measurement window (see [`crate::stat::good_quartile`]).
const WINDOW_S: f64 = 0.25;
/// Inserted keys start with this byte, which sorts after every n-gram key
/// byte, and scans stop before it; so scan answers never depend on writes.
const INSERT_PREFIX: u8 = b'~';

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 95% GET over Zipf(0.99), 5% PUT updating an existing key.
    B,
    /// 95% ascending SCAN of 1 to 20 entries from a Zipf start, 5% PUT
    /// inserting a new key outside every scanned range.
    E,
}

impl Mix {
    fn open_rate(self) -> f64 {
        match self {
            Mix::B => 40_000.0,
            Mix::E => 1_000.0,
        }
    }

    /// The open loop's arrivals: a seeded Poisson process.  On a fixed
    /// schedule a run can lock onto one phase of the server's IO loop (its
    /// IO threads yield 16 times, then sleep 500 µs when idle) and keep it:
    /// E's scan p50 read anywhere from 1.27 to 1.66 ms per run, and B's
    /// 25 µs gaps sit on the edge of the yield rounds, so each connection
    /// either stayed awake (p50 about 25 µs) or slept (about 400 µs) and a
    /// run's median over its sub-phases read anything between.  Poisson
    /// arrivals meet the loop at a random phase every time.
    fn pace(self, seed: u64) -> Pace {
        Pace::Poisson {
            rate: self.open_rate(),
            seed: seed ^ 0xa441,
        }
    }

    /// The percentile `write_tail_us` reports: the highest one with at
    /// least ten samples beyond it at the phase's nominal write count.
    pub fn write_tail(self) -> f64 {
        match self {
            Mix::B => 0.99,
            Mix::E => 0.95,
        }
    }
}

/// The key set: sorted n-gram keys, their values, and the seeded order in
/// which they are loaded.
pub struct Data {
    pub keys: Vec<Vec<u8>>,
    pub values: Vec<u64>,
    pub load_order: Vec<u32>,
    /// Popularity rank to key index, so hot keys are spread over the key
    /// space instead of sitting at its start.
    pub by_rank: Vec<u32>,
}

fn shuffled(n: usize, rng: &mut Mt19937_64) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    v
}

pub fn data(seed: u64) -> Data {
    let corpus = NgramCorpus::generate(&NgramCorpusConfig {
        entries: KEYS,
        seed,
        ..Default::default()
    })
    .workload;
    let mut rng = Mt19937_64::new(seed ^ 0x10ad);
    Data {
        load_order: shuffled(corpus.keys.len(), &mut rng),
        by_rank: shuffled(corpus.keys.len(), &mut rng),
        keys: corpus.keys,
        values: corpus.values,
    }
}

pub fn db_builder() -> hyperion_core::HyperionDbBuilder {
    HyperionDb::builder()
        .shards(SHARDS)
        .config(HyperionConfig::for_strings())
        .partitioner(FibonacciPartitioner)
}

/// The workload's op stream.  It predicts every answer: values change only
/// through its own PUTs, and scans never reach the inserted keys.
pub struct YcsbOps<'a> {
    mix: Mix,
    data: &'a Data,
    /// The current value of every loaded key.
    pub values: Vec<u64>,
    pub inserted: Vec<(Vec<u8>, u64)>,
    zipf: Zipf,
    rng: Mt19937_64,
    seq: u64,
    pub reads: u64,
    pub writes: u64,
}

impl<'a> YcsbOps<'a> {
    pub fn new(mix: Mix, data: &'a Data, seed: u64) -> YcsbOps<'a> {
        YcsbOps {
            mix,
            data,
            values: data.values.clone(),
            inserted: Vec::new(),
            zipf: Zipf::new(data.keys.len(), 0.99),
            rng: Mt19937_64::new(seed ^ 0x0b5),
            seq: 0,
            reads: 0,
            writes: 0,
        }
    }

    fn hot_index(&mut self) -> usize {
        self.data.by_rank[self.zipf.sample(&mut self.rng)] as usize
    }

    /// The `limit` loaded entries from index `at` on.
    pub fn scan_answer(&self, at: usize, limit: usize) -> Vec<(Vec<u8>, u64)> {
        let end = (at + limit).min(self.data.keys.len());
        (at..end)
            .map(|i| (self.data.keys[i].clone(), self.values[i]))
            .collect()
    }
}

impl OpSource for YcsbOps<'_> {
    fn next_op(&mut self) -> Option<Op> {
        self.seq += 1;
        let write = self.rng.next_below(100) < 5;
        let op = match (self.mix, write) {
            (Mix::B, true) => {
                let i = self.hot_index();
                let value = (1 << 63) | self.seq;
                self.values[i] = value;
                Op {
                    kind: Kind::Write,
                    req: Request::Put {
                        key: self.data.keys[i].clone(),
                        value,
                    },
                    expect: Expect::Ok,
                }
            }
            (Mix::B, false) => {
                let i = self.hot_index();
                Op {
                    kind: Kind::Read,
                    req: Request::Get {
                        key: self.data.keys[i].clone(),
                    },
                    expect: Expect::Value(Some(self.values[i])),
                }
            }
            (Mix::E, true) => {
                let n = self.data.keys.len() as u64;
                let base = &self.data.keys[self.rng.next_below(n) as usize];
                let mut key = Vec::with_capacity(base.len() + 12);
                key.push(INSERT_PREFIX);
                key.extend_from_slice(base);
                key.extend_from_slice(format!("#{}", self.seq).as_bytes());
                let value = (1 << 63) | self.seq;
                self.inserted.push((key.clone(), value));
                Op {
                    kind: Kind::Write,
                    req: Request::Put { key, value },
                    expect: Expect::Ok,
                }
            }
            (Mix::E, false) => {
                let at = self.hot_index();
                let limit = 1 + self.rng.next_below(20) as usize;
                Op {
                    kind: Kind::Read,
                    req: Request::Scan {
                        start: self.data.keys[at].clone(),
                        end: Some(vec![INSERT_PREFIX]),
                        limit: limit as u32,
                        reverse: false,
                    },
                    expect: Expect::Entries(self.scan_answer(at, limit)),
                }
            }
        };
        match op.kind {
            Kind::Read => self.reads += 1,
            Kind::Write => self.writes += 1,
        }
        Some(op)
    }
}

/// PUTs every key once, in the seeded load order.
struct LoadOps<'a> {
    data: &'a Data,
    next: usize,
}

impl OpSource for LoadOps<'_> {
    fn next_op(&mut self) -> Option<Op> {
        let i = *self.data.load_order.get(self.next)? as usize;
        self.next += 1;
        Some(Op {
            kind: Kind::Write,
            req: Request::Put {
                key: self.data.keys[i].clone(),
                value: self.data.values[i],
            },
            expect: Expect::Ok,
        })
    }
}

pub fn connect(server: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect to the embedded server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
}

/// The control connection that reads `STATS`.  It pings while a phase runs
/// so the server's idle timeout never closes it, however long the phase.
pub struct Control {
    client: Client,
    every: Duration,
    pub ping_failures: u64,
}

impl Control {
    pub fn new(server: &ServerHandle, config: &ServerConfig) -> Control {
        Control {
            client: Client::connect(server.local_addr()).expect("connect the control client"),
            every: config.idle_timeout / 4,
            ping_failures: 0,
        }
    }

    fn keepalive(&mut self) {
        if self.client.ping().is_err() {
            self.ping_failures += 1;
        }
    }

    pub fn stats(&mut self) -> StatsSnapshot {
        self.client
            .stats()
            .expect("STATS on the control connection")
    }

    /// Runs [`SUBPHASES`] phases, each on a fresh connection to `server`.
    pub fn subphases(
        &mut self,
        server: &ServerHandle,
        source: &mut dyn OpSource,
        opts: PhaseOpts,
    ) -> Vec<PhaseResult> {
        (0..SUBPHASES as u64)
            .map(|i| {
                let mut opts = opts;
                // Each sub-phase draws its own arrival times.
                if let Pace::Poisson { seed, .. } = &mut opts.pace {
                    *seed = seed.wrapping_add(i + 1);
                }
                self.phase(&connect(server), source, opts)
            })
            .collect()
    }

    /// Runs one generator phase on `stream`, keeping this connection alive.
    pub fn phase(
        &mut self,
        stream: &TcpStream,
        source: &mut dyn OpSource,
        opts: PhaseOpts,
    ) -> PhaseResult {
        let every = self.every;
        gen::run_phase(stream, source, opts, every, &mut || self.keepalive())
            .expect("the generator lost its connection")
    }
}

/// A snapshot of every counter a phase is measured by.
pub struct Probe {
    at: Instant,
    threads: BTreeMap<&'static str, f64>,
    server: StatsSnapshot,
    db: DbStats,
}

impl Probe {
    pub fn take(control: &mut Control, db: &HyperionDb) -> Probe {
        Probe {
            at: Instant::now(),
            threads: procfs::thread_cpu_by_group(),
            server: control.stats(),
            db: db.stats(),
        }
    }
}

/// Layer metrics of the window between two probes, over `ops` requests of
/// which `puts` were writes.
pub fn window_layers(before: &Probe, after: &Probe, ops: u64, puts: u64, layers: &mut Layers) {
    let thread_us = |group: &str| {
        let d = after.threads.get(group).copied().unwrap_or(0.0)
            - before.threads.get(group).copied().unwrap_or(0.0);
        ratio(d * 1e6, ops as f64)
    };
    layers.set("server.io_cpu_us_per_op", thread_us("io"));
    layers.set("server.worker_cpu_us_per_op", thread_us("worker"));
    layers.set("server.accept_cpu_us_per_op", thread_us("accept"));
    let (s0, s1) = (&before.server, &after.server);
    layers.set(
        "server.read_group_avg",
        ratio(
            (s1.read_keys - s0.read_keys) as f64,
            (s1.read_groups - s0.read_groups) as f64,
        ),
    );
    layers.set(
        "server.write_group_avg",
        ratio(
            (s1.write_keys - s0.write_keys) as f64,
            (s1.write_groups - s0.write_groups) as f64,
        ),
    );
    layers.set(
        "server.shed_frac",
        ratio(
            (s1.shed_requests - s0.shed_requests) as f64,
            (s1.requests - s0.requests) as f64,
        ),
    );
    db_window_layers(&before.db, &after.db, puts, layers);
}

/// The `seqlock`, `shortcut` and `write` metrics of a window, from
/// [`DbStats`] deltas.
pub fn db_window_layers(d0: &DbStats, d1: &DbStats, puts: u64, layers: &mut Layers) {
    let hits = (d1.optimistic.hits - d0.optimistic.hits) as f64;
    let retries = (d1.optimistic.retries - d0.optimistic.retries) as f64;
    let fallbacks = (d1.optimistic.fallbacks - d0.optimistic.fallbacks) as f64;
    let reads = hits + fallbacks;
    layers.set("seqlock.lock_free_frac", ratio(hits, reads));
    layers.set("seqlock.retries_per_kread", ratio(retries * 1e3, reads));
    layers.set("seqlock.fallbacks_per_kread", ratio(fallbacks * 1e3, reads));
    let sc_hits = (d1.shortcut.hits - d0.shortcut.hits) as f64;
    let sc_misses = (d1.shortcut.misses - d0.shortcut.misses) as f64;
    let per_kput = |n: u64| ratio(n as f64 * 1e3, puts as f64);
    layers.set("shortcut.hit_rate", ratio(sc_hits, sc_hits + sc_misses));
    layers.set(
        "shortcut.invalidations_per_kput",
        per_kput(d1.shortcut.invalidations - d0.shortcut.invalidations),
    );
    layers.set(
        "write.splits_per_kput",
        per_kput(d1.counters.splits - d0.counters.splits),
    );
    layers.set(
        "write.ejections_per_kput",
        per_kput(d1.counters.ejections - d0.counters.ejections),
    );
    layers.set(
        "write.cjt_rebuilds_per_kput",
        per_kput(d1.counters.cjt_rebuilds - d0.counters.cjt_rebuilds),
    );
}

/// A phase of `secs`, of which the first `warmup` seconds are not
/// measured and the rest is cut into windows of about `window` seconds.
pub fn phase_opts(pace: Pace, secs: f64, warmup: f64, window: f64, trace_stride: u64) -> PhaseOpts {
    PhaseOpts {
        pace,
        duration: Duration::from_secs_f64(secs),
        warmup: Duration::from_secs_f64(warmup),
        windows: ((secs - warmup) / window).floor().max(1.0) as usize,
        trace_stride,
        reply_timeout: Duration::from_secs(10),
    }
}

/// Starts a fresh db and server and loads every key over the socket;
/// returns them with the load time.
fn setup(data: &Data, out: &mut RunOut) -> (Arc<HyperionDb>, ServerHandle, f64) {
    let db = Arc::new(db_builder().build());
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .expect("start the embedded server");
    let stream = connect(&server);
    let start = Instant::now();
    let mut load = LoadOps { data, next: 0 };
    let opts = phase_opts(Pace::Closed { window: WINDOW }, 120.0, 0.0, 120.0, 0);
    let result = gen::run_phase(&stream, &mut load, opts, opts.duration, &mut || {})
        .expect("load connection");
    let secs = start.elapsed().as_secs_f64();
    out.check(
        result.completed == data.keys.len() as u64 && result.failed == 0,
        || {
            format!(
                "load: {} of {} keys acknowledged, {} failed",
                result.completed,
                data.keys.len(),
                result.failed
            )
        },
    );
    out.absorb_mismatches("load", &result);
    (db, server, secs)
}

/// One run of the workload: set-up, the open-loop phase, the closed-loop
/// phase and the final checks.  `trace_stride` > 0 records request spans.
pub fn run(mix: Mix, seed: u64, secs: f64, trace_stride: u64) -> RunOut {
    let mut out = RunOut::default();
    let data = data(seed);
    let (db, mut server, first_setup) = setup(&data, &mut out);
    out.kernel = db.stats().scan_backend.kernel_name();

    let config = ServerConfig::default();
    let mut control = Control::new(&server, &config);
    let mut ops = YcsbOps::new(mix, &data, seed);

    // Open loop: latency from each request's scheduled departure.  After
    // an unmeasured warm-up it runs as SUBPHASES sub-phases, each on a
    // fresh connection, so no connection's fate sets a run's result.
    // Latencies are the quantiles of all their measured requests together
    // (see `RunOut::latencies`), CPU per op the median over sub-phases.
    let open_secs = secs * OPEN_SHARE;
    let pace = mix.pace(seed);
    let warmup_secs = open_secs * 0.15;
    let sub_secs = (open_secs - warmup_secs) / SUBPHASES as f64;
    let warm = control.phase(
        &connect(&server),
        &mut ops,
        phase_opts(pace, warmup_secs, warmup_secs, warmup_secs, 0),
    );
    let (reads0, writes0) = (ops.reads, ops.writes);
    let before = Probe::take(&mut control, &db);
    let mut open = control.subphases(
        &server,
        &mut ops,
        phase_opts(pace, sub_secs, sub_secs * 0.15, WINDOW_S, trace_stride),
    );
    let after = Probe::take(&mut control, &db);
    let (reads, writes) = (ops.reads - reads0, ops.writes - writes0);
    let sent: u64 = open.iter().map(|p| p.sent).sum();
    window_layers(&before, &after, sent, writes, &mut out.layers);
    let lags: Vec<f64> = open.iter_mut().map(|p| p.lag.quantile_us(0.99)).collect();
    out.layers.set("gen.lag_p99_us", median(&lags));
    let cpu: Vec<f64> = open.iter().map(PhaseResult::cpu_us_per_op).collect();
    out.e2e("cpu_us_per_op", median(&cpu));
    out.latencies(&mut open, mix.write_tail(), (reads, writes));
    let open_wall = (after.at - before.at).as_secs_f64();

    // Closed loop: the same mix, `WINDOW` requests in flight, also in
    // sub-phases on fresh connections.
    let sub_secs = secs * (1.0 - OPEN_SHARE) / SUBPHASES as f64;
    let mut closed = control.subphases(
        &server,
        &mut ops,
        phase_opts(
            Pace::Closed { window: WINDOW },
            sub_secs,
            sub_secs * 0.1,
            WINDOW_S,
            trace_stride,
        ),
    );
    let kops: Vec<f64> = closed.iter().map(|p| p.throughput() / 1e3).collect();
    out.e2e("throughput_kops", median(&kops));

    for (name, phase) in std::iter::once(("warm-up", &warm))
        .chain(open.iter().map(|p| ("open", p)))
        .chain(closed.iter().map(|p| ("closed", p)))
    {
        out.attempted += phase.sent;
        out.failed += phase.failed;
        out.absorb_mismatches(name, phase);
    }
    for phase in open.iter_mut().chain(closed.iter_mut()) {
        out.spans.append(&mut phase.spans);
    }
    out.note(format!(
        "open loop: {sent} requests at {:.0}/s over {open_wall:.2} s after a {warmup_secs:.1} s \
         warm-up; closed loop: {} requests; {SUBPHASES} sub-phases each; control pings \
         failed: {}",
        mix.open_rate(),
        closed.iter().map(|p| p.completed).sum::<u64>(),
        control.ping_failures
    ));
    out.check(control.ping_failures == 0, || {
        "the control connection failed a keep-alive ping".into()
    });

    // Every key must hold what the op stream predicts.
    out.check_structure(&db);
    let mut wrong = 0usize;
    for (i, key) in data.keys.iter().enumerate() {
        if db.get(key).ok().flatten() != Some(ops.values[i]) {
            wrong += 1;
        }
    }
    for (key, value) in &ops.inserted {
        if db.get(key).ok().flatten() != Some(*value) {
            wrong += 1;
        }
    }
    let live_keys = db.len();
    out.check(
        wrong == 0 && live_keys == data.keys.len() + ops.inserted.len(),
        || format!("final state: {wrong} keys hold a wrong value, {live_keys} keys live"),
    );
    out.end_of_run(&db, live_keys);
    server.shutdown();
    drop(db);
    // The other set-ups come after the memory readings, so the peak
    // resident set is that of one loaded server.
    let mut setups = vec![first_setup];
    for _ in 1..SETUPS {
        setups.push(setup(&data, &mut out).2);
    }
    out.e2e("setup_s", median(&setups));
    out
}

/// The layer ladder on this workload's data and op stream.
pub fn ladder(mix: Mix, seed: u64, read_group: f64) -> ladder::LadderOut {
    const READS: usize = 20_000;
    const SCANS: usize = 1_000;
    let data = data(seed);
    let index: BTreeMap<&[u8], usize> = data
        .keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.as_slice(), i))
        .collect();
    let mut ops = YcsbOps::new(mix, &data, seed);
    let mut reads = Vec::new();
    let mut scans = Vec::new();
    let mut writes = Vec::new();
    let mut probe_rng = Mt19937_64::new(seed ^ 0x1add);
    // Reads run before writes on every rung, so they see the loaded values.
    while reads.len() < READS || scans.len() < SCANS {
        let op = ops.next_op().expect("the op stream is endless");
        match op.req {
            Request::Get { key } if reads.len() < READS => {
                let i = index[key.as_slice()];
                if scans.len() < SCANS {
                    // YCSB B has no scans: probe the scan path from the
                    // keys it reads.
                    let limit = 1 + probe_rng.next_below(20) as usize;
                    scans.push(ScanProbe {
                        start: key.clone(),
                        end: None,
                        limit,
                        expect: loaded_slice(&data, i, limit),
                    });
                }
                reads.push((key, Some(data.values[i])));
            }
            Request::Scan {
                start, end, limit, ..
            } => {
                let i = index[start.as_slice()];
                if reads.len() < READS {
                    // YCSB E has no point reads: probe them at its scan starts.
                    reads.push((start.clone(), Some(data.values[i])));
                }
                if scans.len() < SCANS {
                    scans.push(ScanProbe {
                        start,
                        end,
                        limit: limit as usize,
                        expect: loaded_slice(&data, i, limit as usize),
                    });
                }
            }
            Request::Put { key, value } => writes.push(LadderWrite::Put(key, value)),
            _ => {}
        }
    }
    let load: Vec<(&[u8], u64)> = data
        .load_order
        .iter()
        .map(|&i| (data.keys[i as usize].as_slice(), data.values[i as usize]))
        .collect();
    ladder::run(LadderInput {
        config: HyperionConfig::for_strings(),
        builder: &db_builder,
        load: &load,
        reads: &reads,
        scans: &scans,
        writes: &writes,
        read_is_scan: mix == Mix::E,
        read_group,
    })
}

fn loaded_slice(data: &Data, at: usize, limit: usize) -> Vec<(Vec<u8>, u64)> {
    let end = (at + limit).min(data.keys.len());
    (at..end)
        .map(|i| (data.keys[i].clone(), data.values[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase that outlasts the server's idle timeout must not cost the
    /// control connection: the benchmark reads `STATS` after every phase.
    #[test]
    fn control_connection_survives_a_phase_longer_than_the_idle_timeout() {
        let data = Data {
            keys: (0..1000u32)
                .map(|i| format!("k{i:05}").into_bytes())
                .collect(),
            values: (0..1000).collect(),
            load_order: (0..1000).collect(),
            by_rank: (0..1000).collect(),
        };
        let db = Arc::new(db_builder().build());
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::clone(&db), "127.0.0.1:0", config).expect("start");
        let mut control = Control::new(&server, &config);
        let stream = connect(&server);
        let before = control.stats();
        control.phase(
            &stream,
            &mut LoadOps {
                data: &data,
                next: 0,
            },
            phase_opts(Pace::Closed { window: 4 }, 120.0, 0.0, 120.0, 0),
        );
        let mut ops = YcsbOps::new(Mix::B, &data, 7);
        let result = control.phase(
            &stream,
            &mut ops,
            phase_opts(Pace::Open { rate: 200.0 }, 1.0, 0.0, 0.25, 0),
        );
        assert_eq!(result.mismatches, 0, "{:?}", result.first_mismatch);
        assert_eq!(result.failed, 0);
        let after = control.stats();
        assert!(after.requests > before.requests);
        assert_eq!(control.ping_failures, 0);
        assert_eq!(after.deadline_closed_conns, 0);
    }
}
