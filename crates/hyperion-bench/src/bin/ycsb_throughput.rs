//! `ycsb_throughput` — YCSB-style scenario benchmark over the network front
//! end.
//!
//! Drives a real `hyperion-server` (in-process on a loopback socket by
//! default, or an external one via `--addr`) with the classic YCSB mixes:
//!
//! * **A** — 50% reads / 50% updates, zipfian key choice;
//! * **B** — 95% reads / 5% updates, zipfian;
//! * **C** — 100% reads, zipfian;
//! * **D** — 95% read-latest / 5% inserts;
//! * **E** — 95% short range scans / 5% inserts.
//!
//! Each client thread owns a private TCP connection and a disjoint key
//! stripe (`{mix}/u{client}k{rank}`), runs **closed-loop** with a pipeline
//! window of in-flight requests (which is what exercises the server's
//! per-shard coalescing), and mix B additionally runs **open-loop** against
//! a scheduled arrival rate, measuring latency from the *scheduled* send
//! time so queueing delay is not hidden (no coordinated omission).
//!
//! Latencies feed the log-linear histogram of `hyperion_bench::hist`;
//! p50/p95/p99 land in the `--json` metric file next to the throughput rows
//! (`_us` metrics gate as lower-is-better).  With `--smoke` every response
//! is checked against a per-stripe `BTreeMap` oracle — valid even inside a
//! pipeline window because each stripe has a single writer and the server
//! executes same-key operations in arrival order — and the run asserts that
//! the measured coalescing group size stays above 1.
//!
//! ```bash
//! cargo run --release -p hyperion-bench --bin ycsb_throughput              # full
//! cargo run --release -p hyperion-bench --bin ycsb_throughput -- --smoke  # CI
//! cargo run --release -p hyperion-bench --bin ycsb_throughput -- \
//!     --addr 127.0.0.1:7401 --clients 16 --window 128 --mix b
//! ```

use hyperion_bench::hist::Hist;
use hyperion_bench::json::{arg_json_path, merge_into_file};
use hyperion_core::db::FibonacciPartitioner;
use hyperion_core::{HyperionConfig, HyperionDb};
use hyperion_server::{Client, Request, Response, Server, ServerConfig, StatsSnapshot};
use hyperion_workloads::{Mt19937_64, Zipf};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    A,
    B,
    C,
    D,
    E,
}

impl Mix {
    fn tag(self) -> &'static str {
        match self {
            Mix::A => "a",
            Mix::B => "b",
            Mix::C => "c",
            Mix::D => "d",
            Mix::E => "e",
        }
    }

    fn describe(self) -> &'static str {
        match self {
            Mix::A => "50% read / 50% update, zipfian",
            Mix::B => "95% read / 5% update, zipfian",
            Mix::C => "100% read, zipfian",
            Mix::D => "95% read-latest / 5% insert",
            Mix::E => "95% scan / 5% insert",
        }
    }

    /// Per-mille threshold below which an op is a *write* (update or
    /// insert); reads/scans above.
    fn write_per_mille(self) -> u64 {
        match self {
            Mix::A => 500,
            Mix::B | Mix::D | Mix::E => 50,
            Mix::C => 0,
        }
    }
}

#[derive(Clone)]
struct Opts {
    smoke: bool,
    addr: Option<String>,
    clients: usize,
    window: usize,
    records: usize,
    ops: usize,
    mixes: Vec<Mix>,
    /// Total scheduled arrival rate of the open-loop pass (ops/s).
    open_rate: u64,
    /// Client counts for the mix C reader-scaling sweep.
    client_sweep: Vec<usize>,
    /// Per-worker queue-depth cap for the embedded server (0 = server
    /// default).  Setting it small turns the open-loop pass into an
    /// overload run: requests over the cap are shed with `Overloaded`, the
    /// oracle is relaxed (shed writes never execute) and the shed rate is
    /// reported instead of asserted to be zero.
    queue_depth: usize,
}

fn parse_opts() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut opts = Opts {
        smoke,
        addr: None,
        clients: if smoke { 4 } else { 8 },
        window: if smoke { 64 } else { 128 },
        records: if smoke { 2_000 } else { 20_000 },
        ops: if smoke { 4_000 } else { 50_000 },
        mixes: vec![Mix::A, Mix::B, Mix::C, Mix::D, Mix::E],
        open_rate: 40_000,
        client_sweep: vec![1, 2, 4, 8],
        queue_depth: 0,
    };
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i)
            .unwrap_or_else(|| panic!("{flag} takes a value"))
            .clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => opts.addr = Some(value(&args, &mut i, "--addr")),
            "--clients" => opts.clients = value(&args, &mut i, "--clients").parse().unwrap(),
            "--window" => opts.window = value(&args, &mut i, "--window").parse().unwrap(),
            "--records" => opts.records = value(&args, &mut i, "--records").parse().unwrap(),
            "--ops" => opts.ops = value(&args, &mut i, "--ops").parse().unwrap(),
            "--rate" => opts.open_rate = value(&args, &mut i, "--rate").parse().unwrap(),
            "--queue-depth" => {
                opts.queue_depth = value(&args, &mut i, "--queue-depth").parse().unwrap()
            }
            "--client-sweep" => {
                // An empty list ("--client-sweep ''") skips the sweep.
                opts.client_sweep = value(&args, &mut i, "--client-sweep")
                    .split(',')
                    .filter(|n| !n.trim().is_empty())
                    .map(|n| n.trim().parse().expect("--client-sweep takes counts"))
                    .collect();
            }
            "--mix" => {
                opts.mixes = value(&args, &mut i, "--mix")
                    .split(',')
                    .map(|m| match m {
                        "a" => Mix::A,
                        "b" => Mix::B,
                        "c" => Mix::C,
                        "d" => Mix::D,
                        "e" => Mix::E,
                        other => panic!("unknown mix {other:?} (want a,b,c,d,e)"),
                    })
                    .collect();
            }
            "--smoke" | "--json" => {} // --json consumed by arg_json_path
            flag if flag.starts_with("--")
                && args.get(i.saturating_sub(1)).map(|a| a.as_str()) != Some("--json") =>
            {
                panic!("unknown flag {flag}")
            }
            _ => {}
        }
        i += 1;
    }
    assert!(opts.clients >= 1 && opts.window >= 1 && opts.records >= 1);
    opts
}

/// What a pipelined request's response must look like (checked in smoke
/// runs; ignored otherwise).
enum Expected {
    Ok,
    Value(Option<u64>),
    Entries(Vec<(Vec<u8>, u64)>),
    Any,
}

struct Pending {
    issued: Instant,
    expected: Expected,
}

/// Per-client state for one mix run: a disjoint key stripe plus its oracle,
/// updated at *send* time (valid because the stripe has exactly one writer
/// and the server keeps same-key operations in arrival order).
struct Stripe {
    mix: Mix,
    client: usize,
    keys: Vec<Vec<u8>>,
    oracle: BTreeMap<Vec<u8>, u64>,
    seq: u64,
    rng: Mt19937_64,
    zipf: Zipf,
    check: bool,
}

impl Stripe {
    fn new(mix: Mix, client: usize, records: usize, check: bool) -> Stripe {
        let keys = (0..records).map(|r| stripe_key(mix, client, r)).collect();
        Stripe {
            mix,
            client,
            keys,
            oracle: BTreeMap::new(),
            seq: 0,
            rng: Mt19937_64::new(
                0x5c3_ba5e ^ (client as u64) << 8 ^ mix.tag().as_bytes()[0] as u64,
            ),
            zipf: Zipf::new(records, 0.99),
            check,
        }
    }

    fn next_value(&mut self) -> u64 {
        self.seq += 1;
        ((self.client as u64) << 48) | self.seq
    }

    /// Draws the next operation of the mix and updates the oracle for
    /// writes.  Returns the request plus its expected response.
    fn next_op(&mut self) -> (Request, Expected) {
        let roll = self.rng.next_u64() % 1000;
        if roll < self.mix.write_per_mille() {
            match self.mix {
                Mix::D | Mix::E => {
                    // Insert: extend the stripe with a fresh, larger rank.
                    let key = stripe_key(self.mix, self.client, self.keys.len());
                    self.keys.push(key.clone());
                    let value = self.next_value();
                    self.oracle.insert(key.clone(), value);
                    (Request::Put { key, value }, Expected::Ok)
                }
                _ => {
                    // Update in place, zipfian key.
                    let key = self.keys[self.zipf.sample(&mut self.rng)].clone();
                    let value = self.next_value();
                    self.oracle.insert(key.clone(), value);
                    (Request::Put { key, value }, Expected::Ok)
                }
            }
        } else if self.mix == Mix::E {
            // Short ascending scan inside the stripe.
            let at = self.zipf.sample(&mut self.rng) % self.keys.len();
            let start = self.keys[at].clone();
            let end = stripe_upper_bound(self.mix, self.client);
            let limit = 1 + (self.rng.next_u64() % 20) as u32;
            let expected = if self.check {
                Expected::Entries(
                    self.oracle
                        .range(start.clone()..end.clone())
                        .take(limit as usize)
                        .map(|(k, v)| (k.clone(), *v))
                        .collect(),
                )
            } else {
                Expected::Any
            };
            (
                Request::Scan {
                    start,
                    end: Some(end),
                    limit,
                    reverse: false,
                },
                expected,
            )
        } else {
            // Read: zipfian over the stripe — for D skewed toward the most
            // recently inserted ranks (read-latest).
            let rank = match self.mix {
                Mix::D => {
                    let back = self.zipf.sample(&mut self.rng) % self.keys.len();
                    self.keys.len() - 1 - back
                }
                _ => self.zipf.sample(&mut self.rng),
            };
            let key = self.keys[rank].clone();
            let expected = if self.check {
                Expected::Value(self.oracle.get(&key).copied())
            } else {
                Expected::Any
            };
            (Request::Get { key }, expected)
        }
    }
}

fn stripe_key(mix: Mix, client: usize, rank: usize) -> Vec<u8> {
    format!("{}/u{client:02}k{rank:08}", mix.tag()).into_bytes()
}

/// Exclusive upper bound of a stripe's key space (`k` -> `l` after the
/// client digits, so inserts with any rank stay inside).
fn stripe_upper_bound(mix: Mix, client: usize) -> Vec<u8> {
    format!("{}/u{client:02}l", mix.tag()).into_bytes()
}

fn check_response(pending: &Pending, resp: &Response, context: &str) {
    match (&pending.expected, resp) {
        (Expected::Any, _) => {}
        (Expected::Ok, Response::Ok) => {}
        (Expected::Value(want), Response::Value(got)) => {
            assert_eq!(got, want, "{context}: stale or wrong read");
        }
        (Expected::Entries(want), Response::Entries(got)) => {
            assert_eq!(got, want, "{context}: scan diverged from oracle");
        }
        (_, other) => panic!("{context}: unexpected response {other:?}"),
    }
}

/// Drains one response, validates it, and records its latency.
fn drain_one(
    client: &mut Client,
    pending: &mut HashMap<u32, Pending>,
    hist: &mut Hist,
    context: &str,
) {
    let (id, resp) = client
        .recv()
        .unwrap_or_else(|e| panic!("{context}: recv: {e}"));
    let entry = pending
        .remove(&id)
        .unwrap_or_else(|| panic!("{context}: response for unknown id {id}"));
    check_response(&entry, &resp, context);
    hist.record(entry.issued.elapsed().as_nanos() as u64);
}

/// Pipelined load phase: populates this client's stripe.  Under an overload
/// configuration (`retry_shed`) the tiny worker queues shed some loads with
/// a retryable error; those puts are re-sent until they land, so the stripe
/// is always fully populated before the run phase.
fn load_stripe(
    client: &mut Client,
    stripe: &mut Stripe,
    window: usize,
    retry_shed: bool,
    context: &str,
) {
    fn drain(
        client: &mut Client,
        pending: &mut HashMap<u32, (Vec<u8>, u64)>,
        retry_shed: bool,
        context: &str,
    ) {
        let (id, resp) = client
            .recv()
            .unwrap_or_else(|e| panic!("{context}: recv: {e}"));
        let (key, value) = pending
            .remove(&id)
            .unwrap_or_else(|| panic!("{context}: response for unknown id {id}"));
        match resp {
            Response::Ok => {}
            Response::Error { code, .. } if retry_shed && code.is_retryable() => {
                std::thread::sleep(Duration::from_micros(200));
                let id = client.send(&Request::Put {
                    key: key.clone(),
                    value,
                });
                pending.insert(id, (key, value));
            }
            other => panic!("{context}: load answered {other:?}"),
        }
    }
    let mut pending: HashMap<u32, (Vec<u8>, u64)> = HashMap::new();
    for rank in 0..stripe.keys.len() {
        let key = stripe.keys[rank].clone();
        let value = stripe.next_value();
        stripe.oracle.insert(key.clone(), value);
        while pending.len() >= window {
            client.flush().expect("flush");
            drain(client, &mut pending, retry_shed, context);
        }
        let id = client.send(&Request::Put {
            key: key.clone(),
            value,
        });
        pending.insert(id, (key, value));
    }
    while !pending.is_empty() {
        client.flush().expect("flush");
        drain(client, &mut pending, retry_shed, context);
    }
}

/// Closed-loop run phase: keeps `window` requests in flight.
fn run_closed(
    client: &mut Client,
    stripe: &mut Stripe,
    ops: usize,
    window: usize,
    context: &str,
) -> Hist {
    let mut pending: HashMap<u32, Pending> = HashMap::new();
    let mut hist = Hist::new();
    for _ in 0..ops {
        let (req, expected) = stripe.next_op();
        // Scans carry no ordering guarantee against requests in flight on
        // other workers — in either direction — so each one runs as a
        // synchronous barrier: drain the window, send the scan alone, and
        // drain it too.  The price of an exact oracle, paid only by mix E.
        let barrier = matches!(req, Request::Scan { .. });
        if barrier && !pending.is_empty() {
            client.flush().expect("flush");
            while !pending.is_empty() {
                drain_one(client, &mut pending, &mut hist, context);
            }
        }
        while pending.len() >= window {
            client.flush().expect("flush");
            drain_one(client, &mut pending, &mut hist, context);
        }
        let id = client.send(&req);
        pending.insert(
            id,
            Pending {
                issued: Instant::now(),
                expected,
            },
        );
        if barrier {
            client.flush().expect("flush");
            while !pending.is_empty() {
                drain_one(client, &mut pending, &mut hist, context);
            }
        }
    }
    client.flush().expect("flush");
    while !pending.is_empty() {
        drain_one(client, &mut pending, &mut hist, context);
    }
    hist
}

/// Open-loop run phase: requests depart on a fixed schedule and latency is
/// measured from the *scheduled* departure, so server-side queueing during
/// overload is charged to the affected requests.
fn run_open(
    client: &mut Client,
    stripe: &mut Stripe,
    ops: usize,
    rate_per_client: f64,
    lenient: bool,
    context: &str,
) -> Hist {
    let mut pending: HashMap<u32, Pending> = HashMap::new();
    let mut hist = Hist::new();
    let interval = Duration::from_secs_f64(1.0 / rate_per_client.max(1.0));
    let start = Instant::now();
    let mut sent = 0usize;
    // Cap in-flight so a stalled server cannot buffer unbounded requests.
    let cap = 4096;
    while sent < ops || !pending.is_empty() {
        let due = sent < ops && start.elapsed() >= interval * sent as u32;
        if due && pending.len() < cap {
            let scheduled = start + interval * sent as u32;
            let (req, expected) = stripe.next_op();
            // Under a deliberate overload (tiny queue depth) any request
            // may come back `Overloaded` instead of its value, and a shed
            // write silently diverges the oracle — drop the exact checks.
            let expected = if lenient { Expected::Any } else { expected };
            // Same scan barrier as the closed loop (mix E only).
            let barrier = matches!(req, Request::Scan { .. });
            if barrier && !pending.is_empty() {
                client.flush().expect("flush");
                while !pending.is_empty() {
                    drain_one(client, &mut pending, &mut hist, context);
                }
            }
            let id = client.send(&req);
            pending.insert(
                id,
                Pending {
                    issued: scheduled,
                    expected,
                },
            );
            sent += 1;
            client.flush().expect("flush");
            if barrier {
                while !pending.is_empty() {
                    drain_one(client, &mut pending, &mut hist, context);
                }
            }
        } else if !pending.is_empty() {
            drain_one(client, &mut pending, &mut hist, context);
        } else {
            let next = start + interval * sent as u32;
            let now = Instant::now();
            if next > now {
                std::thread::sleep((next - now).min(Duration::from_millis(1)));
            }
        }
    }
    hist
}

/// Runs one mix across all client threads; returns the merged latency
/// histogram and the wall-clock seconds of the run phase.
fn run_mix(addr: &str, mix: Mix, opts: &Opts, open_loop: bool) -> (Hist, f64) {
    let rate_per_client = opts.open_rate as f64 / opts.clients as f64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|c| {
                scope.spawn(move || {
                    let context = format!("mix {}/client {c}", mix.tag());
                    let mut client = Client::connect(addr).expect("connect");
                    let mut stripe = Stripe::new(mix, c, opts.records, opts.smoke);
                    load_stripe(
                        &mut client,
                        &mut stripe,
                        opts.window,
                        opts.queue_depth > 0,
                        &context,
                    );
                    let started = Instant::now();
                    let hist = if open_loop {
                        run_open(
                            &mut client,
                            &mut stripe,
                            opts.ops,
                            rate_per_client,
                            opts.queue_depth > 0,
                            &context,
                        )
                    } else {
                        run_closed(&mut client, &mut stripe, opts.ops, opts.window, &context)
                    };
                    (hist, started.elapsed().as_secs_f64())
                })
            })
            .collect();
        let mut merged = Hist::new();
        let mut wall: f64 = 0.0;
        for handle in handles {
            let (hist, secs) = handle.join().expect("client thread");
            merged.merge(&hist);
            wall = wall.max(secs);
        }
        (merged, wall)
    })
}

/// One STATS snapshot over a fresh connection that closes right after.  A
/// long-lived control connection would sit idle through a whole phase and
/// the server closes connections idle past its `idle_timeout`.
fn stats_snapshot(addr: &str) -> StatsSnapshot {
    Client::connect(addr)
        .expect("connect stats client")
        .stats()
        .expect("stats")
}

fn delta(after: &StatsSnapshot, before: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        requests: after.requests - before.requests,
        errors: after.errors - before.errors,
        read_groups: after.read_groups - before.read_groups,
        read_ops: after.read_ops - before.read_ops,
        read_keys: after.read_keys - before.read_keys,
        write_groups: after.write_groups - before.write_groups,
        write_ops: after.write_ops - before.write_ops,
        write_keys: after.write_keys - before.write_keys,
        scans: after.scans - before.scans,
        shortcut_hits: after.shortcut_hits - before.shortcut_hits,
        shortcut_misses: after.shortcut_misses - before.shortcut_misses,
        shortcut_invalidations: after.shortcut_invalidations - before.shortcut_invalidations,
        // Occupancy is a gauge, not a counter: report the end-of-window value.
        shortcut_entries: after.shortcut_entries,
        optimistic_hits: after.optimistic_hits - before.optimistic_hits,
        optimistic_retries: after.optimistic_retries - before.optimistic_retries,
        optimistic_fallbacks: after.optimistic_fallbacks - before.optimistic_fallbacks,
        shed_requests: after.shed_requests - before.shed_requests,
        evicted_slow_clients: after.evicted_slow_clients - before.evicted_slow_clients,
        deadline_closed_conns: after.deadline_closed_conns - before.deadline_closed_conns,
        rejected_connections: after.rejected_connections - before.rejected_connections,
        failpoint_trips: after.failpoint_trips - before.failpoint_trips,
        poison_recoveries: after.poison_recoveries - before.poison_recoveries,
        // Build-time identity, not a counter: carry the end-of-window value.
        stats_version: after.stats_version,
        scan_kernel: after.scan_kernel,
    }
}

fn main() {
    let opts = parse_opts();
    let json_path = arg_json_path();
    let mut metrics: Vec<(String, f64)> = Vec::new();

    // In-process server on an ephemeral loopback port unless --addr points
    // at an external one.
    let embedded = if opts.addr.is_none() {
        let db = Arc::new(
            HyperionDb::builder()
                .shards(8)
                .config(HyperionConfig::for_strings())
                .partitioner(FibonacciPartitioner)
                .build(),
        );
        let mut config = ServerConfig::default();
        if opts.queue_depth > 0 {
            config.max_queue_depth = opts.queue_depth;
        }
        Some(Server::start(db, "127.0.0.1:0", config).expect("start server"))
    } else {
        None
    };
    let addr = match &opts.addr {
        Some(addr) => addr.clone(),
        None => embedded.as_ref().unwrap().local_addr().to_string(),
    };

    println!(
        "ycsb_throughput against {addr} ({} clients, window {}, {} records x {} ops per client{})",
        opts.clients,
        opts.window,
        opts.records,
        opts.ops,
        if opts.smoke { ", smoke + oracle" } else { "" }
    );

    // An overload run (--queue-depth) is an open-loop shedding experiment:
    // the closed-loop oracles assume no request is ever dropped, so those
    // passes (and the reader sweep) only run at the default queue depth.
    let overload = opts.queue_depth > 0;
    if overload {
        println!(
            "overload mode: per-worker queue depth capped at {}; \
             closed-loop passes skipped",
            opts.queue_depth
        );
    }

    for &mix in opts.mixes.iter().filter(|_| !overload) {
        let before = stats_snapshot(&addr);
        let (hist, wall) = run_mix(&addr, mix, &opts, false);
        let after = stats_snapshot(&addr);
        let d = delta(&after, &before);
        let total_ops = opts.clients * opts.ops;
        let kops = total_ops as f64 / wall / 1e3;
        println!(
            "mix {} closed  ({:<28}) {:>8.1} kops  {}  read-group {:.2}  write-group {:.2}  \
             optimistic {}/{}/{} (hit/retry/fallback)",
            mix.tag().to_uppercase(),
            mix.describe(),
            kops,
            hist.summary_us(),
            d.avg_read_group(),
            d.avg_write_group(),
            d.optimistic_hits,
            d.optimistic_retries,
            d.optimistic_fallbacks,
        );
        assert_eq!(d.errors, 0, "mix {}: server reported errors", mix.tag());
        let prefix = format!("ycsb/{}_closed", mix.tag());
        metrics.push((format!("{prefix}_mops"), total_ops as f64 / wall / 1e6));
        metrics.extend(hist.percentile_metrics(&prefix));
        // The acceptance bar for the pipelined zipfian read mixes: requests
        // must demonstrably coalesce into multi-key groups.
        if opts.window >= 8 && opts.clients >= 2 && mix == Mix::B {
            assert!(
                d.avg_read_group() > 1.0,
                "mix B: pipelined reads did not coalesce ({d:?})"
            );
        }
    }

    // Open-loop pass: mix B against a scheduled arrival rate.
    if opts.mixes.contains(&Mix::B) {
        let before = stats_snapshot(&addr);
        let (hist, wall) = run_mix(&addr, Mix::B, &opts, true);
        let after = stats_snapshot(&addr);
        let d = delta(&after, &before);
        let total_ops = opts.clients * opts.ops;
        let shed_rate = if d.requests == 0 {
            0.0
        } else {
            d.shed_requests as f64 / d.requests as f64
        };
        println!(
            "mix B open    ({:>6.0} ops/s scheduled     ) {:>8.1} kops  {}  read-group {:.2}  \
             shed {} ({:.2}%)",
            opts.open_rate as f64,
            total_ops as f64 / wall / 1e3,
            hist.summary_us(),
            d.avg_read_group(),
            d.shed_requests,
            shed_rate * 100.0,
        );
        if opts.queue_depth > 0 {
            // Overload run: the only acceptable errors are typed sheds.
            assert_eq!(
                d.errors, d.shed_requests,
                "open loop: non-shed errors under overload"
            );
            metrics.push(("ycsb/b_open_shed_rate".into(), shed_rate));
        } else {
            assert_eq!(d.errors, 0, "open loop: server reported errors");
        }
        metrics.extend(hist.percentile_metrics("ycsb/b_open"));
    }

    // Reader-scaling sweep: mix C (100% zipfian reads) re-run across client
    // counts, emitting a `ycsb/c_closed_c{N}_mops` curve.  Every GET flows
    // through the optimistic seqlock path on the server, so the per-window
    // STATS delta also shows how many reads validated lock-free versus
    // retried or fell back to the shard mutex.
    if opts.mixes.contains(&Mix::C) && !opts.client_sweep.is_empty() && !overload {
        println!("mix C client sweep (closed loop):");
        for &n in &opts.client_sweep {
            let sweep_opts = Opts {
                clients: n,
                ..opts.clone()
            };
            let before = stats_snapshot(&addr);
            let (hist, wall) = run_mix(&addr, Mix::C, &sweep_opts, false);
            let after = stats_snapshot(&addr);
            let d = delta(&after, &before);
            let total_ops = n * opts.ops;
            println!(
                "  c{n:<2} {:>8.1} kops  {}  optimistic hits {} retries {} fallbacks {}",
                total_ops as f64 / wall / 1e3,
                hist.summary_us(),
                d.optimistic_hits,
                d.optimistic_retries,
                d.optimistic_fallbacks,
            );
            assert_eq!(d.errors, 0, "mix C sweep (c{n}): server reported errors");
            metrics.push((
                format!("ycsb/c_closed_c{n}_mops"),
                total_ops as f64 / wall / 1e6,
            ));
        }
    }

    if let Some(path) = json_path {
        merge_into_file(&path, &metrics).expect("writing metric file");
        println!("metrics merged into {}", path.display());
    }
    println!("ok");
}
