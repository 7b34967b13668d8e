//! The layer ladder: the workload's op sample replayed on identical data
//! through each rung, one layer more per rung:
//!
//! 1. a bare `HyperionMap` (`trie.*`, `mem.*`);
//! 2. a 1-shard `HyperionDb` (routing, seqlock and error plumbing);
//! 3. the workload's own sharded `HyperionDb` (`db.*`);
//! 4. the wire protocol: the same requests and the rung-3 answers through
//!    `encode_*`, `FrameBuf` and `decode_*` (`protocol.*`);
//! 5. the loopback request through the embedded server, open loop.
//!
//! Every rung replays its reads and scans before its writes, so all rungs
//! read the same loaded data; a layer's self time is the difference between
//! two rungs.  Every answer is checked.

use crate::gen::{Expect, Kind, Op, OpSource, Pace, PhaseOpts};
use crate::net::{self, Control, Probe};
use crate::report::Layers;
use crate::span::{self, Span};
use crate::stat::{ratio, Lat};
use hyperion_core::{HyperionConfig, HyperionDb, HyperionDbBuilder, HyperionMap, WriteBatch};
use hyperion_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, MAX_FRAME,
};
use hyperion_server::{FrameBuf, FrameEvent, Request, Response, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keys per load batch, on every rung.
const LOAD_BATCH: usize = 1 << 16;
/// Rung 5 sends the read sample at YCSB B's rate and the scan sample at
/// YCSB E's.
const GET_RATE: f64 = 40_000.0;
const SCAN_RATE: f64 = 1_000.0;

pub struct ScanProbe {
    pub start: Vec<u8>,
    pub end: Option<Vec<u8>>,
    pub limit: usize,
    pub expect: Vec<(Vec<u8>, u64)>,
}

pub enum LadderWrite {
    Put(Vec<u8>, u64),
    Del(Vec<u8>),
}

pub struct LadderInput<'a> {
    /// The configuration of every trie on every rung.
    pub config: HyperionConfig,
    /// The workload's db builder; rung 2 narrows it to one shard.
    pub builder: &'a dyn Fn() -> HyperionDbBuilder,
    /// The data set, in load order.
    pub load: &'a [(&'a [u8], u64)],
    /// Point reads with their answers on the loaded data.
    pub reads: &'a [(Vec<u8>, Option<u64>)],
    pub scans: &'a [ScanProbe],
    /// Applied after the reads and scans, in order.
    pub writes: &'a [LadderWrite],
    /// The workload reads by SCAN (YCSB E) rather than GET.
    pub read_is_scan: bool,
    /// The server's measured read group size (0 when the run had none).
    pub read_group: f64,
}

pub struct LadderOut {
    /// `trie.*`, `db.*`, `protocol.*` and `mem.*` metrics.
    pub layers: Layers,
    /// `gen.*` and `server.*` metrics of the rung-5 GET replay.
    pub loopback: Layers,
    /// Median protocol and db time of the workload's read op (ns), and of a
    /// rung-5 request of that op (us).
    pub read_protocol_ns: f64,
    pub read_db_ns: f64,
    pub read_loopback_us: f64,
    pub table: Vec<String>,
    pub spans: Vec<Span>,
    pub errors: Vec<String>,
}

/// Times `f` as a span named `name` under `parent`.
fn timed<R>(
    spans: &mut Vec<Span>,
    lat: &mut Lat,
    name: &'static str,
    parent: u64,
    f: impl FnOnce() -> R,
) -> R {
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    lat.record(t1 - t0);
    let id = span::fresh_id();
    span::push(spans, name, (id, parent, id), t0, t1);
    r
}

struct Rung {
    id: u64,
    start: Instant,
    name: &'static str,
}

impl Rung {
    fn open(name: &'static str) -> Rung {
        Rung {
            id: span::fresh_id(),
            start: Instant::now(),
            name,
        }
    }

    fn close(self, spans: &mut Vec<Span>) {
        span::push(
            spans,
            self.name,
            (self.id, 0, self.id),
            self.start,
            Instant::now(),
        );
    }
}

#[derive(Default)]
struct Ops {
    get: Lat,
    seek: Lat,
    next_per_entry: Lat,
    scan: Lat,
    put: Lat,
    del: Lat,
}

impl Ops {
    fn row(&mut self, rung: &str) -> String {
        let p50 = |lat: &mut Lat| {
            if lat.count() == 0 {
                "-".to_string()
            } else {
                format!("{:.0}", lat.quantile_ns(0.5))
            }
        };
        format!(
            "{rung:<22} {:>10} {:>10} {:>10} {:>10}",
            p50(&mut self.get),
            p50(&mut self.scan),
            p50(&mut self.put),
            p50(&mut self.del)
        )
    }
}

fn load_db(db: &HyperionDb, load: &[(&[u8], u64)]) {
    for chunk in load.chunks(LOAD_BATCH) {
        let mut batch = WriteBatch::with_capacity(chunk.len());
        for (k, v) in chunk {
            batch.put(k, *v);
        }
        db.apply(&batch).expect("loading the ladder db");
    }
}

pub fn run(input: LadderInput) -> LadderOut {
    let mut out = LadderOut {
        layers: Layers::default(),
        loopback: Layers::default(),
        read_protocol_ns: 0.0,
        read_db_ns: 0.0,
        read_loopback_us: 0.0,
        table: vec![format!(
            "{:<22} {:>10} {:>10} {:>10} {:>10}",
            "rung (p50 ns)", "get", "scan", "put", "delete"
        )],
        spans: Vec::new(),
        errors: Vec::new(),
    };
    let writes_total = input.writes.len() as f64;
    let mut spans = Vec::new();

    // Rung 1: the bare trie.
    let rung = Rung::open("ladder.trie");
    let mut map = HyperionMap::with_config(input.config);
    for chunk in input.load.chunks(LOAD_BATCH) {
        map.put_many(chunk.iter().copied());
    }
    let used = map.analyze().container_used_bytes as f64;
    let allocated = map.memory_manager().stats().allocated_bytes() as f64;
    out.layers
        .set("mem.capacity_over_requested", ratio(allocated, used));
    let mut r1 = Ops::default();
    let mut wrong = 0usize;
    for (key, want) in input.reads {
        let got = timed(&mut spans, &mut r1.get, "trie.get", rung.id, || {
            map.get(key)
        });
        wrong += usize::from(got != *want);
    }
    for probe in input.scans {
        let t0 = Instant::now();
        let mut cursor = map.cursor();
        cursor.seek(&probe.start);
        let t1 = Instant::now();
        let mut got = Vec::with_capacity(probe.limit);
        while got.len() < probe.limit {
            match cursor.next() {
                Some((k, v)) if probe.end.as_ref().map_or(true, |end| k < *end) => got.push((k, v)),
                _ => break,
            }
        }
        let t2 = Instant::now();
        r1.seek.record(t1 - t0);
        r1.scan.record(t2 - t0);
        if !got.is_empty() {
            r1.next_per_entry
                .record_ns(((t2 - t1).as_nanos() / got.len() as u128) as u64);
        }
        let id = span::fresh_id();
        span::push(&mut spans, "trie.seek", (id, rung.id, id), t0, t1);
        let id = span::fresh_id();
        span::push(&mut spans, "trie.next", (id, rung.id, id), t1, t2);
        wrong += usize::from(got != probe.expect);
    }
    let allocs = map.memory_manager().stats().total_allocations;
    for w in input.writes {
        match w {
            LadderWrite::Put(k, v) => {
                timed(&mut spans, &mut r1.put, "trie.put", rung.id, || {
                    map.put(k, *v)
                });
            }
            LadderWrite::Del(k) => {
                timed(&mut spans, &mut r1.del, "trie.delete", rung.id, || {
                    map.delete(k)
                });
            }
        }
    }
    let allocs = map.memory_manager().stats().total_allocations - allocs;
    out.layers.set(
        "mem.allocs_per_kput",
        ratio(allocs as f64 * 1e3, writes_total),
    );
    drop(map);
    rung.close(&mut spans);
    out.layers.set("trie.get_ns", r1.get.quantile_ns(0.5));
    out.layers.set("trie.put_ns", r1.put.quantile_ns(0.5));
    out.layers.set("trie.seek_ns", r1.seek.quantile_ns(0.5));
    out.layers
        .set("trie.next_ns", r1.next_per_entry.quantile_ns(0.5));
    out.table.push(r1.row("1 HyperionMap"));

    // Rung 2: one shard behind the db's routing and seqlock.
    let rung = Rung::open("ladder.db_1shard");
    let db1 = (input.builder)().shards(1).build();
    load_db(&db1, input.load);
    let mut r2 = Ops::default();
    wrong += db_reads_and_scans(&db1, &input, &mut r2, &mut spans, rung.id, &DB1_SPANS, None);
    db_writes(&db1, &input, &mut r2, &mut spans, rung.id, &DB1_SPANS);
    drop(db1);
    rung.close(&mut spans);
    out.layers.set(
        "db.route_ns",
        r2.get.quantile_ns(0.5) - r1.get.quantile_ns(0.5),
    );
    out.table.push(r2.row("2 HyperionDb, 1 shard"));

    // Rung 3: the workload's sharded db.  Its reads and scans run first,
    // then rung 5 on the same, still unwritten data, then its writes.
    let rung = Rung::open("ladder.db");
    let db = Arc::new((input.builder)().build());
    load_db(&db, input.load);
    let mut r3 = Ops::default();
    let mut buffered = (0usize, 0usize);
    wrong += db_reads_and_scans(
        &db,
        &input,
        &mut r3,
        &mut spans,
        rung.id,
        &DB_SPANS,
        Some(&mut buffered),
    );
    out.layers.set(
        "db.scan_buffered_per_returned",
        ratio(buffered.0 as f64, buffered.1 as f64),
    );
    let mut per_shard = vec![0u64; db.shard_count()];
    let keys = input
        .reads
        .iter()
        .map(|(k, _)| k)
        .chain(input.scans.iter().map(|p| &p.start))
        .chain(input.writes.iter().map(|w| match w {
            LadderWrite::Put(k, _) | LadderWrite::Del(k) => k,
        }));
    for key in keys {
        per_shard[db.shard_of(key)] += 1;
    }
    let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    out.layers.set("db.shard_skew", ratio(max, mean));

    let (loopback_get_us, loopback_scan_us) = loopback(&db, &input, &mut out, &mut spans);
    let group = if input.read_group > 0.0 {
        input.read_group
    } else {
        out.loopback.get("server.read_group_avg")
    }
    .round()
    .max(1.0) as usize;
    let mut multi = Lat::new();
    for chunk in input.reads.chunks(group) {
        let keys: Vec<&[u8]> = chunk.iter().map(|(k, _)| k.as_slice()).collect();
        let t0 = Instant::now();
        let got = db.multi_get(&keys);
        let t1 = Instant::now();
        multi.record_ns(((t1 - t0).as_nanos() / chunk.len() as u128) as u64);
        let id = span::fresh_id();
        span::push(&mut spans, "db.multi_get", (id, rung.id, id), t0, t1);
        let want: Vec<Option<u64>> = chunk.iter().map(|(_, v)| *v).collect();
        wrong += usize::from(got.ok() != Some(want));
    }
    out.layers
        .set("db.multi_get_ns_per_key", multi.quantile_ns(0.5));
    let deleted = db_writes(&db, &input, &mut r3, &mut spans, rung.id, &DB_SPANS);
    if let Err(e) = db.validate_structure() {
        out.errors.push(format!("ladder validate_structure: {e}"));
    }
    drop(db);
    rung.close(&mut spans);
    out.layers.set("db.get_ns", r3.get.quantile_ns(0.5));
    out.layers.set("db.put_ns", r3.put.quantile_ns(0.5));
    out.layers.set("db.scan_ns", r3.scan.quantile_ns(0.5));
    out.read_db_ns = if input.read_is_scan {
        r3.scan.quantile_ns(0.5)
    } else {
        r3.get.quantile_ns(0.5)
    };
    out.table.push(r3.row("3 HyperionDb, sharded"));

    // Rung 4: the workload's own requests and the rung-3 answers through
    // the wire protocol.
    let rung = Rung::open("ladder.protocol");
    let mut enc = Lat::new();
    let mut dec = Lat::new();
    let mut bytes = 0usize;
    let mut ops = 0usize;
    let mut r4 = Ops::default();
    let reads = input
        .reads
        .iter()
        .filter(|_| !input.read_is_scan)
        .map(|(k, v)| {
            (
                Request::Get { key: k.clone() },
                Response::Value(*v),
                "protocol.get",
            )
        });
    let scans = input.scans.iter().filter(|_| input.read_is_scan).map(|p| {
        (
            Request::Scan {
                start: p.start.clone(),
                end: p.end.clone(),
                limit: p.limit as u32,
                reverse: false,
            },
            Response::Entries(p.expect.clone()),
            "protocol.scan",
        )
    });
    let mut deleted = deleted.into_iter();
    let writes = input.writes.iter().map(|w| match w {
        LadderWrite::Put(key, value) => (
            Request::Put {
                key: key.clone(),
                value: *value,
            },
            Response::Ok,
            "protocol.put",
        ),
        LadderWrite::Del(key) => (
            Request::Del { key: key.clone() },
            Response::Deleted(deleted.next().unwrap_or(false)),
            "protocol.delete",
        ),
    });
    let mut req_buf = Vec::new();
    let mut resp_buf = Vec::new();
    for (id, (req, resp, name)) in reads.chain(scans).chain(writes).enumerate() {
        let id = id as u32 + 1;
        req_buf.clear();
        resp_buf.clear();
        let t0 = Instant::now();
        encode_request(id, &req, &mut req_buf);
        encode_response(id, &resp, &mut resp_buf);
        let t1 = Instant::now();
        let mut frames = FrameBuf::new(MAX_FRAME);
        frames.extend(&req_buf);
        let req_ok = match frames.next_event() {
            Some(FrameEvent::Frame(body)) => decode_request(&body).ok() == Some((id, req)),
            _ => false,
        };
        let mut frames = FrameBuf::new(MAX_FRAME);
        frames.extend(&resp_buf);
        let resp_ok = match frames.next_event() {
            Some(FrameEvent::Frame(body)) => decode_response(&body).ok() == Some((id, resp)),
            _ => false,
        };
        let t2 = Instant::now();
        wrong += usize::from(!(req_ok && resp_ok));
        enc.record(t1 - t0);
        dec.record(t2 - t1);
        let lat = match name {
            "protocol.get" => &mut r4.get,
            "protocol.scan" => &mut r4.scan,
            "protocol.put" => &mut r4.put,
            _ => &mut r4.del,
        };
        lat.record(t2 - t0);
        let parent = span::fresh_id();
        span::push(&mut spans, name, (parent, rung.id, parent), t0, t2);
        let id = span::fresh_id();
        span::push(&mut spans, "protocol.encode", (id, parent, parent), t0, t1);
        let id = span::fresh_id();
        span::push(&mut spans, "protocol.decode", (id, parent, parent), t1, t2);
        bytes += req_buf.len() + resp_buf.len();
        ops += 1;
    }
    rung.close(&mut spans);
    out.layers.set("protocol.encode_ns", enc.quantile_ns(0.5));
    out.layers.set("protocol.decode_ns", dec.quantile_ns(0.5));
    out.layers
        .set("protocol.bytes_per_op", ratio(bytes as f64, ops as f64));
    out.read_protocol_ns = if input.read_is_scan {
        r4.scan.quantile_ns(0.5)
    } else {
        r4.get.quantile_ns(0.5)
    };
    out.table.push(r4.row("4 protocol alone"));
    out.table.push(format!(
        "{:<22} {:>10.0} {:>10.0} {:>10} {:>10}",
        "5 loopback, open loop",
        loopback_get_us * 1e3,
        loopback_scan_us * 1e3,
        "-",
        "-"
    ));
    out.read_loopback_us = if input.read_is_scan {
        loopback_scan_us
    } else {
        loopback_get_us
    };
    if wrong > 0 {
        out.errors
            .push(format!("ladder: {wrong} answers differ from the oracle"));
    }
    out.spans = spans;
    out
}

/// The span names of one db rung.
struct SpanNames {
    get: &'static str,
    scan: &'static str,
    put: &'static str,
    delete: &'static str,
}

const DB1_SPANS: SpanNames = SpanNames {
    get: "db1.get",
    scan: "db1.scan",
    put: "db1.put",
    delete: "db1.delete",
};

const DB_SPANS: SpanNames = SpanNames {
    get: "db.get",
    scan: "db.scan",
    put: "db.put",
    delete: "db.delete",
};

/// Reads and scans on a db rung; returns the number of wrong answers.
/// `buffered` accumulates (peak buffered entries, entries returned).
fn db_reads_and_scans(
    db: &HyperionDb,
    input: &LadderInput,
    ops: &mut Ops,
    spans: &mut Vec<Span>,
    parent: u64,
    names: &SpanNames,
    mut buffered: Option<&mut (usize, usize)>,
) -> usize {
    let mut wrong = 0;
    for (key, want) in input.reads {
        let got = timed(spans, &mut ops.get, names.get, parent, || db.get(key));
        wrong += usize::from(got.ok() != Some(*want));
    }
    for probe in input.scans {
        let (got, peak) = timed(spans, &mut ops.scan, names.scan, parent, || {
            let mut scan = match &probe.end {
                Some(end) => db.range(probe.start.as_slice()..end.as_slice()),
                None => db.range(probe.start.as_slice()..),
            };
            let got: Vec<(Vec<u8>, u64)> = scan.by_ref().take(probe.limit).collect();
            (got, scan.peak_buffered())
        });
        if let Some(b) = buffered.as_deref_mut() {
            b.0 += peak;
            b.1 += got.len();
        }
        wrong += usize::from(got != probe.expect);
    }
    wrong
}

/// Writes on a db rung; returns what each delete reported.
fn db_writes(
    db: &HyperionDb,
    input: &LadderInput,
    ops: &mut Ops,
    spans: &mut Vec<Span>,
    parent: u64,
    names: &SpanNames,
) -> Vec<bool> {
    let mut deleted = Vec::new();
    for w in input.writes {
        match w {
            LadderWrite::Put(k, v) => {
                let _ = timed(spans, &mut ops.put, names.put, parent, || db.put(k, *v));
            }
            LadderWrite::Del(k) => {
                let removed = timed(spans, &mut ops.del, names.delete, parent, || db.delete(k));
                deleted.push(removed.unwrap_or(false));
            }
        }
    }
    deleted
}

struct Replay(std::vec::IntoIter<Op>);

impl OpSource for Replay {
    fn next_op(&mut self) -> Option<Op> {
        self.0.next()
    }
}

/// Rung 5: the read sample and then the scan sample sent open loop through
/// the embedded server over `db`.  Returns the median GET and SCAN
/// latency (us) and fills `out.loopback` from the GET replay.
fn loopback(
    db: &Arc<HyperionDb>,
    input: &LadderInput,
    out: &mut LadderOut,
    spans: &mut Vec<Span>,
) -> (f64, f64) {
    let rung = Rung::open("ladder.loopback");
    let config = ServerConfig::default();
    let mut server =
        Server::start(Arc::clone(db), "127.0.0.1:0", config).expect("start the ladder server");
    let mut control = Control::new(&server, &config);
    let stream = net::connect(&server);
    let gets: Vec<Op> = input
        .reads
        .iter()
        .map(|(k, v)| Op {
            kind: Kind::Read,
            req: Request::Get { key: k.clone() },
            expect: Expect::Value(*v),
        })
        .collect();
    let scans: Vec<Op> = input
        .scans
        .iter()
        .map(|p| Op {
            kind: Kind::Read,
            req: Request::Scan {
                start: p.start.clone(),
                end: p.end.clone(),
                limit: p.limit as u32,
                reverse: false,
            },
            expect: Expect::Entries(p.expect.clone()),
        })
        .collect();
    let opts = |rate: f64, n: usize| PhaseOpts {
        pace: Pace::Open { rate },
        duration: Duration::from_secs_f64(n as f64 / rate + 1.0),
        warmup: Duration::ZERO,
        windows: 1,
        trace_stride: 1,
        reply_timeout: Duration::from_secs(10),
    };
    let n_gets = gets.len();
    let before = Probe::take(&mut control, db);
    let mut get_phase = control.phase(
        &stream,
        &mut Replay(gets.into_iter()),
        opts(GET_RATE, n_gets),
    );
    let after = Probe::take(&mut control, db);
    net::window_layers(&before, &after, get_phase.sent, 0, &mut out.loopback);
    out.loopback
        .set("gen.lag_p99_us", get_phase.lag.quantile_us(0.99));
    let n_scans = scans.len();
    let mut scan_phase = control.phase(
        &stream,
        &mut Replay(scans.into_iter()),
        opts(SCAN_RATE, n_scans),
    );
    for (name, phase) in [("loopback GET", &get_phase), ("loopback SCAN", &scan_phase)] {
        if phase.mismatches > 0 || phase.failed > 0 || phase.first_mismatch.is_some() {
            out.errors.push(format!(
                "{name}: {} wrong, {} failed; {}",
                phase.mismatches,
                phase.failed,
                phase.first_mismatch.as_deref().unwrap_or("")
            ));
        }
    }
    for s in get_phase.spans.drain(..).chain(scan_phase.spans.drain(..)) {
        spans.push(Span {
            parent: if s.parent == 0 { rung.id } else { s.parent },
            ..s
        });
    }
    drop(stream);
    server.shutdown();
    rung.close(spans);
    (
        get_phase.quantile_us(Kind::Read, 0.5),
        scan_phase.quantile_us(Kind::Read, 0.5),
    )
}
