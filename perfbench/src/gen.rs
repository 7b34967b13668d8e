//! The network load generator: one connection driven by a sender thread and
//! a receiver thread, so a send that falls due is never held behind a
//! blocking receive.  Every response is checked against the answer the op
//! source predicted when it issued the request.

use crate::procfs;
use crate::span::{self, Span};
use crate::stat::{good_quartile, Better, Lat, Windows};
use hyperion_server::protocol::{decode_response, encode_request, MAX_FRAME};
use hyperion_server::{Request, Response};
use hyperion_workloads::Mt19937_64;
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// The response a request must get.
#[derive(Clone, Debug)]
pub enum Expect {
    Ok,
    Value(Option<u64>),
    Entries(Vec<(Vec<u8>, u64)>),
}

/// Which latency distribution an op counts toward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

pub struct Op {
    pub kind: Kind,
    pub req: Request,
    pub expect: Expect,
}

/// A deterministic stream of requests.  It predicts each answer at issue
/// time, which is valid because this connection is the only writer and the
/// server executes operations on one key in arrival order.
pub trait OpSource: Send {
    /// The next op, or `None` when the source is exhausted.
    fn next_op(&mut self) -> Option<Op>;
}

#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Requests fall due on a fixed schedule regardless of responses.
    Open { rate: f64 },
    /// Requests fall due at the instants of a Poisson process of `rate`
    /// per second drawn from `seed`, regardless of responses.  Unlike a
    /// fixed schedule, the arrivals cannot lock onto a period of the server
    /// (its IO threads sleep 500 µs when idle), so every request meets the
    /// server at a random phase and a quantile does not depend on which
    /// phase a run happened to start in.
    Poisson { rate: f64, seed: u64 },
    /// At most `window` requests in flight.
    Closed { window: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct PhaseOpts {
    pub pace: Pace,
    /// The phase stops issuing requests after this long.
    pub duration: Duration,
    /// Requests issued before this much of the phase has passed are checked
    /// but left out of the latency distributions.
    pub warmup: Duration,
    /// The measured part of the phase (after the warm-up) is cut into this
    /// many equal windows, each measured on its own (see [`good_quartile`]).
    pub windows: usize,
    /// Trace every `trace_stride`-th request (0: no tracing).
    pub trace_stride: u64,
    /// A response missing for this long counts every outstanding request as
    /// timed out and ends the phase.
    pub reply_timeout: Duration,
}

#[derive(Default)]
pub struct PhaseResult {
    /// Latencies per window, by the window the request was due in.
    pub read: Vec<Lat>,
    pub write: Vec<Lat>,
    /// Responses received per window.
    pub done: Vec<u64>,
    /// Process CPU seconds used per window.
    pub cpu_s: Vec<f64>,
    pub window: Duration,
    /// How late open-loop requests left the sender relative to schedule.
    pub lag: Lat,
    pub sent: u64,
    pub completed: u64,
    /// Typed error responses and timeouts.
    pub failed: u64,
    /// Responses that differ from the prediction.
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    pub spans: Vec<Span>,
}

/// The scheduled departures of an open-loop phase.
struct Arrivals {
    start: Instant,
    rate: f64,
    /// `None` for a fixed schedule.
    rng: Option<Mt19937_64>,
    issued: u64,
    /// Seconds from `start` to the next departure.
    next_s: f64,
}

impl Arrivals {
    fn new(pace: Pace, start: Instant) -> Option<Arrivals> {
        let (rate, rng) = match pace {
            Pace::Open { rate } => (rate, None),
            Pace::Poisson { rate, seed } => (rate, Some(Mt19937_64::new(seed))),
            Pace::Closed { .. } => return None,
        };
        Some(Arrivals {
            start,
            rate,
            rng,
            issued: 0,
            next_s: 0.0,
        })
    }

    fn next_due(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.next_s)
    }

    fn advance(&mut self) {
        self.issued += 1;
        self.next_s = match &mut self.rng {
            None => self.issued as f64 / self.rate,
            // An exponential gap; `1 - u` is in (0, 1], so the log is finite.
            Some(rng) => self.next_s - (1.0 - rng.next_f64()).ln() / self.rate,
        };
    }
}

/// What the sender tells the receiver: a request it issued, or that it is
/// done after `sent` requests.
enum Msg {
    Sent(u32, Pending),
    Done(u64),
}

struct Pending {
    start: Instant,
    kind: Kind,
    expect: Expect,
    span: u64,
    window: Option<usize>,
}

impl PhaseResult {
    /// The `q`-quantile of `kind` over each window, summarised as the
    /// windows' lower quartile (see [`good_quartile`]).
    pub fn quantile_us(&mut self, kind: Kind, q: f64) -> f64 {
        let lats = match kind {
            Kind::Read => &mut self.read,
            Kind::Write => &mut self.write,
        };
        let per_window: Vec<f64> = lats
            .iter_mut()
            .filter(|l| l.count() > 0)
            .map(|l| l.quantile_us(q))
            .collect();
        good_quartile(&per_window, Better::Lower)
    }

    pub fn samples(&self, kind: Kind) -> u64 {
        let lats = match kind {
            Kind::Read => &self.read,
            Kind::Write => &self.write,
        };
        lats.iter().map(Lat::count).sum()
    }

    /// Responses per second over each window, summarised as the windows'
    /// upper quartile.
    pub fn throughput(&self) -> f64 {
        let per_window: Vec<f64> = self
            .done
            .iter()
            .map(|&n| n as f64 / self.window.as_secs_f64())
            .collect();
        good_quartile(&per_window, Better::Higher)
    }

    /// Process CPU time per response over each window, summarised as the
    /// windows' lower quartile.
    pub fn cpu_us_per_op(&self) -> f64 {
        let per_window: Vec<f64> = self
            .cpu_s
            .iter()
            .zip(&self.done)
            .filter(|(_, &n)| n > 0)
            .map(|(cpu, &n)| cpu * 1e6 / n as f64)
            .collect();
        good_quartile(&per_window, Better::Lower)
    }
}

/// Runs one phase over `stream`.  The calling thread stays free while the
/// sender and receiver work and calls `keepalive` every `keepalive_every`,
/// which is how a control connection is kept open through a long phase.
pub fn run_phase(
    stream: &TcpStream,
    source: &mut dyn OpSource,
    opts: PhaseOpts,
    keepalive_every: Duration,
    keepalive: &mut dyn FnMut(),
) -> io::Result<PhaseResult> {
    let reader = stream.try_clone()?;
    reader.set_read_timeout(Some(opts.reply_timeout))?;
    let (tx, rx) = mpsc::channel::<Msg>();
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let start = Instant::now();
    let windows = Windows::new(
        start + opts.warmup,
        opts.duration.saturating_sub(opts.warmup),
        opts.windows,
    );
    std::thread::scope(|scope| {
        let sender =
            scope.spawn(move || send_loop(stream, source, opts, start, windows, tx, credit_rx));
        let receiver = scope.spawn(move || recv_loop(reader, windows, rx, credit_tx));
        let mut last_ping = Instant::now();
        let cpu_s = windows.sample_cpu(
            &|| sender.is_finished() && receiver.is_finished(),
            &mut || {
                if last_ping.elapsed() >= keepalive_every {
                    keepalive();
                    last_ping = Instant::now();
                }
            },
        );
        let (lag, sent, enc_spans) = sender.join().expect("sender thread panicked")?;
        let mut result = receiver.join().expect("receiver thread panicked");
        result.cpu_s = cpu_s;
        result.lag = lag;
        result.sent = sent;
        result.spans.extend(enc_spans);
        Ok(result)
    })
}

type SendOutcome = io::Result<(Lat, u64, Vec<Span>)>;

fn send_loop(
    mut stream: &TcpStream,
    source: &mut dyn OpSource,
    opts: PhaseOpts,
    start: Instant,
    windows: Windows,
    tx: Sender<Msg>,
    credits: Receiver<()>,
) -> SendOutcome {
    let end = start + opts.duration;
    let warm_end = start + opts.warmup;
    let mut lag = Lat::new();
    let mut spans = Vec::new();
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut issuer = Issuer {
        tx,
        next_id: 1,
        sent: 0,
        trace_stride: opts.trace_stride,
        windows,
    };
    let mut due_in_batch: Vec<Instant> = Vec::new();
    let mut window = match opts.pace {
        Pace::Closed { window } => window,
        Pace::Open { .. } | Pace::Poisson { .. } => 0,
    };
    let mut exhausted = false;
    let mut arrivals = Arrivals::new(opts.pace, start);
    if arrivals.is_some() {
        procfs::precise_sleeps();
    }
    loop {
        let now = Instant::now();
        if now >= end || exhausted {
            break;
        }
        match &mut arrivals {
            Some(arrivals) => {
                // Everything due by now leaves in one write.
                while arrivals.next_due() <= now {
                    let scheduled = arrivals.next_due();
                    let Some(op) = source.next_op() else {
                        exhausted = true;
                        break;
                    };
                    issuer.issue(op, scheduled, &mut buf, &mut spans);
                    due_in_batch.push(scheduled);
                    arrivals.advance();
                }
                stream.write_all(&buf)?;
                buf.clear();
                let departed = Instant::now();
                for scheduled in due_in_batch.drain(..) {
                    if scheduled >= warm_end {
                        lag.record(departed - scheduled);
                    }
                }
                let next = arrivals.next_due();
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                }
            }
            None => {
                if window == 0 {
                    match credits.recv_timeout(end.saturating_duration_since(now)) {
                        Ok(()) => window += 1,
                        Err(RecvTimeoutError::Timeout) => break,
                        // The receiver gave up (a timeout): stop sending.
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                while let Ok(()) = credits.try_recv() {
                    window += 1;
                }
                let Some(op) = source.next_op() else {
                    break;
                };
                let now = Instant::now();
                issuer.issue(op, now, &mut buf, &mut spans);
                window -= 1;
                stream.write_all(&buf)?;
                buf.clear();
            }
        }
    }
    let Issuer { tx, sent, .. } = issuer;
    let _ = tx.send(Msg::Done(sent));
    Ok((lag, sent, spans))
}

/// Encodes ops and hands their predictions to the receiver.
struct Issuer {
    tx: Sender<Msg>,
    next_id: u32,
    sent: u64,
    trace_stride: u64,
    windows: Windows,
}

impl Issuer {
    /// Encodes `op` into `buf` and passes its prediction on before the bytes
    /// leave, so a response can never outrun it.
    fn issue(&mut self, op: Op, scheduled: Instant, buf: &mut Vec<u8>, spans: &mut Vec<Span>) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let traced = self.trace_stride > 0 && self.sent % self.trace_stride == 0;
        let span_id = if traced { span::fresh_id() } else { 0 };
        let t0 = traced.then(Instant::now);
        encode_request(id, &op.req, buf);
        if let Some(t0) = t0 {
            let t1 = Instant::now();
            span::push(
                spans,
                "protocol.encode",
                (span::fresh_id(), span_id, span_id),
                t0,
                t1,
            );
        }
        self.sent += 1;
        // Fails only once the receiver has given up on the connection.
        let _ = self.tx.send(Msg::Sent(
            id,
            Pending {
                start: scheduled,
                kind: op.kind,
                expect: op.expect,
                span: span_id,
                window: self.windows.of(scheduled),
            },
        ));
    }
}

fn recv_loop(
    reader: TcpStream,
    windows: Windows,
    rx: Receiver<Msg>,
    credits: Sender<()>,
) -> PhaseResult {
    let mut result = PhaseResult {
        read: (0..windows.count()).map(|_| Lat::new()).collect(),
        write: (0..windows.count()).map(|_| Lat::new()).collect(),
        done: vec![0; windows.count()],
        window: windows.len(),
        ..PhaseResult::default()
    };
    let mut reader = BufReader::with_capacity(256 * 1024, reader);
    let mut pending: HashMap<u32, Pending> = HashMap::new();
    let mut total: Option<u64> = None;
    let mut body = Vec::new();
    let absorb = |msg: Msg, pending: &mut HashMap<u32, Pending>, total: &mut Option<u64>| match msg
    {
        Msg::Sent(id, p) => {
            pending.insert(id, p);
        }
        Msg::Done(sent) => *total = Some(sent),
    };
    loop {
        while let Ok(msg) = rx.try_recv() {
            absorb(msg, &mut pending, &mut total);
        }
        if pending.is_empty() {
            if total == Some(result.completed + result.failed) {
                break;
            }
            // Nothing is outstanding, so no response can arrive before the
            // sender's next message.
            match rx.recv() {
                Ok(msg) => absorb(msg, &mut pending, &mut total),
                Err(_) => break,
            }
            continue;
        }
        let frame = read_frame(&mut reader, &mut body);
        let received = Instant::now();
        if let Err(e) = frame {
            // Timeouts and transport failures: every outstanding request is
            // lost, and so is every one the sender still issues.
            result.failed += pending.len() as u64;
            pending.clear();
            if result.first_mismatch.is_none() && e.kind() != io::ErrorKind::WouldBlock {
                result.first_mismatch = Some(format!("connection failed: {e}"));
            }
            drop(credits);
            for msg in rx.iter() {
                match msg {
                    Msg::Sent(..) => result.failed += 1,
                    Msg::Done(_) => break,
                }
            }
            break;
        }
        let decode_start = Instant::now();
        let decoded = decode_response(&body);
        let decode_end = Instant::now();
        let (id, response) = match decoded {
            Ok(decoded) => decoded,
            Err(e) => {
                result.mismatches += 1;
                result
                    .first_mismatch
                    .get_or_insert_with(|| format!("undecodable response: {e}"));
                continue;
            }
        };
        let p = loop {
            if let Some(p) = pending.remove(&id) {
                break Some(p);
            }
            match rx.recv() {
                Ok(msg) => absorb(msg, &mut pending, &mut total),
                Err(_) => break None,
            }
        };
        let Some(p) = p else {
            result.mismatches += 1;
            result
                .first_mismatch
                .get_or_insert_with(|| format!("response for unknown request id {id}"));
            continue;
        };
        let _ = credits.send(());
        match check(&p.expect, &response) {
            Verdict::Correct => {
                result.completed += 1;
                if let Some(w) = p.window {
                    let lat = received - p.start;
                    match p.kind {
                        Kind::Read => result.read[w].record(lat),
                        Kind::Write => result.write[w].record(lat),
                    }
                }
                if let Some(w) = windows.of(received) {
                    result.done[w] += 1;
                }
            }
            Verdict::Failed => result.failed += 1,
            Verdict::Wrong(why) => {
                result.completed += 1;
                result.mismatches += 1;
                result.first_mismatch.get_or_insert(why);
            }
        }
        if p.span != 0 {
            span::push(
                &mut result.spans,
                "protocol.decode",
                (span::fresh_id(), p.span, p.span),
                decode_start,
                decode_end,
            );
            span::push(
                &mut result.spans,
                "request",
                (p.span, 0, p.span),
                p.start,
                decode_end,
            );
        }
    }
    result
}

/// Reads one length-prefixed response frame into `body`.
fn read_frame(reader: &mut impl Read, body: &mut Vec<u8>) -> io::Result<()> {
    let mut len = [0u8; 4];
    reader.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if !(5..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response frame of {len} bytes"),
        ));
    }
    body.resize(len, 0);
    reader.read_exact(body)
}

enum Verdict {
    Correct,
    /// A typed error: the request was refused or failed, not answered wrongly.
    Failed,
    Wrong(String),
}

fn check(expect: &Expect, response: &Response) -> Verdict {
    match (expect, response) {
        (_, Response::Error { .. }) => Verdict::Failed,
        (Expect::Ok, Response::Ok) => Verdict::Correct,
        (Expect::Value(want), Response::Value(got)) if want == got => Verdict::Correct,
        (Expect::Entries(want), Response::Entries(got)) if want == got => Verdict::Correct,
        (want, got) => Verdict::Wrong(format!("expected {want:?}, got {got:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn departures(pace: Pace, n: usize) -> Vec<f64> {
        let start = Instant::now();
        let mut arrivals = Arrivals::new(pace, start).expect("an open-loop pace");
        (0..n)
            .map(|_| {
                let at = (arrivals.next_due() - start).as_secs_f64();
                arrivals.advance();
                at
            })
            .collect()
    }

    #[test]
    fn fixed_arrivals_keep_the_rate_exactly() {
        let at = departures(Pace::Open { rate: 1000.0 }, 5);
        for (i, t) in at.iter().enumerate() {
            assert!((t - i as f64 / 1000.0).abs() < 1e-9, "{at:?}");
        }
    }

    #[test]
    fn poisson_arrivals_are_seeded_and_keep_the_mean_rate() {
        let pace = |seed| Pace::Poisson { rate: 1000.0, seed };
        let a = departures(pace(7), 20_000);
        assert_eq!(a, departures(pace(7), 20_000));
        assert_ne!(a, departures(pace(8), 20_000));
        assert!(a.windows(2).all(|w| w[1] >= w[0]));
        // 20 000 exponential gaps of mean 1 ms: the total is 20 s within a
        // few standard deviations (0.14 s each).
        assert!((a[a.len() - 1] - 20.0).abs() < 0.6, "{}", a[a.len() - 1]);
        // Unlike a fixed schedule, the gaps vary: about 63% are shorter
        // than the mean.
        let short = a.windows(2).filter(|w| w[1] - w[0] < 1e-3).count();
        assert!((12_000..13_300).contains(&short), "{short}");
    }
}
