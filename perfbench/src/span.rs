//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out as one tab-separated file when the run ends.

use crate::stat::Lat;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One timed interval.  `parent` is 0 for a root span; `req` groups the
/// spans of one request (its root span's id).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A span id unique within the process.
pub fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch.
pub fn ns(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Appends a span covering `start..end`.
pub fn push(
    spans: &mut Vec<Span>,
    name: &'static str,
    (id, parent, req): (u64, u64, u64),
    start: Instant,
    end: Instant,
) {
    spans.push(Span {
        name,
        id,
        parent,
        req,
        start_ns: ns(start),
        end_ns: ns(end),
    });
}

/// Median self time per span name: a span's duration minus the part of it
/// its children cover.
pub fn self_time_p50_ns(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_insert(0) += s.dur_ns();
    }
    let mut by_name: BTreeMap<&'static str, Lat> = BTreeMap::new();
    for s in spans {
        let own = s
            .dur_ns()
            .saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        by_name.entry(s.name).or_default().record_ns(own);
    }
    by_name
        .into_iter()
        .map(|(name, mut lat)| (name, lat.quantile_ns(0.5)))
        .collect()
}

/// Writes `spans` to `path` under a `#`-prefixed metadata header.
pub fn write_file(path: &Path, meta: &[(&str, String)], spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(fs::File::create(path)?);
    for (key, value) in meta {
        writeln!(out, "# {key}\t{value}")?;
    }
    writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            req: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("request", 1, 0, 0, 100),
            span("encode", 2, 1, 0, 10),
            span("decode", 3, 1, 90, 100),
        ];
        let own = self_time_p50_ns(&spans);
        assert_eq!(own["request"], 80.0);
        assert_eq!(own["encode"], 10.0);
    }
}
