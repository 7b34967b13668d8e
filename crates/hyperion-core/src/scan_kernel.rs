//! Container scans: the [`ContainerScanner`] API over the exact-fit node
//! stream.
//!
//! A container holds one layout: the header, the optional container jump
//! table, then the T/S records in pre-order (see [`crate::container`]).
//! Every find loop of the read engine decodes only one record's key byte at
//! a time, derives the skip distance from the flag byte alone, and parses
//! exactly one record — the match.  The container jump table and the T-node
//! jump tables seed the walks close to their targets.
//!
//! The point finds ([`ContainerScanner::find_t`]/[`ContainerScanner::find_s`])
//! serve single-key descents; the resume-capable finds
//! ([`ContainerScanner::find_t_from`]/[`ContainerScanner::find_s_from`])
//! carry a [`Resume`] state across the sorted probes of a batch so each
//! record is walked at most once.
//!
//! Every loop tolerates torn streams: an optimistic reader racing a writer
//! may see a flag byte of the wrong kind, and the loops then miss instead of
//! asserting (the seqlock validation discards the read).

use crate::container::ContainerRef;
use crate::node::{parse_s_node, parse_t_node, SNode, TNode};
use crate::node::{HP_SIZE, JS_SIZE, TNODE_JT_SIZE, VALUE_SIZE};
use crate::scan::{cjt_seed, tnode_jt_seed};

/// The container scan kernel a map runs, reported through
/// [`DbStats`](crate::DbStats) and the server's STATS verb.
///
/// There is one layout and one kernel, so the enum has a single variant;
/// it keeps the stats surface and its wire id stable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScanBackend {
    /// The exact-fit layout and scalar scan loops of the paper.
    #[default]
    Scalar,
}

impl ScanBackend {
    /// Name of the kernel (`"scalar"`), surfaced through
    /// [`DbStats`](crate::DbStats) so the active kernel is observable.
    pub fn kernel_name(self) -> &'static str {
        match self {
            ScanBackend::Scalar => "scalar",
        }
    }

    /// Stable numeric id for wire encodings (STATS verb): `0` is scalar.
    pub fn kernel_id(self) -> u64 {
        match self {
            ScanBackend::Scalar => 0,
        }
    }
}

/// Resume state of a lean batched scan: the offset of the next unvisited
/// record and the delta-decoding predecessor key at that offset.
pub struct Resume {
    /// Offset of the next unvisited record (or the region end).
    pub pos: usize,
    /// Key of the record preceding `pos`, `None` when `pos` starts a run.
    pub prev: Option<u8>,
}

/// `true` if the flag byte marks unused (zeroed) memory.
#[inline(always)]
fn flag_invalid(flag: u8) -> bool {
    flag & 0b11 == 0
}

/// `true` if the flag byte denotes a T record.
#[inline(always)]
fn flag_is_t(flag: u8) -> bool {
    flag & 0b100 == 0
}

/// `true` if the record stores an inline value (`NodeType::LeafWithValue`).
#[inline(always)]
fn flag_has_value(flag: u8) -> bool {
    flag & 0b11 == 0b11
}

/// Offset just past the S record at `pos`, derived from the flag byte alone
/// (no `SNode` is materialised).
#[inline(always)]
fn s_record_end(bytes: &[u8], pos: usize) -> usize {
    let flag = bytes[pos];
    let explicit = (flag >> 3) & 0b111 == 0;
    let mut cursor =
        pos + 1 + explicit as usize + if flag_has_value(flag) { VALUE_SIZE } else { 0 };
    match (flag >> 6) & 0b11 {
        0 => {}
        1 => cursor += HP_SIZE,
        2 => cursor += (bytes[cursor] as usize).max(1),
        _ => cursor += ((bytes[cursor] & 0x7f) as usize).max(1),
    }
    cursor
}

/// Offset of the T sibling following the record at `pos`, using the
/// jump-successor offset when present and a lean S-record walk otherwise.
#[inline]
fn t_skip(bytes: &[u8], pos: usize, end: usize) -> usize {
    let flag = bytes[pos];
    let explicit = (flag >> 3) & 0b111 == 0;
    let mut cursor =
        pos + 1 + explicit as usize + if flag_has_value(flag) { VALUE_SIZE } else { 0 };
    if flag & (1 << 6) != 0 {
        let v = u16::from_le_bytes([bytes[cursor], bytes[cursor + 1]]) as usize;
        if v != 0 {
            return (pos + v).min(end);
        }
        cursor += JS_SIZE;
    }
    if flag & (1 << 7) != 0 {
        cursor += TNODE_JT_SIZE;
    }
    let mut p = cursor;
    while p < end {
        let f = bytes[p];
        if flag_invalid(f) || flag_is_t(f) {
            break;
        }
        p = s_record_end(bytes, p);
    }
    p.min(end)
}

/// A scanner over one container's node stream.
///
/// The four find loops of the read engine route through this API:
/// [`find_t`](Self::find_t)/[`find_s`](Self::find_s) (point descents) and
/// [`find_t_from`](Self::find_t_from)/[`find_s_from`](Self::find_s_from)
/// (batched resumes).
#[derive(Clone, Copy)]
pub struct ContainerScanner<'a> {
    c: &'a ContainerRef,
}

impl<'a> ContainerScanner<'a> {
    /// Opens a scanner over one container.
    pub fn new(c: &'a ContainerRef) -> ContainerScanner<'a> {
        ContainerScanner { c }
    }

    /// Finds the T record with key `target` in `[start, end)`, or `None`.
    /// `use_cjt` marks a top-level region scan, whose start the container
    /// jump table may seed (embedded windows pass `false`).
    pub fn find_t(&self, start: usize, end: usize, target: u8, use_cjt: bool) -> Option<TNode> {
        let bytes = self.c.bytes();
        let mut pos = start;
        if use_cjt {
            if let Some(seed) = cjt_seed(self.c, target, pos, end) {
                pos = seed;
            }
        }
        // The first visited record is always explicit-key (region starts and
        // CJT targets are), so a zero predecessor never leaks into a decoded
        // key.
        let mut prev: u8 = 0;
        while pos < end {
            let flag = bytes[pos];
            if flag_invalid(flag) {
                return None;
            }
            // An S flag here means the stream is torn (optimistic reader
            // racing a writer): miss gracefully, the seqlock validation
            // discards it.
            if !flag_is_t(flag) {
                return None;
            }
            let delta = (flag >> 3) & 0b111;
            let key = if delta == 0 {
                bytes[pos + 1]
            } else {
                prev.wrapping_add(delta)
            };
            if key >= target {
                if key > target {
                    return None;
                }
                return parse_t_node(bytes, pos, Some(prev));
            }
            prev = key;
            pos = t_skip(bytes, pos, end);
        }
        None
    }

    /// Finds the S record with key `target` among `t`'s children, seeded by
    /// `t`'s jump table when it has one.
    pub fn find_s(&self, t: &TNode, end: usize, target: u8) -> Option<SNode> {
        let bytes = self.c.bytes();
        let mut pos = t.header_end;
        if let Some(jt_off) = t.jt_offset {
            if let Some(seed) = tnode_jt_seed(self.c, t.offset, jt_off, target, pos, end) {
                pos = seed;
            }
        }
        let mut prev: u8 = 0;
        while pos < end {
            let flag = bytes[pos];
            if flag_invalid(flag) || flag_is_t(flag) {
                return None;
            }
            let delta = (flag >> 3) & 0b111;
            let key = if delta == 0 {
                bytes[pos + 1]
            } else {
                prev.wrapping_add(delta)
            };
            if key >= target {
                if key > target {
                    return None;
                }
                return parse_s_node(bytes, pos, Some(prev));
            }
            prev = key;
            pos = s_record_end(bytes, pos);
        }
        None
    }

    /// Resume-capable T find: continues from (and updates) `state` so a
    /// sorted batch walks each record at most once.  On a match the state
    /// resumes past the record's subtree; on a miss it rests at the first
    /// record past the target with its true delta predecessor.
    pub fn find_t_from(
        &self,
        state: &mut Resume,
        end: usize,
        target: u8,
        use_cjt: bool,
    ) -> Option<TNode> {
        let bytes = self.c.bytes();
        if use_cjt {
            if let Some(seed) = cjt_seed(self.c, target, state.pos, end) {
                state.pos = seed;
                state.prev = None;
            }
        }
        loop {
            let pos = state.pos;
            if pos >= end {
                return None;
            }
            let flag = bytes[pos];
            if flag_invalid(flag) {
                return None;
            }
            // Torn stream (see `find_t`): miss instead of asserting.
            if !flag_is_t(flag) {
                return None;
            }
            let delta = (flag >> 3) & 0b111;
            let key = if delta == 0 {
                bytes[pos + 1]
            } else {
                state.prev.unwrap_or(0).wrapping_add(delta)
            };
            if key >= target {
                if key > target {
                    return None;
                }
                let t = parse_t_node(bytes, pos, state.prev);
                // Resume past this record's subtree for the next probe.
                state.pos = t_skip(bytes, pos, end);
                state.prev = Some(key);
                return t;
            }
            state.prev = Some(key);
            state.pos = t_skip(bytes, pos, end);
        }
    }

    /// Resume-capable S find below the T record described by `jt` (its
    /// offset and jump-table offset); same state contract as
    /// [`find_t_from`](Self::find_t_from).
    pub fn find_s_from(
        &self,
        state: &mut Resume,
        end: usize,
        target: u8,
        jt: (usize, Option<usize>),
    ) -> Option<SNode> {
        let bytes = self.c.bytes();
        if let (t_off, Some(jt_off)) = jt {
            if let Some(seed) = tnode_jt_seed(self.c, t_off, jt_off, target, state.pos, end) {
                state.pos = seed;
                state.prev = None;
            }
        }
        loop {
            let pos = state.pos;
            if pos >= end {
                return None;
            }
            let flag = bytes[pos];
            if flag_invalid(flag) || flag_is_t(flag) {
                return None;
            }
            let delta = (flag >> 3) & 0b111;
            let key = if delta == 0 {
                bytes[pos + 1]
            } else {
                state.prev.unwrap_or(0).wrapping_add(delta)
            };
            if key >= target {
                if key > target {
                    return None;
                }
                let s = parse_s_node(bytes, pos, state.prev);
                state.pos = s_record_end(bytes, pos);
                state.prev = Some(key);
                return s;
            }
            state.prev = Some(key);
            state.pos = s_record_end(bytes, pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperion_mem::MemoryManager;

    #[test]
    fn scanner_finds_every_record_of_a_built_container() {
        use crate::builder::{Entry, StreamBuilder};
        use crate::config::HyperionConfig;
        let mut mm = MemoryManager::new();
        let config = HyperionConfig::default();
        let entries: Vec<Entry> = (0u16..60)
            .map(|i| (vec![(i * 4) as u8, (i % 7) as u8], i as u64))
            .collect();
        let stream = {
            let mut b = StreamBuilder::new(&mut mm, &config);
            b.build_stream(None, &entries)
        };
        let c = ContainerRef::create(&mut mm, &stream);
        let scanner = ContainerScanner::new(&c);
        let (start, end) = (c.stream_start(), c.stream_end());
        for i in 0u16..60 {
            let t = scanner
                .find_t(start, end, (i * 4) as u8, true)
                .expect("find_t");
            let s = scanner.find_s(&t, end, (i % 7) as u8).expect("find_s");
            assert_eq!(s.key, (i % 7) as u8);
            assert!(scanner.find_s(&t, end, 7).is_none());
        }
        assert!(scanner.find_t(start, end, 1, true).is_none());
        // A sorted batch resumes through the region once.
        let mut state = Resume {
            pos: start,
            prev: None,
        };
        for i in 0u16..60 {
            let t = scanner
                .find_t_from(&mut state, end, (i * 4) as u8, true)
                .expect("find_t_from");
            let mut s_state = Resume {
                pos: t.header_end,
                prev: None,
            };
            let s = scanner
                .find_s_from(&mut s_state, end, (i % 7) as u8, (t.offset, t.jt_offset))
                .expect("find_s_from");
            assert_eq!(s.key, (i % 7) as u8);
        }
        assert!(scanner.find_t_from(&mut state, end, 255, true).is_none());
    }
}
