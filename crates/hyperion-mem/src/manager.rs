//! The memory manager facade used by the Hyperion trie.

use crate::extended::{ExtendedBin, CHAIN_LEN};
use crate::pointer::HyperionPointer;
use crate::stats::{MemoryStats, SuperbinStats};
use crate::superbin::Superbin;
use crate::{chunk_size_of_superbin, superbin_for_size, CHUNKS_PER_BIN, NUM_SUPERBINS};

/// Middleware between the trie and the system allocator.
///
/// All allocations are addressed through 5-byte [`HyperionPointer`]s.  One
/// manager instance is single-threaded; concurrency is obtained by creating
/// one manager per shard (see `hyperion-core::db`).
pub struct MemoryManager {
    superbins: Vec<Superbin>,
    heap_requested: u64,
    heap_capacity: u64,
    total_allocations: u64,
    total_frees: u64,
}

impl MemoryManager {
    /// Creates an empty manager with all 64 superbins initialised (each
    /// superbin header is small; metabins and bins are created lazily).
    pub fn new() -> Self {
        let mut superbins = Vec::with_capacity(NUM_SUPERBINS);
        for id in 0..NUM_SUPERBINS {
            superbins.push(Superbin::new(id as u8));
        }
        let mut mgr = MemoryManager {
            superbins,
            heap_requested: 0,
            heap_capacity: 0,
            total_allocations: 0,
            total_frees: 0,
        };
        // Reserve the all-zero coordinate of SB0 so that a null HP never
        // aliases a real allocation.
        let reserved = mgr.superbins[0].allocate().expect("reserving null slot");
        debug_assert_eq!(reserved, (0, 0, 0));
        mgr
    }

    /// Allocates `size` bytes and returns the HP plus the usable capacity of
    /// the allocation (which is at least `size`).
    pub fn allocate(&mut self, size: usize) -> (HyperionPointer, usize) {
        crate::fail_point!("mem.alloc");
        self.total_allocations += 1;
        let sb_id = superbin_for_size(size);
        if sb_id == 0 {
            return self.allocate_extended(size);
        }
        let (mb, bin, chunk) = self.superbins[sb_id as usize]
            .allocate()
            .expect("small-allocation superbin exhausted");
        (
            HyperionPointer::new(sb_id, mb, bin, chunk),
            chunk_size_of_superbin(sb_id),
        )
    }

    fn allocate_extended(&mut self, size: usize) -> (HyperionPointer, usize) {
        let (mb, bin, chunk) = self.superbins[0]
            .allocate()
            .expect("extended superbin exhausted");
        let record = ExtendedBin::allocate(size);
        let capacity = record.capacity();
        self.heap_requested += size as u64;
        self.heap_capacity += capacity as u64;
        let hp = HyperionPointer::new(0, mb, bin, chunk);
        self.write_record(hp, record);
        (hp, capacity)
    }

    /// Frees an allocation.
    pub fn free(&mut self, hp: HyperionPointer) {
        debug_assert!(!hp.is_null(), "freeing the null HP");
        self.total_frees += 1;
        if hp.superbin() == 0 {
            let mut record = self.read_record(hp);
            if record.is_chain_head() {
                self.free_chained_inner(hp);
                return;
            }
            if record.is_valid() {
                self.heap_requested -= record.requested() as u64;
                self.heap_capacity -= record.capacity() as u64;
            }
            record.release();
            self.write_record(hp, record);
        }
        self.superbins[hp.superbin() as usize].free(hp.metabin(), hp.bin(), hp.chunk());
    }

    /// Grows or shrinks an allocation to hold at least `new_size` bytes.
    /// Returns the (possibly different) HP and the new capacity.  Existing
    /// payload bytes up to `min(old capacity, new_size)` are preserved.
    pub fn reallocate(&mut self, hp: HyperionPointer, new_size: usize) -> (HyperionPointer, usize) {
        let old_sb = hp.superbin();
        let new_sb = superbin_for_size(new_size);
        if old_sb != 0 && new_sb == old_sb {
            // Same size class: nothing to do.
            return (hp, chunk_size_of_superbin(old_sb));
        }
        if old_sb == 0 && new_sb == 0 {
            // Extended allocations grow in place; the HP stays stable.
            let mut record = self.read_record(hp);
            debug_assert!(record.is_valid(), "realloc of void extended bin");
            self.heap_requested -= record.requested() as u64;
            self.heap_capacity -= record.capacity() as u64;
            record.reallocate(new_size);
            self.heap_requested += record.requested() as u64;
            self.heap_capacity += record.capacity() as u64;
            let capacity = record.capacity();
            self.write_record(hp, record);
            return (hp, capacity);
        }
        // Size class change: allocate new, copy, free old.
        let old_capacity = self.capacity(hp);
        let old_ptr = self.resolve(hp);
        let (new_hp, new_capacity) = self.allocate(new_size);
        let new_ptr = self.resolve(new_hp);
        let copy_len = old_capacity.min(new_size).min(new_capacity);
        // Safety: both pointers reference live, non-overlapping allocations of
        // at least `copy_len` bytes owned by this manager.
        unsafe { std::ptr::copy_nonoverlapping(old_ptr, new_ptr, copy_len) };
        self.free(hp);
        (new_hp, new_capacity)
    }

    /// Translates an HP into a raw pointer to the chunk payload.
    ///
    /// For superbin 0 the returned pointer is the heap block referenced by the
    /// extended-bin record.  For chained extended bins use
    /// [`MemoryManager::resolve_chained`] instead.
    pub fn resolve(&self, hp: HyperionPointer) -> *mut u8 {
        debug_assert!(!hp.is_null(), "resolving the null HP");
        if hp.superbin() == 0 {
            let record = self.read_record(hp);
            debug_assert!(record.is_valid(), "resolving void extended bin {hp:?}");
            record.ptr()
        } else {
            self.chunk_ptr(hp)
        }
    }

    /// Usable capacity of the allocation behind `hp`.
    pub fn capacity(&self, hp: HyperionPointer) -> usize {
        if hp.superbin() == 0 {
            let record = self.read_record(hp);
            record.capacity()
        } else {
            chunk_size_of_superbin(hp.superbin())
        }
    }

    /// `true` if `hp` names the head of a chained extended bin.
    pub fn is_chained(&self, hp: HyperionPointer) -> bool {
        hp.superbin() == 0 && self.read_record(hp).is_chain_head()
    }

    // ----- chained extended bins (vertical container splits) ---------------

    /// Allocates a chained extended bin: eight consecutive SB0 chunks owned by
    /// a single HP.  All eight slots start void; populate them with
    /// [`MemoryManager::chained_set`].
    pub fn allocate_chained(&mut self) -> HyperionPointer {
        crate::fail_point!("mem.alloc");
        self.total_allocations += 1;
        let (mb, bin, first) = self.superbins[0]
            .allocate_consecutive(CHAIN_LEN)
            .expect("no room for chained extended bin");
        let head = HyperionPointer::new(0, mb, bin, first);
        for i in 0..CHAIN_LEN {
            let hp = HyperionPointer::new(0, mb, bin, first + i as u16);
            let mut record = ExtendedBin::EMPTY;
            if i == 0 {
                record.mark_chain_head();
            } else {
                record.mark_chain_member();
            }
            self.write_record(hp, record);
        }
        head
    }

    /// Allocates (or replaces) the heap block of chain slot `index` with
    /// `size` bytes and returns its pointer and capacity.
    pub fn chained_set(
        &mut self,
        head: HyperionPointer,
        index: usize,
        size: usize,
    ) -> (*mut u8, usize) {
        assert!(index < CHAIN_LEN);
        let hp = self.chain_slot(head, index);
        let mut record = self.read_record(hp);
        if record.is_valid() {
            self.heap_requested -= record.requested() as u64;
            self.heap_capacity -= record.capacity() as u64;
            record.release();
        }
        let was_head = index == 0;
        let mut fresh = ExtendedBin::allocate(size);
        if was_head {
            fresh.mark_chain_head();
        } else {
            fresh.mark_chain_member();
        }
        self.heap_requested += size as u64;
        self.heap_capacity += fresh.capacity() as u64;
        let out = (fresh.ptr(), fresh.capacity());
        self.write_record(hp, fresh);
        out
    }

    /// Grows the heap block of chain slot `index` to hold `new_size` bytes.
    pub fn chained_realloc(
        &mut self,
        head: HyperionPointer,
        index: usize,
        new_size: usize,
    ) -> (*mut u8, usize) {
        assert!(index < CHAIN_LEN);
        let hp = self.chain_slot(head, index);
        let mut record = self.read_record(hp);
        assert!(record.is_valid(), "chained_realloc on void slot");
        self.heap_requested -= record.requested() as u64;
        self.heap_capacity -= record.capacity() as u64;
        record.reallocate(new_size);
        self.heap_requested += record.requested() as u64;
        self.heap_capacity += record.capacity() as u64;
        let out = (record.ptr(), record.capacity());
        self.write_record(hp, record);
        out
    }

    /// Resolves a chained HP with a requested T-node key.  The chunk index is
    /// `key >> 5`; if that slot is void the next valid slot *below* it is
    /// returned, mirroring the paper's lookup rule.
    /// Returns `(slot index, pointer, capacity)`.
    pub fn resolve_chained(
        &self,
        head: HyperionPointer,
        key: u8,
    ) -> Option<(usize, *mut u8, usize)> {
        let start = (key >> 5) as usize;
        for index in (0..=start).rev() {
            let record = self.read_record(self.chain_slot(head, index));
            if record.is_valid() {
                return Some((index, record.ptr(), record.capacity()));
            }
        }
        None
    }

    /// One-pass read-side resolution of `hp`: chained heads resolve their
    /// slot by `hint` (chunk `hint >> 5`, falling back to the next valid
    /// slot below), plain HPs resolve directly.  Returns
    /// `(chain slot index if chained, payload pointer, capacity)`.
    ///
    /// Equivalent to `is_chained` + `resolve_chained`/`resolve` + `capacity`
    /// but reads each metadata record once — the point-lookup hot path
    /// resolves a container per descent level, so the redundant record
    /// walks were measurable.
    pub fn resolve_for_read(
        &self,
        hp: HyperionPointer,
        hint: u8,
    ) -> Option<(Option<usize>, *mut u8, usize)> {
        if hp.superbin() != 0 {
            return Some((
                None,
                self.chunk_ptr(hp),
                chunk_size_of_superbin(hp.superbin()),
            ));
        }
        let head = self.read_record(hp);
        if !head.is_chain_head() {
            debug_assert!(head.is_valid(), "resolving void extended bin {hp:?}");
            return Some((None, head.ptr(), head.capacity()));
        }
        let start = (hint >> 5) as usize;
        for index in (0..=start).rev() {
            let record = if index == 0 {
                head
            } else {
                self.read_record(self.chain_slot(hp, index))
            };
            if record.is_valid() {
                return Some((Some(index), record.ptr(), record.capacity()));
            }
        }
        None
    }

    /// The smallest valid slot index strictly greater than `after` in a
    /// chained extended bin, if any.  Allocation-free companion of
    /// [`MemoryManager::chained_valid_slots`] for read-side slot routing.
    pub fn chained_next_valid_slot(&self, head: HyperionPointer, after: usize) -> Option<usize> {
        ((after + 1)..CHAIN_LEN).find(|&i| self.read_record(self.chain_slot(head, i)).is_valid())
    }

    /// Returns the valid slot indices of a chained extended bin.
    pub fn chained_valid_slots(&self, head: HyperionPointer) -> Vec<usize> {
        (0..CHAIN_LEN)
            .filter(|&i| self.read_record(self.chain_slot(head, i)).is_valid())
            .collect()
    }

    /// Capacity of one chain slot (0 if void).
    pub fn chained_capacity(&self, head: HyperionPointer, index: usize) -> usize {
        let record = self.read_record(self.chain_slot(head, index));
        if record.is_valid() {
            record.capacity()
        } else {
            0
        }
    }

    /// Pointer of one chain slot (None if void).
    pub fn chained_ptr(&self, head: HyperionPointer, index: usize) -> Option<*mut u8> {
        let record = self.read_record(self.chain_slot(head, index));
        if record.is_valid() {
            Some(record.ptr())
        } else {
            None
        }
    }

    fn free_chained_inner(&mut self, head: HyperionPointer) {
        for i in 0..CHAIN_LEN {
            let hp = self.chain_slot(head, i);
            let mut record = self.read_record(hp);
            if record.is_valid() {
                self.heap_requested -= record.requested() as u64;
                self.heap_capacity -= record.capacity() as u64;
            }
            record.release();
            self.write_record(hp, record);
            self.superbins[0].free(hp.metabin(), hp.bin(), hp.chunk());
        }
    }

    fn chain_slot(&self, head: HyperionPointer, index: usize) -> HyperionPointer {
        HyperionPointer::new(0, head.metabin(), head.bin(), head.chunk() + index as u16)
    }

    // ----- extended-bin record storage --------------------------------------

    fn chunk_ptr(&self, hp: HyperionPointer) -> *mut u8 {
        let sb = &self.superbins[hp.superbin() as usize];
        let chunk_size = sb.chunk_size();
        sb.metabin(hp.metabin())
            .bin(hp.bin())
            .chunk_ptr(hp.chunk(), chunk_size)
    }

    fn read_record(&self, hp: HyperionPointer) -> ExtendedBin {
        debug_assert_eq!(hp.superbin(), 0);
        let ptr = self.chunk_ptr(hp) as *const ExtendedBin;
        // Safety: SB0 chunks are exactly 16 bytes (size_of::<ExtendedBin>())
        // and exclusively written through write_record.
        unsafe { std::ptr::read_unaligned(ptr) }
    }

    fn write_record(&mut self, hp: HyperionPointer, record: ExtendedBin) {
        debug_assert_eq!(hp.superbin(), 0);
        let ptr = self.chunk_ptr(hp) as *mut ExtendedBin;
        // Safety: see read_record.
        unsafe { std::ptr::write_unaligned(ptr, record) };
    }

    // ----- statistics --------------------------------------------------------

    /// Collects the per-superbin statistics used for Figures 14 and 16.
    pub fn stats(&self) -> MemoryStats {
        let mut superbins = Vec::with_capacity(NUM_SUPERBINS);
        let mut materialised = 0u64;
        for sb in &self.superbins {
            let chunk_size = sb.chunk_size();
            let mut allocated = 0u64;
            let mut existing = 0u64;
            for mb in sb.metabins() {
                for bin in mb.bins() {
                    if bin.has_segment() {
                        materialised += 1;
                        // Only slab-resident chunks count as existing: the
                        // untouched remainder of the bin is never committed.
                        existing += (bin.segment_bytes(chunk_size) / chunk_size) as u64;
                        allocated += bin.used() as u64;
                    }
                }
            }
            let empty = existing - allocated;
            let (alloc_bytes, empty_bytes) = if sb.id() == 0 {
                (
                    allocated * chunk_size as u64 + self.heap_capacity,
                    empty * chunk_size as u64,
                )
            } else {
                (allocated * chunk_size as u64, empty * chunk_size as u64)
            };
            superbins.push(SuperbinStats {
                superbin: sb.id(),
                chunk_size,
                allocated_chunks: allocated,
                empty_chunks: empty,
                allocated_bytes: alloc_bytes,
                empty_bytes,
            });
        }
        MemoryStats {
            superbins,
            heap_requested_bytes: self.heap_requested,
            heap_capacity_bytes: self.heap_capacity,
            materialised_segments: materialised,
            total_allocations: self.total_allocations,
            total_frees: self.total_frees,
        }
    }

    /// Total logical bytes currently consumed by the manager.
    ///
    /// Counts the chunks in use plus the heap capacity of extended bins plus
    /// the per-bin metadata (bitmap and housekeeping, 521 bytes per bin as in
    /// the paper).  Untouched chunks of a materialised segment are *not*
    /// counted: the paper backs segments with anonymous `mmap`, whose
    /// untouched pages do not consume physical memory, and measures RSS.  The
    /// never-touched part of a boxed segment plays the same role here (see
    /// DESIGN.md).  `stats()` still reports empty chunks separately as
    /// external fragmentation (Figures 14 and 16).
    pub fn footprint_bytes(&self) -> u64 {
        const BIN_METADATA_BYTES: u64 = 521;
        let mut total = self.heap_capacity;
        for sb in &self.superbins {
            let chunk_size = sb.chunk_size() as u64;
            for mb in sb.metabins() {
                for bin in mb.bins() {
                    if bin.has_segment() {
                        total += bin.used() as u64 * chunk_size + BIN_METADATA_BYTES;
                    }
                }
            }
        }
        total
    }
}

impl Default for MemoryManager {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for MemoryManager {
    fn drop(&mut self) {
        // Release every extended heap block still referenced from SB0 chunks.
        let sb0 = &self.superbins[0];
        let mut pending = Vec::new();
        for (mb_id, mb) in sb0.metabins().enumerate() {
            for (bin_id, bin) in mb.bins().enumerate() {
                if !bin.has_segment() {
                    continue;
                }
                for chunk in 0..CHUNKS_PER_BIN as u16 {
                    if bin.is_allocated(chunk) {
                        pending.push(HyperionPointer::new(0, mb_id as u16, bin_id as u8, chunk));
                    }
                }
            }
        }
        for hp in pending {
            let mut record = self.read_record(hp);
            record.release();
            self.write_record(hp, record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_allocation_round_trip() {
        let mut mm = MemoryManager::new();
        let (hp, cap) = mm.allocate(40);
        assert_eq!(hp.superbin(), 2);
        assert_eq!(cap, 64);
        let ptr = mm.resolve(hp);
        unsafe { std::ptr::write_bytes(ptr, 0x77, cap) };
        assert_eq!(mm.capacity(hp), 64);
        mm.free(hp);
    }

    #[test]
    fn extended_allocation_keeps_hp_on_growth() {
        let mut mm = MemoryManager::new();
        let (hp, cap) = mm.allocate(5000);
        assert_eq!(hp.superbin(), 0);
        assert!(cap >= 5000);
        let (hp2, cap2) = mm.reallocate(hp, 50_000);
        assert_eq!(hp, hp2, "extended reallocation must keep the HP stable");
        assert!(cap2 >= 50_000);
        mm.free(hp2);
    }

    #[test]
    fn realloc_small_to_extended_preserves_payload() {
        let mut mm = MemoryManager::new();
        let (hp, cap) = mm.allocate(2016);
        let ptr = mm.resolve(hp);
        unsafe { std::ptr::write_bytes(ptr, 0x42, cap) };
        let (hp2, cap2) = mm.reallocate(hp, 4000);
        assert_ne!(hp, hp2);
        assert!(cap2 >= 4000);
        let data = unsafe { std::slice::from_raw_parts(mm.resolve(hp2), 2016) };
        assert!(data.iter().all(|&b| b == 0x42));
        mm.free(hp2);
    }

    #[test]
    fn realloc_within_same_class_is_a_noop() {
        let mut mm = MemoryManager::new();
        let (hp, _) = mm.allocate(33);
        let (hp2, cap2) = mm.reallocate(hp, 60);
        assert_eq!(hp, hp2);
        assert_eq!(cap2, 64);
        mm.free(hp2);
    }

    #[test]
    fn many_allocations_get_distinct_memory() {
        let mut mm = MemoryManager::new();
        let mut hps = Vec::new();
        for i in 0..10_000usize {
            let (hp, cap) = mm.allocate(32);
            let ptr = mm.resolve(hp);
            unsafe { std::ptr::write_bytes(ptr, (i % 251) as u8, cap) };
            hps.push((hp, (i % 251) as u8));
        }
        for (hp, tag) in &hps {
            let data = unsafe { std::slice::from_raw_parts(mm.resolve(*hp), 32) };
            assert!(data.iter().all(|b| b == tag));
        }
        for (hp, _) in hps {
            mm.free(hp);
        }
        let stats = mm.stats();
        // Only the reserved null slot remains allocated.
        assert_eq!(stats.allocated_chunks(), 1);
    }

    #[test]
    fn chained_bins_resolve_by_key_hint() {
        let mut mm = MemoryManager::new();
        let head = mm.allocate_chained();
        assert!(mm.is_chained(head));
        // Populate slots 0 and 5 (key ranges [0,159] and [160,255] as in the
        // paper's Figure 11 example).
        mm.chained_set(head, 0, 3000);
        mm.chained_set(head, 5, 3000);
        let (idx, _, _) = mm.resolve_chained(head, 110).unwrap();
        assert_eq!(idx, 0, "keys below 160 resolve to slot 0");
        let (idx, _, _) = mm.resolve_chained(head, 200).unwrap();
        assert_eq!(idx, 5, "keys >= 160 resolve to slot 5");
        let (idx, _, _) = mm.resolve_chained(head, 255).unwrap();
        assert_eq!(idx, 5);
        assert_eq!(mm.chained_valid_slots(head), vec![0, 5]);
        mm.free(head);
        let stats = mm.stats();
        assert_eq!(stats.heap_capacity_bytes, 0);
    }

    #[test]
    fn stats_track_allocated_and_empty_chunks() {
        let mut mm = MemoryManager::new();
        let mut hps = Vec::new();
        for _ in 0..100 {
            hps.push(mm.allocate(32).0);
        }
        let stats = mm.stats();
        let sb1 = &stats.superbins[1];
        assert_eq!(sb1.allocated_chunks, 100);
        // 100 chunks touch two 64-chunk slabs; only resident chunks count as
        // existing, so the empty tail is 128 - 100, not 4096 - 100.
        assert_eq!(sb1.empty_chunks, 2 * crate::bin::SLAB_CHUNKS as u64 - 100);
        assert_eq!(sb1.allocated_bytes, 3200);
        for hp in hps {
            mm.free(hp);
        }
    }

    #[test]
    fn footprint_counts_used_chunks_and_heap() {
        let mut mm = MemoryManager::new();
        let base = mm.footprint_bytes();
        let (hp, _) = mm.allocate(64);
        let grown = mm.footprint_bytes();
        assert!(grown >= base + 64, "used chunk must be counted");
        assert!(
            grown < base + (CHUNKS_PER_BIN * 64) as u64,
            "untouched chunks of the segment must not be counted"
        );
        let (ehp, cap) = mm.allocate(10_000);
        assert!(mm.footprint_bytes() >= grown + cap as u64);
        mm.free(hp);
        mm.free(ehp);
    }
}
