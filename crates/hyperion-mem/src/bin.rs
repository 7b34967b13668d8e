//! A *bin*: 4,096 fixed-size chunks, backed by lazily materialised slabs.
//!
//! Bins track chunk occupancy with a 4,096-bit bitmap.  The backing memory is
//! split into [`SLAB_CHUNKS`]-chunk slabs that are allocated on first use.
//! The paper materialises the whole 4,096-chunk segment with one `mmap` and
//! relies on the kernel to commit pages lazily; a `Vec`-backed reproduction
//! has no such luxury — `vec![0u8; ...]` commits every page — so a bin that
//! hands out a single chunk must not pin `4096 × chunk_size` bytes of
//! physical memory.  (A sharded store whose containers grow through many
//! size classes would otherwise commit gigabytes for megabytes of data.)
//!
//! Slabs never move once materialised (each is an individually boxed
//! allocation), so raw chunk pointers stay stable for the lifetime of the
//! bin — the same stability guarantee the single-segment layout gave.

use crate::CHUNKS_PER_BIN;

const BITMAP_WORDS: usize = CHUNKS_PER_BIN / 64;

/// Chunks per lazily allocated slab.  64 chunks bound the worst-case
/// committed-but-unused memory per touched bin to `64 × chunk_size` bytes
/// (at most ~126 KiB for the largest superbin class).
pub const SLAB_CHUNKS: usize = 64;

const SLABS_PER_BIN: usize = CHUNKS_PER_BIN / SLAB_CHUNKS;

/// One bin of 4,096 chunks of a fixed chunk size.
pub struct Bin {
    /// Lazily materialised slabs of `SLAB_CHUNKS * chunk_size` bytes each.
    slabs: Vec<Option<Box<[u8]>>>,
    /// Occupancy bitmap: bit set = chunk in use.
    bitmap: [u64; BITMAP_WORDS],
    /// Number of chunks currently in use.
    used: u16,
}

impl Bin {
    /// Creates an empty bin with no backing memory yet.
    pub fn new() -> Self {
        Bin {
            slabs: Vec::new(),
            bitmap: [0; BITMAP_WORDS],
            used: 0,
        }
    }

    /// Number of chunks currently allocated from this bin.
    #[inline]
    pub fn used(&self) -> u16 {
        self.used
    }

    /// `true` once any backing slab has been materialised.
    #[inline]
    pub fn has_segment(&self) -> bool {
        self.slabs.iter().any(|s| s.is_some())
    }

    /// `true` if every chunk is in use.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.used as usize == CHUNKS_PER_BIN
    }

    /// Returns whether the given chunk is currently allocated.
    #[inline]
    pub fn is_allocated(&self, chunk: u16) -> bool {
        let idx = chunk as usize;
        (self.bitmap[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Materialises the slab holding `chunk`, if it is not resident yet.
    fn ensure_slab(&mut self, chunk: usize, chunk_size: usize) {
        let slab = chunk / SLAB_CHUNKS;
        debug_assert!(slab < SLABS_PER_BIN);
        if self.slabs.len() <= slab {
            self.slabs.resize_with(slab + 1, || None);
        }
        if self.slabs[slab].is_none() {
            self.slabs[slab] = Some(vec![0u8; SLAB_CHUNKS * chunk_size].into_boxed_slice());
        }
    }

    /// Allocates one chunk, materialising its slab if needed, and returns its
    /// index.  Returns `None` if the bin is full.
    ///
    /// The free-chunk search scans the bitmap 64 bits at a time; the paper uses
    /// SIMD for the same purpose, word-level bit scanning is the portable
    /// equivalent.
    pub fn allocate(&mut self, chunk_size: usize) -> Option<u16> {
        if self.is_full() {
            return None;
        }
        for (w, word) in self.bitmap.iter_mut().enumerate() {
            if *word != u64::MAX {
                let bit = (!*word).trailing_zeros() as usize;
                *word |= 1u64 << bit;
                self.used += 1;
                let idx = w * 64 + bit;
                self.ensure_slab(idx, chunk_size);
                return Some(idx as u16);
            }
        }
        None
    }

    /// Marks a specific chunk as allocated (used by chained extended bins that
    /// need consecutive chunk indices).  Returns `false` if already in use.
    pub fn allocate_specific(&mut self, chunk: u16, chunk_size: usize) -> bool {
        if self.is_allocated(chunk) {
            return false;
        }
        let idx = chunk as usize;
        self.ensure_slab(idx, chunk_size);
        self.bitmap[idx / 64] |= 1u64 << (idx % 64);
        self.used += 1;
        true
    }

    /// Finds `count` consecutive free chunks and allocates them, returning the
    /// first index.  Used for chained extended bins.
    pub fn allocate_consecutive(&mut self, count: usize, chunk_size: usize) -> Option<u16> {
        if (self.used as usize) + count > CHUNKS_PER_BIN {
            return None;
        }
        let mut run = 0usize;
        let mut start = 0usize;
        for idx in 0..CHUNKS_PER_BIN {
            if self.is_allocated(idx as u16) {
                run = 0;
            } else {
                if run == 0 {
                    start = idx;
                }
                run += 1;
                if run == count {
                    for c in start..start + count {
                        self.allocate_specific(c as u16, chunk_size);
                    }
                    return Some(start as u16);
                }
            }
        }
        None
    }

    /// Releases a chunk and zeroes its memory so stale data cannot leak into
    /// the next allocation (the trie relies on zero-initialised memory to mark
    /// invalid nodes).
    pub fn free(&mut self, chunk: u16, chunk_size: usize) {
        debug_assert!(self.is_allocated(chunk), "double free of chunk {chunk}");
        let idx = chunk as usize;
        self.bitmap[idx / 64] &= !(1u64 << (idx % 64));
        self.used -= 1;
        if let Some(Some(slab)) = self.slabs.get_mut(idx / SLAB_CHUNKS) {
            let start = (idx % SLAB_CHUNKS) * chunk_size;
            slab[start..start + chunk_size].fill(0);
        }
    }

    /// Raw pointer to the start of a chunk.  The pointer stays valid for the
    /// bin's lifetime: slabs are individually boxed and never move.
    ///
    /// # Panics
    /// Panics if the chunk's slab has not been materialised.
    #[inline]
    pub fn chunk_ptr(&self, chunk: u16, chunk_size: usize) -> *mut u8 {
        let idx = chunk as usize;
        debug_assert!(idx < CHUNKS_PER_BIN);
        let slab = self.slabs[idx / SLAB_CHUNKS]
            .as_ref()
            .expect("chunk_ptr on unmaterialised slab");
        // Safety: the in-slab index is bounded by SLAB_CHUNKS and the slab is
        // exactly SLAB_CHUNKS * chunk_size bytes long.
        unsafe { slab.as_ptr().add((idx % SLAB_CHUNKS) * chunk_size) as *mut u8 }
    }

    /// Bytes of backing memory committed by this bin's resident slabs (0
    /// until materialised).  `MemoryManager::stats` derives its existing-chunk
    /// counts from this.
    #[inline]
    pub fn segment_bytes(&self, chunk_size: usize) -> usize {
        self.slabs.iter().flatten().count() * SLAB_CHUNKS * chunk_size
    }
}

impl Default for Bin {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_free_roundtrip() {
        let mut bin = Bin::new();
        let a = bin.allocate(32).unwrap();
        let b = bin.allocate(32).unwrap();
        assert_ne!(a, b);
        assert_eq!(bin.used(), 2);
        bin.free(a, 32);
        assert_eq!(bin.used(), 1);
        let c = bin.allocate(32).unwrap();
        assert_eq!(c, a, "freed chunk should be reused first");
    }

    #[test]
    fn fills_up_to_capacity() {
        let mut bin = Bin::new();
        for _ in 0..CHUNKS_PER_BIN {
            assert!(bin.allocate(16).is_some());
        }
        assert!(bin.is_full());
        assert!(bin.allocate(16).is_none());
    }

    #[test]
    fn freed_memory_is_zeroed() {
        let mut bin = Bin::new();
        let c = bin.allocate(32).unwrap();
        let ptr = bin.chunk_ptr(c, 32);
        unsafe {
            std::ptr::write_bytes(ptr, 0xAB, 32);
        }
        bin.free(c, 32);
        let c2 = bin.allocate(32).unwrap();
        assert_eq!(c2, c);
        let ptr2 = bin.chunk_ptr(c2, 32);
        let slice = unsafe { std::slice::from_raw_parts(ptr2, 32) };
        assert!(slice.iter().all(|&b| b == 0));
    }

    #[test]
    fn consecutive_allocation_finds_runs() {
        let mut bin = Bin::new();
        // Fragment the start of the bin.
        let a = bin.allocate(16).unwrap();
        let b = bin.allocate(16).unwrap();
        let c = bin.allocate(16).unwrap();
        bin.free(b, 16);
        let start = bin.allocate_consecutive(8, 16).unwrap();
        for i in 0..8 {
            assert!(bin.is_allocated(start + i));
        }
        assert!(bin.is_allocated(a));
        assert!(bin.is_allocated(c));
    }

    #[test]
    fn chunk_pointers_do_not_overlap() {
        let mut bin = Bin::new();
        let a = bin.allocate(64).unwrap();
        let b = bin.allocate(64).unwrap();
        let pa = bin.chunk_ptr(a, 64) as usize;
        let pb = bin.chunk_ptr(b, 64) as usize;
        assert!(pa.abs_diff(pb) >= 64);
    }

    #[test]
    fn one_chunk_commits_one_slab_only() {
        let mut bin = Bin::new();
        assert_eq!(bin.segment_bytes(1024), 0);
        bin.allocate(1024).unwrap();
        assert_eq!(
            bin.segment_bytes(1024),
            SLAB_CHUNKS * 1024,
            "a single allocation must commit a single slab, not the whole bin"
        );
        // Jumping to a distant chunk commits exactly one more slab.
        bin.allocate_specific((CHUNKS_PER_BIN - 1) as u16, 1024);
        assert_eq!(bin.segment_bytes(1024), 2 * SLAB_CHUNKS * 1024);
    }

    #[test]
    fn slab_pointers_stay_stable_across_later_allocations() {
        let mut bin = Bin::new();
        let first = bin.allocate(128).unwrap();
        let p_before = bin.chunk_ptr(first, 128) as usize;
        for _ in 0..CHUNKS_PER_BIN - 1 {
            bin.allocate(128).unwrap();
        }
        assert!(bin.is_full());
        let p_after = bin.chunk_ptr(first, 128) as usize;
        assert_eq!(
            p_before, p_after,
            "materialising later slabs must not move earlier ones"
        );
    }
}
