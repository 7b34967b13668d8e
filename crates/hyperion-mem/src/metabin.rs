//! A *metabin*: 256 bins plus a non-full-bin bitmap for fast allocation.

use crate::bin::Bin;
use crate::{BINS_PER_METABIN, CHUNKS_PER_BIN};

/// One metabin grouping 256 bins of the same size class.
pub struct Metabin {
    bins: Vec<Bin>,
    /// Bit set = bin has at least one free chunk.
    nonfull: [u64; BINS_PER_METABIN / 64],
    used_chunks: u32,
}

impl Metabin {
    /// Creates a metabin with 256 empty bins.
    pub fn new() -> Self {
        let mut bins = Vec::with_capacity(BINS_PER_METABIN);
        bins.resize_with(BINS_PER_METABIN, Bin::new);
        Metabin {
            bins,
            nonfull: [u64::MAX; BINS_PER_METABIN / 64],
            used_chunks: 0,
        }
    }

    /// `true` if every chunk of every bin is in use.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.used_chunks as usize == BINS_PER_METABIN * CHUNKS_PER_BIN
    }

    /// Access a bin by index.
    #[inline]
    pub fn bin(&self, idx: u8) -> &Bin {
        &self.bins[idx as usize]
    }

    /// Allocates one chunk from the first non-full bin.
    /// Returns `(bin index, chunk index)`.
    pub fn allocate(&mut self, chunk_size: usize) -> Option<(u8, u16)> {
        loop {
            let bin_idx = self.first_nonfull_bin()?;
            let bin = &mut self.bins[bin_idx as usize];
            match bin.allocate(chunk_size) {
                Some(chunk) => {
                    self.used_chunks += 1;
                    if bin.is_full() {
                        self.mark_full(bin_idx);
                    }
                    return Some((bin_idx, chunk));
                }
                None => {
                    // Bitmap was stale; repair it and retry.
                    self.mark_full(bin_idx);
                }
            }
        }
    }

    /// Allocates `count` consecutive chunks inside one bin.
    /// Returns `(bin index, first chunk index)`.
    pub fn allocate_consecutive(&mut self, count: usize, chunk_size: usize) -> Option<(u8, u16)> {
        for bin_idx in 0..BINS_PER_METABIN {
            let bin = &mut self.bins[bin_idx];
            if bin.is_full() {
                continue;
            }
            if let Some(start) = bin.allocate_consecutive(count, chunk_size) {
                self.used_chunks += count as u32;
                if bin.is_full() {
                    self.mark_full(bin_idx as u8);
                }
                return Some((bin_idx as u8, start));
            }
        }
        None
    }

    /// Frees one chunk.
    pub fn free(&mut self, bin_idx: u8, chunk: u16, chunk_size: usize) {
        let bin = &mut self.bins[bin_idx as usize];
        bin.free(chunk, chunk_size);
        self.used_chunks -= 1;
        self.mark_nonfull(bin_idx);
    }

    fn first_nonfull_bin(&self) -> Option<u8> {
        for (w, word) in self.nonfull.iter().enumerate() {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                return Some((w * 64 + bit) as u8);
            }
        }
        None
    }

    fn mark_full(&mut self, bin_idx: u8) {
        let idx = bin_idx as usize;
        self.nonfull[idx / 64] &= !(1u64 << (idx % 64));
    }

    fn mark_nonfull(&mut self, bin_idx: u8) {
        let idx = bin_idx as usize;
        self.nonfull[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Iterates over all bins (used by the statistics collector).
    pub fn bins(&self) -> impl Iterator<Item = &Bin> {
        self.bins.iter()
    }
}

impl Default for Metabin {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_prefers_first_bin() {
        let mut mb = Metabin::new();
        let (bin, chunk) = mb.allocate(32).unwrap();
        assert_eq!(bin, 0);
        assert_eq!(chunk, 0);
        assert_eq!(mb.used_chunks, 1);
    }

    #[test]
    fn spills_to_second_bin_when_first_full() {
        let mut mb = Metabin::new();
        for _ in 0..CHUNKS_PER_BIN {
            let (bin, _) = mb.allocate(16).unwrap();
            assert_eq!(bin, 0);
        }
        let (bin, chunk) = mb.allocate(16).unwrap();
        assert_eq!(bin, 1);
        assert_eq!(chunk, 0);
    }

    #[test]
    fn free_makes_bin_nonfull_again() {
        let mut mb = Metabin::new();
        for _ in 0..CHUNKS_PER_BIN {
            mb.allocate(16).unwrap();
        }
        mb.free(0, 7, 16);
        let (bin, chunk) = mb.allocate(16).unwrap();
        assert_eq!((bin, chunk), (0, 7));
    }

    #[test]
    fn consecutive_allocation_within_one_bin() {
        let mut mb = Metabin::new();
        let (bin, start) = mb.allocate_consecutive(8, 16).unwrap();
        assert_eq!(bin, 0);
        for i in 0..8 {
            assert!(mb.bin(bin).is_allocated(start + i));
        }
        assert_eq!(mb.used_chunks, 8);
    }
}
