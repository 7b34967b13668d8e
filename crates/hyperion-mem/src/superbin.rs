//! A *superbin*: the top level of the hierarchy, one per size class.
//!
//! Superbins keep a short sorted cache of non-full metabin IDs so a free chunk
//! can be found without scanning all metabins (the paper keeps a sorted list
//! of 16 non-full metabin IDs for the same reason).

use crate::metabin::Metabin;
use crate::{chunk_size_of_superbin, MAX_METABINS};

/// Maximum number of non-full metabin IDs cached per superbin.
const NONFULL_CACHE_LEN: usize = 16;

/// One superbin managing metabins of a single chunk size class.
pub struct Superbin {
    id: u8,
    chunk_size: usize,
    metabins: Vec<Option<Box<Metabin>>>,
    /// Sorted cache of metabin IDs known to have free chunks.
    nonfull_cache: Vec<u16>,
    /// Next metabin index that has never been initialised.
    next_fresh: u16,
}

impl Superbin {
    /// Creates an empty superbin for the given ID.
    pub fn new(id: u8) -> Self {
        Superbin {
            id,
            chunk_size: chunk_size_of_superbin(id),
            metabins: Vec::new(),
            nonfull_cache: Vec::new(),
            next_fresh: 0,
        }
    }

    /// Chunk size served by this superbin.
    #[inline]
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Superbin ID.
    #[inline]
    pub fn id(&self) -> u8 {
        self.id
    }

    /// Allocates one chunk, returning `(metabin, bin, chunk)`.
    pub fn allocate(&mut self) -> Option<(u16, u8, u16)> {
        loop {
            let mb_id = match self.nonfull_cache.first().copied() {
                Some(id) => id,
                None => self.init_fresh_metabin()?,
            };
            let chunk_size = self.chunk_size;
            let mb = self.metabin_mut(mb_id);
            match mb.allocate(chunk_size) {
                Some((bin, chunk)) => {
                    if mb.is_full() {
                        self.cache_remove(mb_id);
                    }
                    return Some((mb_id, bin, chunk));
                }
                None => {
                    self.cache_remove(mb_id);
                }
            }
        }
    }

    /// Allocates `count` consecutive chunks within one bin,
    /// returning `(metabin, bin, first chunk)`.
    pub fn allocate_consecutive(&mut self, count: usize) -> Option<(u16, u8, u16)> {
        let chunk_size = self.chunk_size;
        // Try cached non-full metabins first, then a fresh one.
        let candidates: Vec<u16> = self.nonfull_cache.clone();
        for mb_id in candidates {
            let mb = self.metabin_mut(mb_id);
            if let Some((bin, chunk)) = mb.allocate_consecutive(count, chunk_size) {
                if mb.is_full() {
                    self.cache_remove(mb_id);
                }
                return Some((mb_id, bin, chunk));
            }
        }
        let mb_id = self.init_fresh_metabin()?;
        let mb = self.metabin_mut(mb_id);
        let (bin, chunk) = mb.allocate_consecutive(count, chunk_size)?;
        Some((mb_id, bin, chunk))
    }

    /// Frees one chunk.
    pub fn free(&mut self, metabin: u16, bin: u8, chunk: u16) {
        let chunk_size = self.chunk_size;
        let mb = self.metabin_mut(metabin);
        mb.free(bin, chunk, chunk_size);
        self.cache_insert(metabin);
    }

    /// Immutable access to a metabin (panics if it was never initialised).
    pub fn metabin(&self, id: u16) -> &Metabin {
        self.metabins[id as usize]
            .as_ref()
            .expect("access to uninitialised metabin")
    }

    /// Mutable access to a metabin (panics if it was never initialised).
    pub fn metabin_mut(&mut self, id: u16) -> &mut Metabin {
        self.metabins[id as usize]
            .as_mut()
            .expect("access to uninitialised metabin")
    }

    /// Iterates over initialised metabins (used by statistics collection).
    pub fn metabins(&self) -> impl Iterator<Item = &Metabin> {
        self.metabins.iter().filter_map(|m| m.as_deref())
    }

    fn init_fresh_metabin(&mut self) -> Option<u16> {
        if (self.next_fresh as usize) >= MAX_METABINS {
            return None;
        }
        let id = self.next_fresh;
        self.next_fresh += 1;
        if self.metabins.len() <= id as usize {
            self.metabins.resize_with(id as usize + 1, || None);
        }
        self.metabins[id as usize] = Some(Box::new(Metabin::new()));
        self.cache_insert(id);
        Some(id)
    }

    fn cache_insert(&mut self, id: u16) {
        if self.nonfull_cache.contains(&id) {
            return;
        }
        if self.nonfull_cache.len() < NONFULL_CACHE_LEN {
            self.nonfull_cache.push(id);
            self.nonfull_cache.sort_unstable();
        } else if let Some(last) = self.nonfull_cache.last().copied() {
            if id < last {
                self.nonfull_cache.pop();
                self.nonfull_cache.push(id);
                self.nonfull_cache.sort_unstable();
            }
        }
    }

    fn cache_remove(&mut self, id: u16) {
        self.nonfull_cache.retain(|&x| x != id);
        // Refill the cache from known metabins if it ran dry.
        if self.nonfull_cache.is_empty() {
            for (i, mb) in self.metabins.iter().enumerate() {
                if let Some(mb) = mb {
                    if !mb.is_full() {
                        self.nonfull_cache.push(i as u16);
                        if self.nonfull_cache.len() == NONFULL_CACHE_LEN {
                            break;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_allocation_initialises_metabin_zero() {
        let mut sb = Superbin::new(1);
        let (mb, bin, chunk) = sb.allocate().unwrap();
        assert_eq!((mb, bin, chunk), (0, 0, 0));
        assert_eq!(sb.metabins().count(), 1);
    }

    #[test]
    fn free_then_allocate_reuses_slot() {
        let mut sb = Superbin::new(2);
        let (mb, bin, chunk) = sb.allocate().unwrap();
        let _second = sb.allocate().unwrap();
        sb.free(mb, bin, chunk);
        let again = sb.allocate().unwrap();
        assert_eq!(again, (mb, bin, chunk));
    }

    #[test]
    fn chunk_size_matches_id() {
        assert_eq!(Superbin::new(3).chunk_size(), 96);
        assert_eq!(Superbin::new(0).chunk_size(), crate::EXTENDED_BIN_SIZE);
    }

    #[test]
    fn consecutive_allocation_works_from_superbin() {
        let mut sb = Superbin::new(0);
        let (_, _, start) = sb.allocate_consecutive(8).unwrap();
        // Allocate again and make sure the ranges do not overlap.
        let (_, _, start2) = sb.allocate_consecutive(8).unwrap();
        assert!(start2 >= start + 8 || start >= start2 + 8);
    }
}
