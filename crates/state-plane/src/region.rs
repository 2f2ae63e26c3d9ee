//! Span allocation inside a registered arena.
//!
//! Both ends of the state plane carve values out of one big pre-registered
//! [`rdma_fabric::MemoryRegion`]: the owner's arena holds the authoritative
//! copy of every value, a client's cache holds the hot subset. Registration
//! is the expensive part of RDMA memory management, so neither side ever
//! registers per value — they allocate spans from a region registered once.
//!
//! [`RegionAllocator`] is a first-fit free-list allocator over byte offsets:
//! no actual memory is owned here, only the bookkeeping of which spans of the
//! arena are free. Released spans merge with their neighbours, so the
//! allocator conserves bytes exactly — the property the `prop_region_*`
//! tests pin down.

/// A contiguous byte range of an arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    /// First byte of the span.
    pub offset: usize,
    /// Length in bytes.
    pub len: usize,
}

impl Span {
    /// End offset (one past the last byte).
    fn end(&self) -> usize {
        self.offset + self.len
    }
}

/// First-fit free-list allocator over a fixed-capacity arena.
#[derive(Debug, Clone)]
pub struct RegionAllocator {
    capacity: usize,
    /// Free spans, sorted by offset, never adjacent (always merged).
    free: Vec<Span>,
}

impl RegionAllocator {
    /// An allocator over `capacity` bytes, all free.
    pub fn new(capacity: usize) -> RegionAllocator {
        let free = if capacity > 0 {
            vec![Span {
                offset: 0,
                len: capacity,
            }]
        } else {
            Vec::new()
        };
        RegionAllocator { capacity, free }
    }

    /// Arena capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently free.
    pub(crate) fn free_bytes(&self) -> usize {
        self.free.iter().map(|s| s.len).sum()
    }

    /// Bytes currently allocated.
    pub(crate) fn used_bytes(&self) -> usize {
        self.capacity - self.free_bytes()
    }

    /// Largest single allocation that can currently succeed.
    pub(crate) fn largest_free(&self) -> usize {
        self.free.iter().map(|s| s.len).max().unwrap_or(0)
    }

    /// Allocate `len` bytes, returning the span's offset. First fit: the
    /// lowest-offset free span that holds `len` is split. Zero-length
    /// allocations always succeed at offset 0 without touching the free
    /// list (empty values occupy no arena bytes).
    pub fn allocate(&mut self, len: usize) -> Option<usize> {
        if len == 0 {
            return Some(0);
        }
        let idx = self.free.iter().position(|s| s.len >= len)?;
        let span = self.free[idx];
        if span.len == len {
            self.free.remove(idx);
        } else {
            self.free[idx] = Span {
                offset: span.offset + len,
                len: span.len - len,
            };
        }
        Some(span.offset)
    }

    /// Release a previously allocated span, merging it with free neighbours.
    /// Releasing a zero-length span is a no-op (the dual of the zero-length
    /// allocation).
    pub fn release(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        debug_assert!(offset + len <= self.capacity, "span outside the arena");
        let idx = self.free.partition_point(|s| s.offset < offset);
        let mut span = Span { offset, len };
        // Merge with the successor.
        if idx < self.free.len() && span.end() == self.free[idx].offset {
            span.len += self.free[idx].len;
            self.free.remove(idx);
        }
        // Merge with the predecessor.
        if idx > 0 && self.free[idx - 1].end() == span.offset {
            self.free[idx - 1].len += span.len;
        } else {
            self.free.insert(idx, span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every free span is in bounds, sorted, non-overlapping and
    /// non-adjacent, and free + used bytes equal the capacity.
    fn assert_conserved(alloc: &RegionAllocator, used: &[Span]) {
        let mut prev_end = None;
        for span in &alloc.free {
            assert!(span.len > 0, "empty span on the free list");
            assert!(span.end() <= alloc.capacity(), "free span out of bounds");
            if let Some(end) = prev_end {
                assert!(span.offset > end, "free spans overlap or touch");
            }
            prev_end = Some(span.end());
        }
        let used_bytes: usize = used.iter().map(|s| s.len).sum();
        assert_eq!(
            alloc.free_bytes() + used_bytes,
            alloc.capacity(),
            "bytes leaked or double-counted"
        );
        // No used span may intersect a free span.
        for u in used.iter().filter(|u| u.len > 0) {
            for f in &alloc.free {
                assert!(
                    u.end() <= f.offset || f.end() <= u.offset,
                    "used span {u:?} overlaps free span {f:?}"
                );
            }
        }
    }

    #[test]
    fn allocate_and_release_round_trip() {
        let mut a = RegionAllocator::new(100);
        let x = a.allocate(40).unwrap();
        let y = a.allocate(60).unwrap();
        assert_eq!((x, y), (0, 40));
        assert!(a.allocate(1).is_none());
        a.release(x, 40);
        a.release(y, 60);
        assert_eq!(a.free_bytes(), 100);
        assert_eq!(a.free.len(), 1, "released spans must merge");
    }

    #[test]
    fn first_fit_reuses_the_lowest_hole() {
        let mut a = RegionAllocator::new(100);
        let x = a.allocate(30).unwrap();
        let _y = a.allocate(30).unwrap();
        a.release(x, 30);
        // The freed low hole is preferred over the tail.
        assert_eq!(a.allocate(20).unwrap(), 0);
        assert_eq!(a.largest_free(), 40);
    }

    #[test]
    fn zero_length_spans_cost_nothing() {
        let mut a = RegionAllocator::new(10);
        assert_eq!(a.allocate(0), Some(0));
        assert_eq!(a.free_bytes(), 10);
        a.release(0, 0);
        assert_eq!(a.free_bytes(), 10);
    }

    #[test]
    fn zero_capacity_arena_rejects_everything() {
        let mut a = RegionAllocator::new(0);
        assert_eq!(a.allocate(1), None);
        assert_eq!(a.allocate(0), Some(0));
        assert_eq!(a.largest_free(), 0);
    }

    proptest::proptest! {
        // Region conservation: across any interleaving of allocations and
        // releases, free + used always equals capacity and the free list
        // stays sorted, merged and in bounds.
        #[test]
        fn prop_region_conservation(ops: Vec<(u16, bool)>) {
            let mut alloc = RegionAllocator::new(4096);
            let mut used: Vec<Span> = Vec::new();
            for (raw, prefer_release) in ops {
                let len = raw as usize % 600;
                if prefer_release && !used.is_empty() {
                    let span = used.swap_remove(len % used.len());
                    alloc.release(span.offset, span.len);
                } else if let Some(offset) = alloc.allocate(len) {
                    used.push(Span { offset, len });
                }
                assert_conserved(&alloc, &used);
            }
            // Draining everything restores the pristine arena.
            for span in used.drain(..) {
                alloc.release(span.offset, span.len);
            }
            proptest::prop_assert_eq!(alloc.free_bytes(), 4096);
            proptest::prop_assert!(alloc.free.len() <= 1);
        }
    }
}
