//! Registered memory regions.
//!
//! An RDMA NIC can only access memory that has been *registered* with a
//! protection domain: registration pins the pages and hands out a local key
//! (`lkey`) and a remote key (`rkey`). A peer that knows the region's remote
//! address and rkey can read/write/atomically update it without involving the
//! owner's CPU — this is the mechanism rFaaS uses to deliver invocation
//! payloads and results.
//!
//! In the software fabric a region is an `Arc`'d, lock-protected byte buffer.
//! Page alignment is emulated so the cost model can charge the same
//! non-aligned penalty the paper's design guidelines mention.
//!
//! A registration is *demand-committed*: it has its full logical length from
//! the start (bounds checks, keys, [`MemoryRegion::len`], every virtual-time
//! charge), but host memory backs only the prefix up to the highest page ever
//! written. Everything past that mark reads as zeros, so a fresh region is
//! observationally a zero-filled buffer of its full length — the way an
//! anonymous mapping is, which is what this models: the OS commits pages on
//! first touch; the NIC's registration cost is charged in virtual time and
//! is unaffected.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sim_core::sync::RwLock;

use crate::error::{FabricError, Result};

/// Access permissions of a registered memory region, mirroring
/// `IBV_ACCESS_*` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessFlags {
    /// Local writes through the NIC (always needed for receives/reads).
    pub local_write: bool,
    /// Remote peers may write into the region.
    pub remote_write: bool,
    /// Remote peers may read from the region.
    pub remote_read: bool,
    /// Remote peers may perform atomics on the region.
    pub remote_atomic: bool,
}

impl AccessFlags {
    /// Only local access (the default for transmit-only buffers).
    pub const LOCAL_ONLY: AccessFlags = AccessFlags {
        local_write: true,
        remote_write: false,
        remote_read: false,
        remote_atomic: false,
    };

    /// Full remote access: write, read, atomics.
    pub const REMOTE_ALL: AccessFlags = AccessFlags {
        local_write: true,
        remote_write: true,
        remote_read: true,
        remote_atomic: true,
    };

    /// Remote write access only (typical for rFaaS input buffers).
    pub const REMOTE_WRITE: AccessFlags = AccessFlags {
        local_write: true,
        remote_write: true,
        remote_read: false,
        remote_atomic: false,
    };
}

/// Simulated page size used for the alignment model (4 KiB, as on the
/// evaluation nodes).
pub const PAGE_SIZE: usize = 4096;

static NEXT_KEY: AtomicU64 = AtomicU64::new(1);

fn next_key() -> u64 {
    NEXT_KEY.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug)]
pub(crate) struct RegionInner {
    /// The committed prefix `[0, data.len())` of the region; the rest,
    /// `[data.len(), len)`, is untouched and reads as zeros.
    data: RwLock<Vec<u8>>,
    /// Logical length, fixed at registration (regions never resize), so
    /// bounds checks need no lock.
    len: usize,
    lkey: u64,
    rkey: u64,
    access: AccessFlags,
}

/// A registered memory region.
///
/// Cloning the handle is cheap and refers to the same underlying buffer, the
/// same way multiple ibverbs objects can refer to one registration.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    pub(crate) inner: Arc<RegionInner>,
}

impl MemoryRegion {
    /// Register a zero-initialised region of `len` bytes. Nothing is
    /// committed until it is written.
    pub fn zeroed(len: usize, access: AccessFlags) -> MemoryRegion {
        Self::with_committed(Vec::new(), len, access)
    }

    /// Register a region initialised from `data` (fully committed).
    pub fn from_vec(data: Vec<u8>, access: AccessFlags) -> MemoryRegion {
        let len = data.len();
        Self::with_committed(data, len, access)
    }

    fn with_committed(data: Vec<u8>, len: usize, access: AccessFlags) -> MemoryRegion {
        MemoryRegion {
            inner: Arc::new(RegionInner {
                len,
                data: RwLock::new(data),
                lkey: next_key(),
                rkey: next_key(),
                access,
            }),
        }
    }

    /// Length of the region in bytes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Local key of the registration.
    pub fn lkey(&self) -> u64 {
        self.inner.lkey
    }

    /// Remote key of the registration.
    pub fn rkey(&self) -> u64 {
        self.inner.rkey
    }

    /// Access flags granted at registration time.
    pub fn access(&self) -> AccessFlags {
        self.inner.access
    }

    /// Copy of the bytes in `[offset, offset + len)`.
    pub fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>> {
        check_bounds(offset, len, self.len())?;
        let data = self.inner.data.read();
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(committed(&data, offset, len));
        out.resize(len, 0);
        Ok(out)
    }

    /// Copy `[offset, offset + dst.len())` into `dst` (no allocation).
    pub fn read_into(&self, offset: usize, dst: &mut [u8]) -> Result<()> {
        check_bounds(offset, dst.len(), self.len())?;
        let data = self.inner.data.read();
        copy_zero_extended(committed(&data, offset, dst.len()), dst);
        Ok(())
    }

    /// Copy of the full contents.
    pub fn read_all(&self) -> Vec<u8> {
        self.read(0, self.len())
            .expect("the whole region is in bounds")
    }

    /// Overwrite `[offset, offset + src.len())` with `src`.
    pub fn write(&self, offset: usize, src: &[u8]) -> Result<()> {
        check_bounds(offset, src.len(), self.len())?;
        let mut data = self.inner.data.write();
        commit(&mut data, offset + src.len(), self.len());
        data[offset..offset + src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Copy `len` bytes from `[offset, offset + len)` of this region straight
    /// into `[dst_offset, dst_offset + len)` of `dst` — the one copy a
    /// modelled DMA makes, with no staging buffer in between. Equivalent to
    /// `dst.write(dst_offset, &self.read(offset, len)?)`, including which
    /// bounds error wins (source first) and overlapping ranges when `dst` is
    /// this same region. Commits the destination range only: the part of the
    /// source past its committed mark arrives as zeros without being backed.
    ///
    /// The source read-guard and the destination write-guard are taken in
    /// region-address order, so two threads copying in opposite directions
    /// between the same pair of regions cannot deadlock.
    pub fn copy_to(
        &self,
        offset: usize,
        dst: &MemoryRegion,
        dst_offset: usize,
        len: usize,
    ) -> Result<()> {
        check_bounds(offset, len, self.len())?;
        check_bounds(dst_offset, len, dst.len())?;
        if self.same_region(dst) {
            let mut data = self.inner.data.write();
            commit(&mut data, dst_offset + len, self.len());
            // The destination is committed, so whatever of the source is
            // still past the mark lies behind the destination range and is
            // not overwritten by it: move the backed part, zero the rest.
            let backed = committed(&data, offset, len).len();
            if backed > 0 {
                data.copy_within(offset..offset + backed, dst_offset);
            }
            data[dst_offset + backed..dst_offset + len].fill(0);
            return Ok(());
        }
        let (src_guard, mut dst_guard) = if Arc::as_ptr(&self.inner) < Arc::as_ptr(&dst.inner) {
            let src_guard = self.inner.data.read();
            (src_guard, dst.inner.data.write())
        } else {
            let dst_guard = dst.inner.data.write();
            (self.inner.data.read(), dst_guard)
        };
        commit(&mut dst_guard, dst_offset + len, dst.len());
        copy_zero_extended(
            committed(&src_guard, offset, len),
            &mut dst_guard[dst_offset..dst_offset + len],
        );
        Ok(())
    }

    /// Run `f` over an immutable view of `[offset, offset + len)`. A view
    /// reaching past the committed mark commits up to its end first (a
    /// slice needs backing bytes); a view inside the mark commits nothing.
    pub fn with_bytes<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        check_bounds(offset, len, self.len())?;
        let end = offset + len;
        {
            let data = self.inner.data.read();
            if end <= data.len() {
                return Ok(f(&data[offset..end]));
            }
        }
        let mut data = self.inner.data.write();
        commit(&mut data, end, self.len());
        Ok(f(&data[offset..end]))
    }

    /// Run `f` over a mutable view of `[offset, offset + len)`, committing
    /// the region up to the view's end (and no page past it).
    pub fn with_bytes_mut<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        check_bounds(offset, len, self.len())?;
        let end = offset + len;
        let mut data = self.inner.data.write();
        commit(&mut data, end, self.len());
        Ok(f(&mut data[offset..end]))
    }

    /// Read an 8-byte little-endian word (used by atomics and headers).
    pub fn read_u64(&self, offset: usize) -> Result<u64> {
        let mut bytes = [0u8; 8];
        self.read_into(offset, &mut bytes)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Write an 8-byte little-endian word.
    pub fn write_u64(&self, offset: usize, value: u64) -> Result<()> {
        self.write(offset, &value.to_le_bytes())
    }

    /// Handle that a remote peer can use to address this region.
    pub fn remote_handle(&self) -> RemoteMemoryHandle {
        RemoteMemoryHandle {
            rkey: self.rkey(),
            offset: 0,
            len: self.len(),
        }
    }

    /// Handle covering a sub-range of this region.
    pub fn remote_handle_range(&self, offset: usize, len: usize) -> Result<RemoteMemoryHandle> {
        check_bounds(offset, len, self.len())?;
        Ok(RemoteMemoryHandle {
            rkey: self.rkey(),
            offset,
            len,
        })
    }

    /// Whether two handles refer to the same registration.
    pub fn same_region(&self, other: &MemoryRegion) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// Whether `[offset, offset + len)` lies inside a region of `region_len`
/// bytes, with the end computed without overflow. The one range test behind
/// every local and remote bounds error of the fabric.
pub(crate) fn in_bounds(offset: usize, len: usize, region_len: usize) -> bool {
    offset.checked_add(len).is_some_and(|end| end <= region_len)
}

/// The part of the in-bounds range `[offset, offset + len)` that the
/// committed prefix `data` backs; the remainder of the range reads as zeros.
fn committed(data: &[u8], offset: usize, len: usize) -> &[u8] {
    let end = (offset + len).min(data.len());
    &data[offset.min(end)..end]
}

/// Fill `dst` with `backed` followed by zeros (the uncommitted remainder).
fn copy_zero_extended(backed: &[u8], dst: &mut [u8]) {
    let (head, tail) = dst.split_at_mut(backed.len());
    head.copy_from_slice(backed);
    tail.fill(0);
}

/// Grow the committed prefix, zero-filled, to cover `[0, end)` — in whole
/// pages, as first-touch commit does, so a small region is backed in one
/// step rather than by a few-byte heap chunk sharing cache lines with its
/// neighbours. Capacity doubles so a region written front to back
/// re-allocates O(log n) times, but never past the registered length.
fn commit(data: &mut Vec<u8>, end: usize, region_len: usize) {
    if end <= data.len() {
        return;
    }
    let end = end.next_multiple_of(PAGE_SIZE).min(region_len);
    if end > data.capacity() {
        let capacity = end.max(data.capacity() * 2).min(region_len);
        data.reserve_exact(capacity - data.len());
    }
    data.resize(end, 0);
}

fn check_bounds(offset: usize, len: usize, region_len: usize) -> Result<()> {
    if in_bounds(offset, len, region_len) {
        Ok(())
    } else {
        Err(FabricError::LocalAccessOutOfBounds {
            offset,
            len,
            region_len,
        })
    }
}

/// Address + rkey of a (range of a) remote region, as exchanged between rFaaS
/// clients and executors in the connection handshake and in the 12-byte
/// invocation header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteMemoryHandle {
    /// Remote key of the target registration.
    pub rkey: u64,
    /// Byte offset within the registration.
    pub offset: usize,
    /// Length of the addressed range.
    pub len: usize,
}

impl RemoteMemoryHandle {
    /// Narrow the handle to a sub-range (relative to this handle's offset).
    pub fn slice(&self, offset: usize, len: usize) -> RemoteMemoryHandle {
        RemoteMemoryHandle {
            rkey: self.rkey,
            offset: self.offset + offset,
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_assigns_unique_keys() {
        let a = MemoryRegion::zeroed(16, AccessFlags::REMOTE_ALL);
        let b = MemoryRegion::zeroed(16, AccessFlags::REMOTE_ALL);
        assert_ne!(a.rkey(), b.rkey());
        assert_ne!(a.lkey(), b.lkey());
        assert_ne!(a.lkey(), a.rkey());
    }

    #[test]
    fn read_write_round_trip() {
        let mr = MemoryRegion::zeroed(32, AccessFlags::REMOTE_WRITE);
        mr.write(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mr.read(4, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(mr.read(0, 4).unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn out_of_bounds_access_is_rejected() {
        let mr = MemoryRegion::zeroed(8, AccessFlags::LOCAL_ONLY);
        assert!(matches!(
            mr.read(4, 8),
            Err(FabricError::LocalAccessOutOfBounds { .. })
        ));
        assert!(mr.write(8, &[1]).is_err());
        // Overflowing offsets must not panic.
        assert!(mr.read(usize::MAX, 2).is_err());
    }

    #[test]
    fn u64_helpers() {
        let mr = MemoryRegion::zeroed(16, AccessFlags::REMOTE_ALL);
        mr.write_u64(8, 0xDEAD_BEEF_1234_5678).unwrap();
        assert_eq!(mr.read_u64(8).unwrap(), 0xDEAD_BEEF_1234_5678);
        assert!(mr.read_u64(1).is_ok()); // unaligned reads allowed locally
        assert!(mr.read_u64(12).is_err()); // out of bounds
        assert!(mr.read_u64(usize::MAX).is_err()); // overflow, not a panic
    }

    #[test]
    fn clones_share_storage() {
        let a = MemoryRegion::zeroed(8, AccessFlags::REMOTE_ALL);
        let b = a.clone();
        a.write(0, &[7]).unwrap();
        assert_eq!(b.read(0, 1).unwrap(), vec![7]);
        assert!(a.same_region(&b));
    }

    #[test]
    fn remote_handles_cover_ranges() {
        let mr = MemoryRegion::zeroed(100, AccessFlags::REMOTE_ALL);
        let h = mr.remote_handle();
        assert_eq!(h.len, 100);
        assert_eq!(h.offset, 0);
        let sub = mr.remote_handle_range(10, 20).unwrap();
        assert_eq!(sub.offset, 10);
        assert_eq!(sub.len, 20);
        assert!(mr.remote_handle_range(90, 20).is_err());
        let sliced = h.slice(5, 10);
        assert_eq!(sliced.offset, 5);
        assert_eq!(sliced.len, 10);
        assert_eq!(sliced.rkey, mr.rkey());
    }

    #[test]
    fn views_are_range_scoped_and_mutate_in_place() {
        let mr = MemoryRegion::from_vec(vec![1, 2, 3, 4], AccessFlags::LOCAL_ONLY);
        mr.with_bytes_mut(1, 3, |b| b.reverse()).unwrap();
        assert_eq!(mr.read_all(), vec![1, 4, 3, 2]);
        let sum: u32 = mr
            .with_bytes(2, 2, |b| b.iter().map(|&x| x as u32).sum())
            .unwrap();
        assert_eq!(sum, 5);
        assert_eq!(mr.with_bytes(4, 0, |b| b.len()), Ok(0));
        assert!(mr.with_bytes(3, 2, |_| ()).is_err());
        assert!(mr.with_bytes_mut(usize::MAX, 2, |_| ()).is_err());
    }

    #[test]
    fn only_touched_bytes_are_committed() {
        let committed = |mr: &MemoryRegion| mr.inner.data.read().len();
        let mr = MemoryRegion::zeroed(8 << 20, AccessFlags::REMOTE_WRITE);
        assert_eq!((mr.len(), committed(&mr)), (8 << 20, 0));
        // Reads past the mark yield zeros and commit nothing.
        assert_eq!(mr.read(4 << 20, 4).unwrap(), vec![0; 4]);
        let mut word = [7u8; 8];
        mr.read_into((8 << 20) - 8, &mut word).unwrap();
        assert_eq!(word, [0; 8]);
        let sink = MemoryRegion::zeroed(64, AccessFlags::LOCAL_ONLY);
        mr.copy_to(1 << 20, &sink, 0, 64).unwrap();
        assert_eq!(committed(&mr), 0);
        // A write or a view commits the pages up to its end, no further.
        mr.write(100, &[1, 2, 3]).unwrap();
        assert_eq!(committed(&mr), PAGE_SIZE);
        assert_eq!(mr.read(98, 8).unwrap(), vec![0, 0, 1, 2, 3, 0, 0, 0]);
        mr.with_bytes_mut(PAGE_SIZE, 16, |b| assert_eq!(b.len(), 16))
            .unwrap();
        assert_eq!(committed(&mr), 2 * PAGE_SIZE);
        mr.with_bytes(8, 16, |_| ()).unwrap();
        assert_eq!(committed(&mr), 2 * PAGE_SIZE);
        // The last page of a region ends with the region.
        let small = MemoryRegion::zeroed(100, AccessFlags::LOCAL_ONLY);
        small.write(0, &[1]).unwrap();
        assert_eq!(committed(&small), 100);
    }

    #[test]
    fn copy_to_moves_bytes_between_and_within_regions() {
        let src = MemoryRegion::from_vec((0u8..16).collect(), AccessFlags::LOCAL_ONLY);
        let dst = MemoryRegion::zeroed(8, AccessFlags::REMOTE_WRITE);
        src.copy_to(4, &dst, 2, 4).unwrap();
        assert_eq!(dst.read_all(), vec![0, 0, 4, 5, 6, 7, 0, 0]);
        // Same region, overlapping ranges: memmove semantics.
        src.copy_to(0, &src.clone(), 2, 6).unwrap();
        assert_eq!(src.read(0, 8).unwrap(), vec![0, 1, 0, 1, 2, 3, 4, 5]);
        // The source bounds error wins over the destination's.
        assert_eq!(
            src.copy_to(12, &dst, 7, 8),
            Err(FabricError::LocalAccessOutOfBounds {
                offset: 12,
                len: 8,
                region_len: 16
            })
        );
        assert_eq!(
            src.copy_to(0, &dst, usize::MAX, 2),
            Err(FabricError::LocalAccessOutOfBounds {
                offset: usize::MAX,
                len: 2,
                region_len: 8
            })
        );
    }

    proptest::proptest! {
        // The region→region copy is the old staged model, `read` into a
        // `Vec` then `write`, in every observable respect: result (including
        // which out-of-bounds error), and the bytes of both regions after.
        #[test]
        fn prop_copy_to_matches_read_then_write(
            src_offset in 0usize..80,
            dst_offset in 0usize..80,
            len in 0usize..80,
            same_region: bool,
            wrap: u8,
            seed: u8
        ) {
            const LEN: usize = 64;
            // One request in eight aims each end near `usize::MAX`: the
            // overflow case.
            let src_offset = if wrap & 7 == 0 { usize::MAX - src_offset } else { src_offset };
            let dst_offset = if wrap & 7 == 1 { usize::MAX - dst_offset } else { dst_offset };
            let fill = |salt: u8| (0..LEN).map(|i| (i as u8).wrapping_mul(31) ^ seed ^ salt).collect();
            let region = |bytes: Vec<u8>| MemoryRegion::from_vec(bytes, AccessFlags::REMOTE_ALL);

            let (model_src, real_src) = (region(fill(0)), region(fill(0)));
            let (model_dst, real_dst) = if same_region {
                (model_src.clone(), real_src.clone())
            } else {
                (region(fill(0xA5)), region(fill(0xA5)))
            };

            let staged = model_src
                .read(src_offset, len)
                .and_then(|bytes| model_dst.write(dst_offset, &bytes));
            let direct = real_src.copy_to(src_offset, &real_dst, dst_offset, len);

            proptest::prop_assert_eq!(direct, staged);
            proptest::prop_assert_eq!(real_src.read_all(), model_src.read_all());
            proptest::prop_assert_eq!(real_dst.read_all(), model_dst.read_all());
        }

        // A demand-committed region is, through every accessor, the eagerly
        // zero-filled buffer it replaced: same bytes, same errors, whatever
        // mix of writes, reads, copies (same region, overlapping, from a
        // source only partly committed), views and atomic-style updates
        // runs against it, reads past the committed mark and out-of-bounds
        // requests included.
        #[test]
        fn prop_region_matches_eager_model(script in 0u64..u64::MAX) {
            const LENS: [usize; 2] = [96, 64];
            let mut rng = proptest::TestRng::new(script);
            let regions = LENS.map(|len| MemoryRegion::zeroed(len, AccessFlags::REMOTE_ALL));
            let mut models = LENS.map(|n| vec![0u8; n]);
            for step in 0..48u8 {
                let which = rng.below(2) as usize;
                let region_len = LENS[which];
                // Mostly in bounds, sometimes straddling the end, rarely
                // near `usize::MAX`.
                let offset = match rng.below(16) {
                    0 => usize::MAX - rng.below(4) as usize,
                    _ => rng.below(region_len as u64 + 8) as usize,
                };
                let len = rng.below(40) as usize;
                let expected = check_bounds(offset, len, region_len);
                match rng.below(6) {
                    0 => {
                        let bytes: Vec<u8> = (0..len).map(|i| step ^ (i as u8) | 1).collect();
                        proptest::prop_assert_eq!(regions[which].write(offset, &bytes), expected.clone());
                        if expected.is_ok() {
                            models[which][offset..offset + len].copy_from_slice(&bytes);
                        }
                    }
                    1 => {
                        let want = expected.map(|()| models[which][offset..offset + len].to_vec());
                        proptest::prop_assert_eq!(regions[which].read(offset, len), want);
                    }
                    2 => {
                        let mut got = vec![0xEE; len];
                        proptest::prop_assert_eq!(regions[which].read_into(offset, &mut got), expected.clone());
                        if expected.is_ok() {
                            proptest::prop_assert_eq!(&got[..], &models[which][offset..offset + len]);
                        }
                    }
                    3 => {
                        let to = rng.below(2) as usize;
                        let to_offset = rng.below(LENS[to] as u64 + 8) as usize;
                        let want = expected.and_then(|()| check_bounds(to_offset, len, LENS[to]));
                        let got = regions[which].copy_to(offset, &regions[to].clone(), to_offset, len);
                        proptest::prop_assert_eq!(got, want.clone());
                        if want.is_ok() {
                            let staged = models[which][offset..offset + len].to_vec();
                            models[to][to_offset..to_offset + len].copy_from_slice(&staged);
                        }
                    }
                    4 => {
                        // What `execute_atomic` does to its 8-byte target.
                        let expected = check_bounds(offset, 8, region_len);
                        let got = regions[which].with_bytes_mut(offset, 8, |slot| {
                            let old = u64::from_le_bytes(slot.try_into().unwrap());
                            slot.copy_from_slice(&old.wrapping_add(script).to_le_bytes());
                            old
                        });
                        let want = expected.map(|()| {
                            let slot = &mut models[which][offset..offset + 8];
                            let old = u64::from_le_bytes((&*slot).try_into().unwrap());
                            slot.copy_from_slice(&old.wrapping_add(script).to_le_bytes());
                            old
                        });
                        proptest::prop_assert_eq!(got, want);
                    }
                    _ => {
                        let want = expected.map(|()| models[which][offset..offset + len].to_vec());
                        proptest::prop_assert_eq!(regions[which].with_bytes(offset, len, <[u8]>::to_vec), want);
                    }
                }
            }
            for (region, model) in regions.iter().zip(&models) {
                proptest::prop_assert_eq!(&region.read_all(), model);
            }
        }
    }

    #[test]
    fn access_flag_presets() {
        const { assert!(AccessFlags::REMOTE_ALL.remote_atomic) }
        const { assert!(!AccessFlags::REMOTE_WRITE.remote_read) }
        const { assert!(!AccessFlags::LOCAL_ONLY.remote_write) }
    }
}
