//! Registered memory regions.
//!
//! An RDMA NIC can only access memory that has been *registered* with a
//! protection domain: registration pins the pages and hands out a key
//! (`rkey`). A peer that knows the region's remote address and key can
//! read/write/atomically update it without involving the owner's CPU — this
//! is the mechanism rFaaS uses to deliver invocation payloads and results.
//! One key per region, numbered by its fabric: a local work request holds
//! its region (an [`Sge`](crate::Sge)), so no local key is modelled.
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
//! first touch. Registering itself charges no virtual time: the NIC's
//! registration cost is folded into the sandbox profiles'
//! `executor_start_cost` and `per_worker_cost`, which do not depend on how
//! much is registered. [`MemoryRegion::take`] reads the bytes out and gives
//! the prefix back, like `madvise(MADV_DONTNEED)`.
//!
//! The committed prefix is either *owned* by the region or *shared* with
//! other regions. A DMA that replaces a destination's whole content —
//! [`MemoryRegion::copy_to`] from offset 0 to offset 0, a page or more —
//! hands the destination the source's bytes instead of copying them, the
//! way both ends of a real RDMA write see the same bytes once it lands. A
//! region writes to shared bytes only after taking them back: a sole holder
//! takes them as they are, anyone else copies first (copy-on-write), and a
//! write of a page or more builds its result around the range it replaces,
//! in the region's spare buffer or a fresh one, never copying that range.
//! Either way a region is still, through every accessor, the zero-extended
//! byte array it always was. The source of a share may let go of the bytes
//! ([`MemoryRegion::release_shared`]) so that the destination, the sole
//! holder, hands them on without a copy ([`MemoryRegion::take`]).
//!
//! The buffer a share replaces becomes the spare of whichever of the two
//! regions has none, the destination's first. Another empty region of the
//! same owner may adopt a spare as its committed bytes
//! ([`MemoryRegion::adopt_spare`]) — an output window that needs no
//! zero-fill because whoever writes it overwrites what it returns — and
//! give back what lies past the bytes it produced
//! ([`MemoryRegion::decommit_past`]), after which it again reads as zeros
//! there. Adopting is the one way a region comes to read bytes that no
//! write or copy into it put there; its caller chooses the two regions.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLockWriteGuard};

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

/// Where a region's committed prefix lives.
#[derive(Debug)]
enum Bytes {
    /// Bytes no other region sees.
    Owned(Vec<u8>),
    /// Bytes a whole-buffer DMA shares between regions. An enum rather than
    /// an `Arc` throughout, so that the unshared path never pays an atomic
    /// read-modify-write.
    Shared(Arc<Vec<u8>>),
}

/// The committed prefix `[0, len())` of a region; the rest of the region is
/// untouched and reads as zeros.
#[derive(Debug)]
struct Committed {
    bytes: Bytes,
    /// The buffer the last share into this region replaced: where a large
    /// write over shared bytes builds its result, or what another region
    /// adopts as its committed bytes.
    spare: Vec<u8>,
}

impl Committed {
    fn new(data: Vec<u8>) -> Committed {
        Committed {
            bytes: Bytes::Owned(data),
            spare: Vec::new(),
        }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.bytes {
            Bytes::Owned(data) => data,
            Bytes::Shared(data) => data,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Give the bytes back: an owned buffer keeps its allocation, shared
    /// bytes stay with the other holders.
    fn decommit(&mut self) {
        match &mut self.bytes {
            Bytes::Owned(bytes) => bytes.clear(),
            Bytes::Shared(_) => self.bytes = Bytes::Owned(Vec::new()),
        }
    }

    /// Whether another region still holds these bytes.
    fn shared_with_others(&self) -> bool {
        matches!(&self.bytes, Bytes::Shared(data) if Arc::strong_count(data) > 1)
    }

    /// The bytes, owned: a sole holder of shared bytes takes them back as
    /// they are; otherwise they are copied, into the spare buffer.
    fn owned(&mut self) -> &mut Vec<u8> {
        if let Bytes::Shared(_) = self.bytes {
            let Bytes::Shared(shared) =
                std::mem::replace(&mut self.bytes, Bytes::Owned(Vec::new()))
            else {
                unreachable!("matched as shared just above")
            };
            let data = Arc::try_unwrap(shared).unwrap_or_else(|shared| {
                let mut copy = std::mem::take(&mut self.spare);
                copy.clear();
                copy.extend_from_slice(&shared);
                copy
            });
            self.bytes = Bytes::Owned(data);
        }
        match &mut self.bytes {
            Bytes::Owned(data) => data,
            Bytes::Shared(_) => unreachable!("made owned just above"),
        }
    }

    /// Whether a write of `len` bytes replaces shared bytes by building
    /// around them ([`Committed::rebuild`]) rather than taking them back.
    fn rebuilds(&self, len: usize) -> bool {
        len >= PAGE_SIZE && self.shared_with_others()
    }

    /// Write `backed`, zero-extended to `len`, at `at`: the one place a
    /// write or a copy from another region lands.
    fn overwrite(&mut self, at: usize, backed: &[u8], len: usize, region_len: usize) {
        if self.rebuilds(len) {
            self.rebuild(at, backed, len, region_len);
        } else {
            write_zero_extended(self.owned(), at, backed, len, region_len);
        }
    }

    /// A mutable view of `[at, at + len)` for a caller that writes all of
    /// it. Over bytes another region holds, a page or more, the view is
    /// zeros: the range is never copied ([`Committed::rebuild`]).
    /// Otherwise it holds the range's current bytes.
    fn overwrite_view(&mut self, at: usize, len: usize, region_len: usize) -> &mut [u8] {
        let end = at + len;
        let data = if self.rebuilds(len) {
            self.rebuild(at, &[], len, region_len)
        } else {
            let data = self.owned();
            commit(data, end, region_len);
            data
        };
        &mut data[at..end]
    }

    /// Replace shared bytes with an owned prefix built in the spare buffer,
    /// or a fresh one: the bytes before `at`, `backed` zero-extended to
    /// `len`, the old tail. The range being replaced is never copied.
    fn rebuild(&mut self, at: usize, backed: &[u8], len: usize, region_len: usize) -> &mut Vec<u8> {
        let end = at + len;
        let mut data = std::mem::take(&mut self.spare);
        let old = self.as_slice();
        let committed_len = old.len().max(page_end(end, region_len));
        data.clear();
        data.reserve_exact(committed_len);
        data.extend_from_slice(&old[..at.min(old.len())]);
        data.resize(at, 0);
        data.extend_from_slice(backed);
        data.resize(end, 0);
        data.extend_from_slice(old.get(end..).unwrap_or_default());
        data.resize(committed_len, 0);
        self.bytes = Bytes::Owned(data);
        match &mut self.bytes {
            Bytes::Owned(data) => data,
            Bytes::Shared(_) => unreachable!("made owned just above"),
        }
    }

    /// Give `dst` these bytes in place of a copy of their first `len`, if
    /// that reads exactly as the copy would: both prefixes reach at most one
    /// page past `len` and no further than `dst_len`, and hold only zeros
    /// past `len`. `dst`'s old buffer becomes the spare of whichever region
    /// has none, `dst` first: a destination that already keeps a spare
    /// leaves the buffer to the source, which then rebuilds around the
    /// shared bytes in it instead of in a fresh one.
    fn share_into(&mut self, dst: &mut Committed, len: usize, dst_len: usize) -> bool {
        let limit = len.next_multiple_of(PAGE_SIZE).min(dst_len);
        let zero_past_len = |data: &Committed| {
            data.len() <= limit
                && data
                    .as_slice()
                    .get(len..)
                    .unwrap_or_default()
                    .iter()
                    .all(|&b| b == 0)
        };
        if !zero_past_len(self) || !zero_past_len(dst) {
            return false;
        }
        if let Bytes::Owned(data) = &mut self.bytes {
            self.bytes = Bytes::Shared(Arc::new(std::mem::take(data)));
        }
        let Bytes::Shared(shared) = &self.bytes else {
            unreachable!("made shared just above")
        };
        let displaced = match std::mem::replace(&mut dst.bytes, Bytes::Shared(Arc::clone(shared))) {
            Bytes::Owned(data) => Some(data),
            Bytes::Shared(data) => Arc::try_unwrap(data).ok(),
        };
        if let Some(data) = displaced.filter(|data| data.capacity() > 0) {
            if dst.spare.capacity() == 0 || self.spare.capacity() > 0 {
                dst.spare = data;
            } else {
                self.spare = data;
            }
        }
        true
    }
}

#[derive(Debug)]
pub(crate) struct RegionInner {
    data: RwLock<Committed>,
    /// Logical length, fixed at registration (regions never resize), so
    /// bounds checks need no lock.
    len: usize,
    rkey: u64,
    access: AccessFlags,
    /// Cleared, once, when the domain drops the registration: a cached
    /// translation checks it without the domain's lock.
    registered: AtomicBool,
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
    /// Register a zero-initialised region of `len` bytes under `rkey`.
    /// Nothing is committed until it is written.
    pub(crate) fn zeroed(rkey: u64, len: usize, access: AccessFlags) -> MemoryRegion {
        Self::with_committed(rkey, Vec::new(), len, access)
    }

    /// Register a region initialised from `data` (fully committed).
    pub(crate) fn from_vec(rkey: u64, data: Vec<u8>, access: AccessFlags) -> MemoryRegion {
        let len = data.len();
        Self::with_committed(rkey, data, len, access)
    }

    fn with_committed(rkey: u64, data: Vec<u8>, len: usize, access: AccessFlags) -> MemoryRegion {
        MemoryRegion {
            inner: Arc::new(RegionInner {
                len,
                data: RwLock::new(Committed::new(data)),
                rkey,
                access,
                registered: AtomicBool::new(true),
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

    /// Remote key of the registration.
    pub fn rkey(&self) -> u64 {
        self.inner.rkey
    }

    /// Access flags granted at registration time.
    pub(crate) fn access(&self) -> AccessFlags {
        self.inner.access
    }

    /// Whether the protection domain that issued the key still holds the
    /// registration.
    pub(crate) fn is_registered(&self) -> bool {
        self.inner.registered.load(Ordering::Acquire)
    }

    /// Mark the registration dropped from its domain; its key never
    /// resolves again.
    pub(crate) fn mark_deregistered(&self) {
        self.inner.registered.store(false, Ordering::Release);
    }

    /// Copy of the bytes in `[offset, offset + len)`.
    pub fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>> {
        check_bounds(offset, len, self.len())?;
        let data = self.inner.data.read();
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(committed(data.as_slice(), offset, len));
        out.resize(len, 0);
        Ok(out)
    }

    /// Copy `[offset, offset + dst.len())` into `dst` (no allocation).
    pub fn read_into(&self, offset: usize, dst: &mut [u8]) -> Result<()> {
        check_bounds(offset, dst.len(), self.len())?;
        let data = self.inner.data.read();
        copy_zero_extended(committed(data.as_slice(), offset, dst.len()), dst);
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
        self.inner
            .data
            .write()
            .overwrite(offset, src, src.len(), self.len());
        Ok(())
    }

    /// Copy `len` bytes from `[offset, offset + len)` of this region into
    /// `[dst_offset, dst_offset + len)` of `dst` — a modelled DMA, with no
    /// staging buffer in between. Equivalent to
    /// `dst.write(dst_offset, &self.read(offset, len)?)`, including which
    /// bounds error wins (source first) and overlapping ranges when `dst` is
    /// this same region. Commits the destination range only: the part of the
    /// source past its committed mark arrives as zeros without being backed.
    ///
    /// A copy that replaces `dst`'s whole content copies nothing: from
    /// offset 0 to offset 0, at least a page long, between two regions whose
    /// committed prefixes reach at most one page past `len` (and no further
    /// than `dst`) with only zeros past `len`, `dst` adopts this region's
    /// bytes. Either region copies them on its next write while the other
    /// still holds them, and never more than the shared prefix: at most one
    /// page over the copy the share replaced.
    ///
    /// The two guards are taken in region-address order — the source's
    /// for reading, or for writing when the copy may share — so two threads
    /// copying in opposite directions between the same pair of regions
    /// cannot deadlock.
    pub fn copy_to(
        &self,
        offset: usize,
        dst: &MemoryRegion,
        dst_offset: usize,
        len: usize,
    ) -> Result<()> {
        check_bounds(offset, len, self.len())?;
        check_bounds(dst_offset, len, dst.len())?;
        if len == 0 {
            return Ok(());
        }
        if self.same_region(dst) {
            let mut guard = self.inner.data.write();
            let data = guard.owned();
            commit(data, dst_offset + len, self.len());
            // The destination is committed, so whatever of the source is
            // still past the mark lies behind the destination range and is
            // not overwritten by it: move the backed part, zero the rest.
            let backed = committed(data, offset, len).len();
            if backed > 0 {
                data.copy_within(offset..offset + backed, dst_offset);
            }
            data[dst_offset + backed..dst_offset + len].fill(0);
            return Ok(());
        }
        if offset == 0 && dst_offset == 0 && len >= PAGE_SIZE {
            let (mut src, mut dst_data) = self.write_both(dst);
            if !src.share_into(&mut dst_data, len, dst.len()) {
                dst_data.overwrite(0, committed(src.as_slice(), 0, len), len, dst.len());
            }
            return Ok(());
        }
        let (src, mut dst_data) = if self.locks_before(dst) {
            let src = self.inner.data.read();
            (src, dst.inner.data.write())
        } else {
            let dst_data = dst.inner.data.write();
            (self.inner.data.read(), dst_data)
        };
        dst_data.overwrite(
            dst_offset,
            committed(src.as_slice(), offset, len),
            len,
            dst.len(),
        );
        Ok(())
    }

    /// Run `f` over an immutable view of `[offset, offset + len)`. A view
    /// reaching past the committed mark commits up to its end first (a
    /// slice needs backing bytes); a view inside the mark, or an empty one,
    /// commits nothing.
    pub fn with_bytes<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        check_bounds(offset, len, self.len())?;
        if len == 0 {
            return Ok(f(&[]));
        }
        let end = offset + len;
        {
            let data = self.inner.data.read();
            if end <= data.len() {
                return Ok(f(&data.as_slice()[offset..end]));
            }
        }
        let mut guard = self.inner.data.write();
        let data = guard.owned();
        commit(data, end, self.len());
        Ok(f(&data[offset..end]))
    }

    /// Run `f` over a mutable view of `[offset, offset + len)`, committing
    /// the region up to the view's end (and no page past it); an empty view
    /// commits nothing.
    pub fn with_bytes_mut<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        check_bounds(offset, len, self.len())?;
        if len == 0 {
            return Ok(f(&mut []));
        }
        let end = offset + len;
        let mut guard = self.inner.data.write();
        let data = guard.owned();
        commit(data, end, self.len());
        Ok(f(&mut data[offset..end]))
    }

    /// Run `f` over a mutable view of `[offset, offset + len)` that `f`
    /// overwrites whole, committing the region up to the view's end as
    /// [`MemoryRegion::with_bytes_mut`] does. The view starts with
    /// unspecified bytes — zeros or the range's current ones — so a view of
    /// a page or more over bytes another region still shares never copies
    /// the range first. Whatever of the view `f` leaves unwritten keeps
    /// those bytes.
    pub fn overwrite_with<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        check_bounds(offset, len, self.len())?;
        if len == 0 {
            return Ok(f(&mut []));
        }
        let mut guard = self.inner.data.write();
        Ok(f(guard.overwrite_view(offset, len, self.len())))
    }

    /// Make `donor`'s spare buffer — the bytes the last share into `donor`
    /// replaced — this region's committed prefix, cut to this region's
    /// length, if this region has nothing committed. The region then reads
    /// as those stale bytes, unspecified to the caller, until it writes
    /// them: a window it can produce into without a zero-fill. Returns
    /// whether a buffer was adopted. Both guards are taken in region-address
    /// order, as [`MemoryRegion::copy_to`] takes them.
    pub fn adopt_spare(&self, donor: &MemoryRegion) -> bool {
        if self.same_region(donor) {
            return false;
        }
        let (mut own, mut donor) = self.write_both(donor);
        if own.len() > 0 || donor.spare.capacity() == 0 {
            return false;
        }
        let mut spare = std::mem::take(&mut donor.spare);
        spare.truncate(self.len());
        own.bytes = Bytes::Owned(spare);
        true
    }

    /// Give back the committed bytes past `n`: the prefix shrinks to the
    /// page holding byte `n`, and `[n, page_end(n))` is zeroed, so the
    /// region reads as zeros from `n` on. What a window adopted through
    /// [`MemoryRegion::adopt_spare`] still holds past the bytes written into
    /// it is gone, and a whole-prefix copy of the first `n` bytes may share
    /// them again.
    pub fn decommit_past(&self, n: usize) {
        let mut data = self.inner.data.write();
        if data.len() <= n {
            return;
        }
        let bytes = data.owned();
        bytes.truncate(page_end(n, self.len()));
        bytes[n..].fill(0);
    }

    /// Give back the committed bytes, as `madvise(MADV_DONTNEED)` does: the
    /// whole region reads as zeros again. Bytes shared with another region
    /// stay with it; an owned buffer keeps its allocation for the next
    /// write.
    #[cfg(test)]
    fn decommit(&self) {
        self.inner.data.write().decommit();
    }

    /// [`MemoryRegion::read`] followed by giving back the committed bytes, as
    /// `madvise(MADV_DONTNEED)` does, in one step: the bytes of
    /// `[offset, offset + len)`, after which the whole region reads as
    /// zeros. A read from offset 0 that the committed prefix covers, of
    /// bytes no other region holds, hands over the buffer itself, truncated
    /// to `len`, instead of copying it; anything else is copied.
    pub fn take(&self, offset: usize, len: usize) -> Result<Vec<u8>> {
        check_bounds(offset, len, self.len())?;
        let mut data = self.inner.data.write();
        if offset == 0 && len <= data.len() && !data.shared_with_others() {
            let mut bytes = std::mem::take(data.owned());
            bytes.truncate(len);
            return Ok(bytes);
        }
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(committed(data.as_slice(), offset, len));
        out.resize(len, 0);
        data.decommit();
        Ok(out)
    }

    /// Let go of bytes another region still shares, as
    /// [`MemoryRegion::take`] does: this region then reads as zeros and
    /// the other holds them alone. Bytes this region owns — or is the last
    /// to share — stay as they are.
    pub fn release_shared(&self) {
        let mut data = self.inner.data.write();
        if data.shared_with_others() {
            data.bytes = Bytes::Owned(Vec::new());
        }
    }

    /// Read an 8-byte little-endian word (used by atomics and headers).
    pub fn read_u64(&self, offset: usize) -> Result<u64> {
        let mut bytes = [0u8; 8];
        self.read_into(offset, &mut bytes)?;
        Ok(u64::from_le_bytes(bytes))
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
    pub(crate) fn same_region(&self, other: &MemoryRegion) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Whether this region's guard comes first in region-address order, the
    /// order any two region guards held at once are taken in, so two
    /// threads locking the same pair from either end cannot deadlock.
    fn locks_before(&self, other: &MemoryRegion) -> bool {
        Arc::as_ptr(&self.inner) < Arc::as_ptr(&other.inner)
    }

    /// Both regions' write guards, this one's first in the pair, taken in
    /// region-address order. The regions must differ.
    fn write_both<'a>(
        &'a self,
        other: &'a MemoryRegion,
    ) -> (
        RwLockWriteGuard<'a, Committed>,
        RwLockWriteGuard<'a, Committed>,
    ) {
        if self.locks_before(other) {
            let own = self.inner.data.write();
            (own, other.inner.data.write())
        } else {
            let theirs = other.inner.data.write();
            (self.inner.data.write(), theirs)
        }
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

/// The committed length a write ending at `end` grows a region of
/// `region_len` bytes to: whole pages, as first-touch commit does, so a
/// small region is backed in one step rather than by a few-byte heap chunk
/// sharing cache lines with its neighbours — but never past the region.
fn page_end(end: usize, region_len: usize) -> usize {
    end.next_multiple_of(PAGE_SIZE).min(region_len)
}

/// Make room for a committed prefix that reaches `end`, returning the
/// committed length it grows to. Capacity doubles so a region written
/// front to back re-allocates O(log n) times, but never past the
/// registered length.
fn reserve(data: &mut Vec<u8>, end: usize, region_len: usize) -> usize {
    let end = page_end(end, region_len);
    if end > data.capacity() {
        let capacity = end.max(data.capacity() * 2).min(region_len);
        data.reserve_exact(capacity - data.len());
    }
    end
}

/// Grow the committed prefix, zero-filled, to cover `[0, end)`.
fn commit(data: &mut Vec<u8>, end: usize, region_len: usize) {
    if end > data.len() {
        let end = reserve(data, end, region_len);
        data.resize(end, 0);
    }
}

/// Write `backed` followed by zeros over `[at, at + len)` of an owned
/// prefix, committing it as far as needed. A prefix that ends at or before
/// `at` is appended to, with no zero-fill under the bytes that land.
fn write_zero_extended(
    data: &mut Vec<u8>,
    at: usize,
    backed: &[u8],
    len: usize,
    region_len: usize,
) {
    let end = at + len;
    if data.len() <= at {
        let committed_len = reserve(data, end, region_len);
        data.resize(at, 0);
        data.extend_from_slice(backed);
        data.resize(committed_len, 0);
    } else {
        commit(data, end, region_len);
        copy_zero_extended(backed, &mut data[at..end]);
    }
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
        let pd = crate::ProtectionDomain::new(&crate::Fabric::with_defaults());
        let a = pd.register(16, AccessFlags::REMOTE_ALL);
        let b = pd.register_from(vec![0; 16], AccessFlags::REMOTE_ALL);
        assert_ne!(a.rkey(), b.rkey());
    }

    #[test]
    fn read_write_round_trip() {
        let mr = MemoryRegion::zeroed(0, 32, AccessFlags::REMOTE_WRITE);
        mr.write(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mr.read(4, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(mr.read(0, 4).unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn out_of_bounds_access_is_rejected() {
        let mr = MemoryRegion::zeroed(0, 8, AccessFlags::LOCAL_ONLY);
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
        let mr = MemoryRegion::zeroed(0, 16, AccessFlags::REMOTE_ALL);
        mr.write(8, &0xDEAD_BEEF_1234_5678u64.to_le_bytes())
            .unwrap();
        assert_eq!(mr.read_u64(8).unwrap(), 0xDEAD_BEEF_1234_5678);
        assert!(mr.read_u64(1).is_ok()); // unaligned reads allowed locally
        assert!(mr.read_u64(12).is_err()); // out of bounds
        assert!(mr.read_u64(usize::MAX).is_err()); // overflow, not a panic
    }

    #[test]
    fn clones_share_storage() {
        let a = MemoryRegion::zeroed(0, 8, AccessFlags::REMOTE_ALL);
        let b = a.clone();
        a.write(0, &[7]).unwrap();
        assert_eq!(b.read(0, 1).unwrap(), vec![7]);
        assert!(a.same_region(&b));
    }

    #[test]
    fn remote_handles_cover_ranges() {
        let mr = MemoryRegion::zeroed(7, 100, AccessFlags::REMOTE_ALL);
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
        assert_eq!((sliced.rkey, mr.rkey()), (7, 7));
    }

    #[test]
    fn views_are_range_scoped_and_mutate_in_place() {
        let mr = MemoryRegion::from_vec(0, vec![1, 2, 3, 4], AccessFlags::LOCAL_ONLY);
        mr.with_bytes_mut(1, 3, |b| b.reverse()).unwrap();
        assert_eq!(mr.read_all(), vec![1, 4, 3, 2]);
        let sum: u32 = mr
            .with_bytes(2, 2, |b| b.iter().map(|&x| x as u32).sum())
            .unwrap();
        assert_eq!(sum, 5);
        assert_eq!(mr.with_bytes(4, 0, |b| b.len()), Ok(0));
        assert!(mr.with_bytes(3, 2, |_| ()).is_err());
        assert!(mr.with_bytes_mut(usize::MAX, 2, |_| ()).is_err());
        assert!(mr.overwrite_with(usize::MAX, 2, |_| ()).is_err());
    }

    #[test]
    fn only_touched_bytes_are_committed() {
        let committed = |mr: &MemoryRegion| mr.inner.data.read().len();
        let mr = MemoryRegion::zeroed(0, 8 << 20, AccessFlags::REMOTE_WRITE);
        assert_eq!((mr.len(), committed(&mr)), (8 << 20, 0));
        // Reads past the mark yield zeros and commit nothing.
        assert_eq!(mr.read(4 << 20, 4).unwrap(), vec![0; 4]);
        let mut word = [7u8; 8];
        mr.read_into((8 << 20) - 8, &mut word).unwrap();
        assert_eq!(word, [0; 8]);
        let sink = MemoryRegion::zeroed(0, 64, AccessFlags::LOCAL_ONLY);
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
        let small = MemoryRegion::zeroed(0, 100, AccessFlags::LOCAL_ONLY);
        small.write(0, &[1]).unwrap();
        assert_eq!(committed(&small), 100);
    }

    #[test]
    fn copy_to_moves_bytes_between_and_within_regions() {
        let src = MemoryRegion::from_vec(0, (0u8..16).collect(), AccessFlags::LOCAL_ONLY);
        let dst = MemoryRegion::zeroed(0, 8, AccessFlags::REMOTE_WRITE);
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

    #[test]
    fn empty_views_and_copies_commit_nothing() {
        let committed = |mr: &MemoryRegion| mr.inner.data.read().len();
        let mr = MemoryRegion::zeroed(0, 8 << 20, AccessFlags::REMOTE_ALL);
        assert_eq!(mr.with_bytes(4 << 20, 0, <[u8]>::len), Ok(0));
        assert_eq!(mr.with_bytes_mut(6 << 20, 0, |b| b.len()), Ok(0));
        let src = MemoryRegion::from_vec(0, vec![1; 64], AccessFlags::LOCAL_ONLY);
        src.copy_to(8, &mr, 7 << 20, 0).unwrap();
        mr.copy_to(5 << 20, &mr, 3 << 20, 0).unwrap();
        assert_eq!(committed(&mr), 0);
        // Bounds are still checked first.
        assert!(mr.with_bytes((8 << 20) + 1, 0, |_| ()).is_err());
        assert!(src.copy_to(65, &mr, 0, 0).is_err());
        assert!(src.copy_to(0, &mr, (8 << 20) + 1, 0).is_err());
    }

    /// Whether `a` and `b` hold one shared buffer.
    fn sharing(a: &MemoryRegion, b: &MemoryRegion) -> bool {
        let (a, b) = (a.inner.data.read(), b.inner.data.read());
        matches!((&a.bytes, &b.bytes), (Bytes::Shared(x), Bytes::Shared(y)) if Arc::ptr_eq(x, y))
    }

    /// Address of the buffer a region's bytes live in.
    fn buffer(mr: &MemoryRegion) -> *const u8 {
        mr.inner.data.read().as_slice().as_ptr()
    }

    /// Address of a region's spare buffer.
    fn spare(mr: &MemoryRegion) -> *const u8 {
        mr.inner.data.read().spare.as_ptr()
    }

    #[test]
    fn only_whole_buffer_copies_share() {
        const LEN: usize = 3 * PAGE_SIZE;
        const COPY: usize = PAGE_SIZE + 100;
        let region = || MemoryRegion::zeroed(0, LEN, AccessFlags::REMOTE_ALL);
        // A source of COPY bytes of 7, committed to two pages, zeros after.
        let source = || {
            let src = region();
            src.write(0, &[7; COPY]).unwrap();
            src
        };
        let mut expected = vec![0u8; LEN];
        expected[..COPY].fill(7);

        // Both offsets 0, a page or more, both prefixes within a page of
        // the copy and zero past it: the destination adopts the bytes.
        let (src, dst) = (source(), region());
        src.copy_to(0, &dst, 0, COPY).unwrap();
        assert!(sharing(&src, &dst));
        assert_eq!(dst.read_all(), expected);
        // A page exactly, into a destination already committed to it.
        let (src, dst) = (region(), region());
        src.write(0, &[3; 100]).unwrap();
        dst.write(PAGE_SIZE - 1, &[0]).unwrap();
        src.copy_to(0, &dst, 0, PAGE_SIZE).unwrap();
        assert!(sharing(&src, &dst));

        // Every condition that fails copies instead, to the same bytes.
        let copies = |src: &MemoryRegion, dst: &MemoryRegion, offset, dst_offset, len| {
            let mut want = dst.read_all();
            want[dst_offset..dst_offset + len].copy_from_slice(&src.read(offset, len).unwrap());
            src.copy_to(offset, dst, dst_offset, len).unwrap();
            assert!(!sharing(src, dst), "copy {offset} → {dst_offset}, {len} B");
            assert_eq!(dst.read_all(), want);
        };
        // A non-zero byte past the copy, in the source or the destination.
        let src = source();
        src.write(COPY, &[1]).unwrap();
        copies(&src, &region(), 0, 0, COPY);
        let dst = region();
        dst.write(COPY + 1, &[1]).unwrap();
        copies(&source(), &dst, 0, 0, COPY);
        // A non-zero offset on either end.
        copies(&source(), &region(), 1, 0, COPY);
        copies(&source(), &region(), 0, 1, COPY);
        // Less than a page.
        copies(&source(), &region(), 0, 0, PAGE_SIZE - 1);
        // A prefix committed past the copy's last page, though zero there.
        let dst = region();
        dst.write(2 * PAGE_SIZE, &[0]).unwrap();
        copies(&source(), &dst, 0, 0, COPY);
        let src = source();
        src.write(2 * PAGE_SIZE, &[0]).unwrap();
        copies(&src, &region(), 0, 0, COPY);
        // A source prefix longer than the destination region.
        let small = MemoryRegion::zeroed(0, COPY, AccessFlags::REMOTE_ALL);
        copies(&source(), &small, 0, 0, COPY);
    }

    #[test]
    fn writes_to_shared_bytes_leave_the_other_holder_alone() {
        const COPY: usize = 2 * PAGE_SIZE;
        let (src, dst) = (
            MemoryRegion::zeroed(0, COPY, AccessFlags::REMOTE_ALL),
            MemoryRegion::zeroed(0, COPY, AccessFlags::REMOTE_ALL),
        );
        src.write(0, &[7; COPY]).unwrap();
        dst.write(0, &[5; COPY]).unwrap();
        let replaced = buffer(&dst);
        src.copy_to(0, &dst, 0, COPY).unwrap();
        assert!(sharing(&src, &dst));
        // The destination keeps the buffer the share replaced, as its spare.
        assert_eq!(spare(&dst), replaced);

        // A page-sized write over shared bytes builds the source's new
        // prefix around the write in a buffer of its own, not the
        // destination's spare: the bytes before it, the write, the old tail.
        src.write(10, &[9; PAGE_SIZE]).unwrap();
        assert_ne!(buffer(&src), replaced);
        assert_eq!(spare(&dst), replaced);
        let mut want = vec![7u8; COPY];
        want[10..10 + PAGE_SIZE].fill(9);
        assert_eq!(src.read_all(), want);
        assert_eq!(dst.read_all(), vec![7; COPY]);

        // A sole holder takes the bytes back as they are.
        let kept = buffer(&dst);
        dst.with_bytes_mut(0, 1, |b| b[0] = 1).unwrap();
        assert_eq!(buffer(&dst), kept);

        // A mutable view of bytes still shared copies them first.
        src.copy_to(0, &dst, 0, COPY).unwrap();
        dst.with_bytes_mut(0, 1, |b| b[0] = 2).unwrap();
        assert_eq!(src.read(0, 2).unwrap(), vec![7, 7]);
        assert_eq!(dst.read(0, 2).unwrap(), vec![2, 7]);

        // A view written whole, a page or more, over bytes still shared
        // starts as zeros: the range it replaces is never copied.
        src.copy_to(0, &dst, 0, COPY).unwrap();
        let zeros = dst
            .overwrite_with(PAGE_SIZE, PAGE_SIZE, |view| {
                let zeros = view.iter().all(|&b| b == 0);
                view.fill(3);
                zeros
            })
            .unwrap();
        assert!(zeros);
        assert_eq!(dst.read(PAGE_SIZE - 1, 2).unwrap(), vec![9, 3]);
        assert_eq!(src.read(PAGE_SIZE - 1, 2).unwrap(), vec![9, 9]);

        // Decommitting drops a share: the region reads as zeros, the other
        // holder keeps its bytes and then holds them alone.
        dst.copy_to(0, &src, 0, COPY).unwrap();
        assert!(sharing(&src, &dst));
        src.decommit();
        assert_eq!(src.read_all(), vec![0; COPY]);
        assert_eq!(src.inner.data.read().len(), 0);
        let alone = buffer(&dst);
        dst.write(0, &[4; 8]).unwrap();
        assert_eq!(buffer(&dst), alone);
        assert_eq!(dst.read(0, 9).unwrap(), vec![4, 4, 4, 4, 4, 4, 4, 4, 7]);
    }

    #[test]
    fn an_empty_region_adopts_the_spare_a_share_left_its_donor() {
        const LEN: usize = 2 * PAGE_SIZE;
        let region = || MemoryRegion::zeroed(0, LEN, AccessFlags::REMOTE_ALL);
        let (src, donor, window) = (region(), region(), region());
        // Nothing to adopt before a share replaced the donor's bytes.
        assert!(!window.adopt_spare(&donor));
        donor.write(0, &[5; LEN]).unwrap();
        let replaced = buffer(&donor);
        src.write(0, &[7; LEN]).unwrap();
        src.copy_to(0, &donor, 0, LEN).unwrap();

        // A region with bytes of its own adopts nothing, nor does a region
        // from itself; the spare stays where it is.
        let busy = region();
        busy.write(0, &[1]).unwrap();
        assert!(!busy.adopt_spare(&donor));
        assert!(!donor.adopt_spare(&donor));
        assert_eq!(spare(&donor), replaced);

        // The empty window takes the replaced buffer as its committed bytes,
        // stale content and all, and the donor keeps reading its own.
        assert!(window.adopt_spare(&donor));
        assert_eq!(buffer(&window), replaced);
        assert_eq!(window.read_all(), vec![5; LEN]);
        assert_eq!(donor.read_all(), vec![7; LEN]);
        assert!(!region().adopt_spare(&donor), "the spare moved once");

        // Giving back past `n` zeroes the rest of `n`'s page and drops the
        // pages after it; past the committed prefix it changes nothing.
        window.decommit_past(10);
        assert_eq!(window.inner.data.read().len(), PAGE_SIZE);
        let mut want = vec![0u8; LEN];
        want[..10].fill(5);
        assert_eq!(window.read_all(), want);
        window.decommit_past(LEN);
        assert_eq!(window.read_all(), want);
        window.decommit_past(0);
        assert_eq!(window.inner.data.read().len(), 0);
        assert_eq!(buffer(&window), replaced, "the allocation is kept");
    }

    /// A region that is only ever a share's destination keeps the first
    /// buffer a share replaced as its spare; what later shares replace goes
    /// to the source, which rebuilds around the bytes it shares in it.
    #[test]
    fn a_destination_that_keeps_a_spare_leaves_the_replaced_buffer_to_the_source() {
        const LEN: usize = 2 * PAGE_SIZE;
        let region = || MemoryRegion::zeroed(0, LEN, AccessFlags::REMOTE_ALL);
        let (src, dst) = (region(), region());
        dst.write(0, &[5; LEN]).unwrap();
        let first = buffer(&dst);
        src.write(0, &[7; LEN]).unwrap();
        src.copy_to(0, &dst, 0, LEN).unwrap();
        assert_eq!(spare(&dst), first);

        // The source builds its next bytes around the shared ones; the
        // destination is then the sole holder of the 7s.
        src.write(0, &[8; LEN]).unwrap();
        let second = buffer(&dst);
        src.copy_to(0, &dst, 0, LEN).unwrap();
        assert_eq!(spare(&dst), first);
        assert_eq!(spare(&src), second);

        // The next write over the shared bytes lands in that buffer.
        src.write(0, &[9; LEN]).unwrap();
        assert_eq!(buffer(&src), second);
        assert_eq!(src.read_all(), vec![9; LEN]);
        assert_eq!(dst.read_all(), vec![8; LEN]);
    }

    /// The buffered 1 MiB echo at the memory level: the client stages the
    /// request, the request DMA shares it with the worker's input buffer,
    /// the worker's empty output buffer adopts what that share replaced,
    /// the function writes its result there, the window gives back what lies
    /// past it, the response DMA shares it with the client's output buffer
    /// and the client takes it. From the second request on, every result is
    /// built in the previous request's buffer: no window is committed fresh.
    #[test]
    fn an_echo_builds_each_result_in_the_previous_request() {
        const HEADER: usize = 24;
        const LEN: usize = 64 * PAGE_SIZE;
        let region = |len| MemoryRegion::zeroed(0, len, AccessFlags::REMOTE_ALL);
        let (staging, input) = (region(HEADER + LEN), region(HEADER + LEN));
        let (output, result) = (region(2 * LEN), region(LEN));
        let mut previous_request = None;
        for round in 0..4u8 {
            let payload: Vec<u8> = (0..LEN)
                .map(|i| (i as u8).wrapping_mul(round) | 1)
                .collect();
            staging.write(HEADER, &payload).unwrap();
            staging.write(0, &[round; HEADER]).unwrap();
            let request = buffer(&staging);
            staging.copy_to(0, &input, 0, HEADER + LEN).unwrap();
            assert!(sharing(&staging, &input));

            assert_eq!(output.adopt_spare(&input), previous_request.is_some());
            let window = output
                .with_bytes_mut(0, LEN, |window| {
                    input
                        .with_bytes(HEADER, LEN, |payload| window.copy_from_slice(payload))
                        .unwrap();
                    window.as_ptr()
                })
                .unwrap();
            if let Some(previous) = previous_request {
                assert_eq!(window, previous, "round {round}: a fresh window");
            }
            output.decommit_past(LEN);
            output.copy_to(0, &result, 0, LEN).unwrap();
            assert!(sharing(&output, &result));
            output.release_shared();

            let taken = result.take(0, LEN).unwrap();
            assert_eq!(taken.as_ptr(), window);
            assert_eq!(taken, payload);
            previous_request = Some(request);
        }
    }

    /// The page-scale half of `prop_region_matches_eager_model`: three
    /// regions of two to three pages, moved between mostly by whole-prefix
    /// copies — the ones that may share bytes — in both directions and
    /// chained, with page-sized and sub-page writes, mutable and
    /// overwriting views, decommits, takes, releases and commit-extending
    /// views on either side of each share, and the executor's output flow:
    /// an adopted spare, overwritten up to a window and given back past the
    /// result.
    /// Every region is checked against its eager `Vec` after every step.
    fn page_scale_script(script: u64) {
        const LENS: [usize; 3] = [2 * PAGE_SIZE + 700, 3 * PAGE_SIZE, 2 * PAGE_SIZE];
        let mut rng = proptest::TestRng::new(script.rotate_left(17) ^ 0x5EED);
        let regions = LENS.map(|len| MemoryRegion::zeroed(0, len, AccessFlags::REMOTE_ALL));
        let mut models = LENS.map(|n| vec![0u8; n]);
        let below = |rng: &mut proptest::TestRng, bound: usize| rng.below(bound as u64) as usize;
        for step in 0..40u8 {
            let which = below(&mut rng, 3);
            let region_len = LENS[which];
            let other = (which + 1 + below(&mut rng, 2)) % 3;
            // A whole-prefix copy length between two regions: a page, the
            // smaller region, or anything between.
            let whole_prefix = |rng: &mut proptest::TestRng, to: usize| {
                let most = region_len.min(LENS[to]);
                match below(rng, 3) {
                    0 => PAGE_SIZE,
                    1 => most,
                    _ => PAGE_SIZE + below(rng, most - PAGE_SIZE + 1),
                }
            };
            // A page or more, or a few bytes, at any offset of `len` bytes.
            let some_write = |rng: &mut proptest::TestRng, region_len: usize| {
                let len = if below(rng, 2) == 0 {
                    PAGE_SIZE + below(rng, PAGE_SIZE / 2)
                } else {
                    below(rng, 48)
                };
                (below(rng, region_len - len + 1), len)
            };
            let pattern = |len: usize| (0..len).map(|i| step ^ (i as u8) | 1).collect::<Vec<u8>>();
            match below(&mut rng, 13) {
                0 | 1 => {
                    let len = whole_prefix(&mut rng, other);
                    regions[which].copy_to(0, &regions[other], 0, len).unwrap();
                    let staged = models[which][..len].to_vec();
                    models[other][..len].copy_from_slice(&staged);
                    // A write on either side of the share, right after it.
                    if below(&mut rng, 2) == 0 {
                        let side = if below(&mut rng, 2) == 0 {
                            which
                        } else {
                            other
                        };
                        let (offset, len) = some_write(&mut rng, LENS[side]);
                        let bytes = pattern(len);
                        regions[side].write(offset, &bytes).unwrap();
                        models[side][offset..offset + len].copy_from_slice(&bytes);
                    }
                }
                2 => {
                    // which → other → the third region.
                    let third = 3 - which - other;
                    let len = whole_prefix(&mut rng, other).min(LENS[third]);
                    regions[which].copy_to(0, &regions[other], 0, len).unwrap();
                    regions[other].copy_to(0, &regions[third], 0, len).unwrap();
                    let staged = models[which][..len].to_vec();
                    models[other][..len].copy_from_slice(&staged);
                    models[third][..len].copy_from_slice(&staged);
                }
                3 => {
                    let (offset, len) = some_write(&mut rng, region_len);
                    let bytes = pattern(len);
                    regions[which].write(offset, &bytes).unwrap();
                    models[which][offset..offset + len].copy_from_slice(&bytes);
                }
                4 => {
                    let len = below(&mut rng, 2 * PAGE_SIZE);
                    let offset = below(&mut rng, region_len - len + 1);
                    let bump = |bytes: &mut [u8]| {
                        bytes.iter_mut().for_each(|b| *b = b.wrapping_add(step | 1))
                    };
                    regions[which].with_bytes_mut(offset, len, bump).unwrap();
                    bump(&mut models[which][offset..offset + len]);
                }
                5 => {
                    regions[which].decommit();
                    models[which].fill(0);
                }
                6 => {
                    // A view, committing past the mark when it reaches there.
                    let len = below(&mut rng, region_len + 1);
                    let offset = below(&mut rng, region_len - len + 1);
                    let got = regions[which]
                        .with_bytes(offset, len, <[u8]>::to_vec)
                        .unwrap();
                    assert_eq!(got, &models[which][offset..offset + len]);
                }
                7 => {
                    // Mostly the whole-prefix take that may hand the buffer
                    // over; sometimes one from an offset, which copies.
                    let offset = if below(&mut rng, 3) == 0 {
                        below(&mut rng, region_len)
                    } else {
                        0
                    };
                    let len = below(&mut rng, region_len - offset + 1);
                    let got = regions[which].take(offset, len).unwrap();
                    assert_eq!(got, &models[which][offset..offset + len]);
                    models[which].fill(0);
                }
                8 => {
                    let shares =
                        (0..3).any(|i| i != which && sharing(&regions[which], &regions[i]));
                    regions[which].release_shared();
                    if shares {
                        models[which].fill(0);
                    }
                }
                9 => {
                    // The executor's output flow: a region, mostly emptied
                    // first, adopts another's spare if it can, is written
                    // whole up to a window and gives back past the result.
                    if below(&mut rng, 4) != 0 {
                        regions[which].decommit_past(0);
                    }
                    regions[which].adopt_spare(&regions[other]);
                    let window = below(&mut rng, region_len + 1);
                    let n = below(&mut rng, window + 1);
                    let bytes = pattern(window);
                    regions[which]
                        .with_bytes_mut(0, window, |view| view.copy_from_slice(&bytes))
                        .unwrap();
                    regions[which].decommit_past(n);
                    models[which].fill(0);
                    models[which][..n].copy_from_slice(&bytes[..n]);
                }
                10 => {
                    let n = below(&mut rng, region_len + 1);
                    regions[which].decommit_past(n);
                    models[which][n..].fill(0);
                }
                11 => {
                    // A view written whole, as a codec stages a payload.
                    let (offset, len) = some_write(&mut rng, region_len);
                    let bytes = pattern(len);
                    regions[which]
                        .overwrite_with(offset, len, |view| view.copy_from_slice(&bytes))
                        .unwrap();
                    models[which][offset..offset + len].copy_from_slice(&bytes);
                }
                _ => {
                    // Any other copy, within one region too.
                    let to = below(&mut rng, 3);
                    let len = below(&mut rng, PAGE_SIZE + 200).min(LENS[to]);
                    let offset = below(&mut rng, region_len - len + 1);
                    let to_offset = below(&mut rng, LENS[to] - len + 1);
                    regions[which]
                        .copy_to(offset, &regions[to].clone(), to_offset, len)
                        .unwrap();
                    let staged = models[which][offset..offset + len].to_vec();
                    models[to][to_offset..to_offset + len].copy_from_slice(&staged);
                }
            }
            for (region, model) in regions.iter().zip(&models) {
                assert_eq!(&region.read_all(), model, "script {script}, step {step}");
            }
        }
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
            let region = |bytes: Vec<u8>| MemoryRegion::from_vec(0, bytes, AccessFlags::REMOTE_ALL);

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
        // requests included. A page-scale script then runs the copies that
        // share bytes instead of copying them, and every write that may
        // follow a share (`page_scale_script`).
        #[test]
        fn prop_region_matches_eager_model(script in 0u64..u64::MAX) {
            page_scale_script(script);
            const LENS: [usize; 2] = [96, 64];
            let mut rng = proptest::TestRng::new(script);
            let regions = LENS.map(|len| MemoryRegion::zeroed(0, len, AccessFlags::REMOTE_ALL));
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
