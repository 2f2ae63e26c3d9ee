//! The state plane: one owner node, many caching clients.
//!
//! A [`StatePlane`] is a distributed KV store split the rFaaS way:
//!
//! * **Control path** — key → region/owner resolution, put reservations,
//!   commits, deletes and cache invalidations ride [`StateFrame`] datagrams
//!   through the owner's metadata service, exactly like the platform's
//!   allocation protocol rides `ControlFrame`s. The metadata service is
//!   pumped synchronously by whichever actor is waiting on it, so the whole
//!   exchange stays virtual-time deterministic.
//! * **Data path** — value bytes never touch the control path. The owner
//!   holds every value in one pre-registered arena; a client caches hot
//!   values in its own pre-registered region and fetches them with
//!   one-sided READs ([`rdma_fabric::NicProfile::state_read_cost`] — no
//!   owner CPU involvement), while puts push bytes with one-sided Writes
//!   ([`rdma_fabric::NicProfile::state_write_cost`]). A cache hit costs
//!   nothing on the wire: that is the hot-key fast path the fig19
//!   experiment gates.
//!
//! Consistency is invalidation-based: committing a put fans out
//! [`StateFrame::Invalidate`] to every attached client except the writer,
//! and clients drain their invalidation queue before serving any read —
//! so a read issued after a put completes can never return the old value
//! (the `prop_state_no_lost_invalidation` property).
//!
//! The writer keeps the value too, without a second copy at put time: the
//! put reserves the writer's cache span and records where the value sits in
//! the arena, and the writer's first local read fills the span from there.
//! That arena span changes only through a commit or a delete, each of which
//! invalidates every other client's entry, and the writer drops its own
//! entry before it rewrites the arena — so the deferred fill copies the
//! bytes the put wrote.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rdma_fabric::{
    AccessFlags, DatagramSocket, Endpoint, Fabric, FabricNode, MemoryRegion, CX5_100G,
};
use sim_core::sync::{ranks, OrderedMutex};
use sim_core::VirtualClock;

use crate::error::{Result, StateError};
use crate::frame::StateFrame;
use crate::region::RegionAllocator;

/// Authoritative location of one committed value in the owner's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatePlacement {
    /// Byte offset inside the arena.
    pub offset: usize,
    /// Value length in bytes.
    pub len: usize,
    /// Monotonic version, bumped by every committed put.
    pub version: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingPut {
    offset: usize,
    len: usize,
    version: u64,
    /// Span to release once the new value is committed (a resize moved the
    /// value).
    old: Option<(usize, usize)>,
}

/// The metadata service: its socket, the directory and everything else the
/// owner mutates, under the plane's one lock.
#[derive(Debug)]
struct ServerState {
    socket: DatagramSocket,
    allocator: RegionAllocator,
    directory: BTreeMap<String, StatePlacement>,
    pending: BTreeMap<String, PendingPut>,
    /// Attached client addresses, in attach order — the deterministic
    /// invalidation fan-out order.
    clients: Vec<String>,
    next_client: u64,
    /// The control-path counters the server bumps. Occupancy and the two
    /// byte counts clients bump are filled in by [`StatePlane::stats`].
    counters: StatePlaneStats,
}

impl ServerState {
    /// Drop `key`'s uncommitted reservation, if any, and hand its span back
    /// to the allocator — unless it is the committed value's own span (a
    /// same-size overwrite reserves in place).
    fn abandon_pending(&mut self, key: &str) {
        let Some(stale) = self.pending.remove(key) else {
            return;
        };
        if self.directory.get(key).map(|meta| meta.offset) != Some(stale.offset) {
            self.allocator.release(stale.offset, stale.len);
        }
    }

    /// Reply to `dst`. A vanished client (dropped socket) is not an error on
    /// the owner: its invalidations simply stop mattering.
    fn send(&self, dst: &str, frame: &StateFrame) {
        let _ = self.socket.send_to(dst, &frame.encode());
    }

    /// Send `Invalidate { key, version }` to every attached client except
    /// `writer`, in attach order.
    fn invalidate_others(&mut self, writer: &str, key: &str, version: u64) {
        let frame = StateFrame::Invalidate {
            key: key.to_string(),
            version,
        }
        .encode();
        for target in self.clients.iter().filter(|a| *a != writer) {
            self.counters.invalidations_sent += 1;
            let _ = self.socket.send_to(target, &frame);
        }
    }

    /// Serve one control frame.
    fn serve(&mut self, frame: StateFrame) {
        match frame {
            StateFrame::Lookup { reply_to, key } => {
                self.counters.lookups += 1;
                let reply = match self.directory.get(&key) {
                    Some(p) => StateFrame::Owner {
                        offset: p.offset as u64,
                        len: p.len as u64,
                        version: p.version,
                        key,
                    },
                    None => StateFrame::NotFound { key },
                };
                self.send(&reply_to, &reply);
            }
            StateFrame::Reserve { reply_to, key, len } => {
                self.counters.reserves += 1;
                let len = len as usize;
                // A re-reservation before commit abandons the first span.
                self.abandon_pending(&key);
                let existing = self.directory.get(&key).copied();
                let pending = match existing.filter(|m| m.len == len) {
                    // Same-size overwrite: update in place, no allocation.
                    Some(meta) => Some(PendingPut {
                        offset: meta.offset,
                        len,
                        version: meta.version + 1,
                        old: None,
                    }),
                    None => self.allocator.allocate(len).map(|offset| PendingPut {
                        offset,
                        len,
                        version: existing.map(|m| m.version).unwrap_or(0) + 1,
                        old: existing.map(|m| (m.offset, m.len)),
                    }),
                };
                let reply = match pending {
                    Some(pending) => {
                        self.pending.insert(key.clone(), pending);
                        StateFrame::Reserved {
                            key,
                            offset: pending.offset as u64,
                            len: len as u64,
                            version: pending.version,
                        }
                    }
                    None => {
                        self.counters.denials += 1;
                        StateFrame::Denied {
                            key,
                            requested: len as u64,
                            largest_free: self.allocator.largest_free() as u64,
                        }
                    }
                };
                self.send(&reply_to, &reply);
            }
            StateFrame::Commit { reply_to, key } => {
                self.counters.commits += 1;
                let Some(pending) = self.pending.remove(&key) else {
                    return;
                };
                if let Some((old_offset, old_len)) = pending.old {
                    self.allocator.release(old_offset, old_len);
                }
                self.directory.insert(
                    key.clone(),
                    StatePlacement {
                        offset: pending.offset,
                        len: pending.len,
                        version: pending.version,
                    },
                );
                self.invalidate_others(&reply_to, &key, pending.version);
            }
            StateFrame::Delete { reply_to, key } => {
                self.counters.deletes += 1;
                self.abandon_pending(&key);
                let removed = self.directory.remove(&key);
                if let Some(meta) = removed {
                    self.allocator.release(meta.offset, meta.len);
                    self.invalidate_others(&reply_to, &key, 0);
                }
                self.send(
                    &reply_to,
                    &StateFrame::Deleted {
                        key,
                        existed: removed.is_some(),
                    },
                );
            }
            // Replies and invalidations are client-bound; the owner ignores
            // strays (and any future frame kinds it does not know).
            _ => {}
        }
    }
}

/// Snapshot of the owner-side counters and occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatePlaneStats {
    /// Committed keys currently stored.
    pub keys: usize,
    /// Arena bytes in use.
    pub used_bytes: usize,
    /// Arena capacity in bytes.
    pub capacity: usize,
    /// Clients currently attached.
    pub clients: usize,
    /// Control frames processed by the metadata service.
    pub control_frames: u64,
    /// Lookup requests served.
    pub lookups: u64,
    /// Put reservations attempted.
    pub reserves: u64,
    /// Reservations denied for capacity.
    pub denials: u64,
    /// Puts committed.
    pub commits: u64,
    /// Deletes served.
    pub deletes: u64,
    /// Invalidations fanned out to caching clients.
    pub invalidations_sent: u64,
    /// Value bytes served over one-sided READs.
    pub remote_read_bytes: u64,
    /// Value bytes received over push-model Writes.
    pub pushed_write_bytes: u64,
}

struct PlaneInner {
    fabric: Arc<Fabric>,
    node: Arc<FabricNode>,
    clock: Arc<VirtualClock>,
    name: String,
    control_address: String,
    arena: MemoryRegion,
    state: OrderedMutex<ServerState>,
    // Bumped by clients on the data path, outside the server's lock.
    remote_read_bytes: AtomicU64,
    pushed_write_bytes: AtomicU64,
}

/// Handle to one state plane. Cloning is cheap and refers to the same plane.
#[derive(Clone)]
pub struct StatePlane {
    inner: Arc<PlaneInner>,
}

impl std::fmt::Debug for StatePlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatePlane")
            .field("name", &self.inner.name)
            .field("node", &self.inner.node.name())
            .finish()
    }
}

impl StatePlane {
    /// Stand up a state plane on `node_name` with a `capacity`-byte arena
    /// registered once at startup. The metadata service binds a datagram
    /// socket at `state://{name}`.
    pub fn new(fabric: &Arc<Fabric>, node_name: &str, capacity: usize) -> StatePlane {
        let node = fabric.add_node(node_name);
        let clock = VirtualClock::shared();
        let endpoint = Endpoint::new(fabric, &node).with_clock(Arc::clone(&clock));
        let arena = endpoint.pd.register(capacity, AccessFlags::REMOTE_ALL);
        let control_address = format!("state://{node_name}");
        let socket = DatagramSocket::bind(&endpoint, &control_address);
        StatePlane {
            inner: Arc::new(PlaneInner {
                fabric: Arc::clone(fabric),
                node,
                clock,
                name: node_name.to_string(),
                control_address,
                arena,
                state: OrderedMutex::new(
                    ranks::STATE_SERVER,
                    ServerState {
                        socket,
                        allocator: RegionAllocator::new(capacity),
                        directory: BTreeMap::new(),
                        pending: BTreeMap::new(),
                        clients: Vec::new(),
                        next_client: 0,
                        counters: StatePlaneStats::default(),
                    },
                ),
                remote_read_bytes: AtomicU64::new(0),
                pushed_write_bytes: AtomicU64::new(0),
            }),
        }
    }

    /// Name of the plane (also its owner node's name).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Datagram address of the metadata service.
    pub fn control_address(&self) -> &str {
        &self.inner.control_address
    }

    /// Current virtual time of the owner node (the determinism suite pins
    /// this alongside placements).
    pub fn now(&self) -> sim_core::SimTime {
        self.inner.clock.now()
    }

    /// Attach a caching client running on `node` under `clock`, with a
    /// pre-registered cache region of `cache_bytes`. The attach pays the
    /// datagram endpoint setup and the cache registration, once.
    pub fn attach(
        &self,
        client_name: &str,
        node: &Arc<FabricNode>,
        clock: &Arc<VirtualClock>,
        cache_bytes: usize,
    ) -> StateClient {
        let serial = {
            let mut st = self.inner.state.lock();
            let serial = st.next_client;
            st.next_client += 1;
            serial
        };
        let address = format!("state://{}/{client_name}-{serial}", self.inner.name);
        let endpoint = Endpoint::new(&self.inner.fabric, node).with_clock(Arc::clone(clock));
        let socket = DatagramSocket::bind(&endpoint, &address);
        let cache = endpoint.pd.register(cache_bytes, AccessFlags::REMOTE_WRITE);
        self.inner.state.lock().clients.push(address.clone());
        StateClient {
            plane: self.clone(),
            address,
            socket,
            clock: Arc::clone(clock),
            cache,
            cache_alloc: RegionAllocator::new(cache_bytes),
            entries: BTreeMap::new(),
            pins: Vec::new(),
            tick: 0,
            counters: StateClientStats::default(),
        }
    }

    /// Drain and serve every control frame queued at the metadata service,
    /// under one acquisition of the server lock. Called by clients after
    /// sending a request (synchronous pumping keeps the exchange
    /// deterministic); harmless to call with an empty queue.
    pub fn pump(&self) {
        let mut st = self.inner.state.lock();
        while let Some(msg) = st.socket.try_recv() {
            st.counters.control_frames += 1;
            if let Ok(frame) = StateFrame::decode(&msg.payload) {
                st.serve(frame);
            }
        }
    }

    /// Whether `key` is committed in the plane.
    pub fn contains(&self, key: &str) -> bool {
        self.inner.state.lock().directory.contains_key(key)
    }

    /// Committed placement of `key`, if any — offset/length/version inside
    /// the owner's arena. The determinism suite pins these.
    #[cfg(test)]
    fn placement(&self, key: &str) -> Option<StatePlacement> {
        self.inner.state.lock().directory.get(key).copied()
    }

    /// All committed keys with their placements, in key order.
    pub fn placements(&self) -> Vec<(String, StatePlacement)> {
        self.inner
            .state
            .lock()
            .directory
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Owner-side counters and occupancy.
    pub fn stats(&self) -> StatePlaneStats {
        let st = self.inner.state.lock();
        StatePlaneStats {
            keys: st.directory.len(),
            used_bytes: st.allocator.used_bytes(),
            capacity: st.allocator.capacity(),
            clients: st.clients.len(),
            remote_read_bytes: self.inner.remote_read_bytes.load(Ordering::Relaxed),
            pushed_write_bytes: self.inner.pushed_write_bytes.load(Ordering::Relaxed),
            ..st.counters
        }
    }

    fn detach(&self, address: &str) {
        self.inner.state.lock().clients.retain(|a| a != address);
    }
}

/// Client-side counters of one attached [`StateClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateClientStats {
    /// Reads served (hits + remote).
    pub gets: u64,
    /// Values written.
    pub puts: u64,
    /// Keys deleted.
    pub deletes: u64,
    /// Reads served from the local pre-registered cache — zero wire cost.
    pub cache_hits: u64,
    /// Reads that paid a one-sided READ from the owner.
    pub remote_reads: u64,
    /// Bytes fetched over one-sided READs.
    pub bytes_read: u64,
    /// Bytes pushed over one-sided Writes.
    pub bytes_written: u64,
    /// Invalidations applied to the local cache.
    pub invalidations_applied: u64,
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    offset: usize,
    len: usize,
    version: u64,
    last_use: u64,
    /// Arena offset of the version this entry holds while its cache span is
    /// still unfilled (a put reserved it); `None` once the bytes are cached.
    arena: Option<usize>,
}

/// Where one value of an in-progress [`StateClient::get_many_with`] lives.
#[derive(Debug)]
enum Pinned {
    /// In the cache region, at this span.
    Cached { offset: usize, len: usize },
    /// Copied out, because resolving a later key (an LRU eviction or an
    /// invalidation that arrived meanwhile) reclaimed the span.
    Owned(Vec<u8>),
    /// The key does not exist in the plane.
    Missing,
}

/// The values of one [`StateClient::get_many_with`] call, borrowed from the
/// client's cache region for the duration of the callback.
#[derive(Debug, Clone, Copy)]
pub struct StateValues<'a> {
    cache: &'a [u8],
    pins: &'a [Pinned],
}

impl<'a> StateValues<'a> {
    /// Value of the `index`-th requested key; `None` when that key does not
    /// exist in the plane.
    pub fn get(&self, index: usize) -> Option<&'a [u8]> {
        match &self.pins[index] {
            Pinned::Cached { offset, len } => Some(&self.cache[*offset..*offset + *len]),
            Pinned::Owned(bytes) => Some(bytes),
            Pinned::Missing => None,
        }
    }
}

/// One attached client: a pre-registered cache region, a version-checked
/// directory of cached keys, and a datagram socket for the control path.
///
/// All operations charge the *client's* clock: a cache hit costs nothing on
/// the wire, a miss pays one control round trip (first access) plus the
/// one-sided READ, a put pays a reservation round trip plus the push-model
/// Write.
pub struct StateClient {
    plane: StatePlane,
    address: String,
    socket: DatagramSocket,
    clock: Arc<VirtualClock>,
    cache: MemoryRegion,
    cache_alloc: RegionAllocator,
    entries: BTreeMap<String, CacheEntry>,
    /// Spans an in-progress `get_many_with` still points at; empty otherwise.
    pins: Vec<Pinned>,
    tick: u64,
    counters: StateClientStats,
}

impl std::fmt::Debug for StateClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateClient")
            .field("address", &self.address)
            .field("cached_keys", &self.entries.len())
            .finish()
    }
}

impl StateClient {
    /// The client's datagram address (where invalidations arrive).
    pub fn address(&self) -> &str {
        &self.address
    }

    /// Client-side counters.
    pub fn stats(&self) -> StateClientStats {
        self.counters
    }

    /// Advance this client's clock to `t` if it lags behind. Embedders call
    /// this before a measured state access so billing starts from the
    /// caller's notion of now — otherwise the first access after an idle
    /// stretch would be charged the catch-up to cluster time on top of its
    /// real cost.
    pub fn sync_to(&self, t: sim_core::SimTime) {
        self.clock.advance_to(t);
    }

    /// Current virtual time on the clock this client charges its state
    /// accesses to. Embedders measure around a get/put to re-bill the spent
    /// time onto another accounting clock (e.g. an executor worker's).
    pub fn now(&self) -> sim_core::SimTime {
        self.clock.now()
    }

    /// Hand the cache span of a dropped entry back to the allocator. A value
    /// an in-progress `get_many_with` resolved earlier is copied out first:
    /// the caller still sees the bytes it was promised, exactly as if each
    /// key had been copied out when it was read.
    fn reclaim(&mut self, entry: CacheEntry) {
        for pin in &mut self.pins {
            let Pinned::Cached { offset, len } = *pin else {
                continue;
            };
            if (offset, len) == (entry.offset, entry.len) {
                let bytes = self.cache.read(offset, len);
                *pin = Pinned::Owned(bytes.expect("a cached span lies inside the cache region"));
            }
        }
        self.cache_alloc.release(entry.offset, entry.len);
    }

    /// Apply one invalidation: the cached copy (if any) is stale or deleted.
    fn invalidate(&mut self, key: &str, version: u64) {
        if let Some(entry) = self.entries.get(key).copied() {
            if version == 0 || entry.version < version {
                self.entries.remove(key);
                self.reclaim(entry);
                self.counters.invalidations_applied += 1;
            }
        }
    }

    /// Drain queued invalidations. Every read path calls this first, which
    /// is what makes "a get issued after a put completes returns the new
    /// value" hold (no lost invalidations).
    fn drain_invalidations(&mut self) {
        while let Some(msg) = self.socket.try_recv() {
            if let Ok(StateFrame::Invalidate { key, version }) = StateFrame::decode(&msg.payload) {
                self.invalidate(&key, version);
            }
        }
    }

    /// One control-plane round trip: send `request`, pump the metadata
    /// service, take the reply (applying any invalidations that arrive in
    /// between).
    fn request(&mut self, request: &StateFrame) -> Result<StateFrame> {
        self.socket
            .send_to(self.plane.control_address(), &request.encode())?;
        self.plane.pump();
        loop {
            let msg = self.socket.recv()?;
            match StateFrame::decode(&msg.payload)? {
                StateFrame::Invalidate { key, version } => self.invalidate(&key, version),
                reply => return Ok(reply),
            }
        }
    }

    /// Make room for `len` cache bytes, evicting least-recently-used
    /// entries. Returns the span offset, or `None` if even an empty cache
    /// cannot hold the value.
    fn cache_reserve(&mut self, len: usize) -> Option<usize> {
        loop {
            if let Some(offset) = self.cache_alloc.allocate(len) {
                return Some(offset);
            }
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone())?;
            let entry = self.entries.remove(&victim).expect("victim exists");
            self.reclaim(entry);
        }
    }

    /// Ensure `key`'s current value sits in the cache; returns its span.
    fn ensure_cached(&mut self, key: &str) -> Result<(usize, usize)> {
        self.drain_invalidations();
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.entries.get_mut(key) {
            entry.last_use = tick;
            let (offset, len) = (entry.offset, entry.len);
            // The first local read after this client's own put fills the
            // span from the arena. Uncharged: the put already paid the
            // Write, and the bytes never cross the wire again.
            if let Some(arena_offset) = entry.arena.take() {
                self.plane
                    .inner
                    .arena
                    .copy_to(arena_offset, &self.cache, offset, len)
                    .map_err(StateError::Fabric)?;
            }
            self.counters.cache_hits += 1;
            return Ok((offset, len));
        }
        // Cold: resolve the placement on the control path...
        let reply = self.request(&StateFrame::Lookup {
            reply_to: self.address.clone(),
            key: key.to_string(),
        })?;
        let (offset, len, version) = match reply {
            StateFrame::Owner {
                offset,
                len,
                version,
                ..
            } => (offset as usize, len as usize, version),
            StateFrame::NotFound { .. } => return Err(StateError::UnknownKey(key.to_string())),
            other => {
                return Err(StateError::Protocol(format!(
                    "unexpected lookup reply {other:?}"
                )))
            }
        };
        if len > self.cache_alloc.capacity() {
            return Err(StateError::ValueTooLarge {
                value: len,
                cache: self.cache_alloc.capacity(),
            });
        }
        let cache_offset = self.cache_reserve(len).ok_or(StateError::ValueTooLarge {
            value: len,
            cache: self.cache_alloc.capacity(),
        })?;
        // ...then fetch the bytes with one one-sided READ into the
        // pre-registered cache region. The owner's CPU is not involved.
        self.clock.advance(CX5_100G.state_read_cost(len));
        self.plane
            .inner
            .arena
            .copy_to(offset, &self.cache, cache_offset, len)
            .map_err(StateError::Fabric)?;
        self.counters.remote_reads += 1;
        self.counters.bytes_read += len as u64;
        self.plane
            .inner
            .remote_read_bytes
            .fetch_add(len as u64, Ordering::Relaxed);
        self.entries.insert(
            key.to_string(),
            CacheEntry {
                offset: cache_offset,
                len,
                version,
                last_use: tick,
                arena: None,
            },
        );
        Ok((cache_offset, len))
    }

    /// Read `key` and hand `f` a borrowed view of the value bytes straight
    /// from the pre-registered cache region — the zero-copy read path.
    pub fn get_with<R>(&mut self, key: &str, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let (offset, len) = self.ensure_cached(key)?;
        self.counters.gets += 1;
        self.cache
            .with_bytes(offset, len, f)
            .map_err(StateError::Fabric)
    }

    /// Read every key of `keys`, in order and with exactly the accounting of
    /// one [`Self::get_with`] per key (same hits, misses, evictions and
    /// clock charges), then hand `f` all the values at once, borrowed from
    /// the pre-registered cache region. A key that does not exist in the
    /// plane reads as `None`; any other failure aborts the call at that key.
    ///
    /// When the keys cannot all stay resident — the LRU evicts an earlier
    /// key to make room for a later one — the evicted value is copied out
    /// just before its span is reused, so `f` still sees every value.
    pub fn get_many_with<'k, R>(
        &mut self,
        keys: impl IntoIterator<Item = &'k str>,
        f: impl FnOnce(StateValues<'_>) -> R,
    ) -> Result<R> {
        self.pins.clear();
        for key in keys {
            let pin = match self.ensure_cached(key) {
                Ok((offset, len)) => {
                    self.counters.gets += 1;
                    Pinned::Cached { offset, len }
                }
                Err(StateError::UnknownKey(_)) => Pinned::Missing,
                Err(e) => {
                    self.pins.clear();
                    return Err(e);
                }
            };
            self.pins.push(pin);
        }
        // One view over everything the cached pins point at: they were all
        // filled by a copy, so it lies inside the cache's committed prefix.
        let end = self
            .pins
            .iter()
            .map(|pin| match pin {
                Pinned::Cached { offset, len } => offset + len,
                Pinned::Owned(_) | Pinned::Missing => 0,
            })
            .max()
            .unwrap_or(0);
        let result = self.cache.with_bytes(0, end, |cache| {
            f(StateValues {
                cache,
                pins: &self.pins,
            })
        });
        self.pins.clear();
        result.map_err(StateError::Fabric)
    }

    /// Read `key` into an owned buffer (convenience over [`Self::get_with`]).
    pub fn get(&mut self, key: &str) -> Result<Vec<u8>> {
        self.get_with(key, |bytes| bytes.to_vec())
    }

    /// Write `key = value`: reserve a span on the control path, push the
    /// bytes with a one-sided Write, commit. Other clients' caches are
    /// invalidated by the owner. The local cache reserves a span for the
    /// new version but copies nothing: this client's first read of `key`
    /// fills it from the arena, as a hit.
    pub fn put(&mut self, key: &str, value: &[u8]) -> Result<()> {
        self.drain_invalidations();
        let reply = self.request(&StateFrame::Reserve {
            reply_to: self.address.clone(),
            key: key.to_string(),
            len: value.len() as u64,
        })?;
        let (offset, version) = match reply {
            StateFrame::Reserved {
                offset, version, ..
            } => (offset as usize, version),
            StateFrame::Denied {
                requested,
                largest_free,
                ..
            } => {
                return Err(StateError::CapacityExhausted {
                    requested: requested as usize,
                    largest_free: largest_free as usize,
                })
            }
            other => {
                return Err(StateError::Protocol(format!(
                    "unexpected reserve reply {other:?}"
                )))
            }
        };
        // Drop the old cached copy before the arena span is rewritten: no
        // entry may point at arena bytes its own client is overwriting.
        if let Some(entry) = self.entries.remove(key) {
            self.reclaim(entry);
        }
        // Data path: push the value into the reserved arena span.
        self.clock.advance(CX5_100G.state_write_cost(value.len()));
        self.plane
            .inner
            .arena
            .write(offset, value)
            .map_err(StateError::Fabric)?;
        self.counters.puts += 1;
        self.counters.bytes_written += value.len() as u64;
        self.plane
            .inner
            .pushed_write_bytes
            .fetch_add(value.len() as u64, Ordering::Relaxed);
        // Publish on the control path (fire-and-forget + pump, so the
        // invalidation fan-out happens before this put returns).
        self.socket.send_to(
            self.plane.control_address(),
            &StateFrame::Commit {
                reply_to: self.address.clone(),
                key: key.to_string(),
            }
            .encode(),
        )?;
        self.plane.pump();
        // Keep the new version locally (skipped when the value cannot fit —
        // it then simply lives remotely): the span is reserved, with its
        // evictions, now; the bytes follow on the first local read.
        if value.len() <= self.cache_alloc.capacity() {
            if let Some(cache_offset) = self.cache_reserve(value.len()) {
                self.tick += 1;
                self.entries.insert(
                    key.to_string(),
                    CacheEntry {
                        offset: cache_offset,
                        len: value.len(),
                        version,
                        last_use: self.tick,
                        arena: Some(offset),
                    },
                );
            }
        }
        Ok(())
    }

    /// Delete `key`. Returns whether it existed.
    pub fn delete(&mut self, key: &str) -> Result<bool> {
        self.drain_invalidations();
        let reply = self.request(&StateFrame::Delete {
            reply_to: self.address.clone(),
            key: key.to_string(),
        })?;
        let existed = match reply {
            StateFrame::Deleted { existed, .. } => existed,
            other => {
                return Err(StateError::Protocol(format!(
                    "unexpected delete reply {other:?}"
                )))
            }
        };
        if let Some(entry) = self.entries.remove(key) {
            self.reclaim(entry);
        }
        self.counters.deletes += 1;
        Ok(existed)
    }

    /// The plane this client is attached to.
    pub fn plane(&self) -> &StatePlane {
        &self.plane
    }
}

impl Drop for StateClient {
    fn drop(&mut self) {
        self.plane.detach(&self.address);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_fabric::FabricError;

    fn setup(cache_bytes: usize) -> (Arc<Fabric>, StatePlane, StateClient, StateClient) {
        let fabric = Fabric::with_defaults();
        let plane = StatePlane::new(&fabric, "state-01", 1 << 20);
        let node_a = fabric.add_node("client-a");
        let node_b = fabric.add_node("client-b");
        let a = plane.attach("a", &node_a, &VirtualClock::shared(), cache_bytes);
        let b = plane.attach("b", &node_b, &VirtualClock::shared(), cache_bytes);
        (fabric, plane, a, b)
    }

    /// Version of `client`'s locally cached copy of `key`, if cached.
    fn cached_version(client: &StateClient, key: &str) -> Option<u64> {
        client.entries.get(key).map(|e| e.version)
    }

    #[test]
    fn request_to_a_silenced_owner_fails_at_once() {
        // Another socket takes over the metadata service's address: the
        // owner's pump finds nothing, so the reply is never coming and the
        // request says so at once: `recv` does not wait.
        let (fabric, plane, mut a, _b) = setup(64 * 1024);
        let imposter = Endpoint::new(&fabric, &fabric.add_node("imposter"));
        let _silent = DatagramSocket::bind(&imposter, plane.control_address());
        assert_eq!(
            a.get("model").unwrap_err(),
            StateError::Fabric(FabricError::Timeout {
                operation: "datagram receive"
            })
        );
        assert_eq!(plane.stats().control_frames, 0);
    }

    #[test]
    fn put_get_delete_round_trip_across_clients() {
        let (_fabric, plane, mut a, mut b) = setup(64 * 1024);
        a.put("model", &[7u8; 1024]).unwrap();
        assert!(plane.contains("model"));
        assert_eq!(b.get("model").unwrap(), vec![7u8; 1024]);
        // b's second read is a pure cache hit.
        let before = b.stats();
        assert_eq!(b.get("model").unwrap(), vec![7u8; 1024]);
        let after = b.stats();
        assert_eq!(after.cache_hits, before.cache_hits + 1);
        assert_eq!(after.remote_reads, before.remote_reads);

        assert!(a.delete("model").unwrap());
        assert!(!plane.contains("model"));
        assert!(matches!(b.get("model"), Err(StateError::UnknownKey(_))));
        assert!(!a.delete("model").unwrap());
    }

    #[test]
    fn puts_invalidate_other_caches() {
        let (_fabric, plane, mut a, mut b) = setup(64 * 1024);
        a.put("k", b"old").unwrap();
        assert_eq!(b.get("k").unwrap(), b"old".to_vec());
        assert_eq!(cached_version(&b, "k"), Some(1));
        a.put("k", b"new-value").unwrap();
        // The stale cached copy must never be served.
        assert_eq!(b.get("k").unwrap(), b"new-value".to_vec());
        assert_eq!(cached_version(&b, "k"), Some(2));
        assert!(b.stats().invalidations_applied >= 1);
        assert!(plane.stats().invalidations_sent >= 1);
        assert_eq!(plane.placement("k").unwrap().version, 2);
    }

    #[test]
    fn hot_reads_skip_the_wire() {
        let (fabric, _plane, mut a, b) = setup(256 * 1024);
        let value = vec![3u8; 128 * 1024];
        a.put("hot", &value).unwrap();

        let clock = VirtualClock::shared();
        let node = fabric.add_node("meter");
        let mut c = _plane.attach("meter", &node, &clock, 256 * 1024);
        let t0 = clock.now();
        c.get_with("hot", |v| assert_eq!(v.len(), value.len()))
            .unwrap();
        let cold = clock.now().saturating_since(t0);
        let t1 = clock.now();
        c.get_with("hot", |v| assert_eq!(v, &value[..])).unwrap();
        let hot = clock.now().saturating_since(t1);
        assert!(hot.is_zero(), "a cache hit must cost nothing on the wire");
        assert!(
            cold > CX5_100G.serialization(value.len()),
            "a cold read pays at least the wire time"
        );
        drop(b);
    }

    #[test]
    fn arena_exhaustion_is_a_typed_error() {
        let fabric = Fabric::with_defaults();
        let plane = StatePlane::new(&fabric, "tiny", 1024);
        let node = fabric.add_node("c");
        let mut c = plane.attach("c", &node, &VirtualClock::shared(), 4096);
        c.put("a", &[1u8; 600]).unwrap();
        match c.put("b", &[2u8; 600]) {
            Err(StateError::CapacityExhausted {
                requested,
                largest_free,
            }) => {
                assert_eq!(requested, 600);
                assert_eq!(largest_free, 424);
            }
            other => panic!("expected CapacityExhausted, got {other:?}"),
        }
        // Deleting frees the span for the retry.
        assert!(c.delete("a").unwrap());
        c.put("b", &[2u8; 600]).unwrap();
    }

    #[test]
    fn oversized_values_cannot_be_cached() {
        let (_fabric, _plane, mut a, mut b) = setup(512);
        // The writer can still put it (the arena holds it)...
        a.put("big", &[9u8; 2048]).unwrap();
        // ...but a reader with a 512-byte cache cannot serve it zero-copy.
        assert!(matches!(
            b.get("big"),
            Err(StateError::ValueTooLarge {
                value: 2048,
                cache: 512
            })
        ));
    }

    #[test]
    fn lru_eviction_keeps_the_cache_conserved() {
        let (_fabric, _plane, mut a, mut b) = setup(2048);
        for i in 0..8 {
            a.put(&format!("k{i}"), &[i as u8; 512]).unwrap();
        }
        // b's 2 KiB cache holds 4 values; reading all 8 evicts the oldest.
        for i in 0..8 {
            assert_eq!(b.get(&format!("k{i}")).unwrap(), vec![i as u8; 512]);
        }
        assert!(b.entries.len() <= 4);
        // Re-reading the most recent key is still a hit.
        let before = b.stats().cache_hits;
        b.get("k7").unwrap();
        assert_eq!(b.stats().cache_hits, before + 1);
        // Conservation: cached spans + free bytes == capacity.
        let cached: usize = b.entries.values().map(|e| e.len).sum();
        assert_eq!(cached + b.cache_alloc.free_bytes(), 2048);
    }

    #[test]
    fn empty_values_round_trip() {
        let (_fabric, plane, mut a, mut b) = setup(1024);
        a.put("empty", &[]).unwrap();
        assert_eq!(b.get("empty").unwrap(), Vec::<u8>::new());
        assert_eq!(plane.placement("empty").unwrap().len, 0);
        assert!(a.delete("empty").unwrap());
    }

    #[test]
    fn detach_removes_the_client_from_the_fanout() {
        let (_fabric, plane, mut a, b) = setup(1024);
        assert_eq!(plane.stats().clients, 2);
        drop(b);
        assert_eq!(plane.stats().clients, 1);
        let sent = plane.stats().invalidations_sent;
        a.put("k", b"x").unwrap();
        assert_eq!(
            plane.stats().invalidations_sent,
            sent,
            "no other client is attached, nothing to invalidate"
        );
    }

    #[test]
    fn get_many_keeps_an_evicted_value_readable() {
        let (_fabric, _plane, mut a, mut b) = setup(1000);
        for (key, fill) in [("x", 1u8), ("y", 2), ("z", 3)] {
            a.put(key, &[fill; 400]).unwrap();
        }
        // Fetching "z" evicts "x" (the LRU) from b's 1000-byte cache while
        // the call still owes the caller x's bytes.
        let firsts = b
            .get_many_with(["x", "y", "absent", "z"], |values| {
                assert_eq!(values.get(0), Some(&[1u8; 400][..]));
                assert_eq!(values.get(2), None);
                [values.get(1).unwrap()[0], values.get(3).unwrap()[399]]
            })
            .unwrap();
        assert_eq!(firsts, [2, 3]);
        assert_eq!(cached_version(&b, "x"), None);
        assert_eq!(b.stats().gets, 3);
        assert_eq!(b.stats().remote_reads, 3);
        // A failure other than an unknown key aborts the call.
        a.put("huge", &[9u8; 2048]).unwrap();
        assert!(matches!(
            b.get_many_with(["y", "huge"], |_| ()),
            Err(StateError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn abandoned_reservations_return_their_spans() {
        let (fabric, plane, mut a, _b) = setup(4096);
        let node = fabric.add_node("raw");
        let raw = DatagramSocket::bind(&Endpoint::new(&fabric, &node), "state://state-01/raw");
        let reserve = |key: &str, len: u64| {
            let frame = StateFrame::Reserve {
                reply_to: "state://state-01/raw".to_string(),
                key: key.to_string(),
                len,
            };
            raw.send_to(plane.control_address(), &frame.encode())
                .unwrap();
            plane.pump();
        };
        // A new key's reservation that never commits holds a fresh span;
        // the key's next put abandons it.
        reserve("fresh", 300);
        assert_eq!(plane.stats().used_bytes, 300);
        a.put("fresh", &[1u8; 300]).unwrap();
        assert_eq!(plane.stats().used_bytes, 300);
        // An abandoned same-size overwrite reserved the committed span
        // itself: a delete releases that span once, not twice.
        reserve("fresh", 300);
        assert!(a.delete("fresh").unwrap());
        assert_eq!(plane.stats().used_bytes, 0);
        a.put("fresh", &[2u8; 100]).unwrap();
        assert_eq!(plane.stats().used_bytes, 100);
    }

    #[test]
    fn a_reused_arena_span_never_reaches_the_writers_cache() {
        let fabric = Fabric::with_defaults();
        let plane = StatePlane::new(&fabric, "state-01", 1 << 20);
        let mut clients = ["w", "x", "y"].map(|name| {
            let node = fabric.add_node(name);
            plane.attach(name, &node, &VirtualClock::shared(), 64 * 1024)
        });
        let [w, x, y] = &mut clients;
        w.put("k", &[1u8; 1024]).unwrap();
        let freed = plane.placement("k").unwrap().offset;
        // X resizes K, which frees W's span; Y's J lands in it.
        x.put("k", &[2u8; 2048]).unwrap();
        y.put("j", &[3u8; 1024]).unwrap();
        assert_eq!(plane.placement("j").unwrap().offset, freed);
        let before = w.stats();
        assert_eq!(w.get("k").unwrap(), vec![2u8; 2048]);
        let after = w.stats();
        assert_eq!(after.remote_reads, before.remote_reads + 1);
        assert_eq!(after.cache_hits, before.cache_hits);
    }

    proptest::proptest! {
        // One `get_many_with` is observably a sequence of `get`s: same
        // values, same counters, same virtual time — whatever the cache
        // can or cannot keep resident.
        #[test]
        fn prop_get_many_matches_sequential_gets(batches: Vec<(u8, u8)>, cache_slots in 1usize..5) {
            // Two identical worlds (clients of one plane share its clock, so
            // they could not be compared on time): a writer and a reader.
            let world = || {
                let (_fabric, plane, writer, reader) = setup(cache_slots * 100);
                (plane, writer, reader)
            };
            let (_plane_a, mut writer_a, mut one_by_one) = world();
            let (_plane_b, mut writer_b, mut batched) = world();
            let value = |k: u8, fill: u8| vec![fill; 50 + 10 * k as usize];
            for k in 0..6u8 {
                for writer in [&mut writer_a, &mut writer_b] {
                    writer.put(&format!("k{k}"), &value(k, k)).unwrap();
                }
            }
            for (selector, overwrite) in batches {
                if overwrite % 4 == 0 {
                    let k = overwrite % 6;
                    for writer in [&mut writer_a, &mut writer_b] {
                        writer.put(&format!("k{k}"), &value(k, overwrite)).unwrap();
                    }
                }
                // Four keys per batch; "k6" and "k7" never exist.
                let keys: Vec<String> =
                    (0..4).map(|i| format!("k{}", (selector >> (2 * i)) % 8)).collect();
                let expected: Vec<Option<Vec<u8>>> =
                    keys.iter().map(|k| one_by_one.get(k).ok()).collect();
                let got = batched
                    .get_many_with(keys.iter().map(String::as_str), |values| {
                        (0..keys.len()).map(|i| values.get(i).map(<[u8]>::to_vec)).collect::<Vec<_>>()
                    })
                    .unwrap();
                proptest::prop_assert_eq!(got, expected);
                proptest::prop_assert_eq!(batched.stats(), one_by_one.stats());
                proptest::prop_assert_eq!(batched.now(), one_by_one.now());
            }
        }

        // No lost invalidation: across any interleaving of puts, deletes
        // and reads by two clients, a read always returns the latest
        // committed value — never a stale cached copy. Both clients read
        // every key, the writer first, so a writer's unfilled span is
        // filled from the arena (or, in the ~200 B cache, evicted before
        // anyone reads it); a writer's read of its own last put that is
        // still cached is a hit that moves nothing on the wire.
        #[test]
        fn prop_state_no_lost_invalidation(ops: Vec<(u8, (u8, bool))>, small_cache: bool) {
            let cache_bytes = if small_cache { 200 } else { 4 * 1024 };
            let (_fabric, _plane, a, b) = setup(cache_bytes);
            let mut clients = [a, b];
            let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
            // Which client's put committed each key's current value.
            let mut last_put_by: BTreeMap<String, usize> = BTreeMap::new();
            for (selector, (fill, a_writes)) in ops {
                let key = format!("k{}", selector % 4);
                let writer = usize::from(!a_writes);
                if fill % 7 == 0 {
                    let existed = clients[writer].delete(&key).unwrap();
                    proptest::prop_assert_eq!(existed, model.remove(&key).is_some());
                    last_put_by.remove(&key);
                } else {
                    let value = vec![fill; (fill as usize % 96) + 1];
                    clients[writer].put(&key, &value).unwrap();
                    model.insert(key.clone(), value);
                    last_put_by.insert(key.clone(), writer);
                }
                // Cached copies must never shadow a newer committed value.
                for reader in [writer, 1 - writer] {
                    let client = &mut clients[reader];
                    // Receiving the queued invalidations advances the clock;
                    // take them first so each read below is timed alone.
                    client.drain_invalidations();
                    for (k, expected) in &model {
                        let own = last_put_by.get(k) == Some(&reader);
                        let cached = cached_version(client, k).is_some();
                        if own && !small_cache {
                            proptest::prop_assert!(cached, "{k}: own put evicted from a roomy cache");
                        }
                        let (before, at) = (client.stats(), client.now());
                        proptest::prop_assert_eq!(&client.get(k).unwrap(), expected);
                        if own && cached {
                            let after = client.stats();
                            proptest::prop_assert_eq!(after.cache_hits, before.cache_hits + 1);
                            proptest::prop_assert_eq!(after.remote_reads, before.remote_reads);
                            proptest::prop_assert_eq!(client.now(), at);
                        }
                    }
                    for k in 0..4u8 {
                        let key = format!("k{k}");
                        if !model.contains_key(&key) {
                            proptest::prop_assert!(matches!(
                                client.get(&key),
                                Err(StateError::UnknownKey(_))
                            ));
                        }
                    }
                }
            }
        }
    }
}
