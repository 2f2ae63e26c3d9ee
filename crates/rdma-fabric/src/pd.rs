//! Protection domains.
//!
//! A protection domain (PD) groups memory registrations and queue pairs: a QP
//! may only expose regions registered in its own PD to remote peers, and a
//! remote key is only valid within the PD it was issued by. rFaaS allocates
//! one PD per executor process and one per client invoker.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sim_core::sync::RwLock;

use crate::error::{FabricError, Result};
use crate::memory::{AccessFlags, MemoryRegion};

static NEXT_PD_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug)]
struct PdInner {
    id: u64,
    regions: RwLock<BTreeMap<u64, MemoryRegion>>,
}

/// A protection domain: a namespace of memory registrations.
#[derive(Debug, Clone)]
pub struct ProtectionDomain {
    inner: Arc<PdInner>,
}

impl Default for ProtectionDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl ProtectionDomain {
    /// Allocate a fresh protection domain.
    pub fn new() -> ProtectionDomain {
        ProtectionDomain {
            inner: Arc::new(PdInner {
                id: NEXT_PD_ID.fetch_add(1, Ordering::Relaxed),
                regions: RwLock::new(BTreeMap::new()),
            }),
        }
    }

    /// Numeric identifier of the domain.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Register a zero-initialised region of `len` bytes in this domain.
    pub fn register(&self, len: usize, access: AccessFlags) -> MemoryRegion {
        let mr = MemoryRegion::zeroed(len, access);
        self.inner.regions.write().insert(mr.rkey(), mr.clone());
        mr
    }

    /// Register a region initialised from `data`.
    pub fn register_from(&self, data: Vec<u8>, access: AccessFlags) -> MemoryRegion {
        let mr = MemoryRegion::from_vec(data, access);
        self.inner.regions.write().insert(mr.rkey(), mr.clone());
        mr
    }

    /// Register a zero-initialised region of `len` bytes that stays in this
    /// domain exactly as long as the returned handle lives.
    pub fn register_owned(&self, len: usize, access: AccessFlags) -> OwnedRegion {
        OwnedRegion {
            pd: self.clone(),
            region: self.register(len, access),
        }
    }

    /// Deregister a region. Remote handles pointing at it become invalid.
    pub fn deregister(&self, mr: &MemoryRegion) -> bool {
        self.inner.regions.write().remove(&mr.rkey()).is_some()
    }

    /// Resolve a remote key issued by this domain.
    pub fn lookup(&self, rkey: u64) -> Result<MemoryRegion> {
        self.inner
            .regions
            .read()
            .get(&rkey)
            .cloned()
            .ok_or(FabricError::InvalidRemoteKey(rkey))
    }

    /// Number of live registrations (used by accounting and tests).
    pub fn region_count(&self) -> usize {
        self.inner.regions.read().len()
    }

    /// Total registered bytes.
    #[cfg(test)]
    fn registered_bytes(&self) -> usize {
        self.inner.regions.read().values().map(|r| r.len()).sum()
    }
}

/// A registration tied to its holder ([`ProtectionDomain::register_owned`]):
/// dropping it deregisters the region, so its keys stop resolving and the
/// domain's own clone stops keeping the bytes alive. Work requests that
/// still reference the region keep the bytes, not the registration.
#[derive(Debug)]
pub struct OwnedRegion {
    pd: ProtectionDomain,
    region: MemoryRegion,
}

impl std::ops::Deref for OwnedRegion {
    type Target = MemoryRegion;

    fn deref(&self) -> &MemoryRegion {
        &self.region
    }
}

impl Drop for OwnedRegion {
    fn drop(&mut self) {
        self.pd.deregister(&self.region);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let pd = ProtectionDomain::new();
        let mr = pd.register(64, AccessFlags::REMOTE_ALL);
        let found = pd.lookup(mr.rkey()).unwrap();
        assert!(found.same_region(&mr));
        assert_eq!(pd.region_count(), 1);
        assert_eq!(pd.registered_bytes(), 64);
    }

    #[test]
    fn unknown_rkey_is_rejected() {
        let pd = ProtectionDomain::new();
        assert!(matches!(
            pd.lookup(12345),
            Err(FabricError::InvalidRemoteKey(12345))
        ));
    }

    #[test]
    fn rkeys_do_not_cross_domains() {
        let pd1 = ProtectionDomain::new();
        let pd2 = ProtectionDomain::new();
        let mr = pd1.register(16, AccessFlags::REMOTE_ALL);
        assert!(pd2.lookup(mr.rkey()).is_err());
        assert!(pd1.clone().lookup(mr.rkey()).is_ok());
    }

    #[test]
    fn deregister_removes_region() {
        let pd = ProtectionDomain::new();
        let mr = pd.register(16, AccessFlags::REMOTE_ALL);
        assert!(pd.deregister(&mr));
        assert!(!pd.deregister(&mr));
        assert!(pd.lookup(mr.rkey()).is_err());
        assert_eq!(pd.registered_bytes(), 0);
    }

    #[test]
    fn owned_region_deregisters_on_drop() {
        let pd = ProtectionDomain::new();
        let owned = pd.register_owned(32, AccessFlags::REMOTE_WRITE);
        let rkey = owned.rkey();
        assert_eq!((pd.region_count(), owned.len()), (1, 32));
        assert!(pd.lookup(rkey).is_ok());
        drop(owned);
        assert_eq!(pd.region_count(), 0);
        assert!(pd.lookup(rkey).is_err());
    }

    #[test]
    fn register_from_preserves_data() {
        let pd = ProtectionDomain::new();
        let mr = pd.register_from(vec![9, 8, 7], AccessFlags::LOCAL_ONLY);
        assert_eq!(mr.read_all(), vec![9, 8, 7]);
        assert_eq!(pd.registered_bytes(), 3);
    }

    #[test]
    fn domains_have_unique_ids() {
        let a = ProtectionDomain::new();
        let b = ProtectionDomain::new();
        assert_ne!(a.id(), b.id());
    }
}
