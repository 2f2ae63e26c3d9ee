//! Protection domains.
//!
//! A protection domain (PD) groups memory registrations and queue pairs: a QP
//! may only expose regions registered in its own PD to remote peers, and a
//! remote key is only valid within the PD it was issued by. rFaaS allocates
//! one PD per endpoint. A PD is allocated from its [`Fabric`] (as
//! `ibv_alloc_pd` takes a device context), which numbers its keys: the PDs
//! of one fabric never share one.

use std::collections::BTreeMap;
use std::sync::Arc;

use sim_core::sync::RwLock;

use crate::error::{FabricError, Result};
use crate::fabric::Fabric;
use crate::memory::{AccessFlags, MemoryRegion};

#[derive(Debug)]
struct PdInner {
    fabric: Arc<Fabric>,
    regions: RwLock<BTreeMap<u64, MemoryRegion>>,
}

/// A protection domain: a namespace of memory registrations.
///
/// Only this crate allocates one (for [`Endpoint::new`](crate::Endpoint::new)),
/// so its keys always come from its endpoint's fabric:
///
/// ```compile_fail,E0624
/// use rdma_fabric::{Fabric, ProtectionDomain};
/// let fabric = Fabric::with_defaults();
/// let pd = ProtectionDomain::new(&fabric);
/// ```
#[derive(Debug, Clone)]
pub struct ProtectionDomain {
    inner: Arc<PdInner>,
}

impl ProtectionDomain {
    /// Allocate a fresh protection domain on `fabric`.
    pub(crate) fn new(fabric: &Arc<Fabric>) -> ProtectionDomain {
        ProtectionDomain {
            inner: Arc::new(PdInner {
                fabric: Arc::clone(fabric),
                regions: RwLock::new(BTreeMap::new()),
            }),
        }
    }

    /// Register a zero-initialised region of `len` bytes in this domain.
    pub fn register(&self, len: usize, access: AccessFlags) -> MemoryRegion {
        let mr = MemoryRegion::zeroed(self.inner.fabric.next_key(), len, access);
        self.inner.regions.write().insert(mr.rkey(), mr.clone());
        mr
    }

    /// Register a region initialised from `data`.
    pub fn register_from(&self, data: Vec<u8>, access: AccessFlags) -> MemoryRegion {
        let mr = MemoryRegion::from_vec(self.inner.fabric.next_key(), data, access);
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

    /// Deregister a region. Remote handles pointing at it become invalid,
    /// cached translations of its key included.
    pub fn deregister(&self, mr: &MemoryRegion) -> bool {
        let Some(region) = self.inner.regions.write().remove(&mr.rkey()) else {
            return false;
        };
        region.mark_deregistered();
        true
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
    use std::collections::BTreeSet;

    use super::*;
    use crate::{Endpoint, QueuePair};

    fn domain() -> ProtectionDomain {
        ProtectionDomain::new(&Fabric::with_defaults())
    }

    #[test]
    fn register_and_lookup() {
        let pd = domain();
        let mr = pd.register(64, AccessFlags::REMOTE_ALL);
        let found = pd.lookup(mr.rkey()).unwrap();
        assert!(found.same_region(&mr));
        assert_eq!(pd.region_count(), 1);
        assert_eq!(pd.registered_bytes(), 64);
    }

    #[test]
    fn unknown_rkey_is_rejected() {
        let pd = domain();
        assert!(matches!(
            pd.lookup(12345),
            Err(FabricError::InvalidRemoteKey(12345))
        ));
    }

    #[test]
    fn rkeys_do_not_cross_domains() {
        let fabric = Fabric::with_defaults();
        let pd1 = ProtectionDomain::new(&fabric);
        let pd2 = ProtectionDomain::new(&fabric);
        let mr = pd1.register(16, AccessFlags::REMOTE_ALL);
        assert!(pd2.lookup(mr.rkey()).is_err());
        assert!(pd1.clone().lookup(mr.rkey()).is_ok());
    }

    #[test]
    fn deregister_removes_region() {
        let pd = domain();
        let mr = pd.register(16, AccessFlags::REMOTE_ALL);
        assert!(pd.deregister(&mr));
        assert!(!pd.deregister(&mr));
        assert!(pd.lookup(mr.rkey()).is_err());
        assert_eq!(pd.registered_bytes(), 0);
    }

    #[test]
    fn owned_region_deregisters_on_drop() {
        let pd = domain();
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
        let pd = domain();
        let mr = pd.register_from(vec![9, 8, 7], AccessFlags::LOCAL_ONLY);
        assert_eq!(mr.read_all(), vec![9, 8, 7]);
        assert_eq!(pd.registered_bytes(), 3);
    }

    /// Ids are the fabric's, not the process's: a second fabric numbers its
    /// first queue pair and its first key as the first fabric did, and the
    /// domains of one fabric never share a key, so `rkeys_do_not_cross_domains`
    /// refuses a key that another domain really issued.
    #[test]
    fn ids_are_numbered_per_fabric() {
        let first_ids = || {
            let fabric = Fabric::with_defaults();
            let endpoint = Endpoint::new(&fabric, &fabric.add_node("n"));
            let qp = QueuePair::new(&endpoint);
            let mr = endpoint.pd.register(8, AccessFlags::REMOTE_ALL);
            (qp.qp_num(), mr.rkey())
        };
        assert_eq!(first_ids(), (1, 1));
        assert_eq!(first_ids(), first_ids());

        let fabric = Fabric::with_defaults();
        let domains = [0, 1, 2].map(|_| ProtectionDomain::new(&fabric));
        let keys: BTreeSet<u64> = (0..4)
            .flat_map(|_| &domains)
            .flat_map(|pd| {
                let mr = pd.register(8, AccessFlags::REMOTE_ALL);
                [
                    mr.rkey(),
                    pd.register_from(vec![1], AccessFlags::LOCAL_ONLY).rkey(),
                ]
            })
            .collect();
        assert_eq!(keys.len(), 4 * 3 * 2, "a key was issued twice: {keys:?}");
    }
}
