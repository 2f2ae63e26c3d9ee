//! Sandbox snapshots and page-level fault accounting for remote fork.
//!
//! A warm executor that is about to be parked can capture a
//! [`SandboxSnapshot`]: the package, memory geometry and resident set of the
//! parent at a virtual-time point, expressed as a *page map*. A forked child
//! starts from the snapshot's metadata only — its pages are faulted in
//! lazily, served by one-sided RDMA reads from the parent node (the
//! MITOSIS-style remote fork of "No Provisioned Concurrency"). The
//! [`FaultTracker`] does the bookkeeping: every page is faulted exactly once
//! per child, in a deterministic order, no matter how the prefetch windows
//! are sized.

use sim_core::SimTime;

use crate::registry::CodePackage;
use crate::sandbox::{Sandbox, SandboxState, SandboxType};

/// Snapshot page granularity; matches the fabric's registered-memory pages.
pub const SNAPSHOT_PAGE_BYTES: usize = 4096;

/// Resident set of the executor process itself (heap, registered buffers,
/// loader state) beyond the function package — what a fork must eventually
/// fault in even for a minimal package.
pub(crate) const EXECUTOR_RESIDENT_BYTES: usize = 512 * 1024;

/// Parent state captured at a virtual-time point, from which children fork.
#[derive(Debug, Clone)]
pub struct SandboxSnapshot {
    sandbox_type: SandboxType,
    package: CodePackage,
    memory_bytes: u64,
    /// Bytes resident at capture time (what a child must fault).
    resident_bytes: u64,
}

impl SandboxSnapshot {
    /// Capture a snapshot of `sandbox`; the page map does not depend on the
    /// capture instant `_now`. Only a live (running or paused) sandbox with
    /// a loaded package can serve as a fork parent.
    pub fn capture(sandbox: &Sandbox, _now: SimTime) -> Option<SandboxSnapshot> {
        if !matches!(
            sandbox.state(),
            SandboxState::Running | SandboxState::Paused
        ) {
            return None;
        }
        let package = sandbox.package()?.clone();
        let resident_bytes = EXECUTOR_RESIDENT_BYTES as u64 + package.binary_bytes() as u64;
        Some(SandboxSnapshot {
            sandbox_type: sandbox.sandbox_type(),
            package,
            memory_bytes: sandbox.memory_bytes(),
            resident_bytes,
        })
    }

    /// Sandbox type of the parent.
    pub fn sandbox_type(&self) -> SandboxType {
        self.sandbox_type
    }

    /// The package loaded into the parent (inherited by every child).
    pub fn package(&self) -> &CodePackage {
        &self.package
    }

    /// Leased memory of the parent in bytes.
    pub(crate) fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// Number of pages in the snapshot's page map.
    pub fn total_pages(&self) -> usize {
        (self.resident_bytes as usize).div_ceil(SNAPSHOT_PAGE_BYTES)
    }
}

/// Per-child fault bookkeeping over a snapshot's page map.
///
/// Pages are faulted in ascending page order, a prefetch window at a time;
/// the tracker guarantees each page is counted exactly once and that no
/// window sizing can skip or lose a page.
#[derive(Debug, Clone)]
pub struct FaultTracker {
    total_pages: usize,
    faulted: Vec<u64>,
    faulted_count: usize,
    next_page: usize,
}

impl FaultTracker {
    /// Tracker over a page map of `total_pages` pages, all initially cold.
    fn new(total_pages: usize) -> FaultTracker {
        FaultTracker {
            total_pages,
            faulted: vec![0u64; total_pages.div_ceil(64)],
            faulted_count: 0,
            next_page: 0,
        }
    }

    /// Tracker over a snapshot's page map.
    pub fn for_snapshot(snapshot: &SandboxSnapshot) -> FaultTracker {
        FaultTracker::new(snapshot.total_pages())
    }

    /// Fault a single page. Returns `true` the first time the page is
    /// touched (a real remote read), `false` when it is already resident.
    pub(crate) fn fault(&mut self, page: usize) -> bool {
        if page >= self.total_pages {
            return false;
        }
        let (word, bit) = (page / 64, 1u64 << (page % 64));
        if self.faulted[word] & bit != 0 {
            return false;
        }
        self.faulted[word] |= bit;
        self.faulted_count += 1;
        true
    }

    /// Fault the next prefetch window of up to `window` cold pages, in page
    /// order. Returns the `(start_page, pages)` batch actually faulted, or
    /// `None` once the whole map is resident (or `window` is zero).
    pub fn fault_next_window(&mut self, window: usize) -> Option<(usize, usize)> {
        if window == 0 || self.next_page >= self.total_pages {
            return None;
        }
        let start = self.next_page;
        let mut faulted = 0;
        while faulted < window && self.next_page < self.total_pages {
            let page = self.next_page;
            self.next_page += 1;
            if self.fault(page) {
                faulted += 1;
            }
        }
        if faulted == 0 {
            None
        } else {
            Some((start, faulted))
        }
    }

    /// Pages in the map.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Pages faulted so far.
    pub fn faulted_count(&self) -> usize {
        self.faulted_count
    }

    /// Whether every page is resident.
    pub fn is_complete(&self) -> bool {
        self.faulted_count == self.total_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ImageRegistry;

    fn parent() -> Sandbox {
        let images = ImageRegistry::new();
        let (mut sb, _) =
            Sandbox::spawn(SandboxType::BareMetal, 2, 1 << 30, &images, "ubuntu:20.04");
        sb.load_package(CodePackage::minimal("echo"));
        sb
    }

    #[test]
    fn snapshot_requires_a_live_parent_with_a_package() {
        let images = ImageRegistry::new();
        let (mut bare, _) =
            Sandbox::spawn(SandboxType::BareMetal, 1, 1 << 30, &images, "ubuntu:20.04");
        // No package loaded yet: nothing to fork from.
        assert!(SandboxSnapshot::capture(&bare, SimTime::ZERO).is_none());
        bare.load_package(CodePackage::minimal("echo"));
        assert!(SandboxSnapshot::capture(&bare, SimTime::ZERO).is_some());
        bare.pause();
        assert!(SandboxSnapshot::capture(&bare, SimTime::ZERO).is_some());
        bare.terminate();
        assert!(SandboxSnapshot::capture(&bare, SimTime::ZERO).is_none());
    }

    #[test]
    fn page_map_covers_executor_base_plus_package() {
        let sb = parent();
        let snap = SandboxSnapshot::capture(&sb, SimTime::from_secs(3)).unwrap();
        let expected =
            (EXECUTOR_RESIDENT_BYTES + snap.package().binary_bytes()).div_ceil(SNAPSHOT_PAGE_BYTES);
        assert_eq!(snap.total_pages(), expected);
        assert_eq!(snap.sandbox_type(), SandboxType::BareMetal);
    }

    #[test]
    fn windows_drain_the_map_exactly_once() {
        let mut tracker = FaultTracker::new(130);
        let mut batches = Vec::new();
        while let Some(batch) = tracker.fault_next_window(32) {
            batches.push(batch);
        }
        assert_eq!(
            batches,
            vec![(0, 32), (32, 32), (64, 32), (96, 32), (128, 2)]
        );
        assert!(tracker.is_complete());
        assert!(tracker.fault_next_window(32).is_none());
    }

    #[test]
    fn demand_fault_then_window_never_double_counts() {
        let mut tracker = FaultTracker::new(10);
        assert!(tracker.fault(3));
        assert!(!tracker.fault(3));
        // The window skips the already-resident page but still faults a full
        // window's worth of cold pages.
        assert_eq!(tracker.fault_next_window(4), Some((0, 4)));
        assert_eq!(tracker.faulted_count(), 5);
        assert_eq!(tracker.total_pages() - tracker.faulted_count(), 5);
    }

    #[test]
    fn out_of_range_pages_are_ignored() {
        let mut tracker = FaultTracker::new(4);
        assert!(!tracker.fault(4));
        assert!(!tracker.fault(1000));
        assert_eq!(tracker.faulted_count(), 0);
    }

    proptest::proptest! {
        // Every page is faulted exactly once per child: across an arbitrary
        // mix of demand faults and prefetch windows, `fault` returns true at
        // most once per page and the count matches the distinct pages hit.
        #[test]
        fn prop_fault_each_page_exactly_once(
            total in 1usize..200,
            ops: Vec<(bool, u16)>,
        ) {
            let mut tracker = FaultTracker::new(total);
            // Model: the set of resident pages plus the window scan cursor.
            let mut model = std::collections::BTreeSet::new();
            let mut cursor = 0usize;
            for (is_window, value) in ops {
                if is_window {
                    let window = value as usize % 17 + 1;
                    let before = tracker.faulted_count();
                    // Replay the window against the model: scan forward from
                    // the cursor, residency-skipping, until `window` fresh
                    // pages fault.
                    let start = cursor;
                    let mut fresh = 0usize;
                    while fresh < window && cursor < total {
                        if model.insert(cursor) {
                            fresh += 1;
                        }
                        cursor += 1;
                    }
                    let expected = if fresh == 0 { None } else { Some((start, fresh)) };
                    proptest::prop_assert_eq!(tracker.fault_next_window(window), expected);
                    proptest::prop_assert_eq!(tracker.faulted_count(), before + fresh);
                } else {
                    let page = value as usize % (total * 2);
                    let fresh = tracker.fault(page);
                    // Every page faults exactly once, whichever path touched
                    // it first; out-of-map pages never fault.
                    proptest::prop_assert_eq!(fresh, page < total && model.insert(page));
                }
                proptest::prop_assert_eq!(tracker.faulted_count(), model.len());
                proptest::prop_assert_eq!(
                    tracker.total_pages() - tracker.faulted_count(),
                    total - tracker.faulted_count()
                );
            }
        }

        // Prefetch never loses pages: draining with arbitrary window sizes
        // visits every page, batch lengths sum to the map size, and batches
        // advance strictly in page order.
        #[test]
        fn prop_fault_windows_lose_nothing(
            total in 1usize..300,
            windows: Vec<u8>,
        ) {
            let mut tracker = FaultTracker::new(total);
            let mut drained = 0usize;
            let mut last_start = None;
            for w in windows {
                match tracker.fault_next_window(w as usize % 41 + 1) {
                    Some((start, pages)) => {
                        proptest::prop_assert!(pages >= 1);
                        if let Some(prev) = last_start {
                            proptest::prop_assert!(start > prev);
                        }
                        last_start = Some(start);
                        drained += pages;
                    }
                    None => break,
                }
            }
            // Finish the drain with a fixed window.
            while let Some((_, pages)) = tracker.fault_next_window(32) {
                drained += pages;
            }
            proptest::prop_assert_eq!(drained, total);
            proptest::prop_assert!(tracker.is_complete());
            proptest::prop_assert_eq!(tracker.total_pages() - tracker.faulted_count(), 0);
        }
    }
}
