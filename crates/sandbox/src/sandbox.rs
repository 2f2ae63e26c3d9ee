//! Sandbox types, lifecycle and the cold-start cost model.
//!
//! A sandbox is the isolation boundary around one executor process. The paper
//! evaluates bare-metal processes and Docker containers with SR-IOV (Fig. 9),
//! the two types modelled here. Cold start cost is dominated by spawning the sandbox and its worker threads;
//! this module provides the per-type cost breakdown that the rFaaS allocator
//! charges when it creates an executor.

use sim_core::SimDuration;

use crate::registry::{CodePackage, ImageRegistry};

/// The isolation technology wrapping an executor process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SandboxType {
    /// A plain Linux process pinned to the leased cores (trusted tenants).
    BareMetal,
    /// A Docker container using an SR-IOV virtual function for RDMA.
    Docker,
}

impl SandboxType {
    /// Whether this sandbox reaches the NIC through an SR-IOV virtual
    /// function (adds per-message overhead) rather than the physical one.
    pub fn uses_virtual_function(self) -> bool {
        !matches!(self, SandboxType::BareMetal)
    }

    /// All sandbox types, for parameter sweeps.
    #[cfg(test)]
    fn all() -> [SandboxType; 2] {
        [SandboxType::BareMetal, SandboxType::Docker]
    }
}

/// Cost model of one sandbox type.
#[derive(Debug, Clone)]
pub(crate) struct SandboxProfile {
    /// Which sandbox technology this profile describes.
    pub sandbox_type: SandboxType,
    /// Fixed cost of creating the sandbox (namespace/daemon/VM setup).
    pub create_cost: SimDuration,
    /// Cost of starting the executor process inside the sandbox, opening the
    /// RDMA device and registering its memory buffers.
    pub executor_start_cost: SimDuration,
    /// Additional cost per worker thread (thread creation, QP + CQ setup,
    /// buffer registration, core pinning).
    pub per_worker_cost: SimDuration,
    /// Cost of tearing the sandbox down when the lease ends.
    pub teardown_cost: SimDuration,
    /// Control-plane cost of forking a child from a warm parent's snapshot
    /// (clone the process skeleton and QP metadata; pages come later, faulted
    /// over RDMA). Microseconds, not milliseconds — the point of the fork
    /// tier.
    pub fork_cost: SimDuration,
}

impl SandboxProfile {
    /// Cost profile for the given sandbox type, calibrated to Fig. 9: a
    /// bare-metal executor spawns in tens of milliseconds, a Docker container
    /// with the SR-IOV plugin needs ~2.7 s.
    pub(crate) fn for_type(sandbox_type: SandboxType) -> SandboxProfile {
        match sandbox_type {
            SandboxType::BareMetal => SandboxProfile {
                sandbox_type,
                create_cost: SimDuration::from_millis(2),
                executor_start_cost: SimDuration::from_millis(17),
                per_worker_cost: SimDuration::from_micros(450),
                teardown_cost: SimDuration::from_millis(3),
                fork_cost: SimDuration::from_micros(18),
            },
            SandboxType::Docker => SandboxProfile {
                sandbox_type,
                create_cost: SimDuration::from_millis(1_950),
                executor_start_cost: SimDuration::from_millis(680),
                per_worker_cost: SimDuration::from_millis(1),
                teardown_cost: SimDuration::from_millis(350),
                fork_cost: SimDuration::from_micros(45),
            },
        }
    }

    /// Setup cost of forking a child with `workers` worker threads from a
    /// warm parent. The child's worker threads re-arm inherited QP state
    /// instead of building it (a fraction of `per_worker_cost`); memory is
    /// not copied at all — pages fault in lazily over RDMA afterwards.
    pub(crate) fn fork_setup_cost(&self, workers: usize) -> SimDuration {
        self.fork_cost + SimDuration::from_micros(2) * workers as u64
    }
}

/// Per-step breakdown of spawning a sandboxed executor, matching the stacked
/// bars of Fig. 9 ("Spawn worker" is the dominant component).
#[derive(Debug, Clone)]
pub struct SpawnBreakdown {
    /// Image pull (zero when the image is cached on the node).
    pub image_pull: SimDuration,
    /// Sandbox creation (container/VM/namespace setup).
    pub sandbox_create: SimDuration,
    /// Executor process start, RDMA device open and buffer registration.
    pub executor_start: SimDuration,
    /// Worker-thread creation and per-thread RDMA resources.
    pub workers: SimDuration,
}

impl SpawnBreakdown {
    /// Total spawn time.
    pub fn total(&self) -> SimDuration {
        self.image_pull + self.sandbox_create + self.executor_start + self.workers
    }
}

/// Lifecycle state of a sandbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SandboxState {
    /// Being created (cold start in progress).
    Initializing,
    /// Executor process running, workers ready to serve invocations.
    Running,
    /// Kept warm but idle; can be resumed cheaply.
    Paused,
    /// Destroyed; resources returned to the node.
    Terminated,
}

/// One sandbox instance hosting an executor process.
#[derive(Debug, Clone)]
pub struct Sandbox {
    profile: SandboxProfile,
    state: SandboxState,
    workers: usize,
    package: Option<CodePackage>,
    memory_bytes: u64,
}

impl Sandbox {
    /// Create (cold-start) a sandbox of the given type with `workers` worker
    /// threads and `memory_bytes` of leased memory, returning the instance
    /// and the spawn cost breakdown.
    pub fn spawn(
        sandbox_type: SandboxType,
        workers: usize,
        memory_bytes: u64,
        images: &ImageRegistry,
        image: &str,
    ) -> (Sandbox, SpawnBreakdown) {
        let profile = SandboxProfile::for_type(sandbox_type);
        let image_pull = if sandbox_type == SandboxType::BareMetal {
            SimDuration::ZERO
        } else {
            images.pull_cost(image)
        };
        let breakdown = SpawnBreakdown {
            image_pull,
            sandbox_create: profile.create_cost,
            executor_start: profile.executor_start_cost,
            workers: profile.per_worker_cost * workers as u64,
        };
        (
            Sandbox {
                profile,
                state: SandboxState::Running,
                workers,
                package: None,
                memory_bytes,
            },
            breakdown,
        )
    }

    /// Fork a child from a warm parent's snapshot: the child starts running
    /// with the parent's package already loaded, paying only the µs-scale
    /// fork setup cost returned alongside — its memory pages are *not*
    /// copied; they fault in lazily over one-sided RDMA reads from the
    /// parent node (tracked by [`crate::snapshot::FaultTracker`]).
    pub fn fork_from(
        snapshot: &crate::snapshot::SandboxSnapshot,
        workers: usize,
    ) -> (Sandbox, SimDuration) {
        let profile = SandboxProfile::for_type(snapshot.sandbox_type());
        let setup = profile.fork_setup_cost(workers);
        (
            Sandbox {
                profile,
                state: SandboxState::Running,
                workers,
                package: Some(snapshot.package().clone()),
                memory_bytes: snapshot.memory_bytes(),
            },
            setup,
        )
    }

    /// Sandbox type.
    pub fn sandbox_type(&self) -> SandboxType {
        self.profile.sandbox_type
    }

    /// Lifecycle state.
    pub fn state(&self) -> SandboxState {
        self.state
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Leased memory in bytes.
    pub(crate) fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// The code package currently loaded, if any.
    pub fn package(&self) -> Option<&CodePackage> {
        self.package.as_ref()
    }

    /// Load a code package into the executor (the "Submit code" step of a
    /// cold invocation). Returns the submission cost.
    pub fn load_package(&mut self, package: CodePackage) -> SimDuration {
        // Loading the shared library and resolving symbols: proportional to
        // code size with a small fixed dlopen cost.
        let cost = SimDuration::from_micros(300)
            + SimDuration::from_secs_f64(package.binary_bytes() as f64 / 2.0e9);
        self.package = Some(package);
        cost
    }

    /// Pause the sandbox (keep it warm while idle). Only a running sandbox
    /// can be paused.
    pub(crate) fn pause(&mut self) -> bool {
        if self.state == SandboxState::Running {
            self.state = SandboxState::Paused;
            true
        } else {
            false
        }
    }

    /// Resume a paused sandbox; returns the (cheap) resume cost, or `None`
    /// if the sandbox is not paused.
    pub fn resume(&mut self) -> Option<SimDuration> {
        if self.state == SandboxState::Paused {
            self.state = SandboxState::Running;
            Some(SimDuration::from_micros(150))
        } else {
            None
        }
    }

    /// Destroy the sandbox, returning the teardown cost — or `None` if it is
    /// already terminated (teardown is billed exactly once).
    pub fn terminate(&mut self) -> Option<SimDuration> {
        if self.state == SandboxState::Terminated {
            return None;
        }
        self.state = SandboxState::Terminated;
        Some(self.profile.teardown_cost)
    }

    /// Re-shape the worker-thread count when a pooled parent is resumed for
    /// a lease that asked for a different worker count.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ImageRegistry;

    /// Cold-spawn cost of a one-worker sandbox of `sandbox_type` from a
    /// cached image.
    fn spawn_cost(sandbox_type: SandboxType) -> SimDuration {
        let images = ImageRegistry::new();
        Sandbox::spawn(sandbox_type, 1, 1 << 20, &images, "ubuntu:20.04")
            .1
            .total()
    }

    #[test]
    fn bare_metal_spawn_is_tens_of_milliseconds() {
        let images = ImageRegistry::new();
        let (_sb, breakdown) =
            Sandbox::spawn(SandboxType::BareMetal, 1, 1 << 30, &images, "ubuntu:20.04");
        let total = breakdown.total().as_millis_f64();
        assert!((10.0..60.0).contains(&total), "bare-metal spawn {total} ms");
        assert!(breakdown.image_pull.is_zero());
    }

    #[test]
    fn docker_spawn_is_seconds_scale() {
        let images = ImageRegistry::new();
        let (_sb, breakdown) =
            Sandbox::spawn(SandboxType::Docker, 1, 1 << 30, &images, "ubuntu:20.04");
        let total = breakdown.total().as_secs_f64();
        // Paper: ~2.7 s for Docker with the SR-IOV plugin.
        assert!((2.0..3.5).contains(&total), "docker spawn {total} s");
    }

    #[test]
    fn more_workers_cost_more_but_not_linearly_dominant() {
        let images = ImageRegistry::new();
        let (_s1, b1) = Sandbox::spawn(SandboxType::BareMetal, 1, 1 << 30, &images, "ubuntu:20.04");
        let (_s32, b32) =
            Sandbox::spawn(SandboxType::BareMetal, 32, 1 << 30, &images, "ubuntu:20.04");
        assert!(b32.total() > b1.total());
        assert!(b32.workers > b1.workers * 30);
        // Spawn is still dominated by the executor start, as in Fig. 9.
        assert!(b32.executor_start > b32.workers);
    }

    #[test]
    fn sandbox_types_ranked_by_isolation_cost() {
        let bare = spawn_cost(SandboxType::BareMetal);
        let docker = spawn_cost(SandboxType::Docker);
        assert!(bare < docker);
    }

    #[test]
    fn virtual_function_flag_matches_type() {
        assert!(!SandboxType::BareMetal.uses_virtual_function());
        assert!(SandboxType::Docker.uses_virtual_function());
        assert_eq!(SandboxType::all().len(), 2);
    }

    #[test]
    fn lifecycle_transitions() {
        let images = ImageRegistry::new();
        let (mut sb, _) =
            Sandbox::spawn(SandboxType::BareMetal, 2, 1 << 20, &images, "ubuntu:20.04");
        assert_eq!(sb.state(), SandboxState::Running);
        assert_eq!(sb.workers(), 2);
        assert!(sb.pause());
        assert!(!sb.pause());
        assert_eq!(sb.state(), SandboxState::Paused);
        assert!(sb.resume().is_some());
        assert!(sb.resume().is_none());
        let teardown = sb.terminate().expect("first terminate bills teardown");
        assert!(!teardown.is_zero());
        assert_eq!(sb.state(), SandboxState::Terminated);
    }

    #[test]
    fn pause_rejected_outside_running() {
        let images = ImageRegistry::new();
        let (mut sb, _) =
            Sandbox::spawn(SandboxType::BareMetal, 1, 1 << 20, &images, "ubuntu:20.04");
        sb.pause();
        // Paused → pause is illegal.
        assert!(!sb.pause());
        assert_eq!(sb.state(), SandboxState::Paused);
        sb.resume();
        sb.terminate();
        // Terminated → pause is illegal and does not resurrect the sandbox.
        assert!(!sb.pause());
        assert_eq!(sb.state(), SandboxState::Terminated);
    }

    #[test]
    fn resume_rejected_outside_paused() {
        let images = ImageRegistry::new();
        let (mut sb, _) =
            Sandbox::spawn(SandboxType::BareMetal, 1, 1 << 20, &images, "ubuntu:20.04");
        // Running → resume is a no-op with no cost billed.
        assert!(sb.resume().is_none());
        assert_eq!(sb.state(), SandboxState::Running);
        sb.terminate();
        assert!(sb.resume().is_none());
        assert_eq!(sb.state(), SandboxState::Terminated);
    }

    #[test]
    fn resume_bills_the_cheap_warm_cost_once_per_pause() {
        let images = ImageRegistry::new();
        let (mut sb, _) =
            Sandbox::spawn(SandboxType::BareMetal, 1, 1 << 20, &images, "ubuntu:20.04");
        assert!(sb.pause());
        let resume = sb.resume().expect("paused sandbox resumes");
        // Resume is the warm tier: far below any spawn, well above zero.
        assert_eq!(resume, SimDuration::from_micros(150));
        assert!(resume < spawn_cost(SandboxType::BareMetal));
        // Back-to-back resume without an intervening pause bills nothing.
        assert!(sb.resume().is_none());
        assert!(sb.pause());
        assert_eq!(sb.resume(), Some(SimDuration::from_micros(150)));
    }

    #[test]
    fn terminate_is_billed_exactly_once() {
        let images = ImageRegistry::new();
        let (mut sb, _) =
            Sandbox::spawn(SandboxType::BareMetal, 1, 1 << 20, &images, "ubuntu:20.04");
        assert!(sb.terminate().is_some());
        // Double-terminate is an illegal transition: no second teardown bill.
        assert!(sb.terminate().is_none());
        assert_eq!(sb.state(), SandboxState::Terminated);
    }

    #[test]
    fn terminate_from_paused_still_tears_down() {
        let images = ImageRegistry::new();
        let (mut sb, _) = Sandbox::spawn(SandboxType::Docker, 1, 1 << 20, &images, "ubuntu:20.04");
        sb.pause();
        let teardown = sb.terminate().expect("paused sandbox can be destroyed");
        assert_eq!(
            teardown,
            SandboxProfile::for_type(SandboxType::Docker).teardown_cost
        );
    }

    #[test]
    fn fork_setup_is_microseconds_for_every_type() {
        for sandbox_type in SandboxType::all() {
            let profile = SandboxProfile::for_type(sandbox_type);
            let fork = profile.fork_setup_cost(1);
            assert!(
                fork < SimDuration::from_micros(100),
                "{sandbox_type:?} fork setup {fork:?} must stay sub-100µs"
            );
            // The whole point of the fork tier: orders of magnitude under a
            // cold spawn of the same sandbox type.
            assert!(spawn_cost(sandbox_type).as_micros_f64() / fork.as_micros_f64() > 100.0);
        }
    }

    #[test]
    fn forked_child_inherits_package_and_runs() {
        let images = ImageRegistry::new();
        let (mut parent, _) =
            Sandbox::spawn(SandboxType::BareMetal, 2, 1 << 30, &images, "ubuntu:20.04");
        parent.load_package(CodePackage::minimal("echo"));
        let snapshot =
            crate::snapshot::SandboxSnapshot::capture(&parent, sim_core::SimTime::ZERO).unwrap();
        let (child, setup) = Sandbox::fork_from(&snapshot, 4);
        assert_eq!(child.state(), SandboxState::Running);
        assert_eq!(child.workers(), 4);
        assert_eq!(child.package().unwrap().name(), "echo");
        assert_eq!(child.memory_bytes(), 1 << 30);
        assert_eq!(
            setup,
            SandboxProfile::for_type(SandboxType::BareMetal).fork_setup_cost(4)
        );
    }

    #[test]
    fn load_package_cost_is_small_and_stores_package() {
        let images = ImageRegistry::new();
        let (mut sb, _) =
            Sandbox::spawn(SandboxType::BareMetal, 1, 1 << 20, &images, "ubuntu:20.04");
        assert!(sb.package().is_none());
        let cost = sb.load_package(CodePackage::minimal("noop"));
        assert!(cost.as_millis_f64() < 1.0);
        assert_eq!(sb.package().unwrap().name(), "noop");
    }

    #[test]
    fn uncached_image_inflates_docker_cold_start() {
        let images = ImageRegistry::new();
        images.push(crate::registry::ImageInfo {
            name: "pytorch-big:latest".into(),
            size_bytes: 1_000 * 1024 * 1024,
        });
        let (_sb, breakdown) = Sandbox::spawn(
            SandboxType::Docker,
            1,
            1 << 30,
            &images,
            "pytorch-big:latest",
        );
        assert!(breakdown.image_pull.as_secs_f64() > 2.0);
    }
}
