//! Code packages and registries.
//!
//! Functions are deployed as *code packages*: a named bundle of functions
//! plus metadata (binary size, required image). Packages are pushed to a
//! [`FunctionRegistry`] (the paper's Docker registry of enriched executor
//! images, Sec. IV-A); executors pull the package during a cold start and the
//! pull cost depends on the package and image sizes.

use std::collections::BTreeMap;
use std::sync::Arc;

use sim_core::sync::RwLock;
use sim_core::SimDuration;

use crate::function::SharedFunction;

/// A deployable bundle of functions sharing one sandbox image.
#[derive(Debug, Clone)]
pub struct CodePackage {
    name: String,
    functions: Vec<SharedFunction>,
    binary_bytes: usize,
    image: String,
}

impl CodePackage {
    /// Create a package. `binary_bytes` is the size of the compiled shared
    /// library (the paper's no-op library is 7.88 kB).
    pub fn new(name: &str, image: &str, binary_bytes: usize) -> CodePackage {
        CodePackage {
            name: name.to_string(),
            functions: Vec::new(),
            binary_bytes,
            image: image.to_string(),
        }
    }

    /// Package with the paper's default executor image and no-op library size.
    pub fn minimal(name: &str) -> CodePackage {
        CodePackage::new(name, "ubuntu:20.04", 7_880)
    }

    /// Add a function to the package (builder style).
    pub fn with_function(mut self, function: SharedFunction) -> CodePackage {
        self.functions.push(function);
        self
    }

    /// Package name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Container image the package executes in.
    pub fn image(&self) -> &str {
        &self.image
    }

    /// Compiled code size in bytes.
    pub(crate) fn binary_bytes(&self) -> usize {
        self.binary_bytes
    }

    /// All functions in the package, in registration order. The index of a
    /// function in this list is the *function index* carried in the RDMA
    /// immediate value of an invocation.
    #[cfg(test)]
    fn functions(&self) -> &[SharedFunction] {
        &self.functions
    }

    /// Look up a function by its index.
    pub fn function_by_index(&self, index: usize) -> Option<&SharedFunction> {
        self.functions.get(index)
    }

    /// Look up a function (and its index) by name.
    pub fn function_by_name(&self, name: &str) -> Option<(usize, &SharedFunction)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name() == name)
    }
}

/// A registry of deployed code packages (one per tenant namespace).
#[derive(Debug, Default, Clone)]
pub struct FunctionRegistry {
    packages: Arc<RwLock<BTreeMap<String, CodePackage>>>,
}

impl FunctionRegistry {
    /// An empty registry.
    pub fn new() -> FunctionRegistry {
        FunctionRegistry::default()
    }

    /// Deploy (or replace) a package.
    pub fn deploy(&self, package: CodePackage) {
        self.packages
            .write()
            .insert(package.name().to_string(), package);
    }

    /// Fetch a deployed package by name.
    pub fn fetch(&self, name: &str) -> Option<CodePackage> {
        self.packages.read().get(name).cloned()
    }

    /// Number of deployed packages.
    pub fn len(&self) -> usize {
        self.packages.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.packages.read().is_empty()
    }

    /// Cost of transferring a package's code to an executor over the
    /// management (TCP) network during a cold start.
    pub fn code_submission_cost(&self, name: &str) -> Option<SimDuration> {
        let packages = self.packages.read();
        let package = packages.get(name)?;
        // ~1 GB/s effective code push rate plus a fixed control exchange.
        Some(
            SimDuration::from_millis(2)
                + SimDuration::from_secs_f64(package.binary_bytes() as f64 / 1.0e9),
        )
    }
}

/// Docker image metadata used by the cold-start cost model.
#[derive(Debug, Clone)]
pub struct ImageInfo {
    /// Image name (e.g. `ubuntu:20.04`).
    pub name: String,
    /// Compressed image size in bytes.
    pub size_bytes: u64,
}

/// A registry of container images with pull-cost modelling.
#[derive(Debug, Clone)]
pub struct ImageRegistry {
    images: Arc<RwLock<BTreeMap<String, ImageInfo>>>,
    /// Images already present in a node-local cache do not pay the pull cost;
    /// the cache is global in the simulation (all spot executors share a
    /// warmed node-local registry mirror, as the paper assumes).
    cached: Arc<RwLock<BTreeMap<String, bool>>>,
    pull_bytes_per_sec: f64,
}

impl Default for ImageRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ImageRegistry {
    /// A registry pre-populated with the evaluation image.
    pub fn new() -> ImageRegistry {
        let registry = ImageRegistry {
            images: Arc::new(RwLock::new(BTreeMap::new())),
            cached: Arc::new(RwLock::new(BTreeMap::new())),
            pull_bytes_per_sec: 250.0e6,
        };
        registry.push(ImageInfo {
            name: "ubuntu:20.04".to_string(),
            size_bytes: 73 * 1024 * 1024,
        });
        registry.mark_cached("ubuntu:20.04");
        registry
    }

    /// Publish an image.
    pub fn push(&self, image: ImageInfo) {
        self.images.write().insert(image.name.clone(), image);
    }

    /// Mark an image as present in the node-local cache.
    fn mark_cached(&self, name: &str) {
        self.cached.write().insert(name.to_string(), true);
    }

    /// Whether the image is cached locally.
    fn is_cached(&self, name: &str) -> bool {
        self.cached.read().get(name).copied().unwrap_or(false)
    }

    /// Image metadata.
    fn info(&self, name: &str) -> Option<ImageInfo> {
        self.images.read().get(name).cloned()
    }

    /// Cost of making the image available on a node: zero if cached, a pull
    /// over the registry link otherwise (and the image becomes cached).
    pub(crate) fn pull_cost(&self, name: &str) -> SimDuration {
        if self.is_cached(name) {
            return SimDuration::ZERO;
        }
        let size = self
            .info(name)
            .map(|i| i.size_bytes)
            .unwrap_or(100 * 1024 * 1024);
        self.mark_cached(name);
        SimDuration::from_secs_f64(size as f64 / self.pull_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{echo_function, failing_function};

    #[test]
    fn package_indexing_matches_registration_order() {
        let pkg = CodePackage::minimal("bench")
            .with_function(echo_function())
            .with_function(failing_function("boom"));
        assert_eq!(pkg.functions().len(), 2);
        assert_eq!(pkg.function_by_index(0).unwrap().name(), "echo");
        assert_eq!(pkg.function_by_index(1).unwrap().name(), "always-fails");
        assert!(pkg.function_by_index(2).is_none());
        let (idx, f) = pkg.function_by_name("always-fails").unwrap();
        assert_eq!(idx, 1);
        assert_eq!(f.name(), "always-fails");
        assert!(pkg.function_by_name("missing").is_none());
    }

    #[test]
    fn minimal_package_matches_paper_metadata() {
        let pkg = CodePackage::minimal("noop");
        assert_eq!(pkg.binary_bytes(), 7_880);
        assert_eq!(pkg.image(), "ubuntu:20.04");
    }

    #[test]
    fn registry_deploy_fetch() {
        let reg = FunctionRegistry::new();
        assert!(reg.is_empty());
        reg.deploy(CodePackage::minimal("a").with_function(echo_function()));
        reg.deploy(CodePackage::minimal("b"));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.fetch("a").unwrap().functions().len(), 1);
        assert!(reg.fetch("missing").is_none());
    }

    #[test]
    fn code_submission_cost_is_single_digit_milliseconds() {
        let reg = FunctionRegistry::new();
        reg.deploy(CodePackage::minimal("noop"));
        let cost = reg.code_submission_cost("noop").unwrap();
        // The paper reports single-digit milliseconds for code submission.
        assert!(cost.as_millis_f64() < 10.0);
        assert!(reg.code_submission_cost("missing").is_none());
    }

    #[test]
    fn image_pull_cost_is_zero_when_cached() {
        let reg = ImageRegistry::new();
        assert!(reg.is_cached("ubuntu:20.04"));
        assert!(reg.pull_cost("ubuntu:20.04").is_zero());
    }

    #[test]
    fn uncached_image_pull_pays_transfer_and_then_caches() {
        let reg = ImageRegistry::new();
        reg.push(ImageInfo {
            name: "pytorch:1.9".into(),
            size_bytes: 500 * 1024 * 1024,
        });
        assert!(!reg.is_cached("pytorch:1.9"));
        let first = reg.pull_cost("pytorch:1.9");
        assert!(first.as_secs_f64() > 1.0);
        let second = reg.pull_cost("pytorch:1.9");
        assert!(second.is_zero());
    }

    #[test]
    fn unknown_image_uses_default_size() {
        let reg = ImageRegistry::new();
        let cost = reg.pull_cost("mystery:latest");
        assert!(cost.as_secs_f64() > 0.1);
    }
}
