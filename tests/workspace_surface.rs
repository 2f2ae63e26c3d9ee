//! Smoke tests for the workspace surface, and the rules the compiler cannot
//! hold, checked by reading the sources as text.
//!
//! The smoke tests: the umbrella crate re-exports every layer, and the
//! `rfaas` crate-level doc example (lease → hot invoke → deallocate) keeps
//! working both as a doctest (`cargo test --doc -p rfaas`, run by tier-1 and
//! CI) and as this compiled mirror of it — so a regression in the documented
//! entry-point flow fails the suite even if doctests are filtered out.
//!
//! What is still a scan: the one host wait and wall-clock read, shim and
//! crate membership, the lock-rank table, the lock-free client layer and the
//! absence of hash collections, process-wide atomic counters, the one
//! `from_nanos(1_700)`, `#[non_exhaustive]` audit enums, the pool and
//! `*Stats` counts, every `pub` item's outside caller, and the option
//! surface. What the types hold is not scanned: no `NicProfile` or
//! `TcpProfile` but the one `static` of each, and no `Endpoint` or
//! `ProtectionDomain` built outside `rdma-fabric`; their `compile_fail`
//! doctests show each rule failing to compile.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use rfaas_repro::cluster_sim::NodeResources;
use rfaas_repro::rdma_fabric::Fabric;
use rfaas_repro::rfaas::{RFaasConfig, ResourceManager, Session, SpotExecutor};
use rfaas_repro::sandbox::{echo_function, CodePackage, FunctionRegistry};

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file of the product crates and the umbrella crate: `crates/`
/// and the root `src/`.
fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    rust_sources(&root.join("src"), &mut sources);
    sources
}

/// The lines of a source file outside its `#[cfg(test)]` items, each with
/// its 1-based line number. Such an item (a `mod tests`, a lone `fn`, an
/// `impl` block, a `use`, a field) runs from its attribute to the first code
/// line at the attribute's indent that ends in `}`, `;` or `,`; product code
/// after it is kept.
fn product_lines(text: &str) -> Vec<(usize, &str)> {
    let mut lines = Vec::new();
    // The indent of the `#[cfg(test)]` item being skipped.
    let mut test_item = None;
    for (n, line) in text.lines().enumerate() {
        let code = line.trim_start();
        let indent = line.len() - code.len();
        match test_item {
            Some(open) => {
                let ends = indent == open && !is_comment(line) && code.ends_with(['}', ';', ',']);
                if ends {
                    test_item = None;
                }
            }
            None if code == "#[cfg(test)]" => test_item = Some(indent),
            None => lines.push((n + 1, line)),
        }
    }
    lines
}

/// Whether `line` is a comment, doc comments included.
fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// Whether `line` is a `///` or `//!` doc comment.
fn is_doc(line: &str) -> bool {
    let line = line.trim_start();
    line.starts_with("///") || line.starts_with("//!")
}

/// Mirror of the `rfaas` crate-level doc example, invoked through the
/// umbrella crate's re-exports.
#[test]
fn rfaas_doc_example_flow_runs() {
    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(CodePackage::minimal("demo").with_function(echo_function()));
    let manager = ResourceManager::new(&fabric, RFaasConfig::default());
    let executor = SpotExecutor::new(
        &fabric,
        "node-1",
        NodeResources {
            cores: 4,
            memory_mib: 8192,
        },
        registry,
        RFaasConfig::default(),
    );
    manager.register_executor(&executor);

    let session = Session::builder(&fabric, "client", &manager, "demo")
        .connect()
        .unwrap();
    let echo = session.function::<[u8], [u8]>("echo").unwrap();
    let (reply, rtt) = echo.invoke_timed(b"hello rfaas").unwrap();
    assert_eq!(reply, b"hello rfaas");
    assert!(rtt.as_micros_f64() < 50.0);
    session.close().unwrap();
}

/// Every workspace layer is reachable through the umbrella crate, in DAG
/// order from `sim_core` at the bottom upward.
#[test]
fn umbrella_reexports_every_layer() {
    // sim-core: virtual time.
    let t = rfaas_repro::sim_core::SimDuration::from_micros(3);
    assert_eq!(t.as_nanos(), 3_000);

    // rdma-fabric: NIC cost profile.
    let profile = &rfaas_repro::rdma_fabric::CX5_100G;
    assert!(profile.one_way_latency.as_nanos() > 0);

    // cluster-sim: the paper's evaluation node shape.
    let node = rfaas_repro::cluster_sim::NodeResources::xeon_gold_6154_dual();
    assert_eq!(node.cores, 36);

    // sandbox: the echo function ships in every registry.
    assert_eq!(rfaas_repro::sandbox::echo_function().name(), "echo");

    // workloads: deterministic payload generation.
    let payload = rfaas_repro::workloads::generate_payload(128, 7);
    assert_eq!(payload.len(), 128);
    assert_eq!(payload, rfaas_repro::workloads::generate_payload(128, 7));

    // faas-baselines: REST-based platforms and the kernel TCP round trip
    // exist for comparison.
    let lambda = rfaas_repro::faas_baselines::aws_lambda();
    assert!(lambda.accepts_payload(1024));
    let tcp = &rfaas_repro::faas_baselines::KERNEL_100G;
    assert!(tcp.request_response(64, 64) > profile.one_way_latency);

    // workloads: a one-rank MPI world runs its body once.
    let ranks = rfaas_repro::workloads::MpiWorld::new(1).each(|rank| rank.rank());
    assert_eq!(ranks, [0]);
}

/// Every host-side wait goes through `Fabric::run_until`, and it holds the
/// workspace's one wall-clock read: outside test modules and comments,
/// `crates/`, the root `src/` and `examples/` name `Instant::now` and
/// `yield_now` once each, both in `run_until`, and never `SystemTime` or
/// `thread::sleep`, so no host clock can reach a virtual-time result. They
/// start no thread (`thread::spawn`, `thread::scope`) and name no `mpsc`
/// channel: the product runs on its caller's thread. Nothing there or in
/// `shims/` parks a thread on a condition variable. Reads the sources as
/// text.
#[test]
fn fabric_run_until_is_the_only_host_wait() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = workspace_sources(root);
    rust_sources(&root.join("examples"), &mut sources);
    let mut shim_sources = Vec::new();
    rust_sources(&root.join("shims"), &mut shim_sources);

    // (file, 1-based line) of every product-code yield and wall-clock read.
    let mut yields = Vec::new();
    let mut wall_clock = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).unwrap();
        for (n, line) in product_lines(&text) {
            if is_comment(line) {
                continue;
            }
            if line.contains("yield_now") {
                yields.push((path.clone(), n));
            }
            if line.contains("Instant::now") {
                wall_clock.push((path.clone(), n));
            }
            for banned in [
                "SystemTime",
                "thread::sleep",
                "thread::spawn",
                "thread::scope",
                "mpsc",
            ] {
                assert!(!line.contains(banned), "{path:?}:{n} names `{banned}`");
            }
        }
    }

    let fabric = root.join("crates/rdma-fabric/src/fabric.rs");
    let fabric_text = fs::read_to_string(&fabric).unwrap();
    let lines: Vec<&str> = fabric_text.lines().collect();
    let start = 1 + lines
        .iter()
        .position(|line| line.contains("pub fn run_until("))
        .expect("Fabric::run_until exists");
    let end = start
        + lines[start..]
            .iter()
            .position(|line| *line == "    }")
            .expect("Fabric::run_until ends");
    for (what, found) in [("yield_now", &yields), ("Instant::now", &wall_clock)] {
        assert_eq!(found.len(), 1, "`{what}` outside tests: {found:?}");
        let (path, line) = &found[0];
        assert!(
            *path == fabric && (start..=end).contains(line),
            "`{what}` is not in Fabric::run_until: {path:?}:{line}"
        );
    }

    for path in sources.iter().chain(&shim_sources) {
        assert!(
            !fs::read_to_string(path).unwrap().contains("Condvar"),
            "{path:?} names a Condvar"
        );
    }
}

/// Whether one of `lines` of a manifest declares the dependency `name`.
fn names_dependency<'a>(mut lines: impl Iterator<Item = &'a str>, name: &str) -> bool {
    lines.any(|line| {
        line.strip_prefix(name)
            .is_some_and(|rest| rest.starts_with(".workspace") || rest.starts_with(" ="))
    })
}

/// No crate can outlive its last caller. Every directory under `shims/` is a
/// workspace member that at least one `crates/*/Cargo.toml` names as a
/// dependency (the shim directory name is the dependency name). Every
/// directory under `crates/` is a workspace member that the umbrella
/// `Cargo.toml` names under `[dependencies]` or `[dev-dependencies]`, by
/// its package name, and there are exactly 9. Reads the manifests as text.
#[test]
fn every_shim_is_a_member_with_a_dependent() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let workspace = fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    let crate_manifests: Vec<String> = crate_dirs
        .iter()
        .map(|dir| fs::read_to_string(dir.join("Cargo.toml")).unwrap())
        .collect();

    for entry in fs::read_dir(root.join("shims")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            workspace.contains(&format!("\"shims/{name}\"")),
            "shims/{name} is not a workspace member"
        );
        assert!(
            crate_manifests
                .iter()
                .any(|manifest| names_dependency(manifest.lines(), &name)),
            "no crates/*/Cargo.toml depends on shims/{name}"
        );
    }

    // The umbrella's dependency lines: those under `[dependencies]` and
    // `[dev-dependencies]`.
    let mut section = "";
    let umbrella_deps: Vec<&str> = workspace
        .lines()
        .filter(|line| {
            if line.starts_with('[') {
                section = line;
            }
            section == "[dependencies]" || section == "[dev-dependencies]"
        })
        .collect();
    for (dir, manifest) in crate_dirs.iter().zip(&crate_manifests) {
        let dir = dir.file_name().unwrap().to_str().unwrap();
        assert!(
            workspace.contains(&format!("\"crates/{dir}\"")),
            "crates/{dir} is not a workspace member"
        );
        let package = manifest
            .lines()
            .find_map(|line| line.strip_prefix("name = \""))
            .and_then(|rest| rest.strip_suffix('"'))
            .expect("crate manifest names its package");
        assert!(
            names_dependency(umbrella_deps.iter().copied(), package),
            "the umbrella Cargo.toml does not depend on crates/{dir} ({package})"
        );
    }
    assert_eq!(crate_dirs.len(), 9, "crates: {crate_dirs:?}");
}

/// The lock-rank table in `sim_core::sync::ranks` lists the workspace's
/// shared objects: ranks strictly increase in declaration order, constant
/// and lock names are unique, every constant is used as `ranks::NAME` by
/// product code outside `sync.rs`, and there are exactly 5. Reads the
/// sources as text.
#[test]
fn lock_ranks_are_ordered_used_and_counted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sync = root.join("crates/sim-core/src/sync.rs");
    let sync_text = fs::read_to_string(&sync).unwrap();
    // (constant, rank, lock name) per `pub const` line of `pub mod ranks`.
    let table: Vec<(&str, u16, &str)> = sync_text
        .lines()
        .skip_while(|line| *line != "pub mod ranks {")
        .take_while(|line| *line != "}")
        .filter_map(|line| {
            let rest = line.trim().strip_prefix("pub const ")?;
            let (constant, rest) = rest.split_once(": LockRank = LockRank::new(")?;
            let (rank, rest) = rest.split_once(", \"")?;
            let (name, _) = rest.split_once('"')?;
            Some((constant, rank.parse().unwrap(), name))
        })
        .collect();

    for pair in table.windows(2) {
        assert!(
            pair[0].1 < pair[1].1,
            "{:?} must rank below {:?}",
            pair[0],
            pair[1]
        );
    }
    for (what, mut names) in [
        ("constant", table.iter().map(|r| r.0).collect::<Vec<_>>()),
        ("lock name", table.iter().map(|r| r.2).collect()),
    ] {
        names.sort_unstable();
        for pair in names.windows(2) {
            assert_ne!(pair[0], pair[1], "duplicate {what}");
        }
    }

    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    let product: Vec<String> = sources
        .iter()
        .filter(|path| **path != sync)
        .map(|path| {
            let text = fs::read_to_string(path).unwrap();
            let lines: Vec<&str> = product_lines(&text)
                .into_iter()
                .map(|(_, line)| line)
                .collect();
            lines.join("\n")
        })
        .collect();
    for (constant, _, _) in &table {
        let needle = format!("ranks::{constant}");
        let used = product.iter().any(|text| {
            text.match_indices(&needle).any(|(at, _)| {
                !text[at + needle.len()..].starts_with(|c: char| c == '_' || c.is_alphanumeric())
            })
        });
        assert!(used, "`{needle}` is not used outside sync.rs and tests");
    }

    assert_eq!(table.len(), 5, "lock ranks: {table:?}");
}

/// The client layer runs on one thread. Outside test modules, `session.rs`,
/// `client.rs` and `reactor.rs` name no `Mutex` (ordered or not), `RwLock`,
/// `Arc<WorkerConnection>` or atomic: the control-socket id comes from the
/// `Fabric`, not a process-wide static. Product code in `crates/`
/// and the root `src/` name no `HashMap` or `HashSet` outside comments, so
/// no hash order can reach an output. Reads the sources as text.
#[test]
fn client_layer_takes_no_locks_and_hash_maps_are_counted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for file in ["session.rs", "client.rs", "reactor.rs"] {
        let text = fs::read_to_string(root.join("crates/rfaas/src").join(file)).unwrap();
        for (_, line) in product_lines(&text) {
            for banned in ["Mutex", "RwLock", "Arc<WorkerConnection>", "Atomic"] {
                assert!(!line.contains(banned), "{file} names `{banned}`: {line}");
            }
        }
    }

    for path in workspace_sources(root) {
        let text = fs::read_to_string(&path).unwrap();
        for (n, line) in product_lines(&text) {
            let hashed = line.contains("HashMap") || line.contains("HashSet");
            assert!(
                !hashed || is_comment(line),
                "{path:?}:{n} names a hash collection: {}",
                line.trim()
            );
        }
    }
}

/// Ids are the `Fabric`'s, never the process's: outside test modules and
/// comments, `crates/` declares no `static NAME: Atomic…` counter. Reads the
/// sources as text.
#[test]
fn identities_are_numbered_by_the_fabric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    sources.sort();
    let mut found = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).unwrap();
        let file = path.strip_prefix(root).unwrap().display();
        for (n, line) in product_lines(&text) {
            let decl = line.trim_start();
            let decl = decl
                .strip_prefix("pub(crate) ")
                .or(decl.strip_prefix("pub "))
                .unwrap_or(decl);
            let atomic_static = decl
                .strip_prefix("static ")
                .and_then(|rest| rest.split_once(':'))
                .is_some_and(|(_, ty)| ty.contains("Atomic"));
            if atomic_static {
                found.push(format!("{file}:{n}: a process-wide `static` atomic"));
            }
        }
    }
    assert!(
        found.is_empty(),
        "ids not numbered by the fabric:\n{}",
        found.join("\n")
    );
}

/// The 1,700 ns wire latency, `from_nanos(1_700)`, is written once in the
/// product code of `crates/`, `src/` and `examples/`, outside comments: in
/// `device.rs`, whose `CX5_100G` the MPI world and the kernel TCP baseline
/// read it from. Reads the sources as text.
#[test]
fn the_nic_cost_model_has_one_home() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let device = root.join("crates/rdma-fabric/src/device.rs");
    let mut sources = workspace_sources(root);
    rust_sources(&root.join("examples"), &mut sources);
    let mut found = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).unwrap();
        for (n, line) in product_lines(&text) {
            if !is_comment(line) && line.contains("from_nanos(1_700)") {
                found.push((path.clone(), n));
            }
        }
    }
    assert!(
        found.len() == 1 && found[0].0 == device,
        "`from_nanos(1_700)` is written once, in device.rs: {found:?}"
    );
}

/// Every `pub enum` whose name ends in `Error` or `Status` is an audit
/// surface and carries `#[non_exhaustive]` among the attribute and doc lines
/// directly above it, so adding a variant is not a breaking change. Outside
/// test modules, `crates/` and the root `src/` declare exactly 7. Reads the
/// sources as text.
#[test]
fn error_and_status_enums_are_non_exhaustive() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut audited = Vec::new();
    for path in workspace_sources(root) {
        let text = fs::read_to_string(&path).unwrap();
        let lines = product_lines(&text);
        for (i, (n, line)) in lines.iter().enumerate() {
            let Some(name) = line
                .trim_start()
                .strip_prefix("pub enum ")
                .and_then(|rest| rest.split([' ', '<', '{']).next())
                .filter(|name| name.ends_with("Error") || name.ends_with("Status"))
            else {
                continue;
            };
            let marked = lines[..i]
                .iter()
                .rev()
                .map(|(_, above)| above.trim_start())
                .take_while(|above| above.starts_with("#[") || above.starts_with("//"))
                .any(|above| above == "#[non_exhaustive]");
            assert!(marked, "{path:?}:{n}: `{name}` is not #[non_exhaustive]");
            audited.push(name.to_string());
        }
    }
    assert_eq!(audited.len(), 7, "audited enums: {audited:?}");
}

/// Keyed pooling has one implementation, `sim_core::KeyedPool`: outside test
/// modules, `crates/` defines one `fn evict_idle` and ten `pub struct
/// …Stats`, the pool's `PoolStats` being the only pool counters. Reads the
/// sources as text.
#[test]
fn one_pool_mechanism_and_stats_structs_are_counted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    let mut evict_idle = Vec::new();
    let mut stats = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).unwrap();
        for (_, line) in product_lines(&text) {
            let line = line.trim_start();
            if line.contains("fn evict_idle(") {
                evict_idle.push(path.clone());
            }
            let name = line
                .strip_prefix("pub struct ")
                .and_then(|rest| rest.split([' ', '<', '(', ';']).next());
            if let Some(name) = name.filter(|name| name.ends_with("Stats")) {
                stats.push(name.to_string());
            }
        }
    }
    assert_eq!(evict_idle.len(), 1, "`fn evict_idle` in {evict_idle:?}");
    assert_eq!(stats.len(), 10, "`*Stats` structs: {stats:?}");
}

/// `(crate, name, reason)` of each `pub` item that no product caller
/// outside its crate names but that stays `pub` on purpose: an observer a
/// test outside the owning crate reads and no product surface exposes. Each
/// reason names that test and the ROADMAP item that removes the entry. A
/// stale entry fails `every_pub_item_has_an_outside_caller`, so the list can
/// only shrink.
#[rustfmt::skip]
const OUTSIDE_CALLER_ALLOW_LIST: &[(&str, &str, &str)] = &[
    ("sim-core", "lock_acquisitions",
        "tests/copy_budget.rs pins locks per operation; item 15's exact counters replace it"),
    ("sim-core", "evict_idle",
        "sandbox's warm_pool tests sweep the pool; item 4 drives the sweep from a timer"),
    ("rdma-fabric", "region_count",
        "rfaas's session tests check buffers deregister; item 8's teardown audit replaces it"),
    ("rdma-fabric", "posted_receives",
        "rfaas's dropped_futures_return_their_reservations counts receives; item 8's audit replaces it"),
    ("rfaas", "lease_usage",
        "tests/end_to_end.rs's billing tests read a lease's usage; item 2 bills per lease"),
    ("rfaas", "available_resources",
        "tests/end_to_end.rs's multiple_clients_share_the_executor_pool; item 6 makes it a metric"),
    ("rfaas", "fault_schedule",
        "tests/determinism.rs's fork scenario transcribes it; item 6's trace records the batches"),
    ("rfaas", "worker_mode",
        "tests/invocation_spectrum.rs and determinism.rs read demotion; item 6 traces it"),
    ("state-plane", "placements",
        "tests/determinism.rs's state scenarios transcribe them; item 6's trace records them"),
];

/// The name declared by a `pub fn`, `pub const fn`, `pub unsafe fn`,
/// `pub const NAME:` or `pub static NAME:` line, at any indent, and whether
/// it is a function.
fn pub_item(line: &str) -> Option<(&str, bool)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let (rest, is_fn) = [
        ("fn ", true),
        ("const fn ", true),
        ("unsafe fn ", true),
        ("const ", false),
        ("static ", false),
    ]
    .iter()
    .find_map(|(keyword, is_fn)| Some((rest.strip_prefix(keyword)?, *is_fn)))?;
    let end = rest
        .find(|c: char| c != '_' && !c.is_alphanumeric())
        .unwrap_or(rest.len());
    Some((&rest[..end], is_fn)).filter(|(name, _)| !name.is_empty())
}

/// Every identifier `text` mentions.
fn identifiers(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| c != '_' && !c.is_alphanumeric())
        .filter(|word| !word.is_empty())
        .collect()
}

/// The identifiers of `lines`: all of them, and those in call position,
/// followed right away by `(` or `::<` or, with `after_path`, preceded by
/// `::`. A function's caller names it in the second set; a local binding
/// that happens to share its name does not, nor does prose (`the nodes
/// (Sec. III-A)`, with a space before the parenthesis) or an intra-doc link
/// in a doc line, which is read without `after_path`.
fn identifiers_and_calls<'a>(
    lines: impl Iterator<Item = &'a str>,
    after_path: bool,
) -> (BTreeSet<&'a str>, BTreeSet<&'a str>) {
    let is_ident = |c: char| c == '_' || c.is_alphanumeric();
    let (mut named, mut called) = (BTreeSet::new(), BTreeSet::new());
    for line in lines {
        let mut rest = line;
        while let Some(start) = rest.find(is_ident) {
            let end = start
                + rest[start..]
                    .find(|c| !is_ident(c))
                    .unwrap_or(rest.len() - start);
            let word = &rest[start..end];
            let after = &rest[end..];
            if (after_path && rest[..start].trim_end().ends_with("::"))
                || after.starts_with('(')
                || after.starts_with("::<")
            {
                called.insert(word);
            }
            named.insert(word);
            rest = &rest[end..];
        }
    }
    (named, called)
}

/// Every `Type::name` path `text` names, as that string; with `calls`,
/// only those followed by `(`. A group `Type::{a, b}` (the benchmark
/// README's notation) names one path per member, and is no call.
fn paths(text: &str, calls: bool) -> BTreeSet<String> {
    let is_ident = |c: char| c == '_' || c.is_alphanumeric();
    let ident_end = |text: &str| text.find(|c| !is_ident(c)).unwrap_or(text.len());
    let mut found = BTreeSet::new();
    let mut rest = text;
    while let Some(start) = rest.find(is_ident) {
        let (owner, after) = rest[start..].split_at(ident_end(&rest[start..]));
        rest = after;
        let Some(after) = after.strip_prefix("::") else {
            continue;
        };
        let members = match after.strip_prefix('{') {
            Some(_) if calls => continue,
            Some(group) => group.split_once('}').map_or(group, |(group, _)| group),
            None if calls && !after[ident_end(after)..].starts_with('(') => continue,
            None => &after[..ident_end(after)],
        };
        for member in members.split(',').map(str::trim) {
            if !member.is_empty() {
                found.insert(format!("{owner}::{member}"));
            }
        }
    }
    found
}

/// The type of the inherent `impl` block that the line `header` opens
/// (`impl Foo {`, `impl<'a> Foo<'a> {`); `None` for a trait impl or any
/// other line.
fn inherent_impl_type(header: &str) -> Option<&str> {
    let rest = header.strip_prefix("impl")?;
    let rest = match rest.strip_prefix('<') {
        Some(generics) => generics.split_once("> ")?.1,
        None => rest.strip_prefix(' ')?,
    };
    let end = rest
        .find(|c: char| c != '_' && !c.is_alphanumeric())
        .unwrap_or(rest.len());
    Some(&rest[..end]).filter(|name| !name.is_empty() && !header.contains(" for "))
}

/// Whether the function whose signature starts at `lines[0]` takes a `self`
/// receiver: its first parameter names `self`.
fn takes_self(lines: &[(usize, &str)]) -> bool {
    let signature: String = lines.iter().take(8).map(|(_, line)| *line).collect();
    signature
        .split_once('(')
        .and_then(|(_, params)| params.split([',', ')']).next())
        .is_some_and(|first| identifiers(first).contains("self"))
}

/// What a file's product lines offer as callers: its crate (`None` for
/// caller-only files), the identifiers of its code lines (all, and those in
/// call or path position), the `Type::name` paths of its code lines, and the
/// identifiers (all, and those in call position) and the `Type::name(` calls
/// of its `///` / `//!` lines.
struct Callers<'a> {
    owner: Option<String>,
    named: BTreeSet<&'a str>,
    called: BTreeSet<&'a str>,
    paths: BTreeSet<String>,
    docs: BTreeSet<&'a str>,
    doc_called: BTreeSet<&'a str>,
    doc_paths: BTreeSet<String>,
}

impl<'a> Callers<'a> {
    /// The callers `lines`, product lines of a file of crate `owner`, offer.
    fn new(owner: Option<String>, lines: impl Iterator<Item = &'a str>) -> Callers<'a> {
        let (code, docs): (Vec<&str>, Vec<&str>) = lines
            .filter(|line| !is_comment(line) || is_doc(line))
            .partition(|line| !is_comment(line));
        let (named, called) = identifiers_and_calls(code.iter().copied(), true);
        let (doc_named, doc_called) = identifiers_and_calls(docs.iter().copied(), false);
        Callers {
            owner,
            named,
            called,
            paths: paths(&code.join("\n"), false),
            docs: doc_named,
            doc_called,
            doc_paths: paths(&docs.join("\n"), true),
        }
    }

    /// Whether this file credits the item `name` of crate `owner`, a
    /// function if `is_fn`; `path` is `Type::name` for an associated
    /// function without a receiver. The item's own crate credits it only
    /// from doc lines (doc-tests compile as outside callers), and a function
    /// only where a doc line calls it.
    fn credits(&self, owner: &str, name: &str, is_fn: bool, path: Option<&str>) -> bool {
        let own = self.owner.as_deref() == Some(owner);
        match path {
            Some(path) if own => self.doc_paths.contains(path),
            Some(path) => self.paths.contains(path),
            None if own && is_fn => self.doc_called.contains(name),
            None if own => self.docs.contains(name),
            None if is_fn => self.called.contains(name),
            None => self.named.contains(name),
        }
    }
}

/// The crate under `crates/` whose library declares the items of the file
/// at `rel` (relative to the workspace root); `None` for the `rfaas-bench`
/// binaries and every file outside `crates/`.
fn owner(rel: &Path) -> Option<String> {
    let name = rel.strip_prefix("crates").ok()?.iter().next()?.to_str()?;
    (!rel.starts_with("crates/bench/src/bin")).then(|| name.to_string())
}

/// What the file at `rel` offers as callers: only its product lines do, so
/// `None` for `tests/`, and no `#[cfg(test)]` item of a product file calls
/// anything (see `product_lines`). A fig module of `rfaas-bench` calls the
/// bench library from outside, as its binary does.
fn callers<'a>(rel: &Path, text: &'a str) -> Option<Callers<'a>> {
    if rel.starts_with("tests") {
        return None;
    }
    let fig = rel.starts_with("crates/bench/src")
        && rel
            .file_name()
            .and_then(|name| name.to_str())
            .is_some_and(|name| name.starts_with("fig"));
    let lines = product_lines(text).into_iter().map(|(_, line)| line);
    Some(Callers::new(owner(rel).filter(|_| !fig), lines))
}

/// A crate's doc lines credit its function only where they call it: prose
/// and an intra-doc link name `launch` and credit nothing, nor does a word
/// followed by a parenthesised aside; a doc-test line calling it does. A
/// constant counts wherever a doc line names it.
#[test]
fn doc_lines_credit_a_function_only_where_they_call_it() {
    let lib = Path::new("crates/rfaas/src/lib.rs");
    let prose = "/// Waits [`SLACK`], then see [`Engine::launch`]; `launch` runs once.\n\
                 /// It spreads work over the nodes (Sec. III-A).\n";
    let prose = callers(lib, prose).unwrap();
    assert!(!prose.credits("rfaas", "launch", true, None));
    assert!(!prose.credits("rfaas", "nodes", true, None));
    assert!(prose.credits("rfaas", "SLACK", false, None));
    let doc_test = "/// let engine = rfaas::launch(2);\n//! engine.parse::<u8>();\n";
    let doc_test = callers(lib, doc_test).unwrap();
    assert!(doc_test.credits("rfaas", "launch", true, None));
    assert!(doc_test.credits("rfaas", "parse", true, None));
    // Another crate credits only code lines, never its comments.
    assert!(!doc_test.credits("sandbox", "launch", true, None));
}

/// Only product code calls: a call from `tests/`, from a `#[cfg(test)] mod
/// tests` or from a lone `#[cfg(test)] fn` credits nothing, while the same
/// call from product code of another crate does, and a fig module's call
/// credits the bench library.
#[test]
fn test_code_credits_nothing_and_fig_modules_call_the_bench_library() {
    let call = "fn probe() {\n    rfaas::renew(1);\n}\n";
    let tests_mod = "#[cfg(test)]\nmod tests {\n    fn probe() {\n        rfaas::renew(1);\n    }\n}\npub fn after() {}\n";
    let lone_fn = format!("#[cfg(test)]\n{call}");
    let sandbox = Path::new("crates/sandbox/src/lib.rs");
    assert!(callers(Path::new("tests/end_to_end.rs"), call).is_none());
    for text in [tests_mod, &lone_fn] {
        let file = callers(sandbox, text).unwrap();
        assert!(!file.credits("rfaas", "renew", true, None), "{text}");
    }
    assert!(callers(sandbox, call)
        .unwrap()
        .credits("rfaas", "renew", true, None));
    let kept: Vec<&str> = product_lines(tests_mod)
        .into_iter()
        .map(|(_, line)| line)
        .collect();
    assert_eq!(kept, ["pub fn after() {}"]);

    let fig = "fn run() {\n    let t = Testbed::new(1);\n    at(&t);\n}\n";
    let fig14 = callers(Path::new("crates/bench/src/fig14_lease_churn.rs"), fig).unwrap();
    assert!(fig14.credits("bench", "at", true, None));
    assert!(fig14.credits("bench", "new", true, Some("Testbed::new")));
    let lib = callers(Path::new("crates/bench/src/lib.rs"), fig).unwrap();
    assert!(!lib.credits("bench", "at", true, None));
}

/// Every crate's non-test `pub fn`, `pub const` and `pub static` has a
/// product caller outside that crate; items inside `#[cfg(test)]` code are
/// not checked. A caller names the item, between identifier boundaries, on
/// a product code line (see `callers`: no `tests/` file, no `#[cfg(test)]`
/// item) of another crate's `src/`, of `crates/bench/src/bin/` or a fig
/// module (for the `rfaas-bench` lib), of the root `src/`, `examples/` or
/// `benchmark/src/`; a function only counts in call or path position (see
/// `identifiers_and_calls`). A `pub fn` of an inherent `impl Type` block
/// without a `self` receiver can only be called as `Type::name`, so only
/// that path counts for it: another type's `new` calls no `Type::new`. The
/// benchmark README's list of product symbols counts wherever it names an
/// item, and the crate's own `///` / `//!` lines (doc-tests compile as
/// outside callers) count wherever they name a constant but only where
/// they call a function (`name(`, `name::<`): prose and intra-doc links call
/// nothing. For a function without a receiver, the list must name
/// `Type::name` and a doc line must call `Type::name(`. Items only their own
/// crate calls are `pub(crate)` or private, so rustc's `dead_code` lint
/// covers the in-crate half. `OUTSIDE_CALLER_ALLOW_LIST` names the
/// exceptions. Reads the sources as text.
///
/// Blind spot: a method taking `self` is matched by name alone, so a
/// same-named method called on another type credits it (a `c.cost(..)` on
/// a `faas-baselines` type would credit a `pub fn cost(&self)` of `rfaas`).
#[test]
fn every_pub_item_has_an_outside_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in ["crates", "src", "examples", "tests", "benchmark/src"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    let sources: Vec<&Path> = sources
        .iter()
        .map(|path| path.strip_prefix(root).unwrap())
        .collect();
    let texts: Vec<String> = sources
        .iter()
        .map(|path| fs::read_to_string(root.join(path)).unwrap())
        .collect();
    let readme = fs::read_to_string(root.join("benchmark/README.md")).unwrap();
    let symbols = readme
        .split("## Product symbols the benchmark calls")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("benchmark/README.md lists the product symbols");
    let (symbol_paths, symbols) = (paths(symbols, false), identifiers(symbols));

    let files: Vec<Callers> = sources
        .iter()
        .zip(&texts)
        .filter_map(|(path, text)| callers(path, text))
        .collect();
    // Whether an item of crate `owner` has a caller outside it.
    let called_outside = |owner: &str, name: &str, is_fn: bool, path: Option<&str>| {
        path.map_or(symbols.contains(name), |path| symbol_paths.contains(path))
            || files
                .iter()
                .any(|file| file.credits(owner, name, is_fn, path))
    };

    let mut unreferenced = Vec::new();
    let mut allowed = BTreeSet::new();
    for (path, text) in sources.iter().zip(&texts) {
        let Some(owner) = &owner(path) else { continue };
        let lines = product_lines(text);
        let mut impl_type = None;
        for (i, (n, line)) in lines.iter().enumerate() {
            if line.starts_with("impl") {
                impl_type = inherent_impl_type(line);
            } else if *line == "}" {
                impl_type = None;
            }
            let Some((name, is_fn)) = pub_item(line) else {
                continue;
            };
            let assoc = impl_type
                .filter(|_| is_fn && !takes_self(&lines[i..]))
                .map(|ty| format!("{ty}::{name}"));
            if called_outside(owner, name, is_fn, assoc.as_deref()) {
                continue;
            }
            let entry = OUTSIDE_CALLER_ALLOW_LIST
                .iter()
                .find(|(c, item, _)| c == owner && *item == name);
            match entry {
                Some(entry) => {
                    allowed.insert(*entry);
                }
                None => unreferenced.push(format!(
                    "{owner}: {}:{n}: `{}`",
                    path.display(),
                    assoc.as_deref().unwrap_or(name)
                )),
            }
        }
    }
    let stale: Vec<_> = OUTSIDE_CALLER_ALLOW_LIST
        .iter()
        .filter(|entry| !allowed.contains(*entry))
        .collect();
    assert!(
        OUTSIDE_CALLER_ALLOW_LIST.len() <= 10,
        "the allow-list may hold at most 10 entries"
    );
    assert!(
        stale.is_empty(),
        "stale allow-list entries (an outside caller exists, or the item is gone): {stale:?}"
    );
    assert!(
        unreferenced.is_empty(),
        "{} pub items have no caller outside their crate:\n{}",
        unreferenced.len(),
        unreferenced.join("\n")
    );
}

/// The lines of the item opening with the line `header`, up to its closing
/// brace at column 0.
fn item_body<'a>(text: &'a str, header: &str) -> Vec<&'a str> {
    text.lines()
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| *line != "}")
        .collect()
}

/// The option surface clients can turn, counted from source so that adding
/// a knob means editing this test on purpose: `RFaasConfig` has 2 `pub`
/// fields (the payload ceiling and the warm-pool capacity; every calibrated
/// cost, depth and price is a constant of `config.rs`), `PollingMode` two
/// variants, and `impl AllocationBuilder` 13 `pub fn`s (its constructor is
/// `pub(crate)`: `Session::builder` is the one entry). Reads the sources as
/// text.
#[test]
fn config_surface_is_counted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/rfaas/src");
    let config = fs::read_to_string(root.join("config.rs")).unwrap();
    let session = fs::read_to_string(root.join("session.rs")).unwrap();

    let fields: Vec<&str> = item_body(&config, "pub struct RFaasConfig {")
        .into_iter()
        .filter(|line| line.starts_with("    pub "))
        .collect();
    assert_eq!(fields.len(), 2, "RFaasConfig fields: {fields:?}");

    let variants: Vec<&str> = item_body(&config, "pub enum PollingMode {")
        .into_iter()
        .map(str::trim)
        .filter(|line| line.starts_with(|c: char| c.is_ascii_uppercase()) && line.ends_with(','))
        .collect();
    assert_eq!(variants.len(), 2, "PollingMode variants: {variants:?}");

    let methods: Vec<&str> = item_body(&session, "impl AllocationBuilder {")
        .into_iter()
        .filter(|line| line.starts_with("    pub fn "))
        .collect();
    assert_eq!(methods.len(), 13, "AllocationBuilder methods: {methods:?}");
}
