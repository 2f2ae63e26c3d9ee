//! Declared state dependencies of a function.
//!
//! A stateful function does not open arbitrary keys at run time — it
//! *declares* the keys it touches and whether it writes them. The platform
//! validates the declaration once at bind time (keys exist, the plane is
//! attached) and the executor materialises exactly the declared set before
//! dispatch, so the per-invocation hot path never takes a control-plane
//! round trip for a key the declaration already resolved.

/// How a function uses one declared key.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateMode {
    /// The function only reads the value; writing it back is an error.
    Read,
    /// The function may mutate the value; dirty values are written back
    /// after completion.
    ReadWrite,
}

/// One declared key dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateKey {
    /// Key name in the state plane.
    pub name: String,
    /// Declared access mode.
    pub mode: StateMode,
}

impl StateKey {
    /// Declare a read-only dependency on `name`.
    pub fn read(name: &str) -> StateKey {
        StateKey {
            name: name.to_string(),
            mode: StateMode::Read,
        }
    }

    /// Declare a read-write dependency on `name`.
    pub fn read_write(name: &str) -> StateKey {
        StateKey {
            name: name.to_string(),
            mode: StateMode::ReadWrite,
        }
    }
}

/// The full state declaration of one function binding.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StateSpec {
    keys: Vec<StateKey>,
}

impl StateSpec {
    /// Build a spec from declared keys. Later duplicates of a name override
    /// earlier ones (the last declaration wins).
    pub fn new(keys: impl IntoIterator<Item = StateKey>) -> StateSpec {
        let mut spec = StateSpec { keys: Vec::new() };
        for key in keys {
            spec.keys.retain(|k| k.name != key.name);
            spec.keys.push(key);
        }
        spec
    }

    /// Declared keys, in declaration order.
    pub fn keys(&self) -> &[StateKey] {
        &self.keys
    }

    /// Whether nothing is declared.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn later_declarations_override_earlier_ones() {
        let spec = StateSpec::new([
            StateKey::read("model"),
            StateKey::read_write("agg"),
            StateKey::read_write("model"),
        ]);
        assert_eq!(spec.keys().len(), 2);
        let mode_of = |name: &str| spec.keys().iter().find(|k| k.name == name).map(|k| k.mode);
        assert_eq!(mode_of("model"), Some(StateMode::ReadWrite));
        assert_eq!(mode_of("agg"), Some(StateMode::ReadWrite));
        assert_eq!(mode_of("other"), None);
        assert!(!spec.is_empty());
        assert!(StateSpec::default().is_empty());
    }
}
