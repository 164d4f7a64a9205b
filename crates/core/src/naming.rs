//! Names and identifiers.
//!
//! The paper's naming discipline (§3.2, §7, after Saltzer/Shoch):
//!
//! * **Application names** are location-independent, external, and the only
//!   thing applications ever see.
//! * **Addresses** are internal to a DIF, name its member IPC processes
//!   (nodes, not interfaces), and are never visible outside the DIF.
//! * **Port ids** are local, dynamically assigned handles to one end of a
//!   flow at the layer boundary — *not* overloaded with application-name
//!   semantics (no well-known ports).

use std::fmt;

/// A location-independent application process name: `process` plus an
/// optional `instance` qualifier. IPC processes are applications too, so
/// they carry these names when enrolling in lower DIFs.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AppName {
    /// Application process name, e.g. `"video-server"`.
    pub process: String,
    /// Instance qualifier, e.g. `"1"`; empty for singletons.
    pub instance: String,
}

impl AppName {
    /// A singleton application name.
    pub fn new(process: &str) -> Self {
        AppName { process: process.to_string(), instance: String::new() }
    }

    /// An application name with an instance qualifier.
    pub fn with_instance(process: &str, instance: &str) -> Self {
        AppName { process: process.to_string(), instance: instance.to_string() }
    }

    /// Canonical single-string form (`process` or `process/instance`) used
    /// as directory key.
    pub fn key(&self) -> String {
        if self.instance.is_empty() {
            self.process.clone()
        } else {
            format!("{}/{}", self.process, self.instance)
        }
    }

    /// Whether `key` equals [`AppName::key`], without building it.
    pub(crate) fn has_key(&self, key: &str) -> bool {
        if self.instance.is_empty() {
            key == self.process
        } else {
            key.strip_prefix(self.process.as_str()).and_then(|r| r.strip_prefix('/'))
                == Some(self.instance.as_str())
        }
    }

    /// Parse the canonical form produced by [`AppName::key`].
    pub fn from_key(key: &str) -> Self {
        match key.split_once('/') {
            Some((p, i)) => AppName::with_instance(p, i),
            None => AppName::new(key),
        }
    }
}

impl fmt::Display for AppName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.key())
    }
}

/// The name of a DIF — itself an application-name-like external name that
/// prospective members use to find it.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DifName(pub String);

impl DifName {
    /// Construct from a string.
    pub fn new(s: &str) -> Self {
        DifName(s.to_string())
    }
}

impl fmt::Display for DifName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A DIF-internal address. Re-exported from the wire crate; `0` means
/// "unassigned / link-local".
///
/// Node-local flow endpoints are [`crate::app::FlowH`] — a typed handle,
/// not a naming concept: it carries no application-name semantics and
/// applications cannot fabricate one.
pub use rina_wire::Addr;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        let a = AppName::new("web");
        assert_eq!(a.key(), "web");
        assert_eq!(AppName::from_key("web"), a);
        let b = AppName::with_instance("web", "2");
        assert_eq!(b.key(), "web/2");
        assert_eq!(AppName::from_key("web/2"), b);
        // `has_key` agrees with comparing against `key()`.
        for k in ["web", "web/2", "web/", "web/22", "we", "web2", "/2", ""] {
            assert_eq!(a.has_key(k), a.key() == k, "{k}");
            assert_eq!(b.has_key(k), b.key() == k, "{k}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(AppName::with_instance("a", "i").to_string(), "a/i");
        assert_eq!(DifName::new("net").to_string(), "net");
    }
}
