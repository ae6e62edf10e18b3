//! Migration plans: the manager→agent command vocabulary.
//!
//! §4.1: "the manager … sends a list of tuples to the agent consisting of
//! `<vmid, migration type, destination>`, where `migration type` is either
//! partial or full migration and `destination` is the host identified to
//! receive the VM."

use core::fmt;

use oasis_vm::{HostId, VmId};

/// How a VM moves.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum MigrationType {
    /// Pre-copy live migration of the whole VM.
    Full,
    /// Partial migration: descriptor now, pages on demand.
    Partial,
}

impl fmt::Display for MigrationType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationType::Full => f.write_str("full"),
            MigrationType::Partial => f.write_str("partial"),
        }
    }
}

/// One `<vmid, migration type, destination>` tuple.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MigrationOrder {
    /// VM to move.
    pub vm: VmId,
    /// How to move it.
    pub kind: MigrationType,
    /// Receiving host.
    pub destination: HostId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_kinds() {
        assert_eq!(MigrationType::Full.to_string(), "full");
        assert_eq!(MigrationType::Partial.to_string(), "partial");
    }
}
