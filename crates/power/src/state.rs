//! Host power states.
//!
//! §3.1 of the paper defines three externally visible modes — *powered*,
//! *low-power/sleep* and *in-transit*. The transit mode is split here into
//! its two directions because they draw different power and take different
//! times (Table 1: suspend 138.2 W for 3.1 s, resume 149.2 W for 2.3 s).

use core::fmt;

/// Power mode of a host.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum PowerState {
    /// Fully powered and able to run VMs.
    Powered,
    /// ACPI S3 suspend-to-RAM; context retained, no VM execution.
    Sleeping,
    /// Transitioning from powered to sleep.
    Suspending,
    /// Transitioning from sleep to powered.
    Resuming,
}

impl PowerState {
    /// `true` in either transit direction (§3.1's *in-transit* mode).
    pub fn is_in_transit(self) -> bool {
        matches!(self, PowerState::Suspending | PowerState::Resuming)
    }

    /// `true` when in S3.
    pub fn is_sleeping(self) -> bool {
        matches!(self, PowerState::Sleeping)
    }
}

impl fmt::Display for PowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PowerState::Powered => "powered",
            PowerState::Sleeping => "sleep",
            PowerState::Suspending => "suspending",
            PowerState::Resuming => "resuming",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(PowerState::Suspending.is_in_transit());
        assert!(PowerState::Resuming.is_in_transit());
        assert!(!PowerState::Powered.is_in_transit());
        assert!(PowerState::Sleeping.is_sleeping());
        assert!(!PowerState::Resuming.is_sleeping());
    }

    #[test]
    fn display() {
        assert_eq!(PowerState::Powered.to_string(), "powered");
        assert_eq!(PowerState::Sleeping.to_string(), "sleep");
    }
}
