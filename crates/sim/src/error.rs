//! Simulator error types.

use std::error::Error;
use std::fmt;
use std::ops::Range;

use crate::mem::MemFault;

/// A machine-level fault raised by a malformed program (unmapped access,
/// illegal FREP body, unsupported instruction in a unit, ...).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimFault {
    message: String,
}

impl SimFault {
    /// Creates a fault with a human-readable description.
    #[must_use]
    pub fn new(message: String) -> Self {
        SimFault { message }
    }
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for SimFault {}

impl From<MemFault> for SimFault {
    fn from(e: MemFault) -> Self {
        SimFault::new(e.to_string())
    }
}

/// Error terminating a simulation run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunError {
    /// The watchdog cycle limit was reached.
    Timeout {
        /// Cycle at which the run was aborted.
        cycles: u64,
    },
    /// No unit made progress for an extended period (a kernel
    /// synchronization bug, e.g. an FPU fence that can never drain).
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
        /// Program counter at that point.
        pc: u32,
    },
    /// The program counter left the text section.
    PcOutOfRange {
        /// Faulting program counter.
        pc: u32,
    },
    /// A machine fault (see [`SimFault`]).
    Fault(SimFault),
    /// Backward dataflow between the clusters of a multi-cluster system:
    /// cluster `reader` read L2 bytes that the later cluster `writer`
    /// stores, so under cluster-id execution it saw their pre-run value.
    OrderDependent {
        /// The cluster that read the bytes.
        reader: usize,
        /// The later cluster that stored them.
        writer: usize,
        /// The first run of such bytes, as L2 addresses.
        range: Range<u32>,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Timeout { cycles } => write!(f, "watchdog timeout after {cycles} cycles"),
            RunError::Deadlock { cycle, pc } => {
                write!(f, "deadlock detected at cycle {cycle} (pc {pc:#010x})")
            }
            RunError::PcOutOfRange { pc } => write!(f, "pc {pc:#010x} outside text section"),
            RunError::Fault(e) => write!(f, "machine fault: {e}"),
            RunError::OrderDependent { reader, writer, range } => write!(
                f,
                "cluster {reader} read L2 {:#010x}..{:#010x}, which later cluster {writer} \
                 stores: the value depends on cluster order",
                range.start, range.end
            ),
        }
    }
}

impl Error for RunError {}

impl From<SimFault> for RunError {
    fn from(e: SimFault) -> Self {
        RunError::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = RunError::Timeout { cycles: 10 };
        assert!(e.to_string().contains("10"));
        let f: RunError = SimFault::new("bad".into()).into();
        assert!(f.to_string().contains("bad"));
    }
}
