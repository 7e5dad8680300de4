//! Typed errors for the simulator's fallible public paths.
//!
//! [`run`](crate::sim::run) validates its whole input before the event
//! loop starts (NaN start times, self-flows, empty flows, endpoints
//! outside the graph, malformed failures) and reports the first problem
//! as a [`SimError`]. Callers whose inputs are correct by construction
//! `.expect(..)` the result.

use netgraph::NodeId;

/// Why a simulation input was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimError {
    /// A flow's start time is NaN or infinite.
    NonFiniteStart {
        /// The offending flow's caller-chosen id.
        flow: u64,
    },
    /// A flow's byte count is not a positive finite number.
    InvalidBytes {
        /// The offending flow's caller-chosen id.
        flow: u64,
        /// The rejected byte count.
        bytes: f64,
    },
    /// A flow's source equals its destination.
    SelfFlow {
        /// The offending flow's caller-chosen id.
        flow: u64,
        /// The shared endpoint.
        node: NodeId,
    },
    /// A flow's endpoint is not a node of the graph.
    UnknownNode {
        /// The offending flow's caller-chosen id.
        flow: u64,
        /// The out-of-range endpoint.
        node: NodeId,
    },
    /// A rate receiver handed to the allocator was malformed (empty
    /// path or non-positive fairness weight).
    InvalidAllocEntity {
        /// The allocator's typed rejection.
        source: mcf::AllocError,
    },
    /// A timed link failure's time is NaN or infinite.
    NonFiniteFailureTime,
    /// A timed link failure names a link outside the graph.
    UnknownFailedLink {
        /// The out-of-range directed-link index.
        link: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFiniteStart { flow } => {
                write!(f, "flow {flow}: start time is not finite")
            }
            Self::InvalidBytes { flow, bytes } => {
                write!(f, "flow {flow}: byte count {bytes} is not positive finite")
            }
            Self::SelfFlow { flow, node } => {
                write!(f, "flow {flow}: source equals destination (node {node:?})")
            }
            Self::UnknownNode { flow, node } => {
                write!(f, "flow {flow}: endpoint {node:?} is not in the graph")
            }
            Self::InvalidAllocEntity { source } => {
                write!(f, "allocation entity rejected: {source}")
            }
            Self::NonFiniteFailureTime => write!(f, "link failure time is not finite"),
            Self::UnknownFailedLink { link } => {
                write!(f, "link failure names unknown directed link {link}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Why a fault plan was rejected at compile time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// An event time is NaN, infinite, or negative.
    InvalidTime {
        /// Which field was rejected.
        which: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A recovery is scheduled at or before its failure.
    RecoveryBeforeFailure {
        /// Failure time (s).
        down_at: f64,
        /// Rejected recovery time (s).
        up_at: f64,
    },
    /// A flap names a directed link outside the graph.
    UnknownLink {
        /// The out-of-range directed-link index.
        link: usize,
    },
    /// A switch fault names a node outside the graph.
    UnknownSwitch {
        /// The out-of-range node index.
        switch: usize,
    },
    /// A control-plane probability is outside `[0, 1]` or not finite.
    InvalidProbability {
        /// Which probability was rejected.
        which: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A control-plane delay is negative or not finite.
    InvalidDelay {
        /// Which delay was rejected.
        which: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidTime { which, value } => {
                write!(
                    f,
                    "{which}: time {value} is not a finite non-negative value"
                )
            }
            Self::RecoveryBeforeFailure { down_at, up_at } => {
                write!(f, "recovery at {up_at}s precedes failure at {down_at}s")
            }
            Self::UnknownLink { link } => write!(f, "unknown directed link {link}"),
            Self::UnknownSwitch { switch } => write!(f, "unknown switch node {switch}"),
            Self::InvalidProbability { which, value } => {
                write!(f, "{which}: probability {value} outside [0, 1]")
            }
            Self::InvalidDelay { which, value } => {
                write!(f, "{which}: delay {value} is not finite non-negative")
            }
        }
    }
}

impl std::error::Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        let e = SimError::SelfFlow {
            flow: 3,
            node: NodeId(5),
        };
        assert!(e.to_string().contains("flow 3"));
        let f = FaultError::InvalidProbability {
            which: "rule_fail_prob",
            value: 2.0,
        };
        assert!(f.to_string().contains("rule_fail_prob"));
    }
}
