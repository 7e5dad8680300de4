//! Typed errors of the decomposition pipeline.

use flowsim::SimError;

/// Everything that can go wrong while decomposing a workload.
#[derive(Debug)]
pub enum DecompError {
    /// The workload failed the same validation the exact engine runs
    /// ([`FlowSpec::validate`](flowsim::FlowSpec::validate)).
    Sim(SimError),
    /// The routing provider returned a multi-path connection; the
    /// decomposition is defined for single-path transports only.
    MultiPathRoute {
        /// The offending flow's id.
        flow: u64,
        /// How many subflow paths the provider returned.
        paths: usize,
    },
    /// The clustering threshold was not a finite, non-negative number.
    InvalidThreshold(f64),
}

impl std::fmt::Display for DecompError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Sim(e) => write!(f, "invalid workload: {e}"),
            Self::MultiPathRoute { flow, paths } => write!(
                f,
                "flow {flow} routed over {paths} paths; decomposition needs single-path transport"
            ),
            Self::InvalidThreshold(t) => {
                write!(f, "clustering threshold must be finite and >= 0, got {t}")
            }
        }
    }
}

impl std::error::Error for DecompError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for DecompError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}
