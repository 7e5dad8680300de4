//! Discrete-event **fluid** flow simulator.
//!
//! The paper evaluates transmission performance with the htsim MPTCP
//! packet simulator. Packet simulation at data center scale is expensive
//! and its artifacts (RTT, window dynamics) are not what the paper's
//! comparisons hinge on; we use the standard fluid abstraction instead:
//! at every flow arrival or completion, link bandwidth is re-divided
//! among the active flows by (weighted) **max-min fairness** — the
//! allocation long-lived TCP converges to — and flows drain their
//! remaining bytes at the allocated rate until the next event.
//!
//! Transport models:
//!
//! * [`Transport::TcpEcmp`] — one path per flow, chosen by a
//!   deterministic header hash among the equal-cost shortest paths (the
//!   Clos baseline of §5.2). Weight 1.
//! * [`Transport::Mptcp`] — k subflows over the k-shortest paths
//!   (§4.1/§4.2). `coupled` (default, approximating LIA) gives each
//!   subflow weight `1/k`, so a connection takes a single fair share at a
//!   shared bottleneck but still fills disjoint paths; uncoupled gives
//!   every subflow full weight.
//!
//! Failure injection: timed link failures drop the affected subflows and
//! re-route connections over the surviving k-shortest paths, exercising
//! the §4.2.1 footnote's resilience claim.

//!
//! # Engine layout
//!
//! The event loop behind [`sim::run`] works entirely on interned paths:
//! routes come from a [`provider::PathProvider`] as
//! [`netgraph::PathId`]s in a per-run [`netgraph::PathArena`], failures
//! are a dense [`failures::FailedLinks`] set whose *epoch* invalidates
//! the provider's route cache, and rate allocation reuses one
//! [`mcf::AllocWorkspace`] across events. The pre-refactor engine is
//! preserved in [`mod@reference`] as the behavioral oracle: both engines
//! produce bit-identical [`SimResult`]s.

//!
//! # Fault plane
//!
//! [`faults`] is the fault-injection substrate: a seeded, deterministic
//! [`faults::FaultPlan`] (link flaps that fail **and recover**, whole-
//! switch down/up, stuck converters, control-plane fault rates) compiles
//! against a graph into a [`faults::FaultSchedule`] that
//! [`sim::run`] replays when given it in [`sim::RunOpts::faults`],
//! parking connections that lose every path and reviving them on
//! recovery. The run's invariant auditor
//! ([`faults::AuditReport`]) certifies that no flow ever carried rate
//! over a dead link and that routing state stayed consistent after every
//! fault event.

//!
//! # Observability
//!
//! [`sim::RunOpts::sink`] takes a [`TraceSink`] that receives the flow
//! lifecycle (start / reroute / park / revive / finish), per-epoch
//! allocator and link-utilization events, and applied fault events. The
//! default is [`NoopSink`]; its emission guards compile away, so the
//! un-traced engine is bit-identical and pays nothing.

pub mod alloc;
pub mod error;
pub mod failures;
pub mod faults;
pub mod provider;
pub mod reference;
pub mod sim;

pub use alloc::AllocTelemetry;
pub use error::{FaultError, SimError};
pub use failures::FailedLinks;
pub use faults::{AuditReport, ControlFaults, FaultPlan, FaultSchedule, LinkEvent, StuckConfig};
pub use provider::{EcmpProvider, MptcpProvider, PathProvider, RoutedConn};
pub use sim::{
    run, simulate_with_provider, simulate_with_telemetry, FlowRecord, FlowSpec, LinkFailure,
    Outcome, RunOpts, SimConfig, SimResult, Transport,
};
// Re-exported so traced callers need not depend on `obs` directly.
pub use obs::{JsonlSink, NoopSink, ParkCause, RingSink, TraceEvent, TraceSink};
