//! Observability plane: tracing and metrics for the flat-tree workspace.
//!
//! The engine (`flowsim`), the resilient controller
//! (`control::resilient`) and the sweep driver (`ft_bench::sweep`)
//! compute rich transient state — flow lifecycles, per-epoch link
//! utilization, conversion stage timelines — and, before this crate,
//! threw it away. This crate gives them somewhere to put it **without
//! taxing the hot path**:
//!
//! * [`TraceSink`] — a statically-dispatched event sink. The
//!   instrumented layers are generic over `S: TraceSink`; the default
//!   [`NoopSink`] reports [`TraceSink::enabled`]` == false`, so every
//!   `if sink.enabled() { sink.emit(..) }` block monomorphizes to
//!   nothing and the un-traced entry points are bit- and
//!   byte-identical to the pre-observability code (pinned by the golden
//!   stdout checks in CI and the `bench_obs` Criterion comparison).
//! * [`TraceEvent`] — the one shared event vocabulary (flow lifecycle,
//!   allocator epochs, conversion stages, sweep progress). Events are
//!   plain serde values; [`JsonlSink`] writes one compact JSON object
//!   per line, deterministically for a deterministic event stream.
//! * [`Metrics`] — a small insertion-ordered facade over counters,
//!   gauges and HDR-style log-bucketed [`Histogram`]s, used by the
//!   experiment bins (`--metrics out.jsonl`) and `perfsnap`.
//!
//! No layer below `ft-bench` ever *requires* a sink: tracing is opt-in
//! per call site. `flowsim::run` takes its sink through
//! `flowsim::RunOpts::sink` (the no-op sink by default); the control
//! and dispatch planes keep `*_traced` entry points.

pub mod event;
pub mod metrics;
pub mod sink;

pub use event::{ParkCause, TraceEvent};
pub use metrics::{Histogram, Metrics};
pub use sink::{JsonlSink, NoopSink, RingSink, TraceSink};
