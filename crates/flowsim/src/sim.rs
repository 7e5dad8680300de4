//! The discrete-event simulation loop.
//!
//! The engine works on interned paths ([`netgraph::PathArena`]): active
//! connections hold `PathId`s, rate allocation runs incrementally
//! through persistent `Bindings` (`crate::alloc`) over an
//! [`mcf::IncrementalAllocator`], failures live in a dense
//! [`FailedLinks`] set, and routing goes
//! through a [`PathProvider`] whose cache is invalidated by failure
//! epoch. [`run`] is the one entry point. The produced [`SimResult`] is
//! bit-identical to the pre-refactor engine (kept as
//! [`reference::simulate_reference`](crate::reference::simulate_reference)).
//!
//! # Event batching
//!
//! All events that land within `1e-15` s of the epoch time — arrivals,
//! completions, legacy failures, and fault-plan edges — are drained in
//! one pass before the next allocation runs, so simultaneous events
//! form a single allocation epoch rather than one epoch each. The
//! incremental allocator then reconciles exactly the entities that
//! batch touched.

use crate::alloc::{AllocTelemetry, Bindings};
use crate::error::SimError;
use crate::failures::FailedLinks;
use crate::faults::{AuditReport, FaultSchedule, LinkEvent};
use crate::provider::{EcmpProvider, MptcpProvider, PathProvider};
use netgraph::{Graph, LinkId, NodeId, PathArena, PathId};
use obs::{NoopSink, ParkCause, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};

/// Bytes below which a flow counts as finished (flows are KB-scale+).
pub(crate) const DONE_BYTES: f64 = 1e-3;
/// Gbps below which a flow is considered stalled.
pub(crate) const STALL_RATE: f64 = 1e-12;
/// Gbps → bytes/second.
pub(crate) const GBPS_TO_BPS: f64 = 1e9 / 8.0;

/// A flow to simulate, endpoints already bound to graph nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Caller-chosen id, reported back in [`FlowRecord`].
    pub id: u64,
    /// Source server node.
    pub src: NodeId,
    /// Destination server node.
    pub dst: NodeId,
    /// Size in bytes.
    pub bytes: f64,
    /// Arrival time in seconds.
    pub start: f64,
}

/// Transport / routing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Transport {
    /// Single-path TCP; the path is hashed among equal-cost shortest
    /// paths (the Clos ECMP baseline).
    TcpEcmp,
    /// MPTCP over the k-shortest paths.
    Mptcp {
        /// Number of concurrent paths.
        k: usize,
        /// `true` models LIA-style coupling (subflow weight 1/k).
        coupled: bool,
    },
}

impl Transport {
    /// The paper's main configuration: 8-path coupled MPTCP.
    pub fn mptcp8() -> Self {
        Transport::Mptcp {
            k: 8,
            coupled: true,
        }
    }
}

/// A timed link failure (the cable is cut: both directions die).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFailure {
    /// Failure time in seconds.
    pub time: f64,
    /// Either direction of the failed cable.
    pub link: LinkId,
}

/// Simulation configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Transport model.
    pub transport: Transport,
    /// Timed link failures.
    pub link_failures: Vec<LinkFailure>,
    /// Record the total-goodput time series (one point per event).
    pub record_series: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            transport: Transport::mptcp8(),
            link_failures: Vec::new(),
            record_series: false,
        }
    }
}

/// Per-flow outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// The spec's id.
    pub id: u64,
    /// Arrival time.
    pub start: f64,
    /// Completion time; `None` if the flow never finished (stall after an
    /// unrecoverable failure).
    pub finish: Option<f64>,
    /// Flow size in bytes.
    pub bytes: f64,
}

impl FlowRecord {
    /// Flow completion time in seconds, if completed.
    pub fn fct(&self) -> Option<f64> {
        self.finish.map(|f| f - self.start)
    }

    /// Average goodput in Gbps over the flow's lifetime, if completed.
    pub fn avg_rate_gbps(&self) -> Option<f64> {
        self.fct()
            .filter(|&d| d > 0.0)
            .map(|d| self.bytes / d / GBPS_TO_BPS)
    }
}

/// Simulation output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// One record per input flow, in input order.
    pub records: Vec<FlowRecord>,
    /// `(time, total goodput in Gbps)` after each event, when enabled.
    pub series: Vec<(f64, f64)>,
    /// Time of the last processed event.
    pub end_time: f64,
}

impl SimResult {
    /// Completed FCTs in seconds, sorted ascending (CDF material).
    ///
    /// Total order via [`f64::total_cmp`]: a degenerate (NaN) FCT in a
    /// hand-built record sorts last instead of panicking the sort.
    pub fn sorted_fcts(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.records.iter().filter_map(|r| r.fct()).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Mean FCT over completed flows. Incomplete flows — including
    /// connections parked by a fault schedule and never revived — carry
    /// no FCT and are excluded here; they still count against
    /// [`completed_fraction`](Self::completed_fraction).
    pub fn mean_fct(&self) -> Option<f64> {
        let v = self.sorted_fcts();
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    }

    /// Fraction of input flows that completed. The denominator is
    /// **every** input flow: unroutable, stalled, and
    /// parked-never-revived (degraded) flows all count as incomplete —
    /// they never vanish from [`records`](Self::records).
    pub fn completed_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.completed_count() as f64 / self.records.len() as f64
    }

    /// Number of flows that completed.
    pub fn completed_count(&self) -> usize {
        self.records.iter().filter(|r| r.finish.is_some()).count()
    }

    /// Number of flows that never finished (unroutable, stalled, or
    /// parked by a fault schedule without a later recovery).
    pub fn unfinished_count(&self) -> usize {
        self.records.len() - self.completed_count()
    }

    /// Mean per-flow average goodput (Gbps) over completed flows (the
    /// paper's per-flow throughput metric; incomplete flows have no
    /// defined average rate).
    pub fn mean_rate_gbps(&self) -> Option<f64> {
        let v: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.avg_rate_gbps())
            .collect();
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    }

    /// Mean goodput (Gbps) over **all** input flows, counting every
    /// incomplete flow as zero. Unlike
    /// [`mean_rate_gbps`](Self::mean_rate_gbps), degraded flows do not
    /// vanish from the denominator — this is the honest workload-level
    /// number for runs under faults.
    pub fn workload_mean_rate_gbps(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.records.iter().filter_map(|r| r.avg_rate_gbps()).sum();
        sum / self.records.len() as f64
    }
}

struct Active {
    rec_idx: usize,
    spec: FlowSpec,
    remaining: f64,
    path_ids: Vec<PathId>,
    subflow_weight: f64,
}

/// What [`run`] returns: the [`SimResult`] plus the invariant auditor's
/// tallies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Outcome {
    /// The simulation result.
    pub result: SimResult,
    /// Invariant-auditor tallies ([`AuditReport::violations`] is zero on
    /// a correct engine). All zero unless [`RunOpts::faults`] was given.
    pub audit: AuditReport,
}

/// The optional parts of a [`run`]. `RunOpts::default()` is the plain
/// run: the provider `cfg.transport` selects, no fault schedule, no
/// telemetry, no tracing.
pub struct RunOpts<'a, S: TraceSink = NoopSink> {
    /// Routing provider; `None` uses [`EcmpProvider`] for
    /// [`Transport::TcpEcmp`] and [`MptcpProvider`] for
    /// [`Transport::Mptcp`]. A custom provider must be deterministic (see
    /// [`PathProvider`]); the engine uses whatever it returns, whatever
    /// `cfg.transport` says.
    pub provider: Option<&'a mut dyn PathProvider>,
    /// Compiled fault schedule to replay, with the invariant auditor
    /// enabled. Connections that lose every path are *parked* (not
    /// dropped) and re-routed when a recovery event restores
    /// connectivity; arrivals during a partition wait parked for the
    /// network to heal. An empty schedule takes exactly the fault-free
    /// code path, so the result is bit-identical to `None`.
    pub faults: Option<&'a FaultSchedule>,
    /// Sums the incremental allocator's per-epoch effort counters. Plain
    /// integer adds on the epoch boundary: the result is unchanged.
    pub telemetry: Option<&'a mut AllocTelemetry>,
    /// Receives the flow lifecycle (start / reroute / park / revive /
    /// finish), per-epoch allocator and link-utilization events, and
    /// applied fault events. Pass `&mut sink` to keep the sink after the
    /// run. With [`NoopSink`] every emission guard compiles away.
    pub sink: S,
}

impl Default for RunOpts<'_> {
    fn default() -> Self {
        Self {
            provider: None,
            faults: None,
            telemetry: None,
            sink: NoopSink,
        }
    }
}

impl FlowSpec {
    /// Checks the flow against `g`: finite start, positive finite byte
    /// count, distinct endpoints, both of them nodes of `g`.
    pub fn validate(&self, g: &Graph) -> Result<(), SimError> {
        let flow = self.id;
        if !self.start.is_finite() {
            return Err(SimError::NonFiniteStart { flow });
        }
        if !(self.bytes.is_finite() && self.bytes > 0.0) {
            return Err(SimError::InvalidBytes {
                flow,
                bytes: self.bytes,
            });
        }
        if self.src == self.dst {
            return Err(SimError::SelfFlow {
                flow,
                node: self.src,
            });
        }
        for node in [self.src, self.dst] {
            if node.idx() >= g.node_count() {
                return Err(SimError::UnknownNode { flow, node });
            }
        }
        Ok(())
    }
}

/// Validates a workload, its legacy failures and its fault schedule
/// against the graph.
fn validate(
    g: &Graph,
    flows: &[FlowSpec],
    cfg: &SimConfig,
    schedule: &[LinkEvent],
) -> Result<(), SimError> {
    for f in flows {
        f.validate(g)?;
    }
    let legacy = cfg.link_failures.iter().map(|lf| (lf.time, lf.link));
    for (time, link) in legacy.chain(schedule.iter().map(|ev| (ev.time, ev.link))) {
        if !time.is_finite() {
            return Err(SimError::NonFiniteFailureTime);
        }
        if link.idx() >= g.link_count() {
            return Err(SimError::UnknownFailedLink { link: link.idx() });
        }
    }
    Ok(())
}

/// Runs the fluid simulation: the one entry point to the engine.
///
/// Flows may arrive in any order (sorted internally). Unroutable flows
/// (disconnected endpoints) are recorded as never finishing. Invalid
/// input — a malformed flow, an endpoint outside the graph, a failure
/// at a non-finite time or on an unknown link — is a typed
/// [`SimError`].
pub fn run<S: TraceSink>(
    g: &Graph,
    flows: &[FlowSpec],
    cfg: &SimConfig,
    opts: RunOpts<'_, S>,
) -> Result<Outcome, SimError> {
    let RunOpts {
        provider,
        faults,
        telemetry,
        mut sink,
    } = opts;
    let schedule = faults.map_or(&[][..], |s| &s.events);
    validate(g, flows, cfg, schedule)?;
    let mut own: Box<dyn PathProvider>;
    let provider: &mut dyn PathProvider = match provider {
        Some(p) => p,
        None => {
            own = match cfg.transport {
                Transport::TcpEcmp => Box::new(EcmpProvider::new()),
                Transport::Mptcp { k, coupled } => Box::new(MptcpProvider::new(k, coupled)),
            };
            &mut *own
        }
    };
    let mut audit = AuditReport::default();
    let result = run_engine(
        g,
        flows,
        cfg,
        provider,
        schedule,
        faults.map(|_| &mut audit),
        telemetry,
        &mut sink,
    );
    Ok(Outcome { result, audit })
}

/// [`run`] with a custom provider, panicking on invalid input.
///
/// Kept only because the repository benchmark (`perfbench/`) calls it
/// by name; new code calls [`run`].
pub fn simulate_with_provider(
    g: &Graph,
    flows: &[FlowSpec],
    cfg: &SimConfig,
    provider: &mut dyn PathProvider,
) -> SimResult {
    let opts = RunOpts {
        provider: Some(provider),
        ..RunOpts::default()
    };
    run(g, flows, cfg, opts)
        .unwrap_or_else(|e| panic!("invalid simulation input: {e}"))
        .result
}

/// [`run`] with a custom provider, a fault schedule and allocator
/// telemetry.
///
/// Kept only because the repository benchmark (`perfbench/`) calls it
/// by name; new code calls [`run`].
pub fn simulate_with_telemetry(
    g: &Graph,
    flows: &[FlowSpec],
    cfg: &SimConfig,
    schedule: &FaultSchedule,
    provider: &mut dyn PathProvider,
    telemetry: &mut AllocTelemetry,
) -> Result<Outcome, SimError> {
    let opts = RunOpts {
        provider: Some(provider),
        faults: Some(schedule),
        telemetry: Some(telemetry),
        sink: NoopSink,
    };
    run(g, flows, cfg, opts)
}

/// The event loop. `schedule` must be sorted by time; an empty schedule
/// with no auditor reproduces the pre-fault-plane engine bit for bit.
///
/// Every `sink` emission site is guarded by
/// [`TraceSink::enabled`]; with [`NoopSink`] the guards (and event
/// construction) compile away, so tracing never perturbs the
/// simulation.
#[allow(clippy::too_many_arguments)]
fn run_engine<S: TraceSink>(
    g: &Graph,
    flows: &[FlowSpec],
    cfg: &SimConfig,
    provider: &mut dyn PathProvider,
    schedule: &[LinkEvent],
    mut audit: Option<&mut AuditReport>,
    mut telemetry: Option<&mut AllocTelemetry>,
    sink: &mut S,
) -> SimResult {
    let mut caps = g.capacities();
    // Pristine capacities, for restoring a link on a recovery event.
    let base_caps = caps.clone();
    // Parked connections: lost every path (or arrived unroutable) while
    // a fault schedule with possible recoveries is active. Revived on
    // recovery events; only ever populated when `schedule` is non-empty.
    let has_faults = !schedule.is_empty();
    let mut parked: Vec<Active> = Vec::new();
    let mut next_event = 0usize;
    let mut arena = PathArena::new();
    // Persistent subflow→entity bindings: mirrors `active` inside the
    // incremental allocator so each epoch re-solves only what the event
    // batch dirtied. `needs_resync` is set by fault edges that reshuffle
    // positions wholesale (park / revive / stall-drop).
    let mut bind = Bindings::new();
    let mut needs_resync = false;

    // Records in input order; simulation works on a start-sorted index.
    let mut records: Vec<FlowRecord> = flows
        .iter()
        .map(|f| FlowRecord {
            id: f.id,
            start: f.start,
            finish: None,
            bytes: f.bytes,
        })
        .collect();
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by(|&a, &b| flows[a].start.total_cmp(&flows[b].start).then(a.cmp(&b)));
    let mut failures = cfg.link_failures.clone();
    failures.sort_by(|a, b| a.time.total_cmp(&b.time));
    let mut failed = FailedLinks::new(g.link_count());

    let mut next_arrival = 0usize;
    let mut next_failure = 0usize;
    let mut active: Vec<Active> = Vec::new();
    let mut series = Vec::new();
    let mut t = 0.0f64;

    // Folded per-connection rates, reused across events.
    let mut rates: Vec<f64> = Vec::new();
    // Per-link carried rate, only touched when the sink is live.
    let mut util_used: Vec<f64> = Vec::new();

    loop {
        // Allocate under the current active set. The bindings hold
        // entities in (connection, subflow) order — exactly the entity
        // list the old engine rebuilt per event — and the incremental
        // allocator reconciles only the links the last event batch
        // dirtied, so the rates are bit-identical at a fraction of the
        // cost.
        bind.allocate(&caps);
        if let Some(tel) = telemetry.as_deref_mut() {
            tel.absorb(bind.stats());
        }
        if let Some(rep) = audit.as_deref_mut() {
            // Invariant 1: no subflow carries rate over a down link.
            for (ci, a) in active.iter().enumerate() {
                let sub = bind.subflow_rates(ci);
                for (&pid, &r) in a.path_ids.iter().zip(sub) {
                    rep.checks += 1;
                    if r > STALL_RATE && !failed.path_alive(arena.links(pid)) {
                        rep.rate_on_down_link += 1;
                    }
                }
            }
        }
        if sink.enabled() {
            sink.emit(TraceEvent::Alloc {
                t,
                conns: active.len(),
                subflows: bind.num_subflows(),
                rounds: bind.rounds(),
            });
            // Per-epoch link-utilization histogram over links that
            // currently carry capacity.
            util_used.clear();
            util_used.resize(caps.len(), 0.0);
            for (ci, a) in active.iter().enumerate() {
                let sub = bind.subflow_rates(ci);
                for (&pid, &r) in a.path_ids.iter().zip(sub) {
                    if r > 0.0 {
                        for l in arena.links(pid) {
                            util_used[l.idx()] += r;
                        }
                    }
                }
            }
            let mut deciles = [0u32; 10];
            let mut saturated = 0u32;
            let mut busiest = 0.0f64;
            for (l, &cap) in caps.iter().enumerate() {
                if cap > 0.0 {
                    let u = util_used[l] / cap;
                    deciles[((u * 10.0) as usize).min(9)] += 1;
                    if u >= 0.999 {
                        saturated += 1;
                    }
                    if u > busiest {
                        busiest = u;
                    }
                }
            }
            sink.emit(TraceEvent::LinkUtil {
                t,
                deciles,
                saturated,
                busiest,
            });
        }
        rates.clear();
        rates.extend((0..active.len()).map(|ci| bind.conn_rate(ci)));
        if cfg.record_series {
            series.push((t, rates.iter().sum()));
        }

        // Next event time.
        let t_arr = (next_arrival < order.len()).then(|| flows[order[next_arrival]].start);
        let t_fail = (next_failure < failures.len()).then(|| failures[next_failure].time);
        let t_ev = (next_event < schedule.len()).then(|| schedule[next_event].time);
        let t_fin = active
            .iter()
            .zip(&rates)
            .filter(|(_, &r)| r > STALL_RATE)
            .map(|(a, &r)| t + a.remaining / (r * GBPS_TO_BPS))
            .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a| a.min(x))));
        let candidates = [t_arr, t_fail, t_fin, t_ev];
        let Some(t_next) = candidates
            .iter()
            .flatten()
            .fold(None::<f64>, |acc, &x| Some(acc.map_or(x, |a| a.min(x))))
        else {
            // No events left; anything still active is stalled forever.
            break;
        };
        let t_next = t_next.max(t);

        // Drain bytes until t_next.
        let dt = t_next - t;
        for (a, &r) in active.iter_mut().zip(&rates) {
            a.remaining -= r * GBPS_TO_BPS * dt;
        }
        t = t_next;

        // Completions.
        let mut i = 0;
        while i < active.len() {
            if active[i].remaining <= DONE_BYTES {
                records[active[i].rec_idx].finish = Some(t);
                if sink.enabled() {
                    sink.emit(TraceEvent::FlowFinish {
                        t,
                        flow: active[i].spec.id,
                        fct: t - active[i].spec.start,
                    });
                }
                active.swap_remove(i);
                bind.swap_remove(i);
            } else {
                i += 1;
            }
        }
        // Arrivals.
        while next_arrival < order.len() && flows[order[next_arrival]].start <= t + 1e-15 {
            let idx = order[next_arrival];
            next_arrival += 1;
            let spec = flows[idx];
            match provider.route(g, &mut arena, &failed, &spec) {
                Some(conn) => {
                    if sink.enabled() {
                        sink.emit(TraceEvent::FlowStart {
                            t,
                            flow: spec.id,
                            paths: conn.path_ids.len(),
                        });
                    }
                    bind.push(&arena, &conn.path_ids, conn.subflow_weight);
                    active.push(Active {
                        rec_idx: idx,
                        spec,
                        remaining: spec.bytes,
                        path_ids: conn.path_ids,
                        subflow_weight: conn.subflow_weight,
                    });
                }
                None if has_faults => {
                    // Unroutable during a partition: wait parked for a
                    // recovery event instead of never finishing.
                    if sink.enabled() {
                        sink.emit(TraceEvent::FlowPark {
                            t,
                            flow: spec.id,
                            cause: ParkCause::Arrival,
                        });
                    }
                    parked.push(Active {
                        rec_idx: idx,
                        spec,
                        remaining: spec.bytes,
                        path_ids: Vec::new(),
                        subflow_weight: 1.0,
                    });
                    if let Some(rep) = audit.as_deref_mut() {
                        rep.parked += 1;
                    }
                }
                None => {
                    // Unroutable: record stays unfinished.
                    if sink.enabled() {
                        sink.emit(TraceEvent::FlowUnroutable { t, flow: spec.id });
                    }
                }
            }
        }
        // Failures (legacy down-only list).
        let mut failed_now = false;
        let mut recovered_now = false;
        while next_failure < failures.len() && failures[next_failure].time <= t + 1e-15 {
            let f = failures[next_failure];
            next_failure += 1;
            failed.fail(f.link);
            caps[f.link.idx()] = 0.0;
            if sink.enabled() {
                sink.emit(TraceEvent::LinkDown {
                    t,
                    link: f.link.idx(),
                });
            }
            if let Some(rev) = g.link(f.link).reverse {
                failed.fail(rev);
                caps[rev.idx()] = 0.0;
                if sink.enabled() {
                    sink.emit(TraceEvent::LinkDown { t, link: rev.idx() });
                }
            }
            failed_now = true;
        }
        // Fault-plan events (down and up, directed-link granularity).
        while next_event < schedule.len() && schedule[next_event].time <= t + 1e-15 {
            let ev = schedule[next_event];
            next_event += 1;
            if let Some(rep) = audit.as_deref_mut() {
                rep.events_applied += 1;
            }
            if ev.up {
                if failed.recover(ev.link) {
                    caps[ev.link.idx()] = base_caps[ev.link.idx()];
                    recovered_now = true;
                    if sink.enabled() {
                        sink.emit(TraceEvent::LinkUp {
                            t,
                            link: ev.link.idx(),
                        });
                    }
                }
            } else if failed.fail(ev.link) {
                caps[ev.link.idx()] = 0.0;
                failed_now = true;
                if sink.enabled() {
                    sink.emit(TraceEvent::LinkDown {
                        t,
                        link: ev.link.idx(),
                    });
                }
            }
        }
        if recovered_now {
            // Graceful re-convergence: refresh every active connection
            // onto the provider's routes for the healed network, then
            // revive whatever parked connections can route again.
            for a in &mut active {
                let spec = a.spec;
                if let Some(conn) = provider.route(g, &mut arena, &failed, &spec) {
                    a.path_ids = conn.path_ids;
                    a.subflow_weight = conn.subflow_weight;
                } else {
                    a.path_ids
                        .retain(|&pid| failed.path_alive(arena.links(pid)));
                }
                if sink.enabled() {
                    sink.emit(TraceEvent::FlowReroute {
                        t,
                        flow: spec.id,
                        paths: a.path_ids.len(),
                    });
                }
            }
            let mut still_parked = Vec::new();
            for mut a in parked.drain(..) {
                let spec = a.spec;
                if let Some(conn) = provider.route(g, &mut arena, &failed, &spec) {
                    a.path_ids = conn.path_ids;
                    a.subflow_weight = conn.subflow_weight;
                    if let Some(rep) = audit.as_deref_mut() {
                        rep.revived += 1;
                    }
                    if sink.enabled() {
                        sink.emit(TraceEvent::FlowRevive {
                            t,
                            flow: spec.id,
                            paths: a.path_ids.len(),
                        });
                    }
                    active.push(a);
                } else {
                    still_parked.push(a);
                }
            }
            parked = still_parked;
            // Every position may have moved or changed paths: full
            // binding invalidation.
            needs_resync = true;
        } else if failed_now {
            // Re-route connections that lost a subflow; each keeps its
            // position, so the binding is replaced in place.
            for (ci, a) in active.iter_mut().enumerate() {
                let hit = a
                    .path_ids
                    .iter()
                    .any(|&pid| !failed.path_alive(arena.links(pid)));
                if hit {
                    let spec = a.spec;
                    if let Some(conn) = provider.route(g, &mut arena, &failed, &spec) {
                        a.path_ids = conn.path_ids;
                        a.subflow_weight = conn.subflow_weight;
                    } else {
                        // Keep only surviving subflows (possibly none).
                        a.path_ids
                            .retain(|&pid| failed.path_alive(arena.links(pid)));
                    }
                    if a.path_ids.is_empty() {
                        // Zero subflows left: unbindable. The park /
                        // drop pass below removes it, then the bindings
                        // are rebuilt.
                        needs_resync = true;
                    } else {
                        bind.replace(&arena, ci, &a.path_ids, a.subflow_weight);
                    }
                    if sink.enabled() {
                        sink.emit(TraceEvent::FlowReroute {
                            t,
                            flow: spec.id,
                            paths: a.path_ids.len(),
                        });
                    }
                }
            }
        }
        if failed_now || recovered_now {
            if has_faults {
                // Connections with no path left wait parked for a
                // recovery event; finish stays None if none comes.
                let mut i = 0;
                while i < active.len() {
                    if active[i].path_ids.is_empty() {
                        if sink.enabled() {
                            sink.emit(TraceEvent::FlowPark {
                                t,
                                flow: active[i].spec.id,
                                cause: ParkCause::PathLoss,
                            });
                        }
                        parked.push(active.remove(i));
                        needs_resync = true;
                        if let Some(rep) = audit.as_deref_mut() {
                            rep.parked += 1;
                        }
                    } else {
                        i += 1;
                    }
                }
            } else {
                // Permanently stalled connections drop out; finish stays
                // None.
                let before = active.len();
                active.retain(|a| !a.path_ids.is_empty());
                if active.len() != before {
                    needs_resync = true;
                }
            }
            if let Some(rep) = audit.as_deref_mut() {
                // Invariant 2: every connection kept active after a
                // fault event has at least one fully-alive path.
                for a in &active {
                    if !a
                        .path_ids
                        .iter()
                        .any(|&pid| failed.path_alive(arena.links(pid)))
                    {
                        rep.dead_active_conn += 1;
                    }
                }
            }
        }
        if needs_resync {
            // Fault edge reshuffled positions (park / revive / drop):
            // rebuild the bindings from the active vector. Correct by
            // construction, and rare — it only runs on failure-epoch or
            // recovery boundaries, never on the arrival/completion path.
            bind.resync(
                &arena,
                active
                    .iter()
                    .map(|a| (a.path_ids.as_slice(), a.subflow_weight)),
            );
            needs_resync = false;
        }
    }

    if sink.enabled() {
        let completed = records.iter().filter(|r| r.finish.is_some()).count();
        sink.emit(TraceEvent::SimEnd {
            t,
            completed,
            unfinished: records.len() - completed,
        });
    }

    SimResult {
        records,
        series,
        end_time: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{Graph, NodeKind};

    /// Two racks joined by one 10G core link; 2 servers per rack.
    fn dumbbell() -> (Graph, Vec<NodeId>, LinkId) {
        let mut g = Graph::new();
        let e0 = g.add_node(NodeKind::EdgeSwitch, "e0");
        let e1 = g.add_node(NodeKind::EdgeSwitch, "e1");
        let (core, _) = g.add_duplex_link(e0, e1, 10.0);
        let mut servers = Vec::new();
        for (i, &e) in [e0, e0, e1, e1].iter().enumerate() {
            let s = g.add_node(NodeKind::Server, format!("s{i}"));
            g.add_duplex_link(s, e, 10.0);
            servers.push(s);
        }
        (g, servers, core)
    }

    fn spec(id: u64, src: NodeId, dst: NodeId, bytes: f64, start: f64) -> FlowSpec {
        FlowSpec {
            id,
            src,
            dst,
            bytes,
            start,
        }
    }

    /// A run with default options on valid input.
    fn run_plain(g: &Graph, flows: &[FlowSpec], cfg: &SimConfig) -> SimResult {
        run(g, flows, cfg, RunOpts::default())
            .expect("valid input")
            .result
    }

    /// A run replaying `sched` on valid input.
    fn run_faulted(
        g: &Graph,
        flows: &[FlowSpec],
        cfg: &SimConfig,
        sched: &FaultSchedule,
    ) -> Outcome {
        let opts = RunOpts {
            faults: Some(sched),
            ..RunOpts::default()
        };
        run(g, flows, cfg, opts).expect("valid input")
    }

    #[test]
    fn single_flow_fct_is_exact() {
        let (g, s, _) = dumbbell();
        // 10 Gbps end to end; 1.25 GB takes exactly 1 s.
        let flows = vec![spec(0, s[0], s[2], 1.25e9, 0.0)];
        let res = run_plain(&g, &flows, &SimConfig::default());
        let fct = res.records[0].fct().unwrap();
        assert!((fct - 1.0).abs() < 1e-9, "fct = {fct}");
        assert!((res.records[0].avg_rate_gbps().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let (g, s, _) = dumbbell();
        // Both cross the 10G core: share 5 Gbps each; the small one
        // finishes at 1 s, then the big one speeds up to 10.
        let flows = vec![
            spec(0, s[0], s[2], 0.625e9, 0.0), // 5 Gb at 5 Gbps -> 1 s
            spec(1, s[1], s[3], 1.25e9, 0.0),
        ];
        let res = run_plain(&g, &flows, &SimConfig::default());
        let f0 = res.records[0].fct().unwrap();
        let f1 = res.records[1].fct().unwrap();
        assert!((f0 - 1.0).abs() < 1e-9, "f0 = {f0}");
        // Big flow: 5 Gbps for 1 s (0.625 GB done), then 10 Gbps for the
        // remaining 0.625 GB -> 0.5 s more.
        assert!((f1 - 1.5).abs() < 1e-9, "f1 = {f1}");
    }

    #[test]
    fn staggered_arrivals() {
        let (g, s, _) = dumbbell();
        let flows = vec![
            spec(0, s[0], s[2], 1.25e9, 0.0),
            spec(1, s[1], s[3], 1.25e9, 0.5),
        ];
        let res = run_plain(&g, &flows, &SimConfig::default());
        // Flow 0: 10G for 0.5 s (half done), then 5G until done:
        // remaining 0.625 GB at 5 Gbps = 1 s -> finish 1.5.
        assert!((res.records[0].fct().unwrap() - 1.5).abs() < 1e-9);
        // Flow 1: 5G from 0.5 to 1.5 (0.625 GB), then 10G for the rest:
        // finish at 2.0, fct 1.5.
        assert!((res.records[1].fct().unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn intra_rack_avoids_core() {
        let (g, s, _) = dumbbell();
        let flows = vec![
            spec(0, s[0], s[1], 1.25e9, 0.0), // same rack
            spec(1, s[2], s[3], 1.25e9, 0.0), // same rack
        ];
        let res = run_plain(&g, &flows, &SimConfig::default());
        for r in &res.records {
            assert!((r.fct().unwrap() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn link_failure_stalls_when_no_alternative() {
        let (g, s, core) = dumbbell();
        let flows = vec![spec(0, s[0], s[2], 1.25e9, 0.0)];
        let cfg = SimConfig {
            link_failures: vec![LinkFailure {
                time: 0.5,
                link: core,
            }],
            ..SimConfig::default()
        };
        let res = run_plain(&g, &flows, &cfg);
        assert_eq!(res.records[0].finish, None, "must stall: only path died");
    }

    /// Diamond with two disjoint switch paths: failure reroutes.
    #[test]
    fn link_failure_reroutes_over_survivor() {
        let mut g = Graph::new();
        let e0 = g.add_node(NodeKind::EdgeSwitch, "e0");
        let e1 = g.add_node(NodeKind::EdgeSwitch, "e1");
        let x = g.add_node(NodeKind::CoreSwitch, "x");
        let y = g.add_node(NodeKind::CoreSwitch, "y");
        let (via_x, _) = g.add_duplex_link(e0, x, 10.0);
        g.add_duplex_link(x, e1, 10.0);
        g.add_duplex_link(e0, y, 10.0);
        g.add_duplex_link(y, e1, 10.0);
        let s0 = g.add_node(NodeKind::Server, "s0");
        let s1 = g.add_node(NodeKind::Server, "s1");
        g.add_duplex_link(s0, e0, 10.0);
        g.add_duplex_link(s1, e1, 10.0);
        let flows = vec![spec(0, s0, s1, 1.25e9, 0.0)];
        let cfg = SimConfig {
            transport: Transport::Mptcp {
                k: 2,
                coupled: true,
            },
            link_failures: vec![LinkFailure {
                time: 0.5,
                link: via_x,
            }],
            record_series: false,
        };
        let res = run_plain(&g, &flows, &cfg);
        // NIC-limited to 10G throughout (both paths before, one after);
        // completion at 1 s regardless of the failure.
        let fct = res.records[0].fct().expect("must finish via y");
        assert!((fct - 1.0).abs() < 1e-6, "fct = {fct}");
    }

    #[test]
    fn ecmp_and_mptcp_agree_on_single_path_topology() {
        let (g, s, _) = dumbbell();
        let flows = vec![spec(0, s[0], s[2], 1.25e9, 0.0)];
        for transport in [Transport::TcpEcmp, Transport::mptcp8()] {
            let res = run_plain(
                &g,
                &flows,
                &SimConfig {
                    transport,
                    ..SimConfig::default()
                },
            );
            assert!((res.records[0].fct().unwrap() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn series_records_goodput_steps() {
        let (g, s, _) = dumbbell();
        let flows = vec![
            spec(0, s[0], s[2], 1.25e9, 0.0),
            spec(1, s[1], s[3], 1.25e9, 0.0),
        ];
        let cfg = SimConfig {
            record_series: true,
            ..SimConfig::default()
        };
        let res = run_plain(&g, &flows, &cfg);
        assert!(!res.series.is_empty());
        // The point at t=0 before arrivals carries 0; once both flows are
        // active the total goodput steps to the 10 G core capacity.
        let peak = res.series.iter().map(|&(_, r)| r).fold(0.0f64, f64::max);
        assert!((peak - 10.0).abs() < 1e-9, "peak {peak}");
        assert!(res.end_time > 0.0);
    }

    #[test]
    fn run_rejects_bad_input() {
        let (g, s, _) = dumbbell();
        use crate::error::SimError;
        let check = |flows: &[FlowSpec], cfg: &SimConfig| {
            run(&g, flows, cfg, RunOpts::default()).map(|out| out.result)
        };
        let bad_start = vec![spec(0, s[0], s[2], 1.0, f64::NAN)];
        assert!(matches!(
            check(&bad_start, &SimConfig::default()),
            Err(SimError::NonFiniteStart { flow: 0 })
        ));
        let self_flow = vec![spec(1, s[0], s[0], 1.0, 0.0)];
        assert!(matches!(
            check(&self_flow, &SimConfig::default()),
            Err(SimError::SelfFlow { flow: 1, .. })
        ));
        let empty = vec![spec(2, s[0], s[1], 0.0, 0.0)];
        assert!(matches!(
            check(&empty, &SimConfig::default()),
            Err(SimError::InvalidBytes { flow: 2, .. })
        ));
        let cfg = SimConfig {
            link_failures: vec![LinkFailure {
                time: 1.0,
                link: LinkId(9999),
            }],
            ..SimConfig::default()
        };
        assert!(matches!(
            check(&[spec(3, s[0], s[2], 1.0, 0.0)], &cfg),
            Err(SimError::UnknownFailedLink { .. })
        ));
        let bad_event = FaultSchedule {
            events: vec![LinkEvent {
                time: f64::INFINITY,
                link: LinkId(0),
                up: false,
            }],
        };
        let opts = RunOpts {
            faults: Some(&bad_event),
            ..RunOpts::default()
        };
        assert!(matches!(
            run(
                &g,
                &[spec(4, s[0], s[2], 1.0, 0.0)],
                &SimConfig::default(),
                opts
            ),
            Err(SimError::NonFiniteFailureTime)
        ));
        // An endpoint outside the graph is a typed error under either
        // transport, not an index panic inside the provider.
        let outside = NodeId(g.node_count() as u32 + 5);
        for transport in [Transport::TcpEcmp, Transport::mptcp8()] {
            let cfg = SimConfig {
                transport,
                ..SimConfig::default()
            };
            for (src, dst) in [(s[0], outside), (outside, s[0])] {
                let flows = [spec(5, src, dst, 1.0, 0.0)];
                assert_eq!(
                    check(&flows, &cfg).map(|r| r.records.len()),
                    Err(SimError::UnknownNode {
                        flow: 5,
                        node: outside
                    }),
                    "{transport:?}"
                );
            }
        }
    }

    /// Every bit of a result: records, series and end time.
    fn result_bits(r: &SimResult) -> Vec<u64> {
        let records = r.records.iter().flat_map(|rec| {
            [
                rec.id,
                rec.start.to_bits(),
                rec.finish.map_or(u64::MAX, f64::to_bits),
                rec.bytes.to_bits(),
            ]
        });
        let series = r
            .series
            .iter()
            .flat_map(|&(t, v)| [t.to_bits(), v.to_bits()]);
        records
            .chain(series)
            .chain([r.end_time.to_bits()])
            .collect()
    }

    /// No run option changes the result: an explicit standard provider,
    /// a live trace sink and allocator telemetry each give the default
    /// run's result bit for bit.
    #[test]
    fn run_options_never_change_the_result() {
        type Variant = fn(&Graph, &[FlowSpec], &SimConfig) -> SimResult;
        let variants: [(&str, Variant); 3] = [
            ("explicit provider", |g, flows, cfg| {
                let mut p: Box<dyn PathProvider> = match cfg.transport {
                    Transport::TcpEcmp => Box::new(EcmpProvider::new()),
                    Transport::Mptcp { k, coupled } => Box::new(MptcpProvider::new(k, coupled)),
                };
                let opts = RunOpts {
                    provider: Some(&mut *p),
                    ..RunOpts::default()
                };
                run(g, flows, cfg, opts).expect("valid input").result
            }),
            ("ring sink", |g, flows, cfg| {
                let mut ring = obs::RingSink::unbounded();
                let opts = RunOpts {
                    provider: None,
                    faults: None,
                    telemetry: None,
                    sink: &mut ring,
                };
                let res = run(g, flows, cfg, opts).expect("valid input").result;
                assert!(!ring.into_events().is_empty());
                res
            }),
            ("telemetry", |g, flows, cfg| {
                let mut tel = AllocTelemetry::default();
                let opts = RunOpts {
                    telemetry: Some(&mut tel),
                    ..RunOpts::default()
                };
                let res = run(g, flows, cfg, opts).expect("valid input").result;
                assert!(tel.epochs > 0 && tel.rounds > 0, "{tel:?}");
                res
            }),
        ];
        let (g, s, core) = dumbbell();
        let flows = vec![
            spec(0, s[0], s[2], 1.25e9, 0.0),
            spec(1, s[1], s[3], 0.625e9, 0.25),
            spec(2, s[2], s[3], 0.3e9, 0.1),
        ];
        for transport in [Transport::TcpEcmp, Transport::mptcp8()] {
            let cfg = SimConfig {
                transport,
                link_failures: vec![LinkFailure {
                    time: 0.5,
                    link: core,
                }],
                record_series: true,
            };
            let base = result_bits(&run_plain(&g, &flows, &cfg));
            for (name, variant) in variants {
                let got = result_bits(&variant(&g, &flows, &cfg));
                assert_eq!(got, base, "{name} under {transport:?}");
            }
        }
    }

    /// Config shared by the bit-identity tests: two flows over the
    /// dumbbell with a core failure mid-run and the series recorded.
    fn failing_core_case() -> (Graph, Vec<FlowSpec>, SimConfig) {
        let (g, s, core) = dumbbell();
        let flows = vec![
            spec(0, s[0], s[2], 1.25e9, 0.0),
            spec(1, s[1], s[3], 0.625e9, 0.25),
        ];
        let cfg = SimConfig {
            link_failures: vec![LinkFailure {
                time: 0.5,
                link: core,
            }],
            record_series: true,
            ..SimConfig::default()
        };
        (g, flows, cfg)
    }

    /// An empty fault schedule takes exactly the fault-free code path:
    /// the outcome is bit-identical to the plain run and the auditor is
    /// silent.
    #[test]
    fn empty_schedule_is_bit_identical_to_simulate() {
        let (g, flows, cfg) = failing_core_case();
        let plain = run_plain(&g, &flows, &cfg);
        let faulted = run_faulted(&g, &flows, &cfg, &FaultSchedule::empty());
        assert_eq!(result_bits(&plain), result_bits(&faulted.result));
        assert_eq!(faulted.audit.violations(), 0);
        assert_eq!(faulted.audit.events_applied, 0);
        assert_eq!(faulted.audit.parked, 0);
    }

    /// An explicitly passed `NoopSink` is the default run: bit-identical
    /// records, series, and end time.
    #[test]
    fn noop_traced_is_bit_identical() {
        let (g, flows, cfg) = failing_core_case();
        let plain = run_plain(&g, &flows, &cfg);
        let opts = RunOpts {
            provider: None,
            faults: None,
            telemetry: None,
            sink: &mut NoopSink,
        };
        let traced = run(&g, &flows, &cfg, opts).expect("valid input").result;
        assert_eq!(result_bits(&plain), result_bits(&traced));
    }

    /// A flap on the only path parks the flow and revives it on
    /// recovery: the flow completes late instead of never.
    #[test]
    fn flap_parks_then_revives_the_only_path() {
        let (g, s, core) = dumbbell();
        let flows = vec![spec(0, s[0], s[2], 1.25e9, 0.0)];
        let mut plan = crate::faults::FaultPlan::new(1);
        plan.flap(core, 0.5, Some(2.0));
        let sched = plan.compile(&g).expect("valid plan");
        let cfg = SimConfig::default();
        let out = run_faulted(&g, &flows, &cfg, &sched);
        // 0.625 GB done by t=0.5; parked for 1.5 s; remaining 0.625 GB
        // at 10 Gbps takes 0.5 s -> finish at 2.5 s.
        let fct = out.result.records[0].fct().expect("revived after flap");
        assert!((fct - 2.5).abs() < 1e-9, "fct = {fct}");
        assert_eq!(out.audit.parked, 1);
        assert_eq!(out.audit.revived, 1);
        assert_eq!(out.audit.violations(), 0);
        assert_eq!(out.audit.events_applied, 4); // 2 directions × down+up
    }

    /// An arrival during a partition waits parked and completes once the
    /// network heals.
    #[test]
    fn arrival_during_partition_waits_for_recovery() {
        let (g, s, core) = dumbbell();
        let flows = vec![spec(0, s[0], s[2], 1.25e9, 0.5)];
        let mut plan = crate::faults::FaultPlan::new(1);
        plan.flap(core, 0.25, Some(1.0));
        let sched = plan.compile(&g).expect("valid plan");
        let out = run_faulted(&g, &flows, &SimConfig::default(), &sched);
        // Arrives at 0.5 into a dead core, parked; core heals at 1.0;
        // 1 s of transfer -> finish 2.0, fct 1.5.
        let fct = out.result.records[0].fct().expect("must finish after heal");
        assert!((fct - 1.5).abs() < 1e-9, "fct = {fct}");
        assert_eq!(out.audit.parked, 1);
        assert_eq!(out.audit.revived, 1);
        assert_eq!(out.audit.violations(), 0);
    }

    /// A permanent (never-recovering) fault leaves the flow unfinished,
    /// matching the legacy failure semantics.
    #[test]
    fn permanent_fault_still_stalls_forever() {
        let (g, s, core) = dumbbell();
        let flows = vec![spec(0, s[0], s[2], 1.25e9, 0.0)];
        let mut plan = crate::faults::FaultPlan::new(1);
        plan.flap(core, 0.5, None);
        let sched = plan.compile(&g).expect("valid plan");
        let out = run_faulted(&g, &flows, &SimConfig::default(), &sched);
        assert_eq!(out.result.records[0].finish, None);
        assert_eq!(out.audit.parked, 1);
        assert_eq!(out.audit.revived, 0);
        assert_eq!(out.audit.violations(), 0);
    }

    /// A whole-switch flap kills every incident link and heals them all.
    #[test]
    fn switch_flap_reroutes_around_and_back() {
        // Diamond with two disjoint switch paths (as in
        // link_failure_reroutes_over_survivor).
        let mut g = Graph::new();
        let e0 = g.add_node(NodeKind::EdgeSwitch, "e0");
        let e1 = g.add_node(NodeKind::EdgeSwitch, "e1");
        let x = g.add_node(NodeKind::CoreSwitch, "x");
        let y = g.add_node(NodeKind::CoreSwitch, "y");
        g.add_duplex_link(e0, x, 10.0);
        g.add_duplex_link(x, e1, 10.0);
        g.add_duplex_link(e0, y, 10.0);
        g.add_duplex_link(y, e1, 10.0);
        let s0 = g.add_node(NodeKind::Server, "s0");
        let s1 = g.add_node(NodeKind::Server, "s1");
        g.add_duplex_link(s0, e0, 10.0);
        g.add_duplex_link(s1, e1, 10.0);
        let flows = vec![spec(0, s0, s1, 1.25e9, 0.0)];
        let mut plan = crate::faults::FaultPlan::new(1);
        plan.switch_fault(x, 0.3, Some(0.7));
        let sched = plan.compile(&g).expect("valid plan");
        let cfg = SimConfig {
            transport: Transport::Mptcp {
                k: 2,
                coupled: true,
            },
            ..SimConfig::default()
        };
        let out = run_faulted(&g, &flows, &cfg, &sched);
        // NIC-limited to 10G throughout (y survives): finish at 1 s.
        let fct = out.result.records[0].fct().expect("survives via y");
        assert!((fct - 1.0).abs() < 1e-6, "fct = {fct}");
        assert_eq!(out.audit.violations(), 0);
        assert_eq!(out.audit.events_applied, 8); // 2 cables × 2 dirs × 2
    }

    /// Regression (PR 4): a degenerate NaN FCT in a hand-built record
    /// must sort last instead of panicking the comparator.
    #[test]
    fn sorted_fcts_survives_nan_records() {
        let res = SimResult {
            records: vec![
                FlowRecord {
                    id: 0,
                    start: 0.0,
                    finish: Some(2.0),
                    bytes: 1.0,
                },
                FlowRecord {
                    id: 1,
                    start: f64::NAN,
                    finish: Some(1.0), // fct = 1.0 - NaN = NaN
                    bytes: 1.0,
                },
                FlowRecord {
                    id: 2,
                    start: 0.5,
                    finish: Some(1.0),
                    bytes: 1.0,
                },
                FlowRecord {
                    id: 3,
                    start: 0.0,
                    finish: None,
                    bytes: 1.0,
                },
            ],
            series: Vec::new(),
            end_time: 2.0,
        };
        let fcts = res.sorted_fcts(); // must not panic
        assert_eq!(fcts.len(), 3);
        assert_eq!(fcts[0], 0.5);
        assert_eq!(fcts[1], 2.0);
        assert!(fcts[2].is_nan(), "NaN sorts last under total_cmp");
    }

    /// Accounting pin (PR 4): a parked-and-never-revived flow stays in
    /// `records` as incomplete — it drags `completed_fraction` and
    /// `workload_mean_rate_gbps` down but is excluded from the
    /// completed-only `mean_fct` / `mean_rate_gbps`.
    #[test]
    fn parked_never_revived_counts_as_incomplete() {
        let (g, s, core) = dumbbell();
        let flows = vec![
            spec(0, s[0], s[2], 1.25e9, 0.0), // crosses core: parked forever
            spec(1, s[2], s[3], 1.25e9, 0.0), // intra-rack: completes at 1 s
        ];
        let mut plan = crate::faults::FaultPlan::new(1);
        plan.flap(core, 0.5, None); // permanent fault
        let sched = plan.compile(&g).expect("valid plan");
        let out = run_faulted(&g, &flows, &SimConfig::default(), &sched);
        let res = &out.result;
        assert_eq!(out.audit.parked, 1);
        assert_eq!(out.audit.revived, 0);
        // The parked flow never vanishes from the records.
        assert_eq!(res.records.len(), 2);
        assert_eq!(res.records[0].finish, None);
        assert_eq!(res.completed_count(), 1);
        assert_eq!(res.unfinished_count(), 1);
        assert!((res.completed_fraction() - 0.5).abs() < 1e-12);
        // Completed-only metrics see just the intra-rack flow.
        assert!((res.mean_fct().unwrap() - 1.0).abs() < 1e-9);
        assert!((res.mean_rate_gbps().unwrap() - 10.0).abs() < 1e-9);
        // The workload-level mean counts the parked flow as zero.
        assert!((res.workload_mean_rate_gbps() - 5.0).abs() < 1e-9);
    }

    /// The traced run must not perturb the simulation: same records as
    /// the un-traced run, plus a coherent event stream (starts, park /
    /// revive around the flap, one finish per completed flow, SimEnd
    /// tallies matching the result).
    #[test]
    fn trace_stream_matches_lifecycle() {
        let (g, s, core) = dumbbell();
        let flows = vec![
            spec(0, s[0], s[2], 1.25e9, 0.0),
            spec(1, s[0], s[1], 1.25e9, 0.0),
        ];
        let mut plan = crate::faults::FaultPlan::new(1);
        plan.flap(core, 0.5, Some(2.0));
        let sched = plan.compile(&g).expect("valid plan");
        let cfg = SimConfig::default();
        let plain = run_faulted(&g, &flows, &cfg, &sched);
        let mut ring = obs::RingSink::unbounded();
        let opts = RunOpts {
            provider: None,
            faults: Some(&sched),
            telemetry: None,
            sink: &mut ring,
        };
        let traced = run(&g, &flows, &cfg, opts).expect("valid input");
        assert_eq!(plain.result.records, traced.result.records);
        let events = ring.into_events();
        let count = |name: &str| events.iter().filter(|e| e.name() == name).count();
        assert_eq!(count("FlowStart"), 2);
        assert_eq!(count("FlowFinish"), traced.result.completed_count());
        assert_eq!(count("FlowPark"), traced.audit.parked as usize);
        assert_eq!(count("FlowRevive"), traced.audit.revived as usize);
        assert_eq!(count("LinkDown"), 2); // core cable, both directions
        assert_eq!(count("LinkUp"), 2);
        assert_eq!(count("SimEnd"), 1);
        assert!(count("Alloc") > 0, "one Alloc per epoch");
        assert_eq!(count("Alloc"), count("LinkUtil"));
        match events.last().expect("stream not empty") {
            TraceEvent::SimEnd {
                completed,
                unfinished,
                ..
            } => {
                assert_eq!(*completed, traced.result.completed_count());
                assert_eq!(*unfinished, traced.result.unfinished_count());
            }
            other => panic!("last event must be SimEnd, got {other:?}"),
        }
        // Park / revive lifecycle of the core-crossing flow.
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::FlowPark {
                flow: 0,
                cause: ParkCause::PathLoss,
                ..
            }
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::FlowRevive { flow: 0, .. })));
        // Every LinkUtil stays within [0, 1] utilization.
        for e in &events {
            if let TraceEvent::LinkUtil { busiest, .. } = e {
                assert!((0.0..=1.0 + 1e-9).contains(busiest), "busiest {busiest}");
            }
        }
    }

    /// Refactored engine vs the preserved pre-refactor engine: identical
    /// bits on a workload covering both transports and a mid-flight
    /// failure with reroute and with stall.
    #[test]
    fn matches_reference_engine_bitwise() {
        let (g, s, core) = dumbbell();
        let flows = vec![
            spec(0, s[0], s[2], 1.25e9, 0.0),
            spec(1, s[1], s[3], 0.625e9, 0.25),
            spec(2, s[0], s[1], 0.3e9, 0.4),
            spec(3, s[2], s[0], 0.9e9, 0.8),
        ];
        for transport in [
            Transport::TcpEcmp,
            Transport::mptcp8(),
            Transport::Mptcp {
                k: 2,
                coupled: false,
            },
        ] {
            for failures in [
                vec![],
                vec![LinkFailure {
                    time: 0.5,
                    link: core,
                }],
            ] {
                let cfg = SimConfig {
                    transport,
                    link_failures: failures,
                    record_series: true,
                };
                let new = run_plain(&g, &flows, &cfg);
                let old = crate::reference::simulate_reference(&g, &flows, &cfg);
                assert_eq!(new.records, old.records, "{transport:?}");
                assert_eq!(new.series.len(), old.series.len());
                for (a, b) in new.series.iter().zip(&old.series) {
                    assert_eq!(a.0.to_bits(), b.0.to_bits(), "{transport:?}");
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "{transport:?}");
                }
                assert_eq!(new.end_time.to_bits(), old.end_time.to_bits());
            }
        }
    }
}
