//! Performance snapshot: times the simulation engine on the bench_simcore
//! workloads plus one sweep grid and writes `BENCH_sim.json`.
//!
//! Usage:
//!   cargo run -p ft-bench --release --bin perfsnap -- [--smoke] [--out \<path\>] [--check \<path\>]
//!
//! Each workload is run once with a counting sink (untimed) to establish
//! how many trace events the run generates, then several times with the
//! no-op sink for the wall-clock measurement, keeping the fastest run —
//! so the reported time is the un-traced hot path with scheduler noise
//! trimmed. MPTCP workloads are timed over a prebuilt shared route
//! table (the table build itself is the `route_precompute` entry), so
//! `sim_*` measures the engine + allocator, not routing. Those
//! workloads also carry an `alloc` block with the incremental
//! allocator's effort counters from an untimed telemetry pass, and the
//! same counters are printed as an `obs` metrics summary on stderr.
//!
//! `events_per_s` is the counted event total divided by the best
//! wall-clock, and `peak_rss_kb` is the process high-water mark
//! (`VmHWM`) sampled after the workload (0 on non-Linux hosts).
//! `--smoke` shrinks the flow rounds for CI. `--check <path>` compares
//! the fresh numbers against a committed snapshot and fails (exit 1) if
//! any committed workload's `events_per_s` drops below half the
//! committed value — the regression floor CI enforces. The committed
//! snapshot must come from a run of the same kind: a `--smoke` run is
//! checked against `BENCH_sim_smoke.json`, a full run against
//! `BENCH_sim.json`, and a mismatched `smoke` flag fails the check.

use flat_tree::PodMode;
use flowsim::{
    run, AllocTelemetry, LinkFailure, MptcpProvider, PathProvider, RunOpts, SimConfig, TraceEvent,
    TraceSink, Transport,
};
use ft_bench::dispatch::{self, DispatchConfig};
use ft_bench::experiments::{common, faultsweep};
use ft_bench::{sweep, Scale};
use netgraph::{Graph, LinkId};
use routing::RouteTable;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use topology::DcNetwork;

const USAGE: &str = "usage: perfsnap [--smoke] [--out <path>] [--check <path>] [--help]";

/// Fraction of a committed workload's `events_per_s` a fresh run must
/// reach under `--check`. Generous because CI machines are slower and
/// noisier than the machine that wrote the committed snapshot.
const FLOOR_FRACTION: f64 = 0.5;

/// Counts every emitted event; used for the untimed instrumentation pass.
struct CountingSink(u64);

impl TraceSink for CountingSink {
    fn emit(&mut self, _ev: TraceEvent) {
        self.0 += 1;
    }
}

/// How a workload obtains routes: the lazy per-arrival provider that
/// `run` wires by default, or MPTCP over a prebuilt shared table.
enum Routing {
    Lazy,
    SharedMptcp {
        table: Arc<RouteTable>,
        coupled: bool,
    },
}

impl Routing {
    /// A fresh provider for one run; `None` means the default one.
    fn provider(&self) -> Option<MptcpProvider> {
        match self {
            Routing::Lazy => None,
            Routing::SharedMptcp { table, coupled } => {
                Some(MptcpProvider::with_shared(table.clone(), *coupled))
            }
        }
    }
}

/// The provider slot of [`RunOpts`] for a [`Routing::provider`].
fn as_dyn(p: &mut Option<MptcpProvider>) -> Option<&mut dyn PathProvider> {
    p.as_mut().map(|p| p as &mut dyn PathProvider)
}

fn first_cable(g: &Graph) -> LinkId {
    g.link_ids()
        .find(|&l| {
            let info = g.link(l);
            g.node(info.src).kind.is_switch() && g.node(info.dst).kind.is_switch()
        })
        .expect("switch-switch link")
}

fn workload(net: &DcNetwork, rounds: u64) -> Vec<flowsim::FlowSpec> {
    let pairs = traffic::patterns::permutation(net.num_servers(), 11);
    let mut flows = Vec::new();
    for round in 0..rounds {
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let id = round * pairs.len() as u64 + i as u64;
            flows.push(flowsim::FlowSpec {
                id,
                src: net.servers[s],
                dst: net.servers[d],
                bytes: 2.5e7,
                start: id as f64 * 1e-3,
            });
        }
    }
    flows
}

/// `VmHWM` (peak resident set) in kB from `/proc/self/status`; 0 when
/// the file or the field is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

struct Snapshot {
    name: &'static str,
    wall_ms: f64,
    events: u64,
    peak_rss_kb: u64,
    alloc: Option<AllocTelemetry>,
    /// Dispatch-plane requeues (lost leases retried), for the
    /// `dispatch_*` workloads only.
    retries: Option<u64>,
}

impl Snapshot {
    /// Events per second, or NaN for a degenerate measurement (zero or
    /// non-finite wall-clock). NaN rather than 0 so that degenerate
    /// runs *fail* [`validate_snapshots`] and the `--check` floor with
    /// a diagnostic instead of sliding through every `<` comparison.
    fn events_per_s(&self) -> f64 {
        if self.wall_ms.is_finite() && self.wall_ms > 0.0 {
            self.events as f64 / (self.wall_ms / 1e3)
        } else {
            f64::NAN
        }
    }
}

/// Rejects degenerate measurements before they can be written into a
/// snapshot (and become unusable floors): a workload that produced no
/// events, no wall-clock, or a non-finite rate is a broken run, not a
/// slow one. Returns one diagnostic per violation.
fn validate_snapshots(snaps: &[Snapshot]) -> Vec<String> {
    let mut violations = Vec::new();
    for snap in snaps {
        if snap.events == 0 {
            violations.push(format!(
                "{}: produced 0 events (wall {:.3} ms) — nothing was measured",
                snap.name, snap.wall_ms
            ));
            continue;
        }
        let eps = snap.events_per_s();
        if !(eps.is_finite() && eps > 0.0) {
            violations.push(format!(
                "{}: degenerate events_per_s {eps} from wall_ms {:.3} over {} events",
                snap.name, snap.wall_ms, snap.events
            ));
        }
    }
    violations
}

fn measure_sim(
    name: &'static str,
    net: &DcNetwork,
    flows: &[flowsim::FlowSpec],
    cfg: &SimConfig,
    routing: &Routing,
    reps: u32,
) -> Snapshot {
    let mut counter = CountingSink(0);
    let mut prov = routing.provider();
    let opts = RunOpts {
        provider: as_dyn(&mut prov),
        faults: None,
        telemetry: None,
        sink: &mut counter,
    };
    run(&net.graph, flows, cfg, opts).expect("valid workload");
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let mut prov = routing.provider();
        let opts = RunOpts {
            provider: as_dyn(&mut prov),
            ..RunOpts::default()
        };
        let out = run(&net.graph, flows, cfg, opts).expect("valid workload");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(out.result.end_time);
        best_ms = best_ms.min(wall_ms);
    }
    // Untimed telemetry pass for shared-table workloads, so the
    // counters never cost the timed run anything.
    let alloc = match routing {
        Routing::Lazy => None,
        Routing::SharedMptcp { .. } => {
            let mut tel = AllocTelemetry::default();
            let mut prov = routing.provider();
            let opts = RunOpts {
                provider: as_dyn(&mut prov),
                telemetry: Some(&mut tel),
                ..RunOpts::default()
            };
            run(&net.graph, flows, cfg, opts).expect("valid workload");
            Some(tel)
        }
    };
    Snapshot {
        name,
        wall_ms: best_ms,
        events: counter.0,
        peak_rss_kb: peak_rss_kb(),
        alloc,
        retries: None,
    }
}

/// The route-plane workload: parallel precompute of the full
/// switch-pair route table (k = 8) for the mini topo-1 global
/// flat-tree — the table every experiment cell now shares. `events`
/// is the number of precomputed switch pairs. Returns the table so the
/// MPTCP sim workloads run over it.
fn measure_route_precompute(net: &DcNetwork) -> (Arc<RouteTable>, Snapshot) {
    let t0 = Instant::now();
    let table = Arc::new(RouteTable::build(&net.graph, 8));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let pairs = table.pair_count() as u64;
    let snap = Snapshot {
        name: "route_precompute",
        wall_ms,
        events: pairs,
        peak_rss_kb: peak_rss_kb(),
        alloc: None,
        retries: None,
    };
    (table, snap)
}

/// The sweep-grid workload: the faultsweep smoke grid, with cells counted
/// through the process-wide sweep observer (one event per cell).
fn measure_faultsweep() -> Snapshot {
    let cells = Arc::new(AtomicU64::new(0));
    let seen = cells.clone();
    sweep::set_observer(Some(Arc::new(move |_, _| {
        seen.fetch_add(1, Ordering::Relaxed);
    })));
    let scale = Scale {
        smoke: true,
        ..Scale::default()
    };
    let t0 = Instant::now();
    let out = faultsweep::run(scale);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    sweep::set_observer(None);
    std::hint::black_box(faultsweep::total_violations(&out));
    Snapshot {
        name: "faultsweep_smoke_grid",
        wall_ms,
        events: cells.load(Ordering::Relaxed),
        peak_rss_kb: peak_rss_kb(),
        alloc: None,
        retries: None,
    }
}

/// The distributed-sweep workload: the same smoke grid as
/// `faultsweep_smoke_grid` but dispatched over `workers` local `ftd`
/// worker processes. `events` counts merged cells through the sweep
/// observer; `retries` is the plane's requeue count. If the worker
/// binary is missing the plane degrades to in-process execution, which
/// the stderr line surfaces as `fallback yes`.
fn measure_dispatch(name: &'static str, workers: usize) -> Snapshot {
    let cells = Arc::new(AtomicU64::new(0));
    let seen = cells.clone();
    sweep::set_observer(Some(Arc::new(move |_, _| {
        seen.fetch_add(1, Ordering::Relaxed);
    })));
    let scale = Scale {
        smoke: true,
        ..Scale::default()
    };
    let cfg = DispatchConfig::local(workers);
    let t0 = Instant::now();
    let (out, summary) = dispatch::run_faultsweep(scale, &cfg, &mut obs::NoopSink);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    sweep::set_observer(None);
    std::hint::black_box(faultsweep::total_violations(&out));
    eprintln!("perfsnap: {name}: {summary}");
    Snapshot {
        name,
        wall_ms,
        events: cells.load(Ordering::Relaxed),
        peak_rss_kb: peak_rss_kb(),
        alloc: None,
        retries: Some(summary.requeues),
    }
}

/// The decomposed-simulation workload: `bigsim`'s all-modes run
/// (fat-tree + three flat-tree conversions) at k=8 under `--smoke`
/// and the full k=32 / 8192-server scale otherwise. One rep — the
/// decomposition is the thing under test and a k=32 all-modes pass is
/// tens of seconds. `events` counts per-flow FCT estimates produced
/// across all networks; `peak_rss_kb` is the high-water mark after the
/// largest topology, the number ROADMAP's scale target cares about.
fn measure_bigsim(smoke: bool) -> Snapshot {
    let scale = Scale {
        smoke,
        full: !smoke,
        ..Scale::default()
    };
    let t0 = Instant::now();
    let out = ft_bench::experiments::bigsim::run(scale);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let events: u64 = out.points.iter().map(|p| p.completed as u64).sum();
    std::hint::black_box(&out);
    Snapshot {
        name: "bigsim_allmodes",
        wall_ms,
        events,
        peak_rss_kb: peak_rss_kb(),
        alloc: None,
        retries: None,
    }
}

struct Args {
    smoke: bool,
    out: String,
    check: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        smoke: false,
        out: "BENCH_sim.json".to_string(),
        check: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = it.next().ok_or("--out requires a path")?.clone(),
            "--check" => {
                parsed.check = Some(it.next().ok_or("--check requires a path")?.clone());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// The `BENCH_sim.json` body (schema `bench_sim/v3`): one record per
/// workload, in run order.
#[derive(Serialize)]
struct BenchFile {
    schema: String,
    smoke: bool,
    workloads: Vec<Record>,
}

/// One workload of a [`BenchFile`]. `retries` is set for the
/// `dispatch_*` workloads and `alloc` for the shared-table MPTCP ones;
/// both are `null` elsewhere.
#[derive(Serialize)]
struct Record {
    name: String,
    wall_ms: f64,
    events: u64,
    events_per_s: f64,
    peak_rss_kb: u64,
    retries: Option<u64>,
    alloc: Option<AllocRecord>,
}

/// The incremental allocator's effort counters of one workload.
#[derive(Serialize)]
struct AllocRecord {
    epochs: u64,
    rounds: u64,
    dirty_links: u64,
    dirty_entities: u64,
    reused_rates: u64,
    scan_savings: f64,
}

/// What `--check` reads from a committed snapshot; every other key is
/// skipped, so only a missing `smoke` flag, name or rate fails the parse.
#[derive(Deserialize)]
struct Floors {
    smoke: bool,
    workloads: Vec<Floor>,
}

#[derive(Deserialize)]
struct Floor {
    name: String,
    events_per_s: f64,
}

/// `x` rounded to `digits` decimals, so the snapshot stays readable.
fn round(x: f64, digits: i32) -> f64 {
    let scale = 10f64.powi(digits);
    (x * scale).round() / scale
}

impl Snapshot {
    fn record(&self) -> Record {
        Record {
            name: self.name.to_string(),
            wall_ms: round(self.wall_ms, 3),
            events: self.events,
            events_per_s: round(self.events_per_s(), 1),
            peak_rss_kb: self.peak_rss_kb,
            retries: self.retries,
            alloc: self.alloc.map(|t| AllocRecord {
                epochs: t.epochs,
                rounds: t.rounds,
                dirty_links: t.dirty_links,
                dirty_entities: t.dirty_entities,
                reused_rates: t.reused_rates,
                scan_savings: round(t.scan_savings(), 4),
            }),
        }
    }
}

/// Enforces the regression floor: the committed snapshot must be of the
/// same kind (`smoke` flag) as the fresh run, and every committed
/// workload must be in the fresh run and reach [`FLOOR_FRACTION`] of its
/// committed `events_per_s`. Returns the violations.
///
/// Degenerate values on *either* side are violations, not skips: a
/// fresh NaN/zero rate means the run measured nothing, and a committed
/// NaN/zero/unparsable floor means the snapshot itself is unusable as a
/// gate. Workloads only in the fresh run have no floor yet.
fn check_floors(fresh: &BenchFile, committed: &str) -> Vec<String> {
    let floors: Floors = match serde_json::from_str(committed) {
        Ok(floors) => floors,
        Err(e) => {
            return vec![format!(
                "committed snapshot does not parse ({}) — regenerate it; \
                 its workloads cannot be gated",
                e.msg
            )]
        }
    };
    if floors.smoke != fresh.smoke {
        return vec![format!(
            "committed snapshot has smoke = {} but this run has smoke = {}: \
             smoke and full rates are not comparable — check a --smoke run \
             against BENCH_sim_smoke.json and a full run against BENCH_sim.json",
            floors.smoke, fresh.smoke
        )];
    }
    let mut violations = Vec::new();
    for Floor { name, events_per_s } in floors.workloads {
        let floor = events_per_s;
        let Some(got) = fresh
            .workloads
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.events_per_s)
        else {
            violations.push(format!(
                "{name}: committed workload is missing from the fresh run"
            ));
            continue;
        };
        if !(floor.is_finite() && floor > 0.0) {
            violations.push(format!(
                "{name}: committed floor {floor} is not a positive finite rate — \
                 regenerate the snapshot; this workload cannot be gated",
            ));
            continue;
        }
        if !(got.is_finite() && got > 0.0) {
            violations.push(format!(
                "{name}: fresh events_per_s {got} is degenerate (zero-duration or \
                 zero-event run) — the measurement is broken, not slow",
            ));
            continue;
        }
        if got < floor * FLOOR_FRACTION {
            let need = floor * FLOOR_FRACTION;
            violations.push(format!(
                "{name}: {got:.1} events/s < floor {need:.1} ({FLOOR_FRACTION}x of committed {floor:.1})",
            ));
        }
    }
    violations
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let args = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfsnap: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let rounds = if args.smoke { 2 } else { 6 };
    let reps = if args.smoke { 2 } else { 5 };

    let ft = common::flat_tree_over(common::mini_topo(1));
    let net = common::instance(&ft, PodMode::Global).net;
    let flows = workload(&net, rounds);
    let fail = vec![LinkFailure {
        time: 0.05,
        link: first_cable(&net.graph),
    }];
    let ecmp = SimConfig {
        transport: Transport::TcpEcmp,
        ..SimConfig::default()
    };
    let mptcp = SimConfig {
        transport: Transport::Mptcp {
            k: 8,
            coupled: true,
        },
        ..SimConfig::default()
    };
    let (table, route_snap) = measure_route_precompute(&net);
    let lazy = Routing::Lazy;
    let shared = Routing::SharedMptcp {
        table,
        coupled: true,
    };

    let mut snaps = Vec::new();
    let cases: [(&'static str, &SimConfig, &Routing, bool); 4] = [
        ("sim_ecmp", &ecmp, &lazy, false),
        ("sim_ecmp_failure", &ecmp, &lazy, true),
        ("sim_mptcp8", &mptcp, &shared, false),
        ("sim_mptcp8_failure", &mptcp, &shared, true),
    ];
    for (name, cfg, routing, with_failure) in cases {
        let cfg = if with_failure {
            SimConfig {
                link_failures: fail.clone(),
                ..cfg.clone()
            }
        } else {
            cfg.clone()
        };
        let snap = measure_sim(name, &net, &flows, &cfg, routing, reps);
        eprintln!(
            "perfsnap: {:<22} {:>9.1} ms  {:>9} events  {:>8} kB peak",
            snap.name, snap.wall_ms, snap.events, snap.peak_rss_kb
        );
        snaps.push(snap);
    }
    eprintln!(
        "perfsnap: {:<22} {:>9.1} ms  {:>9} pairs   {:>8} kB peak",
        route_snap.name, route_snap.wall_ms, route_snap.events, route_snap.peak_rss_kb
    );
    snaps.push(route_snap);
    let snap = measure_faultsweep();
    eprintln!(
        "perfsnap: {:<22} {:>9.1} ms  {:>9} cells   {:>8} kB peak",
        snap.name, snap.wall_ms, snap.events, snap.peak_rss_kb
    );
    snaps.push(snap);
    for (name, workers) in [("dispatch_w2", 2), ("dispatch_w4", 4)] {
        let snap = measure_dispatch(name, workers);
        eprintln!(
            "perfsnap: {:<22} {:>9.1} ms  {:>9} cells   {:>8} kB peak",
            snap.name, snap.wall_ms, snap.events, snap.peak_rss_kb
        );
        snaps.push(snap);
    }
    let snap = measure_bigsim(args.smoke);
    eprintln!(
        "perfsnap: {:<22} {:>9.1} ms  {:>9} flows   {:>8} kB peak",
        snap.name, snap.wall_ms, snap.events, snap.peak_rss_kb
    );
    snaps.push(snap);

    // Surface the allocator counters through the obs metrics registry,
    // summed over the telemetry-carrying workloads.
    let mut metrics = obs::Metrics::new();
    for snap in &snaps {
        if let Some(tel) = &snap.alloc {
            tel.export(&mut metrics);
        }
    }
    if metrics.iter().next().is_some() {
        eprintln!("perfsnap: alloc metrics {}", metrics.summary_json());
    }

    // Refuse to write (or gate against) a snapshot containing broken
    // measurements — a zero-duration or zero-event workload would
    // otherwise become a floor no regression can ever trip.
    let degenerate = validate_snapshots(&snaps);
    if !degenerate.is_empty() {
        for v in &degenerate {
            eprintln!("perfsnap: DEGENERATE MEASUREMENT {v}");
        }
        std::process::exit(1);
    }

    let file = BenchFile {
        schema: "bench_sim/v3".to_string(),
        smoke: args.smoke,
        workloads: snaps.iter().map(Snapshot::record).collect(),
    };
    if let Some(check_path) = &args.check {
        match std::fs::read_to_string(check_path) {
            Ok(committed) => {
                let violations = check_floors(&file, &committed);
                if !violations.is_empty() {
                    for v in &violations {
                        eprintln!("perfsnap: FLOOR VIOLATION {v}");
                    }
                    std::process::exit(1);
                }
                eprintln!("perfsnap: floor check against {check_path} passed");
            }
            Err(e) => {
                eprintln!("perfsnap: cannot read {check_path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let json = serde_json::to_string_pretty(&file).expect("snapshot serializes") + "\n";
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("perfsnap: cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("perfsnap: wrote {} ({} workloads)", args.out, snaps.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(name: &'static str, wall_ms: f64, events: u64) -> Snapshot {
        Snapshot {
            name,
            wall_ms,
            events,
            peak_rss_kb: 0,
            alloc: None,
            retries: None,
        }
    }

    /// The original defect: a zero-duration or zero-event run used to
    /// report `events_per_s() == 0.0`, which every floor comparison
    /// silently passed. It must now be NaN (degenerate sentinel).
    #[test]
    fn degenerate_wall_clock_is_nan_not_zero() {
        assert!(snap("w", 0.0, 100).events_per_s().is_nan());
        assert!(snap("w", -1.0, 100).events_per_s().is_nan());
        assert!(snap("w", f64::INFINITY, 100).events_per_s().is_nan());
        let healthy = snap("w", 2000.0, 100).events_per_s();
        assert!((healthy - 50.0).abs() < 1e-9);
    }

    #[test]
    fn validate_snapshots_flags_degenerate_runs() {
        let ok = [snap("a", 10.0, 5), snap("b", 1.5, 1)];
        assert!(validate_snapshots(&ok).is_empty());
        let bad = [snap("a", 10.0, 5), snap("zero_events", 10.0, 0)];
        let v = validate_snapshots(&bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("zero_events"), "{v:?}");
        let bad = [snap("zero_wall", 0.0, 5)];
        let v = validate_snapshots(&bad);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("zero_wall"), "{v:?}");
    }

    /// A fresh full-scale run with the given `events_per_s`.
    fn fresh(entries: &[(&str, f64)]) -> BenchFile {
        BenchFile {
            schema: "bench_sim/v3".to_string(),
            smoke: false,
            workloads: entries
                .iter()
                .map(|&(name, events_per_s)| Record {
                    name: name.to_string(),
                    wall_ms: 1.0,
                    events: 1,
                    events_per_s,
                    peak_rss_kb: 0,
                    retries: None,
                    alloc: None,
                })
                .collect(),
        }
    }

    /// A committed `bench_sim/v3` body with raw `events_per_s` tokens.
    fn body(entries: &[(&str, &str)]) -> String {
        let workloads: Vec<String> = entries
            .iter()
            .map(|(name, eps)| {
                format!(
                    "{{\"name\": \"{name}\", \"wall_ms\": 1.0, \"events\": 1, \"events_per_s\": {eps}, \"peak_rss_kb\": 0}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"bench_sim/v3\", \"smoke\": false, \"workloads\": [{}]}}",
            workloads.join(", ")
        )
    }

    #[test]
    fn healthy_floors_pass_and_regressions_fail() {
        let committed = body(&[("sim", "1000.0")]);
        assert!(check_floors(&fresh(&[("sim", 900.0)]), &committed).is_empty());
        let v = check_floors(&fresh(&[("sim", 100.0)]), &committed);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("< floor"), "{v:?}");
        // A workload only in the fresh run has no floor yet.
        let both = fresh(&[("sim", 900.0), ("other", 1.0)]);
        assert!(check_floors(&both, &committed).is_empty());
    }

    /// A committed workload the fresh run no longer produces fails the
    /// check instead of passing unseen.
    #[test]
    fn missing_fresh_workload_is_a_violation() {
        let committed = body(&[("sim", "1000.0"), ("gone", "5.0")]);
        let v = check_floors(&fresh(&[("sim", 900.0)]), &committed);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("gone") && v[0].contains("missing"), "{v:?}");
    }

    /// Regression: NaN/zero fresh values must FAIL the check, not slide
    /// through the `<` comparison.
    #[test]
    fn degenerate_fresh_values_are_violations() {
        let committed = body(&[("sim", "1000.0")]);
        for bad in [f64::NAN, 0.0, -3.0, f64::INFINITY] {
            let v = check_floors(&fresh(&[("sim", bad)]), &committed);
            assert_eq!(v.len(), 1, "fresh {bad} must be flagged");
            assert!(v[0].contains("degenerate"), "{v:?}");
        }
    }

    /// Regression: an unusable committed floor (NaN/zero/garbage) must
    /// be reported, not silently skipped as "no floor".
    #[test]
    fn unusable_committed_floors_are_violations() {
        let fresh = fresh(&[("sim", 500.0)]);
        for bad in ["NaN", "0.0", "inf", "bogus"] {
            let v = check_floors(&fresh, &body(&[("sim", bad)]));
            assert_eq!(v.len(), 1, "committed {bad} must be flagged");
            assert!(v[0].contains("cannot be gated"), "{v:?}");
        }
    }

    /// A committed snapshot the parser cannot read as floors — the old
    /// object layout, or a workload without a rate — fails the check.
    #[test]
    fn committed_floors_parse_strictly() {
        let fresh = fresh(&[("sim", 500.0)]);
        let v2 = r#"{"workloads": {"sim": {"wall_ms": 1.0, "events_per_s": 1000.0}}}"#;
        let no_rate = r#"{"workloads": [{"name": "sim", "wall_ms": 1.0}]}"#;
        for committed in [v2, no_rate] {
            let v = check_floors(&fresh, committed);
            assert_eq!(v.len(), 1, "{committed}");
            assert!(v[0].contains("cannot be gated"), "{v:?}");
        }
    }

    /// What perfsnap writes is a committed snapshot it can gate against.
    #[test]
    fn written_snapshot_reads_back_as_floors() {
        let mut sim = snap("sim", 2000.0, 100);
        sim.alloc = Some(AllocTelemetry::default());
        sim.retries = Some(0);
        let file = BenchFile {
            schema: "bench_sim/v3".to_string(),
            smoke: true,
            workloads: [sim, snap("route", 1.5, 3)]
                .iter()
                .map(Snapshot::record)
                .collect(),
        };
        let json = serde_json::to_string_pretty(&file).unwrap();
        assert!(json.contains("\"events_per_s\": 50.0"), "{json}");
        assert!(check_floors(&file, &json).is_empty());
    }

    /// A smoke run gated against a full-scale snapshot (or the reverse)
    /// fails, whatever the rates: the two are not comparable.
    #[test]
    fn smoke_flag_mismatch_is_a_violation() {
        let full = body(&[("sim", "1000.0")]);
        let smoke = full.replace("\"smoke\": false", "\"smoke\": true");
        let mut run = fresh(&[("sim", 900.0)]);
        assert!(check_floors(&run, &full).is_empty());
        for (fresh_smoke, committed) in [(true, &full), (false, &smoke)] {
            run.smoke = fresh_smoke;
            let v = check_floors(&run, committed);
            assert_eq!(v.len(), 1, "fresh smoke = {fresh_smoke}");
            assert!(v[0].contains("not comparable"), "{v:?}");
        }
        run.smoke = true;
        assert!(check_floors(&run, &smoke).is_empty());
    }
}
