//! What every workload shares: run options, timed set-up and passes,
//! output checks, and the process's memory high-water mark.

use crate::expected;
use crate::trace::Tracer;
use flowsim::FlowRecord;
use std::time::{Duration, Instant};

/// The seed whose outputs are checked against committed digests; other
/// seeds are checked for invariants only.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per untraced run: at least `MIN_SETUPS`, and more while they
/// have taken under `SETUP_BUDGET_S`, up to `MAX_SETUPS`. `setup_s` is
/// their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 3.0;

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measurement time budget of an untraced run.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Planted busy-wait before every route call (attribution self-test).
    pub route_delay: Option<Duration>,
    /// Nudge one finish time in every pass (output-check self-test).
    pub corrupt: bool,
    /// Print per-cell result tables on stderr.
    pub tables: bool,
    /// Print per-cell record digests on stderr.
    pub digests: bool,
}

/// One simulated cell's output, as the check sees it.
pub struct Cell {
    /// `trace/network` or `network`.
    pub name: String,
    /// Flows fed to the cell.
    pub flows: usize,
    /// Per-flow records in input order.
    pub records: Vec<FlowRecord>,
    /// Invariant-auditor violations (0 where no auditor ran).
    pub violations: usize,
    /// Seconds spent simulating the cell.
    pub secs: f64,
}

/// Seconds spent simulating a pass's cells.
pub fn pass_seconds(cells: &[Cell]) -> f64 {
    cells.iter().map(|c| c.secs).sum()
}

/// Checked totals over a set of cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdict {
    /// Flows attempted.
    pub attempted: u64,
    /// Flows that did not finish or belong to a cell that failed its check.
    pub failed: u64,
}

impl Verdict {
    /// Sums two verdicts.
    pub fn add(self, o: Verdict) -> Verdict {
        Verdict {
            attempted: self.attempted + o.attempted,
            failed: self.failed + o.failed,
        }
    }
}

/// FNV-1a over every record's id, size, start and finish bits.
pub fn digest(records: &[FlowRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(r.id);
        eat(r.bytes.to_bits());
        eat(r.start.to_bits());
        eat(r.finish.map_or(u64::MAX, f64::to_bits));
    }
    h
}

/// Checks one cell. Every seed: one record per flow, every flow
/// finished after it started, and a clean audit. The default seed
/// additionally matches the committed digest. A failed cell counts all
/// its flows as failed.
pub fn check(workload: &str, cell: &Cell, seed: u64) -> Verdict {
    let finished = cell
        .records
        .iter()
        .filter(|r| r.fct().is_some_and(|d| d.is_finite() && d > 0.0))
        .count();
    let mut ok = cell.records.len() == cell.flows && cell.violations == 0;
    if ok && seed == DEFAULT_SEED {
        let want = expected::digest(workload, &cell.name);
        ok = want == Some(digest(&cell.records));
        if !ok {
            eprintln!(
                "check: {workload} {} digest {:#018x}, expected {want:x?}",
                cell.name,
                digest(&cell.records)
            );
        }
    }
    let failed = if ok {
        cell.flows - finished
    } else {
        cell.flows
    };
    Verdict {
        attempted: cell.flows as u64,
        failed: failed as u64,
    }
}

/// Checks every cell of one pass, after applying `--corrupt` and
/// printing the requested diagnostics.
pub fn check_pass(workload: &str, cells: &mut [Cell], opts: &Opts) -> Verdict {
    if opts.corrupt {
        if let Some(r) = cells
            .first_mut()
            .and_then(|c| c.records.iter_mut().find(|r| r.finish.is_some()))
        {
            r.finish = r.finish.map(|f| f64::from_bits(f.to_bits() + 1));
        }
    }
    if opts.digests {
        for c in cells.iter() {
            eprintln!(
                "    (\"{workload}\", \"{}\", {:#018x}),",
                c.name,
                digest(&c.records)
            );
        }
    }
    cells
        .iter()
        .map(|c| check(workload, c, opts.seed))
        .fold(Verdict::default(), Verdict::add)
}

/// Times repeated set-ups and returns the last result with the median
/// duration in seconds.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
        eprintln!("setup {}: {:.3} s", times.len(), times[times.len() - 1]);
    }
    (last.expect("at least one set-up"), median(&mut times))
}

/// Runs untraced passes while the next one is expected to end within
/// `seconds` (at least one pass). Each pass returns its checked verdict
/// and per-cell seconds. Returns the summed verdict and the verified
/// flows per second of a pass whose every cell took its median time
/// over the passes, which keeps a slow burst on a shared host from
/// moving the figure.
pub fn timed_passes(seconds: f64, mut pass: impl FnMut() -> (Verdict, Vec<f64>)) -> (Verdict, f64) {
    let mut total = Verdict::default();
    let mut verified = Vec::new();
    let mut cell_secs: Vec<Vec<f64>> = Vec::new();
    let mut spent = 0.0;
    loop {
        let (v, secs) = pass();
        let pass_s: f64 = secs.iter().sum();
        spent += pass_s;
        cell_secs.resize(secs.len(), Vec::new());
        for (c, s) in cell_secs.iter_mut().zip(secs) {
            c.push(s);
        }
        verified.push((v.attempted - v.failed) as f64);
        total = total.add(v);
        eprintln!(
            "pass {}: {pass_s:.3} s, {:.1} flows/s",
            verified.len(),
            verified[verified.len() - 1] / pass_s
        );
        if spent * (verified.len() + 1) as f64 / verified.len() as f64 > seconds {
            break;
        }
    }
    let typical: f64 = cell_secs.iter_mut().map(|c| median(c)).sum();
    (total, median(&mut verified) / typical)
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Completed flows' FCTs in ms, ascending (for the `--tables` output).
pub fn sorted_fcts_ms(records: &[FlowRecord]) -> Vec<f64> {
    let mut fcts: Vec<f64> = records
        .iter()
        .filter_map(|r| r.fct().map(|d| d * 1e3))
        .collect();
    fcts.sort_by(f64::total_cmp);
    fcts
}

/// Percentile of an ascending sample by rounded rank, as the
/// repository's reports compute it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p / 100.0).round() as usize]
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A workload's measured result, before it is matched against the
/// metric list in `BENCHMARK.json`.
pub struct Report {
    /// Flows attempted and failed.
    pub verdict: Verdict,
    /// `(name, value, unit)` per metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(verdict: Verdict, flows_per_s: f64, setup_s: f64) -> Result<Report, String> {
    let verified = (verdict.attempted - verdict.failed) as f64 / verdict.attempted as f64;
    Ok(Report {
        verdict,
        metrics: vec![
            ("flows_per_s", flows_per_s, "1/s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
            ("verified_frac", verified, "ratio"),
        ],
    })
}

/// The per-layer metrics of a traced run, in report order; a metric a
/// workload does not exercise reads 0. `wall_s` is the traced run's wall
/// time (set-up, one traced pass and its check), `traced_pass_s` that
/// pass's time and `untraced_pass_s` the same pass run without tracing.
/// `extra` holds the metrics a workload computes itself.
pub fn per_layer(
    tr: &Tracer,
    verdict: Verdict,
    wall_s: f64,
    traced_pass_s: f64,
    untraced_pass_s: f64,
    extra: &[(&str, f64)],
) -> Report {
    let own = tr.self_seconds();
    let secs = |span: &str| own.get(span).copied().unwrap_or(0.0);
    let count = |name: &str| tr.counter(name);
    let given = |name: &str| {
        extra
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let engine = secs("flowsim.engine");
    let scans = count("mcf.alloc.link_scans_naive");
    let metrics = vec![
        ("topology.build_s", secs("topology.build"), "s"),
        ("core.profile.best_mn_s", secs("core.profile.best_mn"), "s"),
        ("routing.table_build_s", secs("routing.table_build"), "s"),
        ("routing.table_pairs", count("routing.table_pairs"), "count"),
        ("provider.ecmp.route_s", secs("provider.ecmp.route"), "s"),
        ("provider.ecmp.calls", count("provider.ecmp.calls"), "count"),
        (
            "provider.ecmp.paths_interned",
            count("provider.ecmp.paths_interned"),
            "count",
        ),
        (
            "provider.ecmp.paths_used_ratio",
            ratio(
                count("provider.ecmp.paths_used"),
                count("provider.ecmp.paths_interned"),
            ),
            "ratio",
        ),
        ("provider.mptcp.route_s", secs("provider.mptcp.route"), "s"),
        (
            "provider.mptcp.calls",
            count("provider.mptcp.calls"),
            "count",
        ),
        ("flowsim.engine_self_s", engine, "s"),
        ("flowsim.events", count("flowsim.events"), "count"),
        (
            "flowsim.events_per_s",
            ratio(count("flowsim.events"), engine),
            "1/s",
        ),
        ("flowsim.reroutes", count("flowsim.reroutes"), "count"),
        ("flowsim.parks", count("flowsim.parks"), "count"),
        ("flowsim.revives", count("flowsim.revives"), "count"),
        (
            "flowsim.audit_violations",
            count("flowsim.audit_violations"),
            "count",
        ),
        ("mcf.alloc.epochs", count("mcf.alloc.epochs"), "count"),
        ("mcf.alloc.rounds", count("mcf.alloc.rounds"), "count"),
        (
            "mcf.alloc.dirty_links",
            count("mcf.alloc.dirty_links"),
            "count",
        ),
        (
            "mcf.alloc.scan_savings",
            if scans > 0.0 {
                1.0 - count("mcf.alloc.link_scans") / scans
            } else {
                0.0
            },
            "ratio",
        ),
        ("decomp.populations_s", given("decomp.populations_s"), "s"),
        (
            "decomp.populations_hwm_mb",
            given("decomp.populations_hwm_mb"),
            "MB",
        ),
        ("decomp.signatures_s", given("decomp.signatures_s"), "s"),
        ("decomp.cluster_s", given("decomp.cluster_s"), "s"),
        ("decomp.link_sim_s", given("decomp.link_sim_s"), "s"),
        ("decomp.aggregate_s", given("decomp.aggregate_s"), "s"),
        ("decomp.loaded_links", count("decomp.loaded_links"), "count"),
        ("decomp.clusters", count("decomp.clusters"), "count"),
        ("decomp.sim_flows", count("decomp.sim_flows"), "count"),
        ("bench.inputs_s", secs("bench.inputs"), "s"),
        ("bench.check_s", secs("bench.check"), "s"),
        ("trace.wall_s", wall_s, "s"),
        ("trace.pass_s", traced_pass_s, "s"),
        (
            "trace.span_coverage",
            tr.top_level_seconds() / wall_s,
            "ratio",
        ),
        ("trace.overhead_s", traced_pass_s - untraced_pass_s, "s"),
    ];
    Report { verdict, metrics }
}
