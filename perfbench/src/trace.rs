//! In-memory span recording around calls into the program's layers.
//!
//! Spans are opened by the benchmark's own code, never inside the
//! program: each records its name, start, end and the span that was
//! open when it began. A layer's *self* time is its span's duration
//! minus the time its child spans cover. Route calls become child spans
//! through [`Traced`], a [`PathProvider`] wrapper that delegates to the
//! real provider.

use flowsim::{FailedLinks, FlowSpec, PathProvider, RoutedConn};
use netgraph::{Graph, PathArena};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

/// A span and counter log, written to memory only.
pub struct Tracer {
    t0: Instant,
    log: RefCell<Log>,
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            log: RefCell::new(Log::default()),
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// span open at this point.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut log = self.log.borrow_mut();
            let start = self.t0.elapsed();
            let parent = log.open.last().copied();
            log.spans.push(Span {
                name,
                start,
                end: start,
                parent,
            });
            let idx = log.spans.len() - 1;
            log.open.push(idx);
            idx
        };
        let out = f();
        let mut log = self.log.borrow_mut();
        log.spans[idx].end = self.t0.elapsed();
        log.open.pop();
        out
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&self, name: &'static str, v: f64) {
        *self.log.borrow_mut().counts.entry(name).or_insert(0.0) += v;
    }

    /// A counter's total (0 if never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.log.borrow().counts.get(name).copied().unwrap_or(0.0)
    }

    /// Self seconds per span name: each span's duration minus its
    /// children's, summed over every span of that name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let log = self.log.borrow();
        let mut own: Vec<f64> = log
            .spans
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect();
        for s in &log.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end - s.start).as_secs_f64();
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, t) in log.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0.0) += t;
        }
        by_name
    }

    /// Seconds covered by top-level spans (spans with no parent).
    pub fn top_level_seconds(&self) -> f64 {
        self.log
            .borrow()
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn span<R>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Span and counter names of one provider layer.
pub struct Layer {
    /// Span around each route call.
    pub route: &'static str,
    /// Route calls.
    pub calls: &'static str,
    /// Paths the calls added to the arena.
    pub interned: &'static str,
    /// Distinct paths the calls returned.
    pub used: &'static str,
}

/// The ECMP provider layer.
pub const ECMP: Layer = Layer {
    route: "provider.ecmp.route",
    calls: "provider.ecmp.calls",
    interned: "provider.ecmp.paths_interned",
    used: "provider.ecmp.paths_used",
};

/// The MPTCP provider layer.
pub const MPTCP: Layer = Layer {
    route: "provider.mptcp.route",
    calls: "provider.mptcp.calls",
    interned: "provider.mptcp.paths_interned",
    used: "provider.mptcp.paths_used",
};

/// Times every route call of the wrapped provider as a child span and
/// counts calls, newly interned paths and distinct returned paths.
pub struct Traced<'t> {
    inner: Box<dyn PathProvider + 't>,
    tracer: &'t Tracer,
    layer: &'static Layer,
    seen: Vec<bool>,
}

impl<'t> Traced<'t> {
    /// Wraps `inner`, recording into `tracer` under `layer`'s names.
    pub fn new(
        inner: Box<dyn PathProvider + 't>,
        tracer: &'t Tracer,
        layer: &'static Layer,
    ) -> Self {
        Self {
            inner,
            tracer,
            layer,
            seen: Vec::new(),
        }
    }
}

impl PathProvider for Traced<'_> {
    fn route(
        &mut self,
        g: &Graph,
        arena: &mut PathArena,
        failed: &FailedLinks,
        spec: &FlowSpec,
    ) -> Option<RoutedConn> {
        let before = arena.len();
        let inner = &mut self.inner;
        let conn = self
            .tracer
            .span(self.layer.route, || inner.route(g, arena, failed, spec));
        self.tracer.count(self.layer.calls, 1.0);
        self.tracer
            .count(self.layer.interned, (arena.len() - before) as f64);
        if let Some(c) = &conn {
            self.seen.resize(arena.len(), false);
            let mut fresh = 0usize;
            for id in &c.path_ids {
                if !std::mem::replace(&mut self.seen[id.idx()], true) {
                    fresh += 1;
                }
            }
            self.tracer.count(self.layer.used, fresh as f64);
        }
        conn
    }
}

/// Busy-waits a fixed time before each route call of the wrapped
/// provider: a planted slowdown for the attribution self-test.
pub struct Delayed<'a> {
    inner: Box<dyn PathProvider + 'a>,
    delay: Duration,
}

impl<'a> Delayed<'a> {
    /// Wraps `inner`, delaying each route call by `delay`.
    pub fn new(inner: Box<dyn PathProvider + 'a>, delay: Duration) -> Self {
        Self { inner, delay }
    }
}

impl PathProvider for Delayed<'_> {
    fn route(
        &mut self,
        g: &Graph,
        arena: &mut PathArena,
        failed: &FailedLinks,
        spec: &FlowSpec,
    ) -> Option<RoutedConn> {
        let t = Instant::now();
        while t.elapsed() < self.delay {
            std::hint::spin_loop();
        }
        self.inner.route(g, arena, failed, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let tr = Tracer::new();
        tr.span("outer", || {
            busy(Duration::from_millis(4));
            tr.span("inner", || busy(Duration::from_millis(6)));
        });
        let s = tr.self_seconds();
        assert!(s["inner"] >= 0.006);
        assert!(s["outer"] >= 0.004 && s["outer"] < 0.006, "{s:?}");
        let total = tr.top_level_seconds();
        assert!((total - s["outer"] - s["inner"]).abs() < 1e-9);
    }

    #[test]
    fn counters_accumulate() {
        let tr = Tracer::new();
        tr.count("c", 2.0);
        tr.count("c", 3.0);
        assert_eq!(tr.counter("c"), 5.0);
        assert_eq!(tr.counter("missing"), 0.0);
    }
}
