//! Golden tests for the observability plane's trace streams.
//!
//! Two determinism pins — the JSONL byte stream of (a) a traced engine
//! run and (b) a traced resilient conversion must be **byte-for-byte**
//! identical across same-seed runs — plus an exact inline golden for a
//! scenario small enough to enumerate by hand (one flow over a
//! dumbbell, one cable flap). Any change to event ordering, field
//! layout, or float formatting fails here and must be deliberate.

use control::conversion::DelayModel;
use control::resilient::{run_conversion_traced, ConversionWork, RetryPolicy};
use flat_tree::PodMode;
use flowsim::faults::ControlFaults;
use flowsim::{run, JsonlSink, LinkFailure, RunOpts, SimConfig, Transport};
use ft_bench::experiments::common;
use netgraph::{Graph, LinkId, NodeId, NodeKind};

fn first_cable(g: &Graph) -> LinkId {
    g.link_ids()
        .find(|&l| {
            let info = g.link(l);
            g.node(info.src).kind.is_switch() && g.node(info.dst).kind.is_switch()
        })
        .expect("topology has switch-switch links")
}

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

fn traced_engine_jsonl() -> Vec<u8> {
    let ft = common::flat_tree_over(common::mini_topo(2));
    let net = common::instance(&ft, PodMode::Global).net;
    let pairs = traffic::patterns::permutation(net.num_servers(), 7);
    let flows = common::flow_specs(&net, &pairs, 6.25e8);
    let cfg = SimConfig {
        transport: Transport::Mptcp {
            k: 8,
            coupled: true,
        },
        link_failures: vec![LinkFailure {
            time: 0.2,
            link: first_cable(&net.graph),
        }],
        record_series: false,
    };
    let mut sink = JsonlSink::new(Vec::new());
    let opts = RunOpts {
        provider: None,
        faults: None,
        telemetry: None,
        sink: &mut sink,
    };
    let out = run(&net.graph, &flows, &cfg, opts).expect("valid scenario");
    assert!(out.result.end_time > 0.2, "failure must land mid-run");
    assert!(sink.take_error().is_none());
    sink.into_inner().expect("vec sink cannot fail")
}

#[test]
fn engine_trace_stream_is_byte_identical_across_runs() {
    let a = traced_engine_jsonl();
    let b = traced_engine_jsonl();
    assert!(!a.is_empty(), "golden scenario must emit events");
    assert_eq!(a, b, "same-seed trace streams must match byte for byte");
    let text = String::from_utf8(a).expect("JSONL is UTF-8");
    assert!(text.lines().count() > 10);
    assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    let last = text.lines().last().expect("non-empty");
    assert!(
        last.contains("\"SimEnd\""),
        "stream ends with SimEnd: {last}"
    );
}

fn traced_conversion_jsonl() -> Vec<u8> {
    let work = ConversionWork {
        crosspoints_changed: 16,
        per_switch: vec![(100, 120), (80, 90), (60, 70), (40, 50)],
        delay: DelayModel::testbed(),
    };
    let faults = ControlFaults {
        seed: 7,
        ocs_timeout_prob: 0.3,
        rule_fail_prob: 0.01,
        shard_crash_prob: 0.1,
        shard_recover_ms: 250.0,
        ..ControlFaults::none()
    };
    let policy = RetryPolicy {
        shards: 3,
        ..RetryPolicy::default()
    };
    let mut sink = JsonlSink::new(Vec::new());
    run_conversion_traced(&work, "clos", "global", &policy, &faults, &mut sink)
        .expect("valid conversion");
    assert!(sink.take_error().is_none());
    sink.into_inner().expect("vec sink cannot fail")
}

#[test]
fn conversion_trace_stream_is_byte_identical_across_runs() {
    let a = traced_conversion_jsonl();
    let b = traced_conversion_jsonl();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed conversion timelines must match");
    let text = String::from_utf8(a).expect("JSONL is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].contains("\"ConvStart\""), "{}", lines[0]);
    assert!(
        lines.last().expect("non-empty").contains("\"ConvEnd\""),
        "{}",
        lines.last().expect("non-empty")
    );
}

/// One 1.25 GB flow across the dumbbell core at 10 Gbps with a
/// permanent core flap at 0.5 s: parked forever, never finishes. The
/// event stream is small enough to pin exactly — this is the
/// human-readable contract for the JSONL format.
#[test]
fn dumbbell_flap_trace_matches_inline_golden() {
    let (g, s, core) = dumbbell();
    let flows = vec![flowsim::FlowSpec {
        id: 0,
        src: s[0],
        dst: s[2],
        bytes: 1.25e9,
        start: 0.0,
    }];
    let mut plan = flowsim::faults::FaultPlan::new(1);
    plan.flap(core, 0.5, None); // permanent fault
    let sched = plan.compile(&g).expect("valid plan");
    let mut sink = JsonlSink::new(Vec::new());
    let opts = RunOpts {
        provider: None,
        faults: Some(&sched),
        telemetry: None,
        sink: &mut sink,
    };
    let out = run(&g, &flows, &SimConfig::default(), opts).expect("valid input");
    assert_eq!(out.audit.parked, 1);
    let text = String::from_utf8(sink.into_inner().expect("vec sink cannot fail"))
        .expect("JSONL is UTF-8");
    let got: Vec<&str> = text.lines().collect();
    // The first epoch runs before the t=0 arrival is admitted (empty
    // allocation), then re-allocates with the flow active; the 0.5 s
    // flap kills both directions of the core cable, strands the flow
    // (paths drop to 0 → park), and the run ends with it unfinished.
    let want = [
        r#"{"Alloc":{"t":0.0,"conns":0,"subflows":0,"rounds":0}}"#,
        r#"{"LinkUtil":{"t":0.0,"deciles":[10,0,0,0,0,0,0,0,0,0],"saturated":0,"busiest":0.0}}"#,
        r#"{"FlowStart":{"t":0.0,"flow":0,"paths":1}}"#,
        r#"{"Alloc":{"t":0.0,"conns":1,"subflows":1,"rounds":1}}"#,
        r#"{"LinkUtil":{"t":0.0,"deciles":[7,0,0,0,0,0,0,0,0,3],"saturated":3,"busiest":1.0}}"#,
        r#"{"LinkDown":{"t":0.5,"link":0}}"#,
        r#"{"LinkDown":{"t":0.5,"link":1}}"#,
        r#"{"FlowReroute":{"t":0.5,"flow":0,"paths":0}}"#,
        r#"{"FlowPark":{"t":0.5,"flow":0,"cause":"PathLoss"}}"#,
        r#"{"Alloc":{"t":0.5,"conns":0,"subflows":0,"rounds":0}}"#,
        r#"{"LinkUtil":{"t":0.5,"deciles":[8,0,0,0,0,0,0,0,0,0],"saturated":0,"busiest":0.0}}"#,
        r#"{"SimEnd":{"t":0.5,"completed":0,"unfinished":1}}"#,
    ];
    assert_eq!(got, want);
}
