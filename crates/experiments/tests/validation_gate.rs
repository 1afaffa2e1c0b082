//! Cross-layer validation-gate tests: the streaming analyzer's equivalence
//! to the offline pass over a full quick-scale corpus, the stall-detection
//! threshold invariant, and the oracle's no-perturbation contract at the
//! workloads level.

use experiments::{validate, Engine, Scale};
use tapo::{analyze_flow, AnalyzerConfig, Replay, StreamAnalyzer};
use tcp_sim::recovery::RecoveryMechanism;
use workloads::{synthesize_corpus, Service};

/// Streaming and offline TAPO must agree field-for-field on every flow of
/// the full quick-scale corpus, for all three services — not just on
/// hand-built traces.
#[test]
fn streaming_equals_offline_on_quick_corpus() {
    let scale = Scale::quick();
    let cfg = AnalyzerConfig::default();
    for service in Service::ALL {
        let corpus = synthesize_corpus(
            service,
            scale.flows_per_service,
            RecoveryMechanism::Native,
            scale.seed,
        );
        for flow in &corpus.flows {
            let offline = analyze_flow(&flow.trace, cfg);
            let mut an = StreamAnalyzer::new(cfg);
            for rec in &flow.trace.records {
                an.push(rec);
            }
            let streamed = an.finish();
            assert_eq!(offline, streamed, "divergence in a {service:?} flow");
        }
    }
}

/// Detection invariant: every reported stall's duration must exceed the
/// stall threshold (`min(2·SRTT, RTO)`) that held at detection time —
/// re-derived independently by replaying the records before the
/// stall-ending packet into a fresh [`Replay`].
#[test]
fn every_stall_exceeds_its_threshold() {
    let cfg = AnalyzerConfig::default();
    for service in Service::ALL {
        let corpus = synthesize_corpus(service, 25, RecoveryMechanism::Native, 2015);
        let mut stalls_checked = 0usize;
        for flow in &corpus.flows {
            let analysis = analyze_flow(&flow.trace, cfg);
            for stall in &analysis.stalls {
                let mut replay = Replay::new(cfg.replay);
                for (idx, rec) in flow.trace.records[..stall.end_record].iter().enumerate() {
                    replay.process(idx, rec);
                }
                assert!(replay.established, "stalls only exist post-handshake");
                assert!(
                    stall.duration > replay.stall_threshold(),
                    "{service:?} stall {stall:?} does not exceed threshold {:?}",
                    replay.stall_threshold()
                );
                stalls_checked += 1;
            }
        }
        assert!(
            stalls_checked > 0,
            "{service:?} produced no stalls to check"
        );
    }
}

/// The ground-truth oracle must be invisible in packet-visible output at
/// the workloads level too: the sampled populations run through the oracle
/// path produce records byte-identical to the plain streaming path.
#[test]
fn oracle_runs_are_byte_identical_to_plain_runs() {
    use tcp_trace::flow::FlowTrace;
    use workloads::{
        sample_flow, simulate_flow_into_scratch, simulate_flow_oracle_into_scratch, FlowScratch,
        ServiceModel,
    };
    let model = ServiceModel::calibrated(Service::WebSearch);
    let mut scratch = FlowScratch::new();
    for i in 0..12usize {
        let (spec, path) = sample_flow(&model, 2015, i);
        let seed = 2015 + i as u64;
        let (plain_out, plain_trace) = simulate_flow_into_scratch(
            &spec,
            &path,
            RecoveryMechanism::Native,
            seed,
            FlowTrace::default(),
            &mut scratch,
        );
        let (oracle_out, oracle_trace) = simulate_flow_oracle_into_scratch(
            &spec,
            &path,
            RecoveryMechanism::Native,
            seed,
            FlowTrace::default(),
            &mut scratch,
        );
        assert_eq!(plain_trace.records, oracle_trace.records);
        assert_eq!(plain_out.request_latencies, oracle_out.request_latencies);
        assert_eq!(plain_out.server_stats, oracle_out.server_stats);
        assert!(plain_out.oracle.is_empty());
    }
}

/// The committed accuracy floors must hold at quick scale — the exact
/// configuration the CI gate runs.
#[test]
fn quick_scale_validation_meets_floors() {
    let scale = Scale::quick();
    let report = validate::run_validation(scale.flows_per_service, scale.seed, &Engine::auto());
    let violations = validate::floor_violations(&report);
    assert!(violations.is_empty(), "floor violations: {violations:?}");
}

/// The committed T-RACKs floors (classifier accuracy on T-RACKs traffic
/// and the paired stall-time benefit) must hold at quick scale — the exact
/// configuration the CI gate runs.
#[test]
fn quick_scale_tracks_validation_meets_floors() {
    let scale = Scale::quick();
    let v = validate::run_tracks_validation(scale.flows_per_service, scale.seed, &Engine::auto());
    let violations = validate::tracks_floor_violations(&v);
    assert!(
        violations.is_empty(),
        "T-RACKs floor violations: {violations:?}"
    );
}
