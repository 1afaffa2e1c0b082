//! The engine's determinism contract: every experiment must produce
//! bit-identical output at any thread count. Per-flow seeds depend only on
//! `(master_seed, service, flow_index)` and results are collected in index
//! order, so sharding is invisible in the output.

use experiments::{mechanism, table3, table5, ComparisonScale, Dataset, Engine, Scale};

const SCALE: Scale = Scale {
    flows_per_service: 24,
    seed: 2015,
};

#[test]
fn dataset_is_identical_at_any_thread_count() {
    let serial = Dataset::build_streaming(SCALE, &Engine::new(1));
    for threads in [2, 8] {
        let parallel = Dataset::build_streaming(SCALE, &Engine::new(threads));
        for (s, p) in serial.services.iter().zip(&parallel.services) {
            assert_eq!(s.service, p.service);
            // Every per-flow analysis is bit-identical...
            assert_eq!(
                s.analyses, p.analyses,
                "analyses differ at {threads} threads"
            );
            // ...and so is the aggregate breakdown folded from them.
            assert_eq!(
                s.breakdown, p.breakdown,
                "breakdown differs at {threads} threads"
            );
        }
        // The rendered artifacts are therefore byte-identical too.
        assert_eq!(
            table3::table3(&serial).render(),
            table3::table3(&parallel).render()
        );
        assert_eq!(
            table5::table5(&serial).render(),
            table5::table5(&parallel).render()
        );
    }
}

#[test]
fn comparison_is_identical_at_any_thread_count() {
    let scale = ComparisonScale {
        web_flows: 16,
        cloud_short_flows: 12,
        cloud_flows: 8,
        seed: 360,
    };
    let serial = mechanism::run_comparison(scale, &Engine::new(1));
    let parallel = mechanism::run_comparison(scale, &Engine::new(8));
    for (s, p) in serial.runs.iter().zip(&parallel.runs) {
        assert_eq!(s.label, p.label);
        for (sc, pc) in [
            (&s.web, &p.web),
            (&s.cloud_short, &p.cloud_short),
            (&s.cloud, &p.cloud),
        ] {
            assert_eq!(sc.flows.len(), pc.flows.len());
            for (sf, pf) in sc.flows.iter().zip(&pc.flows) {
                assert_eq!(sf.server_stats, pf.server_stats);
                assert_eq!(sf.request_latencies, pf.request_latencies);
                assert_eq!(sf.completed, pf.completed);
                assert_eq!(sf.finished_at, pf.finished_at);
                assert_eq!(sf.s2c_stats, pf.s2c_stats);
                assert_eq!(sf.c2s_stats, pf.c2s_stats);
            }
        }
    }
    assert_eq!(
        mechanism::table8(&serial).render(),
        mechanism::table8(&parallel).render()
    );
    assert_eq!(
        mechanism::table9(&serial).render(),
        mechanism::table9(&parallel).render()
    );
}
