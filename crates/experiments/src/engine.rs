//! The deterministic parallel flow engine.
//!
//! Every experiment in this crate boils down to the same per-flow pipeline:
//! *sample* a flow from a service model, *simulate* it under a recovery
//! mechanism, and *analyze* the resulting records with TAPO. The paper ran
//! this over 6.4M production flows; serially, `repro` at standard scale is
//! bound to one core. [`Engine`] shards the pipeline across
//! `std::thread::scope` workers (via [`simnet::par::par_map_with`]) while
//! keeping output **bit-identical to the serial path at any thread count**:
//!
//! - Flow `i`'s sampling stream is seeded by
//!   [`workloads::flow_seed`]`(master_seed, service, i)` — a pure function
//!   of the flow's identity, never of which thread runs it or in what order.
//! - Flow `i`'s simulation seed is `base_seed + i`, exactly as the serial
//!   [`workloads::run_population`] has always assigned it, so mechanism
//!   comparisons stay *paired* (same flow, same seeds, different mechanism).
//! - Per-flow results are returned in index order, and cross-flow
//!   aggregation ([`StallBreakdown`]) is a serial fold over that order.
//!
//! Engine runs are **trace-free**: [`Engine::run`] drops every record at the
//! source and [`Engine::analyze`] streams them into TAPO, so the returned
//! outcomes keep their aggregate counters (latencies, sender and link
//! stats) but every `trace` is empty. A caller that needs the per-flow
//! records takes them from the serial `workloads` API
//! ([`workloads::sample_population`], [`workloads::run_population`],
//! [`workloads::synthesize_corpus`]).
//!
//! Each worker carries a private simulator scratch (event queue, segment
//! buffers) and streaming analyzer (replay state, candidate buffers),
//! recycled from flow to flow, so steady state allocates per *worker*, not
//! per *flow*. Both fully rewind before reuse, so a recycled worker's
//! results are bit-identical to fresh-state serial execution (the
//! [`par_map_with`] contract; see DESIGN.md).
//!
//! [`par_map_with`]: simnet::par::par_map_with
//!
//! The engine owns no state beyond the thread count, so one instance can be
//! threaded through a whole `repro` invocation.

use tapo::{AnalyzerConfig, FlowAnalysis, StallBreakdown, StreamAnalyzer};
use tcp_sim::recovery::RecoveryMechanism;
use workloads::{simulate_flow_into_scratch, Corpus, FlowScratch, FlowSpec, PathSpec, Service};

/// A deterministic parallel executor for flow-level work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    threads: usize,
}

impl Engine {
    /// An engine using `threads` workers. `0` means "use all available
    /// parallelism" (like the `--threads` flag's default).
    pub fn new(threads: usize) -> Self {
        Engine {
            threads: if threads == 0 {
                simnet::par::available_threads()
            } else {
                threads
            },
        }
    }

    /// An engine using all available parallelism.
    pub fn auto() -> Self {
        Engine::new(0)
    }

    /// A single-threaded engine (the reference serial path).
    pub fn serial() -> Self {
        Engine { threads: 1 }
    }

    /// The worker count this engine was configured with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Deterministic parallel map over `0..n`: results are always in index
    /// order regardless of thread count.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        simnet::par::par_map(n, self.threads, f)
    }

    /// Deterministic parallel map with per-worker scratch: each worker calls
    /// `init()` once and threads the result through every item it claims.
    /// `f` must give the same answer for fresh and recycled scratch; under
    /// that contract results are in index order and bit-identical at any
    /// thread count (see [`simnet::par::par_map_with`]).
    pub fn map_with<T, S, I, F>(&self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> T + Sync,
    {
        simnet::par::par_map_with(n, self.threads, init, f)
    }

    /// Run a sampled population under one recovery mechanism, keeping only
    /// the aggregate outcome counters: records are dropped at the source
    /// (the null [`tcp_trace::record::RecordSink`]). Flow `i` runs on seed
    /// `base_seed + i`, as in [`workloads::run_population`], so runs under
    /// different mechanisms stay paired.
    pub fn run(
        &self,
        service: Service,
        population: &[(FlowSpec, PathSpec)],
        mechanism: RecoveryMechanism,
        base_seed: u64,
    ) -> Corpus {
        let flows = self.map_with(population.len(), FlowScratch::new, |i, sim| {
            let (spec, path) = &population[i];
            simulate_flow_into_scratch(spec, path, mechanism, base_seed + i as u64, (), sim).0
        });
        Corpus { service, flows }
    }

    /// [`Engine::run`] plus TAPO: each flow's records stream into the
    /// worker's recycled [`StreamAnalyzer`]. The analyses equal
    /// [`tapo::analyze_flow`] over the trace [`workloads::run_population`]
    /// would have kept.
    pub fn analyze(
        &self,
        service: Service,
        population: &[(FlowSpec, PathSpec)],
        mechanism: RecoveryMechanism,
        base_seed: u64,
    ) -> (Corpus, Vec<FlowAnalysis>) {
        let cfg = AnalyzerConfig::default();
        let init = || (FlowScratch::new(), StreamAnalyzer::new(cfg));
        let pairs = self.map_with(population.len(), init, |i, (sim, analyzer)| {
            let (spec, path) = &population[i];
            let seed = base_seed + i as u64;
            let (out, _) =
                simulate_flow_into_scratch(spec, path, mechanism, seed, &mut *analyzer, sim);
            (out, analyzer.finish_reset())
        });
        let (flows, analyses) = pairs.into_iter().unzip();
        (Corpus { service, flows }, analyses)
    }

    /// Aggregate per-flow analyses into a breakdown. A serial fold in index
    /// order — aggregation is where nondeterminism would creep in, so it is
    /// deliberately not sharded (it is O(#stalls), negligible next to
    /// simulation).
    pub fn breakdown(analyses: &[FlowAnalysis]) -> StallBreakdown {
        let mut breakdown = StallBreakdown::default();
        for a in analyses {
            breakdown.add_flow(a);
        }
        breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapo::analyze_flow;

    #[test]
    fn engine_runs_match_serial_trace_path() {
        let (svc, mech, seed) = (Service::SoftwareDownload, RecoveryMechanism::srto(), 11);
        let pop = workloads::sample_population(svc, 10, seed);
        // Reference: the serial trace-keeping path, analyzed offline.
        let serial = workloads::run_population(svc, &pop, mech, 100);
        let offline: Vec<FlowAnalysis> = serial
            .flows
            .iter()
            .map(|f| analyze_flow(&f.trace, AnalyzerConfig::default()))
            .collect();
        for threads in [1, 3] {
            let engine = Engine::new(threads);
            let (analyzed, analyses) = engine.analyze(svc, &pop, mech, 100);
            assert_eq!(offline, analyses, "analyses differ at {threads} threads");
            let run = engine.run(svc, &pop, mech, 100);
            for corpus in [&analyzed, &run] {
                assert_eq!(corpus.flows.len(), serial.flows.len());
                for (a, b) in serial.flows.iter().zip(&corpus.flows) {
                    assert!(b.trace.records.is_empty(), "engine runs keep no trace");
                    assert_eq!(a.server_stats, b.server_stats);
                    assert_eq!(a.request_latencies, b.request_latencies);
                    assert_eq!(a.completed, b.completed);
                    assert_eq!(a.finished_at, b.finished_at);
                    assert_eq!(a.s2c_stats, b.s2c_stats);
                    assert_eq!(a.c2s_stats, b.c2s_stats);
                }
            }
        }
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert_eq!(Engine::new(0).threads(), simnet::par::available_threads());
        assert_eq!(Engine::serial().threads(), 1);
    }
}
