//! The deterministic parallel flow engine.
//!
//! Every experiment in this crate boils down to the same per-flow pipeline:
//! *sample* a flow from a service model, *simulate* it under a recovery
//! mechanism, and *analyze* the resulting trace with TAPO. The paper ran
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
//! Each worker carries a private [`WorkerScratch`] — the event queue,
//! segment buffers and replay arenas — recycled from flow to flow, so steady
//! state allocates per *worker*, not per *flow*. Every scratch entry point
//! fully rewinds its state before reuse, so a recycled worker's results are
//! bit-identical to fresh-state serial execution (the [`par_map_with`]
//! contract; see DESIGN.md).
//!
//! [`par_map_with`]: simnet::par::par_map_with
//!
//! The engine owns no state beyond the thread count, so one instance can be
//! threaded through a whole `repro` invocation.

use tapo::{
    analyze_flow_with, AnalyzeScratch, AnalyzerConfig, FlowAnalysis, StallBreakdown, StreamAnalyzer,
};
use tcp_sim::recovery::RecoveryMechanism;
use tcp_trace::flow::FlowTrace;
use workloads::{
    flow_key_for_seed, sample_flow, simulate_flow_into_scratch, simulate_flow_scratch, Corpus,
    FlowScratch, FlowSpec, PathSpec, Service, ServiceModel,
};

/// Per-worker recycled arenas for the fused sample→simulate→analyze
/// pipeline: one simulator scratch (event queue, segment and boundary
/// buffers) plus one streaming analyzer (replay state, candidate buffers).
/// A worker threads one of these through every flow it claims.
#[derive(Debug)]
struct WorkerScratch {
    sim: FlowScratch,
    analyzer: StreamAnalyzer,
}

impl WorkerScratch {
    fn new(cfg: AnalyzerConfig) -> Self {
        WorkerScratch {
            sim: FlowScratch::new(),
            analyzer: StreamAnalyzer::new(cfg),
        }
    }

    /// Lend out the recycled analyzer (sinks are taken by value); the
    /// placeholder left behind is allocation-free. Pair with
    /// [`WorkerScratch::restore_analyzer`] after the run.
    fn take_analyzer(&mut self, cfg: AnalyzerConfig) -> StreamAnalyzer {
        std::mem::replace(&mut self.analyzer, StreamAnalyzer::new(cfg))
    }

    fn restore_analyzer(&mut self, analyzer: StreamAnalyzer) {
        self.analyzer = analyzer;
    }
}

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

    /// Sample a service population (the parallel equivalent of
    /// [`workloads::sample_population`]).
    pub fn sample_population(
        &self,
        service: Service,
        n: usize,
        seed: u64,
    ) -> Vec<(FlowSpec, PathSpec)> {
        let model = ServiceModel::calibrated(service);
        self.map(n, |i| sample_flow(&model, seed, i))
    }

    /// Run a sampled population under one recovery mechanism (the parallel
    /// equivalent of [`workloads::run_population`]; identical seeds, so runs
    /// under different mechanisms stay paired).
    pub fn run_population(
        &self,
        service: Service,
        population: &[(FlowSpec, PathSpec)],
        mechanism: RecoveryMechanism,
        base_seed: u64,
    ) -> Corpus {
        let flows = self.map_with(population.len(), FlowScratch::new, |i, scratch| {
            let (spec, path) = &population[i];
            simulate_flow_scratch(spec, path, mechanism, base_seed + i as u64, scratch)
        });
        Corpus { service, flows }
    }

    /// [`Engine::run_population`] + [`Engine::analyze_corpus`] fused into a
    /// single trace-free pass: each flow's records stream straight into the
    /// worker's recycled [`StreamAnalyzer`] and the per-flow trace is never
    /// materialized. Outcomes keep their aggregate counters (latencies,
    /// sender stats, link stats) but carry empty traces; analyses are
    /// identical to the two-pass path.
    pub fn run_population_streaming(
        &self,
        service: Service,
        population: &[(FlowSpec, PathSpec)],
        mechanism: RecoveryMechanism,
        base_seed: u64,
        cfg: AnalyzerConfig,
    ) -> (Corpus, Vec<FlowAnalysis>) {
        let pairs = self.map_with(
            population.len(),
            || WorkerScratch::new(cfg),
            |i, ws| {
                let (spec, path) = &population[i];
                let analyzer = ws.take_analyzer(cfg);
                let (out, mut analyzer) = simulate_flow_into_scratch(
                    spec,
                    path,
                    mechanism,
                    base_seed + i as u64,
                    analyzer,
                    &mut ws.sim,
                );
                let analysis = analyzer.finish_reset();
                ws.restore_analyzer(analyzer);
                (out, analysis)
            },
        );
        let (flows, analyses) = split_pairs(pairs);
        (Corpus { service, flows }, analyses)
    }

    /// [`Engine::run_population`] without traces *or* analyses: records are
    /// discarded at the source (the null [`tcp_trace::record::RecordSink`]),
    /// so only the aggregate outcome counters survive — all that sweeps
    /// reading [`Corpus::retrans_ratio`] and latency CDFs ever touch. The
    /// cheapest way to run a mechanism comparison.
    pub fn run_population_lean(
        &self,
        service: Service,
        population: &[(FlowSpec, PathSpec)],
        mechanism: RecoveryMechanism,
        base_seed: u64,
    ) -> Corpus {
        let flows = self.map_with(population.len(), FlowScratch::new, |i, scratch| {
            let (spec, path) = &population[i];
            let (out, ()) = simulate_flow_into_scratch(
                spec,
                path,
                mechanism,
                base_seed + i as u64,
                (),
                scratch,
            );
            out
        });
        Corpus { service, flows }
    }

    /// Sample and run `n` flows under `mechanism` (the parallel equivalent
    /// of [`workloads::synthesize_corpus`]). Sampling and simulation of one
    /// flow are fused into a single unit of work, so a heavy flow does not
    /// hold up a shard twice.
    pub fn synthesize_corpus(
        &self,
        service: Service,
        n: usize,
        mechanism: RecoveryMechanism,
        seed: u64,
    ) -> Corpus {
        let model = ServiceModel::calibrated(service);
        let flows = self.map_with(n, FlowScratch::new, |i, scratch| {
            let (spec, path) = sample_flow(&model, seed, i);
            simulate_flow_scratch(&spec, &path, mechanism, seed + i as u64, scratch)
        });
        Corpus { service, flows }
    }

    /// Fused sample→simulate→analyze for one service: each flow's records
    /// are teed into both a materialized trace and a [`StreamAnalyzer`], so
    /// the corpus *and* its analyses come out of a single pass per flow —
    /// no second walk over the trace. Results are identical to
    /// [`Engine::synthesize_corpus`] followed by [`Engine::analyze_corpus`].
    pub fn synthesize_and_analyze(
        &self,
        service: Service,
        n: usize,
        mechanism: RecoveryMechanism,
        seed: u64,
        cfg: AnalyzerConfig,
    ) -> (Corpus, Vec<FlowAnalysis>) {
        let model = ServiceModel::calibrated(service);
        let pairs = self.map_with(
            n,
            || WorkerScratch::new(cfg),
            |i, ws| {
                let (spec, path) = sample_flow(&model, seed, i);
                let fseed = seed + i as u64;
                // The trace escapes into the returned corpus, so its storage
                // cannot be recycled — only the analyzer and sim arenas are.
                let sink = (
                    FlowTrace::new(flow_key_for_seed(fseed)),
                    ws.take_analyzer(cfg),
                );
                let (mut out, (trace, mut analyzer)) =
                    simulate_flow_into_scratch(&spec, &path, mechanism, fseed, sink, &mut ws.sim);
                out.trace = trace;
                let analysis = analyzer.finish_reset();
                ws.restore_analyzer(analyzer);
                (out, analysis)
            },
        );
        let (flows, analyses) = split_pairs(pairs);
        (Corpus { service, flows }, analyses)
    }

    /// Trace-free fused pipeline: records stream straight into a
    /// [`StreamAnalyzer`] and the per-flow trace is **never materialized**.
    /// The returned outcomes keep their aggregate counters (latencies,
    /// sender stats, link stats) but carry empty traces; the analyses are
    /// identical to the materializing paths.
    pub fn analyze_streaming(
        &self,
        service: Service,
        n: usize,
        mechanism: RecoveryMechanism,
        seed: u64,
        cfg: AnalyzerConfig,
    ) -> (Corpus, Vec<FlowAnalysis>) {
        let model = ServiceModel::calibrated(service);
        let pairs = self.map_with(
            n,
            || WorkerScratch::new(cfg),
            |i, ws| {
                let (spec, path) = sample_flow(&model, seed, i);
                let fseed = seed + i as u64;
                let analyzer = ws.take_analyzer(cfg);
                let (out, mut analyzer) = simulate_flow_into_scratch(
                    &spec,
                    &path,
                    mechanism,
                    fseed,
                    analyzer,
                    &mut ws.sim,
                );
                let analysis = analyzer.finish_reset();
                ws.restore_analyzer(analyzer);
                (out, analysis)
            },
        );
        let (flows, analyses) = split_pairs(pairs);
        (Corpus { service, flows }, analyses)
    }

    /// TAPO-analyze every flow of a corpus, in flow order. Workers recycle
    /// their replay arenas across flows ([`tapo::analyze_flow_with`]).
    pub fn analyze_corpus(&self, corpus: &Corpus, cfg: AnalyzerConfig) -> Vec<FlowAnalysis> {
        self.map_with(corpus.flows.len(), AnalyzeScratch::new, |i, scratch| {
            analyze_flow_with(&corpus.flows[i].trace, cfg, scratch)
        })
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

/// Unzip per-flow `(outcome, analysis)` pairs preserving index order.
fn split_pairs(
    pairs: Vec<(tcp_sim::sim::FlowOutcome, FlowAnalysis)>,
) -> (Vec<tcp_sim::sim::FlowOutcome>, Vec<FlowAnalysis>) {
    let mut flows = Vec::with_capacity(pairs.len());
    let mut analyses = Vec::with_capacity(pairs.len());
    for (o, a) in pairs {
        flows.push(o);
        analyses.push(a);
    }
    (flows, analyses)
}

impl Default for Engine {
    fn default() -> Self {
        Engine::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_matches_serial_workloads_api() {
        let serial =
            workloads::synthesize_corpus(Service::WebSearch, 12, RecoveryMechanism::Native, 5);
        let engine =
            Engine::new(4).synthesize_corpus(Service::WebSearch, 12, RecoveryMechanism::Native, 5);
        assert_eq!(serial.flows.len(), engine.flows.len());
        for (a, b) in serial.flows.iter().zip(&engine.flows) {
            assert_eq!(a.trace.records, b.trace.records);
        }
    }

    #[test]
    fn fused_pipeline_matches_two_pass_pipeline() {
        let engine = Engine::serial();
        let (svc, n, mech, seed) = (Service::CloudStorage, 12, RecoveryMechanism::Native, 7);
        let cfg = AnalyzerConfig::default();
        // Reference: materialize, then analyze in a second pass.
        let corpus = engine.synthesize_corpus(svc, n, mech, seed);
        let offline = engine.analyze_corpus(&corpus, cfg);
        // Fused tee: same corpus, same analyses, one pass.
        let (fused_corpus, fused) = engine.synthesize_and_analyze(svc, n, mech, seed, cfg);
        for (a, b) in corpus.flows.iter().zip(&fused_corpus.flows) {
            assert_eq!(a.trace.key, b.trace.key);
            assert_eq!(a.trace.records, b.trace.records);
            assert_eq!(a.server_stats, b.server_stats);
        }
        assert_eq!(offline, fused);
        // Trace-free streaming: identical analyses, empty traces.
        let (lean_corpus, streamed) = engine.analyze_streaming(svc, n, mech, seed, cfg);
        assert_eq!(offline, streamed);
        for (a, b) in corpus.flows.iter().zip(&lean_corpus.flows) {
            assert!(b.trace.records.is_empty(), "streaming must not keep traces");
            assert_eq!(a.server_stats, b.server_stats);
            assert_eq!(a.request_latencies, b.request_latencies);
        }
        assert_eq!(
            Engine::breakdown(&offline).total_stalls,
            Engine::breakdown(&streamed).total_stalls
        );
    }

    #[test]
    fn population_runs_agree_across_materialization_levels() {
        let engine = Engine::new(3);
        let (svc, mech, seed) = (Service::SoftwareDownload, RecoveryMechanism::srto(), 11);
        let cfg = AnalyzerConfig::default();
        let pop = engine.sample_population(svc, 10, seed);
        // Reference: materialize traces, analyze in a second pass.
        let corpus = engine.run_population(svc, &pop, mech, 100);
        let offline = engine.analyze_corpus(&corpus, cfg);
        // Fused trace-free streaming over the same population.
        let (streamed_corpus, streamed) =
            engine.run_population_streaming(svc, &pop, mech, 100, cfg);
        assert_eq!(offline, streamed);
        // Lean: aggregate outcome counters only.
        let lean = engine.run_population_lean(svc, &pop, mech, 100);
        assert_eq!(corpus.flows.len(), lean.flows.len());
        for ((a, b), c) in corpus
            .flows
            .iter()
            .zip(&streamed_corpus.flows)
            .zip(&lean.flows)
        {
            assert!(b.trace.records.is_empty(), "streaming must not keep traces");
            assert!(c.trace.records.is_empty(), "lean must not keep traces");
            assert_eq!(a.server_stats, b.server_stats);
            assert_eq!(a.server_stats, c.server_stats);
            assert_eq!(a.request_latencies, c.request_latencies);
            assert_eq!(a.completed, c.completed);
        }
        assert_eq!(corpus.retrans_ratio(), lean.retrans_ratio());
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert_eq!(Engine::new(0).threads(), simnet::par::available_threads());
        assert_eq!(Engine::serial().threads(), 1);
    }
}
