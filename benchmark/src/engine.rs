//! The offline engine (`repro`, `tapo advise`): sample → simulate →
//! analyze for a three-service population on one thread, fused through
//! `Dataset::build_streaming` and staged flow by flow, plus the event
//! queue probe.

use std::hint::black_box;
use std::time::{Duration, Instant};

use experiments::{Dataset, Engine, Scale};
use simnet::time::SimTime;
use simnet::{EventQueue, SimRng};
use tapo::{analyze_flow_with, AnalyzeScratch, AnalyzerConfig, StallBreakdown};
use tcp_sim::RecoveryMechanism;
use workloads::{sample_flow, simulate_flow_scratch, FlowScratch, Service, ServiceModel};

use crate::alloc::Snap;
use crate::span::{LayerMedians, Rounds};
use crate::{median_of, stats, Metrics, Traced, Tracer};

/// The population: 3 000 flows per iteration at full scale, 300 for
/// `--quick` and for the reference input of traced runs.
pub fn scale(seed: u64, full: bool) -> Scale {
    Scale {
        flows_per_service: if full { 1000 } else { 100 },
        seed,
    }
}

pub fn flows(scale: Scale) -> u64 {
    (scale.flows_per_service * Service::ALL.len()) as u64
}

pub struct EngineOut {
    pub wall: Duration,
    /// Per service, in `Service::ALL` order.
    pub breakdowns: Vec<StallBreakdown>,
    /// Flows that came back with an analysis.
    pub analysed: u64,
    pub allocs: u64,
}

/// Tracing off: the whole dataset on `engine`, no traces materialised.
pub fn fused(scale: Scale, engine: &Engine) -> EngineOut {
    let before = Snap::now();
    let t = Instant::now();
    let ds = Dataset::build_streaming(scale, engine);
    let wall = t.elapsed();
    EngineOut {
        wall,
        analysed: ds.services.iter().map(|s| s.analyses.len() as u64).sum(),
        breakdowns: ds.services.into_iter().map(|s| s.breakdown).collect(),
        allocs: Snap::now().since(before).allocs,
    }
}

const RUN: &str = "experiments.engine.run";
const SAMPLE: &str = "workloads.corpus.sample_flow";
const SIMULATE: &str = "tcp.sim.simulate_flow";
const ANALYZE: &str = "core.stream.analyze_flow";
const BREAKDOWN: &str = "experiments.engine.breakdown";
/// The layers a staged run is made of (children of [`RUN`]).
const LAYERS: [&str; 4] = [SAMPLE, SIMULATE, ANALYZE, BREAKDOWN];

/// The same population flow by flow: `sample_flow`, `simulate_flow_scratch`
/// (the trace is materialised, which the fused run avoids), then
/// `analyze_flow_with` on that trace, a span around each.
pub fn staged(scale: Scale, tracer: &mut Tracer) -> EngineOut {
    let before = Snap::now();
    let t = Instant::now();
    let run = tracer.enter(RUN);
    let cfg = AnalyzerConfig::default();
    let mut sim = FlowScratch::new();
    let mut scratch = AnalyzeScratch::new();
    let mut breakdowns = Vec::new();
    let mut analysed = 0u64;
    for service in Service::ALL {
        let model = ServiceModel::calibrated(service);
        let mut analyses = Vec::with_capacity(scale.flows_per_service);
        for i in 0..scale.flows_per_service {
            let s = tracer.enter(SAMPLE);
            let (spec, path) = sample_flow(&model, scale.seed, i);
            tracer.exit(s, 1);
            let s = tracer.enter(SIMULATE);
            let flow = simulate_flow_scratch(
                &spec,
                &path,
                RecoveryMechanism::Native,
                scale.seed + i as u64,
                &mut sim,
            );
            tracer.exit(s, flow.trace.records.len() as u64);
            let s = tracer.enter(ANALYZE);
            analyses.push(analyze_flow_with(&flow.trace, cfg, &mut scratch));
            tracer.exit(s, flow.trace.records.len() as u64);
        }
        let s = tracer.enter(BREAKDOWN);
        breakdowns.push(Engine::breakdown(&analyses));
        tracer.exit(s, analyses.len() as u64);
        analysed += analyses.len() as u64;
    }
    tracer.exit(run, analysed);
    EngineOut {
        wall: t.elapsed(),
        breakdowns,
        analysed,
        allocs: Snap::now().since(before).allocs,
    }
}

/// The traced pass over the offline engine. Fills every
/// `workloads.corpus.*`, `tcp.sim.*`, `core.stream.analyze*`,
/// `experiments.engine.*` and `simnet.event.*` metric.
pub fn traced(
    scale: Scale,
    budget: Duration,
    seed: u64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Traced {
    let mut problems = Vec::new();
    let n = flows(scale) as f64;
    let warm = fused(scale, &Engine::serial());
    let mut wall_1t = Vec::new();
    let mut wall_2t = Vec::new();
    let mut allocs = 0;
    let mut iters = Vec::new();
    let mut rounds = Rounds::new(budget);
    while rounds.wants_more() {
        for (engine, walls) in [
            (Engine::new(2), &mut wall_2t),
            (Engine::serial(), &mut wall_1t),
        ] {
            let r = fused(scale, &engine);
            if r.breakdowns != warm.breakdowns {
                problems.push(format!(
                    "engine: breakdowns differ on {} thread(s)",
                    engine.threads()
                ));
            }
            walls.push(r.wall);
            if engine.threads() == 1 {
                // Counted per thread: only the serial run does it all here.
                allocs = r.allocs;
            }
        }
        let iter = tracer.next_iter();
        if staged(scale, tracer).breakdowns != warm.breakdowns {
            problems.push("engine: staged breakdowns differ from fused".to_string());
        }
        let sums = tracer.layer_sums(iter);
        let layers_ns = LAYERS.iter().map(|name| sums[name].total_ns).sum();
        rounds.round(
            *wall_1t.last().expect("just pushed"),
            layers_ns,
            sums[RUN].total_ns,
        );
        iters.push(iter);
    }
    let secs = |walls: &[Duration]| {
        stats::median(&walls.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
    };
    let layers = LayerMedians::of(tracer, &iters);
    let records = layers.items(SIMULATE);
    m.set("experiments.engine.flows", n);
    m.set(
        "workloads.corpus.sample_us_per_flow",
        layers.total_ns(SAMPLE) / 1e3 / n,
    );
    m.set("tcp.sim.us_per_flow", layers.total_ns(SIMULATE) / 1e3 / n);
    m.set("tcp.sim.ns_per_record", layers.total_ns(SIMULATE) / records);
    m.set("tcp.sim.records_per_flow", records / n);
    m.set(
        "core.stream.analyze_us_per_flow",
        layers.total_ns(ANALYZE) / 1e3 / n,
    );
    m.set(
        "core.stream.analyze_ns_per_record",
        layers.total_ns(ANALYZE) / records,
    );
    m.set(
        "experiments.engine.reconcile_ratio",
        rounds.reconcile_ratio(),
    );
    m.set(
        "experiments.engine.trace_overhead_ratio",
        rounds.overhead_ratio(),
    );
    m.set("experiments.engine.allocs_per_flow", allocs as f64 / n);
    m.set(
        "experiments.engine.speedup_2t",
        secs(&wall_1t) / secs(&wall_2t),
    );

    // Probe: the simulator's calendar queue with a few dozen timers in
    // flight, each pop rescheduling one a short random way ahead.
    const EVENTS: usize = 1_000_000;
    let mut rng = SimRng::seed(seed ^ 0xe7e47);
    let gaps: Vec<u64> = (0..EVENTS).map(|_| rng.range_u64(1, 50_000)).collect();
    let ns = median_of(3, || {
        let mut q: EventQueue<u32> = EventQueue::new();
        for (i, &g) in gaps.iter().take(32).enumerate() {
            q.push(SimTime::from_micros(g), i as u32);
        }
        let t = Instant::now();
        for &g in &gaps {
            let (now, ev) = q.pop().expect("queue never drains");
            q.push(SimTime::from_micros(now.as_micros() + g), black_box(ev));
        }
        t.elapsed()
    });
    m.set(
        "simnet.event.push_pop_ns",
        ns.as_nanos() as f64 / EVENTS as f64,
    );
    Traced {
        attempted: flows(scale),
        failed: flows(scale) - warm.analysed,
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_flows_reproduce_the_fused_breakdowns() {
        let scale = Scale {
            flows_per_service: 8,
            seed: 3,
        };
        let a = fused(scale, &Engine::serial());
        let mut tracer = Tracer::new();
        let it = tracer.next_iter();
        let b = staged(scale, &mut tracer);
        assert_eq!(a.breakdowns, b.breakdowns);
        assert_eq!(a.analysed, flows(scale));
        assert_eq!(b.analysed, flows(scale));
        let sums = tracer.layer_sums(it);
        assert_eq!(sums[SIMULATE].calls, flows(scale));
        assert_eq!(sums[SIMULATE].items, sums[ANALYZE].items);
    }
}
