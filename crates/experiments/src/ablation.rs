//! Ablations of the design choices DESIGN.md calls out:
//!
//! * S-RTO parameters — probe timer multiple, `T1` activation threshold and
//!   the `T2` cwnd-halving guard;
//! * loss burstiness — the same mean loss rate as Gilbert–Elliott vs
//!   Bernoulli, and its effect on the double/continuous-loss stall mix.

use simnet::time::SimDuration;
use tapo::{analyze_flow, AnalyzerConfig, RetransClass, StallBreakdown, StallClass};
use tcp_sim::recovery::{RecoveryMechanism, SrtoConfig};
use workloads::{sample_population, Corpus, Service};

use crate::engine::Engine;
use crate::output::{pct_cell, Table};
use tapo::Cdf;

/// Sweep S-RTO's probe-timer multiple and `T1` on a web-search population;
/// report p90 latency change vs native and the retransmission ratio. Reads
/// only latency CDFs and aggregate counters, so every run is trace-free
/// ([`Engine::run`]).
pub fn srto_sweep(flows: usize, seed: u64, engine: &Engine) -> Table {
    let pop = sample_population(Service::WebSearch, flows, seed);
    let native = engine.run(Service::WebSearch, &pop, RecoveryMechanism::Native, seed);
    let base_p90 = latency_cdf(&native).quantile(0.9);

    let mut rows = Vec::new();
    for t1 in [3u32, 5, 10] {
        for mult in [1.5f64, 2.0, 3.0] {
            let cfg = SrtoConfig {
                t1_packets: t1,
                t2_cwnd: 5,
                probe_rtt_mult: mult,
            };
            let run = engine.run(Service::WebSearch, &pop, RecoveryMechanism::Srto(cfg), seed);
            let p90 = latency_cdf(&run).quantile(0.9);
            let change = match (p90, base_p90) {
                (Some(n), Some(b)) if b > 0.0 => format!("{}%", pct_cell(100.0 * (n - b) / b)),
                _ => "–".into(),
            };
            rows.push(vec![
                format!("{t1}"),
                format!("{mult:.1}"),
                change,
                format!("{}%", pct_cell(100.0 * run.retrans_ratio())),
            ]);
        }
    }
    Table::new(
        "ablation_srto",
        "S-RTO parameter sweep (web search): p90 latency change vs native, retrans ratio",
        vec![
            "T1".into(),
            "probe×RTT".into(),
            "p90 latency".into(),
            "retrans".into(),
        ],
        rows,
    )
}

/// Ablate the `T2` conditional-halving guard: never halve / conditional
/// (paper) / always halve. Trace-free like [`srto_sweep`].
pub fn srto_t2_ablation(flows: usize, seed: u64, engine: &Engine) -> Table {
    let pop = sample_population(Service::WebSearch, flows, seed);
    let native = engine.run(Service::WebSearch, &pop, RecoveryMechanism::Native, seed);
    let base = latency_cdf(&native);
    let mut rows = Vec::new();
    for (name, t2) in [
        ("never halve", u32::MAX),
        ("paper (T2=5)", 5),
        ("always halve", 0),
    ] {
        let cfg = SrtoConfig {
            t1_packets: 5,
            t2_cwnd: t2,
            probe_rtt_mult: 2.0,
        };
        let run = engine.run(Service::WebSearch, &pop, RecoveryMechanism::Srto(cfg), seed);
        let cdf = latency_cdf(&run);
        let cell = |q: f64| match (cdf.quantile(q), base.quantile(q)) {
            (Some(n), Some(b)) if b > 0.0 => format!("{}%", pct_cell(100.0 * (n - b) / b)),
            _ => "–".into(),
        };
        rows.push(vec![
            name.to_string(),
            cell(0.5),
            cell(0.9),
            format!("{}%", pct_cell(100.0 * run.retrans_ratio())),
        ]);
    }
    Table::new(
        "ablation_srto_t2",
        "S-RTO cwnd-halving guard ablation (web search)",
        vec![
            "variant".into(),
            "p50 latency".into(),
            "p90 latency".into(),
            "retrans".into(),
        ],
        rows,
    )
}

/// Bursty vs memoryless loss at equal mean rate: the retransmission-stall
/// mix shifts away from double/continuous losses under Bernoulli. Analyses
/// stream out of the simulation pass — no trace is ever materialized
/// ([`Engine::analyze`]).
pub fn burstiness_ablation(flows: usize, seed: u64, engine: &Engine) -> Table {
    let mut pop = sample_population(Service::SoftwareDownload, flows, seed);
    let (_, bursty_analyses) = engine.analyze(
        Service::SoftwareDownload,
        &pop,
        RecoveryMechanism::Native,
        seed,
    );
    // Replace each path's loss process with a Bernoulli of the same mean.
    for (_, path) in pop.iter_mut() {
        let mean = path.loss.mean_loss();
        path.loss = simnet::loss::LossSpec::bernoulli(mean);
        path.ack_loss = Some(simnet::loss::LossSpec::bernoulli(mean / 3.0));
    }
    let (_, memless_analyses) = engine.analyze(
        Service::SoftwareDownload,
        &pop,
        RecoveryMechanism::Native,
        seed,
    );

    let bb = Engine::breakdown(&bursty_analyses);
    let mb = Engine::breakdown(&memless_analyses);
    let row = |name: &str, b: &StallBreakdown| {
        vec![
            name.to_string(),
            pct_cell(b.retrans_share(RetransClass::DoubleRetrans).time_pct),
            pct_cell(b.retrans_share(RetransClass::ContinuousLoss).time_pct),
            pct_cell(b.retrans_share(RetransClass::TailRetrans).time_pct),
            format!("{}", b.total_stalls),
        ]
    };
    Table::new(
        "ablation_burstiness",
        "Loss-model ablation (software download): retrans-stall time shares",
        vec![
            "loss model".into(),
            "double %T".into(),
            "cont.loss %T".into(),
            "tail %T".into(),
            "#stalls".into(),
        ],
        vec![row("Gilbert–Elliott", &bb), row("Bernoulli", &mb)],
    )
}

/// Pacing ablation (the paper's §4.3 suggestion for continuous-loss
/// stalls, citing Wei et al.): the same software-download population with
/// and without sender pacing.
pub fn pacing_ablation(flows: usize, seed: u64, engine: &Engine) -> Table {
    let pop = sample_population(Service::SoftwareDownload, flows, seed);
    let mut paced_pop = pop.clone();
    for (spec, _) in paced_pop.iter_mut() {
        spec.pacing = true;
    }
    let (plain, plain_analyses) = engine.analyze(
        Service::SoftwareDownload,
        &pop,
        RecoveryMechanism::Native,
        seed,
    );
    let (paced, paced_analyses) = engine.analyze(
        Service::SoftwareDownload,
        &paced_pop,
        RecoveryMechanism::Native,
        seed,
    );
    let (b0, b1) = (
        Engine::breakdown(&plain_analyses),
        Engine::breakdown(&paced_analyses),
    );
    let row = |name: &str, b: &StallBreakdown, c: &Corpus| {
        vec![
            name.to_string(),
            pct_cell(b.retrans_share(RetransClass::ContinuousLoss).time_pct),
            pct_cell(b.retrans_share(RetransClass::DoubleRetrans).time_pct),
            format!("{}", b.total_stalls),
            format!("{}%", pct_cell(100.0 * c.retrans_ratio())),
        ]
    };
    Table::new(
        "ablation_pacing",
        "Sender pacing ablation (software download)",
        vec![
            "sender".into(),
            "cont.loss %T".into(),
            "double %T".into(),
            "#stalls".into(),
            "retrans".into(),
        ],
        vec![
            row("back-to-back (native)", &b0, &plain),
            row("paced", &b1, &paced),
        ],
    )
}

/// Early-retransmit ablation (RFC 5827, §4.3's suggestion for small-cwnd
/// stalls): cloud-storage population with and without ER.
pub fn early_retransmit_ablation(flows: usize, seed: u64, engine: &Engine) -> Table {
    let pop = sample_population(Service::CloudStorage, flows, seed);
    let mut er_pop = pop.clone();
    for (spec, _) in er_pop.iter_mut() {
        spec.early_retransmit = true;
    }
    let plain = engine.analyze(Service::CloudStorage, &pop, RecoveryMechanism::Native, seed);
    let er = engine.analyze(
        Service::CloudStorage,
        &er_pop,
        RecoveryMechanism::Native,
        seed,
    );
    let breakdown = |(corpus, analyses): &(Corpus, Vec<tapo::FlowAnalysis>)| {
        let b = Engine::breakdown(analyses);
        let rtos = corpus.flows.iter().map(|f| f.server_stats.rto_count).sum();
        (b, rtos)
    };
    let ((b0, r0), (b1, r1)) = (breakdown(&plain), breakdown(&er));
    let row = |name: &str, b: &StallBreakdown, rtos: u64| {
        vec![
            name.to_string(),
            pct_cell(b.retrans_share(RetransClass::SmallCwnd).time_pct),
            pct_cell(b.retrans_share(RetransClass::TailRetrans).time_pct),
            format!("{rtos}"),
            format!("{}", b.total_stalls),
        ]
    };
    Table::new(
        "ablation_early_retransmit",
        "Early-retransmit ablation (cloud storage)",
        vec![
            "sender".into(),
            "small-cwnd %T".into(),
            "tail %T".into(),
            "#RTOs".into(),
            "#stalls".into(),
        ],
        vec![
            row("native (no ER)", &b0, r0),
            row("early retransmit", &b1, r1),
        ],
    )
}

/// TAPO accuracy check (extra): compare TAPO's trace-only estimates with
/// the simulator's ground truth for timeout and total retransmissions.
pub fn tapo_accuracy(flows: usize, seed: u64, engine: &Engine) -> Table {
    let pop = sample_population(Service::SoftwareDownload, flows, seed);
    let (corpus, analyses) = engine.analyze(
        Service::SoftwareDownload,
        &pop,
        RecoveryMechanism::Native,
        seed,
    );
    let (mut est_retr, mut true_retr, mut est_rto, mut true_rto) = (0u64, 0u64, 0u64, 0u64);
    for (f, a) in corpus.flows.iter().zip(&analyses) {
        est_retr += a.metrics.retrans_pkts;
        true_retr += f.server_stats.retrans_segs;
        est_rto += a.rto_samples.len() as u64;
        true_rto += f.server_stats.rto_count;
    }
    let acc = |est: u64, truth: u64| {
        if truth == 0 {
            "–".to_string()
        } else {
            format!("{}%", pct_cell(100.0 * est as f64 / truth as f64))
        }
    };
    Table::new(
        "tapo_accuracy",
        "TAPO estimates vs simulator ground truth (software download)",
        vec![
            "metric".into(),
            "TAPO".into(),
            "ground truth".into(),
            "TAPO/truth".into(),
        ],
        vec![
            vec![
                "retransmitted segs".into(),
                est_retr.to_string(),
                true_retr.to_string(),
                acc(est_retr, true_retr),
            ],
            vec![
                "timeout events".into(),
                est_rto.to_string(),
                true_rto.to_string(),
                acc(est_rto, true_rto),
            ],
        ],
    )
}

fn latency_cdf(corpus: &Corpus) -> Cdf {
    Cdf::from_samples(
        corpus
            .flows
            .iter()
            .filter(|f| f.completed)
            .map(|f| {
                f.request_latencies
                    .iter()
                    .filter(|&&l| l != SimDuration::MAX)
                    .map(|l| l.as_secs_f64())
                    .sum::<f64>()
            })
            .collect(),
    )
}

/// Mechanistic cross-traffic experiment: N synchronized downloads through
/// one shared bottleneck (the paper's software-release load). Continuous
/// loss and double retransmissions emerge from drop-tail overflow alone —
/// no statistical loss model at all — and grow with the degree of
/// synchronization.
pub fn crosstraffic_experiment(seed: u64, engine: &Engine) -> Table {
    use simnet::time::SimTime;
    use tcp_sim::multi::{MultiFlowEntry, MultiFlowSim, MultiFlowSimConfig};
    let mss = 1448u64;
    let mut rows = Vec::new();
    for &n in &[1usize, 4, 12, 24] {
        let cfg = MultiFlowSimConfig {
            flows: (0..n)
                .map(|i| {
                    let mut e = MultiFlowEntry::new(SimTime::ZERO, 300 * mss);
                    e.extra_delay = simnet::time::SimDuration::from_millis(5 * (i as u64 % 7));
                    e
                })
                .collect(),
            ..MultiFlowSimConfig::default()
        };
        let outcomes = MultiFlowSim::new(cfg, seed).run();
        let analyses = engine.map(outcomes.len(), |i| {
            analyze_flow(&outcomes[i].trace, AnalyzerConfig::default())
        });
        let b = Engine::breakdown(&analyses);
        let mut retrans = 0u64;
        let mut sent = 0u64;
        let mut worst = 0.0f64;
        for o in &outcomes {
            retrans += o.server_stats.retrans_segs;
            sent += o.server_stats.data_segs_sent + o.server_stats.retrans_segs;
            if let Some(l) = o.latency {
                worst = worst.max(l.as_secs_f64());
            }
        }
        rows.push(vec![
            format!("{n}"),
            format!("{}%", pct_cell(100.0 * retrans as f64 / sent.max(1) as f64)),
            format!("{}", b.total_stalls),
            pct_cell(b.retrans_share(RetransClass::ContinuousLoss).volume_pct),
            pct_cell(b.retrans_share(RetransClass::DoubleRetrans).volume_pct),
            format!("{worst:.2}s"),
        ]);
    }
    Table::new(
        "crosstraffic",
        "Synchronized downloads through one 20Mbit/s drop-tail bottleneck (no statistical loss)",
        vec![
            "#flows".into(),
            "retrans".into(),
            "#stalls".into(),
            "cont.loss %#".into(),
            "double %#".into(),
            "slowest flow".into(),
        ],
        rows,
    )
}

/// Classification of each stall cause as actionable-by-TCP or not — the
/// paper's closing observation that only network-side stalls are TCP's to
/// fix. Included as a sanity table for the docs.
pub fn actionability() -> Table {
    let verdict = |class: StallClass| match class {
        StallClass::DataUnavailable => Some("no (cache/backend)"),
        StallClass::ResourceConstraint => Some("no (provisioning)"),
        StallClass::ClientIdle => Some("no (user behaviour)"),
        StallClass::ZeroWindow => Some("no (client software)"),
        StallClass::PacketDelay => Some("partially"),
        StallClass::Retransmission => Some("yes (S-RTO/TLP)"),
        StallClass::Undetermined => None,
    };
    let rows = StallClass::ALL
        .iter()
        .filter_map(|&class| {
            verdict(class).map(|v| {
                vec![
                    class.label().to_string(),
                    match class.category() {
                        tapo::StallCategory::Server => "server".to_string(),
                        tapo::StallCategory::Client => "client".to_string(),
                        tapo::StallCategory::Network => "network".to_string(),
                        tapo::StallCategory::Undetermined => String::new(),
                    },
                    v.to_string(),
                ]
            })
        })
        .collect();
    Table::new(
        "actionability",
        "Which stall causes TCP can address",
        vec!["cause".into(), "side".into(), "addressable by TCP".into()],
        rows,
    )
}
