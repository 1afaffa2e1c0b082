//! Tables 8 & 9: the production A/B of native Linux vs TLP vs S-RTO vs
//! T-RACKs, reproduced as a *paired* replay — the same sampled flow
//! populations run under each mechanism with identical seeds.

use simnet::time::SimDuration;
use tcp_sim::recovery::RecoveryMechanism;
use workloads::{Corpus, Service};

use crate::engine::Engine;
use crate::output::{pct_cell, Table};
use tapo::Cdf;

/// How many flows the comparison replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComparisonScale {
    /// Web-search flows.
    pub web_flows: usize,
    /// Dedicated short (< 200KB, single-request) cloud-storage flows — the
    /// paper's "control flow" population, which is where Table 8 has its
    /// statistical power.
    pub cloud_short_flows: usize,
    /// Regular cloud-storage flows (throughput + retransmission ratio).
    pub cloud_flows: usize,
    /// Master seed.
    pub seed: u64,
}

impl ComparisonScale {
    /// Default for the `repro` binary.
    pub fn standard() -> Self {
        ComparisonScale {
            web_flows: 500,
            cloud_short_flows: 600,
            cloud_flows: 150,
            seed: 360,
        }
    }

    /// Fast scale for tests and benches.
    pub fn quick() -> Self {
        ComparisonScale {
            web_flows: 80,
            cloud_short_flows: 60,
            cloud_flows: 30,
            seed: 360,
        }
    }
}

/// One mechanism's trace-free corpora (outcome counters only) for both
/// evaluated services.
#[derive(Debug)]
pub struct MechanismRun {
    /// "Linux" / "TLP" / "S-RTO" / "T-RACKs".
    pub label: &'static str,
    /// Web-search corpus.
    pub web: Corpus,
    /// Short-flow cloud corpus (latency comparison).
    pub cloud_short: Corpus,
    /// Regular cloud corpus (throughput and retransmission ratio).
    pub cloud: Corpus,
}

/// The full paired comparison.
#[derive(Debug)]
pub struct Comparison {
    /// Runs in order: Linux, TLP, S-RTO, T-RACKs.
    pub runs: Vec<MechanismRun>,
}

/// Run the paired comparison on the given engine: identical populations and
/// per-flow seeds across the four mechanisms (S-RTO uses the paper's
/// per-service `T1`). Every run is trace-free ([`Engine::run`]): Tables 8
/// and 9 read only latencies, response sizes and sender counters. Output is
/// identical at any thread count.
pub fn run_comparison(scale: ComparisonScale, engine: &Engine) -> Comparison {
    // The paper's A/B ran on specific front-end servers, i.e. a relatively
    // homogeneous client population per server. Our synthesized populations
    // span 1–50 Mbit/s access links and wide RTTs, whose latency variance
    // would bury the mechanism effect at fixed quantiles, so the latency
    // populations are homogenized in bottleneck bandwidth (loss, bursts,
    // jitter and client behaviour keep their full variation).
    let mut web_pop = workloads::sample_population(Service::WebSearch, scale.web_flows, scale.seed);
    for (_, path) in web_pop.iter_mut() {
        path.bandwidth_bps = 8_000_000;
    }
    let cloud_pop =
        workloads::sample_population(Service::CloudStorage, scale.cloud_flows, scale.seed + 1);
    // The short-flow population (the paper's "control flows"): a
    // *controlled* experiment — fixed 100KB transfers over a grid of
    // service-typical paths with 4% bursty loss. The production-mix
    // populations' size/RTT/client variance would swamp the few-percent
    // mechanism effect at fixed quantiles with a few hundred samples, so
    // this subset isolates it (see EXPERIMENTS.md).
    let short_pop: Vec<(workloads::FlowSpec, workloads::PathSpec)> = (0..scale.cloud_short_flows)
        .map(|i| {
            let rtt_ms = 100 + (i as u64 % 5) * 20;
            let rtt = simnet::time::SimDuration::from_millis(rtt_ms);
            let spec = workloads::FlowSpec::response_bytes(100_000);
            let path = workloads::PathSpec {
                rtt,
                // High delay variance (jitter + frequent delay bursts):
                // the regime in which the paper's RTOs sit an order of
                // magnitude above the RTT (Fig. 1b).
                jitter: simnet::time::SimDuration::from_millis(rtt_ms / 2),
                loss: simnet::loss::LossSpec::bursty(
                    0.04,
                    simnet::time::SimDuration::from_millis(rtt_ms * 7 / 10),
                ),
                bandwidth_bps: 8_000_000,
                queue_pkts: 60,
                delay_burst_hz: 0.3,
                delay_burst_len: simnet::time::SimDuration::from_millis(rtt_ms * 2),
                delay_burst_extra: simnet::time::SimDuration::from_millis(rtt_ms * 5 / 2),
                ..workloads::PathSpec::default()
            };
            (spec, path)
        })
        .collect();
    let mechs: [(&'static str, RecoveryMechanism, RecoveryMechanism); 4] = [
        (
            "Linux",
            RecoveryMechanism::Native,
            RecoveryMechanism::Native,
        ),
        ("TLP", RecoveryMechanism::tlp(), RecoveryMechanism::tlp()),
        (
            "S-RTO",
            RecoveryMechanism::Srto(Service::WebSearch.srto_config()),
            RecoveryMechanism::Srto(Service::CloudStorage.srto_config()),
        ),
        (
            "T-RACKs",
            RecoveryMechanism::tracks(),
            RecoveryMechanism::tracks(),
        ),
    ];
    let runs = mechs
        .into_iter()
        .map(|(label, web_mech, cloud_mech)| MechanismRun {
            label,
            web: engine.run(Service::WebSearch, &web_pop, web_mech, scale.seed),
            cloud_short: engine.run(
                Service::CloudStorage,
                &short_pop,
                cloud_mech,
                scale.seed + 2,
            ),
            cloud: engine.run(
                Service::CloudStorage,
                &cloud_pop,
                cloud_mech,
                scale.seed + 1,
            ),
        })
        .collect();
    Comparison { runs }
}

/// Per-flow latency samples (seconds): the sum of per-request latencies,
/// for completed flows passing the byte filter.
fn latencies(corpus: &Corpus, max_bytes: Option<u64>) -> Vec<f64> {
    corpus
        .flows
        .iter()
        .filter(|f| f.completed)
        .filter(|f| max_bytes.is_none_or(|m| f.response_bytes < m))
        .map(|f| {
            f.request_latencies
                .iter()
                .filter(|&&l| l != SimDuration::MAX)
                .map(|l| l.as_secs_f64())
                .sum::<f64>()
        })
        .collect()
}

/// Per-flow throughput samples (bytes/s) for flows at or above `min_bytes`.
fn throughputs(corpus: &Corpus, min_bytes: u64) -> Vec<f64> {
    corpus
        .flows
        .iter()
        .filter(|f| f.completed && f.response_bytes >= min_bytes)
        .filter_map(|f| {
            let secs = f
                .request_latencies
                .iter()
                .filter(|&&l| l != SimDuration::MAX)
                .map(|l| l.as_secs_f64())
                .sum::<f64>();
            if secs > 0.0 {
                Some(f.response_bytes as f64 / secs)
            } else {
                None
            }
        })
        .collect()
}

const SHORT_FLOW_BYTES: u64 = 200_000;

fn reduction(new: Option<f64>, base: Option<f64>) -> String {
    match (new, base) {
        (Some(n), Some(b)) if b > 0.0 => format!("{}%", pct_cell(100.0 * (n - b) / b)),
        _ => "–".to_string(),
    }
}

/// Regenerate Table 8: latency change (vs native Linux) at the 50th, 90th
/// and 95th percentiles and the mean, for web search and short (< 200KB)
/// cloud-storage flows, under TLP and S-RTO.
pub fn table8(cmp: &Comparison) -> Table {
    let base = &cmp.runs[0];
    let web_base = Cdf::from_samples(latencies(&base.web, None));
    let cloud_base = Cdf::from_samples(latencies(&base.cloud_short, Some(SHORT_FLOW_BYTES)));
    let mut header = vec!["Quantile".to_string()];
    for run in &cmp.runs[1..] {
        header.push(format!("web {}", run.label));
        header.push(format!("cloud-short {}", run.label));
    }
    let mut rows = Vec::new();
    for (name, q) in [("50", 0.5), ("90", 0.9), ("95", 0.95)] {
        let mut row = vec![name.to_string()];
        for run in &cmp.runs[1..] {
            let web = Cdf::from_samples(latencies(&run.web, None));
            let cloud = Cdf::from_samples(latencies(&run.cloud_short, Some(SHORT_FLOW_BYTES)));
            row.push(reduction(web.quantile(q), web_base.quantile(q)));
            row.push(reduction(cloud.quantile(q), cloud_base.quantile(q)));
        }
        rows.push(row);
    }
    let mut mean_row = vec!["mean".to_string()];
    for run in &cmp.runs[1..] {
        let web = Cdf::from_samples(latencies(&run.web, None));
        let cloud = Cdf::from_samples(latencies(&run.cloud_short, Some(SHORT_FLOW_BYTES)));
        mean_row.push(reduction(web.mean(), web_base.mean()));
        mean_row.push(reduction(cloud.mean(), cloud_base.mean()));
    }
    rows.push(mean_row);
    let mut count_row = vec!["#(flows)".to_string()];
    for run in &cmp.runs[1..] {
        count_row.push(format!("{}", latencies(&run.web, None).len()));
        count_row.push(format!(
            "{}",
            latencies(&run.cloud_short, Some(SHORT_FLOW_BYTES)).len()
        ));
    }
    rows.push(count_row);
    Table::new(
        "table8",
        "Latency change vs native Linux (negative = faster)",
        header,
        rows,
    )
}

/// Regenerate Table 9: retransmitted-packet ratio per mechanism.
pub fn table9(cmp: &Comparison) -> Table {
    let mut header = vec!["service".to_string()];
    for run in &cmp.runs {
        header.push(run.label.to_string());
    }
    let mut web_row = vec!["web search".to_string()];
    let mut cloud_row = vec!["cloud storage".to_string()];
    for run in &cmp.runs {
        web_row.push(format!("{}%", pct_cell(100.0 * run.web.retrans_ratio())));
        // Combine both cloud populations, as production servers carry both.
        let (r, s) = (run.cloud.flows.iter().chain(&run.cloud_short.flows).fold(
            (0u64, 0u64),
            |(r, s), f| {
                (
                    r + f.server_stats.retrans_segs,
                    s + f.server_stats.data_segs_sent + f.server_stats.retrans_segs,
                )
            },
        ),)
            .0;
        cloud_row.push(format!("{}%", pct_cell(100.0 * r as f64 / s.max(1) as f64)));
    }
    Table::new(
        "table9",
        "Retransmission packet ratio",
        header,
        vec![web_row, cloud_row],
    )
}

/// The §5.2 large-flow observation: mean throughput change for cloud flows
/// ≥ 200KB under TLP and S-RTO (the paper reports +2.6% / +3.7%).
pub fn large_flow_throughput(cmp: &Comparison) -> Table {
    let base = Cdf::from_samples(throughputs(&cmp.runs[0].cloud, SHORT_FLOW_BYTES));
    let mut header = vec!["metric".to_string()];
    for run in &cmp.runs[1..] {
        header.push(run.label.to_string());
    }
    let mut row = vec!["mean throughput change".to_string()];
    for run in &cmp.runs[1..] {
        let t = Cdf::from_samples(throughputs(&run.cloud, SHORT_FLOW_BYTES));
        row.push(reduction(t.mean(), base.mean()));
    }
    Table::new(
        "table8x_throughput",
        "Cloud-storage large-flow (≥200KB) throughput change vs native",
        header,
        vec![row],
    )
}
