//! `tapo advise` — the counterfactual mitigation advisor that closes the
//! paper's diagnosis→mitigation loop.
//!
//! The live pipeline (`tapo live`) *diagnoses*: its interval reports carry a
//! per-server-port slice of flow and stall totals. The paper's answer to a
//! stalling service is a *mitigation* — deploy TLP, S-RTO or T-RACKs at the
//! server — but Tables 8 & 9 answer "which mechanism helps" only for the
//! paper's three studied services in aggregate. This module answers it for
//! *your* capture: it reads the interval reports back, attributes observed
//! stall time to services by server port ([`Service::from_server_port`]),
//! and for each service that actually stalled runs a **counterfactual
//! replay** — the calibrated service population simulated under all four
//! recovery mechanisms on identical per-flow seeds — to estimate how much
//! of that stall time each mechanism would have removed.
//!
//! The replay is a paired experiment with seeded replicates: replicate `r`
//! draws its own flow population (master seed derived from `(seed, r)`),
//! every mechanism sees the same flows on the same seeds within a
//! replicate, and the per-replicate stall-time reductions give a mean and a
//! normal-approximation 95% confidence interval. Everything folds in index
//! order from [`simnet::par::par_map_with`], so the emitted recommendations
//! are byte-identical at any `--threads`.

use std::io::BufRead;

use simnet::par;
use simnet::rng::splitmix64;
use tcp_sim::recovery::RecoveryMechanism;
use tcp_sim::sim::FlowScratch;
use workloads::{sample_flow, simulate_flow_into_scratch, Service, ServiceModel};

use crate::json::Out;
use crate::report::parse::{parse_reports_with, ParseError};
use crate::sink::{csv_escape, Record};
use crate::stream::StreamAnalyzer;
use crate::AnalyzerConfig;

/// The recovery mechanisms a service is replayed under, in report order.
/// Index 0 (native Linux) is the baseline the others are paired against;
/// S-RTO uses the service's deployment parameters (Table 8's `T1`).
fn mechanisms(service: Service) -> [RecoveryMechanism; 4] {
    [
        RecoveryMechanism::Native,
        RecoveryMechanism::tlp(),
        RecoveryMechanism::Srto(service.srto_config()),
        RecoveryMechanism::tracks(),
    ]
}

/// Master seed for replicate `r`: a fresh stream per replicate so the
/// replicate means are independent draws, while staying a pure function of
/// `(seed, r)` — the same determinism discipline as
/// [`workloads::flow_seed`].
fn replicate_seed(seed: u64, replicate: usize) -> u64 {
    splitmix64(splitmix64(seed ^ 0xadb1_5e00) ^ replicate as u64)
}

/// What one service's port slice accumulated across the parsed reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceObserved {
    /// Flows finalized on this service's port.
    pub flows: u64,
    /// Stalls detected on this service's port.
    pub stalls: u64,
    /// Total stalled time on this service's port, microseconds.
    pub stalled_us: u64,
}

/// The advisor's view of a `tapo live` run: per-service rollups of the
/// `by_port` sections plus bookkeeping about what was (not) parsed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observations {
    /// Per-service totals, indexed like [`Service::ALL`].
    pub per_service: [ServiceObserved; 3],
    /// Flows observed on ports that map to no known service.
    pub unmapped_flows: u64,
    /// Interval reports aggregated.
    pub intervals: u64,
    /// Well-formed lines skipped (summaries — already rollups of the
    /// intervals — and objects of unknown kind).
    pub skipped: u64,
}

/// A malformed input line — the shared report-parse error, re-exported
/// under the advisor's historical name.
pub type AdviseError = ParseError;

/// Fold one parsed interval's `by_port` slice into the per-service rollup.
pub(crate) fn attribute_ports(obs: &mut Observations, by_port: &[(u16, crate::live::PortDelta)]) {
    for (port, p) in by_port {
        match Service::from_server_port(*port) {
            Some(service) => {
                let slot = Service::ALL.iter().position(|s| *s == service).unwrap();
                let s = &mut obs.per_service[slot];
                s.flows += p.flows;
                s.stalls += p.stalls;
                s.stalled_us += p.stalled_us;
            }
            None => obs.unmapped_flows += p.flows,
        }
    }
}

/// Parse a `tapo live` JSON-lines report stream and roll its `by_port`
/// sections up per service.
///
/// Only `"kind":"interval"` objects are aggregated: the end-of-run summary
/// is itself a merge of the interval deltas, so counting it too would
/// double every total. Blank lines are ignored; anything that is not a
/// JSON object is an error (this is how feeding the CSV rendering, or a
/// pcap, fails fast). The schema and skip rule live in
/// [`crate::report::parse`], shared bytewise with `tapo fleet`.
pub fn parse_observations<R: BufRead>(input: R) -> Result<Observations, AdviseError> {
    let mut obs = Observations::default();
    obs.skipped = parse_reports_with(input, |rec| {
        obs.intervals += 1;
        attribute_ports(&mut obs, &rec.by_port);
    })?;
    Ok(obs)
}

/// Advisor parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdviseConfig {
    /// Flows simulated per replicate per service.
    pub flows: usize,
    /// Seeded replicates per service (each draws its own population).
    pub replicates: usize,
    /// Master seed the replicate seeds derive from.
    pub seed: u64,
    /// Worker threads for the replay; 0 = all available. Output is
    /// byte-identical at any value.
    pub threads: usize,
    /// A service is only replayed if it observed at least this much
    /// stalled time (microseconds).
    pub min_stalled_us: u64,
}

impl Default for AdviseConfig {
    fn default() -> Self {
        AdviseConfig {
            flows: 30,
            replicates: 5,
            seed: 1,
            threads: 0,
            min_stalled_us: 1,
        }
    }
}

/// One mechanism's estimated effect on a service, from the paired replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MechanismEffect {
    /// Mean over replicates of `1 - mechanism_stall / native_stall`.
    pub mean_reduction: f64,
    /// 95% confidence half-width over the replicate means (normal
    /// approximation; 0 with fewer than two usable replicates).
    pub ci95: f64,
}

/// The advisor's verdict for one service: what was observed, what the
/// counterfactual replay measured, and which mechanism to deploy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceAdvice {
    /// The service advised on.
    pub service: Service,
    /// Its observed per-port totals from the report stream.
    pub observed: ServiceObserved,
    /// Replicates simulated.
    pub replicates: usize,
    /// Flows per replicate.
    pub flows: usize,
    /// Total simulated stall time under native recovery, microseconds
    /// (all replicates).
    pub native_stall_us: u64,
    /// Paired effects for TLP, S-RTO and T-RACKs (in that order).
    pub effects: [MechanismEffect; 3],
    /// Label of the recommended mechanism ("Linux" when nothing beats the
    /// native baseline).
    pub recommendation: &'static str,
    /// The recommended mechanism's mean stall-time reduction (0 when the
    /// recommendation is to keep native recovery).
    pub expected_reduction: f64,
}

/// Non-baseline mechanism labels, aligned with [`ServiceAdvice::effects`].
const EFFECT_LABELS: [&str; 3] = ["TLP", "S-RTO", "T-RACKs"];

impl ServiceAdvice {
    /// The fixed CSV header matching [`Record::csv`] for this type.
    pub fn csv_header() -> String {
        "service,observed_flows,observed_stalls,observed_stalled_us,\
         replicates,flows_per_replicate,native_stall_us,\
         tlp_reduction,tlp_ci95,srto_reduction,srto_ci95,\
         tracks_reduction,tracks_ci95,recommendation,expected_reduction"
            .into()
    }
}

impl Record for ServiceAdvice {
    fn header(&self) -> String {
        ServiceAdvice::csv_header()
    }

    fn csv(&self) -> String {
        let mut row = format!(
            "{},{},{},{},{},{},{}",
            csv_escape(self.service.label()),
            self.observed.flows,
            self.observed.stalls,
            self.observed.stalled_us,
            self.replicates,
            self.flows,
            self.native_stall_us,
        );
        for e in &self.effects {
            row.push_str(&format!(",{:.4},{:.4}", e.mean_reduction, e.ci95));
        }
        row.push_str(&format!(
            ",{},{:.4}",
            csv_escape(self.recommendation),
            self.expected_reduction
        ));
        row
    }

    fn write_json(&self, out: &mut Out) {
        out.begin_object();
        out.key("kind").str("advice");
        out.key("service").str(self.service.label());
        out.key("observed").begin_object();
        out.u64_members(&[
            ("flows", self.observed.flows),
            ("stalls", self.observed.stalls),
            ("stalled_us", self.observed.stalled_us),
        ]);
        out.end_object();
        out.u64_members(&[
            ("replicates", self.replicates as u64),
            ("flows_per_replicate", self.flows as u64),
            ("native_stall_us", self.native_stall_us),
        ]);
        out.key("mechanisms").begin_object();
        for (label, e) in EFFECT_LABELS.into_iter().zip(&self.effects) {
            out.key(label).begin_object();
            out.key("reduction").f64(round4(e.mean_reduction));
            out.key("ci95").f64(round4(e.ci95));
            out.end_object();
        }
        out.end_object();
        out.key("recommendation").str(self.recommendation);
        out.key("expected_reduction")
            .f64(round4(self.expected_reduction));
        out.end_object();
    }
}

/// Round for report emission: four decimals is well inside the replicate
/// noise floor and keeps the JSON stable to read.
fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// Run the counterfactual replay for every service that observed stall
/// time, in [`Service::ALL`] order. Deterministic in `(obs, cfg.flows,
/// cfg.replicates, cfg.seed)`; `cfg.threads` cannot change the result.
pub fn advise(obs: &Observations, cfg: &AdviseConfig) -> Vec<ServiceAdvice> {
    let selected: Vec<(Service, ServiceObserved)> = Service::ALL
        .iter()
        .zip(&obs.per_service)
        .filter(|(_, o)| o.stalls > 0 && o.stalled_us >= cfg.min_stalled_us)
        .map(|(s, o)| (*s, *o))
        .collect();
    if selected.is_empty() || cfg.flows == 0 || cfg.replicates == 0 {
        return Vec::new();
    }
    let models: Vec<ServiceModel> = selected
        .iter()
        .map(|(s, _)| ServiceModel::calibrated(*s))
        .collect();
    let acfg = AnalyzerConfig::default();
    let per_service = cfg.replicates * cfg.flows;
    let threads = if cfg.threads == 0 {
        par::available_threads()
    } else {
        cfg.threads
    };
    // One work item per (service, replicate, flow): all four mechanisms run
    // back-to-back on the same sampled flow and seed, so the comparison is
    // paired at the finest grain and an item's cost covers a full quartet.
    let per_flow: Vec<[u64; 4]> = par::par_map_with(
        selected.len() * per_service,
        threads,
        || (FlowScratch::new(), StreamAnalyzer::new(acfg)),
        |idx, (sim, analyzer)| {
            let svc_i = idx / per_service;
            let rep = (idx % per_service) / cfg.flows;
            let flow_i = idx % cfg.flows;
            let (service, _) = selected[svc_i];
            let rep_seed = replicate_seed(cfg.seed, rep);
            let (spec, path) = sample_flow(&models[svc_i], rep_seed, flow_i);
            let fseed = rep_seed.wrapping_add(flow_i as u64);
            let mut stall_us = [0u64; 4];
            for (m, mech) in mechanisms(service).into_iter().enumerate() {
                simulate_flow_into_scratch(&spec, &path, mech, fseed, &mut *analyzer, sim);
                let analysis = analyzer.finish_reset();
                stall_us[m] = analysis.stalls.iter().map(|s| s.duration.as_micros()).sum();
            }
            stall_us
        },
    );
    // Serial fold in index order: replicate totals, then replicate-mean
    // reductions per mechanism. Identical at any thread count.
    selected
        .iter()
        .enumerate()
        .map(|(svc_i, (service, observed))| {
            let mut rep_totals = vec![[0u64; 4]; cfg.replicates];
            for rep in 0..cfg.replicates {
                for flow_i in 0..cfg.flows {
                    let item = &per_flow[svc_i * per_service + rep * cfg.flows + flow_i];
                    for (m, us) in item.iter().enumerate() {
                        rep_totals[rep][m] += us;
                    }
                }
            }
            let native_stall_us = rep_totals.iter().map(|t| t[0]).sum();
            let mut effects = [MechanismEffect::default(); 3];
            for (m, effect) in effects.iter_mut().enumerate() {
                // Replicates whose native run never stalled carry no
                // pairing signal; they are dropped from the mean.
                let reductions: Vec<f64> = rep_totals
                    .iter()
                    .filter(|t| t[0] > 0)
                    .map(|t| 1.0 - t[m + 1] as f64 / t[0] as f64)
                    .collect();
                *effect = summarize(&reductions);
            }
            let best = effects
                .iter()
                .enumerate()
                .filter(|(_, e)| e.mean_reduction > 0.0)
                .max_by(|(_, a), (_, b)| {
                    a.mean_reduction
                        .partial_cmp(&b.mean_reduction)
                        .expect("reductions are finite")
                })
                .map(|(m, e)| (EFFECT_LABELS[m], e.mean_reduction));
            let (recommendation, expected_reduction) =
                best.unwrap_or((RecoveryMechanism::Native.label(), 0.0));
            ServiceAdvice {
                service: *service,
                observed: *observed,
                replicates: cfg.replicates,
                flows: cfg.flows,
                native_stall_us,
                effects,
                recommendation,
                expected_reduction,
            }
        })
        .collect()
}

/// Mean and normal-approximation 95% half-width of replicate reductions.
fn summarize(xs: &[f64]) -> MechanismEffect {
    if xs.is_empty() {
        return MechanismEffect::default();
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let ci95 = if xs.len() < 2 {
        0.0
    } else {
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        1.96 * (var / n).sqrt()
    };
    MechanismEffect {
        mean_reduction: mean,
        ci95,
    }
}

/// [`parse_observations`] + [`advise`] in one call — the library form of
/// the `tapo advise` subcommand.
pub fn advise_from_reports<R: BufRead>(
    input: R,
    cfg: &AdviseConfig,
) -> Result<(Observations, Vec<ServiceAdvice>), AdviseError> {
    let obs = parse_observations(input)?;
    let advices = advise(&obs, cfg);
    Ok((obs, advices))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval_line(port: u16, flows: u64, stalls: u64, stalled_us: u64) -> String {
        format!(
            "{{\"kind\":\"interval\",\"by_port\":{{\"{port}\":\
             {{\"flows\":{flows},\"stalls\":{stalls},\"stalled_us\":{stalled_us}}}}}}}"
        )
    }

    #[test]
    fn observations_fold_intervals_and_skip_summaries() {
        let mut input = String::new();
        input.push_str(&interval_line(80, 10, 2, 5_000));
        input.push('\n');
        input.push_str(&interval_line(80, 5, 1, 2_500));
        input.push('\n');
        input.push_str(&interval_line(9999, 7, 3, 1_000));
        input.push('\n');
        // A summary is a rollup of the intervals: it must not double-count.
        input.push_str("{\"kind\":\"summary\",\"by_port\":{\"80\":{\"flows\":15,\"stalls\":3,\"stalled_us\":7500}}}\n");
        input.push('\n'); // blank lines are fine
        let obs = parse_observations(input.as_bytes()).unwrap();
        assert_eq!(obs.intervals, 3);
        assert_eq!(obs.skipped, 1);
        assert_eq!(obs.unmapped_flows, 7);
        let web = Service::ALL
            .iter()
            .position(|s| *s == Service::WebSearch)
            .unwrap();
        assert_eq!(
            obs.per_service[web],
            ServiceObserved {
                flows: 15,
                stalls: 3,
                stalled_us: 7_500
            }
        );
    }

    #[test]
    fn observations_reject_garbage() {
        assert!(parse_observations("not json\n".as_bytes()).is_err());
        assert!(parse_observations("[1,2,3]\n".as_bytes()).is_err());
        let bad_port = "{\"kind\":\"interval\",\"by_port\":{\"sixty\":{\"flows\":1,\"stalls\":0,\"stalled_us\":0}}}\n";
        assert!(parse_observations(bad_port.as_bytes()).is_err());
        let bad_field = "{\"kind\":\"interval\",\"by_port\":{\"80\":{\"flows\":\"x\"}}}\n";
        let err = parse_observations(bad_field.as_bytes()).unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn only_stalled_services_are_replayed() {
        let mut obs = Observations::default();
        // Web search saw flows but no stalls; nothing selected.
        obs.per_service[2] = ServiceObserved {
            flows: 100,
            stalls: 0,
            stalled_us: 0,
        };
        let cfg = AdviseConfig {
            flows: 2,
            replicates: 1,
            ..AdviseConfig::default()
        };
        assert!(advise(&obs, &cfg).is_empty());
    }

    #[test]
    fn advice_is_deterministic_across_thread_counts() {
        let mut obs = Observations::default();
        obs.per_service[2] = ServiceObserved {
            flows: 20,
            stalls: 4,
            stalled_us: 900_000,
        };
        let cfg = |threads| AdviseConfig {
            flows: 6,
            replicates: 2,
            seed: 11,
            threads,
            min_stalled_us: 1,
        };
        let serial = advise(&obs, &cfg(1));
        assert_eq!(serial.len(), 1);
        assert_eq!(serial[0].service, Service::WebSearch);
        assert!(serial[0].native_stall_us > 0, "grid should stall");
        for threads in [2, 4] {
            let parallel = advise(&obs, &cfg(threads));
            assert_eq!(serial, parallel, "threads={threads}");
            // Byte-level: the emitted record must match too.
            assert_eq!(serial[0].csv(), parallel[0].csv());
            assert_eq!(serial[0].json().compact(), parallel[0].json().compact());
        }
    }

    #[test]
    fn record_shapes_are_fixed() {
        let advice = ServiceAdvice {
            service: Service::WebSearch,
            observed: ServiceObserved {
                flows: 3,
                stalls: 2,
                stalled_us: 1_000,
            },
            replicates: 2,
            flows: 4,
            native_stall_us: 50_000,
            effects: [
                MechanismEffect {
                    mean_reduction: 0.1,
                    ci95: 0.05,
                },
                MechanismEffect::default(),
                MechanismEffect {
                    mean_reduction: 0.25,
                    ci95: 0.1,
                },
            ],
            recommendation: "T-RACKs",
            expected_reduction: 0.25,
        };
        let header = advice.header();
        assert_eq!(header.split(',').count(), advice.csv().split(',').count());
        let line = advice.json().compact();
        assert!(line.contains("\"kind\":\"advice\""));
        assert!(line.contains("\"recommendation\":\"T-RACKs\""));
        assert!(line.contains("\"T-RACKs\":{\"reduction\":0.25,\"ci95\":0.1}"));
    }

    #[test]
    fn summarize_handles_degenerate_inputs() {
        assert_eq!(summarize(&[]), MechanismEffect::default());
        let one = summarize(&[0.3]);
        assert_eq!(one.mean_reduction, 0.3);
        assert_eq!(one.ci95, 0.0);
        let two = summarize(&[0.2, 0.4]);
        assert!((two.mean_reduction - 0.3).abs() < 1e-12);
        assert!(two.ci95 > 0.0);
    }
}
