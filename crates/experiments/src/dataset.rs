//! The shared measurement dataset: three per-service corpora simulated
//! under the native (Linux 2.6.32) stack and analyzed by TAPO — the
//! simulated counterpart of the paper's 7-day production capture that
//! Sections 2–4 are computed from.
//!
//! The dataset keeps analyses only: it is built on the trace-free
//! [`Engine::analyze`], so no per-flow trace is ever materialized. A
//! caller that needs the records takes them from the serial `workloads`
//! API ([`workloads::synthesize_corpus`]), which samples and seeds flows
//! exactly as the dataset does.

use tapo::{FlowAnalysis, StallBreakdown};
use tcp_sim::recovery::RecoveryMechanism;
use workloads::{sample_population, Service};

use crate::engine::Engine;

/// How large a dataset to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Flows per service.
    pub flows_per_service: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// The default for the `repro` binary: large enough for stable shares.
    pub fn standard() -> Self {
        Scale {
            flows_per_service: 400,
            seed: 2015,
        }
    }

    /// A fast scale for tests and benches.
    pub fn quick() -> Self {
        Scale {
            flows_per_service: 60,
            seed: 2015,
        }
    }
}

/// One service's TAPO analyses and aggregate breakdown.
#[derive(Debug)]
pub struct ServiceData {
    /// The service.
    pub service: Service,
    /// TAPO's per-flow analysis.
    pub analyses: Vec<FlowAnalysis>,
    /// Aggregated stall breakdown.
    pub breakdown: StallBreakdown,
}

/// The full three-service dataset.
#[derive(Debug)]
pub struct Dataset {
    /// Per-service data, in the paper's table order.
    pub services: Vec<ServiceData>,
    /// The scale it was built at.
    pub scale: Scale,
}

impl Dataset {
    /// Sample, simulate and analyze all three services on the given engine
    /// ([`Engine::analyze`]: records stream into TAPO, no trace is kept).
    /// Output is identical at any thread count (see [`crate::engine`]).
    pub fn build_streaming(scale: Scale, engine: &Engine) -> Self {
        let services = Service::ALL
            .iter()
            .map(|&service| {
                let population = sample_population(service, scale.flows_per_service, scale.seed);
                let (_, analyses) =
                    engine.analyze(service, &population, RecoveryMechanism::Native, scale.seed);
                ServiceData {
                    service,
                    breakdown: Engine::breakdown(&analyses),
                    analyses,
                }
            })
            .collect();
        Dataset { services, scale }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_dataset_builds_and_detects_stalls() {
        let scale = Scale {
            flows_per_service: 20,
            seed: 1,
        };
        let ds = Dataset::build_streaming(scale, &Engine::serial());
        let data = ds.services.iter().find(|s| s.service == Service::WebSearch);
        let data = data.expect("web-search service");
        assert_eq!(data.analyses.len(), 20);
        // With 2% bursty loss and back-end delays, some stalls must exist.
        assert!(data.breakdown.total_stalls > 0);
    }
}
