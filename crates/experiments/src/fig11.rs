//! Figures 11 and 12: in-flight size distributions.

use tapo::{Cdf, RetransCause, StallCause};

use crate::dataset::Dataset;
use crate::output::{Figure, Series};

/// Figure 11: CDF of the in-flight size computed on each ACK, per service
/// (log-ish x range 1–100).
pub fn fig11(ds: &Dataset) -> Figure {
    let probes: Vec<f64> = (1..=100).map(|i| i as f64).collect();
    let series = ds
        .services
        .iter()
        .map(|sd| {
            let samples: Vec<f64> = sd
                .analyses
                .iter()
                .flat_map(|a| a.in_flight_on_ack.values().map(f64::from))
                .collect();
            Series {
                name: sd.service.label().to_string(),
                points: Cdf::from_samples(samples).series(&probes),
            }
        })
        .collect();
    Figure {
        id: "fig11".into(),
        title: "In-flight size computed on each ACK".into(),
        x_label: "Number of in-flight packets".into(),
        y_label: "CDF".into(),
        series,
    }
}

/// Figure 12: CDF of the window size (outstanding packets) when
/// continuous-loss stalls happen — cloud storage and software download
/// (web search barely has any, as in the paper).
pub fn fig12(ds: &Dataset) -> Figure {
    let probes: Vec<f64> = (0..=30).map(|i| i as f64).collect();
    let series = ds
        .services
        .iter()
        .filter(|sd| !matches!(sd.service, workloads::Service::WebSearch))
        .map(|sd| {
            let samples: Vec<f64> = sd
                .analyses
                .iter()
                .flat_map(|a| a.stalls.iter())
                .filter(|s| {
                    matches!(
                        s.cause,
                        StallCause::Retransmission(RetransCause::ContinuousLoss)
                    )
                })
                .map(|s| s.snapshot.packets_out as f64)
                .collect();
            Series {
                name: sd.service.label().to_string(),
                points: Cdf::from_samples(samples).series(&probes),
            }
        })
        .collect();
    Figure {
        id: "fig12".into(),
        title: "In-flight size when continuous-loss stalls happen".into(),
        x_label: "Number of in-flight packets in continuous loss".into(),
        y_label: "CDF".into(),
        series,
    }
}
