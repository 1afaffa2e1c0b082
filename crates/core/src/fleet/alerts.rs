//! The fleet's regression-alert record: a fixed-shape row per detected
//! drift, emitted through the same [`ReportSink`](crate::sink::ReportSink)
//! machinery as every other TAPO record so a monitoring pipeline ingests
//! alerts exactly like interval reports.

use crate::json::Out;
use crate::sink::{csv_escape, Record};

/// One detected stall-share regression: either the fleet series drifting
/// above its own EWMA baseline, or one daemon drifting above the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetAlert {
    /// Fleet time bucket the drift was detected in.
    pub bucket: u64,
    /// Bucket start, capture time in microseconds.
    pub start_us: u64,
    /// `"fleet"` for the longitudinal rule, or the drifting daemon's id
    /// for the daemon-vs-fleet rule.
    pub scope: String,
    /// The drifting metric (currently always `"stall_share_us"`).
    pub metric: &'static str,
    /// The metric's value in the alerting bucket, microseconds.
    pub value_us: u64,
    /// The baseline it was compared against (the EWMA for fleet scope,
    /// the fleet-wide share for daemon scope), microseconds.
    pub baseline_us: u64,
    /// The percentage threshold that was exceeded.
    pub threshold_pct: u64,
    /// Flows behind `value_us` (the scope's finalized flows this bucket).
    pub flows: u64,
}

impl FleetAlert {
    /// The fixed CSV header matching [`Record::csv`] for this type.
    pub fn csv_header() -> String {
        "bucket,start_us,scope,metric,value_us,baseline_us,threshold_pct,flows".into()
    }
}

impl Record for FleetAlert {
    fn header(&self) -> String {
        FleetAlert::csv_header()
    }

    fn csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{}",
            self.bucket,
            self.start_us,
            csv_escape(&self.scope),
            self.metric,
            self.value_us,
            self.baseline_us,
            self.threshold_pct,
            self.flows
        )
    }

    fn write_json(&self, out: &mut Out) {
        out.begin_object();
        out.key("kind").str("fleet_alert");
        out.u64_members(&[("bucket", self.bucket), ("start_us", self.start_us)]);
        out.key("scope").str(&self.scope);
        out.key("metric").str(self.metric);
        out.u64_members(&[
            ("value_us", self.value_us),
            ("baseline_us", self.baseline_us),
            ("threshold_pct", self.threshold_pct),
            ("flows", self.flows),
        ]);
        out.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alert_record_shapes_are_fixed() {
        let a = FleetAlert {
            bucket: 7,
            start_us: 7_000_000,
            scope: "fe1".into(),
            metric: "stall_share_us",
            value_us: 90_000,
            baseline_us: 30_000,
            threshold_pct: 100,
            flows: 42,
        };
        assert_eq!(a.header().split(',').count(), a.csv().split(',').count());
        let line = a.json().compact();
        assert!(line.contains("\"kind\":\"fleet_alert\""));
        assert!(line.contains("\"scope\":\"fe1\""));
        assert!(line.contains("\"value_us\":90000"));
    }
}
