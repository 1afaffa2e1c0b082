//! The benchmark's vocabulary: workload names, metric names and units.
//! `BENCHMARK.json` at the repo root declares the same sets (a unit test
//! holds the two together); every metric a run prints comes from here.

/// Which pipeline a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    Live(LiveMode),
    Fleet,
    Engine,
}

/// How the live pipeline is configured and fed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveMode {
    /// `LiveConfig::default()`: one inline shard, every flow heavy.
    Heavy,
    /// Two-tier monitoring, one inline shard, cap of a million flows.
    TwoTier,
    /// The two-tier config fed open-loop at [`PACED_PKTS_PER_S`].
    Paced,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub pipeline: Pipeline,
    /// What `items_per_s` counts on this workload.
    pub item: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "live_heavy",
        pipeline: Pipeline::Live(LiveMode::Heavy),
        item: "packets",
    },
    Workload {
        name: "live_two_tier",
        pipeline: Pipeline::Live(LiveMode::TwoTier),
        item: "packets",
    },
    Workload {
        name: "live_paced",
        pipeline: Pipeline::Live(LiveMode::Paced),
        item: "packets",
    },
    Workload {
        name: "fleet_aggregate",
        pipeline: Pipeline::Fleet,
        item: "interval records",
    },
    Workload {
        name: "engine_offline",
        pipeline: Pipeline::Engine,
        item: "flows",
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Open-loop offered rate of `live_paced`.
pub const PACED_PKTS_PER_S: f64 = 500_000.0;
/// The latency limit on a paced report. The tail percentile sits an order
/// of magnitude below it; single reports beyond it are counted and printed
/// but are not failures (a vCPU taken away for 5 ms is not the program's).
pub const REPORT_LAG_LIMIT_MS: f64 = 5.0;
/// A paced pass that ends further behind schedule than this did not
/// sustain the rate; the run says so.
pub const FINAL_BACKLOG_LIMIT_MS: f64 = 10.0;
/// Σ staged layer time ÷ tracing-off wall must land in this band on the
/// workload's own pipeline, or the full set fails.
pub const RECONCILE_BAND: (f64, f64) = (0.90, 1.10);

pub fn reconciles(ratio: f64) -> bool {
    (RECONCILE_BAND.0..=RECONCILE_BAND.1).contains(&ratio)
}

/// `(name, unit)` of every end-to-end metric; a `--trace 0` run prints
/// exactly these.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("report_lag_ms_p50", "ms"),
    ("report_lag_ms_tail", "ms"),
    ("peak_heap_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric; a `--trace 1` run prints
/// exactly these. Names are `<crate>.<module>.<metric>`. Unit `count` is
/// kept for tallies the program makes of its own work, which must repeat
/// exactly on the same seed; tallies that depend on timing (`calls`,
/// `spans`) have units of their own.
pub const PER_LAYER: [(&str, &str); 58] = [
    // Live pipeline, staged: reader.
    ("trace.pcap.ns_per_pkt", "ns"),
    ("trace.pcap.mib_per_s", "MiB/s"),
    ("trace.pcap.allocs_per_kpkt", "count"),
    ("trace.pcap.skipped_share", "share"),
    // Open-loop reader bookkeeping (one paced pass).
    ("trace.pcap.reads", "calls"),
    ("trace.pcap.backlog_ms_max", "ms"),
    // Live pipeline, staged: shard engine.
    ("live.shard.ns_per_pkt", "ns"),
    ("live.shard.allocs_per_kpkt", "count"),
    ("live.shard.cut_us", "us"),
    ("live.shard.eof_ms", "ms"),
    ("live.shard.late_share", "share"),
    ("live.shard.shed_share", "share"),
    ("live.shard.promotions", "count"),
    ("live.shard.demotions", "count"),
    ("live.shard.promotion_denied_share", "share"),
    ("live.shard.max_active_flows", "count"),
    ("live.shard.max_heavy_flows", "count"),
    // Live pipeline, staged: report.
    ("live.report.render_us", "us"),
    ("live.report.bytes_per_report", "count"),
    // Live pipeline: what the pieces leave unexplained.
    ("live.driver.pkts", "count"),
    ("live.driver.self_ns_per_pkt", "ns"),
    ("live.driver.reconcile_ratio", "ratio"),
    ("live.driver.trace_overhead_ratio", "ratio"),
    ("live.driver.shard_speedup", "ratio"),
    ("live.driver.cpu_ns_per_pkt", "ns"),
    // Live probes: one pub type driven alone.
    ("live.monitor.update_ns_per_rec", "ns"),
    ("core.stream.push_ns_per_rec", "ns"),
    ("core.stream.finish_us_per_flow", "us"),
    ("fleet.sketch.insert_ns", "ns"),
    ("fleet.sketch.merge_ns", "ns"),
    ("live.ring.handoff_ns_per_batch", "ns"),
    ("live.fnv.cell_of_ns_per_pkt", "ns"),
    // Fleet pipeline, staged.
    ("fleet.ingest.records", "count"),
    ("fleet.ingest.us_per_record", "us"),
    ("fleet.ingest.mib_per_s", "MiB/s"),
    ("fleet.ingest.allocs_per_record", "count"),
    ("fleet.merge.us_per_record", "us"),
    ("fleet.merge.buckets", "count"),
    ("fleet.merge.alerts", "count"),
    ("sink.render_us_per_record", "us"),
    ("fleet.reconcile_ratio", "ratio"),
    ("fleet.trace_overhead_ratio", "ratio"),
    // Fleet probes.
    ("report.parse.us_per_line", "us"),
    ("json.parse_us_per_line", "us"),
    ("fleet.drift.observe_us_per_bucket", "us"),
    // Offline engine, staged.
    ("experiments.engine.flows", "count"),
    ("workloads.corpus.sample_us_per_flow", "us"),
    ("tcp.sim.us_per_flow", "us"),
    ("tcp.sim.ns_per_record", "ns"),
    ("tcp.sim.records_per_flow", "count"),
    ("core.stream.analyze_us_per_flow", "us"),
    ("core.stream.analyze_ns_per_record", "ns"),
    ("experiments.engine.reconcile_ratio", "ratio"),
    ("experiments.engine.trace_overhead_ratio", "ratio"),
    ("experiments.engine.allocs_per_flow", "count"),
    ("experiments.engine.speedup_2t", "ratio"),
    // Engine probe.
    ("simnet.event.push_pop_ns", "ns"),
    // Traced run as a whole.
    ("trace.spans", "spans"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tapo::json::Json;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
    }

    fn declared(doc: &Json, section: &str, key: &str) -> Vec<String> {
        doc.get(section)
            .and_then(Json::items)
            .unwrap_or_else(|| panic!("BENCHMARK.json: no {section}"))
            .iter()
            .map(|m| m.get(key).and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names_and_units() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let ours = |xs: &[(&str, &str)], i: usize| -> Vec<String> {
            xs.iter()
                .map(|m| [m.0, m.1][i].to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            declared(&doc, "workloads", "name"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(declared(&doc, "end_to_end", "name"), ours(&END_TO_END, 0));
        assert_eq!(declared(&doc, "end_to_end", "unit"), ours(&END_TO_END, 1));
        assert_eq!(declared(&doc, "per_layer", "name"), ours(&PER_LAYER, 0));
        assert_eq!(declared(&doc, "per_layer", "unit"), ours(&PER_LAYER, 1));
        for m in doc.get("end_to_end").and_then(Json::items).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let paths: Vec<&str> = doc
            .get("paths")
            .and_then(Json::items)
            .unwrap()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }
}
