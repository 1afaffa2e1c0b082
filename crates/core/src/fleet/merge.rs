//! Canonical-order merge: parsed interval records → fleet time buckets.
//!
//! One accumulator, [`FleetFold`], holds the buckets themselves: each
//! record folds straight into its bucket's [`FleetInterval`] (classes,
//! ports, sketches) and its counters into that bucket's per-daemon slice,
//! so the fold's memory is O(buckets × daemons) however many records
//! stream through it. [`aggregate`] is the same fold over a slice.
//!
//! Every fold here is either commutative integer addition or a
//! [`QSketch`] merge (bucket-count vector addition, itself commutative),
//! and the presentation order is fixed — buckets ascending by `BTreeMap`
//! iteration, daemon ids and ports ascending in sorted lists. The aggregate
//! is therefore a pure function of the *multiset* of input records: arrival
//! interleaving, file boundaries, and parse-thread count cannot perturb a
//! byte of the output.

use std::collections::{BTreeMap, BTreeSet};

use workloads::Service;

use crate::advise::{attribute_ports, Observations};
use crate::causes::{RetransClass, StallClass};
use crate::json::Out;
use crate::live::{class_slug, merge_by_port, write_breakdown, write_by_port, PortDelta};
use crate::report::key;
use crate::report::parse::ParsedInterval;
use crate::sink::Record;

use super::alerts::FleetAlert;
use super::drift::{DriftConfig, DriftDetector};
use super::sketch::QSketch;

/// Fleet aggregation knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Fleet bucket width in microseconds; a record lands in the bucket
    /// containing its interval start.
    pub bucket_us: u64,
    /// Worker threads for input parsing; 0 = all available. Cannot change
    /// the output (parse results fold in line order).
    pub threads: usize,
    /// Drift-detection rule parameters.
    pub drift: DriftConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            bucket_us: 1_000_000,
            threads: 0,
            drift: DriftConfig::default(),
        }
    }
}

/// One daemon's slice of one fleet bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonSlice {
    /// Interval records merged into this slice.
    pub records: u64,
    /// Packets the daemon processed.
    pub packets: u64,
    /// Flows the daemon finalized.
    pub flows_finalized: u64,
    /// Stalls the daemon diagnosed.
    pub stalls: u64,
    /// Total stalled time, microseconds.
    pub stalled_us: u64,
}

impl DaemonSlice {
    /// Stalled microseconds per finalized flow — the drift metric.
    pub fn stall_share_us(&self) -> u64 {
        self.stalled_us / self.flows_finalized.max(1)
    }
}

/// One fleet-wide time bucket: the merge of every daemon's interval
/// records whose start falls inside it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetInterval {
    /// Bucket index: `start_us / bucket_us`.
    pub bucket: u64,
    /// Bucket start (inclusive), capture time in microseconds.
    pub start_us: u64,
    /// Bucket end (exclusive), capture time in microseconds.
    pub end_us: u64,
    /// Interval records merged.
    pub records: u64,
    /// Packets processed fleet-wide.
    pub packets: u64,
    /// Flows finalized fleet-wide.
    pub flows_finalized: u64,
    /// Stalls diagnosed fleet-wide.
    pub stalls: u64,
    /// Total stalled time fleet-wide, microseconds.
    pub stalled_us: u64,
    /// Per top-level stall class `(count, microseconds)`, indexed like
    /// [`StallClass::ALL`].
    pub by_cause: [(u64, u64); StallClass::ALL.len()],
    /// Per retransmission subclass, indexed like [`RetransClass::ALL`].
    pub by_retrans: [(u64, u64); RetransClass::ALL.len()],
    /// Per-server-port fold, ascending port order.
    pub by_port: Vec<(u16, PortDelta)>,
    /// Merged RTT-sample sketch (empty when no input carried sketches).
    pub rtt_sketch: QSketch,
    /// Merged stall-duration sketch, same caveat.
    pub stall_sketch: QSketch,
    /// Per-daemon slices, ascending daemon-id order.
    pub per_daemon: Vec<(String, DaemonSlice)>,
}

impl FleetInterval {
    /// Distinct daemons contributing to this bucket.
    pub fn daemons(&self) -> u64 {
        self.per_daemon.len() as u64
    }

    /// Fleet-wide stalled microseconds per finalized flow.
    pub fn stall_share_us(&self) -> u64 {
        self.stalled_us / self.flows_finalized.max(1)
    }
}

/// The `"quantiles"` section: nearest-rank quantile summaries of the
/// merged sketches. The fleet record carries the *answers* (p50/p90/p99),
/// not the sketches themselves — the fleet is the end of the aggregation
/// chain.
fn write_quantiles(out: &mut Out, rtt: &QSketch, stall: &QSketch) {
    out.begin_object();
    for (name, s) in [(key::RTT_US, rtt), (key::STALL_US, stall)] {
        let q = |p: f64| s.quantile(p).unwrap_or(0);
        out.key(name).begin_object();
        out.u64_members(&[
            (key::N, s.count()),
            ("p50_us", q(0.50)),
            ("p90_us", q(0.90)),
            ("p99_us", q(0.99)),
        ]);
        out.end_object();
    }
    out.end_object();
}

fn quantile_csv(row: &mut String, s: &QSketch) {
    let q = |p: f64| s.quantile(p).unwrap_or(0);
    row.push_str(&format!(
        ",{},{},{},{}",
        s.count(),
        q(0.50),
        q(0.90),
        q(0.99)
    ));
}

/// Shared tail of the interval/summary CSV headers: per-class columns,
/// then the two quantile blocks.
fn csv_header_tail(h: &mut String) {
    for c in StallClass::ALL {
        h.push_str(&format!(",{0}_n,{0}_us", class_slug(c)));
    }
    h.push_str(",rtt_n,rtt_p50_us,rtt_p90_us,rtt_p99_us");
    h.push_str(",stall_n,stall_p50_us,stall_p90_us,stall_p99_us");
}

fn csv_row_tail(
    row: &mut String,
    by_cause: &[(u64, u64); StallClass::ALL.len()],
    rtt: &QSketch,
    stall: &QSketch,
) {
    for (n, us) in by_cause {
        row.push_str(&format!(",{n},{us}"));
    }
    quantile_csv(row, rtt);
    quantile_csv(row, stall);
}

impl FleetInterval {
    /// The fixed CSV header matching [`Record::csv`] for this type.
    pub fn csv_header() -> String {
        let mut h = String::from(
            "bucket,start_us,end_us,daemons,records,packets,\
             flows_finalized,stalls,stalled_us,stall_share_us",
        );
        csv_header_tail(&mut h);
        h
    }
}

impl Record for FleetInterval {
    fn header(&self) -> String {
        FleetInterval::csv_header()
    }

    fn csv(&self) -> String {
        let mut row = format!(
            "{},{},{},{},{},{},{},{},{},{}",
            self.bucket,
            self.start_us,
            self.end_us,
            self.daemons(),
            self.records,
            self.packets,
            self.flows_finalized,
            self.stalls,
            self.stalled_us,
            self.stall_share_us(),
        );
        csv_row_tail(
            &mut row,
            &self.by_cause,
            &self.rtt_sketch,
            &self.stall_sketch,
        );
        row
    }

    fn write_json(&self, out: &mut Out) {
        out.begin_object();
        out.key(key::KIND).str("fleet_interval");
        out.u64_members(&[
            ("bucket", self.bucket),
            (key::START_US, self.start_us),
            (key::END_US, self.end_us),
            ("daemons", self.daemons()),
            ("records", self.records),
            (key::PACKETS, self.packets),
            (key::FLOWS_FINALIZED, self.flows_finalized),
            (key::STALLS, self.stalls),
            (key::STALLED_US, self.stalled_us),
            ("stall_share_us", self.stall_share_us()),
        ]);
        write_breakdown(
            out.key(key::BREAKDOWN),
            self.stalls,
            self.stalled_us,
            &self.by_cause,
            &self.by_retrans,
        );
        write_by_port(out.key(key::BY_PORT), &self.by_port);
        out.key("by_daemon").begin_object();
        for (id, d) in &self.per_daemon {
            out.escaped_key(id).begin_object();
            out.u64_members(&[
                ("records", d.records),
                (key::PACKETS, d.packets),
                (key::FLOWS_FINALIZED, d.flows_finalized),
                (key::STALLS, d.stalls),
                (key::STALLED_US, d.stalled_us),
                ("stall_share_us", d.stall_share_us()),
            ]);
            out.end_object();
        }
        out.end_object();
        write_quantiles(out.key("quantiles"), &self.rtt_sketch, &self.stall_sketch);
        out.end_object();
    }
}

/// Whole-run fleet totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSummary {
    /// Non-empty fleet buckets emitted.
    pub buckets: u64,
    /// Distinct daemons seen across the whole run.
    pub daemons: u64,
    /// Interval records merged.
    pub records: u64,
    /// Well-formed non-interval lines skipped (summaries).
    pub skipped: u64,
    /// Packets processed fleet-wide.
    pub packets: u64,
    /// Flows finalized fleet-wide.
    pub flows_finalized: u64,
    /// Stalls diagnosed fleet-wide.
    pub stalls: u64,
    /// Total stalled time, microseconds.
    pub stalled_us: u64,
    /// Drift alerts emitted.
    pub alerts: u64,
    /// Per top-level stall class, indexed like [`StallClass::ALL`].
    pub by_cause: [(u64, u64); StallClass::ALL.len()],
    /// Per retransmission subclass, indexed like [`RetransClass::ALL`].
    pub by_retrans: [(u64, u64); RetransClass::ALL.len()],
    /// Whole-run per-port fold, ascending port order.
    pub by_port: Vec<(u16, PortDelta)>,
    /// Whole-run merged RTT sketch.
    pub rtt_sketch: QSketch,
    /// Whole-run merged stall-duration sketch.
    pub stall_sketch: QSketch,
}

impl FleetSummary {
    /// The fixed CSV header matching [`Record::csv`] for this type.
    pub fn csv_header() -> String {
        let mut h = String::from(
            "buckets,daemons,records,skipped,packets,\
             flows_finalized,stalls,stalled_us,alerts",
        );
        csv_header_tail(&mut h);
        h
    }

    /// The advisor's view of the merged fleet: per-service rollups of the
    /// whole-run `by_port` fold, ready for
    /// [`crate::advise::advise`] — the same counterfactual path a single
    /// daemon's reports feed.
    pub fn observations(&self) -> Observations {
        let mut obs = Observations {
            intervals: self.records,
            skipped: self.skipped,
            ..Observations::default()
        };
        attribute_ports(&mut obs, &self.by_port);
        obs
    }
}

impl Record for FleetSummary {
    fn header(&self) -> String {
        FleetSummary::csv_header()
    }

    fn csv(&self) -> String {
        let mut row = format!(
            "{},{},{},{},{},{},{},{},{}",
            self.buckets,
            self.daemons,
            self.records,
            self.skipped,
            self.packets,
            self.flows_finalized,
            self.stalls,
            self.stalled_us,
            self.alerts,
        );
        csv_row_tail(
            &mut row,
            &self.by_cause,
            &self.rtt_sketch,
            &self.stall_sketch,
        );
        row
    }

    fn write_json(&self, out: &mut Out) {
        let obs = self.observations();
        out.begin_object();
        out.key(key::KIND).str("fleet_summary");
        out.u64_members(&[
            ("buckets", self.buckets),
            ("daemons", self.daemons),
            ("records", self.records),
            ("skipped", self.skipped),
            (key::PACKETS, self.packets),
            (key::FLOWS_FINALIZED, self.flows_finalized),
            (key::STALLS, self.stalls),
            (key::STALLED_US, self.stalled_us),
            ("alerts", self.alerts),
        ]);
        write_breakdown(
            out.key(key::BREAKDOWN),
            self.stalls,
            self.stalled_us,
            &self.by_cause,
            &self.by_retrans,
        );
        write_by_port(out.key(key::BY_PORT), &self.by_port);
        out.key("by_service").begin_object();
        for (service, o) in Service::ALL.iter().zip(&obs.per_service) {
            out.key(service.label()).begin_object();
            out.u64_members(&[
                (key::FLOWS, o.flows),
                (key::STALLS, o.stalls),
                (key::STALLED_US, o.stalled_us),
            ]);
            out.end_object();
        }
        out.end_object();
        out.key("unmapped_flows").u64(obs.unmapped_flows);
        write_quantiles(out.key("quantiles"), &self.rtt_sketch, &self.stall_sketch);
        out.end_object();
    }
}

/// Everything one fleet aggregation produces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetOutcome {
    /// Non-empty fleet buckets, ascending.
    pub intervals: Vec<FleetInterval>,
    /// Drift alerts, in bucket order (fleet scope before daemon scopes
    /// within a bucket).
    pub alerts: Vec<FleetAlert>,
    /// Whole-run totals.
    pub summary: FleetSummary,
}

/// Element-wise sum of per-class `(count, microseconds)` arrays.
fn add_classes(into: &mut [(u64, u64)], from: &[(u64, u64)]) {
    for (e, o) in into.iter_mut().zip(from) {
        e.0 += o.0;
        e.1 += o.1;
    }
}

/// The fleet fold: every record goes straight into its bucket, so the
/// state is the buckets themselves — O(buckets × daemons), not O(records).
///
/// A record adds its classes, ports and sketches to its bucket's
/// [`FleetInterval`] and its five counters to that bucket's `per_daemon`
/// slice (kept sorted by id); [`FleetFold::finish`] sums the slices into
/// each bucket's totals, runs drift detection and folds the summary. Every
/// fold is integer addition or a [`QSketch`] merge, so records may come in
/// any order and the outcome is the same.
#[derive(Debug)]
pub struct FleetFold {
    bucket_us: u64,
    drift: DriftConfig,
    buckets: BTreeMap<u64, FleetInterval>,
}

impl FleetFold {
    /// An empty fold under `cfg`'s bucket width and drift rule.
    pub fn new(cfg: &FleetConfig) -> Self {
        FleetFold {
            bucket_us: cfg.bucket_us.max(1),
            drift: cfg.drift,
            buckets: BTreeMap::new(),
        }
    }

    /// Fold one record into its bucket.
    pub fn fold(&mut self, rec: &ParsedInterval) {
        self.fold_run(std::slice::from_ref(rec));
    }

    /// Fold records that share one bucket and one daemon: the bucket and
    /// the daemon's slice are looked up once for all of them.
    fn fold_run(&mut self, run: &[ParsedInterval]) {
        let bucket_us = self.bucket_us;
        let bucket = run[0].start_us / bucket_us;
        let iv = self.buckets.entry(bucket).or_insert_with(|| FleetInterval {
            bucket,
            start_us: bucket * bucket_us,
            end_us: (bucket + 1) * bucket_us,
            ..FleetInterval::default()
        });
        let daemon = run[0].daemon.as_str();
        let at = match iv
            .per_daemon
            .binary_search_by(|(id, _)| id.as_str().cmp(daemon))
        {
            Ok(at) => at,
            Err(at) => {
                iv.per_daemon
                    .insert(at, (daemon.to_string(), DaemonSlice::default()));
                at
            }
        };
        for rec in run {
            let slice = &mut iv.per_daemon[at].1;
            slice.records += 1;
            slice.packets += rec.packets;
            slice.flows_finalized += rec.flows_finalized;
            slice.stalls += rec.stalls;
            slice.stalled_us += rec.stalled_us;
            rec.classes.add_to(&mut iv.by_cause, &mut iv.by_retrans);
            merge_by_port(&mut iv.by_port, &rec.by_port);
            if let Some(s) = &rec.rtt_sketch {
                iv.rtt_sketch.merge(s);
            }
            if let Some(s) = &rec.stall_sketch {
                iv.stall_sketch.merge(s);
            }
        }
    }

    /// Total each bucket over its daemons, run drift detection in bucket
    /// order, and fold the whole-run summary; `skipped` is the count of
    /// non-interval lines the input held.
    pub fn finish(self, skipped: u64) -> FleetOutcome {
        let mut detector = DriftDetector::new(self.drift);
        let mut intervals = Vec::with_capacity(self.buckets.len());
        let mut alerts = Vec::new();
        let mut summary = FleetSummary {
            skipped,
            ..FleetSummary::default()
        };
        for mut iv in self.buckets.into_values() {
            for (_, d) in &iv.per_daemon {
                iv.records += d.records;
                iv.packets += d.packets;
                iv.flows_finalized += d.flows_finalized;
                iv.stalls += d.stalls;
                iv.stalled_us += d.stalled_us;
            }

            summary.records += iv.records;
            summary.packets += iv.packets;
            summary.flows_finalized += iv.flows_finalized;
            summary.stalls += iv.stalls;
            summary.stalled_us += iv.stalled_us;
            add_classes(&mut summary.by_cause, &iv.by_cause);
            add_classes(&mut summary.by_retrans, &iv.by_retrans);
            merge_by_port(&mut summary.by_port, &iv.by_port);
            summary.rtt_sketch.merge(&iv.rtt_sketch);
            summary.stall_sketch.merge(&iv.stall_sketch);

            alerts.extend(detector.observe(&iv));
            intervals.push(iv);
        }

        let daemons: BTreeSet<&str> = intervals
            .iter()
            .flat_map(|iv| iv.per_daemon.iter().map(|(id, _)| id.as_str()))
            .collect();
        summary.daemons = daemons.len() as u64;
        summary.buckets = intervals.len() as u64;
        summary.alerts = alerts.len() as u64;

        FleetOutcome {
            intervals,
            alerts,
            summary,
        }
    }
}

/// Merge parsed interval records into fleet buckets, run drift detection,
/// and fold the whole-run summary: a [`FleetFold`] over the slice.
///
/// Output is a pure function of the record multiset and `cfg` — see the
/// module docs for why no input ordering can change a byte of it. A
/// daemon's stream is time-ordered, so consecutive records mostly share a
/// `(bucket, daemon)` key: the bucket and the daemon's slice are searched
/// once per such run.
pub fn aggregate(records: &[ParsedInterval], skipped: u64, cfg: &FleetConfig) -> FleetOutcome {
    let mut fold = FleetFold::new(cfg);
    let bucket_us = fold.bucket_us;
    let same_key = |a: &ParsedInterval, b: &ParsedInterval| {
        a.start_us / bucket_us == b.start_us / bucket_us && a.daemon == b.daemon
    };
    for run in records.chunk_by(same_key) {
        fold.fold_run(run);
    }
    fold.finish(skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::read_reports;
    use crate::live::{self, DaemonId, LiveConfig};
    use crate::report::parse::{ClassStats, CLASS_SLOTS};
    use simnet::rng::splitmix64;
    use simnet::time::SimDuration;
    use workloads::{daemon_specs, generate_interleaved, LiveGenSpec};

    /// Per-(bucket, daemon) accumulator of [`aggregate_reference`].
    #[derive(Debug, Default)]
    struct Acc {
        slice: DaemonSlice,
        by_cause: [(u64, u64); StallClass::ALL.len()],
        by_retrans: [(u64, u64); RetransClass::ALL.len()],
        by_port: Vec<(u16, PortDelta)>,
        rtt: QSketch,
        stall: QSketch,
    }

    impl Acc {
        fn fold(&mut self, rec: &ParsedInterval) {
            self.slice.records += 1;
            self.slice.packets += rec.packets;
            self.slice.flows_finalized += rec.flows_finalized;
            self.slice.stalls += rec.stalls;
            self.slice.stalled_us += rec.stalled_us;
            let cause = StallClass::ALL.map(|c| rec.classes.cause(c));
            let retrans = RetransClass::ALL.map(|c| rec.classes.retrans(c));
            add_classes(&mut self.by_cause, &cause);
            add_classes(&mut self.by_retrans, &retrans);
            merge_by_port(&mut self.by_port, &rec.by_port);
            if let Some(s) = &rec.rtt_sketch {
                self.rtt.merge(s);
            }
            if let Some(s) = &rec.stall_sketch {
                self.stall.merge(s);
            }
        }
    }

    /// The aggregate [`FleetFold`] is held to: records grouped into one
    /// accumulator per (bucket, daemon) first, each merged into its
    /// bucket afterwards, in bucket and daemon-id order.
    fn aggregate_reference(
        records: &[ParsedInterval],
        skipped: u64,
        cfg: &FleetConfig,
    ) -> FleetOutcome {
        let bucket_us = cfg.bucket_us.max(1);
        let mut grouped: BTreeMap<u64, BTreeMap<&str, Acc>> = BTreeMap::new();
        for rec in records {
            grouped
                .entry(rec.start_us / bucket_us)
                .or_default()
                .entry(rec.daemon.as_str())
                .or_default()
                .fold(rec);
        }
        let mut detector = DriftDetector::new(cfg.drift);
        let mut intervals = Vec::new();
        let mut alerts = Vec::new();
        let mut all_daemons: BTreeSet<&str> = BTreeSet::new();
        let mut summary = FleetSummary {
            records: records.len() as u64,
            skipped,
            ..FleetSummary::default()
        };
        for (bucket, daemons) in &grouped {
            let mut iv = FleetInterval {
                bucket: *bucket,
                start_us: bucket * bucket_us,
                end_us: (bucket + 1) * bucket_us,
                ..FleetInterval::default()
            };
            for (id, acc) in daemons {
                all_daemons.insert(id);
                iv.records += acc.slice.records;
                iv.packets += acc.slice.packets;
                iv.flows_finalized += acc.slice.flows_finalized;
                iv.stalls += acc.slice.stalls;
                iv.stalled_us += acc.slice.stalled_us;
                add_classes(&mut iv.by_cause, &acc.by_cause);
                add_classes(&mut iv.by_retrans, &acc.by_retrans);
                merge_by_port(&mut iv.by_port, &acc.by_port);
                iv.rtt_sketch.merge(&acc.rtt);
                iv.stall_sketch.merge(&acc.stall);
                iv.per_daemon.push((id.to_string(), acc.slice));
            }
            summary.packets += iv.packets;
            summary.flows_finalized += iv.flows_finalized;
            summary.stalls += iv.stalls;
            summary.stalled_us += iv.stalled_us;
            add_classes(&mut summary.by_cause, &iv.by_cause);
            add_classes(&mut summary.by_retrans, &iv.by_retrans);
            merge_by_port(&mut summary.by_port, &iv.by_port);
            summary.rtt_sketch.merge(&iv.rtt_sketch);
            summary.stall_sketch.merge(&iv.stall_sketch);
            alerts.extend(detector.observe(&iv));
            intervals.push(iv);
        }
        summary.buckets = intervals.len() as u64;
        summary.daemons = all_daemons.len() as u64;
        summary.alerts = alerts.len() as u64;
        FleetOutcome {
            intervals,
            alerts,
            summary,
        }
    }

    /// Three real daemons' parsed records, daemon after daemon, and the
    /// summary lines skipped: each daemon runs `tapo live` at 250 ms
    /// intervals over its own capture, as `tests/fleet_determinism.rs`
    /// does.
    fn daemon_records() -> (Vec<ParsedInterval>, u64) {
        let base = LiveGenSpec {
            flows_per_service: 4,
            seed: 0xf1ee7,
            mean_gap: SimDuration::from_millis(5),
            threads: 1,
            ..LiveGenSpec::default()
        };
        let mut lines = String::new();
        for (id, spec) in daemon_specs(&base, 3) {
            let mut capture = Vec::new();
            generate_interleaved(&mut capture, &spec).unwrap();
            let cfg = LiveConfig {
                daemon_id: DaemonId::new(&id).unwrap(),
                interval: SimDuration::from_millis(250),
                ..LiveConfig::default()
            };
            let summary = live::run(&capture[..], &cfg, |r| {
                lines.push_str(&r.to_json().compact());
                lines.push('\n');
            })
            .unwrap();
            lines.push_str(&summary.to_json().compact());
            lines.push('\n');
        }
        read_reports("-", lines.as_bytes(), 1).unwrap()
    }

    #[test]
    fn fold_equals_the_per_daemon_accumulator_reference() {
        let (mut records, skipped) = daemon_records();
        assert_eq!(skipped, 3);
        // Copies of every fifth record with stalls in one to three classes,
        // causes and retransmission subclasses alike.
        let sparse: Vec<ParsedInterval> = records
            .iter()
            .step_by(5)
            .enumerate()
            .map(|(i, r)| {
                let mut slots = [(0, 0); CLASS_SLOTS];
                for k in 0..=i % 3 {
                    slots[(i + 5 * k) % CLASS_SLOTS] = (k as u64 + 1, 1_000 * i as u64 + 7);
                }
                ParsedInterval {
                    classes: ClassStats::new(&slots),
                    ..r.clone()
                }
            })
            .collect();
        assert!(sparse.len() > 10);
        records.extend(sparse);
        for bucket_us in [1_000_000, 250_000, 3_000_000] {
            let cfg = FleetConfig {
                bucket_us,
                ..FleetConfig::default()
            };
            let want = aggregate_reference(&records, skipped, &cfg);
            assert_eq!(want.summary.daemons, 3);
            assert!(want.intervals.len() > 2, "{bucket_us}");
            assert!(want.intervals.iter().any(|iv| iv.stall_sketch.count() > 0));
            // Fisher-Yates under a fixed seed: every daemon's runs split.
            let mut shuffled = records.clone();
            let mut state = bucket_us;
            for i in (1..shuffled.len()).rev() {
                state = splitmix64(state);
                shuffled.swap(i, (state % (i as u64 + 1)) as usize);
            }
            for (order, recs) in [("in order", &records), ("shuffled", &shuffled)] {
                assert_eq!(aggregate(recs, skipped, &cfg), want, "{bucket_us} {order}");
                let mut fold = FleetFold::new(&cfg);
                for rec in recs {
                    fold.fold(rec);
                }
                let one_by_one = fold.finish(skipped);
                assert_eq!(one_by_one, want, "{bucket_us} {order}, one record per fold");
                assert_eq!(render(&one_by_one), render(&want), "{bucket_us} {order}");
            }
        }
    }

    /// A hand-built record: `daemon` at `start_us` with `flows` finalized,
    /// `stalled_us` of stall time on port 80, and a stall sketch holding
    /// one sample of that duration.
    fn rec(daemon: &str, start_us: u64, flows: u64, stalled_us: u64) -> ParsedInterval {
        let stalls = u64::from(stalled_us > 0);
        let mut stall_sketch = QSketch::new();
        if stalled_us > 0 {
            stall_sketch.insert(stalled_us);
        }
        let mut slots = [(0, 0); CLASS_SLOTS];
        slots[StallClass::Retransmission.index()] = (stalls, stalled_us);
        ParsedInterval {
            daemon: daemon.to_string(),
            interval: start_us / 1_000_000,
            start_us,
            end_us: start_us + 1_000_000,
            packets: 100,
            flows_finalized: flows,
            stalls,
            stalled_us,
            classes: ClassStats::new(&slots),
            by_port: vec![(
                80,
                PortDelta {
                    flows,
                    stalls,
                    stalled_us,
                },
            )],
            rtt_sketch: Some(QSketch::new()),
            stall_sketch: Some(stall_sketch),
        }
    }

    fn render(out: &FleetOutcome) -> String {
        let mut s = String::new();
        for iv in &out.intervals {
            s.push_str(&iv.json().compact());
            s.push('\n');
        }
        for a in &out.alerts {
            s.push_str(&a.json().compact());
            s.push('\n');
        }
        s.push_str(&out.summary.json().compact());
        s.push('\n');
        s
    }

    #[test]
    fn aggregate_is_input_order_invariant() {
        let mut records = Vec::new();
        for daemon in ["fe1", "fe2", "fe3"] {
            for b in 0..6u64 {
                // Two records per (bucket, daemon), both with RTT samples.
                for half in [250_000, 750_000] {
                    let mut r = rec(daemon, b * 1_000_000 + half, 10, 40_000 * (b + 1));
                    let rtt = r.rtt_sketch.as_mut().expect("rec carries sketches");
                    rtt.insert(20_000 + half / 10 + b);
                    records.push(r);
                }
            }
        }
        let cfg = FleetConfig::default();
        let sorted = aggregate(&records, 3, &cfg);
        // Reverse, interleave, rotate: same multiset, different orders.
        // Interleaving the daemons splits every run of one key, so each
        // key's second record lands on an accumulator that already exists.
        let mut reversed = records.clone();
        reversed.reverse();
        let mut rotated = records.clone();
        rotated.rotate_left(7);
        let per_daemon = records.len() / 3;
        let interleaved: Vec<ParsedInterval> = (0..records.len())
            .map(|i| records[i % 3 * per_daemon + i / 3].clone())
            .collect();
        let shuffles = [
            ("reversed", reversed),
            ("rotated", rotated),
            ("interleaved", interleaved),
        ];
        for (name, shuffled) in shuffles {
            let other = aggregate(&shuffled, 3, &cfg);
            assert_eq!(sorted, other, "{name}");
            assert_eq!(render(&sorted), render(&other), "{name} bytes");
        }
    }

    #[test]
    fn buckets_align_daemons_and_fold_everything() {
        // Two daemons reporting half-second intervals: both halves of
        // second 0 land in fleet bucket 0.
        let records = vec![
            rec("fe2", 0, 4, 8_000),
            rec("fe1", 500_000, 6, 0),
            rec("fe1", 0, 10, 2_000),
        ];
        let out = aggregate(&records, 0, &FleetConfig::default());
        assert_eq!(out.intervals.len(), 1);
        let iv = &out.intervals[0];
        assert_eq!(iv.bucket, 0);
        assert_eq!(iv.daemons(), 2);
        assert_eq!(iv.records, 3);
        assert_eq!(iv.flows_finalized, 20);
        assert_eq!(iv.stalled_us, 10_000);
        assert_eq!(iv.stall_share_us(), 500);
        // Canonical daemon order, merged slices.
        assert_eq!(iv.per_daemon[0].0, "fe1");
        assert_eq!(iv.per_daemon[0].1.flows_finalized, 16);
        assert_eq!(iv.per_daemon[1].0, "fe2");
        assert_eq!(iv.per_daemon[1].1.stalled_us, 8_000);
        // Port fold and sketch fold follow.
        assert_eq!(
            iv.by_port,
            vec![(
                80,
                PortDelta {
                    flows: 20,
                    stalls: 2,
                    stalled_us: 10_000
                }
            )]
        );
        assert_eq!(iv.stall_sketch.count(), 2);
        let retr = iv.by_cause[StallClass::Retransmission.index()];
        assert_eq!(retr, (2, 10_000));
        // Summary mirrors the single bucket.
        assert_eq!(out.summary.buckets, 1);
        assert_eq!(out.summary.daemons, 2);
        assert_eq!(out.summary.stalled_us, 10_000);
        assert_eq!(out.summary.stall_sketch.count(), 2);
    }

    #[test]
    fn summary_observations_feed_the_advisor() {
        let records = vec![rec("fe1", 0, 12, 5_000), rec("fe2", 1_000_000, 8, 3_000)];
        let out = aggregate(&records, 1, &FleetConfig::default());
        let obs = out.summary.observations();
        assert_eq!(obs.intervals, 2);
        assert_eq!(obs.skipped, 1);
        // Port 80 is web search in the service map.
        let web = Service::ALL
            .iter()
            .position(|s| *s == Service::WebSearch)
            .unwrap();
        assert_eq!(obs.per_service[web].flows, 20);
        assert_eq!(obs.per_service[web].stalled_us, 8_000);
        assert_eq!(obs.unmapped_flows, 0);
    }

    #[test]
    fn record_shapes_are_fixed() {
        let out = aggregate(&[rec("fe1", 0, 5, 7_000)], 0, &FleetConfig::default());
        let iv = &out.intervals[0];
        assert_eq!(iv.header().split(',').count(), iv.csv().split(',').count());
        let line = iv.json().compact();
        assert!(line.contains("\"kind\":\"fleet_interval\""));
        assert!(line.contains("\"by_daemon\":{\"fe1\":{\"records\":1"));
        assert!(line.contains("\"quantiles\":{\"rtt_us\":{\"n\":0"));
        assert!(line.contains("\"stall_us\":{\"n\":1,\"p50_us\":"));
        let s = &out.summary;
        assert_eq!(s.header().split(',').count(), s.csv().split(',').count());
        let line = s.json().compact();
        assert!(line.contains("\"kind\":\"fleet_summary\""));
        assert!(line.contains("\"by_service\":{"));
        assert!(line.contains("\"unmapped_flows\":0"));
    }

    #[test]
    fn bucket_width_regroups_records() {
        let records = vec![
            rec("fe1", 0, 1, 0),
            rec("fe1", 1_000_000, 1, 0),
            rec("fe1", 2_000_000, 1, 0),
        ];
        let narrow = aggregate(&records, 0, &FleetConfig::default());
        assert_eq!(narrow.intervals.len(), 3);
        let wide = aggregate(
            &records,
            0,
            &FleetConfig {
                bucket_us: 10_000_000,
                ..FleetConfig::default()
            },
        );
        assert_eq!(wide.intervals.len(), 1);
        assert_eq!(wide.intervals[0].records, 3);
        assert_eq!(wide.intervals[0].end_us, 10_000_000);
    }
}
