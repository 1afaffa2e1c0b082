//! # Fleet mode — deterministic multi-daemon aggregation
//!
//! One `tapo live` daemon diagnoses one capture point. A service fleet has
//! many: front-end processes on one box, boxes in a PoP, PoPs in a region.
//! Fleet mode aggregates the JSON-lines interval reports those daemons
//! already emit into cluster-wide time buckets, merges the per-service and
//! per-cause stall shares, and watches the merged series for longitudinal
//! regressions — without requiring the daemons to coordinate or even be
//! time-synchronized beyond their shared capture clock.
//!
//! The pipeline is three stages, each its own module:
//!
//! 1. [`ingest`] — read interval reports from files, FIFOs, or a stdin
//!    multiplex; parse and validate them (shared schema with `tapo advise`
//!    via [`crate::report::parse`]) and hand each record on as it is
//!    parsed.
//! 2. [`merge`] — fold each record straight into its fleet-wide time
//!    bucket, so memory follows buckets × daemons, not records. Every fold
//!    is addition and buckets, daemon ids and ports are presented in
//!    ascending order, so the output is byte-identical regardless of
//!    arrival interleaving. Distributions merge losslessly because the
//!    quantile [`sketch`] is a bucket-count homomorphism: merge = vector
//!    addition.
//! 3. [`drift`] — interval-over-interval and daemon-vs-fleet stall-share
//!    drift detection with a deterministic integer EWMA rule, emitted as
//!    `fleet_alert` records through the existing report sinks.
//!
//! Determinism is a hard requirement, not an aspiration: CI diffs the
//! output of sorted vs shuffled input orders, file vs stdin ingestion, and
//! 1 vs 4 worker threads, byte for byte.

pub mod alerts;
pub mod drift;
pub mod ingest;
pub mod merge;
pub mod sketch;

pub use alerts::FleetAlert;
pub use drift::{DriftConfig, DriftDetector};
pub use ingest::{read_report_files, read_reports, read_reports_with, FleetError};
pub use merge::{aggregate, FleetConfig, FleetFold, FleetInterval, FleetOutcome, FleetSummary};
pub use sketch::QSketch;
