//! # workloads — the paper's three services, synthesized
//!
//! The paper analyzes production traces from Qihoo 360's **cloud storage**,
//! **software download** and **web search** front-ends. Those traces are
//! proprietary, so this crate substitutes generative models calibrated to
//! every statistic the paper publishes: flow-size scales (Table 1), RTT
//! distributions (Fig. 1), loss rates with bursty (Gilbert–Elliott)
//! structure, the initial-receive-window population of Fig. 6, back-end
//! fetch delays, chunked server supply, client think times and slow client
//! drains.
//!
//! * [`service`] — the per-service models ([`ServiceModel::calibrated`]).
//! * [`spec`] — [`FlowSpec`] / [`PathSpec`] and [`simulate_flow`].
//! * [`corpus`] — corpus synthesis and paired mechanism replays.
//! * [`livegen`] — interleaved multi-service captures for the live pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod livegen;
pub mod service;
pub mod spec;

pub use corpus::{
    flow_seed, run_population, sample_flow, sample_population, synthesize_corpus, Corpus,
};
pub use livegen::{daemon_specs, generate_interleaved, LiveGenSpec, LiveGenStats, LiveMechanism};
pub use service::{Service, ServiceModel};
pub use spec::{
    simulate_flow, simulate_flow_into, simulate_flow_into_scratch,
    simulate_flow_oracle_into_scratch, simulate_flow_scratch, FlowSpec, PathSpec,
};
pub use tcp_sim::sim::FlowScratch;
