//! Path and flow specifications: the building blocks a single simulated
//! flow is assembled from.

use simnet::link::LinkConfig;
use simnet::loss::LossSpec;
use simnet::time::SimDuration;
use tcp_sim::cc::CcKind;
use tcp_sim::receiver::ReceiverConfig;
use tcp_sim::recovery::RecoveryMechanism;
use tcp_sim::sender::SenderConfig;
use tcp_sim::sim::{FlowOutcome, FlowScratch, FlowScript, FlowSim, FlowSimConfig};
use tcp_trace::flow::{FlowKey, FlowTrace};
use tcp_trace::record::RecordSink;

/// A network path between client and server.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSpec {
    /// Base round-trip propagation delay (split evenly between directions).
    pub rtt: SimDuration,
    /// Maximum per-packet jitter, per direction.
    pub jitter: SimDuration,
    /// Loss process on the data (server→client) direction.
    pub loss: LossSpec,
    /// Loss process on the ACK (client→server) direction; defaults to a
    /// lighter Bernoulli process when `None`.
    pub ack_loss: Option<LossSpec>,
    /// Bottleneck bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Drop-tail queue size in packets.
    pub queue_pkts: usize,
    /// Probability that a packet is reordered (held back).
    pub reorder_prob: f64,
    /// Extra delay applied to reordered packets.
    pub reorder_extra: SimDuration,
    /// Rate of path-wide delay bursts (per second); see
    /// [`simnet::link::LinkConfig::delay_burst_hz`].
    pub delay_burst_hz: f64,
    /// Mean delay-burst duration.
    pub delay_burst_len: SimDuration,
    /// Extra one-way delay during a burst.
    pub delay_burst_extra: SimDuration,
}

impl Default for PathSpec {
    fn default() -> Self {
        PathSpec {
            rtt: SimDuration::from_millis(100),
            jitter: SimDuration::from_millis(5),
            loss: LossSpec::None,
            ack_loss: None,
            bandwidth_bps: 50_000_000,
            queue_pkts: 128,
            reorder_prob: 0.0,
            reorder_extra: SimDuration::from_millis(20),
            delay_burst_hz: 0.0,
            delay_burst_len: SimDuration::from_millis(300),
            delay_burst_extra: SimDuration::from_millis(400),
        }
    }
}

impl PathSpec {
    /// Build the two directional link configurations.
    pub fn links(&self) -> (LinkConfig, LinkConfig) {
        let one_way = self.rtt / 2;
        let c2s = LinkConfig {
            bandwidth_bps: self.bandwidth_bps,
            prop_delay: one_way,
            jitter: self.jitter,
            queue_pkts: self.queue_pkts,
            loss: self.ack_loss.clone().unwrap_or_else(|| match &self.loss {
                LossSpec::None => LossSpec::None,
                // ACK paths see milder, less bursty loss.
                other => LossSpec::Bernoulli {
                    p: other.mean_loss() / 3.0,
                },
            }),
            // Delay spikes hit ACKs too (delayed-ACK-path stalls).
            reorder_prob: self.reorder_prob,
            reorder_extra: self.reorder_extra,
            delay_burst_hz: self.delay_burst_hz,
            delay_burst_len: self.delay_burst_len,
            delay_burst_extra: self.delay_burst_extra,
        };
        let s2c = LinkConfig {
            bandwidth_bps: self.bandwidth_bps,
            prop_delay: one_way,
            jitter: self.jitter,
            queue_pkts: self.queue_pkts,
            loss: self.loss.clone(),
            reorder_prob: self.reorder_prob,
            reorder_extra: self.reorder_extra,
            delay_burst_hz: self.delay_burst_hz,
            delay_burst_len: self.delay_burst_len,
            delay_burst_extra: self.delay_burst_extra,
        };
        (c2s, s2c)
    }
}

/// Everything about one flow except the path and recovery mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// The application script (requests/responses).
    pub script: FlowScript,
    /// Client receive-buffer size in bytes = initial advertised window.
    pub client_buf: u64,
    /// Client application drain rate (bytes/s); `None` reads instantly.
    pub client_drain: Option<u64>,
    /// Probability per rate-limited read that the client app pauses.
    pub client_pause_prob: f64,
    /// Mean client pause duration.
    pub client_pause: SimDuration,
    /// Client delayed-ACK timer.
    pub delack_timeout: SimDuration,
    /// Server congestion-avoidance algorithm.
    pub cc: CcKind,
    /// Enable RFC 5827 early retransmit at the server.
    pub early_retransmit: bool,
    /// Enable sender pacing at the server.
    pub pacing: bool,
    /// Simulation cut-off.
    pub max_time: SimDuration,
}

impl Default for FlowSpec {
    fn default() -> Self {
        FlowSpec {
            script: FlowScript::single(100_000),
            client_buf: 256 * 1024,
            client_drain: None,
            client_pause_prob: 0.0,
            client_pause: SimDuration::from_secs(1),
            delack_timeout: SimDuration::from_millis(40),
            cc: CcKind::Cubic,
            early_retransmit: false,
            pacing: false,
            max_time: SimDuration::from_secs(600),
        }
    }
}

impl FlowSpec {
    /// A single-request flow for `bytes` of locally available content.
    pub fn response_bytes(bytes: u64) -> Self {
        FlowSpec {
            script: FlowScript::single(bytes),
            ..FlowSpec::default()
        }
    }

    /// Total response bytes across the script.
    pub fn total_response_bytes(&self) -> u64 {
        self.script.requests.iter().map(|r| r.response_bytes).sum()
    }
}

/// Simulate one flow: assemble the [`FlowSimConfig`] from the spec, path and
/// recovery mechanism, run it, and return the outcome (trace included).
pub fn simulate_flow(
    spec: &FlowSpec,
    path: &PathSpec,
    mechanism: RecoveryMechanism,
    seed: u64,
) -> FlowOutcome {
    FlowSim::new(flow_sim_config(spec, path, mechanism, seed), seed).run()
}

/// Simulate one flow while streaming every server-side record into `sink`
/// instead of materializing a trace: the returned outcome's `trace` is
/// empty; the records were consumed by (and are returned inside) the sink.
pub fn simulate_flow_into<S: RecordSink>(
    spec: &FlowSpec,
    path: &PathSpec,
    mechanism: RecoveryMechanism,
    seed: u64,
    sink: S,
) -> (FlowOutcome, S) {
    FlowSim::with_sink(flow_sim_config(spec, path, mechanism, seed), seed, sink).run_streaming()
}

/// [`simulate_flow`] against a worker's recycled simulator arenas: the flow
/// runs inside `scratch`'s event queue and buffers, which are handed back
/// reset afterwards. Output is bit-identical to [`simulate_flow`].
pub fn simulate_flow_scratch(
    spec: &FlowSpec,
    path: &PathSpec,
    mechanism: RecoveryMechanism,
    seed: u64,
    scratch: &mut FlowScratch,
) -> FlowOutcome {
    let cfg = flow_sim_config(spec, path, mechanism, seed);
    let sink = FlowTrace::new(FlowKey::synthetic(cfg.flow_id));
    let (mut out, trace) =
        FlowSim::with_sink_scratch(cfg, seed, sink, scratch).run_streaming_into(scratch);
    out.trace = trace;
    out
}

/// [`simulate_flow_into_scratch`] with the ground-truth oracle enabled: the
/// returned outcome's `oracle` field carries every simulated cause event
/// (see [`tcp_sim::sim::FlowSim::with_oracle`]). The oracle is a pure
/// side-channel — the sink receives records byte-identical to
/// [`simulate_flow_into_scratch`]'s for the same inputs.
pub fn simulate_flow_oracle_into_scratch<S: RecordSink>(
    spec: &FlowSpec,
    path: &PathSpec,
    mechanism: RecoveryMechanism,
    seed: u64,
    sink: S,
    scratch: &mut FlowScratch,
) -> (FlowOutcome, S) {
    FlowSim::with_sink_scratch(
        flow_sim_config(spec, path, mechanism, seed),
        seed,
        sink,
        scratch,
    )
    .with_oracle()
    .run_streaming_into(scratch)
}

/// [`simulate_flow_into`] against a worker's recycled simulator arenas.
/// Output is bit-identical to [`simulate_flow_into`].
pub fn simulate_flow_into_scratch<S: RecordSink>(
    spec: &FlowSpec,
    path: &PathSpec,
    mechanism: RecoveryMechanism,
    seed: u64,
    sink: S,
    scratch: &mut FlowScratch,
) -> (FlowOutcome, S) {
    FlowSim::with_sink_scratch(
        flow_sim_config(spec, path, mechanism, seed),
        seed,
        sink,
        scratch,
    )
    .run_streaming_into(scratch)
}

/// The [`FlowSimConfig`] both [`simulate_flow`] variants run under.
fn flow_sim_config(
    spec: &FlowSpec,
    path: &PathSpec,
    mechanism: RecoveryMechanism,
    seed: u64,
) -> FlowSimConfig {
    let (c2s, s2c) = path.links();
    FlowSimConfig {
        server_tx: SenderConfig {
            cc: spec.cc,
            recovery: mechanism,
            early_retransmit: spec.early_retransmit,
            pacing: spec.pacing,
            ..SenderConfig::default()
        },
        server_rx: ReceiverConfig {
            buf_bytes: 1 << 20,
            ..ReceiverConfig::default()
        },
        client_tx: SenderConfig::default(),
        client_rx: ReceiverConfig {
            buf_bytes: spec.client_buf,
            delack_timeout: spec.delack_timeout,
            ..ReceiverConfig::default()
        },
        c2s,
        s2c,
        client_drain: spec.client_drain,
        client_pause_prob: spec.client_pause_prob,
        client_pause: spec.client_pause,
        script: spec.script.clone(),
        max_time: spec.max_time,
        syn_timeout: SimDuration::from_secs(3),
        flow_id: (seed & 0xffff_ffff) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_links_split_rtt() {
        let p = PathSpec {
            rtt: SimDuration::from_millis(120),
            ..PathSpec::default()
        };
        let (c2s, s2c) = p.links();
        assert_eq!(c2s.prop_delay, SimDuration::from_millis(60));
        assert_eq!(s2c.prop_delay, SimDuration::from_millis(60));
    }

    #[test]
    fn ack_path_loss_is_derived_and_milder() {
        let p = PathSpec {
            loss: LossSpec::bernoulli(0.03),
            ..PathSpec::default()
        };
        let (c2s, s2c) = p.links();
        assert_eq!(s2c.loss, LossSpec::bernoulli(0.03));
        match c2s.loss {
            LossSpec::Bernoulli { p } => assert!((p - 0.01).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn simulate_flow_runs_end_to_end() {
        let spec = FlowSpec::response_bytes(30_000);
        let out = simulate_flow(&spec, &PathSpec::default(), RecoveryMechanism::Native, 99);
        assert!(out.completed);
        assert_eq!(out.response_bytes, 30_000);
        assert_eq!(out.trace.goodput_bytes_out(), 30_000);
    }

    #[test]
    fn identical_seeds_identical_outcomes() {
        let spec = FlowSpec::response_bytes(50_000);
        let path = PathSpec {
            loss: LossSpec::bernoulli(0.02),
            ..PathSpec::default()
        };
        let a = simulate_flow(&spec, &path, RecoveryMechanism::Native, 5);
        let b = simulate_flow(&spec, &path, RecoveryMechanism::Native, 5);
        assert_eq!(a.trace.records, b.trace.records);
    }
}
