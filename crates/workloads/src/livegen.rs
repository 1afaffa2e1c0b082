//! Interleaved multi-service capture generation — the load generator for
//! the live pipeline.
//!
//! [`crate::synthesize_corpus`] writes flows back-to-back (every flow
//! starts at t≈0), which is fine for offline per-flow analysis but nothing
//! like what a server NIC sees. This module produces what `tapo live`
//! ingests in production: thousands of **overlapping** flows from all three
//! services, their packets merged into one capture in strict time order,
//! with flow starts spread by exponential inter-arrivals (Poisson-process
//! arrivals, the standard traffic model).
//!
//! Every flow gets a unique synthetic [`FlowKey`] (keyed by its global
//! index, not its seed — seed-derived keys can collide at 10k+ flows), so
//! captures of any size demultiplex cleanly. Generation is deterministic:
//! the same spec produces byte-identical pcap files at any thread count
//! (per-flow seeds are pure functions of the spec, and the merge orders
//! ties by flow index).

use std::collections::BinaryHeap;
use std::io::{self, Write};

use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use tcp_sim::recovery::RecoveryMechanism;
use tcp_trace::flow::{FlowKey, FlowTrace};
use tcp_trace::pcap::PcapWriter;

use crate::corpus::{flow_seed, sample_flow};
use crate::service::{Service, ServiceModel};
use crate::spec::simulate_flow;

/// Recovery mechanism selector for mixed-service generation (per-service
/// SRTO configs are resolved internally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveMechanism {
    /// Standard RTO/fast-retransmit recovery.
    Native,
    /// Tail-loss probe.
    Tlp,
    /// Smart RTO with each service's calibrated config.
    Srto,
}

impl LiveMechanism {
    /// The mechanism `service`'s flows run under.
    pub fn resolve(self, service: Service) -> RecoveryMechanism {
        match self {
            LiveMechanism::Native => RecoveryMechanism::Native,
            LiveMechanism::Tlp => RecoveryMechanism::tlp(),
            LiveMechanism::Srto => RecoveryMechanism::Srto(service.srto_config()),
        }
    }
}

/// What to generate: how many flows per service, how densely they overlap,
/// and under which recovery mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveGenSpec {
    /// Flows per service (total = 3×this).
    pub flows_per_service: usize,
    /// Master seed; drives sampling, simulation and arrival times.
    pub seed: u64,
    /// Recovery mechanism for every flow.
    pub mechanism: LiveMechanism,
    /// Mean exponential inter-arrival gap between consecutive flow starts.
    /// Smaller = more concurrent flows.
    pub mean_gap: SimDuration,
    /// Simulation worker threads (0 = all cores). Output is identical at
    /// any thread count.
    pub threads: usize,
}

impl Default for LiveGenSpec {
    fn default() -> Self {
        LiveGenSpec {
            flows_per_service: 100,
            seed: 2015,
            mechanism: LiveMechanism::Native,
            mean_gap: SimDuration::from_millis(20),
            threads: 0,
        }
    }
}

/// Counters from one generation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveGenStats {
    /// Flows written.
    pub flows: usize,
    /// Packets written.
    pub packets: u64,
    /// Response bytes served across all flows.
    pub bytes: u64,
    /// Capture span (first to last packet timestamp).
    pub span: SimDuration,
}

const SERVICES: [Service; 3] = [
    Service::CloudStorage,
    Service::SoftwareDownload,
    Service::WebSearch,
];

/// SplitMix64 finalizer — mixes a daemon index into the base seed so
/// per-daemon streams are decorrelated even for adjacent indices.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stand up an N-daemon fleet fixture from one base spec: daemon `i` is
/// named `fe{i}` and draws a seed mixed from the base seed and its index,
/// so the captures are statistically alike (same services, same load
/// shape) but packet-for-packet independent — exactly what a row of
/// front-end machines behind one load balancer looks like. Used by the
/// fleet aggregation tests, the bench's fleet phase, and CI smoke.
pub fn daemon_specs(base: &LiveGenSpec, daemons: usize) -> Vec<(String, LiveGenSpec)> {
    (0..daemons)
        .map(|i| {
            let mut spec = *base;
            spec.seed = mix64(base.seed ^ (i as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
            (format!("fe{i}"), spec)
        })
        .collect()
}

/// Simulate `3 × flows_per_service` flows (round-robin across the three
/// services), offset their starts by Poisson arrivals, and write one
/// time-ordered interleaved capture to `out`.
pub fn generate_interleaved<W: Write>(out: W, spec: &LiveGenSpec) -> io::Result<LiveGenStats> {
    let total = spec.flows_per_service * SERVICES.len();
    let models: Vec<ServiceModel> = SERVICES
        .iter()
        .map(|&s| ServiceModel::calibrated(s))
        .collect();

    // Arrival offsets: one serial RNG stream, independent of thread count.
    let mut arrivals = Vec::with_capacity(total);
    {
        let mut rng = SimRng::seed(spec.seed ^ 0xa441_7a15);
        let mut t = SimTime::ZERO;
        for _ in 0..total {
            arrivals.push(t);
            t += SimDuration::from_secs_f64(rng.exponential(spec.mean_gap.as_secs_f64()));
        }
    }

    let threads = if spec.threads == 0 {
        simnet::par::available_threads()
    } else {
        spec.threads
    };

    // Streaming k-way merge: simulate flows lazily, in arrival order, one
    // batch at a time, and drop each trace the moment its last record is
    // written. Memory is bounded by the flows *resident in the merge
    // window* (those overlapping the current capture time) plus one batch —
    // not by the whole capture, which for the bench's 5.9M-packet run used
    // to mean ~775 MB of materialized traces.
    //
    // Correctness of the frontier: arrivals are assigned in global-index
    // order, so every unsimulated flow g' ≥ `simulated` starts at or after
    // `arrivals[simulated]`. A heap entry with t ≤ that bound can therefore
    // be emitted now; at exact equality the (t, g, idx) tie-break favors
    // the resident flow (g < simulated ≤ g') just as it would in a fully
    // materialized merge, so the output bytes are identical.
    const SIM_BATCH: usize = 512;
    let mut traces: Vec<Option<FlowTrace>> = (0..total).map(|_| None).collect();
    let mut simulated = 0usize;
    let mut writer = PcapWriter::new(out)?;
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    let mut stats = LiveGenStats::default();
    let mut first_t = None;
    let mut last_t = SimTime::ZERO;
    loop {
        while simulated < total
            && heap
                .peek()
                .is_none_or(|&std::cmp::Reverse((t, _, _))| t > arrivals[simulated].as_micros())
        {
            let end = (simulated + SIM_BATCH).min(total);
            // Each global flow g is service g%3, per-service index g/3 —
            // the same (spec, path, seed) triple the offline corpus of that
            // service would draw, so live and offline corpora are
            // statistically identical.
            let batch: Vec<(FlowTrace, u64)> =
                simnet::par::par_map(end - simulated, threads, |i| {
                    let g = simulated + i;
                    let service_idx = g % SERVICES.len();
                    let index = g / SERVICES.len();
                    let model = &models[service_idx];
                    let (fspec, path) = sample_flow(model, spec.seed, index);
                    let seed = flow_seed(spec.seed, model.service, index);
                    let mechanism = spec.mechanism.resolve(model.service);
                    let mut out = simulate_flow(&fspec, &path, mechanism, seed);
                    // Unique key per global index; seed-derived keys can
                    // collide. The server port identifies the service so
                    // per-port live reports attribute flows back to it.
                    let mut key = FlowKey::synthetic(g as u32);
                    key.server_port = model.service.server_port();
                    out.trace.key = Some(key);
                    (out.trace, out.response_bytes)
                });
            for (i, (trace, bytes)) in batch.into_iter().enumerate() {
                let g = simulated + i;
                stats.bytes += bytes;
                if let Some(first) = trace.records.first() {
                    let t = (first.t + arrivals[g].saturating_since(SimTime::ZERO)).as_micros();
                    heap.push(std::cmp::Reverse((t, g, 0)));
                    traces[g] = Some(trace);
                }
            }
            simulated = end;
        }
        let Some(std::cmp::Reverse((t_us, g, idx))) = heap.pop() else {
            break;
        };
        let trace = traces[g].as_ref().expect("resident while records remain");
        let key = trace.key.expect("key assigned above");
        let mut rec = trace.records[idx];
        rec.t = SimTime::from_micros(t_us);
        writer.write_record(&key, &rec)?;
        stats.packets += 1;
        first_t.get_or_insert(rec.t);
        last_t = rec.t;
        if idx + 1 < trace.records.len() {
            let nt = (trace.records[idx + 1].t + arrivals[g].saturating_since(SimTime::ZERO))
                .as_micros();
            heap.push(std::cmp::Reverse((nt, g, idx + 1)));
        } else {
            traces[g] = None; // last record written — free the trace
        }
    }
    writer.finish()?;
    stats.flows = total;
    stats.span = last_t.saturating_since(first_t.unwrap_or(SimTime::ZERO));
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_trace::pcap::{PcapReader, PcapStream};

    fn small_spec() -> LiveGenSpec {
        LiveGenSpec {
            flows_per_service: 6,
            seed: 42,
            mean_gap: SimDuration::from_millis(5),
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic_at_any_thread_count() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut one = small_spec();
        one.threads = 1;
        let mut four = small_spec();
        four.threads = 4;
        let sa = generate_interleaved(&mut a, &one).unwrap();
        let sb = generate_interleaved(&mut b, &four).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(a, b, "capture bytes must not depend on thread count");
        assert!(sa.packets > 0);
    }

    #[test]
    fn capture_is_time_ordered_and_interleaved() {
        let mut buf = Vec::new();
        generate_interleaved(&mut buf, &small_spec()).unwrap();
        let mut stream = PcapStream::new(&buf[..]).unwrap();
        let mut prev = None;
        let mut key_switches = 0usize;
        let mut last_key = None;
        let mut packets = 0u64;
        while let Some(pkt) = stream.next_packet().unwrap() {
            if let Some(p) = prev {
                assert!(pkt.t >= p, "capture must be time-ordered");
            }
            prev = Some(pkt.t);
            if last_key != Some(pkt.key) {
                key_switches += 1;
                last_key = Some(pkt.key);
            }
            packets += 1;
        }
        assert_eq!(stream.stats().packets, packets);
        assert_eq!(stream.stats().packets_skipped, 0);
        // Truly interleaved: flows alternate far more often than a
        // back-to-back corpus (which would switch exactly once per flow).
        assert!(
            key_switches > 18,
            "only {key_switches} key switches — not interleaved"
        );
    }

    #[test]
    fn flows_demultiplex_with_unique_keys() {
        let mut buf = Vec::new();
        let stats = generate_interleaved(&mut buf, &small_spec()).unwrap();
        let flows = PcapReader::read_all(&buf[..]).unwrap();
        assert_eq!(flows.len(), stats.flows);
        let mut keys: Vec<_> = flows.iter().map(|f| f.key.unwrap()).collect();
        keys.sort_by_key(|k| (k.client_ip, k.client_port));
        keys.dedup();
        assert_eq!(keys.len(), stats.flows, "keys must be unique");
    }

    #[test]
    fn daemon_specs_derive_distinct_deterministic_seeds() {
        let base = small_spec();
        let a = daemon_specs(&base, 4);
        let b = daemon_specs(&base, 4);
        assert_eq!(a, b, "derivation is a pure function of the base spec");
        assert_eq!(a.len(), 4);
        for (i, (id, spec)) in a.iter().enumerate() {
            assert_eq!(id, &format!("fe{i}"));
            assert_ne!(spec.seed, base.seed, "fe{i} must not reuse the base seed");
        }
        let mut seeds: Vec<u64> = a.iter().map(|(_, s)| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "per-daemon seeds must be distinct");
    }

    #[test]
    fn server_ports_identify_services() {
        let mut buf = Vec::new();
        let stats = generate_interleaved(&mut buf, &small_spec()).unwrap();
        let flows = PcapReader::read_all(&buf[..]).unwrap();
        let mut per_port = std::collections::BTreeMap::new();
        for f in &flows {
            let port = f.key.unwrap().server_port;
            assert!(
                Service::from_server_port(port).is_some(),
                "unknown server port {port}"
            );
            *per_port.entry(port).or_insert(0usize) += 1;
        }
        // Round-robin assignment: every service gets exactly its share,
        // on its own port.
        assert_eq!(per_port.len(), SERVICES.len());
        for (&port, &n) in &per_port {
            assert_eq!(n, stats.flows / SERVICES.len(), "port {port}");
        }
    }
}
