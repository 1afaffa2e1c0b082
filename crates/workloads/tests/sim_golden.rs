//! Pins the flow simulator's output bit for bit.
//!
//! Three services × 20 sampled flows run under every recovery mechanism
//! (Native, TLP, S-RTO, T-RACKs), the Native run with the ground-truth
//! oracle on, plus one 12-flow shared-bottleneck [`MultiFlowSim`] run. Each
//! run folds every [`TraceRecord`] field and every outcome counter into an
//! FNV-1a digest, and the digests are compared with committed values. A
//! change to the event scheduler, the timers or the link model that moves a
//! single timestamp, sequence number or counter fails here, before any
//! experiment table silently shifts.
//!
//! To move the digests on purpose, run the test and copy the `got` values it
//! prints into `GOLDEN`.

use simnet::time::{SimDuration, SimTime};
use tcp_sim::multi::{MultiFlowEntry, MultiFlowSim, MultiFlowSimConfig};
use tcp_sim::recovery::RecoveryMechanism;
use tcp_sim::sim::FlowOutcome;
use tcp_trace::flow::{FlowKey, FlowTrace};
use tcp_trace::record::{Direction, TraceRecord};
use workloads::{
    sample_population, simulate_flow, simulate_flow_oracle_into_scratch, FlowScratch, Service,
};

/// Population seed; flow `i` of a service runs with simulation seed
/// `SEED + i` under every mechanism, so the four runs are paired.
const SEED: u64 = 7;
const FLOWS: usize = 20;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn time(&mut self, t: SimTime) {
        self.u64(t.as_micros());
    }

    fn dur(&mut self, d: SimDuration) {
        self.u64(d.as_micros());
    }

    /// Structs whose every field is a counter or an enum: their derived
    /// `Debug` text names and prints each field exactly.
    fn debug(&mut self, v: &impl std::fmt::Debug) {
        for b in format!("{v:?}").bytes() {
            self.u64(b as u64);
        }
    }

    fn record(&mut self, r: &TraceRecord) {
        self.time(r.t);
        self.u64(match r.dir {
            Direction::Out => 0,
            Direction::In => 1,
        });
        self.u64(r.seq);
        self.u64(r.len as u64);
        let f = r.flags;
        self.u64(f.syn as u64 | (f.fin as u64) << 1 | (f.rst as u64) << 2 | (f.ack as u64) << 3);
        self.u64(r.ack);
        self.u64(r.rwnd);
        self.u64(r.sack.len() as u64);
        for b in r.sack.iter() {
            self.u64(b.start);
            self.u64(b.end);
        }
        self.u64(r.dsack as u64);
    }

    fn trace(&mut self, t: &FlowTrace) {
        self.u64(t.records.len() as u64);
        for r in &t.records {
            self.record(r);
        }
    }

    fn outcome(&mut self, o: &FlowOutcome) {
        self.trace(&o.trace);
        self.u64(o.established as u64);
        self.u64(o.completed as u64);
        self.u64(o.request_latencies.len() as u64);
        for &l in &o.request_latencies {
            self.dur(l);
        }
        self.time(o.established_at.unwrap_or(SimTime::MAX));
        self.time(o.finished_at);
        self.debug(&o.server_stats);
        self.u64(o.response_bytes);
        self.dur(o.final_srtt.unwrap_or(SimDuration::MAX));
        self.debug(&o.s2c_stats);
        self.debug(&o.c2s_stats);
    }
}

fn mechanisms(service: Service) -> [(&'static str, RecoveryMechanism); 4] {
    [
        ("native", RecoveryMechanism::Native),
        ("tlp", RecoveryMechanism::tlp()),
        ("srto", RecoveryMechanism::Srto(service.srto_config())),
        ("tracks", RecoveryMechanism::tracks()),
    ]
}

/// One digest per (service, mechanism); the Native digest also covers the
/// oracle's cause events, run in one recycled scratch.
fn flow_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut scratch = FlowScratch::new();
    for service in Service::ALL {
        let population = sample_population(service, FLOWS, SEED);
        for (name, mechanism) in mechanisms(service) {
            let mut h = Fnv::new();
            for (i, (spec, path)) in population.iter().enumerate() {
                let seed = SEED + i as u64;
                if name == "native" {
                    let sink = FlowTrace::new(FlowKey::synthetic((seed & 0xffff_ffff) as u32));
                    let (mut o, trace) = simulate_flow_oracle_into_scratch(
                        spec,
                        path,
                        mechanism,
                        seed,
                        sink,
                        &mut scratch,
                    );
                    o.trace = trace;
                    h.outcome(&o);
                    h.u64(o.oracle.len() as u64);
                    for e in &o.oracle {
                        h.debug(e);
                    }
                } else {
                    h.outcome(&simulate_flow(spec, path, mechanism, seed));
                }
            }
            out.push((format!("{}/{name}", service.label()), h.0));
        }
    }
    out
}

/// Twelve synchronized downloads through one shared bottleneck.
fn multi_digest() -> u64 {
    let mss = 1448u64;
    let cfg = MultiFlowSimConfig {
        flows: (0..12u64)
            .map(|i| {
                let mut e = MultiFlowEntry::new(SimTime::from_millis(3 * i), 120 * mss);
                e.extra_delay = SimDuration::from_millis(5 * (i % 7));
                e
            })
            .collect(),
        ..MultiFlowSimConfig::default()
    };
    let mut h = Fnv::new();
    for o in MultiFlowSim::new(cfg, SEED).run() {
        h.trace(&o.trace);
        h.u64(o.completed as u64);
        h.dur(o.latency.unwrap_or(SimDuration::MAX));
        h.debug(&o.server_stats);
    }
    h.0
}

const GOLDEN: &[(&str, u64)] = &[
    ("cloud stor./native", 0xddb32292caedf906),
    ("cloud stor./tlp", 0x46daed7a00f26f11),
    ("cloud stor./srto", 0x0a5503cce39d1c6d),
    ("cloud stor./tracks", 0xf4ebeef2b0f0ff67),
    ("soft. down./native", 0x98b0eca9a894d56e),
    ("soft. down./tlp", 0xa899ee773ff6704d),
    ("soft. down./srto", 0xc7033b80bc9a8247),
    ("soft. down./tracks", 0x83f7d64fe757f8e4),
    ("web search/native", 0x9fe81b262960f39b),
    ("web search/tlp", 0x2c7bccf5e25ddcec),
    ("web search/srto", 0x2c7bccf5e25ddcec),
    ("web search/tracks", 0x2c7bccf5e25ddcec),
    ("multi/12", 0xd2580220767e791f),
];

#[test]
fn simulator_output_is_pinned() {
    let mut got = flow_digests();
    got.push(("multi/12".to_string(), multi_digest()));
    for (name, d) in &got {
        println!("(\"{name}\", {d:#018x}),");
    }
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(
        got, want,
        "simulator output moved; got values printed above"
    );
}
