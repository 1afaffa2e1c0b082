//! End-to-end flow simulation: a client and a server [`Host`] connected by
//! two [`simnet::Link`]s, with a scripted application layer and packet
//! capture at the server NIC — the simulated equivalent of the paper's
//! production front-end servers running tcpdump.
//!
//! The application layer reproduces the three services' behaviours:
//!
//! * **requests** — the client issues one or more requests on the same
//!   connection, each preceded by a think time (client-idle stalls);
//! * **back-end fetch delay** — the server may have to retrieve content
//!   before the first response byte is available (data-unavailable stalls);
//! * **chunked supply** — the server application may deliver the response
//!   to TCP in chunks with gaps (resource-constraint stalls);
//! * **client drain rate** — the client application may read slower than
//!   the network delivers (zero-window stalls).

use simnet::event::EventQueue;
use simnet::link::{Delivery, Link, LinkConfig};
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use tcp_trace::flow::{FlowKey, FlowTrace};
use tcp_trace::oracle::{CauseEvent, CauseKind, RtoContext};
use tcp_trace::record::{Direction, RecordSink, TraceRecord};

use crate::conn::Host;
use crate::receiver::ReceiverConfig;
use crate::seg::{SackList, SegFlags, Segment};
use crate::sender::{SenderConfig, SenderStats};

/// One request/response exchange within a flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpec {
    /// Client think time before issuing this request (measured from
    /// connection establishment for the first request, from response
    /// completion for later ones).
    pub think_time: SimDuration,
    /// Request size in bytes (fits one segment).
    pub request_bytes: u32,
    /// Response size in bytes.
    pub response_bytes: u64,
    /// Server-side delay before the first response byte is available
    /// (back-end fetch; 0 for locally cached content).
    pub backend_delay: SimDuration,
    /// If set, the server supplies the response in chunks of `chunk_bytes`
    /// separated by `gap` (resource-constraint behaviour).
    pub supply: Option<SupplyPauses>,
}

/// Chunked server-side data supply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplyPauses {
    /// Bytes handed to TCP per chunk.
    pub chunk_bytes: u64,
    /// Pause between chunks.
    pub gap: SimDuration,
}

impl RequestSpec {
    /// A simple immediate request for `response_bytes` of locally available
    /// content.
    pub fn simple(response_bytes: u64) -> Self {
        RequestSpec {
            think_time: SimDuration::ZERO,
            request_bytes: 300,
            response_bytes,
            backend_delay: SimDuration::ZERO,
            supply: None,
        }
    }
}

/// The application script driving one flow.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlowScript {
    /// The request sequence.
    pub requests: Vec<RequestSpec>,
}

impl FlowScript {
    /// A one-request script.
    pub fn single(response_bytes: u64) -> Self {
        FlowScript {
            requests: vec![RequestSpec::simple(response_bytes)],
        }
    }
}

/// Full configuration of one simulated flow.
#[derive(Debug, Clone)]
pub struct FlowSimConfig {
    /// Server's data-direction sender.
    pub server_tx: SenderConfig,
    /// Server's request-direction receiver.
    pub server_rx: ReceiverConfig,
    /// Client's request-direction sender.
    pub client_tx: SenderConfig,
    /// Client's data-direction receiver (its `buf_bytes` is the initial
    /// advertised window in the SYN).
    pub client_rx: ReceiverConfig,
    /// Client-to-server link.
    pub c2s: LinkConfig,
    /// Server-to-client link.
    pub s2c: LinkConfig,
    /// Client application drain rate in bytes/s; `None` reads immediately.
    pub client_drain: Option<u64>,
    /// Probability, per rate-limited read, that the client application
    /// pauses (stops reading) for an exponentially distributed interval —
    /// the behaviour behind long zero-window stalls.
    pub client_pause_prob: f64,
    /// Mean pause duration.
    pub client_pause: SimDuration,
    /// The application script.
    pub script: FlowScript,
    /// Simulation cut-off.
    pub max_time: SimDuration,
    /// SYN / SYN-ACK retransmission timeout (3s on the paper's kernel).
    pub syn_timeout: SimDuration,
    /// Identifier used for the synthetic flow key.
    pub flow_id: u32,
}

impl Default for FlowSimConfig {
    fn default() -> Self {
        FlowSimConfig {
            server_tx: SenderConfig::default(),
            server_rx: ReceiverConfig {
                buf_bytes: 1 << 20,
                ..ReceiverConfig::default()
            },
            client_tx: SenderConfig::default(),
            client_rx: ReceiverConfig::default(),
            c2s: LinkConfig::default(),
            s2c: LinkConfig::default(),
            client_drain: None,
            client_pause_prob: 0.0,
            client_pause: SimDuration::from_secs(1),
            script: FlowScript::single(100_000),
            max_time: SimDuration::from_secs(300),
            syn_timeout: SimDuration::from_secs(3),
            flow_id: 0,
        }
    }
}

/// What one flow simulation produced.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// The server-side packet capture.
    pub trace: FlowTrace,
    /// Whether the handshake completed.
    pub established: bool,
    /// Whether every response was fully acknowledged before the cut-off.
    pub completed: bool,
    /// Per-request latency: request issued at the client → all response
    /// bytes cumulatively ACKed at the server.
    pub request_latencies: Vec<SimDuration>,
    /// Connection establishment instant (client side).
    pub established_at: Option<SimTime>,
    /// Simulation end time.
    pub finished_at: SimTime,
    /// Server sender counters (retransmissions, RTOs, probes…).
    pub server_stats: SenderStats,
    /// Total response bytes across all requests.
    pub response_bytes: u64,
    /// Smoothed RTT at the server when the flow ended.
    pub final_srtt: Option<SimDuration>,
    /// Server→client link counters (wire loss ground truth).
    pub s2c_stats: simnet::link::LinkStats,
    /// Client→server link counters.
    pub c2s_stats: simnet::link::LinkStats,
    /// Ground-truth cause events, in emission (time) order. Empty unless
    /// the simulation ran with [`FlowSim::with_oracle`]. The oracle is a
    /// pure side-channel: enabling it never changes the trace or any other
    /// outcome field (it observes decisions already made; it draws no
    /// randomness and alters no timing).
    pub oracle: Vec<CauseEvent>,
}

/// Ground-truth recorder: allocated only when the oracle is enabled.
#[derive(Debug, Default)]
struct OracleState {
    events: Vec<CauseEvent>,
    /// Data segments the s2c link dropped: (drop time, seq, len).
    dropped_data: Vec<(SimTime, u64, u64)>,
    /// Total response bytes the application has supplied to the server's
    /// TCP so far (stream offset of the supply edge).
    supplied: u64,
    /// Dedupe keys: start of the last recorded delay burst per link.
    last_burst_s2c: Option<SimTime>,
    last_burst_c2s: Option<SimTime>,
    /// Index of the open zero-window interval event, if the client's last
    /// advertisement was a zero window.
    zero_rwnd_event: Option<usize>,
}

/// Recyclable per-worker simulator arenas: the event queue (heap and link
/// lanes), the segment scratch buffer, the pending-tick stacks and the
/// per-request bookkeeping vectors of a [`FlowSim`].
///
/// A worker threads one `FlowScratch` through every flow it simulates:
/// [`FlowSim::with_sink_scratch`] takes the arenas, the flow runs in them,
/// and [`FlowSim::run_streaming_into`] hands them back reset — so the
/// per-flow hot path stops paying a fresh round of heap allocations per
/// flow. A flow run in recycled arenas is bit-identical to one run in fresh
/// arenas: every arena is rewound to its `new()` state between flows (see
/// [`simnet::event::EventQueue::reset`]); only the capacity is reused.
#[derive(Debug, Default)]
pub struct FlowScratch {
    q: EventQueue<Ev>,
    seg_buf: Vec<Segment>,
    request_boundary_in: Vec<u64>,
    response_boundary_out: Vec<u64>,
    issue_times: Vec<Option<SimTime>>,
    latencies: Vec<Option<SimDuration>>,
    supplies: std::collections::VecDeque<Supply>,
    server_ticks: Vec<SimTime>,
    client_ticks: Vec<SimTime>,
}

/// Event-queue lanes for link deliveries: each link delivers in FIFO order
/// almost always, so its arrivals append to a lane instead of sifting
/// through the heap (see [`EventQueue::push_lane`]).
const LANE_S2C: usize = 0;
const LANE_C2S: usize = 1;

/// One pending application-supply step: after `delay`, hand `bytes` to the
/// server's TCP (and close if this is the final step). `first` marks the
/// head of a response (the delay is a backend fetch, not an inter-chunk
/// gap) — consumed only by the ground-truth oracle.
#[derive(Debug, Clone, Copy)]
struct Supply {
    delay: SimDuration,
    bytes: u64,
    close: bool,
    first: bool,
}

impl FlowScratch {
    /// Fresh arenas with no retained capacity yet.
    pub fn new() -> Self {
        Self::default()
    }
}

#[derive(Debug)]
enum Ev {
    ToServer(Segment),
    ToClient(Segment),
    TickServer,
    TickClient,
    SynRetrans(u32),
    SynAckRetrans(u32),
    IssueRequest(usize),
    Supply { bytes: u64, close: bool },
    ClientRead,
}

/// Discrete-event simulation of a single TCP flow.
///
/// Generic over the record sink `S`: the default `FlowTrace` materializes
/// the server-side capture ([`FlowSim::run`]), while
/// [`FlowSim::with_sink`] + [`FlowSim::run_streaming`] stream each record
/// into an arbitrary consumer (e.g. a streaming analyzer) without ever
/// building the per-flow trace.
pub struct FlowSim<S: RecordSink = FlowTrace> {
    // Application-level configuration (the network/stack configs are moved
    // into the links and hosts at construction — no per-flow clones).
    requests: Vec<RequestSpec>,
    client_drain: Option<u64>,
    client_pause_prob: f64,
    client_pause: SimDuration,
    max_time: SimDuration,
    syn_timeout: SimDuration,
    q: EventQueue<Ev>,
    server: Host,
    client: Host,
    c2s: Link,
    s2c: Link,
    trace: S,
    established_client: bool,
    established_server: bool,
    established_at: Option<SimTime>,
    request_boundary_in: Vec<u64>,
    response_boundary_out: Vec<u64>,
    issue_times: Vec<Option<SimTime>>,
    latencies: Vec<Option<SimDuration>>,
    next_request_seen: usize,
    /// First request whose latency is still unresolved — `snd_una` is
    /// monotone and requests are issued in order, so completion checks
    /// resume here instead of rescanning every request per ACK.
    next_resp_done: usize,
    /// First response the client-progress check hasn't fully processed;
    /// `rcv_nxt` is monotone, so earlier entries never need revisiting.
    next_progress: usize,
    /// Latencies still unset; `done()` in O(1) on the per-event hot path.
    pending_latencies: usize,
    read_pending: bool,
    supplies: std::collections::VecDeque<Supply>,
    supply_active: bool,
    app_rng: SimRng,
    synack_sent_at: Option<SimTime>,
    rtt_seeded: bool,
    /// Scratch buffer of segments produced by the current event, reused so
    /// the per-event hot path never allocates.
    seg_buf: Vec<Segment>,
    /// Pending tick times per host, a stack with the earliest on top.
    /// [`FlowSim::resched_tick`] is called after every handler, and timer
    /// deadlines usually move *later* (each ACK re-arms the RTO) — without
    /// suppression the queue drowns in duplicate ticks (measured: ~10
    /// stale ticks per packet). A tick is only scheduled when it's strictly
    /// earlier than every tick already pending for that host, so the stack
    /// stays sorted and ticks pop last in, first out; a tick that fires
    /// before the current deadline is harmless (`on_tick` past no expired
    /// timer is a no-op) and re-arms the chain at the then-current deadline
    /// on pop.
    server_ticks: Vec<SimTime>,
    client_ticks: Vec<SimTime>,
    /// Ground-truth recorder; `None` (the default) means no oracle.
    oracle: Option<Box<OracleState>>,
}

impl FlowSim<FlowTrace> {
    /// Build a flow simulation that materializes the server-side trace;
    /// `seed` controls all stochastic behaviour. The configuration is
    /// consumed: links and hosts take ownership of their sub-configs rather
    /// than cloning them.
    pub fn new(cfg: FlowSimConfig, seed: u64) -> Self {
        let trace = FlowTrace::new(FlowKey::synthetic(cfg.flow_id));
        FlowSim::with_sink(cfg, seed, trace)
    }

    /// Run to completion (or the configured cut-off) and return the outcome,
    /// trace included.
    pub fn run(self) -> FlowOutcome {
        let (mut out, trace) = self.run_streaming();
        out.trace = trace;
        out
    }
}

impl<S: RecordSink> FlowSim<S> {
    /// Build a flow simulation that streams every server-side record into
    /// `sink` instead of the default materialized [`FlowTrace`].
    pub fn with_sink(cfg: FlowSimConfig, seed: u64, sink: S) -> Self {
        Self::assemble(cfg, seed, sink, FlowScratch::default())
    }

    /// Borrowed-scratch construction: like [`FlowSim::with_sink`], but the
    /// simulator is assembled inside `scratch`'s recycled arenas (event
    /// queue, segment buffer, bookkeeping vectors) instead of fresh
    /// allocations. The scratch is left empty until
    /// [`FlowSim::run_streaming_into`] returns the arenas to it.
    pub fn with_sink_scratch(
        cfg: FlowSimConfig,
        seed: u64,
        sink: S,
        scratch: &mut FlowScratch,
    ) -> Self {
        Self::assemble(cfg, seed, sink, std::mem::take(scratch))
    }

    fn assemble(cfg: FlowSimConfig, seed: u64, sink: S, scratch: FlowScratch) -> Self {
        let FlowSimConfig {
            server_tx,
            server_rx,
            client_tx,
            client_rx,
            c2s,
            s2c,
            client_drain,
            client_pause_prob,
            client_pause,
            script,
            max_time,
            syn_timeout,
            flow_id: _,
        } = cfg;
        let rng = SimRng::seed(seed);
        let c2s = Link::new(c2s, rng.fork(1));
        let s2c = Link::new(s2c, rng.fork(2));
        let app_rng = rng.fork(3);
        let server = Host::new(server_tx, server_rx);
        let client = Host::new(client_tx, client_rx);
        let FlowScratch {
            q,
            mut seg_buf,
            mut request_boundary_in,
            mut response_boundary_out,
            mut issue_times,
            mut latencies,
            mut supplies,
            mut server_ticks,
            mut client_ticks,
        } = scratch;
        server_ticks.clear();
        client_ticks.clear();
        debug_assert!(
            q.is_empty() && q.now() == SimTime::ZERO,
            "scratch queue must be reset between flows"
        );
        seg_buf.clear();
        request_boundary_in.clear();
        response_boundary_out.clear();
        supplies.clear();
        let mut req_edge = 0u64;
        let mut resp_edge = 0u64;
        for r in &script.requests {
            req_edge += r.request_bytes as u64;
            resp_edge += r.response_bytes;
            request_boundary_in.push(req_edge);
            response_boundary_out.push(resp_edge);
        }
        let n = script.requests.len();
        issue_times.clear();
        issue_times.resize(n, None);
        latencies.clear();
        latencies.resize(n, None);
        FlowSim {
            requests: script.requests,
            client_drain,
            client_pause_prob,
            client_pause,
            max_time,
            syn_timeout,
            q,
            server,
            client,
            c2s,
            s2c,
            trace: sink,
            established_client: false,
            established_server: false,
            established_at: None,
            request_boundary_in,
            response_boundary_out,
            issue_times,
            latencies,
            next_request_seen: 0,
            next_resp_done: 0,
            next_progress: 0,
            pending_latencies: n,
            read_pending: false,
            supplies,
            supply_active: false,
            app_rng,
            synack_sent_at: None,
            rtt_seeded: false,
            seg_buf,
            server_ticks,
            client_ticks,
            oracle: None,
        }
    }

    /// Enable the ground-truth oracle: the run will label every simulated
    /// cause event (link drops, delay bursts, zero windows, client idle
    /// intervals, app-supply gaps, timer firings) with flow-time stamps,
    /// returned in [`FlowOutcome::oracle`]. The oracle rides outside the
    /// packet stream and cannot perturb packet-visible output: it consumes
    /// no randomness and changes no timing, so the trace is byte-identical
    /// with and without it.
    pub fn with_oracle(mut self) -> Self {
        self.oracle = Some(Box::default());
        self
    }

    /// Run to completion (or the configured cut-off) and return the outcome
    /// plus the sink that received every record. The outcome's `trace` field
    /// is left empty — the records live in (or were consumed by) the sink.
    pub fn run_streaming(mut self) -> (FlowOutcome, S) {
        let outcome = self.run_core();
        (outcome, self.trace)
    }

    /// Run like [`FlowSim::run_streaming`], then return the recycled arenas
    /// to `scratch` — reset and ready for the next
    /// [`FlowSim::with_sink_scratch`] — instead of dropping them.
    pub fn run_streaming_into(mut self, scratch: &mut FlowScratch) -> (FlowOutcome, S) {
        let outcome = self.run_core();
        let FlowSim {
            mut q,
            mut seg_buf,
            request_boundary_in,
            response_boundary_out,
            issue_times,
            latencies,
            mut supplies,
            mut server_ticks,
            mut client_ticks,
            trace,
            ..
        } = self;
        q.reset();
        seg_buf.clear();
        supplies.clear();
        server_ticks.clear();
        client_ticks.clear();
        *scratch = FlowScratch {
            q,
            seg_buf,
            request_boundary_in,
            response_boundary_out,
            issue_times,
            latencies,
            supplies,
            server_ticks,
            client_ticks,
        };
        (outcome, trace)
    }

    fn run_core(&mut self) -> FlowOutcome {
        self.send_syn(SimTime::ZERO, 0);
        let deadline = SimTime::ZERO + self.max_time;
        let mut finished_at = SimTime::ZERO;
        while let Some((t, ev)) = self.q.pop() {
            if t > deadline {
                finished_at = deadline;
                break;
            }
            finished_at = t;
            self.dispatch(t, ev);
            if self.done() {
                break;
            }
        }
        let completed = self.done();
        let s2c_stats = self.s2c.stats();
        let c2s_stats = self.c2s.stats();
        FlowOutcome {
            established: self.established_client,
            completed,
            request_latencies: self
                .latencies
                .iter()
                .map(|l| l.unwrap_or(SimDuration::MAX))
                .collect(),
            established_at: self.established_at,
            finished_at,
            server_stats: self.server.tx.stats(),
            response_bytes: *self.response_boundary_out.last().unwrap_or(&0),
            final_srtt: self.server.tx.rtt().srtt(),
            s2c_stats,
            c2s_stats,
            oracle: self.oracle.take().map(|o| o.events).unwrap_or_default(),
            trace: FlowTrace::default(),
        }
    }

    fn done(&self) -> bool {
        self.pending_latencies == 0
    }

    // ------------------------------------------------------------ events

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::ToServer(seg) => self.server_receive(now, seg),
            Ev::ToClient(seg) => self.client_receive(now, seg),
            Ev::TickServer => {
                let popped = self.server_ticks.pop();
                debug_assert_eq!(popped, Some(now));
                // Snapshot the sender *before* the tick: if a timer fires
                // inside `on_tick`, the pre-tick scoreboard head is the
                // segment the timer is repairing (afterwards it may already
                // be marked retransmitted).
                let pre = self
                    .oracle
                    .as_ref()
                    .map(|_| (self.server.tx.stats(), self.server_rto_context()));
                let mut out = std::mem::take(&mut self.seg_buf);
                self.server.on_tick(now, &mut out);
                if let Some((pre_stats, ctx)) = pre {
                    let post = self.server.tx.stats();
                    let o = self.oracle.as_mut().expect("oracle checked above");
                    if post.rto_count > pre_stats.rto_count {
                        if let Some(ctx) = ctx {
                            o.events.push(CauseEvent::at(now, CauseKind::RtoFired(ctx)));
                        }
                    }
                    if post.tlp_probes + post.srto_probes + post.tracks_forced
                        > pre_stats.tlp_probes + pre_stats.srto_probes + pre_stats.tracks_forced
                    {
                        o.events.push(CauseEvent::at(now, CauseKind::ProbeFired));
                    }
                    if post.window_probes > pre_stats.window_probes {
                        o.events.push(CauseEvent::at(now, CauseKind::WindowProbe));
                    }
                }
                self.server_send(now, &mut out);
                self.seg_buf = out;
            }
            Ev::TickClient => {
                let popped = self.client_ticks.pop();
                debug_assert_eq!(popped, Some(now));
                let mut out = std::mem::take(&mut self.seg_buf);
                self.client.on_tick(now, &mut out);
                self.client_send(now, &mut out);
                self.seg_buf = out;
            }
            Ev::SynRetrans(attempt) => {
                if !self.established_client && attempt < 6 {
                    self.send_syn(now, attempt);
                }
            }
            Ev::SynAckRetrans(attempt) => {
                if !self.established_server && attempt < 6 {
                    self.send_synack(now, attempt);
                }
            }
            Ev::IssueRequest(i) => self.issue_request(now, i),
            Ev::Supply { bytes, close } => {
                if let Some(o) = &mut self.oracle {
                    o.supplied += bytes;
                }
                self.server.tx.app_write(bytes);
                if close {
                    self.server.tx.app_close();
                }
                let mut out = std::mem::take(&mut self.seg_buf);
                self.server.poll(now, &mut out);
                self.server_send(now, &mut out);
                self.seg_buf = out;
                self.supply_active = false;
                self.pump_supply(now);
            }
            Ev::ClientRead => {
                // One rate-limited read tick.
                let chunk = self.client.rx.config().mss as u64;
                let mut out = std::mem::take(&mut self.seg_buf);
                self.client.app_read(now, chunk, &mut out);
                self.client_send(now, &mut out);
                self.seg_buf = out;
                if self.client.rx.buffered() > 0 {
                    let rate = self.client_drain.unwrap_or(u64::MAX).max(1);
                    let mut interval = SimDuration::from_secs_f64(chunk as f64 / rate as f64);
                    // Occasionally the client application goes quiet.
                    if self.client_pause_prob > 0.0 && self.app_rng.chance(self.client_pause_prob) {
                        interval += SimDuration::from_secs_f64(
                            self.app_rng.exponential(self.client_pause.as_secs_f64()),
                        );
                    }
                    self.q.push(now + interval, Ev::ClientRead);
                } else {
                    self.read_pending = false;
                }
                self.check_client_progress(now);
            }
        }
    }

    // --------------------------------------------------------- handshake

    fn send_syn(&mut self, now: SimTime, attempt: u32) {
        let syn = Segment {
            seq: 0,
            len: 0,
            flags: SegFlags::SYN,
            ack: 0,
            rwnd: self.client.rx.rwnd(),
            sack: SackList::new(),
            dsack: false,
            probe: false,
        };
        let mut out = std::mem::take(&mut self.seg_buf);
        out.push(syn);
        self.client_send(now, &mut out);
        self.seg_buf = out;
        self.q.push(
            now + self.syn_timeout.saturating_mul(1 << attempt),
            Ev::SynRetrans(attempt + 1),
        );
    }

    fn send_synack(&mut self, now: SimTime, attempt: u32) {
        self.synack_sent_at = Some(now);
        let synack = Segment {
            seq: 0,
            len: 0,
            flags: SegFlags::SYN_ACK,
            ack: 0,
            rwnd: self.server.rx.rwnd(),
            sack: SackList::new(),
            dsack: false,
            probe: false,
        };
        let mut out = std::mem::take(&mut self.seg_buf);
        out.push(synack);
        self.server_send(now, &mut out);
        self.seg_buf = out;
        self.q.push(
            now + self.syn_timeout.saturating_mul(1 << attempt),
            Ev::SynAckRetrans(attempt + 1),
        );
    }

    // ------------------------------------------------------ packet paths

    fn server_send(&mut self, now: SimTime, segs: &mut Vec<Segment>) {
        for seg in segs.drain(..) {
            self.trace.record(&seg_to_record(now, Direction::Out, &seg));
            match self.s2c.offer(now, seg.wire_len()) {
                Delivery::Arrive(at) => self.q.push_lane(LANE_S2C, at, Ev::ToClient(seg)),
                Delivery::Drop(_) => {
                    if let Some(o) = &mut self.oracle {
                        if seg.len > 0 {
                            o.events.push(CauseEvent::at(
                                now,
                                CauseKind::LinkDropData {
                                    seq: seg.seq,
                                    len: seg.len as u64,
                                },
                            ));
                            o.dropped_data.push((now, seg.seq, seg.len as u64));
                        } else {
                            // A dropped server-side pure ACK / SYN-ACK still
                            // delays the peer the same way a lost client ACK
                            // does.
                            o.events.push(CauseEvent::at(now, CauseKind::LinkDropAck));
                        }
                    }
                }
            }
            if let Some(o) = &mut self.oracle {
                note_burst(&mut o.events, &mut o.last_burst_s2c, &self.s2c, now);
            }
        }
        self.resched_tick(now, /*server=*/ true);
    }

    fn client_send(&mut self, now: SimTime, segs: &mut Vec<Segment>) {
        for seg in segs.drain(..) {
            if let Some(o) = &mut self.oracle {
                // Zero-window tracking: the client's advertised window is
                // carried on every non-SYN segment it sends. A zero
                // advertisement opens (or extends) a ZeroWindow interval; the
                // first nonzero advertisement closes it.
                if !seg.flags.syn {
                    if seg.rwnd == 0 {
                        match o.zero_rwnd_event {
                            Some(i) => o.events[i].end = now,
                            None => {
                                o.events.push(CauseEvent::at(now, CauseKind::ZeroWindow));
                                o.zero_rwnd_event = Some(o.events.len() - 1);
                            }
                        }
                    } else if let Some(i) = o.zero_rwnd_event.take() {
                        o.events[i].end = now;
                    }
                }
            }
            match self.c2s.offer(now, seg.wire_len()) {
                Delivery::Arrive(at) => self.q.push_lane(LANE_C2S, at, Ev::ToServer(seg)),
                Delivery::Drop(_) => {
                    if let Some(o) = &mut self.oracle {
                        o.events.push(CauseEvent::at(now, CauseKind::LinkDropAck));
                    }
                }
            }
            if let Some(o) = &mut self.oracle {
                note_burst(&mut o.events, &mut o.last_burst_c2s, &self.c2s, now);
            }
        }
        self.resched_tick(now, /*server=*/ false);
    }

    fn server_receive(&mut self, now: SimTime, seg: Segment) {
        self.trace.record(&seg_to_record(now, Direction::In, &seg));
        if seg.flags.syn && !seg.flags.ack {
            if !self.established_server {
                self.server.tx.set_peer_rwnd(seg.rwnd);
                self.send_synack(now, 0);
            }
            return;
        }
        if !self.established_server {
            self.established_server = true;
            // Seed the server's RTT estimator from the handshake round trip,
            // as the kernel does (SYN-ACK → completing ACK).
            if let Some(sa) = self.synack_sent_at {
                if !self.rtt_seeded {
                    let sample = now.saturating_since(sa);
                    if !sample.is_zero() {
                        self.server.tx.seed_rtt(sample);
                        self.rtt_seeded = true;
                    }
                }
            }
        }
        let mut out = std::mem::take(&mut self.seg_buf);
        self.server.on_segment(now, &seg, &mut out);
        // The server application reads requests immediately.
        let buffered = self.server.rx.buffered();
        if buffered > 0 {
            self.server.app_read(now, buffered, &mut out);
        }
        self.server_send(now, &mut out);
        self.seg_buf = out;
        self.check_new_requests(now);
        self.check_response_completion(now);
    }

    fn client_receive(&mut self, now: SimTime, seg: Segment) {
        if seg.flags.syn && seg.flags.ack {
            if !self.established_client {
                self.established_client = true;
                self.established_at = Some(now);
                self.client.tx.set_peer_rwnd(seg.rwnd);
                // Complete the handshake.
                let ack = Segment::pure_ack(0, self.client.rx.rwnd());
                let mut out = std::mem::take(&mut self.seg_buf);
                out.push(ack);
                self.client_send(now, &mut out);
                self.seg_buf = out;
                if let Some(first) = self.requests.first() {
                    if let Some(o) = &mut self.oracle {
                        if !first.think_time.is_zero() {
                            o.events.push(CauseEvent::span(
                                now,
                                now + first.think_time,
                                CauseKind::ClientIdle,
                            ));
                        }
                    }
                    self.q.push(now + first.think_time, Ev::IssueRequest(0));
                }
            }
            return;
        }
        let mut out = std::mem::take(&mut self.seg_buf);
        self.client.on_segment(now, &seg, &mut out);
        self.client_send(now, &mut out);
        self.seg_buf = out;
        self.client_drain_tick(now);
        self.check_client_progress(now);
    }

    // ------------------------------------------------------- application

    fn issue_request(&mut self, now: SimTime, i: usize) {
        let spec = self.requests[i];
        self.issue_times[i] = Some(now);
        self.client.tx.app_write(spec.request_bytes as u64);
        let mut out = std::mem::take(&mut self.seg_buf);
        self.client.poll(now, &mut out);
        self.client_send(now, &mut out);
        self.seg_buf = out;
    }

    /// Queue server-side supply events once a request has fully arrived.
    fn check_new_requests(&mut self, now: SimTime) {
        while self.next_request_seen < self.request_boundary_in.len()
            && self.server.rx.stats().bytes_delivered
                >= self.request_boundary_in[self.next_request_seen]
        {
            let i = self.next_request_seen;
            self.next_request_seen += 1;
            let spec = self.requests[i];
            let last_request = i + 1 == self.requests.len();
            match spec.supply {
                None => {
                    self.supplies.push_back(Supply {
                        delay: spec.backend_delay,
                        bytes: spec.response_bytes,
                        close: last_request,
                        first: true,
                    });
                }
                Some(p) => {
                    let chunk = p.chunk_bytes.max(1);
                    let mut remaining = spec.response_bytes;
                    let mut first = true;
                    while remaining > 0 {
                        let b = remaining.min(chunk);
                        remaining -= b;
                        let delay = if first { spec.backend_delay } else { p.gap };
                        self.supplies.push_back(Supply {
                            delay,
                            bytes: b,
                            close: last_request && remaining == 0,
                            first,
                        });
                        first = false;
                    }
                }
            }
            self.pump_supply(now);
        }
    }

    fn pump_supply(&mut self, now: SimTime) {
        if self.supply_active {
            return;
        }
        if let Some(Supply {
            delay,
            bytes,
            close,
            first,
        }) = self.supplies.pop_front()
        {
            self.supply_active = true;
            if let Some(o) = &mut self.oracle {
                if !delay.is_zero() {
                    // The server application cannot produce data during
                    // [now, now+delay]: a backend fetch before a response's
                    // first byte, or a rate-limit gap between chunks.
                    let kind = if first {
                        CauseKind::DataUnavailable
                    } else {
                        CauseKind::ResourceConstraint
                    };
                    o.events.push(CauseEvent::span(now, now + delay, kind));
                }
            }
            self.q.push(now + delay, Ev::Supply { bytes, close });
        }
    }

    /// Latency bookkeeping: a request is complete when the server has seen
    /// every response byte cumulatively ACKed. Requests complete strictly
    /// in order (boundaries and `snd_una` are monotone, and request `i+1`
    /// is never issued before `i`), so the scan resumes at the first
    /// unresolved request and stops at the first it can't resolve.
    fn check_response_completion(&mut self, now: SimTime) {
        let una = self.server.tx.scoreboard().snd_una();
        let mut i = self.next_resp_done;
        while i < self.latencies.len() {
            if self.latencies[i].is_some() {
                i += 1;
                continue;
            }
            if una < self.response_boundary_out[i] {
                break;
            }
            match self.issue_times[i] {
                Some(t0) => {
                    self.latencies[i] = Some(now.saturating_since(t0));
                    self.pending_latencies -= 1;
                    i += 1;
                }
                None => break,
            }
        }
        self.next_resp_done = i;
    }

    /// Client-side progress: when a response has fully arrived, schedule the
    /// next request after its think time. `rcv_nxt` is monotone and requests
    /// are issued strictly in order, so a response index is fully handled
    /// once its successor is scheduled — the scan resumes past it and stops
    /// at the first index it can't yet act on.
    fn check_client_progress(&mut self, now: SimTime) {
        let got = self.client.rx.rcv_nxt();
        let mut i = self.next_progress;
        while i < self.response_boundary_out.len() && got >= self.response_boundary_out[i] {
            let next = i + 1;
            if next >= self.requests.len() || self.issue_times[next].is_some() {
                i = next;
                continue;
            }
            if self.issue_times[i].is_none() {
                break;
            }
            // Mark as scheduled so we don't double-issue.
            self.issue_times[next] = Some(SimTime::MAX);
            let think = self.requests[next].think_time;
            if let Some(o) = &mut self.oracle {
                if !think.is_zero() {
                    o.events
                        .push(CauseEvent::span(now, now + think, CauseKind::ClientIdle));
                }
            }
            self.q.push(now + think, Ev::IssueRequest(next));
            i = next;
        }
        self.next_progress = i;
    }

    fn client_drain_tick(&mut self, now: SimTime) {
        match self.client_drain {
            None => {
                let buffered = self.client.rx.buffered();
                if buffered > 0 {
                    let mut out = std::mem::take(&mut self.seg_buf);
                    self.client.app_read(now, buffered, &mut out);
                    self.client_send(now, &mut out);
                    self.seg_buf = out;
                }
            }
            Some(rate) => {
                // Start the rate-limited read loop; the reads themselves
                // happen on ClientRead events.
                if self.read_pending || self.client.rx.buffered() == 0 {
                    return;
                }
                let chunk = self.client.rx.config().mss as u64;
                let interval = SimDuration::from_secs_f64(chunk as f64 / rate.max(1) as f64);
                self.read_pending = true;
                self.q.push(now + interval, Ev::ClientRead);
            }
        }
    }

    // ------------------------------------------------------------- oracle

    /// Capture the server sender's state the instant before a tick, as the
    /// ground truth behind a possible RTO firing — everything the Table-5
    /// retransmission subclassification needs. Pure observation: reads the
    /// scoreboard and the oracle's own bookkeeping, mutates nothing.
    fn server_rto_context(&self) -> Option<RtoContext> {
        let o = self.oracle.as_ref()?;
        let tx = &self.server.tx;
        let sb = tx.scoreboard();
        let head = sb.head()?;
        let head_end = head.seq_end();
        // Dropped-by-the-link check: any recorded data drop at or after the
        // head's (re)transmission that overlaps the head's byte range.
        let head_dropped = o
            .dropped_data
            .iter()
            .any(|&(t, seq, len)| t >= head.first_tx && seq < head_end && seq + len > head.seq);
        Some(RtoContext {
            head_seq: head.seq,
            head_len: head.len as u64,
            head_retransmitted: head.retrans_count >= 1,
            first_retrans_fast: head.first_retrans_fast == Some(true),
            head_is_tail: sb.snd_nxt() >= o.supplied,
            packets_out: sb.packets_out() as u64,
            rwnd_limited: sb.snd_nxt().saturating_sub(sb.snd_una()) >= tx.peer_rwnd(),
            head_dropped,
        })
    }

    // ------------------------------------------------------------ timers

    /// Re-arm the host's tick after a state change. Scheduling is
    /// *suppressed* when a tick at or before the wanted time is already
    /// pending for this host: that earlier tick will run `on_tick` (a no-op
    /// if its deadline moved) and re-arm from there, so every armed
    /// deadline is still reached — without flooding the queue with one
    /// duplicate tick per ACK as deadlines slide forward.
    fn resched_tick(&mut self, now: SimTime, server: bool) {
        let deadline = if server {
            self.server.next_deadline()
        } else {
            self.client.next_deadline()
        };
        if let Some(d) = deadline {
            let at = d.max(now);
            let ticks = if server {
                &mut self.server_ticks
            } else {
                &mut self.client_ticks
            };
            if ticks.last().is_some_and(|&pending| pending <= at) {
                return;
            }
            ticks.push(at);
            self.q.push(
                at,
                if server {
                    Ev::TickServer
                } else {
                    Ev::TickClient
                },
            );
        }
    }
}

/// Record the link's currently active delay burst as a [`CauseKind::DelayBurst`]
/// interval event, once per burst (deduped by burst start). Read-only with
/// respect to the link: [`Link::current_burst`] never advances the burst
/// schedule or consumes randomness.
fn note_burst(events: &mut Vec<CauseEvent>, last: &mut Option<SimTime>, link: &Link, now: SimTime) {
    if let Some((start, end)) = link.current_burst() {
        if start <= now && now <= end && *last != Some(start) {
            *last = Some(start);
            events.push(CauseEvent::span(start, end, CauseKind::DelayBurst));
        }
    }
}

fn seg_to_record(t: SimTime, dir: Direction, seg: &Segment) -> TraceRecord {
    TraceRecord {
        t,
        dir,
        seq: seg.seq,
        len: seg.len,
        flags: seg.flags,
        ack: seg.ack,
        rwnd: seg.rwnd,
        sack: seg.sack,
        dsack: seg.dsack,
    }
}

/// Issue-time sentinel cleanup is internal; outcomes report `SimDuration::MAX`
/// for requests that never completed.
#[cfg(test)]
mod tests {
    use super::*;
    use simnet::loss::LossSpec;

    fn base_cfg(resp: u64) -> FlowSimConfig {
        FlowSimConfig {
            script: FlowScript::single(resp),
            c2s: LinkConfig {
                prop_delay: SimDuration::from_millis(50),
                ..LinkConfig::default()
            },
            s2c: LinkConfig {
                prop_delay: SimDuration::from_millis(50),
                ..LinkConfig::default()
            },
            ..FlowSimConfig::default()
        }
    }

    #[test]
    fn lossless_flow_completes_with_clean_trace() {
        let out = FlowSim::new(base_cfg(50_000), 1).run();
        assert!(out.established);
        assert!(out.completed);
        assert_eq!(out.server_stats.retrans_segs, 0);
        assert_eq!(out.server_stats.rto_count, 0);
        // Trace contains the SYN, the SYN-ACK and data both ways.
        let recs = &out.trace.records;
        assert!(recs
            .iter()
            .any(|r| r.flags.syn && !r.flags.ack && r.dir == Direction::In));
        assert!(recs
            .iter()
            .any(|r| r.flags.syn && r.flags.ack && r.dir == Direction::Out));
        assert_eq!(out.trace.goodput_bytes_out(), 50_000);
        // Latency ≈ 1 RTT handshake-to-request + transfer time; just sanity.
        assert!(out.request_latencies[0] < SimDuration::from_secs(5));
    }

    #[test]
    fn flow_with_loss_still_completes() {
        let mut cfg = base_cfg(200_000);
        cfg.s2c.loss = LossSpec::bernoulli(0.06);
        cfg.c2s.loss = LossSpec::bernoulli(0.02);
        let out = FlowSim::new(cfg, 7).run();
        assert!(out.completed, "flow must recover from losses");
        assert!(out.server_stats.retrans_segs > 0);
        assert_eq!(out.trace.goodput_bytes_out(), 200_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = FlowSim::new(base_cfg(100_000), 42).run();
        let b = FlowSim::new(base_cfg(100_000), 42).run();
        assert_eq!(a.trace.records, b.trace.records);
        assert_eq!(a.request_latencies, b.request_latencies);
        let mut cfg = base_cfg(100_000);
        cfg.s2c.loss = LossSpec::bernoulli(0.05);
        let c = FlowSim::new(cfg.clone(), 42).run();
        let d = FlowSim::new(cfg, 42).run();
        assert_eq!(c.trace.records, d.trace.records);
    }

    #[test]
    fn streaming_run_matches_materialized_trace() {
        // The streaming path must feed the sink exactly the records the
        // materializing path stores, and leave the outcome's trace empty.
        let materialized = FlowSim::new(base_cfg(100_000), 11).run();
        let (out, sink) =
            FlowSim::with_sink(base_cfg(100_000), 11, FlowTrace::default()).run_streaming();
        assert!(out.trace.records.is_empty());
        assert_eq!(sink.records, materialized.trace.records);
        assert_eq!(out.request_latencies, materialized.request_latencies);
        assert_eq!(out.server_stats, materialized.server_stats);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_state() {
        // One FlowScratch recycled across dissimilar flows (lossless, lossy,
        // multi-request) must reproduce the fresh-construction path exactly:
        // same traces, same latencies, same stats.
        let mut lossy = base_cfg(200_000);
        lossy.s2c.loss = LossSpec::bernoulli(0.06);
        let mut multi = base_cfg(0);
        multi.script = FlowScript {
            requests: vec![
                RequestSpec::simple(20_000),
                RequestSpec {
                    think_time: SimDuration::from_secs(1),
                    ..RequestSpec::simple(40_000)
                },
            ],
        };
        let cases: Vec<(FlowSimConfig, u64)> = vec![
            (base_cfg(50_000), 1),
            (lossy, 7),
            (multi, 3),
            (base_cfg(1_000), 9),
            (base_cfg(50_000), 1), // repeat: scratch sized by a previous flow
        ];
        let mut scratch = FlowScratch::new();
        for (cfg, seed) in cases {
            let fresh = FlowSim::new(cfg.clone(), seed).run();
            let key = FlowKey::synthetic(cfg.flow_id);
            let (mut out, trace) =
                FlowSim::with_sink_scratch(cfg, seed, FlowTrace::new(key), &mut scratch)
                    .run_streaming_into(&mut scratch);
            out.trace = trace;
            assert_eq!(out.trace.records, fresh.trace.records);
            assert_eq!(out.request_latencies, fresh.request_latencies);
            assert_eq!(out.server_stats, fresh.server_stats);
            assert_eq!(out.established_at, fresh.established_at);
            assert_eq!(out.finished_at, fresh.finished_at);
        }
    }

    #[test]
    fn multi_request_flow_has_client_idle_gaps() {
        let mut cfg = base_cfg(0);
        cfg.script = FlowScript {
            requests: vec![
                RequestSpec::simple(20_000),
                RequestSpec {
                    think_time: SimDuration::from_secs(2),
                    ..RequestSpec::simple(20_000)
                },
            ],
        };
        let out = FlowSim::new(cfg, 3).run();
        assert!(out.completed);
        assert_eq!(out.request_latencies.len(), 2);
        // The trace must span at least the 2s think time.
        assert!(out.trace.duration() >= SimDuration::from_secs(2));
    }

    #[test]
    fn backend_delay_stalls_head_of_response() {
        let mut cfg = base_cfg(0);
        cfg.script.requests = vec![RequestSpec {
            backend_delay: SimDuration::from_millis(800),
            ..RequestSpec::simple(20_000)
        }];
        let out = FlowSim::new(cfg, 4).run();
        assert!(out.completed);
        // First outbound data appears ≥ 800ms after the request arrived.
        let req_t = out
            .trace
            .records
            .iter()
            .find(|r| r.dir == Direction::In && r.has_data())
            .unwrap()
            .t;
        let first_data_t = out
            .trace
            .records
            .iter()
            .find(|r| r.dir == Direction::Out && r.has_data())
            .unwrap()
            .t;
        assert!(first_data_t.saturating_since(req_t) >= SimDuration::from_millis(800));
    }

    #[test]
    fn slow_client_drain_produces_zero_window() {
        // A 4096-byte client buffer (the paper's "2 MSS" old-software
        // clients, Fig. 6) with a slow application drain must produce
        // genuine zero-window advertisements.
        let mut cfg = base_cfg(100_000);
        cfg.client_rx.buf_bytes = 4096;
        cfg.client_drain = Some(20_000); // 20 KB/s against a fast sender
        cfg.max_time = SimDuration::from_secs(300);
        let out = FlowSim::new(cfg, 5).run();
        assert!(out.completed);
        assert!(out
            .trace
            .records
            .iter()
            .any(|r| r.dir == Direction::In && r.flags.ack && !r.flags.syn && r.rwnd == 0));
    }

    #[test]
    fn syn_loss_is_retransmitted_after_timeout() {
        let mut cfg = base_cfg(10_000);
        cfg.c2s.loss = LossSpec::Script { drops: vec![0] }; // drop the first SYN
        let out = FlowSim::new(cfg, 6).run();
        assert!(out.established);
        assert!(out.completed);
        assert!(out.established_at.unwrap() >= SimTime::from_secs(3));
    }

    #[test]
    fn oracle_is_a_pure_side_channel() {
        // The ground-truth oracle must not perturb packet-visible output:
        // same config, same seed, with and without the oracle → identical
        // traces and outcomes, on a config exercising loss, delay bursts,
        // think time, backend delay, chunked supply and slow client drain.
        let mut cfg = base_cfg(0);
        cfg.script = FlowScript {
            requests: vec![
                RequestSpec {
                    backend_delay: SimDuration::from_millis(600),
                    ..RequestSpec::simple(60_000)
                },
                RequestSpec {
                    think_time: SimDuration::from_secs(1),
                    supply: Some(SupplyPauses {
                        chunk_bytes: 20_000,
                        gap: SimDuration::from_millis(400),
                    }),
                    ..RequestSpec::simple(60_000)
                },
            ],
        };
        cfg.s2c.loss = LossSpec::bernoulli(0.04);
        cfg.c2s.loss = LossSpec::bernoulli(0.02);
        cfg.s2c.delay_burst_hz = 0.5;
        cfg.s2c.delay_burst_len = SimDuration::from_millis(400);
        cfg.s2c.delay_burst_extra = SimDuration::from_millis(300);
        cfg.client_drain = Some(400_000);
        for seed in [3u64, 17, 90] {
            let plain = FlowSim::new(cfg.clone(), seed).run();
            let traced = FlowSim::new(cfg.clone(), seed).with_oracle().run();
            assert_eq!(plain.trace.records, traced.trace.records);
            assert_eq!(plain.request_latencies, traced.request_latencies);
            assert_eq!(plain.server_stats, traced.server_stats);
            assert_eq!(plain.finished_at, traced.finished_at);
            assert_eq!(plain.s2c_stats, traced.s2c_stats);
            assert!(plain.oracle.is_empty(), "oracle off ⇒ no events");
            assert!(!traced.oracle.is_empty(), "oracle on ⇒ labelled events");
            // Events are well-formed intervals.
            for ev in &traced.oracle {
                assert!(ev.start <= ev.end, "bad interval {ev:?}");
            }
        }
    }

    #[test]
    fn oracle_labels_match_scripted_causes() {
        // Each scripted behaviour must surface as its cause kind.
        let mut cfg = base_cfg(0);
        cfg.script = FlowScript {
            requests: vec![
                RequestSpec {
                    backend_delay: SimDuration::from_millis(800),
                    ..RequestSpec::simple(20_000)
                },
                RequestSpec {
                    think_time: SimDuration::from_secs(2),
                    supply: Some(SupplyPauses {
                        chunk_bytes: 10_000,
                        gap: SimDuration::from_millis(500),
                    }),
                    ..RequestSpec::simple(30_000)
                },
            ],
        };
        let out = FlowSim::new(cfg, 4).with_oracle().run();
        assert!(out.completed);
        let has = |pred: &dyn Fn(&CauseKind) -> bool| out.oracle.iter().any(|e| pred(&e.kind));
        assert!(has(&|k| matches!(k, CauseKind::DataUnavailable)));
        assert!(has(&|k| matches!(k, CauseKind::ResourceConstraint)));
        assert!(has(&|k| matches!(k, CauseKind::ClientIdle)));
        // Lossless script ⇒ no drop or timer events.
        assert!(!has(&|k| matches!(
            k,
            CauseKind::LinkDropData { .. } | CauseKind::LinkDropAck | CauseKind::RtoFired(_)
        )));

        // Zero-window behaviour from a tiny client buffer + slow drain.
        let mut zcfg = base_cfg(100_000);
        zcfg.client_rx.buf_bytes = 4096;
        zcfg.client_drain = Some(20_000);
        let zout = FlowSim::new(zcfg, 5).with_oracle().run();
        assert!(zout
            .oracle
            .iter()
            .any(|e| matches!(e.kind, CauseKind::ZeroWindow)));

        // Heavy data-direction loss ⇒ drop labels, and RTO firings carry a
        // context whose head really was dropped at least once.
        let mut lcfg = base_cfg(200_000);
        lcfg.s2c.loss = LossSpec::bernoulli(0.08);
        let lout = FlowSim::new(lcfg, 7).with_oracle().run();
        assert!(lout
            .oracle
            .iter()
            .any(|e| matches!(e.kind, CauseKind::LinkDropData { .. })));
        if lout.server_stats.rto_count > 0 {
            assert!(lout
                .oracle
                .iter()
                .any(|e| matches!(e.kind, CauseKind::RtoFired(_))));
        }
    }

    #[test]
    fn small_init_rwnd_is_advertised_in_syn() {
        let mut cfg = base_cfg(30_000);
        cfg.client_rx.buf_bytes = 4096;
        cfg.max_time = SimDuration::from_secs(120);
        let out = FlowSim::new(cfg, 8).run();
        let syn = out
            .trace
            .records
            .iter()
            .find(|r| r.flags.syn && !r.flags.ack)
            .unwrap();
        assert_eq!(syn.rwnd, 4096);
        assert!(out.completed);
    }
}
