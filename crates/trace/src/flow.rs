//! Per-flow traces and multi-flow capture reassembly.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::record::{Direction, RecordSink, TraceRecord};
use simnet::time::{SimDuration, SimTime};

/// The canonical 4-tuple identifying a flow, oriented so that the *server*
/// is the source of [`Direction::Out`] packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKey {
    /// Server IPv4 address.
    pub server_ip: [u8; 4],
    /// Server TCP port.
    pub server_port: u16,
    /// Client IPv4 address.
    pub client_ip: [u8; 4],
    /// Client TCP port.
    pub client_port: u16,
}

impl FlowKey {
    /// A synthetic key for simulator-generated flows, unique per flow id.
    pub fn synthetic(flow_id: u32) -> Self {
        FlowKey {
            server_ip: [10, 0, 0, 1],
            server_port: 80,
            client_ip: [
                192,
                168,
                ((flow_id >> 8) & 0xff) as u8,
                (flow_id & 0xff) as u8,
            ],
            // Wrapping keeps the id→key map bijective (adding a constant
            // mod 2^16 permutes the port space) without overflowing for
            // ids above 0xd8f0_0000.
            client_port: 10_000u16.wrapping_add((flow_id >> 16) as u16),
        }
    }
}

/// Two words per key: the two addresses, then the two ports. The derived
/// impl would feed a hasher 28 bytes (a length prefix per address array),
/// and every live packet probes a map keyed by this type.
impl Hash for FlowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ips = u64::from(u32::from_le_bytes(self.server_ip)) << 32
            | u64::from(u32::from_le_bytes(self.client_ip));
        state.write_u64(ips);
        state.write_u64(u64::from(self.server_port) << 16 | u64::from(self.client_port));
    }
}

/// The trace of one TCP flow as captured at the server, in time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowTrace {
    /// Flow identity (synthetic for simulated flows).
    pub key: Option<FlowKey>,
    /// Time-ordered records, both directions.
    pub records: Vec<TraceRecord>,
}

impl FlowTrace {
    /// An empty trace with the given key.
    pub fn new(key: FlowKey) -> Self {
        FlowTrace {
            key: Some(key),
            records: Vec::new(),
        }
    }

    /// Re-key the trace for a new flow, dropping all records but keeping
    /// the record vector's backing storage — the recycling counterpart of
    /// [`FlowTrace::new`] for workers that materialize many traces whose
    /// records do not outlive the per-flow processing.
    pub fn reset_for(&mut self, key: FlowKey) {
        self.key = Some(key);
        self.records.clear();
    }

    /// Append a record; panics in debug builds if time order is violated.
    pub fn push(&mut self, rec: TraceRecord) {
        debug_assert!(
            self.records.last().is_none_or(|p| p.t <= rec.t),
            "trace records must be pushed in time order"
        );
        self.records.push(rec);
    }

    /// Capture timestamp of the first record.
    pub fn start(&self) -> Option<SimTime> {
        self.records.first().map(|r| r.t)
    }

    /// Capture timestamp of the last record.
    pub fn end(&self) -> Option<SimTime> {
        self.records.last().map(|r| r.t)
    }

    /// Wall-clock span of the trace.
    pub fn duration(&self) -> SimDuration {
        match (self.start(), self.end()) {
            (Some(s), Some(e)) => e - s,
            _ => SimDuration::ZERO,
        }
    }

    /// Total payload bytes seen per direction `(out, in)`, counting
    /// retransmissions once per transmission (wire bytes, not goodput).
    pub fn wire_bytes(&self) -> (u64, u64) {
        let mut out = 0;
        let mut inb = 0;
        for r in &self.records {
            match r.dir {
                Direction::Out => out += r.len as u64,
                Direction::In => inb += r.len as u64,
            }
        }
        (out, inb)
    }

    /// Unique payload bytes in the server→client direction (goodput bytes):
    /// the highest `seq_end` over outbound data records.
    pub fn goodput_bytes_out(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.dir == Direction::Out && r.has_data())
            .map(|r| r.seq_end())
            .max()
            .unwrap_or(0)
    }

    /// Iterate over outbound data records.
    pub fn out_data(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records
            .iter()
            .filter(|r| r.dir == Direction::Out && r.has_data())
    }
}

impl RecordSink for FlowTrace {
    fn record(&mut self, rec: &TraceRecord) {
        self.push(*rec);
    }
}

/// Reassembles an interleaved multi-flow capture into per-flow traces.
///
/// Records must be offered in capture (time) order; flows are keyed by the
/// 4-tuple. A 4-tuple is *reusable*: once a flow has closed (a FIN or RST
/// was seen), a later bare SYN on the same key starts a fresh flow instead
/// of merging into the dead one — ephemeral client ports recycle quickly on
/// busy servers. Post-close stragglers that are not SYNs (retransmitted
/// FINs, final ACKs) still append to the closed flow.
#[derive(Debug, Default)]
pub struct FlowTable {
    /// Key → index of the *current* generation in `traces`.
    current: HashMap<FlowKey, usize>,
    /// All generations, in first-seen order.
    traces: Vec<FlowTrace>,
    /// Whether a FIN or RST has been seen, parallel to `traces`.
    closed: Vec<bool>,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer one record belonging to `key`.
    pub fn push(&mut self, key: FlowKey, rec: TraceRecord) {
        let idx = match self.current.get(&key) {
            Some(&i) if self.closed[i] && rec.flags.syn && !rec.flags.ack => {
                // Key reuse: the previous flow on this 4-tuple is closed and
                // a new connection attempt arrived — rotate to a fresh flow.
                let fresh = self.traces.len();
                self.traces.push(FlowTrace::new(key));
                self.closed.push(false);
                self.current.insert(key, fresh);
                fresh
            }
            Some(&i) => i,
            None => {
                let fresh = self.traces.len();
                self.traces.push(FlowTrace::new(key));
                self.closed.push(false);
                self.current.insert(key, fresh);
                fresh
            }
        };
        if rec.flags.fin || rec.flags.rst {
            self.closed[idx] = true;
        }
        self.traces[idx].push(rec);
    }

    /// True if the current flow on `key` has seen a FIN or RST (a bare SYN
    /// arriving next would start a new flow). False for unknown keys.
    pub fn is_closed(&self, key: &FlowKey) -> bool {
        self.current.get(key).is_some_and(|&i| self.closed[i])
    }

    /// Number of distinct flows seen (key reuse counts each generation).
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True if no flows were seen.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Consume the table, yielding traces in first-seen order.
    pub fn into_traces(self) -> Vec<FlowTrace> {
        self.traces
    }

    /// Borrow the current generation of a flow by key.
    pub fn get(&self, key: &FlowKey) -> Option<&FlowTrace> {
        self.current.get(key).map(|&i| &self.traces[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{SackList, SegFlags};

    fn rec(t_ms: u64, dir: Direction, seq: u64, len: u32) -> TraceRecord {
        TraceRecord {
            t: SimTime::from_millis(t_ms),
            dir,
            seq,
            len,
            flags: SegFlags::ACK,
            ack: 0,
            rwnd: 65535,
            sack: SackList::new(),
            dsack: false,
        }
    }

    #[test]
    fn flow_trace_accumulates_metrics() {
        let mut ft = FlowTrace::new(FlowKey::synthetic(1));
        ft.push(rec(0, Direction::In, 0, 100)); // request
        ft.push(rec(10, Direction::Out, 0, 1448));
        ft.push(rec(12, Direction::Out, 1448, 1448));
        ft.push(rec(40, Direction::Out, 0, 1448)); // retransmission
        assert_eq!(ft.duration(), SimDuration::from_millis(40));
        assert_eq!(ft.wire_bytes(), (1448 * 3, 100));
        assert_eq!(ft.goodput_bytes_out(), 2896);
        assert_eq!(ft.out_data().count(), 3);
    }

    #[test]
    fn flow_table_demultiplexes_in_first_seen_order() {
        let mut table = FlowTable::new();
        let k1 = FlowKey::synthetic(1);
        let k2 = FlowKey::synthetic(2);
        table.push(k1, rec(0, Direction::Out, 0, 10));
        table.push(k2, rec(1, Direction::Out, 0, 20));
        table.push(k1, rec(2, Direction::Out, 10, 10));
        assert_eq!(table.len(), 2);
        let traces = table.into_traces();
        assert_eq!(traces[0].records.len(), 2);
        assert_eq!(traces[1].records.len(), 1);
        assert_eq!(traces[0].key, Some(k1));
    }

    #[test]
    fn key_reuse_after_close_starts_fresh_flow() {
        // A closed flow's 4-tuple gets reused by a new connection: the bare
        // SYN must open a second generation, not merge into the dead flow.
        let mut table = FlowTable::new();
        let k = FlowKey::synthetic(9);
        let syn = |t_ms| TraceRecord {
            flags: SegFlags {
                syn: true,
                ack: false,
                ..Default::default()
            },
            ..rec(t_ms, Direction::In, 0, 0)
        };
        let fin = |t_ms| TraceRecord {
            flags: SegFlags {
                fin: true,
                ack: true,
                ..Default::default()
            },
            ..rec(t_ms, Direction::Out, 10, 0)
        };
        table.push(k, syn(0));
        table.push(k, rec(1, Direction::Out, 0, 10));
        assert!(!table.is_closed(&k));
        table.push(k, fin(2));
        assert!(table.is_closed(&k));
        // A straggling final ACK still lands on the closed generation.
        table.push(k, rec(3, Direction::In, 0, 0));
        // ... but a fresh SYN rotates.
        table.push(k, syn(10));
        assert!(!table.is_closed(&k));
        table.push(k, rec(11, Direction::Out, 0, 20));
        assert_eq!(table.len(), 2);
        let traces = table.into_traces();
        assert_eq!(traces[0].records.len(), 4);
        assert_eq!(traces[1].records.len(), 2);
        assert_eq!(traces[0].key, Some(k));
        assert_eq!(traces[1].key, Some(k));
    }

    #[test]
    fn rst_also_closes_for_reuse() {
        let mut table = FlowTable::new();
        let k = FlowKey::synthetic(3);
        let mut rst = rec(0, Direction::Out, 0, 0);
        rst.flags.rst = true;
        table.push(k, rst);
        assert!(table.is_closed(&k));
        let mut syn = rec(5, Direction::In, 0, 0);
        syn.flags = SegFlags::SYN;
        table.push(k, syn);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn non_syn_after_close_does_not_rotate() {
        let mut table = FlowTable::new();
        let k = FlowKey::synthetic(4);
        let mut fin = rec(0, Direction::Out, 0, 0);
        fin.flags.fin = true;
        table.push(k, fin);
        table.push(k, rec(1, Direction::In, 0, 0));
        // A SYN-ACK is not a connection attempt from the client either.
        let mut synack = rec(2, Direction::Out, 0, 0);
        synack.flags = SegFlags::SYN_ACK;
        table.push(k, synack);
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(&k).unwrap().records.len(), 3);
    }

    #[test]
    fn synthetic_keys_are_unique() {
        let a = FlowKey::synthetic(1);
        let b = FlowKey::synthetic(2);
        let c = FlowKey::synthetic(65536 + 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_trace_metrics() {
        let ft = FlowTrace::default();
        assert_eq!(ft.duration(), SimDuration::ZERO);
        assert_eq!(ft.goodput_bytes_out(), 0);
        assert_eq!(ft.start(), None);
    }
}
