//! The open-loop reader: feeds a capture held in memory to the live
//! pipeline on a schedule and knows when each packet was due, so report
//! lag can be measured from outside. It runs on the pipeline's own thread:
//! the pipeline pulls from it through `Read`, no generator thread exists.

use std::io::{self, Read};
use std::time::{Duration, Instant};

/// Where each packet of a capture ends and which packet makes the live
/// driver cut each interval report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureIndex {
    /// Byte offset just past packet `i`'s pcap record.
    pub ends: Vec<u64>,
    /// For report `k`, the index of the packet whose arrival triggers it:
    /// the first packet of a later interval, and for the last report the
    /// last packet (the driver cuts it at end of input).
    pub triggers: Vec<usize>,
}

/// Index a little-endian classic pcap as `PcapWriter` produces it. The
/// cut rule mirrors `tapo::live::run`: a packet at or past the next
/// interval boundary closes the current interval before it is processed.
pub fn index_capture(capture: &[u8], interval_us: u64) -> CaptureIndex {
    assert!(
        capture.len() >= 24 && capture[..4] == 0xa1b2_c3d4u32.to_le_bytes(),
        "not a little-endian classic pcap"
    );
    let le32 = |at: usize| u32::from_le_bytes(capture[at..at + 4].try_into().expect("4 bytes"));
    let mut ends = Vec::new();
    let mut triggers = Vec::new();
    let mut pos = 24usize;
    let mut next_cut_us = 0u64;
    let mut opened = false;
    while pos + 16 <= capture.len() {
        let t_us = le32(pos) as u64 * 1_000_000 + le32(pos + 4) as u64;
        let caplen = le32(pos + 8) as usize;
        pos += 16 + caplen;
        assert!(pos <= capture.len(), "truncated record");
        if t_us >= next_cut_us {
            if opened {
                triggers.push(ends.len());
            }
            opened = true;
            next_cut_us = (t_us / interval_us + 1) * interval_us;
        }
        ends.push(pos as u64);
    }
    if opened {
        triggers.push(ends.len() - 1);
    }
    CaptureIndex { ends, triggers }
}

/// Open loop: packet `i` becomes readable `i / rate` seconds after the
/// first read, whether or not the pipeline kept up. A read that finds
/// nothing due busy-waits for the next packet.
pub struct PacedReader<'a> {
    data: &'a [u8],
    ends: &'a [u64],
    gap_ns: f64,
    start: Option<Instant>,
    pos: usize,
    /// First packet not yet fully handed over.
    next_pkt: usize,
    pub reads: u64,
    /// Furthest the pipeline fell behind the schedule: at a read, how long
    /// the oldest unread packet had been due.
    pub backlog_max: Duration,
    /// The same, at the read that handed over the last byte.
    pub backlog_final: Duration,
}

impl<'a> PacedReader<'a> {
    pub fn new(data: &'a [u8], ends: &'a [u64], pkts_per_s: f64) -> Self {
        PacedReader {
            data,
            ends,
            gap_ns: 1e9 / pkts_per_s,
            start: None,
            pos: 0,
            next_pkt: 0,
            reads: 0,
            backlog_max: Duration::ZERO,
            backlog_final: Duration::ZERO,
        }
    }

    fn due_after(&self, pkt: usize) -> Duration {
        Duration::from_nanos((pkt as f64 * self.gap_ns) as u64)
    }

    /// When packet `pkt` was due. Only valid once reading has started.
    pub fn due_at(&self, pkt: usize) -> Instant {
        self.start.expect("reading started") + self.due_after(pkt)
    }
}

impl Read for PacedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.data.len() || buf.is_empty() {
            return Ok(0);
        }
        let start = *self.start.get_or_insert_with(Instant::now);
        let mut now = start.elapsed();
        let behind = now.saturating_sub(self.due_after(self.next_pkt));
        self.backlog_max = self.backlog_max.max(behind);
        while now < self.due_after(self.next_pkt) {
            std::hint::spin_loop();
            now = start.elapsed();
        }
        // Packets 0..due are releasable; `next_pkt` is among them.
        let due = ((now.as_nanos() as f64 / self.gap_ns) as usize + 1).min(self.ends.len());
        let upto = self.ends[due.max(self.next_pkt + 1) - 1] as usize;
        let n = buf.len().min(upto - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        while self.next_pkt < self.ends.len() && self.ends[self.next_pkt] as usize <= self.pos {
            self.next_pkt += 1;
        }
        self.reads += 1;
        if self.pos == self.data.len() {
            self.backlog_final = behind;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimDuration;
    use workloads::{generate_interleaved, LiveGenSpec};

    fn small_capture() -> Vec<u8> {
        let spec = LiveGenSpec {
            flows_per_service: 4,
            seed: 9,
            mean_gap: SimDuration::from_millis(5),
            threads: 1,
            ..Default::default()
        };
        let mut buf = Vec::new();
        generate_interleaved(&mut buf, &spec).unwrap();
        buf
    }

    #[test]
    fn index_agrees_with_the_live_driver() {
        let cap = small_capture();
        let idx = index_capture(&cap, 1_000_000);
        assert_eq!(*idx.ends.last().unwrap() as usize, cap.len());
        let mut reports = 0usize;
        let summary = tapo::live::run(&cap[..], &tapo::live::LiveConfig::default(), |_| {
            reports += 1
        })
        .unwrap();
        assert_eq!(idx.ends.len() as u64, summary.packets);
        assert_eq!(idx.triggers.len(), reports);
        assert!(idx.triggers.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn paced_reader_is_byte_exact_and_never_early() {
        let cap = small_capture();
        let idx = index_capture(&cap, 1_000_000);
        // 200k packets/s: a few thousand packets take ~10 ms.
        let rate = 200_000.0;
        let mut r = PacedReader::new(&cap, &idx.ends, rate);
        let mut got = Vec::new();
        // A buffer smaller than a record forces packets split over reads.
        let mut chunk = [0u8; 50];
        loop {
            let n = r.read(&mut chunk).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&chunk[..n]);
            // Everything handed over so far belongs to packets already due
            // by a clock read *after* the hand-over.
            let elapsed = r.start.unwrap().elapsed();
            let last = idx.ends.partition_point(|&e| (e as usize) < got.len());
            assert!(
                r.due_after(last) <= elapsed,
                "packet {last} released {:?} early",
                r.due_after(last) - elapsed
            );
        }
        assert_eq!(got, cap);
        assert!(r.reads as usize >= idx.ends.len());
        // The whole capture cannot have arrived before its last due time.
        assert!(r.start.unwrap().elapsed() >= r.due_after(idx.ends.len() - 1));
    }
}
