//! Classic libpcap 2.4 file I/O with from-scratch Ethernet/IPv4/TCP
//! encode/decode.
//!
//! The writer emits header-only captures (snaplen-truncated, like the
//! production `tcpdump -s96` captures analyzed in the paper): the IPv4
//! `total_length` field carries the true payload size while the capture
//! record stores only link/IP/TCP headers. TCP options encode what the
//! classifier needs: MSS + SACK-permitted + window-scale on SYNs, and
//! SACK/DSACK blocks on ACKs. TCP checksums are written as zero (checksum
//! offload — ubiquitous in real server captures); IPv4 header checksums are
//! valid.
//!
//! Sequence numbers are 32-bit on the wire; the reader unwraps them back to
//! 64-bit stream offsets relative to each direction's ISN.

use std::io::{self, Read, Write};
use std::ops::Range;

use crate::flow::{FlowKey, FlowTable, FlowTrace};
use crate::record::{Direction, SackBlock, SackList, SegFlags, TraceRecord, SACK_CAP};
use simnet::time::SimTime;

const MAGIC_LE: u32 = 0xa1b2_c3d4;
const MAGIC_BE: u32 = 0xd4c3_b2a1;
/// Nanosecond-resolution pcap, as read little-endian from either byte order.
const MAGIC_NS_LE: u32 = 0xa1b2_3c4d;
const MAGIC_NS_BE: u32 = 0x4d3c_b2a1;
/// A pcapng section header block's type (a palindrome: same in either order).
const PCAPNG_SHB: u32 = 0x0a0d_0d0a;
/// Fixed window-scale shift used by the writer (both directions).
pub const WSCALE_SHIFT: u8 = 7;
/// Outbound (server) initial sequence number used by the writer.
pub const ISN_OUT: u32 = 0x1000_0000;
/// Inbound (client) initial sequence number used by the writer.
pub const ISN_IN: u32 = 0x2000_0000;

/// Errors produced by the pcap reader.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a classic pcap file (bad magic).
    BadMagic(u32),
    /// A capture format recognised by its magic but not decoded (named).
    Unsupported(&'static str),
    /// Structurally invalid packet or header.
    Malformed(&'static str),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap I/O error: {e}"),
            PcapError::BadMagic(m) => write!(f, "not a classic pcap file (magic {m:#010x})"),
            PcapError::Unsupported(format) => write!(
                f,
                "{format} is not supported: only classic microsecond-resolution pcap is read"
            ),
            PcapError::Malformed(what) => write!(f, "malformed pcap: {what}"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

// ---------------------------------------------------------------- writing

/// Streams one or more [`FlowTrace`]s into a classic pcap file.
pub struct PcapWriter<W: Write> {
    out: W,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header.
    pub fn new(mut out: W) -> io::Result<Self> {
        let mut hdr = Vec::with_capacity(24);
        hdr.extend_from_slice(&MAGIC_LE.to_le_bytes());
        hdr.extend_from_slice(&2u16.to_le_bytes()); // version major
        hdr.extend_from_slice(&4u16.to_le_bytes()); // version minor
        hdr.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        hdr.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        hdr.extend_from_slice(&65535u32.to_le_bytes()); // snaplen
        hdr.extend_from_slice(&1u32.to_le_bytes()); // LINKTYPE_ETHERNET
        out.write_all(&hdr)?;
        Ok(PcapWriter { out })
    }

    /// Write every record of `trace` (records must already be time-ordered).
    /// The trace must carry a [`FlowKey`]; synthesize one if needed.
    pub fn write_flow(&mut self, trace: &FlowTrace) -> io::Result<()> {
        let key = trace.key.unwrap_or_else(|| FlowKey::synthetic(0));
        for rec in &trace.records {
            self.write_record(&key, rec)?;
        }
        Ok(())
    }

    /// Write a single record.
    pub fn write_record(&mut self, key: &FlowKey, rec: &TraceRecord) -> io::Result<()> {
        let frame = encode_frame(key, rec);
        let us = rec.t.as_micros();
        let mut pkt = Vec::with_capacity(16 + frame.captured.len());
        pkt.extend_from_slice(&((us / 1_000_000) as u32).to_le_bytes());
        pkt.extend_from_slice(&((us % 1_000_000) as u32).to_le_bytes());
        pkt.extend_from_slice(&(frame.captured.len() as u32).to_le_bytes());
        pkt.extend_from_slice(&frame.orig_len.to_le_bytes());
        pkt.extend_from_slice(&frame.captured);
        self.out.write_all(&pkt)
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

struct Frame {
    captured: Vec<u8>,
    orig_len: u32,
}

fn wire_seq(dir: Direction, offset: u64, syn: bool) -> u32 {
    let isn = match dir {
        Direction::Out => ISN_OUT,
        Direction::In => ISN_IN,
    };
    if syn {
        isn
    } else {
        isn.wrapping_add(1).wrapping_add(offset as u32)
    }
}

fn encode_frame(key: &FlowKey, rec: &TraceRecord) -> Frame {
    // TCP options.
    let mut opts: Vec<u8> = Vec::new();
    if rec.flags.syn {
        // MSS
        opts.extend_from_slice(&[2, 4]);
        opts.extend_from_slice(&1448u16.to_be_bytes());
        // SACK permitted
        opts.extend_from_slice(&[4, 2]);
        // Window scale (3 bytes) + NOP for alignment
        opts.extend_from_slice(&[3, 3, WSCALE_SHIFT, 1]);
    }
    if !rec.sack.is_empty() {
        let n = rec.sack.len().min(4);
        opts.extend_from_slice(&[1, 1]); // 2 NOPs
        opts.push(5); // SACK
        opts.push(2 + 8 * n as u8);
        for b in rec.sack.iter().take(n) {
            // SACK blocks describe the *peer's received* ranges, i.e. ranges
            // in the opposite direction's stream.
            let data_dir = rec.dir.flip();
            opts.extend_from_slice(&wire_seq(data_dir, b.start, false).to_be_bytes());
            opts.extend_from_slice(&wire_seq(data_dir, b.end, false).to_be_bytes());
        }
    }
    while !opts.len().is_multiple_of(4) {
        opts.push(1); // NOP pad
    }
    let tcp_hdr_len = 20 + opts.len();

    // Scaled window. SYN windows are never scaled on the wire.
    let wnd16: u16 = if rec.flags.syn {
        rec.rwnd.min(65_535) as u16
    } else {
        (rec.rwnd >> WSCALE_SHIFT).min(65_535) as u16
    };

    let (src_ip, dst_ip, src_port, dst_port) = match rec.dir {
        Direction::Out => (
            key.server_ip,
            key.client_ip,
            key.server_port,
            key.client_port,
        ),
        Direction::In => (
            key.client_ip,
            key.server_ip,
            key.client_port,
            key.server_port,
        ),
    };

    let seq32 = wire_seq(rec.dir, rec.seq, rec.flags.syn);
    let ack32 = if rec.flags.ack {
        wire_seq(rec.dir.flip(), rec.ack, false)
    } else {
        0
    };

    let mut tcp = Vec::with_capacity(tcp_hdr_len);
    tcp.extend_from_slice(&src_port.to_be_bytes());
    tcp.extend_from_slice(&dst_port.to_be_bytes());
    tcp.extend_from_slice(&seq32.to_be_bytes());
    tcp.extend_from_slice(&ack32.to_be_bytes());
    let offset_flags: u16 = ((tcp_hdr_len as u16 / 4) << 12)
        | (u16::from(rec.flags.ack) << 4)
        | (u16::from(rec.flags.rst) << 2)
        | (u16::from(rec.flags.syn) << 1)
        | u16::from(rec.flags.fin);
    tcp.extend_from_slice(&offset_flags.to_be_bytes());
    tcp.extend_from_slice(&wnd16.to_be_bytes());
    tcp.extend_from_slice(&0u16.to_be_bytes()); // checksum: offloaded
    tcp.extend_from_slice(&0u16.to_be_bytes()); // urgent
    tcp.extend_from_slice(&opts);

    let ip_total_len = 20 + tcp.len() + rec.len as usize;
    let mut ip = Vec::with_capacity(20);
    ip.push(0x45);
    ip.push(0);
    ip.extend_from_slice(&(ip_total_len as u16).to_be_bytes());
    ip.extend_from_slice(&0u16.to_be_bytes()); // id
    ip.extend_from_slice(&0x4000u16.to_be_bytes()); // DF
    ip.push(64); // ttl
    ip.push(6); // TCP
    ip.extend_from_slice(&0u16.to_be_bytes()); // checksum placeholder
    ip.extend_from_slice(&src_ip);
    ip.extend_from_slice(&dst_ip);
    let csum = ipv4_checksum(&ip);
    ip[10..12].copy_from_slice(&csum.to_be_bytes());

    let mut eth = Vec::with_capacity(14 + ip.len() + tcp.len());
    eth.extend_from_slice(&[0x02, 0, 0, 0, 0, 1]); // dst MAC
    eth.extend_from_slice(&[0x02, 0, 0, 0, 0, 2]); // src MAC
    eth.extend_from_slice(&0x0800u16.to_be_bytes());
    eth.extend_from_slice(&ip);
    eth.extend_from_slice(&tcp);

    Frame {
        orig_len: (eth.len() + rec.len as usize) as u32,
        captured: eth,
    }
}

fn ipv4_checksum(hdr: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    for chunk in hdr.chunks(2) {
        let word = if chunk.len() == 2 {
            u16::from_be_bytes([chunk[0], chunk[1]])
        } else {
            u16::from_be_bytes([chunk[0], 0])
        };
        sum += word as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

// ---------------------------------------------------------------- reading

/// Counters accumulated while reading a capture.
///
/// A live capture is messy: non-IPv4/TCP frames share the wire, and a
/// capture cut mid-write (SIGKILLed tcpdump, rotated file) ends in a
/// partial record. Neither aborts the read — both are counted here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcapStats {
    /// IPv4/TCP packets successfully decoded and yielded.
    pub packets: u64,
    /// Frames skipped because they were not decodable IPv4/TCP (ARP, UDP,
    /// IPv6, runt frames, bad header offsets).
    pub packets_skipped: u64,
    /// Trailing records cut short by the end of the capture (at most one
    /// for a file; a FIFO producer crashing mid-record also lands here).
    pub records_truncated: u64,
}

/// One decoded packet from the capture, before ISN-relative sequence
/// translation (feed it to a per-flow [`SeqTracker`] for that).
#[derive(Debug, Clone, Copy)]
pub struct PcapPacket {
    /// Capture timestamp.
    pub t: SimTime,
    /// The flow 4-tuple, oriented (server = destination of a bare SYN,
    /// else the lower port).
    pub key: FlowKey,
    /// Wire-level TCP fields.
    pub raw: RawRecord,
}

/// Frames larger than this are not real: the record header bytes were
/// garbage (e.g. a capture resumed mid-stream), so the stream stops rather
/// than allocate gigabytes chasing a bogus length.
const MAX_CAPLEN: usize = 1 << 20;

/// Default segment size for the buffered zero-copy reader: large enough to
/// amortize `read` syscalls over thousands of snaplen-truncated records,
/// small enough to stay cache- and latency-friendly.
const SEGMENT_LEN: usize = 256 * 1024;

/// A borrowed view of one decodable TCP packet: header fields parsed in
/// place from the reader's segment buffer, frame bytes borrowed rather than
/// copied into a per-packet allocation. Valid until the next reader call.
#[derive(Debug, Clone, Copy)]
pub struct PcapView<'a> {
    /// Capture timestamp.
    pub t: SimTime,
    /// The flow 4-tuple, oriented as in [`PcapPacket::key`].
    pub key: FlowKey,
    /// Wire-level TCP fields.
    pub raw: RawRecord,
    /// The captured frame bytes (link + IP + TCP headers), borrowed from
    /// the reader's segment buffer.
    pub frame: &'a [u8],
}

impl PcapView<'_> {
    /// Copy the decoded fields out into an owning [`PcapPacket`].
    pub fn to_packet(&self) -> PcapPacket {
        PcapPacket {
            t: self.t,
            key: self.key,
            raw: self.raw,
        }
    }
}

/// A reusable batch of decoded packets filled by
/// [`PcapStream::fill_batch`]. Alongside each packet it records the
/// reader's cumulative skipped-frame count at the moment that packet was
/// decoded, so a consumer that processes the batch later can still
/// attribute skips to reporting intervals exactly as a one-packet-at-a-time
/// reader would.
#[derive(Debug, Default)]
pub struct PacketBatch {
    pkts: Vec<PcapPacket>,
    skipped: Vec<u64>,
}

impl PacketBatch {
    /// An empty batch (buffers grow to the fill size once, then recycle).
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget the contents, keeping capacity.
    pub fn clear(&mut self) {
        self.pkts.clear();
        self.skipped.clear();
    }

    /// Decoded packets in capture order.
    pub fn pkts(&self) -> &[PcapPacket] {
        &self.pkts
    }

    /// Number of packets currently held.
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// The reader's cumulative [`PcapStats::packets_skipped`] as of the
    /// moment packet `i` was decoded (i.e. including any undecodable
    /// frames that immediately preceded it).
    pub fn skipped_before(&self, i: usize) -> u64 {
        self.skipped[i]
    }
}

/// An incremental classic-pcap reader: yields packets from any [`Read`]
/// (file, FIFO, stdin) without buffering the whole capture.
///
/// Input lands in one reusable *sliding* segment buffer and record headers
/// and frames are parsed in place, yielding borrowed [`PcapView`]s
/// ([`PcapStream::next_view`]) or copied [`PcapPacket`]s
/// ([`PcapStream::next_packet`], [`PcapStream::fill_batch`]). All of them
/// run one decode loop, which walks every record already resident before
/// it returns to the input.
///
/// **What blocks, and where.** The reader touches its input in exactly one
/// place, `refill`, and only when the resident bytes hold no complete
/// record: the partial record (if any) slides to the front of the segment
/// and one `read` — never read-to-full — appends whatever the input has.
/// A fast input fills the whole segment and is parsed thousands of records
/// at a time; a trickling FIFO is parsed as it arrives.
/// [`PcapStream::fill_batch`] goes further and refills only while it is
/// empty-handed, so a decoded packet never waits on input that has not
/// arrived: its `max` is a cap, not a quorum. The decoded stream is
/// identical however the input is split into reads.
///
/// Malformed trailing data degrades gracefully: a record cut short by EOF
/// ends the stream and increments [`PcapStats::records_truncated`];
/// non-IPv4/TCP frames are skipped and counted in
/// [`PcapStats::packets_skipped`]. Only a missing/garbage *global header*
/// is a hard error.
pub struct PcapStream<R: Read> {
    input: R,
    swapped: bool,
    /// Sliding segment buffer: `seg[pos..len]` is input read but not yet
    /// decoded. Grows past its initial length only for a record that does
    /// not fit (at most `16 + MAX_CAPLEN`).
    seg: Vec<u8>,
    pos: usize,
    len: usize,
    stats: PcapStats,
    done: bool,
}

/// Where [`PcapStream::decode`]'s walk over the resident records stopped.
enum Stop {
    /// It handed over as many packets as it was asked for.
    Full,
    /// The record at the position needs this many bytes resident, and
    /// fewer are.
    Short(usize),
    /// The record at the position claims more than [`MAX_CAPLEN`] bytes.
    Oversize,
}

impl<R: Read> PcapStream<R> {
    /// Read and validate the 24-byte global header.
    pub fn new(input: R) -> Result<Self, PcapError> {
        Self::with_segment_len(input, SEGMENT_LEN)
    }

    /// [`PcapStream::new`] with an explicit initial segment size (≥ 1).
    /// Small segments force every record through the slide-and-grow path —
    /// useful for tests.
    pub fn with_segment_len(input: R, segment_len: usize) -> Result<Self, PcapError> {
        let mut s = PcapStream {
            input,
            swapped: false,
            seg: vec![0; segment_len.max(1)],
            pos: 0,
            len: 0,
            stats: PcapStats::default(),
            done: false,
        };
        while s.len < 24 {
            if !s.refill(24)? {
                return Err(PcapError::Malformed("file shorter than global header"));
            }
        }
        s.swapped = match u32::from_le_bytes([s.seg[0], s.seg[1], s.seg[2], s.seg[3]]) {
            MAGIC_LE => false,
            MAGIC_BE => true,
            MAGIC_NS_LE | MAGIC_NS_BE => {
                return Err(PcapError::Unsupported("nanosecond-resolution pcap"))
            }
            PCAPNG_SHB => return Err(PcapError::Unsupported("pcapng")),
            other => return Err(PcapError::BadMagic(other)),
        };
        s.pos = 24;
        Ok(s)
    }

    /// The reader's only blocking call. Slides the partial item at `pos`
    /// (fewer than `need` bytes, its full length) to the front of the
    /// segment, makes room for all of it, and appends one `read`'s worth of
    /// input. Deliberately not read-to-full: a FIFO's partial write must be
    /// parseable immediately. `false` at end of input, where a partial
    /// item left over is a truncated record.
    fn refill(&mut self, need: usize) -> Result<bool, PcapError> {
        self.seg.copy_within(self.pos..self.len, 0);
        self.len -= self.pos;
        self.pos = 0;
        if self.seg.len() < need {
            self.seg.resize(need, 0);
        }
        loop {
            match self.input.read(&mut self.seg[self.len..]) {
                Ok(0) => {
                    self.stats.records_truncated += u64::from(self.len > 0);
                    self.done = true;
                    return Ok(false);
                }
                Ok(n) => {
                    self.len += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The reader's one decode loop. It walks the resident records with
    /// the position and counters in locals and hands each decodable packet
    /// to `emit`, with the cumulative skip count as of that packet and
    /// where its frame sits in the segment — at most `max` packets. It
    /// leaves the walk only to `refill` (and only while it has handed over
    /// nothing, so a decoded packet never waits on input), for a record
    /// above [`MAX_CAPLEN`], or at end of input. Returns the number of
    /// packets handed over; 0 means end of stream.
    fn decode(
        &mut self,
        max: usize,
        mut emit: impl FnMut(PcapPacket, u64, Range<usize>),
    ) -> Result<usize, PcapError> {
        let swapped = self.swapped;
        let rd32 = |hdr: &[u8; 16], at: usize| {
            let v = u32::from_le_bytes([hdr[at], hdr[at + 1], hdr[at + 2], hdr[at + 3]]);
            if swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let mut n = 0;
        while n < max && !self.done {
            let seg = &self.seg[..self.len];
            let mut pos = self.pos;
            let mut packets = self.stats.packets;
            let mut skipped = self.stats.packets_skipped;
            let stop = loop {
                let Some(hdr) = seg[pos..].first_chunk::<16>() else {
                    break Stop::Short(16);
                };
                let incl = rd32(hdr, 8) as usize;
                if incl > MAX_CAPLEN {
                    break Stop::Oversize;
                }
                let frame = pos + 16..pos + 16 + incl;
                let Some(bytes) = seg.get(frame.clone()) else {
                    break Stop::Short(16 + incl);
                };
                pos = frame.end;
                let Some((key, raw)) = decode_frame(bytes) else {
                    skipped += 1;
                    continue;
                };
                packets += 1;
                let us = u64::from(rd32(hdr, 0)) * 1_000_000 + u64::from(rd32(hdr, 4));
                let t = SimTime::from_micros(us);
                emit(PcapPacket { t, key, raw }, skipped, frame);
                n += 1;
                if n == max {
                    break Stop::Full;
                }
            };
            self.pos = pos;
            self.stats.packets = packets;
            self.stats.packets_skipped = skipped;
            match stop {
                Stop::Full => {}
                Stop::Oversize => {
                    self.stats.records_truncated += 1;
                    self.done = true;
                }
                Stop::Short(need) => {
                    if n > 0 || !self.refill(need)? {
                        break;
                    }
                }
            }
        }
        Ok(n)
    }

    /// The next decodable TCP packet as a borrowed in-place view, or
    /// `None` at end of stream.
    pub fn next_view(&mut self) -> Result<Option<PcapView<'_>>, PcapError> {
        let mut got = None;
        self.decode(1, |pkt, _, frame| got = Some((pkt, frame)))?;
        Ok(got.map(|(pkt, frame)| PcapView {
            t: pkt.t,
            key: pkt.key,
            raw: pkt.raw,
            frame: &self.seg[frame],
        }))
    }

    /// The next decodable TCP packet, or `None` at end of stream.
    pub fn next_packet(&mut self) -> Result<Option<PcapPacket>, PcapError> {
        Ok(self.next_view()?.map(|v| v.to_packet()))
    }

    /// Refill `out` with the packets the input has already delivered, at
    /// most `max` of them (clearing it first), recording the cumulative
    /// skip count alongside each. It waits on the input only while it
    /// holds no packet, so the batch is short whenever the input is slow
    /// and full whenever it is fast. Returns the number of packets
    /// obtained; 0 means end of stream.
    pub fn fill_batch(&mut self, out: &mut PacketBatch, max: usize) -> Result<usize, PcapError> {
        out.clear();
        self.decode(max, |pkt, skipped, _| {
            out.pkts.push(pkt);
            out.skipped.push(skipped);
        })
    }

    /// Counters so far (final once `next_packet` returned `None`).
    pub fn stats(&self) -> PcapStats {
        self.stats
    }
}

/// Reads a classic pcap capture back into per-flow [`FlowTrace`]s.
///
/// The server endpoint is identified as the *destination of the first bare
/// SYN* seen for each 4-tuple (falling back to the lower port number if the
/// handshake was not captured).
pub struct PcapReader;

#[derive(Debug, Default)]
struct DirState {
    isn: Option<u32>,
    last_off: u64,
}

#[derive(Debug, Default)]
struct FlowState {
    out: DirState, // server → client
    inb: DirState, // client → server
}

/// Per-flow 32→64-bit sequence translation state: learns each direction's
/// ISN (from the handshake, or synthesized from the first segment) and
/// unwraps wire sequence numbers into monotonic 64-bit stream offsets.
///
/// On 4-tuple reuse (a fresh connection on a key whose previous flow
/// closed) call [`SeqTracker::reset`] before translating the new SYN —
/// stale unwrap anchors from the dead flow would otherwise corrupt the new
/// flow's offsets.
#[derive(Debug, Default)]
pub struct SeqTracker {
    st: FlowState,
}

impl SeqTracker {
    /// Fresh state (no ISNs learned).
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget everything — the next packet starts a new flow.
    pub fn reset(&mut self) {
        self.st = FlowState::default();
    }

    /// Translate one wire-level packet into a [`TraceRecord`] with
    /// ISN-relative 64-bit offsets.
    pub fn translate(&mut self, t: SimTime, raw: &RawRecord) -> Option<TraceRecord> {
        finish_record(&mut self.st, t, raw)
    }
}

impl PcapReader {
    /// Parse an entire capture; non-IPv4/TCP packets are skipped.
    pub fn read_all<R: Read>(input: R) -> Result<Vec<FlowTrace>, PcapError> {
        Self::read_all_stats(input).map(|(flows, _)| flows)
    }

    /// [`PcapReader::read_all`], also returning the reader's counters
    /// (skipped frames, truncated trailing records).
    pub fn read_all_stats<R: Read>(input: R) -> Result<(Vec<FlowTrace>, PcapStats), PcapError> {
        let mut stream = PcapStream::new(input)?;
        let mut table = FlowTable::new();
        let mut trackers: std::collections::HashMap<FlowKey, SeqTracker> = Default::default();
        while let Some(pkt) = stream.next_packet()? {
            let tracker = trackers.entry(pkt.key).or_default();
            if pkt.raw.flags.syn && !pkt.raw.flags.ack && table.is_closed(&pkt.key) {
                // Key reuse: the table rotates to a fresh flow, so the
                // sequence state must forget the dead flow's anchors too.
                tracker.reset();
            }
            if let Some(rec) = tracker.translate(pkt.t, &pkt.raw) {
                table.push(pkt.key, rec);
            }
        }
        Ok((table.into_traces(), stream.stats()))
    }
}

/// A parsed frame before ISN-relative sequence translation: raw 32-bit wire
/// sequence space, SACK blocks still in the peer's wire numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawRecord {
    /// Direction relative to the server.
    pub dir: Direction,
    /// Wire sequence number.
    pub seq32: u32,
    /// Wire acknowledgment number (0 when ACK is not set).
    pub ack32: u32,
    /// Header flags.
    pub flags: SegFlags,
    /// Unscaled 16-bit window field.
    pub wnd16: u16,
    /// Payload bytes (from the IP total length, so snaplen-truncated
    /// captures still report the true size).
    pub payload_len: u32,
    sack_len: u8,
    sack32: [(u32, u32); SACK_CAP],
}

impl RawRecord {
    /// A record with no SACK blocks.
    pub fn new(
        dir: Direction,
        seq32: u32,
        ack32: u32,
        flags: SegFlags,
        wnd16: u16,
        payload_len: u32,
    ) -> Self {
        RawRecord {
            dir,
            seq32,
            ack32,
            flags,
            wnd16,
            payload_len,
            sack_len: 0,
            sack32: [(0, 0); SACK_CAP],
        }
    }

    /// Append a wire-numbered SACK block (ignored beyond [`SACK_CAP`], the
    /// wire maximum).
    pub fn push_sack32(&mut self, start32: u32, end32: u32) {
        if (self.sack_len as usize) < SACK_CAP {
            self.sack32[self.sack_len as usize] = (start32, end32);
            self.sack_len += 1;
        }
    }

    /// The wire-numbered SACK blocks.
    pub fn sack32(&self) -> &[(u32, u32)] {
        &self.sack32[..self.sack_len as usize]
    }
}

/// Decode one captured frame: an Ethernet II / IPv4 / TCP packet becomes
/// its oriented flow key and wire fields; anything else is `None` (the
/// reader skips and counts it). The fixed headers are read through
/// fixed-size views, so only the variable parts — where the TCP header
/// starts after IP options, and the TCP options — are bounds-checked.
/// IP options are skipped, not validated, and an `ihl` below 5 is not
/// rejected: the TCP header is read where the `ihl` puts it.
fn decode_frame(frame: &[u8]) -> Option<(FlowKey, RawRecord)> {
    // Ethernet (14) + fixed IPv4 header (20) + fixed TCP header (20).
    let head = frame.first_chunk::<54>()?;
    if head[12..14] != [0x08, 0x00] || head[14] >> 4 != 4 || head[23] != 6 {
        return None;
    }
    let ihl = usize::from(head[14] & 0xf) * 4;
    let tcp = frame.get(14 + ihl..)?;
    let th = tcp.first_chunk::<20>()?;
    let data_off = usize::from(th[12] >> 4) * 4;
    if data_off < 20 {
        return None;
    }
    let opts = tcp.get(20..data_off)?;

    let total_len = usize::from(u16::from_be_bytes([head[16], head[17]]));
    let src_ip = [head[26], head[27], head[28], head[29]];
    let dst_ip = [head[30], head[31], head[32], head[33]];
    let src_port = u16::from_be_bytes([th[0], th[1]]);
    let dst_port = u16::from_be_bytes([th[2], th[3]]);
    let seq32 = u32::from_be_bytes([th[4], th[5], th[6], th[7]]);
    let ack32 = u32::from_be_bytes([th[8], th[9], th[10], th[11]]);
    let fl = th[13];
    let flags = SegFlags {
        fin: fl & 0x01 != 0,
        syn: fl & 0x02 != 0,
        rst: fl & 0x04 != 0,
        ack: fl & 0x10 != 0,
    };
    let wnd16 = u16::from_be_bytes([th[14], th[15]]);
    let payload_len = total_len.saturating_sub(ihl + data_off) as u32;

    // Orient: the destination of a bare SYN is the server; otherwise the
    // endpoint with the lower port is assumed to be the server.
    let (server_ip, server_port, client_ip, client_port, dir) = if flags.syn && !flags.ack {
        (dst_ip, dst_port, src_ip, src_port, Direction::In)
    } else if (flags.syn && flags.ack) || src_port <= dst_port {
        // A SYN-ACK's source is the server; lacking a handshake, assume
        // the lower port is the server's.
        (src_ip, src_port, dst_ip, dst_port, Direction::Out)
    } else {
        (dst_ip, dst_port, src_ip, src_port, Direction::In)
    };

    let mut raw = RawRecord::new(dir, seq32, ack32, flags, wnd16, payload_len);

    // Options: keep the SACK blocks, step over the rest; stop at the end
    // of the list or at the first option whose length does not fit.
    let mut i = 0;
    while let Some(&kind) = opts.get(i) {
        match kind {
            0 => break,
            1 => i += 1,
            _ => {
                let Some(&len) = opts.get(i + 1) else { break };
                let len = usize::from(len);
                if len < 2 {
                    break;
                }
                if kind == 5 {
                    let Some(blocks) = opts.get(i + 2..i + len) else {
                        break;
                    };
                    for b in blocks.chunks_exact(8) {
                        let s = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
                        let e = u32::from_be_bytes([b[4], b[5], b[6], b[7]]);
                        raw.push_sack32(s, e);
                    }
                }
                i += len;
            }
        }
    }

    Some((
        FlowKey {
            server_ip,
            server_port,
            client_ip,
            client_port,
        },
        raw,
    ))
}

/// Unwrap a 32-bit offset to the 64-bit value closest to `near`: the
/// value with `near`'s upper half, or one 2^32 window above or below it,
/// whichever is nearest. A tie (distance exactly 2^31) keeps `near`'s
/// window, and a neighbouring window that would leave the 64-bit range
/// is never chosen.
fn unwrap32(off32: u32, near: u64) -> u64 {
    let same = (near & !0xffff_ffff) | u64::from(off32);
    // `same - near`, within (-2^32, 2^32).
    let d = i64::from(off32) - i64::from(near as u32);
    let other = if d < -(1 << 31) {
        same.checked_add(1 << 32)
    } else if d > 1 << 31 {
        same.checked_sub(1 << 32)
    } else {
        None
    };
    other.unwrap_or(same)
}

fn finish_record(st: &mut FlowState, t: SimTime, raw: &RawRecord) -> Option<TraceRecord> {
    // Learn ISNs from the handshake; synthesize if the handshake is missing.
    {
        let dstate = match raw.dir {
            Direction::Out => &mut st.out,
            Direction::In => &mut st.inb,
        };
        if raw.flags.syn {
            dstate.isn = Some(raw.seq32);
        } else if dstate.isn.is_none() {
            // No handshake captured: treat the first seen seq as offset 0.
            dstate.isn = Some(raw.seq32.wrapping_sub(1));
        }
    }

    let (own_isn, own_last) = match raw.dir {
        Direction::Out => (st.out.isn?, st.out.last_off),
        Direction::In => (st.inb.isn?, st.inb.last_off),
    };
    let seq = if raw.flags.syn {
        0
    } else {
        unwrap32(raw.seq32.wrapping_sub(own_isn.wrapping_add(1)), own_last)
    };

    // Peer-direction translation for ack and SACK blocks.
    let peer = match raw.dir {
        Direction::Out => &st.inb,
        Direction::In => &st.out,
    };
    let (ack, sack, dsack) = if let Some(peer_isn) = peer.isn {
        let ack = if raw.flags.ack {
            unwrap32(
                raw.ack32.wrapping_sub(peer_isn.wrapping_add(1)),
                peer.last_off,
            )
        } else {
            0
        };
        let mut sack = SackList::new();
        for &(s32, e32) in raw.sack32() {
            let s = unwrap32(s32.wrapping_sub(peer_isn.wrapping_add(1)), peer.last_off);
            let e = unwrap32(e32.wrapping_sub(peer_isn.wrapping_add(1)), peer.last_off);
            if e >= s {
                sack.push(SackBlock::new(s, e));
            }
        }
        // RFC 2883: a first block at or below the cumulative ACK, or fully
        // contained in the second block, is a DSACK.
        let dsack = match sack.first() {
            Some(b0) => {
                b0.end <= ack
                    || sack
                        .get(1)
                        .is_some_and(|b1| b0.start >= b1.start && b0.end <= b1.end)
            }
            None => false,
        };
        (ack, sack, dsack)
    } else {
        (0, SackList::new(), false)
    };

    // Update unwrap anchors.
    {
        let dstate = match raw.dir {
            Direction::Out => &mut st.out,
            Direction::In => &mut st.inb,
        };
        dstate.last_off = dstate.last_off.max(seq + raw.payload_len as u64);
    }
    {
        let pstate = match raw.dir {
            Direction::Out => &mut st.inb,
            Direction::In => &mut st.out,
        };
        pstate.last_off = pstate.last_off.max(ack);
    }

    let rwnd = if raw.flags.syn {
        raw.wnd16 as u64
    } else {
        (raw.wnd16 as u64) << WSCALE_SHIFT
    };

    Some(TraceRecord {
        t,
        dir: raw.dir,
        seq,
        len: raw.payload_len,
        flags: raw.flags,
        ack,
        rwnd,
        sack,
        dsack,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SackList;
    use simnet::time::SimTime;

    fn syn_exchange(key: FlowKey) -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                t: SimTime::from_micros(100),
                dir: Direction::In,
                seq: 0,
                len: 0,
                flags: SegFlags::SYN,
                ack: 0,
                rwnd: 8192,
                sack: SackList::new(),
                dsack: false,
            },
            TraceRecord {
                t: SimTime::from_micros(200),
                dir: Direction::Out,
                seq: 0,
                len: 0,
                flags: SegFlags::SYN_ACK,
                ack: 0,
                rwnd: 14480,
                sack: SackList::new(),
                dsack: false,
            },
            TraceRecord {
                t: SimTime::from_micros(50_300),
                dir: Direction::In,
                seq: 0,
                len: 0,
                flags: SegFlags::ACK,
                ack: 0,
                rwnd: 8192,
                sack: SackList::new(),
                dsack: false,
            },
            TraceRecord::data(SimTime::from_micros(50_400), Direction::In, 0, 300, 0, 8192),
            TraceRecord::data(
                SimTime::from_micros(60_000),
                Direction::Out,
                0,
                1448,
                300,
                65536,
            ),
            TraceRecord::data(
                SimTime::from_micros(60_100),
                Direction::Out,
                1448,
                1448,
                300,
                65536,
            ),
            TraceRecord {
                t: SimTime::from_micros(110_000),
                dir: Direction::In,
                seq: 300,
                len: 0,
                flags: SegFlags::ACK,
                ack: 1448,
                rwnd: 8192,
                sack: [SackBlock::new(2896, 4344)].into(),
                dsack: false,
            },
            {
                let _ = key;
                TraceRecord {
                    t: SimTime::from_micros(120_000),
                    dir: Direction::In,
                    seq: 300,
                    len: 0,
                    flags: SegFlags::ACK,
                    ack: 4344,
                    rwnd: 8192,
                    sack: [SackBlock::new(0, 1448), SackBlock::new(0, 4344)].into(),
                    dsack: true,
                }
            },
        ]
    }

    #[test]
    fn roundtrip_preserves_fields() {
        let key = FlowKey::synthetic(7);
        let mut trace = FlowTrace::new(key);
        for r in syn_exchange(key) {
            trace.push(r);
        }
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file).unwrap();
        w.write_flow(&trace).unwrap();
        w.finish().unwrap();

        let flows = PcapReader::read_all(&file[..]).unwrap();
        assert_eq!(flows.len(), 1);
        let back = &flows[0];
        assert_eq!(back.records.len(), trace.records.len());
        for (orig, got) in trace.records.iter().zip(&back.records) {
            assert_eq!(orig.t, got.t, "timestamp");
            assert_eq!(orig.dir, got.dir, "direction");
            assert_eq!(orig.seq, got.seq, "seq");
            assert_eq!(orig.len, got.len, "len");
            assert_eq!(orig.flags, got.flags, "flags");
            if orig.flags.ack {
                assert_eq!(orig.ack, got.ack, "ack");
            }
            assert_eq!(orig.sack, got.sack, "sack");
            assert_eq!(orig.dsack, got.dsack, "dsack");
        }
        // Window scaling quantizes to 128-byte granularity post-SYN.
        assert_eq!(back.records[0].rwnd, 8192);
        assert_eq!(back.records[4].rwnd, 65536);
    }

    #[test]
    fn reader_rejects_garbage() {
        assert!(matches!(
            PcapReader::read_all(&b"not a pcap file at all.."[..]),
            Err(PcapError::BadMagic(_))
        ));
        assert!(matches!(
            PcapReader::read_all(&b"xx"[..]),
            Err(PcapError::Malformed(_))
        ));
    }

    /// Nanosecond pcap and pcapng are named, not called garbage.
    fn header_error(magic_bytes: [u8; 4]) -> String {
        let mut file = magic_bytes.to_vec();
        file.resize(32, 0);
        match PcapStream::new(&file[..]) {
            Err(e @ PcapError::Unsupported(_)) => e.to_string(),
            Err(e) => panic!("magic {magic_bytes:02x?}: wrong error {e}"),
            Ok(_) => panic!("magic {magic_bytes:02x?} accepted"),
        }
    }

    #[test]
    fn nanosecond_pcap_little_endian_is_named() {
        let msg = header_error([0x4d, 0x3c, 0xb2, 0xa1]);
        assert!(
            msg.contains("nanosecond-resolution pcap is not supported"),
            "{msg}"
        );
    }

    #[test]
    fn nanosecond_pcap_big_endian_is_named() {
        let msg = header_error([0xa1, 0xb2, 0x3c, 0x4d]);
        assert!(
            msg.contains("nanosecond-resolution pcap is not supported"),
            "{msg}"
        );
    }

    #[test]
    fn pcapng_is_named() {
        let msg = header_error([0x0a, 0x0d, 0x0d, 0x0a]);
        assert!(msg.contains("pcapng is not supported"), "{msg}");
    }

    #[test]
    fn unwrap32_handles_wraparound() {
        assert_eq!(unwrap32(5, 0), 5);
        // near the 2^32 boundary: a small off32 after a large last_off means
        // we wrapped.
        let near = 0xffff_ff00u64;
        assert_eq!(unwrap32(0x0000_0100, near), 0x1_0000_0100);
        // and a large off32 near a just-wrapped anchor resolves backwards.
        let near2 = 0x1_0000_0010u64;
        assert_eq!(unwrap32(0xffff_fff0, near2), 0xffff_fff0);
    }

    /// Reference for [`unwrap32`]: build the three candidate windows and
    /// take the nearest, the first of equals (`min_by_key`'s rule), with
    /// wrapping arithmetic so an out-of-range neighbour is far away.
    fn unwrap32_reference(off32: u32, near: u64) -> u64 {
        let base = near & !0xffff_ffffu64;
        let candidates = [
            base.wrapping_add(off32 as u64),
            base.wrapping_add(off32 as u64).wrapping_add(1 << 32),
            base.wrapping_add(off32 as u64).wrapping_sub(1 << 32),
        ];
        candidates
            .into_iter()
            .min_by_key(|c| c.abs_diff(near))
            .expect("non-empty candidates")
    }

    #[test]
    fn unwrap32_equals_the_three_candidate_reference() {
        let top = !0xffff_ffffu64;
        let mut nears = vec![0, 1, u64::MAX, top, top + 1, top - 1];
        for w in [0u64, 1 << 32, 5 << 32, top] {
            for lo in [0u64, 1, (1 << 31) - 1, 1 << 31, (1 << 31) + 1, 0xffff_ffff] {
                nears.push(w | lo);
            }
        }
        nears.extend([(1 << 32) - 1, 1 << 32, (1 << 32) + 1]);
        let mut offs = vec![0u32, 1, (1 << 31) - 1, 1 << 31, (1 << 31) + 1, u32::MAX];
        for &near in &nears {
            // Offsets exactly 2^31 away (the ties) and one either side.
            let lo = near as u32;
            for d in [0u32, 1, (1 << 31) - 1, 1 << 31, (1 << 31) + 1] {
                offs.push(lo.wrapping_add(d));
                offs.push(lo.wrapping_sub(d));
            }
        }
        for &near in &nears {
            for &off in &offs {
                assert_eq!(
                    unwrap32(off, near),
                    unwrap32_reference(off, near),
                    "off {off:#x} near {near:#x}"
                );
            }
        }
        let mut rng = simnet::rng::SimRng::seed(0x0032_fade);
        for i in 0..200_000u32 {
            let off = rng.next_u64() as u32;
            // Mostly anchors a real flow has (low windows), some anywhere.
            let near = match i % 4 {
                0 => rng.next_u64(),
                1 => rng.next_u64() >> 28,
                _ => rng.next_u64() >> 20,
            };
            assert_eq!(
                unwrap32(off, near),
                unwrap32_reference(off, near),
                "off {off:#x} near {near:#x}"
            );
        }
    }

    #[test]
    fn ipv4_checksum_known_vector() {
        // Example from RFC 1071 discussions: verify checksum verifies.
        let mut hdr = vec![
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        let c = ipv4_checksum(&hdr);
        assert_eq!(c, 0xb861);
        hdr[10..12].copy_from_slice(&c.to_be_bytes());
        assert_eq!(ipv4_checksum(&hdr), 0);
    }

    /// Hand-build a minimal Ethernet/IPv4/TCP frame with arbitrary wire
    /// fields (the writer pins its ISNs, so wraparound and foreign-protocol
    /// tests need raw bytes).
    fn raw_tcp_frame(
        src: ([u8; 4], u16),
        dst: ([u8; 4], u16),
        seq32: u32,
        ack32: u32,
        flags: u8,
        payload_len: u16,
    ) -> Vec<u8> {
        let mut tcp = Vec::new();
        tcp.extend_from_slice(&src.1.to_be_bytes());
        tcp.extend_from_slice(&dst.1.to_be_bytes());
        tcp.extend_from_slice(&seq32.to_be_bytes());
        tcp.extend_from_slice(&ack32.to_be_bytes());
        tcp.extend_from_slice(&(5u16 << 12).to_be_bytes()); // data offset 20, merged below
        tcp[12] = 5 << 4;
        tcp[13] = flags;
        tcp.extend_from_slice(&512u16.to_be_bytes()); // window
        tcp.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent
        let ip_total = 20 + 20 + payload_len as usize;
        let mut ip = vec![0x45, 0];
        ip.extend_from_slice(&(ip_total as u16).to_be_bytes());
        ip.extend_from_slice(&[0, 0, 0x40, 0, 64, 6, 0, 0]);
        ip.extend_from_slice(&src.0);
        ip.extend_from_slice(&dst.0);
        let c = ipv4_checksum(&ip);
        ip[10..12].copy_from_slice(&c.to_be_bytes());
        let mut eth = vec![2, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 2];
        eth.extend_from_slice(&0x0800u16.to_be_bytes());
        eth.extend_from_slice(&ip);
        eth.extend_from_slice(&tcp);
        eth
    }

    fn append_record(file: &mut Vec<u8>, t_us: u64, frame: &[u8]) {
        file.extend_from_slice(&((t_us / 1_000_000) as u32).to_le_bytes());
        file.extend_from_slice(&((t_us % 1_000_000) as u32).to_le_bytes());
        file.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        file.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        file.extend_from_slice(frame);
    }

    #[test]
    fn truncated_trailing_record_degrades_gracefully() {
        let key = FlowKey::synthetic(5);
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file).unwrap();
        w.write_record(
            &key,
            &TraceRecord::data(SimTime::from_micros(10), Direction::Out, 0, 100, 0, 65536),
        )
        .unwrap();
        w.write_record(
            &key,
            &TraceRecord::data(SimTime::from_micros(20), Direction::Out, 100, 100, 0, 65536),
        )
        .unwrap();
        w.finish().unwrap();

        // Cut mid-frame: keep the full first record plus a partial second.
        let cut = file.len() - 7;
        let (flows, stats) = PcapReader::read_all_stats(&file[..cut]).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].records.len(), 1);
        assert_eq!(stats.packets, 1);
        assert_eq!(stats.records_truncated, 1);

        // Cut mid-record-header.
        let (flows2, stats2) = PcapReader::read_all_stats(&file[..24 + 8]).unwrap();
        assert!(flows2.is_empty());
        assert_eq!(stats2.records_truncated, 1);

        // An implausible record length (garbage header) also stops cleanly.
        let mut bogus = file[..24].to_vec();
        bogus.extend_from_slice(&0u64.to_le_bytes()); // ts
        bogus.extend_from_slice(&(u32::MAX).to_le_bytes()); // incl_len: 4 GiB
        bogus.extend_from_slice(&64u32.to_le_bytes());
        bogus.extend_from_slice(&[0u8; 64]);
        let (flows3, stats3) = PcapReader::read_all_stats(&bogus[..]).unwrap();
        assert!(flows3.is_empty());
        assert_eq!(stats3.records_truncated, 1);
    }

    #[test]
    fn non_tcp_frames_are_skipped_and_counted() {
        let key = FlowKey::synthetic(6);
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file).unwrap();
        w.write_record(
            &key,
            &TraceRecord::data(SimTime::from_micros(10), Direction::Out, 0, 100, 0, 65536),
        )
        .unwrap();
        w.finish().unwrap();

        // A UDP datagram (IPv4 proto 17).
        let mut udp = raw_tcp_frame(([1, 1, 1, 1], 53), ([2, 2, 2, 2], 53), 0, 0, 0, 0);
        udp[14 + 9] = 17; // protocol = UDP
        let c = ipv4_checksum(&udp[14..14 + 20]);
        udp[14 + 20 - 10..14 + 20 - 8].copy_from_slice(&c.to_be_bytes());
        append_record(&mut file, 20, &udp);
        // An ARP frame (wrong ethertype).
        let mut arp = vec![0xff; 14 + 28];
        arp[12] = 0x08;
        arp[13] = 0x06;
        append_record(&mut file, 30, &arp);
        // A runt frame.
        append_record(&mut file, 40, &[0u8; 10]);

        let (flows, stats) = PcapReader::read_all_stats(&file[..]).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(stats.packets, 1);
        assert_eq!(stats.packets_skipped, 3);
        assert_eq!(stats.records_truncated, 0);
    }

    #[test]
    fn key_reuse_after_close_resets_sequence_state() {
        // Generation 1: SYN, data to offset 200k, FIN. Generation 2 reuses
        // the 4-tuple with a different ISN; its offsets must restart at 0,
        // not inherit generation 1's unwrap anchors.
        let srv = ([10, 0, 0, 1], 80u16);
        let cli = ([9, 9, 9, 9], 4242u16);
        let mut file = Vec::new();
        PcapWriter::new(&mut file).unwrap().finish().unwrap();
        let isn1 = 1_000u32;
        append_record(
            &mut file,
            10,
            &raw_tcp_frame(cli, srv, isn1, 0, 0x02, 0), // SYN
        );
        append_record(
            &mut file,
            20,
            &raw_tcp_frame(cli, srv, isn1 + 1, 0, 0x10, 300),
        );
        append_record(
            &mut file,
            30,
            &raw_tcp_frame(cli, srv, isn1 + 1 + 300, 0, 0x11, 0), // FIN|ACK
        );
        // Generation 2, new ISN far away.
        let isn2 = 0x9000_0000u32;
        append_record(
            &mut file,
            1_000_040,
            &raw_tcp_frame(cli, srv, isn2, 0, 0x02, 0), // SYN
        );
        append_record(
            &mut file,
            1_000_050,
            &raw_tcp_frame(cli, srv, isn2 + 1, 0, 0x10, 500),
        );

        let (flows, _) = PcapReader::read_all_stats(&file[..]).unwrap();
        assert_eq!(flows.len(), 2, "bare SYN on closed key starts a new flow");
        assert_eq!(flows[0].records.len(), 3);
        assert_eq!(flows[1].records.len(), 2);
        // Both generations' data starts at stream offset 0.
        assert_eq!(flows[0].records[1].seq, 0);
        assert_eq!(flows[0].records[1].len, 300);
        assert_eq!(flows[1].records[1].seq, 0);
        assert_eq!(flows[1].records[1].len, 500);
    }

    #[test]
    fn wire_seq_wraparound_keeps_offsets_monotonic() {
        // A flow whose client ISN sits just below 2^32: data crosses the
        // 0xffff_ffff boundary and the reader's unwrapping must keep the
        // 64-bit offsets monotonic through the wrap.
        let srv = ([10, 0, 0, 1], 80u16);
        let cli = ([9, 9, 9, 9], 5000u16);
        let isn: u32 = 0xffff_fc00;
        let mut file = Vec::new();
        PcapWriter::new(&mut file).unwrap().finish().unwrap();
        append_record(&mut file, 0, &raw_tcp_frame(cli, srv, isn, 0, 0x02, 0));
        let seg = 300u32;
        for i in 0..10u32 {
            let seq32 = isn.wrapping_add(1).wrapping_add(i * seg);
            append_record(
                &mut file,
                100 + i as u64 * 100,
                &raw_tcp_frame(cli, srv, seq32, 0, 0x10, seg as u16),
            );
        }
        let (flows, _) = PcapReader::read_all_stats(&file[..]).unwrap();
        assert_eq!(flows.len(), 1);
        let recs = &flows[0].records;
        assert_eq!(recs.len(), 11);
        for (i, r) in recs[1..].iter().enumerate() {
            assert_eq!(r.seq, i as u64 * seg as u64, "offset after wrap");
        }
        // The wire seq really did wrap within this window.
        assert!(
            (isn as u64 + 1 + 10 * seg as u64) > (1u64 << 32),
            "test must actually cross the 32-bit boundary"
        );
    }

    /// A `Read` that hands the capture over in pieces: each call returns at
    /// most the bytes up to the next cut, and with `interrupts` every third
    /// call fails first with a zero-progress `Interrupted`.
    struct Pieces<'a> {
        data: &'a [u8],
        /// Ascending piece ends; the last is `data.len()`.
        cuts: &'a [usize],
        pos: usize,
        interrupts: bool,
        calls: u64,
    }

    impl<'a> Pieces<'a> {
        fn new(data: &'a [u8], cuts: &'a [usize], interrupts: bool) -> Self {
            assert_eq!(cuts.last(), Some(&data.len()));
            Pieces {
                data,
                cuts,
                pos: 0,
                interrupts,
                calls: 0,
            }
        }
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupts && self.calls.is_multiple_of(3) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let end = self.cuts[self
                .cuts
                .partition_point(|&c| c <= self.pos)
                .min(self.cuts.len() - 1)];
            let n = buf.len().min(end - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Where the global header and each record of a little-endian capture
    /// end (the last end is the file's, even when that cuts a record).
    fn record_ends(file: &[u8]) -> Vec<usize> {
        let mut ends = vec![24];
        let mut pos = 24;
        while pos + 16 <= file.len() {
            let incl = u32::from_le_bytes(file[pos + 8..pos + 12].try_into().unwrap()) as usize;
            pos = (pos + 16 + incl).min(file.len());
            ends.push(pos);
        }
        if pos < file.len() {
            ends.push(file.len());
        }
        ends
    }

    /// Seeded property test for the reader: a capture with randomized
    /// record sizes (SACK-bearing ACKs, undecodable frames, and an optional
    /// truncated tail) must decode to the identical packet sequence, skip
    /// attribution and stats at every initial segment size — including
    /// degenerate ones where every record slides and grows the segment —
    /// and however the input is split into reads: one record a call, or cut
    /// at arbitrary bytes (inside record headers, inside frames) with
    /// zero-progress `Interrupted` errors in between.
    #[test]
    fn segment_boundaries_never_change_the_decoded_stream() {
        let mut rng: u64 = 0x2015_cafe;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        for trial in 0..8u32 {
            // Build a messy capture.
            let mut file = Vec::new();
            PcapWriter::new(&mut file).unwrap().finish().unwrap();
            let n_records = 120 + (next() % 200) as usize;
            for i in 0..n_records {
                let t = i as u64 * 37;
                match next() % 5 {
                    0 => {
                        // Undecodable: ARP-typed frame of random runt size.
                        let len = 10 + (next() % 60) as usize;
                        let mut junk = vec![0xaa; len];
                        if len > 13 {
                            junk[12] = 0x08;
                            junk[13] = 0x06;
                        }
                        append_record(&mut file, t, &junk);
                    }
                    1 => {
                        // SACK-bearing ACK (larger TCP header).
                        let key = FlowKey::synthetic((next() % 7) as u32);
                        let rec = TraceRecord {
                            t: SimTime::from_micros(t),
                            dir: Direction::In,
                            seq: 300,
                            len: 0,
                            flags: SegFlags::ACK,
                            ack: 1448 * (next() % 10),
                            rwnd: 65536,
                            sack: [SackBlock::new(2896, 4344)].into(),
                            dsack: false,
                        };
                        let frame = encode_frame(&key, &rec);
                        append_record(&mut file, t, &frame.captured);
                    }
                    _ => {
                        let key = FlowKey::synthetic((next() % 7) as u32);
                        let rec = TraceRecord::data(
                            SimTime::from_micros(t),
                            if next() % 2 == 0 {
                                Direction::Out
                            } else {
                                Direction::In
                            },
                            1448 * (next() % 50),
                            (next() % 1449) as u32,
                            0,
                            65536,
                        );
                        let frame = encode_frame(&key, &rec);
                        append_record(&mut file, t, &frame.captured);
                    }
                }
            }
            if trial % 2 == 1 {
                // Cut the tail mid-record (every record is ≥ 26 bytes).
                let cut = 1 + (next() % 15) as usize;
                file.truncate(file.len() - cut);
            }

            // Baseline: the whole buffer in one read, nothing slides.
            type Seen = Vec<(u64, FlowKey, u32, u64, u32)>;
            let decode = |input: &mut dyn Read, seg: usize| -> (Seen, PcapStats) {
                let mut s = PcapStream::with_segment_len(input, seg).unwrap();
                let mut got = Vec::new();
                while let Some(v) = s.next_view().unwrap() {
                    got.push((
                        v.t.as_micros(),
                        v.key,
                        v.raw.seq32,
                        v.frame.len() as u64,
                        v.raw.payload_len,
                    ));
                }
                (got, s.stats())
            };
            let (base, base_stats) = decode(&mut &file[..], 1 << 20);
            assert!(base_stats.packets > 0, "trial {trial} decoded nothing");
            // A cut tail is counted once and never hangs the reader.
            assert_eq!(base_stats.records_truncated, u64::from(trial % 2 == 1));
            for seg in [1, 7, 16, 17, 31, 97, 256, 1024, 4096] {
                let (got, stats) = decode(&mut &file[..], seg);
                assert_eq!(got, base, "trial {trial} segment {seg}");
                assert_eq!(stats, base_stats, "trial {trial} segment {seg} stats");
            }

            // The same bytes split into reads two ways.
            let by_record = record_ends(&file);
            let mut by_byte = Vec::new();
            while by_byte.last() != Some(&file.len()) {
                let last = by_byte.last().copied().unwrap_or(0);
                by_byte.push((last + 1 + (next() % 150) as usize).min(file.len()));
            }
            let splits = [("record", &by_record, false), ("byte", &by_byte, true)];
            for (how, cuts, interrupts) in splits {
                for seg in [1, 97, 1 << 20] {
                    let mut input = Pieces::new(&file, cuts, interrupts);
                    let (got, stats) = decode(&mut input, seg);
                    assert_eq!(got, base, "trial {trial} split by {how} segment {seg}");
                    assert_eq!(stats, base_stats, "trial {trial} split by {how} stats");
                }
            }

            // Batched fills agree with the whole-buffer read packet by
            // packet, cumulative skip counts included, under every split
            // and cap.
            let batched = |input: &mut dyn Read, seg: usize, max: usize| {
                let mut s = PcapStream::with_segment_len(input, seg).unwrap();
                let mut batch = PacketBatch::new();
                let mut got = Vec::new();
                let mut sizes = Vec::new();
                while s.fill_batch(&mut batch, max).unwrap() > 0 {
                    sizes.push(batch.len());
                    for (i, p) in batch.pkts().iter().enumerate() {
                        got.push((p.t.as_micros(), p.key, p.raw.seq32, batch.skipped_before(i)));
                    }
                }
                (got, sizes, s.stats())
            };
            let (whole, sizes, _) = batched(&mut &file[..], 1 << 20, usize::MAX);
            assert_eq!(sizes, [base_stats.packets as usize], "one read, one batch");
            assert!(whole.windows(2).all(|w| w[0].3 <= w[1].3), "skips monotone");
            assert!(whole.last().unwrap().3 <= base_stats.packets_skipped);
            // A fast input fills batches to the cap ...
            let (got, sizes, stats) = batched(&mut &file[..], 1 << 20, 32);
            assert_eq!((got, stats), (whole.clone(), base_stats), "trial {trial}");
            assert!(sizes[..sizes.len() - 1].iter().all(|&n| n == 32));
            for (how, cuts, interrupts) in splits {
                for max in [1, 32] {
                    let mut input = Pieces::new(&file, cuts, interrupts);
                    let (got, sizes, stats) = batched(&mut input, 113, max);
                    assert_eq!(got, whole, "trial {trial} split by {how} batch {max}");
                    assert_eq!(
                        stats, base_stats,
                        "trial {trial} split by {how} batch {max}"
                    );
                    // ... and one that trickles a record a read is never
                    // asked for a second read while a packet is held.
                    assert!(how != "record" || sizes.iter().all(|&n| n == 1));
                }
            }
        }
    }

    /// A record larger than the segment grows it (once) rather than being
    /// refused; only `MAX_CAPLEN` bounds a record, and a length above it
    /// stops the stream countably instead of allocating for garbage.
    #[test]
    fn oversized_records_grow_the_segment_up_to_the_cap() {
        let srv = ([10, 0, 0, 1], 80u16);
        let cli = ([9, 9, 9, 9], 4242u16);
        let small = raw_tcp_frame(cli, srv, 1, 0, 0x10, 100);
        let padded = |len: usize| {
            let mut f = small.clone();
            f.resize(len, 0);
            f
        };
        let mut file = Vec::new();
        PcapWriter::new(&mut file).unwrap().finish().unwrap();
        append_record(&mut file, 10, &padded(SEGMENT_LEN + 4096));
        append_record(&mut file, 20, &small);
        append_record(&mut file, 30, &padded(MAX_CAPLEN));
        append_record(&mut file, 40, &padded(MAX_CAPLEN + 1));
        append_record(&mut file, 50, &small); // never reached

        let by_byte: Vec<usize> = (1..=file.len().div_ceil(5000))
            .map(|i| (i * 5000).min(file.len()))
            .collect();
        for seg in [64, SEGMENT_LEN] {
            for split in [false, true] {
                let whole = [file.len()];
                let cuts = if split { &by_byte[..] } else { &whole[..] };
                let mut s =
                    PcapStream::with_segment_len(Pieces::new(&file, cuts, split), seg).unwrap();
                let mut lens = Vec::new();
                while let Some(v) = s.next_view().unwrap() {
                    lens.push(v.frame.len());
                }
                assert_eq!(lens, [SEGMENT_LEN + 4096, small.len(), MAX_CAPLEN]);
                assert_eq!(s.stats().packets, 3);
                assert_eq!(s.stats().records_truncated, 1, "the record over the cap");
                assert!(s.seg.len() <= 16 + MAX_CAPLEN.max(SEGMENT_LEN));
            }
        }
    }

    /// Reference for [`decode_frame`]: the same decode written with a
    /// bounds-checked index per byte.
    fn parse_frame(frame: &[u8]) -> Option<(FlowKey, RawRecord)> {
        if frame.len() < 14 + 20 + 20 {
            return None;
        }
        let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
        if ethertype != 0x0800 {
            return None;
        }
        let ip = &frame[14..];
        if ip[0] >> 4 != 4 {
            return None;
        }
        let ihl = ((ip[0] & 0xf) as usize) * 4;
        if ip[9] != 6 || ip.len() < ihl + 20 {
            return None;
        }
        let total_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
        let src_ip = [ip[12], ip[13], ip[14], ip[15]];
        let dst_ip = [ip[16], ip[17], ip[18], ip[19]];
        let tcp = &ip[ihl..];
        let src_port = u16::from_be_bytes([tcp[0], tcp[1]]);
        let dst_port = u16::from_be_bytes([tcp[2], tcp[3]]);
        let seq32 = u32::from_be_bytes([tcp[4], tcp[5], tcp[6], tcp[7]]);
        let ack32 = u32::from_be_bytes([tcp[8], tcp[9], tcp[10], tcp[11]]);
        let data_off = ((tcp[12] >> 4) as usize) * 4;
        if data_off < 20 || tcp.len() < data_off {
            return None;
        }
        let fl = tcp[13];
        let flags = SegFlags {
            fin: fl & 0x01 != 0,
            syn: fl & 0x02 != 0,
            rst: fl & 0x04 != 0,
            ack: fl & 0x10 != 0,
        };
        let wnd16 = u16::from_be_bytes([tcp[14], tcp[15]]);
        let payload_len = total_len.saturating_sub(ihl + data_off) as u32;

        let (server_ip, server_port, client_ip, client_port, dir) = if flags.syn && !flags.ack {
            (dst_ip, dst_port, src_ip, src_port, Direction::In)
        } else if (flags.syn && flags.ack) || src_port <= dst_port {
            (src_ip, src_port, dst_ip, dst_port, Direction::Out)
        } else {
            (dst_ip, dst_port, src_ip, src_port, Direction::In)
        };

        let mut raw = RawRecord::new(dir, seq32, ack32, flags, wnd16, payload_len);

        let opts = &tcp[20..data_off.min(tcp.len())];
        let mut i = 0;
        while i < opts.len() {
            match opts[i] {
                0 => break,
                1 => i += 1,
                5 => {
                    if i + 1 >= opts.len() {
                        break;
                    }
                    let l = opts[i + 1] as usize;
                    if l < 2 || i + l > opts.len() {
                        break;
                    }
                    let mut j = i + 2;
                    while j + 8 <= i + l {
                        let s =
                            u32::from_be_bytes([opts[j], opts[j + 1], opts[j + 2], opts[j + 3]]);
                        let e = u32::from_be_bytes([
                            opts[j + 4],
                            opts[j + 5],
                            opts[j + 6],
                            opts[j + 7],
                        ]);
                        raw.push_sack32(s, e);
                        j += 8;
                    }
                    i += l;
                }
                _ => {
                    if i + 1 >= opts.len() {
                        break;
                    }
                    let l = opts[i + 1] as usize;
                    if l < 2 {
                        break;
                    }
                    i += l;
                }
            }
        }

        Some((
            FlowKey {
                server_ip,
                server_port,
                client_ip,
                client_port,
            },
            raw,
        ))
    }

    /// Frames the mutation test starts from: the writer's handshake, data,
    /// SACK/DSACK ACKs and FIN, plus a frame with IP options and one with
    /// a timestamp option ahead of its SACK blocks.
    fn seed_frames() -> Vec<Vec<u8>> {
        let key = FlowKey::synthetic(77);
        let mut frames: Vec<Vec<u8>> = syn_exchange(key)
            .iter()
            .map(|r| encode_frame(&key, r).captured)
            .collect();
        let four = TraceRecord {
            sack: [
                SackBlock::new(0, 10),
                SackBlock::new(20, 30),
                SackBlock::new(40, 50),
                SackBlock::new(60, 70),
            ]
            .into(),
            ..TraceRecord::pure_ack(SimTime::ZERO, Direction::In, 5, 1 << 16)
        };
        frames.push(encode_frame(&key, &four).captured);
        let mut fin = TraceRecord::data(SimTime::ZERO, Direction::Out, 9, 0, 3, 1 << 16);
        fin.flags.fin = true;
        frames.push(encode_frame(&key, &fin).captured);
        // Router-alert IP option: ihl 6.
        let mut ipopt = frames[4].clone();
        ipopt.splice(34..34, [0x94, 0x04, 0x00, 0x00]);
        ipopt[14] = 0x46;
        frames.push(ipopt);
        // Timestamps (kind 8) then the SACK option: data offset 11 words.
        let mut ts = frames[6].clone();
        let opts_at = 14 + 20 + 20;
        ts.splice(opts_at..opts_at, [8, 10, 1, 2, 3, 4, 5, 6, 7, 8, 1, 1]);
        ts[14 + 20 + 12] += 3 << 4;
        frames.push(ts);
        frames
    }

    #[test]
    fn decode_frame_equals_the_reference_on_mutated_frames() {
        let seeds = seed_frames();
        let mut rng = simnet::rng::SimRng::seed(0xdec0_de54);
        let mut below = |n: usize| (rng.next_u64() % n.max(1) as u64) as usize;
        let (mut decoded, mut with_sack, mut skipped) = (0, 0, 0);
        for _ in 0..120_000 {
            let mut f = seeds[below(seeds.len())].clone();
            for _ in 0..1 + below(3) {
                let len = f.len();
                match below(8) {
                    0 | 1 => {
                        // Any byte of the headers, to anything.
                        let at = below(len.min(90));
                        if at < len {
                            f[at] = below(256) as u8;
                        }
                    }
                    2 => f.truncate(below(len + 1)),
                    3 => f.extend((0..1 + below(20)).map(|_| below(256) as u8)),
                    4 => {
                        // IHL / version nibbles.
                        if len > 14 {
                            f[14] = (f[14] & 0xf0) | below(16) as u8;
                        }
                        if below(8) == 0 && len > 14 {
                            f[14] = (below(16) as u8) << 4 | (f[14] & 0x0f);
                        }
                    }
                    5 => {
                        // Data offset of wherever the TCP header now starts.
                        let at = 14 + usize::from(f.get(14).map_or(5, |b| b & 0xf)) * 4 + 12;
                        if at < len {
                            f[at] = (below(16) as u8) << 4 | (f[at] & 0x0f);
                        }
                    }
                    6 => {
                        // An option kind or length inside the option area.
                        if len > 54 {
                            let at = 54 + below(len - 54);
                            f[at] = [0, 1, 2, 5, 8, below(256) as u8][below(6)];
                        }
                    }
                    _ => {
                        // Ethertype / protocol set to the decodable values.
                        if len > 23 {
                            f[12] = 0x08;
                            f[13] = 0x00;
                            f[23] = 6;
                        }
                    }
                }
            }
            let got = decode_frame(&f);
            assert_eq!(got, parse_frame(&f), "frame {f:02x?}");
            match got {
                Some((_, raw)) => {
                    decoded += 1;
                    with_sack += usize::from(!raw.sack32().is_empty());
                }
                None => skipped += 1,
            }
        }
        assert!(decoded > 20_000 && with_sack > 5_000 && skipped > 20_000);
        assert!(decoded + skipped == 120_000);

        // Every prefix of a four-block SACK frame, and of the frames with
        // IP and TCP options.
        for f in &seeds[seeds.len() - 4..] {
            for len in 0..=f.len() {
                assert_eq!(
                    decode_frame(&f[..len]),
                    parse_frame(&f[..len]),
                    "prefix {len}"
                );
            }
        }
        let four = &seeds[seeds.len() - 4];
        assert_eq!(decode_frame(four).unwrap().1.sack32().len(), 4);
    }

    #[test]
    fn multiple_flows_demultiplex() {
        let k1 = FlowKey::synthetic(1);
        let k2 = FlowKey::synthetic(2);
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file).unwrap();
        let rec = |t_us: u64| {
            TraceRecord::data(SimTime::from_micros(t_us), Direction::Out, 0, 100, 0, 65536)
        };
        w.write_record(&k1, &rec(10)).unwrap();
        w.write_record(&k2, &rec(20)).unwrap();
        w.write_record(&k1, &rec(30)).unwrap();
        w.finish().unwrap();
        let flows = PcapReader::read_all(&file[..]).unwrap();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].records.len(), 2);
        assert_eq!(flows[1].records.len(), 1);
    }
}
