//! The per-packet trace record.

use simnet::time::SimTime;

/// Direction of a packet relative to the capture vantage point (the server):
/// `Out` = server → client, `In` = client → server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Sent by the server (data direction in the paper's services).
    Out,
    /// Received by the server (requests and acknowledgments).
    In,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
        }
    }
}

/// TCP header flags we track (CWR/ECE/PSH/URG are irrelevant to the
/// classifier and omitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegFlags {
    /// SYN flag.
    pub syn: bool,
    /// FIN flag.
    pub fin: bool,
    /// RST flag.
    pub rst: bool,
    /// ACK flag (set on everything except the very first SYN).
    pub ack: bool,
}

impl SegFlags {
    /// Flags for an ordinary data or pure-ACK segment.
    pub const ACK: SegFlags = SegFlags {
        syn: false,
        fin: false,
        rst: false,
        ack: true,
    };
    /// Flags for an initial SYN.
    pub const SYN: SegFlags = SegFlags {
        syn: true,
        fin: false,
        rst: false,
        ack: false,
    };
    /// Flags for a SYN-ACK.
    pub const SYN_ACK: SegFlags = SegFlags {
        syn: true,
        fin: false,
        rst: false,
        ack: true,
    };
}

/// A SACK block in stream-offset space: bytes `[start, end)` were received.
///
/// Note the exclusive end, unlike the wire format's inclusive-exclusive
/// right-edge convention — conversion happens in the pcap layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SackBlock {
    /// First byte covered.
    pub start: u64,
    /// One past the last byte covered.
    pub end: u64,
}

impl SackBlock {
    /// Construct a block; panics if `end < start`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(end >= start, "invalid SACK block {start}..{end}");
        SackBlock { start, end }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True for an empty block.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Maximum SACK blocks carried per segment: a 40-byte TCP option space
/// minus timestamps fits 3 blocks, 4 without — real stacks and the
/// paper's traces never exceed 4, so the simulator caps there too.
pub const SACK_CAP: usize = 4;

/// A fixed-capacity, inline list of SACK blocks — the allocation-free
/// replacement for `Vec<SackBlock>` on the per-segment hot path.
///
/// Blocks are ordered **most recent first**, as real stacks generate them
/// (RFC 2018 §4); when a `dsack` flag accompanies the list, `self[0]` is
/// the DSACK and consumers slice `&list[1..]` for the real blocks. The
/// list derefs to `[SackBlock]`, so slicing, iteration and `first()` all
/// work as they did on the `Vec`.
#[derive(Clone, Copy)]
pub struct SackList {
    len: u8,
    blocks: [SackBlock; SACK_CAP],
}

impl SackList {
    /// The empty list (also what [`SackList::default`] returns).
    pub const EMPTY: SackList = SackList {
        len: 0,
        blocks: [SackBlock { start: 0, end: 0 }; SACK_CAP],
    };

    /// An empty list.
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// Append a block (the *next-most-recent* in the most-recent-first
    /// order). Builders emit blocks newest-first, so when the list is full
    /// the appended block is the oldest of the bunch and is dropped —
    /// exactly the wire behaviour of a full SACK option.
    pub fn push(&mut self, b: SackBlock) {
        if (self.len as usize) < SACK_CAP {
            self.blocks[self.len as usize] = b;
            self.len += 1;
        }
    }

    /// Insert a block at the front (a *newer* block arriving on an
    /// already-built list). When full, the back — the oldest block — is
    /// evicted.
    pub fn push_front(&mut self, b: SackBlock) {
        let keep = (self.len as usize).min(SACK_CAP - 1);
        self.blocks.copy_within(0..keep, 1);
        self.blocks[0] = b;
        self.len = (keep + 1) as u8;
    }

    /// Remove all blocks.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl Default for SackList {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl std::ops::Deref for SackList {
    type Target = [SackBlock];
    fn deref(&self) -> &[SackBlock] {
        &self.blocks[..self.len as usize]
    }
}

impl std::fmt::Debug for SackList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for SackList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SackList {}

impl std::hash::Hash for SackList {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl PartialEq<Vec<SackBlock>> for SackList {
    fn eq(&self, other: &Vec<SackBlock>) -> bool {
        **self == other[..]
    }
}

impl PartialEq<SackList> for Vec<SackBlock> {
    fn eq(&self, other: &SackList) -> bool {
        self[..] == **other
    }
}

impl PartialEq<[SackBlock]> for SackList {
    fn eq(&self, other: &[SackBlock]) -> bool {
        **self == *other
    }
}

impl FromIterator<SackBlock> for SackList {
    /// Collect in append order (newest first); blocks beyond
    /// [`SACK_CAP`] — the oldest — are dropped.
    fn from_iter<I: IntoIterator<Item = SackBlock>>(iter: I) -> Self {
        let mut list = SackList::new();
        for b in iter {
            list.push(b);
        }
        list
    }
}

impl From<Vec<SackBlock>> for SackList {
    fn from(v: Vec<SackBlock>) -> Self {
        v.into_iter().collect()
    }
}

impl<const N: usize> From<[SackBlock; N]> for SackList {
    fn from(v: [SackBlock; N]) -> Self {
        v.into_iter().collect()
    }
}

impl<'a> IntoIterator for &'a SackList {
    type Item = &'a SackBlock;
    type IntoIter = std::slice::Iter<'a, SackBlock>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One captured packet, reduced to the TCP fields TAPO's analysis needs.
///
/// Sequence and acknowledgment numbers are *relative stream offsets* for the
/// respective direction (data bytes only; SYN/FIN do not consume offsets
/// here — the pcap layer handles wire-format adjustment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Capture timestamp at the server NIC.
    pub t: SimTime,
    /// Direction relative to the server.
    pub dir: Direction,
    /// Stream offset of the first payload byte (sender's direction).
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Header flags.
    pub flags: SegFlags,
    /// Cumulative acknowledgment: stream offset expected next from the peer.
    pub ack: u64,
    /// Advertised receive window in bytes.
    pub rwnd: u64,
    /// SACK blocks (first may be a DSACK when `dsack` is set), most recent
    /// first as generated by real stacks. Stored inline — a `TraceRecord`
    /// never touches the heap.
    pub sack: SackList,
    /// Whether `sack[0]` is a DSACK (duplicate-SACK, RFC 2883).
    pub dsack: bool,
}

/// A consumer of [`TraceRecord`]s delivered in capture (time) order.
///
/// Producers (the flow simulator, pcap readers) emit records one at a time;
/// a sink either materializes them (a [`crate::flow::FlowTrace`]) or folds
/// them into running state (a streaming analyzer) without retaining the
/// trace. Tee into two sinks at once with a `(A, B)` tuple; lend one by
/// `&mut` to keep it (and its storage) across runs.
pub trait RecordSink {
    /// Accept the next record. Records arrive in non-decreasing time order.
    fn record(&mut self, rec: &TraceRecord);
}

impl<A: RecordSink, B: RecordSink> RecordSink for (A, B) {
    fn record(&mut self, rec: &TraceRecord) {
        self.0.record(rec);
        self.1.record(rec);
    }
}

/// A borrowed sink: lend a recycled sink to a run without giving it up.
impl<S: RecordSink + ?Sized> RecordSink for &mut S {
    fn record(&mut self, rec: &TraceRecord) {
        (**self).record(rec);
    }
}

/// The null sink: discards every record. For runs that only need the
/// simulator's aggregate outcome (latencies, sender/link stats) — sweeps
/// where neither a trace nor an analysis is ever read.
impl RecordSink for () {
    fn record(&mut self, _rec: &TraceRecord) {}
}

impl TraceRecord {
    /// A minimal data segment record.
    pub fn data(t: SimTime, dir: Direction, seq: u64, len: u32, ack: u64, rwnd: u64) -> Self {
        TraceRecord {
            t,
            dir,
            seq,
            len,
            flags: SegFlags::ACK,
            ack,
            rwnd,
            sack: SackList::new(),
            dsack: false,
        }
    }

    /// A pure-ACK record.
    pub fn pure_ack(t: SimTime, dir: Direction, ack: u64, rwnd: u64) -> Self {
        Self::data(t, dir, 0, 0, ack, rwnd)
    }

    /// True if the record carries payload.
    pub fn has_data(&self) -> bool {
        self.len > 0
    }

    /// The stream offset one past the last payload byte.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.len as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::In.flip(), Direction::Out);
        assert_eq!(Direction::Out.flip(), Direction::In);
    }

    #[test]
    fn seq_end_and_has_data() {
        let r = TraceRecord::data(SimTime::ZERO, Direction::Out, 1000, 1448, 0, 65535);
        assert!(r.has_data());
        assert_eq!(r.seq_end(), 2448);
        let a = TraceRecord::pure_ack(SimTime::ZERO, Direction::In, 2448, 65535);
        assert!(!a.has_data());
    }

    #[test]
    #[should_panic(expected = "invalid SACK block")]
    fn sack_block_rejects_reversed() {
        let _ = SackBlock::new(10, 5);
    }

    fn blk(i: u64) -> SackBlock {
        SackBlock::new(i * 100, i * 100 + 10)
    }

    #[test]
    fn sack_list_is_inline_not_heap_backed() {
        // The whole point of SackList: the blocks live inside the struct.
        // A heap-backed Vec would be 24 bytes regardless of capacity; the
        // inline list must be at least CAP blocks wide, and its block
        // storage must sit within the struct's own memory.
        assert!(std::mem::size_of::<SackList>() >= SACK_CAP * std::mem::size_of::<SackBlock>());
        let list: SackList = [blk(1), blk(2)].into();
        let base = &list as *const SackList as usize;
        let first = list.as_ptr() as usize;
        assert!(
            first >= base && first < base + std::mem::size_of::<SackList>(),
            "block storage must be inline"
        );
        // And it must be Copy — compile-time proof of allocation freedom.
        let copy = list;
        assert_eq!(copy, list);
    }

    #[test]
    fn sack_list_push_saturates_dropping_oldest() {
        // Builders append newest-first; the 5th (oldest) block is dropped.
        let list: SackList = (1..=5).map(blk).collect();
        assert_eq!(list.len(), SACK_CAP);
        assert_eq!(*list, [blk(1), blk(2), blk(3), blk(4)][..]);
    }

    #[test]
    fn sack_list_push_front_evicts_oldest_on_overflow() {
        // A newer block arriving on a full list evicts the back (oldest).
        let mut list: SackList = (1..=4).map(blk).collect();
        list.push_front(blk(5));
        assert_eq!(list.len(), SACK_CAP);
        assert_eq!(*list, [blk(5), blk(1), blk(2), blk(3)][..]);
        assert!(!list.contains(&blk(4)), "oldest block evicted");
    }

    #[test]
    fn sack_list_dsack_first_slicing() {
        // The DSACK-first convention consumers rely on (`&sack[1..]` skips
        // the DSACK): slicing works through Deref exactly like a Vec.
        let dsack = blk(9);
        let mut list = SackList::new();
        list.push(dsack);
        list.push(blk(1));
        list.push(blk(2));
        assert_eq!(list.first(), Some(&dsack));
        assert_eq!(list[1..], [blk(1), blk(2)][..]);
        assert!(list.iter().any(|b| *b == blk(2)));
    }

    #[test]
    fn sack_list_equality_ignores_spare_capacity() {
        let mut a = SackList::new();
        a.push(blk(1));
        a.push(blk(2));
        a.push(blk(3));
        a.clear();
        a.push(blk(7));
        let mut b = SackList::new();
        b.push(blk(7));
        assert_eq!(a, b);
        assert_eq!(a, vec![blk(7)]);
    }
}
