//! Spans recorded by the traced iterations, around each call into a layer.
//!
//! The benchmark records them from outside (spans inside `tapo` are a
//! later change): the staged iteration calls the pipeline's public pieces
//! one by one and brackets each call. Spans stay in memory and are written
//! out once, when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

use crate::alloc::Snap;

/// One bracketed call. `parent` indexes the recorder's span list; spans of
/// one staged iteration share `iter`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub iter: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Packets, records or flows the call handled.
    pub items: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    idx: u32,
    at_entry: Snap,
}

/// Per-layer sums over one iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerSum {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub items: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    iter: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iter: 0,
        }
    }

    /// Start the next staged iteration; returns its id.
    pub fn next_iter(&mut self) -> u32 {
        self.iter += 1;
        self.iter
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            iter: self.iter,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            items: 0,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.stack.push(idx);
        let at_entry = Snap::now();
        // Clock read last on entry and first on exit: the recorder's own
        // bookkeeping stays outside the measured interval.
        self.spans[idx as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        Open { idx, at_entry }
    }

    pub fn exit(&mut self, open: Open, items: u64) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let d = Snap::now().since(open.at_entry);
        let top = self.stack.pop();
        assert_eq!(top, Some(open.idx), "spans must nest");
        let s = &mut self.spans[open.idx as usize];
        s.end_ns = end_ns;
        s.items = items;
        s.allocs = d.allocs;
        s.alloc_bytes = d.bytes;
    }

    /// Each span's duration minus the part its child spans cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per-layer sums of iteration `iter`, by span name.
    pub fn layer_sums(&self, iter: u32) -> BTreeMap<&'static str, LayerSum> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, LayerSum> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            if s.iter != iter {
                continue;
            }
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += own_ns;
            e.items += s.items;
            e.allocs += s.allocs;
            e.alloc_bytes += s.alloc_bytes;
        }
        out
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl<W: Write>(&self, mut out: W) -> io::Result<()> {
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"iter\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"items\":{},\
                 \"allocs\":{},\"alloc_bytes\":{}}}",
                s.iter, s.name, s.start_ns, s.end_ns, s.items, s.allocs, s.alloc_bytes
            )?;
        }
        out.flush()
    }
}

/// Alternating rounds of a traced pass: one tracing-off run, then one
/// staged run, so that the two share whatever the machine is doing at the
/// time. Each round yields the share of the tracing-off wall the staged
/// layers add up to (reconcile) and the staged wall over the tracing-off
/// wall (overhead); the median round speaks for the pass.
pub struct Rounds {
    started: Instant,
    budget: Duration,
    reconcile: Vec<f64>,
    overhead: Vec<f64>,
}

impl Rounds {
    pub fn new(budget: Duration) -> Self {
        Rounds {
            started: Instant::now(),
            budget,
            reconcile: Vec::new(),
            overhead: Vec::new(),
        }
    }

    /// Three rounds at least, then until the budget is spent; a pass whose
    /// layers do not yet reconcile gets as much time again before the
    /// figure is believed.
    pub fn wants_more(&self) -> bool {
        let spent = self.started.elapsed();
        self.reconcile.len() < 3
            || spent < self.budget
            || (!self.reconciles() && spent < self.budget * 2)
    }

    pub fn round(&mut self, fused_wall: Duration, layers_ns: u64, staged_run_ns: u64) {
        let wall_ns = fused_wall.as_nanos() as f64;
        self.reconcile.push(layers_ns as f64 / wall_ns);
        self.overhead.push(staged_run_ns as f64 / wall_ns);
    }

    pub fn reconcile_ratio(&self) -> f64 {
        crate::stats::median(&self.reconcile)
    }

    pub fn overhead_ratio(&self) -> f64 {
        crate::stats::median(&self.overhead)
    }

    pub fn reconciles(&self) -> bool {
        crate::spec::reconciles(self.reconcile_ratio())
    }
}

/// Layer sums of several staged iterations. Each figure is the median
/// over the iterations, so one disturbed iteration does not speak for a
/// layer.
pub struct LayerMedians(Vec<BTreeMap<&'static str, LayerSum>>);

impl LayerMedians {
    pub fn of(tracer: &Tracer, iters: &[u32]) -> Self {
        LayerMedians(iters.iter().map(|&i| tracer.layer_sums(i)).collect())
    }

    fn median(&self, name: &str, f: impl Fn(&LayerSum) -> f64) -> f64 {
        let xs: Vec<f64> = self.0.iter().map(|sums| f(&sums[name])).collect();
        crate::stats::median(&xs)
    }

    /// Nanoseconds inside spans of this name, per iteration.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.median(name, |l| l.total_ns as f64)
    }

    /// Nanoseconds per span of this name.
    pub fn per_call_ns(&self, name: &str) -> f64 {
        self.median(name, |l| l.total_ns as f64 / l.calls as f64)
    }

    /// Allocations inside spans of this name, per iteration.
    pub fn allocs(&self, name: &str) -> f64 {
        self.median(name, |l| l.allocs as f64)
    }

    /// Items handled by spans of this name, per iteration.
    pub fn items(&self, name: &str) -> f64 {
        self.median(name, |l| l.items as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            iter: 1,
            parent,
            start_ns,
            end_ns,
            items: 1,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_at_every_level() {
        let t = Tracer {
            epoch: Instant::now(),
            spans: vec![
                span("root", None, 0, 1000),
                span("a", Some(0), 100, 400),   // 300, child of root
                span("a.x", Some(1), 150, 250), // 100, grandchild
                span("a.y", Some(1), 300, 350), // 50, grandchild
                span("b", Some(0), 500, 900),   // 400, child of root
            ],
            stack: Vec::new(),
            iter: 1,
        };
        // Grandchildren come off `a` only, not off `root` a second time.
        assert_eq!(t.self_ns(), vec![300, 150, 100, 50, 400]);
        let sums = t.layer_sums(1);
        assert_eq!(sums["root"].total_ns, 1000);
        assert_eq!(sums["root"].self_ns, 300);
        assert_eq!(sums["a"].self_ns, 150);
        // Self times of a tree add up to the root's duration.
        assert_eq!(sums.values().map(|l| l.self_ns).sum::<u64>(), 1000);
        assert!(t.layer_sums(2).is_empty());
    }

    #[test]
    fn rounds_report_the_median_round_and_ask_for_at_least_three() {
        let mut r = Rounds::new(Duration::ZERO);
        let wall = Duration::from_nanos(1000);
        for (layers, run) in [(950, 1010), (400, 1500), (1000, 1030)] {
            assert!(r.wants_more());
            r.round(wall, layers, run);
        }
        // One disturbed round of three does not move either figure.
        assert_eq!(r.reconcile_ratio(), 0.95);
        assert_eq!(r.overhead_ratio(), 1.03);
        assert!(r.reconciles() && !r.wants_more());
        let mut off = Rounds::new(Duration::ZERO);
        (0..3).for_each(|_| off.round(wall, 500, 1000));
        assert!(
            !off.reconciles() && !off.wants_more(),
            "budget and its extension are spent"
        );
    }

    #[test]
    fn enter_exit_records_nesting_items_and_allocations() {
        let mut t = Tracer::new();
        t.next_iter();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        let v = std::hint::black_box(vec![1u8; 4096]);
        t.exit(inner, 7);
        t.exit(outer, 1);
        drop(v);
        let s = t.spans();
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!(s[1].items, 7);
        assert!(s[1].allocs >= 1 && s[1].alloc_bytes >= 4096);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(tapo::json::Json::parse(line).is_ok(), "{line}");
        }
    }
}
