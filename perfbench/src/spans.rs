//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span is opened just before a call into a layer and closed just after,
//! so nothing inside the program under test changes. Spans live in memory
//! and are written out once, when the run ends. A disabled recorder does
//! nothing but one branch per span, which is how untraced passes run.

use std::io::Write;
use std::time::Instant;

/// The layer a span's self time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own loop: scheduling and bookkeeping.
    Driver,
    /// Open-loop waits for the next due time (reads inside are children).
    Idle,
    Reservoir,
    InStream,
    PostStream,
    Compact,
    Persist,
    Engine,
    Serve,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Driver,
        Layer::Idle,
        Layer::Reservoir,
        Layer::InStream,
        Layer::PostStream,
        Layer::Compact,
        Layer::Persist,
        Layer::Engine,
        Layer::Serve,
    ];

    pub fn module(self) -> &'static str {
        match self {
            Layer::Driver => "perfbench (driver)",
            Layer::Idle => "perfbench (open-loop wait)",
            Layer::Reservoir => "gps_core::reservoir",
            Layer::InStream => "gps_core::in_stream",
            Layer::PostStream => "gps_core::post_stream",
            Layer::Compact => "gps_graph::compact",
            Layer::Persist => "gps_core::persist",
            Layer::Engine => "gps_engine",
            Layer::Serve => "gps_serve",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub pass: u32,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
}

/// Handle to an open span; pass it back to [`Recorder::end`].
#[must_use]
pub struct Open(Option<u32>);

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Starts a new pass id for the spans that follow.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, layer: Layer) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end_ns = self.now_ns();
            self.spans[id as usize].end_ns = end_ns;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, layer);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the time its direct
    /// children cover, summed by layer, in nanoseconds.
    pub fn self_time(&self) -> Vec<(Layer, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.end_ns - s.start_ns;
            }
        }
        Layer::ALL
            .into_iter()
            .map(|layer| {
                let ns = self
                    .spans
                    .iter()
                    .zip(&child)
                    .filter(|(s, _)| s.layer == layer)
                    .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
                    .sum();
                (layer, ns)
            })
            .collect()
    }

    /// Writes every span as a tab-separated line.
    pub fn write_tsv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "id\tname\tlayer\tstart_ns\tend_ns\tparent\tpass")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{}",
                s.name,
                s.layer.module(),
                s.start_ns,
                s.end_ns,
                s.pass
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u128) {
        let t = Instant::now();
        while t.elapsed().as_nanos() < ns {}
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true);
        r.next_pass();
        let outer = r.begin("pass", Layer::Driver);
        spin(200_000);
        r.span("chunk", Layer::Reservoir, || spin(500_000));
        r.end(outer);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].pass, 1);
        let st: std::collections::BTreeMap<Layer, u64> = r.self_time().into_iter().collect();
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(st[&Layer::Driver] + st[&Layer::Reservoir], total);
        assert!(st[&Layer::Reservoir] >= 500_000);
        assert!(st[&Layer::Driver] >= 200_000);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let x = r.span("chunk", Layer::Reservoir, || 7);
        assert_eq!(x, 7);
        assert!(r.spans().is_empty());
        assert!(r.self_time().iter().all(|&(_, ns)| ns == 0));
    }
}
