//! The benchmark's span recorder. Spans are taken around calls into the
//! program's public functions (never inside the program), kept in memory,
//! written as JSONL when the run ends, and folded into per-layer self
//! times. With recording off the same code paths run with no clock reads,
//! which is what the tracing-overhead figure compares against.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    pub req: u64,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Self time folded per span name.
#[derive(Default, Clone, Copy)]
pub struct Fold {
    pub calls: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a `layer.operation` label)
    /// belonging to request `req`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[idx as usize].end_ns = end_ns;
        out
    }

    /// Records an already-measured child span (a phase the program
    /// reported itself, laid end to end from `start_ns`).
    pub fn record(&mut self, name: &'static str, req: u64, start_ns: u64, dur_ns: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            req,
        });
    }

    /// Nanoseconds since the recorder's epoch (for [`Spans::record`]).
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Self time per span name: duration minus what child spans cover.
    pub fn fold(&self) -> BTreeMap<&'static str, Fold> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Fold> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let f = out.entry(s.name).or_default();
            f.calls += 1;
            f.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Mean self time per call of `name`, in microseconds (0 when never
/// called).
pub fn mean_us(fold: &BTreeMap<&'static str, Fold>, name: &str) -> f64 {
    fold.get(name)
        .filter(|f| f.calls > 0)
        .map_or(0.0, |f| f.self_ns as f64 / f.calls as f64 / 1000.0)
}

/// Prints the per-layer self-time table of one traced replay.
pub fn print_table(workload: &str, fold: &BTreeMap<&'static str, Fold>, wall_ns: u64) {
    println!(
        "  {workload}: per-layer self time over {:.1} ms of traced replay",
        wall_ns as f64 / 1e6
    );
    println!(
        "    {:<24} {:>9} {:>12} {:>10} {:>7}",
        "span", "calls", "mean_us", "total_ms", "share"
    );
    for (name, f) in fold {
        println!(
            "    {:<24} {:>9} {:>12.3} {:>10.2} {:>6.1}%",
            name,
            f.calls,
            f.self_ns as f64 / f.calls.max(1) as f64 / 1000.0,
            f.self_ns as f64 / 1e6,
            100.0 * f.self_ns as f64 / wall_ns.max(1) as f64
        );
    }
}
