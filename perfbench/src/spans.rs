//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded in the benchmark's own code, around calls into each
//! layer's public functions: name, start, end, the span that caused it,
//! and the unit (frame, timestep batch or serving round) it belongs to.
//! They stay in memory while the pass runs and are written out as JSON
//! lines when it ends.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    unit: u32,
}

/// Recorded spans, all timed against one origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: u32, unit: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            unit,
        });
        id
    }

    /// Closes the span `id` and returns its duration in ns.
    pub fn end(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum::<f64>()
            / 1e6
    }

    /// Writes every span as one JSON object per line to
    /// `out/spans-<workload>-seed<seed>.jsonl` under this crate's directory
    /// and returns the path.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"parent\":{parent},\"unit\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.unit, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(&path, text)?;
        Ok(path)
    }
}
