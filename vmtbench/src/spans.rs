//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around calls into
//! each layer's public functions; the simulator itself is not modified.
//! They stay in memory until the run ends and are then written out as
//! JSON lines. Per-layer metrics are read back from these spans.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Which captured tick an isolated replay ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capture {
    /// Not a replay: the engine's own run.
    Run,
    /// The lowest-load tick of the horizon (after warm-up).
    Trough,
    /// The highest-load tick of the horizon (after warm-up).
    Peak,
}

impl Capture {
    fn name(self) -> &'static str {
        match self {
            Capture::Run => "run",
            Capture::Trough => "trough",
            Capture::Peak => "peak",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer call, e.g. `core.place_batch`.
    pub name: &'static str,
    /// The policy the call ran under, or `""`.
    pub label: &'static str,
    /// The run or captured tick the call belongs to.
    pub capture: Capture,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Units of work the call did (jobs, servers, records, calls).
    pub units: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Append-only span store.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 15),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(
        &mut self,
        name: &'static str,
        label: &'static str,
        capture: Capture,
        parent: u32,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            label,
            capture,
            parent,
            start_ns,
            end_ns: start_ns,
            units: 0,
        });
        id
    }

    /// Closes span `id`, recording the units of work it did.
    pub fn close(&mut self, id: u32, units: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.units = units;
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds per unit of the fastest span named `name` with `label`
    /// at `capture` (spans with zero units are skipped). Replays repeat
    /// identical work, and contention from other tenants of the host only
    /// ever adds time, so the fastest repeat is the layer's cost.
    pub fn per_unit_ns(&self, name: &str, label: &str, capture: Capture) -> Option<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.label == label && s.capture == capture && s.units > 0)
            .map(|s| s.dur_ns() as f64 / s.units as f64)
            .reduce(f64::min)
    }

    /// A replayed layer's cost per unit: the mean of its trough and peak
    /// costs (whichever were recorded).
    pub fn replay_ns(&self, name: &str, label: &str) -> Option<f64> {
        let found: Vec<f64> = [Capture::Trough, Capture::Peak]
            .into_iter()
            .filter_map(|c| self.per_unit_ns(name, label, c))
            .collect();
        (!found.is_empty()).then(|| found.iter().sum::<f64>() / found.len() as f64)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"label\":\"{}\",\"capture\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"units\":{}}}",
                s.name,
                s.label,
                s.capture.name(),
                s.start_ns,
                s.end_ns,
                s.units
            )?;
        }
        out.flush()
    }
}

/// Median of `values` (sorted in place); `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    })
}
