//! The benchmark's own span recorder.
//!
//! The traced run wraps a span around each call the benchmark makes into
//! a crate's public API (manifest decode, `Cell::build_config`,
//! `Testbed::try_run`, `fold_cell`, `parse_jsonl`, `run_sweep_on`, ...).
//! No span is added inside any crate: per-layer numbers are measured
//! from outside, at the layer boundaries the benchmark itself crosses.
//!
//! Each span records its name, start, end, parent span, round and cell.
//! Spans are held in memory and written out when the run ends. A span's
//! self time is its duration minus the part of it that its child spans
//! cover (children may run on other threads and overlap, so coverage is
//! the union of their intervals).
//!
//! A disabled recorder hands out inert spans and never reads the clock,
//! so the untraced run pays nothing for the hooks.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A span identifier; 0 is "no span" (the root).
pub type SpanId = u32;

/// A closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: SpanId,
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Enclosing span, 0 for a root.
    pub parent: SpanId,
    /// Measured round the span belongs to (`PROBE_ROUND` for the
    /// after-phase probes and reference runs).
    pub round: u32,
    /// Cell id within the run, when the span belongs to one cell.
    pub cell: Option<u64>,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Round number given to spans recorded outside the measured rounds.
pub const PROBE_ROUND: u32 = u32::MAX;

/// An empty span: its duration is the recorder's own floor.
pub const FLOOR_SPAN: &str = "bench.floor";

/// An open span; hand it back to [`Recorder::close`].
#[must_use]
pub struct Open {
    id: SpanId,
    name: &'static str,
    start_ns: u64,
    parent: SpanId,
    round: u32,
    cell: Option<u64>,
}

impl Open {
    /// The span's id, for use as a child's parent (0 when disabled).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// In-memory span store shared by the run's threads.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder; `on == false` makes every span inert.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`.
    pub fn open(&self, name: &'static str, parent: SpanId, round: u32, cell: Option<u64>) -> Open {
        if !self.on {
            return Open {
                id: 0,
                name,
                start_ns: 0,
                parent,
                round,
                cell,
            };
        }
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            name,
            start_ns: self.now_ns(),
            parent,
            round,
            cell,
        }
    }

    /// Close a span opened by [`Recorder::open`].
    pub fn close(&self, open: Open) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned").push(Span {
            id: open.id,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            parent: open.parent,
            round: open.round,
            cell: open.cell,
        });
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        round: u32,
        cell: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, round, cell);
        let out = f();
        self.close(open);
        out
    }

    /// Every closed span, ordered by id.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span store poisoned");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span (same order as `spans`, which must be sorted
/// by id): duration minus the union of its children's intervals.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index = |id: SpanId| spans.binary_search_by_key(&id, |s| s.id).ok();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = index(s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Spans as JSON lines (with self time), for the run's output directory.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let round = if s.round == PROBE_ROUND {
            "null".to_string()
        } else {
            s.round.to_string()
        };
        let cell = s.cell.map_or("null".to_string(), |c| c.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"round\":{},\"cell\":{}}}\n",
            s.id, s.name, s.start_ns, s.end_ns, self_ns, s.parent, round, cell
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "t",
            start_ns,
            end_ns,
            parent,
            round: 0,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Two workers' children overlap inside the parent: [10,40) and
        // [20,60) cover 50 of the parent's 100 ns; the grandchild is
        // charged to its own parent only.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 20, 60),
            span(4, 2, 15, 25),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 40, 10]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        let v = rec.time("x", 0, 0, None, || 7);
        assert_eq!(v, 7);
        assert!(rec.into_spans().is_empty());
    }
}
