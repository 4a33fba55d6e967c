//! In-memory span recorder for the traced run.
//!
//! A span wraps one call into a layer's public function: its layer name,
//! an id shared by every span of one seed (or one exploration), the span
//! that caused it, the recording thread and its start/end on a
//! monotonic clock. Spans stay in memory until the run ends; nothing
//! inside the crates is instrumented.
//!
//! A disabled recorder runs the wrapped calls and records nothing; the
//! traced run times the same decomposed pass with the recorder on and
//! off to measure the recorder's own overhead.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (module path of the called function).
    pub layer: &'static str,
    /// Shared by the spans of one seed or one exploration.
    pub id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Recording thread (small integer, stable for the process).
    pub tid: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span store shared by the worker threads of one run.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local!(static TID: Cell<u32> = const { Cell::new(0) });
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Recorder {
    /// A recorder; `on == false` makes every [`Recorder::span`] a plain call.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span. `f` receives the new span's index (to
    /// pass as the parent of nested spans); `None` when disabled.
    pub fn span<T>(
        &self,
        layer: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let tid = thread_index();
        let idx = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            let start_ns = self.now_ns();
            spans.push(Span {
                layer,
                id,
                parent,
                tid,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let out = f(Some(idx));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned")[idx].end_ns = end_ns;
        out
    }

    /// Number of spans recorded so far (a mark for [`Recorder::since`]).
    pub fn mark(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// The spans recorded since `mark`, with parents rebased to the
    /// slice (a parent recorded before `mark` becomes `None`).
    pub fn since(&self, mark: usize) -> Vec<Span> {
        let spans = self.spans.lock().expect("span store poisoned");
        spans[mark..]
            .iter()
            .map(|s| Span {
                parent: s.parent.and_then(|p| p.checked_sub(mark)),
                ..s.clone()
            })
            .collect()
    }

    /// Every span as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut j = String::with_capacity(spans.len() * 120 + 64);
        j.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                j.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                j,
                "{{\"name\":\"{}\",\"cat\":\"farmbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"span\":{},\"parent\":{}}}}}",
                s.layer,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                i,
                parent
            );
        }
        j.push_str("\n]}\n");
        j
    }
}

/// Per-layer view of one traced round's spans.
pub struct Layers<'a> {
    spans: &'a [Span],
    self_ns: Vec<u64>,
}

impl<'a> Layers<'a> {
    /// Computes self time: a span's duration minus its children's.
    pub fn new(spans: &'a [Span]) -> Self {
        let mut self_ns: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
        for s in spans {
            if let Some(p) = s.parent {
                self_ns[p] = self_ns[p].saturating_sub(s.dur_ns());
            }
        }
        Layers { spans, self_ns }
    }

    /// Spans of `layer`, in recording order.
    pub fn of<'s>(&'s self, layer: &'s str) -> impl Iterator<Item = &'a Span> + 's {
        self.spans.iter().filter(move |s| s.layer == layer)
    }

    /// Summed duration of `layer`'s spans, nanoseconds.
    pub fn total_ns(&self, layer: &str) -> u64 {
        self.of(layer).map(Span::dur_ns).sum()
    }

    /// Self time, span count and durations per layer, by layer name.
    pub fn table(&self) -> BTreeMap<&'static str, LayerRow> {
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (s, &own) in self.spans.iter().zip(&self.self_ns) {
            let row = rows.entry(s.layer).or_default();
            row.count += 1;
            row.self_ns += own;
            row.durs_ns.push(s.dur_ns());
        }
        rows
    }
}

/// One line of the layer table.
#[derive(Debug, Default, Clone)]
pub struct LayerRow {
    /// Spans of the layer.
    pub count: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Every span duration, nanoseconds.
    pub durs_ns: Vec<u64>,
}

/// Nearest-rank percentile (`q` in 0..=100) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[u64], q: u64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = (q * v.len() as u64).div_ceil(100).max(1) as usize;
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                layer: "seed",
                id: 1,
                parent: None,
                tid: 1,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                layer: "a",
                id: 1,
                parent: Some(0),
                tid: 1,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                layer: "b",
                id: 1,
                parent: Some(0),
                tid: 1,
                start_ns: 50,
                end_ns: 90,
            },
        ];
        let t = Layers::new(&spans).table();
        assert_eq!(t["seed"].self_ns, 30);
        assert_eq!(t["a"].self_ns, 30);
        assert_eq!(t["b"].self_ns, 40);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new(false);
        assert_eq!(r.span("x", 0, None, |p| p), None);
        assert_eq!(r.mark(), 0);
        let r = Recorder::new(true);
        let inner = r.span("x", 0, None, |p| r.span("y", 0, p, |q| q));
        assert_eq!(inner, Some(1));
        assert_eq!(r.since(0)[1].parent, Some(0));
        assert_eq!(r.since(1)[0].parent, None);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[], 50), 0);
    }
}
