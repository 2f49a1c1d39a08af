//! In-memory spans recorded around the calls into each layer, their
//! self-time attribution, and a Chrome trace-event export.

use nisq_exp::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = usize;

/// One timed call: a layer boundary crossed by the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `compile.place` or `trials.dense`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// The cell or request the call served.
    pub key: u64,
    /// Small per-thread number (Chrome `tid`).
    pub tid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span recorder; spans stay in memory until exported.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span that started at `start_ns` and ends now.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        parent: Option<SpanId>,
        key: u64,
    ) -> SpanId {
        let end_ns = self.now_ns();
        self.push(name, start_ns, end_ns, parent, key)
    }

    /// Records a span with explicit bounds.
    fn push(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        key: u64,
    ) -> SpanId {
        let tid = TID.with(|t| *t);
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            key,
            tid,
        });
        spans.len() - 1
    }

    /// Reserves a span id for a parent whose end is not known yet; finish
    /// it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, key: u64) -> SpanId {
        let now = self.now_ns();
        self.push(name, now, now, parent, key)
    }

    /// Sets the end of a span opened with [`Tracer::open`] to now.
    pub fn close(&self, id: SpanId) {
        let now = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans[id].end_ns = now;
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        key: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        self.record(name, start, parent, key);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (s, e) in kids {
                let s = s.clamp(cursor, span.end_ns);
                let e = e.clamp(s, span.end_ns);
                covered += e - s;
                cursor = cursor.max(e);
            }
            span.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per span name in milliseconds, grouped by the root span each
/// span descends from (one group per sweep or request).
pub fn self_ms_by_root(spans: &[Span]) -> BTreeMap<SpanId, BTreeMap<&'static str, f64>> {
    // Parents are recorded (opened) before their children, so one forward
    // pass resolves every span's root.
    let mut roots: Vec<SpanId> = Vec::with_capacity(spans.len());
    for (i, span) in spans.iter().enumerate() {
        let root = span.parent.map_or(i, |p| roots[p]);
        roots.push(root);
    }
    let mut out: BTreeMap<SpanId, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for ((span, self_ns), root) in spans.iter().zip(self_times_ns(spans)).zip(roots) {
        *out.entry(root).or_default().entry(span.name).or_insert(0.0) += self_ns as f64 / 1e6;
    }
    out
}

/// Serializes spans as a Chrome trace-event array (`chrome://tracing`,
/// Perfetto): one complete (`"ph": "X"`) event per span, with the cell or
/// request id and the parent span in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, span) in spans.iter().enumerate() {
        let category = span.name.split('.').next().unwrap_or(span.name);
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"id\": {}}}}}{}\n",
            json::write_str(span.name),
            json::write_str(category),
            span.start_ns as f64 / 1e3,
            span.dur_ns() as f64 / 1e3,
            span.tid,
            span.key,
            if i + 1 == spans.len() { "" } else { "," },
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            key: 0,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("sweep", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` (a parallel worker): covered once.
            span("b", 20, 50, Some(0)),
            span("c", 80, 120, Some(0)),
            span("grandchild", 12, 18, Some(1)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![100 - 40 - 20, 14, 30, 40, 6]);
        let by_root = self_ms_by_root(&spans);
        assert_eq!(by_root.len(), 1);
        assert!((by_root[&0]["sweep"] - 40e-6).abs() < 1e-12);
        assert!((by_root[&0]["grandchild"] - 6e-6).abs() < 1e-12);
    }

    #[test]
    fn chrome_export_is_a_json_array_of_complete_events() {
        let tracer = Tracer::new();
        let root = tracer.open("sweep", None, 7);
        tracer.time("compile.place", Some(root), 3, || ());
        tracer.close(root);
        let text = chrome_trace_json(&tracer.spans());
        let doc = json::parse(&text).unwrap();
        let events = doc.as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("compile.place")
        );
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("compile"));
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(args.get("id").unwrap().as_u64(), Some(3));
    }
}
