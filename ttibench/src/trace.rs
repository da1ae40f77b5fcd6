//! Span recording for the traced run. Spans are recorded here, in the
//! benchmark, around calls into the program's public functions; nothing
//! inside the program is instrumented. Spans stay in memory and are
//! written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use flexran::controller::{App, ControlHandle, NotifiedEvent, RibView};

/// Spans kept for the dump; the per-name totals count every span.
const MAX_SPANS: usize = 100_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// 0 = root.
    pub parent: u32,
    pub name: &'static str,
    pub tti: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: u32,
    spans: Vec<Span>,
    dropped: u64,
    /// Per span name: (count, total ns).
    totals: BTreeMap<&'static str, (u64, u64)>,
    /// Work counted at span boundaries, by counter name.
    counts: BTreeMap<&'static str, u64>,
    /// Whether the timed apps record (only inside measured windows).
    pub enabled: bool,
    /// Parent and TTI for spans recorded from inside `step` (apps).
    pub current_parent: u32,
    pub current_tti: u64,
}

pub type SharedTracer = Arc<Mutex<Tracer>>;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::with_capacity(MAX_SPANS),
            dropped: 0,
            totals: BTreeMap::new(),
            counts: BTreeMap::new(),
            enabled: false,
            current_parent: 0,
            current_tti: 0,
        }
    }

    pub fn shared() -> SharedTracer {
        Arc::new(Mutex::new(Tracer::new()))
    }

    /// Reserve a span id ahead of recording it (a parent whose children
    /// finish first).
    pub fn reserve(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Offset of `t` from the tracer's epoch, in nanoseconds.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u32,
        parent: u32,
        name: &'static str,
        tti: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            id,
            parent,
            name,
            tti,
            start_ns,
            end_ns,
        });
    }

    pub fn record(
        &mut self,
        parent: u32,
        name: &'static str,
        tti: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.reserve();
        self.record_as(id, parent, name, tti, start, end);
    }

    pub fn push(&mut self, span: Span) {
        let e = self.totals.entry(span.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += span.end_ns - span.start_ns;
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// `(count, total ns)` of every span recorded under `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.totals.get(name).copied().unwrap_or((0, 0))
    }

    /// Write the kept spans as JSON lines; returns how many were written.
    pub fn dump(&self, path: &Path) -> std::io::Result<usize> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"tti\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.tti, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(self.spans.len())
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// An `App` wrapper that times the inner app's `on_cycle` and counts the
/// commands it stages (under `<span>.staged`). Name, priority and events
/// pass through unchanged, so the master schedules it exactly like the
/// app it wraps.
pub struct TimedApp {
    inner: Box<dyn App>,
    span: &'static str,
    staged: &'static str,
    tracer: SharedTracer,
}

impl TimedApp {
    pub fn new(
        inner: Box<dyn App>,
        span: &'static str,
        staged: &'static str,
        tracer: SharedTracer,
    ) -> Self {
        TimedApp {
            inner,
            span,
            staged,
            tracer,
        }
    }
}

impl App for TimedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn priority(&self) -> u8 {
        self.inner.priority()
    }

    fn on_cycle(&mut self, rib: &RibView<'_>, ctl: &mut ControlHandle<'_>) {
        let before = ctl.n_staged();
        let start = Instant::now();
        self.inner.on_cycle(rib, ctl);
        let end = Instant::now();
        let mut t = self.tracer.lock().expect("tracer lock poisoned");
        if t.enabled {
            let (parent, tti) = (t.current_parent, t.current_tti);
            t.record(parent, self.span, tti, start, end);
            t.count(self.staged, (ctl.n_staged() - before) as u64);
        }
    }

    fn on_event(&mut self, event: &NotifiedEvent, rib: &RibView<'_>, ctl: &mut ControlHandle<'_>) {
        self.inner.on_event(event, rib, ctl);
    }
}
