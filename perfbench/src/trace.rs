//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records its name, start, end, parent span and request id. A
//! disabled tracer records nothing and only runs the closure, so the
//! untraced measurement pays one branch per call site.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Span ids of this tracer start above `id_base`, so the spans of
    /// several client threads merge without clashes.
    id_base: u64,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans currently open.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, id_base: u64) -> Tracer {
        Tracer {
            enabled,
            origin,
            id_base,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// Turn recording on or off; the traced run alternates, so traced
    /// and untraced operations see the same machine conditions.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: self.id_base + idx as u64 + 1,
            parent,
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time (span minus the time its direct children cover) summed per
/// span name, with the number of spans: `name -> (self_ns, count)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Mean self time in µs of the spans named `name` (0 when there are none).
pub fn mean_self_us(times: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    match times.get(name) {
        Some(&(ns, n)) if n > 0 => ns as f64 / n as f64 / 1e3,
        _ => 0.0,
    }
}

/// Write every span as one tab-separated line:
/// `id parent req name start_ns end_ns`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
