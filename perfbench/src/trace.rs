//! In-memory spans recorded by the benchmark around its calls into the
//! engine's layers.
//!
//! Each statement gets one request id and a root span; the layer probes
//! made for it are child spans. Spans stay in memory and are summarised
//! (and optionally written out) when the run ends. A span's self time is
//! its duration minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. With `enabled == false` every call runs
/// its closure and records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new request: `f` runs inside its root span.
    pub fn request<T>(&mut self, request: u64, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        debug_assert!(self.open.is_empty(), "requests do not nest");
        self.request = request;
        self.span(name, f)
    }

    /// Run `f` inside a span that is a child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.request,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Take the spans of another thread's tracer (same origin), renumbering
    /// them so ids stay unique.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }
}

/// Self time of each span: duration minus the union of its children's
/// intervals (clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: (count, total duration ns, total self ns).
pub fn summarize(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    out
}

/// Write every span, with its self time, as tab-separated lines.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "request\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{parent}\t{}\t{}\t{}\t{own}",
            s.request, s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Durations (ms) of every span with the given name.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            // Overlaps the first child: only 40..50 is new coverage.
            span(2, Some(0), 30, 50),
            span(3, Some(1), 15, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 25, 20, 5]);
    }

    #[test]
    fn nested_spans_share_the_request_and_record_parents() {
        let mut t = Tracer::new(true, Instant::now());
        t.request(7, "stmt", |t| {
            t.span("sql.execute", |t| t.span("inner", |_| ()));
            t.span("probe", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|x| x.request == 7));
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        let sum = summarize(s);
        assert_eq!(sum["stmt"].0, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.request(1, "stmt", |t| t.span("x", |_| 5));
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }
}
