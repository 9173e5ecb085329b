//! In-memory spans for the traced run, recorded by the benchmark
//! around its calls into each layer and written out when it ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
///
/// A span that aggregates many short calls (one per decoded batch)
/// covers the whole pass it ran in; `busy_ns` is the part of that
/// interval the layer actually ran. For an ordinary span `busy_ns` is
/// its duration.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `simd.record`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Nanoseconds of `[start_ns, end_ns]` the layer was running.
    pub busy_ns: u64,
    /// Work done inside the span, in the span's own unit
    /// (instructions, model steps, bytes, cores, groups).
    pub items: u64,
}

/// Sums over every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Number of spans.
    pub count: u64,
    /// Sum of busy time.
    pub busy_ns: u64,
    /// Sum of self time: busy time minus the busy time of children.
    pub self_ns: u64,
    /// Sum of items.
    pub items: u64,
}

/// Collects spans; nothing is written until [`Tracer::write_tsv`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            items: 0,
        })
    }

    /// Close an open span now, crediting it with `items` of work.
    pub fn end(&mut self, id: usize, items: u64) {
        let now = self.now();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
        s.items = items;
    }

    /// Add a finished span.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The span with index `id`.
    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Sums over every span named `name`.
    pub fn totals(&self, name: &str) -> Totals {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        let mut t = Totals::default();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            t.count += 1;
            t.busy_ns += s.busy_ns;
            t.self_ns += s.busy_ns.saturating_sub(child_busy[i]);
            t.items += s.items;
        }
        t
    }

    /// Write every span as one tab-separated line
    /// (`id parent name start_ns end_ns busy_ns items`, parent `-` for
    /// a root).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tbusy_ns\titems")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.busy_ns, s.items
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_the_busy_time_of_children() {
        let mut t = Tracer::new();
        let pass = t.push(Span {
            name: "pass",
            parent: None,
            start_ns: 0,
            end_ns: 100,
            busy_ns: 100,
            items: 10,
        });
        t.push(Span {
            name: "model",
            parent: Some(pass),
            start_ns: 0,
            end_ns: 100,
            busy_ns: 70,
            items: 30,
        });
        let p = t.totals("pass");
        assert_eq!((p.count, p.busy_ns, p.self_ns, p.items), (1, 100, 30, 10));
        let m = t.totals("model");
        assert_eq!((m.busy_ns, m.self_ns, m.items), (70, 70, 30));
        assert_eq!(t.totals("absent"), Totals::default());
    }

    #[test]
    fn begin_and_end_measure_a_nonnegative_interval() {
        let mut t = Tracer::new();
        let a = t.begin("a", None);
        t.end(a, 5);
        let s = t.span(a);
        assert!(s.end_ns >= s.start_ns);
        assert_eq!(s.busy_ns, s.end_ns - s.start_ns);
        assert_eq!(s.items, 5);
    }
}
