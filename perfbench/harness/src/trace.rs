//! Host-time spans around every call the benchmark makes into the
//! program. Spans live in memory and are written out when the workload
//! ends; a disabled tracer records nothing, so untraced runs pay one
//! branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span: what ran, its id (ticket, round, block number or
/// tenant index), the span that enclosed it, and its host interval in
/// nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name aggregate: call count, total duration and self time (the
/// duration minus the part covered by child spans).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span; `None` when tracing is off.
pub type Open = Option<usize>;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return None;
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id: 0,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: 0,
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes `span` (which must be the innermost open one) and stamps
    /// its id, known only after the call for submits.
    pub fn exit(&mut self, span: Open, id: u64) {
        let Some(index) = span else { return };
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans must nest");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.id = id;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name. Spans nest strictly (one generator
    /// thread), so the children of a span cover disjoint intervals and
    /// their durations simply add up.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns.saturating_sub(span.start_ns);
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(children);
        }
        out
    }

    /// Writes every span as a tab-separated row:
    /// `index name id parent start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tid\tparent\tstart_ns\tend_ns")?;
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{index}\t{}\t{}\t{parent}\t{}\t{}",
                span.name, span.id, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}
