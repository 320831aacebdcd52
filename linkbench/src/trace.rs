//! Bench-side spans around the calls into each engine layer.
//!
//! Spans are kept in memory and written out when the run ends. A span
//! records its name, start, end, the span that was open when it began
//! (its parent) and the operation it belongs to; the spans of one timed
//! operation (one link run, one probe, one restart…) share an operation id.
//! While the tracer is off `open`/`close` touch no clock, which is how the
//! untraced cycles of a run stay untraced.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of a span that is still open (`None` while the tracer is off).
#[must_use]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start the next timed operation; spans opened from now share its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn close(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// A leaf span around one call.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = call();
        self.close(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: its duration minus the part its child spans cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let slot = &mut own[parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Seconds spent in spans called `name`, summed per operation, in
    /// operation order.
    pub fn seconds_per_op(&self, name: &str) -> Vec<f64> {
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *per_op.entry(span.op).or_default() += span.duration_ns();
        }
        per_op.values().map(|&ns| ns as f64 / 1e9).collect()
    }

    /// The share of all top-level spans that have children which none of
    /// those children covers: time inside an end-to-end operation that no
    /// layer span accounts for.
    pub fn residual_share(&self) -> f64 {
        let own = self.self_ns();
        let mut has_child = vec![false; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                has_child[parent as usize] = true;
            }
        }
        let (mut total, mut residual) = (0u64, 0u64);
        for (i, span) in self.spans.iter().enumerate() {
            if span.parent.is_none() && has_child[i] {
                total += span.duration_ns();
                residual += own[i];
            }
        }
        if total == 0 {
            0.0
        } else {
            residual as f64 / total as f64
        }
    }

    /// One JSON object per span: `id, parent (-1 for none), op, name,
    /// start_ns, end_ns, self_ns`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.parent.map_or(-1, i64::from),
                span.op,
                span.name,
                span.start_ns,
                span.end_ns,
                own[id],
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>, op: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let tracer = Tracer {
            spans: vec![
                span("e2e", 0, 100, None, 1),
                span("parse", 10, 40, Some(0), 1),
                span("build", 40, 90, Some(0), 1),
                span("index", 50, 70, Some(2), 1),
                span("leaf", 200, 230, None, 2),
            ],
            ..Tracer::default()
        };
        assert_eq!(tracer.self_ns(), vec![20, 30, 30, 20, 30]);
        // Only `e2e` is a top-level span with children: 20 of its 100 ns
        // are unaccounted for; the childless `leaf` is itself a layer span.
        assert!((tracer.residual_share() - 0.2).abs() < 1e-12);
        assert_eq!(tracer.seconds_per_op("leaf"), vec![30e-9]);
    }

    #[test]
    fn an_off_tracer_records_nothing_and_nesting_sets_parents() {
        let mut tracer = Tracer::default();
        let open = tracer.open("ignored");
        tracer.close(open);
        assert!(tracer.spans().is_empty());

        tracer.set_on(true);
        tracer.next_op();
        let outer = tracer.open("outer");
        assert_eq!(tracer.time("inner", || 7), 7);
        tracer.close(outer);
        tracer.next_op();
        tracer.time("inner", || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((spans[1].op, spans[2].op), (1, 2));
        assert!(spans[0].duration_ns() >= spans[1].duration_ns());
        assert_eq!(tracer.seconds_per_op("inner").len(), 2);
    }
}
