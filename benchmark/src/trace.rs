//! Host-time spans recorded by the benchmark around its calls into the
//! product's public functions, kept in a preallocated buffer and written out
//! as a Chrome trace when the run ends.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// What a span covers. `Op` is the benchmark's own operation (one
/// invocation, one wave, one episode); every other name is one call into the
/// `rfaas` crate's `Session` surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    Op,
    Submit,
    Wait,
    MapWorkers,
    WaitAny,
    Connect,
    Close,
    StatePut,
}

impl SpanName {
    pub const ALL: [SpanName; 8] = [
        SpanName::Op,
        SpanName::Submit,
        SpanName::Wait,
        SpanName::MapWorkers,
        SpanName::WaitAny,
        SpanName::Connect,
        SpanName::Close,
        SpanName::StatePut,
    ];

    /// Name in the trace file; `rfaas.<call>` for product calls.
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Op => "bench.op",
            SpanName::Submit => "rfaas.submit",
            SpanName::Wait => "rfaas.wait",
            SpanName::MapWorkers => "rfaas.map_workers",
            SpanName::WaitAny => "rfaas.wait_any",
            SpanName::Connect => "rfaas.connect",
            SpanName::Close => "rfaas.close",
            SpanName::StatePut => "rfaas.state_put",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are host nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: SpanName,
    pub parent: u32,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Span recorder for the single client thread. Off by default: `enter` and
/// `exit` are then one predictable branch each.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            dropped: 0,
        }
    }

    /// A recording tracer with room for `capacity` spans; spans beyond it
    /// are counted as dropped, never reallocated for.
    pub fn recording(capacity: usize) -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            op: 0,
            dropped: 0,
        }
    }

    /// Spans that did not fit the preallocated buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span. An `Op` span starts the
    /// next operation id, which its children share.
    #[inline]
    pub fn enter(&mut self, name: SpanName) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        if name == SpanName::Op {
            self.op += 1;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return SpanId(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        SpanId(index)
    }

    /// Close a span opened by [`Tracer::enter`]; spans close innermost first.
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        if id.0 == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[id.0 as usize].end_ns = end_ns;
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id.0), "spans must close innermost first");
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: SpanName, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let result = f();
        self.exit(id);
        result
    }
}

/// Per-name aggregate over recorded spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanStats {
    pub name: SpanName,
    pub count: u64,
    /// Median span duration, host ns.
    pub median_ns: f64,
    /// Summed duration, host ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the part covered by child spans).
    pub self_ns: u64,
}

/// Self time of every span: its duration minus its direct children's. The
/// client is one thread and spans nest, so children never overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            covered[span.parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, children)| span.duration_ns().saturating_sub(children))
        .collect()
}

/// Aggregate spans by name (names with no span are omitted).
pub fn aggregate(spans: &[Span]) -> Vec<SpanStats> {
    let selfs = self_times(spans);
    SpanName::ALL
        .iter()
        .filter_map(|&name| {
            let mut durations: Vec<f64> = Vec::new();
            let mut total_ns = 0;
            let mut self_ns = 0;
            for (span, own) in spans.iter().zip(&selfs) {
                if span.name == name {
                    durations.push(span.duration_ns() as f64);
                    total_ns += span.duration_ns();
                    self_ns += own;
                }
            }
            if durations.is_empty() {
                return None;
            }
            Some(SpanStats {
                name,
                count: durations.len() as u64,
                median_ns: crate::host::median(&durations),
                total_ns,
                self_ns,
            })
        })
        .collect()
}

/// Most spans written to a trace file; a viewer cannot open millions, and the
/// aggregates are computed from the full buffer regardless.
pub const MAX_WRITTEN_SPANS: usize = 100_000;

/// Write the first [`MAX_WRITTEN_SPANS`] spans in Chrome trace-event format
/// (`chrome://tracing`, Perfetto).
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    for (i, span) in spans.iter().take(MAX_WRITTEN_SPANS).enumerate() {
        if i > 0 {
            out.write_all(b",\n")?;
        }
        let parent = if span.parent == NO_PARENT {
            -1
        } else {
            span.parent as i64
        };
        write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
            span.name.label(),
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            span.op
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0,100] { submit [10,30], wait [40,90] { (nested) submit [50,60] } }
        let spans = [
            span(SpanName::Op, NO_PARENT, 0, 100),
            span(SpanName::Submit, 0, 10, 30),
            span(SpanName::Wait, 0, 40, 90),
            span(SpanName::Submit, 2, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);

        let stats = aggregate(&spans);
        let by = |n: SpanName| *stats.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by(SpanName::Op).self_ns, 30);
        assert_eq!(by(SpanName::Submit).count, 2);
        assert_eq!(by(SpanName::Submit).total_ns, 30);
        assert_eq!(by(SpanName::Submit).median_ns, 15.0);
        assert_eq!(by(SpanName::Wait).self_ns, 40);
        // Self times partition the root span exactly.
        assert_eq!(stats.iter().map(|s| s.self_ns).sum::<u64>(), 100);
        assert!(stats.iter().all(|s| s.name != SpanName::Connect));
    }

    #[test]
    fn tracer_nests_numbers_ops_and_respects_capacity() {
        let mut tracer = Tracer::recording(3);
        let op = tracer.enter(SpanName::Op);
        tracer.span(SpanName::Submit, || ());
        tracer.span(SpanName::Wait, || ());
        tracer.span(SpanName::Wait, || ()); // does not fit
        tracer.exit(op);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(tracer.dropped(), 1);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert!(spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let mut off = Tracer::off();
        let id = off.enter(SpanName::Op);
        off.exit(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_written() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("t.trace.json");
        let spans = [
            span(SpanName::Op, NO_PARENT, 0, 2_000),
            span(SpanName::Connect, 0, 500, 1_500),
        ];
        write_chrome_trace(&path, &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\":\"rfaas.connect\""));
        assert!(text.contains("\"ts\":0.500,\"dur\":1.000"));
        assert!(text.trim_end().ends_with("]}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
