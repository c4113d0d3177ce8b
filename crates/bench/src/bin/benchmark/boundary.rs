//! Decorators at the two layer boundaries the benchmark measures from
//! outside the program: the LLC (`CacheModel`) and each core's trace
//! generator. Both forward every call unchanged. The LLC decorator always
//! counts calls; in a timed run it also times sampled calls, and in a
//! recording run it records the request/response stream instead.

use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use maya_core::{
    AccessEvent, AccessKind, CacheModel, CacheStats, DomainId, FaultKind, Request, Response,
};
use maya_obs::json::Obj;
use maya_obs::{ProbeHandle, ProfileHandle};
use rand::rngs::SmallRng;
use workloads::{Access, TraceGenerator};

/// A timed run times every `SAMPLE_STRIDE`-th LLC call, chosen by call
/// ordinal so the sampled set is the same on every run. Each timer read
/// waits for the loads in flight, so sampling costs in proportion to its
/// rate: every 17th call slowed the baseline run by ~10% on the reference
/// host, every 101st by ~1-2%. A prime stride cannot alias with the
/// simulator's power-of-two block structure.
pub const SAMPLE_STRIDE: u64 = 101;

/// Spans kept in memory (and written to the trace file) per timed run.
pub const MAX_SPANS: usize = 100_000;

/// In an end-to-end rep the decorator reads the clock at every
/// `CHUNK_CALLS`-th LLC call. The work is deterministic, so the reads cut
/// every rep's run into the same chunks of identical work: 80 on lbm,
/// about 680 on occupancy.
pub const CHUNK_CALLS: u64 = 1 << 14;

/// Nanoseconds between `a` and `b`.
pub fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// The durations of a run that started at `start` and ended at `end`, cut
/// at each of `marks`, all read during the run.
pub fn chunk_ns(start: Instant, marks: &[Instant], end: Instant) -> Vec<u64> {
    let cuts: Vec<Instant> = std::iter::once(start)
        .chain(marks.iter().copied())
        .chain([end])
        .collect();
    cuts.windows(2).map(|w| ns_between(w[0], w[1])).collect()
}

/// Median cost of an empty `Instant::now()` pair on this host, subtracted
/// from every sampled span.
pub fn timer_cost_ns() -> u64 {
    let mut costs: Vec<u64> = (0..10_001)
        .map(|_| {
            let a = Instant::now();
            ns_between(a, Instant::now())
        })
        .collect();
    costs.sort_unstable();
    costs[costs.len() / 2]
}

/// One recorded LLC call: the request and what the response did. The
/// response's writeback lines go to a side buffer (most have none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    pub line: u64,
    pub domain: DomainId,
    pub kind: AccessKind,
    pub event: AccessEvent,
    pub sae: bool,
    pub writebacks: u8,
}

impl Call {
    pub fn request(&self) -> Request {
        Request {
            line: self.line,
            kind: self.kind,
            domain: self.domain,
        }
    }
}

/// The recorded request/response stream of one LLC instance.
#[derive(Debug, Default)]
pub struct LlcTrace {
    pub calls: Vec<Call>,
    pub writeback_lines: Vec<u64>,
    /// Position in `calls` at which `reset_stats` was called, if it was.
    pub reset_at: Option<usize>,
}

impl LlcTrace {
    fn record(&mut self, req: Request, resp: &Response) {
        self.calls.push(Call {
            line: req.line,
            domain: req.domain,
            kind: req.kind,
            event: resp.event,
            sae: resp.sae,
            writebacks: resp.writebacks.len() as u8,
        });
        self.writeback_lines.extend(resp.writebacks.iter());
    }
}

/// One timed interval, in nanoseconds since the timed run's start. Every
/// span's parent is the run itself.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub start: u64,
    pub end: u64,
    /// LLC call ordinal, or the core's trace-access ordinal for a block.
    pub ordinal: u64,
}

/// What one timed run measures in situ: sampled LLC calls, every generator
/// block, and a bounded, uniformly thinned span buffer.
#[derive(Debug)]
pub struct Timings {
    origin: Instant,
    timer_cost: u64,
    /// In-situ ns of every sampled LLC call, timer cost subtracted.
    pub llc_samples: Vec<u32>,
    /// Generator ns over all `fill_block` calls, timer cost subtracted.
    pub gen_ns: u64,
    pub gen_accesses: u64,
    pub gen_blocks: u64,
    spans: Vec<Span>,
    /// Keep one span in `span_stride`; doubles whenever the buffer fills.
    span_stride: u64,
    spans_seen: u64,
}

impl Timings {
    pub fn new(timer_cost: u64) -> Self {
        Timings {
            origin: Instant::now(),
            timer_cost,
            llc_samples: Vec::new(),
            gen_ns: 0,
            gen_accesses: 0,
            gen_blocks: 0,
            spans: Vec::with_capacity(MAX_SPANS),
            span_stride: 1,
            spans_seen: 0,
        }
    }

    /// Restarts the span clock (call just before the timed run).
    pub fn restart_clock(&mut self) {
        self.origin = Instant::now();
    }

    fn span(&mut self, layer: &'static str, a: Instant, b: Instant, ordinal: u64) {
        let keep = self.spans_seen.is_multiple_of(self.span_stride);
        self.spans_seen += 1;
        if !keep {
            return;
        }
        self.spans.push(Span {
            layer,
            start: ns_between(self.origin, a),
            end: ns_between(self.origin, b),
            ordinal,
        });
        if self.spans.len() == MAX_SPANS {
            // Keep every other span: the survivors are exactly the spans
            // whose ordinal among all seen is a multiple of the new stride.
            let mut i = 0;
            self.spans.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.span_stride *= 2;
        }
    }

    fn sample_call(&mut self, ordinal: u64, a: Instant, b: Instant) {
        let ns = ns_between(a, b).saturating_sub(self.timer_cost);
        self.llc_samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.span("llc", a, b, ordinal);
    }

    fn block(&mut self, ordinal: u64, len: usize, a: Instant, b: Instant) {
        self.gen_ns += ns_between(a, b).saturating_sub(self.timer_cost);
        self.gen_accesses += len as u64;
        self.gen_blocks += 1;
        self.span("fill_block", a, b, ordinal);
    }

    /// Time the run spent reading the timer (two reads per sampled call
    /// and per block), to take out of the residual.
    pub fn timer_overhead_ns(&self) -> u64 {
        (self.llc_samples.len() as u64 + self.gen_blocks) * 2 * self.timer_cost
    }

    /// Writes the run span and every kept span as JSON lines.
    pub fn write_spans(&self, path: &Path, run_ns: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = BufWriter::new(File::create(path)?);
        let line = Obj::new()
            .u64("id", 0)
            .str("layer", "run")
            .u64("start_ns", 0)
            .u64("end_ns", run_ns)
            .raw("parent", "null")
            .u64("ordinal", 0)
            .finish();
        writeln!(f, "{line}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let line = Obj::new()
                .u64("id", i as u64 + 1)
                .str("layer", s.layer)
                .u64("start_ns", s.start)
                .u64("end_ns", s.end)
                .u64("parent", 0)
                .u64("ordinal", s.ordinal)
                .finish();
            writeln!(f, "{line}")?;
        }
        f.flush()
    }
}

/// What the LLC decorator does besides counting.
pub enum Watch {
    Count,
    /// Read the clock at every [`CHUNK_CALLS`]-th call.
    Chunks(Rc<RefCell<Vec<Instant>>>),
    /// Time every [`SAMPLE_STRIDE`]-th call.
    Time(Rc<RefCell<Timings>>),
    /// Record every call into stream `.1` of the shared traces.
    Record(Rc<RefCell<Vec<LlcTrace>>>, usize),
}

/// The LLC decorator: counts every call into a shared counter, and times
/// or records as its [`Watch`] says. Forwards every `CacheModel` method —
/// the trait's defaults would silently turn a forgotten one into a no-op.
pub struct CountedLlc {
    inner: Box<dyn CacheModel>,
    calls: Rc<Cell<u64>>,
    watch: Watch,
}

impl CountedLlc {
    pub fn new(inner: Box<dyn CacheModel>, calls: Rc<Cell<u64>>, watch: Watch) -> Self {
        CountedLlc {
            inner,
            calls,
            watch,
        }
    }
}

// lint:allow(model/design-registry) a measuring decorator around registered designs, not a design of its own
impl CacheModel for CountedLlc {
    fn access(&mut self, req: Request) -> Response {
        let n = self.calls.get();
        self.calls.set(n + 1);
        match &self.watch {
            Watch::Chunks(marks) if n.is_multiple_of(CHUNK_CALLS) => {
                marks.borrow_mut().push(Instant::now());
                self.inner.access(req)
            }
            Watch::Time(t) if n.is_multiple_of(SAMPLE_STRIDE) => {
                let a = Instant::now();
                let resp = self.inner.access(req);
                let b = Instant::now();
                t.borrow_mut().sample_call(n, a, b);
                resp
            }
            Watch::Record(traces, i) => {
                let resp = self.inner.access(req);
                traces.borrow_mut()[*i].record(req, &resp);
                resp
            }
            _ => self.inner.access(req),
        }
    }

    fn flush_line(&mut self, line: u64, domain: DomainId) -> bool {
        self.inner.flush_line(line, domain)
    }

    fn flush_all(&mut self) {
        self.inner.flush_all();
    }

    fn probe(&self, line: u64, domain: DomainId) -> bool {
        self.inner.probe(line, domain)
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        if let Watch::Record(traces, i) = &self.watch {
            let mut traces = traces.borrow_mut();
            let t = &mut traces[*i];
            t.reset_at = Some(t.calls.len());
        }
        self.inner.reset_stats();
    }

    fn extra_latency(&self) -> u32 {
        self.inner.extra_latency()
    }

    fn capacity_lines(&self) -> usize {
        self.inner.capacity_lines()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn audit(&self) -> Result<(), String> {
        self.inner.audit()
    }

    fn inject_fault(&mut self, kind: FaultKind, rng: &mut SmallRng) -> Option<String> {
        self.inner.inject_fault(kind, rng)
    }

    fn quarantine(&mut self) -> u64 {
        self.inner.quarantine()
    }

    fn set_probe(&mut self, probe: ProbeHandle) {
        self.inner.set_probe(probe);
    }

    fn set_profiler(&mut self, profiler: ProfileHandle) {
        self.inner.set_profiler(profiler);
    }
}

/// The generator decorator: times every `fill_block` of one core's replay
/// cursor.
pub struct TimedGen {
    inner: Box<dyn TraceGenerator>,
    /// Trace accesses delivered so far (the next block's first ordinal).
    delivered: u64,
    timings: Rc<RefCell<Timings>>,
}

impl TimedGen {
    pub fn new(inner: Box<dyn TraceGenerator>, timings: Rc<RefCell<Timings>>) -> Self {
        TimedGen {
            inner,
            delivered: 0,
            timings,
        }
    }
}

impl TraceGenerator for TimedGen {
    fn next_access(&mut self) -> Access {
        self.delivered += 1;
        self.inner.next_access()
    }

    fn fill_block(&mut self, out: &mut [Access]) {
        let a = Instant::now();
        self.inner.fill_block(out);
        let b = Instant::now();
        self.timings
            .borrow_mut()
            .block(self.delivered, out.len(), a, b);
        self.delivered += out.len() as u64;
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_core::{MayaCache, MayaConfig};

    /// A model whose every trait method has an observable, non-default
    /// effect, so a decorator that forgot to forward one would be caught.
    #[derive(Default)]
    struct Witness {
        stats: CacheStats,
        probe_set: Rc<Cell<bool>>,
        profiler_set: Rc<Cell<bool>>,
        flushed_all: Rc<Cell<bool>>,
    }

    impl CacheModel for Witness {
        fn access(&mut self, req: Request) -> Response {
            self.stats.reads += 1;
            Response {
                event: AccessEvent::Miss,
                writebacks: maya_core::Writebacks::none(),
                sae: req.line == 7,
            }
        }
        fn flush_line(&mut self, line: u64, _: DomainId) -> bool {
            line == 3
        }
        fn flush_all(&mut self) {
            self.flushed_all.set(true);
        }
        fn probe(&self, line: u64, _: DomainId) -> bool {
            line == 5
        }
        fn stats(&self) -> &CacheStats {
            &self.stats
        }
        fn reset_stats(&mut self) {
            self.stats.reset();
        }
        fn extra_latency(&self) -> u32 {
            11
        }
        fn capacity_lines(&self) -> usize {
            13
        }
        fn name(&self) -> &'static str {
            "witness"
        }
        fn audit(&self) -> Result<(), String> {
            Err("corrupt".into())
        }
        fn inject_fault(&mut self, _: FaultKind, _: &mut SmallRng) -> Option<String> {
            Some("planted".into())
        }
        fn quarantine(&mut self) -> u64 {
            17
        }
        fn set_probe(&mut self, _: ProbeHandle) {
            self.probe_set.set(true);
        }
        fn set_profiler(&mut self, _: ProfileHandle) {
            self.profiler_set.set(true);
        }
    }

    #[test]
    fn every_trait_method_is_forwarded() {
        use rand::SeedableRng;
        let w = Witness::default();
        let (probe_set, profiler_set, flushed_all) = (
            w.probe_set.clone(),
            w.profiler_set.clone(),
            w.flushed_all.clone(),
        );
        let calls = Rc::new(Cell::new(0));
        let mut d = CountedLlc::new(Box::new(w), calls.clone(), Watch::Count);
        let any = DomainId::ANY;
        assert!(d.access(Request::read(7, any)).sae);
        assert_eq!(d.stats().reads, 1);
        d.reset_stats();
        assert_eq!(d.stats().reads, 0, "reset_stats must reach the model");
        assert_eq!(
            d.audit(),
            Err("corrupt".to_string()),
            "audit must reach the model"
        );
        assert!(d.flush_line(3, any) && !d.flush_line(4, any));
        d.flush_all();
        assert!(flushed_all.get());
        assert!(d.probe(5, any) && !d.probe(6, any));
        assert_eq!(d.extra_latency(), 11);
        assert_eq!(d.capacity_lines(), 13);
        assert_eq!(d.name(), "witness");
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            d.inject_fault(FaultKind::TagBit, &mut rng),
            Some("planted".into())
        );
        assert_eq!(d.quarantine(), 17);
        d.set_probe(ProbeHandle::none());
        d.set_profiler(ProfileHandle::none());
        assert!(probe_set.get() && profiler_set.get());
        assert_eq!(calls.get(), 1, "only access counts as a call");
    }

    #[test]
    fn watches_record_the_stream_and_time_sampled_calls() {
        let traces = Rc::new(RefCell::new(vec![LlcTrace::default()]));
        let timings = Rc::new(RefCell::new(Timings::new(0)));
        let maya = || Box::new(MayaCache::new(MayaConfig::with_sets(64, 3)));
        let (rc, tc) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
        let mut recorded = CountedLlc::new(maya(), rc.clone(), Watch::Record(traces.clone(), 0));
        let mut timed = CountedLlc::new(maya(), tc.clone(), Watch::Time(timings.clone()));
        let n = 2 * SAMPLE_STRIDE + 5;
        for i in 0..n {
            let req = Request::read(i % 9, DomainId(1));
            assert_eq!(recorded.access(req), timed.access(req));
            if i == 20 {
                recorded.reset_stats();
                timed.reset_stats();
            }
        }
        assert_eq!(recorded.stats(), timed.stats());
        let t = &traces.borrow()[0];
        assert_eq!(t.calls.len() as u64, n);
        assert_eq!(t.reset_at, Some(21));
        // Ordinals 0, SAMPLE_STRIDE and 2 * SAMPLE_STRIDE are sampled.
        assert_eq!(timings.borrow().llc_samples.len(), 3);
        assert_eq!(timings.borrow().spans.len(), 3);
        assert_eq!((rc.get(), tc.get()), (n, n));
    }

    #[test]
    fn chunk_marks_cut_the_run_without_loss() {
        let marks = Rc::new(RefCell::new(Vec::new()));
        let mut llc = CountedLlc::new(
            Box::new(MayaCache::new(MayaConfig::with_sets(64, 3))),
            Rc::new(Cell::new(0)),
            Watch::Chunks(marks.clone()),
        );
        let start = Instant::now();
        for i in 0..2 * CHUNK_CALLS + 1 {
            llc.access(Request::read(i % 512, DomainId(1)));
        }
        let end = Instant::now();
        let chunks = chunk_ns(start, &marks.borrow(), end);
        assert_eq!(
            chunks.len(),
            4,
            "marks at calls 0, CHUNK_CALLS and 2 * CHUNK_CALLS"
        );
        assert_eq!(chunks.iter().sum::<u64>(), ns_between(start, end));
    }

    #[test]
    fn span_buffer_thins_uniformly_and_stays_bounded() {
        let mut t = Timings::new(0);
        let now = Instant::now();
        for i in 0..(MAX_SPANS as u64 * 3) {
            t.span("llc", now, now, i);
        }
        assert!(t.spans.len() <= MAX_SPANS && t.spans.len() >= MAX_SPANS / 2);
        let stride = t.spans[1].ordinal - t.spans[0].ordinal;
        assert!(t
            .spans
            .windows(2)
            .all(|w| w[1].ordinal - w[0].ordinal == stride));
        assert_eq!(t.spans[0].ordinal, 0);
    }
}
