//! Outside-in layer timing.
//!
//! Every call the benchmark makes into a layer's public functions goes
//! through [`Probe::time`]. In an untraced pass that is a plain call.
//! In a traced pass the probe reads the wall clock on both sides,
//! charges the call's *self* time (its duration minus the time of calls
//! nested inside it, such as storage calls made from inside a server
//! handler) to the layer, and keeps a compact span. Self times are
//! disjoint, so the layers plus `bench.unattributed` add up to the
//! traced run exactly. The program's own `Recorder` stays disabled in
//! both passes: the code path under test is the same.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sor_durable::{DurableError, SimDisk, Storage};
use sor_obs::{Span, SpanId, Trace};

/// The layers a traced run is split into. Each is charged the self
/// time of the calls the benchmark makes into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `handle_message_ctx(ParticipationRequest)`: admission, scheduler
    /// arrival and replan, schedule distribution.
    ServerAdmit,
    /// `handle_message_ctx` of `TaskComplete` and other control
    /// messages: the departure replan.
    ServerComplete,
    /// `handle_message_ctx(SensedDataUpload)`: inbox insert and the
    /// write-ahead-log commit before the ack.
    ServerUpload,
    /// `SensingServer::tick`: departure sweep and scheduler clock.
    ServerTick,
    /// `SensingServer::process_data`: inbox decode and feature passes.
    ServerProcess,
    /// `SensingServer::rank`: rank cache and footrule aggregation.
    ServerRank,
    /// Every `Storage` call the durable database makes.
    DurableStorage,
    /// `SensingServer::durable` after a crash plus re-registration.
    DurableRecovery,
    /// Phone work: barcode scan, `advance_to_ctx`, `handle_message_ctx`.
    FrontendBusy,
    /// `Transport::send`: frame encoding.
    ProtoEncode,
    /// `Message::decode_traced`.
    ProtoDecode,
    /// `EventQueue` pops and schedules.
    SimQueue,
    /// The open-loop generator waiting for a request's due time.
    BenchIdle,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 13] = [
        Layer::ServerAdmit,
        Layer::ServerComplete,
        Layer::ServerUpload,
        Layer::ServerTick,
        Layer::ServerProcess,
        Layer::ServerRank,
        Layer::DurableStorage,
        Layer::DurableRecovery,
        Layer::FrontendBusy,
        Layer::ProtoEncode,
        Layer::ProtoDecode,
        Layer::SimQueue,
        Layer::BenchIdle,
    ];

    /// Span name, module-qualified.
    pub fn span_name(self) -> &'static str {
        match self {
            Layer::ServerAdmit => "server.admit",
            Layer::ServerComplete => "server.complete",
            Layer::ServerUpload => "server.upload",
            Layer::ServerTick => "server.tick",
            Layer::ServerProcess => "server.process",
            Layer::ServerRank => "server.rank",
            Layer::DurableStorage => "durable.storage",
            Layer::DurableRecovery => "durable.recovery",
            Layer::FrontendBusy => "frontend.busy",
            Layer::ProtoEncode => "proto.encode",
            Layer::ProtoDecode => "proto.decode",
            Layer::SimQueue => "sim.queue",
            Layer::BenchIdle => "bench.idle",
        }
    }

    fn index(self) -> usize {
        Layer::ALL.iter().position(|&l| l == self).expect("listed")
    }
}

/// Caps the spans one traced episode keeps in memory (about 60 MB once
/// converted); the ledger keeps counting past it.
const MAX_SPANS: usize = 400_000;

/// What a traced region measured.
#[derive(Debug, Clone, Default)]
pub struct LedgerTotals {
    /// Self seconds per layer, in [`Layer::ALL`] order.
    pub self_s: [f64; 13],
    /// Spans dropped past [`MAX_SPANS`].
    pub spans_dropped: u64,
}

impl LedgerTotals {
    /// Self seconds of one layer.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.self_s[layer.index()]
    }

    /// Adds another region's totals (episodes of one run).
    pub fn absorb(&mut self, other: &LedgerTotals) {
        for i in 0..self.self_s.len() {
            self.self_s[i] += other.self_s[i];
        }
        self.spans_dropped += other.spans_dropped;
    }
}

#[derive(Debug, Clone, Copy)]
enum SpanName {
    Layer(Layer),
    Event(&'static str),
}

#[derive(Debug, Clone, Copy)]
struct RawSpan {
    name: SpanName,
    /// 1-based index of the parent span; 0 for a root.
    parent: u32,
    start: f64,
    end: f64,
    trace: u64,
}

#[derive(Debug)]
struct Open {
    layer: Layer,
    start: Instant,
    child_s: f64,
    span: u32,
}

#[derive(Debug)]
struct Ledger {
    armed: bool,
    origin: Instant,
    totals: LedgerTotals,
    open: Vec<Open>,
    event: u32,
    spans: Vec<RawSpan>,
}

/// Shared handle to one pass's ledger. Clones share state, so the
/// storage wrapper inside the server charges the same ledger as the
/// event loop around it.
#[derive(Debug, Clone)]
pub struct Probe {
    traced: bool,
    inner: Rc<RefCell<Ledger>>,
}

impl Probe {
    /// A probe for an untraced (`traced = false`) or traced pass.
    /// Nothing is charged until [`Probe::arm`].
    pub fn new(traced: bool) -> Self {
        let now = Instant::now();
        Probe {
            traced,
            inner: Rc::new(RefCell::new(Ledger {
                armed: false,
                origin: now,
                totals: LedgerTotals::default(),
                open: Vec::new(),
                event: 0,
                spans: Vec::new(),
            })),
        }
    }

    /// Whether this is a traced pass.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Starts charging: the timed region begins now.
    pub fn arm(&self) {
        let mut l = self.inner.borrow_mut();
        l.armed = self.traced;
        l.origin = Instant::now();
    }

    /// Stops charging and returns the region's totals and spans.
    pub fn disarm(&self) -> (LedgerTotals, Trace) {
        let mut l = self.inner.borrow_mut();
        l.armed = false;
        let spans = std::mem::take(&mut l.spans);
        (std::mem::take(&mut l.totals), build_trace(&spans))
    }

    /// Runs `f` as one call into `layer` on behalf of request `trace`.
    #[inline]
    pub fn time<R>(&self, layer: Layer, trace: u64, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        let armed = self.begin(layer, trace);
        let out = f();
        if armed {
            self.end();
        }
        out
    }

    fn begin(&self, layer: Layer, trace: u64) -> bool {
        let mut l = self.inner.borrow_mut();
        if !l.armed {
            return false;
        }
        // Queue operations are ledger-only: tens of thousands of
        // sub-microsecond calls per episode would drown the trace.
        let span = if layer == Layer::SimQueue {
            0
        } else if l.spans.len() < MAX_SPANS {
            let parent = l.open.last().map_or(l.event, |o| o.span);
            l.spans.push(RawSpan {
                name: SpanName::Layer(layer),
                parent,
                start: 0.0,
                end: 0.0,
                trace,
            });
            l.spans.len() as u32
        } else {
            l.totals.spans_dropped += 1;
            0
        };
        let start = Instant::now();
        if span > 0 {
            let at = start.duration_since(l.origin).as_secs_f64();
            l.spans[span as usize - 1].start = at;
        }
        l.open.push(Open { layer, start, child_s: 0.0, span });
        true
    }

    fn end(&self) {
        let now = Instant::now();
        let mut l = self.inner.borrow_mut();
        let open = l.open.pop().expect("begin before end");
        let dur = now.duration_since(open.start).as_secs_f64();
        let i = open.layer.index();
        l.totals.self_s[i] += dur - open.child_s;
        if let Some(parent) = l.open.last_mut() {
            parent.child_s += dur;
        }
        if open.span > 0 {
            let at = now.duration_since(l.origin).as_secs_f64();
            l.spans[open.span as usize - 1].end = at;
        }
    }

    /// Opens the span of one simulation event; layer calls made while
    /// handling it become its children. Returns a mark for
    /// [`Probe::event_end`].
    pub fn event_begin(&self, kind: &'static str, trace: u64) -> usize {
        if !self.traced {
            return 0;
        }
        let mut l = self.inner.borrow_mut();
        if !l.armed || l.spans.len() >= MAX_SPANS {
            return 0;
        }
        let start = Instant::now();
        let at = start.duration_since(l.origin).as_secs_f64();
        l.spans.push(RawSpan { name: SpanName::Event(kind), parent: 0, start: at, end: at, trace });
        l.event = l.spans.len() as u32;
        l.event as usize
    }

    /// Closes the event span opened at `mark`. With `keep = false` the
    /// event and its children are dropped from the trace (idle phone
    /// sweeps); their time stays in the ledger.
    pub fn event_end(&self, mark: usize, keep: bool) {
        if mark == 0 {
            return;
        }
        let mut l = self.inner.borrow_mut();
        if keep {
            let at = Instant::now().duration_since(l.origin).as_secs_f64();
            l.spans[mark - 1].end = at;
        } else {
            l.spans.truncate(mark - 1);
        }
        l.event = 0;
    }
}

fn build_trace(raw: &[RawSpan]) -> Trace {
    let spans = raw
        .iter()
        .enumerate()
        .map(|(i, s)| Span {
            id: SpanId(i as u64 + 1),
            parent: (s.parent > 0).then_some(SpanId(s.parent as u64)),
            name: match s.name {
                SpanName::Layer(l) => l.span_name().to_string(),
                SpanName::Event(e) => e.to_string(),
            },
            start: s.start,
            end: Some(s.end),
            attrs: if s.trace > 0 {
                vec![("trace_id".to_string(), s.trace.to_string())]
            } else {
                Vec::new()
            },
        })
        .collect();
    Trace::from_parts(spans, Vec::new())
}

/// Storage-call counts of one durable server's disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStats {
    /// `append` calls (one per committed batch).
    pub appends: u64,
    /// `flush` calls.
    pub flushes: u64,
    /// Bytes appended to write-ahead logs.
    pub wal_bytes: u64,
    /// `write_atomic` calls (checkpoints).
    pub checkpoints: u64,
    /// Bytes written by checkpoints.
    pub checkpoint_bytes: u64,
}

impl DiskStats {
    /// All bytes the storage layer wrote.
    pub fn bytes_written(&self) -> u64 {
        self.wal_bytes + self.checkpoint_bytes
    }
}

/// A [`SimDisk`] whose every call is charged to
/// [`Layer::DurableStorage`] and counted.
#[derive(Debug)]
pub struct TimedDisk {
    disk: SimDisk,
    probe: Probe,
    stats: Rc<RefCell<DiskStats>>,
}

impl TimedDisk {
    /// Wraps `disk`; counts land in `stats`.
    pub fn new(disk: SimDisk, probe: Probe, stats: Rc<RefCell<DiskStats>>) -> Self {
        TimedDisk { disk, probe, stats }
    }
}

impl Storage for TimedDisk {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, DurableError> {
        self.probe.time(Layer::DurableStorage, 0, || self.disk.read(name))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        {
            let mut s = self.stats.borrow_mut();
            s.appends += 1;
            s.wal_bytes += bytes.len() as u64;
        }
        self.probe.time(Layer::DurableStorage, 0, || self.disk.append(name, bytes))
    }

    fn flush(&mut self, name: &str) -> Result<(), DurableError> {
        self.stats.borrow_mut().flushes += 1;
        self.probe.time(Layer::DurableStorage, 0, || self.disk.flush(name))
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        {
            let mut s = self.stats.borrow_mut();
            s.checkpoints += 1;
            s.checkpoint_bytes += bytes.len() as u64;
        }
        self.probe.time(Layer::DurableStorage, 0, || self.disk.write_atomic(name, bytes))
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), DurableError> {
        self.probe.time(Layer::DurableStorage, 0, || self.disk.truncate(name, len))
    }

    fn remove(&mut self, name: &str) -> Result<(), DurableError> {
        self.probe.time(Layer::DurableStorage, 0, || self.disk.remove(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < micros as u128 {}
    }

    #[test]
    fn nested_calls_charge_self_time_and_sum_to_the_region() {
        let probe = Probe::new(true);
        probe.arm();
        let region = Instant::now();
        let mark = probe.event_begin("sim.deliver", 7);
        probe.time(Layer::ServerUpload, 7, || {
            spin(300);
            probe.time(Layer::DurableStorage, 0, || spin(200));
        });
        probe.event_end(mark, true);
        let run_s = region.elapsed().as_secs_f64();
        let (totals, trace) = probe.disarm();
        let upload = totals.secs(Layer::ServerUpload);
        let storage = totals.secs(Layer::DurableStorage);
        assert!(storage >= 200e-6 && upload >= 300e-6, "{upload} {storage}");
        assert!(upload < 300e-6 + storage, "storage time must not be charged twice");
        assert!(upload + storage <= run_s);
        let names: Vec<&str> = trace.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["sim.deliver", "server.upload", "durable.storage"]);
        assert_eq!(trace.spans()[2].parent, Some(SpanId(2)));
        assert_eq!(trace.spans()[1].parent, Some(SpanId(1)));
    }

    #[test]
    fn untraced_and_disarmed_probes_charge_nothing() {
        for probe in [Probe::new(false), Probe::new(true)] {
            assert_eq!(probe.time(Layer::ServerRank, 1, || 5), 5);
            let (totals, trace) = probe.disarm();
            assert_eq!(totals.self_s.iter().sum::<f64>(), 0.0);
            assert!(trace.spans().is_empty());
        }
    }

    #[test]
    fn dropped_events_keep_their_ledger_time() {
        let probe = Probe::new(true);
        probe.arm();
        let mark = probe.event_begin("sim.sweep", 0);
        probe.time(Layer::FrontendBusy, 0, || spin(50));
        probe.event_end(mark, false);
        let (totals, trace) = probe.disarm();
        assert!(totals.secs(Layer::FrontendBusy) >= 50e-6);
        assert!(trace.spans().is_empty());
    }
}
