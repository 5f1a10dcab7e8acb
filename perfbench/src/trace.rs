//! In-memory span tracing for the traced run, recorded from the benchmark's
//! own files: transparent `Timed*` wrappers around every object the engines
//! call into (protocols and their factories, adversaries, drop policies,
//! journals, executors), plus root spans the workload drivers open around
//! `step()`, `crash` + `recover_with` and `DelayCluster::run`.
//!
//! Spans nest per thread. A span's self time is its duration minus its
//! children's. A root's self time is its duration minus the union of its
//! direct children: children on the root's own thread are sequential, and
//! children on executor worker threads (which run while the root's thread
//! waits in `scatter`) are merged as intervals when the root closes.
//! Spans stay in memory as per-thread aggregate tables, folded into one
//! [`Profile`] when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use homonym_core::codec::DecodeError;
use homonym_core::exec::Executor;
use homonym_core::journal::{Journal, JournalError, Recovered};
use homonym_core::{Id, Inbox, Pid, Protocol, ProtocolFactory, Recipients, Round};
use homonym_sim::{AdvCtx, Adversary, DropPolicy, Emission};

/// The root span kinds: the calls a workload driver makes into an engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Root {
    /// One `Simulation::step` or `ShardedSimulation::step`.
    Step = 0,
    /// One `crash` + `recover_with(Durable)` pair.
    Recover = 1,
    /// One `DelayCluster::run`.
    DelayRun = 2,
}

const NO_ROOT: u8 = 3;
const ROOTS: usize = 4;

/// A protocol layer, as the wrappers label it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The synchronous transformer `T(A)`.
    Sync = 0,
    /// The partially synchronous Figure 5 stacks.
    Psync = 1,
    /// The `HeightChain` ledger.
    Chain = 2,
}

const LAYERS: usize = 3;

/// The names spans are aggregated under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// `Protocol::send` / `send_shared` of a layer.
    Send(Layer),
    /// `Protocol::receive` of a layer.
    Receive(Layer),
    /// `state_bits`, `snapshot`, `restore`, `snapshot_bits` of a layer.
    Other(Layer),
    /// `Adversary::send` / `receive`.
    Adversary,
    /// `DropPolicy::drops`.
    Drops,
    /// `Journal::append`.
    JournalAppend,
    /// `Journal::sync`.
    JournalSync,
    /// `Journal::recover` (scan and CRC check).
    JournalRecover,
    /// `Journal::reset`.
    JournalReset,
}

const NAMES: usize = 3 * LAYERS + 6;

impl Name {
    fn index(self) -> usize {
        match self {
            Name::Send(l) => l as usize,
            Name::Receive(l) => LAYERS + l as usize,
            Name::Other(l) => 2 * LAYERS + l as usize,
            Name::Adversary => 3 * LAYERS,
            Name::Drops => 3 * LAYERS + 1,
            Name::JournalAppend => 3 * LAYERS + 2,
            Name::JournalSync => 3 * LAYERS + 3,
            Name::JournalRecover => 3 * LAYERS + 4,
            Name::JournalReset => 3 * LAYERS + 5,
        }
    }
}

/// Count and times of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Spans closed that were direct children of a root (or of nothing).
    pub direct: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times (duration minus children), ns.
    pub self_ns: u64,
}

impl Agg {
    fn add(&mut self, o: &Agg) {
        self.count += o.count;
        self.direct += o.direct;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
    }
}

#[derive(Clone, Default)]
struct Table {
    spans: [[Agg; NAMES]; ROOTS],
    roots: [Agg; ROOTS],
}

struct Frame {
    name: Option<Name>,
    start: u64,
    child_ns: u64,
}

struct Local {
    tracer: u64,
    stack: Vec<Frame>,
    table: Arc<Mutex<Table>>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

/// The span recorder shared by every wrapper of one traced run.
pub struct Tracer {
    id: u64,
    t0: Instant,
    root: AtomicU8,
    tables: Mutex<Vec<Arc<Mutex<Table>>>>,
    /// `(start, end)` of direct children recorded off the root's thread.
    remote: Mutex<Vec<(u64, u64)>>,
    busy_ns: AtomicU64,
    inbox_len: [AtomicU64; LAYERS],
    inbox_calls: [AtomicU64; LAYERS],
    max_state_bits: [AtomicU64; LAYERS],
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer").field("id", &self.id).finish()
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    root: Option<Root>,
}

impl Tracer {
    /// A fresh recorder.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            t0: Instant::now(),
            root: AtomicU8::new(NO_ROOT),
            tables: Mutex::new(Vec::new()),
            remote: Mutex::new(Vec::new()),
            busy_ns: AtomicU64::new(0),
            inbox_len: Default::default(),
            inbox_calls: Default::default(),
            max_state_bits: Default::default(),
        })
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn with_local<R>(&self, f: impl FnOnce(&mut Local) -> R) -> R {
        LOCAL.with(|cell| {
            let mut slot = cell.borrow_mut();
            if slot.as_ref().is_none_or(|l| l.tracer != self.id) {
                let table = Arc::new(Mutex::new(Table::default()));
                self.tables
                    .lock()
                    .expect("tracer table registry poisoned")
                    .push(Arc::clone(&table));
                *slot = Some(Local {
                    tracer: self.id,
                    stack: Vec::new(),
                    table,
                });
            }
            f(slot.as_mut().expect("registered above"))
        })
    }

    /// Opens a root span on the calling thread.
    pub fn root(&self, root: Root) -> SpanGuard<'_> {
        self.root.store(root as u8, Ordering::Relaxed);
        let start = self.now();
        self.with_local(|l| {
            l.stack.push(Frame {
                name: None,
                start,
                child_ns: 0,
            })
        });
        SpanGuard {
            tracer: self,
            root: Some(root),
        }
    }

    /// Opens a child span on the calling thread.
    pub fn span(&self, name: Name) -> SpanGuard<'_> {
        let start = self.now();
        self.with_local(|l| {
            l.stack.push(Frame {
                name: Some(name),
                start,
                child_ns: 0,
            })
        });
        SpanGuard {
            tracer: self,
            root: None,
        }
    }

    fn close(&self, root: Option<Root>) {
        let end = self.now();
        let remote = match root {
            Some(_) => std::mem::take(&mut *self.remote.lock().expect("tracer poisoned")),
            None => Vec::new(),
        };
        let current = self.root.load(Ordering::Relaxed) as usize;
        let mut push_remote = None;
        self.with_local(|l| {
            let frame = l.stack.pop().expect("span closed twice");
            let dur = end.saturating_sub(frame.start);
            let mut table = l.table.lock().expect("tracer table poisoned");
            match (root, frame.name) {
                (Some(kind), _) => {
                    let union = interval_union(remote, frame.start, end);
                    let agg = &mut table.roots[kind as usize];
                    agg.count += 1;
                    agg.total_ns += dur;
                    agg.self_ns += dur.saturating_sub(frame.child_ns + union);
                }
                (None, Some(name)) => {
                    let direct = match l.stack.last_mut() {
                        Some(parent) if parent.name.is_some() => {
                            parent.child_ns += dur;
                            false
                        }
                        Some(parent) => {
                            parent.child_ns += dur;
                            true
                        }
                        None => {
                            push_remote = Some((frame.start, end));
                            true
                        }
                    };
                    let agg = &mut table.spans[current][name.index()];
                    agg.count += 1;
                    agg.direct += u64::from(direct);
                    agg.total_ns += dur;
                    agg.self_ns += dur.saturating_sub(frame.child_ns);
                }
                (None, None) => unreachable!("child spans are named"),
            }
        });
        if let Some(iv) = push_remote {
            if current != NO_ROOT as usize {
                self.remote.lock().expect("tracer poisoned").push(iv);
            }
        }
        if root.is_some() {
            self.root.store(NO_ROOT, Ordering::Relaxed);
        }
    }

    fn note_inbox(&self, layer: Layer, len: usize) {
        self.inbox_len[layer as usize].fetch_add(len as u64, Ordering::Relaxed);
        self.inbox_calls[layer as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn note_state(&self, layer: Layer, bits: u64) {
        self.max_state_bits[layer as usize].fetch_max(bits, Ordering::Relaxed);
    }

    /// Folds every thread's spans into one profile.
    pub fn profile(&self) -> Profile {
        let mut total = Table::default();
        for t in self.tables.lock().expect("tracer poisoned").iter() {
            let t = t.lock().expect("tracer table poisoned");
            for r in 0..ROOTS {
                total.roots[r].add(&t.roots[r]);
                for s in 0..NAMES {
                    total.spans[r][s].add(&t.spans[r][s]);
                }
            }
        }
        let layer = |a: &[AtomicU64; LAYERS]| {
            let mut out = [0u64; LAYERS];
            for (o, v) in out.iter_mut().zip(a) {
                *o = v.load(Ordering::Relaxed);
            }
            out
        };
        Profile {
            table: total,
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            inbox_len: layer(&self.inbox_len),
            inbox_calls: layer(&self.inbox_calls),
            max_state_bits: layer(&self.max_state_bits),
        }
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn interval_union(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.close(self.root);
    }
}

/// The folded spans and counters of one traced run.
#[derive(Clone)]
pub struct Profile {
    table: Table,
    /// Summed executor task time, ns.
    pub busy_ns: u64,
    inbox_len: [u64; LAYERS],
    inbox_calls: [u64; LAYERS],
    max_state_bits: [u64; LAYERS],
}

impl Profile {
    /// The aggregate of root spans of `kind`.
    pub fn root(&self, kind: Root) -> Agg {
        self.table.roots[kind as usize]
    }

    /// The aggregate of spans named `name` opened under roots of `kind`.
    pub fn under(&self, kind: Root, name: Name) -> Agg {
        self.table.spans[kind as usize][name.index()]
    }

    /// Mean inbox length per `receive` of `layer`.
    pub fn inbox_len(&self, layer: Layer) -> f64 {
        ratio(
            self.inbox_len[layer as usize] as f64,
            self.inbox_calls[layer as usize] as f64,
        )
    }

    /// The largest `state_bits` any process of `layer` reported.
    pub fn max_state_bits(&self, layer: Layer) -> u64 {
        self.max_state_bits[layer as usize]
    }

    /// Every non-empty aggregate, for the span table written at the end.
    pub fn dump(&self) -> BTreeMap<String, Agg> {
        let roots = ["step", "recover", "delay_run", "none"];
        let names = [
            "send",
            "receive",
            "other",
            "adversary",
            "drops",
            "j_append",
            "j_sync",
            "j_recover",
            "j_reset",
        ];
        let layers = ["sync", "psync", "chain"];
        let mut out = BTreeMap::new();
        for (r, root) in roots.iter().enumerate() {
            if r < 3 && self.table.roots[r].count > 0 {
                out.insert(root.to_string(), self.table.roots[r]);
            }
            for s in 0..NAMES {
                let agg = self.table.spans[r][s];
                if agg.count == 0 {
                    continue;
                }
                let name = if s < 3 * LAYERS {
                    format!("{}.{}", layers[s % LAYERS], names[s / LAYERS])
                } else {
                    names[s - 3 * LAYERS + 3].to_string()
                };
                out.insert(format!("{root}/{name}"), agg);
            }
        }
        out
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every `SAMPLE_EVERY`-th `(round + identifier)` emission is kept for the
/// post-run codec timing: a rule independent of which thread runs a
/// process, so the sample is the same multiset on every run of a seed.
const SAMPLE_EVERY: u64 = 7;
const SAMPLE_CAP: usize = 4096;

/// Messages a wrapper saw sent, kept for the post-run codec timing.
pub type Samples<M> = Arc<Mutex<Vec<Arc<M>>>>;

/// A protocol whose every call into the wrapped automaton is a span of
/// its layer. Behaviour is the wrapped protocol's, call for call.
pub struct Timed<P: Protocol> {
    inner: P,
    layer: Layer,
    tracer: Arc<Tracer>,
    samples: Option<Samples<P::Msg>>,
}

impl<P: Protocol> Timed<P> {
    /// The wrapped automaton.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Protocol + Clone> Clone for Timed<P> {
    fn clone(&self) -> Self {
        Timed {
            inner: self.inner.clone(),
            layer: self.layer,
            tracer: Arc::clone(&self.tracer),
            samples: self.samples.clone(),
        }
    }
}

impl<P: Protocol + fmt::Debug> fmt::Debug for Timed<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Timed").field(&self.inner).finish()
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;
    type Value = P::Value;

    fn id(&self) -> Id {
        self.inner.id()
    }

    fn send(&mut self, round: Round) -> Vec<(Recipients, P::Msg)> {
        let _s = self.tracer.span(Name::Send(self.layer));
        self.inner.send(round)
    }

    fn send_shared(&mut self, round: Round) -> Vec<(Recipients, Arc<P::Msg>)> {
        let out = {
            let _s = self.tracer.span(Name::Send(self.layer));
            self.inner.send_shared(round)
        };
        if let Some(samples) = &self.samples {
            if (round.index() + self.inner.id().index() as u64).is_multiple_of(SAMPLE_EVERY) {
                let mut s = samples.lock().expect("sample buffer poisoned");
                for (_, msg) in &out {
                    if s.len() < SAMPLE_CAP {
                        s.push(Arc::clone(msg));
                    }
                }
            }
        }
        out
    }

    fn receive(&mut self, round: Round, inbox: &Inbox<P::Msg>) {
        self.tracer.note_inbox(self.layer, inbox.len());
        let _s = self.tracer.span(Name::Receive(self.layer));
        self.inner.receive(round, inbox);
    }

    fn decision(&self) -> Option<P::Value> {
        self.inner.decision()
    }

    fn state_bits(&self) -> u64 {
        let bits = {
            let _s = self.tracer.span(Name::Other(self.layer));
            self.inner.state_bits()
        };
        self.tracer.note_state(self.layer, bits);
        bits
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        let _s = self.tracer.span(Name::Other(self.layer));
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), DecodeError> {
        let _s = self.tracer.span(Name::Other(self.layer));
        self.inner.restore(snapshot)
    }

    fn snapshot_bits(&self) -> u64 {
        let _s = self.tracer.span(Name::Other(self.layer));
        self.inner.snapshot_bits()
    }
}

/// A factory spawning [`Timed`] automata of one layer.
pub struct TimedFactory<F: ProtocolFactory> {
    inner: F,
    layer: Layer,
    tracer: Arc<Tracer>,
    samples: Option<Samples<<F::P as Protocol>::Msg>>,
}

impl<F: ProtocolFactory> TimedFactory<F> {
    /// Wraps `inner`; with `samples`, spawned automata keep a sample of
    /// what they send.
    pub fn new(
        inner: F,
        layer: Layer,
        tracer: &Arc<Tracer>,
        samples: Option<Samples<<F::P as Protocol>::Msg>>,
    ) -> Self {
        TimedFactory {
            inner,
            layer,
            tracer: Arc::clone(tracer),
            samples,
        }
    }
}

impl<F: ProtocolFactory + Clone> Clone for TimedFactory<F> {
    fn clone(&self) -> Self {
        TimedFactory {
            inner: self.inner.clone(),
            layer: self.layer,
            tracer: Arc::clone(&self.tracer),
            samples: self.samples.clone(),
        }
    }
}

impl<F: ProtocolFactory + fmt::Debug> fmt::Debug for TimedFactory<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TimedFactory").field(&self.inner).finish()
    }
}

impl<F: ProtocolFactory> ProtocolFactory for TimedFactory<F> {
    type P = Timed<F::P>;

    fn spawn(&self, id: Id, input: <F::P as Protocol>::Value) -> Timed<F::P> {
        Timed {
            inner: self.inner.spawn(id, input),
            layer: self.layer,
            tracer: Arc::clone(&self.tracer),
            samples: self.samples.clone(),
        }
    }
}

/// An adversary whose calls are spans.
pub struct TimedAdversary<A> {
    inner: A,
    tracer: Arc<Tracer>,
}

impl<A> TimedAdversary<A> {
    /// Wraps `inner`.
    pub fn new(inner: A, tracer: &Arc<Tracer>) -> Self {
        TimedAdversary {
            inner,
            tracer: Arc::clone(tracer),
        }
    }
}

impl<M: homonym_core::Message, A: Adversary<M>> Adversary<M> for TimedAdversary<A> {
    fn send(&mut self, ctx: &AdvCtx<'_>) -> Vec<Emission<M>> {
        let _s = self.tracer.span(Name::Adversary);
        self.inner.send(ctx)
    }

    fn receive(&mut self, round: Round, inboxes: &BTreeMap<Pid, Inbox<M>>) {
        let _s = self.tracer.span(Name::Adversary);
        self.inner.receive(round, inboxes);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A drop policy whose queries are spans.
pub struct TimedDrops<D> {
    inner: D,
    tracer: Arc<Tracer>,
}

impl<D> TimedDrops<D> {
    /// Wraps `inner`.
    pub fn new(inner: D, tracer: &Arc<Tracer>) -> Self {
        TimedDrops {
            inner,
            tracer: Arc::clone(tracer),
        }
    }
}

impl<D: DropPolicy> DropPolicy for TimedDrops<D> {
    fn drops(&mut self, round: Round, from: Pid, to: Pid) -> bool {
        let _s = self.tracer.span(Name::Drops);
        self.inner.drops(round, from, to)
    }

    fn gst(&self) -> Round {
        self.inner.gst()
    }
}

/// Journal records a wrapper saw appended, kept for the post-run decode
/// timing.
pub type RecordSamples = Arc<Mutex<Vec<Vec<u8>>>>;

/// A journal whose calls are spans; it keeps every `RECORD_EVERY`-th
/// appended record and counts appended bytes.
pub struct TimedJournal<J> {
    inner: J,
    tracer: Arc<Tracer>,
    appended: u64,
    bytes: Arc<AtomicU64>,
    records: RecordSamples,
}

const RECORD_EVERY: u64 = 5;

impl<J> TimedJournal<J> {
    /// Wraps `inner`; appended bytes add to `bytes`, sampled records go to
    /// `records`.
    pub fn new(
        inner: J,
        tracer: &Arc<Tracer>,
        bytes: &Arc<AtomicU64>,
        records: &RecordSamples,
    ) -> Self {
        TimedJournal {
            inner,
            tracer: Arc::clone(tracer),
            appended: 0,
            bytes: Arc::clone(bytes),
            records: Arc::clone(records),
        }
    }
}

impl<J: Journal> Journal for TimedJournal<J> {
    fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        let out = {
            let _s = self.tracer.span(Name::JournalAppend);
            self.inner.append(payload)
        };
        self.bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        if self.appended.is_multiple_of(RECORD_EVERY) {
            let mut r = self.records.lock().expect("record buffer poisoned");
            if r.len() < SAMPLE_CAP {
                r.push(payload.to_vec());
            }
        }
        self.appended += 1;
        out
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        let _s = self.tracer.span(Name::JournalSync);
        self.inner.sync()
    }

    fn recover(&self) -> Recovered {
        let _s = self.tracer.span(Name::JournalRecover);
        self.inner.recover()
    }

    fn reset(&mut self) -> Result<(), JournalError> {
        let _s = self.tracer.span(Name::JournalReset);
        self.inner.reset()
    }
}

/// An executor that sums the time its tasks run.
pub struct TimedExecutor<E> {
    inner: E,
    tracer: Arc<Tracer>,
}

impl<E> TimedExecutor<E> {
    /// Wraps `inner`.
    pub fn new(inner: E, tracer: &Arc<Tracer>) -> Self {
        TimedExecutor {
            inner,
            tracer: Arc::clone(tracer),
        }
    }
}

impl<E: Executor> Executor for TimedExecutor<E> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn scatter<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let busy = &self.tracer.busy_ns;
        let tasks: Vec<_> = tasks
            .into_iter()
            .map(|task| {
                move || {
                    let start = Instant::now();
                    let out = task();
                    busy.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    out
                }
            })
            .collect();
        self.inner.scatter(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(interval_union(vec![(0, 10), (5, 15), (20, 25)], 0, 100), 20);
        assert_eq!(interval_union(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(interval_union(Vec::new(), 0, 10), 0);
    }

    #[test]
    fn nested_spans_split_self_time() {
        let tracer = Tracer::new();
        {
            let _root = tracer.root(Root::Step);
            let _outer = tracer.span(Name::Send(Layer::Chain));
            let _inner = tracer.span(Name::Send(Layer::Psync));
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let p = tracer.profile();
        let chain = p.under(Root::Step, Name::Send(Layer::Chain));
        let psync = p.under(Root::Step, Name::Send(Layer::Psync));
        assert_eq!((chain.count, chain.direct, psync.direct), (1, 1, 0));
        assert!(chain.self_ns < psync.total_ns);
        assert!(p.root(Root::Step).self_ns < chain.total_ns);
    }
}
