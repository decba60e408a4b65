//! Timing wrappers for the traced run.
//!
//! Each node's model and strategy are wrapped in [`TimedModel`] and
//! [`TimedStrategy`]. Every call into the wrapped layer records one
//! [`Span`] (kind, node, round, worker thread, start, end); spans stay in a
//! per-node buffer and move to the shared [`Recorder`] when the wrapper is
//! dropped at the end of the run, so recording takes no lock on the hot
//! path. The wrappers only observe: they forward every trait method,
//! defaulted ones included, and return the inner results untouched.

use jwins::strategy::{OutMessage, Outbound, PairingStats, ReceivedMessage, ShareStrategy};
use jwins_nn::model::{EvalMetrics, Model};
use jwins_nn::models::ImageClassifier;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::workload::NodeWrap;

/// The layer call a span covers. The declaration order is the index of
/// the per-kind totals in the traced report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Model::loss_and_grad` (one local SGD step's forward and backward).
    Sgd,
    /// `Model::evaluate` (one test chunk).
    Eval,
    /// `ShareStrategy::make_outbound` / `make_message`.
    Build,
    /// `ShareStrategy::aggregate` / `aggregate_robust`.
    Mix,
}

impl Kind {
    /// Name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sgd => "nn.loss_and_grad",
            Kind::Eval => "nn.evaluate",
            Kind::Build => "core.make_outbound",
            Kind::Mix => "core.aggregate",
        }
    }
}

/// One timed call. `node` and `round` identify the work item the call
/// belongs to; `work` counts what the call processed (samples for `Sgd` and
/// `Eval`, bytes built for `Build`, messages received for `Mix`).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer call.
    pub kind: Kind,
    /// Node id.
    pub node: u32,
    /// Communication round.
    pub round: u32,
    /// Worker-thread index (dense, in order of first span).
    pub thread: u32,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Work processed by the call.
    pub work: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Inputs and output of one `aggregate` call on node 0 — the vectors the
/// kernel replay runs on.
#[derive(Debug, Clone, Default)]
pub struct Capture {
    /// Parameters `make_outbound` was called with in the captured round.
    pub built_from: Vec<f32>,
    /// Parameters `aggregate` was called with.
    pub mix_params: Vec<f32>,
    /// `w_ii` of the captured round.
    pub self_weight: f64,
    /// Received messages: mixing weight and wire bytes.
    pub inbound: Vec<(f64, Vec<u8>)>,
    /// What `aggregate` returned.
    pub output: Vec<f32>,
}

/// Shared collection point for every wrapper's spans plus node 0's capture.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    capture: Mutex<Option<Capture>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            capture: Mutex::new(None),
        })
    }

    /// ns since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// ns from the epoch to `t` (0 if `t` is earlier).
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Every span flushed so far, sorted by start.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span lock poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.node));
        spans
    }

    /// Node 0's last captured aggregation, if it aggregated at all.
    pub fn take_capture(&self) -> Option<Capture> {
        self.capture.lock().expect("capture lock poisoned").take()
    }

    fn flush(&self, local: &mut Vec<Span>) {
        // Runs from `Drop`: ignore a poisoned lock rather than panic.
        if let Ok(mut spans) = self.spans.lock() {
            spans.append(local);
        }
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_INDEX: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// One wrapper's span buffer; a node's model and strategy wrappers each
/// hold one and share `rounds_done`.
#[derive(Debug)]
struct NodeClock {
    recorder: Arc<Recorder>,
    node: u32,
    /// Rounds this node has finished aggregating (its current round while
    /// training). A statistic only, so `Relaxed` suffices.
    rounds_done: Arc<AtomicU32>,
    spans: Vec<Span>,
}

impl NodeClock {
    fn record(&mut self, kind: Kind, round: u32, start_ns: u64, work: u64) {
        let end_ns = self.recorder.now_ns();
        self.spans.push(Span {
            kind,
            node: self.node,
            round,
            thread: THREAD_INDEX.with(|t| *t),
            start_ns,
            end_ns,
            work,
        });
    }
}

impl Drop for NodeClock {
    fn drop(&mut self) {
        self.recorder.flush(&mut self.spans);
    }
}

/// A [`Model`] that times `loss_and_grad` and `evaluate`.
pub struct TimedModel<M> {
    inner: M,
    clock: NodeClock,
}

impl<M: Model> Model for TimedModel<M> {
    type Sample = M::Sample;

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn params(&self) -> Vec<f32> {
        self.inner.params()
    }

    fn set_params(&mut self, flat: &[f32]) {
        self.inner.set_params(flat);
    }

    fn loss_and_grad(&mut self, batch: &[Self::Sample]) -> (f32, Vec<f32>) {
        let start = self.clock.recorder.now_ns();
        let out = self.inner.loss_and_grad(batch);
        let round = self.clock.rounds_done.load(Ordering::Relaxed);
        self.clock
            .record(Kind::Sgd, round, start, batch.len() as u64);
        out
    }

    fn evaluate(&mut self, batch: &[Self::Sample]) -> EvalMetrics {
        let start = self.clock.recorder.now_ns();
        let out = self.inner.evaluate(batch);
        // Evaluation follows the aggregation of the round it reports.
        let round = self
            .clock
            .rounds_done
            .load(Ordering::Relaxed)
            .saturating_sub(1);
        self.clock
            .record(Kind::Eval, round, start, batch.len() as u64);
        out
    }
}

/// A [`ShareStrategy`] that times message building and aggregation and, on
/// node 0, captures the aggregation's inputs and output for the replay.
pub struct TimedStrategy {
    inner: Box<dyn ShareStrategy>,
    clock: NodeClock,
    /// Node 0 only: the parameters of the pending `make_outbound`.
    built_from: Option<Vec<f32>>,
}

impl TimedStrategy {
    fn capture_mix(
        &mut self,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        output: &[f32],
    ) {
        let Some(built_from) = self.built_from.take() else {
            return;
        };
        let capture = Capture {
            built_from,
            mix_params: params.to_vec(),
            self_weight,
            inbound: received
                .iter()
                .map(|m| (m.weight, m.bytes.to_vec()))
                .collect(),
            output: output.to_vec(),
        };
        *self
            .clock
            .recorder
            .capture
            .lock()
            .expect("capture lock poisoned") = Some(capture);
    }

    fn finish_mix(
        &mut self,
        round: usize,
        start: u64,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        out: &jwins::Result<Vec<f32>>,
    ) {
        self.clock
            .record(Kind::Mix, round as u32, start, received.len() as u64);
        self.clock
            .rounds_done
            .store(round as u32 + 1, Ordering::Relaxed);
        if let Ok(next) = out {
            self.capture_mix(params, self_weight, received, next);
        }
    }

    fn note_build(&mut self, params: &[f32]) {
        if self.clock.node == 0 {
            self.built_from = Some(params.to_vec());
        }
    }
}

fn outbound_bytes(out: &Outbound) -> u64 {
    match out {
        Outbound::Broadcast(m) => m.bytes.len() as u64,
        Outbound::PerEdge(ms) => ms.iter().flatten().map(|m| m.bytes.len() as u64).sum(),
    }
}

impl ShareStrategy for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, params: &[f32]) {
        self.inner.init(params);
    }

    fn make_message(&mut self, round: usize, params: &[f32]) -> jwins::Result<OutMessage> {
        let start = self.clock.recorder.now_ns();
        let out = self.inner.make_message(round, params);
        let bytes = out.as_ref().map_or(0, |m| m.bytes.len() as u64);
        self.clock.record(Kind::Build, round as u32, start, bytes);
        self.note_build(params);
        out
    }

    fn make_outbound(
        &mut self,
        round: usize,
        params: &[f32],
        neighbors: &[usize],
    ) -> jwins::Result<Outbound> {
        let start = self.clock.recorder.now_ns();
        let out = self.inner.make_outbound(round, params, neighbors);
        let bytes = out.as_ref().map_or(0, outbound_bytes);
        self.clock.record(Kind::Build, round as u32, start, bytes);
        self.note_build(params);
        out
    }

    fn aggregate(
        &mut self,
        round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
    ) -> jwins::Result<Vec<f32>> {
        let start = self.clock.recorder.now_ns();
        let out = self.inner.aggregate(round, params, self_weight, received);
        self.finish_mix(round, start, params, self_weight, received, &out);
        out
    }

    fn last_alpha(&self) -> f64 {
        self.inner.last_alpha()
    }

    fn forget_edge(&mut self, peer: usize) {
        self.inner.forget_edge(peer);
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn pairing_stats(&mut self) -> Option<PairingStats> {
        self.inner.pairing_stats()
    }

    fn supports_robust(&self) -> bool {
        self.inner.supports_robust()
    }

    fn aggregate_robust(
        &mut self,
        round: usize,
        params: &[f32],
        self_weight: f64,
        received: &[ReceivedMessage<'_>],
        rule: &jwins_adversary::Robust,
    ) -> jwins::Result<Vec<f32>> {
        let start = self.clock.recorder.now_ns();
        let out = self
            .inner
            .aggregate_robust(round, params, self_weight, received, rule);
        self.finish_mix(round, start, params, self_weight, received, &out);
        out
    }

    fn robust_stats(&mut self) -> Option<jwins_adversary::RobustStats> {
        self.inner.robust_stats()
    }
}

/// Wraps every node for the traced run, all reporting to one recorder.
pub struct Timed {
    /// Where the wrappers' spans and node 0's capture end up.
    pub recorder: Arc<Recorder>,
}

impl NodeWrap for Timed {
    type M = TimedModel<ImageClassifier>;

    fn wrap(
        &mut self,
        node: usize,
        model: ImageClassifier,
        strategy: Box<dyn ShareStrategy>,
    ) -> (Self::M, Box<dyn ShareStrategy>) {
        let rounds_done = Arc::new(AtomicU32::new(0));
        let clock = |rounds_done: &Arc<AtomicU32>| NodeClock {
            recorder: Arc::clone(&self.recorder),
            node: node as u32,
            rounds_done: Arc::clone(rounds_done),
            spans: Vec::new(),
        };
        let model = TimedModel {
            inner: model,
            clock: clock(&rounds_done),
        };
        let strategy = TimedStrategy {
            inner: strategy,
            clock: clock(&rounds_done),
            built_from: None,
        };
        (model, Box::new(strategy))
    }
}
