//! The decentralized training engine: one discrete-event loop.
//!
//! Each node runs the paper's round program (§II-A) — τ local SGD steps, one
//! strategy-built message to each neighbour in this round's topology, then a
//! fold of the received messages into its parameters with
//! Metropolis–Hastings weights — scheduled on a virtual clock through
//! `jwins_sim`'s event queue. Each node's local round costs
//! `compute_s / speed` seconds of simulated compute, outgoing messages are
//! serialized over its uplink and arrive `latency + bytes/bandwidth` later,
//! and a node mixes with whatever neighbour messages have *arrived* by its
//! local clock — possibly stale ones, whose age feeds the staleness metric.
//!
//! The two [`crate::config::ExecutionMode`]s are two clocks on this one
//! loop:
//!
//! - **Event-driven** ([`crate::config::ExecutionMode::EventDriven`]):
//!   asynchronous gossip under the configured heterogeneity profile, fault
//!   plan and checkpoint cadence, stamped on the event clock.
//! - **Bulk-synchronous** (the default): a preset that runs the degenerate
//!   profile (uniform compute, instantaneous links), so every node moves in
//!   lockstep and each round ends at a barrier. A barrier clock charges
//!   [`jwins_net::TimeModel::round_seconds`] of the most bytes any node
//!   pushed that round; it stamps [`RoundRecord::sim_time_s`] and
//!   [`TargetHit::sim_time_s`] and resolves attack windows at each round's
//!   barrier start. Trace `t_ns` stamps stay on the event clock.
//!
//! # Parallel event execution and the determinism contract
//!
//! The event loop executes *batches*: at each step it pops the maximal run
//! of simultaneous same-kind events on pairwise-distinct nodes
//! ([`jwins_sim::EventQueue::pop_independent_batch`]; mix batches are
//! additionally same-*round*, so a round-completion evaluation can never
//! observe an aggregate of a different round that the one-at-a-time
//! schedule would have run later) and drives each batch through three
//! phases —
//!
//! 1. **propose** (sequential): charge the pops, drop stale-epoch events
//!    (see [`jwins_sim::LifecycleTracker`]), resolve per-round topology and
//!    participation;
//! 2. **execute** (parallel): run the expensive per-node work — τ SGD steps
//!    and message building for `TrainDone`, mailbox drain plus aggregation
//!    for `Mix` — on the crossbeam worker pool, with every shared-state
//!    side effect buffered (outgoing messages as [`jwins_net::PendingSend`],
//!    expiry/staleness counters in per-event proposals);
//! 3. **commit** (sequential, in the queue's pop order): apply the buffered
//!    sends, fold the float accumulators, schedule follow-up events, and
//!    take round-completion evaluation points.
//!
//! Because a batch is a contiguous prefix of the queue's seeded total order
//! and commits replay that order exactly, the observable run is a pure
//! function of the configuration. Concretely, these knobs **may not**
//! change any result, bit for bit:
//!
//! - [`crate::config::TrainConfig::threads`] (1, 2, 8, or 0 = all cores) —
//!   worker threads only split the execute phase of already-independent
//!   events;
//! - host core count / scheduler timing, for the same reason.
//!
//! These knobs **do** change results, deterministically:
//!
//! - [`crate::config::TrainConfig::seed`] — drives initial weights, batch
//!   order, queue tie-breaks, loss draws and fault expansion;
//! - [`crate::config::TrainConfig::ordering`] — the experimental
//!   `Window { max_skew_ns }` lets a batch absorb events within a bounded
//!   virtual-time skew of its head (each still executes at its own
//!   timestamp), trading strict commit interleaving for batch width under
//!   fully-random speeds; `Strict` (the default) batches only simultaneous
//!   events;
//! - the execution mode, heterogeneity profile, fault plan, staleness
//!   policy, topology and every learning hyperparameter.
//!
//! The contract is enforced by tests: `tests/parallel_determinism.rs`
//! replays a fault + staleness workload at `threads` ∈ {1, 2, 8} and
//! asserts identical [`RoundRecord`] streams; `engine::tests::`
//! `event_driven_replays_identically_and_ignores_thread_count` covers the
//! straggler path, `tests/event_driven.rs` pins bulk-synchronous vs
//! degenerate event-driven bit-equality across strategies, topologies and
//! perturbations, and the `jwins_sim` proptests pin the batch/pop
//! equivalence itself. The batch width also bounds the attainable speedup:
//! nodes whose clocks drift apart (fully random per-node speeds) yield
//! singleton batches, while class-structured profiles (e.g.
//! [`jwins_sim::HeterogeneityProfile::stragglers`]) keep same-speed cohorts
//! aligned and batch wide — see the `ext_parallel` and `ext_scale` benches.

use crate::arena::ParamArena;
use crate::config::{ExecutionMode, TrainConfig, TransportKind};
use crate::metrics::{RoundRecord, RunResult, TargetHit};
use crate::participation::{AlwaysOn, ParticipationModel};
use crate::strategy::{Outbound, ReceivedMessage, ShareStrategy};
use crate::{JwinsError, Result};
use jwins_adversary::{AttackBehavior, AttackTimeline};
use jwins_data::batch::BatchSampler;
use jwins_fault::RejoinMode;
use jwins_net::{
    LossModel, PendingSend, PurgeScope, SimNetwork, ThreadChannelTransport, TimeModel, Transport,
};
use jwins_nn::model::{EvalMetrics, Model};
use jwins_sim::{
    Conflict, EventQueue, HeterogeneityProfile, LifecycleEvent, LifecycleTracker, SimTime,
};
use jwins_topology::dynamic::{RoundTopology, TopologyProvider};
use jwins_topology::repair::{dead_neighbor_counts, LiveSet};
use jwins_trace::{AttackKind, BatchClass, KillReason, TraceEvent, TraceSink, Tracer};
use std::sync::Arc;

/// Builder for [`Trainer`] (see [`Trainer::builder`]).
pub struct TrainerBuilder<M: Model> {
    config: TrainConfig,
    topology: Option<Box<dyn TopologyProvider>>,
    participation: Box<dyn ParticipationModel>,
    test: Vec<M::Sample>,
    nodes: Vec<(M, Box<dyn ShareStrategy>)>,
    shards: Vec<Vec<M::Sample>>,
    sync_init: bool,
    trace_sinks: Vec<Box<dyn TraceSink>>,
}

impl<M: Model> TrainerBuilder<M> {
    /// Sets the topology provider (static or dynamic).
    #[must_use]
    pub fn topology(mut self, provider: impl TopologyProvider + 'static) -> Self {
        self.topology = Some(Box::new(provider));
        self
    }

    /// Sets the participation model (default: every node active every
    /// round). Inactive nodes neither train nor communicate and receive no
    /// messages — they rejoin later with their last local model.
    #[must_use]
    pub fn participation(mut self, model: impl ParticipationModel + 'static) -> Self {
        self.participation = Box::new(model);
        self
    }

    /// Sets the shared test set.
    #[must_use]
    pub fn test_set(mut self, test: Vec<M::Sample>) -> Self {
        self.test = test;
        self
    }

    /// Adds one node with its model, strategy and local shard.
    #[must_use]
    pub fn node(
        mut self,
        model: M,
        strategy: Box<dyn ShareStrategy>,
        shard: Vec<M::Sample>,
    ) -> Self {
        self.nodes.push((model, strategy));
        self.shards.push(shard);
        self
    }

    /// Adds one node per shard, building model and strategy from a factory
    /// receiving the node index (`0..n` across all `node`/`nodes` calls —
    /// strategies like PowerGossip use it to orient edges, so it must match
    /// the engine's node numbering exactly).
    #[must_use]
    pub fn nodes(
        mut self,
        shards: Vec<Vec<M::Sample>>,
        mut factory: impl FnMut(usize) -> (M, Box<dyn ShareStrategy>),
    ) -> Self {
        for shard in shards {
            let index = self.nodes.len();
            let (model, strategy) = factory(index);
            self.nodes.push((model, strategy));
            self.shards.push(shard);
        }
        self
    }

    /// Keep each node's own initial weights instead of broadcasting node 0's
    /// (used by consensus tests; real D-PSGD starts from a common model).
    #[must_use]
    pub fn keep_distinct_init(mut self) -> Self {
        self.sync_init = false;
        self
    }

    /// Attaches an extra trace sink (e.g. a [`jwins_trace::MemorySink`]) on
    /// top of whatever [`TrainConfig::trace`] configures. Sinks observe the
    /// run; they cannot change it — every [`RoundRecord`] is bit-identical
    /// with or without them.
    #[must_use]
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace_sinks.push(sink);
        self
    }

    /// Validates and assembles the trainer.
    ///
    /// # Errors
    ///
    /// Fails when the configuration is invalid, the topology is missing or
    /// its node count disagrees with the number of nodes added.
    pub fn build(self) -> Result<Trainer<M>> {
        self.config.validate()?;
        let topology = self
            .topology
            .ok_or_else(|| JwinsError::InvalidConfig("topology is required".into()))?;
        if self.nodes.is_empty() {
            return Err(JwinsError::InvalidConfig(
                "at least one node required".into(),
            ));
        }
        if topology.nodes() != self.nodes.len() {
            return Err(JwinsError::InvalidConfig(format!(
                "topology has {} nodes but {} were added",
                topology.nodes(),
                self.nodes.len()
            )));
        }
        if self.test.is_empty() {
            return Err(JwinsError::InvalidConfig("test set is empty".into()));
        }
        let n = self.nodes.len();
        let init_params = {
            let (model0, _) = &self.nodes[0];
            model0.params()
        };
        let mut nodes = Vec::with_capacity(n);
        let mut init = Vec::with_capacity(n);
        for (i, ((mut model, strategy), shard)) in
            self.nodes.into_iter().zip(self.shards).enumerate()
        {
            if shard.is_empty() {
                return Err(JwinsError::InvalidConfig(format!("node {i} has no data")));
            }
            let params = if self.sync_init {
                model.set_params(&init_params);
                init_params.clone()
            } else {
                model.params()
            };
            // Robust aggregation is a mixing-layer decoration: wrap the
            // strategy so its `aggregate` routes through the configured
            // rule. Strategies whose update is not an average the mixing
            // layer can screen are a configuration error, caught here —
            // before any training state exists.
            let mut strategy = if self.config.robust.is_none() {
                strategy
            } else if strategy.supports_robust() {
                Box::new(crate::robust::RobustWrapper::new(
                    strategy,
                    self.config.robust,
                )) as Box<dyn ShareStrategy>
            } else {
                return Err(JwinsError::InvalidConfig(format!(
                    "strategy '{}' does not support robust aggregation \
                     (TrainConfig::robust must be Robust::None with it)",
                    strategy.name()
                )));
            };
            strategy.init(&params);
            let sampler = BatchSampler::new(
                shard,
                jwins_nn::init::sub_seed(self.config.seed, 0x1000 + i as u64),
            );
            nodes.push(NodeState {
                model,
                sampler,
                strategy,
                last_train_loss: 0.0,
                last_alpha: 0.0,
            });
            init.push(params);
        }
        let arena = ParamArena::from_nodes(init);
        // The transport is chosen here and never again: the engine speaks
        // only the `Transport` trait from this point on, so both backends
        // run the exact same round program.
        let mut network: Box<dyn Transport> = match self.config.transport {
            TransportKind::Sim => {
                if self.config.message_loss > 0.0 {
                    Box::new(SimNetwork::lossy(
                        n,
                        LossModel::new(self.config.message_loss, self.config.seed ^ 0x1055),
                    ))
                } else {
                    Box::new(SimNetwork::new(n))
                }
            }
            TransportKind::Channel(_) => Box::new(ThreadChannelTransport::new(n)),
        };
        // File sinks are opened here so a bad trace path fails the build as
        // a configuration error rather than wedging mid-run.
        let mut tracer = Tracer::from_config(&self.config.trace)
            .map_err(|e| JwinsError::InvalidConfig(format!("cannot open trace sink: {e}")))?;
        // The metrics layer rides the tracer as one more sink; like any
        // sink it only observes committed events, so attaching it cannot
        // change a bit of the run (tests/metrics_layer.rs).
        if let Some(metrics) = jwins_metrics::MetricsSink::from_config(&self.config.metrics)
            .map_err(|e| JwinsError::InvalidConfig(format!("cannot open metrics export: {e}")))?
        {
            tracer.push_sink(Box::new(metrics));
        }
        for sink in self.trace_sinks {
            tracer.push_sink(sink);
        }
        let tracer = Arc::new(tracer);
        network.set_tracer(Arc::clone(&tracer));
        Ok(Trainer {
            network: Arc::from(network),
            test: Arc::new(self.test),
            config: self.config,
            topology,
            participation: self.participation,
            nodes,
            arena,
            tracer,
        })
    }
}

/// Running fault/staleness/repair counters surfaced in every
/// [`RoundRecord`].
#[derive(Debug, Clone, Copy, Default)]
struct FaultTelemetry {
    crashes: u64,
    rejoins: u64,
    downweight_mass: f64,
    edges_rewired: u64,
    bandwidth_saved_bytes: u64,
    attacks_injected: u64,
    mass_clipped: f64,
}

/// The bulk-synchronous preset's round clock. The paper's barrier round
/// costs local compute plus one latency plus the busiest node's transfer
/// time, so when a round's last node passes, the clock adds
/// [`TimeModel::round_seconds`] of the most bytes any node pushed that
/// round — the same sequential `+=`, round by round, that the time model
/// prescribes. The preset runs in lockstep, so only one round is ever in
/// flight.
struct BarrierClock {
    time_model: TimeModel,
    /// Seconds at the current round's barrier start: the sum of every
    /// completed round's charge.
    elapsed_s: f64,
    /// The most bytes any node pushed in the current round.
    max_bytes: u64,
}

impl BarrierClock {
    fn new(time_model: TimeModel) -> Self {
        Self {
            time_model,
            elapsed_s: 0.0,
            max_bytes: 0,
        }
    }

    /// The current round's barrier start.
    fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.elapsed_s)
    }

    /// Records that one node pushed `bytes` this round.
    fn sent(&mut self, bytes: u64) {
        self.max_bytes = self.max_bytes.max(bytes);
    }

    /// Charges the current round once its last node has passed; returns
    /// the clock.
    fn complete(&mut self) -> f64 {
        self.elapsed_s += self.time_model.round_seconds(self.max_bytes);
        self.max_bytes = 0;
        self.elapsed_s
    }
}

/// Engine-side seed salt for attack-plan expansion — distinct from every
/// other salt so the attack schedule draws randomness independent of fault
/// expansion, compute speeds, link jitter, queue tie-breaks and loss draws.
const ATTACK_SALT: u64 = 0x4174_636B; // "Atck"

/// Maps a plan behavior to its trace-event kind tag.
fn attack_kind(behavior: AttackBehavior) -> AttackKind {
    match behavior {
        AttackBehavior::Garbage { .. } => AttackKind::Garbage,
        AttackBehavior::SignFlip => AttackKind::SignFlip,
        AttackBehavior::Scale { .. } => AttackKind::Scale,
        AttackBehavior::Drift { .. } => AttackKind::Drift,
        _ => unreachable!("unknown attack behavior"),
    }
}

/// Per-node training state. Flat model parameters live *outside* this
/// struct, in the trainer's [`ParamArena`] — one contiguous buffer indexed
/// by node id — so the hot per-batch state is cache-dense at large node
/// counts; closures receive the node's window as a `&mut [f32]` alongside
/// its `NodeState`.
pub(crate) struct NodeState<M: Model> {
    pub(crate) model: M,
    pub(crate) sampler: BatchSampler<M::Sample>,
    pub(crate) strategy: Box<dyn ShareStrategy>,
    pub(crate) last_train_loss: f32,
    pub(crate) last_alpha: f64,
}

/// Runs τ local SGD steps on one node — the *identical* instruction sequence
/// for the event loop and the channel driver, so a channel run can be
/// cross-checked against its sim-oracle replay.
pub(crate) fn train_steps<M: Model>(
    node: &mut NodeState<M>,
    params: &mut [f32],
    tau: usize,
    batch_size: usize,
    lr: f32,
) {
    node.model.set_params(params);
    let mut loss = 0.0;
    for _ in 0..tau {
        let batch = node.sampler.sample(batch_size);
        let (l, grad) = node.model.loss_and_grad(&batch);
        loss = l;
        for (p, g) in params.iter_mut().zip(&grad) {
            *p -= lr * g;
        }
        node.model.set_params(params);
    }
    node.last_train_loss = loss;
}

/// One unit of `par_batch` work: a node id, its state and arena window,
/// and the event payload.
type WorkItem<'a, M, T> = (usize, &'a mut NodeState<M>, &'a mut [f32], T);

/// Executes one closure per `(node, item)` pair on the worker pool — the
/// event loop's *execute* phase (and the cluster-wide evaluation). Items
/// carry distinct node ids
/// (the queue's independent-batch contract), whose states are selected as
/// disjoint `&mut` borrows. Outputs come back in item order and the first
/// error *in item order* wins regardless of thread timing, so both results
/// and failures are independent of thread count.
fn par_batch<M, T, P, F>(
    nodes: &mut [NodeState<M>],
    arena: &mut ParamArena,
    items: Vec<(usize, T)>,
    threads: usize,
    f: F,
) -> Result<Vec<P>>
where
    M: Model + Send,
    M::Sample: Send + Sync,
    T: Send,
    P: Send,
    F: Fn(usize, &mut NodeState<M>, &mut [f32], T) -> Result<P> + Sync,
{
    let mut slots: Vec<Option<&mut NodeState<M>>> = nodes.iter_mut().map(Some).collect();
    let mut pslots: Vec<Option<&mut [f32]>> = arena.slices_mut().into_iter().map(Some).collect();
    let mut work: Vec<WorkItem<'_, M, T>> = items
        .into_iter()
        .map(|(id, item)| {
            let state = slots[id]
                .take()
                .expect("batch nodes must be pairwise distinct");
            let params = pslots[id].take().expect("state and window taken together");
            (id, state, params, item)
        })
        .collect();
    let threads = threads.min(work.len()).max(1);
    if threads == 1 {
        return work
            .into_iter()
            .map(|(id, state, params, item)| f(id, state, params, item))
            .collect();
    }
    let chunk = work.len().div_ceil(threads);
    let mut chunks: Vec<Vec<WorkItem<'_, M, T>>> = Vec::new();
    while !work.is_empty() {
        let rest = work.split_off(chunk.min(work.len()));
        chunks.push(std::mem::replace(&mut work, rest));
    }
    let results: Vec<Result<Vec<P>>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk_items| {
                let f = &f;
                scope.spawn(move |_| {
                    chunk_items
                        .into_iter()
                        .map(|(id, state, params, item)| f(id, state, params, item))
                        .collect::<Result<Vec<P>>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread must not panic"))
            .collect()
    })
    .expect("scope does not panic");
    let mut out = Vec::with_capacity(results.len());
    for chunk_result in results {
        out.extend(chunk_result?);
    }
    Ok(out)
}

/// A configured decentralized training run.
pub struct Trainer<M: Model> {
    pub(crate) config: TrainConfig,
    pub(crate) topology: Box<dyn TopologyProvider>,
    pub(crate) participation: Box<dyn ParticipationModel>,
    pub(crate) network: Arc<dyn Transport>,
    pub(crate) nodes: Vec<NodeState<M>>,
    /// Every node's flat parameters in one contiguous buffer (see
    /// [`ParamArena`]); `nodes[i]`'s window is `arena.node(i)`.
    pub(crate) arena: ParamArena,
    pub(crate) test: Arc<Vec<M::Sample>>,
    /// Run telemetry. Always present — the flight recorder inside is the
    /// always-on crash context — and only ever *read from* sequential code,
    /// so it can never perturb a result (see `jwins_trace`).
    pub(crate) tracer: Arc<Tracer>,
}

impl<M: Model> Trainer<M> {
    /// Starts building a trainer.
    pub fn builder(config: TrainConfig) -> TrainerBuilder<M> {
        TrainerBuilder {
            config,
            topology: None,
            participation: Box::new(AlwaysOn),
            test: Vec::new(),
            nodes: Vec::new(),
            shards: Vec::new(),
            sync_init: true,
            trace_sinks: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node's current flat parameters (test hook).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_params(&self, node: usize) -> &[f32] {
        self.arena.node(node)
    }

    /// Overwrites a node's parameters (test hook for consensus experiments).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or the length mismatches.
    pub fn set_node_params(&mut self, node: usize, params: &[f32]) {
        let window = self.arena.node_mut(node);
        assert_eq!(params.len(), window.len());
        window.copy_from_slice(params);
        self.nodes[node].model.set_params(params);
        self.nodes[node].strategy.init(params);
    }

    fn worker_threads(&self) -> usize {
        if self.config.threads > 0 {
            self.config.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// Active neighbours of `i` this round, in sorted order.
    pub(crate) fn active_neighbors(topo: &RoundTopology, active: &[bool], i: usize) -> Vec<usize> {
        topo.graph
            .neighbors(i)
            .iter()
            .copied()
            .filter(|&j| active[j])
            .collect()
    }

    /// Evaluates all nodes on the shared test set (possibly subsampled),
    /// returning merged metrics plus each node's own accuracy — the
    /// per-node series that makes the fast/slow (and survivor/rejoiner)
    /// gap visible where the cluster mean hides it.
    fn evaluate(&mut self) -> Result<(EvalMetrics, Vec<f64>)>
    where
        M: Send,
        M::Sample: Send + Sync,
    {
        let cap = self.config.eval_test_samples;
        let test = Arc::clone(&self.test);
        let threads = self.worker_threads();
        let items = (0..self.nodes.len()).map(|i| (i, ())).collect();
        // Per-node results come back in node order and merge sequentially:
        // float sums must not depend on which worker finished first.
        let per_node = par_batch(
            &mut self.nodes,
            &mut self.arena,
            items,
            threads,
            |_, node, params, ()| {
                let subset: &[M::Sample] = if cap == 0 || cap >= test.len() {
                    &test
                } else {
                    &test[..cap]
                };
                node.model.set_params(params);
                let mut local = EvalMetrics::default();
                for chunk in subset.chunks(64) {
                    local.merge(&node.model.evaluate(chunk));
                }
                Ok(local)
            },
        )?;
        let mut merged = EvalMetrics::default();
        let mut accuracies = Vec::with_capacity(per_node.len());
        for local in &per_node {
            accuracies.push(local.accuracy());
            merged.merge(local);
        }
        Ok((merged, accuracies))
    }

    #[allow(clippy::too_many_arguments)]
    fn snapshot(
        &self,
        round: usize,
        metrics: &EvalMetrics,
        per_node_accuracy: Vec<f64>,
        sim_time: f64,
        mean_staleness_s: f64,
        faults: FaultTelemetry,
        checkpoint: bool,
    ) -> RoundRecord {
        let n = self.nodes.len() as f64;
        let total = self.network.total_stats();
        let train_loss = self
            .nodes
            .iter()
            .map(|s| f64::from(s.last_train_loss))
            .sum::<f64>()
            / n;
        let mean_alpha = self.nodes.iter().map(|s| s.last_alpha).sum::<f64>() / n;
        RoundRecord {
            round,
            train_loss,
            test_loss: metrics.mean_loss(),
            test_accuracy: metrics.accuracy(),
            test_rmse: metrics.rmse(),
            mean_alpha,
            cum_bytes_per_node: total.bytes_sent as f64 / n,
            cum_payload_per_node: total.payload_sent as f64 / n,
            cum_metadata_per_node: total.metadata_sent as f64 / n,
            sim_time_s: sim_time,
            mean_staleness_s,
            crashes: faults.crashes,
            rejoins: faults.rejoins,
            messages_expired: total.messages_expired,
            downweight_mass: faults.downweight_mass,
            edges_rewired: faults.edges_rewired,
            bandwidth_saved_bytes: faults.bandwidth_saved_bytes,
            attacks_injected: faults.attacks_injected,
            mass_clipped: faults.mass_clipped,
            per_node_accuracy,
            checkpoint,
        }
    }

    /// Executes the full run: on the event loop, clocked as
    /// [`TrainConfig::execution`] selects, or on real threads under the
    /// channel transport.
    ///
    /// # Errors
    ///
    /// Propagates strategy, codec and topology errors.
    pub fn run(mut self) -> Result<RunResult>
    where
        M: Send,
        M::Sample: Send + Sync,
    {
        let tracer = Arc::clone(&self.tracer);
        tracer.emit(TraceEvent::RunStart {
            nodes: self.nodes.len() as u32,
            rounds: self.config.rounds as u32,
            seed: self.config.seed,
        });
        // If anything below panics, the guard dumps the flight recorder's
        // tail to stderr before the process unwinds.
        let guard = jwins_trace::FlightDumpGuard::new(Arc::clone(&tracer));
        let result = if self.config.transport.is_real() {
            // The channel backend has no virtual clock to schedule the event
            // loop on; its driver runs the round program on one OS thread
            // per node (validation already pinned the execution mode to
            // BulkSynchronous).
            crate::channel_driver::run_channel(self)
        } else {
            self.run_event_driven()
        };
        drop(guard);
        if result.is_err() {
            // Protocol violations surface as errors, not panics; dump the
            // same crash context for them.
            tracer.dump_flight_to_stderr("protocol violation");
        }
        tracer.finish();
        result
    }

    /// The discrete-event loop behind both execution modes.
    ///
    /// Each node cycles through three events on the shared virtual clock:
    ///
    /// 1. `StartRound` — consult participation; an active node schedules
    ///    `TrainDone` after `compute_s / speed` seconds, an inactive one
    ///    idles for the same window;
    /// 2. `TrainDone` — run τ SGD steps, then serialize this round's
    ///    messages over the uplink one neighbour at a time (each arrives
    ///    `latency + bytes/bandwidth` after its transmission starts) and
    ///    schedule `Mix` once the last byte has left;
    /// 3. `Mix` — drain every message that has *arrived* by the local
    ///    clock and survived the staleness policy (TTL expiry at drain,
    ///    over-cap drop or down-weighting at mix — down-weighted mass moves
    ///    to the self-weight so mixing stays row-stochastic), aggregate,
    ///    and start the next round.
    ///
    /// The fault plan (see `jwins_fault`) is replayed as `Crash`/`Recover`
    /// events: a crash abandons the node's round in progress, destroys its
    /// inbox and its in-flight outgoing messages, and invalidates its
    /// scheduled events via lifecycle epochs; a recovery rejoins warm or
    /// re-synced from the lowest-indexed live peer and resumes with the
    /// node's next round. `TrainConfig::eval_interval_s` adds virtual-time
    /// evaluation checkpoints so fast nodes' progress is visible mid-round.
    ///
    /// Simultaneous events are ordered fault < train < mix < start < eval,
    /// then by node id. Under a degenerate heterogeneity profile every node
    /// therefore moves in lockstep — all trains of a round, then all its
    /// mixes, in node order — which is what the bulk-synchronous preset
    /// runs, with a [`BarrierClock`] on top.
    ///
    /// Independent simultaneous events (same kind — same round, for mixes —
    /// on disjoint nodes) execute as one parallel batch whose side effects
    /// are buffered and committed in pop order — see the module docs for
    /// the full propose/execute/commit contract and why `threads` cannot
    /// change any result.
    fn run_event_driven(&mut self) -> Result<RunResult>
    where
        M: Send,
        M::Sample: Send + Sync,
    {
        #[derive(Debug, Clone, Copy)]
        enum Ev {
            StartRound {
                node: usize,
                round: usize,
                epoch: u64,
            },
            TrainDone {
                node: usize,
                round: usize,
                epoch: u64,
            },
            Mix {
                node: usize,
                round: usize,
                trained: bool,
                epoch: u64,
            },
            Fault {
                event: LifecycleEvent,
                rejoin: RejoinMode,
            },
            EvalTick,
        }
        const RANK_FAULT: u64 = 0;
        const RANK_TRAIN: u64 = 1;
        const RANK_MIX: u64 = 2;
        const RANK_START: u64 = 3;
        const RANK_EVAL: u64 = 4;
        fn prio(rank: u64, node: usize) -> u64 {
            (rank << 32) | node as u64
        }

        let n = self.nodes.len();
        let rounds = self.config.rounds;
        let strategy_name = self.nodes[0].strategy.name().to_owned();
        // Telemetry. Every emit below sits in sequential propose/commit
        // code and only *reads* engine state, so tracing can never perturb
        // RNG draws, event order or any RoundRecord bit. Wall-clock phase
        // timings (the ExecuteBatch side channel) are the one
        // non-deterministic payload; `TraceEvent::canonical` zeroes them.
        let tracer = Arc::clone(&self.tracer);
        let run_wall = std::time::Instant::now();
        let fault_timeline = jwins_fault::FaultTimeline::expand(
            &self.config.faults.plan,
            n,
            self.config.seed ^ 0xFA_17,
        )
        .map_err(JwinsError::InvalidConfig)?;
        // Byzantine schedule, expanded once like the fault plan. A crashed
        // node can never inject: its TrainDone events are epoch-stale and
        // it builds no messages while down.
        let attack_timeline =
            AttackTimeline::expand(&self.config.attack, n, self.config.seed ^ ATTACK_SALT)
                .map_err(JwinsError::InvalidConfig)?;
        // The bulk-synchronous preset: the degenerate profile, no
        // virtual-time checkpoints, and the barrier clock for sim time.
        let barrier = self.config.execution == ExecutionMode::BulkSynchronous;
        let mut barrier_clock = barrier.then(|| BarrierClock::new(self.config.time_model));
        let (heterogeneity, eval_interval_s) = if barrier {
            (HeterogeneityProfile::default(), None)
        } else {
            (
                self.config.heterogeneity.clone(),
                self.config.eval_interval_s,
            )
        };
        let staleness = self.config.faults.staleness;
        let ttl = staleness.ttl().map(SimTime::from_secs_f64);
        let has_cap = staleness.has_cap();
        // Cross-round messages (real heterogeneity, fault plans) are part of
        // the contract: every delivery carries its sender's round stamp, and
        // strategies with per-edge state version their handshakes by it (see
        // the edge-state versioning contract on `ShareStrategy`), so no
        // strategy needs to be refused here.
        let speeds = heterogeneity
            .compute
            .speeds(n, self.config.seed ^ 0xC0_FFEE);
        let links = heterogeneity.links;
        let link_seed = self.config.seed ^ 0x11_4B;
        let compute_time: Vec<SimTime> = speeds
            .iter()
            .map(|s| SimTime::from_secs_f64(self.config.time_model.compute_s / s))
            .collect();

        // Liveness-aware topology repair: when active, every round context
        // is resolved through the provider's live-aware path and then
        // repaired around the currently-dead nodes; crashes and rejoins
        // re-resolve the rounds in progress. `RepairPolicy::None` takes the
        // plain `topology(round)` path below, bit-for-bit as before.
        let repair = self.config.repair;
        let repair_on = !repair.is_none();
        let repair_seed = self.config.seed ^ 0x5245_5041; // "REPA"

        // Only `Ordering::Window` changes the schedule, and only batch
        // shapes.
        let mut queue: EventQueue<Ev> =
            EventQueue::with_ordering(self.config.seed ^ 0xE0E0, self.config.ordering);
        for node in 0..n {
            queue.push(
                SimTime::ZERO,
                prio(RANK_START, node),
                Ev::StartRound {
                    node,
                    round: 0,
                    epoch: 0,
                },
            );
        }
        // Fault and checkpoint events are scheduled *after* the initial
        // StartRounds so a no-op fault config leaves every insertion
        // sequence number — and with it the queue's seeded tie-breaks —
        // exactly as before, preserving the bit-for-bit contract.
        for tf in fault_timeline.events() {
            queue.push(
                tf.at,
                prio(RANK_FAULT, tf.event.node()),
                Ev::Fault {
                    event: tf.event,
                    rejoin: tf.rejoin,
                },
            );
        }
        if let Some(interval) = eval_interval_s {
            queue.push(
                SimTime::from_secs_f64(interval),
                prio(RANK_EVAL, 0),
                Ev::EvalTick,
            );
        }

        // Per-round topology + participation cache: nodes at the same round
        // share one construction (dynamic topologies rebuild graph + MH
        // weights per call — 2n calls per round without this). Entries are
        // evicted once every node has completed the round, bounding memory
        // by the fast/slow-node spread. Under repair each entry also keeps
        // the per-node count of dead base-graph neighbours the repaired
        // topology avoids (the bandwidth-savings accounting).
        struct RoundCtx {
            topo: RoundTopology,
            active: Arc<Vec<bool>>,
            avoided: Arc<Vec<u64>>,
        }
        let mut round_ctx: std::collections::HashMap<usize, RoundCtx> =
            std::collections::HashMap::new();
        let mut lifecycle = LifecycleTracker::new(n);
        let mut edges_rewired = 0u64;
        let mut bandwidth_saved = 0u64;
        macro_rules! ctx_for {
            ($round:expr, $time:expr) => {{
                let round = $round;
                let resolve_time: SimTime = $time;
                if !round_ctx.contains_key(&round) {
                    let active: Vec<bool> = (0..n)
                        .map(|j| self.participation.is_active(round, j))
                        .collect();
                    let (topo, avoided) = if repair_on {
                        let live =
                            LiveSet::new(lifecycle.alive_flags().to_vec(), lifecycle.version());
                        let base = self.topology.topology_for(round, &live);
                        let out = repair.apply(&base, &live, repair_seed, round);
                        edges_rewired += out.edges_added;
                        // Savings count against the liveness-blind graph: a
                        // live-aware provider (PeerSampling) filters dead
                        // peers out of `base` itself, which would zero the
                        // avoided-sends accounting. Blind providers already
                        // counted on that graph inside apply().
                        let avoided = if self.topology.is_live_aware() && !live.is_fully_alive() {
                            dead_neighbor_counts(&self.topology.topology(round).graph, &live)
                        } else {
                            out.dead_neighbors
                        };
                        (out.topology, avoided)
                    } else {
                        (self.topology.topology(round), Vec::new())
                    };
                    tracer.emit(TraceEvent::RoundResolve {
                        t_ns: resolve_time.0,
                        round: round as u32,
                        edges: topo.graph.edges().count() as u32,
                        repaired: repair_on,
                    });
                    round_ctx.insert(
                        round,
                        RoundCtx {
                            topo,
                            active: Arc::new(active),
                            avoided: Arc::new(avoided),
                        },
                    );
                }
                let ctx = &round_ctx[&round];
                (
                    ctx.topo.clone(),
                    Arc::clone(&ctx.active),
                    Arc::clone(&ctx.avoided),
                )
            }};
        }

        // Re-resolves every cached (in-progress) round against the current
        // live set after a crash or rejoin: survivors re-wire, Metropolis
        // weights refresh, and the round's messages on edges the repair
        // removed — in flight *or already arrived* — are invalidated with
        // their receive accounting reversed. An arrived message on a
        // removed edge could never be mixed anyway (the mix weight lookup
        // no longer lists the sender), so purging it meters the loss
        // instead of leaving it to be skipped silently. Runs only in the
        // sequential commit path of solo fault events, so determinism is
        // untouched; rounds iterate in sorted order because the map's
        // iteration order is not deterministic.
        macro_rules! repair_refresh {
            ($time:expr) => {{
                let refresh_time: SimTime = $time;
                let live = LiveSet::new(lifecycle.alive_flags().to_vec(), lifecycle.version());
                let mut cached: Vec<usize> = round_ctx.keys().copied().collect();
                cached.sort_unstable();
                let rounds_refreshed = cached.len() as u32;
                let mut refresh_edges_added = 0u64;
                for round in cached {
                    let base = self.topology.topology_for(round, &live);
                    let out = repair.apply(&base, &live, repair_seed, round);
                    edges_rewired += out.edges_added;
                    refresh_edges_added += out.edges_added;
                    let ctx = round_ctx.get_mut(&round).expect("key just listed");
                    for (a, b) in ctx.topo.graph.edges() {
                        if !out.topology.graph.has_edge(a, b) {
                            // The connection is gone in both directions;
                            // only this round's messages die — other rounds
                            // may still carry the edge.
                            let killed_ab = self
                                .network
                                .purge(PurgeScope::Link {
                                    from: a,
                                    to: b,
                                    sent_round: Some(round),
                                })
                                .messages;
                            let killed_ba = self
                                .network
                                .purge(PurgeScope::Link {
                                    from: b,
                                    to: a,
                                    sent_round: Some(round),
                                })
                                .messages;
                            if killed_ab > 0 {
                                tracer.emit(TraceEvent::MsgKill {
                                    t_ns: refresh_time.0,
                                    node: b as u32,
                                    count: killed_ab,
                                    reason: KillReason::RepairEdge,
                                });
                            }
                            if killed_ba > 0 {
                                tracer.emit(TraceEvent::MsgKill {
                                    t_ns: refresh_time.0,
                                    node: a as u32,
                                    count: killed_ba,
                                    reason: KillReason::RepairEdge,
                                });
                            }
                            // Live endpoints drop their per-edge strategy
                            // state for the removed connection: its pending
                            // handshakes can never complete, and if repair
                            // later restores the edge it must restart from
                            // the deterministic fresh state rather than a
                            // stale warm start.
                            if lifecycle.is_alive(a) {
                                self.nodes[a].strategy.forget_edge(b);
                            }
                            if lifecycle.is_alive(b) {
                                self.nodes[b].strategy.forget_edge(a);
                            }
                        }
                    }
                    ctx.topo = out.topology;
                    // Same liveness-blind savings accounting as ctx_for!.
                    ctx.avoided =
                        Arc::new(if self.topology.is_live_aware() && !live.is_fully_alive() {
                            dead_neighbor_counts(&self.topology.topology(round).graph, &live)
                        } else {
                            out.dead_neighbors
                        });
                }
                tracer.emit(TraceEvent::RepairRewire {
                    t_ns: refresh_time.0,
                    live_version: lifecycle.version(),
                    edges_added: refresh_edges_added,
                    rounds_refreshed,
                });
            }};
        }

        let mut records = Vec::new();
        let mut reached_target = None;
        let mut rounds_run = 0usize;
        let mut completed = vec![0usize; rounds];
        let mut total_staleness_s = 0.0f64;
        let mut mixed_messages = 0u64;
        // Per-(round, node) sharing fractions, filled as TrainDone/idle
        // events fire; only fully completed rounds are reported.
        let mut alpha_rows: Vec<Vec<f64>> = if self.config.record_alphas {
            vec![vec![0.0; n]; rounds]
        } else {
            Vec::new()
        };
        let mut current_alpha = vec![0.0f64; n];
        let mut downweight_mass = 0.0f64;
        let mut attacks_injected = 0u64;
        let mut mass_clipped = 0.0f64;
        // Rounds each node has passed — by mixing or by crash-abandonment.
        // A node's pending events always concern round `rounds_passed[i]`,
        // so every node contributes to every round's completion exactly
        // once and `completed` still counts to `n` under churn.
        let mut rounds_passed = vec![0usize; n];
        let mut last_time = SimTime::ZERO;
        // Queued StartRound/TrainDone/Mix events (the initial StartRounds
        // count). Fault events scheduled far past the end of training must
        // not keep evaluation checkpoints ticking, so EvalTick re-arms only
        // while training events remain — not while the queue is non-empty.
        let mut pending_work = n;
        // Scheduled recoveries per node, and how many of the currently-down
        // nodes will resume actual training when they fire: a down node with
        // rounds left re-adds work on recovery, so the checkpoint cadence
        // must keep ticking through its outage even when every live node has
        // drained its queue.
        let mut recoveries_scheduled = vec![0usize; n];
        for tf in fault_timeline.events() {
            if !tf.event.is_crash() {
                recoveries_scheduled[tf.event.node()] += 1;
            }
        }
        let mut productive_recoveries = 0usize;

        // Round-completion bookkeeping, entered when a node *passes* a
        // round (its Mix fired, or a crash abandoned its round in
        // progress): the last of the `n` passes triggers the round's
        // evaluation point and, on target hit, the early stop. Evaluates to
        // `true` when the run just stopped — the caller must commit nothing
        // further from the current batch, mirroring how the sequential
        // schedule leaves simultaneous events to die in the cleared queue.
        macro_rules! pass_round {
            ($round:expr, $time:expr) => {{
                let round = $round;
                let time: SimTime = $time;
                let mut stop = false;
                completed[round] += 1;
                if completed[round] == n {
                    round_ctx.remove(&round);
                    rounds_run = round + 1;
                    let sim_time_s = match barrier_clock.as_mut() {
                        Some(clock) => clock.complete(),
                        None => time.as_secs_f64(),
                    };
                    tracer.emit(TraceEvent::RoundComplete {
                        t_ns: time.0,
                        round: round as u32,
                    });
                    let is_last = round + 1 == rounds;
                    let eval_due = is_last
                        || (self.config.eval_every > 0
                            && (round + 1) % self.config.eval_every == 0);
                    if eval_due {
                        let (metrics, per_node) = self.evaluate()?;
                        let mean_staleness_s = if mixed_messages == 0 {
                            0.0
                        } else {
                            total_staleness_s / mixed_messages as f64
                        };
                        let record = self.snapshot(
                            round,
                            &metrics,
                            per_node,
                            sim_time_s,
                            mean_staleness_s,
                            FaultTelemetry {
                                crashes: lifecycle.crashes(),
                                rejoins: lifecycle.recoveries(),
                                downweight_mass,
                                edges_rewired,
                                bandwidth_saved_bytes: bandwidth_saved,
                                attacks_injected,
                                mass_clipped,
                            },
                            false,
                        );
                        let hit_target = self
                            .config
                            .target_accuracy
                            .is_some_and(|t| record.test_accuracy >= t);
                        tracer.emit(TraceEvent::Eval {
                            t_ns: time.0,
                            round: round as u32,
                            checkpoint: false,
                            accuracy: record.test_accuracy,
                        });
                        records.push(record);
                        if hit_target && reached_target.is_none() {
                            reached_target = Some(TargetHit {
                                round,
                                sim_time_s,
                                bytes_per_node: records
                                    .last()
                                    .map_or(0.0, |r| r.cum_bytes_per_node),
                            });
                            // Early stop: cancel everything in flight.
                            queue.clear();
                            stop = true;
                        }
                    }
                }
                stop
            }};
        }

        // Work items and buffered proposals of the two expensive event
        // kinds. Proposals are everything an event wants to do to *shared*
        // state; they are applied at commit, in the queue's pop order.
        struct TrainItem {
            round: usize,
            /// This event's own fire time — the batch head's under Strict,
            /// up to `max_skew_ns` later under Window.
            at: SimTime,
            topo: RoundTopology,
            active: Arc<Vec<bool>>,
            /// Dead base-graph neighbours this node no longer addresses
            /// because repair removed them (0 with repair off).
            avoided: u64,
            /// Byzantine behavior covering this node at train-completion
            /// time (`None` for honest nodes — the overwhelmingly common
            /// case takes the exact pre-attack code path).
            attack: Option<AttackBehavior>,
        }
        struct TrainProposal {
            sends: Vec<PendingSend>,
            mix_at: SimTime,
            alpha: f64,
            /// Bytes not spent on dead neighbours thanks to repair
            /// (per-message size × avoided edges).
            saved_bytes: u64,
        }
        struct MixItem {
            round: usize,
            /// This event's own fire time (see [`TrainItem::at`]).
            at: SimTime,
            topo: RoundTopology,
        }
        struct MixProposal {
            // Per *message*, in drain order: `(from, sent_round,
            // staleness_s)`. The global accumulator folds the staleness
            // terms one at a time at commit, so the float-addition grouping
            // is identical to processing events singly; the provenance pair
            // only feeds `TraceEvent::MsgMixed`.
            staleness: Vec<(usize, usize, f64)>,
            absorbed: f64,
            expired: u64,
        }

        // Resolved once: available_parallelism is a syscall, and the batch
        // loop runs hundreds of thousands of iterations on large sweeps.
        let threads = self.worker_threads();

        // Per-node events batch with same-kind events on other nodes; fault
        // replay and checkpoints touch cluster state and run alone. Mix
        // classes additionally encode the *round*: a round's completion
        // evaluates all nodes, so a mix must never share a batch (and thus
        // an execute phase) with a mix of a different round — the n-th
        // completer of a round is then always the last item of its batch,
        // with every other aggregate of that round already committed and no
        // foreign-round aggregate executed early.
        let classify = |ev: &Ev| match *ev {
            Ev::StartRound { node, .. } => Conflict::Exclusive {
                class: RANK_START,
                node,
            },
            Ev::TrainDone { node, .. } => Conflict::Exclusive {
                class: RANK_TRAIN,
                node,
            },
            Ev::Mix { node, round, .. } => Conflict::Exclusive {
                class: (RANK_MIX << 32) | round as u64,
                node,
            },
            Ev::Fault { .. } | Ev::EvalTick => Conflict::Solo,
        };

        let mut queue_hwm = queue.len() as u32;
        loop {
            let batch = queue.pop_independent_batch(classify);
            let Some(first) = batch.first() else {
                break;
            };
            // Reconstruct the pre-pop depth: the popped batch was still
            // queued when this iteration began.
            queue_hwm = queue_hwm.max((queue.len() + batch.len()) as u32);
            let time = first.time;
            let head = first.event;
            // Under `Ordering::Window` a batch spans fire times; the run's
            // last event time is the batch tail's (equal to the head's
            // under Strict, where batches are simultaneous).
            last_time = batch.last().expect("batch has a head").time;
            match head {
                Ev::StartRound { .. } => {
                    // Pure scheduling — no compute worth parallelizing;
                    // processed in pop order like the sequential loop.
                    for s in batch {
                        let Ev::StartRound { node, round, epoch } = s.event else {
                            unreachable!("batches are homogeneous by class")
                        };
                        pending_work -= 1;
                        if !lifecycle.is_current(node, epoch) {
                            continue;
                        }
                        let (_, active_set, _) = ctx_for!(round, s.time);
                        let active = active_set[node];
                        let end = s.time.plus(compute_time[node]);
                        pending_work += 1;
                        if active {
                            queue.push(
                                end,
                                prio(RANK_TRAIN, node),
                                Ev::TrainDone { node, round, epoch },
                            );
                        } else {
                            // Idle through the round window; no train, no I/O.
                            queue.push(
                                end,
                                prio(RANK_MIX, node),
                                Ev::Mix {
                                    node,
                                    round,
                                    trained: false,
                                    epoch,
                                },
                            );
                        }
                    }
                }
                Ev::TrainDone { .. } => {
                    let wall_start = run_wall.elapsed();
                    // Propose: charge the pops, filter stale epochs, and
                    // resolve round contexts up front (the cache is only
                    // touched here, sequentially).
                    let mut meta: Vec<(usize, usize, u64, Option<AttackBehavior>, SimTime)> =
                        Vec::new();
                    let mut items: Vec<(usize, TrainItem)> = Vec::new();
                    for s in batch {
                        let Ev::TrainDone { node, round, epoch } = s.event else {
                            unreachable!("batches are homogeneous by class")
                        };
                        pending_work -= 1;
                        if !lifecycle.is_current(node, epoch) {
                            continue;
                        }
                        let (topo, active, avoided) = ctx_for!(round, s.time);
                        // In lockstep every earlier round has passed its
                        // barrier, so the barrier clock reads this round's
                        // start.
                        let attack_time = barrier_clock.as_ref().map_or(s.time, BarrierClock::now);
                        let attack = attack_timeline.behavior_at(node, attack_time);
                        meta.push((node, round, epoch, attack, s.time));
                        items.push((
                            node,
                            TrainItem {
                                round,
                                at: s.time,
                                topo,
                                active,
                                avoided: avoided.get(node).copied().unwrap_or(0),
                                attack,
                            },
                        ));
                    }
                    let width = items.len() as u32;
                    let queue_depth = queue.len() as u32;
                    // Train batches may span rounds (the class ignores the
                    // round); the batch record reports the head's.
                    let Ev::TrainDone {
                        round: batch_round, ..
                    } = head
                    else {
                        unreachable!("batches are homogeneous by class")
                    };
                    let propose_done = run_wall.elapsed();
                    let tau = self.config.local_steps;
                    let bs = self.config.batch_size;
                    let lr = self.config.lr;
                    let atk_seed = self.config.seed ^ ATTACK_SALT;
                    let links = &links;
                    // Execute: τ SGD steps and message building on the
                    // worker pool. Everything a handler would do to shared
                    // state — mailbox appends, metering, the Mix schedule —
                    // is buffered into the proposal instead.
                    let proposals = par_batch(
                        &mut self.nodes,
                        &mut self.arena,
                        items,
                        threads,
                        |node, state, params, item| {
                            let neighbors = Self::active_neighbors(&item.topo, &item.active, node);
                            train_steps(state, params, tau, bs, lr);
                            // Byzantine nodes train honestly but build their
                            // messages from a perturbed copy.
                            let outbound = if let Some(behavior) = item.attack {
                                let mut tainted = params.to_vec();
                                jwins_adversary::apply_behavior(
                                    behavior,
                                    atk_seed,
                                    node,
                                    item.round,
                                    &mut tainted,
                                );
                                state
                                    .strategy
                                    .make_outbound(item.round, &tainted, &neighbors)?
                            } else {
                                state
                                    .strategy
                                    .make_outbound(item.round, params, &neighbors)?
                            };
                            state.last_alpha = state.strategy.last_alpha();
                            // Serialize over the uplink one message at a
                            // time: the k-th transmission starts when the
                            // (k-1)-th has left, and arrives one link
                            // latency after its last byte.
                            let mut departure = item.at;
                            let mut sends = Vec::with_capacity(neighbors.len());
                            let mut buffer_send =
                                |to: usize,
                                 msg: crate::strategy::OutMessage,
                                 departure: &mut SimTime| {
                                    let link = links.link(node, to, link_seed);
                                    let bytes = msg.bytes.len() as u64;
                                    let tx = link.serialize_secs(bytes);
                                    sends.push(PendingSend {
                                        from: node,
                                        to,
                                        payload: msg.bytes,
                                        breakdown: msg.breakdown,
                                        sent: item.at,
                                        arrives: departure.after_secs(tx + link.latency_s),
                                        sent_round: item.round,
                                    });
                                    *departure = departure.after_secs(tx);
                                };
                            // Savings accounting: the bytes this node would
                            // have pushed to its dead base-graph neighbours
                            // had repair not removed them (one message per
                            // avoided edge, at this round's message size).
                            let per_msg_bytes = match &outbound {
                                Outbound::Broadcast(msg) => msg.bytes.len() as u64,
                                Outbound::PerEdge(messages) => {
                                    let (count, total) = messages
                                        .iter()
                                        .flatten()
                                        .fold((0u64, 0u64), |(c, t), m| {
                                            (c + 1, t + m.bytes.len() as u64)
                                        });
                                    total.checked_div(count).unwrap_or(0)
                                }
                            };
                            match outbound {
                                Outbound::Broadcast(msg) => {
                                    for &to in &neighbors {
                                        buffer_send(to, msg.clone(), &mut departure);
                                    }
                                }
                                Outbound::PerEdge(messages) => {
                                    if messages.len() != neighbors.len() {
                                        return Err(JwinsError::Protocol(
                                            "per-edge message count mismatches neighbour count",
                                        ));
                                    }
                                    for (&to, msg) in neighbors.iter().zip(messages) {
                                        if let Some(msg) = msg {
                                            buffer_send(to, msg, &mut departure);
                                        }
                                    }
                                }
                            }
                            Ok(TrainProposal {
                                sends,
                                mix_at: departure,
                                alpha: state.last_alpha,
                                saved_bytes: item.avoided * per_msg_bytes,
                            })
                        },
                    )?;
                    let execute_done = run_wall.elapsed();
                    // Commit in pop order: mailbox append order, loss-model
                    // link sequences and the Mix schedule replay the
                    // sequential interleaving exactly.
                    for ((node, round, epoch, attack, at), proposal) in
                        meta.into_iter().zip(proposals)
                    {
                        tracer.emit(TraceEvent::Train {
                            t_ns: at.0,
                            node: node as u32,
                            round: round as u32,
                            compute_ns: compute_time[node].0,
                        });
                        if let Some(b) = attack {
                            attacks_injected += 1;
                            tracer.emit(TraceEvent::AttackInject {
                                t_ns: at.0,
                                node: node as u32,
                                round: round as u32,
                                kind: attack_kind(b),
                            });
                        }
                        if let Some(clock) = barrier_clock.as_mut() {
                            let bytes = proposal.sends.iter().map(|s| s.payload.len() as u64).sum();
                            clock.sent(bytes);
                        }
                        self.network.send_batch(proposal.sends);
                        bandwidth_saved += proposal.saved_bytes;
                        current_alpha[node] = proposal.alpha;
                        if self.config.record_alphas {
                            alpha_rows[round][node] = proposal.alpha;
                        }
                        pending_work += 1;
                        queue.push(
                            proposal.mix_at,
                            prio(RANK_MIX, node),
                            Ev::Mix {
                                node,
                                round,
                                trained: true,
                                epoch,
                            },
                        );
                    }
                    if width > 0 {
                        tracer.emit(TraceEvent::ExecuteBatch {
                            t_ns: time.0,
                            class: BatchClass::Train,
                            round: batch_round as u32,
                            width,
                            queue_depth,
                            wall_start_ns: wall_start.as_nanos() as u64,
                            propose_ns: (propose_done - wall_start).as_nanos() as u64,
                            execute_ns: (execute_done - propose_done).as_nanos() as u64,
                            commit_ns: (run_wall.elapsed() - execute_done).as_nanos() as u64,
                        });
                    }
                }
                Ev::Mix { .. } => {
                    let wall_start = run_wall.elapsed();
                    // Propose: charge the pops, filter stale epochs, and
                    // resolve topologies for the trained mixes (idle ones
                    // touch nothing shared until commit).
                    let mut live: Vec<(usize, usize, bool, u64, SimTime)> = Vec::new();
                    for s in batch {
                        let Ev::Mix {
                            node,
                            round,
                            trained,
                            epoch,
                        } = s.event
                        else {
                            unreachable!("batches are homogeneous by class")
                        };
                        pending_work -= 1;
                        if !lifecycle.is_current(node, epoch) {
                            continue;
                        }
                        live.push((node, round, trained, epoch, s.time));
                    }
                    let mut items: Vec<(usize, MixItem)> = Vec::new();
                    for &(node, round, trained, _, at) in &live {
                        if trained {
                            let (topo, _, _) = ctx_for!(round, at);
                            items.push((node, MixItem { round, at, topo }));
                        }
                    }
                    let width = items.len() as u32;
                    let queue_depth = queue.len() as u32;
                    // Mix classes encode the round, so the batch is
                    // single-round by construction.
                    let Ev::Mix {
                        round: batch_round, ..
                    } = head
                    else {
                        unreachable!("batches are homogeneous by class")
                    };
                    let propose_done = run_wall.elapsed();
                    let network = &self.network;
                    // Execute: drain and aggregate on the worker pool.
                    // Mailboxes are per-node, so disjoint drains cannot
                    // race; expiry counters and the shared staleness
                    // accumulators are deferred into the proposal because
                    // float sums must be committed in pop order — and not
                    // at all for events discarded by an early stop.
                    let proposals = par_batch(
                        &mut self.nodes,
                        &mut self.arena,
                        items,
                        threads,
                        |node, state, params, item| {
                            let drained = network.drain(node, item.at, ttl);
                            let (inbox, mut expired) = (drained.envelopes, drained.expired);
                            let neighbors = item.topo.graph.neighbors(node);
                            let mut received = Vec::with_capacity(inbox.len());
                            let mut absorbed = 0.0f64;
                            let mut staleness_terms = Vec::with_capacity(inbox.len());
                            for env in &inbox {
                                // A message from a node that is no longer a
                                // neighbour under this round's topology
                                // carries no mixing weight; drop it (dynamic
                                // graphs only — static topologies never hit
                                // this).
                                let Ok(pos) = neighbors.binary_search(&env.from) else {
                                    continue;
                                };
                                let base = item.topo.weights.neighbor_weights(node)[pos];
                                let factor = if has_cap {
                                    staleness.weight_factor(
                                        env.age_rounds(item.round),
                                        env.age_at(item.at).as_secs_f64(),
                                    )
                                } else {
                                    1.0
                                };
                                if factor == 0.0
                                    && matches!(staleness.over_cap, jwins_fault::CapAction::Drop)
                                {
                                    // Over the staleness cap with a Drop
                                    // action: never decoded, counted as
                                    // expired. The absent weight
                                    // renormalizes inside the strategy's
                                    // partial averaging, exactly like a
                                    // lost message. (A Decay factor that
                                    // *underflows* to zero is not a drop:
                                    // the message stays in the mix at
                                    // weight zero and its whole mass moves
                                    // to the self-weight below.)
                                    expired += 1;
                                    continue;
                                }
                                // Down-weighted mass moves to the
                                // self-weight so the effective mixing row
                                // stays stochastic (factor 1.0 keeps the
                                // weight bit-unchanged).
                                let (weight, moved) = jwins_fault::apply_factor(base, factor);
                                absorbed += moved;
                                staleness_terms.push((
                                    env.from,
                                    env.sent_round,
                                    item.at.since(env.sent).as_secs_f64(),
                                ));
                                received.push(ReceivedMessage {
                                    from: env.from,
                                    round: env.sent_round,
                                    weight,
                                    edge_weight: base,
                                    bytes: &env.payload,
                                });
                            }
                            let mut self_weight = item.topo.weights.self_weight(node);
                            if absorbed > 0.0 {
                                self_weight += absorbed;
                            }
                            let mixed = state.strategy.aggregate(
                                item.round,
                                params,
                                self_weight,
                                &received,
                            )?;
                            params.copy_from_slice(&mixed);
                            state.model.set_params(params);
                            Ok(MixProposal {
                                staleness: staleness_terms,
                                absorbed,
                                expired,
                            })
                        },
                    )?;
                    let execute_done = run_wall.elapsed();
                    // Commit in pop order. An early stop breaks out: since
                    // a batch is single-round and the stop fires at the
                    // round's n-th completer, the trigger is necessarily
                    // the batch's last item — the break just keeps the
                    // discard-the-rest invariant explicit.
                    let mut proposals = proposals.into_iter();
                    for (node, round, trained, epoch, at) in live {
                        if trained {
                            let p = proposals.next().expect("one proposal per trained mix");
                            self.network.record_expired(node, p.expired);
                            if p.expired > 0 {
                                tracer.emit(TraceEvent::MsgExpire {
                                    t_ns: at.0,
                                    node: node as u32,
                                    round: round as u32,
                                    count: p.expired,
                                });
                            }
                            // Fold per message, not per event: the same
                            // non-associative float grouping as one-at-a-
                            // time execution.
                            for &(from, sent_round, s) in &p.staleness {
                                total_staleness_s += s;
                                tracer.emit(TraceEvent::MsgMixed {
                                    t_ns: at.0,
                                    node: node as u32,
                                    from: from as u32,
                                    round: round as u32,
                                    sent_round: sent_round as u32,
                                    staleness_s: s,
                                });
                            }
                            mixed_messages += p.staleness.len() as u64;
                            if p.absorbed > 0.0 {
                                downweight_mass += p.absorbed;
                            }
                            // Drain unconditionally (take-and-reset): the
                            // drain itself is part of the deterministic
                            // schedule whether or not any sink listens.
                            if let Some(ps) = self.nodes[node].strategy.pairing_stats() {
                                tracer.emit(TraceEvent::StrategyPairing {
                                    t_ns: at.0,
                                    node: node as u32,
                                    round: round as u32,
                                    paired: ps.paired,
                                    fresh_resets: ps.fresh_resets,
                                    ignored: ps.ignored,
                                });
                            }
                            if let Some(rs) = self.nodes[node].strategy.robust_stats() {
                                mass_clipped += rs.mass;
                                tracer.emit(TraceEvent::RobustClip {
                                    t_ns: at.0,
                                    node: node as u32,
                                    round: round as u32,
                                    clipped: rs.clipped,
                                    mass: rs.mass,
                                });
                            }
                        } else if self.config.record_alphas {
                            // Idle rounds carry the node's previous
                            // fraction.
                            alpha_rows[round][node] = current_alpha[node];
                        }
                        rounds_passed[node] = round + 1;
                        if pass_round!(round, at) {
                            break;
                        }
                        if round + 1 < rounds {
                            pending_work += 1;
                            queue.push(
                                at,
                                prio(RANK_START, node),
                                Ev::StartRound {
                                    node,
                                    round: round + 1,
                                    epoch,
                                },
                            );
                        }
                    }
                    if width > 0 {
                        tracer.emit(TraceEvent::ExecuteBatch {
                            t_ns: time.0,
                            class: BatchClass::Mix,
                            round: batch_round as u32,
                            width,
                            queue_depth,
                            wall_start_ns: wall_start.as_nanos() as u64,
                            propose_ns: (propose_done - wall_start).as_nanos() as u64,
                            execute_ns: (execute_done - propose_done).as_nanos() as u64,
                            commit_ns: (run_wall.elapsed() - execute_done).as_nanos() as u64,
                        });
                    }
                }
                Ev::Fault { event, rejoin } => match event {
                    LifecycleEvent::Crash { node } => {
                        if !lifecycle.crash(node) {
                            continue;
                        }
                        // The host dies with its inbox and open connections:
                        // everything queued for it and everything it still
                        // has in flight is destroyed.
                        let killed_inbox = self.network.purge(PurgeScope::Inbox { node }).messages;
                        let killed_in_flight = self
                            .network
                            .purge(PurgeScope::InFlightFrom {
                                from: node,
                                cutoff: time,
                            })
                            .messages;
                        let permanent = recoveries_scheduled[node] == 0;
                        tracer.emit(TraceEvent::NodeCrash {
                            t_ns: time.0,
                            node: node as u32,
                            epoch: lifecycle.epoch(node),
                            permanent,
                        });
                        if killed_inbox > 0 {
                            tracer.emit(TraceEvent::MsgKill {
                                t_ns: time.0,
                                node: node as u32,
                                count: killed_inbox,
                                reason: KillReason::CrashInbox,
                            });
                        }
                        if killed_in_flight > 0 {
                            tracer.emit(TraceEvent::MsgKill {
                                t_ns: time.0,
                                node: node as u32,
                                count: killed_in_flight,
                                reason: KillReason::CrashInFlight,
                            });
                        }
                        // A crash with no scheduled recovery is permanent:
                        // no handshake with this node can ever complete, so
                        // every other node drops its per-edge strategy
                        // state for it — otherwise stale warm starts would
                        // survive across lifecycle epochs and the state
                        // would leak for the rest of the run.
                        if permanent {
                            for (i, state) in self.nodes.iter_mut().enumerate() {
                                if i != node {
                                    state.strategy.forget_edge(node);
                                }
                            }
                        }
                        // Survivors re-wire around the hole: every round in
                        // progress is re-resolved against the shrunken live
                        // set, and sends on repair-removed edges die.
                        if repair_on {
                            repair_refresh!(time);
                        }
                        // Abandon the round in progress (its scheduled
                        // events are now stale via the epoch bump) so the
                        // cluster-wide round completion still counts to n.
                        let round = rounds_passed[node];
                        if round < rounds {
                            rounds_passed[node] = round + 1;
                            tracer.emit(TraceEvent::RoundAbandon {
                                t_ns: time.0,
                                node: node as u32,
                                round: round as u32,
                            });
                        }
                        // A scheduled recovery that will resume training
                        // keeps the checkpoint cadence alive through the
                        // outage.
                        if recoveries_scheduled[node] > 0 && rounds_passed[node] < rounds {
                            productive_recoveries += 1;
                        }
                        if round < rounds {
                            // A solo event is its whole batch: on early stop
                            // there is nothing further to discard.
                            let _ = pass_round!(round, time);
                        }
                    }
                    LifecycleEvent::Recover { node } => {
                        recoveries_scheduled[node] -= 1;
                        if lifecycle.is_alive(node) {
                            continue;
                        }
                        // Pick the re-sync donor *before* marking the node
                        // alive, so the tracker's lowest-indexed-live query
                        // cannot hand the rejoiner its own stale model.
                        let donor = if rejoin == RejoinMode::Resync {
                            lifecycle.first_alive()
                        } else {
                            None
                        };
                        lifecycle.recover(node);
                        tracer.emit(TraceEvent::NodeRejoin {
                            t_ns: time.0,
                            node: node as u32,
                            epoch: lifecycle.epoch(node),
                            resync_from: donor.map(|d| d as u32),
                        });
                        if rounds_passed[node] < rounds {
                            productive_recoveries -= 1;
                        }
                        // Deliveries that completed while the host was down
                        // hit a dead machine; still-in-flight tails land on
                        // the recovered host and survive.
                        let killed = self
                            .network
                            .purge(PurgeScope::ArrivedBy {
                                node,
                                deadline: time,
                            })
                            .messages;
                        if killed > 0 {
                            tracer.emit(TraceEvent::MsgKill {
                                t_ns: time.0,
                                node: node as u32,
                                count: killed,
                                reason: KillReason::RejoinArrived,
                            });
                        }
                        // Re-synced rejoin: adopt the current model of the
                        // lowest-indexed live peer (deterministic); fall
                        // back to a warm restart if fully alone.
                        if let Some(donor) = donor {
                            self.arena.copy_node(donor, node);
                            let params = self.arena.node(node);
                            let state = &mut self.nodes[node];
                            state.model.set_params(params);
                            state.strategy.init(params);
                        }
                        // Re-admission runs through the same repair policy:
                        // in-progress rounds re-resolve with the node back
                        // in the live set (repair-added detour edges drop
                        // out; their in-flight messages are invalidated).
                        if repair_on {
                            repair_refresh!(time);
                        }
                        let round = rounds_passed[node];
                        if round < rounds {
                            pending_work += 1;
                            queue.push(
                                time,
                                prio(RANK_START, node),
                                Ev::StartRound {
                                    node,
                                    round,
                                    epoch: lifecycle.epoch(node),
                                },
                            );
                        }
                    }
                },
                Ev::EvalTick => {
                    // Training is over and no down node will resume it:
                    // swallow the trailing tick instead of emitting a
                    // checkpoint dated after the run's real end.
                    if pending_work == 0 && productive_recoveries == 0 {
                        continue;
                    }
                    let interval =
                        eval_interval_s.expect("EvalTick only scheduled with an interval");
                    let (metrics, per_node) = self.evaluate()?;
                    let mean_staleness_s = if mixed_messages == 0 {
                        0.0
                    } else {
                        total_staleness_s / mixed_messages as f64
                    };
                    let record = self.snapshot(
                        rounds_run.saturating_sub(1),
                        &metrics,
                        per_node,
                        time.as_secs_f64(),
                        mean_staleness_s,
                        FaultTelemetry {
                            crashes: lifecycle.crashes(),
                            rejoins: lifecycle.recoveries(),
                            downweight_mass,
                            edges_rewired,
                            bandwidth_saved_bytes: bandwidth_saved,
                            attacks_injected,
                            mass_clipped,
                        },
                        true,
                    );
                    tracer.emit(TraceEvent::Eval {
                        t_ns: time.0,
                        round: rounds_run.saturating_sub(1) as u32,
                        checkpoint: true,
                        accuracy: record.test_accuracy,
                    });
                    records.push(record);
                    // Keep ticking while training events remain or a down
                    // node will resume training on recovery — fault events
                    // scheduled past the end of training must not prolong
                    // the cadence. Checkpoints never trigger early stop.
                    if pending_work > 0 || productive_recoveries > 0 {
                        queue.push(time.after_secs(interval), prio(RANK_EVAL, 0), Ev::EvalTick);
                    }
                }
            }
        }

        // Nodes still down at the end never recovered to purge the
        // deliveries that piled up at their dead hosts; destroy them now so
        // the traffic accounting honours the crash semantics (no-fault runs
        // have every node alive, so this cannot disturb their totals).
        for node in 0..n {
            if !lifecycle.is_alive(node) {
                self.network.purge(PurgeScope::Inbox { node });
            }
        }

        if reached_target.is_none() && rounds_run < rounds {
            // A node stayed crashed to the end, so later rounds never
            // completed cluster-wide and their evaluation points never
            // fired. Close the run with a final checkpoint at the last
            // event time so the result still reflects the trained models.
            let (metrics, per_node) = self.evaluate()?;
            let mean_staleness_s = if mixed_messages == 0 {
                0.0
            } else {
                total_staleness_s / mixed_messages as f64
            };
            let record = self.snapshot(
                rounds_run.saturating_sub(1),
                &metrics,
                per_node,
                last_time.as_secs_f64(),
                mean_staleness_s,
                FaultTelemetry {
                    crashes: lifecycle.crashes(),
                    rejoins: lifecycle.recoveries(),
                    downweight_mass,
                    edges_rewired,
                    bandwidth_saved_bytes: bandwidth_saved,
                    attacks_injected,
                    mass_clipped,
                },
                true,
            );
            tracer.emit(TraceEvent::Eval {
                t_ns: last_time.0,
                round: rounds_run.saturating_sub(1) as u32,
                checkpoint: true,
                accuracy: record.test_accuracy,
            });
            records.push(record);
        }

        tracer.emit(TraceEvent::RunEnd {
            t_ns: last_time.0,
            rounds_run: rounds_run as u32,
            queue_depth_hwm: queue_hwm,
        });

        let alpha_history: Vec<Vec<f64>> = alpha_rows.into_iter().take(rounds_run).collect();
        Ok(RunResult {
            strategy: strategy_name,
            records,
            total_traffic: self.network.total_stats(),
            rounds_run,
            reached_target,
            alpha_history,
            measured_latency_s: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::FullSharing;
    use jwins_data::images::{cifar_like, ImageConfig};
    use jwins_nn::models::mlp_classifier;
    use jwins_topology::dynamic::StaticTopology;

    fn tiny_trainer(rounds: usize, lr: f32) -> Trainer<jwins_nn::models::ImageClassifier> {
        let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = rounds;
        cfg.lr = lr;
        cfg.eval_every = 0;
        Trainer::builder(cfg)
            .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
            .test_set(data.test)
            .nodes(data.node_train, |_| {
                (
                    mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                    Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                )
            })
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_shapes() {
        let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
        // Topology size mismatch: 3-node topology, 4 nodes.
        let err = Trainer::builder(TrainConfig::quick_test())
            .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
            .test_set(data.test.clone())
            .nodes(data.node_train[..3].to_vec(), |_| {
                (
                    mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                    Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                )
            })
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn all_nodes_start_identical() {
        let trainer = tiny_trainer(1, 0.05);
        let p0 = trainer.node_params(0).to_vec();
        for i in 1..trainer.node_count() {
            assert_eq!(trainer.node_params(i), &p0[..]);
        }
    }

    #[test]
    fn consensus_on_pure_gossip() {
        // lr so small that gradients are negligible: full sharing must
        // contract distinct initial models toward their mean.
        let mut trainer = tiny_trainer(25, 1e-9);
        let d = trainer.node_params(0).len();
        for i in 0..4 {
            let params: Vec<f32> = (0..d).map(|k| ((k + i * 13) as f32 * 0.01).sin()).collect();
            trainer.set_node_params(i, &params);
        }
        let before_spread = {
            let p0 = trainer.node_params(0).to_vec();
            let p1 = trainer.node_params(1).to_vec();
            p0.iter()
                .zip(&p1)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        let mut means = vec![0.0f64; d];
        for i in 0..4 {
            for (m, &v) in means.iter_mut().zip(trainer.node_params(i)) {
                *m += f64::from(v) / 4.0;
            }
        }
        let result = run_and_reclaim(trainer);
        let (after_params, _) = result;
        let spread = (0..d)
            .map(|k| {
                let vals: Vec<f32> = after_params.iter().map(|p| p[k]).collect();
                let max = vals.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let min = vals.iter().copied().fold(f32::INFINITY, f32::min);
                max - min
            })
            .fold(0.0f32, f32::max);
        assert!(
            spread < before_spread * 0.05,
            "no contraction: spread {spread} vs initial {before_spread}"
        );
        // Doubly stochastic mixing preserves the mean.
        for k in 0..d {
            let mean_after: f64 = after_params.iter().map(|p| f64::from(p[k])).sum::<f64>() / 4.0;
            assert!((mean_after - means[k]).abs() < 1e-4);
        }
    }

    /// Runs a trainer and returns final per-node params plus the result —
    /// exercises the event loop while keeping node state inspectable
    /// (`Trainer::run` consumes the trainer).
    fn run_and_reclaim(
        mut trainer: Trainer<jwins_nn::models::ImageClassifier>,
    ) -> (Vec<Vec<f32>>, RunResult) {
        let result = trainer.run_event_driven().unwrap();
        let params: Vec<Vec<f32>> = (0..trainer.node_count())
            .map(|i| trainer.node_params(i).to_vec())
            .collect();
        (params, result)
    }

    #[test]
    fn training_reduces_loss_and_counts_bytes() {
        let trainer = tiny_trainer(12, 0.1);
        let result = trainer.run().unwrap();
        assert_eq!(result.rounds_run, 12);
        let last = result.final_record().unwrap();
        assert!(last.test_accuracy > 0.3, "accuracy {}", last.test_accuracy);
        assert!(result.total_traffic.bytes_sent > 0);
        assert!(last.cum_bytes_per_node > 0.0);
        assert!(last.sim_time_s > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let r1 = tiny_trainer(4, 0.1).run().unwrap();
        let r2 = tiny_trainer(4, 0.1).run().unwrap();
        assert_eq!(
            r1.final_record().unwrap().test_accuracy,
            r2.final_record().unwrap().test_accuracy
        );
        assert_eq!(r1.total_traffic.bytes_sent, r2.total_traffic.bytes_sent);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mk = |threads: usize| {
            let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
            let mut cfg = TrainConfig::quick_test();
            cfg.rounds = 4;
            cfg.lr = 0.1;
            cfg.threads = threads;
            Trainer::builder(cfg)
                .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
                .test_set(data.test)
                .nodes(data.node_train, |_| {
                    (
                        mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                        Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                    )
                })
                .build()
                .unwrap()
        };
        let a = mk(1).run().unwrap();
        let b = mk(4).run().unwrap();
        assert_eq!(
            a.final_record().unwrap().test_accuracy,
            b.final_record().unwrap().test_accuracy
        );
        assert_eq!(a.total_traffic.bytes_sent, b.total_traffic.bytes_sent);
    }

    #[test]
    fn node_factory_receives_consecutive_indices() {
        // Regression: the factory index is the engine's node id. Strategies
        // like PowerGossip orient edges by it, so 0, 2, 4, … (the old bug)
        // silently desynchronized per-edge state between endpoints.
        let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
        let mut seen = Vec::new();
        let _ = Trainer::builder(TrainConfig::quick_test())
            .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
            .test_set(data.test)
            .nodes(data.node_train, |node| {
                seen.push(node);
                (
                    mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                    Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                )
            })
            .build()
            .unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn per_edge_strategy_trains_end_to_end() {
        use crate::strategies::{PowerGossip, PowerGossipConfig};
        let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = 15;
        cfg.lr = 0.1;
        let trainer = Trainer::builder(cfg)
            .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
            .test_set(data.test)
            .nodes(data.node_train, |node| {
                (
                    mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                    Box::new(PowerGossip::new(PowerGossipConfig::default(), node, 42))
                        as Box<dyn ShareStrategy>,
                )
            })
            .build()
            .unwrap();
        let result = trainer.run().unwrap();
        let last = result.final_record().unwrap();
        assert!(last.test_accuracy > 0.3, "accuracy {}", last.test_accuracy);
        // Per-edge rank-1 messages are far smaller than the model.
        let model_bytes = (2 * 8 * 8 * 8 + 8 + 8 * 4 + 4) * 4; // rough
        let per_round_per_edge = result.total_traffic.bytes_sent as f64 / (15.0 * 4.0 * 2.0);
        assert!(
            per_round_per_edge < model_bytes as f64 / 4.0,
            "per-edge bytes {per_round_per_edge} not small vs model {model_bytes}"
        );
    }

    #[test]
    fn lossy_links_still_train_broadcast_strategies() {
        let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = 12;
        cfg.lr = 0.1;
        cfg.message_loss = 0.2;
        let trainer = Trainer::builder(cfg)
            .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
            .test_set(data.test)
            .nodes(data.node_train, |_| {
                (
                    mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                    Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                )
            })
            .build()
            .unwrap();
        let result = trainer.run().unwrap();
        // 20% of deliveries vanish; renormalized averaging shrugs it off.
        assert!(result.total_traffic.messages_dropped > 0);
        assert!(
            result.total_traffic.bytes_received < result.total_traffic.bytes_sent,
            "drops must show up as a sent/received gap"
        );
        assert!(result.final_record().unwrap().test_accuracy > 0.3);
    }

    #[test]
    fn scripted_outage_pauses_node_traffic() {
        use crate::participation::{Outage, ScriptedOutages};
        let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = 6;
        cfg.lr = 0.05;
        let run = |outages: ScriptedOutages| {
            Trainer::builder(cfg.clone())
                .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
                .participation(outages)
                .test_set(data.test.clone())
                .nodes(data.node_train.clone(), |_| {
                    (
                        mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                        Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                    )
                })
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let full = run(ScriptedOutages::default());
        let churned = run(ScriptedOutages::default().with_outage(Outage::new(3, 1, 5)));
        // The absent node neither sends nor receives for 4 of 6 rounds.
        assert!(
            churned.total_traffic.bytes_sent < full.total_traffic.bytes_sent,
            "{} vs {}",
            churned.total_traffic.bytes_sent,
            full.total_traffic.bytes_sent
        );
        // Training still completes and produces a usable model.
        assert_eq!(churned.rounds_run, 6);
        assert!(churned.final_record().unwrap().test_accuracy > 0.2);
    }

    #[test]
    fn sparsifying_strategy_survives_churn() {
        use crate::participation::RandomDropout;
        use crate::strategies::{Jwins, JwinsConfig};
        let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = 10;
        cfg.lr = 0.05;
        let trainer = Trainer::builder(cfg)
            .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
            .participation(RandomDropout::new(0.4, 11))
            .test_set(data.test)
            .nodes(data.node_train, |node| {
                (
                    mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                    Box::new(Jwins::new(JwinsConfig::paper_default(), 100 + node as u64))
                        as Box<dyn ShareStrategy>,
                )
            })
            .build()
            .unwrap();
        // Protocol bookkeeping (pending rounds, accumulation resets) must
        // tolerate nodes skipping rounds entirely.
        let result = trainer.run().unwrap();
        assert_eq!(result.rounds_run, 10);
    }

    #[test]
    fn event_driven_degenerate_profile_matches_sync_bitwise() {
        use jwins_sim::HeterogeneityProfile;
        let build = |execution: ExecutionMode| {
            let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
            let mut cfg = TrainConfig::quick_test();
            cfg.rounds = 8;
            cfg.lr = 0.1;
            cfg.eval_every = 2;
            cfg.execution = execution;
            cfg.heterogeneity = HeterogeneityProfile::default();
            Trainer::builder(cfg)
                .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
                .test_set(data.test)
                .nodes(data.node_train, |_| {
                    (
                        mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                        Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                    )
                })
                .build()
                .unwrap()
        };
        let sync = build(ExecutionMode::BulkSynchronous).run().unwrap();
        let event = build(ExecutionMode::EventDriven).run().unwrap();
        assert_eq!(sync.rounds_run, event.rounds_run);
        assert_eq!(sync.total_traffic, event.total_traffic);
        assert_eq!(sync.records.len(), event.records.len());
        for (s, e) in sync.records.iter().zip(&event.records) {
            assert_eq!(s.round, e.round);
            assert_eq!(s.train_loss.to_bits(), e.train_loss.to_bits());
            assert_eq!(s.test_loss.to_bits(), e.test_loss.to_bits());
            assert_eq!(s.test_accuracy.to_bits(), e.test_accuracy.to_bits());
            assert_eq!(s.cum_bytes_per_node, e.cum_bytes_per_node);
            // Instant links leave nothing in flight, so nothing is stale.
            assert_eq!(e.mean_staleness_s, 0.0);
        }
    }

    #[test]
    fn stragglers_slow_the_clock_and_create_staleness() {
        use jwins_sim::HeterogeneityProfile;
        let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = 6;
        cfg.lr = 0.1;
        cfg.eval_every = 0;
        cfg.time_model.compute_s = 1.0;
        cfg.execution = ExecutionMode::EventDriven;
        // One node 4x slower over thin links: messages now spend real time
        // in flight and fast nodes mix stale models.
        cfg.heterogeneity = HeterogeneityProfile::stragglers(0.25, 4.0, 0.01, 64_000.0);
        let trainer = Trainer::builder(cfg)
            .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
            .test_set(data.test)
            .nodes(data.node_train, |_| {
                (
                    mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                    Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                )
            })
            .build()
            .unwrap();
        let result = trainer.run().unwrap();
        assert_eq!(result.rounds_run, 6);
        let last = result.final_record().unwrap();
        // The straggler bounds the run: at least rounds * slowed compute.
        assert!(last.sim_time_s >= 6.0 * 4.0, "sim time {}", last.sim_time_s);
        assert!(last.mean_staleness_s > 0.0, "expected stale mixes");
        assert!(result.total_traffic.bytes_sent > 0);
    }

    #[test]
    fn power_gossip_runs_async_under_real_heterogeneity() {
        use crate::strategies::{PowerGossip, PowerGossipConfig};
        use jwins_sim::HeterogeneityProfile;
        // Until the per-edge state was round-versioned, the engine refused
        // to run PowerGossip under any non-degenerate profile. Now the
        // async run must complete, stay finite, and actually learn.
        let build = |heterogeneity: HeterogeneityProfile| {
            let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
            let mut cfg = TrainConfig::quick_test();
            cfg.rounds = 15;
            cfg.lr = 0.1;
            cfg.eval_every = 1;
            cfg.execution = ExecutionMode::EventDriven;
            cfg.heterogeneity = heterogeneity;
            Trainer::builder(cfg)
                .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
                .test_set(data.test)
                .nodes(data.node_train, |node| {
                    (
                        mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                        Box::new(PowerGossip::new(PowerGossipConfig::default(), node, 42))
                            as Box<dyn ShareStrategy>,
                    )
                })
                .build()
                .unwrap()
        };
        let result = build(HeterogeneityProfile::stragglers(0.25, 4.0, 0.01, 1e6))
            .run()
            .expect("round-versioned PowerGossip runs under real heterogeneity");
        assert_eq!(result.rounds_run, 15);
        assert!(
            result
                .records
                .iter()
                .all(|r| r.test_accuracy.is_finite() && r.train_loss.is_finite()),
            "no corrupted state may leak into the metrics"
        );
        let first = result.records.first().unwrap();
        let last = result.final_record().unwrap();
        assert!(
            last.test_accuracy > first.test_accuracy,
            "async PowerGossip must improve: {} -> {}",
            first.test_accuracy,
            last.test_accuracy
        );
        assert!(
            last.mean_staleness_s > 0.0,
            "the profile must actually deliver stale messages"
        );
    }

    #[test]
    fn event_driven_replays_identically_and_ignores_thread_count() {
        use jwins_sim::HeterogeneityProfile;
        let run = |threads: usize| {
            let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
            let mut cfg = TrainConfig::quick_test();
            cfg.rounds = 5;
            cfg.lr = 0.1;
            cfg.threads = threads;
            cfg.eval_every = 1;
            cfg.execution = ExecutionMode::EventDriven;
            cfg.heterogeneity = HeterogeneityProfile::stragglers(0.5, 3.0, 0.002, 1.0e6);
            Trainer::builder(cfg)
                .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
                .test_set(data.test)
                .nodes(data.node_train, |_| {
                    (
                        mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                        Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                    )
                })
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let a = run(1);
        let b = run(1);
        let c = run(4);
        for other in [&b, &c] {
            assert_eq!(a.rounds_run, other.rounds_run);
            assert_eq!(a.total_traffic, other.total_traffic);
            assert_eq!(a.records.len(), other.records.len());
            for (x, y) in a.records.iter().zip(&other.records) {
                assert_eq!(x.test_accuracy.to_bits(), y.test_accuracy.to_bits());
                assert_eq!(x.train_loss.to_bits(), y.train_loss.to_bits());
                assert_eq!(x.sim_time_s.to_bits(), y.sim_time_s.to_bits());
                assert_eq!(x.mean_staleness_s.to_bits(), y.mean_staleness_s.to_bits());
            }
        }
    }

    #[test]
    fn repair_rewires_around_a_permanent_crash_and_saves_bytes() {
        use jwins_fault::{FaultConfig, FaultOutage, FaultPlan};
        use jwins_topology::repair::RepairPolicy;
        let run = |repair: RepairPolicy| {
            let data = cifar_like(&ImageConfig::tiny(), 8, 2, 5);
            let mut cfg = TrainConfig::quick_test();
            cfg.rounds = 6;
            cfg.lr = 0.1;
            cfg.eval_every = 1;
            cfg.execution = ExecutionMode::EventDriven;
            cfg.time_model.compute_s = 1.0;
            cfg.repair = repair;
            cfg.faults = FaultConfig {
                plan: FaultPlan::Scripted(vec![FaultOutage::new(2, 2.5, f64::INFINITY)]),
                ..FaultConfig::default()
            };
            Trainer::builder(cfg)
                .topology(StaticTopology::random_regular(8, 3, 3).unwrap())
                .test_set(data.test)
                .nodes(data.node_train, |_| {
                    (
                        mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                        Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                    )
                })
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let none = run(RepairPolicy::None);
        let repaired = run(RepairPolicy::DegreePreserving);
        let last_none = none.records.last().unwrap();
        let last_rep = repaired.records.last().unwrap();
        assert_eq!(last_none.edges_rewired, 0);
        assert_eq!(last_none.bandwidth_saved_bytes, 0);
        assert!(last_rep.edges_rewired > 0, "survivors re-wired");
        assert!(
            last_rep.bandwidth_saved_bytes > 0,
            "dead-edge sends avoided"
        );
        // Without repair the dead node's neighbours keep paying for it.
        assert!(
            repaired.total_traffic.bytes_sent < none.total_traffic.bytes_sent,
            "repair must reduce bytes: {} vs {}",
            repaired.total_traffic.bytes_sent,
            none.total_traffic.bytes_sent
        );
        // Per-node accuracies are reported for every node at every eval.
        assert_eq!(last_rep.per_node_accuracy.len(), 8);
        assert!(
            (last_rep.per_node_accuracy.iter().sum::<f64>() / 8.0 - last_rep.test_accuracy).abs()
                < 1e-9,
            "per-node accuracies are consistent with the cluster mean"
        );
    }

    #[test]
    fn early_stop_on_target() {
        let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
        let mut cfg = TrainConfig::quick_test();
        cfg.rounds = 50;
        cfg.lr = 0.1;
        cfg.eval_every = 1;
        cfg.target_accuracy = Some(0.3);
        let trainer = Trainer::builder(cfg)
            .topology(StaticTopology::random_regular(4, 2, 3).unwrap())
            .test_set(data.test)
            .nodes(data.node_train, |_| {
                (
                    mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                    Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
                )
            })
            .build()
            .unwrap();
        let result = trainer.run().unwrap();
        let hit = result
            .reached_target
            .expect("should reach 30% on tiny data");
        assert!(result.rounds_run < 50, "stopped at {}", result.rounds_run);
        assert_eq!(hit.round + 1, result.rounds_run);
    }
}
