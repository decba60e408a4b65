//! Integration tests for the event-driven simulation runtime.
//!
//! The hard guarantees of the event loop:
//!
//! 1. `ExecutionMode::BulkSynchronous` and `ExecutionMode::EventDriven`
//!    under a *degenerate* heterogeneity profile (uniform compute,
//!    instantaneous links) produce **bit-identical** runs apart from
//!    `sim_time_s` — same accuracies, losses, traffic, α history and
//!    target round — for every strategy, topology provider and
//!    perturbation in the equivalence table below, at 1 and 2 threads;
//! 2. the bulk-synchronous barrier clock charges
//!    `TimeModel::round_seconds(max bytes any node pushed)` per round and
//!    resolves virtual-time attack windows at each round's barrier start;
//! 3. with real heterogeneity the event loop stays **deterministic**:
//!    replays from the same seed are identical, worker-thread count never
//!    changes results, and staleness appears exactly when links/compute
//!    make messages late.

use jwins::config::{ExecutionMode, TrainConfig};
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::participation::RandomDropout;
use jwins::strategies::{
    ChocoConfig, ChocoSgd, FullSharing, Jwins, JwinsConfig, PowerGossip, PowerGossipConfig,
    QuantizedSharing, RandomModelWalk, RandomSampling,
};
use jwins::strategy::ShareStrategy;
use jwins_adversary::{AttackBehavior, AttackPlan, AttackTimeline, Robust};
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_nn::models::mlp_classifier;
use jwins_sim::{ComputeProfile, HeterogeneityProfile, LinkProfile, SimTime};
use jwins_topology::dynamic::{DynamicRegular, StaticTopology, TopologyProvider};
use jwins_topology::peer_sampling::{PeerSampling, PeerSamplingConfig};
use jwins_trace::{MemorySink, TraceEvent};

const NODES: usize = 6;

type StrategyFactory = fn(usize) -> Box<dyn ShareStrategy>;

/// Topology providers of the equivalence table.
#[derive(Debug, Clone, Copy)]
enum Topo {
    Static,
    Dynamic,
    PeerSampled,
}

/// The perturbation each equivalence case layers on the base run.
#[derive(Debug, Clone, Copy)]
enum Perturb {
    None,
    Loss,
    Dropout,
    Alphas,
    Target,
    /// An always-on attacker pair, screened by `Robust::NormClip` wherever
    /// the strategy supports robust aggregation.
    AttackNormClip,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    strategy: StrategyFactory,
    topo: Topo,
    perturb: Perturb,
}

impl Case {
    fn plain(strategy: StrategyFactory) -> Self {
        Self {
            strategy,
            topo: Topo::Static,
            perturb: Perturb::None,
        }
    }
}

fn topology(topo: Topo) -> Box<dyn TopologyProvider> {
    match topo {
        Topo::Static => Box::new(StaticTopology::random_regular(NODES, 2, 13).unwrap()),
        Topo::Dynamic => Box::new(DynamicRegular::new(NODES, 2, 13).unwrap()),
        Topo::PeerSampled => Box::new(PeerSampling::new(
            NODES,
            PeerSamplingConfig {
                view_size: 4,
                shuffle_len: 2,
                degree: 2,
            },
            13,
        )),
    }
}

/// Forwards to a boxed provider (the builder takes a concrete type).
struct Boxed(Box<dyn TopologyProvider>);

impl TopologyProvider for Boxed {
    fn nodes(&self) -> usize {
        self.0.nodes()
    }
    fn topology(&self, round: usize) -> jwins_topology::dynamic::RoundTopology {
        self.0.topology(round)
    }
    fn topology_for(
        &self,
        round: usize,
        live: &jwins_topology::LiveSet,
    ) -> jwins_topology::dynamic::RoundTopology {
        self.0.topology_for(round, live)
    }
    fn is_live_aware(&self) -> bool {
        self.0.is_live_aware()
    }
    fn is_dynamic(&self) -> bool {
        self.0.is_dynamic()
    }
}

fn run_once(
    execution: ExecutionMode,
    heterogeneity: HeterogeneityProfile,
    threads: usize,
    case: Case,
) -> RunResult {
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 11);
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = 8;
    cfg.lr = 0.1;
    cfg.eval_every = 2;
    cfg.threads = threads;
    cfg.execution = execution;
    cfg.heterogeneity = heterogeneity;
    match case.perturb {
        Perturb::None => {}
        Perturb::Loss => cfg.message_loss = 0.15,
        Perturb::Dropout => {}
        Perturb::Alphas => cfg.record_alphas = true,
        Perturb::Target => {
            cfg.eval_every = 1;
            cfg.target_accuracy = Some(0.3);
        }
        Perturb::AttackNormClip => {
            cfg.attack = AttackPlan::RandomFraction {
                fraction: 0.34,
                from_s: 0.0,
                until_s: f64::INFINITY,
                behavior: AttackBehavior::Scale { factor: -4.0 },
            };
            if (case.strategy)(0).supports_robust() {
                cfg.robust = Robust::NormClip { tau: 1.0 };
            }
        }
    }
    let mut builder = Trainer::builder(cfg)
        .topology(Boxed(topology(case.topo)))
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            (mlp_classifier(2 * 8 * 8, &[8], 4, 7), (case.strategy)(node))
        });
    if matches!(case.perturb, Perturb::Dropout) {
        builder = builder.participation(RandomDropout::new(0.3, 0xC4));
    }
    builder.build().unwrap().run().unwrap()
}

/// Panics unless the runs agree bit for bit on everything but
/// `sim_time_s`: the record streams, traffic, α history and target hit.
fn assert_bitwise_equal_modulo_time(sync: &RunResult, event: &RunResult, label: &str) {
    assert_eq!(sync.rounds_run, event.rounds_run, "{label}: rounds run");
    assert_eq!(sync.total_traffic, event.total_traffic, "{label}: traffic");
    assert_eq!(sync.records.len(), event.records.len(), "{label}: records");
    for (i, (s, e)) in sync.records.iter().zip(&event.records).enumerate() {
        assert_eq!(
            e.mean_staleness_s, 0.0,
            "{label}: degenerate runs are fresh"
        );
        // sim_time_s intentionally differs: the barrier clock charges
        // latency + max-bytes/bandwidth per round, the event clock charges
        // what its (here: instantaneous) links actually cost.
        let (mut s, mut e) = (s.clone(), e.clone());
        s.sim_time_s = 0.0;
        e.sim_time_s = 0.0;
        assert!(
            s.bits_eq(&e),
            "{label}: record {i} diverges:\n  {s:?}\nvs\n  {e:?}"
        );
    }
    assert_eq!(
        sync.alpha_history.len(),
        event.alpha_history.len(),
        "{label}: alpha history length"
    );
    for (round, (s, e)) in sync
        .alpha_history
        .iter()
        .zip(&event.alpha_history)
        .enumerate()
    {
        let bits = |row: &[f64]| row.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(s), bits(e), "{label}: alphas of round {round}");
    }
    assert_eq!(
        sync.reached_target
            .map(|t| (t.round, t.bytes_per_node.to_bits())),
        event
            .reached_target
            .map(|t| (t.round, t.bytes_per_node.to_bits())),
        "{label}: target hit"
    );
}

/// One row of the equivalence table: `strategy` under every topology
/// provider and perturbation, at 1 and 2 worker threads.
fn assert_equivalence_table(strategy: StrategyFactory) {
    for topo in [Topo::Static, Topo::Dynamic, Topo::PeerSampled] {
        for perturb in [
            Perturb::Loss,
            Perturb::Dropout,
            Perturb::Alphas,
            Perturb::Target,
            Perturb::AttackNormClip,
        ] {
            let case = Case {
                strategy,
                topo,
                perturb,
            };
            for threads in [1, 2] {
                let sync = run_once(
                    ExecutionMode::BulkSynchronous,
                    HeterogeneityProfile::default(),
                    threads,
                    case,
                );
                let event = run_once(
                    ExecutionMode::EventDriven,
                    HeterogeneityProfile::default(),
                    threads,
                    case,
                );
                assert_bitwise_equal_modulo_time(
                    &sync,
                    &event,
                    &format!("{topo:?}/{perturb:?}/threads-{threads}"),
                );
            }
        }
    }
}

fn full_sharing(_node: usize) -> Box<dyn ShareStrategy> {
    Box::new(FullSharing::new())
}

fn jwins_strategy(node: usize) -> Box<dyn ShareStrategy> {
    Box::new(Jwins::new(JwinsConfig::paper_default(), 900 + node as u64))
}

fn choco(_node: usize) -> Box<dyn ShareStrategy> {
    Box::new(ChocoSgd::new(ChocoConfig::budget_20()))
}

fn power_gossip(node: usize) -> Box<dyn ShareStrategy> {
    Box::new(PowerGossip::new(PowerGossipConfig::default(), node, 42))
}

fn random_sampling(_node: usize) -> Box<dyn ShareStrategy> {
    Box::new(RandomSampling::new(0.2, 42))
}

fn quantized(node: usize) -> Box<dyn ShareStrategy> {
    Box::new(QuantizedSharing::new(16, 300 + node as u64))
}

fn rmw(node: usize) -> Box<dyn ShareStrategy> {
    Box::new(RandomModelWalk::new(500 + node as u64))
}

#[test]
fn degenerate_event_mode_reproduces_sync_for_full_sharing() {
    assert_equivalence_table(full_sharing);
}

#[test]
fn degenerate_event_mode_reproduces_sync_for_jwins() {
    assert_equivalence_table(jwins_strategy);
}

#[test]
fn degenerate_event_mode_reproduces_sync_for_choco() {
    assert_equivalence_table(choco);
}

#[test]
fn degenerate_event_mode_reproduces_sync_for_power_gossip() {
    assert_equivalence_table(power_gossip);
}

#[test]
fn degenerate_event_mode_reproduces_sync_for_random_sampling() {
    assert_equivalence_table(random_sampling);
}

#[test]
fn degenerate_event_mode_reproduces_sync_for_quantized() {
    assert_equivalence_table(quantized);
}

#[test]
fn degenerate_event_mode_reproduces_sync_for_rmw() {
    assert_equivalence_table(rmw);
}

/// A bulk-synchronous full-sharing run on a regular graph, evaluated every
/// round, with every event kept in memory.
fn barrier_run(rounds: usize, attack: AttackPlan) -> (TrainConfig, RunResult, Vec<TraceEvent>) {
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 11);
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = rounds;
    cfg.lr = 0.1;
    cfg.eval_every = 1;
    cfg.attack = attack;
    let sink = MemorySink::new();
    let result = Trainer::builder(cfg.clone())
        .topology(StaticTopology::random_regular(NODES, 2, 13).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |node| {
            (mlp_classifier(2 * 8 * 8, &[8], 4, 7), full_sharing(node))
        })
        .trace_sink(Box::new(sink.clone()))
        .build()
        .unwrap()
        .run()
        .unwrap();
    (cfg, result, sink.events())
}

/// The most bytes any node pushed in each round, read off the trace:
/// every `MsgSend` of round `r` precedes round `r`'s `RoundComplete`.
fn max_node_bytes_per_round(events: &[TraceEvent], rounds: usize) -> Vec<u64> {
    let mut per_node = vec![vec![0u64; NODES]; rounds];
    let mut round = 0;
    for event in events {
        match *event {
            TraceEvent::MsgSend { from, bytes, .. } => per_node[round][from as usize] += bytes,
            TraceEvent::RoundComplete { .. } => round += 1,
            _ => {}
        }
    }
    per_node
        .iter()
        .map(|nodes| nodes.iter().copied().max().unwrap_or(0))
        .collect()
}

#[test]
fn barrier_clock_charges_round_seconds_of_the_busiest_node() {
    let rounds = 6;
    let (cfg, result, events) = barrier_run(rounds, AttackPlan::None);
    assert_eq!(result.records.len(), rounds);
    let max_bytes = max_node_bytes_per_round(&events, rounds);
    let mut expected = 0.0f64;
    for (record, &bytes) in result.records.iter().zip(&max_bytes) {
        // Full sharing broadcasts one message to each of its 2 neighbours.
        assert!(bytes > 0 && bytes % 2 == 0, "round {}", record.round);
        expected += cfg.time_model.round_seconds(bytes);
        assert_eq!(
            record.sim_time_s.to_bits(),
            expected.to_bits(),
            "round {}: {} vs {expected}",
            record.round,
            record.sim_time_s
        );
    }
}

#[test]
fn barrier_clock_resolves_attack_windows_at_round_start() {
    let rounds = 20;
    let attack = AttackPlan::RandomFraction {
        fraction: 0.34,
        from_s: 0.3,
        until_s: 0.9,
        behavior: AttackBehavior::SignFlip,
    };
    let (cfg, result, events) = barrier_run(rounds, attack.clone());
    let max_bytes = max_node_bytes_per_round(&events, rounds);
    // Any expansion seed picks the same number of attackers on the same
    // window; only which nodes attack depends on it.
    let timeline = AttackTimeline::expand(&attack, NODES, 0).unwrap();
    let attackers = timeline.attackers();
    let attacker = attackers[0];
    let mut start = 0.0f64;
    let mut barrier_rounds = 0u64;
    let mut event_clock_rounds = 0u64;
    for (round, &bytes) in max_bytes.iter().enumerate() {
        if timeline
            .behavior_at(attacker, SimTime::from_secs_f64(start))
            .is_some()
        {
            barrier_rounds += 1;
        }
        // Where the event clock alone would have resolved the window: at
        // the node's train completion, one compute time into the round.
        let train_done = SimTime::from_secs_f64(cfg.time_model.compute_s).0 * (round as u64 + 1);
        if timeline
            .behavior_at(attacker, SimTime(train_done))
            .is_some()
        {
            event_clock_rounds += 1;
        }
        start += cfg.time_model.round_seconds(bytes);
    }
    assert!(
        barrier_rounds > 0 && barrier_rounds < rounds as u64,
        "the window must clip the run"
    );
    assert_ne!(
        barrier_rounds, event_clock_rounds,
        "the scenario must tell the barrier clock from the event clock"
    );
    let last = result.final_record().unwrap();
    assert_eq!(
        last.attacks_injected,
        attackers.len() as u64 * barrier_rounds,
        "attacks are resolved at each round's barrier start time"
    );
}

/// A zero-variance profile that is *not* the `Default` value must still
/// degrade exactly: degeneracy is a property of the physics, not of which
/// enum variant was picked.
#[test]
fn zero_variance_stragglers_also_degrade_exactly() {
    let profile = HeterogeneityProfile {
        compute: ComputeProfile::Stragglers {
            fraction: 0.0,
            slowdown: 9.0,
        },
        links: LinkProfile::Instant,
    };
    assert!(profile.is_degenerate());
    let sync = run_once(
        ExecutionMode::BulkSynchronous,
        HeterogeneityProfile::default(),
        1,
        Case::plain(full_sharing),
    );
    let event = run_once(
        ExecutionMode::EventDriven,
        profile,
        1,
        Case::plain(full_sharing),
    );
    assert_bitwise_equal_modulo_time(&sync, &event, "zero-variance stragglers");
}

#[test]
fn heterogeneous_runs_replay_identically_across_seed_and_threads() {
    let profile = || HeterogeneityProfile {
        compute: ComputeProfile::LogNormal { sigma: 0.6 },
        links: LinkProfile::LogNormal {
            latency_s: 0.004,
            bandwidth_bps: 2.0e6,
            sigma: 0.5,
        },
    };
    let case = Case::plain(jwins_strategy);
    let a = run_once(ExecutionMode::EventDriven, profile(), 1, case);
    let b = run_once(ExecutionMode::EventDriven, profile(), 1, case);
    let c = run_once(ExecutionMode::EventDriven, profile(), 4, case);
    for other in [&b, &c] {
        a.assert_bit_identical(other, "heterogeneous replay");
    }
}

#[test]
fn slow_links_produce_staleness_and_stretch_the_clock() {
    // 64 kB/s links: a full model broadcast takes longer than a round's
    // compute, so mixes consume messages from earlier rounds.
    let slow_links = HeterogeneityProfile {
        compute: ComputeProfile::Uniform,
        links: LinkProfile::Uniform {
            latency_s: 0.02,
            bandwidth_bps: 64_000.0,
        },
    };
    let fresh = run_once(
        ExecutionMode::EventDriven,
        HeterogeneityProfile::default(),
        1,
        Case::plain(full_sharing),
    );
    let stale = run_once(
        ExecutionMode::EventDriven,
        slow_links,
        1,
        Case::plain(full_sharing),
    );
    let fresh_last = fresh.final_record().unwrap();
    let stale_last = stale.final_record().unwrap();
    assert_eq!(fresh_last.mean_staleness_s, 0.0);
    assert!(
        stale_last.mean_staleness_s > 0.0,
        "thin links must leave messages in flight"
    );
    assert!(
        stale_last.sim_time_s > fresh_last.sim_time_s,
        "transfer time must show up on the clock"
    );
    // Async gossip drops nothing: every sent message is still accounted.
    assert_eq!(
        stale.total_traffic.messages_sent,
        fresh.total_traffic.messages_sent
    );
}

#[test]
fn event_mode_supports_early_stop_on_target() {
    let data = cifar_like(&ImageConfig::tiny(), 4, 2, 5);
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = 60;
    cfg.lr = 0.1;
    cfg.eval_every = 1;
    cfg.target_accuracy = Some(0.3);
    cfg.execution = ExecutionMode::EventDriven;
    cfg.heterogeneity = HeterogeneityProfile::stragglers(0.25, 2.0, 0.001, 1.0e6);
    let result = Trainer::builder(cfg)
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
        .unwrap();
    let hit = result.reached_target.expect("tiny task reaches 30%");
    assert!(result.rounds_run < 60, "stopped at {}", result.rounds_run);
    assert_eq!(hit.round + 1, result.rounds_run);
    assert!(hit.sim_time_s > 0.0);
}
