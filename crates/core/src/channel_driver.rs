//! The real-concurrency round driver: one OS thread per node.
//!
//! This is the engine's second substrate, selected by
//! [`TransportKind::Channel`]: the *same* per-node round program as the
//! event loop (τ local SGD steps → strategy-built messages →
//! Metropolis–Hastings aggregation), but with no global barrier and no
//! virtual clock. Every node runs on its own OS thread, messages cross real
//! [`jwins_net::ThreadChannelTransport`] channels, and time is the wall
//! clock mapped onto [`SimTime`] by the transport.
//!
//! # What replaces the barrier
//!
//! A node finishing round `r` *waits* — bounded by
//! [`crate::config::ChannelTransportConfig::mix_wait_ms`] — until a round-`r`
//! message from every active neighbour has arrived, then mixes and moves
//! on. A fast neighbour may already be a round ahead; its early messages
//! are stashed and consumed when their round comes. A peer that never
//! sends (a `PerEdge` strategy skipping an edge, or a node that stopped
//! early) costs one timeout, not a deadlock.
//!
//! # What this driver deliberately does not do
//!
//! Runs here are **not** bit-reproducible: thread scheduling decides
//! arrival interleavings and wall-clock stamps. The determinism story is
//! instead the *cross-check* ([`crate::crosscheck`]): the accuracy
//! trajectory must stay within a declared tolerance of a sim-oracle replay
//! of the same config + seed under the transport's measured latency
//! profile. Everything that only has meaning on the virtual clock (fault
//! plans, modelled heterogeneity, seeded loss, attack windows) is rejected
//! at validation time — see [`crate::config::TrainConfig::validate`].

use crate::config::TransportKind;
use crate::engine::{train_steps, NodeState, Trainer};
use crate::metrics::{RoundRecord, RunResult, TargetHit};
use crate::strategy::{Outbound, ReceivedMessage};
use crate::{JwinsError, Result};
use jwins_net::PendingSend;
use jwins_nn::model::{EvalMetrics, Model};
use jwins_sim::SimTime;
use jwins_topology::dynamic::RoundTopology;
use jwins_trace::TraceEvent;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One node's contribution to a round, deposited on the shared board.
struct Deposit {
    /// Merged test metrics + own accuracy; `None` on non-evaluation rounds.
    eval: Option<(EvalMetrics, f64)>,
    train_loss: f64,
    alpha: f64,
}

/// The cluster-shared round ledger. Nodes deposit as they finish a round;
/// the `n`-th depositor finalizes it (round-completion trace, evaluation
/// record, early-stop check) while still holding the lock, so records form
/// in strict round order.
struct Board {
    /// Per-round deposit slots, indexed by node. A round's entry exists
    /// from its first deposit to its finalization.
    pending: std::collections::HashMap<usize, Vec<Option<Deposit>>>,
    records: Vec<RoundRecord>,
    rounds_run: usize,
    reached_target: Option<TargetHit>,
    alpha_rows: Vec<Vec<f64>>,
    total_staleness_s: f64,
    mixed_messages: u64,
}

/// Evaluates one node's model on (a prefix of) the shared test set —
/// the same chunked merge as the engine's parallel evaluation phase.
fn evaluate_node<M: Model>(
    state: &mut NodeState<M>,
    params: &[f32],
    test: &[M::Sample],
    cap: usize,
) -> (EvalMetrics, f64) {
    let subset = if cap == 0 || cap >= test.len() {
        test
    } else {
        &test[..cap]
    };
    state.model.set_params(params);
    let mut local = EvalMetrics::default();
    for chunk in subset.chunks(64) {
        local.merge(&state.model.evaluate(chunk));
    }
    let accuracy = local.accuracy();
    (local, accuracy)
}

/// Runs the trainer's round program on one OS thread per node over the
/// channel transport. Called by [`Trainer::run`] when
/// [`TransportKind::Channel`] is configured.
pub(crate) fn run_channel<M>(trainer: Trainer<M>) -> Result<RunResult>
where
    M: Model + Send,
    M::Sample: Send + Sync,
{
    let Trainer {
        config,
        topology,
        participation,
        network,
        nodes,
        mut arena,
        test,
        tracer,
    } = trainer;
    let TransportKind::Channel(channel) = config.transport else {
        return Err(JwinsError::Protocol(
            "channel driver invoked without a channel transport",
        ));
    };
    let n = nodes.len();
    let rounds = config.rounds;
    let strategy_name = nodes[0].strategy.name().to_owned();
    let tau = config.local_steps;
    let batch_size = config.batch_size;
    let lr = config.lr;
    let eval_cap = config.eval_test_samples;
    let record_alphas = config.record_alphas;
    let mix_wait = Duration::from_millis(channel.mix_wait_ms);
    let poll = Duration::from_micros(channel.poll_us.max(1));

    // Round contexts are resolved up front, sequentially: topology
    // providers and participation models are not required to be `Sync`,
    // and resolving per-thread would also re-draw dynamic topologies n
    // times. This is the same context every other substrate would see.
    let contexts: Vec<(RoundTopology, Arc<Vec<bool>>)> = (0..rounds)
        .map(|round| {
            let topo = topology.topology(round);
            let active: Vec<bool> = (0..n).map(|i| participation.is_active(round, i)).collect();
            (topo, Arc::new(active))
        })
        .collect();

    let board = parking_lot::Mutex::new(Board {
        pending: std::collections::HashMap::new(),
        records: Vec::new(),
        rounds_run: 0,
        reached_target: None,
        alpha_rows: if record_alphas {
            vec![vec![0.0; n]; rounds]
        } else {
            Vec::new()
        },
        total_staleness_s: 0.0,
        mixed_messages: 0,
    });
    let stop = AtomicBool::new(false);

    let worker = |i: usize, mut state: NodeState<M>, params: &mut [f32]| -> Result<()> {
        // Early messages from fast neighbours, waiting for their round.
        let mut stash: Vec<jwins_net::Envelope> = Vec::new();
        for (round, (topo, active)) in contexts.iter().enumerate().take(rounds) {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let mut mixed_now = 0u64;
            let mut staleness_now = 0.0f64;
            if active[i] {
                // Pull the wires before training: frames that landed while
                // this node was mixing or evaluating get their arrival
                // stamped now, so the measured flight latency reflects the
                // wire, not the receiver's own busy time (the cross-check
                // oracle models busy time as compute, not link latency).
                stash.extend(network.drain(i, SimTime::MAX, None).envelopes);
                let wall = Instant::now();
                train_steps(&mut state, params, tau, batch_size, lr);
                tracer.emit(TraceEvent::Train {
                    t_ns: network.now().0,
                    node: i as u32,
                    round: round as u32,
                    compute_ns: wall.elapsed().as_nanos() as u64,
                });
                let neighbors = Trainer::<M>::active_neighbors(topo, active, i);
                let outbound = state.strategy.make_outbound(round, params, &neighbors)?;
                state.last_alpha = state.strategy.last_alpha();
                let now = network.now();
                let send = |to: usize, msg: crate::strategy::OutMessage| {
                    network.send(PendingSend {
                        from: i,
                        to,
                        payload: msg.bytes,
                        breakdown: msg.breakdown,
                        sent: now,
                        // The true arrival instant is the receiver's to
                        // stamp; `arrives == sent` is the send-side view.
                        arrives: now,
                        sent_round: round,
                    });
                };
                match outbound {
                    Outbound::Broadcast(msg) => {
                        for &to in &neighbors {
                            send(to, msg.clone());
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
                                send(to, msg);
                            }
                        }
                    }
                }
                // The bounded stand-in for the barrier: wait until every
                // active neighbour's round-`round` message is in, the run
                // is stopping, or the wait budget is spent.
                let deadline = Instant::now() + mix_wait;
                loop {
                    stash.extend(network.drain(i, SimTime::MAX, None).envelopes);
                    let complete = neighbors
                        .iter()
                        .all(|&j| stash.iter().any(|e| e.from == j && e.sent_round == round));
                    if complete || stop.load(Ordering::SeqCst) || Instant::now() >= deadline {
                        break;
                    }
                    std::thread::sleep(poll);
                }
                // Split the stash: this round mixes now, future rounds wait,
                // and a message older than the current round missed the mix
                // that wanted it (its receive bytes stay metered — it did
                // cross the wire).
                let mut inbox = Vec::new();
                let mut keep = Vec::new();
                for env in stash.drain(..) {
                    match env.sent_round.cmp(&round) {
                        std::cmp::Ordering::Equal => inbox.push(env),
                        std::cmp::Ordering::Greater => keep.push(env),
                        std::cmp::Ordering::Less => {}
                    }
                }
                stash = keep;
                // Arrival interleavings are scheduler-dependent; sorting by
                // sender gives the aggregation a stable fold order.
                inbox.sort_by_key(|env| env.from);
                let graph_neighbors = topo.graph.neighbors(i);
                let now = network.now();
                let received: Vec<ReceivedMessage<'_>> = inbox
                    .iter()
                    .map(|env| {
                        let pos = graph_neighbors
                            .binary_search(&env.from)
                            .map_err(|_| JwinsError::Protocol("message from non-neighbour"))?;
                        let weight = topo.weights.neighbor_weights(i)[pos];
                        Ok(ReceivedMessage {
                            from: env.from,
                            round,
                            weight,
                            edge_weight: weight,
                            bytes: &env.payload,
                        })
                    })
                    .collect::<Result<_>>()?;
                for env in &inbox {
                    let staleness_s = now.since(env.sent).as_secs_f64();
                    staleness_now += staleness_s;
                    mixed_now += 1;
                    tracer.emit(TraceEvent::MsgMixed {
                        t_ns: now.0,
                        node: i as u32,
                        from: env.from as u32,
                        round: round as u32,
                        sent_round: env.sent_round as u32,
                        staleness_s,
                    });
                }
                let mixed = state.strategy.aggregate(
                    round,
                    params,
                    topo.weights.self_weight(i),
                    &received,
                )?;
                params.copy_from_slice(&mixed);
                state.model.set_params(params);
            }
            let is_last = round + 1 == rounds;
            let eval_due =
                is_last || (config.eval_every > 0 && (round + 1) % config.eval_every == 0);
            // Inactive nodes evaluate too — same as the event loop, where
            // every node's (possibly unchanged) model joins the mean.
            let eval = eval_due.then(|| evaluate_node(&mut state, params, &test, eval_cap));

            let mut board = board.lock();
            board.total_staleness_s += staleness_now;
            board.mixed_messages += mixed_now;
            if record_alphas {
                board.alpha_rows[round][i] = state.last_alpha;
            }
            let slots = board
                .pending
                .entry(round)
                .or_insert_with(|| (0..n).map(|_| None).collect());
            slots[i] = Some(Deposit {
                eval,
                train_loss: f64::from(state.last_train_loss),
                alpha: state.last_alpha,
            });
            if slots.iter().all(Option::is_some) {
                // The n-th depositor finalizes, lock held: records and the
                // early-stop decision are serialized in round order.
                let slots = board.pending.remove(&round).expect("entry just filled");
                let now = network.now();
                board.rounds_run = board.rounds_run.max(round + 1);
                tracer.emit(TraceEvent::RoundComplete {
                    t_ns: now.0,
                    round: round as u32,
                });
                if eval_due {
                    let mut merged = EvalMetrics::default();
                    let mut per_node_accuracy = Vec::with_capacity(n);
                    let mut train_loss = 0.0f64;
                    let mut mean_alpha = 0.0f64;
                    for deposit in slots.iter().map(|s| s.as_ref().expect("slot filled")) {
                        let (metrics, accuracy) =
                            deposit.eval.as_ref().expect("eval round deposits metrics");
                        merged.merge(metrics);
                        per_node_accuracy.push(*accuracy);
                        train_loss += deposit.train_loss / n as f64;
                        mean_alpha += deposit.alpha / n as f64;
                    }
                    let total = network.total_stats();
                    let mean_staleness_s = if board.mixed_messages == 0 {
                        0.0
                    } else {
                        board.total_staleness_s / board.mixed_messages as f64
                    };
                    let record = RoundRecord {
                        round,
                        train_loss,
                        test_loss: merged.mean_loss(),
                        test_accuracy: merged.accuracy(),
                        test_rmse: merged.rmse(),
                        mean_alpha,
                        cum_bytes_per_node: total.bytes_sent as f64 / n as f64,
                        cum_payload_per_node: total.payload_sent as f64 / n as f64,
                        cum_metadata_per_node: total.metadata_sent as f64 / n as f64,
                        sim_time_s: now.as_secs_f64(),
                        mean_staleness_s,
                        crashes: 0,
                        rejoins: 0,
                        messages_expired: total.messages_expired,
                        downweight_mass: 0.0,
                        edges_rewired: 0,
                        bandwidth_saved_bytes: 0,
                        attacks_injected: 0,
                        mass_clipped: 0.0,
                        per_node_accuracy,
                        checkpoint: false,
                    };
                    tracer.emit(TraceEvent::Eval {
                        t_ns: now.0,
                        round: round as u32,
                        checkpoint: false,
                        accuracy: record.test_accuracy,
                    });
                    let hit_target = config
                        .target_accuracy
                        .is_some_and(|t| record.test_accuracy >= t);
                    let bytes_per_node = record.cum_bytes_per_node;
                    board.records.push(record);
                    if hit_target && board.reached_target.is_none() {
                        board.reached_target = Some(TargetHit {
                            round,
                            sim_time_s: now.as_secs_f64(),
                            bytes_per_node,
                        });
                        stop.store(true, Ordering::SeqCst);
                    }
                }
            }
        }
        Ok(())
    };

    let results: Vec<Result<()>> = crossbeam::thread::scope(|scope| {
        // Each node thread owns its state plus a disjoint `&mut` window of
        // the shared parameter arena; the scope joins before the arena's
        // borrow ends.
        let handles: Vec<_> = nodes
            .into_iter()
            .zip(arena.slices_mut())
            .enumerate()
            .map(|(i, (state, params))| {
                let worker = &worker;
                scope.spawn(move |_| worker(i, state, params))
            })
            .collect();
        // Joined in spawn (= node) order, so the first error reported is
        // the lowest-indexed node's regardless of thread timing.
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread must not panic"))
            .collect()
    })
    .expect("scope does not panic");
    results.into_iter().collect::<Result<Vec<()>>>()?;

    let board = board.into_inner();
    tracer.emit(TraceEvent::RunEnd {
        t_ns: network.now().0,
        rounds_run: board.rounds_run as u32,
        queue_depth_hwm: 0,
    });
    let alpha_history: Vec<Vec<f64>> = board
        .alpha_rows
        .into_iter()
        .take(board.rounds_run)
        .collect();
    Ok(RunResult {
        strategy: strategy_name,
        records: board.records,
        total_traffic: network.total_stats(),
        rounds_run: board.rounds_run,
        reached_target: board.reached_target,
        alpha_history,
        measured_latency_s: network.measured_flight().map(|f| f.mean_latency_s),
    })
}
