//! Thread-count and ordering invariance of the event engine at scale.
//!
//! The contract: worker threads only split the execute phase of
//! already-independent events, so under `Ordering::Strict` any thread
//! count replays the single-threaded schedule bit for bit. These tests
//! replay one fault-laden event-driven workload across thread counts and
//! compare the full `RoundRecord` streams, then check that the
//! experimental `Ordering::Window` — the only mode allowed to reorder —
//! still converges to the same model when its skew bound is far below the
//! mix deadline.

use jwins::config::{ExecutionMode, TrainConfig};
use jwins::engine::Trainer;
use jwins::metrics::RunResult;
use jwins::strategies::FullSharing;
use jwins::strategy::ShareStrategy;
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_fault::{FaultConfig, FaultOutage, FaultPlan, RejoinMode, StalenessPolicy};
use jwins_nn::models::mlp_classifier;
use jwins_sim::{HeterogeneityProfile, Ordering};
use jwins_topology::dynamic::StaticTopology;

const NODES: usize = 12;

/// Stragglers (wide batches), a crash+rejoin and mid-round checkpoints:
/// the queue carries every event class, so a routing bug in any of them
/// would break the comparison.
fn scale_config(threads: usize, ordering: Ordering) -> TrainConfig {
    let mut cfg = TrainConfig::quick_test();
    cfg.rounds = 5;
    cfg.lr = 0.1;
    cfg.eval_every = 1;
    cfg.threads = threads;
    cfg.ordering = ordering;
    cfg.execution = ExecutionMode::EventDriven;
    cfg.time_model.compute_s = 1.0;
    cfg.heterogeneity = HeterogeneityProfile::stragglers(0.25, 3.0, 0.002, 1.0e6);
    cfg.faults = FaultConfig {
        plan: FaultPlan::Scripted(vec![FaultOutage {
            rejoin: RejoinMode::Resync,
            ..FaultOutage::new(2, 2.5, 3.0)
        }]),
        staleness: StalenessPolicy::drop_after_rounds(1),
    };
    cfg.eval_interval_s = Some(1.5);
    cfg
}

fn run(threads: usize, ordering: Ordering) -> RunResult {
    let data = cifar_like(&ImageConfig::tiny(), NODES, 2, 5);
    Trainer::builder(scale_config(threads, ordering))
        .topology(StaticTopology::random_regular(NODES, 3, 3).unwrap())
        .test_set(data.test)
        .nodes(data.node_train, |_node| {
            (
                mlp_classifier(2 * 8 * 8, &[8], 4, 7),
                Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
            )
        })
        .build()
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn strict_runs_are_identical_across_threads() {
    // The single-threaded run is the reference schedule.
    let base = run(1, Ordering::Strict);
    let last = base.records.last().expect("records recorded");
    assert!(last.crashes >= 1, "crashes replayed: {}", last.crashes);
    assert!(last.rejoins >= 1, "rejoins replayed: {}", last.rejoins);
    for threads in [1usize, 2, 8] {
        let result = run(threads, Ordering::Strict);
        base.assert_bit_identical(&result, &format!("threads-1 vs threads-{threads}"));
    }
}

#[test]
fn window_ordering_converges_alongside_strict() {
    // A 10 ms skew against a 1 s compute time: mix deadlines cannot move,
    // so the relaxed schedule must reach the same accuracy neighbourhood.
    let strict = run(2, Ordering::Strict);
    let window = run(
        2,
        Ordering::Window {
            max_skew_ns: 10_000_000,
        },
    );
    let acc = |r: &RunResult| {
        r.records
            .last()
            .map(|rec| rec.test_accuracy)
            .expect("final record")
    };
    let (sa, wa) = (acc(&strict), acc(&window));
    assert!(
        (sa - wa).abs() <= 0.05,
        "window accuracy {wa:.4} drifted from strict {sa:.4}"
    );
    // Window is the same run when the schedule never has skew to exploit:
    // with zero-width batches forced by a zero skew it must equal strict.
    let zero = run(2, Ordering::Window { max_skew_ns: 1 });
    strict.assert_bit_identical(&zero, "strict vs 1ns-window");
}
