//! Straggler demo: the same training run on a barrier vs the event-driven
//! runtime when a quarter of the cluster computes 4× slower.
//!
//! ```sh
//! cargo run --release --example stragglers
//! cargo run --release --example stragglers -- --trace /tmp/stragglers
//! cargo run --release --example stragglers -- --transport channel
//! cargo run --release --example stragglers -- --nodes 1000
//! ```
//!
//! Under the barrier, every round waits for the slowest node, so the whole
//! cluster runs at straggler speed. Under event-driven async gossip each
//! node keeps its own clock and mixes whatever neighbour models have
//! arrived — the fast majority stops paying for the slow minority, at the
//! price of mixing slightly stale information (reported per evaluation).
//!
//! With `--trace <prefix>` each mode writes its structured trace to
//! `<prefix>-<mode>.jsonl`; compare the two with the `trace_report` bin to
//! see the stragglers' compute share and where mixing staleness comes from.
//! With `--metrics <prefix>` each mode also exports its metrics
//! aggregation to `<prefix>-<mode>.prom` and `<prefix>-<mode>.csv` through
//! the in-engine `MetricsSink` (`TrainConfig::metrics`).
//!
//! With `--transport channel` the same config runs on real OS threads
//! instead: one thread per node, framed messages over in-process channels,
//! wall-clock time. Straggler *injection* does not apply there — the real
//! host is the time model — so the run reports measured flight latency and
//! wall-clock rounds rather than the barrier-vs-async comparison.
//!
//! With `--nodes N` the cluster scales past the default 8 nodes (the
//! event engine handles thousands; above 16 nodes the per-node
//! datasets cycle through 16 templates so data generation stays cheap).

use jwins::config::{ChannelTransportConfig, ExecutionMode, TrainConfig, TransportKind};
use jwins::engine::Trainer;
use jwins::strategies::FullSharing;
use jwins::strategy::ShareStrategy;
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_net::TimeModel;
use jwins_nn::models::{mlp_classifier, ClassSample};
use jwins_sim::HeterogeneityProfile;
use jwins_topology::dynamic::StaticTopology;

use jwins_repro::smoke;

/// The value of a `--<name> <prefix>` flag, if given.
fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == name {
            return Some(
                args.next()
                    .unwrap_or_else(|| panic!("{name} requires a value")),
            );
        }
    }
    None
}

/// The node count from `--nodes N`, defaulting to `default`.
fn node_count(default: usize) -> usize {
    let nodes = flag_value("--nodes").map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--nodes {v:?} is not a node count"))
    });
    assert!(
        nodes >= 5,
        "--nodes needs at least 5 nodes for this topology"
    );
    nodes
}

/// Per-node train shards plus the shared test set. Above 16 nodes the
/// datasets cycle through 16 templates, so `--nodes 10000` costs the same
/// data generation as 16.
fn node_data(nodes: usize, seed: u64) -> (Vec<Vec<ClassSample>>, Vec<ClassSample>) {
    let templates = nodes.min(16);
    let data = cifar_like(&ImageConfig::tiny(), templates, 2, seed);
    let train = (0..nodes)
        .map(|i| data.node_train[i % templates].clone())
        .collect();
    (train, data.test)
}

/// A feasible gossip degree: 3-regular graphs need an even `n * 3`.
fn degree(nodes: usize) -> usize {
    if nodes.is_multiple_of(2) {
        3
    } else {
        4
    }
}

fn run(
    nodes: usize,
    mode: ExecutionMode,
    trace_jsonl: Option<String>,
    metrics_prefix: Option<&str>,
) -> jwins::metrics::RunResult {
    let (node_train, test) = node_data(nodes, 42);
    let mut cfg = TrainConfig::new(if smoke() { 6 } else { 30 });
    cfg.local_steps = 2;
    cfg.batch_size = 8;
    cfg.lr = 0.1;
    cfg.eval_every = if smoke() { 2 } else { 5 };
    cfg.eval_test_samples = 128;
    cfg.execution = mode;
    match mode {
        ExecutionMode::BulkSynchronous => {
            // The barrier waits for the 4× straggler every round.
            cfg.time_model = TimeModel::edge_100mbit(0.05 * 4.0);
        }
        ExecutionMode::EventDriven => {
            cfg.time_model = TimeModel::edge_100mbit(0.05);
            // A quarter of the nodes are 4× slower; 100 Mbit/s links, 5 ms latency.
            cfg.heterogeneity = HeterogeneityProfile::stragglers(0.25, 4.0, 0.005, 100.0e6 / 8.0);
        }
        _ => unreachable!("example covers both execution modes"),
    }
    cfg.trace.jsonl_path = trace_jsonl;
    if let Some(prefix) = metrics_prefix {
        cfg.metrics.prometheus_path = Some(format!("{prefix}.prom"));
        cfg.metrics.csv_path = Some(format!("{prefix}.csv"));
    }
    let trainer = Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(nodes, degree(nodes), 7).expect("feasible graph"))
        .test_set(test)
        .nodes(node_train, |_| {
            (
                mlp_classifier(2 * 8 * 8, &[16], 4, 42),
                Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
            )
        })
        .build()
        .expect("valid experiment");
    trainer.run().expect("run completes")
}

/// The same cluster on the real-concurrency channel backend: no simulated
/// stragglers (the host's actual scheduling jitter is the heterogeneity),
/// wall-clock time instead of virtual time.
fn run_channel(nodes: usize, trace_jsonl: Option<String>, metrics_prefix: Option<&str>) {
    let (node_train, test) = node_data(nodes, 42);
    let mut cfg = TrainConfig::new(if smoke() { 6 } else { 30 });
    cfg.local_steps = 2;
    cfg.batch_size = 8;
    cfg.lr = 0.1;
    cfg.eval_every = if smoke() { 2 } else { 5 };
    cfg.eval_test_samples = 128;
    cfg.transport = TransportKind::Channel(ChannelTransportConfig::default());
    cfg.trace.jsonl_path = trace_jsonl.clone();
    if let Some(prefix) = metrics_prefix {
        cfg.metrics.prometheus_path = Some(format!("{prefix}.prom"));
        cfg.metrics.csv_path = Some(format!("{prefix}.csv"));
    }
    let trainer = Trainer::builder(cfg)
        .topology(StaticTopology::random_regular(nodes, degree(nodes), 7).expect("feasible graph"))
        .test_set(test)
        .nodes(node_train, |_| {
            (
                mlp_classifier(2 * 8 * 8, &[16], 4, 42),
                Box::new(FullSharing::new()) as Box<dyn ShareStrategy>,
            )
        })
        .build()
        .expect("valid experiment");
    let result = trainer.run().expect("run completes");
    println!(
        "== real OS-thread channels ({nodes} node threads) ==\n\
         note: simulated stragglers/event-driven execution are virtual-time \
         features;\nthe real backend measures the host instead of modelling it.\n"
    );
    println!("round  accuracy  wall-time[s]  staleness[s]");
    for r in &result.records {
        println!(
            "{:>5}  {:>8.3}  {:>12.2}  {:>12.4}",
            r.round + 1,
            r.test_accuracy,
            r.sim_time_s,
            r.mean_staleness_s
        );
    }
    if let Some(latency) = result.measured_latency_s {
        println!(
            "\nmeasured mean flight latency: {:.3} ms — feed it back to the sim \
             oracle with `jwins::crosscheck::oracle_profile`",
            latency * 1e3
        );
    }
    if let Some(jsonl) = &trace_jsonl {
        println!(
            "trace written to {jsonl} (wall-clock stamps from concurrent \
             threads — summarize with `trace_report {jsonl}`, but `--check` \
             expects virtual-time monotonicity and does not apply)"
        );
    }
}

fn main() {
    const TARGET: f64 = 0.99;
    let prefix = flag_value("--trace");
    let metrics = flag_value("--metrics");
    let nodes = node_count(8);
    match flag_value("--transport").as_deref() {
        Some("channel") => {
            let jsonl = prefix.as_ref().map(|p| format!("{p}-channel.jsonl"));
            let metrics_prefix = metrics.as_ref().map(|p| format!("{p}-channel"));
            run_channel(nodes, jsonl, metrics_prefix.as_deref());
            return;
        }
        None | Some("sim") => {}
        Some(other) => panic!("--transport {other}: expected `sim` or `channel`"),
    }
    println!(
        "straggler cluster: {nodes} nodes, a quarter of them 4x slower, \
         100 Mbit/s links\n"
    );
    let mut time_to_target = Vec::new();
    for (name, slug, mode) in [
        (
            "barrier (waits for straggler)",
            "barrier",
            ExecutionMode::BulkSynchronous,
        ),
        (
            "event-driven async gossip",
            "async",
            ExecutionMode::EventDriven,
        ),
    ] {
        let jsonl = prefix.as_ref().map(|p| format!("{p}-{slug}.jsonl"));
        let metrics_prefix = metrics.as_ref().map(|p| format!("{p}-{slug}"));
        let result = run(nodes, mode, jsonl.clone(), metrics_prefix.as_deref());
        if let Some(jsonl) = &jsonl {
            println!("trace written to {jsonl} (inspect with `trace_report {jsonl}`)");
        }
        if let Some(p) = &metrics_prefix {
            println!("metrics exports written to {p}.prom and {p}.csv");
        }
        println!("== {name} ==");
        println!("round  accuracy  sim-time[s]  staleness[s]");
        for r in &result.records {
            println!(
                "{:>5}  {:>8.3}  {:>11.1}  {:>12.4}",
                r.round + 1,
                r.test_accuracy,
                r.sim_time_s,
                r.mean_staleness_s
            );
        }
        let hit = result
            .records
            .iter()
            .find(|r| r.test_accuracy >= TARGET)
            .map(|r| r.sim_time_s);
        match hit {
            Some(t) => println!(
                "time to {:.0}% accuracy: {t:.2} simulated seconds\n",
                TARGET * 100.0
            ),
            None => println!("never reached {:.0}% accuracy\n", TARGET * 100.0),
        }
        time_to_target.push(hit);
    }
    if let (Some(Some(sync_t)), Some(Some(async_t))) =
        (time_to_target.first(), time_to_target.get(1))
    {
        println!(
            "Same data, same links: async gossip reaches {:.0}% accuracy in \
             {async_t:.2}s vs {sync_t:.2}s behind the barrier ({:.1}x faster), \
             because fast nodes keep training instead of waiting for the \
             stragglers — at the price of mixing slightly stale models.",
            TARGET * 100.0,
            sync_t / async_t
        );
    }
}
