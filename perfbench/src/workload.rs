//! The three benchmark workloads and their timed set-up.
//!
//! Every input (data, graph, initial weights, cut-off draws, straggler set)
//! is derived from the one `--seed`, so the same seed gives the same run.

use jwins::config::{ExecutionMode, TrainConfig};
use jwins::engine::{Trainer, TrainerBuilder};
use jwins::strategies::{FullSharing, Jwins, JwinsConfig};
use jwins::strategy::ShareStrategy;
use jwins_data::images::{cifar_like, ImageConfig};
use jwins_nn::init::sub_seed;
use jwins_nn::model::Model;
use jwins_nn::models::{gn_lenet, mlp_classifier, ClassSample, ImageClassifier};
use jwins_sim::HeterogeneityProfile;
use jwins_topology::dynamic::StaticTopology;
use std::time::Instant;

/// Worker threads for every workload (one process, two cores).
pub const THREADS: usize = 2;
/// Degree of the static random-regular communication graph.
const DEGREE: usize = 4;
/// `swarm-full`: distinct per-node datasets, cycled over the nodes so data
/// generation stays O(1) in the node count (the `ext_scale` shape).
const SWARM_TEMPLATES: usize = 16;
/// `swarm-full`: samples each node trains on per round.
const SWARM_SAMPLES: usize = 2;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GN-LeNet on non-IID CIFAR-like data, JWINS, barrier rounds, run to
    /// a target accuracy.
    CnnJwins,
    /// A 56k-parameter MLP on the same data, JWINS, barrier rounds, run to
    /// a target accuracy: the sharing pipeline dominates.
    MlpJwins,
    /// 10,000 tiny MLPs, full sharing, event-driven gossip with stragglers:
    /// the event engine and the dense value codec dominate.
    SwarmFull,
}

/// Which sharing algorithm a workload runs (selects the kernel replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// `jwins::strategies::Jwins` with `JwinsConfig::paper_default()`.
    Jwins,
    /// `jwins::strategies::FullSharing`.
    Full,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "cnn-jwins" => Some(Self::CnnJwins),
            "mlp-jwins" => Some(Self::MlpJwins),
            "swarm-full" => Some(Self::SwarmFull),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::CnnJwins => "cnn-jwins",
            Self::MlpJwins => "mlp-jwins",
            Self::SwarmFull => "swarm-full",
        }
    }

    /// Number of nodes.
    pub fn nodes(self) -> usize {
        match self {
            Self::CnnJwins => 32,
            Self::MlpJwins => 64,
            Self::SwarmFull => 10_000,
        }
    }

    /// The sharing algorithm every node runs.
    pub fn sharing(self) -> Sharing {
        match self {
            Self::CnnJwins | Self::MlpJwins => Sharing::Jwins,
            Self::SwarmFull => Sharing::Full,
        }
    }

    /// Whether the run stops at a target accuracy (and must reach it).
    pub fn has_target(self) -> bool {
        self.config(0).target_accuracy.is_some()
    }

    /// The training configuration for `seed`.
    pub fn config(self, seed: u64) -> TrainConfig {
        let mut cfg = match self {
            Self::CnnJwins => {
                let mut cfg = TrainConfig::new(80);
                cfg.local_steps = 2;
                cfg.batch_size = 8;
                cfg.lr = 0.08;
                cfg.eval_every = 5;
                cfg.eval_test_samples = 256;
                cfg.target_accuracy = Some(0.95);
                cfg
            }
            Self::MlpJwins => {
                let mut cfg = TrainConfig::new(80);
                cfg.local_steps = 1;
                cfg.batch_size = 8;
                cfg.lr = 0.05;
                cfg.eval_every = 5;
                cfg.eval_test_samples = 64;
                cfg.target_accuracy = Some(0.95);
                cfg
            }
            Self::SwarmFull => {
                let rounds = 4;
                let mut cfg = TrainConfig::new(rounds);
                cfg.local_steps = 1;
                cfg.batch_size = SWARM_SAMPLES;
                cfg.lr = 0.05;
                // One final evaluation over a small slice.
                cfg.eval_every = rounds;
                cfg.eval_test_samples = 16;
                cfg.execution = ExecutionMode::EventDriven;
                cfg.heterogeneity = HeterogeneityProfile::stragglers(0.25, 4.0, 0.005, 12.5e6);
                cfg
            }
        };
        cfg.seed = seed;
        cfg.threads = THREADS;
        cfg
    }
}

/// Wall seconds of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Synthetic data generation and per-node sharding.
    pub data_s: f64,
    /// Communication-graph construction.
    pub topology_s: f64,
    /// Model and strategy construction plus `TrainerBuilder::build`.
    pub build_s: f64,
}

impl SetupTimes {
    /// Whole set-up time.
    pub fn total(&self) -> f64 {
        self.data_s + self.topology_s + self.build_s
    }
}

/// Wraps each node's freshly built model and strategy (identity for the
/// untraced run, timing wrappers for the traced one). Receives the node id.
pub trait NodeWrap {
    /// The model type the trainer runs.
    type M: Model<Sample = ClassSample>;
    /// Wraps node `node`'s model and strategy.
    fn wrap(
        &mut self,
        node: usize,
        model: ImageClassifier,
        strategy: Box<dyn ShareStrategy>,
    ) -> (Self::M, Box<dyn ShareStrategy>);
}

/// The untraced run: nodes go to the trainer as built.
pub struct Plain;

impl NodeWrap for Plain {
    type M = ImageClassifier;
    fn wrap(
        &mut self,
        _node: usize,
        model: ImageClassifier,
        strategy: Box<dyn ShareStrategy>,
    ) -> (ImageClassifier, Box<dyn ShareStrategy>) {
        (model, strategy)
    }
}

/// A built trainer with the time each set-up stage took.
pub type Built<M> = (Trainer<M>, SetupTimes);

/// Generates the workload's inputs from `seed` and builds its trainer,
/// timing each stage. `extend` may attach trace sinks before `build`.
///
/// # Errors
///
/// Propagates graph and trainer construction errors.
pub fn setup<W: NodeWrap>(
    workload: Workload,
    seed: u64,
    wrap: &mut W,
    extend: impl FnOnce(TrainerBuilder<W::M>) -> TrainerBuilder<W::M>,
) -> Result<Built<W::M>, Box<dyn std::error::Error>> {
    let nodes = workload.nodes();
    let t0 = Instant::now();
    let (node_train, test): (Vec<Vec<ClassSample>>, Vec<ClassSample>) = match workload {
        Workload::CnnJwins | Workload::MlpJwins => {
            let data = cifar_like(&ImageConfig::cifar_small(), nodes, 2, seed);
            (data.node_train, data.test)
        }
        Workload::SwarmFull => {
            let data = cifar_like(&ImageConfig::tiny(), SWARM_TEMPLATES, 2, seed);
            let shards = (0..nodes)
                .map(|i| {
                    data.node_train[i % SWARM_TEMPLATES]
                        .iter()
                        .take(SWARM_SAMPLES)
                        .cloned()
                        .collect()
                })
                .collect();
            (shards, data.test)
        }
    };
    let t1 = Instant::now();
    let topology = StaticTopology::random_regular(nodes, DEGREE, seed ^ 0xD1)?;
    let t2 = Instant::now();
    let builder = Trainer::builder(workload.config(seed))
        .topology(topology)
        .test_set(test)
        .nodes(node_train, |node| {
            let model = match workload {
                Workload::CnnJwins => gn_lenet(3, 12, 12, 10, 8, seed),
                Workload::MlpJwins => mlp_classifier(432, &[128], 10, seed),
                Workload::SwarmFull => mlp_classifier(2 * 8 * 8, &[4], 4, seed),
            };
            let strategy: Box<dyn ShareStrategy> = match workload.sharing() {
                Sharing::Jwins => Box::new(Jwins::new(
                    JwinsConfig::paper_default(),
                    sub_seed(seed, 1000 + node as u64),
                )),
                Sharing::Full => Box::new(FullSharing::new()),
            };
            wrap.wrap(node, model, strategy)
        });
    let trainer = extend(builder).build()?;
    let t3 = Instant::now();
    Ok((
        trainer,
        SetupTimes {
            data_s: (t1 - t0).as_secs_f64(),
            topology_s: (t2 - t1).as_secs_f64(),
            build_s: (t3 - t2).as_secs_f64(),
        },
    ))
}
