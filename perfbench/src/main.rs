//! The repository benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <cnn-jwins|mlp-jwins|swarm-full> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! `--trace 0` repeats set-up plus `Trainer::run` on the seed's inputs for
//! about `--seconds`, checks every run, and reports the end-to-end metrics.
//! `--trace 1` makes one untraced and one traced run (every node's model
//! and strategy wrapped in timing types), checks that their records are
//! bit-identical, replays the sharing kernels on vectors captured from the
//! traced run, and reports the per-layer metrics. Human-readable lines come
//! first; the last line of standard output is one JSON object.

mod measure;
mod replay;
mod timing;
mod workload;

use jwins::config::ExecutionMode;
use jwins::metrics::RunResult;
use jwins_trace::{MemorySink, TraceEvent};
use measure::{check_run, digest, host_steal_s, median, peak_rss_mib, process_cpu_s, same_run};
use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use timing::{Kind, Recorder, Span, Timed};
use workload::{setup, NodeWrap, Plain, SetupTimes, Workload, THREADS};

/// Fewest measured runs per `--trace 0` invocation, however long they take,
/// so the median can set one disturbed run aside.
const MIN_RUNS: usize = 3;
/// Set-ups per invocation behind the `setup_s` median: at least this many,
/// and at least `MIN_SETUP_TIME` of them (a `cnn-jwins` set-up takes
/// about 40 ms, so one-off jitter would otherwise move the median).
const MIN_SETUPS: usize = 9;
const MIN_SETUP_TIME: Duration = Duration::from_secs(1);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Traced runs write their spans to `<dir>/<workload>-seed<n>.jsonl`.
    spans_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut spans_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--spans-dir" => spans_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans_dir,
    })
}

/// What the last line of output reports.
struct Report {
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn print(mut self) {
        for &(name, value, _) in &self.metrics {
            if !value.is_finite() {
                self.failures.push(format!("metric {name} is not finite"));
            }
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        let failed = self.failures.len().min(self.attempted);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            metrics.join(", ")
        );
    }
}

/// One set-up plus `Trainer::run`, timed from outside.
struct Run {
    setup: SetupTimes,
    /// `Trainer::run` wall window.
    start: Instant,
    wall_s: f64,
    cpu_s: f64,
    result: Result<RunResult, String>,
}

fn run_once<W: NodeWrap>(
    workload: Workload,
    seed: u64,
    wrap: &mut W,
    extend: impl FnOnce(jwins::engine::TrainerBuilder<W::M>) -> jwins::engine::TrainerBuilder<W::M>,
) -> Run {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (trainer, setup) = setup(workload, seed, wrap, extend).map_err(|e| e.to_string())?;
        let cpu0 = process_cpu_s().unwrap_or(f64::NAN);
        let start = Instant::now();
        let result = trainer.run().map_err(|e| format!("run error: {e}"));
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s().unwrap_or(f64::NAN) - cpu0;
        let result = result.and_then(|r| check_run(&r, workload.has_target()).map(|()| r));
        Ok::<_, String>(Run {
            setup,
            start,
            wall_s,
            cpu_s,
            result,
        })
    }));
    match outcome {
        Ok(Ok(run)) => run,
        Ok(Err(e)) => failed_run(e),
        Err(_) => failed_run("panicked".into()),
    }
}

fn failed_run(why: String) -> Run {
    Run {
        setup: SetupTimes::default(),
        start: Instant::now(),
        wall_s: f64::NAN,
        cpu_s: f64::NAN,
        result: Err(why),
    }
}

/// Set-up times of `runs` topped up with set-up-only repetitions.
fn setup_samples(workload: Workload, seed: u64, runs: &[&Run]) -> Vec<SetupTimes> {
    let mut setups: Vec<SetupTimes> = runs
        .iter()
        .filter(|r| r.result.is_ok())
        .map(|r| r.setup)
        .collect();
    let total = |s: &[SetupTimes]| s.iter().map(SetupTimes::total).sum::<f64>();
    while setups.len() < MIN_SETUPS || total(&setups) < MIN_SETUP_TIME.as_secs_f64() {
        match setup(workload, seed, &mut Plain, |b| b) {
            Ok((_trainer, times)) => setups.push(times),
            Err(_) => break,
        }
    }
    setups
}

fn rounds_label(workload: Workload) -> &'static str {
    if workload.has_target() {
        "rounds_to_target"
    } else {
        "rounds"
    }
}

fn print_run(i: usize, run: &Run, workload: Workload) {
    match &run.result {
        Ok(r) => println!(
            "run {i}: setup_s {:.4} s | run_s {:.3} s | cpu_s {:.3} s | {} {} | \
             final accuracy {:.4} | digest {:016x}",
            run.setup.total(),
            run.wall_s,
            run.cpu_s,
            rounds_label(workload),
            rounds_of(r),
            r.final_accuracy(),
            digest(r)
        ),
        Err(e) => println!("run {i}: FAILED: {e}"),
    }
}

/// Rounds that count toward cost: `reached_target.round + 1` on target
/// workloads, `rounds_run` otherwise.
fn rounds_of(r: &RunResult) -> usize {
    r.reached_target.map_or(r.rounds_run, |hit| hit.round + 1)
}

fn kib_per_node(r: &RunResult, nodes: usize) -> f64 {
    r.total_traffic.bytes_sent as f64 / nodes as f64 / 1024.0
}

fn sim_s(r: &RunResult) -> f64 {
    r.final_record().map_or(0.0, |rec| rec.sim_time_s)
}

fn end_to_end(args: &Args) -> Report {
    let w = args.workload;
    let nodes = w.nodes();
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let begin = Instant::now();
    let steal0 = host_steal_s();
    let mut runs: Vec<Run> = Vec::new();
    loop {
        let run = run_once(w, args.seed, &mut Plain, |b| b);
        print_run(runs.len(), &run, w);
        let failed = run.result.is_err();
        runs.push(run);
        let elapsed = begin.elapsed();
        let per_run = elapsed / runs.len() as u32;
        // A failed run ends the measurement: its metrics are not comparable.
        if failed || (runs.len() >= MIN_RUNS && elapsed + per_run / 2 > budget) {
            break;
        }
    }
    let measured_s = begin.elapsed().as_secs_f64();
    let steal_s = host_steal_s().zip(steal0).map_or(f64::NAN, |(b, a)| b - a);
    let mut failures = Vec::new();
    let reference = runs.iter().find_map(|r| r.result.as_ref().ok());
    for (i, run) in runs.iter().enumerate() {
        match (&run.result, reference) {
            (Err(e), _) => failures.push(format!("run {i}: {e}")),
            (Ok(r), Some(first)) if !same_run(r, first) => {
                failures.push(format!("run {i}: differs from run 0 on the same seed"));
            }
            _ => {}
        }
    }
    let ok: Vec<(&Run, &RunResult)> = runs
        .iter()
        .filter_map(|run| run.result.as_ref().ok().map(|r| (run, r)))
        .collect();
    let setups = setup_samples(w, args.seed, &runs.iter().collect::<Vec<_>>());
    let setup_s = median(&setups.iter().map(SetupTimes::total).collect::<Vec<_>>());
    let per_run = |f: &dyn Fn(&Run, &RunResult) -> f64| -> f64 {
        median(&ok.iter().map(|(run, r)| f(run, r)).collect::<Vec<_>>())
    };
    let run_s = per_run(&|run, _| run.wall_s);
    let cpu_s = per_run(&|run, _| run.cpu_s);
    let node_rounds_per_s = per_run(&|run, r| (nodes * r.rounds_run) as f64 / run.wall_s);
    let cpu_ms_per_round = per_run(&|run, r| 1e3 * run.cpu_s / r.rounds_run as f64);
    let rss = peak_rss_mib().unwrap_or(f64::NAN);
    let (rounds, kib, sim, kib_per_round) = reference.map_or((0, 0.0, 0.0, 0.0), |r| {
        let kib = kib_per_node(r, nodes);
        (rounds_of(r), kib, sim_s(r), kib / r.rounds_run as f64)
    });
    let failed_runs = failures.len().min(runs.len()) as f64 / runs.len() as f64;
    println!(
        "{} seed {}: {} nodes, {THREADS} threads, {} measured runs in {measured_s:.1} s; \
         host steal {steal_s:.1} CPU-s meanwhile",
        w.name(),
        args.seed,
        nodes,
        runs.len()
    );
    println!(
        "end to end: setup_s {setup_s:.4} s | run_s {run_s:.3} s | cpu_s {cpu_s:.3} s | \
         node_rounds_per_s {node_rounds_per_s:.1} 1/s | peak_rss_mb {rss:.1} MiB | {} {rounds} \
         rounds | kb_per_node {kib:.1} KiB | sim_s {sim:.3} s | failed_runs {failed_runs} ratio",
        rounds_label(w)
    );
    if let Some(r) = reference {
        println!("digest {} seed {}: {:016x}", w.name(), args.seed, digest(r));
    }
    Report {
        attempted: runs.len(),
        failures,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("cpu_ms_per_round", cpu_ms_per_round, "ms"),
            ("peak_rss_mb", rss, "MiB"),
            ("kb_per_node_round", kib_per_round, "KiB"),
        ],
    }
}

/// Per-kind call counts, thread-seconds and work.
#[derive(Default, Clone, Copy)]
struct KindTotals {
    calls: u64,
    secs: f64,
    work: u64,
}

/// Total wall time covered by at least one span (spans sorted by start).
fn covered_s(spans: &[Span]) -> f64 {
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for s in spans {
        current = match current {
            Some((a, b)) if s.start_ns <= b => Some((a, b.max(s.end_ns))),
            Some((a, b)) => {
                covered += b - a;
                Some((s.start_ns, s.end_ns))
            }
            None => Some((s.start_ns, s.end_ns)),
        };
    }
    if let Some((a, b)) = current {
        covered += b - a;
    }
    covered as f64 * 1e-9
}

/// Engine phase split: propose, execute, commit seconds, batch count and
/// mean batch width.
struct Phases {
    propose_s: f64,
    execute_s: f64,
    commit_s: f64,
    batches: usize,
    width: f64,
}

/// The event engine reports its phases in `ExecuteBatch` events.
fn event_phases(events: &[TraceEvent]) -> Phases {
    let mut p = Phases {
        propose_s: 0.0,
        execute_s: 0.0,
        commit_s: 0.0,
        batches: 0,
        width: 0.0,
    };
    let mut width = 0u64;
    for e in events {
        if let TraceEvent::ExecuteBatch {
            width: w,
            propose_ns,
            execute_ns,
            commit_ns,
            ..
        } = *e
        {
            p.propose_s += propose_ns as f64 * 1e-9;
            p.execute_s += execute_ns as f64 * 1e-9;
            p.commit_s += commit_ns as f64 * 1e-9;
            p.batches += 1;
            width += u64::from(w);
        }
    }
    p.width = width as f64 / p.batches.max(1) as f64;
    p
}

/// The barrier engine emits no phase timings; infer them from the spans.
/// Each round has a parallel train phase (SGD plus message building), a
/// parallel mix phase and, on evaluation rounds, a parallel eval phase.
/// A phase's window runs from its first span's start to its last span's
/// end: "execute" is the sum of windows, "propose" the sequential gaps
/// before train phases, "commit" the remaining sequential time.
fn barrier_phases(spans: &[Span], run_start_ns: u64, run_end_ns: u64) -> Phases {
    let mut windows: BTreeMap<(u32, u8), (u64, u64, Vec<u32>)> = BTreeMap::new();
    for s in spans {
        let phase = match s.kind {
            Kind::Sgd | Kind::Build => 0,
            Kind::Mix => 1,
            Kind::Eval => 2,
        };
        let w = windows
            .entry((s.round, phase))
            .or_insert((s.start_ns, s.end_ns, Vec::new()));
        w.0 = w.0.min(s.start_ns);
        w.1 = w.1.max(s.end_ns);
        w.2.push(s.node);
    }
    let mut ordered: Vec<(u8, u64, u64, usize)> = windows
        .into_iter()
        .map(|((_, phase), (a, b, mut nodes))| {
            nodes.sort_unstable();
            nodes.dedup();
            (phase, a, b, nodes.len())
        })
        .collect();
    ordered.sort_by_key(|w| w.1);
    let (mut propose, mut execute, mut width) = (0u64, 0u64, 0usize);
    let mut last_end = run_start_ns;
    for &(phase, a, b, nodes) in &ordered {
        if phase == 0 {
            propose += a.saturating_sub(last_end);
        }
        execute += b - a;
        width += nodes;
        last_end = last_end.max(b);
    }
    let wall = run_end_ns.saturating_sub(run_start_ns);
    Phases {
        propose_s: propose as f64 * 1e-9,
        execute_s: execute as f64 * 1e-9,
        commit_s: wall.saturating_sub(propose + execute) as f64 * 1e-9,
        batches: ordered.len(),
        width: width as f64 / ordered.len().max(1) as f64,
    }
}

fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\": \"{}\", \"node\": {}, \"round\": {}, \"thread\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"work\": {}}}",
            s.kind.name(),
            s.node,
            s.round,
            s.thread,
            s.start_ns,
            s.end_ns,
            s.work
        )?;
    }
    out.flush()
}

fn traced(args: &Args) -> Report {
    let w = args.workload;
    let nodes = w.nodes();
    let mut failures = Vec::new();

    let plain = run_once(w, args.seed, &mut Plain, |b| b);
    print_run(0, &plain, w);
    let recorder = Recorder::new();
    let sink = MemorySink::new();
    let mut timed = Timed {
        recorder: Arc::clone(&recorder),
    };
    let sink_handle = sink.clone();
    let traced_run = run_once(w, args.seed, &mut timed, move |b| {
        b.trace_sink(Box::new(sink_handle))
    });
    print_run(1, &traced_run, w);
    let spans = recorder.take_spans();
    let capture = recorder.take_capture();

    let (reference, traced_result) = match (&plain.result, &traced_run.result) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for (label, r) in [("untraced", a), ("traced", b)] {
                if let Err(e) = r {
                    failures.push(format!("{label} run: {e}"));
                }
            }
            return Report {
                attempted: 2,
                failures,
                metrics: Vec::new(),
            };
        }
    };
    if !same_run(reference, traced_result) {
        failures.push("traced run's records differ from the untraced run's".into());
    }

    let mut totals = [KindTotals::default(); 4];
    for s in &spans {
        let t = &mut totals[s.kind as usize];
        t.calls += 1;
        t.secs += s.secs();
        t.work += s.work;
    }
    let [sgd, eval, build, mix] = totals;

    let run_start_ns = recorder.ns_at(traced_run.start);
    let run_end_ns = run_start_ns + (traced_run.wall_s * 1e9) as u64;
    let wall = traced_run.wall_s;
    let child_s: f64 = spans.iter().map(Span::secs).sum();
    let engine_self_s = (wall - covered_s(&spans)).max(0.0);
    let pool_busy_ratio = child_s / (THREADS as f64 * wall);
    let phases = match w.config(args.seed).execution {
        ExecutionMode::EventDriven => event_phases(&sink.events()),
        _ => barrier_phases(&spans, run_start_ns, run_end_ns),
    };

    let t = &reference.total_traffic;
    let dim = capture.as_ref().map_or(0, |c| c.built_from.len());
    let raw_bytes = t.messages_sent as f64 * 4.0 * dim as f64;
    let saved_kib = (raw_bytes - t.bytes_sent as f64) / 1024.0;
    let share_cpu_us_per_kb_saved = (build.secs + mix.secs) * 1e6 / saved_kib;

    let kernels = match capture.as_ref().map(|c| replay::replay(w.sharing(), c)) {
        Some(Ok(k)) => k,
        Some(Err(e)) => {
            failures.push(format!("kernel replay: {e}"));
            replay::KernelCosts::default()
        }
        None => {
            failures.push("node 0 never aggregated; nothing to replay".into());
            replay::KernelCosts::default()
        }
    };

    let setups = setup_samples(w, args.seed, &[&plain]);
    let setup_med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    if let Some(dir) = &args.spans_dir {
        let path = dir.join(format!("{}-seed{}.jsonl", w.name(), args.seed));
        match write_spans(&path, &spans) {
            Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    println!(
        "traced {} seed {}: wall {wall:.3} s vs untraced {:.3} s; {} spans; records bit-identical: {}",
        w.name(),
        args.seed,
        plain.wall_s,
        spans.len(),
        same_run(reference, traced_result)
    );
    println!(
        "digest {} seed {}: {:016x}",
        w.name(),
        args.seed,
        digest(reference)
    );

    let kib = |bytes: f64| bytes / 1024.0;
    Report {
        attempted: 2,
        failures,
        metrics: vec![
            ("nn.sgd_s", sgd.secs, "s"),
            ("nn.sgd_calls", sgd.calls as f64, "count"),
            ("nn.eval_s", eval.secs, "s"),
            ("nn.eval_calls", eval.calls as f64, "count"),
            ("core.share_build_s", build.secs, "s"),
            ("core.share_build_calls", build.calls as f64, "count"),
            ("core.share_build_kb", kib(build.work as f64), "KiB"),
            ("core.share_mix_s", mix.secs, "s"),
            ("core.share_mix_calls", mix.calls as f64, "count"),
            ("core.share_mix_msgs", mix.work as f64, "count"),
            (
                "core.share_cpu_us_per_kb_saved",
                share_cpu_us_per_kb_saved,
                "us/KiB",
            ),
            ("core.engine_self_s", engine_self_s, "s"),
            ("core.pool_busy_ratio", pool_busy_ratio, "ratio"),
            ("core.engine_propose_s", phases.propose_s, "s"),
            ("core.engine_execute_s", phases.execute_s, "s"),
            ("core.engine_commit_s", phases.commit_s, "s"),
            ("core.engine_batches", phases.batches as f64, "count"),
            ("core.engine_batch_width", phases.width, "count"),
            ("net.msgs_sent", t.messages_sent as f64, "count"),
            ("net.msgs_expired", t.messages_expired as f64, "count"),
            ("net.msgs_dropped", t.messages_dropped as f64, "count"),
            ("net.payload_kb", kib(t.payload_sent as f64), "KiB"),
            ("net.metadata_kb", kib(t.metadata_sent as f64), "KiB"),
            (
                "net.useful_ratio",
                mix.work as f64 / t.messages_sent.max(1) as f64,
                "ratio",
            ),
            ("wavelet.forward_us", kernels.forward_us, "us"),
            ("wavelet.inverse_us", kernels.inverse_us, "us"),
            ("core.topk_us", kernels.topk_us, "us"),
            ("core.average_us", kernels.average_us, "us"),
            ("codec.index_encode_us", kernels.index_encode_us, "us"),
            ("codec.index_decode_us", kernels.index_decode_us, "us"),
            (
                "codec.index_bits_per_index",
                kernels.index_bits_per_index,
                "bit",
            ),
            ("codec.value_encode_us", kernels.value_encode_us, "us"),
            ("codec.value_decode_us", kernels.value_decode_us, "us"),
            (
                "codec.value_bytes_per_value",
                kernels.value_bytes_per_value,
                "B",
            ),
            ("data.gen_s", setup_med(|s| s.data_s), "s"),
            ("topology.build_s", setup_med(|s| s.topology_s), "s"),
            ("core.trainer_build_s", setup_med(|s| s.build_s), "s"),
            ("trace.overhead_ratio", wall / plain.wall_s, "ratio"),
            ("run.run_s", plain.wall_s, "s"),
            (
                "run.node_rounds_per_s",
                (nodes * reference.rounds_run) as f64 / plain.wall_s,
                "1/s",
            ),
            ("run.cpu_s", plain.cpu_s, "s"),
            ("run.rounds", rounds_of(reference) as f64, "rounds"),
            ("run.kb_per_node", kib_per_node(reference, nodes), "KiB"),
            ("run.sim_s", sim_s(reference), "sim_s"),
        ],
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    report.print();
    ExitCode::SUCCESS
}
