//! Process counters, summary statistics and the run correctness gate.

use jwins::metrics::{RoundRecord, RunResult};

/// Peak resident set size of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds of this process, all threads included
/// (`/proc/self/stat` fields 14 and 15, in `USER_HZ` = 100 ticks/s).
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields restart after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Host steal time so far, in CPU-seconds summed over all CPUs: time the
/// hypervisor ran something else while this machine's CPUs were ready
/// (`/proc/stat`, first line, eighth value, in `USER_HZ` ticks).
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// Median of `values` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// FNV-1a over the bit patterns of every record plus the run's traffic
/// totals and round count: equal digests mean bit-identical results.
pub fn digest(result: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(result.rounds_run as u64);
    let t = &result.total_traffic;
    for x in [
        t.bytes_sent,
        t.bytes_received,
        t.payload_sent,
        t.metadata_sent,
        t.messages_sent,
        t.messages_dropped,
        t.messages_expired,
    ] {
        eat(x);
    }
    for r in &result.records {
        eat(r.round as u64);
        for x in float_fields(r) {
            eat(x.to_bits());
        }
        for x in [
            r.crashes,
            r.rejoins,
            r.messages_expired,
            r.edges_rewired,
            r.bandwidth_saved_bytes,
            r.attacks_injected,
            u64::from(r.checkpoint),
        ] {
            eat(x);
        }
        for a in &r.per_node_accuracy {
            eat(a.to_bits());
        }
    }
    h
}

fn float_fields(r: &RoundRecord) -> [f64; 12] {
    [
        r.train_loss,
        r.test_loss,
        r.test_accuracy,
        r.test_rmse,
        r.mean_alpha,
        r.cum_bytes_per_node,
        r.cum_payload_per_node,
        r.cum_metadata_per_node,
        r.sim_time_s,
        r.mean_staleness_s,
        r.downweight_mass,
        r.mass_clipped,
    ]
}

/// The correctness gate for one finished run: every record finite, byte
/// accounting consistent, and (on target workloads) the target reached
/// within the round cap. Returns the first violation.
pub fn check_run(result: &RunResult, needs_target: bool) -> Result<(), String> {
    if result.records.is_empty() {
        return Err("no evaluation record".into());
    }
    for r in &result.records {
        if let Some(x) = float_fields(r).iter().find(|x| !x.is_finite()) {
            return Err(format!("round {}: non-finite field {x}", r.round));
        }
        if let Some(a) = r.per_node_accuracy.iter().find(|a| !a.is_finite()) {
            return Err(format!("round {}: non-finite node accuracy {a}", r.round));
        }
        let parts = r.cum_payload_per_node + r.cum_metadata_per_node;
        if (r.cum_bytes_per_node - parts).abs() > 1e-9 * r.cum_bytes_per_node.max(1.0) {
            return Err(format!(
                "round {}: bytes {} != payload + metadata {parts}",
                r.round, r.cum_bytes_per_node
            ));
        }
    }
    let t = &result.total_traffic;
    if t.bytes_sent != t.payload_sent + t.metadata_sent {
        return Err(format!(
            "traffic: bytes_sent {} != payload {} + metadata {}",
            t.bytes_sent, t.payload_sent, t.metadata_sent
        ));
    }
    if t.messages_sent == 0 || t.bytes_sent == 0 {
        return Err("no traffic".into());
    }
    if needs_target && result.reached_target.is_none() {
        return Err(format!(
            "target not reached within {} rounds (final accuracy {:.4})",
            result.rounds_run,
            result.final_accuracy()
        ));
    }
    Ok(())
}

/// Whether two runs are bit-identical: records, traffic and round count.
pub fn same_run(a: &RunResult, b: &RunResult) -> bool {
    a.rounds_run == b.rounds_run
        && a.total_traffic == b.total_traffic
        && a.records.len() == b.records.len()
        && a.records.iter().zip(&b.records).all(|(x, y)| x.bits_eq(y))
}
