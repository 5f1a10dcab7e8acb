//! Metric definitions, their computation from passes, and the result line.

use std::collections::BTreeMap;

use crate::{Det, Pass};

/// A metric's name, unit and direction, as `BENCHMARK.json` lists it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Def {
    /// The metric name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// The end-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: [Def; 14] = [
    def("decisions_per_s", "1/s", "higher"),
    def("decide_ms_p50", "ms", "lower"),
    def("decide_ms_p90", "ms", "lower"),
    def("round_us_p50", "us", "lower"),
    def("round_us_p99", "us", "lower"),
    def("rounds_per_decision", "rounds", "lower"),
    def("msgs_per_decision", "msgs", "lower"),
    def("bits_per_decision", "bits", "lower"),
    def("peak_state_kib", "KiB", "lower"),
    def("recover_ms_p50", "ms", "lower"),
    def("recover_ms_p90", "ms", "lower"),
    def("catch_up_rounds", "rounds", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mib", "MiB", "lower"),
];

/// The per-layer metrics, printed by a traced run (`--trace 1`). A layer
/// a workload bypasses reads 0 there.
pub const PER_LAYER: [Def; 30] = [
    def("sim.step.self_us", "us", "lower"),
    def("sim.shards.step.self_us", "us", "lower"),
    def("sim.adversary.us_per_round", "us", "lower"),
    def("sim.drops.us_per_round", "us", "lower"),
    def("sim.drops.calls_per_round", "calls", "lower"),
    def("sim.delivered_ratio", "ratio", "higher"),
    def("sim.msgs_per_round", "msgs", "lower"),
    def("exec.busy_frac", "ratio", "higher"),
    def("exec.pool_speedup", "ratio", "higher"),
    def("sync.send_us_per_round", "us", "lower"),
    def("sync.receive_us_per_round", "us", "lower"),
    def("sync.inbox_len", "envelopes", "lower"),
    def("psync.send_us_per_round", "us", "lower"),
    def("psync.receive_us_per_round", "us", "lower"),
    def("psync.inbox_len", "envelopes", "lower"),
    def("psync.state_kib_per_proc", "KiB", "lower"),
    def("chain.self_us_per_round", "us", "lower"),
    def("codec.encode_mb_s", "MB/s", "higher"),
    def("codec.bytes_per_msg", "bytes", "lower"),
    def("codec.decode_mb_s", "MB/s", "higher"),
    def("journal.append_us_per_round", "us", "lower"),
    def("journal.sync_us_per_round", "us", "lower"),
    def("journal.bytes_per_round", "bytes", "lower"),
    def("journal.recover_scan_ms", "ms", "lower"),
    def("journal.decode_ms", "ms", "lower"),
    def("journal.replay_protocol_ms", "ms", "lower"),
    def("journal.replay_rounds", "rounds", "lower"),
    def("delay.self_us_per_round", "us", "lower"),
    def("delay.on_time_ratio", "ratio", "higher"),
    def("trace.overhead", "ratio", "lower"),
];

/// The `q`-quantile (0..=1) of `xs`, interpolating between order
/// statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn per(a: u64, b: u64) -> f64 {
    crate::trace::ratio(a as f64, b as f64)
}

/// Crash/recover timings of a run: from its timed passes, or, for
/// workloads whose timed phase has no crash, from the recovery probe.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    /// Per-event wall time of `crash` + `recover_with`, ms, one vector per
    /// pass (timed or probe pass); every pass repeats the same events.
    pub recover_ms: Vec<Vec<f64>>,
    /// Crash events.
    pub events: u64,
    /// Summed rounds from a recovery until the rejoiner caught up.
    pub catch_up_rounds: u64,
    /// Operations the probe attempted (instances, crash and recover calls).
    pub attempted: u64,
    /// What failed in the probe.
    pub failures: Vec<String>,
}

/// The `q`-quantile of a sample that every pass repeats, each operation
/// read at its best time. Every pass runs the same seeded work, so the
/// `i`-th sample of each pass times the same operation; each operation is
/// taken at its shortest time over the passes, and the result is the
/// `q`-quantile of those. A shared machine runs the same code in faster
/// and slower stretches, in a mix that changes from run to run. Over ten
/// seeds, readings that mix the stretches (each operation at its lower
/// quartile or median over passes, or a tail of all samples pooled) moved
/// by up to 0.37 of their value; best times moved by 0.04-0.16. A tail is
/// thus a tail of one pass's operations: with 32 ticks a pass, p99 is
/// close to the slowest tick. Passes of unequal length (which no workload
/// produces) give the pooled quantile.
pub fn best_quantile(passes: &[&[f64]], q: f64) -> f64 {
    let Some(first) = passes.first() else {
        return 0.0;
    };
    if passes.iter().any(|p| p.len() != first.len()) {
        let pooled: Vec<f64> = passes.iter().flat_map(|p| p.iter().copied()).collect();
        return quantile(&pooled, q);
    }
    let ops: Vec<f64> = (0..first.len())
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect();
    quantile(&ops, q)
}

/// The end-to-end metrics of a run: `passes` are the timed passes, `det`
/// the counts of one pass (every pass repeats them), `recovery` the
/// crash/recover sample (from the passes or from the probe).
///
/// Every pass repeats the same work, so the rate is the best pass's rate
/// and every percentile is a [`best_quantile`]. The set-up time is the
/// median over passes.
pub fn end_to_end(
    passes: &[Pass],
    det: &Det,
    recovery: &Recovery,
    rss_mib: f64,
) -> BTreeMap<&'static str, f64> {
    let over_passes = |f: &dyn Fn(&Pass) -> f64, q: f64| -> f64 {
        quantile(&passes.iter().map(f).collect::<Vec<f64>>(), q)
    };
    let decide: Vec<&[f64]> = passes.iter().map(|p| p.decide_ms.as_slice()).collect();
    let round: Vec<&[f64]> = passes.iter().map(|p| p.round_us.as_slice()).collect();
    let recover: Vec<&[f64]> = recovery.recover_ms.iter().map(Vec::as_slice).collect();
    BTreeMap::from([
        (
            "decisions_per_s",
            over_passes(
                &|p| crate::trace::ratio(p.det.decided as f64, p.timed_s),
                1.0,
            ),
        ),
        ("decide_ms_p50", best_quantile(&decide, 0.5)),
        ("decide_ms_p90", best_quantile(&decide, 0.9)),
        ("round_us_p50", best_quantile(&round, 0.5)),
        ("round_us_p99", best_quantile(&round, 0.99)),
        ("rounds_per_decision", per(det.rounds, det.decided)),
        ("msgs_per_decision", per(det.msgs, det.decided)),
        ("bits_per_decision", per(det.bits, det.decided)),
        ("peak_state_kib", det.peak_state_bits as f64 / 8192.0),
        ("recover_ms_p50", best_quantile(&recover, 0.5)),
        ("recover_ms_p90", best_quantile(&recover, 0.9)),
        (
            "catch_up_rounds",
            per(recovery.catch_up_rounds, recovery.events),
        ),
        ("setup_s", over_passes(&|p| p.setup_s, 0.5)),
        ("peak_rss_mib", rss_mib),
    ])
}

/// Sample counts behind the percentiles, for the summary line.
pub fn sample_counts(passes: &[Pass], recovery: &Recovery) -> String {
    let decide: usize = passes.iter().map(|p| p.decide_ms.len()).sum();
    let round: usize = passes.iter().map(|p| p.round_us.len()).sum();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| crate::trace::ratio(p.det.decided as f64, p.timed_s))
        .collect();
    format!(
        "samples: passes={} decide={decide} round={round} recover={}; decisions/s per pass: min {:.4} median {:.4} max {:.4}",
        passes.len(),
        recovery.recover_ms.iter().map(Vec::len).sum::<usize>(),
        quantile(&rates, 0.0),
        quantile(&rates, 0.5),
        quantile(&rates, 1.0)
    )
}

/// Renders the result line, the last line of stdout: one JSON object.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A JSON number: Rust's shortest round-trip decimal, never exponent
/// notation; non-finite values (which no metric should produce) read 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn best_quantile_reads_each_operation_at_its_best_time() {
        // Three operations over four passes; one pass is slow throughout
        // and another slows one operation: neither moves the result.
        let calm = [1.0, 2.0, 3.0];
        let slow = [9.0, 9.0, 9.0];
        let burst = [1.0, 9.0, 3.0];
        let passes: Vec<&[f64]> = vec![&calm, &slow, &burst, &calm];
        assert_eq!(best_quantile(&passes, 0.5), 2.0);
        assert_eq!(best_quantile(&passes, 1.0), 3.0);
        // Unequal passes: the pooled quantile.
        let short = [5.0];
        assert_eq!(best_quantile(&[&calm, &short], 1.0), 5.0);
        assert_eq!(best_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
