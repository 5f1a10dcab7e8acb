//! Reduced-size smoke runs of every workload: every named metric is
//! emitted with the unit and direction `BENCHMARK.json` gives it,
//! deterministic counts repeat across runs of one seed, the traced run
//! passes its transparency check, and the `Timed` wrappers change no
//! decision of a durable crash/recover ledger run.

use std::collections::BTreeMap;

use perfbench::metrics::{Def, END_TO_END, PER_LAYER};
use perfbench::{ledger, lockstep, teig, Outcome, WORKLOADS};

const TEIG: teig::Params = teig::Params {
    n: 8,
    shards: 2,
    shots: 2,
};
const LOSSY: lockstep::LossyParams = lockstep::LossyParams {
    n: 16,
    ell: 10,
    instances: 2,
    gst_max: 2,
};
const DELAY: lockstep::DelayParams = lockstep::DelayParams {
    n: 8,
    ell: 6,
    instances: 2,
    calm_max: 8,
};
const LEDGER: ledger::Params = ledger::Params {
    n: 8,
    ell: 6,
    heights: 4,
    budget: 32,
    chains: 2,
};

const DET: [&str; 5] = [
    "rounds_per_decision",
    "msgs_per_decision",
    "bits_per_decision",
    "peak_state_kib",
    "catch_up_rounds",
];

fn untraced(workload: &str, seed: u64) -> Outcome {
    match workload {
        "teig_shards" => teig::run(seed, 0.0, &TEIG).0,
        "fig5_lossy" => lockstep::lossy(seed, 0.0, &LOSSY).0,
        "fig5_delay" => lockstep::delay(seed, 0.0, &DELAY).0,
        "ledger_recovery" => ledger::run(seed, 0.0, &LEDGER).0,
        _ => unreachable!(),
    }
}

fn traced(workload: &str, seed: u64) -> Outcome {
    match workload {
        "teig_shards" => teig::run_traced(seed, 0.0, &TEIG),
        "fig5_lossy" => lockstep::lossy_traced(seed, 0.0, &LOSSY),
        "fig5_delay" => lockstep::delay_traced(seed, 0.0, &DELAY),
        "ledger_recovery" => ledger::run_traced(seed, 0.0, &LEDGER),
        _ => unreachable!(),
    }
}

/// The per-layer metrics each workload must move, from the layer map.
fn layers_of(workload: &str) -> &'static [&'static str] {
    match workload {
        "teig_shards" => &[
            "sim.shards.step.self_us",
            "sim.adversary.us_per_round",
            "exec.busy_frac",
            "exec.pool_speedup",
            "sync.send_us_per_round",
            "sync.receive_us_per_round",
            "sync.inbox_len",
            "codec.encode_mb_s",
            "codec.bytes_per_msg",
            "trace.overhead",
        ],
        "fig5_lossy" => &[
            "sim.step.self_us",
            "sim.adversary.us_per_round",
            "sim.drops.us_per_round",
            "sim.drops.calls_per_round",
            "sim.delivered_ratio",
            "sim.msgs_per_round",
            "exec.pool_speedup",
            "psync.send_us_per_round",
            "psync.receive_us_per_round",
            "psync.inbox_len",
            "psync.state_kib_per_proc",
            "codec.encode_mb_s",
            "codec.bytes_per_msg",
            "trace.overhead",
        ],
        "ledger_recovery" => &[
            "sim.step.self_us",
            "sim.delivered_ratio",
            "sim.msgs_per_round",
            "psync.send_us_per_round",
            "psync.receive_us_per_round",
            "psync.inbox_len",
            "psync.state_kib_per_proc",
            "chain.self_us_per_round",
            "codec.decode_mb_s",
            "journal.append_us_per_round",
            "journal.sync_us_per_round",
            "journal.bytes_per_round",
            "journal.recover_scan_ms",
            "journal.decode_ms",
            "journal.replay_protocol_ms",
            "journal.replay_rounds",
            "trace.overhead",
        ],
        "fig5_delay" => &[
            "psync.send_us_per_round",
            "psync.receive_us_per_round",
            "psync.inbox_len",
            "psync.state_kib_per_proc",
            "codec.encode_mb_s",
            "codec.bytes_per_msg",
            "delay.self_us_per_round",
            "delay.on_time_ratio",
            "trace.overhead",
        ],
        _ => unreachable!(),
    }
}

fn assert_emitted(workload: &str, out: &Outcome, defs: &[Def], nonzero: &[&str]) {
    assert!(out.failures.is_empty(), "{workload}: {:?}", out.failures);
    assert_eq!(out.failed, 0, "{workload}");
    assert!(out.attempted > 0, "{workload}");
    for d in defs {
        let v = out.values.get(d.name).copied().unwrap_or(0.0);
        assert!(v.is_finite() && v >= 0.0, "{workload}: {} = {v}", d.name);
        if nonzero.contains(&d.name) {
            assert!(v > 0.0, "{workload}: {} is 0", d.name);
        }
    }
}

#[test]
fn benchmark_json_lists_every_metric_with_unit_and_direction() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for d in &END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": ",
            d.name, d.unit, d.better
        );
        assert!(
            json.contains(&entry),
            "end-to-end {} missing: {entry}",
            d.name
        );
    }
    for d in &PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            d.name, d.unit, d.better
        );
        assert!(
            json.contains(&entry),
            "per-layer {} missing: {entry}",
            d.name
        );
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
    }
    let names = json.matches("\"name\":").count();
    assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_repeats_its_counts() {
    for w in WORKLOADS {
        let all: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        let a = untraced(w, 7);
        assert_emitted(w, &a, &END_TO_END, &all);
        let b = untraced(w, 7);
        let det = |o: &Outcome| -> BTreeMap<&str, f64> {
            DET.iter().map(|&k| (k, o.values[k])).collect()
        };
        assert_eq!(det(&a), det(&b), "{w}: deterministic counts moved");
    }
}

#[test]
fn every_traced_run_is_transparent_and_emits_its_layers() {
    for w in WORKLOADS {
        let out = traced(w, 11);
        assert_emitted(w, &out, &PER_LAYER, layers_of(w));
    }
}

#[test]
fn timed_wrappers_change_no_ledger_decision_across_crashes() {
    let (plain, crashes) = ledger::pass_decisions(3, &LEDGER, false);
    let (wrapped, wrapped_crashes) = ledger::pass_decisions(3, &LEDGER, true);
    assert!(crashes > 0, "the schedule crashes at least once");
    assert_eq!(crashes, wrapped_crashes);
    assert_eq!(
        plain.len() as u64,
        LEDGER.chains * LEDGER.heights * LEDGER.n as u64,
        "every process resolves every height"
    );
    assert_eq!(plain, wrapped);
}

#[test]
fn a_ledger_that_cannot_decide_fails_without_panicking() {
    let starved = ledger::Params {
        budget: 2,
        ..LEDGER
    };
    let (out, _) = ledger::run(5, 0.0, &starved);
    assert!(
        out.failed > 0,
        "unresolved heights count as failed operations"
    );
    assert!(out.failures.iter().any(|f| f.contains("unresolved")));
}
