//! `teig_shards`: synchronous `T(EIG)` at n=32, ℓ=4 (stacked), t=1, as K=8
//! shards on one `ShardedSimulation` over `Pool::new(min(2, cores))` with
//! exact bit measurement. Every shot has seeded inputs and one seeded
//! Byzantine `Equivocator`; each shard runs its queue of shots back to
//! back.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use homonym_classic::Eig;
use homonym_core::codec;
use homonym_core::exec::{Executor, Pool, Sequential};
use homonym_core::{Domain, IdAssignment, Pid, Protocol, ProtocolFactory, SystemConfig};
use homonym_sim::adversary::Equivocator;
use homonym_sim::{Adversary, ShardSpec, ShardedSimulation, ShotSpec, Simulation};
use homonym_sync::{Transformed, TransformedFactory, TransformerMsgOf};

use crate::probe::{Probe, ProbeInstance};
use crate::trace::{
    Layer, Name, Root, Samples, TimedAdversary, TimedExecutor, TimedFactory, Tracer,
};
use crate::{secs, Det, Outcome, Pass, Rng};

type Inner = Transformed<Eig<bool>>;
type Msg = TransformerMsgOf<Eig<bool>>;

/// The workload's size; [`Params::FULL`] is the benchmark's.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Processes per shard.
    pub n: usize,
    /// Shards.
    pub shards: usize,
    /// Shots queued per shard in one pass.
    pub shots: usize,
}

impl Params {
    /// The benchmark's size.
    pub const FULL: Params = Params {
        n: 32,
        shards: 8,
        shots: 4,
    };
}

const T: usize = 1;
/// Identifiers, stacked over the processes.
const ELL: usize = 4;

fn factory() -> TransformedFactory<Eig<bool>> {
    TransformedFactory::new(Eig::new(ELL, T, Domain::binary()), T)
}

fn cfg(p: &Params) -> SystemConfig {
    SystemConfig::builder(p.n, ELL, T)
        .build()
        .expect("T(EIG) parameters are valid")
}

/// One shot's generated inputs.
struct Shot {
    inputs: Vec<bool>,
    byz: Pid,
    split: BTreeSet<Pid>,
}

fn shot(seed: u64, p: &Params, index: u64) -> Shot {
    let mut rng = Rng::sub(seed, "teig_shards", index);
    let inputs = (0..p.n).map(|_| rng.coin()).collect();
    let byz = Pid::new(rng.range(0, p.n as u64 - 1) as usize);
    let split = (0..p.n).map(Pid::new).filter(|_| rng.coin()).collect();
    Shot { inputs, byz, split }
}

fn horizon() -> u64 {
    factory().round_bound() + 9
}

/// One pass: every shard drains its queue. `tracer` selects the traced
/// configuration (every wrapper installed).
pub fn pass<E: Executor>(
    seed: u64,
    p: &Params,
    exec: impl Fn() -> E,
    tracer: Option<&Arc<Tracer>>,
    samples: Option<&Samples<Msg>>,
) -> Pass {
    match tracer {
        None => run_pass(seed, p, exec, factory(), None),
        Some(t) => {
            let f = TimedFactory::new(factory(), Layer::Sync, t, samples.cloned());
            run_pass(seed, p, || TimedExecutor::new(exec(), t), f, Some(t))
        }
    }
}

fn run_pass<E, G>(
    seed: u64,
    p: &Params,
    exec: impl Fn() -> E,
    factory_g: G,
    tracer: Option<&Arc<Tracer>>,
) -> Pass
where
    E: Executor,
    G: ProtocolFactory + Clone + Send + 'static,
    G::P: Protocol<Msg = Msg, Value = bool> + Send,
{
    let mut out = Pass::default();
    let h = horizon();
    let (mut sim, setup_s) = crate::set_up(|| {
        let inner = factory();
        let cfg = cfg(p);
        let assignment = IdAssignment::stacked(ELL, p.n).expect("ℓ ≤ n");
        let mut sim = ShardedSimulation::with_executor(exec()).measure_bits(true);
        for s in 0..p.shards {
            let mut spec = ShardSpec::new(cfg, assignment.clone());
            for q in 0..p.shots {
                let g = shot(seed, p, (s * p.shots + q) as u64);
                let byz = BTreeSet::from([g.byz]);
                let eq: Equivocator<Inner> =
                    Equivocator::new(&inner, &assignment, &byz, false, true, g.split);
                let adv: Box<dyn Adversary<Msg> + Send> = match tracer {
                    Some(t) => Box::new(TimedAdversary::new(eq, t)),
                    None => Box::new(eq),
                };
                spec = spec.shot(ShotSpec::new(g.inputs).byzantine(byz, adv).horizon(h));
            }
            sim.add_shard(spec, factory_g.clone());
        }
        sim
    });
    out.setup_s = setup_s;

    // Cumulative timed clock at the end of each tick.
    let mut ends: Vec<f64> = Vec::new();
    let max_ticks = (p.shots as u64 + 1) * (h + 1);
    while !sim.all_idle() && sim.tick() < max_ticks {
        let root = tracer.map(|t| t.root(Root::Step));
        let t0 = Instant::now();
        sim.step();
        let dt = secs(t0);
        drop(root);
        out.timed_s += dt;
        out.round_us.push(dt * 1e6);
        ends.push(out.timed_s);
    }
    if !sim.all_idle() {
        out.failures.push(format!(
            "teig_shards: shards still busy after {max_ticks} ticks"
        ));
    }

    let mut det = Det {
        steps: sim.tick(),
        ..Det::default()
    };
    for shard in sim.run(0) {
        for s in &shard.shots {
            det.instances += 1;
            out.attempted += 1;
            let r = &s.report;
            let id = (s.shard.index() * p.shots + s.shot) as u64;
            for (pid, (v, round)) in &r.outcome.decisions {
                out.decisions.push((id, pid.index(), *v, round.index()));
            }
            det.msgs += r.messages_sent;
            det.delivered += r.messages_delivered;
            det.bits += s.bits_sent.unwrap_or(0);
            det.peak_state_bits = det.peak_state_bits.max(r.peak_state_bits);
            match r.all_decided_round {
                Some(round) if r.verdict.all_hold() => {
                    det.decided += 1;
                    det.rounds += round.index() + 1;
                    let start = match s.started_tick {
                        0 => 0.0,
                        t => ends[t as usize - 1],
                    };
                    out.decide_ms
                        .push((ends[s.finished_tick as usize] - start) * 1e3);
                }
                _ => out.failures.push(format!(
                    "teig_shards shard {} shot {}: verdict {:?}",
                    s.shard.index(),
                    s.shot,
                    r.verdict
                )),
            }
        }
    }
    out.det = det;
    out
}

/// The recovery probe over the seed's shots, run solo.
fn probe<'a>(
    seed: u64,
    p: &'a Params,
    f: &'a TransformedFactory<Eig<bool>>,
) -> Probe<'a, TransformedFactory<Eig<bool>>> {
    let assignment = IdAssignment::stacked(ELL, p.n).expect("ℓ ≤ n");
    let shots = assignment.clone();
    let make = move |i: u64| {
        let g = shot(seed, p, i);
        let byz = BTreeSet::from([g.byz]);
        let eq: Equivocator<Inner> = Equivocator::new(f, &shots, &byz, false, true, g.split);
        ProbeInstance {
            inputs: g.inputs,
            byz: Some((byz, Box::new(eq) as Box<dyn Adversary<Msg>>)),
            drops: None,
        }
    };
    Probe::new(f, cfg(p), assignment, make, horizon())
}

/// A solo replay of one pass's shots, outside the timed phase. `T(EIG)`
/// leaves `Protocol::state_bits` uninstrumented (0), so the pass's state
/// size is measured here instead: after every round, the sum over
/// processes of the exact codec frame size of each simulated EIG state
/// (`Transformed::state`). The replay's rounds and messages, summed over
/// the pass, must match the sharded engine's.
fn account(seed: u64, p: &Params) -> Det {
    let f = factory();
    let assignment = IdAssignment::stacked(ELL, p.n).expect("ℓ ≤ n");
    let mut det = Det::default();
    for i in 0..(p.shards * p.shots) as u64 {
        let g = shot(seed, p, i);
        let byz = BTreeSet::from([g.byz]);
        let eq: Equivocator<Inner> = Equivocator::new(&f, &assignment, &byz, false, true, g.split);
        let mut sim = Simulation::builder(cfg(p), assignment.clone(), g.inputs)
            .byzantine(byz, eq)
            .build_with(&f);
        while sim.round().index() < horizon() && !sim.all_decided() {
            sim.step();
            let bits: u64 = sim
                .processes()
                .map(|(_, q)| codec::frame_bits(q.state()))
                .sum();
            det.peak_state_bits = det.peak_state_bits.max(bits);
        }
        let r = sim.report();
        det.msgs += r.messages_sent;
        det.rounds += r.all_decided_round.map_or(0, |round| round.index() + 1);
    }
    det
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, p: &Params) -> (Outcome, Vec<Pass>) {
    run_with(seed, seconds, p, true)
}

/// The untraced run; `with_probe` runs the recovery probe (the traced run
/// prints no end-to-end metric and skips it).
fn run_with(seed: u64, seconds: f64, p: &Params, with_probe: bool) -> (Outcome, Vec<Pass>) {
    let width = crate::pool_width();
    let f = factory();
    let mut probe = probe(seed, p, &f);
    let (passes, rss) = crate::timed_phase(
        seconds,
        || pass(seed, p, || Pool::new(width), None, None),
        |frac| {
            if with_probe {
                probe.run_until(frac, seconds)
            }
        },
    );
    let recovery = if with_probe {
        probe.finish(seconds)
    } else {
        crate::metrics::Recovery::default()
    };
    let mut out = Outcome::default();
    for ps in &passes {
        out.absorb(ps);
    }
    crate::check_repeat(&mut out, &passes);
    let solo = account(seed, p);
    let mut det = passes[0].det;
    if (solo.rounds, solo.msgs) != (det.rounds, det.msgs) {
        out.fail(format!(
            "solo replay diverged from the sharded run: rounds {} vs {}, msgs {} vs {}",
            solo.rounds, det.rounds, solo.msgs, det.msgs
        ));
    }
    det.peak_state_bits = solo.peak_state_bits;
    out.absorb_recovery(&recovery);
    out.values = crate::metrics::end_to_end(&passes, &det, &recovery, rss);
    out.notes
        .push(crate::metrics::sample_counts(&passes, &recovery));
    (out, passes)
}

/// The traced run: per-layer metrics and the transparency check.
pub fn run_traced(seed: u64, seconds: f64, p: &Params) -> Outcome {
    let width = crate::pool_width();
    let (mut out, plain) = run_with(seed, seconds, p, false);
    let tracer = Tracer::new();
    let samples: Samples<Msg> = Arc::new(Mutex::new(Vec::new()));
    let traced = crate::run_count(plain.len(), || {
        pass(seed, p, || Pool::new(width), Some(&tracer), Some(&samples))
    });
    for ps in &traced {
        out.absorb(ps);
    }
    crate::check_repeat(&mut out, &traced);
    crate::check_same_run(&mut out, "traced run", &plain[0], &traced[0]);
    if plain[0].det.bits != traced[0].det.bits {
        out.fail("traced run changed bits".into());
    }
    let seq = pass(seed, p, || Sequential, None, None);
    out.absorb(&seq);
    crate::check_same_run(&mut out, "sequential run", &plain[0], &seq);

    let prof = tracer.profile();
    let steps: u64 = traced.iter().map(|ps| ps.det.steps).sum();
    let per_step_us = |ns: u64| crate::trace::ratio(ns as f64 / 1e3, steps as f64);
    let plain_s: f64 = plain.iter().map(|ps| ps.timed_s).sum();
    let traced_s: f64 = traced.iter().map(|ps| ps.timed_s).sum();
    let pool_s = plain_s / plain.len() as f64;
    let step = prof.root(Root::Step);
    let (enc, bytes) = crate::encode_rate(&samples.lock().expect("samples poisoned"));
    let det = &plain[0].det;
    out.values = [
        ("sim.shards.step.self_us", per_step_us(step.self_ns)),
        (
            "sim.adversary.us_per_round",
            per_step_us(prof.under(Root::Step, Name::Adversary).total_ns),
        ),
        (
            "sim.delivered_ratio",
            crate::trace::ratio(det.delivered as f64, det.msgs as f64),
        ),
        (
            "sim.msgs_per_round",
            crate::trace::ratio(det.msgs as f64, det.steps as f64),
        ),
        (
            "exec.busy_frac",
            crate::trace::ratio(prof.busy_ns as f64, (width as u64 * step.total_ns) as f64),
        ),
        (
            "exec.pool_speedup",
            crate::trace::ratio(seq.timed_s, pool_s),
        ),
        (
            "sync.send_us_per_round",
            per_step_us(prof.under(Root::Step, Name::Send(Layer::Sync)).total_ns),
        ),
        (
            "sync.receive_us_per_round",
            per_step_us(prof.under(Root::Step, Name::Receive(Layer::Sync)).total_ns),
        ),
        ("sync.inbox_len", prof.inbox_len(Layer::Sync)),
        ("codec.encode_mb_s", enc),
        ("codec.bytes_per_msg", bytes),
        ("trace.overhead", crate::trace::ratio(traced_s, plain_s)),
    ]
    .into_iter()
    .collect();
    out.notes.push(format!("spans: {:?}", prof.dump()));
    out
}
