//! The two single-instance Figure 5 workloads.
//!
//! * `fig5_lossy`: faithful Figure 5 (`AgreementFactory`) at n=64, ℓ=34,
//!   t=1 — the tight 2ℓ > n+3t edge — one fresh solo `Simulation` per
//!   instance on `Sequential`, with a seeded Byzantine `Equivocator`,
//!   seeded inputs, and `RandomUntilGst` at p=0.3 up to a seeded GST.
//! * `fig5_delay`: faithful Figure 5 at n=32, ℓ=18, t=1 on `DelayCluster`
//!   with `EventuallyBounded(δ, seeded calm tick, 20δ, seed)`,
//!   `FixedPacing(δ)` and exact bit measurement, instances back to back.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use homonym_core::exec::{Executor, Pool, Sequential};
use homonym_core::{
    Domain, IdAssignment, Pid, Protocol, ProtocolFactory, Round, Synchrony, SystemConfig,
};
use homonym_delay::{DelayCluster, EventuallyBounded, FixedPacing};
use homonym_psync::{AgreementFactory, Bundle, HomonymAgreement};
use homonym_sim::adversary::Equivocator;
use homonym_sim::{Adversary, DropPolicy, RandomUntilGst, Simulation};

use crate::probe::{Probe, ProbeInstance};
use crate::trace::{
    ratio, Layer, Name, Root, Samples, TimedAdversary, TimedDrops, TimedExecutor, TimedFactory,
    Tracer,
};
use crate::{secs, Outcome, Pass, Rng};

type Msg = Bundle<bool>;

const T: usize = 1;
/// `fig5_delay`'s known delay bound δ, in ticks; rounds last δ ticks.
const DELTA: u64 = 2;

fn factory(n: usize, ell: usize) -> AgreementFactory<bool> {
    AgreementFactory::new(n, ell, T, Domain::binary())
}

fn cfg(n: usize, ell: usize) -> SystemConfig {
    SystemConfig::builder(n, ell, T)
        .synchrony(Synchrony::PartiallySynchronous)
        .build()
        .expect("Figure 5 parameters are valid")
}

/// `fig5_lossy`'s size; [`LossyParams::FULL`] is the benchmark's.
#[derive(Clone, Copy, Debug)]
pub struct LossyParams {
    /// Processes.
    pub n: usize,
    /// Identifiers.
    pub ell: usize,
    /// Instances in one pass.
    pub instances: usize,
    /// GSTs are stratified over `1..=gst_max`.
    pub gst_max: u64,
}

impl LossyParams {
    /// The benchmark's size.
    pub const FULL: LossyParams = LossyParams {
        n: 64,
        ell: 34,
        instances: 8,
        gst_max: 8,
    };

    fn horizon(&self) -> u64 {
        self.gst_max + factory(self.n, self.ell).round_bound() + 24
    }
}

/// One `fig5_lossy` instance's generated inputs.
struct LossyInst {
    inputs: Vec<bool>,
    byz: BTreeSet<Pid>,
    split: BTreeSet<Pid>,
    gst: u64,
    drop_seed: u64,
}

/// Instance `index` of the pass (taken modulo the pass length). GSTs are
/// stratified: every seed runs each GST in `1..=gst_max` equally often.
fn lossy_inst(seed: u64, p: &LossyParams, index: u64) -> LossyInst {
    let index = index % p.instances as u64;
    let slot = Rng::sub(seed, "fig5_lossy/gst", 0).permutation(p.instances)[index as usize];
    let mut rng = Rng::sub(seed, "fig5_lossy", index);
    LossyInst {
        inputs: (0..p.n).map(|_| rng.coin()).collect(),
        byz: BTreeSet::from([Pid::new(rng.range(0, p.n as u64 - 1) as usize)]),
        split: (0..p.n).map(Pid::new).filter(|_| rng.coin()).collect(),
        gst: 1 + slot as u64 % p.gst_max,
        drop_seed: rng.next_u64(),
    }
}

fn equivocator(p: &LossyParams, g: &LossyInst) -> Equivocator<HomonymAgreement<bool>> {
    let assignment = IdAssignment::stacked(p.ell, p.n).expect("ℓ ≤ n");
    Equivocator::new(
        &factory(p.n, p.ell),
        &assignment,
        &g.byz,
        false,
        true,
        g.split.clone(),
    )
}

/// One `fig5_lossy` pass over the seed's instances. `tracer` installs
/// every wrapper; `account` records delivery traces to count exact bits
/// (an accounting pass, not a timed one).
pub fn lossy_pass<E: Executor>(
    seed: u64,
    p: &LossyParams,
    exec: impl Fn() -> E,
    tracer: Option<&Arc<Tracer>>,
    samples: Option<&Samples<Msg>>,
    account: bool,
) -> Pass {
    let f = factory(p.n, p.ell);
    match tracer {
        None => run_lossy(seed, p, exec, &f, None, account),
        Some(t) => {
            let g = TimedFactory::new(f, Layer::Psync, t, samples.cloned());
            run_lossy(
                seed,
                p,
                || TimedExecutor::new(exec(), t),
                &g,
                Some(t),
                account,
            )
        }
    }
}

fn run_lossy<E, G>(
    seed: u64,
    p: &LossyParams,
    exec: impl Fn() -> E,
    factory_g: &G,
    tracer: Option<&Arc<Tracer>>,
    account: bool,
) -> Pass
where
    E: Executor,
    G: ProtocolFactory,
    G::P: Protocol<Msg = Msg, Value = bool> + Send,
{
    let mut out = Pass::default();
    let cfg = cfg(p.n, p.ell);
    let assignment = IdAssignment::stacked(p.ell, p.n).expect("ℓ ≤ n");
    let build = || -> Vec<Simulation<G::P, E>> {
        (0..p.instances as u64)
            .map(|i| {
                let g = lossy_inst(seed, p, i);
                let eq = equivocator(p, &g);
                let drops = RandomUntilGst::new(Round::new(g.gst), 0.3, g.drop_seed);
                let b = Simulation::builder(cfg, assignment.clone(), g.inputs)
                    .record_trace(account)
                    .executor(exec());
                match tracer {
                    Some(t) => b
                        .byzantine(g.byz, TimedAdversary::new(eq, t))
                        .drops(TimedDrops::new(drops, t)),
                    None => b.byzantine(g.byz, eq).drops(drops),
                }
                .build_with(factory_g)
            })
            .collect()
    };
    let (sims, setup_s) = crate::set_up(build);
    out.setup_s = setup_s;

    let horizon = p.horizon();
    for (i, mut sim) in sims.into_iter().enumerate() {
        let start = out.timed_s;
        while sim.round().index() < horizon && !sim.all_decided() {
            let root = tracer.map(|t| t.root(Root::Step));
            let t0 = Instant::now();
            sim.step();
            let dt = secs(t0);
            drop(root);
            out.timed_s += dt;
            out.round_us.push(dt * 1e6);
        }
        let r = sim.report();
        for (pid, (v, round)) in &r.outcome.decisions {
            out.decisions
                .push((i as u64, pid.index(), *v, round.index()));
        }
        out.attempted += 1;
        out.det.instances += 1;
        out.det.steps += r.rounds;
        out.det.msgs += r.messages_sent;
        out.det.delivered += r.messages_delivered;
        out.det.peak_state_bits = out.det.peak_state_bits.max(r.peak_state_bits);
        if let Some(trace) = sim.trace() {
            out.det.bits += crate::trace_bits(trace);
        }
        match r.all_decided_round {
            Some(round) if r.verdict.all_hold() => {
                out.det.decided += 1;
                out.det.rounds += round.index() + 1;
                out.decide_ms.push((out.timed_s - start) * 1e3);
            }
            _ => out
                .failures
                .push(format!("fig5_lossy instance {i}: verdict {:?}", r.verdict)),
        }
    }
    out
}

fn lossy_probe<'a>(
    seed: u64,
    p: &'a LossyParams,
    f: &'a AgreementFactory<bool>,
) -> Probe<'a, AgreementFactory<bool>> {
    // Probe instance `i` is the pass's instance in GST slot `i`, so every
    // seed's probe meets the same GSTs in the same order.
    let by_slot = Rng::sub(seed, "fig5_lossy/gst", 0).permutation(p.instances);
    let make = move |i: u64| {
        let slot = (i % p.instances as u64) as usize;
        let index = by_slot
            .iter()
            .position(|&s| s == slot)
            .expect("a permutation");
        let g = lossy_inst(seed, p, index as u64);
        let eq = equivocator(p, &g);
        ProbeInstance {
            byz: Some((g.byz, Box::new(eq) as Box<dyn Adversary<Msg>>)),
            drops: Some(
                Box::new(RandomUntilGst::new(Round::new(g.gst), 0.3, g.drop_seed))
                    as Box<dyn DropPolicy>,
            ),
            inputs: g.inputs,
        }
    };
    let assignment = IdAssignment::stacked(p.ell, p.n).expect("ℓ ≤ n");
    Probe::new(f, cfg(p.n, p.ell), assignment, make, p.horizon())
}

/// The untraced `fig5_lossy` run: end-to-end metrics.
pub fn lossy(seed: u64, seconds: f64, p: &LossyParams) -> (Outcome, Vec<Pass>) {
    lossy_with(seed, seconds, p, true)
}

/// The untraced run; `with_probe` runs the recovery probe (the traced run
/// prints no end-to-end metric and skips it).
fn lossy_with(seed: u64, seconds: f64, p: &LossyParams, with_probe: bool) -> (Outcome, Vec<Pass>) {
    let f = factory(p.n, p.ell);
    let mut probe = lossy_probe(seed, p, &f);
    let (mut passes, rss) = crate::timed_phase(
        seconds,
        || lossy_pass(seed, p, || Sequential, None, None, false),
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
    let acct = lossy_pass(seed, p, || Sequential, None, None, true);
    crate::check_same_run(&mut out, "accounting pass", &passes[0], &acct);
    // The timed passes count no bits; pass 0 takes the accounting pass's.
    passes[0].det.bits = acct.det.bits;
    let det = passes[0].det;
    out.absorb_recovery(&recovery);
    out.values = crate::metrics::end_to_end(&passes, &det, &recovery, rss);
    out.notes
        .push(crate::metrics::sample_counts(&passes, &recovery));
    (out, passes)
}

/// The traced `fig5_lossy` run: per-layer metrics and the transparency
/// check.
pub fn lossy_traced(seed: u64, seconds: f64, p: &LossyParams) -> Outcome {
    let (mut out, plain) = lossy_with(seed, seconds, p, false);
    let tracer = Tracer::new();
    let samples: Samples<Msg> = Arc::new(Mutex::new(Vec::new()));
    let traced = crate::run_count(plain.len(), || {
        lossy_pass(seed, p, || Sequential, Some(&tracer), Some(&samples), false)
    });
    for ps in &traced {
        out.absorb(ps);
    }
    crate::check_repeat(&mut out, &traced);
    crate::check_same_run(&mut out, "traced run", &plain[0], &traced[0]);
    let acct = lossy_pass(seed, p, || Sequential, Some(&Tracer::new()), None, true);
    let plain_bits = plain[0].det.bits;
    if acct.det.bits != plain_bits {
        out.fail(format!(
            "traced run changed bits: {} vs {plain_bits}",
            acct.det.bits
        ));
    }
    let pooled = lossy_pass(
        seed,
        p,
        || Pool::new(crate::pool_width()),
        None,
        None,
        false,
    );
    out.absorb(&pooled);
    crate::check_same_run(&mut out, "pooled run", &plain[0], &pooled);

    let prof = tracer.profile();
    let det = &plain[0].det;
    let steps: u64 = traced.iter().map(|ps| ps.det.steps).sum();
    let per_step_us = |ns: u64| ratio(ns as f64 / 1e3, steps as f64);
    let plain_s: f64 = plain.iter().map(|ps| ps.timed_s).sum();
    let traced_s: f64 = traced.iter().map(|ps| ps.timed_s).sum();
    let drops = prof.under(Root::Step, Name::Drops);
    let (enc, bytes) = crate::encode_rate(&samples.lock().expect("samples poisoned"));
    out.values = [
        (
            "sim.step.self_us",
            per_step_us(prof.root(Root::Step).self_ns),
        ),
        (
            "sim.adversary.us_per_round",
            per_step_us(prof.under(Root::Step, Name::Adversary).total_ns),
        ),
        ("sim.drops.us_per_round", per_step_us(drops.total_ns)),
        (
            "sim.drops.calls_per_round",
            ratio(drops.count as f64, steps as f64),
        ),
        (
            "sim.delivered_ratio",
            ratio(det.delivered as f64, det.msgs as f64),
        ),
        (
            "sim.msgs_per_round",
            ratio(det.msgs as f64, det.steps as f64),
        ),
        (
            "exec.pool_speedup",
            ratio(plain_s / plain.len() as f64, pooled.timed_s),
        ),
        (
            "psync.send_us_per_round",
            per_step_us(prof.under(Root::Step, Name::Send(Layer::Psync)).total_ns),
        ),
        (
            "psync.receive_us_per_round",
            per_step_us(prof.under(Root::Step, Name::Receive(Layer::Psync)).total_ns),
        ),
        ("psync.inbox_len", prof.inbox_len(Layer::Psync)),
        (
            "psync.state_kib_per_proc",
            prof.max_state_bits(Layer::Psync) as f64 / 8192.0,
        ),
        ("codec.encode_mb_s", enc),
        ("codec.bytes_per_msg", bytes),
        ("trace.overhead", ratio(traced_s, plain_s)),
    ]
    .into_iter()
    .collect();
    out.notes.push(format!("spans: {:?}", prof.dump()));
    out
}

/// `fig5_delay`'s size; [`DelayParams::FULL`] is the benchmark's.
#[derive(Clone, Copy, Debug)]
pub struct DelayParams {
    /// Processes.
    pub n: usize,
    /// Identifiers.
    pub ell: usize,
    /// Instances in one pass.
    pub instances: usize,
    /// Calm ticks are stratified over `0..=calm_max`.
    pub calm_max: u64,
}

impl DelayParams {
    /// The benchmark's size.
    pub const FULL: DelayParams = DelayParams {
        n: 32,
        ell: 18,
        instances: 16,
        calm_max: 40,
    };

    fn max_rounds(&self) -> u64 {
        self.calm_max / DELTA + factory(self.n, self.ell).round_bound() + 24
    }
}

struct DelayInst {
    inputs: Vec<bool>,
    calm: u64,
    delay_seed: u64,
}

/// Instance `index` of the pass (taken modulo the pass length). Calm
/// ticks are stratified: every seed runs the same evenly spaced calm
/// ticks over `0..=calm_max`.
fn delay_inst(seed: u64, p: &DelayParams, index: u64) -> DelayInst {
    let index = index % p.instances as u64;
    let slot = Rng::sub(seed, "fig5_delay/calm", 0).permutation(p.instances)[index as usize];
    let mut rng = Rng::sub(seed, "fig5_delay", index);
    DelayInst {
        inputs: (0..p.n).map(|_| rng.coin()).collect(),
        calm: slot as u64 * p.calm_max / (p.instances as u64 - 1).max(1),
        delay_seed: rng.next_u64(),
    }
}

/// Totals of one `fig5_delay` pass the per-layer metrics need.
#[derive(Clone, Copy, Debug, Default)]
struct DelayTotals {
    on_time: u64,
    sent: u64,
}

/// One `fig5_delay` pass over the seed's instances.
fn delay_pass(
    seed: u64,
    p: &DelayParams,
    tracer: Option<&Arc<Tracer>>,
    samples: Option<&Samples<Msg>>,
) -> (Pass, DelayTotals) {
    let f = factory(p.n, p.ell);
    match tracer {
        None => run_delay(seed, p, &f, None),
        Some(t) => {
            let g = TimedFactory::new(f, Layer::Psync, t, samples.cloned());
            run_delay(seed, p, &g, Some(t))
        }
    }
}

fn run_delay<G>(
    seed: u64,
    p: &DelayParams,
    factory_g: &G,
    tracer: Option<&Arc<Tracer>>,
) -> (Pass, DelayTotals)
where
    G: ProtocolFactory,
    G::P: Protocol<Msg = Msg, Value = bool>,
{
    let mut out = Pass::default();
    let mut totals = DelayTotals::default();
    let cfg = cfg(p.n, p.ell);
    let assignment = IdAssignment::stacked(p.ell, p.n).expect("ℓ ≤ n");
    let build = || -> Vec<DelayCluster<G::P>> {
        (0..p.instances as u64)
            .map(|i| {
                let g = delay_inst(seed, p, i);
                DelayCluster::builder(cfg, assignment.clone(), g.inputs)
                    .model(EventuallyBounded::new(
                        DELTA,
                        g.calm,
                        20 * DELTA,
                        g.delay_seed,
                    ))
                    .pacing(FixedPacing::new(DELTA))
                    .measure_bits(true)
                    .build()
            })
            .collect()
    };
    let (clusters, setup_s) = crate::set_up(build);
    out.setup_s = setup_s;

    for (i, mut cluster) in clusters.into_iter().enumerate() {
        let root = tracer.map(|t| t.root(Root::DelayRun));
        let t0 = Instant::now();
        let r = cluster.run(factory_g, p.max_rounds());
        let dt = secs(t0);
        drop(root);
        out.timed_s += dt;
        for (pid, (v, round)) in &r.outcome.decisions {
            out.decisions
                .push((i as u64, pid.index(), *v, round.index()));
        }
        out.attempted += 1;
        out.det.instances += 1;
        out.det.steps += r.rounds;
        out.det.msgs += r.messages_sent;
        out.det.delivered += r.delivered_on_time;
        out.det.bits += r.bits_sent.unwrap_or(0);
        out.det.peak_state_bits = out.det.peak_state_bits.max(r.peak_state_bits);
        totals.on_time += r.delivered_on_time;
        totals.sent += r.messages_sent;
        let decided = r.outcome.decisions.len() == r.outcome.inputs.len();
        if decided && r.verdict.all_hold() && r.rounds > 0 {
            out.det.decided += 1;
            out.det.rounds += r.rounds;
            out.decide_ms.push(dt * 1e3);
            out.round_us.push(dt * 1e6 / r.rounds as f64);
        } else {
            out.failures
                .push(format!("fig5_delay instance {i}: verdict {:?}", r.verdict));
        }
    }
    (out, totals)
}

fn delay_probe<'a>(
    seed: u64,
    p: &'a DelayParams,
    f: &'a AgreementFactory<bool>,
) -> Probe<'a, AgreementFactory<bool>> {
    let make = move |i: u64| ProbeInstance::<Msg> {
        inputs: delay_inst(seed, p, i).inputs,
        byz: None,
        drops: None,
    };
    let assignment = IdAssignment::stacked(p.ell, p.n).expect("ℓ ≤ n");
    Probe::new(f, cfg(p.n, p.ell), assignment, make, p.max_rounds())
}

/// The untraced `fig5_delay` run: end-to-end metrics.
pub fn delay(seed: u64, seconds: f64, p: &DelayParams) -> (Outcome, Vec<Pass>) {
    delay_with(seed, seconds, p, true)
}

/// The untraced run; `with_probe` runs the recovery probe (the traced run
/// prints no end-to-end metric and skips it).
fn delay_with(seed: u64, seconds: f64, p: &DelayParams, with_probe: bool) -> (Outcome, Vec<Pass>) {
    let f = factory(p.n, p.ell);
    let mut probe = delay_probe(seed, p, &f);
    let (passes, rss) = crate::timed_phase(
        seconds,
        || delay_pass(seed, p, None, None).0,
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
    out.absorb_recovery(&recovery);
    out.values = crate::metrics::end_to_end(&passes, &passes[0].det, &recovery, rss);
    out.notes
        .push(crate::metrics::sample_counts(&passes, &recovery));
    (out, passes)
}

/// The traced `fig5_delay` run: per-layer metrics and the transparency
/// check.
pub fn delay_traced(seed: u64, seconds: f64, p: &DelayParams) -> Outcome {
    let (mut out, plain) = delay_with(seed, seconds, p, false);
    let tracer = Tracer::new();
    let samples: Samples<Msg> = Arc::new(Mutex::new(Vec::new()));
    let mut totals = DelayTotals::default();
    let traced = crate::run_count(plain.len(), || {
        let (ps, t) = delay_pass(seed, p, Some(&tracer), Some(&samples));
        totals = t;
        ps
    });
    for ps in &traced {
        out.absorb(ps);
    }
    crate::check_repeat(&mut out, &traced);
    crate::check_same_run(&mut out, "traced run", &plain[0], &traced[0]);
    if plain[0].det.bits != traced[0].det.bits {
        out.fail("traced run changed bits".into());
    }

    let prof = tracer.profile();
    let rounds: u64 = traced.iter().map(|ps| ps.det.steps).sum();
    let per_round_us = |ns: u64| ratio(ns as f64 / 1e3, rounds as f64);
    let plain_s: f64 = plain.iter().map(|ps| ps.timed_s).sum();
    let traced_s: f64 = traced.iter().map(|ps| ps.timed_s).sum();
    let (enc, bytes) = crate::encode_rate(&samples.lock().expect("samples poisoned"));
    out.values = [
        (
            "psync.send_us_per_round",
            per_round_us(
                prof.under(Root::DelayRun, Name::Send(Layer::Psync))
                    .total_ns,
            ),
        ),
        (
            "psync.receive_us_per_round",
            per_round_us(
                prof.under(Root::DelayRun, Name::Receive(Layer::Psync))
                    .total_ns,
            ),
        ),
        ("psync.inbox_len", prof.inbox_len(Layer::Psync)),
        (
            "psync.state_kib_per_proc",
            prof.max_state_bits(Layer::Psync) as f64 / 8192.0,
        ),
        ("codec.encode_mb_s", enc),
        ("codec.bytes_per_msg", bytes),
        (
            "delay.self_us_per_round",
            per_round_us(prof.root(Root::DelayRun).self_ns),
        ),
        (
            "delay.on_time_ratio",
            ratio(totals.on_time as f64, totals.sent as f64),
        ),
        ("trace.overhead", ratio(traced_s, plain_s)),
    ]
    .into_iter()
    .collect();
    out.notes.push(format!("spans: {:?}", prof.dump()));
    out
}
