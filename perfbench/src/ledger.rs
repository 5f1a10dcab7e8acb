//! `ledger_recovery`: a `HeightChain` over bounded Figure 5
//! (`BoundedAgreementFactory`) at n=16, ℓ=10, t=1, for many heights, on a
//! solo `Simulation` with `.durable(k)` at a fixed non-zero snapshot
//! cadence. A seeded schedule crashes one correct process every few heights
//! and recovers it durably 1–8 rounds later, through `crash` /
//! `recover_with` between `step()` calls. No process is Byzantine: the
//! crash is the fault.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use homonym_core::journal::MemJournal;
use homonym_core::{
    ChainMsg, Domain, HeightChain, HeightChainFactory, IdAssignment, Pid, Protocol,
    ProtocolFactory, RecoveryMode, Synchrony, SystemConfig, WireDecode, WireEncode,
};
use homonym_psync::{BoundedAgreementFactory, BoundedBundle};
use homonym_sim::Simulation;

use crate::trace::{
    ratio, Layer, Name, RecordSamples, Root, Timed, TimedFactory, TimedJournal, Tracer,
};
use crate::{secs, Outcome, Pass, Rng};

type Msg = ChainMsg<BoundedBundle<bool>, bool>;

const T: usize = 1;
/// The durable snapshot cadence, in rounds.
const SNAPSHOT_EVERY: u64 = 8;
/// Heights between crashes.
const CRASH_EVERY: u64 = 2;

/// The workload's size; [`Params::FULL`] is the benchmark's.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Processes.
    pub n: usize,
    /// Identifiers.
    pub ell: usize,
    /// Ledger heights in one pass.
    pub heights: u64,
    /// Rounds per height.
    pub budget: u64,
    /// Chains (independent ledgers, each with its own seeded inputs and
    /// crashes) in one pass.
    pub chains: u64,
}

impl Params {
    /// The benchmark's size.
    pub const FULL: Params = Params {
        n: 16,
        ell: 10,
        heights: 12,
        budget: 32,
        chains: 5,
    };

    fn horizon(&self) -> u64 {
        self.budget * self.heights + 8
    }
}

fn cfg(p: &Params) -> SystemConfig {
    SystemConfig::builder(p.n, p.ell, T)
        .synchrony(Synchrony::PartiallySynchronous)
        .build()
        .expect("Figure 5 parameters are valid")
}

fn bounded(p: &Params) -> BoundedAgreementFactory<bool> {
    BoundedAgreementFactory::new(p.n, p.ell, T, Domain::binary())
}

/// One crash: `victim` goes down before round `at` and comes back,
/// durably, before round `back`.
#[derive(Clone, Copy, Debug)]
struct Crash {
    at: u64,
    back: u64,
    victim: Pid,
}

/// Chain `chain`'s inputs and crash schedule.
///
/// The inputs are split evenly, `true` at `n / 2` seeded processes, so
/// every chain runs the contested case: skewed inputs let Figure 5 decide
/// several rounds early, and a seed that drew them would run a lighter
/// ledger.
///
/// There is a crash in heights 1, 1 + [`CRASH_EVERY`], … (not the last), at
/// an offset into the height and with a downtime of 1–8 rounds, and a
/// seeded victim. Offsets and downtimes are evenly spaced and stratified:
/// the seed pairs them with the crash heights in its own order, and chain
/// `c` shifts that pairing by `c`, so a pass of as many chains as crash
/// heights crashes every height at every offset once, whatever the seed.
fn schedule(seed: u64, p: &Params, chain: u64) -> (Vec<bool>, Vec<Crash>) {
    let heights: Vec<u64> = (1..p.heights - 1).step_by(CRASH_EVERY as usize).collect();
    let k = heights.len();
    let mut order = Rng::sub(seed, "ledger_recovery/order", 0);
    let offsets = order.permutation(k);
    let downtimes = order.permutation(k);
    let mut rng = Rng::sub(seed, "ledger_recovery", chain);
    let inputs = rng.permutation(p.n).iter().map(|&k| k < p.n / 2).collect();
    let spread = |j: usize, hi: u64| j as u64 * hi / (k as u64 - 1).max(1);
    let shift = |perm: &[usize], j: usize| (perm[j] + chain as usize) % k;
    let crashes = heights
        .iter()
        .enumerate()
        .map(|(j, &h)| {
            let at = h * p.budget + spread(shift(&offsets, j), p.budget - 1);
            Crash {
                at,
                back: at + 1 + spread(shift(&downtimes, j), 7),
                victim: Pid::new(rng.range(0, p.n as u64 - 1) as usize),
            }
        })
        .collect();
    (inputs, crashes)
}

/// Read access to a chain's ledger through any wrapper.
pub trait Ledger {
    /// The resolved value of height `h`, if any.
    fn entry(&self, h: u64) -> Option<bool>;
}

impl<F> Ledger for HeightChain<F>
where
    F: ProtocolFactory + Clone + Send + Sync + 'static,
    F::P: Protocol<Value = bool> + Clone + std::fmt::Debug + Send + Sync,
{
    fn entry(&self, h: u64) -> Option<bool> {
        self.ledger_entry(h).copied()
    }
}

impl<P: Protocol + Ledger> Ledger for Timed<P> {
    fn entry(&self, h: u64) -> Option<bool> {
        self.inner().entry(h)
    }
}

/// The traced run's journal instruments.
struct JournalTap {
    tracer: Arc<Tracer>,
    bytes: Arc<AtomicU64>,
    records: RecordSamples,
}

/// One pass: one chain of `heights` heights with the seeded crashes.
/// `tap` installs every wrapper; `account` records the delivery trace to
/// count exact bits.
fn pass(seed: u64, p: &Params, tap: Option<&JournalTap>, account: bool) -> Pass {
    match tap {
        None => {
            let f = HeightChainFactory::new(bounded(p), p.budget, p.heights, T);
            run_pass(seed, p, &f, None, account)
        }
        Some(tap) => {
            let t = &tap.tracer;
            let inner = TimedFactory::new(bounded(p), Layer::Psync, t, None);
            let f = TimedFactory::new(
                HeightChainFactory::new(inner, p.budget, p.heights, T),
                Layer::Chain,
                t,
                None,
            );
            run_pass(seed, p, &f, Some(tap), account)
        }
    }
}

fn run_pass<G>(seed: u64, p: &Params, factory: &G, tap: Option<&JournalTap>, account: bool) -> Pass
where
    G: ProtocolFactory,
    G::P: Protocol<Msg = Msg, Value = bool> + Ledger + Send,
    Msg: WireEncode + WireDecode,
{
    let mut out = Pass::default();
    let tracer = tap.map(|t| &t.tracer);
    let build = || -> Vec<(Simulation<G::P>, Vec<Crash>)> {
        (0..p.chains)
            .map(|c| {
                let (inputs, crashes) = schedule(seed, p, c);
                let mut sim = Simulation::builder(
                    cfg(p),
                    IdAssignment::stacked(p.ell, p.n).expect("ℓ ≤ n"),
                    inputs,
                )
                .durable(SNAPSHOT_EVERY)
                .record_trace(account)
                .build_with(factory);
                if let Some(tap) = tap {
                    let pids: Vec<Pid> = sim.processes().map(|(pid, _)| pid).collect();
                    for pid in pids {
                        let j = TimedJournal::new(
                            MemJournal::new(),
                            &tap.tracer,
                            &tap.bytes,
                            &tap.records,
                        );
                        sim.install_journal(pid, Box::new(j));
                    }
                }
                (sim, crashes)
            })
            .collect()
    };
    let (chains, setup_s) = crate::set_up(build);
    out.setup_s = setup_s;
    for (c, (sim, crashes)) in chains.into_iter().enumerate() {
        run_chain(&mut out, c as u64, p, factory, tracer, sim, crashes);
    }
    out
}

/// Runs one chain to its horizon, adding its samples, counts, decisions
/// and failures to `out`.
fn run_chain<G>(
    out: &mut Pass,
    chain: u64,
    p: &Params,
    factory: &G,
    tracer: Option<&Arc<Tracer>>,
    mut sim: Simulation<G::P>,
    crashes: Vec<Crash>,
) where
    G: ProtocolFactory,
    G::P: Protocol<Msg = Msg, Value = bool> + Ledger + Send,
    Msg: WireEncode + WireDecode,
{
    let h_total = p.heights as usize;
    let mut starts = vec![0.0; h_total];
    let mut next_h = 0usize;
    let mut crashes = crashes.into_iter().peekable();
    // (victim, round it comes back, crash time) while a victim is down.
    let mut down: Option<(Pid, u64, f64)> = None;
    // (rejoiner, rounds since its recovery) until it has caught up.
    let mut rejoined: Option<(Pid, u64)> = None;
    let horizon = p.horizon();
    while sim.round().index() < horizon && !sim.all_decided() {
        let r = sim.round().index();
        if r % p.budget == 0 && ((r / p.budget) as usize) < h_total {
            starts[(r / p.budget) as usize] = out.timed_s;
        }
        if crashes.peek().is_some_and(|c| c.at == r) && down.is_none() {
            let c = crashes.next().expect("peeked");
            let root = tracer.map(|t| t.root(Root::Recover));
            let t0 = Instant::now();
            let res = sim.crash(c.victim);
            let dt = secs(t0);
            drop(root);
            out.timed_s += dt;
            out.attempted += 1;
            match res {
                Ok(()) => down = Some((c.victim, c.back, dt)),
                Err(e) => out.failures.push(format!("crash of {}: {e}", c.victim)),
            }
        }
        if let Some((victim, back, crash_s)) = down {
            if back == r {
                let root = tracer.map(|t| t.root(Root::Recover));
                let t0 = Instant::now();
                let res = sim.recover_with(factory, victim, RecoveryMode::Durable);
                let dt = secs(t0);
                drop(root);
                out.timed_s += dt;
                out.attempted += 1;
                down = None;
                match res {
                    Ok(()) => {
                        out.recover_ms.push((crash_s + dt) * 1e3);
                        out.det.crashes += 1;
                        rejoined = Some((victim, 0));
                    }
                    Err(e) => out
                        .failures
                        .push(format!("durable recovery of {victim}: {e}")),
                }
            }
        }

        let root = tracer.map(|t| t.root(Root::Step));
        let t0 = Instant::now();
        sim.step();
        let dt = secs(t0);
        drop(root);
        out.timed_s += dt;
        out.round_us.push(dt * 1e6);

        let resolved_by_all = |h: u64, except: Option<Pid>| {
            sim.crashed().is_empty()
                && sim
                    .processes()
                    .filter(|(pid, _)| Some(*pid) != except)
                    .all(|(_, proc_)| proc_.entry(h).is_some())
        };
        while next_h < h_total && resolved_by_all(next_h as u64, None) {
            out.det.decided += 1;
            out.det.rounds += r + 1 - next_h as u64 * p.budget;
            out.decide_ms.push((out.timed_s - starts[next_h]) * 1e3);
            next_h += 1;
        }
        if let Some((victim, rounds)) = rejoined {
            let rounds = rounds + 1;
            let upto = (r / p.budget + 1).min(p.heights);
            let lagging = sim
                .processes()
                .find(|(pid, _)| *pid == victim)
                .is_none_or(|(_, v)| {
                    (0..upto).any(|h| v.entry(h).is_none() && resolved_by_all(h, Some(victim)))
                });
            rejoined = if lagging {
                Some((victim, rounds))
            } else {
                out.det.catch_up_rounds += rounds;
                None
            };
        }
    }

    let report = sim.report();
    out.attempted += p.heights;
    out.det.instances += p.heights;
    out.det.steps += report.rounds;
    out.det.msgs += report.messages_sent;
    out.det.delivered += report.messages_delivered;
    out.det.peak_state_bits = out.det.peak_state_bits.max(report.peak_state_bits);
    if let Some(trace) = sim.trace() {
        out.det.bits += crate::trace_bits(trace);
    }
    out.det.journal_bytes += sim
        .processes()
        .filter_map(|(pid, _)| sim.journal(pid))
        .flat_map(|j| j.recover().records)
        .map(|rec| rec.len() as u64)
        .sum::<u64>();
    for h in next_h..h_total {
        out.failures.push(format!(
            "chain {chain} height {h} unresolved at the horizon"
        ));
    }
    if !report.verdict.all_hold() || rejoined.is_some() || down.is_some() {
        out.failures.push(format!(
            "chain {chain}: verdict {:?}, rejoiner caught up: {}, victim down: {}",
            report.verdict,
            rejoined.is_none(),
            down.is_some()
        ));
    }
    for h in 0..p.heights {
        for (pid, q) in sim.processes() {
            if let Some(v) = q.entry(h) {
                out.decisions
                    .push((chain * p.heights + h, pid.index(), v, 0));
            }
        }
        let values: BTreeSet<Option<bool>> = sim.processes().map(|(_, q)| q.entry(h)).collect();
        if values.len() != 1 || values.contains(&None) {
            out.failures.push(format!(
                "chain {chain} height {h}: correct processes disagree: {values:?}"
            ));
        }
    }
}

/// One pass with or without every wrapper installed: its decisions (each
/// correct process's ledger entry per height) and crash events.
pub fn pass_decisions(seed: u64, p: &Params, traced: bool) -> (Vec<(u64, usize, bool, u64)>, u64) {
    let tap = traced.then(|| JournalTap {
        tracer: Tracer::new(),
        bytes: Arc::new(AtomicU64::new(0)),
        records: Arc::new(Mutex::new(Vec::new())),
    });
    let ps = pass(seed, p, tap.as_ref(), false);
    (ps.decisions, ps.det.crashes)
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, p: &Params) -> (Outcome, Vec<Pass>) {
    let (mut passes, rss) = crate::timed_phase(seconds, || pass(seed, p, None, false), |_| {});
    let mut out = Outcome::default();
    for ps in &passes {
        out.absorb(ps);
    }
    crate::check_repeat(&mut out, &passes);
    let acct = pass(seed, p, None, true);
    crate::check_same_run(&mut out, "accounting pass", &passes[0], &acct);
    // The timed passes count no bits; pass 0 takes the accounting pass's.
    passes[0].det.bits = acct.det.bits;
    let det = passes[0].det;
    let recovery = crate::metrics::Recovery {
        recover_ms: passes.iter().map(|ps| ps.recover_ms.clone()).collect(),
        events: det.crashes,
        catch_up_rounds: det.catch_up_rounds,
        ..Default::default()
    };
    out.values = crate::metrics::end_to_end(&passes, &det, &recovery, rss);
    out.notes
        .push(crate::metrics::sample_counts(&passes, &recovery));
    (out, passes)
}

/// The traced run: per-layer metrics and the transparency check.
pub fn run_traced(seed: u64, seconds: f64, p: &Params) -> Outcome {
    let (mut out, plain) = run(seed, seconds, p);
    let tap = JournalTap {
        tracer: Tracer::new(),
        bytes: Arc::new(AtomicU64::new(0)),
        records: Arc::new(Mutex::new(Vec::new())),
    };
    let traced = crate::run_count(plain.len(), || pass(seed, p, Some(&tap), false));
    for ps in &traced {
        out.absorb(ps);
    }
    crate::check_repeat(&mut out, &traced);
    crate::check_same_run(&mut out, "traced run", &plain[0], &traced[0]);
    let acct_tap = JournalTap {
        tracer: Tracer::new(),
        bytes: Arc::new(AtomicU64::new(0)),
        records: Arc::new(Mutex::new(Vec::new())),
    };
    let traced_bits = pass(seed, p, Some(&acct_tap), true).det.bits;
    let plain_bits = plain[0].det.bits;
    if traced_bits != plain_bits {
        out.fail(format!(
            "traced run changed bits: {traced_bits} vs {plain_bits}"
        ));
    }

    let prof = tap.tracer.profile();
    let det = &plain[0].det;
    let steps: u64 = traced.iter().map(|ps| ps.det.steps).sum();
    let events: u64 = traced.iter().map(|ps| ps.det.crashes).sum();
    let per_step_us = |ns: u64| ratio(ns as f64 / 1e3, steps as f64);
    let per_event_ms = |ns: u64| ratio(ns as f64 / 1e6, events as f64);
    let chain_self: u64 = [
        Name::Send(Layer::Chain),
        Name::Receive(Layer::Chain),
        Name::Other(Layer::Chain),
    ]
    .into_iter()
    .map(|n| prof.under(Root::Step, n).self_ns)
    .sum();
    let replay: u64 = [
        Name::Send(Layer::Chain),
        Name::Receive(Layer::Chain),
        Name::Other(Layer::Chain),
    ]
    .into_iter()
    .map(|n| prof.under(Root::Recover, n).total_ns)
    .sum();
    let plain_s: f64 = plain.iter().map(|ps| ps.timed_s).sum();
    let traced_s: f64 = traced.iter().map(|ps| ps.timed_s).sum();
    let decode = crate::decode_rate::<Msg>(&tap.records.lock().expect("records poisoned"));
    out.values = [
        (
            "sim.step.self_us",
            per_step_us(prof.root(Root::Step).self_ns),
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
        ("chain.self_us_per_round", per_step_us(chain_self)),
        ("codec.decode_mb_s", decode),
        (
            "journal.append_us_per_round",
            per_step_us(prof.under(Root::Step, Name::JournalAppend).total_ns),
        ),
        (
            "journal.sync_us_per_round",
            per_step_us(prof.under(Root::Step, Name::JournalSync).total_ns),
        ),
        (
            "journal.bytes_per_round",
            ratio(tap.bytes.load(Ordering::Relaxed) as f64, steps as f64),
        ),
        (
            "journal.recover_scan_ms",
            per_event_ms(prof.under(Root::Recover, Name::JournalRecover).total_ns),
        ),
        (
            "journal.decode_ms",
            per_event_ms(prof.root(Root::Recover).self_ns),
        ),
        ("journal.replay_protocol_ms", per_event_ms(replay)),
        (
            "journal.replay_rounds",
            ratio(
                prof.under(Root::Recover, Name::Receive(Layer::Chain))
                    .direct as f64,
                events as f64,
            ),
        ),
        ("trace.overhead", ratio(traced_s, plain_s)),
    ]
    .into_iter()
    .collect();
    out.notes.push(format!("spans: {:?}", prof.dump()));
    out
}
