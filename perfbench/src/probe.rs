//! The recovery probe: how long a durable crash + recover of one correct
//! process takes for a workload whose timed phase has no crash. It runs on
//! a separate solo `Simulation` with `.durable(0)`, over the workload's own
//! seeded instances: at every round boundary one correct process (in turn)
//! is crashed and recovered from its journal at once. The timed phase's
//! engines never journal.
//!
//! A probe pass times [`EVENTS`] such events, starting again from the first
//! instance. A durable recovery restores the exact pre-crash state, so
//! every probe pass repeats the same events, and each event is measured
//! once per pass, like a round of a timed pass. The probe makes at least
//! [`MIN_PASSES`] probe passes and, where they are cheap, as many as fit in
//! [`SHARE`] of the run's time. A shared machine's speed can wander over
//! seconds, so the probe does not run in one burst:
//! [`timed_phase`](crate::timed_phase) advances it in slices between timed
//! passes, and its events sample the same stretch of time as the passes.
//! The event sequence of a probe pass does not depend on where the slices
//! fall, so the probe's per-event counts stay deterministic.

use std::collections::BTreeSet;
use std::time::Instant;

use homonym_core::{
    IdAssignment, Pid, Protocol, ProtocolFactory, RecoveryMode, SystemConfig, WireDecode,
    WireEncode,
};
use homonym_sim::{Adversary, DropPolicy, Simulation};

use crate::metrics::Recovery;

/// One instance the probe replays.
pub struct ProbeInstance<M: homonym_core::Message> {
    /// Inputs, one per process.
    pub inputs: Vec<bool>,
    /// The Byzantine set and its strategy, if any.
    pub byz: Option<(BTreeSet<Pid>, Box<dyn Adversary<M>>)>,
    /// The drop policy, if any.
    pub drops: Option<Box<dyn DropPolicy>>,
}

/// Crash events one probe pass times. The fewest a run makes,
/// [`MIN_PASSES`] × `EVENTS`, leave 20 samples beyond `recover_ms_p90`.
pub const EVENTS: usize = 50;

/// Probe passes a run makes at least.
pub const MIN_PASSES: usize = 4;

/// The share of `--seconds` the probe may spend on further probe passes.
pub const SHARE: f64 = 0.15;

/// The instance the probe is running.
struct Live<P: Protocol> {
    sim: Simulation<P>,
    correct: Vec<Pid>,
    /// (victim, rounds since its recovery) awaiting catch-up.
    pending: Vec<(Pid, u64)>,
    next: usize,
}

/// A resumable probe over the instances `make(0)`, `make(1)`, ….
pub struct Probe<'a, F: ProtocolFactory> {
    factory: &'a F,
    cfg: SystemConfig,
    assignment: IdAssignment,
    make: Box<dyn FnMut(u64) -> ProbeInstance<<F::P as Protocol>::Msg> + 'a>,
    horizon: u64,
    live: Option<Live<F::P>>,
    index: u64,
    rec: Recovery,
    /// Wall time spent in the probe so far, s.
    spent_s: f64,
}

impl<'a, F, P> Probe<'a, F>
where
    F: ProtocolFactory<P = P>,
    P: Protocol<Value = bool> + Send,
    P::Msg: WireEncode + WireDecode,
{
    /// A probe of `factory`'s protocol under `cfg`, instances from `make`,
    /// each bounded to `horizon` rounds.
    pub fn new(
        factory: &'a F,
        cfg: SystemConfig,
        assignment: IdAssignment,
        make: impl FnMut(u64) -> ProbeInstance<P::Msg> + 'a,
        horizon: u64,
    ) -> Self {
        Probe {
            factory,
            cfg,
            assignment,
            make: Box::new(make),
            horizon,
            live: None,
            index: 0,
            rec: Recovery::default(),
            spent_s: 0.0,
        }
    }

    /// Advances the probe to where it is due when a share `frac` of a run
    /// of `seconds` has passed: `frac` of [`MIN_PASSES`] probe passes'
    /// events timed, and `frac` of its time budget spent. Stops early once
    /// something failed.
    pub fn run_until(&mut self, frac: f64, seconds: f64) {
        let events = (frac * (MIN_PASSES * EVENTS) as f64).ceil() as usize;
        let budget = frac * SHARE * seconds;
        while (self.timed() < events || self.spent_s < budget) && self.rec.failures.is_empty() {
            let t0 = Instant::now();
            self.round();
            self.spent_s += t0.elapsed().as_secs_f64();
        }
    }

    /// Completes the probe for a run of `seconds`: every event due, the
    /// open probe pass, and the last instance without further crashes.
    /// Returns what the probe measured.
    pub fn finish(mut self, seconds: f64) -> Recovery {
        self.run_until(1.0, seconds);
        while self
            .rec
            .recover_ms
            .last()
            .is_some_and(|ms| ms.len() < EVENTS)
            && self.rec.failures.is_empty()
        {
            self.round();
        }
        while self.live.is_some() {
            self.round();
        }
        self.rec
    }

    fn timed(&self) -> usize {
        self.rec.recover_ms.iter().map(Vec::len).sum()
    }

    /// One round of the live instance, then, while the probe pass has
    /// events to time, one timed crash event at the boundary. With no live
    /// instance it starts the next one, or the first one of a new probe
    /// pass once the current pass has all its events.
    fn round(&mut self) {
        let factory = self.factory;
        let rec = &mut self.rec;
        if self.live.is_none() && rec.recover_ms.last().is_none_or(|ms| ms.len() >= EVENTS) {
            rec.recover_ms.push(Vec::new());
            self.index = 0;
        }
        let crash = rec.recover_ms.last().is_some_and(|ms| ms.len() < EVENTS);
        let live = self.live.get_or_insert_with(|| {
            let inst = (self.make)(self.index);
            self.index += 1;
            rec.attempted += 1;
            let mut b =
                Simulation::builder(self.cfg, self.assignment.clone(), inst.inputs).durable(0);
            if let Some((byz, adv)) = inst.byz {
                b = b.byzantine(byz, adv);
            }
            if let Some(d) = inst.drops {
                b = b.drops(d);
            }
            let sim = b.build_with(factory);
            Live {
                correct: sim.processes().map(|(pid, _)| pid).collect(),
                sim,
                pending: Vec::new(),
                next: 0,
            }
        });
        if live.sim.round().index() < self.horizon && !live.sim.all_decided() {
            live.sim.step();
            for p in live.pending.iter_mut() {
                p.1 += 1;
            }
            let decided = live.sim.decisions();
            live.pending.retain(|&(victim, rounds)| {
                let peers = decided.keys().any(|&q| q != victim);
                let caught_up = decided.contains_key(&victim) || !peers;
                if caught_up {
                    rec.events += 1;
                    rec.catch_up_rounds += rounds;
                }
                !caught_up
            });
        }
        let done = live.sim.round().index() >= self.horizon || live.sim.all_decided();
        if done {
            let report = live.sim.report();
            if !report.verdict.all_hold() || !live.pending.is_empty() {
                rec.failures.push(format!(
                    "probe instance {}: verdict {:?}, {} rejoiners not caught up",
                    self.index - 1,
                    report.verdict,
                    live.pending.len()
                ));
            }
            self.live = None;
            return;
        }
        if !crash {
            return;
        }
        let victim = live.correct[live.next % live.correct.len()];
        live.next += 1;
        rec.attempted += 2;
        let t0 = Instant::now();
        let crashed = live.sim.crash(victim);
        let recovered = live
            .sim
            .recover_with(factory, victim, RecoveryMode::Durable);
        let dt = t0.elapsed().as_secs_f64();
        match (crashed, recovered) {
            (Ok(()), Ok(())) => {
                rec.recover_ms
                    .last_mut()
                    .expect("a probe pass is open")
                    .push(dt * 1e3);
                live.pending.push((victim, 0));
            }
            (c, r) => rec
                .failures
                .push(format!("probe crash/recover of {victim}: {c:?} / {r:?}")),
        }
    }
}
