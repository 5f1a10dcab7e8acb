//! The repository benchmark: four seeded agreement workloads driven through
//! the public engine APIs (`ShardedSimulation`, `Simulation`,
//! `DelayCluster`), with end-to-end metrics from an untraced run and
//! per-layer metrics from a separate traced run whose wrappers live in
//! [`trace`]. See `BENCHMARK.json` at the repository root and
//! `perfbench/design.json` for what each workload exercises.

pub mod ledger;
pub mod lockstep;
pub mod metrics;
pub mod probe;
pub mod teig;
pub mod trace;

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use homonym_core::codec::{self, WireDecode, WireEncode};
use homonym_core::journal;
use homonym_sim::Trace;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["teig_shards", "fig5_lossy", "ledger_recovery", "fig5_delay"];

/// A splitmix64 stream: the benchmark's only source of randomness, so a
/// seed fixes every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The stream for component `tag`, instance `index` of `seed`.
    pub fn sub(seed: u64, tag: &str, index: u64) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in tag.bytes() {
            h = mix(h ^ u64::from(b));
        }
        Rng(mix(h ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03)))
    }

    /// `0..len` in a seeded order: stratified draws (every seed gets the
    /// same multiset of values, in its own order) keep per-seed means
    /// close, so seed-to-seed spread measures the program, not the draw.
    pub fn permutation(&mut self, len: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            v.swap(i, self.range(0, i as u64) as usize);
        }
        v
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counts that must repeat exactly for a seed, traced or not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Det {
    /// Agreement instances attempted (shots, solo runs or ledger heights).
    pub instances: u64,
    /// Instances in which every correct process decided.
    pub decided: u64,
    /// Summed rounds from an instance's start to all-decided.
    pub rounds: u64,
    /// Summed non-self messages.
    pub msgs: u64,
    /// Summed exact codec frame bits.
    pub bits: u64,
    /// Largest per-instance peak of summed `state_bits`.
    pub peak_state_bits: u64,
    /// Rounds executed in total (steps).
    pub steps: u64,
    /// Non-self messages delivered.
    pub delivered: u64,
    /// Journal bytes durable at the end of the pass.
    pub journal_bytes: u64,
    /// Crash events.
    pub crashes: u64,
    /// Summed rounds from a recovery until the rejoiner caught up.
    pub catch_up_rounds: u64,
}

/// What one pass over a workload's instance list measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// The deterministic counts.
    pub det: Det,
    /// Wall time of the timed calls (steps, recoveries, runs), s.
    pub timed_s: f64,
    /// Setup time (inputs, factories, pool, engines, journals), s.
    pub setup_s: f64,
    /// Per-instance wall time from first round to all-decided, ms.
    pub decide_ms: Vec<f64>,
    /// Per-call wall time of `step()` (or run time per round), µs.
    pub round_us: Vec<f64>,
    /// Per-event wall time of `crash` + `recover_with`, ms.
    pub recover_ms: Vec<f64>,
    /// Failed operations, with what went wrong.
    pub failures: Vec<String>,
    /// Operations attempted: instances plus crash and recover calls.
    pub attempted: u64,
    /// Every decision, as `(instance, pid, value, round)`; for a ledger,
    /// `(height, pid, value, 0)` per resolved ledger entry.
    pub decisions: Vec<(u64, usize, bool, u64)>,
}

/// Exact frame bits of every non-self delivery a recorded trace saw —
/// the same charge `ShardedSimulation::measure_bits` makes per wire.
pub fn trace_bits<M: WireEncode + homonym_core::Message>(trace: &Trace<M>) -> u64 {
    let mut memo: HashMap<*const M, u64> = HashMap::new();
    trace
        .deliveries()
        .iter()
        .filter(|d| d.from != d.to)
        .map(|d| {
            *memo
                .entry(Arc::as_ptr(&d.msg))
                .or_insert_with(|| codec::frame_bits(&*d.msg))
        })
        .sum()
}

/// The process's peak resident set so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The executor width the sharded workload uses: `min(2, cores)`.
pub fn pool_width() -> usize {
    available_parallelism().clamp(1, 2)
}

/// Online CPUs, as `/proc/cpuinfo` lists them (0 when unreadable).
pub fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
        s.lines().filter(|l| l.starts_with("processor")).count()
    })
}

/// `std::thread::available_parallelism`, or 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a workload run reports to `main`.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Metric values by name (end-to-end or per-layer, by mode).
    pub values: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every correctness failure, described.
    pub failures: Vec<String>,
    /// Human-readable lines for the summary.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a pass's attempts and failures.
    pub fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failures.len() as u64;
        self.failures.extend(pass.failures.iter().cloned());
    }

    /// Adds the recovery probe's attempts and failures.
    pub fn absorb_recovery(&mut self, rec: &metrics::Recovery) {
        self.attempted += rec.attempted;
        self.failed += rec.failures.len() as u64;
        self.failures.extend(rec.failures.iter().cloned());
    }

    /// Records a failure that is not an operation of a pass (a check).
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

/// Passes run before the peak RSS is read. Every pass repeats the same
/// allocations, so the timed phase's peak is reached by then; reading it
/// before the recovery probe starts keeps the probe's journals out of it.
pub const RSS_AFTER_PASSES: usize = 2;

/// The timed phase: passes back to back (a closed loop) until the phase's
/// wall time reaches `seconds`; at least one pass. The wall time counts
/// everything the phase does: set-up, the timed calls, the benchmark's
/// bookkeeping and the recovery probe. Once the peak RSS has been read,
/// `probe(frac)` runs between passes with the share of `seconds` spent so
/// far, so that the recovery probe can spread itself over the run.
/// Returns the passes and the peak RSS, MiB.
pub fn timed_phase(
    seconds: f64,
    mut pass: impl FnMut() -> Pass,
    mut probe: impl FnMut(f64),
) -> (Vec<Pass>, f64) {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut rss = None;
    while out.is_empty() || secs(start) < seconds {
        out.push(pass());
        if out.len() == RSS_AFTER_PASSES {
            rss = peak_rss_mib();
        }
        if rss.is_some() {
            probe((secs(start) / seconds).min(1.0));
        }
    }
    let rss = rss.or_else(peak_rss_mib).unwrap_or(0.0);
    (out, rss)
}

/// Runs exactly `count` passes.
pub fn run_count(count: usize, mut pass: impl FnMut() -> Pass) -> Vec<Pass> {
    (0..count).map(|_| pass()).collect()
}

/// Every pass replays the same seeded instances, so every pass must
/// repeat the first pass's decisions and deterministic counts.
pub fn check_repeat(out: &mut Outcome, passes: &[Pass]) {
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.det != passes[0].det || p.decisions != passes[0].decisions {
            out.fail(format!(
                "pass {i} counts differ from pass 0: {:?} vs {:?}",
                p.det, passes[0].det
            ));
        }
    }
}

/// Checks that `other` (an accounting, traced or pooled pass of the same
/// seed) made the same decisions as `pass` and reproduces its counts —
/// all but `bits`, which only an accounting pass may have measured.
pub fn check_same_run(out: &mut Outcome, what: &str, pass: &Pass, other: &Pass) {
    let mut a = pass.det;
    let mut b = other.det;
    a.bits = 0;
    b.bits = 0;
    if a != b {
        out.fail(format!("{what} diverged: {a:?} vs {b:?}"));
    }
    if pass.decisions != other.decisions {
        out.fail(format!("{what} changed a decision"));
    }
}

/// Encode throughput over `sample` (MB/s) and mean frame size (bytes),
/// timed after the run: frames are re-encoded until 20 ms have passed.
pub fn encode_rate<M: WireEncode>(sample: &[Arc<M>]) -> (f64, f64) {
    if sample.is_empty() {
        return (0.0, 0.0);
    }
    let frame: u64 = sample
        .iter()
        .map(|m| codec::encode_frame(&**m).len() as u64)
        .sum();
    let mut bytes = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 0.02 {
        for m in sample {
            bytes += std::hint::black_box(codec::encode_frame(&**m)).len() as u64;
        }
    }
    let mb_s = bytes as f64 / start.elapsed().as_secs_f64() / 1e6;
    (mb_s, frame as f64 / sample.len() as f64)
}

/// Decode throughput (MB/s) of journal records into typed entries,
/// timed after the run like [`encode_rate`].
pub fn decode_rate<M: WireDecode>(records: &[Vec<u8>]) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    let len: u64 = records.iter().map(|r| r.len() as u64).sum();
    let mut bytes = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 0.02 {
        let entries = journal::decode_entries::<M>(records).expect("sampled records decode");
        std::hint::black_box(entries);
        bytes += len;
    }
    bytes as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Runs a pass's set-up `build` once; returns what it built and its wall
/// time in seconds.
pub fn set_up<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let built = build();
    (built, secs(t))
}

/// Keeps the memory the program frees inside the process. glibc's malloc
/// otherwise hands the top of its heap and every large block back to the
/// kernel, and the next pass's first touches of that memory fault pages
/// in again, at a cost that swings with the host's memory state rather
/// than with the work; a pass's set-up, which allocates first, varied
/// several-fold with it. With trimming off and the mmap threshold at its
/// maximum, passes after the first reuse the heap the first one grew.
/// Call it first in `main`.
pub fn keep_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // glibc's <malloc.h>: parameter numbers, and the largest mmap
        // threshold it accepts on 64-bit targets.
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        const MMAP_THRESHOLD_MAX: i32 = 32 << 20;
        // SAFETY: `mallopt` takes two integers and only sets allocator
        // parameters; glibc serialises it against allocation with the
        // arena locks, so it is sound to call at any time.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX);
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
