//! Replay-backed what-if execution: capture one live run, derive its
//! policy/seed siblings by replay.
//!
//! PR 4 established the enabling property: under a fixed prefetch
//! repetition the LLC's *input op sequence* does not depend on the LLC
//! replacement policy or seed — those axes only change which accesses hit.
//! The plan layer exploits this as a **derivation relation**: requests that
//! differ only in LLC policy and seed form a family, one representative
//! executes live with a capturing sink (`WhatIfSink`) recording the access
//! sequence, and
//! every sibling's full [`RunOutput`] is rebuilt by replaying the captured
//! sequence against a mirror cache carrying the sibling's policy/seed
//! ([`RunCapture::replay_for`]).
//!
//! ## Why replayed outputs are bit-identical to live ones
//!
//! * **Cache trajectory** — the mirror is a real [`Cache`] built from the
//!   sibling's configuration and fed the exact captured access sequence,
//!   so hits, misses, evictions and `CacheStats` are the live cache's by
//!   construction (the property `prem-trace`'s replay suite pins).
//! * **Cycle arithmetic** — floating-point accumulation is not
//!   associative, so the replay mirrors the executor's accumulator
//!   structure exactly: per-op adds into a per-round accumulator, per-round
//!   adds into the interval's M-phase work, fresh accumulators per C-phase,
//!   intervals folded in order. Per-op costs come from the captured
//!   [`CostModel`](prem_gpusim::CostModel) under the captured contention,
//!   i.e. the same pure functions the live executor charges.
//! * **Budgets** — the profiling pass and the timed run reset and reseed
//!   identically and feed identical op sequences, so their cache
//!   trajectories coincide; one captured walk therefore yields both the
//!   isolated-contention phase times that budgets derive from and the
//!   live-contention phase times the schedule reports (hit costs are
//!   contention-independent; only DRAM costs differ).
//! * **All-hit rounds** — the replay skips what the live executor skips,
//!   and more. Once an M-phase round misses nowhere it has changed no
//!   cache contents, drawn nothing from the RNG and left the replacement
//!   state equal up to clock values that never change a victim choice, so
//!   each remaining round is the same pure hit pass. Both sides credit
//!   those rounds the same way: repeated f64 adds of the round's cycles
//!   (the summation a walked loop performs) and one
//!   [`Cache::credit_repeated_hits`] for the skipped hits. The argument
//!   holds set by set, because sets share nothing but the RNG and the
//!   replacement clock, and a set that never misses uses neither in a way
//!   a victim choice can see. So the replay also stops probing any single
//!   set that missed nowhere in the previous round: its accesses are
//!   charged as hits in stream order, keeping the f64 summation, and
//!   credited with the rest. The shortcuts' preconditions, a fixed
//!   repetition and no L1, hold for every eligible run.
//!
//! ## What a replay pays for
//!
//! A capture is built once per family and replayed once per sibling, so
//! everything that depends only on the capture is resolved when it is
//! built: each access's set index under the representative's geometry
//! (siblings share it; [`RunCapture::replay_for`] asserts so), fed to the
//! mirror through [`Cache::access_in_set`], and the per-interval split of
//! the stream into M- and C-phase ranges. A sibling then pays for its
//! mirror cache, the first M round, the later M rounds' accesses to sets
//! that are still missing, one f64 add per other M access up to the first
//! all-hit round, and its C-phases.
//!
//! Eligibility ([`replay_eligible`]) is exactly the set of runs where the
//! op-sequence invariance holds: LLC-staged PREM and baseline work (SPM
//! staging has no LLC what-if axis), no L1, and a co-runner mix whose
//! contention is constant and which never pollutes the LLC (pollution
//! volume depends on budgets, which depend on policy/seed).

use std::ops::Range;

use prem_gpusim::{ExecError, InterferenceEngine, PlatformConfig, Scenario};
use prem_memsim::{
    AccessKind, AccessOutcome, BusWindow, Cache, Contention, HitLevel, LineAddr, Phase, Policy,
    TraceSink,
};

use crate::budget::BudgetPolicy;
use crate::exec::{
    run_baseline_traced, run_prem_traced_reporting_profile, BaselineRun, NoiseModel, PremRun,
};
use crate::interval::IntervalSpec;
use crate::local_store::LocalStore;
use crate::metrics::Breakdown;
use crate::plan::{RunOutput, RunWork};
use crate::sync::PhaseTiming;

/// Whether a run is replay-derivable across the LLC policy/seed axes.
///
/// True exactly when the LLC's input op sequence is invariant in those
/// axes: LLC-PREM (fixed repetition, any sync granularity) or baseline
/// work, no L1 in front of
/// the LLC, and a co-runner mix under `scenario` that is time-invariant
/// (constant contention) and never pollutes the LLC.
pub fn replay_eligible(cfg: &PlatformConfig, work: RunWork, scenario: Scenario) -> bool {
    if cfg.l1.is_some() {
        return false;
    }
    match work {
        RunWork::PremLlc { .. } | RunWork::PremLlcMsg { .. } | RunWork::Baseline => {}
        // SPM staging bypasses the LLC: there is no policy/seed axis to
        // derive along (and the C-phase never touches the cache).
        RunWork::PremSpm | RunWork::PremSpmMsg { .. } => return false,
        // Adaptive prefetching stops on the first all-hit pass, so its
        // round count — and with it the LLC input sequence — depends on
        // the policy and seed.
        RunWork::PremLlcAdaptive { .. } => return false,
    }
    // Static/polluter properties are seed-independent, so probe with 0.
    let engine = InterferenceEngine::new(cfg.cpu.active_corunners(scenario), 0);
    engine.static_contention().is_some() && !engine.has_polluters()
}

/// One captured event of the LLC input sequence, in execution order.
#[derive(Copy, Clone, Debug)]
enum Entry {
    /// A PREM interval boundary (`begin_interval` on the PREM path; a pure
    /// cost-segment boundary on the baseline path).
    Interval,
    /// An M-phase begins (PREM only).
    MBegin,
    /// A C-phase begins (PREM only).
    CBegin,
    /// One cache access (line/kind/phase as the live run issued it), with
    /// its set index under the representative's geometry — resolved once
    /// when the capture is built, shared by every sibling (siblings differ
    /// only in policy/seed, never in geometry).
    Access {
        set: u32,
        line: LineAddr,
        kind: AccessKind,
        phase: Phase,
    },
    /// `n` warp arithmetic instructions charged between accesses.
    Compute { n: u64 },
}

// Captures are held per family for the whole plan; the set index must
// ride in the enum's padding, not grow it.
const _: () = assert!(std::mem::size_of::<Entry>() == 16);

/// The capturing sink: records the policy/seed-invariant input sequence.
///
/// Opts into deduplicated M-round delivery: a fixed repetition issues one
/// identical pass per round and this sink stores no outcomes, so recording
/// every round would store the same entries `r` times. The executor
/// delivers round 1 only; [`RunCapture::replay_for`] walks the recorded
/// round [`RunCapture::rounds`] times to reproduce the full sequence.
#[derive(Debug, Default)]
struct WhatIfSink {
    entries: Vec<Entry>,
}

impl TraceSink for WhatIfSink {
    const DEDUP_M_ROUNDS: bool = true;

    fn on_access(&mut self, line: LineAddr, kind: AccessKind, phase: Phase, _: &AccessOutcome) {
        // The set is resolved against the live cache once the run is over
        // (`resolve_sets`); the sink cannot borrow it mid-run.
        self.entries.push(Entry::Access {
            set: 0,
            line,
            kind,
            phase,
        });
    }

    fn on_interval(&mut self) {
        self.entries.push(Entry::Interval);
    }

    fn on_phase(&mut self, phase: Phase, _cycles: f64) {
        match phase {
            Phase::MPhase => self.entries.push(Entry::MBegin),
            Phase::CPhase => self.entries.push(Entry::CBegin),
            Phase::Unphased | Phase::Corunner => {}
        }
    }

    fn on_compute(&mut self, n: u64) {
        self.entries.push(Entry::Compute { n });
    }
}

/// Per-interval entry ranges of a capture, split once when it is built.
/// The executor that produced the capture decides the layout.
#[derive(Clone, Debug)]
enum Segments {
    /// (M-phase entries, C-phase entries) per PREM interval.
    Prem(Vec<(Range<usize>, Range<usize>)>),
    /// Demand entries per baseline interval.
    Baseline(Vec<Range<usize>>),
}

/// A captured live run: everything needed to rebuild the [`RunOutput`] of
/// any policy/seed sibling without re-executing the simulator.
///
/// Produced by [`execute_run_captured`], consumed by
/// [`RunCapture::replay_for`].
#[derive(Clone, Debug)]
pub struct RunCapture {
    /// The representative's fully-resolved platform config — the defense
    /// baseline every sibling is checked against (equal modulo LLC
    /// policy/seed) and the source of geometry and cost constants.
    base_cfg: PlatformConfig,
    entries: Vec<Entry>,
    segments: Segments,
    n_intervals: usize,
    /// Fixed M-phase prefetch rounds per interval (PREM mode only).
    rounds: u32,
    msg_cycles: f64,
    switch_cycles: f64,
    budget: BudgetPolicy,
    /// Constant C-phase / baseline bus contention of the mix.
    c_cont: Contention,
    /// M-phase contention (token held).
    m_cont: Contention,
    /// Mean contention used for the bus ledger.
    ledger_cont: Contention,
}

/// Output of [`execute_run_captured`]: the representative's output, the
/// `(m_wcet, c_wcet)` its budgets derive from (`None` for baseline work),
/// and the capture its siblings replay from.
pub type CapturedRun = (RunOutput, Option<(f64, f64)>, RunCapture);

/// [`crate::execute_run`] with what-if capture: executes the run live and
/// additionally returns a [`RunCapture`] from which every LLC policy/seed
/// sibling's output can be derived by replay.
///
/// `profiled` and the reported `(m_wcet, c_wcet)` behave exactly as in
/// [`crate::execute_run`] (replay-eligible mixes are always
/// fusion-eligible: both require constant contention and no polluters),
/// and the returned output is bit-identical to what
/// [`crate::execute_run`] returns for the same request — capture is an
/// observer of the timed run, which is the same either way.
///
/// # Panics
///
/// Panics when the request is not [`replay_eligible`] — capturing an
/// ineligible run would hand out a capture whose replays are wrong, so the
/// caller must gate on eligibility first.
///
/// # Errors
///
/// Exactly the [`crate::execute_run`] error conditions.
pub fn execute_run_captured(
    platform_cfg: &PlatformConfig,
    intervals: &[IntervalSpec],
    work: RunWork,
    seed: u64,
    scenario: Scenario,
    noise: NoiseModel,
    profiled: Option<(f64, f64)>,
) -> Result<CapturedRun, ExecError> {
    assert!(
        replay_eligible(platform_cfg, work, scenario),
        "execute_run_captured: request is not replay-eligible"
    );
    let mut platform = platform_cfg.build();
    let mut sink = WhatIfSink::default();
    let engine = InterferenceEngine::new(platform_cfg.cpu.active_corunners(scenario), seed);
    let c_cont = engine
        .static_contention()
        .expect("eligible mixes have constant contention");

    let (output, wcets, rounds, msg_cycles, switch_cycles, budget) = match work
        .prem_config(seed, noise)
    {
        Some(cfg) => {
            let msg_cycles = platform.us_to_cycles(cfg.sync.msg_us);
            let switch_cycles = platform.us_to_cycles(cfg.sync.switch_cost_us());
            let rounds = match &cfg.store {
                LocalStore::Llc { prefetch } => {
                    assert!(
                        !prefetch.adaptive(),
                        "adaptive prefetch round counts depend on policy/seed"
                    );
                    prefetch.max_rounds()
                }
                LocalStore::Spm { .. } => unreachable!("SPM work is not replay-eligible"),
            };
            let (run, wcets) = run_prem_traced_reporting_profile(
                &mut platform,
                intervals,
                &cfg,
                scenario,
                profiled,
                &mut sink,
            )?;
            (
                RunOutput::Prem(run),
                Some(wcets),
                rounds,
                msg_cycles,
                switch_cycles,
                cfg.budget,
            )
        }
        None => {
            let run =
                run_baseline_traced(&mut platform, intervals, seed, scenario, noise, &mut sink)?;
            (
                RunOutput::Baseline(run),
                None,
                0,
                0.0,
                0.0,
                BudgetPolicy::fair(),
            )
        }
    };

    let mut entries = sink.entries;
    resolve_sets(&mut entries, platform.mem.llc());
    let segments = if matches!(output, RunOutput::Prem(_)) {
        Segments::Prem(prem_segments(&entries, intervals.len()))
    } else {
        Segments::Baseline(baseline_segments(&entries, intervals.len()))
    };
    let capture = RunCapture {
        base_cfg: platform_cfg.clone(),
        entries,
        segments,
        n_intervals: intervals.len(),
        rounds,
        msg_cycles,
        switch_cycles,
        budget,
        c_cont,
        m_cont: platform_cfg.cpu.m_phase_contention(),
        ledger_cont: engine.mean_contention(),
    };
    Ok((output, wcets, capture))
}

/// Strips the replay-variant axes off a platform config: LLC policy and
/// seed are forced to fixed canonical values so two configs compare equal
/// exactly when they agree on everything replay preserves.
fn strip_llc_axes(cfg: &PlatformConfig) -> PlatformConfig {
    let mut stripped = cfg.clone();
    stripped.llc = stripped.llc.policy(Policy::Lru).seed(0);
    stripped
}

impl RunCapture {
    /// Derives the full [`RunOutput`] of the sibling request resolving to
    /// `cfg` with run seed `seed`, by replaying the captured sequence
    /// against a mirror cache under the sibling's LLC policy/seed.
    ///
    /// The result is bit-identical to executing the sibling live — the
    /// contract the plan layer's equivalence suite proves.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` differs from the captured representative's config
    /// anywhere other than the LLC policy/seed — that means the caller
    /// grouped requests into a family whose members are not actually
    /// derivable from each other.
    pub fn replay_for(&self, cfg: &PlatformConfig, seed: u64) -> RunOutput {
        assert!(
            strip_llc_axes(cfg) == strip_llc_axes(&self.base_cfg),
            "replay_for: sibling config differs from the captured \
             representative beyond the LLC policy/seed axes"
        );
        // The sibling's mirror cache: captured geometry (so the captured
        // set indices apply), sibling policy, reseeded exactly as the live
        // run reseeds after the cold build.
        let mut llc = Cache::new(cfg.llc.clone());
        llc.reseed(seed);

        let cost = &self.base_cfg.cost;
        // Per-op cost constants: the same pure cost-model functions the
        // live executor charges, evaluated once.
        let llc_hit = cost.access_cost(HitLevel::Llc, self.c_cont);
        let dram_live = cost.access_cost(HitLevel::Dram, self.c_cont);
        let dram_iso = cost.access_cost(HitLevel::Dram, Contention::Isolated);
        let pf_hit = cost.prefetch_cost(true, self.m_cont);
        let pf_miss = cost.prefetch_cost(false, self.m_cont);

        match &self.segments {
            Segments::Baseline(segments) => {
                let mut cycles = 0.0f64;
                for seg in segments {
                    // Fresh accumulator per interval, folded in order —
                    // the live executor's exact summation structure. The
                    // epoch never advances: the live baseline never calls
                    // `begin_interval`.
                    let mut out_cycles = 0.0f64;
                    for e in &self.entries[seg.clone()] {
                        match *e {
                            Entry::Access {
                                set,
                                line,
                                kind,
                                phase,
                            } => {
                                let out = llc.access_in_set(set as usize, line, kind, phase);
                                out_cycles += if out.hit { llc_hit } else { dram_live };
                            }
                            Entry::Compute { n } => out_cycles += cost.alu_cost(n),
                            Entry::Interval | Entry::MBegin | Entry::CBegin => {
                                unreachable!("marker inside a baseline segment")
                            }
                        }
                    }
                    cycles += out_cycles;
                }
                RunOutput::Baseline(BaselineRun {
                    cycles,
                    llc: llc.stats().clone(),
                })
            }
            Segments::Prem(segments) => {
                let rounds = self.rounds.max(1);
                // Per set, the last M round (numbered across intervals) in
                // which it missed; see the set-level shortcut below.
                let mut last_miss = vec![0u32; cfg.llc.sets()];
                let mut round_id = 0u32;
                // Walk: per-interval (M-work, C-live, C-isolated, C DRAM
                // fills). The isolated accumulator reproduces the
                // profiling pass (identical trajectory, isolated DRAM
                // cost); the live accumulator reproduces the timed run.
                let mut per_iv = Vec::with_capacity(segments.len());
                let mut prefetch_hits = 0u64;
                let mut prefetch_misses = 0u64;
                for (m_range, c_range) in segments {
                    llc.begin_interval();
                    // The capture stores one M round (the sink deduplicates
                    // the fixed repetition); walking it `rounds` times feeds
                    // the mirror the exact live access sequence — repeats
                    // hit or miss per the *sibling's* trajectory, so each
                    // round flows through the mirror cache, except where
                    // the shortcuts below prove the outcome.
                    let m_entries = &self.entries[m_range.clone()];
                    let mut m_work = 0.0f64;
                    // Hits proven rather than simulated, credited to the
                    // mirror's stats in one go.
                    let mut credited = 0u64;
                    let mut round = 0;
                    while round < rounds {
                        round_id += 1;
                        let mut cycles = 0.0f64;
                        let mut hits = 0u64;
                        let mut misses = 0u64;
                        for e in m_entries {
                            match *e {
                                Entry::Access {
                                    set,
                                    line,
                                    kind,
                                    phase,
                                } => {
                                    let set = set as usize;
                                    // Set-level all-hit shortcut: a set that
                                    // missed nowhere in the previous round
                                    // holds the same lines now, so its
                                    // accesses hit again (and leave its
                                    // state as the all-hit argument below
                                    // says). Sets are independent, and a
                                    // set that never misses draws no RNG
                                    // value, so the rest of the round runs
                                    // exactly as if it had been walked.
                                    if round > 0 && last_miss[set] < round_id - 1 {
                                        hits += 1;
                                        credited += 1;
                                        cycles += pf_hit;
                                    } else if llc.access_in_set(set, line, kind, phase).hit {
                                        hits += 1;
                                        cycles += pf_hit;
                                    } else {
                                        last_miss[set] = round_id;
                                        misses += 1;
                                        cycles += pf_miss;
                                    }
                                }
                                Entry::Compute { n } => cycles += cost.alu_cost(n),
                                Entry::Interval | Entry::MBegin | Entry::CBegin => {
                                    unreachable!("marker inside an M-phase segment")
                                }
                            }
                        }
                        m_work += cycles;
                        prefetch_hits += hits;
                        prefetch_misses += misses;
                        round += 1;
                        // The live executor's all-hit shortcut, mirrored: a
                        // zero-miss round changed no contents, RNG draw or
                        // (up to unobservable clock values) replacement
                        // state, so every remaining round is the same pure
                        // hit pass with bit-identical cycles. Repeated f64
                        // adds keep the summation a walked loop produces.
                        // Eligible runs have no L1 and a fixed repetition,
                        // the shortcut's two preconditions.
                        if misses == 0 && round < rounds {
                            let remaining = rounds - round;
                            for _ in 0..remaining {
                                m_work += cycles;
                                prefetch_hits += hits;
                            }
                            credited += u64::from(remaining) * hits;
                            round = rounds;
                        }
                    }
                    llc.credit_repeated_hits(Phase::MPhase, credited);
                    let mut c_live = 0.0f64;
                    let mut c_iso = 0.0f64;
                    let mut c_dram = 0u64;
                    for e in &self.entries[c_range.clone()] {
                        match *e {
                            Entry::Access {
                                set,
                                line,
                                kind,
                                phase,
                            } => {
                                if llc.access_in_set(set as usize, line, kind, phase).hit {
                                    c_live += llc_hit;
                                    c_iso += llc_hit;
                                } else {
                                    c_dram += 1;
                                    c_live += dram_live;
                                    c_iso += dram_iso;
                                }
                            }
                            Entry::Compute { n } => {
                                let a = cost.alu_cost(n);
                                c_live += a;
                                c_iso += a;
                            }
                            Entry::Interval | Entry::MBegin | Entry::CBegin => {
                                unreachable!("marker inside a C-phase segment")
                            }
                        }
                    }
                    per_iv.push((m_work, c_live, c_iso, c_dram));
                }

                let mut m_wcet = 0.0f64;
                let mut c_wcet = 0.0f64;
                for &(m_work, _, c_iso, _) in &per_iv {
                    m_wcet = m_wcet.max(m_work);
                    c_wcet = c_wcet.max(c_iso);
                }
                let budgets = self.budget.compute(m_wcet, c_wcet, self.msg_cycles);

                let mut breakdown = Breakdown::default();
                let mut budget_violation = 0.0f64;
                let mut interval_timings = Vec::with_capacity(per_iv.len());
                let mut bus = BusWindow::default();
                for &(m_work, c_live, _, c_dram) in &per_iv {
                    let m_t = PhaseTiming::in_slot(m_work, self.msg_cycles);
                    let c_t = PhaseTiming::in_slot(c_live, self.msg_cycles);
                    bus.merge(&cost.dram.account_window(
                        c_t.elapsed(),
                        c_dram as f64 * cost.line_bytes as f64,
                        self.ledger_cont,
                    ));
                    breakdown.m_work += m_t.work;
                    breakdown.c_work += c_t.work;
                    breakdown.idle += m_t.idle + c_t.idle;
                    breakdown.sync += 2.0 * self.switch_cycles;
                    budget_violation +=
                        (m_work - budgets.m_cycles).max(0.0) + (c_live - budgets.c_cycles).max(0.0);
                    interval_timings.push((m_t, c_t));
                }

                let llc_stats = llc.stats().clone();
                let cpmr = llc_stats.cpmr();
                let budget_envelope_cycles = self.n_intervals as f64
                    * (budgets.interval_cycles() + 2.0 * self.switch_cycles);
                RunOutput::Prem(PremRun {
                    intervals: self.n_intervals,
                    makespan_cycles: breakdown.total(),
                    breakdown,
                    budget_envelope_cycles,
                    budgets,
                    llc: llc_stats,
                    cpmr,
                    prefetch_hits,
                    prefetch_misses,
                    // Fixed-repetition staging uses every round in every
                    // interval (a zero-interval run uses none).
                    max_rounds_used: if self.n_intervals == 0 {
                        0
                    } else {
                        self.rounds
                    },
                    budget_violation_cycles: budget_violation,
                    interval_timings,
                    bus,
                    // Eligible mixes have no cache-thrashing actors.
                    polluted_lines: 0,
                })
            }
        }
    }
}

/// Resolves every captured access's set index against `llc`, the
/// representative's cache: siblings share its geometry (`replay_for`
/// asserts it), so each replay reuses the index instead of recomputing it.
fn resolve_sets(entries: &mut [Entry], llc: &Cache) {
    for e in entries {
        if let Entry::Access { set, line, .. } = e {
            *set = u32::try_from(llc.set_of(*line)).expect("set index fits in u32");
        }
    }
}

/// Splits a PREM capture into per-interval (M-entries, C-entries) ranges,
/// following the `Interval, MBegin, …, CBegin, …` layout the executor
/// emits.
fn prem_segments(entries: &[Entry], n_intervals: usize) -> Vec<(Range<usize>, Range<usize>)> {
    let mut segments = Vec::with_capacity(n_intervals);
    let mut i = 0;
    while i < entries.len() {
        assert!(matches!(entries[i], Entry::Interval), "capture layout");
        assert!(matches!(entries[i + 1], Entry::MBegin), "capture layout");
        let m_start = i + 2;
        let mut j = m_start;
        while !matches!(entries[j], Entry::CBegin) {
            j += 1;
        }
        // The M-round shortcuts credit skipped hits to the M-phase.
        assert!(
            entries[m_start..j].iter().all(|e| match e {
                Entry::Access { phase, .. } => *phase == Phase::MPhase,
                _ => true,
            }),
            "capture layout"
        );
        let c_start = j + 1;
        let mut k = c_start;
        while k < entries.len() && !matches!(entries[k], Entry::Interval) {
            k += 1;
        }
        segments.push((m_start..j, c_start..k));
        i = k;
    }
    assert_eq!(segments.len(), n_intervals, "capture layout");
    segments
}

/// Splits a baseline capture into per-interval entry ranges (segments
/// between `Interval` markers).
fn baseline_segments(entries: &[Entry], n_intervals: usize) -> Vec<Range<usize>> {
    let mut segments = Vec::with_capacity(n_intervals);
    let mut i = 0;
    while i < entries.len() {
        assert!(matches!(entries[i], Entry::Interval), "capture layout");
        let start = i + 1;
        let mut j = start;
        while j < entries.len() && !matches!(entries[j], Entry::Interval) {
            j += 1;
        }
        segments.push(start..j);
        i = j;
    }
    assert_eq!(segments.len(), n_intervals, "capture layout");
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute_run;
    use crate::interval::CAccess;
    use prem_gpusim::CorunnerProfile;

    /// A toy kernel whose footprint overflows a small biased cache, so
    /// policy and seed actually change the trajectory.
    fn toy_intervals() -> Vec<IntervalSpec> {
        (0..6)
            .map(|i| {
                let lines: Vec<_> = (0..96u64).map(|j| LineAddr::new(i * 96 + j)).collect();
                let accesses = lines.iter().map(|&l| CAccess::read(l)).collect();
                IntervalSpec::new(lines, accesses, 256)
            })
            .collect()
    }

    fn small_platform(policy: Policy, seed: u64) -> PlatformConfig {
        let mut cfg = PlatformConfig::generic(32, 4, 64);
        cfg = cfg.llc_policy(policy).llc_seed(seed);
        cfg
    }

    /// Every policy the simulator models, at three seeds.
    fn sibling_axis() -> Vec<(Policy, u64)> {
        let mut axis = Vec::new();
        for policy in [
            Policy::nvidia_like(4),
            Policy::Lru,
            Policy::Fifo,
            Policy::PseudoLru,
            Policy::Nmru,
            Policy::Srrip,
            Policy::Random,
        ] {
            for seed in [11u64, 23, 47] {
                axis.push((policy.clone(), seed));
            }
        }
        axis
    }

    #[test]
    fn captured_output_is_bit_identical_to_uncaptured() {
        let cfg = small_platform(Policy::nvidia_like(4), 11);
        let ivs = toy_intervals();
        for work in [RunWork::PremLlc { r: 4 }, RunWork::Baseline] {
            let noise = NoiseModel::tx1();
            let live = execute_run(&cfg, &ivs, work, 11, Scenario::Isolation, noise, None).unwrap();
            let (captured, wcets, _) =
                execute_run_captured(&cfg, &ivs, work, 11, Scenario::Isolation, noise, None)
                    .unwrap();
            assert_eq!(
                live,
                (captured, wcets),
                "{work:?}: capture perturbed the run"
            );
        }
    }

    /// `n` intervals, each staging `lines` consecutive lines no other
    /// interval touches and reading them all back in the C-phase.
    fn disjoint_intervals(n: u64, lines: u64) -> Vec<IntervalSpec> {
        (0..n)
            .map(|i| {
                let footprint: Vec<_> = (0..lines).map(|j| LineAddr::new(i * lines + j)).collect();
                let accesses = footprint.iter().map(|&l| CAccess::read(l)).collect();
                IntervalSpec::new(footprint, accesses, 64)
            })
            .collect()
    }

    /// `n` intervals that fit one line per set, except that each set in
    /// `hot` also gets one line per way: those sets miss in every round,
    /// all others only in the first.
    fn partly_overflowing_intervals(
        cfg: &PlatformConfig,
        n: u64,
        hot: &[usize],
    ) -> Vec<IntervalSpec> {
        let sets = cfg.llc.sets() as u64;
        (0..n)
            .map(|i| {
                let base = i * 16 * sets;
                let mut footprint: Vec<_> = (base..base + sets).map(LineAddr::new).collect();
                for &set in hot {
                    let extra = (base + sets..base + 16 * sets)
                        .map(LineAddr::new)
                        .filter(|&l| cfg.llc.set_index(l) == set)
                        .take(cfg.llc.ways());
                    footprint.extend(extra);
                }
                let accesses = footprint.iter().map(|&l| CAccess::read(l)).collect();
                IntervalSpec::new(footprint, accesses, 64)
            })
            .collect()
    }

    /// Replay ≡ live, bit for bit, in each M-round regime the replay walk
    /// distinguishes, for every work kind it serves and every policy/seed
    /// sibling: (a) the footprint fits, so rounds 2..R are all-hit and the
    /// all-hit shortcut credits them; (b) it overflows the cache, so every
    /// round misses and every round is walked; (c) a single round; (d) it
    /// overflows a few sets only, so later rounds walk those sets and the
    /// set-level shortcut credits the rest; and a mix of all of these,
    /// with self-evictions.
    #[test]
    fn replay_matches_live_in_every_m_round_regime() {
        // generic(32, 4, _): 256 lines of 128 B in 64 hashed sets. A
        // 64-line aligned block lands one line per set, so nothing in it
        // is ever displaced while it is staged.
        let capacity = 256;
        let hot = [3, 17, 40];
        let regimes = [
            ("fits", disjoint_intervals(4, 64), 4u32),
            ("overflows", disjoint_intervals(3, capacity as u64 + 64), 3),
            ("single round", toy_intervals(), 1),
            ("mixed", toy_intervals(), 4),
            (
                "partly overflows",
                partly_overflowing_intervals(&small_platform(Policy::Lru, 0), 3, &hot),
                5,
            ),
        ];
        let axis = sibling_axis();
        for &(regime, ref ivs, r) in &regimes {
            let footprint: usize = ivs.iter().map(|iv| iv.footprint.len()).sum();
            for work in [
                RunWork::PremLlc { r },
                RunWork::llc_with_msg(r, 5),
                RunWork::Baseline,
            ] {
                for scenario in [Scenario::Isolation, Scenario::Interference] {
                    let rep_cfg = small_platform(Policy::nvidia_like(4), 11);
                    let noise = NoiseModel::tx1();
                    let (_, _, capture) =
                        execute_run_captured(&rep_cfg, ivs, work, 11, scenario, noise, None)
                            .unwrap();
                    for (policy, seed) in &axis {
                        let sib_cfg = small_platform(policy.clone(), *seed);
                        let (live, _) =
                            execute_run(&sib_cfg, ivs, work, *seed, scenario, noise, None).unwrap();
                        // The regime really is the one named: cold first
                        // rounds only (a), a miss in every round (b), later
                        // rounds missing in every hot set and nowhere else
                        // (d).
                        if let RunOutput::Prem(run) = &live {
                            let misses = run.prefetch_misses as usize;
                            let later = r as usize - 1;
                            match regime {
                                "fits" => assert_eq!(misses, footprint, "{policy:?}"),
                                "overflows" => assert!(
                                    misses >= r as usize * (footprint - ivs.len() * capacity),
                                    "{policy:?}: {misses} misses"
                                ),
                                "partly overflows" => {
                                    let hot_lines = ivs.len() * hot.len() * 5;
                                    assert!(
                                        misses >= footprint + later * ivs.len() * hot.len()
                                            && misses <= footprint + later * hot_lines,
                                        "{policy:?}: {misses} misses"
                                    );
                                }
                                _ => {}
                            }
                        }
                        assert_eq!(
                            live,
                            capture.replay_for(&sib_cfg, *seed),
                            "{regime}: {work:?}/{scenario:?} {} seed {seed} diverged",
                            policy.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eligibility_rules() {
        let cfg = PlatformConfig::tx1();
        let llc = RunWork::PremLlc { r: 8 };
        assert!(replay_eligible(&cfg, llc, Scenario::Isolation));
        assert!(replay_eligible(&cfg, llc, Scenario::Interference));
        assert!(replay_eligible(
            &cfg,
            RunWork::Baseline,
            Scenario::Interference
        ));
        // The sync granularity moves budgets, not the LLC input sequence.
        assert!(replay_eligible(
            &cfg,
            RunWork::llc_with_msg(8, 5),
            Scenario::Isolation
        ));
        // SPM has no LLC what-if axis.
        for spm in [RunWork::PremSpm, RunWork::spm_with_msg(5)] {
            assert!(!replay_eligible(&cfg, spm, Scenario::Isolation));
        }
        // Adaptive round counts depend on the policy and seed.
        assert!(!replay_eligible(
            &cfg,
            RunWork::PremLlcAdaptive { max_rounds: 16 },
            Scenario::Isolation
        ));
        // Pollution volume depends on budgets, budgets on policy/seed.
        let thrash = cfg
            .clone()
            .with_corunners(vec![CorunnerProfile::CacheThrash]);
        assert!(!replay_eligible(&thrash, llc, Scenario::Corunners));
        // Time-varying demand breaks the constant-contention fast path.
        let bursty = cfg.clone().with_corunners(vec![CorunnerProfile::Bursty {
            duty: 0.5,
            period_cycles: 10_000.0,
        }]);
        assert!(!replay_eligible(&bursty, llc, Scenario::Corunners));
        // The same mixes are eligible when the scenario never activates them.
        assert!(replay_eligible(&thrash, llc, Scenario::Isolation));
    }

    #[test]
    #[should_panic(expected = "beyond the LLC policy/seed axes")]
    fn replay_for_rejects_foreign_configs() {
        let ivs = toy_intervals();
        let cfg = small_platform(Policy::Lru, 11);
        let (_, _, capture) = execute_run_captured(
            &cfg,
            &ivs,
            RunWork::PremLlc { r: 2 },
            11,
            Scenario::Isolation,
            NoiseModel::off(),
            None,
        )
        .unwrap();
        // Same family axes, different geometry: must be refused.
        let foreign = PlatformConfig::generic(64, 4, 64);
        capture.replay_for(&foreign, 11);
    }

    #[test]
    #[should_panic(expected = "not replay-eligible")]
    fn capture_rejects_ineligible_work() {
        let ivs = toy_intervals();
        let cfg = PlatformConfig::tx1();
        let _ = execute_run_captured(
            &cfg,
            &ivs,
            RunWork::PremSpm,
            11,
            Scenario::Isolation,
            NoiseModel::off(),
            None,
        );
    }
}
