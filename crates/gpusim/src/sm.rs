//! The streaming-multiprocessor executor: runs an op stream against the
//! memory system and accounts cycles.

use std::error::Error;
use std::fmt;

use prem_memsim::{
    AccessKind, Contention, HitLevel, MemSystem, NullSink, Phase, SpmError, TraceSink,
};

use crate::cost::CostModel;
use crate::interference::InterferenceEngine;
use crate::op::{Op, OpStream};

/// Execution failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The scratchpad rejected an access or staging operation; this means a
    /// PREM tiling is broken (footprint not staged, or over capacity).
    Spm(SpmError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Spm(e) => write!(f, "scratchpad execution failed: {e}"),
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Spm(e) => Some(e),
        }
    }
}

impl From<SpmError> for ExecError {
    fn from(e: SpmError) -> Self {
        ExecError::Spm(e)
    }
}

/// Per-level access counters observed while running one stream.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelCounts {
    /// Accesses served by L1.
    pub l1: u64,
    /// Accesses served by the LLC.
    pub llc: u64,
    /// Accesses served by the scratchpad.
    pub spm: u64,
    /// Accesses that reached DRAM (cache misses and direct transfers).
    pub dram: u64,
}

impl LevelCounts {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.l1 + self.llc + self.spm + self.dram
    }
}

/// Outcome of running one op stream.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct RunOutcome {
    /// Cycles consumed.
    pub cycles: f64,
    /// Where accesses were served.
    pub levels: LevelCounts,
    /// Prefetches that hit / missed.
    pub prefetch_hits: u64,
    /// Prefetch misses (each one performed a DRAM fill).
    pub prefetch_misses: u64,
}

impl RunOutcome {
    /// Accumulates another outcome (e.g. across intervals).
    pub fn merge(&mut self, other: &RunOutcome) {
        self.cycles += other.cycles;
        self.levels.l1 += other.levels.l1;
        self.levels.llc += other.levels.llc;
        self.levels.spm += other.levels.spm;
        self.levels.dram += other.levels.dram;
        self.prefetch_hits += other.prefetch_hits;
        self.prefetch_misses += other.prefetch_misses;
    }
}

/// Per-level op costs for one constant contention level.
///
/// Every field is produced by the corresponding [`CostModel`] method, so
/// charging from the table is bit-identical to recomputing per op — the
/// same operands flow through the same IEEE operations — while hoisting
/// the divisions (and the DRAM effective-latency evaluation) out of the
/// hot loop, where they otherwise execute once per access.
#[derive(Copy, Clone, Debug)]
struct CostTable {
    l1: f64,
    llc: f64,
    spm: f64,
    dram: f64,
    prefetch_hit: f64,
    prefetch_miss: f64,
    copy: f64,
    alu_cpi: f64,
}

impl CostTable {
    fn new(cost: &CostModel, contention: Contention) -> Self {
        CostTable {
            l1: cost.access_cost(HitLevel::L1, contention),
            llc: cost.access_cost(HitLevel::Llc, contention),
            spm: cost.access_cost(HitLevel::Spm, contention),
            dram: cost.access_cost(HitLevel::Dram, contention),
            prefetch_hit: cost.prefetch_cost(true, contention),
            prefetch_miss: cost.prefetch_cost(false, contention),
            copy: cost.issue_cycles + cost.copy_line_cost(contention),
            alu_cpi: cost.alu_cpi,
        }
    }
}

/// Source of per-op costs inside [`SmExecutor::run_inner`].
///
/// Monomorphizing the executor loop over this trait gives the constant-
/// contention path a branch-free table lookup per op while the
/// time-varying path keeps querying the interference engine at each op's
/// issue time — without a dynamic dispatch per op on either path.
trait Coster {
    fn access(&mut self, level: HitLevel, elapsed: f64) -> f64;
    fn prefetch(&mut self, hit: bool, elapsed: f64) -> f64;
    fn copy(&mut self, elapsed: f64) -> f64;
    fn alu(&mut self, n: u64) -> f64;
}

/// Constant-contention coster: all costs come from one [`CostTable`].
struct ConstCoster {
    t: CostTable,
}

impl Coster for ConstCoster {
    #[inline]
    fn access(&mut self, level: HitLevel, _elapsed: f64) -> f64 {
        match level {
            HitLevel::L1 => self.t.l1,
            HitLevel::Llc => self.t.llc,
            HitLevel::Spm => self.t.spm,
            HitLevel::Dram => self.t.dram,
        }
    }

    #[inline]
    fn prefetch(&mut self, hit: bool, _elapsed: f64) -> f64 {
        if hit {
            self.t.prefetch_hit
        } else {
            self.t.prefetch_miss
        }
    }

    #[inline]
    fn copy(&mut self, _elapsed: f64) -> f64 {
        self.t.copy
    }

    #[inline]
    fn alu(&mut self, n: u64) -> f64 {
        n as f64 * self.t.alu_cpi
    }
}

/// Dual coster: charges the live-contention cost while accumulating, per
/// op in issue order, the cost the same op would have under a second
/// contention level. The secondary accumulator reproduces — bit-exactly —
/// the `cycles` a separate run of the same stream under the secondary
/// contention would report, because the trajectory (and hence the level
/// sequence) is contention-independent and both sides add the same
/// per-level constants in the same order from 0.0.
struct DualCoster {
    live: ConstCoster,
    second: ConstCoster,
    second_cycles: f64,
}

impl Coster for DualCoster {
    #[inline]
    fn access(&mut self, level: HitLevel, elapsed: f64) -> f64 {
        self.second_cycles += self.second.access(level, elapsed);
        self.live.access(level, elapsed)
    }

    #[inline]
    fn prefetch(&mut self, hit: bool, elapsed: f64) -> f64 {
        self.second_cycles += self.second.prefetch(hit, elapsed);
        self.live.prefetch(hit, elapsed)
    }

    #[inline]
    fn copy(&mut self, elapsed: f64) -> f64 {
        self.second_cycles += self.second.copy(elapsed);
        self.live.copy(elapsed)
    }

    #[inline]
    fn alu(&mut self, n: u64) -> f64 {
        self.second_cycles += self.second.alu(n);
        self.live.alu(n)
    }
}

/// Time-varying coster: evaluates the interference engine's contention at
/// each memory op's issue time, exactly as the event-driven path always
/// has. Compute ops never consulted contention (their cost ignores it),
/// so skipping the engine query for them is observationally identical —
/// [`InterferenceEngine::contention_at`] is a pure function of time.
struct VaryingCoster<'a> {
    cost: &'a CostModel,
    engine: &'a InterferenceEngine,
    start_cycle: f64,
}

impl VaryingCoster<'_> {
    #[inline]
    fn at(&self, elapsed: f64) -> Contention {
        self.engine.contention_at(self.start_cycle + elapsed)
    }
}

impl Coster for VaryingCoster<'_> {
    #[inline]
    fn access(&mut self, level: HitLevel, elapsed: f64) -> f64 {
        self.cost.access_cost(level, self.at(elapsed))
    }

    #[inline]
    fn prefetch(&mut self, hit: bool, elapsed: f64) -> f64 {
        self.cost.prefetch_cost(hit, self.at(elapsed))
    }

    #[inline]
    fn copy(&mut self, elapsed: f64) -> f64 {
        self.cost.issue_cycles + self.cost.copy_line_cost(self.at(elapsed))
    }

    #[inline]
    fn alu(&mut self, n: u64) -> f64 {
        self.cost.alu_cost(n)
    }
}

/// Executes op streams on one SM against a [`MemSystem`].
#[derive(Debug)]
pub struct SmExecutor<'a> {
    mem: &'a mut MemSystem,
    cost: &'a CostModel,
}

impl<'a> SmExecutor<'a> {
    /// Creates an executor borrowing the memory system and cost model.
    pub fn new(mem: &'a mut MemSystem, cost: &'a CostModel) -> Self {
        SmExecutor { mem, cost }
    }

    /// Runs `stream`, attributing cache accesses to `phase` and charging
    /// DRAM-level costs under `contention`.
    ///
    /// # Errors
    ///
    /// [`ExecError::Spm`] when a scratchpad op touches unstaged data — a
    /// broken PREM tiling.
    pub fn run(
        &mut self,
        stream: &OpStream,
        phase: Phase,
        contention: Contention,
    ) -> Result<RunOutcome, ExecError> {
        self.run_traced(stream, phase, contention, 0.0, &mut NullSink)
    }

    /// [`SmExecutor::run`] with instrumentation: every op issue, LLC
    /// access outcome and direct DRAM transfer is reported to `sink`,
    /// with op-issue timestamps measured from schedule time
    /// `start_cycle`. With [`NullSink`] this monomorphizes to exactly
    /// [`SmExecutor::run`].
    ///
    /// # Errors
    ///
    /// [`ExecError::Spm`] exactly as for [`SmExecutor::run`].
    pub fn run_traced<S: TraceSink>(
        &mut self,
        stream: &OpStream,
        phase: Phase,
        contention: Contention,
        start_cycle: f64,
        sink: &mut S,
    ) -> Result<RunOutcome, ExecError> {
        let mut coster = ConstCoster {
            t: CostTable::new(self.cost, contention),
        };
        self.run_inner(stream, phase, &mut coster, start_cycle, sink)
    }

    /// [`SmExecutor::run_traced`] under `contention`, additionally
    /// returning the cycles the same stream would have cost under
    /// `second` — accumulated per op in issue order, so the returned
    /// value is bit-identical to a separate [`SmExecutor::run`] of the
    /// stream under `second` (the trajectory does not depend on
    /// contention). This is how a timed run self-profiles: one walk
    /// yields both the live cycles and the isolated cycles a profiling
    /// pass would have measured.
    ///
    /// # Errors
    ///
    /// [`ExecError::Spm`] exactly as for [`SmExecutor::run`].
    pub fn run_dual_traced<S: TraceSink>(
        &mut self,
        stream: &OpStream,
        phase: Phase,
        contention: Contention,
        second: Contention,
        start_cycle: f64,
        sink: &mut S,
    ) -> Result<(RunOutcome, f64), ExecError> {
        let mut coster = DualCoster {
            live: ConstCoster {
                t: CostTable::new(self.cost, contention),
            },
            second: ConstCoster {
                t: CostTable::new(self.cost, second),
            },
            second_cycles: 0.0,
        };
        let out = self.run_inner(stream, phase, &mut coster, start_cycle, sink)?;
        Ok((out, coster.second_cycles))
    }

    /// Runs `stream` under the time-varying contention of `engine`,
    /// starting at schedule time `start_cycle`, reporting to `sink` as
    /// [`SmExecutor::run_traced`] does.
    ///
    /// Each op is charged the contention the co-runner mix generates at
    /// the op's own issue time (`start_cycle` + cycles consumed so far) —
    /// the event-driven path. Mixes without time-varying actors take the
    /// constant fast path, which is bit-identical to
    /// [`SmExecutor::run_traced`] with
    /// [`InterferenceEngine::static_contention`].
    ///
    /// # Errors
    ///
    /// [`ExecError::Spm`] exactly as for [`SmExecutor::run`].
    pub fn run_under_traced<S: TraceSink>(
        &mut self,
        stream: &OpStream,
        phase: Phase,
        engine: &InterferenceEngine,
        start_cycle: f64,
        sink: &mut S,
    ) -> Result<RunOutcome, ExecError> {
        match engine.static_contention() {
            Some(contention) => self.run_traced(stream, phase, contention, start_cycle, sink),
            None => {
                let mut coster = VaryingCoster {
                    cost: self.cost,
                    engine,
                    start_cycle,
                };
                self.run_inner(stream, phase, &mut coster, start_cycle, sink)
            }
        }
    }

    fn run_inner<S: TraceSink, C: Coster>(
        &mut self,
        stream: &OpStream,
        phase: Phase,
        coster: &mut C,
        start_cycle: f64,
        sink: &mut S,
    ) -> Result<RunOutcome, ExecError> {
        let mut out = RunOutcome::default();
        for op in stream {
            sink.on_op_issue(start_cycle + out.cycles);
            match *op {
                Op::CachedLoad(line) => {
                    let level = self
                        .mem
                        .access_cached_traced(line, AccessKind::Read, phase, sink);
                    self.count(&mut out, level);
                    out.cycles += coster.access(level, out.cycles);
                }
                Op::CachedStore(line) => {
                    let level = self
                        .mem
                        .access_cached_traced(line, AccessKind::Write, phase, sink);
                    self.count(&mut out, level);
                    out.cycles += coster.access(level, out.cycles);
                }
                Op::Prefetch(line) => {
                    let level =
                        self.mem
                            .access_cached_traced(line, AccessKind::Prefetch, phase, sink);
                    let hit = level != HitLevel::Dram;
                    if hit {
                        out.prefetch_hits += 1;
                    } else {
                        out.prefetch_misses += 1;
                        out.levels.dram += 1;
                    }
                    out.cycles += coster.prefetch(hit, out.cycles);
                }
                Op::SpmLoad(line) | Op::SpmStore(line) => {
                    let level = self.mem.access_spm(line)?;
                    self.count(&mut out, level);
                    out.cycles += coster.access(level, out.cycles);
                }
                Op::DramLoad(line) => {
                    // Direct copy-loop transfer into the SPM: stage the line.
                    self.mem.spm_mut().stage(line)?;
                    sink.on_dram_transfer(line, false);
                    out.levels.dram += 1;
                    out.cycles += coster.copy(out.cycles);
                }
                Op::DramStore(line) => {
                    sink.on_dram_transfer(line, true);
                    out.levels.dram += 1;
                    out.cycles += coster.copy(out.cycles);
                }
                Op::Alu(n) | Op::TranslAddr(n) => {
                    sink.on_compute(n as u64);
                    out.cycles += coster.alu(n as u64);
                }
            }
        }
        Ok(out)
    }

    fn count(&self, out: &mut RunOutcome, level: HitLevel) {
        match level {
            HitLevel::L1 => out.levels.l1 += 1,
            HitLevel::Llc => out.levels.llc += 1,
            HitLevel::Spm => out.levels.spm += 1,
            HitLevel::Dram => out.levels.dram += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use prem_memsim::{Cache, CacheConfig, LineAddr, Spm, SpmConfig};

    fn mem() -> MemSystem {
        MemSystem::new(
            Cache::new(CacheConfig::new(1024, 2, 64)),
            Spm::new(SpmConfig::new(256, 64)),
        )
    }

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn cached_load_miss_then_hit_costs_less() {
        let mut m = mem();
        let cost = CostModel::tx1();
        let mut ex = SmExecutor::new(&mut m, &cost);
        let s: OpStream = vec![Op::CachedLoad(l(0))].into_iter().collect();
        let first = ex.run(&s, Phase::Unphased, Contention::Isolated).unwrap();
        let second = ex.run(&s, Phase::Unphased, Contention::Isolated).unwrap();
        assert!(second.cycles < first.cycles);
        assert_eq!(first.levels.dram, 1);
        assert_eq!(second.levels.llc, 1);
    }

    #[test]
    fn prefetch_repeat_is_cheap_after_fill() {
        let mut m = mem();
        let cost = CostModel::tx1();
        let mut ex = SmExecutor::new(&mut m, &cost);
        let s: OpStream = vec![Op::Prefetch(l(4))].into_iter().collect();
        let miss = ex.run(&s, Phase::MPhase, Contention::Isolated).unwrap();
        let hit = ex.run(&s, Phase::MPhase, Contention::Isolated).unwrap();
        assert_eq!(miss.prefetch_misses, 1);
        assert_eq!(hit.prefetch_hits, 1);
        assert!(hit.cycles * 5.0 < miss.cycles);
    }

    #[test]
    fn spm_access_requires_staging() {
        let mut m = mem();
        let cost = CostModel::tx1();
        let mut ex = SmExecutor::new(&mut m, &cost);
        let bad: OpStream = vec![Op::SpmLoad(l(1))].into_iter().collect();
        assert!(ex.run(&bad, Phase::CPhase, Contention::Isolated).is_err());
        let good: OpStream = vec![Op::DramLoad(l(1)), Op::SpmLoad(l(1))]
            .into_iter()
            .collect();
        let out = ex.run(&good, Phase::CPhase, Contention::Isolated).unwrap();
        assert_eq!(out.levels.spm, 1);
        assert_eq!(out.levels.dram, 1);
    }

    #[test]
    fn interference_slows_misses_only() {
        let cost = CostModel::tx1();
        let s: OpStream = (0..8).map(|i| Op::CachedLoad(l(i))).collect();

        let mut m1 = mem();
        let iso = SmExecutor::new(&mut m1, &cost)
            .run(&s, Phase::Unphased, Contention::Isolated)
            .unwrap();
        let mut m2 = mem();
        let bomb = SmExecutor::new(&mut m2, &cost)
            .run(&s, Phase::Unphased, Contention::membomb())
            .unwrap();
        assert!(bomb.cycles > iso.cycles * 1.5);

        // All-hit streams are insensitive.
        let hit_iso = SmExecutor::new(&mut m1, &cost)
            .run(&s, Phase::Unphased, Contention::Isolated)
            .unwrap();
        let hit_bomb = SmExecutor::new(&mut m2, &cost)
            .run(&s, Phase::Unphased, Contention::membomb())
            .unwrap();
        assert!((hit_iso.cycles - hit_bomb.cycles).abs() < 1e-9);
    }

    #[test]
    fn run_under_static_mix_matches_plain_run() {
        use crate::interference::{CorunnerProfile, InterferenceEngine};
        let cost = CostModel::tx1();
        let s: OpStream = (0..16).map(|i| Op::CachedLoad(l(i * 4))).collect();
        let engine = InterferenceEngine::new(&[CorunnerProfile::Membomb; 3], 1);
        let mut m1 = mem();
        let under = SmExecutor::new(&mut m1, &cost)
            .run_under_traced(&s, Phase::Unphased, &engine, 0.0, &mut NullSink)
            .unwrap();
        let mut m2 = mem();
        let plain = SmExecutor::new(&mut m2, &cost)
            .run(&s, Phase::Unphased, Contention::membomb())
            .unwrap();
        assert_eq!(under, plain);
    }

    #[test]
    fn run_under_bursty_lands_between_idle_and_saturated() {
        use crate::interference::{CorunnerProfile, InterferenceEngine};
        let cost = CostModel::tx1();
        // All-miss stream (distinct sets, cold cache) so every op feels DRAM.
        let s: OpStream = (0..64).map(|i| Op::CachedLoad(l(i))).collect();
        let bursty = InterferenceEngine::new(
            &[CorunnerProfile::Bursty {
                duty: 0.5,
                period_cycles: 10_000.0,
            }; 3],
            7,
        );
        let mut m = mem();
        let mid = SmExecutor::new(&mut m, &cost)
            .run_under_traced(&s, Phase::Unphased, &bursty, 0.0, &mut NullSink)
            .unwrap();
        let mut m_iso = mem();
        let iso = SmExecutor::new(&mut m_iso, &cost)
            .run(&s, Phase::Unphased, Contention::Isolated)
            .unwrap();
        let mut m_sat = mem();
        let sat = SmExecutor::new(&mut m_sat, &cost)
            .run(&s, Phase::Unphased, Contention::membomb())
            .unwrap();
        assert!(mid.cycles >= iso.cycles && mid.cycles <= sat.cycles);
        // With 3 half-duty bombs some window must actually burst.
        assert!(mid.cycles > iso.cycles);
    }

    #[test]
    fn alu_and_transl_are_pure_compute() {
        let mut m = mem();
        let cost = CostModel::tx1();
        let mut ex = SmExecutor::new(&mut m, &cost);
        let s: OpStream = vec![Op::Alu(10), Op::TranslAddr(6)].into_iter().collect();
        let out = ex.run(&s, Phase::CPhase, Contention::membomb()).unwrap();
        assert_eq!(out.levels.total(), 0);
        assert!((out.cycles - 16.0 * cost.alu_cpi).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RunOutcome {
            cycles: 1.0,
            ..Default::default()
        };
        let b = RunOutcome {
            cycles: 2.0,
            prefetch_hits: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 3.0);
        assert_eq!(a.prefetch_hits, 3);
    }
}
