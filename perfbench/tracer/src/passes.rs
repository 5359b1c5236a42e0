//! Layer passes: each replays one layer's public calls on inputs taken
//! from the workload just re-enacted, with a span around every call.
//! A pass over a layer the workload did not exercise records nothing.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::io;
use std::path::Path;

use prem_core::{run_prem_traced, RunCapture, RunOutput, RunWork};
use prem_gpusim::SmExecutor;
use prem_harness::{RunRequest, RunStore};
use prem_memsim::{AccessKind, AccessOutcome, Cache, Contention, LineAddr, Phase, TraceSink};
use prem_obs::{Registry, Snapshot};

use crate::reenact::Reenacted;
use crate::spans::Tracer;

/// Live runs the core pass replays: every `CORE_STRIDE`-th schedule unit.
const CORE_STRIDE: usize = 4;
/// Live runs the memsim and gpusim passes replay: every `SIM_STRIDE`-th.
const SIM_STRIDE: usize = 16;
/// Longest LLC stream kept per captured run (bounds the pass's memory).
const MAX_STREAM: usize = 1 << 20;
/// Most intervals per run the gpusim pass executes.
const MAX_INTERVALS: usize = 256;

/// Mismatches found while replaying: a pass whose output differs from
/// the program's is a failed check.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    fn expect_same(&mut self, what: &str, key: &str, got: &RunOutput, want: &RunOutput) {
        if got != want {
            self.failures
                .push(format!("{what} differs from the program for {key}"));
        }
    }
}

fn req_id(req: &RunRequest<'_>) -> Option<u64> {
    Some(req.fingerprint())
}

/// `Kernel::intervals` once per distinct (kernel, dims, T) of the live runs.
pub fn tiling(t: &Tracer, run: &Reenacted<'_>) {
    let mut seen = BTreeSet::new();
    for i in run.live() {
        let req = &run.served[i];
        if seen.insert((req.kernel.name(), req.kernel.dims(), req.t_bytes)) {
            t.span_n("kernels.tiling", req_id(req), || {
                let ivs = req.kernel.intervals(req.t_bytes).expect("live run tiles");
                let n = ivs.len() as u64;
                (black_box(ivs), n)
            });
        }
    }
}

/// A schedule unit as the plan forms it: a plain live run, or a
/// derivation family (representative first, then its siblings).
enum Unit {
    Plain(usize),
    Family(Vec<usize>),
}

fn units(run: &Reenacted<'_>) -> Vec<Unit> {
    let live = run.live();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: HashMap<String, usize> = HashMap::new();
    for &i in &live {
        let req = &run.served[i];
        if req.replay_eligible() {
            let g = *group_of.entry(req.base_key()).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(i);
        }
    }
    let mut out = Vec::new();
    let mut emitted = vec![false; groups.len()];
    for &i in &live {
        let req = &run.served[i];
        match group_of.get(&req.base_key()) {
            Some(&g) if req.replay_eligible() && groups[g].len() >= 2 => {
                if !emitted[g] {
                    emitted[g] = true;
                    out.push(Unit::Family(groups[g].clone()));
                }
            }
            _ => out.push(Unit::Plain(i)),
        }
    }
    out
}

/// `RunRequest::profile` + `execute_profiled` per plain live run, and
/// `execute_captured_profiled` + `replay_from` per family, on every
/// `CORE_STRIDE`-th unit; profiles are memoized by profile key as the
/// plan memoizes them.
pub fn core(t: &Tracer, run: &Reenacted<'_>, checks: &mut Checks) {
    let mut memo: HashMap<String, Option<(f64, f64)>> = HashMap::new();
    let mut profile = |req: &RunRequest<'_>| match req.profile_key() {
        None => None,
        Some(key) => *memo
            .entry(key)
            .or_insert_with(|| t.span("core.profile", req_id(req), || req.profile())),
    };
    for unit in units(run).into_iter().step_by(CORE_STRIDE) {
        match unit {
            Unit::Plain(i) => {
                let req = &run.served[i];
                let p = profile(req);
                let out = t.span("core.timed", req_id(req), || req.execute_profiled(p));
                checks.expect_same("timed run", &req.key(), &out, &run.outputs[i]);
            }
            Unit::Family(members) => {
                let rep = &run.served[members[0]];
                let p = profile(rep);
                let (out, capture): (RunOutput, RunCapture) =
                    t.span("core.capture", req_id(rep), || {
                        rep.execute_captured_profiled(p)
                    });
                checks.expect_same("captured run", &rep.key(), &out, &run.outputs[members[0]]);
                for &s in &members[1..] {
                    let sib = &run.served[s];
                    let out = t.span("core.replay", req_id(sib), || sib.replay_from(&capture));
                    checks.expect_same("replayed run", &sib.key(), &out, &run.outputs[s]);
                }
            }
        }
    }
}

/// `RunOutput::encode` + `decode` of every output the workload served.
pub fn codec(t: &Tracer, run: &Reenacted<'_>, checks: &mut Checks) {
    for (req, out) in run.served.iter().zip(&run.outputs) {
        let back = t.span_n("core.codec", req_id(req), || {
            let bytes = out.encode();
            let n = bytes.len() as u64;
            (RunOutput::decode(&bytes), n)
        });
        match back {
            Ok(back) => checks.expect_same("codec round trip", &req.key(), &back, out),
            Err(e) => checks
                .failures
                .push(format!("decode failed for {}: {e}", req.key())),
        }
    }
}

/// The LLC accesses of one run, in issue order.
#[derive(Default)]
struct LlcStream {
    events: Vec<(LineAddr, AccessKind, Phase)>,
}

impl TraceSink for LlcStream {
    fn on_access(&mut self, line: LineAddr, kind: AccessKind, phase: Phase, _: &AccessOutcome) {
        if self.events.len() < MAX_STREAM {
            self.events.push((line, kind, phase));
        }
    }
}

/// The sampled PREM live runs the simulator passes replay.
fn sim_sample<'r, 'k>(run: &'r Reenacted<'k>) -> Vec<&'r RunRequest<'k>> {
    run.live()
        .into_iter()
        .map(|i| &run.served[i])
        .filter(|r| r.work != RunWork::Baseline)
        .step_by(SIM_STRIDE)
        .collect()
}

/// `Cache::access` over LLC streams captured from sampled live runs,
/// each replayed into a cold cache of the run's own LLC configuration.
pub fn memsim(t: &Tracer, run: &Reenacted<'_>) {
    for req in sim_sample(run) {
        let cfg = req
            .work
            .prem_config(req.seed, req.noise)
            .expect("PREM work has a config");
        let mut platform = req.resolved_platform().build();
        let mut stream = LlcStream::default();
        t.span("group.capture", req_id(req), || {
            run_prem_traced(
                &mut platform,
                &req.tiled_intervals(),
                &cfg,
                req.resolved_scenario(),
                &mut stream,
            )
            .expect("live run replays")
        });
        let mut cache = Cache::new(platform.mem.llc().config().clone().seed(cfg.seed));
        t.span_n("memsim.access", req_id(req), || {
            for &(line, kind, phase) in &stream.events {
                black_box(cache.access(line, kind, phase));
            }
            ((), stream.events.len() as u64)
        });
    }
}

/// `SmExecutor::run` over the `LocalStore` M-phase and C-phase streams
/// of sampled LLC live runs' intervals, on a cold platform.
pub fn gpusim(t: &Tracer, run: &Reenacted<'_>, checks: &mut Checks) {
    for req in sim_sample(run) {
        if !matches!(req.work, RunWork::PremLlc { .. }) {
            continue;
        }
        let cfg = req
            .work
            .prem_config(req.seed, req.noise)
            .expect("PREM work has a config");
        let intervals = req.tiled_intervals();
        let streams: Vec<_> = intervals
            .iter()
            .take(MAX_INTERVALS)
            .map(|iv| (cfg.store.m_phase_pass(iv), cfg.store.c_phase(iv)))
            .collect();
        let mut platform = req.resolved_platform().build();
        platform.reset();
        let result = t.span_n("gpusim.op", req_id(req), || {
            let mut sm = SmExecutor::new(&mut platform.mem, &platform.cost);
            let mut ops = 0;
            for (m, c) in &streams {
                if let Err(e) = sm.run(m, Phase::MPhase, Contention::Isolated) {
                    return (Err(e), ops);
                }
                if let Err(e) = sm.run(c, Phase::CPhase, Contention::Isolated) {
                    return (Err(e), ops);
                }
                ops += (m.len() + c.len()) as u64;
            }
            (Ok(()), ops)
        });
        if let Err(e) = result {
            checks
                .failures
                .push(format!("gpusim pass failed for {}: {e}", req.key()));
        }
    }
}

/// `RunStore::append` of the live outputs into a fresh store in the
/// program's batches, then `RunStore::get` of every served key from the
/// workload's own store through a fresh handle. Returns the store's
/// metrics for the pass.
pub fn store(
    t: &Tracer,
    run: &Reenacted<'_>,
    workload_store: &Path,
    scratch_store: &Path,
    checks: &mut Checks,
) -> io::Result<Snapshot> {
    let registry = Registry::new();
    let keys: Vec<String> = run.served.iter().map(RunRequest::key).collect();
    let fresh = RunStore::open(scratch_store)?;
    for batch in run.live_batches.iter().filter(|b| !b.is_empty()) {
        t.span_n("store.append", None, || {
            let entries = batch.iter().map(|&i| (keys[i].as_str(), &run.outputs[i]));
            (fresh.append_metered(entries, &registry), batch.len() as u64)
        })?;
    }
    let served = RunStore::open(workload_store)?;
    for (i, key) in keys.iter().enumerate() {
        let got = t.span("store.get", req_id(&run.served[i]), || {
            served.get_metered(key, &registry)
        })?;
        match got {
            Some(out) => checks.expect_same("stored output", key, &out, &run.outputs[i]),
            None => checks
                .failures
                .push(format!("{key} missing from the store")),
        }
    }
    Ok(registry.snapshot())
}
