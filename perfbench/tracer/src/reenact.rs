//! Traced re-enactments of the benchmark workloads through the public
//! APIs the `figures` and `serve` binaries are built from. Each keeps the
//! binary's structure (one merged figure plan plus job-granular renders,
//! or budgeted service ticks) and records a span around every layer call
//! it makes; the program's own metrics registry rides along.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;
use std::time::Instant;

use prem_core::RunOutput;
use prem_harness::{
    default_workers, parallel_map, write_artifact, OwnedRunRequest, PlanExecutor,
    ResolvedRunRequest, RunRequest, RunSource, RunStore,
};
use prem_kernels::{case_study_bicg, standard_suite, Bicg, Kernel};
use prem_memsim::KIB;
use prem_obs::{Registry, Snapshot};
use prem_report::{
    ablation,
    common::Harness,
    fig2::fig2,
    fig3::{fig3_requests, fig3_with, fig5_requests, fig5_with},
    fig4::{fig4_requests, fig4_with},
    fig6::{fig6_followup_requests, fig6_requests, fig6_with},
    fig7::{fig7_requests, fig7_with},
    interference,
    mei::mei,
    whatif::{whatif_requests, whatif_with},
    Table,
};
use prem_serve::{ServeConfig, SweepService};

use crate::spans::Tracer;

/// One rendered artifact, written exactly as `figures` writes it.
struct Artifact {
    name: &'static str,
    text: String,
    csv: Option<String>,
}

fn from_table(name: &'static str, table: &Table, extra: &str) -> Artifact {
    Artifact {
        name,
        text: format!("{table}\n{extra}"),
        csv: Some(table.to_csv()),
    }
}

/// The full-scale paper inputs `figures -- all` regenerates from.
pub struct PaperInputs {
    harness: Harness,
    bicg: Bicg,
    suite: Vec<Box<dyn Kernel>>,
}

impl PaperInputs {
    pub fn full_scale() -> Self {
        PaperInputs {
            harness: Harness::default(),
            bicg: case_study_bicg(),
            suite: standard_suite(),
        }
    }
}

type Job = (bool, fn(&PaperInputs, &PlanExecutor) -> Vec<Artifact>);

/// The `figures -- all` job list in output order; the flag marks jobs
/// that render from the plan executor (`report.render`) rather than
/// running their own simulations directly (`report.direct`).
const JOBS: &[Job] = &[
    (false, |p, _| {
        use prem_core::{run_prem, NoiseModel, PremConfig, SyncConfig};
        use prem_gpusim::{PlatformConfig, Scenario};
        let intervals = p.bicg.intervals(160 * KIB).expect("tiling");
        let mut platform = PlatformConfig::tx1().build();
        let cfg = PremConfig::llc_tamed().with_noise(NoiseModel::tx1());
        let run = run_prem(&mut platform, &intervals, &cfg, Scenario::Isolation).expect("prem run");
        let text =
            prem_report::fig1::timeline(&run, &SyncConfig::tx1(), platform.clock_ghz, 4, 0.4);
        vec![Artifact {
            name: "fig1",
            text,
            csv: None,
        }]
    }),
    (false, |p, _| {
        vec![from_table("fig2", &fig2(&p.bicg, 160 * KIB).table(), "")]
    }),
    (true, |p, x| {
        let f = fig3_with(&p.bicg, &p.harness, x);
        vec![from_table("fig3", &f.table(), &f.chart())]
    }),
    (true, |p, x| {
        vec![from_table(
            "fig4",
            &fig4_with(&p.bicg, &p.harness, x).table(),
            "",
        )]
    }),
    (true, |p, x| {
        let f = fig5_with(&p.bicg, &p.harness, x);
        vec![from_table("fig5", &f.table(), &f.chart())]
    }),
    (true, |p, x| {
        let f = fig6_with(&p.suite, &p.harness, 160, 8, x);
        vec![from_table("fig6", &f.table(), "")]
    }),
    (true, |p, x| {
        vec![from_table(
            "fig7",
            &fig7_with(&p.suite, &p.harness, 8, x).table(),
            "",
        )]
    }),
    (true, |p, x| {
        vec![from_table("whatif", &whatif_with(&p.bicg, x).table(), "")]
    }),
    (false, |p, _| {
        let rows = interference::interference_sweep(&p.bicg, 160 * KIB, 8, 11, 6);
        vec![from_table(
            "interference_sweep",
            &interference::sweep_table(&rows, "bicg", 160, 8),
            "",
        )]
    }),
    (false, |_, _| vec![from_table("mei", &mei(50_000, 7).1, "")]),
    (false, |p, _| {
        let (b, h) = (&p.bicg, &p.harness);
        vec![
            from_table(
                "ablation_policy",
                &ablation::policy_table(&ablation::policy_ablation(b, h, 160 * KIB, &[1, 8]), 160),
                "",
            ),
            from_table(
                "ablation_msg",
                &ablation::msg_table(
                    &ablation::msg_ablation(
                        b,
                        h,
                        96 * KIB,
                        160 * KIB,
                        &[5.0, 10.0, 20.0, 50.0, 100.0],
                    ),
                    96,
                    160,
                ),
                "",
            ),
            from_table(
                "ablation_adaptive",
                &ablation::adaptive_table(&ablation::adaptive_ablation(b, h, 160 * KIB), 160),
                "",
            ),
            from_table(
                "ablation_bias",
                &ablation::bias_table(
                    &ablation::bias_ablation(b, h, 160 * KIB, &[1, 2, 3, 5, 9]),
                    160,
                ),
                "",
            ),
        ]
    }),
];

/// What a re-enactment leaves for the layer passes.
pub struct Reenacted<'k> {
    /// Wall time of the re-enacted command itself.
    pub wall_ns: u64,
    /// The program's metrics snapshot for the re-enacted command.
    pub snapshot: Snapshot,
    /// Every distinct request the workload served, first occurrence order.
    pub served: Vec<RunRequest<'k>>,
    /// The outputs of `served`, index for index.
    pub outputs: Vec<RunOutput>,
    /// Indices into `served` that executed live, grouped into the batches
    /// the program appended to its store.
    pub live_batches: Vec<Vec<usize>>,
}

impl Reenacted<'_> {
    /// Every live index, in execution order.
    pub fn live(&self) -> Vec<usize> {
        self.live_batches.iter().flatten().copied().collect()
    }
}

/// Records each first-seen request of a batch, marking it live when the
/// store did not hold it before the batch ran.
fn note_batch<'k>(
    served: &mut Vec<RunRequest<'k>>,
    seen: &mut HashSet<String>,
    batch: &[RunRequest<'k>],
    stored_before: impl Fn(&str) -> io::Result<bool>,
) -> io::Result<Vec<usize>> {
    let mut live = Vec::new();
    for req in batch {
        let key = req.key();
        if seen.insert(key.clone()) {
            if !stored_before(&key)? {
                live.push(served.len());
            }
            served.push(req.clone());
        }
    }
    Ok(live)
}

/// `figures -- all` against the store at `store_dir`, writing the
/// artifacts under `out_dir`.
pub fn paper<'k>(
    t: &Tracer,
    inputs: &'k PaperInputs,
    store_dir: &Path,
    out_dir: &Path,
) -> io::Result<Reenacted<'k>> {
    let (bicg, harness, suite) = (&inputs.bicg, &inputs.harness, &inputs.suite);
    let mut merged: Vec<RunRequest<'k>> = Vec::new();
    merged.extend(fig3_requests(bicg, harness));
    merged.extend(fig4_requests(bicg, harness));
    merged.extend(fig5_requests(bicg, harness));
    merged.extend(fig6_requests(suite, harness, 160, 8));
    merged.extend(fig7_requests(suite, harness, 8));
    merged.extend(whatif_requests(bicg));
    // Which requests the store already holds is read through handles of
    // its own, so the executor's handle starts as cold as the binary's.
    let mut served = Vec::new();
    let mut seen = HashSet::new();
    let mut live_batches = Vec::new();
    let probe = RunStore::open(store_dir)?;
    live_batches.push(note_batch(&mut served, &mut seen, &merged, |k| {
        probe.contains(k)
    })?);
    drop(probe);

    let t0 = Instant::now();
    let registry = Registry::new();
    let workers = default_workers();
    let executor = PlanExecutor::new().with_store(RunStore::open(store_dir)?);
    t.span("plan.execute", None, || {
        executor.execute_metered(&merged, workers, &registry)
    });
    let tail = fig6_followup_requests(suite, harness, &executor);
    let probe = RunStore::open(store_dir)?;
    live_batches.push(note_batch(&mut served, &mut seen, &tail, |k| {
        probe.contains(k)
    })?);
    drop(probe);
    t.span("plan.execute", None, || {
        executor.execute_metered(&tail, workers, &registry)
    });

    let jobs: Vec<&Job> = JOBS.iter().collect();
    let group = t.current();
    for artifacts in parallel_map(workers, &jobs, |&&(from_plan, job)| {
        let name = if from_plan {
            "report.render"
        } else {
            "report.direct"
        };
        t.span_under(group, name, None, || (job(inputs, &executor), 1))
    }) {
        for a in artifacts {
            write_artifact(out_dir.join(format!("{}.txt", a.name)), a.text.as_bytes());
            if let Some(csv) = &a.csv {
                write_artifact(out_dir.join(format!("{}.csv", a.name)), csv.as_bytes());
            }
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let snapshot = registry.snapshot();
    let outputs = served.iter().map(|r| executor.output(r)).collect();
    Ok(Reenacted {
        wall_ns,
        snapshot,
        served,
        outputs,
        live_batches,
    })
}

/// A parsed serve session: `(tag, request-line)` per `req` line, and
/// the request counts after which the client sent `flush`.
pub struct Session {
    pub lines: Vec<(String, String)>,
    pub flush_after: Vec<usize>,
}

/// Parses a session stream (`req <tag> <request-line>` and `flush`
/// lines, as the benchmark pipes them into `serve`).
pub fn parse_session(text: &str) -> io::Result<Session> {
    let bad =
        |line: &str| io::Error::new(io::ErrorKind::InvalidData, format!("stream line `{line}`"));
    let mut session = Session {
        lines: Vec::new(),
        flush_after: Vec::new(),
    };
    for line in text.lines() {
        match line.trim() {
            "" | "quit" => {}
            "flush" => session.flush_after.push(session.lines.len()),
            l => {
                let rest = l.strip_prefix("req ").ok_or_else(|| bad(l))?;
                let (tag, req) = rest.split_once(' ').ok_or_else(|| bad(l))?;
                session.lines.push((tag.to_string(), req.to_string()));
            }
        }
    }
    Ok(session)
}

/// The `serve` defaults (`--budget 4 --workers 1`) driven with the
/// session against the store at `store_dir`; `resolved` holds the
/// session's requests, resolved outside any span. The request lines are
/// parsed again inside the timed `wire.parse` spans, so that cost is the
/// program's, not this harness's.
pub fn serve<'k>(
    t: &Tracer,
    session: &Session,
    resolved: &'k [ResolvedRunRequest],
    store_dir: &Path,
) -> io::Result<Reenacted<'k>> {
    let mut index_of = HashMap::new();
    let mut stored_before = HashSet::new();
    let store = RunStore::open(store_dir)?;
    for (i, r) in resolved.iter().enumerate() {
        let key = r.request().key();
        if store.contains(&key)? {
            stored_before.insert(key.clone());
        }
        index_of.entry(key).or_insert(i);
    }
    drop(store);

    let t0 = Instant::now();
    let executor = PlanExecutor::new().with_store(RunStore::open(store_dir)?);
    let mut service = SweepService::new(executor, ServeConfig::default());
    let mut served = Vec::new();
    let mut outputs = Vec::new();
    let mut seen = HashSet::new();
    let mut live_batches = Vec::new();
    let mut next = 0;
    let last = session.lines.len();
    for &end in session.flush_after.iter().chain(std::iter::once(&last)) {
        for (id, (tag, line)) in session.lines.iter().enumerate().take(end).skip(next) {
            let owned = t.span("wire.parse", Some(id as u64), || {
                let owned = OwnedRunRequest::from_line(line)?;
                owned.clone().resolve()?;
                Ok::<_, io::Error>(owned)
            })?;
            t.span("serve.submit", Some(id as u64), || {
                service.submit(tag.clone(), owned)
            })?;
        }
        next = next.max(end);
        while service.queue_depth() > 0 {
            let (_, responses) = t.span("serve.tick", None, || service.tick());
            let mut live = Vec::new();
            for r in responses {
                if seen.insert(r.key.clone()) {
                    if !stored_before.contains(&r.key) {
                        live.push(served.len());
                    }
                    served.push(resolved[index_of[&r.key]].request());
                    outputs.push(r.output);
                }
            }
            live_batches.push(live);
        }
    }
    Ok(Reenacted {
        wall_ns: t0.elapsed().as_nanos() as u64,
        snapshot: service.metrics().snapshot(),
        served,
        outputs,
        live_batches,
    })
}
