//! Regenerates every table and figure of the paper into `results/`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p prem-bench --bin figures            # every paper figure
//! cargo run --release -p prem-bench --bin figures -- all     # same, explicitly
//! cargo run --release -p prem-bench --bin figures -- fig4    # one artifact
//! cargo run --release -p prem-bench --bin figures -- quick   # reduced sizes
//! cargo run --release -p prem-bench --bin figures -- matrix  # scenario matrix
//! cargo run --release -p prem-bench --bin figures -- trace   # capture + replay
//! cargo run --release -p prem-bench --bin figures -- --list  # artifact map
//! cargo run --release -p prem-bench --bin figures -- obs     # phase timings
//! cargo run --release -p prem-bench --bin figures -- cache stats   # store shape
//! cargo run --release -p prem-bench --bin figures -- cache verify  # full decode
//! cargo run --release -p prem-bench --bin figures -- cache gc      # drop dead keys
//! ```
//!
//! Unknown subcommands exit nonzero with the artifact listing.
//!
//! The artifact set is [`prem_report::paper`]'s job table: each entry
//! names a subcommand, its `--list` line, its canonical run requests and
//! its renderer, and this binary is a thin CLI over it (plus the
//! figures-local `trace` and `obs` subcommands). Every selected job's
//! requests — figures 3/4/5/6/7, the what-if sweep, the four ablations,
//! the co-runner sweep and, when named, the scenario matrix — execute as
//! **one merged, deduplicated run plan** ([`prem_report::paper::plan`]):
//! the [`prem_harness::PlanExecutor`] elides every request two artifacts
//! share (fig3/fig5/fig6/fig7 overlap heavily on baselines and LLC grid
//! points; the bias ablation's weight-3 rows are the policy ablation's
//! biased-random runs) and executes the unique frontier on the
//! work-claiming pool at *run* granularity — so a parallel run is no
//! longer bounded by the largest single artifact. The unique frontier is
//! further partitioned into **derivation families** (requests differing
//! only in LLC policy/seed): one representative per family executes live
//! with what-if capture on and every sibling's output is derived by
//! replay, bit-identical by the plan-replay equivalence suite
//! (`--no-replay` opts out). A per-invocation plan summary (unique runs,
//! duplicates elided, cache hits, replays, families) is printed to
//! stderr; CI asserts the elision count is nonzero and, on the quick
//! merged plan, `replayed > 0`. The artifacts then render as
//! job-granular pool tasks (`PREM_WORKERS` overrides the worker count):
//! the plan-based ones as pure cache traffic, while fig1, fig2 and mei —
//! a few tens of milliseconds together — compute their own runs. Outputs
//! are collected and written in a fixed order, so the artifacts are
//! byte-identical to a sequential run.
//!
//! The plan executor is backed by the **persistent run cache**
//! (`results/.runcache/` by default — see `CACHING.md`): every live
//! execution is appended to the store and every later invocation serves
//! matching requests from disk, so a warm regeneration executes nothing.
//! `--no-cache` runs fully live (artifacts are byte-identical either
//! way), `--cache` re-enables it, `--cache-dir <path>` relocates the
//! store, and `cache {stats,verify,gc}` introspects it.
//!
//! Under `--metrics` the executor and store record into a `prem-obs`
//! registry and the snapshot is written to `<metrics-dir>/metrics.json`
//! (versioned single-line JSON) when the run finishes. The `obs`
//! subcommand (explicit only) runs the what-if plan metered and renders
//! the phase-timing breakdown as `results/obs.{txt,csv}`. Metrics never
//! influence run outputs: every artifact is byte-identical with metrics
//! on or off, and with no registry the metered entry points
//! monomorphize to the no-op null sink.

use std::path::Path;
use std::time::Instant;

use prem_harness::{
    default_workers, parallel_map, write_artifact, ExecFlags, RunStore, EXEC_FLAGS_HELP,
};
use prem_memsim::KIB;
use prem_obs::{NullMetrics, Registry, Span};
use prem_report::{
    obs::{obs_counters, obs_table},
    paper::{self, Artifact, PaperInputs, JOBS},
    Table,
};

/// Subcommands outside the [`JOBS`] table: they render from a trace
/// capture or from this invocation's metrics, not from the plan, and run
/// only when named.
const LOCAL_JOBS: &[(&str, &str)] = &[
    (
        "trace",
        "trace_{reuse,heatmap,policy_replay}.{txt,csv} + trace_capture.bin — \
         LLC capture, analyses, replay sweep (explicit only)",
    ),
    (
        "obs",
        "obs.{txt,csv} — phase-timing breakdown of a metered what-if plan \
         (explicit only; implies metrics recording)",
    ),
];

/// Renders the artifact listing for `--list` and error messages.
fn listing() -> String {
    let mut out = String::from(
        "figures [quick] [subcommand...] — artifacts under results/\n\
         modifiers: quick (reduced sizes), all (the default figure set, \
         explicitly), --list (this listing)\n\
         cache: on by default at results/.runcache (see CACHING.md); \
         `cache {stats,verify,gc}` introspects it\n\
         replay: policy/seed siblings derive from one captured live run \
         per derivation family (bit-identical outputs)\n\
         executor flags (shared with bench_matrix and serve):\n",
    );
    out.push_str(EXEC_FLAGS_HELP);
    out.push('\n');
    for (name, what) in JOBS
        .iter()
        .map(|job| (job.name, job.listing))
        .chain(LOCAL_JOBS.iter().copied())
    {
        out.push_str(&format!("  {name:<13} {what}\n"));
    }
    out
}

/// Dispatches `figures -- cache <action>`; returns the process exit code.
fn cache_command(action: Option<&str>, cache_dir: &Path) -> i32 {
    let fail = |e: std::io::Error| -> i32 {
        eprintln!("figures: cache command failed: {e}");
        1
    };
    match action {
        // `stats` reports through the metrics registry: per-shard record
        // and byte gauges plus the segment-load latency histogram, in
        // the registry's stable text rendering.
        Some("stats") => {
            let registry = Registry::new();
            match RunStore::open(cache_dir).and_then(|s| s.stats_metered(&registry)) {
                Ok(stats) => {
                    println!("run cache at {}", cache_dir.display());
                    println!(
                        "{} records, {} segment file(s)",
                        stats.records, stats.segments
                    );
                    print!("{}", registry.snapshot().to_text());
                    0
                }
                Err(e) => fail(e),
            }
        }
        Some("verify") => match RunStore::open(cache_dir).and_then(|s| s.verify()) {
            Ok(stats) => {
                print!(
                    "verify ok: every record decoded and checksummed at {}\n{stats}",
                    cache_dir.display()
                );
                0
            }
            Err(e) => fail(e),
        },
        Some("gc") => {
            let gc = RunStore::open(cache_dir).and_then(|store| {
                let keep = paper::live_keys(&store)?;
                store.gc(|key| keep.contains(key))
            });
            match gc {
                Ok(report) => {
                    println!("{report} at {}", cache_dir.display());
                    0
                }
                Err(e) => fail(e),
            }
        }
        _ => {
            eprintln!("figures: usage: cache {{stats,verify,gc}} [--cache-dir <path>]");
            2
        }
    }
}

fn main() {
    // Executor flags (shared parser; everything else passes through).
    let (flags, args) = ExecFlags::parse("results/.runcache", std::env::args().skip(1))
        .unwrap_or_else(|e| {
            eprintln!("figures: {e}\n\n{}", listing());
            std::process::exit(2);
        });
    let cache_dir = flags.cache_dir.clone();
    if args.iter().any(|a| a == "--list") {
        print!("{}", listing());
        return;
    }
    if args.first().map(String::as_str) == Some("cache") {
        std::process::exit(cache_command(args.get(1).map(String::as_str), &cache_dir));
    }
    let quick = args.iter().any(|a| a == "quick");
    let which: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "quick" && *a != "all")
        .collect();
    let known = |a: &str| paper::job(a).is_some() || LOCAL_JOBS.iter().any(|(n, _)| *n == a);
    if let Some(bad) = which.iter().find(|a| !known(a)) {
        eprintln!("figures: unknown subcommand '{bad}'\n\n{}", listing());
        std::process::exit(2);
    }
    // `all` is the default figure set, spelled out (so `figures -- all
    // quick` is the canonical CI smoke invocation).
    let all = which.is_empty() || args.iter().any(|a| a == "all");
    let explicit_only = |name: &str| paper::job(name).is_none_or(|job| job.explicit_only);
    let run = |name: &str| (all && !explicit_only(name)) || which.contains(&name);
    let workers = default_workers();

    // One registry for the whole invocation when metrics are on. The
    // `obs` artifact needs timings even without `--metrics`, so it
    // implies a (process-local) registry; only `--metrics` persists the
    // snapshot.
    let registry: Option<Registry> = flags.registry().or_else(|| run("obs").then(Registry::new));

    // Parent directories (results/ included) are created per write by
    // `write_artifact`, so a nested or freshly wiped output tree works.
    let outdir = Path::new("results");

    // The store directory (and any missing parents) is created by
    // `RunStore::open`; corruption or I/O failure opening it is fatal
    // by the cache's hard-error policy.
    let executor = flags.executor().unwrap_or_else(|e| {
        eprintln!(
            "figures: cannot open run cache at {}: {e}",
            cache_dir.display()
        );
        std::process::exit(1);
    });
    let inputs = PaperInputs::new(quick);

    let emit = |artifact: &Artifact| {
        println!("{}", artifact.text);
        write_artifact(
            outdir.join(format!("{}.txt", artifact.name)),
            artifact.text.as_bytes(),
        );
        if let Some(csv) = &artifact.csv {
            write_artifact(
                outdir.join(format!("{}.csv", artifact.name)),
                csv.as_bytes(),
            );
        }
    };

    let t0 = Instant::now();

    // Phase 1 — the merged plan: every selected job contributes its
    // canonical requests, the executor elides duplicates (both within and
    // across jobs) and executes the unique frontier at run granularity.
    // Data-dependent tails (fig6's best-T runs) are planned as a second
    // wave once the first is cached. `obs` rides the what-if plan: small,
    // yet it exercises the live, replay, family, and (when cached)
    // disk-hit paths the breakdown reports.
    let jobs: Vec<&paper::Job> = JOBS.iter().filter(|job| run(job.name)).collect();
    let mut names: Vec<&str> = jobs.iter().map(|job| job.name).collect();
    if run("obs") {
        names.push("whatif");
    }
    let merged = paper::plan(&inputs, &names);
    // Metered twin when a registry exists, identical null-sink path
    // otherwise — outputs are byte-identical either way.
    let execute = |requests: &[_]| match registry.as_ref() {
        Some(reg) => executor.execute_metered(requests, workers, reg),
        None => executor.execute_metered(requests, workers, &NullMetrics),
    };
    if !merged.is_empty() {
        let tp = Instant::now();
        let summary = execute(&merged);
        eprintln!("[{summary} (merged figure plan, {:?})]", tp.elapsed());
    }
    for job in &jobs {
        if let Some(followup) = job.followup {
            let summary = execute(&followup(&inputs, &executor));
            eprintln!("[{summary} ({} follow-up)]", job.name);
        }
    }

    // Phase 2 — job-granular renders: plan-based artifacts are pure cache
    // traffic; fig1, fig2 and mei compute their own (small) runs.
    for (job, artifacts, elapsed) in parallel_map(workers, &jobs, |job| {
        let _render = registry
            .as_ref()
            .map(|r| Span::start(r, "figures.render_ns"));
        let t = Instant::now();
        let artifacts = (job.render)(&inputs, &executor);
        (job.name, artifacts, t.elapsed())
    }) {
        artifacts.iter().for_each(emit);
        eprintln!("[{job} done in {elapsed:?}]");
    }

    if run("trace") {
        let tt = Instant::now();
        let art = prem_trace::trace_artifacts(&inputs.bicg, 160 * KIB, 8, 11, workers);
        write_artifact(outdir.join("trace_capture.bin"), &art.encoded);
        // One capture+sweep produces all three tables; the summary line
        // below carries the job's cost.
        let emit_table =
            |name, table: &Table, extra: &str| emit(&Artifact::from_table(name, table, extra));
        emit_table("trace_reuse", &art.reuse, "");
        emit_table("trace_heatmap", &art.heatmap, &art.heatmap_extra);
        emit_table("trace_policy_replay", &art.policy_replay, &art.policy_extra);
        eprintln!(
            "[trace done in {:?}: {} events, {} bytes -> results/trace_capture.bin]",
            tt.elapsed(),
            art.trace.events.len(),
            art.encoded.len()
        );
    }
    // The obs artifact renders last so it sees every phase recorded
    // above (merged plan, renders); the snapshot is read-only, so the
    // breakdown can never perturb the artifacts it reports on.
    if run("obs") {
        let t = Instant::now();
        let snap = registry
            .as_ref()
            .expect("obs implies a registry")
            .snapshot();
        emit(&Artifact::from_table(
            "obs",
            &obs_table(&snap),
            &obs_counters(&snap),
        ));
        eprintln!("[obs done in {:?}]", t.elapsed());
    }

    if flags.metrics_enabled() {
        let registry = registry.as_ref().expect("--metrics implies a registry");
        match flags.write_metrics(registry) {
            Ok(path) => eprintln!("[metrics snapshot -> {}]", path.display()),
            Err(e) => {
                eprintln!("figures: cannot write metrics snapshot: {e}");
                std::process::exit(1);
            }
        }
    }

    eprintln!(
        "[all artifacts done in {:?} on {workers} worker(s); cumulative {}]",
        t0.elapsed(),
        executor.summary()
    );
}
