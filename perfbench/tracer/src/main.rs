//! `perfbench-tracer`: the benchmark's traced per-layer run, and the
//! direct-path recomputation that checks `serve` outputs.
//!
//! ```text
//! perfbench-tracer paper --store <dir> --scratch-store <dir> --out-dir <dir> --trace-out <file>
//! perfbench-tracer serve --store <dir> --scratch-store <dir> --stream <file> --trace-out <file>
//! perfbench-tracer verify <file>
//! ```
//!
//! `paper` and `serve` re-enact a workload with a span around every
//! layer call, then run the layer passes (see `passes`), and write the
//! spans, per-layer self times and counts, the uncovered time and the
//! program's metrics snapshot as one JSON file. `--scratch-store` is a
//! copy of the workload's starting store that the append pass may
//! modify. `verify` reads `<tag> <request-line>` lines and prints, per
//! line, the summary `serve` would answer, computed by
//! `OwnedRunRequest::from_line` → `resolve` → `request().execute()` with
//! no store, memo or replay.

mod passes;
mod reenact;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use prem_core::RunOutput;
use prem_harness::{OwnedRunRequest, ResolvedRunRequest};
use prem_obs::Snapshot;

use crate::passes::Checks;
use crate::reenact::Reenacted;
use crate::spans::{layer_totals, uncovered_ns, SpanRec, Tracer};

/// Layer spans whose self time is reported as `<name>_ns`.
const SPAN_METRICS: &[&str] = &[
    "memsim.access",
    "gpusim.op",
    "kernels.tiling",
    "core.profile",
    "core.timed",
    "core.capture",
    "core.replay",
    "core.codec",
    "store.get",
    "store.append",
    "wire.parse",
    "serve.submit",
    "serve.tick",
    "report.render",
    "report.direct",
];

fn hist_sum(s: &Snapshot, name: &str) -> f64 {
    s.hist(name).map_or(0.0, |h| h.sum() as f64)
}

fn counter(s: &Snapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric: span self times and work counts, plus the
/// plan, pool, store and serve figures the program's snapshot holds.
fn per_layer(spans: &[SpanRec], total_ns: u64, s: &Snapshot) -> BTreeMap<String, f64> {
    let totals = layer_totals(spans);
    let mut m = BTreeMap::new();
    for &name in SPAN_METRICS {
        let self_ns = totals.get(name).map_or(0, |t| t.0);
        m.insert(format!("{name}_ns"), self_ns as f64);
    }
    let count = |name: &str| totals.get(name).map_or(0, |t| t.2) as f64;
    m.insert("memsim.accesses".into(), count("memsim.access"));
    m.insert("gpusim.ops".into(), count("gpusim.op"));
    m.insert("core.live_runs".into(), counter(s, "plan.live_runs"));
    m.insert("core.replayed_runs".into(), counter(s, "plan.replayed"));
    m.insert(
        "core.profile_passes".into(),
        counter(s, "plan.profile_misses"),
    );

    let unit = hist_sum(s, "plan.unit_ns");
    let pool_wall = hist_sum(s, "plan.pool_wall_ns");
    let workers = s.gauge("plan.pool_workers").unwrap_or(1) as f64;
    // Store appends run inside `execute` after the pool; segment loads
    // nest inside gets and appends, so they are not subtracted again.
    let append = hist_sum(s, "store.append_ns");
    m.insert("plan.expand_ns".into(), hist_sum(s, "plan.expand_ns"));
    m.insert(
        "plan.self_ns".into(),
        (hist_sum(s, "plan.execute_ns") - pool_wall - append).max(0.0),
    );
    let hits =
        counter(s, "plan.memory_hits") + counter(s, "plan.disk_hits") + counter(s, "plan.elided");
    m.insert(
        "plan.hit_ratio".into(),
        ratio(hits, counter(s, "plan.requested")),
    );
    m.insert(
        "plan.replay_share".into(),
        ratio(hist_sum(s, "plan.replay_ns"), unit),
    );
    m.insert("pool.utilization".into(), ratio(unit, pool_wall * workers));
    m.insert("pool.idle_ns".into(), (pool_wall * workers - unit).max(0.0));
    m.insert("store.load_ns".into(), hist_sum(s, "store.load_ns"));
    m.insert(
        "store.lock_wait_ns".into(),
        hist_sum(s, "store.lock_wait_ns"),
    );
    m.insert(
        "store.bytes_written_per_record".into(),
        ratio(
            counter(s, "store.bytes_written"),
            counter(s, "store.appended_records"),
        ),
    );
    m.insert(
        "serve.requests_per_tick".into(),
        ratio(counter(s, "serve.dispatched"), counter(s, "serve.ticks")),
    );
    m.insert(
        "obs.uncovered_ns".into(),
        uncovered_ns(spans, total_ns) as f64,
    );
    m
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn opt(v: Option<impl ToString>) -> String {
    v.map_or_else(|| "null".into(), |v| v.to_string())
}

/// The trace file: per-layer metrics, layer totals, check failures, the
/// program's snapshot and every span as `[name, start, end, parent,
/// request, count]`.
fn trace_json(workload: &str, t: &Tracer, run: &Reenacted<'_>, checks: &Checks) -> String {
    let (spans, total_ns) = t.finish();
    let mut out = String::new();
    let metrics: Vec<String> = per_layer(&spans, total_ns, &run.snapshot)
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let layers: Vec<String> = layer_totals(&spans)
        .iter()
        .map(|(k, (own, n, count))| {
            format!(
                "{}:{{\"self_ns\":{own},\"spans\":{n},\"count\":{count}}}",
                json_str(k)
            )
        })
        .collect();
    let failures: Vec<String> = checks.failures.iter().map(|f| json_str(f)).collect();
    let records: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "[{},{},{},{},{},{}]",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.req),
                s.count
            )
        })
        .collect();
    write!(
        out,
        "{{\"workload\":{},\"reenact_wall_ns\":{},\"total_ns\":{total_ns},\
         \"per_layer\":{{{}}},\"layers\":{{{}}},\"check_failures\":[{}],\
         \"metrics_snapshot\":{},\"spans\":[{}]}}",
        json_str(workload),
        run.wall_ns,
        metrics.join(","),
        layers.join(","),
        failures.join(","),
        run.snapshot.to_json(),
        records.join(",\n")
    )
    .expect("string write");
    out
}

/// `--name value` pairs after the subcommand.
fn flags(args: &[String]) -> io::Result<BTreeMap<&str, PathBuf>> {
    let bad = |m: String| io::Error::new(io::ErrorKind::InvalidInput, m);
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| bad(format!("unexpected `{a}`")))?;
        let value = it
            .next()
            .ok_or_else(|| bad(format!("--{name} needs a value")))?;
        out.insert(name, PathBuf::from(value));
    }
    Ok(out)
}

fn need<'a>(f: &'a BTreeMap<&str, PathBuf>, name: &str) -> io::Result<&'a PathBuf> {
    f.get(name)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, format!("missing --{name}")))
}

/// Runs every layer pass over a re-enacted workload.
fn run_passes(t: &Tracer, run: &Reenacted<'_>, f: &BTreeMap<&str, PathBuf>) -> io::Result<Checks> {
    let mut checks = Checks::default();
    passes::tiling(t, run);
    passes::core(t, run, &mut checks);
    passes::codec(t, run, &mut checks);
    passes::memsim(t, run);
    passes::gpusim(t, run, &mut checks);
    passes::store(
        t,
        run,
        need(f, "store")?,
        need(f, "scratch-store")?,
        &mut checks,
    )?;
    Ok(checks)
}

fn summary_line(output: &RunOutput) -> String {
    match output {
        RunOutput::Prem(run) => format!(
            "kind=prem makespan_cycles={} cpmr={}",
            run.makespan_cycles, run.cpmr
        ),
        RunOutput::Baseline(run) => format!("kind=base cycles={}", run.cycles),
    }
}

fn verify(path: &PathBuf) -> io::Result<()> {
    for line in std::fs::read_to_string(path)?.lines() {
        let (tag, request) = line.split_once(' ').ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("verify line `{line}`"))
        })?;
        let resolved = OwnedRunRequest::from_line(request)?.resolve()?;
        let req = resolved.request();
        let output = req.execute();
        println!(
            "out {tag} fp={:016x} {}",
            req.fingerprint(),
            summary_line(&output)
        );
    }
    Ok(())
}

fn run(args: &[String]) -> io::Result<()> {
    let usage = || {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "usage: perfbench-tracer {paper|serve} --store <dir> --scratch-store <dir> \
             [--out-dir <dir> | --stream <file>] --trace-out <file> | verify <file>",
        )
    };
    let (cmd, rest) = args.split_first().ok_or_else(usage)?;
    if cmd == "verify" {
        return verify(&PathBuf::from(rest.first().ok_or_else(usage)?));
    }
    let f = flags(rest)?;
    let t = Tracer::new();
    let (json, failures) = match cmd.as_str() {
        "paper" => {
            let inputs = reenact::PaperInputs::full_scale();
            let (store, out_dir) = (need(&f, "store")?, need(&f, "out-dir")?);
            let run = t.span("group.workload", None, || {
                reenact::paper(&t, &inputs, store, out_dir)
            })?;
            let checks = run_passes(&t, &run, &f)?;
            (
                trace_json("paper", &t, &run, &checks),
                checks.failures.len(),
            )
        }
        "serve" => {
            let text = std::fs::read_to_string(need(&f, "stream")?)?;
            let session = reenact::parse_session(&text)?;
            let resolved: Vec<ResolvedRunRequest> = session
                .lines
                .iter()
                .map(|(_, l)| OwnedRunRequest::from_line(l)?.resolve())
                .collect::<io::Result<_>>()?;
            let store = need(&f, "store")?;
            let run = t.span("group.workload", None, || {
                reenact::serve(&t, &session, &resolved, store)
            })?;
            let checks = run_passes(&t, &run, &f)?;
            (
                trace_json("serve", &t, &run, &checks),
                checks.failures.len(),
            )
        }
        _ => return Err(usage()),
    };
    std::fs::write(need(&f, "trace-out")?, json)?;
    if failures > 0 {
        return Err(io::Error::other(format!(
            "{failures} layer pass output(s) differ from the program's"
        )));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}
