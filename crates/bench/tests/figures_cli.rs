//! CLI regression tests for the `figures` binary's filesystem behavior.
//!
//! The artifact writers used to assume `results/` (and the cache
//! directory) already existed, which broke the first render into a fresh
//! checkout or a relocated `--cache-dir`. Every write now goes through
//! [`prem_harness::write_artifact`] (and `RunStore::open` creates its own
//! tree), so rendering into a *freshly created, nested* output and cache
//! directory must succeed end to end — this test runs the real binary to
//! pin that. A second test pins that `cache gc` keeps every record the
//! plan-rendered artifacts need, the ablations and co-runner sweep
//! included.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn whatif_quick_renders_into_fresh_nested_output_and_cache_dirs() {
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("prem-figures-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    // Only the working directory itself exists; `results/` below it and
    // the deeply nested cache path must be created by the binary.
    std::fs::create_dir_all(&scratch).expect("create scratch cwd");
    let cache_dir = scratch.join("deep/ly/nested/.runcache");

    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .current_dir(&scratch)
        .arg("whatif")
        .arg("quick")
        .arg("--cache-dir")
        .arg(&cache_dir)
        .output()
        .expect("run figures binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "figures failed in a fresh nested tree: {}\n{stderr}",
        out.status
    );

    for name in ["whatif.txt", "whatif.csv"] {
        let path = scratch.join("results").join(name);
        let len = std::fs::metadata(&path)
            .unwrap_or_else(|e| panic!("missing artifact {}: {e}", path.display()))
            .len();
        assert!(len > 0, "empty artifact {}", path.display());
    }
    assert!(
        cache_dir.is_dir(),
        "nested --cache-dir was not created: {}",
        cache_dir.display()
    );
    // The quick what-if plan is one derivation family: the run summary
    // must report replay engagement (the same line CI greps for).
    let plan_line = stderr
        .lines()
        .find(|l| l.contains("plan: requested="))
        .unwrap_or_else(|| panic!("no plan summary in stderr:\n{stderr}"));
    assert!(
        !plan_line.contains("replayed=0"),
        "quick what-if plan reported no replays: {plan_line}"
    );
    std::fs::remove_dir_all(&scratch).ok();
}

/// Runs the `figures` binary in `cwd` with `args`, asserting success,
/// and returns the first line of its output containing `marker`.
fn figures_line(cwd: &std::path::Path, args: &[&str], marker: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("run figures binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "figures {args:?} failed: {}\n{stderr}",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .chain(stderr.lines())
        .find(|l| l.contains(marker))
        .unwrap_or_else(|| panic!("no `{marker}` line from figures {args:?}:\n{stderr}"))
        .to_string()
}

#[test]
fn cache_gc_keeps_the_ablation_and_sweep_records() {
    // `cache gc` keeps exactly the keys the artifact set can request. The
    // ablations and the co-runner sweep render from the plan, so their
    // records are live: a gc right after `all quick` removes nothing, and
    // re-rendering them afterwards is pure disk traffic.
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("prem-figures-gc-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).expect("create scratch cwd");
    let cache = scratch.join("store");
    let cache = cache.to_str().expect("utf-8 temp path");

    figures_line(
        &scratch,
        &["all", "quick", "--cache-dir", cache],
        "cumulative plan:",
    );
    let gc = figures_line(&scratch, &["cache", "gc", "--cache-dir", cache], "gc:");
    assert!(gc.contains(", removed 0,"), "gc evicted live records: {gc}");
    let warm = figures_line(
        &scratch,
        &["ablation", "interference", "quick", "--cache-dir", cache],
        "cumulative plan:",
    );
    assert!(
        warm.contains(" unique=0 "),
        "records missing after gc: {warm}"
    );
    assert!(
        !warm.contains(" disk-hits=0 "),
        "nothing served from disk: {warm}"
    );
    std::fs::remove_dir_all(&scratch).ok();
}
