"""The three workloads: measured (untraced) runs that report the
end-to-end metrics, and traced runs that report the per-layer metrics.

Every simulated run starts from empty caches (`run_prem` cold-resets the
platform), and every output is checked: paper artifacts against the
recorded digests, `serve` answers against a direct recomputation.
"""

import json
import os
import random
import re
import shutil
import subprocess
import threading
import time

from pb import digest, proc, stats, sweep

# Requests per serve-sweep session (each session gets a fresh store).
SESSION_REQUESTS = 1200
# Requests per session recomputed through the direct live path.
VERIFY_SAMPLE = 12
# Generous per-process limits; a whole run must still end within 180 s.
FIGURES_TIMEOUT_S = 150
SERVE_TIMEOUT_S = 120
TRACER_TIMEOUT_S = 170

SUMMARY_RE = re.compile(r"cumulative plan: ([^\]]*)\]")


class Ctx:
    """One benchmark run: paths, settings and the failure tally."""

    def __init__(self, root, bins, seed, seconds):
        self.root = root
        self.bins = bins
        self.seed = seed
        self.seconds = seconds
        self.work = os.path.join(root, ".bench_work", "run")
        self.traces = os.path.join(root, ".bench_work", "traces")
        self.env = dict(os.environ, PREM_WORKERS="2")
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def tally(self, attempted, failed_problems, failed=None):
        """Counts `attempted` operations, `failed` of them failed (by
        default: all of them when there are problems)."""
        self.attempted += attempted
        if failed is None:
            failed = attempted if failed_problems else 0
        self.failed += failed
        self.problems.extend(failed_problems)

    def log(self, line):
        print(f"# {line}", flush=True)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def keep_going(started, durations, seconds):
    """Another iteration fits if half a mean iteration is still left."""
    mean = sum(durations) / len(durations)
    return time.perf_counter() - started + 0.5 * mean < seconds


def parse_summary(stderr_text):
    """The cumulative plan summary `figures` prints last, as a dict."""
    found = SUMMARY_RE.findall(stderr_text)
    if not found:
        return {}
    pairs = (kv.split("=", 1) for kv in found[-1].split() if "=" in kv)
    return {k: int(v) for k, v in pairs}


def figures_once(ctx, cwd, store, label, extra=()):
    """`figures -- all` in `cwd` against `store`: measurement, plan
    summary and output problems."""
    out, err = os.path.join(cwd, "stdout.txt"), os.path.join(cwd, "stderr.txt")
    m = proc.run([ctx.bins["figures"], "all", *extra, "--cache-dir", store], cwd, ctx.env,
                 FIGURES_TIMEOUT_S, out, err)
    with open(err, errors="replace") as f:
        summary = parse_summary(f.read())
    problems = []
    if m.returncode != 0:
        problems.append(f"{label}: figures exited with {m.returncode}")
    elif not extra:
        problems.extend(f"{label}: {p}" for p in digest.check_dir(os.path.join(cwd, "results")))
    if not summary:
        problems.append(f"{label}: no plan summary")
    return m, summary, problems


def paper_metrics(runs, setups):
    """End-to-end metrics of paper iterations: one request of the
    regeneration is one `figures -- all` invocation, so the latency
    samples are invocation times; the plan's run requests give the rate."""
    walls = [m.wall_s for m, _ in runs]
    p99 = stats.tail(walls, 99)
    return {
        "wall_s": (stats.median(walls), "s"),
        "cpu_s": (stats.median([m.cpu_s for m, _ in runs]), "s"),
        "peak_rss_mib": (stats.median([m.peak_rss_mib for m, _ in runs]), "MiB"),
        "setup_s": (stats.median(setups), "s"),
        "req_per_s": (stats.median([s.get("requested", 0) / m.wall_s for m, s in runs]), "1/s"),
        "latency_p50_ms": (stats.median(walls) * 1e3, "ms"),
        "latency_p99_ms": ((p99 if p99 is not None else max(walls)) * 1e3, "ms"),
    }


def log_samples(ctx, label, values):
    """Sample count, median and quartile spread of one run's samples."""
    spread = stats.quartile_spread(values) if len(values) >= 2 else 0.0
    ctx.log(f"{label}: n={len(values)} median={stats.median(values):.6g} "
            f"quartile spread={spread:.3f}")


def log_iteration(ctx, label, m, summary):
    ctx.log(f"{label}: wall={m.wall_s:.3f}s cpu={m.cpu_s:.3f}s rss={m.peak_rss_mib:.1f}MiB "
            f"requested={summary.get('requested')} unique={summary.get('unique')} "
            f"disk-hits={summary.get('disk-hits')}")


def cold_iteration(ctx, i):
    """One paper-cold iteration; returns (setup_s, measured, summary).
    The set-up gives the iteration a fresh, empty workspace and warms the
    binary with one reduced-size `figures -- all quick` into a throwaway
    store, so every timed iteration starts from the same host state."""
    s0 = time.perf_counter()
    d = fresh_dir(os.path.join(ctx.work, "cold"))
    warmup = fresh_dir(os.path.join(d, "warmup"))
    _, _, problems = figures_once(ctx, warmup, os.path.join(warmup, "store"),
                                  f"cold warm-up #{i}", extra=("quick",))
    ctx.tally(1, problems)
    timed = fresh_dir(os.path.join(d, "timed"))
    setup = time.perf_counter() - s0
    m, summary, problems = figures_once(ctx, timed, os.path.join(timed, "store"), f"cold #{i}")
    ctx.tally(1, problems)
    log_iteration(ctx, f"paper-cold #{i}", m, summary)
    return setup, m, summary


def fill_store(ctx):
    """paper-warm set-up: one cold `figures -- all` into a fresh store.
    Returns (setup_s, store)."""
    s0 = time.perf_counter()
    d = fresh_dir(os.path.join(ctx.work, "warm"))
    store = os.path.join(d, "store")
    fill = fresh_dir(os.path.join(d, "fill"))
    m, summary, problems = figures_once(ctx, fill, store, "warm fill")
    ctx.tally(1, problems)
    setup = time.perf_counter() - s0
    ctx.log(f"paper-warm fill: {setup:.3f}s unique={summary.get('unique')}")
    return setup, store


def warm_iteration(ctx, store, i):
    d = fresh_dir(os.path.join(ctx.work, "warm", f"it{i}"))
    m, summary, problems = figures_once(ctx, d, store, f"warm #{i}")
    if summary and summary.get("unique") != 0:
        problems.append(f"warm #{i}: summary reports unique={summary.get('unique')}")
    ctx.tally(1, problems)
    log_iteration(ctx, f"paper-warm #{i}", m, summary)
    return m, summary


def paper_cold(ctx):
    started = time.perf_counter()
    runs, setups = [], []
    while True:
        setup, m, summary = cold_iteration(ctx, len(runs))
        setups.append(setup)
        runs.append((m, summary))
        if not keep_going(started, [r.wall_s for r, _ in runs], ctx.seconds):
            log_samples(ctx, "paper-cold wall_s", [r.wall_s for r, _ in runs])
            return paper_metrics(runs, setups)


def paper_warm(ctx):
    setup, store = fill_store(ctx)
    started = time.perf_counter()
    runs = []
    while True:
        runs.append(warm_iteration(ctx, store, len(runs)))
        if not keep_going(started, [r.wall_s for r, _ in runs], ctx.seconds):
            log_samples(ctx, "paper-warm wall_s", [r.wall_s for r, _ in runs])
            return paper_metrics(runs, [setup])


# ---------------------------------------------------------------- serve

def out_fields(line):
    """`out <tag> k=v ...` -> (tag, {k: v})."""
    parts = line.split()
    return parts[1], dict(p.split("=", 1) for p in parts[2:] if "=" in p)


class SessionResult:
    def __init__(self):
        self.setup_s = 0.0
        self.measured = None
        self.latencies = []
        self.requests = 0
        self.failed_tags = set()
        self.problems = []
        self.snapshot = {}


def prefill(ctx, sess, d, store):
    """Set-up: the prefill half of the universe through `serve` itself."""
    m = proc.run([ctx.bins["serve"], "--cache-dir", store], d, ctx.env, SERVE_TIMEOUT_S,
                 os.path.join(d, "prefill.out"), os.path.join(d, "prefill.err"),
                 stdin_text=sess.prefill_text())
    with open(os.path.join(d, "prefill.out")) as f:
        answered = sum(1 for line in f if line.startswith("out "))
    if m.returncode != 0 or answered != len(sess.prefill):
        return [f"prefill: exit {m.returncode}, {answered}/{len(sess.prefill)} answers"]
    return []


def drive(p, sess, res):
    """The closed loop: one batch of `sweep.BATCH` requests per `flush`,
    the next batch only after every answer of this one arrived."""
    answers = {}
    for batch in sess.batches():
        sent = {}
        for tag, line in batch:
            sent[tag] = time.perf_counter()
            p.stdin.write(f"req {tag} {line}\n".encode())
        p.stdin.write(b"flush\n")
        p.stdin.flush()
        pending = set(sent)
        while pending:
            raw = p.stdout.readline()
            now = time.perf_counter()
            if not raw:
                res.problems.append("serve closed its output mid-session")
                res.failed_tags.update(pending)
                return answers
            line = raw.decode(errors="replace").strip()
            if not line.startswith("out "):
                res.problems.append(f"unexpected serve line: {line[:80]}")
                continue
            tag, _ = out_fields(line)
            if tag in pending:
                pending.discard(tag)
                res.latencies.append(now - sent[tag])
                answers[tag] = line
            else:
                res.failed_tags.add(tag)
                res.problems.append(f"answer for {tag} outside its batch")
    return answers


def finish_session(p, res):
    """`stats`, then EOF: returns the metrics snapshot and flags any
    answer that arrives after the stream ended."""
    p.stdin.write(b"stats\n")
    p.stdin.flush()
    stats_line = p.stdout.readline().decode(errors="replace")
    metrics_line = p.stdout.readline().decode(errors="replace")
    p.stdin.close()
    for raw in p.stdout.read().decode(errors="replace").splitlines():
        if raw.startswith("out "):
            tag, _ = out_fields(raw)
            res.failed_tags.add(tag)
            res.problems.append(f"extra answer for {tag}")
    if not stats_line.startswith("stats ") or not metrics_line.startswith("metrics "):
        res.problems.append("serve did not answer stats")
        return {}
    return json.loads(metrics_line.split(" ", 1)[1])


def verify_sample(ctx, sess, answers, d, rng, res):
    """Recomputes a seeded sample of answers through the direct live
    path and compares the reported fields exactly."""
    lines = dict(tag_line for batch in sess.batches() for tag_line in batch)
    tags = sorted(answers, key=lambda t: int(t[1:]))
    sample = rng.sample(tags, min(VERIFY_SAMPLE, len(tags)))
    path = os.path.join(d, "verify.txt")
    with open(path, "w") as f:
        f.writelines(f"{t} {lines[t]}\n" for t in sample)
    out = subprocess.run([ctx.bins["tracer"], "verify", path], cwd=d, env=ctx.env,
                         capture_output=True, text=True, timeout=SERVE_TIMEOUT_S)
    if out.returncode != 0:
        res.problems.append(f"direct recomputation failed: {out.stderr.strip()[:200]}")
        res.failed_tags.update(sample)
        return
    direct = dict(out_fields(line) for line in out.stdout.splitlines())
    for tag in sample:
        if direct.get(tag) != out_fields(answers[tag])[1]:
            res.failed_tags.add(tag)
            res.problems.append(f"{tag}: serve answer differs from direct recomputation")


def check_consistency(sess, answers, res):
    """Every answer for one request line must carry the same fields."""
    by_line = {}
    for batch in sess.batches():
        for tag, line in batch:
            if tag in answers:
                by_line.setdefault(line, []).append(tag)
    for tags in by_line.values():
        first = out_fields(answers[tags[0]])[1]
        for tag in tags[1:]:
            if out_fields(answers[tag])[1] != first:
                res.failed_tags.add(tag)
                res.problems.append(f"{tag}: answer differs from {tags[0]} for the same request")


def timed_copy(src, dst):
    t0 = time.perf_counter()
    shutil.copytree(src, dst)
    return time.perf_counter() - t0


def spawn_serve(ctx, d, store):
    err = open(os.path.join(d, "serve.err"), "wb")
    p = subprocess.Popen([ctx.bins["serve"], "--cache-dir", store], cwd=d, env=ctx.env,
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)
    err.close()
    return p


def serve_session(ctx, k, keep_prefill=False):
    """One serve-sweep session on a fresh, half-prefilled store; with
    `keep_prefill` the prefilled store is also copied to `prefilled/`
    (outside the timed set-up) for the traced re-enactment."""
    res = SessionResult()
    s0 = time.perf_counter()
    sess = sweep.generate(ctx.seed, k, SESSION_REQUESTS)
    d = fresh_dir(os.path.join(ctx.work, "serve"))
    store = os.path.join(d, "store")
    res.problems.extend(prefill(ctx, sess, d, store))
    res.requests = len(sess.requests)
    if res.problems:
        ctx.tally(res.requests, res.problems)
        return res, sess, d
    if keep_prefill:
        s0 += timed_copy(store, os.path.join(d, "prefilled"))
    p = spawn_serve(ctx, d, store)
    res.setup_s = time.perf_counter() - s0

    watchdog = threading.Timer(SERVE_TIMEOUT_S, p.kill)
    watchdog.start()
    started = time.perf_counter()
    try:
        answers = drive(p, sess, res)
        res.snapshot = finish_session(p, res)
    except BrokenPipeError:
        res.problems.append("serve stopped reading its input")
        answers = {}
    finally:
        try:
            p.stdin.close()
        except BrokenPipeError:
            pass
        res.measured = proc.reap(p, started, SERVE_TIMEOUT_S)
        watchdog.cancel()
    if res.measured.returncode != 0:
        res.problems.append(f"serve exited with {res.measured.returncode}")
    missing = {tag for batch in sess.batches() for tag, _ in batch} - set(answers)
    res.failed_tags.update(missing)

    rng = random.Random(f"serve-verify:{ctx.seed}:{k}")
    verify_sample(ctx, sess, answers, d, rng, res)
    check_consistency(sess, answers, res)
    failed = res.requests if res.measured.returncode != 0 else len(res.failed_tags)
    ctx.tally(res.requests, res.problems, failed)
    log_session(ctx, k, sess, res)
    return res, sess, d


def request_shares(snapshot):
    """Shares of requests that were disk hits, memory hits (including
    duplicates elided within a tick), fresh live runs and replays."""
    c = snapshot.get("counters", {})
    n = max(1, c.get("plan.requested", 0))
    return {
        "disk": c.get("plan.disk_hits", 0) / n,
        "memory": (c.get("plan.memory_hits", 0) + c.get("plan.elided", 0)) / n,
        "live": c.get("plan.live_runs", 0) / n,
        "replayed": c.get("plan.replayed", 0) / n,
    }


def log_session(ctx, k, sess, res):
    m = res.measured
    shares = request_shares(res.snapshot)
    ctx.log(f"serve-sweep session {k}: {res.requests} requests ({sess.writes} writes), "
            f"wall={m.wall_s:.3f}s cpu={m.cpu_s:.3f}s rss={m.peak_rss_mib:.1f}MiB "
            f"setup={res.setup_s:.3f}s failed={len(res.failed_tags)}")
    ctx.log("serve-sweep shares: " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))


def serve_sweep(ctx):
    started = time.perf_counter()
    sessions = []
    while True:
        res, _, _ = serve_session(ctx, len(sessions))
        if res.measured is None:
            break
        sessions.append(res)
        if not keep_going(started, [s.measured.wall_s for s in sessions], ctx.seconds):
            break
    lat = [x for s in sessions for x in s.latencies]
    if not lat:
        return None
    # The tail is taken per session, where it has 12 samples beyond it,
    # and the run reports the median session: one session stalled by the
    # host's disk then moves the tail no more than the median.
    p99s = [stats.tail(s.latencies, 99) for s in sessions]
    walls = [s.measured.wall_s for s in sessions]
    log_samples(ctx, "serve-sweep session wall_s", walls)
    log_samples(ctx, "serve-sweep latency_s", lat)
    ctx.log(f"serve-sweep p99 needs {stats.min_samples_for(99)} latency samples per session")
    if None in p99s:
        ctx.tally(0, ["too few latency samples for p99"])
        return None
    log_samples(ctx, "serve-sweep session p99_s", p99s)
    return {
        "wall_s": (stats.median(walls), "s"),
        "cpu_s": (stats.median([s.measured.cpu_s for s in sessions]), "s"),
        "peak_rss_mib": (stats.median([s.measured.peak_rss_mib for s in sessions]), "MiB"),
        "setup_s": (stats.median([s.setup_s for s in sessions]), "s"),
        "req_per_s": (stats.median([s.requests / s.measured.wall_s for s in sessions]), "1/s"),
        "latency_p50_ms": (stats.median(lat) * 1e3, "ms"),
        "latency_p99_ms": (stats.median(p99s) * 1e3, "ms"),
    }


MEASURED = {"paper-cold": paper_cold, "paper-warm": paper_warm, "serve-sweep": serve_sweep}


# --------------------------------------------------------------- traced

def run_tracer(ctx, args, trace_out, label):
    """The traced re-enactment; returns its trace document or None."""
    d = os.path.dirname(trace_out)
    out = subprocess.run([ctx.bins["tracer"], *args, "--trace-out", trace_out], cwd=d,
                         env=ctx.env, capture_output=True, text=True, timeout=TRACER_TIMEOUT_S)
    if out.returncode != 0:
        ctx.tally(1, [f"{label}: tracer failed: {out.stderr.strip()[:300]}"])
        return None
    with open(trace_out) as f:
        return json.load(f)


def traced_paper(ctx, workload):
    d = fresh_dir(os.path.join(ctx.work, "traced"))
    if workload == "paper-cold":
        _, untraced, _ = cold_iteration(ctx, 0)
        store = fresh_dir(os.path.join(d, "store"))
    else:
        _, store = fill_store(ctx)
        untraced, _ = warm_iteration(ctx, store, 0)
    scratch = os.path.join(d, "scratch-store")
    shutil.copytree(store, scratch)
    out_dir = os.path.join(d, "results")
    doc = run_tracer(ctx, ["paper", "--store", store, "--scratch-store", scratch,
                           "--out-dir", out_dir], os.path.join(d, "trace.json"), workload)
    if doc is not None:
        problems = [f"traced {workload}: {p}" for p in digest.check_dir(out_dir)]
        ctx.tally(1, problems)
    return doc, untraced.wall_s


def traced_serve(ctx):
    res, sess, d = serve_session(ctx, 0, keep_prefill=True)
    if res.measured is None:
        return None, 1.0
    store = os.path.join(d, "traced-store")
    scratch = os.path.join(d, "scratch-store")
    shutil.copytree(os.path.join(d, "prefilled"), store)
    shutil.copytree(os.path.join(d, "prefilled"), scratch)
    stream = os.path.join(d, "stream.txt")
    with open(stream, "w") as f:
        f.write(sess.stream_text())
    doc = run_tracer(ctx, ["serve", "--store", store, "--scratch-store", scratch,
                           "--stream", stream], os.path.join(d, "trace.json"), "serve-sweep")
    if doc is not None:
        ctx.tally(1, [])
    return doc, res.measured.wall_s


def traced(ctx, workload):
    """The traced run: per-layer metrics, with the trace written to
    `.bench_work/traces/<workload>.json`."""
    if workload == "serve-sweep":
        doc, untraced_wall = traced_serve(ctx)
    else:
        doc, untraced_wall = traced_paper(ctx, workload)
    if doc is None:
        return None
    overhead = doc["reenact_wall_ns"] / 1e9 / untraced_wall - 1.0
    doc["per_layer"]["obs.overhead_frac"] = overhead
    doc["untraced_wall_ns"] = int(untraced_wall * 1e9)
    os.makedirs(ctx.traces, exist_ok=True)
    path = os.path.join(ctx.traces, f"{workload}.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    ctx.log(f"trace written to {os.path.relpath(path, ctx.root)} "
            f"({len(doc['spans'])} spans, uncovered {doc['per_layer']['obs.uncovered_ns'] / 1e9:.3f}s)")
    return {name: (value, layer_unit(name)) for name, value in doc["per_layer"].items()}


RATIOS = {"plan.hit_ratio", "plan.replay_share", "pool.utilization", "obs.overhead_frac"}


def layer_unit(name):
    if name.endswith("_ns"):
        return "ns"
    if name == "store.bytes_written_per_record":
        return "B"
    return "ratio" if name in RATIOS else "count"


def cleanup(ctx):
    """Removes the run's scratch tree; traces stay for inspection."""
    shutil.rmtree(ctx.work, ignore_errors=True)
