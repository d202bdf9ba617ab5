//! The traced run: per-layer numbers for every crate, attributed by
//! spans the benchmark records around calls into each crate's public
//! functions, plus engine and daemon counters.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use corpus::GeneratedProject;
use php_front::SourceSet;
use webssari_core::{instrument_bmc, FileReport, FileSummary};
use webssari_engine::Engine;

use crate::batch::{fingerprint, fold, patch_project, Oracle, Work};
use crate::mirror::{drift, real_project, StageMirror, Verdict, Verdicts};
use crate::stats;
use crate::trace::{self, Span, Tracer};

/// Per-layer metrics as `(name, value, unit)`.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Engine-layer numbers from `into_handle` → `run` → `flush_cache`
/// per project, the same three steps `Engine::run` takes.
pub struct EngineLayer {
    pub metrics: Metrics,
    pub work: Work,
    pub fingerprint: u64,
}

pub fn engine_layer(
    projects: &[GeneratedProject],
    order: &[usize],
    workers: usize,
    dir: &Path,
    o: &mut Oracle,
) -> EngineLayer {
    let (mut load, mut flush) = (0.0, 0.0);
    let (mut busy, mut wall) = (0.0, 0.0);
    let mut waits = Vec::new();
    let (mut hits, mut warm_files) = (0usize, 0usize);
    let mut work = Work::default();
    let mut cold: Vec<Vec<FileSummary>> = vec![Vec::new(); projects.len()];
    for warm in [false, true] {
        for &i in order {
            let t = Instant::now();
            let handle = Engine::builder()
                .workers(workers)
                .cache_dir(dir.join(format!("p{i:03}")))
                .build()
                .into_handle();
            load += t.elapsed().as_secs_f64();
            let report = handle.run(&projects[i].sources);
            let t = Instant::now();
            let flushed = handle.flush_cache();
            flush += t.elapsed().as_secs_f64();
            o.check(
                flushed.is_ok() && report.failed_files.is_empty(),
                report.files.len() as u64,
                || format!("{}: engine run or cache flush failed", projects[i].name),
            );
            let m = &report.metrics;
            if warm {
                hits += m.cache_hits;
                warm_files += m.files.len();
                let summaries: Vec<FileSummary> =
                    report.files.into_iter().map(|f| f.summary).collect();
                o.check(summaries == cold[i], 0, || {
                    format!("{}: warm differs", projects[i].name)
                });
            } else {
                busy += m
                    .files
                    .iter()
                    .map(|f| f.duration.as_secs_f64())
                    .sum::<f64>();
                wall += m.wall_time.as_secs_f64();
                waits.extend(m.files.iter().map(|f| f.queue_wait.as_secs_f64()));
                for f in &report.files {
                    if let Some(r) = &f.report {
                        work.add_report(r);
                    }
                }
                cold[i] = report.files.into_iter().map(|f| f.summary).collect();
            }
        }
    }
    let p99 = stats::tail(&waits, 99.0).expect("every project has files");
    EngineLayer {
        metrics: vec![
            ("engine.busy_s".into(), busy, "s"),
            (
                "engine.worker_util".into(),
                busy / (wall * workers as f64),
                "frac",
            ),
            ("engine.queue_wait_p99_ms".into(), p99.value * 1e3, "ms"),
            ("engine.queue_wait_q".into(), p99.q, "pct"),
            (
                "engine.hit_ratio".into(),
                hits as f64 / warm_files.max(1) as f64,
                "frac",
            ),
            ("engine.cache_load_s".into(), load, "s"),
            ("engine.cache_flush_s".into(), flush, "s"),
        ],
        work,
        fingerprint: fingerprint(projects, &cold),
    }
}

/// One project's pass through the mirror (or the real pipeline),
/// boiled down to what the guard compares and the counts it feeds.
#[derive(Default)]
struct ProjectRun {
    index: usize,
    verdicts: Verdicts,
    patched: Vec<(String, String)>,
    work: Work,
    discharged: u64,
    assertions: u64,
    seconds: f64,
}

/// What a pass runs: the stage mirror with spans, the same mirror
/// without them, or the real verifier.
#[derive(Clone, Copy, PartialEq)]
enum Pipeline {
    Traced,
    Untraced,
    Real,
}

fn verify(
    pipeline: Pipeline,
    m: &StageMirror,
    t: &mut Tracer,
    s: &SourceSet,
) -> Vec<(String, Option<FileReport>)> {
    match pipeline {
        Pipeline::Real => real_project(s),
        _ => m.verify_project(t, s),
    }
}

fn verdicts(reports: &[(String, Option<FileReport>)], prefix: &str) -> Verdicts {
    reports
        .iter()
        .map(|(n, r)| (format!("{prefix}{n}"), r.as_ref().map(Verdict::of)))
        .collect()
}

fn run_project(
    pipeline: Pipeline,
    m: &StageMirror,
    t: &mut Tracer,
    p: &GeneratedProject,
    patch: bool,
) -> ProjectRun {
    let reports = verify(pipeline, m, t, &p.sources);
    let mut run = ProjectRun {
        verdicts: verdicts(&reports, ""),
        ..ProjectRun::default()
    };
    for r in reports.iter().filter_map(|(_, r)| r.as_ref()) {
        run.work.add_report(r);
        run.discharged += r.bmc.stats.assertions_discharged;
        run.assertions += r.bmc.checked_assertions as u64;
    }
    if patch {
        let (set, names, guards) = patch_project(&p.sources, &reports, |src, r| {
            t.span("core.instrument", |_| {
                let (text, g) = instrument_bmc(src, r);
                (text, g.len())
            })
        });
        drop(reports);
        run.work.add("work.guards", guards as u64);
        run.patched = names
            .iter()
            .map(|n| (n.clone(), set.file(n).unwrap_or("").to_owned()))
            .collect();
        let again = verify(pipeline, m, t, &set);
        run.verdicts.extend(verdicts(&again, "patched:"));
    }
    run
}

/// Runs every project of `order` on `threads` threads.
fn run_all(
    pipeline: Pipeline,
    projects: &[GeneratedProject],
    order: &[usize],
    patch: bool,
    threads: usize,
) -> (f64, Vec<Span>, Vec<ProjectRun>) {
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let mirror = StageMirror::new();
    let per_thread: Vec<(Vec<Span>, Vec<ProjectRun>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut t = Tracer::new(pipeline == Pipeline::Traced, epoch);
                    let mut runs = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = order.get(k) else { break };
                        t.set_id(i as u64);
                        let started = Instant::now();
                        let mut run = t.span("project", |t| {
                            run_project(pipeline, &mirror, t, &projects[i], patch)
                        });
                        run.seconds = started.elapsed().as_secs_f64();
                        run.index = i;
                        runs.push(run);
                    }
                    (t.into_spans(), runs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trace worker panicked"))
            .collect()
    });
    let wall = epoch.elapsed().as_secs_f64();
    let mut spans = Vec::new();
    let mut runs = Vec::new();
    for (s, r) in per_thread {
        trace::append(&mut spans, s);
        runs.extend(r);
    }
    runs.sort_by_key(|r| r.index);
    (wall, spans, runs)
}

/// Leaf stages the mirror calls; everything else is glue.
const STAGES: [&str; 12] = [
    "php-front.parse",
    "ir.filter",
    "ir.ai",
    "typestate.analyze",
    "analysis.screen",
    "bmc.check",
    "dataflow.summaries",
    "bmc.count_vars",
    "bmc.replay",
    "fixes.plan",
    "core.instrument",
    "engine.store_summary",
];

/// Crates whose self-time shares are published.
const CRATES: [&str; 9] = [
    "php-front",
    "ir",
    "typestate",
    "analysis",
    "dataflow",
    "bmc",
    "fixes",
    "core",
    "engine",
];

pub struct MirrorLayer {
    pub metrics: Metrics,
    pub spans: Vec<Span>,
    pub work: Work,
    pub patch_fingerprint: u64,
}

/// The traced verifier pass: the stage mirror over the batch set
/// (verify only) and over the Figure 10 set (one patch round), run
/// traced, untraced, and through the real pipeline. Any file where
/// mirror and real verifier disagree fails the run.
pub fn mirror_layer(
    batch: (&[GeneratedProject], &[usize]),
    fig10: (&[GeneratedProject], &[usize]),
    threads: usize,
) -> Result<MirrorLayer, String> {
    let mut spans = Vec::new();
    let (mut traced_wall, mut untraced_wall, mut real_seconds) = (0.0, 0.0, 0.0);
    let mut work = Work::default();
    let mut patch_fingerprint = 0;
    let (mut discharged, mut assertions) = (0u64, 0u64);
    for ((projects, order), patch) in [(batch, false), (fig10, true)] {
        let (_, _, real) = run_all(Pipeline::Real, projects, order, patch, threads);
        let (u_wall, _, _) = run_all(Pipeline::Untraced, projects, order, patch, threads);
        let (t_wall, s, mirrored) = run_all(Pipeline::Traced, projects, order, patch, threads);
        real_seconds += real.iter().map(|r| r.seconds).sum::<f64>();
        traced_wall += t_wall;
        untraced_wall += u_wall;
        trace::append(&mut spans, s);
        for (m, r) in mirrored.iter().zip(&real) {
            let name = &projects[m.index].name;
            let drifted = drift(&m.verdicts, &r.verdicts);
            if !drifted.is_empty() || m.patched != r.patched {
                return Err(format!("mirror drift in {name}: {drifted:?}"));
            }
            discharged += m.discharged;
            assertions += m.assertions;
            for (k, v) in &m.work.counts {
                // The patch round's first verify repeats Figure 10 work
                // already counted when it is the batch set; count only
                // its guards.
                if !patch || *k == "work.guards" {
                    work.add(k, *v);
                }
            }
        }
        if patch {
            let mut by_name: Vec<&ProjectRun> = mirrored.iter().collect();
            by_name.sort_by(|a, b| projects[a.index].name.cmp(&projects[b.index].name));
            for r in by_name {
                patch_fingerprint = fold(patch_fingerprint, &projects[r.index].name);
                for (_, text) in &r.patched {
                    patch_fingerprint = fold(patch_fingerprint, text);
                }
            }
        }
    }
    let self_s = trace::self_seconds(&spans);
    let total_self: f64 = self_s.values().sum();
    let inclusive = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    };
    // Stage self times partition the mirrored work; glue between calls
    // (the `project` and `core.verify_file` self time) is left out.
    let stage_total: f64 = STAGES.iter().filter_map(|n| self_s.get(n)).sum();
    let mut metrics: Metrics = Vec::new();
    for name in STAGES {
        let value = if name == "engine.store_summary" {
            inclusive(name)
        } else {
            self_s.get(name).copied().unwrap_or(0.0)
        };
        metrics.push((format!("{name}_s"), value, "s"));
    }
    metrics.push((
        "analysis.discharged_frac".into(),
        discharged as f64 / assertions.max(1) as f64,
        "frac",
    ));
    for krate in CRATES {
        let own: f64 = self_s
            .iter()
            .filter(|(n, _)| trace::crate_of(n) == krate)
            .map(|(_, v)| v)
            .sum();
        metrics.push((
            format!("share.{krate}"),
            own / total_self.max(1e-12),
            "frac",
        ));
    }
    metrics.push((
        "trace.coverage".into(),
        stage_total / real_seconds.max(1e-12),
        "ratio",
    ));
    metrics.push((
        "trace.overhead_frac".into(),
        traced_wall / untraced_wall.max(1e-12),
        "ratio",
    ));
    Ok(MirrorLayer {
        metrics,
        spans,
        work,
        patch_fingerprint,
    })
}

/// Counter deltas and sampled gauges from the daemon's `/metrics`.
pub fn scrape_deltas(before: &str, after: &str, queue_max: f64) -> Metrics {
    use crate::serve::metric_sum;
    let d = |name: &str| metric_sum(after, name) - metric_sum(before, name);
    vec![
        (
            "serve.engine_verify_s".into(),
            d("webssari_engine_verify_seconds_total"),
            "s",
        ),
        (
            "serve.server_s".into(),
            d("webssari_http_request_duration_seconds_sum"),
            "s",
        ),
        ("serve.queue_depth_max".into(), queue_max, "count"),
        (
            "serve.conns_opened".into(),
            d("webssari_http_connections_total"),
            "count",
        ),
        (
            "serve.shed".into(),
            d("webssari_queue_rejected_total"),
            "count",
        ),
    ]
}

/// Current queue depth (accept queue plus dispatch shards).
pub fn queue_depth(text: &str) -> f64 {
    use crate::serve::metric_sum;
    metric_sum(text, "webssari_queue_depth") + metric_sum(text, "webssari_shard_queue_depth")
}
