//! End-to-end benchmark of the WebSSARI pipeline.
//!
//! ```text
//! pipebench --workload <corpus-batch|fig10-patch|serve-mixed> --seed N \
//!           --seconds S --trace <0|1> --webssari PATH [--work-dir DIR]
//! ```
//!
//! Every workload runs the same three phases — open-loop traffic against
//! a `webssari serve` daemon, batch verification through `Engine::run`,
//! and the Figure 10 verify → `instrument_bmc` → re-verify round — so
//! every metric is measured on every workload; the workload decides which
//! projects the daemon serves and the batch phase verifies, and where the
//! rest of the run's time goes. See README.md.
//! The last line of stdout is one JSON object with the verdict and
//! the metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).

mod batch;
mod http;
mod layers;
mod mirror;
mod mix;
mod rng;
mod rss;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use corpus::{Corpus, CorpusScale, GeneratedProject};

use batch::{Expect, Oracle, Work};
use layers::Metrics;
use rng::permutation;
use serve::Daemon;

/// A project set.
#[derive(Clone, Copy, PartialEq)]
enum ProjectSet {
    /// §5: all 230 projects at paper scale.
    Corpus,
    /// Figure 10: the 38 acknowledged projects. The batch phase verifies
    /// their Figure 10 calibration; the daemon serves their paper-scale
    /// files from the corpus, which has enough of them to keep every
    /// cold request first-time.
    Fig10,
}

/// How one workload spends its run. Shares are of `--seconds`; batch
/// passes and patch rounds repeat, interleaved, until each has had its
/// share and its minimum count.
struct Workload {
    name: &'static str,
    /// The projects whose files the daemon serves.
    serve: ProjectSet,
    /// The projects the batch phase verifies.
    batch: ProjectSet,
    batch_share: f64,
    min_batch_passes: usize,
    patch_share: f64,
    min_rounds: usize,
    /// One ladder probe's window (traced runs only).
    probe_share: f64,
}

/// The reference-rate serving window, the same on every workload: at
/// `--seconds 20` it is 16 s, about 1,300 cold requests.
const SERVE_SHARE: f64 = 0.8;
/// Chunks the end-to-end run cuts the serving window into.
const SERVE_CHUNKS: usize = 4;

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "corpus-batch",
        serve: ProjectSet::Corpus,
        batch: ProjectSet::Corpus,
        batch_share: 0.6,
        min_batch_passes: 2,
        patch_share: 0.3,
        min_rounds: 3,
        probe_share: 0.04,
    },
    Workload {
        name: "fig10-patch",
        serve: ProjectSet::Fig10,
        batch: ProjectSet::Fig10,
        batch_share: 0.3,
        min_batch_passes: 3,
        patch_share: 0.6,
        min_rounds: 5,
        probe_share: 0.04,
    },
    Workload {
        name: "serve-mixed",
        serve: ProjectSet::Corpus,
        batch: ProjectSet::Fig10,
        batch_share: 0.3,
        min_batch_passes: 3,
        patch_share: 0.2,
        min_rounds: 5,
        probe_share: 0.06,
    },
];

/// Daemon starts timed for `setup_s`, which reports their median.
const SETUP_TRIALS: usize = 21;

/// Expected work counts and fingerprints per workload, recorded with
/// `--record` and checked on every run.
const EXPECTED: &str = include_str!("../expected.json");

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    webssari: PathBuf,
    work_dir: PathBuf,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut webssari, mut work_dir, mut record) = (None, PathBuf::from(".bench_work"), false);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value()? == "1"),
            "--webssari" => webssari = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--record" => record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        webssari: webssari.ok_or("--webssari is required")?,
        work_dir,
        record,
    })
}

/// Inputs, generated from the seed before anything is measured.
struct Inputs {
    batch: Vec<GeneratedProject>,
    expect: &'static Expect,
    fig10: Vec<GeneratedProject>,
    batch_order: Vec<usize>,
    fig10_order: Vec<usize>,
    pool: mix::Pool,
}

fn inputs(w: &Workload, seed: u64) -> Inputs {
    let corpus = Corpus::sourceforge_230(CorpusScale::Full).projects;
    let fig10 = Corpus::figure10().projects;
    let served: Vec<&GeneratedProject> = corpus
        .iter()
        .filter(|p| w.serve == ProjectSet::Corpus || fig10.iter().any(|f| f.name == p.name))
        .collect();
    let pool = mix::Pool::new(&served, 0);
    let (batch, expect) = match w.batch {
        ProjectSet::Corpus => (corpus, &batch::CORPUS),
        ProjectSet::Fig10 => (fig10.clone(), &batch::FIG10),
    };
    Inputs {
        batch_order: permutation(batch.len(), seed, 1),
        fig10_order: permutation(fig10.len(), seed, 4),
        batch,
        expect,
        fig10,
        pool,
    }
}

/// The recorded `work.*` counts and fingerprint for this workload.
fn expected_work(workload: &str) -> Option<Vec<(String, u64)>> {
    let v = jsonio::parse(EXPECTED)?;
    match v.get(workload)? {
        jsonio::Value::Obj(pairs) => pairs
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect(),
        _ => None,
    }
}

fn work_lines(work: &Work, fingerprint: u64) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = work
        .counts
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    out.push(("work.fingerprint".to_owned(), fingerprint));
    out
}

/// Checks this run's work counts against the recorded ones.
fn check_work(o: &mut Oracle, args: &Args, got: &[(String, u64)]) {
    if args.record {
        let body: Vec<String> = got
            .iter()
            .map(|(k, v)| format!("    \"{k}\": {v}"))
            .collect();
        eprintln!("\"{}\": {{\n{}\n}}", args.workload.name, body.join(",\n"));
        return;
    }
    let want = expected_work(args.workload.name);
    o.check(want.as_deref() == Some(got), 0, || {
        format!("work counts/fingerprint {got:?} differ from the recorded {want:?}")
    });
}

/// One repeated part of a run.
struct Part<'a> {
    /// Its share of `--seconds`.
    share: f64,
    /// How many times it must run, and may run.
    min: usize,
    max: usize,
    /// Runs made before interleaving, and the seconds they took.
    done: usize,
    spent: f64,
    run: Box<dyn FnMut() + 'a>,
}

/// Runs the parts interleaved until each has had its share of the run
/// (counting the runs made before) and its minimum count, or its
/// maximum. The part furthest behind its share runs next, so a slow
/// stretch of the host lands on some samples of each rather than on
/// every sample of one.
fn interleave(seconds: f64, parts: &mut [Part]) {
    let before = Duration::from_secs_f64(parts.iter().map(|p| p.spent).sum());
    let budget = secs(parts.iter().map(|p| p.share).sum(), seconds).saturating_sub(before);
    let started = Instant::now();
    loop {
        let over = started.elapsed() >= budget;
        let next = parts
            .iter_mut()
            .filter(|p| p.done < p.max && (p.done < p.min || !over))
            .min_by(|a, b| (a.spent / a.share).total_cmp(&(b.spent / b.share)));
        let Some(part) = next else { return };
        let t = Instant::now();
        (part.run)();
        part.spent += t.elapsed().as_secs_f64();
        part.done += 1;
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

fn secs(share: f64, seconds: f64) -> Duration {
    Duration::from_secs_f64(share * seconds)
}

/// The end-to-end run (tracing off).
fn run_end_to_end(args: &Args, inp: &Inputs, o: &mut Oracle) -> Result<Metrics, String> {
    let w = args.workload;
    let jobs = workers();
    let batch_pass = || {
        let dir = batch::fresh_dir(&args.work_dir, "batch");
        let pass = batch::batch_pass(&inp.batch, &inp.batch_order, inp.expect, jobs, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        pass
    };
    let patch_round = || batch::patch_round(&inp.fig10, &inp.fig10_order, jobs);

    // Memory first, on a process that has only generated its inputs: the
    // first batch pass and patch round.
    let base_rss = rss::current_mb();
    let sampler = rss::PeakSampler::start();
    let t = Instant::now();
    let mut passes = vec![batch_pass()];
    let first_pass_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut rounds = vec![patch_round()];
    let first_round_s = t.elapsed().as_secs_f64();
    let in_process_mb = sampler.finish() - base_rss;

    // Then the reference-rate window, cut into chunks that interleave
    // with the remaining passes and rounds on one daemon.
    let d = mix::start(&args.webssari, &args.work_dir, "serve", &inp.pool, jobs)?;
    let chunk = secs(SERVE_SHARE, args.seconds) / SERVE_CHUNKS as u32;
    let mut windows: Vec<mix::Window> = Vec::new();
    let mut cold_from = 0;
    interleave(
        args.seconds,
        &mut [
            Part {
                share: w.batch_share,
                min: w.min_batch_passes,
                max: usize::MAX,
                done: 1,
                spent: first_pass_s,
                run: Box::new(|| passes.push(batch_pass())),
            },
            Part {
                share: w.patch_share,
                min: w.min_rounds,
                max: usize::MAX,
                done: 1,
                spent: first_round_s,
                run: Box::new(|| rounds.push(patch_round())),
            },
            Part {
                share: SERVE_SHARE,
                min: SERVE_CHUNKS,
                max: SERVE_CHUNKS,
                done: 0,
                spent: 0.0,
                run: Box::new(|| {
                    let seed = mix::sub_seed(args.seed, 300 + windows.len() as u64);
                    let rate = mix::REFERENCE_RPS;
                    let win = mix::measure(
                        &d,
                        &inp.pool,
                        seed,
                        rate,
                        chunk,
                        jobs,
                        cold_from,
                        &mut || {},
                    );
                    cold_from += win.cold_scheduled();
                    windows.push(win);
                }),
            },
        ],
    );
    d.stop()?;
    // Set-up trials on the cache the reference daemon flushed.
    let mut ready = Vec::new();
    for _ in 0..SETUP_TRIALS {
        let d = Daemon::spawn(&args.webssari, &args.work_dir.join("serve"), jobs)?;
        ready.push(d.ready.as_secs_f64());
        d.stop()?;
    }
    for win in &windows {
        mix::check_answers(o, &inp.pool, win);
    }

    let mut work = passes[0].work.clone();
    work.add("work.guards", rounds[0].guards);
    let fingerprint = batch::fold(passes[0].fingerprint, &rounds[0].fingerprint.to_string());
    check_work(o, args, &work_lines(&work, fingerprint));
    for p in &passes {
        o.check(
            p.work == passes[0].work && p.fingerprint == passes[0].fingerprint,
            0,
            || "batch passes disagree".to_owned(),
        );
    }
    let (cold, warm): (Vec<f64>, Vec<f64>) = passes
        .iter()
        .map(|p| (p.cold.as_secs_f64(), p.warm.as_secs_f64()))
        .unzip();
    let round_s: Vec<f64> = rounds.iter().map(|r| r.wall.as_secs_f64()).collect();
    let ms = |v: &[f64]| {
        v.iter()
            .map(|x| format!(" {:.0}", x * 1e3))
            .collect::<String>()
    };
    eprintln!(
        "batch passes (ms): cold{}; warm{}; patch rounds (ms):{}",
        ms(&cold),
        ms(&warm),
        ms(&round_s)
    );
    for p in passes {
        o.absorb(p.oracle);
    }
    for r in rounds {
        o.absorb(r.oracle);
    }

    let all =
        |f: &dyn Fn(&mix::Window) -> Vec<f64>| windows.iter().flat_map(f).collect::<Vec<f64>>();
    let cold_lat = all(&|w| w.latencies(Some(false)));
    let warm_lat = all(&|w| w.latencies(Some(true)));
    let chunk_p50: Vec<f64> = windows
        .iter()
        .map(|w| stats::median(&w.latencies(Some(false))).unwrap_or(0.0) * 1e3)
        .collect();
    let cold_tail = mix::tail_in(&cold_lat, 1e3).ok_or("no cold samples")?;
    let warm_tail = mix::tail_in(&warm_lat, 1e6).ok_or("no warm samples")?;
    eprintln!(
        "serve @ {} rps in {} chunks: cold p50 by chunk {chunk_p50:.3?} ms, cold p{} {:.3} ms over {} \
         samples, warm p50 {:.1} us, warm p{} {:.1} us over {} samples; generator late p99 \
         {:.1} us; backlog at chunk ends {}",
        mix::REFERENCE_RPS,
        windows.len(),
        cold_tail.q,
        cold_tail.value,
        cold_tail.samples,
        stats::median(&warm_lat).unwrap_or(0.0) * 1e6,
        warm_tail.q,
        warm_tail.value,
        warm_tail.samples,
        stats::tail(&all(&|w| w.lateness()), 99.0).map_or(0.0, |t| t.value * 1e6),
        windows.iter().map(|w| w.backlog_end()).sum::<usize>(),
    );
    eprintln!("peak rss: {in_process_mb:.1} MiB in process");
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    Ok(vec![
        ("setup_s".into(), med(&ready), "s"),
        ("peak_rss_mb".into(), in_process_mb, "MiB"),
        ("corpus_cold_s".into(), med(&cold), "s"),
        ("corpus_warm_s".into(), med(&warm), "s"),
        ("fig10_round_s".into(), med(&round_s), "s"),
        ("cold_p50_ms".into(), med(&cold_lat) * 1e3, "ms"),
    ])
}

/// The traced run: per-layer numbers.
fn run_traced(args: &Args, inp: &Inputs, o: &mut Oracle) -> Result<Metrics, String> {
    let jobs = workers();
    let mut metrics = Metrics::new();

    // Serving at the reference rate, with /metrics scraped around it on
    // a connection opened before the first scrape.
    let d = mix::start(&args.webssari, &args.work_dir, "serve", &inp.pool, jobs)?;
    let mut scraper = std::net::TcpStream::connect(d.addr).map_err(|e| e.to_string())?;
    let mut residue = Vec::new();
    let mut scrape = |s: &mut std::net::TcpStream| -> String {
        http::exchange_on(s, &mut residue, &http::get_request("/metrics"))
            .map(|r| String::from_utf8_lossy(&r.body).into_owned())
            .unwrap_or_default()
    };
    let before = scrape(&mut scraper);
    let mut queue_max = 0.0f64;
    let window = {
        let mut poll = || queue_max = queue_max.max(layers::queue_depth(&scrape(&mut scraper)));
        mix::measure(
            &d,
            &inp.pool,
            args.seed,
            mix::REFERENCE_RPS,
            secs(SERVE_SHARE, args.seconds),
            jobs,
            0,
            &mut poll,
        )
    };
    let after = scrape(&mut scraper);
    drop(scraper);
    d.stop()?;
    mix::check_answers(o, &inp.pool, &window);
    let (max_rps, probes) = mix::climb(
        &args.webssari,
        &args.work_dir,
        &inp.pool,
        args.seed,
        secs(args.workload.probe_share, args.seconds),
        jobs,
        jobs,
    )?;
    eprintln!("ladder probes (rps, held): {probes:?}");
    metrics.push(("serve.max_rps".into(), max_rps, "1/s"));
    let deltas = layers::scrape_deltas(&before, &after, queue_max);
    let conns = deltas.iter().find(|(n, _, _)| n == "serve.conns_opened");
    o.check(conns.is_some_and(|c| c.1 == jobs as f64), 0, || {
        format!("the daemon saw {conns:?} new connections, not {jobs}")
    });
    metrics.extend(deltas);
    let late = stats::tail(&window.lateness(), 99.0).ok_or("no samples")?;
    let cold = mix::tail_in(&window.latencies(Some(false)), 1e3).ok_or("no cold samples")?;
    let warm_lat = window.latencies(Some(true));
    let warm = mix::tail_in(&warm_lat, 1e6).ok_or("no warm samples")?;
    let warm_p50 = stats::median(&warm_lat).unwrap_or(0.0);
    metrics.extend([
        ("serve.gen_late_p99_us".into(), late.value * 1e6, "us"),
        (
            "serve.backlog_end".into(),
            window.backlog_end() as f64,
            "count",
        ),
        ("serve.peak_rss_mb".into(), window.peak_rss_mb, "MiB"),
        ("serve.cold_p99_ms".into(), cold.value, "ms"),
        ("serve.cold_samples".into(), cold.samples as f64, "count"),
        ("serve.cold_tail_q".into(), cold.q, "pct"),
        ("serve.warm_p50_us".into(), warm_p50 * 1e6, "us"),
        ("serve.warm_p99_us".into(), warm.value, "us"),
        ("serve.warm_samples".into(), warm.samples as f64, "count"),
        ("serve.warm_tail_q".into(), warm.q, "pct"),
    ]);

    let dir = batch::fresh_dir(&args.work_dir, "engine");
    let engine = layers::engine_layer(&inp.batch, &inp.batch_order, jobs, &dir, o);
    let _ = std::fs::remove_dir_all(&dir);
    metrics.extend(engine.metrics);

    let m = layers::mirror_layer(
        (&inp.batch, &inp.batch_order),
        (&inp.fig10, &inp.fig10_order),
        jobs,
    )?;
    let fingerprint = batch::fold(engine.fingerprint, &m.patch_fingerprint.to_string());
    let mut engine_work = engine.work.clone();
    engine_work.add(
        "work.guards",
        *m.work.counts.get("work.guards").unwrap_or(&0),
    );
    o.check(engine_work == m.work, 0, || {
        format!(
            "mirror work {:?} differs from the engine's {:?}",
            m.work, engine_work
        )
    });
    let lines = work_lines(&m.work, fingerprint);
    check_work(o, args, &lines);
    metrics.extend(m.metrics);
    // Fingerprints are reported in 52 bits so the JSON number is exact.
    metrics.extend(lines.iter().map(|(k, v)| {
        let v = if k == "work.fingerprint" { v >> 12 } else { *v };
        (k.clone(), v as f64, "count")
    }));

    let trace_path = args
        .work_dir
        .join(format!("spans-{}-{}.jsonl", args.workload.name, args.seed));
    std::fs::write(&trace_path, trace::to_json_lines(&m.spans)).map_err(|e| e.to_string())?;
    eprintln!("spans written to {}", trace_path.display());
    Ok(metrics)
}

fn result_line(o: &Oracle, metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failed == 0,
        o.attempted.max(1),
        o.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new(&args.webssari).is_file() {
        eprintln!(
            "pipebench: no webssari binary at {}",
            args.webssari.display()
        );
        return ExitCode::from(2);
    }
    let started = Instant::now();
    let inp = inputs(args.workload, args.seed);
    eprintln!(
        "inputs generated in {:.2?}; serving {} files, {} hot",
        started.elapsed(),
        inp.pool.names.len(),
        inp.pool.hot.len()
    );
    let mut o = Oracle::default();
    let result = if args.trace {
        run_traced(&args, &inp, &mut o)
    } else {
        run_end_to_end(&args, &inp, &mut o)
    };
    let _ = std::fs::remove_dir_all(args.work_dir.join("serve"));
    let _ = std::fs::remove_dir_all(args.work_dir.join("ladder"));
    let mut metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &o.notes {
        eprintln!("oracle: {note}");
    }
    if args.trace {
        let frac = o.failed as f64 / o.attempted.max(1) as f64;
        metrics.push(("failed_frac".into(), frac, "frac"));
    }
    eprintln!("run took {:.1?}", started.elapsed());
    println!("{}", result_line(&o, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_meets_minimums_and_caps() {
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        let part = |share, min, max, done, run| Part {
            share,
            min,
            max,
            done,
            spent: 0.0,
            run,
        };
        // No time budget: each part runs until its minimum, the capped
        // one until its maximum, and none beyond.
        interleave(
            0.0,
            &mut [
                part(0.5, 3, usize::MAX, 1, Box::new(|| a.push(()))),
                part(0.2, 2, usize::MAX, 0, Box::new(|| b.push(()))),
                part(0.8, 4, 4, 0, Box::new(|| c.push(()))),
            ],
        );
        assert_eq!((a.len(), b.len(), c.len()), (2, 2, 4));
    }
}
