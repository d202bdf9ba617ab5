//! The serving phase: a seeded mix of warm re-posts of a hot set and
//! first-time corpus files against a fresh daemon, at a fixed reference
//! rate and up a fixed rate ladder.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use corpus::GeneratedProject;
use webssari_core::{FileOutcome, Verifier};

use crate::batch::{fresh_dir, Oracle};
use crate::http;
use crate::rng::{permutation, Rng};
use crate::serve::{backlog_at_end, run_window, schedule, Arrival, Daemon, Sample};
use crate::stats::{self, Tail};

/// Total request rate (per second) at which latencies are reported.
///
/// Chosen so that the reference window measures service time, not
/// queueing. Measured on a 2-vCPU host, a cold request takes about
/// 1.0 ms of an engine lane at the median and a warm one about 42 µs
/// inline. At 400 requests/s one in [`crate::serve::COLD_ONE_IN`] is
/// cold, so each of the 2 lanes gets 40 cold requests/s and is busy
/// ρ ≈ 0.04 of the time; Poisson queueing in front of a lane (M/D/1:
/// ρ / 2(1 − ρ) service times) then adds about 2% to the cold median.
/// Warm answers take about 1.3% of one core. Traced runs on the same
/// host measured `serve.max_rps` at 4,490–7,127 requests/s, so the
/// reference rate is 6–9% of capacity.
pub const REFERENCE_RPS: f64 = 400.0;

/// The fixed rate ladder for `serve_max_rps`: 1000 requests per second
/// doubling every six rungs (about 12% apart) up to 16000.
pub fn ladder() -> Vec<f64> {
    (0..=24)
        .map(|k| (1000.0 * 2f64.powf(f64::from(k) / 6.0)).round())
        .collect()
}

/// A rung holds when the p99 of all its requests stays within this.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// Every file of the served projects as `<project>/<file>`, its
/// source, and its pre-framed `/verify` request.
pub struct Pool {
    pub names: Vec<String>,
    pub sources: Vec<String>,
    pub requests: Vec<Vec<u8>>,
    pub hot: Vec<usize>,
    pub cold: Vec<usize>,
}

/// Files re-posted by warm requests: as many as the mean project has,
/// since a client re-posting files re-posts a checkout. They are drawn
/// across the whole set, so no single project's shape decides them.
pub fn hot_set_size(files: usize, projects: usize) -> usize {
    ((files as f64 / projects.max(1) as f64).round() as usize).clamp(1, files)
}

impl Pool {
    pub fn new(projects: &[&GeneratedProject], seed: u64) -> Pool {
        let mut names = Vec::new();
        let mut sources = Vec::new();
        for p in projects {
            for (file, src) in p.sources.iter() {
                names.push(format!("{}/{file}", p.name));
                sources.push(src.to_owned());
            }
        }
        let requests = names
            .iter()
            .zip(&sources)
            .map(|(n, s)| http::verify_request(n, s))
            .collect();
        let order = permutation(names.len(), seed, 3);
        let (hot, cold) = order.split_at(hot_set_size(names.len(), projects.len()));
        Pool {
            names,
            sources,
            requests,
            hot: hot.to_vec(),
            cold: cold.to_vec(),
        }
    }
}

/// Parsed facts of one `/verify` answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    pub outcome: String,
    pub bmc_groups: u64,
    pub from_cache: bool,
}

pub fn parse_answer(r: &http::Response) -> Option<Answer> {
    if r.status != 200 {
        return None;
    }
    let v = jsonio::parse(std::str::from_utf8(&r.body).ok()?)?;
    Some(Answer {
        outcome: v.get("outcome")?.as_str()?.to_owned(),
        bmc_groups: v.get("bmc_groups")?.as_u64()?,
        from_cache: matches!(v.get("from_cache"), Some(jsonio::Value::Bool(true))),
    })
}

/// One measured window against one daemon.
pub struct Window {
    pub arrivals: Vec<Arrival>,
    pub samples: Vec<Sample>,
    pub window: Duration,
    pub peak_rss_mb: f64,
}

impl Window {
    /// Latencies from due time, in seconds, of the answered requests of
    /// one kind (`Some(warm)`) or of all (`None`).
    pub fn latencies(&self, warm: Option<bool>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| warm.is_none_or(|w| self.arrivals[s.arrival].warm == w))
            .filter_map(|s| Some((s.done? - self.arrivals[s.arrival].due).as_secs_f64()))
            .collect()
    }

    /// How late the generator sent each request, in seconds.
    pub fn lateness(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.response.is_ok())
            .map(|s| (s.sent.saturating_sub(self.arrivals[s.arrival].due)).as_secs_f64())
            .collect()
    }

    /// Cold requests scheduled, answered or not.
    pub fn cold_scheduled(&self) -> usize {
        self.arrivals.iter().filter(|a| !a.warm).count()
    }

    pub fn backlog_end(&self) -> usize {
        backlog_at_end(&self.arrivals, &self.samples, self.window)
    }

    /// Transport-level failures: unanswered or non-200.
    pub fn transport_failures(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| !matches!(&s.response, Ok(r) if r.status == 200))
            .count()
    }
}

/// Posts every hot file once, unmeasured, so warm requests hit.
fn warm_up(d: &Daemon, pool: &Pool) -> Result<(), String> {
    let mut stream = std::net::TcpStream::connect(d.addr).map_err(|e| e.to_string())?;
    let mut residue = Vec::new();
    for &f in &pool.hot {
        let r = http::exchange_on(&mut stream, &mut residue, &pool.requests[f])?;
        if r.status != 200 {
            return Err(format!(
                "warm-up of {} answered {}",
                pool.names[f], r.status
            ));
        }
    }
    Ok(())
}

/// Starts a daemon on a fresh cache dir and warms its hot set.
pub fn start(
    bin: &Path,
    dir: &Path,
    name: &str,
    pool: &Pool,
    jobs: usize,
) -> Result<Daemon, String> {
    let d = Daemon::spawn(bin, &fresh_dir(dir, name), jobs)?;
    warm_up(&d, pool)?;
    Ok(d)
}

/// Drives one seeded window at `rate` against a running daemon; its
/// cold requests take the pool's cold files from `cold_from` on.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    d: &Daemon,
    pool: &Pool,
    seed: u64,
    rate: f64,
    window: Duration,
    conns: usize,
    cold_from: usize,
    poll: &mut dyn FnMut(),
) -> Window {
    let cold = &pool.cold[cold_from.min(pool.cold.len())..];
    let arrivals = schedule(seed, rate, window, &pool.hot, cold, conns);
    let samples = run_window(d.addr, &arrivals, &pool.requests, conns, poll);
    Window {
        arrivals,
        samples,
        window,
        peak_rss_mb: d.peak_rss_mb().unwrap_or(0.0),
    }
}

/// Whether a ladder rung held: no failures, p99 within the limit, and
/// no growing backlog — requests due in the window's last quarter wait
/// no more than twice as long (plus 1 ms) as those due in its first, at
/// the median. A burst stall outside the program moves neither median;
/// a rate beyond capacity makes every later request wait longer.
pub fn rung_holds(w: &Window) -> bool {
    let all = w.latencies(None);
    let within = stats::tail(&all, 99.0).is_some_and(|t| t.value * 1e3 <= LATENCY_LIMIT_MS);
    let quarter = |q: u32| -> f64 {
        let (from, to) = (w.window * q / 4, w.window * (q + 1) / 4);
        let lat: Vec<f64> = w
            .samples
            .iter()
            .filter(|s| (from..to).contains(&w.arrivals[s.arrival].due))
            .filter_map(|s| Some((s.done? - w.arrivals[s.arrival].due).as_secs_f64()))
            .collect();
        stats::median(&lat).unwrap_or(f64::INFINITY)
    };
    let steady = quarter(3) <= 2.0 * quarter(0) + 1e-3;
    w.transport_failures() == 0 && within && steady
}

/// Bisects the fixed ladder for the highest rung that holds, one fresh
/// daemon per probe. Returns the rung and every probe made.
pub fn climb(
    bin: &Path,
    dir: &Path,
    pool: &Pool,
    seed: u64,
    probe: Duration,
    conns: usize,
    jobs: usize,
) -> Result<(f64, Vec<(f64, bool)>), String> {
    let rungs = ladder();
    let (mut lo, mut hi) = (0usize, rungs.len() - 1);
    let mut best = rungs[0];
    let mut probes = Vec::new();
    while lo <= hi {
        let mid = (lo + hi) / 2;
        // A rung that fails gets one more try on a fresh daemon, so one
        // stall outside the program cannot cut the search short.
        let mut held = false;
        for attempt in 0..2 {
            let d = start(bin, dir, "ladder", pool, jobs)?;
            let seed = sub_seed(seed, 100 + (mid * 2 + attempt) as u64);
            let w = measure(&d, pool, seed, rungs[mid], probe, conns, 0, &mut || {});
            d.stop()?;
            held = rung_holds(&w);
            probes.push((rungs[mid], held));
            if held {
                break;
            }
        }
        if held {
            best = rungs[mid];
            lo = mid + 1;
        } else if mid == 0 {
            break;
        } else {
            hi = mid - 1;
        }
    }
    if !probes.iter().any(|p| p.1) {
        eprintln!("warning: not even the lowest ladder rung held");
    }
    Ok((best, probes))
}

/// Checks every answer against a `Verifier::verify_source` oracle for
/// its file, and the cache provenance its kind implies.
pub fn check_answers(o: &mut Oracle, pool: &Pool, w: &Window) {
    let mut oracle: BTreeMap<usize, (String, u64)> = BTreeMap::new();
    let verifier = Verifier::new();
    for s in &w.samples {
        let a = &w.arrivals[s.arrival];
        let want = oracle.entry(a.file).or_insert_with(|| {
            match verifier.verify_source(&pool.sources[a.file], &pool.names[a.file]) {
                Ok(r) => (
                    r.outcome.as_str().to_owned(),
                    r.bmc_instrumentations() as u64,
                ),
                Err(_) => (FileOutcome::ParseError.as_str().to_owned(), 0),
            }
        });
        let got = s.response.as_ref().ok().and_then(parse_answer);
        let ok = got.as_ref().is_some_and(|g| {
            (g.outcome.as_str(), g.bmc_groups) == (want.0.as_str(), want.1)
                && g.from_cache == a.warm
        });
        o.check(ok, 1, || {
            format!(
                "{}: answered {got:?}, oracle {want:?}, warm {}",
                pool.names[a.file], a.warm
            )
        });
    }
}

/// A tail in the unit `scale` converts seconds into.
pub fn tail_in(values: &[f64], scale: f64) -> Option<Tail> {
    stats::tail(values, 99.0).map(|t| Tail {
        value: t.value * scale,
        ..t
    })
}

/// A seeded sub-stream for the schedules of ladder probes (streams from
/// 100) and of serving chunks (from 300).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed, stream).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::{Corpus, CorpusScale};

    #[test]
    fn same_seed_same_pool_split() {
        let projects = Corpus::sourceforge_230(CorpusScale::Small).projects;
        let projects: Vec<&GeneratedProject> = projects.iter().collect();
        let a = Pool::new(&projects, 9);
        let b = Pool::new(&projects, 9);
        assert_eq!((&a.hot, &a.cold), (&b.hot, &b.cold));
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.hot, Pool::new(&projects, 10).hot);
        assert_eq!(a.hot.len() + a.cold.len(), a.names.len());
        assert_eq!(a.hot.len(), hot_set_size(a.names.len(), projects.len()));
        assert!(a.names.iter().all(|n| n.contains('/')));
    }

    #[test]
    fn hot_set_is_one_mean_project() {
        // The paper-scale corpus: 11,848 files over 230 projects.
        assert_eq!(hot_set_size(11_848, 230), 52);
        assert_eq!(hot_set_size(10, 4), 3);
        assert_eq!(hot_set_size(3, 0), 3);
        assert_eq!(hot_set_size(1, 5), 1);
    }

    #[test]
    fn answers_parse_from_verify_json() {
        let body = br#"{"file":"p/a.php","bmc_groups":2,"outcome":"vulnerable","from_cache":true}"#;
        let r = http::Response {
            status: 200,
            body: body.to_vec(),
        };
        let a = parse_answer(&r).unwrap();
        assert_eq!(
            (a.outcome.as_str(), a.bmc_groups, a.from_cache),
            ("vulnerable", 2, true)
        );
        assert_eq!(
            parse_answer(&http::Response {
                status: 429,
                body: body.to_vec()
            }),
            None
        );
    }
}
