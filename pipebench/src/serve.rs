//! The `webssari serve` daemon in its own process, driven open-loop
//! over keep-alive connections from a seeded arrival schedule.

use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http;
use crate::rng::Rng;

/// A running daemon. Dropping it without [`Daemon::stop`] kills it.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn until the first `/healthz` answered 200.
    pub ready: Duration,
    stopped: bool,
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

impl Daemon {
    /// Starts `webssari serve` on a free loopback port with `jobs`
    /// engine workers and HTTP workers, persisting to `cache_dir`.
    pub fn spawn(bin: &Path, cache_dir: &Path, jobs: usize) -> Result<Daemon, String> {
        let started = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            &jobs.to_string(),
        ])
        .arg("--cache-dir")
        .arg(cache_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready: Duration::ZERO,
            stopped: false,
        };
        let mut line = String::new();
        loop {
            line.clear();
            match daemon.stdout.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("daemon exited before listening".to_owned()),
                Ok(_) => {}
            }
            if let Some(addr) = line
                .trim()
                .strip_prefix("webssari serve: listening on http://")
            {
                daemon.addr = addr.parse().map_err(|_| format!("bad banner {line:?}"))?;
                break;
            }
        }
        loop {
            match http::exchange(daemon.addr, &http::get_request("/healthz")) {
                Ok(r) if r.status == 200 => break,
                _ if started.elapsed() > Duration::from_secs(30) => {
                    return Err("daemon never became healthy".to_owned())
                }
                _ => std::thread::sleep(Duration::from_micros(200)),
            }
        }
        daemon.ready = started.elapsed();
        Ok(daemon)
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        crate::rss::status_kib(&status, "VmHWM:").map(|kib| kib / 1024.0)
    }

    /// SIGTERM, then wait for the drain and cache flush; fails unless
    /// the daemon exits cleanly within 20 s.
    pub fn stop(mut self) -> Result<(), String> {
        self.stopped = true;
        let pid = i32::try_from(self.child.id()).map_err(|_| "pid out of range")?;
        // SAFETY: `kill` has no memory-safety preconditions; `pid` is our
        // own child, which has not been reaped yet, so it cannot name an
        // unrelated process.
        unsafe {
            kill(pid, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not drain within 20 s".to_owned());
                }
            }
        };
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}: {rest}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One scheduled request.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// When the request is due, from the start of the window.
    pub due: Duration,
    /// Index into the file pool.
    pub file: usize,
    pub warm: bool,
    pub conn: usize,
}

/// How long before a request is due the generator stops blocking and
/// polls, yielding the core between polls.
const SPIN: Duration = Duration::from_micros(150);

/// One cold request in this many, on average.
pub const COLD_ONE_IN: usize = 5;

/// A seeded open-loop schedule: Poisson arrivals at `rate` per second
/// over `window`, each a warm re-post of a random hot file or, one time
/// in [`COLD_ONE_IN`], the next unseen file of `cold`; connections are
/// taken in turn.
pub fn schedule(
    seed: u64,
    rate: f64,
    window: Duration,
    hot: &[usize],
    cold: &[usize],
    conns: usize,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 2);
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut next_cold = 0;
    loop {
        t += rng.exponential(1.0 / rate);
        if t >= window.as_secs_f64() {
            return out;
        }
        let warm = rng.below(COLD_ONE_IN) != 0 || next_cold == cold.len();
        let file = if warm {
            hot[rng.below(hot.len())]
        } else {
            next_cold += 1;
            cold[next_cold - 1]
        };
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            file,
            warm,
            conn: out.len() % conns,
        });
    }
}

/// A request's fate, with times measured from the window start.
#[derive(Clone, Debug)]
pub struct Sample {
    pub arrival: usize,
    pub sent: Duration,
    pub done: Option<Duration>,
    pub response: Result<http::Response, String>,
}

/// Sends `plan` (indexes into `arrivals`) on one keep-alive connection:
/// each request goes out when due, pipelined behind any still
/// outstanding, and responses are matched in order.
pub fn drive_connection(
    addr: SocketAddr,
    arrivals: &[Arrival],
    plan: &[usize],
    requests: &[Vec<u8>],
    t0: Instant,
) -> Vec<Sample> {
    use std::io::Write;

    let mut samples: Vec<Sample> = Vec::with_capacity(plan.len());
    let fail_all = |samples: &mut Vec<Sample>, from: usize, why: &str| {
        for &a in &plan[from..] {
            samples.push(Sample {
                arrival: a,
                sent: Duration::ZERO,
                done: None,
                response: Err(why.to_owned()),
            });
        }
    };
    let Ok(mut stream) = TcpStream::connect(addr) else {
        fail_all(&mut samples, 0, "connect failed");
        return samples;
    };
    let _ = stream.set_nodelay(true);
    let mut residue = Vec::new();
    let mut next = 0usize;
    let mut answered = 0usize;
    let give_up = arrivals
        .last()
        .map_or(Duration::ZERO, |a| a.due + Duration::from_secs(15));
    while answered < plan.len() {
        let now = t0.elapsed();
        if now > give_up {
            break;
        }
        if next < plan.len() && arrivals[plan[next]].due <= now {
            let a = &arrivals[plan[next]];
            if stream.write_all(&requests[a.file]).is_err() {
                break;
            }
            samples.push(Sample {
                arrival: plan[next],
                sent: t0.elapsed(),
                done: None,
                response: Err("no response".to_owned()),
            });
            next += 1;
            continue;
        }
        // Block until shortly before the next request is due, then poll
        // without blocking: waking from a sleep can take a scheduler
        // tick, which would make every request late.
        let until_due = if next < plan.len() {
            arrivals[plan[next]].due.saturating_sub(now)
        } else {
            Duration::from_millis(50)
        };
        let block = until_due.saturating_sub(SPIN);
        if answered == next {
            if block.is_zero() {
                std::thread::yield_now();
            } else {
                std::thread::sleep(block);
            }
            continue;
        }
        match http::read_response(&mut stream, &mut residue, block) {
            Ok(Some(r)) => {
                samples[answered].done = Some(t0.elapsed());
                samples[answered].response = Ok(r);
                answered += 1;
            }
            Ok(None) if block.is_zero() => std::thread::yield_now(),
            Ok(None) => {}
            Err(_) => break,
        }
    }
    let sent = samples.len();
    fail_all(&mut samples, sent, "never sent");
    samples
}

/// Drives every connection's share of `arrivals` on its own thread,
/// calling `poll` every 100 ms on this thread until they finish.
/// Returns samples in arrival order.
pub fn run_window(
    addr: SocketAddr,
    arrivals: &[Arrival],
    requests: &[Vec<u8>],
    conns: usize,
    poll: &mut dyn FnMut(),
) -> Vec<Sample> {
    let plans: Vec<Vec<usize>> = (0..conns)
        .map(|c| {
            (0..arrivals.len())
                .filter(|&i| arrivals[i].conn == c)
                .collect()
        })
        .collect();
    let t0 = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| s.spawn(move || drive_connection(addr, arrivals, plan, requests, t0)))
            .collect();
        while !handles.iter().all(|h| h.is_finished()) {
            poll();
            std::thread::sleep(Duration::from_millis(100));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.arrival);
    samples
}

/// Requests due by the end of the window that were still unanswered
/// when it ended.
pub fn backlog_at_end(arrivals: &[Arrival], samples: &[Sample], window: Duration) -> usize {
    samples
        .iter()
        .filter(|s| arrivals[s.arrival].due <= window && s.done.is_none_or(|d| d > window))
        .count()
}

/// The sum of every sample of a Prometheus metric family in `text`.
pub fn metric_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            let family = key.split('{').next()?;
            (family == name).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let hot: Vec<usize> = (0..8).collect();
        let cold: Vec<usize> = (100..400).collect();
        let w = Duration::from_secs(1);
        let a = schedule(5, 500.0, w, &hot, &cold, 2);
        assert_eq!(a, schedule(5, 500.0, w, &hot, &cold, 2));
        assert_ne!(a, schedule(6, 500.0, w, &hot, &cold, 2));
        // Roughly the rate, due times ascending, one cold in five.
        assert!((400..600).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|p| p[0].due <= p[1].due));
        let cold_n = a.iter().filter(|x| !x.warm).count();
        assert!((60..140).contains(&cold_n), "{cold_n}");
        // Cold files are first-time: each used once, in pool order.
        let cold_files: Vec<usize> = a.iter().filter(|x| !x.warm).map(|x| x.file).collect();
        assert_eq!(cold_files, cold[..cold_n].to_vec());
        assert!(a.iter().filter(|x| x.warm).all(|x| x.file < 8));
    }

    #[test]
    fn backlog_counts_requests_unanswered_at_window_end() {
        let arrivals: Vec<Arrival> = (0..3)
            .map(|i| Arrival {
                due: Duration::from_millis(10 * i),
                file: 0,
                warm: true,
                conn: 0,
            })
            .collect();
        let sample = |arrival, done: Option<u64>| Sample {
            arrival,
            sent: Duration::ZERO,
            done: done.map(Duration::from_millis),
            response: Err(String::new()),
        };
        let samples = vec![sample(0, Some(5)), sample(1, Some(30)), sample(2, None)];
        assert_eq!(
            backlog_at_end(&arrivals, &samples, Duration::from_millis(25)),
            2
        );
    }

    #[test]
    fn metric_sum_adds_labelled_series() {
        let text = "# HELP x y\nwebssari_q 2\nwebssari_q_total 9\n\
                    webssari_s{shard=\"0\"} 1\nwebssari_s{shard=\"1\"} 3.5\n";
        assert_eq!(metric_sum(text, "webssari_q"), 2.0);
        assert_eq!(metric_sum(text, "webssari_s"), 4.5);
        assert_eq!(metric_sum(text, "missing"), 0.0);
    }
}
