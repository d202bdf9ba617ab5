//! Server-side counters and Prometheus text rendering.
//!
//! [`ServerMetrics`] tracks the HTTP side (connections, per-route
//! request counts and latencies, load-shed rejections);
//! [`render_prometheus`](ServerMetrics::render_prometheus) merges them
//! with the engine's live [`EngineSnapshot`] and the queue gauges into
//! Prometheus text exposition format 0.0.4 for `GET /metrics`.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use webssari_engine::counters::{Counter, Family, COUNTERS};
use webssari_engine::EngineSnapshot;

/// The route labels exported to Prometheus. Unknown paths collapse to
/// `"other"` so a scanner probing random URLs cannot blow up the label
/// cardinality.
pub const ROUTES: [&str; 5] = ["/verify", "/batch", "/healthz", "/metrics", "other"];

/// Fixed histogram bucket bounds (seconds) for request latency. The
/// implicit `+Inf` bucket is appended at render time. Fixed bounds
/// keep scrapes comparable across restarts and across instances. The
/// sub-millisecond bounds resolve warm cache hits answered inline.
pub const LATENCY_BUCKETS: [f64; 16] = [
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// Cumulative observation counts for one route's latency histogram.
#[derive(Debug, Default, Clone)]
struct Histogram {
    /// Observations `<=` each bound in [`LATENCY_BUCKETS`]
    /// (non-cumulative here; summed at render time).
    buckets: [u64; LATENCY_BUCKETS.len()],
    /// Observations past the largest bound (`+Inf` only).
    overflow: u64,
    count: u64,
    sum_micros: u64,
}

impl Histogram {
    fn observe(&mut self, seconds: f64, micros: u64) {
        match LATENCY_BUCKETS.iter().position(|b| seconds <= *b) {
            Some(i) => self.buckets[i] += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum_micros = self.sum_micros.saturating_add(micros);
    }
}

/// Normalizes a request path to one of [`ROUTES`].
pub fn route_label(path: &str) -> &'static str {
    ROUTES
        .iter()
        .find(|r| **r == path)
        .copied()
        .unwrap_or("other")
}

/// Live HTTP-side counters. All methods are callable concurrently.
#[derive(Debug)]
pub struct ServerMetrics {
    started: Instant,
    connections_total: AtomicU64,
    rejected_total: AtomicU64,
    in_flight: AtomicU64,
    /// Currently open connections (set by the event loop).
    connections_open: AtomicU64,
    /// Open connections idle between keep-alive requests.
    connections_idle: AtomicU64,
    /// `(route, status) -> count`.
    requests: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// `route -> latency histogram`.
    latency: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl ServerMetrics {
    /// Fresh counters; uptime starts now.
    pub fn new() -> Self {
        ServerMetrics {
            started: Instant::now(),
            connections_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            connections_idle: AtomicU64::new(0),
            requests: Mutex::new(BTreeMap::new()),
            latency: Mutex::new(BTreeMap::new()),
        }
    }

    /// Counts an accepted connection.
    pub fn record_connection(&self) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a connection shed with `429` because the queue was full.
    pub fn record_rejected(&self) {
        self.rejected_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a request as started; pair with [`ServerMetrics::record`].
    pub fn request_started(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the connection-set gauges (open sockets
    /// and how many of them sit idle between keep-alive requests).
    pub fn set_connection_gauges(&self, open: u64, idle: u64) {
        self.connections_open.store(open, Ordering::Relaxed);
        self.connections_idle.store(idle, Ordering::Relaxed);
    }

    /// Records one finished request.
    pub fn record(&self, route: &'static str, status: u16, elapsed: Duration) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        *self
            .requests
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry((route, status))
            .or_insert(0) += 1;
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let mut latency = self.latency.lock().unwrap_or_else(PoisonError::into_inner);
        latency
            .entry(route)
            .or_default()
            .observe(elapsed.as_secs_f64(), micros);
    }

    /// Requests finished with the given status, summed over routes.
    pub fn requests_with_status(&self, status: u16) -> u64 {
        self.requests
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|((_, s), _)| *s == status)
            .map(|(_, n)| *n)
            .sum()
    }

    /// Renders everything as Prometheus text exposition format 0.0.4.
    /// `queue_capacity` is the summed capacity of the dispatch shards;
    /// `shard_depths` has one entry per shard.
    pub fn render_prometheus(
        &self,
        engine: &EngineSnapshot,
        queue_capacity: usize,
        shard_depths: &[usize],
    ) -> String {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let mut out = String::with_capacity(4096);
        labeled(
            &mut out,
            "webssari_build_info",
            "gauge",
            "Constant 1, labeled with the server version.",
            "version",
            [(env!("CARGO_PKG_VERSION"), 1)],
        );
        single(
            &mut out,
            "webssari_uptime_seconds",
            "gauge",
            "Seconds since the server started.",
            format_args!("{:.3}", self.started.elapsed().as_secs_f64()),
        );
        single(
            &mut out,
            "webssari_http_connections_total",
            "counter",
            "Connections accepted, including ones later shed.",
            load(&self.connections_total),
        );

        metric(
            &mut out,
            "webssari_http_requests_total",
            "counter",
            "Finished requests by route and status.",
        );
        {
            let requests = self.requests.lock().unwrap_or_else(PoisonError::into_inner);
            for ((route, status), count) in requests.iter() {
                let _ = writeln!(
                    out,
                    "webssari_http_requests_total{{path=\"{route}\",status=\"{status}\"}} {count}",
                );
            }
        }

        metric(
            &mut out,
            "webssari_http_request_duration_seconds",
            "histogram",
            "Request handling latency by route (fixed buckets).",
        );
        {
            let latency = self.latency.lock().unwrap_or_else(PoisonError::into_inner);
            for (route, hist) in latency.iter() {
                let mut cumulative = 0u64;
                for (bound, count) in LATENCY_BUCKETS.iter().zip(hist.buckets.iter()) {
                    cumulative += count;
                    let _ = writeln!(
                        out,
                        "webssari_http_request_duration_seconds_bucket\
                         {{path=\"{route}\",le=\"{bound}\"}} {cumulative}",
                    );
                }
                let _ = writeln!(
                    out,
                    "webssari_http_request_duration_seconds_bucket\
                     {{path=\"{route}\",le=\"+Inf\"}} {}",
                    cumulative + hist.overflow,
                );
                let _ = writeln!(
                    out,
                    "webssari_http_request_duration_seconds_sum{{path=\"{route}\"}} {:.6}",
                    hist.sum_micros as f64 / 1e6,
                );
                let _ = writeln!(
                    out,
                    "webssari_http_request_duration_seconds_count{{path=\"{route}\"}} {}",
                    hist.count,
                );
            }
        }

        single(
            &mut out,
            "webssari_http_requests_in_flight",
            "gauge",
            "Requests currently being handled.",
            load(&self.in_flight),
        );
        single(
            &mut out,
            "webssari_http_connections_open",
            "gauge",
            "Connections currently held by the event loop.",
            load(&self.connections_open),
        );
        single(
            &mut out,
            "webssari_http_connections_idle",
            "gauge",
            "Open keep-alive connections idle between requests.",
            load(&self.connections_idle),
        );
        single(
            &mut out,
            "webssari_queue_capacity",
            "gauge",
            "Summed dispatch-shard capacity; beyond a full shard requests are shed.",
            queue_capacity,
        );
        single(
            &mut out,
            "webssari_queue_rejected_total",
            "counter",
            "Requests answered 429 because their dispatch shard was full.",
            load(&self.rejected_total),
        );
        labeled(
            &mut out,
            "webssari_shard_queue_depth",
            "gauge",
            "Requests waiting in each dispatch shard.",
            "shard",
            shard_depths.iter().enumerate(),
        );

        labeled(
            &mut out,
            "webssari_engine_batches_total",
            "counter",
            "Verification batches by state.",
            "state",
            [
                ("started", engine.batches_started),
                ("completed", engine.batches_completed),
            ],
        );
        single(
            &mut out,
            "webssari_engine_jobs_in_flight",
            "gauge",
            "Files currently being verified by engine workers.",
            engine.jobs_in_flight,
        );
        single(
            &mut out,
            "webssari_engine_cache_hits_total",
            "counter",
            "Files served from the incremental cache.",
            engine.cache_hits,
        );
        single(
            &mut out,
            "webssari_engine_cache_misses_total",
            "counter",
            "Files verified fresh.",
            engine.cache_misses,
        );
        single(
            &mut out,
            "webssari_engine_cache_evictions_total",
            "counter",
            "Warm-cache entries evicted to honor the LRU size caps.",
            engine.cache_evictions,
        );
        single(
            &mut out,
            "webssari_engine_cache_hit_ratio",
            "gauge",
            "Fraction of served files that came from the cache.",
            format_args!("{:.6}", engine.cache_hit_rate().unwrap_or(0.0)),
        );
        labeled(
            &mut out,
            "webssari_engine_files_total",
            "counter",
            "Files served, by verification outcome.",
            "outcome",
            [
                ("verified", engine.files_verified),
                ("vulnerable", engine.files_vulnerable),
                ("timeout", engine.files_timeout),
                ("parse-error", engine.files_parse_error),
            ],
        );
        single(
            &mut out,
            "webssari_engine_verify_seconds_total",
            "counter",
            "Wall time spent verifying files.",
            format_args!("{:.6}", engine.verify_micros as f64 / 1e6),
        );

        // The work-counter families, straight from the counter table:
        // one sample per row of a labeled family, and the sum of its
        // rows for an unlabeled one.
        let exported: Vec<(Family, &Counter, u64)> = COUNTERS
            .iter()
            .zip(engine.work.values())
            .filter_map(|(c, v)| Some((c.family?, c, v)))
            .collect();
        for rows in exported.chunk_by(|a, b| a.0 == b.0) {
            let (family, first, _) = rows[0];
            let kind = first.kind.as_str();
            match family.label {
                Some(key) => labeled(
                    &mut out,
                    family.name,
                    kind,
                    family.help,
                    key,
                    rows.iter()
                        .map(|(_, c, v)| (c.label.unwrap_or_default(), v)),
                ),
                None => single(
                    &mut out,
                    family.name,
                    kind,
                    family.help,
                    rows.iter().map(|(_, _, v)| v).sum::<u64>(),
                ),
            }
        }
        out
    }
}

/// Writes a family's `# HELP` and `# TYPE` lines.
fn metric(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes a family with one unlabeled sample.
fn single(out: &mut String, name: &str, kind: &str, help: &str, value: impl Display) {
    metric(out, name, kind, help);
    let _ = writeln!(out, "{name} {value}");
}

/// Writes a family with one sample per `key` label value.
fn labeled(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    key: &str,
    samples: impl IntoIterator<Item = (impl Display, impl Display)>,
) {
    metric(out, name, kind, help);
    for (label, value) in samples {
        let _ = writeln!(out, "{name}{{{key}=\"{label}\"}} {value}");
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use webssari_engine::XbmcStats;

    use super::*;

    #[test]
    fn unknown_paths_collapse_to_other() {
        assert_eq!(route_label("/verify"), "/verify");
        assert_eq!(route_label("/verify/"), "other");
        assert_eq!(route_label("/../etc/passwd"), "other");
    }

    #[test]
    fn records_show_up_in_the_exposition() {
        let m = ServerMetrics::new();
        m.record_connection();
        m.request_started();
        m.record("/verify", 200, Duration::from_millis(3));
        m.request_started();
        m.record("/verify", 400, Duration::from_millis(1));
        m.record_rejected();
        m.set_connection_gauges(5, 3);
        let text = m.render_prometheus(&EngineSnapshot::default(), 8, &[1, 0]);
        assert!(text.contains("webssari_http_connections_total 1"));
        assert!(text.contains("webssari_http_requests_total{path=\"/verify\",status=\"200\"} 1"));
        assert!(text.contains("webssari_http_requests_total{path=\"/verify\",status=\"400\"} 1"));
        assert!(text.contains("webssari_http_request_duration_seconds_count{path=\"/verify\"} 2"));
        assert!(text.contains("webssari_http_requests_in_flight 0"));
        assert!(text.contains("webssari_http_connections_open 5"));
        assert!(text.contains("webssari_http_connections_idle 3"));
        assert!(!text.contains("webssari_queue_depth"));
        assert!(text.contains("webssari_queue_capacity 8"));
        assert!(text.contains("webssari_queue_rejected_total 1"));
        assert!(text.contains("webssari_shard_queue_depth{shard=\"0\"} 1"));
        assert!(text.contains("webssari_shard_queue_depth{shard=\"1\"} 0"));
        assert_eq!(m.requests_with_status(200), 1);
    }

    #[test]
    fn latency_histogram_buckets_are_cumulative_and_monotone() {
        let m = ServerMetrics::new();
        m.request_started();
        m.record("/verify", 200, Duration::from_millis(3)); // <= 0.005
        m.request_started();
        m.record("/verify", 200, Duration::from_millis(40)); // <= 0.05
        m.request_started();
        m.record("/verify", 200, Duration::from_secs(60)); // +Inf only
        let text = m.render_prometheus(&EngineSnapshot::default(), 1, &[]);
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| {
                l.starts_with("webssari_http_request_duration_seconds_bucket{path=\"/verify\"")
            })
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(
            counts.len(),
            LATENCY_BUCKETS.len() + 1,
            "one line per bucket + +Inf"
        );
        assert!(
            counts.windows(2).all(|w| w[0] <= w[1]),
            "cumulative bucket counts must be monotone: {counts:?}",
        );
        assert_eq!(*counts.last().unwrap(), 3, "+Inf bucket equals the count");
        assert!(text.contains(
            "webssari_http_request_duration_seconds_bucket{path=\"/verify\",le=\"0.005\"} 1"
        ));
        assert!(text.contains(
            "webssari_http_request_duration_seconds_bucket{path=\"/verify\",le=\"0.05\"} 2"
        ));
        assert!(text.contains("webssari_http_request_duration_seconds_count{path=\"/verify\"} 3"));
        // No shard samples when no shards were passed.
        assert!(!text.contains("webssari_shard_queue_depth{"));
    }

    #[test]
    fn sub_millisecond_latencies_get_their_own_buckets() {
        let m = ServerMetrics::new();
        m.request_started();
        m.record("/verify", 200, Duration::from_micros(80)); // <= 0.0001
        m.request_started();
        m.record("/verify", 200, Duration::from_micros(400)); // <= 0.0005
        let text = m.render_prometheus(&EngineSnapshot::default(), 1, &[]);
        for (bound, count) in [("0.00005", 0), ("0.0001", 1), ("0.00025", 1), ("0.0005", 2)] {
            let line = format!(
                "webssari_http_request_duration_seconds_bucket{{path=\"/verify\",le=\"{bound}\"}} {count}"
            );
            assert!(text.contains(&line), "missing {line}");
        }
    }

    /// Every engine family, rendered from a snapshot whose counters
    /// all differ, must match this exposition byte for byte.
    #[test]
    fn engine_families_render_exactly() {
        let mut work = XbmcStats::default();
        work.conflicts = 13;
        work.decisions = 14;
        work.propagations = 15;
        work.binary_propagations = 16;
        work.restarts = 17;
        work.glue_restarts = 18;
        work.glue_core = 19;
        work.glue_mid = 20;
        work.glue_local = 21;
        work.subsumed_clauses = 22;
        work.strengthened_clauses = 36;
        work.vivified_clauses = 17;
        work.sat_calls = 23;
        work.pre_units_fixed = 24;
        work.pre_clauses_removed = 25;
        work.assertions_discharged = 26;
        work.cnf_vars_saved = 27;
        work.cubes_learned = 28;
        work.cube_assignments = 29;
        work.sql_assertions_checked = 30;
        work.second_order_flows_found = 31;
        work.flow_discharged = 32;
        work.ssa_phis = 33;
        work.summaries_computed = 34;
        work.contexts_cloned = 35;
        let snap = EngineSnapshot {
            batches_started: 1,
            batches_completed: 2,
            jobs_in_flight: 3,
            cache_hits: 4,
            cache_misses: 5,
            cache_evictions: 6,
            files_verified: 7,
            files_vulnerable: 8,
            files_timeout: 9,
            files_parse_error: 10,
            verify_micros: 11_000_012,
            work,
        };
        let text = ServerMetrics::new().render_prometheus(&snap, 4, &[]);
        let start = text
            .find("# HELP webssari_engine_batches_total")
            .expect("engine families are rendered");
        assert_eq!(&text[start..], ENGINE_FAMILIES);
    }

    const ENGINE_FAMILIES: &str = r##"# HELP webssari_engine_batches_total Verification batches by state.
# TYPE webssari_engine_batches_total counter
webssari_engine_batches_total{state="started"} 1
webssari_engine_batches_total{state="completed"} 2
# HELP webssari_engine_jobs_in_flight Files currently being verified by engine workers.
# TYPE webssari_engine_jobs_in_flight gauge
webssari_engine_jobs_in_flight 3
# HELP webssari_engine_cache_hits_total Files served from the incremental cache.
# TYPE webssari_engine_cache_hits_total counter
webssari_engine_cache_hits_total 4
# HELP webssari_engine_cache_misses_total Files verified fresh.
# TYPE webssari_engine_cache_misses_total counter
webssari_engine_cache_misses_total 5
# HELP webssari_engine_cache_evictions_total Warm-cache entries evicted to honor the LRU size caps.
# TYPE webssari_engine_cache_evictions_total counter
webssari_engine_cache_evictions_total 6
# HELP webssari_engine_cache_hit_ratio Fraction of served files that came from the cache.
# TYPE webssari_engine_cache_hit_ratio gauge
webssari_engine_cache_hit_ratio 0.444444
# HELP webssari_engine_files_total Files served, by verification outcome.
# TYPE webssari_engine_files_total counter
webssari_engine_files_total{outcome="verified"} 7
webssari_engine_files_total{outcome="vulnerable"} 8
webssari_engine_files_total{outcome="timeout"} 9
webssari_engine_files_total{outcome="parse-error"} 10
# HELP webssari_engine_verify_seconds_total Wall time spent verifying files.
# TYPE webssari_engine_verify_seconds_total counter
webssari_engine_verify_seconds_total 11.000012
# HELP webssari_engine_solver_events_total Cumulative SAT solver activity by kind.
# TYPE webssari_engine_solver_events_total counter
webssari_engine_solver_events_total{kind="conflicts"} 13
webssari_engine_solver_events_total{kind="decisions"} 14
webssari_engine_solver_events_total{kind="propagations"} 15
webssari_engine_solver_events_total{kind="restarts"} 17
webssari_engine_solver_events_total{kind="calls"} 23
webssari_engine_solver_events_total{kind="pre_units_fixed"} 24
webssari_engine_solver_events_total{kind="pre_clauses_removed"} 25
# HELP webssari_engine_screening_total Static screening activity: assertions discharged before SAT and CNF variables saved by cone slicing.
# TYPE webssari_engine_screening_total counter
webssari_engine_screening_total{kind="assertions_discharged"} 26
webssari_engine_screening_total{kind="cnf_vars_saved"} 27
# HELP webssari_engine_enumeration_total ALLSAT cube generalization: blocking cubes learned and counterexamples materialized by expanding them.
# TYPE webssari_engine_enumeration_total counter
webssari_engine_enumeration_total{kind="cubes_learned"} 28
webssari_engine_enumeration_total{kind="cube_assignments"} 29
# HELP webssari_sat_binary_propagations_total Propagations served by the solver's binary implication lists (a subset of solver propagations that never touched the clause arena).
# TYPE webssari_sat_binary_propagations_total counter
webssari_sat_binary_propagations_total 16
# HELP webssari_sat_glue_restarts_total Restarts triggered by the glue EMA rather than the Luby budget.
# TYPE webssari_sat_glue_restarts_total counter
webssari_sat_glue_restarts_total 18
# HELP webssari_sat_glue_tier_total Learned clauses by glue tier at learn time: core (LBD <= 2, kept forever), mid (LBD 3-6, reduced by activity), local (LBD > 6, aggressively reduced).
# TYPE webssari_sat_glue_tier_total counter
webssari_sat_glue_tier_total{tier="core"} 19
webssari_sat_glue_tier_total{tier="mid"} 20
webssari_sat_glue_tier_total{tier="local"} 21
# HELP webssari_sat_inprocessing_removed_total Clauses removed by root-level inprocessing (backward subsumption, self-subsuming strengthening, vivification).
# TYPE webssari_sat_inprocessing_removed_total counter
webssari_sat_inprocessing_removed_total 75
# HELP webssari_engine_sql_assertions_total Assertions checked with SQL query-structure semantics.
# TYPE webssari_engine_sql_assertions_total counter
webssari_engine_sql_assertions_total 30
# HELP webssari_engine_second_order_flows_total Violations whose counterexample trace reads a cross-request store cell (second-order taint).
# TYPE webssari_engine_second_order_flows_total counter
webssari_engine_second_order_flows_total 31
# HELP webssari_engine_flow_total Flow-sensitive SSA tier activity: flow-clean discharges, phi functions placed, interprocedural summaries computed, and polymorphic call-site clones.
# TYPE webssari_engine_flow_total counter
webssari_engine_flow_total{kind="flow_discharged"} 32
webssari_engine_flow_total{kind="ssa_phis"} 33
webssari_engine_flow_total{kind="summaries_computed"} 34
webssari_engine_flow_total{kind="contexts_cloned"} 35
"##;

    #[test]
    fn engine_snapshot_flows_through() {
        let m = ServerMetrics::new();
        let mut work = XbmcStats::default();
        work.sat_calls = 7;
        work.pre_units_fixed = 11;
        work.pre_clauses_removed = 2;
        work.assertions_discharged = 5;
        work.cnf_vars_saved = 42;
        work.cubes_learned = 6;
        work.cube_assignments = 19;
        work.sql_assertions_checked = 4;
        work.second_order_flows_found = 2;
        work.flow_discharged = 9;
        work.ssa_phis = 13;
        work.summaries_computed = 3;
        work.contexts_cloned = 8;
        let snap = EngineSnapshot {
            cache_hits: 3,
            cache_misses: 1,
            cache_evictions: 2,
            files_vulnerable: 1,
            work,
            ..EngineSnapshot::default()
        };
        let text = m.render_prometheus(&snap, 4, &[]);
        assert!(text.contains("webssari_engine_cache_hits_total 3"));
        assert!(text.contains("webssari_engine_cache_evictions_total 2"));
        assert!(text.contains("webssari_engine_cache_hit_ratio 0.75"));
        assert!(text.contains("webssari_engine_files_total{outcome=\"vulnerable\"} 1"));
        assert!(text.contains("webssari_engine_solver_events_total{kind=\"calls\"} 7"));
        assert!(text.contains("webssari_engine_solver_events_total{kind=\"pre_units_fixed\"} 11"));
        assert!(
            text.contains("webssari_engine_solver_events_total{kind=\"pre_clauses_removed\"} 2")
        );
        assert!(text.contains("webssari_engine_screening_total{kind=\"assertions_discharged\"} 5"));
        assert!(text.contains("webssari_engine_screening_total{kind=\"cnf_vars_saved\"} 42"));
        assert!(text.contains("webssari_engine_enumeration_total{kind=\"cubes_learned\"} 6"));
        assert!(text.contains("webssari_engine_enumeration_total{kind=\"cube_assignments\"} 19"));
        assert!(text.contains("webssari_engine_sql_assertions_total 4"));
        assert!(text.contains("webssari_engine_second_order_flows_total 2"));
        assert!(text.contains("webssari_engine_flow_total{kind=\"flow_discharged\"} 9"));
        assert!(text.contains("webssari_engine_flow_total{kind=\"ssa_phis\"} 13"));
        assert!(text.contains("webssari_engine_flow_total{kind=\"summaries_computed\"} 3"));
        assert!(text.contains("webssari_engine_flow_total{kind=\"contexts_cloned\"} 8"));
        // Every exposed line is HELP, TYPE, or a sample.
        for line in text.lines() {
            assert!(
                line.starts_with("# HELP")
                    || line.starts_with("# TYPE")
                    || line.starts_with("webssari_"),
                "unexpected line: {line}",
            );
        }
    }
}
