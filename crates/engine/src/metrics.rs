//! Run metrics: where a batch verification spent its time.

use std::fmt::Write as _;
use std::time::Duration;

use webssari_core::FileOutcome;
use xbmc::XbmcStats;

use crate::json::Value;

/// Per-file measurements for one engine run.
#[derive(Clone, Debug)]
pub struct FileMetrics {
    /// File name.
    pub file: String,
    /// How verification concluded.
    pub outcome: FileOutcome,
    /// Whether the result came from the incremental cache.
    pub from_cache: bool,
    /// Index of the worker that verified the file (`None` for cache
    /// hits, which are served on the scheduler thread).
    pub worker: Option<usize>,
    /// Time between job submission and a worker picking the job up.
    pub queue_wait: Duration,
    /// Verification time (zero for cache hits).
    pub duration: Duration,
    /// Work counters for this file (all zero for cache hits and parse
    /// errors, which run no check).
    pub work: XbmcStats,
}

impl FileMetrics {
    /// Metrics for a file that no worker touched: not from the cache,
    /// no worker, zero waits and durations, zero work.
    pub fn new(file: String, outcome: FileOutcome) -> Self {
        FileMetrics {
            file,
            outcome,
            from_cache: false,
            worker: None,
            queue_wait: Duration::ZERO,
            duration: Duration::ZERO,
            work: XbmcStats::default(),
        }
    }
}

/// Aggregate metrics for one engine run, with per-file breakdown in
/// file-name order.
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    /// Size of the worker pool.
    pub workers: usize,
    /// Wall-clock time of the whole run.
    pub wall_time: Duration,
    /// Files served from the incremental cache.
    pub cache_hits: usize,
    /// Files that had to be verified.
    pub cache_misses: usize,
    /// Per-file measurements, in file-name order.
    pub files: Vec<FileMetrics>,
}

impl EngineMetrics {
    /// Work counters summed over all files.
    pub fn totals(&self) -> XbmcStats {
        self.files
            .iter()
            .fold(XbmcStats::default(), |mut total, f| {
                total.add(&f.work);
                total
            })
    }

    /// Files with the given outcome.
    pub fn count(&self, outcome: FileOutcome) -> usize {
        self.files.iter().filter(|f| f.outcome == outcome).count()
    }

    /// Renders a human-readable metrics table.
    pub fn render_text(&self) -> String {
        let t = self.totals();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "engine: {} worker(s), {} file(s) in {} \
             ({} verified, {} vulnerable, {} timeout, {} parse-error); \
             cache: {} hit(s), {} miss(es)",
            self.workers,
            self.files.len(),
            fmt_duration(self.wall_time),
            self.count(FileOutcome::Verified),
            self.count(FileOutcome::Vulnerable),
            self.count(FileOutcome::Timeout),
            self.count(FileOutcome::ParseError),
            self.cache_hits,
            self.cache_misses,
        );
        let _ = writeln!(
            out,
            "solver: {} call(s), {} conflict(s), {} decision(s), {} propagation(s); \
             preprocessing: {} unit(s) fixed, {} clause(s) removed",
            t.sat_calls,
            t.conflicts,
            t.decisions,
            t.propagations,
            t.pre_units_fixed,
            t.pre_clauses_removed,
        );
        let _ = writeln!(
            out,
            "screening: {} assertion(s) discharged statically, {} CNF var(s) saved",
            t.assertions_discharged, t.cnf_vars_saved,
        );
        let _ = writeln!(
            out,
            "enumeration: {} cube(s) learned covering {} assignment(s)",
            t.cubes_learned, t.cube_assignments,
        );
        let _ = writeln!(
            out,
            "{:<40} {:>12} {:>9} {:>9} {:>6} {:>10}",
            "file", "outcome", "time", "wait", "cache", "conflicts"
        );
        for f in &self.files {
            let _ = writeln!(
                out,
                "{:<40} {:>12} {:>9} {:>9} {:>6} {:>10}",
                f.file,
                f.outcome.as_str(),
                fmt_duration(f.duration),
                fmt_duration(f.queue_wait),
                if f.from_cache { "hit" } else { "miss" },
                f.work.conflicts,
            );
        }
        out
    }

    /// Serializes the metrics (durations in microseconds). Every work
    /// counter appears per file under its table name, and summed over
    /// files as `total_<name>`.
    pub fn to_json(&self) -> String {
        let files: Vec<Value> = self
            .files
            .iter()
            .map(|f| {
                let mut pairs = vec![
                    ("file", Value::str(f.file.clone())),
                    ("outcome", Value::str(f.outcome.as_str())),
                    ("from_cache", Value::Bool(f.from_cache)),
                    (
                        "worker",
                        f.worker.map_or(Value::Null, |w| Value::Num(w as u64)),
                    ),
                    ("queue_wait_us", Value::Num(as_micros(f.queue_wait))),
                    ("duration_us", Value::Num(as_micros(f.duration))),
                ];
                pairs.extend(f.work.iter().map(|(k, v)| (k, Value::Num(v))));
                Value::obj(pairs)
            })
            .collect();
        let totals = self.totals();
        let total_keys: Vec<String> = totals.iter().map(|(k, _)| format!("total_{k}")).collect();
        let mut pairs = vec![
            ("workers", Value::Num(self.workers as u64)),
            ("wall_time_us", Value::Num(as_micros(self.wall_time))),
            ("cache_hits", Value::Num(self.cache_hits as u64)),
            ("cache_misses", Value::Num(self.cache_misses as u64)),
        ];
        pairs.extend(
            total_keys
                .iter()
                .map(String::as_str)
                .zip(totals.values().map(Value::Num)),
        );
        pairs.push(("files", Value::Arr(files)));
        Value::obj(pairs).to_json()
    }
}

fn as_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> EngineMetrics {
        // Every work counter is set: the eleven `--metrics-json` emitted
        // before the counter table drove it keep their old values, the
        // rest count up from 100 in table order.
        let mut work = XbmcStats::from_values(std::array::from_fn(|i| 100 + i as u64));
        work.conflicts = 17;
        work.decisions = 40;
        work.propagations = 200;
        work.restarts = 1;
        work.sat_calls = 5;
        work.pre_units_fixed = 9;
        work.pre_clauses_removed = 3;
        work.assertions_discharged = 2;
        work.cnf_vars_saved = 11;
        work.cubes_learned = 4;
        work.cube_assignments = 13;
        EngineMetrics {
            workers: 4,
            wall_time: Duration::from_millis(12),
            cache_hits: 1,
            cache_misses: 1,
            files: vec![
                FileMetrics {
                    from_cache: true,
                    ..FileMetrics::new("a.php".to_owned(), FileOutcome::Verified)
                },
                FileMetrics {
                    worker: Some(2),
                    queue_wait: Duration::from_micros(150),
                    duration: Duration::from_millis(3),
                    work,
                    ..FileMetrics::new("b.php".to_owned(), FileOutcome::Vulnerable)
                },
            ],
        }
    }

    #[test]
    fn totals_aggregate_per_file_counters() {
        let m = sample();
        let t = m.totals();
        assert_eq!(t, m.files[1].work);
        assert_eq!(t.conflicts, 17);
        assert_eq!(t.sat_calls, 5);
        assert_eq!(t.cube_assignments, 13);
        assert_eq!(m.count(FileOutcome::Verified), 1);
        assert_eq!(m.count(FileOutcome::Timeout), 0);
    }

    #[test]
    fn render_text_mentions_cache_and_files() {
        let text = sample().render_text();
        assert!(text.contains("4 worker(s)"));
        assert!(text.contains("1 hit(s), 1 miss(es)"));
        assert!(text.contains("a.php"));
        assert!(text.contains("vulnerable"));
        assert!(text.contains("2 assertion(s) discharged statically, 11 CNF var(s) saved"));
        assert!(text.contains("4 cube(s) learned covering 13 assignment(s)"));
    }

    #[test]
    fn render_text_is_exact() {
        assert_eq!(sample().render_text(), SAMPLE_TEXT);
    }

    #[test]
    fn json_is_exact() {
        assert_eq!(sample().to_json(), SAMPLE_JSON);
    }

    const SAMPLE_TEXT: &str = "\
        engine: 4 worker(s), 2 file(s) in 12.0ms (1 verified, 1 vulnerable, 0 timeout, 0 parse-error); cache: 1 hit(s), 1 miss(es)\n\
        solver: 5 call(s), 17 conflict(s), 40 decision(s), 200 propagation(s); preprocessing: 9 unit(s) fixed, 3 clause(s) removed\n\
        screening: 2 assertion(s) discharged statically, 11 CNF var(s) saved\n\
        enumeration: 4 cube(s) learned covering 13 assignment(s)\n\
        file                                          outcome      time      wait  cache  conflicts\n\
        a.php                                        verified       0µs       0µs    hit          0\n\
        b.php                                      vulnerable     3.0ms     150µs   miss         17\n\
        ";

    const SAMPLE_JSON: &str = concat!(
        r#"{"workers":4,"wall_time_us":12000,"cache_hits":1,"cache_misses":1,"total_cnf_vars":100,"#,
        r#""total_cnf_clauses":101,"total_truncated_assertions":102,"total_tier_core_size":103,"#,
        r#""total_tier_mid_size":104,"total_tier_local_size":105,"total_inprocessing_rounds":106,"#,
        r#""total_certify_provers":107,"total_conflicts":17,"total_decisions":40,"#,
        r#""total_propagations":200,"total_restarts":1,"total_sat_calls":5,"#,
        r#""total_pre_units_fixed":9,"total_pre_clauses_removed":3,"total_assertions_discharged":2,"#,
        r#""total_cnf_vars_saved":11,"total_cubes_learned":4,"total_cube_assignments":13,"#,
        r#""total_binary_propagations":119,"total_glue_restarts":120,"total_glue_core":121,"#,
        r#""total_glue_mid":122,"total_glue_local":123,"total_subsumed_clauses":124,"#,
        r#""total_strengthened_clauses":125,"total_vivified_clauses":126,"#,
        r#""total_sql_assertions_checked":127,"total_second_order_flows_found":128,"#,
        r#""total_flow_discharged":129,"total_ssa_phis":130,"total_summaries_computed":131,"#,
        r#""total_contexts_cloned":132,"files":[{"file":"a.php","outcome":"verified","#,
        r#""from_cache":true,"worker":null,"queue_wait_us":0,"duration_us":0,"cnf_vars":0,"#,
        r#""cnf_clauses":0,"truncated_assertions":0,"tier_core_size":0,"tier_mid_size":0,"#,
        r#""tier_local_size":0,"inprocessing_rounds":0,"certify_provers":0,"conflicts":0,"#,
        r#""decisions":0,"propagations":0,"restarts":0,"sat_calls":0,"pre_units_fixed":0,"#,
        r#""pre_clauses_removed":0,"assertions_discharged":0,"cnf_vars_saved":0,"cubes_learned":0,"#,
        r#""cube_assignments":0,"binary_propagations":0,"glue_restarts":0,"glue_core":0,"#,
        r#""glue_mid":0,"glue_local":0,"subsumed_clauses":0,"strengthened_clauses":0,"#,
        r#""vivified_clauses":0,"sql_assertions_checked":0,"second_order_flows_found":0,"#,
        r#""flow_discharged":0,"ssa_phis":0,"summaries_computed":0,"contexts_cloned":0},"#,
        r#"{"file":"b.php","outcome":"vulnerable","from_cache":false,"worker":2,"#,
        r#""queue_wait_us":150,"duration_us":3000,"cnf_vars":100,"cnf_clauses":101,"#,
        r#""truncated_assertions":102,"tier_core_size":103,"tier_mid_size":104,"#,
        r#""tier_local_size":105,"inprocessing_rounds":106,"certify_provers":107,"conflicts":17,"#,
        r#""decisions":40,"propagations":200,"restarts":1,"sat_calls":5,"pre_units_fixed":9,"#,
        r#""pre_clauses_removed":3,"assertions_discharged":2,"cnf_vars_saved":11,"cubes_learned":4,"#,
        r#""cube_assignments":13,"binary_propagations":119,"glue_restarts":120,"glue_core":121,"#,
        r#""glue_mid":122,"glue_local":123,"subsumed_clauses":124,"strengthened_clauses":125,"#,
        r#""vivified_clauses":126,"sql_assertions_checked":127,"second_order_flows_found":128,"#,
        r#""flow_discharged":129,"ssa_phis":130,"summaries_computed":131,"contexts_cloned":132}]}"#,
    );

    #[test]
    fn json_is_parseable_and_complete() {
        let m = sample();
        let v = json::parse(&m.to_json()).expect("valid JSON");
        assert_eq!(v.get("workers").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("cache_hits").and_then(Value::as_u64), Some(1));
        let files = v.get("files").and_then(Value::as_arr).unwrap();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].get("worker"), Some(&Value::Null));
        assert_eq!(files[1].get("conflicts").and_then(Value::as_u64), Some(17));
        assert_eq!(
            files[1].get("pre_units_fixed").and_then(Value::as_u64),
            Some(9)
        );
        assert_eq!(
            files[1]
                .get("assertions_discharged")
                .and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            v.get("total_cnf_vars_saved").and_then(Value::as_u64),
            Some(11)
        );
        assert_eq!(
            v.get("total_cube_assignments").and_then(Value::as_u64),
            Some(13)
        );
        assert_eq!(
            files[1].get("cubes_learned").and_then(Value::as_u64),
            Some(4)
        );
        for (name, value) in m.files[1].work.iter() {
            assert_eq!(files[1].get(name).and_then(Value::as_u64), Some(value));
            let total = format!("total_{name}");
            assert_eq!(v.get(&total).and_then(Value::as_u64), Some(value));
        }
    }
}
