//! The in-process phases: project-by-project batch verification through
//! `Engine::run` (cold, then warm from each project's cache dir), and
//! the Figure 10 verify → `instrument_bmc` → re-verify round.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use corpus::GeneratedProject;
use php_front::SourceSet;
use webssari_core::{instrument_bmc, FileOutcome, FileReport, FileSummary};
use webssari_engine::{Engine, EngineReport};

/// Deterministic work counts and the report fingerprint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Work {
    pub counts: BTreeMap<&'static str, u64>,
}

impl Work {
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    /// Counts one freshly verified file.
    pub fn add_report(&mut self, r: &FileReport) {
        self.add("work.stmts", r.num_statements as u64);
        self.add("work.assertions", r.bmc.checked_assertions as u64);
        self.add("work.cnf_vars", r.bmc.stats.cnf_vars as u64);
        self.add("work.cnf_clauses", r.bmc.stats.cnf_clauses as u64);
        self.add("work.sat_calls", r.bmc.stats.sat_calls as u64);
        self.add("work.conflicts", r.bmc.stats.conflicts);
        self.add("work.counterexamples", r.bmc.counterexamples.len() as u64);
        self.add("work.bmc_groups", r.bmc_instrumentations() as u64);
    }
}

/// FNV-1a over a canonical text, folded into a running fingerprint.
pub fn fold(h: u64, text: &str) -> u64 {
    webssari_engine::hash::combine(h, webssari_engine::hash::fnv1a_64(text.as_bytes()))
}

/// The canonical text of one file summary.
pub fn summary_text(s: &FileSummary) -> String {
    webssari_engine::summary_to_value(s).to_json()
}

/// Failed checks, counted against the operations they cover.
#[derive(Debug, Default)]
pub struct Oracle {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Oracle {
    pub fn check(&mut self, ok: bool, ops: u64, note: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops.max(1);
            if self.notes.len() < 20 {
                self.notes.push(note());
            }
        }
    }

    pub fn absorb(&mut self, other: Oracle) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes.into_iter().take(20));
    }
}

/// What a project set must produce when verified.
pub struct Expect {
    pub projects: usize,
    /// `None` where the paper states no file count (checked against the
    /// generated input instead).
    pub files: Option<usize>,
    pub vulnerable_projects: usize,
    pub ts_errors: usize,
    pub bmc_groups: usize,
}

/// §5: the full 230-project corpus.
pub const CORPUS: Expect = Expect {
    projects: corpus::paper_stats::PROJECTS,
    files: Some(corpus::paper_stats::FILES),
    vulnerable_projects: corpus::paper_stats::VULNERABLE_PROJECTS,
    ts_errors: 1_195,
    bmc_groups: 722,
};

/// Figure 10: the 38 acknowledged projects.
pub const FIG10: Expect = Expect {
    projects: corpus::paper_stats::ACKNOWLEDGED,
    files: None,
    vulnerable_projects: corpus::paper_stats::ACKNOWLEDGED,
    ts_errors: corpus::paper_stats::TS_ERRORS,
    bmc_groups: corpus::paper_stats::BMC_GROUPS,
};

fn engine(workers: usize, cache: Option<&Path>) -> Engine {
    let b = Engine::builder().workers(workers);
    match cache {
        Some(dir) => b.cache_dir(dir).build(),
        None => b.build(),
    }
}

/// One cold + warm batch pass, timed per `Engine::run` call.
pub struct BatchPass {
    pub cold: Duration,
    pub warm: Duration,
    pub oracle: Oracle,
    pub work: Work,
    pub fingerprint: u64,
}

/// Verifies every project (in `order`) with its own cache dir under
/// `dir`, then re-verifies them all unchanged from those caches.
pub fn batch_pass(
    projects: &[GeneratedProject],
    order: &[usize],
    expect: &Expect,
    workers: usize,
    dir: &Path,
) -> BatchPass {
    let cache = |i: usize| dir.join(format!("p{i:03}"));
    let mut pass = BatchPass {
        cold: Duration::ZERO,
        warm: Duration::ZERO,
        oracle: Oracle::default(),
        work: Work::default(),
        fingerprint: 0,
    };
    let mut cold: Vec<Vec<FileSummary>> = vec![Vec::new(); projects.len()];
    for &i in order {
        let t = Instant::now();
        let report = engine(workers, Some(&cache(i))).run(&projects[i].sources);
        pass.cold += t.elapsed();
        for f in &report.files {
            if let Some(r) = &f.report {
                pass.work.add_report(r);
            }
        }
        check_project(&mut pass.oracle, &projects[i], &report, false);
        cold[i] = report.files.into_iter().map(|f| f.summary).collect();
    }
    for &i in order {
        let t = Instant::now();
        let report = engine(workers, Some(&cache(i))).run(&projects[i].sources);
        pass.warm += t.elapsed();
        check_project(&mut pass.oracle, &projects[i], &report, true);
        let warm: Vec<FileSummary> = report.files.into_iter().map(|f| f.summary).collect();
        let name = &projects[i].name;
        pass.oracle.check(warm == cold[i], 0, || {
            format!("{name}: warm summaries differ from cold")
        });
    }
    pass.fingerprint = fingerprint(projects, &cold);
    check_totals(&mut pass.oracle, projects, &cold, expect);
    pass
}

/// An order-independent fingerprint of per-file summaries (`cold[i]`
/// belongs to `projects[i]`): projects by name, files by name.
pub fn fingerprint(projects: &[GeneratedProject], cold: &[Vec<FileSummary>]) -> u64 {
    let mut by_name: Vec<usize> = (0..projects.len()).collect();
    by_name.sort_by(|&a, &b| projects[a].name.cmp(&projects[b].name));
    let mut h = 0;
    for i in by_name {
        h = fold(h, &projects[i].name);
        for s in &cold[i] {
            h = fold(h, &summary_text(s));
        }
    }
    h
}

/// Per-project checks on one `Engine::run`: every file verified or
/// vulnerable (no parse errors, no timeouts), TS and BMC counts equal
/// the project's calibration, and cache provenance as expected.
fn check_project(o: &mut Oracle, p: &GeneratedProject, r: &EngineReport, warm: bool) {
    let files = r.files.len() as u64 + r.failed_files.len() as u64;
    let name = &p.name;
    o.check(
        r.failed_files.is_empty() && r.timeout_files() == 0 && r.cache_error.is_none(),
        files,
        || {
            format!(
                "{name}: failed {:?}, cache {:?}",
                r.failed_files.first(),
                r.cache_error
            )
        },
    );
    o.check(
        r.ts_errors() == p.expected_ts && r.bmc_groups() == p.expected_bmc,
        0,
        || {
            format!(
                "{name}: TS/BMC {}/{} vs {}/{}",
                r.ts_errors(),
                r.bmc_groups(),
                p.expected_ts,
                p.expected_bmc
            )
        },
    );
    o.check(r.files.iter().all(|f| f.from_cache == warm), 0, || {
        format!("{name}: from_cache should be {warm} on every file")
    });
}

fn check_totals(
    o: &mut Oracle,
    projects: &[GeneratedProject],
    cold: &[Vec<FileSummary>],
    e: &Expect,
) {
    let files: usize = cold.iter().map(Vec::len).sum();
    let input_files: usize = projects.iter().map(|p| p.sources.len()).sum();
    let sum = |f: fn(&FileSummary) -> usize| -> usize { cold.iter().flatten().map(f).sum() };
    let vulnerable = cold
        .iter()
        .filter(|files| files.iter().any(|s| s.outcome == FileOutcome::Vulnerable))
        .count();
    let want_files = e.files.unwrap_or(input_files);
    let got = (
        projects.len(),
        files,
        vulnerable,
        sum(|s| s.ts_errors),
        sum(|s| s.bmc_groups),
    );
    let want = (
        e.projects,
        want_files,
        e.vulnerable_projects,
        e.ts_errors,
        e.bmc_groups,
    );
    o.check(got == want, 0, || {
        format!("totals (projects, files, vulnerable projects, TS, BMC) {got:?} vs {want:?}")
    });
}

/// One verify → patch → re-verify round.
pub struct Round {
    pub wall: Duration,
    pub oracle: Oracle,
    pub guards: u64,
    pub fingerprint: u64,
}

/// Patches every vulnerable file of one verified project with
/// `instrument`; returns the patched set, the patched file names, and
/// the guard count.
pub fn patch_project(
    sources: &SourceSet,
    reports: &[(String, Option<FileReport>)],
    mut instrument: impl FnMut(&str, &FileReport) -> (String, usize),
) -> (SourceSet, Vec<String>, usize) {
    let mut patched = sources.clone();
    let mut names = Vec::new();
    let mut guards = 0;
    for (name, report) in reports {
        let Some(report) = report else { continue };
        if report.outcome != FileOutcome::Vulnerable {
            continue;
        }
        let src = sources
            .file(name)
            .expect("reported files come from the set");
        let (text, n) = instrument(src, report);
        guards += n;
        patched.add_file(name.clone(), text);
        names.push(name.clone());
    }
    (patched, names, guards)
}

fn engine_reports(r: EngineReport) -> Vec<(String, Option<FileReport>)> {
    let mut out: Vec<(String, Option<FileReport>)> = r
        .files
        .into_iter()
        .map(|f| (f.summary.file.clone(), f.report))
        .collect();
    out.extend(r.failed_files.into_iter().map(|(name, _)| (name, None)));
    out
}

/// The paper's §4 loop over every project in `order`: verify through
/// the engine, patch the vulnerable files, re-verify the patched
/// project. Oracles: each project's TS/BMC counts equal its Figure 10
/// row, and every patched file re-verifies non-vulnerable. Each project
/// is checked, outside the timed work, before the next one is verified,
/// so no project's reports outlive its turn.
pub fn patch_round(projects: &[GeneratedProject], order: &[usize], workers: usize) -> Round {
    let mut round = Round {
        wall: Duration::ZERO,
        oracle: Oracle::default(),
        guards: 0,
        fingerprint: 0,
    };
    // The patched texts by project name, folded in name order at the end.
    let mut texts = BTreeMap::new();
    for &i in order {
        let p = &projects[i];
        let started = Instant::now();
        let first = engine(workers, None).run(&p.sources);
        let (ts, bmc) = (first.ts_errors(), first.bmc_groups());
        let (patched, names, guards) =
            patch_project(&p.sources, &engine_reports(first), |src, r| {
                let (text, g) = instrument_bmc(src, r);
                (text, g.len())
            });
        let again = engine(workers, None).run(&patched);
        round.wall += started.elapsed();

        round.guards += guards as u64;
        let files = p.sources.len() as u64;
        round
            .oracle
            .check((ts, bmc) == (p.expected_ts, p.expected_bmc), files, || {
                format!(
                    "{}: TS/BMC {ts}/{bmc} vs Figure 10 {}/{}",
                    p.name, p.expected_ts, p.expected_bmc
                )
            });
        let clean = names.iter().all(|n| {
            again
                .files
                .iter()
                .any(|f| &f.summary.file == n && f.summary.outcome == FileOutcome::Verified)
        });
        round
            .oracle
            .check(clean && again.failed_files.is_empty(), files, || {
                format!("{}: a patched file does not re-verify clean", p.name)
            });
        let text: Vec<String> = names
            .iter()
            .map(|n| patched.file(n).unwrap_or("").to_owned())
            .collect();
        texts.insert(p.name.as_str(), text);
    }
    for (name, text) in texts {
        round.fingerprint = fold(round.fingerprint, name);
        for t in &text {
            round.fingerprint = fold(round.fingerprint, t);
        }
    }
    round
}

/// A fresh directory under `base`.
pub fn fresh_dir(base: &Path, name: &str) -> PathBuf {
    let d = base.join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("benchmark work dir is writable");
    d
}
