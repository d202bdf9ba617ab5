//! The stage mirror: `Verifier::verify_with_lattice` and its store
//! summary pass re-enacted from the benchmark's side, one public
//! function per stage, each call wrapped in a span. The mirror is only
//! trusted while it agrees with the real `Verifier` on every file (the
//! drift guard), so a pipeline change that the mirror misses shows up
//! as a failed guard or lost coverage, never as wrong attributions.

use std::collections::BTreeSet;
use std::sync::Arc;

use php_front::ast::Program;
use php_front::{parse_source, resolve_includes, IncludeError, SourceSet};
use taint_lattice::TwoPoint;
use webssari_core::{FileOutcome, FileReport, Verifier};
use webssari_ir::{
    abstract_interpret_with, filter_program, filter_program_with_stores, is_store_cell,
    FilterOptions, Prelude, StoreSummary,
};
use xbmc::{CheckOptions, CheckResult, EncoderKind, Xbmc};

use crate::trace::Tracer;

/// What the drift guard compares between mirror and real verifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    pub outcome: FileOutcome,
    pub counterexamples: usize,
    pub fix_plan: usize,
}

impl Verdict {
    pub fn of(report: &FileReport) -> Self {
        Verdict {
            outcome: report.outcome,
            counterexamples: report.bmc.counterexamples.len(),
            fix_plan: report.fix_plan.fix_vars.len(),
        }
    }
}

/// The default verifier's configuration, spelled out stage by stage.
pub struct StageMirror {
    prelude: Prelude,
    filter: FilterOptions,
    check: CheckOptions,
    lattice: TwoPoint,
}

impl StageMirror {
    /// Mirrors `Verifier::new()`: default prelude, filter and check
    /// options, the two-point lattice, one loop unrolling, screening on.
    pub fn new() -> Self {
        StageMirror {
            prelude: Prelude::default(),
            filter: FilterOptions::default(),
            check: CheckOptions::default(),
            lattice: TwoPoint::new(),
        }
    }

    /// Include resolution with the verifier's fallbacks: unresolvable
    /// includes degrade to the file alone; anything else is a failure.
    fn resolve(&self, t: &mut Tracer, sources: &SourceSet, entry: &str) -> Option<Program> {
        t.span("php-front.parse", |_| {
            match resolve_includes(sources, entry) {
                Ok(p) => Some(p),
                Err(
                    IncludeError::DynamicIncludePath { .. }
                    | IncludeError::MissingFile { .. }
                    | IncludeError::IncludeCycle(_),
                ) => parse_source(sources.file(entry)?).ok(),
                Err(_) => None,
            }
        })
    }

    /// Pass 1 (`Verifier::compute_store_summary`), run once per batch.
    pub fn store_summary(&self, t: &mut Tracer, sources: &SourceSet) -> StoreSummary {
        t.span("engine.store_summary", |t| {
            let mut summary = StoreSummary::new();
            for (name, src) in sources.iter() {
                let Some(program) = self.resolve(t, sources, name) else {
                    continue;
                };
                let f = t.span("ir.filter", |_| {
                    filter_program(&program, src, name, &self.prelude, &self.filter)
                });
                let ai = t.span("ir.ai", |_| abstract_interpret_with(&f, &self.lattice, 1));
                let state = t.span("typestate.analyze", |_| {
                    typestate::final_state(&ai, &self.lattice)
                });
                for w in &f.store_writes {
                    summary.record(
                        &w.key,
                        state[w.var.index()],
                        &w.site.to_string(),
                        &self.lattice,
                    );
                }
            }
            summary
        })
    }

    /// Pass 2 for one entry file (`Verifier::verify_file` with the
    /// batch's store summary installed). `None` when it fails to parse.
    pub fn verify_file(
        &self,
        t: &mut Tracer,
        sources: &SourceSet,
        entry: &str,
        stores: &StoreSummary,
    ) -> Option<FileReport> {
        t.span("core.verify_file", |t| {
            let src = sources.file(entry)?;
            let program = self.resolve(t, sources, entry)?;
            let lattice = &self.lattice;
            let f = t.span("ir.filter", |_| {
                filter_program_with_stores(
                    &program,
                    src,
                    entry,
                    &self.prelude,
                    &self.filter,
                    stores,
                    lattice,
                )
            });
            let ai = t.span("ir.ai", |_| abstract_interpret_with(&f, lattice, 1));
            let ts = t.span("typestate.analyze", |_| typestate::analyze(&ai, lattice));
            let flow = t.span("analysis.screen", |_| {
                webssari_analysis::screen_two_stage(&ai, &ts, lattice)
            });
            let discharged = flow.screen.discharged.len();
            let mut bmc = t.span("bmc.check", |_| {
                if flow.screen.all_discharged() {
                    CheckResult::default()
                } else {
                    Xbmc::with_options(&flow.refined, self.check.clone()).check_all_with(lattice)
                }
            });
            bmc.checked_assertions += discharged;
            bmc.stats.assertions_discharged = discharged as u64;
            t.span("dataflow.summaries", |_| {
                webssari_dataflow::compute_summaries(
                    &program,
                    &self.prelude,
                    lattice,
                    self.filter.max_inline_depth,
                )
            });
            if discharged > 0 && self.check.encoder == EncoderKind::Renaming {
                let full = t.span("bmc.count_vars", |_| {
                    xbmc::renaming::count_vars(&ai, lattice)
                });
                bmc.stats.cnf_vars_saved = full.saturating_sub(bmc.stats.cnf_vars) as u64;
            }
            t.span("bmc.replay", |_| {
                for cx in &mut bmc.counterexamples {
                    cx.trace = xbmc::replay_trace(&ai, &cx.branches, cx.assert_id);
                }
            });
            let channels: BTreeSet<_> = ai
                .vars
                .iter()
                .filter(|v| {
                    let name = ai.vars.name(*v);
                    self.prelude.is_superglobal(name) || is_store_cell(name)
                })
                .collect();
            let fix_plan = t.span("fixes.plan", |_| {
                fixes::minimal_fixing_set_with(&bmc.counterexamples, &channels, false)
            });
            let outcome = if bmc.interrupted {
                FileOutcome::Timeout
            } else if bmc.is_safe() {
                FileOutcome::Verified
            } else {
                FileOutcome::Vulnerable
            };
            Some(FileReport {
                file: entry.to_owned(),
                num_statements: program.num_statements(),
                ai,
                ts,
                bmc,
                fix_plan,
                vulnerabilities: Vec::new(),
                outcome,
            })
        })
    }

    /// Both passes over a project, in the engine's order.
    pub fn verify_project(
        &self,
        t: &mut Tracer,
        sources: &SourceSet,
    ) -> Vec<(String, Option<FileReport>)> {
        let stores = self.store_summary(t, sources);
        sources
            .iter()
            .map(|(name, _)| (name.to_owned(), self.verify_file(t, sources, name, &stores)))
            .collect()
    }
}

/// The real pipeline over a project, as the engine drives it: one
/// store summary per batch, then `verify_file` per entry.
pub fn real_project(sources: &SourceSet) -> Vec<(String, Option<FileReport>)> {
    let v = Verifier::new();
    let shared = v.with_store_summary(Arc::new(v.compute_store_summary(sources)));
    sources
        .iter()
        .map(|(name, _)| (name.to_owned(), shared.verify_file(sources, name).ok()))
        .collect()
}

/// Each file's verdict (`None` = failed to parse).
pub type Verdicts = Vec<(String, Option<Verdict>)>;

/// Files on which mirror and real verifier disagree.
pub fn drift(mirror: &Verdicts, real: &Verdicts) -> Vec<String> {
    let mut out = Vec::new();
    if mirror.len() != real.len() {
        out.push(format!("file count {} vs {}", mirror.len(), real.len()));
    }
    for ((name, m), (real_name, r)) in mirror.iter().zip(real) {
        if name != real_name || m != r {
            out.push(format!("{name}: mirror {m:?} vs real {real_name} {r:?}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_matches_the_real_verifier_and_the_guard_sees_drift() {
        let mirror = StageMirror::new();
        for p in corpus::Corpus::figure10().projects.iter().take(4) {
            let mut t = Tracer::new(true, std::time::Instant::now());
            let of = |reports: Vec<(String, Option<FileReport>)>| -> Verdicts {
                reports
                    .into_iter()
                    .map(|(n, r)| (n, r.as_ref().map(Verdict::of)))
                    .collect()
            };
            let mirrored = of(mirror.verify_project(&mut t, &p.sources));
            let real = of(real_project(&p.sources));
            assert_eq!(drift(&mirrored, &real), Vec::<String>::new(), "{}", p.name);
            assert!(t.into_spans().iter().any(|s| s.name == "bmc.check"));

            let mut off = real.clone();
            if let Some((_, Some(v))) = off.first_mut() {
                v.counterexamples += 1;
            }
            assert_eq!(drift(&mirrored, &off).len(), 1);
        }
    }
}
