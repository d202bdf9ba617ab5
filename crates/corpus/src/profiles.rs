//! Project profiles: Figure 10 verbatim, plus the rest of the 230.

/// How much filler the generator adds around the calibrated
/// vulnerability structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CorpusScale {
    /// Minimal padding; fast enough for unit tests.
    #[default]
    Small,
    /// Paper scale: 11,848 files and 1,140,091 statements across the
    /// 230 projects.
    Full,
}

/// A project's calibration parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProjectProfile {
    /// Project name (Figure 10 names for the 38 acknowledged ones).
    pub name: String,
    /// SourceForge activity percentile (the table's "A" column).
    pub activity: u8,
    /// TS-reported errors (vulnerable statements) to reproduce.
    pub ts_errors: usize,
    /// BMC-reported error groups (root causes) to reproduce.
    pub bmc_groups: usize,
    /// Deterministic generation seed.
    pub seed: u64,
    /// Number of PHP files to generate (pages + lib + data files).
    pub num_files: usize,
    /// Number of page files that carry vulnerability groups (0 for
    /// clean projects, which still get one clean page).
    pub vuln_pages: usize,
    /// Statement count target for the whole project (0 = no padding).
    pub statements_target: usize,
}

/// Figure 10 rows: `(name, activity, TS-reported, BMC-reported)` for
/// the 38 projects whose developers acknowledged the findings.
///
/// Transcription note: the BMC column of the scanned table sums to the
/// paper's stated total (578) exactly, but the TS column sums to 969
/// against the stated 980. The 11 missing symptoms are attributed here
/// to the largest row, PHP Surveyor (169 → 180), so the per-project
/// table remains consistent with the paper's headline totals
/// (980 vs 578, a 41.0% reduction).
pub const FIGURE10_ROWS: [(&str, u8, usize, usize); 38] = [
    ("GBook MX", 60, 4, 2),
    ("AthenaRMS", 0, 3, 2),
    ("PHPCodeCabinet", 71, 25, 25),
    ("BolinOS", 94, 3, 3),
    ("PHP Surveyor", 99, 180, 90),
    ("Booby", 90, 5, 4),
    ("ByteHoard", 98, 2, 2),
    ("PHPRecipeBook", 99, 11, 8),
    ("phpLDAPadmin", 97, 25, 13),
    ("Segue CMS", 77, 11, 9),
    ("Moregroupware", 99, 7, 7),
    ("iNuke", 0, 3, 3),
    ("InfoCentral", 82, 206, 57),
    ("WebMovieDB", 24, 7, 5),
    ("TestLink", 88, 69, 48),
    ("Crafty Syntax Live Help", 96, 16, 1),
    ("ILIAS open source", 20, 2, 2),
    ("PHP Multiple Newsletters", 68, 30, 30),
    ("International Suspect Vigilance Nexus", 0, 20, 12),
    ("SquirrelMail", 99, 7, 7),
    ("PHPMyList", 69, 10, 4),
    ("EGroupWare", 99, 4, 4),
    ("PHPFriendlyAdmin", 87, 16, 16),
    ("PHP Helpdesk", 87, 1, 1),
    ("Media Mate", 0, 53, 16),
    ("Obelus Helpdesk", 22, 8, 6),
    ("eDreamers", 80, 7, 1),
    ("Mad.Thought", 66, 4, 4),
    ("PHPLetter", 79, 23, 23),
    ("WebArchive", 2, 7, 2),
    ("Nalanda", 58, 27, 8),
    ("Site@School", 94, 46, 40),
    ("PHPList", 0, 16, 1),
    ("PHPPgAdmin", 98, 3, 3),
    ("Anonymous Mailer", 73, 7, 7),
    ("PHP Support Tickets", 0, 40, 40),
    ("Norfolk Household Financial Manager", 0, 60, 60),
    ("Tiki CMS Groupware", 99, 12, 12),
];

/// Paper §5 corpus statistics reproduced by the full-scale corpus.
pub mod paper_stats {
    /// Projects sampled from SourceForge.
    pub const PROJECTS: usize = 230;
    /// PHP files across the corpus.
    pub const FILES: usize = 11_848;
    /// Statements across the corpus.
    pub const STATEMENTS: usize = 1_140_091;
    /// Projects identified as having defective code.
    pub const VULNERABLE_PROJECTS: usize = 69;
    /// Developers who acknowledged the findings.
    pub const ACKNOWLEDGED: usize = 38;
    /// Files identified as vulnerable by TS.
    pub const VULNERABLE_FILES: usize = 515;
    /// TS-reported errors over the acknowledged projects.
    pub const TS_ERRORS: usize = 980;
    /// BMC-reported error groups over the acknowledged projects.
    pub const BMC_GROUPS: usize = 578;
}

/// The 38 acknowledged-project profiles of Figure 10.
pub fn figure10_profiles() -> Vec<ProjectProfile> {
    FIGURE10_ROWS
        .iter()
        .enumerate()
        .map(|(i, &(name, activity, ts, bmc))| {
            let num_files = (bmc / 6 + 2).min(12);
            ProjectProfile {
                name: name.to_owned(),
                activity,
                ts_errors: ts,
                bmc_groups: bmc,
                seed: 0xF16_0010 + i as u64,
                num_files,
                vuln_pages: (num_files - 1).min(bmc).max(1),
                statements_target: 0,
            }
        })
        .collect()
}

/// All 230 project profiles (38 acknowledged + 31 unacknowledged
/// vulnerable + 161 clean), with file and statement targets set by the
/// scale.
pub(crate) fn sourceforge_230_profiles(scale: CorpusScale) -> Vec<ProjectProfile> {
    let mut out = figure10_profiles();
    // 31 vulnerable projects whose developers did not respond: modest
    // error counts (deterministic spread).
    for i in 0..31usize {
        let ts = 2 + (i * 7) % 11;
        let bmc = 1 + ((ts - 1) * ((i % 3) + 1)) / 3;
        out.push(ProjectProfile {
            name: format!("unacknowledged-{:02}", i + 1),
            activity: ((i * 13) % 100) as u8,
            ts_errors: ts,
            bmc_groups: bmc.min(ts),
            seed: 0xACE_0000 + i as u64,
            num_files: 3,
            vuln_pages: 2.min(bmc.min(ts)),
            statements_target: 0,
        });
    }
    // 161 clean projects.
    for i in 0..161 {
        out.push(ProjectProfile {
            name: format!("clean-{:03}", i + 1),
            activity: ((i * 31) % 100) as u8,
            ts_errors: 0,
            bmc_groups: 0,
            seed: 0xC1EA_0000 + i as u64,
            num_files: 2,
            vuln_pages: 0,
            statements_target: 0,
        });
    }
    debug_assert_eq!(out.len(), paper_stats::PROJECTS);
    // Allocate the paper's 515 vulnerable files across the 69
    // vulnerable projects, proportional to their group counts and
    // capped so every page carries at least one group.
    let total_groups: usize = out.iter().map(|p| p.bmc_groups).sum();
    let mut allocated = 0usize;
    for p in out.iter_mut() {
        if p.bmc_groups == 0 {
            p.vuln_pages = 0;
            continue;
        }
        let share =
            (p.bmc_groups * paper_stats::VULNERABLE_FILES / total_groups).clamp(1, p.bmc_groups);
        p.vuln_pages = share;
        allocated += share;
    }
    // Distribute the rounding remainder to projects with slack.
    let mut remainder = paper_stats::VULNERABLE_FILES.saturating_sub(allocated);
    while remainder > 0 {
        let mut progressed = false;
        for p in out.iter_mut() {
            if remainder == 0 {
                break;
            }
            if p.bmc_groups > p.vuln_pages {
                p.vuln_pages += 1;
                remainder -= 1;
                progressed = true;
            }
        }
        assert!(progressed, "cannot place all vulnerable files");
    }
    for p in out.iter_mut() {
        p.num_files = p.num_files.max(p.vuln_pages + 1);
    }
    if scale == CorpusScale::Full {
        // Distribute the paper's file and statement totals across
        // projects exactly, weighted so bigger projects get more of
        // both. Each project already needs its structural files
        // (pages + lib); the surplus becomes data files.
        let base: usize = out.iter().map(|p| p.num_files).sum();
        let surplus_files = paper_stats::FILES.saturating_sub(base);
        let weights: Vec<usize> = (0..out.len()).map(|i| 1 + (i * 37) % 17).collect();
        let total_weight: usize = weights.iter().sum();
        let n = out.len();
        let mut files_given = 0usize;
        let mut stmts_given = 0usize;
        for (i, p) in out.iter_mut().enumerate() {
            let (extra_files, stmts) = if i + 1 == n {
                (
                    surplus_files - files_given,
                    paper_stats::STATEMENTS - stmts_given,
                )
            } else {
                (
                    surplus_files * weights[i] / total_weight,
                    paper_stats::STATEMENTS * weights[i] / total_weight,
                )
            };
            p.num_files += extra_files;
            p.statements_target = stmts;
            files_given += extra_files;
            stmts_given += stmts;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure10_row_totals() {
        let ts: usize = FIGURE10_ROWS.iter().map(|r| r.2).sum();
        let bmc: usize = FIGURE10_ROWS.iter().map(|r| r.3).sum();
        assert_eq!(ts, paper_stats::TS_ERRORS);
        assert_eq!(bmc, paper_stats::BMC_GROUPS);
    }

    #[test]
    fn every_row_has_ts_at_least_bmc() {
        for &(name, _, ts, bmc) in &FIGURE10_ROWS {
            assert!(ts >= bmc, "{name}: groups cannot exceed symptoms");
            assert!(bmc >= 1, "{name}: acknowledged projects are vulnerable");
        }
    }

    #[test]
    fn profiles_are_deterministic() {
        assert_eq!(figure10_profiles(), figure10_profiles());
        let a = sourceforge_230_profiles(CorpusScale::Small);
        let b = sourceforge_230_profiles(CorpusScale::Small);
        assert_eq!(a, b);
    }

    #[test]
    fn full_scale_distributes_files_and_statements_exactly() {
        let profiles = sourceforge_230_profiles(CorpusScale::Full);
        let files: usize = profiles.iter().map(|p| p.num_files).sum();
        let stmts: usize = profiles.iter().map(|p| p.statements_target).sum();
        assert_eq!(files, paper_stats::FILES);
        assert_eq!(stmts, paper_stats::STATEMENTS);
    }

    #[test]
    fn vulnerable_file_allocation_matches_paper() {
        let profiles = sourceforge_230_profiles(CorpusScale::Small);
        let vuln_files: usize = profiles.iter().map(|p| p.vuln_pages).sum();
        assert_eq!(vuln_files, paper_stats::VULNERABLE_FILES);
        for p in &profiles {
            assert!(
                p.vuln_pages <= p.bmc_groups || p.bmc_groups == 0,
                "{}: every vulnerable page needs a group",
                p.name
            );
            assert!(p.num_files > p.vuln_pages);
        }
    }

    #[test]
    fn corpus_has_69_vulnerable_projects() {
        let profiles = sourceforge_230_profiles(CorpusScale::Small);
        let vulnerable = profiles.iter().filter(|p| p.bmc_groups > 0).count();
        assert_eq!(vulnerable, paper_stats::VULNERABLE_PROJECTS);
    }
}
