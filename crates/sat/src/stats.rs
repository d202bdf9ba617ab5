use std::fmt;

/// Counters describing the work a [`Solver`](crate::Solver) has done.
///
/// The benchmark harness reports these alongside wall-clock times so the
/// encoding experiments (paper §3.3.1 vs §3.3.2) can attribute blowups
/// to propagation and conflict counts rather than constant factors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SolverStats {
    /// `solve`/`solve_with_assumptions` calls.
    pub solves: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Literals propagated through the binary implication lists (a
    /// subset of `propagations` that never touched the clause arena).
    pub binary_propagations: u64,
    /// Conflicts found.
    pub conflicts: u64,
    /// Learned clauses currently retained.
    pub learnt_clauses: u64,
    /// Learned clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Restarts triggered by the glue EMA (recent LBD running high vs
    /// the long-term average); the rest hit the Luby budget fallback.
    pub glue_restarts: u64,
    /// Literals removed by learned-clause minimization.
    pub minimized_lits: u64,
    /// Learned clauses with LBD ≤ 2 (core tier: kept forever).
    pub glue_core: u64,
    /// Learned clauses with LBD 3–6 (mid tier: reduced by activity).
    pub glue_mid: u64,
    /// Learned clauses with LBD > 6 (local tier: aggressively reduced).
    pub glue_local: u64,
    /// Live learned clauses in the core tier after the last reduction.
    pub tier_core_size: u64,
    /// Live learned clauses in the mid tier after the last reduction.
    pub tier_mid_size: u64,
    /// Live learned clauses in the local tier after the last reduction.
    pub tier_local_size: u64,
    /// Clauses deleted by backward subsumption during inprocessing.
    pub subsumed_clauses: u64,
    /// Clauses strengthened by self-subsuming resolution.
    pub strengthened_clauses: u64,
    /// Clauses shortened by vivification.
    pub vivified_clauses: u64,
    /// Root-level inprocessing rounds run between restarts.
    pub inprocessing_rounds: u64,
    /// Root-level units fixed by `add_formula` preprocessing.
    pub pre_units_fixed: u64,
    /// Clauses removed by `add_formula` preprocessing (tautologies and
    /// clauses satisfied at the root level).
    pub pre_clauses_removed: u64,
    /// False literals stripped from clauses by `add_formula`
    /// preprocessing.
    pub pre_lits_removed: u64,
    /// Calls to [`Solver::shrink_cube`](crate::Solver::shrink_cube).
    pub cube_shrink_calls: u64,
    /// Literals dropped from cubes by
    /// [`Solver::shrink_cube`](crate::Solver::shrink_cube).
    pub cube_lits_dropped: u64,
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "solves={} decisions={} propagations={} binary_props={} conflicts={} restarts={} glue_restarts={} learnt={} deleted={} minimized={} glue={}:{}:{} tiers={}/{}/{} subsumed={} strengthened={} vivified={} inproc_rounds={} pre_units={} pre_clauses={} pre_lits={} cube_shrinks={} cube_lits_dropped={}",
            self.solves,
            self.decisions,
            self.propagations,
            self.binary_propagations,
            self.conflicts,
            self.restarts,
            self.glue_restarts,
            self.learnt_clauses,
            self.deleted_clauses,
            self.minimized_lits,
            self.glue_core,
            self.glue_mid,
            self.glue_local,
            self.tier_core_size,
            self.tier_mid_size,
            self.tier_local_size,
            self.subsumed_clauses,
            self.strengthened_clauses,
            self.vivified_clauses,
            self.inprocessing_rounds,
            self.pre_units_fixed,
            self.pre_clauses_removed,
            self.pre_lits_removed,
            self.cube_shrink_calls,
            self.cube_lits_dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = SolverStats::default();
        assert_eq!(s.decisions, 0);
        assert_eq!(s.conflicts, 0);
        assert_eq!(s.binary_propagations, 0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(SolverStats::default().to_string().contains("decisions=0"));
    }
}
