//! Work counters, each declared once.
//!
//! Every counter a check reports is one row of the table at the bottom
//! of this file. The table generates [`XbmcStats`] (one field per row),
//! its arithmetic, and [`COUNTERS`], the metadata every output walks:
//! the engine's live totals, the per-file and total `--metrics-json`
//! keys, and the Prometheus exposition behind `GET /metrics`. Adding a
//! counter takes one row here plus the line that computes its value.

/// How a counter's value evolves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Only ever grows: work done.
    Counter,
    /// A level (a size) that can also shrink.
    Gauge,
}

impl Kind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// A Prometheus metric family that one or more counters export to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Family {
    /// Metric name.
    pub name: &'static str,
    /// Label key telling the family's samples apart; `None` for a
    /// family with a single unlabeled sample.
    pub label: Option<&'static str>,
    /// `# HELP` text.
    pub help: &'static str,
}

/// One row of the counter table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter {
    /// The [`XbmcStats`] field, which is also the `--metrics-json` key.
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// The Prometheus family the counter is exported to, if any.
    pub family: Option<Family>,
    /// The counter's label value within its family; the rows of an
    /// unlabeled family are summed into its one sample.
    pub label: Option<&'static str>,
}

const SOLVER_EVENTS: Family = Family {
    name: "webssari_engine_solver_events_total",
    label: Some("kind"),
    help: "Cumulative SAT solver activity by kind.",
};
const SCREENING: Family = Family {
    name: "webssari_engine_screening_total",
    label: Some("kind"),
    help: "Static screening activity: assertions discharged before SAT \
           and CNF variables saved by cone slicing.",
};
const ENUMERATION: Family = Family {
    name: "webssari_engine_enumeration_total",
    label: Some("kind"),
    help: "ALLSAT cube generalization: blocking cubes learned and \
           counterexamples materialized by expanding them.",
};
const BINARY_PROPAGATIONS: Family = Family {
    name: "webssari_sat_binary_propagations_total",
    label: None,
    help: "Propagations served by the solver's binary implication \
           lists (a subset of solver propagations that never touched \
           the clause arena).",
};
const GLUE_RESTARTS: Family = Family {
    name: "webssari_sat_glue_restarts_total",
    label: None,
    help: "Restarts triggered by the glue EMA rather than the Luby budget.",
};
const GLUE_TIER: Family = Family {
    name: "webssari_sat_glue_tier_total",
    label: Some("tier"),
    help: "Learned clauses by glue tier at learn time: core (LBD <= 2, \
           kept forever), mid (LBD 3-6, reduced by activity), local \
           (LBD > 6, aggressively reduced).",
};
const INPROCESSING_REMOVED: Family = Family {
    name: "webssari_sat_inprocessing_removed_total",
    label: None,
    help: "Clauses removed by root-level inprocessing (backward \
           subsumption, self-subsuming strengthening, vivification).",
};
const SQL_ASSERTIONS: Family = Family {
    name: "webssari_engine_sql_assertions_total",
    label: None,
    help: "Assertions checked with SQL query-structure semantics.",
};
const SECOND_ORDER_FLOWS: Family = Family {
    name: "webssari_engine_second_order_flows_total",
    label: None,
    help: "Violations whose counterexample trace reads a cross-request \
           store cell (second-order taint).",
};
const FLOW: Family = Family {
    name: "webssari_engine_flow_total",
    label: Some("kind"),
    help: "Flow-sensitive SSA tier activity: flow-clean discharges, \
           phi functions placed, interprocedural summaries computed, \
           and polymorphic call-site clones.",
};

macro_rules! some {
    () => {
        None
    };
    ($x:expr) => {
        Some($x)
    };
}

/// The work between two readings of one solver counter: a difference
/// for a counter, and for a gauge a difference that saturates at zero,
/// since a cloned solver's reduction can leave it below its base.
macro_rules! delta {
    (Counter, $now:expr, $base:expr) => {
        $now - $base
    };
    (Gauge, $now:expr, $base:expr) => {
        $now.saturating_sub($base)
    };
}

/// Generates [`XbmcStats`] and [`COUNTERS`] from the table. A row is
/// `field: type, kind[, FAMILY["label"]][ <- solver_field];` — the
/// optional `<- f` absorbs `sat::SolverStats::f`.
macro_rules! work_counters {
    ($(
        $(#[doc = $doc:literal])*
        $field:ident: $ty:ident, $kind:ident
        $(, $family:ident $([$label:literal])?)?
        $(<- $src:ident)?;
    )*) => {
        /// Work counters for one verification run, in table order.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        #[non_exhaustive]
        pub struct XbmcStats {
            $( $(#[doc = $doc])* pub $field: $ty, )*
        }

        /// The counter table, one row per [`XbmcStats`] field in
        /// declaration order. Rows sharing a family are adjacent, in
        /// exposition order.
        pub const COUNTERS: [Counter; XbmcStats::LEN] = [$(
            Counter {
                name: stringify!($field),
                kind: Kind::$kind,
                family: some!($($family)?),
                label: some!($($($label)?)?),
            },
        )*];

        impl XbmcStats {
            /// Number of counters.
            pub const LEN: usize = [$(stringify!($field)),*].len();

            /// Every counter's value, in table order.
            pub fn values(&self) -> [u64; Self::LEN] {
                [$(self.$field as u64),*]
            }

            /// The inverse of [`XbmcStats::values`].
            pub fn from_values(values: [u64; Self::LEN]) -> Self {
                let [$($field),*] = values;
                XbmcStats { $($field: $field as $ty),* }
            }

            /// Adds every counter of `other` to this one.
            pub fn add(&mut self, other: &XbmcStats) {
                $(self.$field += other.$field;)*
            }

            /// Folds the work a solver did since `base` into this
            /// check's totals. `base` is a reading of the solver this
            /// one was cloned from, whose own work was already
            /// absorbed, or `SolverStats::default()` for a fresh one.
            pub(crate) fn absorb(&mut self, s: &sat::SolverStats, base: &sat::SolverStats) {
                $($(self.$field += delta!($kind, s.$src, base.$src);)?)*
            }
        }
    };
}

impl XbmcStats {
    /// `(name, value)` for every counter, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        COUNTERS.iter().map(|c| c.name).zip(self.values())
    }
}

work_counters! {
    /// CNF variables in the encoded program.
    cnf_vars: usize, Gauge;
    /// CNF clauses in the encoded program.
    cnf_clauses: usize, Gauge;
    /// Assertions whose enumeration hit the per-assert cap.
    truncated_assertions: usize, Counter;
    /// Live core-tier clauses after the last database reduction,
    /// summed over solvers.
    tier_core_size: u64, Gauge <- tier_core_size;
    /// Live mid-tier clauses after the last database reduction.
    tier_mid_size: u64, Gauge <- tier_mid_size;
    /// Live local-tier clauses after the last database reduction.
    tier_local_size: u64, Gauge <- tier_local_size;
    /// Root-level inprocessing rounds run between restarts.
    inprocessing_rounds: u64, Counter <- inprocessing_rounds;
    /// Long-lived certificate provers created (at most one per
    /// program: the certify path shares a single proof-logging solver
    /// across every held assertion instead of cloning per assertion).
    certify_provers: u64, Counter;
    /// Total solver conflicts across every solver this check used.
    conflicts: u64, Counter, SOLVER_EVENTS["conflicts"] <- conflicts;
    /// Total solver decisions.
    decisions: u64, Counter, SOLVER_EVENTS["decisions"] <- decisions;
    /// Total solver unit propagations.
    propagations: u64, Counter, SOLVER_EVENTS["propagations"] <- propagations;
    /// Total solver restarts.
    restarts: u64, Counter, SOLVER_EVENTS["restarts"] <- restarts;
    /// SAT solver invocations.
    sat_calls: usize, Counter, SOLVER_EVENTS["calls"];
    /// Root-level units fixed by formula preprocessing.
    pre_units_fixed: u64, Counter, SOLVER_EVENTS["pre_units_fixed"] <- pre_units_fixed;
    /// Clauses removed by formula preprocessing (tautologies and
    /// root-satisfied clauses).
    pre_clauses_removed: u64, Counter, SOLVER_EVENTS["pre_clauses_removed"]
        <- pre_clauses_removed;
    /// Assertions discharged statically before encoding (filled by the
    /// screening tier in `webssari-core`; always 0 for a bare check).
    assertions_discharged: u64, Counter, SCREENING["assertions_discharged"];
    /// CNF variables the cone-of-influence slice removed relative to
    /// encoding the full program (filled by the screening tier).
    cnf_vars_saved: u64, Counter, SCREENING["cnf_vars_saved"];
    /// Generalized blocking cubes learned by ALLSAT enumeration (one
    /// per satisfiable solver answer on the renaming path).
    cubes_learned: u64, Counter, ENUMERATION["cubes_learned"] <- cube_shrink_calls;
    /// Counterexamples materialized by expanding those cubes back to
    /// full branch assignments. `cube_assignments / cubes_learned` is
    /// the mean cover per cube; > 1 means generalization pruned solver
    /// calls.
    cube_assignments: u64, Counter, ENUMERATION["cube_assignments"];
    /// Propagations served by the binary implication lists (a subset
    /// of `propagations` that never touched the clause arena).
    binary_propagations: u64, Counter, BINARY_PROPAGATIONS <- binary_propagations;
    /// Restarts triggered by the glue EMA rather than the Luby budget.
    glue_restarts: u64, Counter, GLUE_RESTARTS <- glue_restarts;
    /// Learned clauses with LBD ≤ 2 (core tier).
    glue_core: u64, Counter, GLUE_TIER["core"] <- glue_core;
    /// Learned clauses with LBD 3–6 (mid tier).
    glue_mid: u64, Counter, GLUE_TIER["mid"] <- glue_mid;
    /// Learned clauses with LBD > 6 (local tier).
    glue_local: u64, Counter, GLUE_TIER["local"] <- glue_local;
    /// Clauses deleted by backward subsumption during root-level
    /// inprocessing.
    subsumed_clauses: u64, Counter, INPROCESSING_REMOVED <- subsumed_clauses;
    /// Clauses strengthened by self-subsuming resolution.
    strengthened_clauses: u64, Counter, INPROCESSING_REMOVED <- strengthened_clauses;
    /// Clauses shortened by vivification.
    vivified_clauses: u64, Counter, INPROCESSING_REMOVED <- vivified_clauses;
    /// Assertions carrying SQL-structured sink preconditions
    /// (`AssertKind::SqlStructure`; filled by `webssari-core`).
    sql_assertions_checked: u64, Counter, SQL_ASSERTIONS;
    /// Violated assertions whose error trace flows through a store
    /// cell — second-order (stored) taint (filled by `webssari-core`).
    second_order_flows_found: u64, Counter, SECOND_ORDER_FLOWS;
    /// Assertions discharged by the flow-sensitive SSA tier with a
    /// `flow-clean` proof (filled by the two-stage screening tier in
    /// `webssari-core`; always 0 for a bare check).
    flow_discharged: u64, Counter, FLOW["flow_discharged"];
    /// φ-functions placed while building the pruned SSA form of the
    /// checked program (filled by `webssari-core`).
    ssa_phis: u64, Counter, FLOW["ssa_phis"];
    /// Interprocedural function summaries computed bottom-up over the
    /// call graph (filled by `webssari-core`).
    summaries_computed: u64, Counter, FLOW["summaries_computed"];
    /// Call-site clones materialized for taint-polymorphic callees
    /// (filled by `webssari-core`).
    contexts_cloned: u64, Counter, FLOW["contexts_cloned"];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_add_in_table_order() {
        let values = std::array::from_fn(|i| i as u64 + 1);
        let mut stats = XbmcStats::from_values(values);
        assert_eq!(stats.values(), values);
        assert_eq!(stats.iter().next(), Some(("cnf_vars", 1)));
        assert_eq!(stats.iter().last(), Some(("contexts_cloned", 33)));
        stats.add(&XbmcStats::from_values(values));
        assert_eq!(stats.values(), values.map(|v| 2 * v));
    }

    #[test]
    fn absorb_takes_differences_and_saturates_gauges() {
        let mut base = sat::SolverStats::default();
        base.conflicts = 4;
        base.tier_core_size = 9;
        let mut now = base;
        now.conflicts = 10;
        now.tier_core_size = 3;
        now.cube_shrink_calls = 2;
        let mut stats = XbmcStats::default();
        stats.absorb(&now, &base);
        assert_eq!(stats.conflicts, 6);
        assert_eq!(stats.tier_core_size, 0);
        assert_eq!(stats.cubes_learned, 2);
    }
}
