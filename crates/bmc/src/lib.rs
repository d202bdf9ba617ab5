//! xBMC: the SAT-based bounded model checker for WebSSARI abstract
//! interpretations (paper §3.3).
//!
//! Because the abstract interpretation is loop-free, its flow chart is a
//! DAG with a fixed program diameter, so bounded model checking is both
//! *sound* and *complete* here — the two properties the paper leans on.
//! Two encodings are provided:
//!
//! * [`renaming`] — **xBMC 1.0**: Clarke-style variable renaming (an SSA
//!   form without φ-conditions) where each assignment constrains only
//!   the new and previous incarnation of one variable (2 type vectors
//!   per assignment, §3.3.2, Figure 5). This is the production encoder.
//! * [`aux_encoding`] — **xBMC 0.1**: the naive control-flow-graph
//!   encoding with an auxiliary location variable, which copies the
//!   entire state (`2·|X|` type vectors) at every step (§3.3.1). Kept as
//!   an ablation; the paper reports it caused "frequent system
//!   breakdowns", and the benchmark suite reproduces the blowup.
//!
//! Assertions are checked **one at a time**: for each assertion a
//! formula `Bᵢ = C(c, g) ∧ ¬assertᵢ` is built and handed to the SAT
//! solver; every satisfying assignment is a counterexample, and the
//! formula is iteratively restricted by negating each counterexample's
//! nondeterministic-branch values (`BN`) until it becomes unsatisfiable
//! — yielding *all* counterexample traces (§3.3.2).
//!
//! # Examples
//!
//! ```
//! use php_front::parse_source;
//! use webssari_ir::{abstract_interpret, filter_program, FilterOptions, Prelude};
//! use xbmc::Xbmc;
//!
//! let src = "<?php $x = 'ok'; if ($c) { $x = $_GET['q']; } echo $x;";
//! let ast = parse_source(src).unwrap();
//! let f = filter_program(&ast, src, "a.php", &Prelude::standard(), &FilterOptions::default());
//! let ai = abstract_interpret(&f);
//! let result = Xbmc::new(&ai).check_all();
//! assert_eq!(result.counterexamples.len(), 1); // only the tainting path
//! assert_eq!(result.counterexamples[0].branches, vec![true]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aux_encoding;
mod checker;
pub mod counters;
pub mod renaming;
mod trace;
mod typevec;

pub use checker::{Certificate, CheckOptions, CheckResult, EncoderKind, Xbmc};
pub use counters::XbmcStats;
pub use trace::{path_violating_vars, replay_trace, Counterexample, TraceStep};
pub use typevec::TypeVec;
