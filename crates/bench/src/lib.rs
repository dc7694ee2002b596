//! # dirq-bench — the reproduction harness
//!
//! One binary per figure/result of the paper's evaluation (Section 5 and
//! Section 7), plus Criterion microbenchmarks of the hot data structures.
//!
//! | Paper artefact | Binary | What it prints |
//! |---|---|---|
//! | Fig. 5a/5b (accuracy vs fixed δ) | `fig5_accuracy` | the four percentage series for δ = 1..9 %, at 40 % and 60 % relevance |
//! | Fig. 6 (update traffic vs time) | `fig6_updates` | updates per 100 epochs for δ = 3/5/9 % and ATC, with the Umax/hr band lines |
//! | Fig. 7 (overshoot vs time) | `fig7_overshoot` | per-interval overshoot for δ = 3/5/9 % and ATC at 20 % relevance |
//! | Section 5 worked example + Eqs. 3–9 | `tab_analytic` | closed-form cost tables and simulated validation |
//! | §1/§7 headline (45–55 % of flooding) | `cost_ratio` | measured DirQ/flooding cost ratios |
//! | design-choice sensitivity (DESIGN.md §6) | `ablations` | update rule / tree / world / sampling / MAC perturbations |
//!
//! (`probe` is a development-time calibration scratchpad, not a published
//! figure.)
//!
//! Every binary accepts `--epochs N`, `--seed S` and `--quick` (a short
//! 4 000-epoch run for smoke testing); defaults reproduce the paper's
//! 20 000-epoch setup. Output is an aligned table plus machine-readable
//! CSV blocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod matrix;
