//! # dfp-core — the frequent pattern-based classification framework
//!
//! The paper's primary contribution (§3): a three-step pipeline
//!
//! 1. **feature generation** — mine closed frequent patterns per class
//!    partition at `min_sup` (set explicitly or derived from an
//!    information-gain threshold via the Eq. 8 strategy);
//! 2. **feature selection** — MMRFS (or an ablation selector) singles out
//!    discriminative, non-redundant patterns;
//! 3. **model learning** — transform `D` into `D'` over `I ∪ Fs` and train
//!    any classifier (SVM, C4.5, naive Bayes, k-NN).
//!
//! [`PatternClassifier`] runs the whole pipeline — including supervised
//! discretization fitted on the training fold only — and predicts on raw
//! datasets. [`FrameworkConfig`] has constructors for the paper's five
//! experimental variants (`Item_All`, `Item_FS`, `Item_RBF`, `Pat_All`,
//! `Pat_FS`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod pipeline;

pub use config::{DiscretizerKind, FeatureMode, FrameworkConfig, ModelKind, SelectionStrategy};
/// Re-export: the mining backend selector, so callers can pick a backend
/// without a direct mining dependency.
pub use dfp_mining::per_class::MinerKind;
pub use error::FrameworkError;
pub use pipeline::{
    cross_validate_framework, fit_with_model_selection, DegradationReport, FitInfo, FrameworkCv,
    PatternClassifier, TrainedModel,
};
