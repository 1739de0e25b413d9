//! # dfpc — Discriminative Frequent Pattern Classification
//!
//! A from-scratch Rust reproduction of *"Discriminative Frequent Pattern
//! Analysis for Effective Classification"* (Cheng, Yan, Han, Hsu — ICDE
//! 2007). This facade crate re-exports the whole workspace under one roof:
//!
//! * [`data`] — datasets, discretization, transactions, synthetic UCI
//!   profiles, cross-validation splits;
//! * [`mining`] — closed-itemset mining by prefix-preserving closure
//!   extension, Eclat, per-class pattern generation, and the Apriori and
//!   brute-force test oracles;
//! * [`measures`] — information gain, Fisher score, their theoretical
//!   support-dependent upper bounds, and the paper's `min_sup` strategy;
//! * [`select`] — the MMRFS feature-selection algorithm plus baselines and
//!   the feature-space transform;
//! * [`classify`] — linear SVM, RBF-kernel SVM (SMO), C4.5 decision tree,
//!   naive Bayes, k-NN, and the evaluation/cross-validation harness;
//! * [`baselines`] — associative classifiers (CBA-, CMAR- and
//!   HARMONY-style) the paper compares against;
//! * [`core`] — the end-to-end framework: feature generation → feature
//!   selection → model learning, with the paper's experimental variants;
//! * [`model`] — the versioned `DFPM` binary artifact format for saving and
//!   loading fitted classifiers;
//! * [`fault`] — named failpoints (`DFP_FAILPOINTS`) for fault-injection
//!   testing across mining, persistence, and serving;
//! * [`obs`] — structured tracing spans (`DFP_TRACE`), the unified metrics
//!   registry behind `/metrics`, and JSONL event logging (`DFP_LOG`);
//! * [`par`] — the std-only scoped-thread parallel runtime behind mining,
//!   MMRFS, cross-validation, and kernel-SVM and kNN batch scoring
//!   (`DFP_THREADS` to pin);
//! * [`serve`] — a std-only threaded HTTP inference server and batch scorer
//!   over saved artifacts (binaries `dfp-serve` and `dfpc-score`).
//!
//! ## Quickstart
//!
//! ```
//! use dfpc::core::{FrameworkConfig, PatternClassifier};
//! use dfpc::data::synth::profile_by_name;
//! use dfpc::data::split::stratified_holdout;
//!
//! let data = profile_by_name("iris").unwrap().generate();
//! let fold = stratified_holdout(&data.labels, 0.3, 7);
//! let (train, test) = (data.subset(&fold.train), data.subset(&fold.test));
//!
//! let model = PatternClassifier::fit(&train, &FrameworkConfig::pat_fs()).unwrap();
//! let acc = model.accuracy(&test);
//! assert!(acc > 0.5);
//! ```

#![forbid(unsafe_code)]

pub use dfp_baselines as baselines;
pub use dfp_classify as classify;
pub use dfp_core as core;
pub use dfp_data as data;
pub use dfp_fault as fault;
pub use dfp_measures as measures;
pub use dfp_mining as mining;
pub use dfp_model as model;
pub use dfp_obs as obs;
pub use dfp_par as par;
pub use dfp_registry as registry;
pub use dfp_select as select;
pub use dfp_serve as serve;
