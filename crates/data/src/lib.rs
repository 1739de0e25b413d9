//! # dfp-data — dataset substrate for discriminative frequent pattern classification
//!
//! This crate provides everything the ICDE'07 framework needs *below* the
//! mining layer:
//!
//! * a relational [`Dataset`] model with categorical and numeric attributes
//!   ([`schema`], [`dataset`]);
//! * supervised and unsupervised [`discretize`] algorithms (equal-width,
//!   equal-frequency, Fayyad–Irani MDL) that turn numeric attributes into
//!   categorical bins, as required by the paper's problem formulation (§2:
//!   "For numerical attributes, the continuous values are discretized first");
//! * the `(attribute, value) → item` mapping and the resulting binary
//!   [`transactions::TransactionSet`] representation `D ⊆ B^d`;
//! * the dense [`bitset::Bitset`], the one tidset type of the workspace
//!   (item columns, class masks, pattern tidsets: support counting, Jaccard
//!   redundancy, database coverage);
//! * seeded [`synth`]etic dataset generators replaying the *profiles* (size,
//!   arity, class priors, density) of the 22 UCI datasets used in the paper's
//!   evaluation — see `DESIGN.md` §4 for why this substitution preserves the
//!   paper's claims;
//! * [`split`] utilities: stratified k-fold cross validation and holdout
//!   splits;
//! * a dependency-free [`csv`] reader/writer so real UCI files can be dropped
//!   in when available, and an out-of-core [`ingest`] path that streams a
//!   large CSV into transactions in bounded segments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arff;
pub mod bitset;
pub mod csv;
pub mod dataset;
pub mod discretize;
pub mod features;
pub mod ingest;
pub mod schema;
pub mod split;
pub mod synth;
pub mod transactions;

pub use bitset::Bitset;
pub use dataset::{Dataset, Value};
pub use schema::{Attribute, AttributeKind, ClassId, Schema};
pub use transactions::{Item, ItemMap, Transaction, TransactionSet};
