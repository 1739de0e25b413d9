//! # dfp-serve — inference serving for dfp model artifacts
//!
//! Turns a saved [`dfp_model`] artifact into a long-running prediction
//! service built entirely on `std`: a `TcpListener` front end feeding a
//! fixed worker pool, a minimal HTTP/1.1 subset, CSV request parsing against
//! the saved schema, Prometheus-style metrics and graceful shutdown.
//!
//! Each connection is read, answered and closed by one pooled worker
//! thread; every response carries `Connection: close`.
//!
//! ```no_run
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = dfp_model::load("model.dfpm")?;
//! let handle = dfp_serve::serve(model, "127.0.0.1:8080", 4)?;
//! println!("serving on {}", handle.addr());
//! // … later:
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! The serving layer degrades by refusal, never by collapse: the worker
//! pool heals panicking workers in place, saturation sheds connections with
//! `503` + `Retry-After`, oversized payloads get `413`, and every request
//! carries a deadline from accept time that bounds both the reading of its
//! bytes and its answer. Limits live in [`ServerConfig`]
//! (env-overridable via `DFP_SERVE_*`), and [`client::Client`] retries
//! transient failures with exponential backoff plus jitter.
//!
//! Two binaries ship with the crate: `dfp-serve` (the server) and
//! `dfpc-score` (batch scoring of a CSV file — offline against an artifact,
//! or remote against a running server).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod client;
pub mod config;
pub mod http;
pub mod metrics;
pub mod observe;
pub mod pool;
pub mod rows;
pub mod server;

pub use batch::BatchScheduler;
pub use cache::TransformCache;
pub use client::{Client, ClientError, Response, RetryPolicy};
pub use config::ServerConfig;
pub use metrics::Metrics;
pub use observe::ServeObs;
pub use pool::ThreadPool;
pub use rows::{parse_rows, render_labels};
pub use server::{
    registry_validator, serve, serve_registry_with_config, serve_with_config, ServerHandle,
};
