//! # dfp-fault — named failpoints for fault-injection testing
//!
//! A std-only failpoint substrate: code marks named injection sites with
//! [`faultpoint!`], and a test (or an operator, via the `DFP_FAILPOINTS`
//! environment variable) arms sites with an [`Action`] — inject an error,
//! panic, sleep, or truncate I/O. When nothing is armed the whole machinery
//! collapses to one relaxed atomic load per site, so production code pays
//! nothing for carrying the sites.
//!
//! ## Arming sites
//!
//! From the environment, before the first site is evaluated:
//!
//! ```text
//! DFP_FAILPOINTS='serve.worker=panic;model.save=trunc;mining.closed=sleep:50'
//! ```
//!
//! Each clause is `site=action` where `action` is one of `err`, `panic`,
//! `sleep:<ms>`, `trunc`, optionally prefixed with a trigger budget
//! `<n>*` (`3*err` fires three times, then the site disarms itself).
//! Clauses are separated by `;` or `,`.
//!
//! Programmatically (tests):
//!
//! ```
//! dfp_fault::arm("mining.count", dfp_fault::Action::Err);
//! assert!(dfp_fault::evaluate("mining.count").is_some());
//! dfp_fault::disarm("mining.count");
//! assert!(dfp_fault::evaluate("mining.count").is_none());
//! ```
//!
//! ## Site semantics
//!
//! * `err` — the site's [`faultpoint!`] error arm runs (typically an early
//!   `return Err(..)` with a crate-specific "injected" error);
//! * `panic` — the site panics with a recognisable message; worker threads
//!   are expected to contain it (the serve pool catches and respawns);
//! * `sleep:<ms>` — the site blocks for the given latency, then proceeds;
//! * `trunc` — I/O sites cut their payload short (e.g. a model save writes
//!   only a prefix of the artifact), exercising corrupt-input handling.
//!
//! The registry of sites wired across the workspace is [`REGISTRY`]; CI's
//! fault-injection matrix iterates it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Duration;

/// What an armed failpoint does when its site is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Make the site fail with its crate-specific injected error.
    Err,
    /// Panic at the site (message contains `dfp-fault` and the site name).
    Panic,
    /// Block for the given latency, then continue normally.
    Sleep(u64),
    /// Truncate the site's I/O payload (site-specific interpretation).
    Trunc,
}

/// Every failpoint site wired into the workspace, with the layer it lives
/// in. CI's fault-injection matrix and the operations docs iterate this.
pub const REGISTRY: &[(&str, &str)] = &[
    ("data.ingest", "streaming CSV segment refill (dfp-data)"),
    (
        "mining.count",
        "counting-only enumeration worker (dfp-mining)",
    ),
    ("mining.closed", "closed-set miner entry (dfp-mining)"),
    (
        "mining.per_class",
        "per-class partition mining (dfp-mining)",
    ),
    ("model.save", "artifact serialization + write (dfp-model)"),
    ("model.load", "artifact read + deserialization (dfp-model)"),
    ("serve.accept", "listener accept loop (dfp-serve)"),
    (
        "serve.worker",
        "worker thread, before request handling (dfp-serve)",
    ),
    ("serve.predict", "/predict route body (dfp-serve)"),
    (
        "serve.batch",
        "batch scheduler dispatch, before predict (dfp-serve)",
    ),
    ("cv.fold", "outer cross-validation fold fit (dfp-core)"),
    (
        "cv.inner_fold",
        "inner cross-validation fold fit (dfp-classify)",
    ),
    (
        "client.request",
        "dfpc-score remote request attempt (dfp-serve)",
    ),
    (
        "registry.write",
        "registry artifact/pointer tmp write (dfp-registry)",
    ),
    (
        "registry.rename",
        "registry atomic rename into place (dfp-registry)",
    ),
    (
        "registry.validate",
        "registry canary validation before pointer flip (dfp-registry)",
    ),
    (
        "registry.drain",
        "registry old-version drain after swap (dfp-registry)",
    ),
];

/// One armed site: the action plus an optional remaining-trigger budget.
#[derive(Debug, Clone, Copy)]
struct Armed {
    action: Action,
    /// `None` = fire every time; `Some(n)` = fire `n` more times.
    remaining: Option<u64>,
}

/// Fast path: `false` means no site is armed anywhere and [`evaluate`]
/// returns `None` after a single relaxed load.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);

/// Forces the one-time `DFP_FAILPOINTS` parse. `evaluate` must run this
/// before trusting the `ANY_ARMED` fast path: a process whose only arming
/// comes from the environment has nothing else that would touch the table.
/// After the first call this is a single atomic load.
fn ensure_env_init() {
    static ENV_INIT: Once = Once::new();
    ENV_INIT.call_once(|| {
        let _ = table();
    });
}

fn table() -> &'static Mutex<HashMap<String, Armed>> {
    static TABLE: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut map = HashMap::new();
        if let Ok(spec) = std::env::var("DFP_FAILPOINTS") {
            for (site, armed) in parse_spec(&spec) {
                map.insert(site, armed);
            }
        }
        if !map.is_empty() {
            ANY_ARMED.store(true, Ordering::Release);
        }
        Mutex::new(map)
    })
}

/// Parses a `DFP_FAILPOINTS` specification. Unparseable clauses are skipped
/// (fault injection must never be able to take the process down by itself).
fn parse_spec(spec: &str) -> Vec<(String, Armed)> {
    spec.split([';', ','])
        .filter_map(|clause| {
            let (site, action) = clause.split_once('=')?;
            let action = action.trim();
            let (remaining, action) = match action.split_once('*') {
                Some((n, rest)) => (Some(n.trim().parse::<u64>().ok()?), rest.trim()),
                None => (None, action),
            };
            let action = match action {
                "err" => Action::Err,
                "panic" => Action::Panic,
                "trunc" => Action::Trunc,
                other => {
                    let ms = other.strip_prefix("sleep:")?.parse::<u64>().ok()?;
                    Action::Sleep(ms)
                }
            };
            Some((site.trim().to_string(), Armed { action, remaining }))
        })
        .collect()
}

/// Arms `site` with `action`, firing on every evaluation until disarmed.
pub fn arm(site: &str, action: Action) {
    arm_times(site, action, None);
}

/// Arms `site` with `action` for at most `times` evaluations (`None` =
/// unlimited); after the budget is spent the site disarms itself.
pub fn arm_times(site: &str, action: Action, times: Option<u64>) {
    let mut map = lock_table();
    map.insert(
        site.to_string(),
        Armed {
            action,
            remaining: times,
        },
    );
    ANY_ARMED.store(true, Ordering::Release);
}

/// Disarms `site` (no-op when it was not armed).
pub fn disarm(site: &str) {
    let mut map = lock_table();
    map.remove(site);
    if map.is_empty() {
        ANY_ARMED.store(false, Ordering::Release);
    }
}

/// Disarms every site.
pub fn disarm_all() {
    let mut map = lock_table();
    map.clear();
    ANY_ARMED.store(false, Ordering::Release);
}

/// `true` when `site` is currently armed (any action).
pub fn is_armed(site: &str) -> bool {
    ensure_env_init();
    ANY_ARMED.load(Ordering::Acquire) && lock_table().contains_key(site)
}

/// `true` when *any* site is armed (programmatically or via
/// `DFP_FAILPOINTS`). Caching layers consult this to disable themselves
/// while chaos testing is active: a cache hit would silently skip armed
/// sites on the cached path, masking the very faults being injected.
pub fn any_armed() -> bool {
    ensure_env_init();
    ANY_ARMED.load(Ordering::Acquire)
}

fn lock_table() -> std::sync::MutexGuard<'static, HashMap<String, Armed>> {
    table().lock().unwrap_or_else(|e| e.into_inner())
}

/// Evaluates a site: returns `None` instantly when nothing is armed.
///
/// When the site is armed, `Sleep` blocks here and returns `None` (the site
/// then proceeds normally), `Panic` panics here, and `Err` / `Trunc` are
/// returned for the site to interpret (fail with its injected error /
/// truncate its payload).
pub fn evaluate(site: &str) -> Option<Action> {
    ensure_env_init();
    if !ANY_ARMED.load(Ordering::Acquire) {
        return None;
    }
    let action = {
        let mut map = lock_table();
        let armed = map.get_mut(site)?;
        let action = armed.action;
        if let Some(n) = &mut armed.remaining {
            *n -= 1;
            if *n == 0 {
                map.remove(site);
            }
        }
        action
    };
    match action {
        Action::Sleep(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        Action::Panic => panic!("dfp-fault: injected panic at failpoint '{site}'"),
        Action::Err | Action::Trunc => Some(action),
    }
}

/// Marks a named failpoint.
///
/// * `faultpoint!("site")` — handles `panic` and `sleep` in place; `err` and
///   `trunc` are ignored (use this form at sites with nothing to fail).
/// * `faultpoint!("site", expr)` — additionally, when armed with `err`, does
///   an early `return Err(expr)` from the enclosing function.
#[macro_export]
macro_rules! faultpoint {
    ($site:expr) => {
        let _ = $crate::evaluate($site);
    };
    ($site:expr, $err:expr) => {
        if let Some($crate::Action::Err) = $crate::evaluate($site) {
            return Err($err);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The armed table is process-global; tests serialise through this.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_site_is_a_noop() {
        let _g = lock();
        disarm_all();
        assert_eq!(evaluate("nope"), None);
        assert!(!is_armed("nope"));
    }

    #[test]
    fn arm_evaluate_disarm_roundtrip() {
        let _g = lock();
        disarm_all();
        arm("t.err", Action::Err);
        arm("t.trunc", Action::Trunc);
        assert_eq!(evaluate("t.err"), Some(Action::Err));
        assert_eq!(evaluate("t.trunc"), Some(Action::Trunc));
        assert_eq!(evaluate("t.other"), None);
        disarm("t.err");
        assert_eq!(evaluate("t.err"), None);
        disarm_all();
        assert_eq!(evaluate("t.trunc"), None);
    }

    #[test]
    fn trigger_budget_disarms_after_n_fires() {
        let _g = lock();
        disarm_all();
        arm_times("t.budget", Action::Err, Some(2));
        assert_eq!(evaluate("t.budget"), Some(Action::Err));
        assert_eq!(evaluate("t.budget"), Some(Action::Err));
        assert_eq!(evaluate("t.budget"), None);
        assert!(!is_armed("t.budget"));
    }

    #[test]
    fn sleep_blocks_then_proceeds() {
        let _g = lock();
        disarm_all();
        arm("t.sleep", Action::Sleep(30));
        let start = std::time::Instant::now();
        assert_eq!(evaluate("t.sleep"), None);
        assert!(start.elapsed() >= Duration::from_millis(25));
        disarm_all();
    }

    #[test]
    fn injected_panic_carries_site_name() {
        let _g = lock();
        disarm_all();
        arm("t.panic", Action::Panic);
        let r = std::panic::catch_unwind(|| evaluate("t.panic"));
        disarm_all();
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("t.panic"), "{msg}");
    }

    #[test]
    fn err_macro_form_returns_early() {
        let _g = lock();
        disarm_all();
        fn guarded() -> Result<u32, &'static str> {
            faultpoint!("t.macro", "injected");
            Ok(7)
        }
        assert_eq!(guarded(), Ok(7));
        arm("t.macro", Action::Err);
        assert_eq!(guarded(), Err("injected"));
        disarm_all();
    }

    #[test]
    fn spec_parsing() {
        let parsed = parse_spec("a=err; b=sleep:25,c=3*panic;bad;d=nope;e=trunc");
        let map: HashMap<String, Armed> = parsed.into_iter().collect();
        assert_eq!(map["a"].action, Action::Err);
        assert_eq!(map["b"].action, Action::Sleep(25));
        assert_eq!(map["c"].action, Action::Panic);
        assert_eq!(map["c"].remaining, Some(3));
        assert_eq!(map["e"].action, Action::Trunc);
        assert!(!map.contains_key("bad"));
        assert!(!map.contains_key("d"));
    }

    #[test]
    fn registry_names_are_unique_and_dotted() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(REGISTRY.iter().all(|(n, _)| n.contains('.')));
    }
}
