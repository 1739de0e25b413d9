//! The `data.ingest` failpoint, armed end to end. The armed-site table is
//! process-global, so these tests live in their own test binary: the
//! library's unit tests call `ingest_bytes` without taking a lock, and a
//! site armed there would fail them. Tests here serialise on `FAULT_LOCK`.

use dfp_data::ingest::{ingest_bytes, IngestError, IngestOptions};
use std::sync::{Mutex, MutexGuard};

/// Failpoint state is process-global; tests that arm sites serialise here.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock_faults() -> MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const SAMPLE: &str = "\
color,weight,class
red,1.0,pos
blue,2.0,neg
red,?,pos
green,4.0,neg
";

fn tiny_opts() -> IngestOptions {
    IngestOptions {
        segment_bytes: 8, // force many refills across line boundaries
        numeric_bins: 3,
        max_categories: 16,
    }
}

#[test]
fn truncated_segment_is_typed_error_not_panic() {
    let _g = lock_faults();
    dfp_fault::arm("data.ingest", dfp_fault::Action::Trunc);
    let err = ingest_bytes(SAMPLE.as_bytes(), &tiny_opts()).unwrap_err();
    dfp_fault::disarm("data.ingest");
    assert!(matches!(err, IngestError::TruncatedSegment { .. }), "{err}");
    // And the site recovers once disarmed.
    assert!(ingest_bytes(SAMPLE.as_bytes(), &tiny_opts()).is_ok());
}

#[test]
fn injected_error_is_typed() {
    let _g = lock_faults();
    dfp_fault::arm("data.ingest", dfp_fault::Action::Err);
    let err = ingest_bytes(SAMPLE.as_bytes(), &tiny_opts()).unwrap_err();
    dfp_fault::disarm("data.ingest");
    assert!(matches!(err, IngestError::Injected("data.ingest")), "{err}");
}
