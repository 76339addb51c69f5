//! Shared by the fork/exec suites: their consumer processes write one
//! `joined <epoch>` line to a result file as soon as `connect()` returned,
//! and the parent orders the processes on it instead of on their timing.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Blocks until every result file in `outs` holds its first whole line,
/// i.e. every one of those consumer processes is attached.
pub fn wait_attached(outs: &[PathBuf]) {
    let attached = |p: &PathBuf| std::fs::read_to_string(p).is_ok_and(|t| t.ends_with('\n'));
    let deadline = Instant::now() + Duration::from_secs(60);
    while !outs.iter().all(attached) {
        assert!(
            Instant::now() < deadline,
            "a consumer process never attached"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}
