//! Shared by the fork/exec suites. Their consumer processes start together
//! and attach whenever they get there; each writes one `joined <epoch>`
//! line to its result file as soon as `connect()` returned. The streams
//! are a few milliseconds long — shorter than the jitter of starting a
//! process — so one rule keeps a late process from finding nothing left:
//! the parent creates a go-file once every process is attached, and a
//! consumer waits for it at the one point its suite names. That is a
//! trainer pausing: the producer stops at most its publish window later.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Parent side: blocks until every result file in `outs` holds its first
/// whole line (every one of those processes is attached), then creates the
/// go-file.
pub fn go_once_attached(outs: &[PathBuf], go: &Path) {
    let attached = |p: &PathBuf| std::fs::read_to_string(p).is_ok_and(|t| t.ends_with('\n'));
    wait_until("a consumer process never attached", || {
        outs.iter().all(attached)
    });
    std::fs::write(go, b"go").expect("go file");
}

/// Consumer side: blocks until the go-file named by environment variable
/// `var` exists.
pub fn wait_for_go(var: &str) {
    let go = PathBuf::from(std::env::var(var).unwrap_or_else(|_| panic!("{var}")));
    wait_until("the go-file never appeared", || go.exists());
}

/// Parent side: this test binary, set to run `test` alone as a child
/// process. Its stdout is piped rather than shared: libtest lines that
/// sibling processes write to one terminal at once interleave mid-line
/// and read as a test name that does not exist. [`wait_ok`] shows the
/// output when the process fails.
pub fn child_test(test: &str) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("test binary path"));
    cmd.args(["--exact", test, "--test-threads=1"])
        .stdout(Stdio::piped());
    cmd
}

/// Parent side: waits for a process from [`child_test`] and asserts that
/// it exited cleanly.
pub fn wait_ok(child: Child, what: &str) {
    let out = child.wait_with_output().expect(what);
    assert!(
        out.status.success(),
        "{what} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout)
    );
}
