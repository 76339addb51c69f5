//! What `/proc` says about a process — CPU time and proportional memory —
//! and the environment header that makes two reports that should not be
//! compared recognisably different.

use crate::util::Json;
use std::path::Path;

/// Kernel clock ticks per second. `/proc/<pid>/stat` reports CPU time in
/// ticks and Linux has fixed the user-visible rate at 100 on every
/// architecture this benchmark runs on.
const CLK_TCK: f64 = 100.0;

/// User and system CPU time of one process, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuMs {
    pub user: f64,
    pub sys: f64,
}

impl CpuMs {
    pub fn total(&self) -> f64 {
        self.user + self.sys
    }

    pub fn since(&self, earlier: &CpuMs) -> CpuMs {
        CpuMs {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }

    pub fn plus(&self, other: &CpuMs) -> CpuMs {
        CpuMs {
            user: self.user + other.user,
            sys: self.sys + other.sys,
        }
    }

    /// System share of the total; 0 when no time was used.
    pub fn sys_share(&self) -> f64 {
        if self.total() > 0.0 {
            self.sys / self.total()
        } else {
            0.0
        }
    }
}

/// Parses the `utime` and `stime` fields (14 and 15) of a
/// `/proc/<pid>/stat` line. The command name (field 2) may contain
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_stat_cpu(stat: &str) -> Option<CpuMs> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuMs {
        user: utime / CLK_TCK * 1e3,
        sys: stime / CLK_TCK * 1e3,
    })
}

/// CPU time this process (all threads) has used so far.
pub fn cpu_self() -> CpuMs {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or_default()
}

fn parse_pss_kib(rollup: &str) -> Option<u64> {
    rollup
        .lines()
        .find_map(|l| l.strip_prefix("Pss:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Proportional set size of this process in MiB: private pages in full,
/// shared pages (the arena) divided among the processes mapping them, so
/// the sum over all processes counts the arena once.
pub fn pss_self_mib() -> f64 {
    std::fs::read_to_string("/proc/self/smaps_rollup")
        .ok()
        .and_then(|s| parse_pss_kib(&s))
        .map(|kib| kib as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn fs_type_of(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <opts>"
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (
            left.split_whitespace().nth(4),
            right.split_whitespace().next(),
        ) else {
            continue;
        };
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// The checked-out revision, read from `.git` without running git; a
/// checkout that is not a repository reports `unknown`.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// The glibc malloc tunables this process runs under, as its environment
/// holds them: they decide whether batch-sized buffers are mapped and
/// unmapped per use, so reports under different values do not compare.
fn malloc_regime() -> String {
    let mut set: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MALLOC_") || k == "GLIBC_TUNABLES")
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    set.sort();
    if set.is_empty() {
        "glibc defaults".into()
    } else {
        set.join(" ")
    }
}

/// Everything about the environment a reader needs before comparing two
/// reports.
pub fn environment(work_dir: &Path, seed: u64, seconds: f64) -> Json {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Int(nproc as u64)),
        ("kernel", Json::Str(kernel)),
        ("work_dir_fs", Json::Str(fs_type_of(work_dir))),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(seconds)),
        ("git_revision", Json::Str(git_revision())),
        ("malloc", Json::Str(malloc_regime())),
        ("consumers", Json::Int(crate::workloads::CONSUMERS as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_command_name() {
        let line = "1234 (a b) c) R 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 1 1";
        let cpu = parse_stat_cpu(line).unwrap();
        assert_eq!(
            cpu,
            CpuMs {
                user: 2500.0,
                sys: 500.0
            }
        );
        assert!((cpu.sys_share() - 1.0 / 6.0).abs() < 1e-12);
        assert!(parse_stat_cpu("garbage").is_none());
        let later = CpuMs {
            user: 2600.0,
            sys: 540.0,
        };
        assert_eq!(
            later.since(&cpu),
            CpuMs {
                user: 100.0,
                sys: 40.0
            }
        );
    }

    #[test]
    fn pss_and_self_readings_are_live() {
        assert_eq!(parse_pss_kib("Rss: 10 kB\nPss:   2048 kB\n"), Some(2048));
        assert!(pss_self_mib() > 0.0);
        let a = cpu_self();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_self().total() >= a.total());
        assert_ne!(fs_type_of(Path::new(".")), "");
    }
}
