//! `/proc/self` readers for the two host-resource numbers the benchmark
//! reports. Every reader returns `None` when the file is missing or does
//! not parse (non-Linux hosts, sandboxes without procfs): the metric
//! becomes `null`, the run does not panic.

use std::path::Path;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Linux has fixed `USER_HZ` at 100 on every
/// architecture this repository targets; reading it properly needs
/// `sysconf`, which needs libc, which the vendored tree does not carry.
const USER_HZ: f64 = 100.0;

/// `VmHWM` (peak resident set size) from a `/proc/<pid>/status` body, in
/// kibibytes.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `utime + stime` from a `/proc/<pid>/stat` body, in clock ticks. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn peak_rss_mb_at(status: &Path) -> Option<f64> {
    let kb = parse_vm_hwm_kb(&std::fs::read_to_string(status).ok()?)?;
    Some(kb as f64 / 1024.0)
}

fn cpu_seconds_at(stat: &Path) -> Option<f64> {
    let ticks = parse_stat_cpu_ticks(&std::fs::read_to_string(stat).ok()?)?;
    Some(ticks as f64 / USER_HZ)
}

/// This process's peak resident set size so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    peak_rss_mb_at(Path::new("/proc/self/status"))
}

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn cpu_seconds() -> Option<f64> {
    cpu_seconds_at(Path::new("/proc/self/stat"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tflexbench\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    fn parses_cpu_ticks_past_a_hostile_command_name() {
        // Field 2 is "(a b) c)": spaces and a stray ')' inside the name.
        let stat = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 700 55 0 0 20 0 3 0 100 200 300";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(755));
        assert_eq!(parse_stat_cpu_ticks("42 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks(""), None);
    }

    #[test]
    fn missing_files_give_none_not_a_panic() {
        let nowhere = Path::new("/nonexistent/flexbench/proc/status");
        assert_eq!(peak_rss_mb_at(nowhere), None);
        assert_eq!(cpu_seconds_at(nowhere), None);
    }

    #[test]
    fn live_readers_agree_with_their_parsers() {
        // On Linux both exist; elsewhere both are None. Either way no panic.
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
        if let Some(s) = cpu_seconds() {
            assert!(s >= 0.0);
        }
    }
}
