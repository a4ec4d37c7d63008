//! Peak resident memory of this process, from `/proc/self/status`.

/// Parses the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text, in kibibytes.
pub fn parse_peak_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// Peak resident memory of the running process in MiB, or `None` where
/// the kernel does not expose it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_peak_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_peak_line() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_peak_kib(status), Some(51_200));
    }

    #[test]
    fn missing_or_garbled_line_is_none() {
        assert_eq!(parse_peak_kib("Name:\tx\nVmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_peak_kib("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let mib = peak_rss_mib().expect("Linux exposes VmHWM");
        assert!(mib > 0.0);
    }
}
