//! What the benchmark reads from the machine it runs on: core count,
//! process CPU time and peak memory, and the fingerprint written beside
//! the per-layer numbers so results from different hosts are never
//! compared silently.  Linux only (`/proc`, `clock_gettime`).

use std::path::Path;
use std::process::Command;

/// Cores the process may run on; every thread count in the benchmark is
/// derived from this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time (user + system) consumed so far by every thread of this
/// process, live or exited, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call,
    // and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Restart the kernel's peak-RSS watermark from the current resident
/// set, so the next [`peak_rss_mb`] reads the peak since this call.
/// Where the kernel refuses, the watermark stays process-wide.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`), since the
/// last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Widest vector ISA the CPU reports, and its `f64` lanes per register.
pub fn isa() -> (&'static str, usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return ("avx512f", 8);
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return ("avx2+fma", 4);
        }
    }
    ("scalar", 1)
}

/// First line a tool prints, run from the benchmark's directory.  The
/// ceiling keeps `git` from searching above the checkout when the
/// checkout itself is not a repository.
fn tool_line(program: &str, args: &[&str]) -> String {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let above_checkout = here.parent().and_then(Path::parent).unwrap_or(here);
    Command::new(program)
        .args(args)
        .current_dir(here)
        .env("GIT_CEILING_DIRECTORIES", above_checkout)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `"key": "value"` pairs identifying host, toolchain and source.
pub fn fingerprint_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .replace('"', "'");
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"isa\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        nproc(),
        model,
        isa().0,
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_rss_is_positive() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_ns() > before, "{x}");
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
