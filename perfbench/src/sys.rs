//! Process facts read from `/proc`, and the environment block every
//! result carries.

use crate::report::Json;
use std::process::{Command, Stdio};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Seconds on one of the kernel's CPU-time clocks, to the nanosecond
/// (the `/proc` stat files count in 10 ms ticks, too coarse to time
/// single calls).
fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the whole call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed by the whole process so far, exited threads
/// included.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine-wide `(total, steal)` CPU ticks from `/proc/stat`: the
/// share a hypervisor took from this VM shows how disturbed a run was.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// How a workload loads the machine, for the environment block.
pub struct Shape {
    /// `"closed, 1 client"`.
    pub loop_type: &'static str,
    /// What carries the traffic.
    pub transport: &'static str,
    /// Host peers of the cluster (0 for the in-process engine).
    pub hosts: usize,
    /// Worker threads the program runs, the client included.
    pub threads: usize,
}

/// The environment block: where and how the numbers were taken.
/// `steal_share` is the machine's CPU steal over the measured loop.
pub fn env_block(seed: u64, shape: &Shape, steal_share: f64) -> Json {
    let nproc = nproc();
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    Json::obj([
        ("nproc", Json::Int(nproc as u64)),
        ("rustc", Json::str(first_line_of(&rustc, &["--version"]))),
        (
            "git_rev",
            Json::str(first_line_of("git", &["rev-parse", "--short=12", "HEAD"])),
        ),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Int(seed)),
        ("loop", Json::str(shape.loop_type)),
        ("transport", Json::str(shape.transport)),
        ("hosts", Json::Int(shape.hosts as u64)),
        ("threads", Json::Int(shape.threads as u64)),
        ("oversubscribed", Json::Bool(shape.threads > nproc)),
        ("cpu_steal_share", Json::Num(steal_share)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let spin: u64 = (0..2_000_000u64).fold(0, |a, b| a ^ b.wrapping_mul(31));
        std::hint::black_box(spin);
        assert!(process_cpu_s() >= thread_cpu_s());
        assert!(thread_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
