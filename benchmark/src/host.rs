//! What the host says about this process: CPU time, resident memory, load.
//!
//! Memory and load are read from `/proc` (zero where there is none); CPU
//! time comes from the POSIX CPU-time clocks.

use std::fs;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// `clock_gettime(2)` from the C library std already links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of a POSIX CPU-time clock, in milliseconds.  The scheduler
/// keeps these to the nanosecond; `/proc/self/stat` only counts the 10-ms
/// ticks that happened to land on the process, which for a server doing
/// 100-µs bursts is mostly sampling noise.
fn cpu_clock_ms(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `timespec` for the
    // duration of the call, and `clock_gettime` writes nothing else.
    let status = unsafe { clock_gettime(clock_id, &mut ts) };
    if status != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// User + system CPU time of the whole process (every thread, exited ones
/// included), in milliseconds.
pub fn process_cpu_ms() -> f64 {
    cpu_clock_ms(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time of the calling thread, in milliseconds.
pub fn thread_cpu_ms() -> f64 {
    cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`) of the process, in MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    let Ok(text) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One-minute load average.
pub fn load_average() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
