//! Host facts every run records: thread count, last-level cache size,
//! attained memcpy bandwidth, a fixed single-thread canary loop (to
//! spot runs disturbed by a neighbour), the share of CPU time stolen by
//! the hypervisor, and the process's peak RSS; plus the process CPU
//! clock the end-to-end metrics are read from.

use std::hint::black_box;
use std::time::Instant;

/// Upper bound on one memcpy buffer. Four times a very large LLC would
/// need gigabytes; past this cap the report states the shortfall.
const MEMCPY_CAP_BYTES: usize = 256 << 20;

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the highest cache level sysfs reports for cpu0, in bytes.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (digits, scale) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1 << 10),
            Some(b'M') => (&size[..size.len() - 1], 1 << 20),
            Some(b'G') => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        let Ok(n) = digits.parse::<u64>() else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, n * scale));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Bytes per memcpy buffer: four times the LLC, capped.
pub fn memcpy_bytes(llc: Option<u64>) -> usize {
    let want = llc.map_or(MEMCPY_CAP_BYTES as u64, |l| 4 * l);
    (want as usize).min(MEMCPY_CAP_BYTES)
}

/// Median bandwidth of copying one `bytes`-sized buffer into another,
/// counted as bytes copied per second, in GB/s.
pub fn memcpy_gbps(bytes: usize) -> f64 {
    let words = (bytes / 8).max(1);
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst = vec![0u64; words];
    dst.copy_from_slice(&src); // first touch of every destination page
    let mut rates: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&dst);
            (words * 8) as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

/// A fixed single-thread integer loop (about 50 ms on a 2 GHz core):
/// the same work on every host and commit, so its time moves only with
/// the machine's load.
pub fn canary_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// `(all, steal)` jiffies summed over CPUs, from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    let all = fields.iter().take(8).sum();
    Some((all, *fields.get(7)?))
}

/// Share of CPU time the hypervisor gave to other machines between two
/// [`cpu_ticks`] readings.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((a0, s0), (a1, s1)) = (before?, after?);
    (a1 > a0).then(|| (s1 - s0) as f64 / (a1 - a0) as f64)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by all threads of this process, in seconds.
/// A guest kernel with paravirtual steal accounting leaves time the
/// hypervisor gave to other machines out of it, unlike wall time.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that `clock_gettime` only writes into.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
