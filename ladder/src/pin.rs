//! Pins the load threads one per allowed CPU.
//!
//! Left to the scheduler, the two sides of a flow sometimes share one CPU
//! and sometimes run in parallel for a whole process lifetime; the two
//! modes differ several-fold in throughput (a shared CPU has no cache-line
//! transfers), which made unpinned runs bimodal. Pinning fixes the
//! parallel mode. On a host with one allowed CPU every thread shares it.

use std::os::raw::c_int;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// The CPUs this process may run on.
fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its size in bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins thread `tid` (0: the calling thread) to the `slot`-th allowed
/// CPU. Best effort: a failure leaves the thread unpinned.
fn pin(tid: c_int, slot: usize) {
    let cpus = allowed();
    if cpus.is_empty() {
        return;
    }
    let cpu = cpus[slot % cpus.len()];
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid `cpu_set_t`-sized buffer of the size
    // passed; the kernel only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
}

/// Pins the calling thread to the `slot`-th allowed CPU.
pub fn pin_current(slot: usize) {
    pin(0, slot);
}

/// Pins the threads whose name starts with `prefix` (names are cut to
/// 15 bytes), in creation order, one per allowed CPU.
pub fn pin_threads(prefix: &str) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    let mut tids: Vec<c_int> = tasks
        .filter_map(|t| {
            let t = t.ok()?;
            let comm = std::fs::read_to_string(t.path().join("comm")).ok()?;
            let tid = t.file_name().to_str()?.parse().ok()?;
            comm.starts_with(prefix).then_some(tid)
        })
        .collect();
    tids.sort_unstable();
    for (slot, tid) in tids.into_iter().enumerate() {
        pin(tid, slot);
    }
}
