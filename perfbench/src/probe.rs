//! Process readings from the C library and procfs: CPU time, per-thread
//! scheduler statistics and the machine's identity.

use std::collections::BTreeMap;
use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `PRIO_PROCESS`; given a thread id, Linux applies it to that thread.
const PRIO_PROCESS: i32 = 0;

/// The calling thread's id.
fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Raises the nice value of every thread of this process except the
/// calling one to `nice`, and returns how many threads it changed. Threads
/// they spawn later inherit the value; threads the caller spawns do not.
pub fn deprioritize_other_threads(nice: i32) -> usize {
    let me = current_tid();
    let mut changed = 0;
    for tid in threads().into_keys().filter(|t| Some(*t) != me) {
        // SAFETY: plain syscall wrapper; an exited thread just fails.
        if unsafe { setpriority(PRIO_PROCESS, tid, nice) } == 0 {
            changed += 1;
        }
    }
    changed
}

/// User plus system CPU consumed by every thread of this process so far,
/// including threads that have already exited, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One live thread's scheduler statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadStat {
    /// Thread name (`comm`, truncated by the kernel to 15 bytes).
    pub name: String,
    /// Time spent on a CPU, in nanoseconds.
    pub run_ns: u64,
    /// Time spent runnable but waiting on a run queue, in nanoseconds.
    pub wait_ns: u64,
}

/// Every live thread of this process, keyed by thread id.
pub fn threads() -> BTreeMap<u32, ThreadStat> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some(stat) = thread_stat(&entry.path()) {
            out.insert(tid, stat);
        }
    }
    out
}

fn thread_stat(task: &Path) -> Option<ThreadStat> {
    let name = std::fs::read_to_string(task.join("comm")).ok()?;
    let sched = std::fs::read_to_string(task.join("schedstat")).ok()?;
    let mut fields = sched.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some(ThreadStat {
        name: name.trim_end().to_string(),
        run_ns: fields.next()??,
        wait_ns: fields.next()??,
    })
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit the working tree was checked out at, read from `.git` without
/// running git; "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
    }

    #[test]
    fn this_thread_is_listed() {
        let threads = threads();
        assert!(!threads.is_empty());
        assert!(threads.values().any(|t| t.run_ns > 0));
    }
}
