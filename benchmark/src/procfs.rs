//! What Linux reports about this process: CPU time and peak memory.

use std::fs;

/// On-CPU nanoseconds of one task, the first field of its `schedstat`.
/// `None` when the task has just exited.
///
/// This is the benchmark's one CPU clock. utime + stime of
/// `/proc/.../stat` count in 10 ms ticks, three for a whole `dir_mutate`
/// pass, and a run that fell back to them would report
/// `cpu_us_per_op` at another resolution without saying so; a kernel
/// without `schedstat` is refused instead.
fn task_run_nanos(task_dir: &std::path::Path) -> Option<u64> {
    let path = task_dir.join("schedstat");
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(_) if !task_dir.exists() => return None,
        Err(e) => panic!(
            "{}: {e}; the benchmark needs per-task schedstat (CONFIG_SCHED_INFO)",
            path.display()
        ),
    };
    let nanos = text.split_ascii_whitespace().next()?.parse();
    Some(nanos.unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

/// CPU seconds used so far by the threads of this process that are alive
/// now: Raft appliers and tickers, invalidators and the compactor as well
/// as the clients. Threads that have exited drop out of the sum, so
/// callers difference it only across spans in which no thread ends.
pub fn process_cpu_seconds() -> f64 {
    let tasks = fs::read_dir("/proc/self/task").expect("/proc/self/task");
    let nanos: u64 = tasks
        .filter_map(|entry| task_run_nanos(&entry.ok()?.path()))
        .sum();
    nanos as f64 / 1e9
}

/// The kernel's id of the calling thread.
pub fn current_tid() -> Option<u64> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU seconds used so far by thread `tid` of this process, which must
/// be alive.
pub fn thread_cpu_seconds(tid: u64) -> f64 {
    let dir = format!("/proc/self/task/{tid}");
    let nanos = task_run_nanos(std::path::Path::new(&dir))
        .unwrap_or_else(|| panic!("thread {tid} has exited"));
    nanos as f64 / 1e9
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(process_cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        let tid = current_tid().expect("thread-self");
        assert!(thread_cpu_seconds(tid) >= 0.0);
    }
}
