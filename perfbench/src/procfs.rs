//! Operating-system interfaces: process and per-thread CPU time and the
//! resident set, read from `/proc/self` and the process CPU clock, and the
//! sender thread's timer slack.

use std::collections::BTreeMap;
use std::fs;

/// One line of `/proc/<pid>/task/<tid>/stat`: the thread's name and its
/// user plus system CPU time in ticks.
#[derive(Debug, PartialEq, Eq)]
pub struct TaskStat {
    pub name: String,
    pub cpu_ticks: u64,
}

/// Parses a `stat` line.  The name sits between the first `(` and the
/// *last* `)`, because a thread may name itself with spaces and
/// parentheses; the fields after it are space separated.
pub fn parse_task_stat(line: &str) -> Option<TaskStat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let name = line[open + 1..close].to_string();
    // Fields after the name, 0-based: state, ppid, pgrp, session, tty_nr,
    // tpgid, flags, minflt, cminflt, majflt, cmajflt, utime, stime.
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some(TaskStat {
        name,
        cpu_ticks: utime + stime,
    })
}

/// The server thread role a thread name belongs to.  Thread names are cut
/// to 15 bytes by the kernel, so `hyperion-worker-3` reads back as
/// `hyperion-worker`.
pub fn thread_group(name: &str) -> &'static str {
    if name.starts_with("hyperion-accept") {
        "accept"
    } else if name.starts_with("hyperion-io") {
        "io"
    } else if name.starts_with("hyperion-worker") {
        "worker"
    } else {
        "other"
    }
}

/// CPU seconds used so far by the live threads of this process, summed per
/// [`thread_group`].  The name comes from each thread's `stat`, the time
/// from its `schedstat` (nanoseconds); `stat`'s own time, in 10 ms ticks,
/// is the fallback where `schedstat` is missing.
pub fn thread_cpu_by_group() -> BTreeMap<&'static str, f64> {
    let mut groups = BTreeMap::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return groups;
    };
    for task in tasks.flatten() {
        let Ok(line) = fs::read_to_string(task.path().join("stat")) else {
            continue; // the thread exited while we listed it
        };
        let Some(stat) = parse_task_stat(&line) else {
            continue;
        };
        let secs = fs::read_to_string(task.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .map_or(stat.cpu_ticks as f64 / USER_HZ, |ns| ns as f64 / 1e9);
        *groups.entry(thread_group(&stat.name)).or_insert(0.0) += secs;
    }
    groups
}

/// `/proc` reports `stat` CPU time in ticks of `USER_HZ`, which Linux fixes
/// at 100 per second.
const USER_HZ: f64 = 100.0;

// `struct timespec` is two 64-bit fields on 64-bit Linux only.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux's /proc and needs a 64-bit struct timespec");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Linux's `PR_SET_TIMERSLACK`.
const PR_SET_TIMERSLACK: i32 = 29;

/// Lets the calling thread's sleeps end within microseconds of their
/// deadline.  Linux lets a sleep overrun by up to the thread's timer slack,
/// 50 µs by default, which is two sends' worth at 40 k/s.
pub fn precise_sleeps() {
    // SAFETY: `prctl(PR_SET_TIMERSLACK, n)` takes one unsigned long and
    // only changes the calling thread's timer slack.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
    assert_eq!(rc, 0, "prctl(PR_SET_TIMERSLACK) failed");
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by the whole process, exited threads included,
/// to the nanosecond.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this builds for), and the clock id is a
    // constant the kernel always knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// A `Vm*` line of `/proc/self/status` (`VmHWM`, `VmRSS`) in bytes.
pub fn vm_bytes(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kib| kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_name_with_spaces_and_parentheses() {
        let line = "4242 (evil) name (x)) S 1 4242 4242 0 -1 4194624 120 0 0 0 \
                    731 69 0 0 20 0 9 0 12345 1000000 500 18446744073709551615";
        let stat = parse_task_stat(line).expect("parses");
        assert_eq!(stat.name, "evil) name (x)");
        assert_eq!(stat.cpu_ticks, 800);
    }

    #[test]
    fn rejects_truncated_lines() {
        assert_eq!(parse_task_stat("1 (init) S 0 1"), None);
        assert_eq!(parse_task_stat("no parentheses at all"), None);
    }

    #[test]
    fn groups_server_threads_by_role() {
        assert_eq!(thread_group("hyperion-accept"), "accept");
        assert_eq!(thread_group("hyperion-io-1"), "io");
        assert_eq!(thread_group("hyperion-worker"), "worker");
        assert_eq!(thread_group("perfbench"), "other");
    }

    #[test]
    fn reads_this_process() {
        assert!(vm_bytes("VmHWM") > 0);
        assert!(thread_cpu_by_group().contains_key("other"));
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(30) {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu_s() > 0.0);
    }
}
