//! Process accounting from outside the program: `/proc/<pid>/{stat,io,
//! status}` for the daemons, the thread CPU clock for the simulator, and
//! the host tag stamped on every result.

use std::fs;
use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times.
fn clk_tck() -> u64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes no pointers and only reads process-wide constants.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as u64
    } else {
        100
    }
}

/// User-mode CPU time consumed so far by the calling thread, in
/// nanoseconds. Kernel time is left out on purpose: for the simulator it
/// is page-fault time for the event heap, which varied 2× between
/// otherwise identical runs.
pub fn thread_user_cpu_ns() -> u64 {
    /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_THREAD: i32 = 1;
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable struct of the kernel's rusage
    // layout and size (144 bytes); getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_THREAD, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_THREAD) failed");
    ru.utime[0] as u64 * 1_000_000_000 + ru.utime[1] as u64 * 1_000
}

/// `(utime, stime)` of a process in microseconds, from `/proc/<pid>/stat`.
pub fn cpu_us(pid: u32) -> Option<(u64, u64)> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat_cpu(&text).map(|(u, s)| {
        let per_tick = 1_000_000 / clk_tck();
        (u * per_tick, s * per_tick)
    })
}

/// `(utime, stime)` in clock ticks: fields 14 and 15, counted after the
/// parenthesised command name (which may itself hold spaces).
fn parse_stat_cpu(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut f = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime = f.nth(11)?.parse().ok()?;
    let stime = f.next()?.parse().ok()?;
    Some((utime, stime))
}

/// One `name: value` field of a `/proc` status-style file.
fn field(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Write syscalls issued so far (`syscw` of `/proc/<pid>/io`).
pub fn write_syscalls(pid: u32) -> Option<u64> {
    field(
        &fs::read_to_string(format!("/proc/{pid}/io")).ok()?,
        "syscw",
    )
}

/// Peak resident set in kB (`VmHWM` of `/proc/<pid>/status`).
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    field(
        &fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
        "VmHWM",
    )
}

/// Voluntary context switches summed over the process's threads.
pub fn voluntary_switches(pid: u32) -> Option<u64> {
    let mut total = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        // A thread may exit between the listing and the read.
        let Ok(status) = fs::read_to_string(task.ok()?.path().join("status")) else {
            continue;
        };
        total += field(&status, "voluntary_ctxt_switches")?;
    }
    Some(total)
}

/// Time the process's threads have spent on a CPU so far (user + kernel),
/// in nanoseconds: the first field of `/proc/<pid>/task/*/schedstat`.
/// Unlike the 10 ms ticks of `stat`, fine enough to tell seconds apart.
pub fn run_ns(pid: u32) -> Option<u64> {
    let mut total = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        // A thread may exit between the listing and the read.
        let Ok(text) = fs::read_to_string(task.ok()?.path().join("schedstat")) else {
            continue;
        };
        total += text.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

/// Filesystem type holding `path`, by longest mount-point prefix.
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// `nproc`, kernel release and CPU model — results from different hosts
/// must never be compared silently.
pub fn host_tag() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("kernel", kernel.trim().to_string()),
        ("cpu", model),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_survive_spaces_in_the_command_name() {
        let line = "4242 (kite node) S 1 4242 4242 0 -1 4194304 1000 0 0 0 731 412 0 0 20 0 3 0 100 200 300";
        assert_eq!(parse_stat_cpu(line), Some((731, 412)));
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn status_fields() {
        let text =
            "Name:\tkite-node\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t77\nsyscw: 12\n";
        assert_eq!(field(text, "VmHWM"), Some(20480));
        assert_eq!(field(text, "voluntary_ctxt_switches"), Some(77));
        assert_eq!(field(text, "syscw"), Some(12));
        assert_eq!(field(text, "VmRSS"), None);
    }

    #[test]
    fn reads_this_process() {
        let me = std::process::id();
        assert!(cpu_us(me).is_some());
        assert!(vm_hwm_kb(me).unwrap() > 0);
        assert!(voluntary_switches(me).is_some());
        assert!(run_ns(me).is_some());
        let t0 = thread_user_cpu_ns();
        let mut x = 0u64;
        while thread_user_cpu_ns() == t0 {
            for i in 0..2_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        }
    }
}
