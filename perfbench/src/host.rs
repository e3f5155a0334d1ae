//! Host and process facts read from `/proc`: CPU time, peak resident
//! memory, thread count, and the CPU time the hypervisor stole.

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, which Linux fixes at 100 on every architecture it reports
/// to user space).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of process `pid` in milliseconds, summed
/// over all its threads, exited ones included.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; the fixed fields resume after
    // its closing parenthesis, starting with field 3 (state).
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / USER_HZ)
}

/// A numeric field of `/proc/<pid>/status` (such as `VmHWM`, in kB, or
/// `Threads`).
fn status_field(pid: u32, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    status_field(pid, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Live threads of process `pid`.
pub fn threads(pid: u32) -> Option<u64> {
    status_field(pid, "Threads")
}

/// Host-wide CPU time so far, in clock ticks: `(stolen, total)`, from
/// the `cpu` line of `/proc/stat`. Steal is time a virtual CPU was ready
/// to run but the hypervisor ran something else; it inflates wall-clock
/// latency without showing in the process's CPU time.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Stolen share of host CPU time between two [`steal_ticks`] readings,
/// as a percentage.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> String {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.1}%", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_facts_are_readable() {
        let pid = std::process::id();
        assert!(cpu_ms(pid).is_some());
        assert!(peak_rss_mb(pid).is_some_and(|mb| mb > 0.0));
        assert!(threads(pid).is_some_and(|n| n >= 1));
        assert!(steal_ticks().is_some_and(|(steal, total)| steal <= total));
    }
}
