//! Child processes with resource accounting read from `/proc` — no
//! dependency and no `unsafe`. Off Linux the `/proc` reads fail and the
//! figures stay `None`.

use std::io;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports process times in `USER_HZ` ticks, 100 per second on
/// every supported architecture.
const TICKS_PER_S: f64 = 100.0;

/// How often a running child is checked for exit: the resolution of
/// its wall time.
const POLL: Duration = Duration::from_millis(1);

/// Its `/proc` entries are read only every this many checks (10 ms), so
/// that on a two-core box the harness takes well under 1 % of a core
/// from the children it times. The last sample before exit stands for
/// the final figure: peak RSS and CPU time can miss the last 10 ms.
const CHECKS_PER_SAMPLE: u32 = 10;

/// What one finished child cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Exit status was success (a timed-out child is killed and not ok).
    pub ok: bool,
    /// `VmHWM`, MB.
    pub peak_rss_mb: Option<f64>,
    /// User / system CPU seconds, all threads.
    pub cpu_user_s: Option<f64>,
    pub cpu_sys_s: Option<f64>,
}

/// `VmHWM` in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.split_whitespace().next()?.parse().ok()
}

/// `(utime, stime)` in ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace().skip(11); // state is field 3
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// Peak resident set of a live process, MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// `(user, system)` CPU seconds of a live (or zombie) process.
pub fn cpu_seconds(pid: u32) -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_cpu_ticks(&stat).map(|(u, s)| (u as f64 / TICKS_PER_S, s as f64 / TICKS_PER_S))
}

/// Runs `command` to completion with its output discarded, sampling
/// its `/proc` entries until it exits; kills it after `timeout`.
pub fn run(command: &mut Command, timeout: Duration) -> io::Result<Usage> {
    command
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let start = Instant::now();
    let mut child = command.spawn()?;
    let pid = child.id();
    let mut usage = Usage::default();
    for check in 0u32.. {
        if let Some(status) = child.try_wait()? {
            usage.wall_s = start.elapsed().as_secs_f64();
            usage.ok = status.success();
            break;
        }
        if check % CHECKS_PER_SAMPLE == 0 {
            // A zombie keeps its stat line but loses VmHWM; keep the last seen.
            usage.peak_rss_mb = peak_rss_mb(pid).or(usage.peak_rss_mb);
            if let Some((user, sys)) = cpu_seconds(pid) {
                usage.cpu_user_s = Some(user);
                usage.cpu_sys_s = Some(sys);
            }
            if start.elapsed() > timeout {
                kill_and_reap(&mut child);
                usage.wall_s = start.elapsed().as_secs_f64();
                break;
            }
        }
        std::thread::sleep(POLL);
    }
    Ok(usage)
}

/// Stops a child and waits until it has ended.
pub fn kill_and_reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_found_among_status_lines() {
        let status = "Name:\tscalesim\nVmPeak:\t  901234 kB\nVmHWM:\t  345678 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(345_678));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\nState:\tZ (zombie)\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 157 43 0 0 20 0 3 0 999 0 0";
        assert_eq!(parse_cpu_ticks(stat), Some((157, 43)));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn run_reports_exit_status_and_wall_time() {
        let ok = run(Command::new("true").arg("x"), Duration::from_secs(10)).unwrap();
        assert!(ok.ok && ok.wall_s > 0.0);
        let bad = run(&mut Command::new("false"), Duration::from_secs(10)).unwrap();
        assert!(!bad.ok);
        let slow = run(Command::new("sleep").arg("5"), Duration::from_millis(50)).unwrap();
        assert!(!slow.ok && slow.wall_s < 2.0);
    }
}
