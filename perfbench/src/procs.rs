//! Launching and stopping the shipped `pte-serve` / `pte-route` binaries.
//!
//! Each is started with its defaults: only a listen address (port 0, read
//! back from the start-up banner), a plan-log path for daemons and the
//! shard list for the router. Tuning variables are removed from the child
//! environment so a stray `PTE_THREADS` cannot change what is measured.

use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use pte_serve::{Client, Json};

/// Environment variables that would override a shipped default.
const TUNING_VARS: [&str; 4] =
    ["PTE_THREADS", "RAYON_NUM_THREADS", "PTE_PROBE_CACHE_CAP", "PTE_QUICK"];

/// A running daemon or router child process.
pub struct Proc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Proc {
    fn spawn(mut command: Command, banner: &str) -> io::Result<Proc> {
        for (name, _) in std::env::vars() {
            if TUNING_VARS.contains(&name.as_str())
                || name.starts_with("PTE_SERVE_")
                || name.starts_with("PTE_ROUTE_")
            {
                command.env_remove(name);
            }
        }
        let mut child = command.stdout(Stdio::piped()).stdin(Stdio::null()).spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .strip_prefix(banner)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match addr {
            Some(addr) => Ok(Proc { child, stdout, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!("unexpected start-up banner {line:?}")))
            }
        }
    }

    /// Starts `pte-serve` with a plan log at `store`.
    pub fn serve(bin_dir: &Path, store: &Path) -> io::Result<Proc> {
        let mut command = Command::new(bin_dir.join("pte-serve"));
        command.arg("--addr").arg("127.0.0.1:0").arg("--store").arg(store);
        Proc::spawn(command, "pte-serve listening on ")
    }

    /// Starts `pte-route` in front of `shards`.
    pub fn route(bin_dir: &Path, shards: &[String]) -> io::Result<Proc> {
        let mut command = Command::new(bin_dir.join("pte-route"));
        command.arg("--addr").arg("127.0.0.1:0").arg("--shards").arg(shards.join(","));
        Proc::spawn(command, "pte-route listening on ")
    }

    pub fn client(&self) -> io::Result<Client> {
        Client::connect(self.addr.as_str()).map_err(|e| io::Error::other(e.to_string()))
    }

    /// The process's `stats` document.
    pub fn stats(&self) -> io::Result<Json> {
        self.client()?.stats().map_err(|e| io::Error::other(e.to_string()))
    }

    /// The Prometheus exposition page of the `metrics` op.
    pub fn prometheus(&self) -> io::Result<String> {
        let doc = self.client()?.metrics().map_err(|e| io::Error::other(e.to_string()))?;
        Ok(doc.get("prometheus").and_then(Json::as_str).unwrap_or_default().to_string())
    }

    /// CPU time the process has run so far, in seconds (see [`cpu_s`]).
    pub fn cpu_s(&self) -> io::Result<f64> {
        cpu_s(Some(self.child.id()))
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the process to drain and waits for it to exit; kills it if it
    /// has not exited within ten seconds.
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = self
            .client()
            .and_then(|mut c| c.shutdown().map_err(|e| io::Error::other(e.to_string())));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                let mut rest = String::new();
                let _ = self.stdout.read_to_string(&mut rest);
                return asked;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("process did not exit after shutdown"))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB (0.0 if unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|text| {
            text.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// CPU time, in seconds, that a process (this one for `None`) has run:
/// all its threads, live and exited, read from its process CPU clock. The
/// kernel counts only time a task ran, not time the hypervisor stole from
/// the vCPU, which wall time includes. A busy host still slows the code
/// while it runs (see `perfbench/README.md`, "Host noise").
pub fn cpu_s(pid: Option<u32>) -> io::Result<f64> {
    // CLOCK_PROCESS_CPUTIME_ID, or another process's CPU clock as
    // `clock_getcpuclockid` encodes it: `(!pid << 3) | CPUCLOCK_SCHED`.
    let clock = pid.map_or(2, |pid| (!(pid as i32) << 3) | 2);
    let mut time = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `time` is a valid, writable `struct timespec` for the call.
    if unsafe { clock_gettime(clock, &mut time) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9)
}

/// This process's CPU time in seconds (see [`cpu_s`]).
pub fn self_cpu_s() -> f64 {
    cpu_s(None).expect("this process's CPU clock is readable")
}

/// CPU and wall seconds spent on a piece of work.
#[derive(Debug, Clone, Copy)]
pub struct Spent {
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl Spent {
    /// The median CPU time and the median wall time of `spent`, each taken
    /// on its own.
    pub fn median(spent: &[Spent]) -> Spent {
        let clock =
            |f: fn(&Spent) -> f64| crate::stats::median(&spent.iter().map(f).collect::<Vec<_>>());
        Spent { cpu_s: clock(|s| s.cpu_s), wall_s: clock(|s| s.wall_s) }
    }
}

/// Measures this process's CPU and wall time from `start` to `read`.
pub struct Stopwatch {
    cpu_s: f64,
    wall: Instant,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch { cpu_s: self_cpu_s(), wall: Instant::now() }
    }

    pub fn read(&self) -> Spent {
        Spent { cpu_s: self_cpu_s() - self.cpu_s, wall_s: self.wall.elapsed().as_secs_f64() }
    }
}

/// `(steal, total)` CPU time in clock ticks from the aggregate line of a
/// `/proc/stat` text: steal is time the hypervisor ran something else
/// while this machine had work. `None` if the line is missing or short.
pub fn cpu_times(stat: &str) -> Option<(u64, u64)> {
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|line| line.strip_prefix("cpu "))?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// This machine's `/proc/stat` CPU times (see [`cpu_times`]).
pub fn host_cpu_times() -> Option<(u64, u64)> {
    cpu_times(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Reads one un-labelled sample (`name value`) from a Prometheus page.
pub fn prom_value(page: &str, name: &str) -> f64 {
    page.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
            rest.trim().parse().ok()
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_times_reads_steal_and_total() {
        let stat = "cpu  10 1 5 80 2 0 1 7 3 0\ncpu0 5 0 2 40 1 0 0 3 1 0\n";
        assert_eq!(cpu_times(stat), Some((7, 106)));
        assert_eq!(cpu_times("cpu  1 2 3\n"), None);
        assert_eq!(cpu_times("intr 5\n"), None);
    }

    #[test]
    fn cpu_clocks_count_work_not_waiting() {
        let before = self_cpu_s();
        let spun = std::time::Instant::now();
        while spun.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(spun.elapsed());
        }
        let busy = self_cpu_s() - before;
        std::thread::sleep(Duration::from_millis(30));
        let idle = self_cpu_s() - before - busy;
        assert!(busy > 0.01 && idle < 0.01, "busy {busy} s, idle {idle} s");
        let by_pid = cpu_s(Some(std::process::id())).unwrap();
        assert!(by_pid >= before + busy, "{by_pid} < {}", before + busy);
    }

    #[test]
    fn prom_value_reads_exact_names_only() {
        let page = "# TYPE a_total counter\na_total 12\na_total_x 3\nb_us_sum 7.5\n";
        assert_eq!(prom_value(page, "a_total"), 12.0);
        assert_eq!(prom_value(page, "b_us_sum"), 7.5);
        assert_eq!(prom_value(page, "missing"), 0.0);
    }
}
