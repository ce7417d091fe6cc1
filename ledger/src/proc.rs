//! Running the `segram` binary as a user does: spawn, wait with a
//! timeout, and read what the run cost from `/proc`.

use std::fs::{self, File};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for the `/proc/*/stat` CPU fields
/// (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// How often the wait loop looks at the child.
const POLL: Duration = Duration::from_millis(2);
/// How often it reads `VmHWM` (at least 20 Hz is asked for; this is 100).
const RSS_POLL: Duration = Duration::from_millis(10);

/// What one finished child cost.
#[derive(Clone, Debug)]
pub struct Finished {
    pub wall: Duration,
    /// User + system CPU of the child and the children it waited for.
    pub cpu: Duration,
    /// Last `VmHWM` read before the child exited, in KiB.
    pub peak_rss_kib: u64,
    pub stdout: String,
}

/// CPU ticks of this process's waited-for children (`cutime + cstime`).
/// Only one child is ever alive inside a measured interval, so the delta
/// around spawn and wait is that child's CPU time, exactly.
fn children_cpu_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); cutime and cstime are 16 and 17.
    let field = |n: usize| fields.get(n - 3).and_then(|v| v.parse::<u64>().ok());
    field(16).unwrap_or(0) + field(17).unwrap_or(0)
}

fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Polls a live child's `VmHWM` no more often than [`RSS_POLL`].
struct RssPoller {
    pid: u32,
    last_read: Option<Instant>,
    peak_kib: u64,
}

impl RssPoller {
    fn new(pid: u32) -> Self {
        Self {
            pid,
            last_read: None,
            peak_kib: 0,
        }
    }

    fn poll(&mut self) {
        if self.last_read.is_some_and(|t| t.elapsed() < RSS_POLL) {
            return;
        }
        self.last_read = Some(Instant::now());
        if let Some(kib) = vm_hwm_kib(self.pid) {
            self.peak_kib = self.peak_kib.max(kib);
        }
    }
}

/// Where a child's standard output and error go: files, so a chatty child
/// can never block on a full pipe while the harness sleeps.
fn capture_files(dir: &Path) -> Result<(PathBuf, File, File), String> {
    let out_path = dir.join("child.stdout");
    let err_path = dir.join("child.stderr");
    let out = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let err = File::create(&err_path).map_err(|e| format!("{}: {e}", err_path.display()))?;
    Ok((out_path, out, err))
}

fn describe(command: &Command) -> String {
    let mut text = command.get_program().to_string_lossy().into_owned();
    for arg in command.get_args() {
        text.push(' ');
        text.push_str(&arg.to_string_lossy());
    }
    text
}

fn stderr_tail(dir: &Path) -> String {
    let text = fs::read_to_string(dir.join("child.stderr")).unwrap_or_default();
    let tail: Vec<&str> = text.lines().rev().take(3).collect();
    tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
}

/// Runs `command` to completion, capturing output under `dir`. A non-zero
/// exit, or a run longer than `timeout` (the child is then killed), is an
/// error naming the command.
pub fn run(command: &mut Command, dir: &Path, timeout: Duration) -> Result<Finished, String> {
    let (out_path, out, err) = capture_files(dir)?;
    command.stdin(Stdio::null()).stdout(out).stderr(err);
    let ticks_before = children_cpu_ticks();
    let started = Instant::now();
    let mut child = command
        .spawn()
        .map_err(|e| format!("cannot spawn `{}`: {e}", describe(command)))?;
    let mut rss = RssPoller::new(child.id());
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {}
            Err(e) => {
                kill_and_reap(&mut child);
                return Err(format!("waiting for `{}`: {e}", describe(command)));
            }
        }
        rss.poll();
        if started.elapsed() > timeout {
            kill_and_reap(&mut child);
            return Err(format!(
                "`{}` killed after the {:.0} s timeout",
                describe(command),
                timeout.as_secs_f64()
            ));
        }
        std::thread::sleep(POLL);
    };
    let wall = started.elapsed();
    let cpu_ticks = children_cpu_ticks() - ticks_before;
    if !status.success() {
        return Err(format!(
            "`{}` exited with {status}: {}",
            describe(command),
            stderr_tail(dir)
        ));
    }
    Ok(Finished {
        wall,
        cpu: Duration::from_secs_f64(cpu_ticks as f64 / TICKS_PER_S),
        peak_rss_kib: rss.peak_kib,
        stdout: fs::read_to_string(&out_path).unwrap_or_default(),
    })
}

fn kill_and_reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// A running `segram serve`. It is always told to `QUIT` and then killed
/// if it has not gone by itself, on every path out of the harness that
/// unwinds: dropping the handle is enough.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
    ticks_before: u64,
    rss: RssPoller,
    /// Spawn until the address file appeared: the daemon's index load.
    pub startup: Duration,
}

impl Daemon {
    /// Spawns `command` (a `segram serve ... --addr-file <addr_file>`) and
    /// waits until the daemon has written its listen address.
    pub fn start(
        command: &mut Command,
        dir: &Path,
        addr_file: &Path,
        timeout: Duration,
    ) -> Result<Self, String> {
        let _ = fs::remove_file(addr_file);
        let (_, out, err) = capture_files(dir)?;
        command.stdin(Stdio::null()).stdout(out).stderr(err);
        let ticks_before = children_cpu_ticks();
        let started = Instant::now();
        let child = command
            .spawn()
            .map_err(|e| format!("cannot spawn `{}`: {e}", describe(command)))?;
        let rss = RssPoller::new(child.id());
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            ticks_before,
            rss,
            startup: Duration::ZERO,
        };
        loop {
            // The daemon writes the file in one call, newline last.
            if let Ok(text) = fs::read_to_string(addr_file) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_owned();
                    daemon.startup = started.elapsed();
                    return Ok(daemon);
                }
            }
            let child = daemon.child.as_mut().expect("child is held until stop");
            if let Ok(Some(status)) = child.try_wait() {
                daemon.child = None;
                return Err(format!(
                    "`{}` exited with {status} before listening: {}",
                    describe(command),
                    stderr_tail(dir)
                ));
            }
            if started.elapsed() > timeout {
                return Err(format!("`{}` did not listen in time", describe(command)));
            }
            std::thread::sleep(POLL);
        }
    }

    /// Reads the daemon's memory high-water mark; call it while load runs.
    pub fn poll_rss(&mut self) {
        self.rss.poll();
    }

    fn send_quit(&self) -> bool {
        let Ok(mut stream) = TcpStream::connect(&self.addr) else {
            return false;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        if stream.write_all(b"QUIT\n").is_err() {
            return false;
        }
        let mut reply = String::new();
        let _ = BufReader::new(stream).read_line(&mut reply);
        reply.trim_end() == "BYE"
    }

    /// Sends `QUIT`, waits for the process to end and returns its CPU time
    /// and peak memory. A daemon that does not leave within `timeout` is
    /// killed and reported as an error.
    pub fn stop(mut self, timeout: Duration) -> Result<(Duration, u64), String> {
        self.rss.poll();
        let acknowledged = self.send_quit();
        let mut child = self.child.take().expect("child is held until stop");
        let started = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if started.elapsed() > timeout => {
                    kill_and_reap(&mut child);
                    return Err("segram serve did not exit after QUIT; killed".to_owned());
                }
                Ok(None) => std::thread::sleep(POLL),
                Err(e) => {
                    kill_and_reap(&mut child);
                    return Err(format!("waiting for segram serve: {e}"));
                }
            }
        };
        let cpu_ticks = children_cpu_ticks() - self.ticks_before;
        if !acknowledged || !status.success() {
            return Err(format!(
                "segram serve ended with {status} (QUIT acknowledged: {acknowledged})"
            ));
        }
        Ok((
            Duration::from_secs_f64(cpu_ticks as f64 / TICKS_PER_S),
            self.rss.peak_kib,
        ))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            if !self.addr.is_empty() {
                self.send_quit();
            }
            kill_and_reap(&mut child);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_child_reports_wall_output_and_status() {
        let dir = std::env::temp_dir().join(format!("ledger-proc-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let ok = run(
            Command::new("sh").args(["-c", "echo hello"]),
            &dir,
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(ok.stdout, "hello\n");
        assert!(ok.wall > Duration::ZERO);

        let failed = run(
            Command::new("sh").args(["-c", "echo oops >&2; exit 3"]),
            &dir,
            Duration::from_secs(10),
        )
        .unwrap_err();
        assert!(failed.contains("oops"), "{failed}");

        let slow = run(
            Command::new("sh").args(["-c", "sleep 30"]),
            &dir,
            Duration::from_millis(50),
        )
        .unwrap_err();
        assert!(slow.contains("timeout"), "{slow}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
