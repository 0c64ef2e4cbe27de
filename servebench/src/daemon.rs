//! The `apls serve` daemon as a child process: spawn, wait for its listening
//! line, read its CPU time and peak memory from `/proc`, and stop it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux fixes the
/// user-visible `USER_HZ` at 100 on every architecture it runs on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// A running daemon.
pub struct Daemon {
    child: Child,
    /// The daemon's stdout, held open but no longer read: it prints only a
    /// few lines after its listening line, far below the pipe's capacity,
    /// and closing the pipe early would make its next print abort it.
    _stdout: BufReader<ChildStdout>,
    /// Address the daemon listens on (`host:port`).
    pub addr: String,
}

impl Daemon {
    /// Starts `apls serve` and waits until it prints its listening line.
    pub fn start(apls: &Path, workers: usize, cache: usize) -> Result<Daemon, String> {
        let mut child = Command::new(apls)
            .args(["serve", "--host", "127.0.0.1", "--port", "0", "--queue", "64", "--seed", "1"])
            .args(["--workers", &workers.to_string(), "--cache", &cache.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", apls.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            // a daemon that exits closes the pipe, which ends the read
            let read = stdout.read_line(&mut line).map_err(|e| format!("daemon stdout: {e}"));
            if !matches!(read, Ok(n) if n > 0) {
                let _ = child.kill();
                let status = child.wait().map_err(|e| e.to_string())?;
                return Err(format!("daemon exited before listening ({status})"));
            }
            if let Some(addr) = line
                .strip_prefix("apls service listening on ")
                .and_then(|rest| rest.split_whitespace().next())
            {
                let addr = addr.to_string();
                return Ok(Daemon { child, _stdout: stdout, addr });
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request/reply turn on a fresh connection (`stats`, `shutdown`).
    pub fn request(&self, line: &str) -> Result<String, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        writer.write_all(format!("{line}\n").as_bytes()).map_err(|e| e.to_string())?;
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).map_err(|e| e.to_string())?;
        Ok(reply.trim_end().to_string())
    }

    /// User plus system CPU time of the daemon so far, in milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // fields after the parenthesised command name, which may hold spaces
        let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields.get(i).and_then(|f| f.parse::<f64>().ok()).ok_or(format!("stat field {i}"))
        };
        // utime and stime are fields 14 and 15 of the line, 12 and 13 here
        Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_S * 1e3)
    }

    /// Peak resident set size (`VmHWM`) of the daemon, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or("no VmHWM")?;
        Ok(kib / 1024.0)
    }

    /// Asks the daemon to shut down and waits for it to exit, killing it if
    /// it does not within a few seconds.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.request("{\"op\":\"shutdown\"}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (asked, status.success()) {
                    (Ok(_), true) => Ok(()),
                    (Err(e), _) => Err(format!("shutdown request failed: {e}")),
                    (_, false) => Err(format!("daemon exited with {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
        Err("daemon ignored shutdown and was killed".to_string())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // reached only on error paths: `stop` consumes the daemon after a
        // clean shutdown, whose `wait` has already reaped it
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}
