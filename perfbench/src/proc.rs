//! Runs `htd` processes: wall time and peak resident set of each CLI
//! command, and a `htd serve` instance that is always stopped and reaped.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::OnceLock;
use std::time::Instant;

use crate::Fail;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child` and returns its exit code (`None` when killed by a
/// signal) and peak resident set in MiB. `Child::wait` reports no memory,
/// so this waits through `wait4`; the child must not be waited otherwise.
fn reap(child: &Child) -> Result<(Option<i32>, f64), Fail> {
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range")?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kib: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the Linux ABI's `int` and `struct rusage`; `pid` is our own
        // unreaped child, so the call touches no other process.
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}").into());
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, usage.maxrss_kib as f64 / 1024.0))
}

/// Milliseconds since the benchmark first asked, the time base of the
/// benchmark's own spans.
pub fn now_ms() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3
}

/// One finished CLI command.
pub struct Ran {
    pub ok: bool,
    pub start_ms: f64,
    pub wall_s: f64,
    pub rss_mb: f64,
}

/// Runs `htd <args>` to completion from `dir`, discarding its stdout.
pub fn run(htd: &Path, dir: &Path, args: &[String]) -> Result<Ran, Fail> {
    let start_ms = now_ms();
    let start = Instant::now();
    let child = Command::new(htd)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", htd.display()))?;
    let (code, rss_mb) = reap(&child)?;
    let wall_s = start.elapsed().as_secs_f64();
    if code != Some(0) {
        eprintln!("perfbench: `htd {}` exited with {code:?}", args.join(" "));
    }
    Ok(Ran {
        ok: code == Some(0),
        start_ms,
        wall_s,
        rss_mb,
    })
}

/// A running `htd serve`. Dropping it kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    drain: Option<std::thread::JoinHandle<()>>,
    pub addr: String,
}

impl Server {
    pub fn start(htd: &Path, dir: &Path, args: &[String]) -> Result<Server, Fail> {
        let mut child = Command::new(htd)
            .arg("serve")
            .args(args)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", htd.display()))?;
        let stdout = child.stdout.take().ok_or("no server stdout")?;
        let mut server = Server {
            child: Some(child),
            drain: None,
            addr: String::new(),
        };
        let mut out = BufReader::new(stdout);
        let mut line = String::new();
        out.read_line(&mut line)?;
        server.addr = line
            .trim()
            .strip_prefix("serving on ")
            .ok_or_else(|| format!("unexpected server handshake {line:?}"))?
            .to_string();
        // The server keeps printing (manifest writes, its closing line);
        // drain it so a full pipe can never stall it.
        server.drain = Some(std::thread::spawn(move || drain(out)));
        Ok(server)
    }

    /// Sends `shutdown`, waits for the process to exit cleanly and returns
    /// its peak resident set in MiB.
    pub fn stop(mut self) -> Result<f64, Fail> {
        crate::wire::Conn::open(&self.addr)?.call(&crate::wire::frame("shutdown", ""))?;
        let child = self.child.take().ok_or("server already stopped")?;
        let (code, rss_mb) = reap(&child)?;
        if let Some(drain) = self.drain.take() {
            drain.join().map_err(|_| "server stdout drain panicked")?;
        }
        if code != Some(0) {
            return Err(format!("htd serve exited with {code:?}").into());
        }
        Ok(rss_mb)
    }
}

fn drain(mut out: BufReader<ChildStdout>) {
    let mut sink = Vec::new();
    out.read_to_end(&mut sink).ok();
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            child.kill().ok();
            child.wait().ok();
        }
        if let Some(drain) = self.drain.take() {
            drain.join().ok();
        }
    }
}

/// Where the benchmark finds the binaries `run.sh` built.
pub fn binary(var: &str) -> Result<PathBuf, Fail> {
    let path = PathBuf::from(
        std::env::var_os(var).ok_or_else(|| format!("{var} is not set; run perfbench/run.sh"))?,
    );
    if path.is_file() {
        Ok(std::fs::canonicalize(path)?)
    } else {
        Err(format!("{} does not exist", path.display()).into())
    }
}
