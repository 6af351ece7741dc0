//! Server processes (`coconut serve` in its three shapes) and the client
//! connections that drive them.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::Fail;

/// A running `coconut serve` child. Killed and reaped on drop, so no error
/// path leaves a process behind.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Spawn `coconut serve <args>` and wait until it prints its listening
    /// address (`serving on <addr>` or `SHARD LISTENING <addr>`).
    pub fn spawn(coconut: &Path, args: &[String]) -> Result<Self, Fail> {
        let mut child = Command::new(coconut)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| Fail::setup(format!("spawn {}: {e}", coconut.display())))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(Fail::setup("server stdout was not captured"));
        };
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            _stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = proc
                ._stdout
                .read_line(&mut line)
                .map_err(|e| Fail::setup(format!("server stdout: {e}")))?;
            if n == 0 {
                return Err(Fail::setup(format!(
                    "server exited before listening (args {args:?})"
                )));
            }
            let addr = line
                .split_once("serving on ")
                .map(|(_, rest)| rest)
                .or_else(|| line.strip_prefix("SHARD LISTENING "))
                .and_then(|rest| rest.split_whitespace().next());
            if let Some(addr) = addr {
                proc.addr = addr.to_string();
                return Ok(proc);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set of the process so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, Fail> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, Fail> {
    let status = std::fs::read_to_string(status_path)
        .map_err(|e| Fail::setup(format!("read {status_path}: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Fail::setup(format!("no VmHWM in {status_path}")))
}

/// Reset this process's peak-RSS watermark to its current RSS, so the next
/// [`peak_rss_mb`] reading covers only what follows. Returns false where
/// the kernel does not allow it (the reading then covers the whole run).
pub fn reset_own_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Remove `dir` if it exists.
pub fn clear_dir(dir: &Path) -> Result<(), Fail> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(Fail::setup(format!("remove {}: {e}", dir.display()))),
    }
}

/// Arguments for a single-node server over `data` with its index in
/// `index_dir`.
pub fn single_node_args(data: &Path, index_dir: &Path) -> Vec<String> {
    vec![
        "--data".into(),
        path_arg(data),
        "--index-dir".into(),
        path_arg(index_dir),
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--workers".into(),
        "4".into(),
        "--queue".into(),
        "8".into(),
    ]
}

pub fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// One persistent line-protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

/// What one request got back.
pub enum Reply {
    Ok(String),
    /// An `ERR ...` line from the server.
    Err(String),
    /// No reply: the connection failed, closed or timed out.
    Lost(String),
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Self, Fail> {
        let stream = coconut_server::connect_with_retry(
            addr,
            20,
            Duration::from_millis(20),
            Duration::from_millis(500),
        )
        .map_err(|e| Fail::setup(format!("connect {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| Fail::setup(format!("set timeout: {e}")))?;
        let writer = stream
            .try_clone()
            .map_err(|e| Fail::setup(format!("clone socket: {e}")))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Send one request line (without newline) and read the one-line reply.
    pub fn request(&mut self, request: &str) -> Reply {
        if let Err(e) = self
            .writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
        {
            return Reply::Lost(format!("send: {e}"));
        }
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Reply::Lost("connection closed".into()),
            Ok(_) => {
                let reply = self.line.trim_end().to_string();
                if reply.starts_with("OK") {
                    Reply::Ok(reply)
                } else {
                    Reply::Err(reply)
                }
            }
            Err(e) => Reply::Lost(format!("recv: {e}")),
        }
    }

    /// [`Conn::request`] that must succeed (setup and probe traffic).
    pub fn must(&mut self, request: &str) -> Result<String, Fail> {
        match self.request(request) {
            Reply::Ok(r) => Ok(r),
            Reply::Err(r) | Reply::Lost(r) => Err(Fail::setup(format!(
                "{} -> {r}",
                request.chars().take(60).collect::<String>()
            ))),
        }
    }
}

/// Time `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// A work directory for one run, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(root: &Path, name: &str) -> Result<Self, Fail> {
        let dir = root.join(format!("{name}-{}", std::process::id()));
        clear_dir(&dir)?;
        std::fs::create_dir_all(&dir)
            .map_err(|e| Fail::setup(format!("create {}: {e}", dir.display())))?;
        Ok(WorkDir(dir))
    }

    pub fn join(&self, p: &str) -> PathBuf {
        self.0.join(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
