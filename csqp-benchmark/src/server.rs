//! The system under test: building `csqp-serve` from source and running
//! it as a child process with the pinned flags.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use csqp_json::Json;
use csqp_serve::ServerConfig;

use crate::client::Conn;
use crate::clock;

/// Worker threads the server runs (`--workers`).
pub const WORKERS: usize = 2;
/// Event-loop threads the server runs (`--event-threads`).
pub const EVENT_THREADS: usize = 1;
/// The server's memo budget in bytes (`--memo-bytes`).
pub const MEMO_BYTES: usize = 1 << 20;

/// The `csqp-serve` command line every workload runs against; every
/// other flag stays at its default.
pub fn server_args() -> Vec<String> {
    [
        "--addr",
        "127.0.0.1:0",
        "--workers",
        &WORKERS.to_string(),
        "--event-threads",
        &EVENT_THREADS.to_string(),
        "--memo-bytes",
        &MEMO_BYTES.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The in-process equivalent of [`server_args`], for the replay.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        event_threads: EVENT_THREADS,
        memo_bytes: MEMO_BYTES,
        ..ServerConfig::default()
    }
}

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    here.parent().unwrap_or(here).to_path_buf()
}

/// Build `csqp-serve` in release mode from the repository's sources and
/// return the path of the executable Cargo reports.
pub fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "csqp-serve"])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--message-format=json-render-diagnostics")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building csqp-serve failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .find(|msg| {
            msg.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Json::as_str)
                == Some("csqp-serve")
        })
        .and_then(|msg| {
            msg.get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no csqp-serve executable".to_string())
}

/// A running `csqp-serve` child. Dropping it kills the process and
/// waits for it.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    /// Held open: the server logs to stdout periodically, and a closed
    /// pipe would fail that write.
    stdout: BufReader<ChildStdout>,
    /// The loopback address the server listens on.
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Spawn the server and open the control session. Returns the
    /// process, the control connection, and the set-up time: from spawn
    /// to the first HELLO-ACK. The server also gets `--seconds lifetime`,
    /// so it shuts itself down should this process die without killing
    /// it.
    pub fn spawn(
        bin: &Path,
        lifetime: Duration,
    ) -> Result<(ServerProcess, Conn, Duration), String> {
        let started = clock::now();
        let mut child = Command::new(bin)
            .args(server_args())
            .arg("--seconds")
            .arg(lifetime.as_secs().max(1).to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("csqp-serve stdout was not captured".to_string());
        };
        let mut proc = ServerProcess {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        proc.stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading csqp-serve output: {e}"))?;
        proc.addr = line
            .trim()
            .strip_prefix("csqp-serve: listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected csqp-serve banner {line:?}"))?;
        let control = Conn::open(proc.addr, "csqp-benchmark-control")?;
        Ok((proc, control, started.elapsed()))
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
