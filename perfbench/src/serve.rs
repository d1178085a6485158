//! The serving process: `perfbench serve` runs one `ipg-frontend` over the
//! SDF grammar on an ephemeral port until its standard input closes. The
//! load generator spawns it, so its memory and start-up are measured apart
//! from the generator's.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::Arc;

use ipg::{IpgServer, IpgSession};
use ipg_frontend::{Frontend, FrontendConfig, ShutdownMode};
use ipg_sdf::fixtures::sdf_grammar_and_scanner;

/// Worker threads of the frontend and the most threads or connections the
/// load generator uses: one per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Entry point of `perfbench serve --registry-budget BYTES`.
pub fn serve_main(args: &[String]) -> ExitCode {
    let budget = match args {
        [flag, bytes] if flag == "--registry-budget" => match bytes.parse() {
            Ok(bytes) => bytes,
            Err(_) => return fail("--registry-budget expects a byte count"),
        },
        _ => return fail("usage: perfbench serve --registry-budget BYTES"),
    };
    let sdf = sdf_grammar_and_scanner();
    let server = IpgServer::new(IpgSession::new(sdf.grammar)).with_scanner(sdf.scanner);
    let config = FrontendConfig {
        workers: nproc(),
        registry_budget: budget,
        ..FrontendConfig::default()
    };
    let frontend = match Frontend::bind("127.0.0.1:0", config, Arc::new(server)) {
        Ok(frontend) => frontend,
        Err(e) => return fail(&format!("bind failed: {e}")),
    };
    println!("ready {}", frontend.local_addr());
    if std::io::stdout().flush().is_err() {
        return fail("stdout closed");
    }
    // Serve until the parent closes our stdin (or dies).
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    frontend.shutdown(ShutdownMode::Drain);
    ExitCode::SUCCESS
}

fn fail(message: &str) -> ExitCode {
    eprintln!("perfbench serve: {message}");
    ExitCode::FAILURE
}

/// A running serving process. Dropping it closes its stdin and waits.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts `perfbench serve` and waits until it listens.
    pub fn spawn(registry_budget: usize) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve", "--registry-budget", &registry_budget.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut proc = ServerProc {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's address: {e}"))?;
        proc.addr = line
            .trim()
            .strip_prefix("ready ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not start (said {line:?})"))?;
        Ok(proc)
    }

    /// Peak resident memory of the serving process so far (`VmHWM`), MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in the server's /proc status".to_owned())
    }

    /// Closes the server's stdin, waits for its drain, checks its exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.stdin.take();
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
