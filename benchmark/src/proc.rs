//! The `bismarck_serve` subprocess under test: built beside the harness,
//! spawned with an explicit environment, observed through `/proc`, and
//! always killed and waited for.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Builds the server binary (a `[[bin]]` of this package compiled from
/// `crates/bismarck/src/bin/bismarck_serve.rs`) and returns its path.
/// `cargo run` builds only the harness itself, so this nested build makes
/// the sibling current; it is a fingerprint check when nothing changed.
/// Build time is never part of `setup_s`.
pub fn build_server() -> Result<PathBuf, String> {
    let manifest = crate::env::benchmark_dir().join("Cargo.toml");
    let exe = std::env::current_exe().map_err(|e| format!("locate the harness binary: {e}"))?;
    // `<target dir>/release/bolton_benchmark`: build into the same place
    // whether or not `CARGO_TARGET_DIR` reached this process.
    let target_dir =
        exe.parent().and_then(Path::parent).ok_or("harness binary has no target directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "bismarck_serve", "--manifest-path"])
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo build for bismarck_serve: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --bin bismarck_serve failed ({status})"));
    }
    let server = exe.with_file_name("bismarck_serve");
    if !server.is_file() {
        return Err(format!("{} was not built", server.display()));
    }
    Ok(server)
}

/// A running server. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    /// Held open for the server's lifetime: its later `println!`s would
    /// panic on a closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
    addr: String,
}

impl Server {
    /// Spawns `exe --addr 127.0.0.1:0 [--data dir]` with a cleared
    /// environment plus exactly `env`, and waits for its `listening on`
    /// line (printed after recovery finishes).
    pub fn spawn(
        exe: &Path,
        data: Option<&Path>,
        env: &[(&str, String)],
    ) -> Result<Server, String> {
        let mut cmd = Command::new(exe);
        cmd.env_clear().args(["--addr", "127.0.0.1:0"]);
        if let Some(dir) = data {
            cmd.arg("--data").arg(dir);
        }
        for (k, v) in env {
            cmd.env(k, v);
        }
        die_with_parent(&mut cmd);
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().strip_prefix("listening on ").map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, _stdout: stdout, addr }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address (read {read:?}, line {line:?})"))
            }
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SIGKILL`, then wait: nothing the process had not flushed survives
    /// except what the operating system's cache holds.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    pub fn sample(&self) -> ProcSample {
        ProcSample::of(self.pid())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One reading of `/proc/<pid>/{stat,status,io}`. Fields the kernel does
/// not expose read as `None` and the metrics built on them are reported
/// as missing, never guessed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// User + system CPU time in microseconds.
    pub cpu_us: Option<u64>,
    pub threads: Option<u64>,
    pub rss_kb: Option<u64>,
    /// Bytes the process caused to be sent to the storage layer.
    pub write_bytes: Option<u64>,
    /// `write`-family system calls (files and sockets alike).
    pub syscw: Option<u64>,
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Asks the kernel to `SIGKILL` the child when the harness thread that
/// spawned it dies, so a harness killed from outside (a driver's timeout)
/// leaves no server behind. `Drop` covers every other way out.
fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the closure runs in the forked child before exec and makes
    // one async-signal-safe system call that takes integers only; it
    // touches no memory shared with the parent and allocates nothing.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
            Ok(())
        });
    }
}

/// Clock ticks per second for `/proc/<pid>/stat` CPU times.
fn clock_ticks() -> u64 {
    const SC_CLK_TCK: i32 = 2; // Linux
                               // SAFETY: `sysconf` takes an integer selector, touches no memory of
                               // ours and returns -1 for a selector it does not know.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    u64::try_from(ticks).ok().filter(|&t| t > 0).unwrap_or(100)
}

fn field_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines().find_map(|l| l.strip_prefix(key)).map(str::trim)
}

fn first_number(s: &str) -> Option<u64> {
    s.split_whitespace().next()?.parse().ok()
}

impl ProcSample {
    pub fn of(pid: u32) -> ProcSample {
        let read = |file: &str| std::fs::read_to_string(format!("/proc/{pid}/{file}")).ok();
        let mut sample = ProcSample::default();
        if let Some(stat) = read("stat") {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the whole line.
            if let Some((_, rest)) = stat.rsplit_once(')') {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
                if let (Some(u), Some(s)) = (ticks(11), ticks(12)) {
                    sample.cpu_us = Some((u + s) * 1_000_000 / clock_ticks());
                }
            }
        }
        if let Some(status) = read("status") {
            sample.threads = field_after(&status, "Threads:").and_then(first_number);
            sample.rss_kb = field_after(&status, "VmRSS:").and_then(first_number);
        }
        if let Some(io) = read("io") {
            sample.write_bytes = field_after(&io, "write_bytes:").and_then(first_number);
            sample.syscw = field_after(&io, "syscw:").and_then(first_number);
        }
        sample
    }
}
