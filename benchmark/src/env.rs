//! The hermetic environment: no inherited `BOLTON_*` knob reaches the code
//! under test, the ones a workload sets are named and recorded, and every
//! result carries a fingerprint of the box it was measured on.

use crate::json::Value;
use std::path::{Path, PathBuf};

/// Removes every inherited `BOLTON_*` variable from this process, so the
/// in-process layers (SIMD dispatch, pool width, chunk budgets) run on
/// their defaults. Returns the names removed, for the result file.
///
/// Must run before any thread is spawned.
pub fn scrub_bolton_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("BOLTON_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else { return "unknown".to_string() };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (_, mount, fstype) = (parts.next()?, parts.next()?, parts.next()?);
            abs.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

/// `git rev-parse HEAD` of the repo holding `benchmark/`, `unknown`
/// outside a git checkout. The ceiling keeps git from walking up past the
/// repo root to look for one.
fn git_commit(repo: &Path) -> String {
    let root = repo.join("..").canonicalize().unwrap_or_else(|_| repo.to_path_buf());
    std::process::Command::new("git")
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root))
        .arg("-C")
        .arg(repo)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the box, the build and the temp directory are described.
pub fn fingerprint(scratch: &Path) -> Value {
    Value::obj(vec![
        ("nproc", Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)),
        ("cpu_model", Value::str(cpu_model())),
        ("simd_mode", Value::str(bolton_linalg::simd::active().name())),
        ("kernel", Value::str(read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_default())),
        ("temp_dir_filesystem", Value::str(filesystem_of(scratch))),
        ("git_commit", Value::str(git_commit(&benchmark_dir()))),
    ])
}

/// The `benchmark/` directory: where `cargo run` says the manifest is, or
/// where it was at build time.
pub fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `benchmark/out/`, created on demand (git-ignored).
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = benchmark_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A per-process scratch directory under `benchmark/out/`, removed on
/// drop. Everything the benchmark writes (stores, data directories, heap
/// files of DISK tables via `TMPDIR`) lands here, inside the checkout.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        let dir = out_dir()?.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        // DISK tables put their heap files under `std::env::temp_dir()`.
        std::env::set_var("TMPDIR", &dir);
        Ok(Scratch { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch subdirectory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
