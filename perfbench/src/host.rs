//! The host fingerprint every result file carries, so a number can be
//! told apart from a change of host.

use std::path::Path;

/// Where and with what a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain that built the benchmark.
    pub rustc: String,
    /// Git revision of the measured tree, or `unknown` outside a git
    /// checkout.
    pub git_revision: String,
    /// Filesystem type of the directory the stores are written to.
    pub store_fs: String,
    /// The `--seed` the workload inputs were generated from.
    pub seed: u64,
}

impl Fingerprint {
    /// Fingerprints this host for a run whose stores live in `work_dir`
    /// of the checkout at `root`.
    #[must_use]
    pub fn collect(root: &Path, work_dir: &Path, seed: u64) -> Fingerprint {
        Fingerprint {
            nproc: nproc(),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC").to_owned(),
            git_revision: git_revision(root).unwrap_or_else(|| "unknown".into()),
            store_fs: fs_type(work_dir).unwrap_or_else(|| "unknown".into()),
            seed,
        }
    }

    /// The fingerprint as JSON object members, without braces.
    #[must_use]
    pub fn json_members(&self) -> String {
        format!(
            "\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_revision\": {}, \
             \"store_fs\": {}, \"seed\": {}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.git_revision),
            json_str(&self.store_fs),
            self.seed
        )
    }
}

/// Hardware threads available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> Option<String> {
    let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    text.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// Resolves `HEAD` of the git checkout at `root` by reading `.git`
/// directly (no `git` process).
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_owned)
}

/// The filesystem type of the mount holding `dir`: the longest mount
/// point in `/proc/self/mountinfo` that prefixes its canonical path.
fn fs_type(dir: &Path) -> Option<String> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let mut fields = line.split(' ');
        let Some(mount) = fields.nth(4) else { continue };
        let Some(fs) = line
            .split_once(" - ")
            .and_then(|(_, tail)| tail.split(' ').next())
        else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fs.to_owned()));
        }
    }
    best.map(|(_, fs)| fs)
}

/// A JSON string literal for `s`.
#[must_use]
pub fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_owned()).unwrap_or_else(|_| "\"?\"".into())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
