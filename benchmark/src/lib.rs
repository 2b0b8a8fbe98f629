//! The dmdc benchmark: five end-to-end workloads driven through the `dmdc`
//! executable and its HTTP wire, the run records and comparison rules, and
//! the span machinery the traced per-layer binary shares.

pub mod check;
pub mod compare;
pub mod http;
pub mod json;
pub mod proc;
pub mod result;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::{Path, PathBuf};

/// The cargo target directory the executables were built into: the
/// `CARGO_TARGET_DIR` the build used, else `target`.
pub fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
}

/// A release executable in the target directory, made absolute.
pub fn release_exe(name: &str) -> Result<PathBuf, String> {
    let path = target_dir().join("release").join(name);
    std::fs::canonicalize(&path).map_err(|e| {
        format!(
            "{}: {e} (build it first: `cargo build --release`, or run benchmark/run.sh)",
            path.display()
        )
    })
}

/// A fresh scratch directory for one workload of one run, under
/// `<target>/dmdc-benchmark/`, where everything the benchmark writes goes.
pub fn scratch_dir(workload: &str, seed: u64) -> std::io::Result<PathBuf> {
    let dir = target_dir()
        .join("dmdc-benchmark")
        .join(format!("{workload}-seed{seed}-pid{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    std::fs::canonicalize(dir)
}

/// Parses `--flag value` pairs; every argument must belong to a pair.
pub fn parse_flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or(format!("unexpected argument `{a}`"))?;
        let value = it.next().ok_or(format!("--{name} needs a value"))?;
        flags.push((name.to_string(), value.clone()));
    }
    Ok(flags)
}

/// The common flags of both binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// `--workload NAME`: one workload, ending in its JSON summary line;
    /// `None` runs all of them.
    pub workload: Option<String>,
    /// `--seed N` (default 1, the working seed; 2 is the hold-out).
    pub seed: u64,
    /// `--seconds S`: measuring time per workload (default 10,
    /// `BENCHMARK.json`'s `run_seconds`).
    pub seconds: u64,
    /// `--trace 0|1`: whether the caller asked for the traced run.
    pub trace: bool,
    /// `--out DIR`: where result files go.
    pub out: Option<PathBuf>,
}

impl Options {
    /// Parses the flags.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: None,
            seed: 1,
            seconds: 10,
            trace: false,
            out: None,
        };
        for (name, value) in parse_flags(args)? {
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("--{name} wants a whole number, got `{value}`"))
            };
            match name.as_str() {
                "workload" => o.workload = Some(value.clone()),
                "seed" => o.seed = number()?,
                "seconds" => o.seconds = number()?.max(1),
                "trace" => o.trace = number()? == 1,
                "out" => o.out = Some(PathBuf::from(&value)),
                other => return Err(format!("unknown flag --{other}")),
            }
        }
        if let Some(w) = &o.workload {
            if !workloads::NAMES.contains(&w.as_str()) {
                return Err(format!(
                    "unknown workload `{w}` (one of {})",
                    workloads::NAMES.join(", ")
                ));
            }
        }
        Ok(o)
    }

    /// The workloads to run.
    pub fn workloads(&self) -> Vec<&str> {
        match &self.workload {
            Some(w) => vec![w.as_str()],
            None => workloads::NAMES.to_vec(),
        }
    }
}

/// Writes `text` to `dir/name`, creating `dir`.
pub fn write_file(dir: &Path, name: &str, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(name), text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_single_workload_invocation() {
        let o = Options::parse(&args(
            "--workload warm-replay --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workloads(), ["warm-replay"]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 12, true));
        assert_eq!(Options::parse(&[]).unwrap().workloads(), workloads::NAMES);
        assert!(Options::parse(&args("--workload nope")).is_err());
        assert!(Options::parse(&args("--seed")).is_err());
        assert!(Options::parse(&args("--seed x")).is_err());
        assert!(Options::parse(&args("stray")).is_err());
    }
}
