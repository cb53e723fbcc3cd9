//! Metric records, JSON helpers, CPU clocks and run provenance.

use serde::json::Value;
use serde::Serialize;
use std::path::Path;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of metrics; a later `set` of the same name replaces
/// the earlier value.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric {
                name: name.to_string(),
                value,
                unit,
            }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    pub fn extend(&mut self, other: &Metrics) {
        for m in &other.0 {
            self.set(&m.name, m.value, m.unit);
        }
    }
}

/// `{"<name>": {"value": v, "unit": u}, ...}`, the shape of the result
/// line's `metrics`.
impl Serialize for Metrics {
    fn to_value(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        obj([
                            ("value", Value::Float(m.value)),
                            ("unit", m.unit.to_value()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// A JSON object from its fields, in order.
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Whose CPU time [`cpu_s`] reads.
#[derive(Debug, Clone, Copy)]
pub enum CpuOf {
    Process,
    Thread,
}

/// CPU seconds of this process (all threads, live and exited) or of the
/// calling thread, from `clock_gettime`. Unlike wall time, it does not
/// count time spent waiting for a core.
pub fn cpu_s(of: CpuOf) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let clock = match of {
        CpuOf::Process => CLOCK_PROCESS_CPUTIME_ID,
        CpuOf::Thread => CLOCK_THREAD_CPUTIME_ID,
    };
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` has the layout of Linux x86_64 `struct
    // timespec`, which `clock_gettime` fills in.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where the run happened and on what code: nproc, last-level cache,
/// seed, git revision (when the checkout is a repository), a digest of
/// the sources, and the compiler version.
pub fn provenance(seed: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("nproc", nproc.to_value()),
        ("llc", llc_size().to_value()),
        ("seed", seed.to_value()),
        (
            "git_rev",
            command_line("git", &["rev-parse", "HEAD"]).to_value(),
        ),
        (
            "source_fnv64",
            format!("{:016x}", source_digest(Path::new("."))).to_value(),
        ),
        ("rustc", command_line("rustc", &["--version"]).to_value()),
    ])
}

/// Size of the highest-level CPU cache, e.g. `"32768K (L3)"`.
fn llc_size() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, String)> = None;
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, format!("{} (L{level})", size.trim())));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, s)| s)
}

/// First line of a command's standard output, or `"none"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the path and bytes of every Rust source and manifest
/// under `crates/` and `perfbench/`, in sorted path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_with_value_and_unit() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.25, "ms");
        m.set("count", 3.0, "count");
        m.set("latency_ms", 1.5, "ms");
        assert_eq!(
            m.to_value().to_json(),
            "{\"latency_ms\":{\"value\":1.5,\"unit\":\"ms\"},\
             \"count\":{\"value\":3.0,\"unit\":\"count\"}}"
        );
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (cpu_s(CpuOf::Process), cpu_s(CpuOf::Thread));
        let mut x = 0u64;
        while cpu_s(CpuOf::Thread) - t0 < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s(CpuOf::Process) - p0 >= 0.02);
    }

    #[test]
    fn provenance_records_every_field() {
        let p = provenance(42);
        for key in ["nproc", "llc", "seed", "git_rev", "source_fnv64", "rustc"] {
            assert!(p.field(key).is_ok(), "{key} missing from {}", p.to_json());
        }
        assert_eq!(p.field("seed").unwrap().as_int().unwrap(), 42);
    }
}
