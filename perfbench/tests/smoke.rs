//! Smoke mode end to end: every workload, untraced and traced, on a
//! tiny corpus for one second. Every metric `BENCHMARK.json` declares
//! must be printed with its unit, and nothing may fail.

use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let value_of = |entry: &str, key: &str| {
        let rest = &entry[entry.find(key).expect("key present") + key.len()..];
        let rest = &rest[rest.find('"').expect("string value") + 1..];
        rest[..rest.find('"').expect("closed string")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (value_of(entry, "\"name\""), value_of(entry, "\"unit\"")))
        .collect()
}

/// Build the `sama` binary the way the benchmark does, into this test's
/// target directory.
fn sama_binary(target: &Path) -> PathBuf {
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "sama",
        ])
        .arg("--manifest-path")
        .arg(manifest_dir().join("../Cargo.toml"))
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building sama failed");
    target.join("release/sama")
}

#[test]
fn smoke_mode_prints_every_metric_and_fails_nothing() {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("binary sits in <target>/<profile>/");
    let sama = sama_binary(target);
    let out = target.join("perfbench-smoke");
    std::fs::create_dir_all(&out).expect("smoke output directory");
    for workload in ["lubm3k-query", "lubm30k-batch", "lubm3k-light-open"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .arg("--sama")
                .arg(&sama)
                .arg("--root")
                .arg(manifest_dir().join(".."))
                .arg("--out")
                .arg(&out)
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} trace {trace}: {}\n{stdout}",
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\":true,"), "{last}");
            assert!(last.contains(",\"failed\":0,"), "{last}");
            for (name, unit) in declared(section) {
                let key = format!("\"{name}\":{{\"value\":");
                let at = last
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {last}"));
                let rest = &last[at + key.len()..];
                let value = &rest[..rest.find(',').expect("value then unit")];
                assert!(value.parse::<f64>().is_ok(), "{name} = {value}");
                assert!(
                    rest.starts_with(&format!("{value},\"unit\":\"{unit}\"}}")),
                    "{name} lacks unit {unit}: {last}"
                );
            }
            if trace == "1" {
                assert!(last.contains("\"failed_ratio\":{\"value\":0,"), "{last}");
            }
        }
    }
}
