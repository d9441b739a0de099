//! Short runs of every workload through the real command line, untraced
//! and traced: each must pass its output checks and print, as its last
//! line, exactly the metrics `BENCHMARK.json` lists, with their units.

use std::path::Path;
use std::process::Command;

/// The `(name, unit)` pairs listed under `key` in `BENCHMARK.json`.
fn listed(manifest: &str, key: &str) -> Vec<(String, String)> {
    let start = manifest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &manifest[start..];
    let end = section.find(']').expect("section closes");
    section[..end]
        .split("\"name\":")
        .skip(1)
        .map(|entry| (quoted_after(entry, ""), quoted_after(entry, "\"unit\":")))
        .collect()
}

/// The first quoted string after `field` in `text`.
fn quoted_after(text: &str, field: &str) -> String {
    let at = text.find(field).map_or(0, |i| i + field.len());
    text[at..]
        .split('"')
        .nth(1)
        .expect("quoted value")
        .to_string()
}

/// `(name, unit, value)` of every metric in the result line.
fn reported(line: &str) -> Vec<(String, String, f64)> {
    let metrics = &line[line.find("\"metrics\":").expect("metrics key")..];
    metrics
        .split("{\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .map(|pair| {
            let name = pair[0].rsplit('"').nth(1).expect("metric name").to_string();
            let value = pair[1]
                .split(',')
                .next()
                .expect("value")
                .parse()
                .expect("number");
            (name, quoted_after(pair[1], "\"unit\":"), value)
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_listed_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut expected = listed(&manifest, key);
        expected.sort();
        for workload in ["rpc_sync", "rpc_batched", "upcall_input", "cluster_forward"] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.4"])
                .args(["--trace", trace])
                .env("CARGO_TARGET_DIR", &target)
                .output()
                .expect("benchmark starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} (trace {trace}) failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            assert!(last.contains("\"failed\": 0,"), "{last}");
            let metrics = reported(last);
            let mut names: Vec<(String, String)> = metrics
                .iter()
                .map(|(n, u, _)| (n.clone(), u.clone()))
                .collect();
            names.sort();
            assert_eq!(names, expected, "{workload} (trace {trace})");
            if trace == "0" {
                assert!(metrics.iter().all(|(_, _, v)| *v > 0.0), "{last}");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
