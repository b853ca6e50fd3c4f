//! Runs the built harness with `--quick` on every workload, traced and
//! untraced, and checks its output against `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;
use json::Json;

const EXE: &str = env!("CARGO_BIN_EXE_egm_benchmark");

/// The repository root: the harness resolves `BENCHMARK.json` and the
/// served bench record relative to it.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits one level below the root")
}

fn declaration() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{list} is a list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            (
                field("name").expect("name"),
                field("unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs one workload and returns its result object (the last line).
fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(EXE)
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("run the harness");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: result is not JSON ({e}): {last}"))
}

fn check_result(workload: &str, result: &Json, declared: &[(String, String)]) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        emitted, wanted,
        "{workload}: exactly the declared metrics, in order"
    );
    for ((name, entry), (_, unit)) in metrics.iter().zip(declared) {
        assert!(well_formed(name), "{name}");
        let value = entry.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload} {name}: {value:?}"
        );
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let decl = declaration();
    let end_to_end = names(&decl, "end_to_end");
    let per_layer = names(&decl, "per_layer");
    for (workload, _) in names(&decl, "workloads") {
        let untraced = run(&workload, "0");
        check_result(&workload, &untraced, &end_to_end);
        // End-to-end metrics are never 0.
        for (name, entry) in untraced.get("metrics").and_then(Json::as_obj).unwrap() {
            assert_ne!(
                entry.get("value").and_then(Json::as_f64),
                Some(0.0),
                "{workload} {name}"
            );
        }
        check_result(&workload, &run(&workload, "1"), &per_layer);
    }
}

#[test]
fn harness_tables_match_the_declaration() {
    let decl = declaration();
    let out = Command::new(EXE)
        .arg("--describe")
        .output()
        .expect("--describe");
    let described = Json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("JSON");
    let workloads: Vec<String> = names(&decl, "workloads").into_iter().map(|w| w.0).collect();
    let described_workloads: Vec<&str> = described
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(workloads, described_workloads);
    assert_eq!(names(&decl, "end_to_end"), names(&described, "end_to_end"));
    assert_eq!(names(&decl, "per_layer"), names(&described, "per_layer"));

    // Each prediction names a declared end-to-end metric and workload.
    let end_to_end: Vec<String> = names(&decl, "end_to_end")
        .into_iter()
        .map(|m| m.0)
        .collect();
    for layer in described.get("per_layer").and_then(Json::as_arr).unwrap() {
        let name = layer.get("name").and_then(Json::as_str).unwrap();
        let moves = layer.get("moves").and_then(Json::as_str).unwrap();
        assert!(
            end_to_end.iter().any(|m| m == moves),
            "{name} moves {moves}"
        );
        let on = layer.get("on").and_then(Json::as_arr).unwrap();
        assert!(!on.is_empty(), "{name} names no workload");
        for w in on.iter().filter_map(Json::as_str) {
            assert!(workloads.iter().any(|d| d == w), "{name} on {w}");
        }
    }
}

#[test]
fn compare_flags_a_regression() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let record = |run_s: f64| {
        format!(
            "{{\"workload\":\"scale_10k_seq\",\"seed\":1,\"trace\":0,\"config\":{{}},\"result\":{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"run_s\":{{\"value\":{run_s},\"unit\":\"s\"}}}}}}}}\n"
        )
    };
    let write = |name: &str, values: &[f64]| {
        let path = dir.join(name);
        std::fs::write(&path, values.iter().map(|&v| record(v)).collect::<String>()).unwrap();
        path
    };
    let base = write("base.jsonl", &[2.00, 2.02, 1.98]);
    let same = write("same.jsonl", &[2.01, 2.03, 1.99]);
    let slow = write("slow.jsonl", &[3.00, 3.03, 2.97]);
    let compare = |b: &Path| {
        Command::new(EXE)
            .current_dir(repo_root())
            .arg("--compare")
            .args([&base, b])
            .output()
            .expect("--compare")
    };
    let ok = compare(&same);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stdout)
    );
    assert!(String::from_utf8_lossy(&ok.stdout).contains(" ok"));
    let worse = compare(&slow);
    assert!(!worse.status.success());
    assert!(String::from_utf8_lossy(&worse.stdout).contains("worse"));
}

#[test]
fn missing_program_or_bad_arguments_fail_without_a_result() {
    let out = Command::new(EXE)
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let out = Command::new(EXE).args(["--trace", "2"]).output().unwrap();
    assert!(!out.status.success());
}
