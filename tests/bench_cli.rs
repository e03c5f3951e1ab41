//! End-to-end tests of the `scwsc_bench` snapshot pipeline: two
//! recordings of the smoke suite self-diff clean, allocation statistics
//! do not depend on rep count, label or output path, and `diff` fails on
//! a perturbed counter or one extra allocation — the gates CI relies on.

use scwsc::sets::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Locates a compiled workspace binary next to the test binary.
fn bin_path(name: &str) -> PathBuf {
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop(); // test binary name
    path.pop(); // deps/
    path.push(name);
    path
}

fn bench_available() -> bool {
    bin_path("scwsc_bench").exists()
}

/// A scratch directory of this test process, so concurrent runs of the
/// suite never share snapshot files.
fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scwsc_bench_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(args: &[&str]) -> Output {
    Command::new(bin_path("scwsc_bench"))
        .args(args)
        .output()
        .expect("scwsc_bench runs")
}

/// Records the smoke suite to `out` with the extra `args`.
fn record_smoke(out: &Path, args: &[&str]) -> String {
    let mut full = vec!["record", "--suite", "smoke", "--out", out.to_str().unwrap()];
    full.extend_from_slice(args);
    let output = bench(&full);
    assert!(
        output.status.success(),
        "record {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::read_to_string(out).expect("snapshot written")
}

/// Runs `diff base new`; returns whether it passed and its stdout.
fn diff(base: &Path, new: &Path) -> (bool, String) {
    let output = bench(&["diff", base.to_str().unwrap(), new.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    (output.status.success(), stdout)
}

/// `text` with the first `"key": N` replaced by `"key": N + delta`.
fn nudge(text: &str, key: &str, delta: i64) -> String {
    let field = format!("\"{key}\": ");
    let idx = text.find(&field).expect("field present");
    let rest = &text[idx + field.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    let value: i64 = digits.parse().expect("integer value");
    text.replacen(
        &format!("{field}{digits}"),
        &format!("{field}{}", value + delta),
        1,
    )
}

#[test]
fn record_then_diff_catches_perturbed_counter() {
    if !bench_available() {
        eprintln!("scwsc_bench not built (run `cargo build --workspace`); skipping");
        return;
    }
    let dir = scratch_dir();
    let base = dir.join("BENCH_base.json");
    let fresh = dir.join("BENCH_fresh.json");
    let base_text = record_smoke(&base, &["--quick", "--label", "base"]);
    record_smoke(&fresh, &["--quick", "--label", "fresh"]);
    assert!(base_text.contains("\"label\": \"base\""), "{base_text}");
    assert!(base_text.contains("smoke/cwsc_opt"), "{base_text}");

    // Two independent recordings of a deterministic workload: counters,
    // allocations and quality all match even though wall-clock differs.
    let (ok, stdout) = diff(&base, &fresh);
    assert!(ok, "self-diff regressed:\n{stdout}");
    assert!(stdout.contains("0 regression(s)"), "{stdout}");

    // Perturb one deterministic counter in the JSON text; the diff must
    // fail with a non-zero exit and name the counter.
    let perturbed = dir.join("BENCH_perturbed.json");
    std::fs::write(&perturbed, nudge(&base_text, "selections", 1)).unwrap();
    let (ok, stdout) = diff(&base, &perturbed);
    assert!(!ok, "perturbed counter must fail the diff:\n{stdout}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("selections"), "{stdout}");

    for p in [&base, &fresh, &perturbed] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn alloc_blocks_do_not_depend_on_reps_label_or_path() {
    if !bench_available() {
        eprintln!("scwsc_bench not built; skipping");
        return;
    }
    let dir = scratch_dir();
    let short = dir.join("a.json");
    let long = dir.join("BENCH_a_much_longer_output_file_name_than_the_other.json");
    let quick = record_smoke(&short, &["--quick", "--label", "a"]);
    let reps = record_smoke(&long, &["--reps", "2", "--label", &"x".repeat(30)]);
    let workloads = |text: &str| -> Vec<(String, String)> {
        let json = Json::parse(text).expect("snapshot parses");
        json.get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let name = w.get("name").and_then(Json::as_str).unwrap().to_string();
                let alloc = w.get("alloc").expect("alloc block recorded");
                (name, alloc.to_compact())
            })
            .collect()
    };
    let (quick, reps) = (workloads(&quick), workloads(&reps));
    assert!(!quick.is_empty());
    assert_eq!(quick, reps, "alloc blocks differ between recordings");
    for p in [&short, &long] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn diff_fails_on_one_extra_allocation_and_notes_one_fewer() {
    if !bench_available() {
        eprintln!("scwsc_bench not built; skipping");
        return;
    }
    let dir = scratch_dir();
    let fresh = dir.join("BENCH_alloc_fresh.json");
    let base = dir.join("BENCH_alloc_base.json");
    let fresh_text = record_smoke(&fresh, &["--quick", "--label", "fresh"]);

    // The baseline allocated once less: the fresh run regressed.
    std::fs::write(&base, nudge(&fresh_text, "allocs", -1)).unwrap();
    let (ok, stdout) = diff(&base, &fresh);
    assert!(!ok, "one extra allocation must fail the diff:\n{stdout}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("allocs rose"), "{stdout}");

    // The baseline allocated once more: the fresh run is leaner, which
    // passes with a note to re-record the baseline.
    std::fs::write(&base, nudge(&fresh_text, "allocs", 1)).unwrap();
    let (ok, stdout) = diff(&base, &fresh);
    assert!(ok, "one fewer allocation must pass:\n{stdout}");
    assert!(stdout.contains("allocs fell"), "{stdout}");
    assert!(stdout.contains("re-record the baseline"), "{stdout}");

    for p in [&base, &fresh] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn bench_rejects_bad_usage() {
    if !bench_available() {
        eprintln!("scwsc_bench not built; skipping");
        return;
    }
    for args in [
        &["record", "--suite", "nope"] as &[&str],
        &["record", "--threads", "2"],
        &["diff", "only-one.json"],
        &["diff", "a.json", "b.json", "--counters-only"],
        &["diff", "a.json", "b.json", "--tolerance", "0.1"],
        &["serve-load", "--merge-snapshot", "a.json"],
        &["trend"],
        &["frobnicate"],
    ] {
        let output = Command::new(bin_path("scwsc_bench"))
            .args(args)
            .output()
            .expect("scwsc_bench runs");
        assert!(!output.status.success(), "{args:?} should fail");
    }
}

#[test]
fn solve_profile_prints_span_tree() {
    if !bin_path("scwsc_solve").exists() {
        eprintln!("scwsc_solve not built; skipping");
        return;
    }
    let output = Command::new(bin_path("scwsc_solve"))
        .args([
            "--rows",
            "600",
            "--k",
            "5",
            "--coverage",
            "0.3",
            "--algorithm",
            "cwsc",
            "--profile",
        ])
        .output()
        .expect("solver runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("== span profile =="), "{stdout}");
    assert!(stdout.contains("total"), "{stdout}");
    assert!(stdout.contains("select"), "{stdout}");
    assert!(stdout.contains("100.0%"), "{stdout}");
}
