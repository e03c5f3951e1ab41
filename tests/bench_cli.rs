//! End-to-end test of the `scwsc_bench` snapshot pipeline: record the
//! smoke suite twice, self-diff clean, then perturb a counter in the JSON
//! text and check the diff fails — the counter-exact regression gate CI
//! relies on.

use std::path::PathBuf;
use std::process::Command;

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

#[test]
fn record_then_diff_catches_perturbed_counter() {
    if !bench_available() {
        eprintln!("scwsc_bench not built (run `cargo build --workspace`); skipping");
        return;
    }
    let dir = std::env::temp_dir().join("scwsc_bench_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("BENCH_base.json");
    let fresh = dir.join("BENCH_fresh.json");

    for (label, path) in [("base", &base), ("fresh", &fresh)] {
        let output = Command::new(bin_path("scwsc_bench"))
            .args([
                "record",
                "--suite",
                "smoke",
                "--quick",
                "--label",
                label,
                "--out",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("scwsc_bench runs");
        assert!(
            output.status.success(),
            "record {label} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let base_text = std::fs::read_to_string(&base).expect("snapshot written");
    assert!(base_text.contains("\"label\": \"base\""), "{base_text}");
    assert!(base_text.contains("smoke/cwsc_opt"), "{base_text}");

    // Two independent recordings of a deterministic workload: the exact
    // counter comparison must pass even though wall-clock differs.
    let output = Command::new(bin_path("scwsc_bench"))
        .args([
            "diff",
            base.to_str().unwrap(),
            fresh.to_str().unwrap(),
            "--counters-only",
        ])
        .output()
        .expect("scwsc_bench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "self-diff regressed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("0 regression(s)"), "{stdout}");

    // Perturb one deterministic counter in the JSON text; the diff must
    // fail with a non-zero exit and name the counter.
    let selections = "\"selections\": ";
    let idx = base_text.find(selections).expect("counter present");
    let rest = &base_text[idx + selections.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    let value: u64 = digits.parse().expect("counter value");
    let perturbed_text = base_text.replacen(
        &format!("{selections}{digits}"),
        &format!("{selections}{}", value + 1),
        1,
    );
    let perturbed = dir.join("BENCH_perturbed.json");
    std::fs::write(&perturbed, perturbed_text).unwrap();

    let output = Command::new(bin_path("scwsc_bench"))
        .args([
            "diff",
            base.to_str().unwrap(),
            perturbed.to_str().unwrap(),
            "--counters-only",
        ])
        .output()
        .expect("scwsc_bench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        !output.status.success(),
        "perturbed counter must fail the diff:\n{stdout}"
    );
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("selections"), "{stdout}");

    for p in [&base, &fresh, &perturbed] {
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
