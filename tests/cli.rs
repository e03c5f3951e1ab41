//! End-to-end test of the `scwsc_solve` CLI binary: write a CSV, solve it
//! from the command line, and check the printed summary.

use scwsc::data::csv::write_table;
use scwsc::data::entities_table;
use std::path::PathBuf;
use std::process::Command;

/// Locates the compiled `scwsc_solve` binary next to the test binary.
fn solver_path() -> PathBuf {
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop(); // test binary name
    path.pop(); // deps/
    path.push("scwsc_solve");
    path
}

fn solver_available() -> bool {
    solver_path().exists()
}

#[test]
fn solve_entities_csv_with_cwsc() {
    if !solver_available() {
        eprintln!("scwsc_solve not built (run `cargo build --workspace`); skipping");
        return;
    }
    let dir = std::env::temp_dir().join("scwsc_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("entities.csv");
    write_table(&entities_table(), &csv).unwrap();

    let output = Command::new(solver_path())
        .args([
            "--csv",
            csv.to_str().unwrap(),
            "--k",
            "2",
            "--coverage",
            "0.5625", // 9/16
            "--algorithm",
            "cwsc",
        ])
        .output()
        .expect("solver runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The §V-B walkthrough: P16 then P3, total 28, covering 10.
    assert!(stdout.contains("2 patterns"), "{stdout}");
    assert!(stdout.contains("total weight 28"), "{stdout}");
    assert!(stdout.contains("{Type=B, Location=ALL}"), "{stdout}");
    assert!(stdout.contains("{Type=A, Location=North}"), "{stdout}");
    std::fs::remove_file(&csv).ok();
}

#[test]
fn solve_generated_trace_with_cmc() {
    if !solver_available() {
        eprintln!("scwsc_solve not built; skipping");
        return;
    }
    let output = Command::new(solver_path())
        .args([
            "--rows",
            "800",
            "--k",
            "5",
            "--coverage",
            "0.3",
            "--algorithm",
            "cmc",
        ])
        .output()
        .expect("solver runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("patterns, total weight"), "{stdout}");
    assert!(stdout.contains("protocol="), "{stdout}");
}

/// Pulls `"key":value` out of a JSONL line (numbers only).
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The value of the `--metrics` counter row `name`.
fn metrics_row(stdout: &str, name: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` metrics row: {stdout}"))
}

#[test]
fn trace_jsonl_aggregates_match_printed_stats() {
    if !solver_available() {
        eprintln!("scwsc_solve not built; skipping");
        return;
    }
    let dir = std::env::temp_dir().join("scwsc_cli_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    for algorithm in ["cwsc", "cmc"] {
        let trace = dir.join(format!("trace-{algorithm}.jsonl"));
        let output = Command::new(solver_path())
            .args([
                "--rows",
                "600",
                "--k",
                "5",
                "--coverage",
                "0.3",
                "--algorithm",
                algorithm,
                "--trace-jsonl",
                trace.to_str().unwrap(),
                "--metrics",
            ])
            .output()
            .expect("solver runs");
        assert!(
            output.status.success(),
            "{algorithm} stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        let stdout = String::from_utf8_lossy(&output.stdout);

        // Aggregate the trace by hand: every line is one {"t":..,"event":..}.
        let text = std::fs::read_to_string(&trace).expect("trace written");
        let mut benefit_sum = 0u64;
        let mut selections = 0u64;
        let mut guesses = 0u64;
        // Summed `count`s of the pruning and stale-pop totals.
        let mut counted = [
            ("heap_stale_pop", "heap stale pops", 0u64),
            ("subtree_pruned", "subtrees pruned", 0),
            ("candidate_pruned", "candidates pruned", 0),
        ];
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not a JSON object: {line}"
            );
            assert!(line.contains("\"t\":"), "missing timestamp: {line}");
            assert!(line.contains("\"event\":\""), "missing event: {line}");
            if line.contains("\"event\":\"benefit_computed\"") {
                benefit_sum += json_u64(line, "count").expect("count field");
            } else if line.contains("\"event\":\"set_selected\"") {
                selections += 1;
            } else if line.contains("\"event\":\"guess_started\"") {
                guesses += 1;
            }
            for (event, _, sum) in &mut counted {
                if line.contains(&format!("\"event\":\"{event}\"")) {
                    *sum += json_u64(line, "count").expect("count field");
                }
            }
        }

        // The stderr summary is the MetricsRecorder view of the same run.
        let summary = stderr
            .lines()
            .find(|l| l.starts_with("considered "))
            .expect("stats summary printed");
        assert_eq!(
            summary,
            &format!("considered {benefit_sum} patterns in {guesses} budget guess(es)"),
            "{algorithm}: trace aggregate disagrees with printed stats"
        );
        // The selection events are the printed solution, one per pattern.
        // CMC's trace holds every guess's selections, the printout only
        // the answering guess's.
        if algorithm == "cwsc" {
            assert!(
                stdout.contains(&format!("{selections} patterns")),
                "{selections} set_selected events vs: {stdout}"
            );
        }
        // --metrics printed the aggregated view too.
        assert!(stdout.contains("== metrics =="), "{stdout}");
        assert!(stdout.contains("benefits computed"), "{stdout}");
        assert!(stdout.contains("total"), "{stdout}"); // the per-phase table
        assert_eq!(metrics_row(&stdout, "selections"), selections);
        for (event, row, sum) in counted {
            assert_eq!(
                metrics_row(&stdout, row),
                sum,
                "{algorithm}: summed {event} counts vs the `{row}` row"
            );
        }
        std::fs::remove_file(&trace).ok();
    }
}

/// `--audit-jsonl` writes the decision ledger: the same solve twice
/// writes the same bytes, and every line is one JSON object.
#[test]
fn audit_jsonl_is_deterministic_json_lines() {
    if !solver_available() {
        eprintln!("scwsc_solve not built; skipping");
        return;
    }
    let dir = std::env::temp_dir().join("scwsc_cli_audit_test");
    std::fs::create_dir_all(&dir).unwrap();
    for algorithm in ["cmc", "cwsc"] {
        let ledgers = [1, 2].map(|run| {
            let path = dir.join(format!("audit-{algorithm}-{run}.jsonl"));
            let output = Command::new(solver_path())
                .args(["--rows", "1000", "--seed", "11", "--k", "6"])
                .args(["--coverage", "0.5", "--algorithm", algorithm])
                .arg("--audit-jsonl")
                .arg(&path)
                .output()
                .expect("solver runs");
            assert!(
                output.status.success(),
                "{algorithm} stderr: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            let bytes = std::fs::read(&path).expect("ledger written");
            std::fs::remove_file(&path).ok();
            bytes
        });
        assert!(!ledgers[0].is_empty(), "{algorithm}: empty ledger");
        assert_eq!(ledgers[0], ledgers[1], "{algorithm}: ledger bytes differ");
        let text = String::from_utf8(ledgers[0].clone()).expect("UTF-8 ledger");
        for line in text.lines() {
            let value = scwsc::sets::Json::parse(line)
                .unwrap_or_else(|e| panic!("{algorithm}: {e} in {line}"));
            assert!(
                value.as_obj().is_some(),
                "{algorithm}: not an object: {line}"
            );
        }
    }
}

#[test]
fn rejects_unknown_algorithm() {
    if !solver_available() {
        eprintln!("scwsc_solve not built; skipping");
        return;
    }
    let output = Command::new(solver_path())
        .args(["--rows", "100", "--algorithm", "magic"])
        .output()
        .expect("solver runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown algorithm"), "{stderr}");
}

#[test]
fn misspelled_flags_exit_2_and_spelled_faults_fire() {
    if !solver_available() {
        eprintln!("scwsc_solve not built; skipping");
        return;
    }
    let run = |binary: PathBuf, args: &str| {
        let output = Command::new(binary).args(args.split(' ')).output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        (output.status.code(), stderr)
    };
    let (code, err) = run(
        solver_path(),
        "--rows 500 --algorithm cmc --fualt failguess@1",
    );
    assert!(
        code == Some(2) && err.contains("unknown flag --fualt"),
        "{err}"
    );
    let (code, err) = run(solver_path(), "--rows 100 --fault bogus@1");
    assert!(
        code == Some(2) && err.contains("unknown fault \"bogus@1\""),
        "{err}"
    );
    let serve = solver_path().with_file_name("scwsc_serve");
    if serve.exists() {
        let (code, err) = run(serve, "--rows 500 --fualt disconnect@3");
        assert!(
            code == Some(2) && err.contains("unknown flag --fualt"),
            "{err}"
        );
    }
    // Spelled right, the fault fires in every build: exit 1 and a dump.
    let dump = std::env::temp_dir().join(format!("scwsc_cli_fault_{}.jsonl", std::process::id()));
    let args = "--rows 500 --algorithm cmc --fault failguess@1 --flight-dump";
    let (code, err) = run(solver_path(), &format!("{args} {}", dump.display()));
    assert_eq!(code, Some(1), "{err}");
    let text = std::fs::read_to_string(&dump).expect("a faulted run leaves a flight dump");
    assert!(text.lines().count() >= 2, "header and causal tree: {text}");
    std::fs::remove_file(&dump).ok();
}
