//! End-to-end tests of the `acfc` command-line tool, driving the real
//! binary (via `CARGO_BIN_EXE_acfc`) on the sample programs shipped in
//! `programs/`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn acfc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_acfc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs")
}

/// A fresh directory for one test's files (`tag` is unique per test),
/// tagged with the process id so two test runs at once never write the
/// same path.
fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("acfc-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn sample_programs_exist() {
    for f in [
        "programs/jacobi.mpsl",
        "programs/jacobi_odd_even.mpsl",
        "programs/pipeline_skewed.mpsl",
        "programs/no_checkpoints.mpsl",
    ] {
        assert!(
            Path::new(env!("CARGO_MANIFEST_DIR")).join(f).exists(),
            "{f} missing"
        );
    }
}

#[test]
fn check_accepts_the_safe_jacobi() {
    let out = acfc(&["check", "programs/jacobi.mpsl"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("OK: every straight cut"));
}

#[test]
fn check_rejects_the_odd_even_jacobi_with_explanation() {
    let out = acfc(&["check", "programs/jacobi_odd_even.mpsl"]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("UNSAFE"), "{text}");
    assert!(text.contains("recovery line"), "{text}");
    assert!(
        text.contains('⇒'),
        "explanation shows the message edge: {text}"
    );
}

#[test]
fn analyze_emits_a_repaired_program_that_then_checks_clean() {
    let out = acfc(&["analyze", "programs/jacobi_odd_even.mpsl", "--emit"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("phase III: 1 relocation"), "{text}");
    // Extract the emitted program and re-check it through the CLI by
    // writing a temp file.
    let emitted = text
        .split("--- transformed program ---")
        .nth(1)
        .expect("emitted section");
    let tmp = scratch("repaired").join("repaired.mpsl");
    std::fs::write(&tmp, emitted).unwrap();
    let check = acfc(&["check", tmp.to_str().unwrap()]);
    assert!(check.status.success(), "{}", stdout(&check));
}

#[test]
fn run_with_analyze_verifies_every_cut() {
    let out = acfc(&[
        "run",
        "programs/pipeline_skewed.mpsl",
        "--analyze",
        "--nprocs",
        "5",
        "--seed",
        "11",
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("Completed"));
    assert!(text.contains("every straight cut"), "{text}");
}

#[test]
fn run_without_analyze_detects_the_unsafe_placement() {
    let out = acfc(&["run", "programs/jacobi_odd_even.mpsl", "--nprocs", "4"]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("NOT recovery lines"));
}

#[test]
fn figures_prints_both_series() {
    let out = acfc(&["figures"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("Figure 8"));
    assert!(text.contains("Figure 9"));
    assert!(text.lines().filter(|l| l.starts_with('#')).count() >= 2);
    // 9 rows for fig8, 11 for fig9, plus headers.
    assert!(text.lines().count() >= 24, "{}", text.lines().count());
}

#[test]
fn compare_prints_the_dashboard_table() {
    let out = acfc(&["compare", "programs/jacobi.mpsl", "--nprocs", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    for needle in [
        "appl-driven",
        "uncoordinated",
        "SaS",
        "C-L",
        "CIC",
        "forced",
        "ctrl-msgs",
        "coord-ms",
        "lat-p50/p90/p99",
    ] {
        assert!(text.contains(needle), "missing {needle}: {text}");
    }
}

#[test]
fn compare_multi_n_emits_one_table_per_n_and_a_json_artifact() {
    let json_path = scratch("multi-n").join("compare.json");
    let out = acfc(&[
        "compare",
        "programs/jacobi.mpsl",
        "--ns",
        "2,4,8",
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    for n in [2, 4, 8] {
        assert!(text.contains(&format!("n = {n}")), "{text}");
    }
    assert!(text.contains("wrote comparison JSON (24 run(s))"), "{text}");
    let json = std::fs::read_to_string(&json_path).expect("JSON artifact written");
    assert!(json.contains("\"workload\": \"jacobi\""));
    assert_eq!(json.matches("\"protocol\": \"appl-driven\"").count(), 3);
    assert_eq!(json.matches("\"msg_latency_p99_us\"").count(), 24);
    assert_eq!(json.matches("\"coord_stall_us\"").count(), 24);
    assert_eq!(json.matches("\"forced_checkpoints\"").count(), 24);
}

/// Byte-exact pin of the `--json` artifact: the workload name, one flat
/// stats object per (n, protocol) run in row order, and the layout.
#[test]
fn compare_json_artifact_matches_pinned_snapshot() {
    let json_path = scratch("compare-json").join("compare.json");
    let out = acfc(&[
        "compare",
        "programs/jacobi.mpsl",
        "--ns",
        "2,4",
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(&json_path).expect("JSON artifact written");
    let pinned = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/compare_jacobi_n2_n4.json"),
    )
    .expect("pinned artifact");
    assert_eq!(got, pinned);
}

#[test]
fn compare_sweep_streams_ci_rows_and_a_jsonl_artifact() {
    let jsonl_path = scratch("sweep").join("sweep.jsonl");
    let out = acfc(&[
        "compare",
        "programs/jacobi.mpsl",
        "--sweep",
        "--ns",
        "2,4",
        "--seeds",
        "2",
        "--failure-rate",
        "0.5",
        "--jsonl",
        jsonl_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    // 2 ns × 1 λ × 8 protocols = 16 aggregate rows with ± CI cells.
    assert!(text.contains("workload"), "{text}");
    assert!(text.contains("appl-driven"), "{text}");
    assert!(text.contains('±'), "CI columns rendered: {text}");
    assert!(text.contains("16 cells, 32 trials"), "{text}");
    assert!(text.contains("wrote 16 aggregate row(s)"), "{text}");
    // Progress/ETA narration goes to stderr, not into the table.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("16/16 cells"), "{err}");
    let jsonl = std::fs::read_to_string(&jsonl_path).expect("JSONL artifact written");
    assert_eq!(jsonl.lines().count(), 16);
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"overhead_ratio\":{\"mean\":"), "{line}");
        assert!(line.contains("\"ci95\":"), "2 seeds carry a CI: {line}");
    }
}

#[test]
fn compare_sweep_rows_are_identical_across_thread_counts() {
    let run_at = |threads: &str, path: &std::path::Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_acfc"))
            .args([
                "compare",
                "programs/jacobi.mpsl",
                "--sweep",
                "--ns",
                "2,4",
                "--seeds",
                "2",
                "--jsonl",
                path.to_str().unwrap(),
            ])
            .env("ACFC_THREADS", threads)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(path).expect("JSONL written")
    };
    let dir = scratch("sweep-threads");
    let p1 = dir.join("t1.jsonl");
    let p8 = dir.join("t8.jsonl");
    let serial = run_at("1", &p1);
    let parallel = run_at("8", &p8);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "sweep rows diverged across ACFC_THREADS");
}

#[test]
fn compare_artifacts_stay_valid_json_when_the_bare_makespan_is_zero() {
    // An empty program finishes at t = 0, so every overhead ratio
    // divides by a zero bare makespan.
    let dir = scratch("empty");
    let program = dir.join("empty.mpsl");
    std::fs::write(&program, "program empty;\n").unwrap();
    let json_path = dir.join("empty.json");
    let jsonl_path = dir.join("empty.jsonl");
    for args in [
        vec!["--nprocs", "2", "--json", json_path.to_str().unwrap()],
        vec![
            "--sweep",
            "--ns",
            "2",
            "--seeds",
            "2",
            "--jsonl",
            jsonl_path.to_str().unwrap(),
        ],
    ] {
        let mut argv = vec!["compare", program.to_str().unwrap()];
        argv.extend(args);
        let out = acfc(&argv);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    for path in [&json_path, &jsonl_path] {
        let text = std::fs::read_to_string(path).expect("artifact written");
        let bad = text
            .split(|c: char| !c.is_ascii_alphanumeric())
            .find(|token| matches!(*token, "NaN" | "inf"));
        assert_eq!(bad, None, "{}: {text}", path.display());
        assert!(text.contains("null"), "{}: {text}", path.display());
    }
}

#[test]
fn analyze_folded_writes_flamegraph_and_speedscope_files() {
    let dir = scratch("analyze-folded");
    let folded_path = dir.join("analyze.folded");
    let out = acfc(&[
        "analyze",
        "programs/jacobi_odd_even.mpsl",
        "--folded",
        folded_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout(&out).contains("as folded stacks"),
        "{}",
        stdout(&out)
    );
    // Every line obeys the flamegraph.pl grammar `frame;frame count`.
    let folded = std::fs::read_to_string(&folded_path).expect("folded written");
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("stack + self time");
        assert!(count.parse::<u64>().is_ok(), "{line}");
        assert!(!stack.is_empty() && !stack.contains(' '), "{line}");
    }
    // The analysis pipeline's spans appear as nested stacks.
    assert!(folded.contains("core/analyze;core/phase1"), "{folded}");
    // The sibling speedscope document rides along.
    let ss_path = dir.join("analyze.speedscope.json");
    let ss = std::fs::read_to_string(&ss_path).expect("speedscope written");
    assert!(ss.contains("https://www.speedscope.app/file-format-schema.json"));
    assert!(ss.contains("\"type\": \"evented\""), "{ss}");
    assert!(ss.contains("core/analyze"), "{ss}");
}

#[test]
fn sweep_telemetry_trailer_rides_the_jsonl_without_perturbing_rows() {
    let sweep_args = |jsonl: &str, extra: &[&str]| {
        let mut v = vec![
            "compare",
            "programs/jacobi.mpsl",
            "--sweep",
            "--ns",
            "2,4",
            "--seeds",
            "2",
            "--jsonl",
        ];
        v.push(jsonl);
        v.extend_from_slice(extra);
        v.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    };
    let run_at = |threads: &str, path: &std::path::Path, extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_acfc"))
            .args(sweep_args(path.to_str().unwrap(), extra))
            .env("ACFC_THREADS", threads)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(path).expect("JSONL written")
    };
    let dir = scratch("telemetry");
    let bare_path = dir.join("bare.jsonl");
    let bare = run_at("2", &bare_path, &[]);
    for threads in ["1", "8"] {
        let path = dir.join(format!("t{threads}.jsonl"));
        let with = run_at(threads, &path, &["--telemetry"]);
        let (rows, trailers): (Vec<&str>, Vec<&str>) = with
            .lines()
            .partition(|l| !l.contains("\"type\":\"sweep_telemetry\""));
        assert_eq!(
            rows.join("\n"),
            bare.trim_end(),
            "telemetry perturbed the rows at {threads} threads"
        );
        assert_eq!(trailers.len(), 1, "exactly one trailer line");
        let trailer = trailers[0];
        assert_eq!(with.lines().last().unwrap(), trailer, "trailer is last");
        for key in [
            "\"cells\":16",
            "\"trials\":32",
            "\"cell_wall_p99_us\":",
            "\"straggler_threshold_us\":",
            "\"workers\":[",
            "\"utilization\":",
            "\"slowest_cells\":[",
            "\"stragglers\":[",
        ] {
            assert!(trailer.contains(key), "missing {key}: {trailer}");
        }
    }
}

#[test]
fn sweep_telemetry_without_jsonl_is_rejected() {
    let out = acfc(&[
        "compare",
        "programs/jacobi.mpsl",
        "--sweep",
        "--seeds",
        "1",
        "--telemetry",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--telemetry needs --jsonl"));
}

#[test]
fn sweep_folded_captures_the_cell_and_engine_spans() {
    let folded_path = scratch("sweep-folded").join("sweep.folded");
    let out = acfc(&[
        "compare",
        "programs/jacobi.mpsl",
        "--sweep",
        "--ns",
        "2",
        "--seeds",
        "1",
        "--folded",
        folded_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let folded = std::fs::read_to_string(&folded_path).expect("folded written");
    assert!(folded.contains("protocols/sweep/cell"), "{folded}");
    assert!(folded.contains("sim/event_loop"), "{folded}");
}

#[test]
fn report_serve_answers_a_loopback_scrape() {
    use std::io::{BufRead, BufReader, Read, Write};
    let mut child = Command::new(env!("CARGO_BIN_EXE_acfc"))
        .args(["report", "programs/jacobi.mpsl", "--serve", "127.0.0.1:0"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary runs");
    // The report prints its tables, then the serving banner with the
    // ephemeral port the OS picked.
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "banner not printed"
        );
        if let Some(rest) = line.trim().strip_prefix("serving metrics at http://") {
            break rest.split('/').next().unwrap().to_string();
        }
    };
    let mut stream = std::net::TcpStream::connect(&addr).expect("endpoint accepts");
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: {addr}\r\n\r\n").unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut body = String::new();
    let _ = stream.read_to_string(&mut body);
    child.kill().unwrap();
    let _ = child.wait();
    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    assert!(body.contains("text/plain; version=0.0.4"), "{body}");
    assert!(body.contains("acfc_up 1"), "{body}");
    // The report's simulator run populated real registry metrics.
    assert!(body.contains("# TYPE acfc_"), "{body}");
}

#[test]
fn compare_profile_writes_a_merged_timeline() {
    let path = scratch("compare-profile").join("profile.json");
    let out = acfc(&[
        "compare",
        "programs/jacobi.mpsl",
        "--nprocs",
        "2",
        "--profile",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("8 protocol track group(s)"));
    let json = std::fs::read_to_string(&path).expect("profile written");
    for pid in 1..=5 {
        assert!(json.contains(&format!("\"pid\": {pid}")), "pid {pid}");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = acfc(&["bogus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn missing_file_reports_cleanly() {
    let out = acfc(&["check", "programs/nonexistent.mpsl"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn nprocs_beyond_the_analysis_limit_is_an_error_not_a_panic() {
    for args in [
        &["check", "programs/jacobi.mpsl", "--nprocs", "129"][..],
        &["analyze", "programs/jacobi.mpsl", "--nprocs", "129"],
        &[
            "run",
            "programs/jacobi.mpsl",
            "--analyze",
            "--nprocs",
            "129",
        ],
    ] {
        let out = acfc(args);
        // Exit 1 with a message, not the 101 of a panic.
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error: nprocs = 129"), "{args:?}: {err}");
        assert!(err.contains("128"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn zero_processes_or_interval_is_an_error_not_a_panic() {
    let mut cases: Vec<Vec<&str>> = vec![
        vec!["run", "--nprocs", "0"],
        vec!["run", "--real", "--nprocs", "0"],
        vec!["run", "--real", "--det", "--nprocs", "0"],
        vec!["check", "--nprocs", "0"],
        vec!["analyze", "--nprocs", "0"],
        vec!["report", "--nprocs", "0"],
        vec!["compare", "--nprocs", "0"],
    ];
    for protocol in ["c-l", "sas", "uncoordinated", "index"] {
        for det in [&[][..], &["--det"]] {
            let mut case = vec![
                "run",
                "--real",
                "--interval-us",
                "0",
                "--protocol",
                protocol,
            ];
            case.extend_from_slice(det);
            cases.push(case);
        }
    }
    for case in cases {
        let mut args = case;
        args.insert(1, "programs/jacobi.mpsl");
        assert_error_not_panic(&args);
    }
}

/// Checks that `args` fails with exit 1 and an `error:` line, not a
/// panic; returns its stderr.
fn assert_error_not_panic(args: &[&str]) -> String {
    let out = acfc(args);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(err.contains("error:"), "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
    err
}

#[test]
fn unusable_failure_rate_is_an_error_not_a_panic() {
    let program = "programs/no_checkpoints.mpsl";
    for rate in ["0", "-1", "nan", "inf"] {
        for cmd in [&["analyze"][..], &["report"], &["run", "--analyze"]] {
            let mut args = cmd.to_vec();
            args.extend([program, "--failure-rate", rate]);
            assert_error_not_panic(&args);
        }
    }
    // Rates no subcommand can run with are rejected by every one, with
    // the sweep's words.
    for rate in ["-1", "nan", "inf"] {
        for cmd in [&["run"][..], &["compare"], &["compare", "--sweep"]] {
            let mut args = cmd.to_vec();
            args.extend([program, "--failure-rate", rate]);
            let err = assert_error_not_panic(&args);
            assert!(
                err.contains("failure rate must be finite and non-negative"),
                "{err}"
            );
        }
    }
}

/// Only the analysis reads `--failure-rate` in a simulated `run` (it
/// sets Phase I's checkpoint interval): without `--analyze` the flag is
/// an error, not a rate that is silently ignored.
#[test]
fn run_reads_failure_rate_only_with_analyze() {
    for rate in ["0", "0.5"] {
        let err = assert_error_not_panic(&["run", "programs/jacobi.mpsl", "--failure-rate", rate]);
        assert!(err.contains("`run` does not read --failure-rate"), "{err}");
    }
    let out = acfc(&[
        "run",
        "programs/jacobi.mpsl",
        "--analyze",
        "--failure-rate",
        "0.5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn trace_flag_prints_spacetime() {
    let out = acfc(&["run", "programs/jacobi.mpsl", "--nprocs", "2", "--trace"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("space-time diagram"));
    assert!(text.contains("P0:"));
    assert!(text.contains("C1"), "{text}");
}

#[test]
fn mpmd_combines_role_files_into_checkable_spmd() {
    let out = acfc(&[
        "mpmd",
        "gather",
        "programs/role_master.mpsl@0",
        "programs/role_worker.mpsl@1-",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.starts_with("program gather;"), "{text}");
    // The combined output is itself analyzable end to end.
    let tmp = scratch("mpmd").join("gather.mpsl");
    std::fs::write(&tmp, &text).unwrap();
    let run = acfc(&["run", tmp.to_str().unwrap(), "--analyze", "--nprocs", "4"]);
    assert!(run.status.success(), "{}", stdout(&run));
    assert!(stdout(&run).contains("every straight cut"));
}

#[test]
fn mpmd_rejects_bad_specs() {
    let out = acfc(&["mpmd", "x", "programs/role_master.mpsl"]);
    assert!(!out.status.success());
    let out = acfc(&[
        "mpmd",
        "x",
        "programs/role_master.mpsl@0",
        "programs/role_worker.mpsl@5-",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("coverage"));
}

/// Runs `acfc args` with its stdout pipe's read end closed before the
/// child starts, so its first write to stdout fails with a broken pipe
/// (`acfc figures | head`).
fn acfc_closed_stdout(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_acfc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(writer)
        .output()
        .expect("binary runs")
}

#[test]
fn closed_stdout_ends_figures_and_compare_quietly() {
    for args in [
        &["figures"][..],
        &["compare", "programs/jacobi.mpsl", "--nprocs", "2"],
    ] {
        let out = acfc_closed_stdout(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?}: {err}");
    }
}

/// Every other subcommand ends on a closed stdout without a panic, and
/// a failed verdict keeps its exit status 1 when the reader has gone.
#[test]
fn closed_stdout_ends_every_subcommand_and_keeps_its_verdict() {
    for (cmd, code) in [
        ("check programs/jacobi.mpsl", 0),
        ("check programs/jacobi_odd_even.mpsl", 1),
        ("analyze programs/jacobi_odd_even.mpsl --emit", 0),
        ("run programs/jacobi.mpsl --analyze", 0),
        ("run programs/jacobi_odd_even.mpsl --nprocs 4", 1),
        ("run programs/jacobi.mpsl --real --det", 0),
        ("report programs/jacobi.mpsl", 0),
        (
            "mpmd gather programs/role_master.mpsl@0 programs/role_worker.mpsl@1-",
            0,
        ),
        ("compare programs/jacobi.mpsl --sweep --ns 2 --seeds 1", 0),
    ] {
        let args: Vec<&str> = cmd.split(' ').collect();
        let out = acfc_closed_stdout(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{cmd}: {err}");
        assert!(!err.contains("panicked"), "{cmd}: {err}");
    }
}

/// A closed stdout cuts only the text on stdout: every file a command
/// was asked for is still written whole, the sweep's rows included.
#[test]
fn closed_stdout_still_writes_every_requested_file() {
    let dir = scratch("closed-files");
    let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let lines = |name: &str| std::fs::read_to_string(file(name)).map_or(0, |t| t.lines().count());
    let sweep = "compare programs/jacobi.mpsl --sweep --ns 2,4 --seeds 1 --telemetry";
    for (tag, spawn) in [
        ("open", acfc as fn(&[&str]) -> Output),
        ("closed", acfc_closed_stdout),
    ] {
        let (jsonl, json) = (file(&format!("{tag}.jsonl")), file(&format!("{tag}.json")));
        let mut args: Vec<&str> = sweep.split(' ').collect();
        args.extend(["--jsonl", &jsonl, "--json", &json]);
        let out = spawn(&args);
        assert_eq!(out.status.code(), Some(0), "{tag}: {out:?}");
    }
    // 2 process counts × 8 protocols, plus the telemetry trailer.
    assert_eq!(lines("open.jsonl"), 17);
    assert_eq!(lines("closed.jsonl"), 17);
    assert_eq!(lines("closed.json"), lines("open.json"));

    for (cmd, name) in [
        ("run programs/jacobi.mpsl --profile", "run.json"),
        (
            "run programs/jacobi.mpsl --real --det --jsonl",
            "real.jsonl",
        ),
        ("analyze programs/jacobi.mpsl --profile", "analyze.json"),
    ] {
        let path = file(name);
        let mut args: Vec<&str> = cmd.split(' ').collect();
        args.push(&path);
        let out = acfc_closed_stdout(&args);
        assert_eq!(out.status.code(), Some(0), "{cmd}: {out:?}");
        assert!(lines(name) > 0, "{cmd}");
    }
}

#[test]
fn single_program_subcommands_reject_a_second_file() {
    for cmd in ["check", "analyze", "run", "report", "compare"] {
        let out = acfc(&[cmd, "programs/jacobi.mpsl", "programs/jacobi_odd_even.mpsl"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {err}");
        assert!(
            err.contains("`programs/jacobi_odd_even.mpsl`: this subcommand reads one program file"),
            "{cmd}: {err}"
        );
        assert!(out.stdout.is_empty(), "{cmd}: {}", stdout(&out));
    }
}

#[test]
fn figures_rejects_flags_it_does_not_read() {
    let out = acfc(&["figures", "--nprocs", "3", "--interval-us", "5"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("error: `figures` does not read --nprocs"),
        "{err}"
    );
    assert!(out.stdout.is_empty(), "{}", stdout(&out));
}

#[test]
fn compare_rejects_interval_us() {
    for mode in [&[][..], &["--sweep", "--seeds", "1"]] {
        let mut args = vec!["compare", "programs/jacobi.mpsl", "--interval-us", "5"];
        args.extend_from_slice(mode);
        let out = acfc(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("error:"), "{args:?}: {err}");
        assert!(
            err.contains("does not read --interval-us"),
            "{args:?}: {err}"
        );
    }
}
