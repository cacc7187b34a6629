//! Byte-exact pins of the deterministic runtime's JSONL transcript.
//!
//! Both files under `tests/golden/` were captured from `acfc run --real
//! --det` when `runtime::det` still carried its own scheduler, so they
//! pin what the shared engine's run log must reproduce: the emission
//! order of checkpoints, kills, recoveries and halts (halts a later
//! rollback undoes included), `redelivered`, `lost_us`, and the
//! `run_start` / `run_end` framing. CI's runtime smoke job `cmp`s the
//! first one against the same command line.

use std::path::Path;
use std::process::Command;

/// Runs `acfc run --real --det <args>` and returns its JSONL transcript.
fn transcript(tag: &str, args: &[&str]) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = std::env::temp_dir().join(format!("acfc-det-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let jsonl = dir.join("run.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_acfc"))
        .args(["run", "--real", "--det"])
        .args(args)
        .arg("--backend-dir")
        .arg(dir.join("store"))
        .arg("--jsonl")
        .arg(&jsonl)
        .current_dir(root)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{tag}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&jsonl).expect("transcript written");
    let _ = std::fs::remove_dir_all(&dir);
    text
}

fn pinned(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn uncoordinated_log_backend_one_kill_matches_pinned_transcript() {
    // The CI smoke run: the kill lands before any timer checkpoint, so
    // recovery restores every process to its initial state.
    let got = transcript(
        "uncoordinated",
        &[
            "programs/jacobi_odd_even.mpsl",
            "--protocol",
            "uncoordinated",
            "--backend",
            "log",
            "--kill",
            "2@200000",
        ],
    );
    assert_eq!(got, pinned("det_uncoordinated_log_kill.jsonl"));
}

#[test]
fn appl_driven_mem_backend_two_kills_matches_pinned_transcript() {
    // Two recoveries that each re-deliver four in-transit messages; the
    // second kill lands after P2 and P0 halted, so their halts appear
    // twice.
    let got = transcript(
        "appl",
        &[
            "programs/jacobi_odd_even.mpsl",
            "--backend",
            "mem",
            "--kill",
            "1@100000",
            "--kill",
            "3@573300",
        ],
    );
    let halts = got
        .lines()
        .filter(|l| l.contains("\"ev\":\"halt\""))
        .count();
    assert_eq!(halts, 6, "two halts are rolled back and repeated");
    assert_eq!(got, pinned("det_appl_two_kills.jsonl"));
}

#[test]
fn one_process_past_the_dense_clock_limit_completes() {
    // n = 65 selects delta clocks; the scheduler `runtime::det` used to
    // carry aborted here (exit 101, "dense vector clocks only").
    let got = transcript(
        "n65",
        &[
            "programs/jacobi.mpsl",
            "-n",
            "65",
            "--backend",
            "mem",
            "--kill",
            "7@200000",
        ],
    );
    let end = got.lines().last().expect("run_end");
    assert!(
        end.contains("\"outcome\":\"completed\"") && end.contains("\"failures\":1"),
        "{end}"
    );
}
