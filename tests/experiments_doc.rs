//! EXPERIMENTS.md's tables are an output of `acfc figures`.
//!
//! Every `<!-- generated: <id> -->` … `<!-- end generated -->` section
//! of the doc must equal the section of the same id that the command
//! prints, byte for byte, and the two must list the same ids in the
//! same order. The prose around the sections is the doc's own.
//!
//! Rewrite the sections (after an intentional change to the numbers)
//! with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test experiments_doc
//! ```

use std::ops::Range;
use std::path::PathBuf;
use std::process::Command;

const BEGIN: &str = "<!-- generated: ";
const END: &str = "<!-- end generated -->\n";

fn acfc(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_acfc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "acfc {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// The generated sections of `text` in order: each id with the byte
/// range from its begin marker's line through its end marker's line.
/// Markers count only as whole lines, so prose may quote them.
fn sections(text: &str) -> Vec<(&str, Range<usize>)> {
    let mut found = Vec::new();
    let mut open = None;
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if let Some(id) = line
            .strip_prefix(BEGIN)
            .and_then(|l| l.strip_suffix(" -->\n"))
        {
            assert!(open.is_none(), "section {id} begins inside another");
            open = Some((id, at));
        } else if line == END {
            let (id, start) = open.take().expect("end marker without a begin marker");
            found.push((id, start..at + line.len()));
        }
        at += line.len();
    }
    assert!(open.is_none(), "a section has no end marker");
    found
}

#[test]
fn experiments_md_matches_acfc_figures() {
    let printed = acfc(&["figures"]);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).expect("EXPERIMENTS.md");
    let want = sections(&printed);
    let have = sections(&doc);
    assert!(!want.is_empty(), "acfc figures printed no sections");
    let ids =
        |s: &[(&str, Range<usize>)]| s.iter().map(|(id, _)| id.to_string()).collect::<Vec<_>>();
    assert_eq!(
        ids(&have),
        ids(&want),
        "EXPERIMENTS.md must carry every section acfc figures prints, in order"
    );
    if std::env::var("GOLDEN_REGEN").is_ok() {
        let mut rewritten = String::new();
        let mut from = 0;
        for ((_, old), (_, new)) in have.iter().zip(&want) {
            rewritten.push_str(&doc[from..old.start]);
            rewritten.push_str(&printed[new.clone()]);
            from = old.end;
        }
        rewritten.push_str(&doc[from..]);
        std::fs::write(&path, rewritten).expect("rewrite EXPERIMENTS.md");
        return;
    }
    for ((id, old), (_, new)) in have.iter().zip(&want) {
        assert_eq!(
            doc[old.clone()],
            printed[new.clone()],
            "EXPERIMENTS.md section {id} differs from `acfc figures`; \
             rerun with GOLDEN_REGEN=1 if the change is intended"
        );
    }
}

/// The E4 scaling section is the sweep a reader can rerun by hand.
#[test]
fn e4_scaling_rows_are_the_compare_sweep_rows() {
    let printed = acfc(&["figures"]);
    let (_, range) = sections(&printed)
        .into_iter()
        .find(|(id, _)| *id == "e4-scaling")
        .expect("e4-scaling section");
    let swept = acfc(&[
        "compare",
        "--sweep",
        "programs/jacobi.mpsl",
        "--ns",
        "2,4,8,16",
        "--seeds",
        "3",
        "--failure-rate",
        "0.8",
    ]);
    // Drop the trailing `… cells/s` wall-clock line.
    let (rows, _) = swept
        .trim_end()
        .rsplit_once('\n')
        .expect("rows and trailer");
    assert_eq!(
        swept.lines().count(),
        1 + 4 * 8 + 1,
        "header, 32 rows, trailer"
    );
    assert!(
        printed[range].contains(&format!("\n{rows}\n```\n")),
        "E4 scaling rows differ from `acfc compare --sweep`"
    );
}
