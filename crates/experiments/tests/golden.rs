//! Golden outputs: the quick-mode stdout of each cheap experiment id is
//! byte-identical to its committed `expected/<id>.txt`. The slower ids
//! are diffed against theirs by the nightly CI job.

use std::path::Path;
use std::process::Command;

/// The ids that run in seconds in a debug build. Together they exercise
/// sampled JigSaw and VarSaw reconstruction (`table1`, `fig16`, the
/// ablations) and exact-mode VarSaw (`fig19`).
const CHEAP_IDS: [&str; 9] = [
    "fig6",
    "fig7",
    "fig8",
    "fig16",
    "fig19",
    "table1",
    "ablation-grouping",
    "ablation-selective",
    "ablation-spin",
];

#[test]
fn cheap_ids_reproduce_their_expected_stdout() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let mut failures = String::new();
    for id in CHEAP_IDS {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([id, "--out"])
            .arg(&out_dir)
            .output()
            .expect("experiments binary runs");
        assert!(
            out.status.success(),
            "{id} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("expected/{id}.txt"));
        let expected = std::fs::read_to_string(&path).expect("expected output is committed");
        let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        if got != expected {
            failures += &format!(
                "{id}: stdout differs from {}\n--- expected\n{expected}--- got\n{got}\n",
                path.display()
            );
        }
    }
    assert!(failures.is_empty(), "{failures}");
}
