//! Golden transcript of the REPL's human-readable output: one scripted
//! session over the products demo that runs every verb of the command
//! grammar (plus a few refused ones), rendered exactly as the `rulem`
//! REPL prints it. Timings, measured feature costs, free disk space and
//! the scratch directory are masked; everything else must match
//! `golden/human_transcript.txt` byte for byte.
//!
//! On a mismatch the actual transcript is written next to the test
//! binary's scratch directory (`CARGO_TARGET_TMPDIR`) for diffing.

use em_cli::App;
use em_core::command::parse;
use em_core::{SessionConfig, SessionStore};
use em_datagen::Domain;

const GOLDEN: &str = include_str!("golden/human_transcript.txt");

/// Every verb at least once, in an order that keeps the output
/// deterministic: `explain` runs before `stats` caches measured costs,
/// and `optimize` runs on a one-predicate function, whose order cannot
/// depend on them. `<tmp>` is replaced by a fresh scratch directory
/// holding an empty session store at `<tmp>/store` for `open`.
const SCRIPT: &[&str] = &[
    "help",
    "rules",
    "history",
    "features",
    "lint",
    "stats",
    "status",
    "undo",
    "resume",
    "add jaccard_ws(title, title) >= 0.6",
    "add jaccard_ws(title, title) >= 0.9",
    "rules",
    "addpred r0 exact(brand, brand) >= 1",
    "rmpred p2",
    "set p0 0.7",
    "rm r1",
    "undo",
    "lint",
    "simplify",
    "simplify",
    "run",
    "matches 3",
    "explain 0",
    "explain 99999999",
    "misses f0 3",
    "misses f99",
    "rm r99",
    "set p0 nan",
    "quality",
    "stats",
    "explain 0",
    "memory",
    "history",
    "features",
    "save",
    "save <tmp>/rules.txt",
    "export <tmp>/snap.json",
    "load <tmp>/rules.txt",
    "import <tmp>/snap.json",
    "open <tmp>/store",
    "status",
    "add jaccard_ws(title, title) >= 0.6",
    "optimize alg6",
    "save",
    "quit",
];

/// Runs the script through the REPL's own parse → execute → print path.
fn transcript(tmp: &str) -> String {
    let mut app = App::demo(Domain::Products, 0.01, 7, SessionConfig::default()).unwrap();
    let mut out = String::new();
    for line in SCRIPT {
        let line = line.replace("<tmp>", tmp);
        out.push_str(&format!("> {line}\n"));
        let printed = match parse(&line) {
            Ok(None) => continue,
            Ok(Some(cmd)) => match app.execute(cmd) {
                Ok(text) => text,
                Err(err) => format!("error: {err}"),
            },
            Err(err) => format!("error: {err}"),
        };
        out.push_str(&printed);
        out.push('\n');
    }
    assert!(app.should_quit());
    out
}

/// True for a `Duration` Debug unit (`ns`, `µs`, `ms`, `s`) starting at
/// `rest` and not running on into a longer word.
fn unit_len(rest: &str) -> Option<usize> {
    for unit in ["ns", "µs", "ms", "s"] {
        if let Some(after) = rest.strip_prefix(unit) {
            if !after.starts_with(|c: char| c.is_alphanumeric()) {
                return Some(unit.len());
            }
        }
    }
    None
}

/// Replaces every `Duration` Debug rendering (`12.3ms`, `850ns`, …),
/// together with the padding in front of it, by ` <t>`.
fn mask_durations(line: &str) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < line.len() {
        let rest = &line[i..];
        let starts_number = rest.starts_with(|c: char| c.is_ascii_digit())
            && !line[..i].ends_with(|c: char| c.is_alphanumeric() || c == '.');
        if starts_number {
            let num = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(rest.len());
            if let Some(unit) = unit_len(&rest[num..]) {
                out.truncate(out.trim_end_matches(' ').len());
                out.push_str(" <t>");
                i += num + unit;
                continue;
            }
        }
        let c = rest.chars().next().unwrap();
        out.push(c);
        i += c.len_utf8();
    }
    out
}

/// Masks what legitimately varies between runs: timings, the measured
/// feature costs `stats` prints (and `explain` annotates after it), free
/// disk space, and the scratch directory.
fn mask(transcript: &str, tmp: &str) -> String {
    let mut out = String::new();
    let mut in_costs = false;
    for line in transcript.replace(tmp, "<tmp>").lines() {
        let mut line = mask_durations(line);
        if in_costs && line.starts_with("  ") {
            let kept = line.trim_end_matches(|c: char| c.is_ascii_digit());
            line = format!("{} <cost>", kept.trim_end());
        } else {
            in_costs = line == "feature costs (ns/eval):";
        }
        if let Some(at) = line.find("memo lookup δ: ") {
            line = format!("{}memo lookup δ: <cost> ns", &line[..at]);
        }
        if let Some(at) = line.find("  (~") {
            line = format!("{}  (~<cost> ns/pair)", &line[..at]);
        }
        if let Some(at) = line.find("disk free: ") {
            line = format!("{}disk free: <free>", &line[..at]);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[test]
fn human_output_of_every_verb_matches_the_golden_transcript() {
    let tmp = std::env::temp_dir().join(format!("rulem_human_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let (session, _) =
        App::demo_parts(Domain::Products, 0.01, 7, SessionConfig::default()).unwrap();
    SessionStore::attach(&tmp.join("store"), session).unwrap();
    let tmp_str = tmp.to_str().unwrap().to_string();
    let actual = mask(&transcript(&tmp_str), &tmp_str);
    let _ = std::fs::remove_dir_all(&tmp);
    if actual != GOLDEN {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("human_transcript.txt");
        std::fs::write(&dump, &actual).unwrap();
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "human transcript drifted from the golden at line {}; actual written to {}",
            first + 1,
            dump.display()
        );
    }
}

#[test]
fn masking_keeps_words_and_ids() {
    assert_eq!(
        mask_durations("removed r1: +0 / -3 verdicts in 1.5ms"),
        "removed r1: +0 / -3 verdicts in <t>"
    );
    assert_eq!(
        mask_durations("  1. add rule r0        12 examined       850µs"),
        "  1. add rule r0        12 examined <t>"
    );
    assert_eq!(
        mask_durations("3 subsumed rules, 2s"),
        "3 subsumed rules, <t>"
    );
    assert_eq!(mask_durations("p10 sel = 0.5"), "p10 sel = 0.5");
}
