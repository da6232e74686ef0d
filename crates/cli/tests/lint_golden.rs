//! Cross-surface goldens: the CLI's `--porcelain` output and the
//! server's wire payloads come from one executor and one renderer, so
//! they must agree byte for byte.
//!
//! * One ruleset exhibiting every diagnostic kind, linted through both
//!   surfaces: the findings must be deterministic, severity-ordered, and
//!   identical, `lint_report` header included.
//! * One scripted session over the products demo: every served verb
//!   whose output does not measure time or describe the store must
//!   render identically, with only `elapsed_us` masked.

use em_cli::App;
use em_core::command::parse;
use em_core::{DebugSession, LintLine, SessionConfig};
use em_datagen::Domain;
use em_server::{serve, Client, ServerConfig, SessionTemplate};
use em_similarity::{JoinGuarantee, Measure};
use em_types::{CandidateSet, Record, Schema, Table};

fn tables() -> (Table, Table) {
    let schema = Schema::new(["title", "code"]);
    let mut a = Table::new("A", schema.clone());
    a.push(Record::new("a1", ["apple ipod nano", "MC037"]));
    a.push(Record::new("a2", ["sony walkman", "NWZ-E384"]));
    let mut b = Table::new("B", schema);
    b.push(Record::new("b1", ["aple ipod nano", "MC037"]));
    b.push(Record::new("b2", ["bose soundlink", "QC35"]));
    (a, b)
}

/// The blocking step joined on exact code equality, so every candidate
/// pair is guaranteed `exact(code, code) = 1`.
fn guarantee() -> JoinGuarantee {
    JoinGuarantee::new(Measure::Exact, "code", 1.0)
}

/// One rule per diagnostic kind. r0 is the clean baseline that the
/// duplicate (r5) and subsumption (r6) findings refer back to; each other
/// rule uses its own feature so no unintended finding cross-fires.
const RULESET: &[&str] = &[
    // r0 (p0): clean.
    "add jaccard_ws(title, title) >= 0.6",
    // r1 (p1, p2): unsatisfiable — empty jaro_winkler interval.
    "add jaro_winkler(title, title) >= 0.9 AND jaro_winkler(title, title) <= 0.2",
    // r2 (p3, p4): out-of-range threshold 1.5 on a [0, 1] measure.
    "add levenshtein(code, code) >= 0.4 AND levenshtein(code, code) <= 1.5",
    // r3 (p5, p6): tautological second predicate (>= the codomain floor).
    "add trigram(title, title) >= 0.5 AND trigram(title, title) >= 0",
    // r4 (p7, p8): redundant second predicate (0.3 shadowed by the
    // earlier 0.8 — earlier, so dropping it is attribution-safe).
    "add jaro_winkler(title, title) >= 0.8 AND jaro_winkler(title, title) >= 0.3",
    // r5 (p9): duplicate of r0.
    "add jaccard_ws(title, title) >= 0.6",
    // r6 (p10): subsumed by r0.
    "add jaccard_ws(title, title) >= 0.9",
    // r7 (p11, p12): blocking already guarantees exact(code) = 1.
    // (jaro, not jaro_winkler: a feature no other live rule constrains,
    // so dropping p11 exposes no subsumption.)
    "add exact(code, code) >= 0.5 AND jaro(title, title) >= 0.6",
];

/// The expected findings, in the analyzer's deterministic order:
/// severity first (error < warning < info), then rule position.
/// Fields: (kind, severity, rule, pred, pred_pos, other_rule, fix, safe).
type Expected = (
    &'static str,
    &'static str,
    &'static str,
    Option<&'static str>,
    Option<usize>,
    Option<&'static str>,
    Option<&'static str>,
    bool,
);

const GOLDEN: &[Expected] = &[
    (
        "unsatisfiable_rule",
        "error",
        "r1",
        None,
        None,
        None,
        Some("rm r1"),
        true,
    ),
    (
        "out_of_range_threshold",
        "warning",
        "r2",
        Some("p4"),
        Some(1),
        None,
        Some("set p4 1"),
        true,
    ),
    (
        "tautological_predicate",
        "warning",
        "r3",
        Some("p6"),
        Some(1),
        None,
        Some("rmpred p6"),
        true,
    ),
    (
        "redundant_predicate",
        "warning",
        "r4",
        Some("p8"),
        Some(1),
        None,
        Some("rmpred p8"),
        true,
    ),
    (
        "duplicate_rule",
        "warning",
        "r5",
        None,
        None,
        Some("r0"),
        Some("rm r5"),
        true,
    ),
    (
        "subsumed_rule",
        "warning",
        "r6",
        None,
        None,
        Some("r0"),
        Some("rm r6"),
        true,
    ),
    (
        "blocking_vacuous_predicate",
        "info",
        "r7",
        Some("p11"),
        Some(0),
        None,
        Some("rmpred p11"),
        true,
    ),
];

fn assert_golden(lints: &[LintLine]) {
    assert_eq!(
        lints.len(),
        GOLDEN.len(),
        "one finding per diagnostic kind: {lints:#?}"
    );
    for (lint, (kind, severity, rule, pred, pred_pos, other_rule, fix, safe)) in
        lints.iter().zip(GOLDEN)
    {
        assert_eq!(lint.event, "lint");
        assert_eq!(lint.kind, *kind);
        assert_eq!(lint.severity, *severity, "{kind}");
        assert_eq!(lint.rule, *rule, "{kind}");
        assert_eq!(lint.pred.as_deref(), *pred, "{kind}");
        assert_eq!(lint.pred_pos, *pred_pos, "{kind}");
        assert_eq!(lint.other_rule.as_deref(), *other_rule, "{kind}");
        assert_eq!(lint.fix.as_deref(), *fix, "{kind}");
        assert_eq!(lint.safe, *safe, "{kind}");
        assert!(!lint.message.is_empty(), "{kind}");
    }
}

fn exec(app: &mut App, line: &str) -> String {
    let cmd = parse(line).unwrap().unwrap();
    app.execute(cmd).unwrap_or_else(|e| panic!("{line}: {e}"))
}

/// Runs the golden ruleset through the CLI's porcelain surface and
/// returns the `lint` payload.
fn cli_lint_payload() -> String {
    let (a, b) = tables();
    let cands = CandidateSet::cartesian(&a, &b);
    let mut session = DebugSession::new(a, b, cands, SessionConfig::default());
    session.set_block_guarantees([guarantee()]);
    let mut app = App::new(session, Vec::new());
    app.set_porcelain(true);
    for line in RULESET {
        exec(&mut app, line);
    }
    let out = exec(&mut app, "lint");
    // Deterministic: a second run renders byte-identically.
    assert_eq!(out, exec(&mut app, "lint"), "lint must be deterministic");
    out
}

#[test]
fn every_diagnostic_kind_matches_the_golden_sequence_on_both_surfaces() {
    let cli = cli_lint_payload();
    let mut lines = cli.lines();
    let header = lines.next().unwrap();
    assert!(header.contains("\"event\":\"lint_report\""), "{header}");
    assert!(header.contains("\"total\":7"), "{header}");
    assert!(header.contains("\"errors\":1"), "{header}");
    assert!(header.contains("\"warnings\":5"), "{header}");
    assert!(header.contains("\"infos\":1"), "{header}");
    let lints: Vec<LintLine> = lines.map(|l| LintLine::from_json(l).unwrap()).collect();
    assert_golden(&lints);

    // Same ruleset over the wire: the server's `lint` payload, header
    // included, must be byte-identical to the CLI's porcelain.
    let (a, b) = tables();
    let cands = CandidateSet::cartesian(&a, &b);
    let template = SessionTemplate::new(a, b, cands, Vec::new(), SessionConfig::default())
        .with_guarantees([guarantee()]);
    let handle = serve(template, ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.expect_ok("open golden").unwrap();
    for line in RULESET {
        c.expect_ok(line).unwrap();
    }
    let wire = c.expect_ok("lint").unwrap();
    assert_eq!(wire, cli, "wire and CLI lint must agree");
    handle.shutdown();
}

/// The scripted demo session: edits, then every served verb whose
/// payload is deterministic on both surfaces. `stats` (measured costs)
/// and `status` (the wire's adds server context) are left out.
const DEMO_SCRIPT: &[&str] = &[
    "add jaccard_ws(title, title) >= 0.6",
    "add jaccard_ws(title, title) >= 0.9",
    "addpred r0 exact(brand, brand) >= 1",
    "rmpred p2",
    "set p0 0.7",
    "rules",
    "matches 5",
    "misses f0 5",
    "features",
    "quality",
    "memory",
    "history",
    "lint",
    "explain 0",
    "simplify",
    "undo",
    "run",
    "optimize",
];

/// Replaces every `"elapsed_us":<n>` value by 0 — the one field that
/// measures wall time.
fn mask_elapsed(payload: &str) -> String {
    let key = "\"elapsed_us\":";
    let mut out = String::new();
    let mut rest = payload;
    while let Some(at) = rest.find(key) {
        out.push_str(&rest[..at + key.len()]);
        out.push('0');
        rest = rest[at + key.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn demo_session_porcelain_matches_the_wire_byte_for_byte() {
    let mut app = App::demo(Domain::Products, 0.01, 7, SessionConfig::default()).unwrap();
    app.set_porcelain(true);
    let template =
        SessionTemplate::demo(Domain::Products, 0.01, 7, SessionConfig::default()).unwrap();
    let handle = serve(template, ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.expect_ok("open demo").unwrap();
    for line in DEMO_SCRIPT {
        let cli = mask_elapsed(&exec(&mut app, line));
        let wire = mask_elapsed(&c.expect_ok(line).unwrap());
        assert_eq!(cli, wire, "`{line}`: CLI porcelain and wire payload differ");
        assert!(cli.starts_with("{\"event\":\""), "`{line}`: {cli}");
    }
    handle.shutdown();
}

/// Repeatedly applying every safe fix-it reaches a clean fixpoint
/// without ever changing a verdict. (One round is not enough by design:
/// clamping an out-of-range `<=` threshold to the ceiling makes the
/// predicate tautological, and dropping a redundant predicate can expose
/// a subsumption — each shows up in the *next* lint round.)
#[test]
fn safe_fixes_reach_a_clean_fixpoint_without_changing_verdicts() {
    let (a, b) = tables();
    let cands = CandidateSet::cartesian(&a, &b);
    let mut session = DebugSession::new(a, b, cands, SessionConfig::default());
    session.set_block_guarantees([guarantee()]);
    let mut app = App::new(session, Vec::new());
    for line in RULESET {
        exec(&mut app, line);
    }
    let matches_before = app.session().n_matches();

    let mut rounds = 0;
    loop {
        let diags = app.session().analyze();
        let safe_fixes: Vec<String> = diags
            .iter()
            .filter(|d| d.safe)
            .filter_map(|d| d.fix.as_ref().map(|f| f.command_text()))
            .collect();
        if safe_fixes.is_empty() {
            assert!(diags.is_empty(), "only safe findings here: {diags:#?}");
            break;
        }
        // Reverse order so dropping an earlier rule never strands a
        // later fix target within the same round.
        for fix in safe_fixes.iter().rev() {
            exec(&mut app, fix);
            assert_eq!(
                app.session().n_matches(),
                matches_before,
                "safe fix {fix:?} must not change verdicts"
            );
        }
        rounds += 1;
        assert!(rounds < 10, "safe fixes must converge");
    }
    assert!(rounds >= 2, "the golden ruleset needs multiple rounds");
    let out = exec(&mut app, "lint");
    assert_eq!(out, "no findings", "{out}");
}
