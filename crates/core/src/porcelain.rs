//! Machine-readable renderings of command outcomes.
//!
//! "Porcelain" output (in the `git --porcelain` sense) is the stable,
//! parse-friendly rendering of a command [`Outcome`]: one JSON record
//! per line with flat scalar fields, tagged by an `event` field.
//! Listings are a header record followed by one row per line (JSONL).
//! [`render`] is shared by two front ends — the `em-server` wire
//! protocol always speaks it, and the CLI emits it under `--porcelain`
//! — so scripted clients never scrape the human-facing text.
//!
//! Durations travel as integer microseconds: the vendored serde stand-in
//! has no `Duration` support, and microseconds are the natural unit for
//! the paper's sub-second interactive loop.

use crate::analyze::{Diagnostic, Severity};
use crate::budget::{Completion, StopReason};
use crate::command::{Edit, Outcome, HELP};
use crate::incremental::ChangeReport;
use crate::memo::Memo;
use crate::persist::SessionStore;
use crate::predicate::PredId;
use crate::rule::RuleId;
use crate::session::{DebugSession, EditRecord};
use crate::stats::FunctionStats;
use std::time::Duration;

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One edit outcome as a flat record: the wire/porcelain form of a
/// [`ChangeReport`], tagged with the operation that produced it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChangeLine {
    /// Record discriminator; always `"change"`.
    pub event: String,
    /// The operation: `add_rule`, `remove_rule`, `add_predicate`,
    /// `remove_predicate`, `set_threshold`, `undo`, `resume`.
    pub op: String,
    /// Rule id the operation minted or targeted (e.g. `"r3"`), if any.
    pub rule: Option<String>,
    /// Predicate id the operation minted or targeted (e.g. `"p7"`), if any.
    pub pred: Option<String>,
    /// Pairs that flipped unmatch → match.
    pub newly_matched: usize,
    /// Pairs that flipped match → unmatch.
    pub newly_unmatched: usize,
    /// Pairs the edit re-examined.
    pub pairs_examined: usize,
    /// Similarity values computed from scratch.
    pub feature_computations: u64,
    /// Similarity values read from the memo.
    pub memo_lookups: u64,
    /// Worker threads that participated in the delta evaluation.
    pub workers: usize,
    /// Wall-clock latency in microseconds.
    pub elapsed_us: u64,
    /// `"complete"`, `"deadline"`, or `"cancelled"`.
    pub completion: String,
    /// Pairs still unexamined when the budget tripped (0 when complete).
    pub remaining: usize,
    /// Pairs quarantined by panic isolation during this edit.
    pub quarantined: usize,
}

impl ChangeLine {
    /// Builds the porcelain record for one edit outcome.
    pub fn new(
        op: &str,
        rule: Option<RuleId>,
        pred: Option<PredId>,
        report: &ChangeReport,
    ) -> Self {
        let (completion, remaining) = match &report.completion {
            Completion::Complete => ("complete".to_string(), 0),
            Completion::Partial { remaining, reason } => (
                match reason {
                    StopReason::Deadline => "deadline".to_string(),
                    StopReason::Cancelled => "cancelled".to_string(),
                },
                remaining.len(),
            ),
        };
        ChangeLine {
            event: "change".to_string(),
            op: op.to_string(),
            rule: rule.map(|r| r.to_string()),
            pred: pred.map(|p| p.to_string()),
            newly_matched: report.newly_matched.len(),
            newly_unmatched: report.newly_unmatched.len(),
            pairs_examined: report.pairs_examined,
            feature_computations: report.stats.feature_computations,
            memo_lookups: report.stats.memo_lookups,
            workers: report.worker_stats.len(),
            elapsed_us: micros(report.elapsed),
            completion,
            remaining,
            quarantined: report.quarantined.len(),
        }
    }

    /// Whether the edit ran to completion (nothing parked for `resume`).
    pub fn is_complete(&self) -> bool {
        self.completion == "complete"
    }

    /// The one-line JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ChangeLine serializes infallibly")
    }

    /// Parses a line produced by [`ChangeLine::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("porcelain change line: {e}"))
    }
}

/// One history entry as a flat record: the wire/porcelain form of an
/// [`EditRecord`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistoryLine {
    /// Record discriminator; always `"edit"`.
    pub event: String,
    /// Position in the session's history, starting at 1.
    pub seq: usize,
    /// Human-readable description of the edit (stable: it is part of the
    /// durable history).
    pub description: String,
    /// Verdicts the edit flipped.
    pub n_changed: usize,
    /// Pairs the edit re-examined.
    pub pairs_examined: usize,
    /// Worker threads that participated.
    pub workers: usize,
    /// Wall-clock latency in microseconds.
    pub elapsed_us: u64,
}

impl HistoryLine {
    /// Builds the porcelain record for history entry `seq` (1-based).
    pub fn new(seq: usize, record: &EditRecord) -> Self {
        HistoryLine {
            event: "edit".to_string(),
            seq,
            description: record.description.clone(),
            n_changed: record.n_changed,
            pairs_examined: record.pairs_examined,
            workers: record.worker_stats.len(),
            elapsed_us: micros(record.elapsed),
        }
    }

    /// The one-line JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("HistoryLine serializes infallibly")
    }

    /// Parses a line produced by [`HistoryLine::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("porcelain history line: {e}"))
    }
}

/// One static-analysis finding as a flat record: the wire/porcelain form
/// of a [`Diagnostic`] (the `lint` command emits one line per finding;
/// the edit path emits them as advisories when an edit introduces new
/// findings).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LintLine {
    /// Record discriminator; always `"lint"`.
    pub event: String,
    /// The diagnostic kind's stable snake_case label, e.g.
    /// `"unsatisfiable_rule"`.
    pub kind: String,
    /// `"error"`, `"warning"`, or `"info"`.
    pub severity: String,
    /// The rule the finding is about (e.g. `"r3"`).
    pub rule: String,
    /// The rule's 0-based position in evaluation order.
    pub rule_pos: usize,
    /// The predicate the finding is about (e.g. `"p7"`), if any.
    pub pred: Option<String>,
    /// The predicate's 0-based position within its rule, if any.
    pub pred_pos: Option<usize>,
    /// The feature involved (e.g. `"f2"`), if any.
    pub feature: Option<String>,
    /// The other rule involved (subsumer / first duplicate), if any.
    pub other_rule: Option<String>,
    /// Human-readable explanation.
    pub message: String,
    /// Suggested repair as a command line in the edit grammar (e.g.
    /// `"rm r3"`), if one exists.
    pub fix: Option<String>,
    /// Whether applying `fix` is guaranteed to leave all verdicts bitwise
    /// unchanged.
    pub safe: bool,
}

impl LintLine {
    /// Builds the porcelain record for one diagnostic.
    pub fn new(d: &Diagnostic) -> Self {
        LintLine {
            event: "lint".to_string(),
            kind: d.kind.label().to_string(),
            severity: d.severity.label().to_string(),
            rule: d.rule.to_string(),
            rule_pos: d.rule_pos,
            pred: d.pred.map(|p| p.to_string()),
            pred_pos: d.pred_pos,
            feature: d.feature.map(|f| f.to_string()),
            other_rule: d.other_rule.map(|r| r.to_string()),
            message: d.message.clone(),
            fix: d.fix.map(|f| f.command_text()),
            safe: d.safe,
        }
    }

    /// The one-line JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("LintLine serializes infallibly")
    }

    /// Parses a line produced by [`LintLine::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("porcelain lint line: {e}"))
    }
}

/// A free-form text payload (help, explain, stats — outputs whose shape
/// is inherently prose).
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct TextLine {
    /// Always `"text"`.
    pub event: String,
    /// The prose (may contain newlines).
    pub text: String,
}

/// An edit verb that had nothing to do (`undo` with empty stack, `resume`
/// with nothing parked).
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct NoopLine {
    /// Always `"noop"`.
    pub event: String,
    /// The verb that no-opped.
    pub op: String,
}

/// Outcome of a journaled full re-run.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct RunLine {
    /// Always `"run"`.
    pub event: String,
    /// Match count after the run.
    pub matches: usize,
    /// Similarity values computed from scratch.
    pub feature_computations: u64,
    /// Similarity values read from the memo.
    pub memo_lookups: u64,
    /// Pairs under panic quarantine after the run.
    pub quarantined: usize,
}

/// Outcome of `simplify`.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct SimplifyLine {
    /// Always `"simplify"`.
    pub event: String,
    /// Dominated predicates removed.
    pub dominated: usize,
    /// Unsatisfiable rules removed.
    pub unsatisfiable: usize,
    /// Subsumed rules removed.
    pub subsumed: usize,
    /// Rules remaining after simplification.
    pub rules: usize,
}

/// Outcome of `optimize <algo>`.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct OptimizeLine {
    /// Always `"optimize"`.
    pub event: String,
    /// The ordering algorithm applied.
    pub algo: String,
    /// Match count after the re-run (unchanged by construction).
    pub matches: usize,
}

/// Precision/recall against the loaded labels.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct QualityLine {
    /// Always `"quality"`.
    pub event: String,
    /// Precision in `[0, 1]`.
    pub precision: f64,
    /// Recall in `[0, 1]`.
    pub recall: f64,
    /// F1 in `[0, 1]`.
    pub f1: f64,
    /// Confusion-matrix counts.
    pub true_positives: usize,
    /// Pairs matched but labeled non-match.
    pub false_positives: usize,
    /// Pairs labeled match but unmatched.
    pub false_negatives: usize,
    /// Pairs correctly unmatched.
    pub true_negatives: usize,
}

/// Memory footprint of the session's derived state.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct MemoryLine {
    /// Always `"memory"`.
    pub event: String,
    /// Feature memo bytes.
    pub memo_bytes: usize,
    /// Values stored in the memo.
    pub memo_values: usize,
    /// Rule/predicate bitmap bytes.
    pub bitmap_bytes: usize,
    /// Total derived-state bytes.
    pub total_bytes: usize,
}

/// Header for a `matches <n>` listing (followed by [`MatchLine`]s).
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct MatchesLine {
    /// Always `"matches"`.
    pub event: String,
    /// Total match count (listing shows at most the requested limit).
    pub total: usize,
    /// How many [`MatchLine`] records follow.
    pub shown: usize,
}

/// One matched pair.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct MatchLine {
    /// Always `"match"`.
    pub event: String,
    /// Candidate pair index.
    pub pair: usize,
    /// Rule that fired (e.g. `"r2"`), when known.
    pub rule: Option<String>,
    /// Left record id.
    pub a: String,
    /// Right record id.
    pub b: String,
}

/// One near-miss pair from `misses <feature> <n>`.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct MissLine {
    /// Always `"miss"`.
    pub event: String,
    /// Candidate pair index.
    pub pair: usize,
    /// The feature's similarity value for this pair.
    pub value: f64,
    /// Left record id.
    pub a: String,
    /// Right record id.
    pub b: String,
}

/// One rule in a `rules` listing.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct RuleLine {
    /// Always `"rule"`.
    pub event: String,
    /// Rule id (e.g. `"r0"`).
    pub id: String,
    /// The rule in the rule language.
    pub text: String,
}

/// One interned feature in a `features` listing.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct FeatureLine {
    /// Always `"feature"`.
    pub event: String,
    /// Feature id (e.g. `"f0"`).
    pub id: String,
    /// Feature name (e.g. `"jaccard_ws(title, title)"`).
    pub name: String,
}

/// Outcome of a `save` (snapshot compaction).
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct SavedLine {
    /// Always `"saved"`.
    pub event: String,
    /// The new snapshot epoch.
    pub epoch: u64,
}

/// The store's own footprint (the CLI's `status`; the server answers
/// `status` with its own record, which adds replication and session
/// context).
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct StoreStatusLine {
    /// Always `"status"`.
    pub event: String,
    /// The store directory (`None` for an ephemeral session).
    pub store_dir: Option<String>,
    /// Snapshot epoch (`None` for an ephemeral session).
    pub epoch: Option<u64>,
    /// Journal records appended since the last snapshot.
    pub journal_records: usize,
    /// Bytes across all snapshot generations on disk.
    pub store_bytes: u64,
    /// Bytes across all journal generations on disk.
    pub journal_bytes: u64,
    /// Free bytes on the filesystem holding the store, when known.
    pub disk_free: Option<u64>,
}

/// A listing header: the record kind and how many rows follow.
#[derive(serde::Serialize)]
struct CountHeader {
    event: String,
    total: usize,
}

fn json<T: serde::Serialize>(record: &T) -> String {
    serde_json::to_string(record).expect("porcelain records serialize infallibly")
}

fn text(s: impl Into<String>) -> String {
    json(&TextLine {
        event: "text".to_string(),
        text: s.into(),
    })
}

/// A header line followed by one JSON row per line.
pub fn jsonl<T: serde::Serialize>(header: String, rows: impl IntoIterator<Item = T>) -> String {
    let mut out = header;
    for row in rows {
        out.push('\n');
        out.push_str(&json(&row));
    }
    out
}

/// Left and right record ids of candidate pair `pair`.
fn ids_of(session: &DebugSession, pair: usize) -> (String, String) {
    let p = session.candidates().pair(pair);
    let a = session.context().table_a().record(p.a).id().to_string();
    let b = session.context().table_b().record(p.b).id().to_string();
    (a, b)
}

/// The prose of a `stats` outcome: measured feature costs, the memo
/// lookup cost and predicate selectivities. Both renderers print it.
pub fn stats_text(session: &DebugSession, stats: &FunctionStats) -> String {
    let mut out = String::from("feature costs (ns/eval):");
    for f in session.function().features() {
        out.push_str(&format!(
            "\n  {:<40} {:>12.0}",
            session.context().feature_name(f),
            stats.cost(f)
        ));
    }
    out.push_str(&format!("\nmemo lookup δ: {:.0} ns", stats.lookup_cost()));
    out.push_str("\npredicate selectivities:");
    for (rid, bp) in session.function().predicates() {
        out.push_str(&format!(
            "\n  {rid}/{} sel = {:.4}",
            bp.id,
            stats.sel(bp.id)
        ));
    }
    out
}

/// What `quality` and `stats` answer when they have nothing to report.
pub const NO_LABELS: &str = "no labels loaded";
/// See [`NO_LABELS`].
pub const NO_RULES_TO_ESTIMATE: &str = "(no rules — nothing to estimate)";

/// Renders one outcome of [`crate::command::execute`] against `store` as
/// its porcelain payload.
pub fn render(store: &SessionStore, outcome: &Outcome) -> String {
    let session = store.session();
    match outcome {
        Outcome::Help => text(HELP),
        Outcome::Edit {
            edit,
            report,
            advisories,
        } => {
            let (op, rule, pred) = match *edit {
                Edit::AddRule(r) => ("add_rule", Some(r), None),
                Edit::RemoveRule(r) => ("remove_rule", Some(r), None),
                Edit::AddPredicate(r, p) => ("add_predicate", Some(r), Some(p)),
                Edit::RemovePredicate(p) => ("remove_predicate", None, Some(p)),
                Edit::SetThreshold(p, _) => ("set_threshold", None, Some(p)),
                Edit::Undo => ("undo", None, None),
                Edit::Resume => ("resume", None, None),
            };
            let change = ChangeLine::new(op, rule, pred, report).to_json();
            jsonl(change, advisories.iter().map(LintLine::new))
        }
        Outcome::Noop(op) => json(&NoopLine {
            event: "noop".to_string(),
            op: op.to_string(),
        }),
        Outcome::Simplify(report) => json(&SimplifyLine {
            event: "simplify".to_string(),
            dominated: report.dominated_predicates.len(),
            unsatisfiable: report.unsatisfiable_rules.len(),
            subsumed: report.subsumed_rules.len(),
            rules: session.function().n_rules(),
        }),
        Outcome::Lint(diags) => {
            #[derive(serde::Serialize)]
            struct Header {
                event: String,
                total: usize,
                errors: usize,
                warnings: usize,
                infos: usize,
            }
            let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
            let header = json(&Header {
                event: "lint_report".to_string(),
                total: diags.len(),
                errors: count(Severity::Error),
                warnings: count(Severity::Warning),
                infos: count(Severity::Info),
            });
            jsonl(header, diags.iter().map(LintLine::new))
        }
        Outcome::Run(stats, _) => json(&RunLine {
            event: "run".to_string(),
            matches: session.n_matches(),
            feature_computations: stats.feature_computations,
            memo_lookups: stats.memo_lookups,
            quarantined: session.quarantined().len(),
        }),
        Outcome::Optimize(algo, _) => json(&OptimizeLine {
            event: "optimize".to_string(),
            algo: algo.label().to_string(),
            matches: session.n_matches(),
        }),
        Outcome::Rules => {
            #[derive(serde::Serialize)]
            struct Header {
                event: String,
                n_rules: usize,
                n_predicates: usize,
                matches: usize,
            }
            let header = json(&Header {
                event: "rules".to_string(),
                n_rules: session.function().n_rules(),
                n_predicates: session.function().n_predicates(),
                matches: session.n_matches(),
            });
            let rows = session.function().rules().iter().map(|rule| {
                let preds: Vec<String> = rule
                    .preds
                    .iter()
                    .map(|bp| {
                        let name = session.context().feature_name(bp.pred.feature);
                        format!("{name} {} {}", bp.pred.op, bp.pred.threshold)
                    })
                    .collect();
                RuleLine {
                    event: "rule".to_string(),
                    id: rule.id.to_string(),
                    text: preds.join(" AND "),
                }
            });
            jsonl(header, rows)
        }
        Outcome::Matches(limit) => {
            let matches = session.matches();
            let shown = &matches[..matches.len().min(*limit)];
            let header = json(&MatchesLine {
                event: "matches".to_string(),
                total: matches.len(),
                shown: shown.len(),
            });
            let rows = shown.iter().map(|&i| {
                let (a, b) = ids_of(session, i);
                MatchLine {
                    event: "match".to_string(),
                    pair: i,
                    rule: session.state().fired_rule(i).map(|r| r.to_string()),
                    a,
                    b,
                }
            });
            jsonl(header, rows)
        }
        Outcome::Explain(explanation) => text(explanation.to_string()),
        Outcome::NearMisses(feature, misses) => {
            #[derive(serde::Serialize)]
            struct Header {
                event: String,
                feature: String,
                count: usize,
            }
            let header = json(&Header {
                event: "near_misses".to_string(),
                feature: session.context().feature_name(*feature),
                count: misses.len(),
            });
            let rows = misses.iter().map(|&(i, value)| {
                let (a, b) = ids_of(session, i);
                MissLine {
                    event: "miss".to_string(),
                    pair: i,
                    value,
                    a,
                    b,
                }
            });
            jsonl(header, rows)
        }
        Outcome::Quality(None) => text(NO_LABELS),
        Outcome::Quality(Some(q)) => json(&QualityLine {
            event: "quality".to_string(),
            precision: q.precision(),
            recall: q.recall(),
            f1: q.f1(),
            true_positives: q.true_positives,
            false_positives: q.false_positives,
            false_negatives: q.false_negatives,
            true_negatives: q.true_negatives,
        }),
        Outcome::Stats(None) => text(NO_RULES_TO_ESTIMATE),
        Outcome::Stats(Some(stats)) => text(stats_text(session, stats)),
        Outcome::Status => {
            let (store_bytes, journal_bytes) = store.usage();
            json(&StoreStatusLine {
                event: "status".to_string(),
                store_dir: store.store_dir().map(|d| d.display().to_string()),
                epoch: store.epoch(),
                journal_records: store.records_since_save(),
                store_bytes,
                journal_bytes,
                disk_free: store.store_dir().and_then(crate::persist::disk_free),
            })
        }
        Outcome::Memory => {
            let m = session.memory_report();
            json(&MemoryLine {
                event: "memory".to_string(),
                memo_bytes: m.memo_bytes,
                memo_values: session.state().memo.stored(),
                bitmap_bytes: m.bitmap_bytes,
                total_bytes: m.total_bytes(),
            })
        }
        Outcome::History => {
            let history = session.history();
            let header = json(&CountHeader {
                event: "history".to_string(),
                total: history.len(),
            });
            let rows = history
                .iter()
                .enumerate()
                .map(|(i, e)| HistoryLine::new(i + 1, e));
            jsonl(header, rows)
        }
        Outcome::Features => {
            let registry = session.context().registry();
            let header = json(&CountHeader {
                event: "features".to_string(),
                total: registry.len(),
            });
            let rows = registry.iter().map(|(fid, _)| FeatureLine {
                event: "feature".to_string(),
                id: fid.to_string(),
                name: session.context().feature_name(fid),
            });
            jsonl(header, rows)
        }
        Outcome::Saved(epoch) => json(&SavedLine {
            event: "saved".to_string(),
            epoch: *epoch,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EvalStats;

    fn demo_report() -> ChangeReport {
        ChangeReport {
            newly_matched: vec![1, 4, 9],
            newly_unmatched: vec![2],
            pairs_examined: 120,
            stats: EvalStats {
                feature_computations: 80,
                memo_lookups: 40,
                predicate_evals: 120,
                rule_evals: 120,
            },
            worker_stats: Vec::new(),
            elapsed: Duration::from_micros(1500),
            completion: Completion::Complete,
            quarantined: Vec::new(),
        }
    }

    #[test]
    fn change_line_roundtrips_and_is_one_line() {
        let line = ChangeLine::new("add_rule", Some(RuleId(3)), None, &demo_report());
        let json = line.to_json();
        assert!(!json.contains('\n'), "porcelain must be one line: {json}");
        assert!(json.contains("\"rule\":\"r3\""), "{json}");
        assert!(line.is_complete());
        assert_eq!(ChangeLine::from_json(&json).unwrap(), line);
    }

    #[test]
    fn partial_completion_carries_reason_and_remaining() {
        let mut report = demo_report();
        report.completion = Completion::Partial {
            remaining: vec![7, 8, 9],
            reason: StopReason::Cancelled,
        };
        let line = ChangeLine::new("set_threshold", None, Some(PredId(2)), &report);
        assert!(!line.is_complete());
        assert_eq!(line.completion, "cancelled");
        assert_eq!(line.remaining, 3);
        assert_eq!(line.pred.as_deref(), Some("p2"));
    }

    #[test]
    fn lint_line_roundtrips() {
        use crate::analyze::{DiagnosticKind, FixIt, Severity};
        use crate::feature::FeatureId;
        let d = Diagnostic {
            kind: DiagnosticKind::RedundantPredicate,
            severity: Severity::Warning,
            rule: RuleId(2),
            rule_pos: 1,
            pred: Some(PredId(7)),
            pred_pos: Some(0),
            feature: Some(FeatureId(3)),
            other_rule: None,
            message: "p7 is implied by a stricter sibling bound on f3".to_string(),
            fix: Some(FixIt::DropPredicate(PredId(7))),
            safe: true,
        };
        let line = LintLine::new(&d);
        let json = line.to_json();
        assert!(!json.contains('\n'), "porcelain must be one line: {json}");
        assert!(json.contains("\"event\":\"lint\""), "{json}");
        assert!(json.contains("\"kind\":\"redundant_predicate\""), "{json}");
        assert!(json.contains("\"severity\":\"warning\""), "{json}");
        assert!(json.contains("\"fix\":\"rmpred p7\""), "{json}");
        assert_eq!(LintLine::from_json(&json).unwrap(), line);
    }

    #[test]
    fn history_line_roundtrips() {
        let record = EditRecord {
            description: "add rule r0".to_string(),
            n_changed: 5,
            pairs_examined: 100,
            worker_stats: Vec::new(),
            elapsed: Duration::from_millis(2),
        };
        let line = HistoryLine::new(1, &record);
        let json = line.to_json();
        assert!(!json.contains('\n'));
        assert_eq!(HistoryLine::from_json(&json).unwrap(), line);
        assert_eq!(line.elapsed_us, 2000);
    }
}
