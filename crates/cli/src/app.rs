//! The REPL application: owns a [`SessionStore`] (a [`DebugSession`] with
//! an optional durable home), runs parsed commands through the shared
//! executor ([`em_core::command::execute`]) and renders each outcome as
//! human-facing prose — or, under `--porcelain`, as the wire's JSON
//! records. Output comes back as strings (stdout-free, so the whole app
//! is unit-testable). The verbs that touch the local filesystem
//! (`save <path>`, `load`, `export`, `import`, `open`) and `quit` run
//! here.

use em_core::command::{self, Command, CommandError, Edit, Outcome};
use em_core::{porcelain, DebugSession, Memo, SessionConfig, SessionError, SessionStore};
use em_types::LabeledPair;
use std::fmt::Write as _;

/// The CLI's typed error. Every failure path through [`App::execute`]
/// lands here — no I/O `unwrap` can kill the REPL, and callers that need
/// to distinguish a usage mistake from a session or filesystem failure
/// can match instead of scraping strings.
#[derive(Debug)]
pub enum AppError {
    /// The command's arguments do not fit the session (index out of
    /// range, unknown feature, …).
    Usage(String),
    /// The debugging session rejected the operation.
    Session(SessionError),
    /// A filesystem operation failed.
    Io {
        /// What the app was doing (includes the path).
        what: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// An import/export payload failed to (de)serialize.
    Codec(String),
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Usage(m) => write!(f, "{m}"),
            AppError::Session(e) => write!(f, "{e}"),
            AppError::Io { what, source } => write!(f, "{what}: {source}"),
            AppError::Codec(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for AppError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AppError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SessionError> for AppError {
    fn from(e: SessionError) -> Self {
        AppError::Session(e)
    }
}

impl From<CommandError> for AppError {
    fn from(e: CommandError) -> Self {
        match e {
            CommandError::Usage(m) => AppError::Usage(m),
            CommandError::Session(e) => AppError::Session(e),
            CommandError::Persist(e) => AppError::Session(SessionError::Persist(e)),
            local @ CommandError::Local(_) => AppError::Usage(local.to_string()),
        }
    }
}

/// The interactive application state.
pub struct App {
    store: SessionStore,
    labels: Vec<LabeledPair>,
    quit: bool,
    porcelain: bool,
    /// Held for the app's lifetime when the session is durable, so no
    /// concurrent process can write the same store directory.
    lock: Option<em_core::StoreLock>,
}

impl App {
    /// Wraps a prepared session with no durable store; `labels` may be
    /// empty (then `quality` reports it has nothing to compare against).
    pub fn new(session: DebugSession, labels: Vec<LabeledPair>) -> Self {
        Self::with_store(SessionStore::ephemeral(session), labels)
    }

    /// Wraps a session already bound to (or recovered from) a store.
    pub fn with_store(store: SessionStore, labels: Vec<LabeledPair>) -> Self {
        App {
            store,
            labels,
            quit: false,
            porcelain: false,
            lock: None,
        }
    }

    /// Builds the demo dataset: a fresh session plus its labels, for the
    /// caller to wrap (possibly binding a store first).
    pub fn demo_parts(
        domain: em_datagen::Domain,
        scale: f64,
        seed: u64,
        config: SessionConfig,
    ) -> Result<(DebugSession, Vec<LabeledPair>), String> {
        use em_blocking::Blocker;
        let ds = domain.generate(seed, scale);
        let cands = em_blocking::OverlapBlocker::new(
            domain.title_attr(),
            em_similarity::TokenScheme::Whitespace,
            2,
        )
        .block(&ds.table_a, &ds.table_b)
        .map_err(|e| format!("demo blocking: {e}"))?;
        let labels = ds.label_candidates(&cands);
        let session = DebugSession::new(ds.table_a.clone(), ds.table_b.clone(), cands, config);
        Ok((session, labels))
    }

    /// Builds a demo app over a synthetic dataset.
    pub fn demo(
        domain: em_datagen::Domain,
        scale: f64,
        seed: u64,
        config: SessionConfig,
    ) -> Result<Self, String> {
        let (session, labels) = Self::demo_parts(domain, scale, seed, config)?;
        Ok(App::new(session, labels))
    }

    /// Whether a `quit` command has been executed.
    pub fn should_quit(&self) -> bool {
        self.quit
    }

    /// Takes ownership of the store directory's lock; released (and the
    /// lock file removed) when the app drops.
    pub fn hold_lock(&mut self, lock: em_core::StoreLock) {
        self.lock = Some(lock);
    }

    /// Switches the output of every session verb to machine-readable
    /// porcelain: the same JSON records the `em_server` wire protocol
    /// sends (see [`em_core::porcelain`]). The local file verbs and
    /// `quit` keep their prose.
    pub fn set_porcelain(&mut self, porcelain: bool) {
        self.porcelain = porcelain;
    }

    /// Read access to the session (for the banner and tests).
    pub fn session(&self) -> &DebugSession {
        self.store.session()
    }

    /// Write access to the session (deadline changes, fault injection).
    /// Edits made here bypass the store's journal; commands go through
    /// [`App::execute`].
    pub fn session_mut(&mut self) -> &mut DebugSession {
        self.store.session_mut()
    }

    /// The store (for tests and the banner).
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// A fresh session over the same tables, candidates, and config —
    /// what `open` needs to recover a store into.
    fn fresh_session(&self) -> DebugSession {
        let session = self.store.session();
        let ctx = session.context();
        DebugSession::new(
            ctx.table_a().clone(),
            ctx.table_b().clone(),
            session.candidates().clone(),
            session.config().clone(),
        )
    }

    /// Executes one command, returning its printable output.
    ///
    /// Edits that *introduce* static-analysis findings (a rule that can
    /// never fire, a newly subsumed rule, …) get the new findings appended
    /// as advisories — as `lint` porcelain lines in porcelain mode, as
    /// `lint:` text lines otherwise. Run `lint` for the full report.
    pub fn execute(&mut self, cmd: Command) -> Result<String, AppError> {
        match cmd {
            Command::Quit => {
                self.quit = true;
                // Best-effort compaction on the way out: losing it costs
                // only replay time, not durability.
                match self.store.store_dir().map(|d| d.display().to_string()) {
                    Some(dir) => match self.store.save() {
                        Ok(epoch) => Ok(format!("saved {dir} (epoch {epoch}); bye")),
                        Err(e) => Ok(format!("warning: final save failed: {e}; bye")),
                    },
                    None => Ok("bye".to_string()),
                }
            }
            Command::Save(Some(path)) => {
                let text = self.session().function_text();
                std::fs::write(&path, &text).map_err(|e| AppError::Io {
                    what: format!("save {path}"),
                    source: e,
                })?;
                Ok(format!(
                    "saved {} rules to {path}",
                    self.session().function().n_rules()
                ))
            }
            Command::Open(dir) => {
                let fresh = self.fresh_session();
                let (store, report) = SessionStore::open(std::path::Path::new(&dir), fresh)
                    .map_err(SessionError::Persist)?;
                self.store = store;
                Ok(format!(
                    "{report}\n{} rules, {} matches",
                    self.session().function().n_rules(),
                    self.session().n_matches()
                ))
            }
            Command::Export(path) => {
                let snapshot = self.session().snapshot();
                let json = serde_json::to_string_pretty(&snapshot)
                    .map_err(|e| AppError::Codec(format!("export: {e}")))?;
                std::fs::write(&path, json).map_err(|e| AppError::Io {
                    what: format!("export {path}"),
                    source: e,
                })?;
                Ok(format!(
                    "exported {} rules to {path}",
                    self.session().function().n_rules()
                ))
            }
            Command::Import(path) => {
                let json = std::fs::read_to_string(&path).map_err(|e| AppError::Io {
                    what: format!("import {path}"),
                    source: e,
                })?;
                let snapshot: em_core::SessionSnapshot = serde_json::from_str(&json)
                    .map_err(|e| AppError::Codec(format!("import {path}: {e}")))?;
                self.store.restore(&snapshot)?;
                Ok(format!(
                    "imported {} rules from {path}: {} matches",
                    self.session().function().n_rules(),
                    self.session().n_matches()
                ))
            }
            Command::Load(path) => {
                let text = std::fs::read_to_string(&path).map_err(|e| AppError::Io {
                    what: format!("load {path}"),
                    source: e,
                })?;
                // Replace: remove existing rules, then add the loaded ones
                // (each applied incrementally, reusing the memo).
                let existing: Vec<_> = self
                    .session()
                    .function()
                    .rules()
                    .iter()
                    .map(|r| r.id)
                    .collect();
                for rid in existing {
                    self.store.remove_rule(rid)?;
                }
                let mut added = 0;
                for line in text.lines() {
                    if line.trim().is_empty() || line.trim_start().starts_with('#') {
                        continue;
                    }
                    self.store
                        .add_rule_text(line)
                        .map_err(|e| AppError::Usage(format!("line {:?}: {e}", line)))?;
                    added += 1;
                }
                Ok(format!(
                    "loaded {added} rules from {path}: {} matches",
                    self.session().n_matches()
                ))
            }
            cmd => {
                let outcome = command::execute(&mut self.store, &self.labels, &cmd)?;
                Ok(if self.porcelain {
                    porcelain::render(&self.store, &outcome)
                } else {
                    render(&self.store, &outcome)
                })
            }
        }
    }
}

/// Renders one outcome of [`em_core::command::execute`] as the REPL's
/// human-facing prose.
fn render(store: &SessionStore, outcome: &Outcome) -> String {
    let session = store.session();
    match outcome {
        Outcome::Help => command::HELP.to_string(),
        Outcome::Edit {
            edit,
            report,
            advisories,
        } => {
            let plus = report.newly_matched.len();
            let minus = report.newly_unmatched.len();
            let examined = report.pairs_examined;
            let took = report.elapsed;
            let mut out = match *edit {
                Edit::AddRule(rid) => format!(
                    "added rule {rid}: +{plus} / -{minus} verdicts, {examined} pairs examined, {took:?}"
                ),
                Edit::RemoveRule(rid) => {
                    format!("removed {rid}: +{plus} / -{minus} verdicts in {took:?}")
                }
                Edit::AddPredicate(rid, pid) => format!(
                    "added {pid} to {rid}: -{minus} verdicts, {examined} pairs examined, {took:?}"
                ),
                Edit::RemovePredicate(pid) => format!("removed {pid}: +{plus} verdicts in {took:?}"),
                Edit::SetThreshold(pid, threshold) => format!(
                    "set {pid} to {threshold}: +{plus} / -{minus} verdicts, {examined} pairs examined, {took:?}"
                ),
                Edit::Undo => format!(
                    "undone: +{plus} / -{minus} verdicts in {took:?} ({} edits remain undoable)",
                    session.undo_depth()
                ),
                Edit::Resume => format!(
                    "resumed: +{plus} / -{minus} verdicts, {examined} pairs examined, {took:?}"
                ),
            };
            out.push_str(&report_suffix(report));
            for d in advisories {
                let _ = write!(out, "\nlint: {}", render_diagnostic(d));
            }
            out
        }
        Outcome::Noop(verb) => format!("nothing to {verb}"),
        Outcome::Simplify(report) if report.is_noop() => "already minimal".to_string(),
        Outcome::Simplify(report) => format!(
            "simplified: removed {} dominated predicates, {} unsatisfiable rules, {} subsumed rules ({} rules remain)",
            report.dominated_predicates.len(),
            report.unsatisfiable_rules.len(),
            report.subsumed_rules.len(),
            session.function().n_rules()
        ),
        Outcome::Lint(diags) if diags.is_empty() => "no findings".to_string(),
        Outcome::Lint(diags) => {
            let count = |s: em_core::Severity| diags.iter().filter(|d| d.severity == s).count();
            let mut out = format!(
                "{} finding(s): {} error(s), {} warning(s), {} info",
                diags.len(),
                count(em_core::Severity::Error),
                count(em_core::Severity::Warning),
                count(em_core::Severity::Info),
            );
            for d in diags {
                let _ = write!(out, "\n  {}", render_diagnostic(d));
            }
            out
        }
        Outcome::Run(stats, elapsed) => {
            let mut out = format!(
                "full run in {elapsed:?}: {} matches, {} computations, {} lookups",
                session.n_matches(),
                stats.feature_computations,
                stats.memo_lookups
            );
            if !session.quarantined().is_empty() {
                let _ = write!(
                    out,
                    "\nquarantined {} pair(s): {}",
                    session.quarantined().len(),
                    preview(session.quarantined())
                );
            }
            out
        }
        Outcome::Optimize(algo, elapsed) => format!(
            "reordered with {} and re-ran in {elapsed:?} ({} matches unchanged-correct)",
            algo.label(),
            session.n_matches()
        ),
        Outcome::Rules if session.function().is_empty() => "(no rules)".to_string(),
        Outcome::Rules => {
            let mut out = String::new();
            for rule in session.function().rules() {
                let preds: Vec<String> = rule
                    .preds
                    .iter()
                    .map(|bp| {
                        format!(
                            "[{}] {} {} {}",
                            bp.id,
                            session.context().feature_name(bp.pred.feature),
                            bp.pred.op,
                            bp.pred.threshold
                        )
                    })
                    .collect();
                let _ = writeln!(out, "{}: {}", rule.id, preds.join(" AND "));
            }
            let _ = write!(
                out,
                "{} rules / {} predicates, {} matches",
                session.function().n_rules(),
                session.function().n_predicates(),
                session.n_matches()
            );
            out
        }
        Outcome::Matches(limit) => {
            let matches = session.matches();
            let mut out = format!("{} matches", matches.len());
            for &i in matches.iter().take(*limit) {
                let fired = session
                    .state()
                    .fired_rule(i)
                    .map(|r| r.to_string())
                    .unwrap_or_default();
                let _ = write!(out, "\n  #{i} [{fired}] {}", pair_text(session, i));
            }
            if matches.len() > *limit {
                let _ = write!(out, "\n  … and {} more", matches.len() - limit);
            }
            out
        }
        Outcome::Explain(explanation) => explanation.to_string(),
        Outcome::NearMisses(feature, misses) => {
            let name = session.context().feature_name(*feature);
            let mut out = format!("top {} unmatched pairs by {name}:", misses.len());
            for &(i, v) in misses {
                let _ = write!(out, "\n  #{i} {v:.4}  {}", pair_text(session, i));
            }
            out
        }
        Outcome::Quality(None) => porcelain::NO_LABELS.to_string(),
        Outcome::Quality(Some(q)) => format!(
            "P = {:.3}  R = {:.3}  F1 = {:.3}  (tp {} fp {} fn {} tn {})",
            q.precision(),
            q.recall(),
            q.f1(),
            q.true_positives,
            q.false_positives,
            q.false_negatives,
            q.true_negatives
        ),
        Outcome::Stats(None) => porcelain::NO_RULES_TO_ESTIMATE.to_string(),
        Outcome::Stats(Some(stats)) => porcelain::stats_text(session, stats),
        Outcome::Status => {
            let Some(dir) = store.store_dir() else {
                return "ephemeral session — no store directory".to_string();
            };
            let (store_bytes, journal_bytes) = store.usage();
            let disk_free = em_core::disk_free(dir);
            let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
            format!(
                "store: {} (epoch {}, {} journal records since save)\n\
                 snapshots: {:.2} MB | journals: {:.2} MB | disk free: {}",
                dir.display(),
                store.epoch().unwrap_or(0),
                store.records_since_save(),
                mb(store_bytes),
                mb(journal_bytes),
                disk_free.map_or("unknown".to_string(), |b| format!("{:.2} MB", mb(b))),
            )
        }
        Outcome::Memory => {
            let m = session.memory_report();
            let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
            format!(
                "memo: {:.2} MB ({} values) | bitmaps: {:.2} MB ({} rule + {} predicate) | total {:.2} MB",
                mb(m.memo_bytes),
                session.state().memo.stored(),
                mb(m.bitmap_bytes),
                m.n_rule_bitmaps,
                m.n_pred_bitmaps,
                mb(m.total_bytes())
            )
        }
        Outcome::History if session.history().is_empty() => "(no edits yet)".to_string(),
        Outcome::History => {
            let lines: Vec<String> = session
                .history()
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    format!(
                        "{:>3}. {:<40} {:>5} changed {:>7} examined {:>12?}",
                        i + 1,
                        e.description,
                        e.n_changed,
                        e.pairs_examined,
                        e.elapsed
                    )
                })
                .collect();
            lines.join("\n")
        }
        Outcome::Features if session.context().registry().is_empty() => {
            "(no features interned)".to_string()
        }
        Outcome::Features => {
            let ctx = session.context();
            let lines: Vec<String> = ctx
                .registry()
                .iter()
                .map(|(fid, _)| format!("{fid}: {}", ctx.feature_name(fid)))
                .collect();
            lines.join("\n")
        }
        Outcome::Saved(epoch) => {
            let dir = store
                .store_dir()
                .map(|d| d.display().to_string())
                .unwrap_or_default();
            format!("saved snapshot epoch {epoch} to {dir}")
        }
    }
}

/// A candidate pair as `a-id ("a-title") ~ b-id ("b-title")`.
fn pair_text(session: &DebugSession, pair: usize) -> String {
    let p = session.candidates().pair(pair);
    let a = session.context().table_a().record(p.a);
    let b = session.context().table_b().record(p.b);
    format!(
        "{} ({:?}) ~ {} ({:?})",
        a.id(),
        a.value(0).unwrap_or(""),
        b.id(),
        b.value(0).unwrap_or("")
    )
}

/// One human-readable lint finding: `severity[kind] message (fix: `…`)`.
fn render_diagnostic(d: &em_core::Diagnostic) -> String {
    let mut out = format!("{}[{}] {}", d.severity, d.kind, d.message);
    if let Some(fix) = &d.fix {
        let _ = write!(
            out,
            " (fix: `{}`{})",
            fix.command_text(),
            if d.safe { ", safe" } else { "" }
        );
    }
    out
}

/// Extra report lines for an interrupted or fault-isolated edit; empty
/// when the edit completed cleanly.
fn report_suffix(report: &em_core::ChangeReport) -> String {
    use em_core::{Completion, StopReason};
    let mut out = String::new();
    if let Completion::Partial { remaining, reason } = &report.completion {
        let why = match reason {
            StopReason::Deadline => "deadline",
            StopReason::Cancelled => "cancelled",
        };
        let _ = write!(
            out,
            "\npartial ({why}): {} pairs pending — `resume` to continue",
            remaining.len()
        );
    }
    if !report.quarantined.is_empty() {
        let _ = write!(
            out,
            "\nquarantined {} pair(s): {}",
            report.quarantined.len(),
            preview(&report.quarantined)
        );
    }
    out
}

/// Formats up to eight pair indices, eliding the rest.
fn preview(pairs: &[usize]) -> String {
    let shown: Vec<String> = pairs.iter().take(8).map(|i| format!("#{i}")).collect();
    if pairs.len() > 8 {
        format!("{} … and {} more", shown.join(" "), pairs.len() - 8)
    } else {
        shown.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_core::command::parse;
    use em_core::{ChangeLine, LintLine};
    use em_datagen::Domain;

    fn demo_app() -> App {
        App::demo(Domain::Products, 0.01, 7, SessionConfig::default()).unwrap()
    }

    fn exec(app: &mut App, line: &str) -> Result<String, AppError> {
        let cmd = parse(line).unwrap().expect("non-empty command");
        app.execute(cmd)
    }

    #[test]
    fn full_session_script() {
        let mut app = demo_app();
        assert!(exec(&mut app, "rules").unwrap().contains("(no rules)"));
        let out = exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        assert!(out.contains("added rule r0"), "{out}");
        assert!(exec(&mut app, "rules")
            .unwrap()
            .contains("jaccard_ws(title, title)"));
        assert!(exec(&mut app, "quality").unwrap().contains("F1"));
        let out = exec(&mut app, "set p0 0.8").unwrap();
        assert!(out.contains("set p0"), "{out}");
        assert!(exec(&mut app, "matches 3").unwrap().contains("matches"));
        assert!(exec(&mut app, "memory").unwrap().contains("memo"));
        assert!(exec(&mut app, "stats").unwrap().contains("feature costs"));
        assert!(exec(&mut app, "history").unwrap().contains("add rule"));
        let out = exec(&mut app, "undo").unwrap();
        assert!(out.contains("undone"), "{out}");
        assert!(exec(&mut app, "undo").unwrap().contains("undone")); // undoes the add
        assert!(exec(&mut app, "undo").unwrap().contains("nothing to undo"));
        // Ids are never reused: the re-added rule is r1 with predicate p1.
        exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        exec(&mut app, "set p1 0.8").unwrap();
        assert!(exec(&mut app, "features").unwrap().contains("f0"));
        exec(&mut app, "add jaccard_ws(title, title) >= 0.95").unwrap(); // subsumed by the 0.6 rule
        let out = exec(&mut app, "simplify").unwrap();
        assert!(out.contains("1 subsumed"), "{out}");
        assert!(exec(&mut app, "simplify")
            .unwrap()
            .contains("already minimal"));
        let out = exec(&mut app, "misses f0 4").unwrap();
        assert!(out.contains("unmatched pairs by"), "{out}");
        assert!(exec(&mut app, "misses f99").is_err());
        let out = exec(&mut app, "explain 0").unwrap();
        assert!(out.contains("rule r1"), "{out}");
        assert!(exec(&mut app, "optimize alg6")
            .unwrap()
            .contains("reordered"));
        assert!(!app.should_quit());
        exec(&mut app, "quit").unwrap();
        assert!(app.should_quit());
    }

    #[test]
    fn partial_edit_reports_and_resumes() {
        let config = SessionConfig {
            deadline: Some(std::time::Duration::ZERO),
            ..SessionConfig::default()
        };
        let mut app = App::demo(Domain::Products, 0.01, 7, config).unwrap();
        let out = exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        assert!(out.contains("partial (deadline)"), "{out}");
        assert!(out.contains("`resume` to continue"), "{out}");
        // Other edits are refused while the add is half-applied.
        let err = exec(&mut app, "set p0 0.8").unwrap_err().to_string();
        assert!(err.contains("resume"), "{err}");
        // Lift the deadline; resume finishes the edit.
        app.session_mut().set_deadline(None);
        let out = exec(&mut app, "resume").unwrap();
        assert!(out.contains("resumed"), "{out}");
        assert!(!out.contains("partial"), "{out}");
        assert!(exec(&mut app, "resume")
            .unwrap()
            .contains("nothing to resume"));
        // The rule is now fully applied and editable again.
        assert!(exec(&mut app, "set p0 0.8").is_ok());
    }

    #[test]
    fn errors_do_not_kill_the_app() {
        let mut app = demo_app();
        assert!(exec(&mut app, "rm r99").is_err());
        assert!(exec(&mut app, "set p99 0.5").is_err());
        assert!(exec(&mut app, "add bogus(title, title) >= 1").is_err());
        assert!(exec(&mut app, "explain 9999999").is_err());
        // Still usable afterwards.
        assert!(exec(&mut app, "add exact(modelno, modelno) >= 1").is_ok());
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("rulem_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rules.txt");
        let path_str = path.to_str().unwrap().to_string();

        let mut app = demo_app();
        exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        exec(
            &mut app,
            "add exact(modelno, modelno) >= 1 AND jaro(title, title) >= 0.4",
        )
        .unwrap();
        let matches_before = app.session().n_matches();
        exec(&mut app, &format!("save {path_str}")).unwrap();

        let mut app2 = demo_app();
        let out = exec(&mut app2, &format!("load {path_str}")).unwrap();
        assert!(out.contains("loaded 2 rules"), "{out}");
        assert_eq!(app2.session().n_matches(), matches_before);
    }

    #[test]
    fn export_import_roundtrip() {
        let dir = std::env::temp_dir().join("rulem_cli_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json").to_str().unwrap().to_string();

        let mut app = demo_app();
        exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        let matches_before = app.session().n_matches();
        exec(&mut app, &format!("export {path}")).unwrap();

        let mut app2 = demo_app();
        let out = exec(&mut app2, &format!("import {path}")).unwrap();
        assert!(out.contains("imported 1 rules"), "{out}");
        assert_eq!(app2.session().n_matches(), matches_before);
    }

    #[test]
    fn lint_reports_and_edit_advisories() {
        let mut app = demo_app();
        assert_eq!(exec(&mut app, "lint").unwrap(), "no findings");
        exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        assert_eq!(exec(&mut app, "lint").unwrap(), "no findings");
        // A subsumed duplicate-threshold rule arrives: the add itself
        // carries the advisory...
        let out = exec(&mut app, "add jaccard_ws(title, title) >= 0.9").unwrap();
        assert!(out.contains("lint: warning[subsumed_rule]"), "{out}");
        assert!(out.contains("fix: `rm r1`, safe"), "{out}");
        // ...and `lint` keeps reporting it.
        let out = exec(&mut app, "lint").unwrap();
        assert!(
            out.contains("1 finding(s): 0 error(s), 1 warning(s)"),
            "{out}"
        );
        assert!(out.contains("subsumed by earlier rule r0"), "{out}");
        // Applying the suggested fix clears it.
        exec(&mut app, "rm r1").unwrap();
        assert_eq!(exec(&mut app, "lint").unwrap(), "no findings");
        // An unchanged re-run introduces nothing: no advisory on this edit.
        let out = exec(&mut app, "set p0 0.7").unwrap();
        assert!(!out.contains("lint:"), "{out}");
    }

    #[test]
    fn porcelain_lint_lines() {
        let mut app = demo_app();
        app.set_porcelain(true);
        exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        // Edit advisory: the ChangeLine comes first, lint lines after.
        let out = exec(&mut app, "add jaccard_ws(title, title) >= 0.6").unwrap();
        let mut lines = out.lines();
        assert!(
            ChangeLine::from_json(lines.next().unwrap()).is_ok(),
            "{out}"
        );
        let lint = LintLine::from_json(lines.next().unwrap()).unwrap();
        assert_eq!(lint.kind, "duplicate_rule");
        assert_eq!(lint.rule, "r1");
        assert_eq!(lint.other_rule.as_deref(), Some("r0"));
        assert_eq!(lint.fix.as_deref(), Some("rm r1"));
        assert!(lint.safe);
        // The lint command emits the wire's `lint_report` header, then one
        // line per finding.
        let out = exec(&mut app, "lint").unwrap();
        let mut lines = out.lines();
        assert!(
            lines.next().unwrap().contains("\"event\":\"lint_report\""),
            "{out}"
        );
        assert_eq!(
            LintLine::from_json(lines.next().unwrap()).unwrap().severity,
            "warning"
        );
        assert_eq!(lines.next(), None, "{out}");
    }

    #[test]
    fn addpred_and_rmpred() {
        let mut app = demo_app();
        exec(&mut app, "add jaccard_ws(title, title) >= 0.5").unwrap();
        let out = exec(&mut app, "addpred r0 exact(brand, brand) >= 1").unwrap();
        assert!(out.contains("added p1 to r0"), "{out}");
        let out = exec(&mut app, "rmpred p1").unwrap();
        assert!(out.contains("removed p1"), "{out}");
    }
}
