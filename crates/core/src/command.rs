//! The textual command grammar shared by the CLI REPL and the server's
//! wire protocol, and its one executor.
//!
//! Both front ends (`em-cli`'s REPL and `em-server`'s line protocol)
//! parse exactly this grammar and run every session verb through
//! [`execute`], which returns a typed [`Outcome`]. Each front end only
//! renders it: the wire and the CLI's `--porcelain` mode through
//! [`crate::porcelain::render`], the REPL through its human renderer.
//! The verbs that touch the caller's own filesystem or connection
//! (`save <path>`, `load`, `export`, `import`, `open`, `quit`) stay with
//! the front ends.

use crate::analyze::{new_diagnostics, Diagnostic};
use crate::engine::EvalStats;
use crate::explain::Explanation;
use crate::feature::FeatureId;
use crate::incremental::ChangeReport;
use crate::ordering::OrderingAlgo;
use crate::persist::{PersistError, SessionStore};
use crate::predicate::PredId;
use crate::quality::QualityReport;
use crate::rule::RuleId;
use crate::session::SessionError;
use crate::simplify::SimplifyReport;
use crate::stats::FunctionStats;
use em_types::LabeledPair;
use std::time::{Duration, Instant};

/// One parsed REPL command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `help`
    Help,
    /// `add <rule text>` — add a rule written in the rule language.
    AddRule(String),
    /// `rules` — list rules with ids.
    ListRules,
    /// `rm r<k>` — remove a rule.
    RemoveRule(RuleId),
    /// `addpred r<k> <predicate text>` — add a predicate to a rule.
    AddPredicate(RuleId, String),
    /// `rmpred p<k>` — remove a predicate.
    RemovePredicate(PredId),
    /// `set p<k> <threshold>` — change a predicate threshold.
    SetThreshold(PredId, f64),
    /// `undo` — revert the most recent edit.
    Undo,
    /// `resume` — finish a partially-applied edit (deadline/cancel).
    Resume,
    /// `simplify` — drop dominated predicates and subsumed rules.
    Simplify,
    /// `lint` — static analysis: report unsatisfiable/duplicate/subsumed
    /// rules, redundant or vacuous predicates, with fix-it suggestions.
    Lint,
    /// `run` — re-run matching from scratch (memo retained).
    Run,
    /// `matches [n]` — show up to n matched pairs (default 10).
    Matches(usize),
    /// `explain <pair-index>` — trace one pair's verdict.
    Explain(usize),
    /// `misses f<k> [n]` — top-n unmatched pairs by feature f<k>.
    NearMisses(FeatureId, usize),
    /// `quality` — precision/recall against loaded labels.
    Quality,
    /// `stats` — estimated feature costs and predicate selectivities.
    Stats,
    /// `status` — session health: store footprint, journal backlog, disk
    /// free space, and degraded state.
    Status,
    /// `optimize [random|rank|alg5|alg6]` — reorder rules/predicates.
    Optimize(OrderingAlgo),
    /// `memory` — materialization footprint.
    MemoryReport,
    /// `history` — edit log with latencies.
    History,
    /// `features` — list interned features.
    Features,
    /// `save` — fold the journal into a fresh store snapshot;
    /// `save <path>` — write the rule set as text.
    Save(Option<String>),
    /// `load <path>` — replace the rule set from a text file.
    Load(String),
    /// `export <path>` — write a JSON session snapshot.
    Export(String),
    /// `import <path>` — restore a JSON session snapshot.
    Import(String),
    /// `open <dir>` — open (recover) a durable session store.
    Open(String),
    /// `quit` / `exit`
    Quit,
}

/// Parses one input line. Empty lines and `#` comments yield `None`.
pub fn parse(line: &str) -> Result<Option<Command>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (word, rest) = match line.split_once(char::is_whitespace) {
        Some((w, r)) => (w, r.trim()),
        None => (line, ""),
    };

    let require_arg = |what: &str| -> Result<&str, String> {
        if rest.is_empty() {
            Err(format!("{word}: missing {what}"))
        } else {
            Ok(rest)
        }
    };

    let cmd = match word.to_lowercase().as_str() {
        "help" | "?" => Command::Help,
        "add" => Command::AddRule(require_arg("rule text")?.to_string()),
        "rules" => Command::ListRules,
        "rm" => Command::RemoveRule(parse_rule_id(require_arg("rule id (r<k>)")?)?),
        "addpred" => {
            let rest = require_arg("rule id and predicate text")?;
            let (rid, pred) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "addpred: usage: addpred r<k> <predicate>".to_string())?;
            Command::AddPredicate(parse_rule_id(rid)?, pred.trim().to_string())
        }
        "rmpred" => Command::RemovePredicate(parse_pred_id(require_arg("predicate id (p<k>)")?)?),
        "set" => {
            let rest = require_arg("predicate id and threshold")?;
            let (pid, thr) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "set: usage: set p<k> <threshold>".to_string())?;
            let threshold: f64 = thr
                .trim()
                .parse()
                .map_err(|_| format!("set: bad threshold {:?}", thr.trim()))?;
            if !threshold.is_finite() {
                return Err(format!("set: threshold must be finite, got {threshold}"));
            }
            Command::SetThreshold(parse_pred_id(pid)?, threshold)
        }
        "undo" => Command::Undo,
        "resume" => Command::Resume,
        "simplify" => Command::Simplify,
        "lint" => Command::Lint,
        "run" => Command::Run,
        "matches" => {
            let n = if rest.is_empty() {
                10
            } else {
                rest.parse()
                    .map_err(|_| format!("matches: bad count {rest:?}"))?
            };
            Command::Matches(n)
        }
        "explain" => Command::Explain(
            require_arg("pair index")?
                .parse()
                .map_err(|_| format!("explain: bad pair index {rest:?}"))?,
        ),
        "misses" => {
            let rest = require_arg("feature id (f<k>)")?;
            let (fid, n) = match rest.split_once(char::is_whitespace) {
                Some((f, n)) => (
                    f,
                    n.trim()
                        .parse()
                        .map_err(|_| format!("misses: bad count {:?}", n.trim()))?,
                ),
                None => (rest, 10),
            };
            Command::NearMisses(parse_feature_id(fid)?, n)
        }
        "quality" => Command::Quality,
        "stats" => Command::Stats,
        "status" => Command::Status,
        "optimize" => {
            let algo = match rest.to_lowercase().as_str() {
                "" | "alg6" => OrderingAlgo::GreedyReduction,
                "alg5" => OrderingAlgo::GreedyCost,
                "rank" => OrderingAlgo::ByRank,
                "random" => OrderingAlgo::Random(0),
                other => return Err(format!("optimize: unknown algorithm {other:?}")),
            };
            Command::Optimize(algo)
        }
        "memory" => Command::MemoryReport,
        "history" => Command::History,
        "features" => Command::Features,
        "save" => Command::Save((!rest.is_empty()).then(|| rest.to_string())),
        "load" => Command::Load(require_arg("path")?.to_string()),
        "export" => Command::Export(require_arg("path")?.to_string()),
        "import" => Command::Import(require_arg("path")?.to_string()),
        "open" => Command::Open(require_arg("store directory")?.to_string()),
        "quit" | "exit" | "q" => Command::Quit,
        other => return Err(format!("unknown command {other:?}; try `help`")),
    };
    Ok(Some(cmd))
}

fn parse_rule_id(s: &str) -> Result<RuleId, String> {
    s.trim()
        .strip_prefix('r')
        .and_then(|n| n.parse().ok())
        .map(RuleId)
        .ok_or_else(|| format!("expected a rule id like r3, got {s:?}"))
}

fn parse_feature_id(s: &str) -> Result<FeatureId, String> {
    s.trim()
        .strip_prefix('f')
        .and_then(|n| n.parse().ok())
        .map(FeatureId)
        .ok_or_else(|| format!("expected a feature id like f2, got {s:?}"))
}

fn parse_pred_id(s: &str) -> Result<PredId, String> {
    s.trim()
        .strip_prefix('p')
        .and_then(|n| n.parse().ok())
        .map(PredId)
        .ok_or_else(|| format!("expected a predicate id like p7, got {s:?}"))
}

/// The `help` text.
pub const HELP: &str = "\
commands:
  add <rule>            add a rule, e.g. add jaccard_ws(title, title) >= 0.7 AND exact(brand, brand) >= 1
  rules                 list rules with ids
  rm r<k>               remove rule r<k>
  addpred r<k> <pred>   add a predicate to rule r<k>
  rmpred p<k>           remove predicate p<k>
  set p<k> <threshold>  tighten/relax predicate p<k>
  undo                  revert the most recent edit
  resume                finish an edit interrupted by the deadline or Ctrl-C
  simplify              drop dominated predicates and subsumed rules
  lint                  static analysis: dead/duplicate/subsumed rules, vacuous predicates, fix-its
  run                   re-run matching from scratch (memo retained)
  matches [n]           show up to n matched pairs (default 10)
  explain <i>           full evaluation trace of candidate pair i
  misses f<k> [n]       top-n unmatched pairs by feature f<k> (see `features`)
  quality               precision/recall against loaded labels
  stats                 estimated feature costs and selectivities
  status                session health: store/journal bytes, disk free, degraded state
  optimize [alg]        reorder rules/predicates (alg5 | alg6 | rank | random)
  memory                materialization memory footprint
  history               edit log with latencies
  features              list interned features
  save                  fold the edit journal into a fresh store snapshot
  save <path>           save the rule set as text
  load <path>           load a rule set from a text file
  export <path>         write a JSON session snapshot
  import <path>         restore a JSON session snapshot
  open <dir>            open (recover) a durable session store
  quit                  exit";

impl Command {
    /// The grammar word this command was parsed from (`"add"`, `"rm"`, …):
    /// stable and low-cardinality, so the server labels its per-verb
    /// latency histograms with it.
    pub fn verb(&self) -> &'static str {
        self.class().0
    }

    /// True when the command changes session state (every such change is
    /// journaled on the leader and shipped to followers), so a read-only
    /// replica or a degraded store must refuse it. Queries that only warm
    /// caches (`stats`, `misses`) do not count: the memo and cost cache
    /// are derived state, not part of the replicated timeline.
    pub fn mutates(&self) -> bool {
        self.class().1
    }

    fn class(&self) -> (&'static str, bool) {
        match self {
            Command::Help => ("help", false),
            Command::AddRule(_) => ("add", true),
            Command::ListRules => ("rules", false),
            Command::RemoveRule(_) => ("rm", true),
            Command::AddPredicate(..) => ("addpred", true),
            Command::RemovePredicate(_) => ("rmpred", true),
            Command::SetThreshold(..) => ("set", true),
            Command::Undo => ("undo", true),
            Command::Resume => ("resume", true),
            Command::Simplify => ("simplify", true),
            Command::Lint => ("lint", false),
            Command::Run => ("run", true),
            Command::Matches(_) => ("matches", false),
            Command::Explain(_) => ("explain", false),
            Command::NearMisses(..) => ("misses", false),
            Command::Quality => ("quality", false),
            Command::Stats => ("stats", false),
            Command::Status => ("status", false),
            Command::Optimize(_) => ("optimize", true),
            Command::MemoryReport => ("memory", false),
            Command::History => ("history", false),
            Command::Features => ("features", false),
            Command::Save(_) => ("save", true),
            Command::Load(_) => ("load", true),
            Command::Export(_) => ("export", false),
            Command::Import(_) => ("import", true),
            Command::Open(_) => ("open", true),
            Command::Quit => ("quit", false),
        }
    }
}

/// An applied edit, with the ids it minted or targeted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Edit {
    /// `add`: the new rule.
    AddRule(RuleId),
    /// `rm`.
    RemoveRule(RuleId),
    /// `addpred`: the rule and the new predicate.
    AddPredicate(RuleId, PredId),
    /// `rmpred`.
    RemovePredicate(PredId),
    /// `set`: the predicate and its new threshold.
    SetThreshold(PredId, f64),
    /// `undo`.
    Undo,
    /// `resume`.
    Resume,
}

/// What one executed command produced. Verbs that only read the session
/// (`rules`, `matches`, `status`, …) carry nothing: renderers read the
/// store they ran against.
#[derive(Debug)]
pub enum Outcome {
    /// `help`.
    Help,
    /// An edit applied: which one, its verdict delta, and the lint
    /// findings it introduced (present after, absent before; `undo` and
    /// `resume` report none).
    Edit {
        edit: Edit,
        report: ChangeReport,
        advisories: Vec<Diagnostic>,
    },
    /// `undo` or `resume` (the verb) with nothing to do.
    Noop(&'static str),
    /// `simplify`.
    Simplify(SimplifyReport),
    /// `lint`: every finding, severity-ordered.
    Lint(Vec<Diagnostic>),
    /// `run`: evaluation counts and wall time of the journaled re-run.
    Run(EvalStats, Duration),
    /// `optimize <algo>`: the algorithm and wall time of reorder + re-run.
    Optimize(OrderingAlgo, Duration),
    /// `rules`.
    Rules,
    /// `matches <limit>`.
    Matches(usize),
    /// `explain <pair>`.
    Explain(Explanation),
    /// `misses <feature> <n>`: the feature and the unmatched
    /// `(pair, value)` rows, closest first.
    NearMisses(FeatureId, Vec<(usize, f64)>),
    /// `quality`; `None` when no labels are loaded.
    Quality(Option<QualityReport>),
    /// `stats` (now cached on the session); `None` without rules.
    Stats(Option<FunctionStats>),
    /// `status`.
    Status,
    /// `memory`.
    Memory,
    /// `history`.
    History,
    /// `features`.
    Features,
    /// `save`: the new snapshot epoch.
    Saved(u64),
}

/// Why [`execute`] refused or failed a command.
#[derive(Debug)]
pub enum CommandError {
    /// The command's arguments do not fit the session (pair index out of
    /// range, unknown feature).
    Usage(String),
    /// The debugging session rejected the operation.
    Session(SessionError),
    /// The durable store failed a `save`.
    Persist(PersistError),
    /// A verb the front end runs itself (file paths, `quit`).
    Local(&'static str),
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::Usage(m) => write!(f, "{m}"),
            CommandError::Session(e) => write!(f, "{e}"),
            CommandError::Persist(e) => write!(f, "{e}"),
            CommandError::Local(verb) => write!(f, "`{verb}` runs in the front end"),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<SessionError> for CommandError {
    fn from(e: SessionError) -> Self {
        CommandError::Session(e)
    }
}

impl From<PersistError> for CommandError {
    fn from(e: PersistError) -> Self {
        CommandError::Persist(e)
    }
}

/// Executes one session command against a store. Edits go through the
/// store's journaled wrappers, so every change is crash-durable when the
/// store is; each edit other than `undo`/`resume` also runs the analyzer
/// before and after and reports the findings it introduced.
pub fn execute(
    store: &mut SessionStore,
    labels: &[LabeledPair],
    cmd: &Command,
) -> Result<Outcome, CommandError> {
    Ok(match cmd {
        Command::Help => Outcome::Help,
        Command::AddRule(text) => edit(store, |s| {
            let (rid, report) = s.add_rule_text(text)?;
            Ok((Edit::AddRule(rid), report))
        })?,
        Command::RemoveRule(rid) => edit(store, |s| {
            Ok((Edit::RemoveRule(*rid), s.remove_rule(*rid)?))
        })?,
        Command::AddPredicate(rid, text) => edit(store, |s| {
            let pred = s.parse_predicate(text)?;
            let (pid, report) = s.add_predicate(*rid, pred)?;
            Ok((Edit::AddPredicate(*rid, pid), report))
        })?,
        Command::RemovePredicate(pid) => edit(store, |s| {
            Ok((Edit::RemovePredicate(*pid), s.remove_predicate(*pid)?))
        })?,
        Command::SetThreshold(pid, t) => edit(store, |s| {
            Ok((Edit::SetThreshold(*pid, *t), s.set_threshold(*pid, *t)?))
        })?,
        Command::Undo => match store.undo()? {
            Some(report) => Outcome::Edit {
                edit: Edit::Undo,
                report,
                advisories: Vec::new(),
            },
            None => Outcome::Noop("undo"),
        },
        Command::Resume => match store.resume()? {
            Some(report) => Outcome::Edit {
                edit: Edit::Resume,
                report,
                advisories: Vec::new(),
            },
            None => Outcome::Noop("resume"),
        },
        Command::Simplify => Outcome::Simplify(store.simplify()?),
        Command::Lint => Outcome::Lint(store.session().analyze()),
        Command::Run => {
            let start = Instant::now();
            let stats = store.run_full()?;
            Outcome::Run(stats, start.elapsed())
        }
        Command::Optimize(algo) => {
            let start = Instant::now();
            store.optimize(*algo)?;
            Outcome::Optimize(*algo, start.elapsed())
        }
        Command::ListRules => Outcome::Rules,
        Command::Matches(limit) => Outcome::Matches(*limit),
        Command::Explain(i) => {
            let n = store.session().candidates().len();
            if *i >= n {
                return Err(CommandError::Usage(format!(
                    "pair index {i} out of range (0..{n})"
                )));
            }
            Outcome::Explain(store.session().explain(*i))
        }
        Command::NearMisses(fid, n) => {
            if fid.index() >= store.session().context().registry().len() {
                return Err(CommandError::Usage(format!(
                    "unknown feature {fid}; see `features`"
                )));
            }
            Outcome::NearMisses(*fid, store.session_mut().near_misses(*fid, *n))
        }
        Command::Quality => {
            Outcome::Quality((!labels.is_empty()).then(|| store.session().quality(labels)))
        }
        // Caching the sampled stats on the session makes later `explain`
        // output carry per-predicate cost annotations.
        Command::Stats => Outcome::Stats(
            (!store.session().function().is_empty()).then(|| store.session_mut().refresh_stats()),
        ),
        Command::Status => Outcome::Status,
        Command::MemoryReport => Outcome::Memory,
        Command::History => Outcome::History,
        Command::Features => Outcome::Features,
        Command::Save(None) => Outcome::Saved(store.save()?),
        Command::Save(Some(_))
        | Command::Load(_)
        | Command::Export(_)
        | Command::Import(_)
        | Command::Open(_)
        | Command::Quit => return Err(CommandError::Local(cmd.verb())),
    })
}

/// Applies one edit and diffs the analyzer's findings around it — the
/// one place edit advisories are computed.
fn edit(
    store: &mut SessionStore,
    apply: impl FnOnce(&mut SessionStore) -> Result<(Edit, ChangeReport), SessionError>,
) -> Result<Outcome, CommandError> {
    let before = store.session().analyze();
    let (edit, report) = apply(store)?;
    let after = store.session().analyze();
    let advisories = new_diagnostics(&before, &after)
        .into_iter()
        .cloned()
        .collect();
    Ok(Outcome::Edit {
        edit,
        report,
        advisories,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command_form() {
        assert_eq!(parse("help").unwrap(), Some(Command::Help));
        assert_eq!(
            parse("add exact(a, b) >= 1").unwrap(),
            Some(Command::AddRule("exact(a, b) >= 1".into()))
        );
        assert_eq!(parse("rules").unwrap(), Some(Command::ListRules));
        assert_eq!(
            parse("rm r3").unwrap(),
            Some(Command::RemoveRule(RuleId(3)))
        );
        assert_eq!(
            parse("addpred r1 jaro(x, y) >= 0.5").unwrap(),
            Some(Command::AddPredicate(RuleId(1), "jaro(x, y) >= 0.5".into()))
        );
        assert_eq!(
            parse("rmpred p9").unwrap(),
            Some(Command::RemovePredicate(PredId(9)))
        );
        assert_eq!(
            parse("set p2 0.85").unwrap(),
            Some(Command::SetThreshold(PredId(2), 0.85))
        );
        assert_eq!(parse("run").unwrap(), Some(Command::Run));
        assert_eq!(parse("undo").unwrap(), Some(Command::Undo));
        assert_eq!(parse("resume").unwrap(), Some(Command::Resume));
        assert_eq!(parse("simplify").unwrap(), Some(Command::Simplify));
        assert_eq!(parse("lint").unwrap(), Some(Command::Lint));
        assert_eq!(parse("LINT").unwrap(), Some(Command::Lint));
        assert_eq!(parse("matches").unwrap(), Some(Command::Matches(10)));
        assert_eq!(parse("matches 25").unwrap(), Some(Command::Matches(25)));
        assert_eq!(parse("explain 4").unwrap(), Some(Command::Explain(4)));
        assert_eq!(
            parse("misses f2").unwrap(),
            Some(Command::NearMisses(FeatureId(2), 10))
        );
        assert_eq!(
            parse("misses f2 5").unwrap(),
            Some(Command::NearMisses(FeatureId(2), 5))
        );
        assert_eq!(parse("quality").unwrap(), Some(Command::Quality));
        assert_eq!(parse("stats").unwrap(), Some(Command::Stats));
        assert_eq!(parse("status").unwrap(), Some(Command::Status));
        assert_eq!(
            parse("optimize").unwrap(),
            Some(Command::Optimize(OrderingAlgo::GreedyReduction))
        );
        assert_eq!(
            parse("optimize alg5").unwrap(),
            Some(Command::Optimize(OrderingAlgo::GreedyCost))
        );
        assert_eq!(parse("memory").unwrap(), Some(Command::MemoryReport));
        assert_eq!(parse("history").unwrap(), Some(Command::History));
        assert_eq!(parse("features").unwrap(), Some(Command::Features));
        assert_eq!(
            parse("save rules.txt").unwrap(),
            Some(Command::Save(Some("rules.txt".into())))
        );
        assert_eq!(parse("save").unwrap(), Some(Command::Save(None)));
        assert_eq!(
            parse("open sessions/demo").unwrap(),
            Some(Command::Open("sessions/demo".into()))
        );
        assert_eq!(
            parse("load rules.txt").unwrap(),
            Some(Command::Load("rules.txt".into()))
        );
        assert_eq!(
            parse("export snap.json").unwrap(),
            Some(Command::Export("snap.json".into()))
        );
        assert_eq!(
            parse("import snap.json").unwrap(),
            Some(Command::Import("snap.json".into()))
        );
        assert_eq!(parse("quit").unwrap(), Some(Command::Quit));
        assert_eq!(parse("exit").unwrap(), Some(Command::Quit));
    }

    #[test]
    fn blank_and_comment_lines_skip() {
        assert_eq!(parse("").unwrap(), None);
        assert_eq!(parse("   ").unwrap(), None);
        assert_eq!(parse("# a comment").unwrap(), None);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse("frobnicate").unwrap_err().contains("unknown command"));
        assert!(parse("rm 3").unwrap_err().contains("rule id"));
        assert!(parse("set p1").unwrap_err().contains("threshold"));
        assert!(parse("set p1 abc").unwrap_err().contains("bad threshold"));
        assert!(parse("set p1 nan").unwrap_err().contains("finite"));
        assert!(parse("set p1 inf").unwrap_err().contains("finite"));
        assert!(parse("add").unwrap_err().contains("missing"));
        assert!(parse("open").unwrap_err().contains("store directory"));
        assert!(parse("explain x").unwrap_err().contains("bad pair index"));
        assert!(parse("optimize alg7")
            .unwrap_err()
            .contains("unknown algorithm"));
    }

    #[test]
    fn case_insensitive_keywords() {
        assert_eq!(parse("RUN").unwrap(), Some(Command::Run));
        assert_eq!(parse("Matches 3").unwrap(), Some(Command::Matches(3)));
    }

    #[test]
    fn verb_is_the_grammar_word() {
        for line in [
            "help",
            "add x",
            "rules",
            "rm r1",
            "addpred r1 x",
            "rmpred p1",
            "set p1 0.5",
            "undo",
            "resume",
            "simplify",
            "lint",
            "run",
            "matches",
            "explain 1",
            "misses f1",
            "quality",
            "stats",
            "status",
            "optimize",
            "memory",
            "history",
            "features",
            "save",
            "load x",
            "export x",
            "import x",
            "open x",
            "quit",
        ] {
            let cmd = parse(line).unwrap().unwrap();
            assert_eq!(Some(cmd.verb()), line.split_whitespace().next(), "{line}");
        }
    }

    #[test]
    fn execute_reports_introduced_findings_and_leaves_local_verbs_alone() {
        use crate::session::{DebugSession, SessionConfig};
        use em_types::{CandidateSet, Record, Schema, Table};
        let schema = Schema::new(["name"]);
        let mut a = Table::new("A", schema.clone());
        a.push(Record::new("a1", ["apple ipod nano"]));
        let mut b = Table::new("B", schema);
        b.push(Record::new("b1", ["apple ipod"]));
        let cands = CandidateSet::cartesian(&a, &b);
        let session = DebugSession::new(a, b, cands, SessionConfig::default());
        let mut store = SessionStore::ephemeral(session);
        let mut run = |line: &str| execute(&mut store, &[], &parse(line).unwrap().unwrap());

        let Ok(Outcome::Edit { advisories, .. }) = run("add jaccard_ws(name, name) >= 0.5") else {
            panic!("add applies");
        };
        assert!(advisories.is_empty(), "{advisories:?}");
        let Ok(Outcome::Edit {
            edit, advisories, ..
        }) = run("add jaccard_ws(name, name) >= 0.5")
        else {
            panic!("add applies");
        };
        assert_eq!(edit, Edit::AddRule(RuleId(1)));
        let kinds: Vec<&str> = advisories.iter().map(|d| d.kind.label()).collect();
        assert_eq!(kinds, ["duplicate_rule"]);
        // The finding is not new to the next edit.
        let Ok(Outcome::Edit { advisories, .. }) = run("add exact(name, name) >= 1") else {
            panic!("add applies");
        };
        assert!(advisories.is_empty(), "{advisories:?}");
        assert!(matches!(run("lint"), Ok(Outcome::Lint(d)) if d.len() == 1));
        assert!(matches!(run("explain 1"), Err(CommandError::Usage(_))));
        for (line, verb) in [
            ("export x.json", "export"),
            ("open d", "open"),
            ("quit", "quit"),
        ] {
            assert!(
                matches!(run(line), Err(CommandError::Local(v)) if v == verb),
                "{line}"
            );
        }
    }
}
