//! Command execution over the wire: the shared executor
//! ([`em_core::command::execute`]) rendered as porcelain
//! ([`em_core::porcelain::render`]), plus the server's own records.
//!
//! File-path commands (`save <path>`, `load`, `export`, `import`, REPL
//! `open <dir>`) are refused: the server's filesystem is not the
//! client's, and durable state is managed per-session by the
//! [`crate::manager::SessionManager`]. `quit` is answered by the
//! connection loop.

use crate::error::ServerError;
use em_core::command::{self, Command};
use em_core::porcelain::{jsonl, render};
use em_core::SessionStore;
use em_types::LabeledPair;

// Listing records wire clients parse, kept at their former path.
pub use em_core::porcelain::{MatchLine, MatchesLine, RuleLine};

/// One session's row in a `sessions` listing (built by the manager,
/// serialized here).
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct SessionEntry {
    /// The session name.
    pub name: String,
    /// Whether its state is in memory (vs evicted to its snapshot).
    pub resident: bool,
    /// Whether an edit holds its lock right now (detail fields are 0).
    pub busy: bool,
    /// Rules in the matching function.
    pub rules: usize,
    /// Current match count.
    pub matches: usize,
    /// Whether a budget-interrupted edit is parked.
    pub pending: bool,
}

/// Status of one session (the `status` verb).
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct StatusLine {
    /// Always `"status"`.
    pub event: String,
    /// The session name.
    pub name: String,
    /// Whether this connection is attached to it.
    pub attached: bool,
    /// Rules in the matching function.
    pub rules: usize,
    /// Predicates across all rules.
    pub predicates: usize,
    /// Current match count.
    pub matches: usize,
    /// Whether a budget-interrupted edit is parked (`resume` finishes it).
    pub pending: bool,
    /// Snapshot epoch (`None` for ephemeral sessions).
    pub epoch: Option<u64>,
    /// Journal records appended since the last snapshot.
    pub journal_records: usize,
    /// This server's replication role: `"leader"` or `"follower"`.
    pub role: String,
    /// The leader this server replicates from (followers only).
    pub leader: Option<String>,
    /// Replication lag in journal frames (followers only): how many
    /// durable frames the leader holds that this replica has not applied.
    pub lag: Option<u64>,
    /// Commands shed by admission control since startup (whole server).
    pub shed: u64,
    /// Bytes across all snapshot generations on disk (0 when ephemeral).
    pub store_bytes: u64,
    /// Bytes across all journal generations on disk (0 when ephemeral).
    pub journal_bytes: u64,
    /// Free bytes on the filesystem holding the store (`None` when
    /// ephemeral or when the platform offers no probe).
    pub disk_free: Option<u64>,
    /// The persist write site whose failure flipped this session into
    /// degraded (read-only) mode; `None` when healthy.
    pub degraded: Option<String>,
}

/// Serializes a `sessions` listing as JSONL, one row per line. An empty
/// registry yields a single `{"event":"sessions","total":0}` header.
pub fn sessions_json(entries: Vec<SessionEntry>) -> String {
    #[derive(serde::Serialize)]
    struct Header {
        event: String,
        total: usize,
    }
    let header = serde_json::to_string(&Header {
        event: "sessions".to_string(),
        total: entries.len(),
    })
    .expect("header serializes");
    jsonl(header, entries)
}

/// Serializes one [`StatusLine`].
pub fn status_json(line: StatusLine) -> String {
    serde_json::to_string(&line).expect("StatusLine serializes infallibly")
}

/// True when `cmd` changes session state; see [`Command::mutates`].
pub fn mutates(cmd: &Command) -> bool {
    cmd.mutates()
}

/// Executes one grammar command against a session store, returning the
/// porcelain payload. Edits go through the store's journaled wrappers so
/// every change a client makes is crash-durable.
pub fn execute(
    store: &mut SessionStore,
    labels: &[LabeledPair],
    cmd: &Command,
) -> Result<String, ServerError> {
    let refusal = match cmd {
        Command::Save(None) if store.store_dir().is_none() => {
            "this session is ephemeral (server started without --store-root)"
        }
        Command::Save(Some(_))
        | Command::Load(_)
        | Command::Export(_)
        | Command::Import(_)
        | Command::Open(_) => {
            "file-path commands run on the server's filesystem; use the CLI locally"
        }
        Command::Quit => "quit closes the connection (handled by the server loop)",
        _ => {
            let outcome = command::execute(store, labels, cmd)?;
            return Ok(render(store, &outcome));
        }
    };
    Err(ServerError::Unsupported(refusal.to_string()))
}
