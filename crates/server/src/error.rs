//! The server's typed error: every failure a connection can provoke.
//!
//! Nothing a client sends may kill the process — each variant renders to
//! one human-readable `err` frame, and the connection (and every other
//! connection) keeps running.

use em_core::command::CommandError;
use em_core::{PersistError, SessionError};
use std::fmt;

/// Errors from the session manager, the executor, or the server loop.
#[derive(Debug)]
pub enum ServerError {
    /// The request line did not parse or its arguments are invalid.
    BadRequest(String),
    /// No session with that name exists (in memory or on disk).
    UnknownSession(String),
    /// `open` of a name that is already a session.
    SessionExists(String),
    /// A session command arrived before `open`/`attach`.
    NoSession,
    /// A grammar command that cannot run over the wire (file paths,
    /// REPL-only verbs).
    Unsupported(String),
    /// The debugging session rejected the edit (unknown id, pending
    /// resume, parse failure, …).
    Session(SessionError),
    /// The durable store failed (I/O, corruption, or a held lock).
    Persist(PersistError),
    /// Admission control refused the connection or command.
    Busy(String),
    /// A mutating command reached a read-only replica; the payload names
    /// the leader so clients can redirect.
    ReadOnly {
        /// Address of the leader this follower replicates from.
        leader: String,
    },
    /// Admission control shed the command: it sat in the queue past its
    /// deadline (or the queue was full). Clients should back off for the
    /// hinted interval and retry.
    Overloaded {
        /// How long the command waited before being shed.
        queued_ms: u64,
        /// Suggested client back-off before retrying.
        retry_after_ms: u64,
    },
    /// A persist write failed on this session's store, flipping it into
    /// degraded (read-only) mode: reads, `explain`, and `lint` keep
    /// serving; mutations are refused until a probe write succeeds.
    Degraded {
        /// The persist write site that failed (e.g. `journal-append`).
        op: String,
    },
    /// A response payload exceeded the wire's frame cap.
    TooLarge(String),
    /// A socket-level failure on this connection.
    Io(std::io::Error),
}

impl ServerError {
    /// The typed wire kind rendered as this error's payload prefix.
    /// [`crate::proto::error_kind`] recovers it client-side, so counters
    /// keyed on it survive any rewording of the detail text.
    pub fn kind(&self) -> crate::proto::ErrorKind {
        use crate::proto::ErrorKind;
        match self {
            ServerError::BadRequest(_) => ErrorKind::BadRequest,
            ServerError::UnknownSession(_) => ErrorKind::UnknownSession,
            ServerError::SessionExists(_) => ErrorKind::SessionExists,
            ServerError::NoSession => ErrorKind::NotAttached,
            ServerError::Unsupported(_) => ErrorKind::Unsupported,
            ServerError::Session(_) => ErrorKind::Edit,
            ServerError::Persist(_) => ErrorKind::Persist,
            ServerError::Busy(_) => ErrorKind::Busy,
            ServerError::ReadOnly { .. } => ErrorKind::ReadOnly,
            ServerError::Overloaded { .. } => ErrorKind::Overloaded,
            ServerError::Degraded { .. } => ErrorKind::Degraded,
            ServerError::TooLarge(_) => ErrorKind::TooLarge,
            ServerError::Io(_) => ErrorKind::Io,
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServerError::UnknownSession(n) => {
                write!(
                    f,
                    "unknown_session: no session named {n:?} (see `sessions`)"
                )
            }
            ServerError::SessionExists(n) => {
                write!(f, "session_exists: session {n} already exists")
            }
            ServerError::NoSession => {
                write!(f, "not attached: `open <name>` or `attach <name>` first")
            }
            ServerError::Unsupported(m) => write!(f, "unsupported over the wire: {m}"),
            ServerError::Session(e) => write!(f, "edit: {e}"),
            ServerError::Persist(e) => write!(f, "persist: {e}"),
            ServerError::Busy(m) => write!(f, "busy: {m}"),
            ServerError::ReadOnly { leader } => write!(
                f,
                "read_only: this server is a replica of {leader}; send mutations to the leader \
                 (or `promote` this one)"
            ),
            ServerError::Overloaded {
                queued_ms,
                retry_after_ms,
            } => write!(
                f,
                "overloaded: command shed after {queued_ms} ms in queue; retry after \
                 {retry_after_ms} ms"
            ),
            ServerError::Degraded { op } => write!(
                f,
                "degraded: {op} failed on this session's store; serving reads only until a \
                 probe write succeeds (free disk space or `scrub --repair`, then retry)"
            ),
            ServerError::TooLarge(m) => write!(f, "too_large: {m}"),
            ServerError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Persist(e) => Some(e),
            ServerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SessionError> for ServerError {
    fn from(e: SessionError) -> Self {
        ServerError::Session(e)
    }
}

impl From<CommandError> for ServerError {
    fn from(e: CommandError) -> Self {
        match e {
            CommandError::Usage(m) => ServerError::BadRequest(m),
            CommandError::Session(e) => ServerError::Session(e),
            CommandError::Persist(e) => ServerError::Persist(e),
            local @ CommandError::Local(_) => ServerError::Unsupported(local.to_string()),
        }
    }
}

impl From<PersistError> for ServerError {
    fn from(e: PersistError) -> Self {
        ServerError::Persist(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{error_kind, ErrorKind};

    /// Golden: every variant's rendered payload starts with its typed
    /// prefix, and `error_kind` recovers exactly that kind. A failure
    /// here means a wire-protocol change — fix the wording, not the test,
    /// unless the prefix table in `proto.rs` moved too.
    #[test]
    fn every_variant_renders_its_typed_prefix() {
        let samples: Vec<ServerError> = vec![
            ServerError::BadRequest("nope".into()),
            ServerError::UnknownSession("ghost".into()),
            ServerError::SessionExists("alice".into()),
            ServerError::NoSession,
            ServerError::Unsupported("save <path>".into()),
            ServerError::Session(em_core::SessionError::Edit(em_core::EditError::EmptyRule)),
            ServerError::Persist(em_core::PersistError::Corrupt("y".into())),
            ServerError::Busy("18 active connections".into()),
            ServerError::ReadOnly {
                leader: "127.0.0.1:7777".into(),
            },
            ServerError::Overloaded {
                queued_ms: 100,
                retry_after_ms: 50,
            },
            ServerError::Degraded {
                op: "journal-append".into(),
            },
            ServerError::TooLarge("snapshot of 99 bytes".into()),
            ServerError::Io(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone")),
        ];
        assert_eq!(
            samples.len(),
            ErrorKind::all().len(),
            "one sample per typed kind"
        );
        let mut seen = std::collections::HashSet::new();
        for e in &samples {
            let kind = e.kind();
            let rendered = e.to_string();
            assert!(
                rendered.starts_with(&format!("{}:", kind.prefix())),
                "{kind:?} must render as `{}: ...`, got {rendered:?}",
                kind.prefix()
            );
            assert_eq!(
                error_kind(&rendered),
                kind,
                "round-trip through the payload: {rendered:?}"
            );
            seen.insert(kind);
        }
        assert_eq!(seen.len(), ErrorKind::all().len(), "all kinds distinct");
        assert_eq!(error_kind("free-form text"), ErrorKind::Unknown);
        assert_eq!(error_kind("mystery: text"), ErrorKind::Unknown);
    }
}
