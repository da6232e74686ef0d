//! Degraded read-only mode under injected disk faults (runs only with
//! `--features fault-inject`): a session whose store hits a persistent
//! write failure must keep serving reads while refusing mutations with a
//! typed `degraded:` error naming the failed operation — and must flip
//! back to healthy automatically once a probe write succeeds.

#![cfg(feature = "fault-inject")]

use em_core::{
    Command, DiskFault, DiskFaultPlan, DiskOp, FaultVfs, PersistError, SessionConfig, SessionError,
};
use em_server::exec::StatusLine;
use em_server::{ServerError, SessionManager, SessionTemplate};
use em_types::{CandidateSet, Record, Schema, Table};
use std::sync::Arc;

const RULE_A: &str = "jaccard_ws(name, name) >= 0.6";
const RULE_B: &str = "jaccard_ws(name, name) >= 0.95";

fn template() -> SessionTemplate {
    let schema = Schema::new(["name"]);
    let mut a = Table::new("A", schema.clone());
    let mut b = Table::new("B", schema);
    for i in 0..4 {
        a.push(Record::new(format!("a{i}"), [format!("widget number {i}")]));
        b.push(Record::new(format!("b{i}"), [format!("widget number {i}")]));
    }
    let cands = CandidateSet::cartesian(&a, &b);
    SessionTemplate::new(a, b, cands, Vec::new(), SessionConfig::default())
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("rulem_server_degraded")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The full degraded-mode lifecycle: healthy → disk fault on a mutation
/// → reads keep serving, mutations refused with `degraded:` naming the
/// op → probe succeeds → healthy again, mutations flow.
#[test]
fn disk_fault_degrades_then_probe_recovers() {
    let root = tmp_dir("lifecycle");
    let manager = SessionManager::new(template(), Some(root.clone()), 4);

    // Journal-append op sequence for this workload: intern-feature
    // (ops 0-1), rule A (ops 2-3), rule B (ops 4-5). Fail rule B's frame
    // write, and the first recovery probe after it.
    let plan = Arc::new(
        DiskFaultPlan::new()
            .fail_op(DiskOp::JournalAppend, 4, DiskFault::NoSpace)
            .fail_op(DiskOp::Probe, 0, DiskFault::NoSpace),
    );
    manager.set_vfs(Arc::new(FaultVfs::new(plan.clone())));
    manager.open("alice").unwrap();

    manager
        .execute("alice", &Command::AddRule(RULE_A.into()))
        .expect("healthy mutation acks");
    assert_eq!(manager.degraded_op("alice"), None);

    // The fault strikes: the mutation fails with a typed disk error and
    // the session flips to degraded.
    let err = manager
        .execute("alice", &Command::AddRule(RULE_B.into()))
        .unwrap_err();
    match &err {
        ServerError::Session(SessionError::Persist(PersistError::Disk { op, .. }))
        | ServerError::Persist(PersistError::Disk { op, .. }) => {
            assert_eq!(*op, DiskOp::JournalAppend)
        }
        other => panic!("expected a typed disk error, got {other}"),
    }
    assert_eq!(plan.faults_fired(), 1);
    assert_eq!(
        manager.degraded_op("alice").as_deref(),
        Some("journal-append")
    );

    // Reads keep serving while degraded.
    let rules = manager
        .execute("alice", &Command::ListRules)
        .expect("reads must survive a sick disk");
    assert!(rules.contains("jaccard_ws"), "{rules}");
    let status = manager.status_json("alice").unwrap();
    assert!(
        status.contains("\"degraded\":\"journal-append\""),
        "{status}"
    );
    assert!(status.contains("\"store_bytes\":"), "{status}");

    // A mutation while the disk is still sick: the probe write fails
    // (Probe arm 0), so the verb is refused with the typed prefix.
    let err = manager
        .execute("alice", &Command::AddRule(RULE_B.into()))
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.starts_with("degraded:"), "{msg}");
    assert!(msg.contains("journal-append"), "{msg}");
    assert_eq!(plan.faults_fired(), 2);

    // The disk heals (the plan is exhausted): the next mutation's probe
    // succeeds, the session flips back, and the edit acks.
    manager
        .execute("alice", &Command::AddRule(RULE_B.into()))
        .expect("recovered session must accept mutations again");
    assert_eq!(manager.degraded_op("alice"), None);
    let status = manager.status_json("alice").unwrap();
    assert!(!status.contains("degraded\":\"journal-append"), "{status}");

    // Both acked rules are durable: a fresh manager over the same root
    // recovers them.
    drop(manager);
    let fresh = SessionManager::new(template(), Some(root.clone()), 4);
    fresh.attach("alice").unwrap();
    let rules = fresh.execute("alice", &Command::ListRules).unwrap();
    assert!(rules.contains("0.6") && rules.contains("0.95"), "{rules}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Non-mutating commands are never gated: even while degraded, `status`,
/// `rules`, `explain`, and `lint` all answer without touching the probe.
#[test]
fn reads_never_trip_the_probe() {
    let root = tmp_dir("reads");
    let manager = SessionManager::new(template(), Some(root.clone()), 4);
    let plan = Arc::new(
        DiskFaultPlan::new()
            .fail_op(DiskOp::JournalAppend, 4, DiskFault::Io)
            // Any probe attempt would fail loudly — reads must not probe.
            .fail_op(DiskOp::Probe, 0, DiskFault::Io)
            .fail_op(DiskOp::Probe, 1, DiskFault::Io),
    );
    manager.set_vfs(Arc::new(FaultVfs::new(plan.clone())));
    manager.open("bob").unwrap();
    manager
        .execute("bob", &Command::AddRule(RULE_A.into()))
        .unwrap();
    manager
        .execute("bob", &Command::AddRule(RULE_B.into()))
        .unwrap_err();
    assert_eq!(
        manager.degraded_op("bob").as_deref(),
        Some("journal-append")
    );

    for cmd in [
        Command::ListRules,
        Command::Status,
        Command::Lint,
        Command::Explain(0),
        Command::Matches(3),
    ] {
        manager
            .execute("bob", &cmd)
            .unwrap_or_else(|e| panic!("{cmd:?} must serve while degraded: {e}"));
    }
    // In-process `status` answers with the wire's status record.
    let status = manager.execute("bob", &Command::Status).unwrap();
    let status: StatusLine = serde_json::from_str(&status).unwrap();
    assert_eq!(status.degraded.as_deref(), Some("journal-append"));
    // Only the original journal-append fault fired; no probe ran.
    assert_eq!(plan.faults_fired(), 1);
    let _ = std::fs::remove_dir_all(&root);
}

/// `scrub` over the manager works against a degraded session's store
/// (the repair path the `degraded:` error message tells operators to
/// run) and reports it serviceable.
#[test]
fn scrub_runs_against_a_degraded_store() {
    let root = tmp_dir("scrub");
    let manager = SessionManager::new(template(), Some(root.clone()), 4);
    let plan = Arc::new(DiskFaultPlan::new().fail_op(DiskOp::JournalAppend, 4, DiskFault::NoSpace));
    manager.set_vfs(Arc::new(FaultVfs::new(plan)));
    manager.open("carol").unwrap();
    manager
        .execute("carol", &Command::AddRule(RULE_A.into()))
        .unwrap();
    manager
        .execute("carol", &Command::AddRule(RULE_B.into()))
        .unwrap_err();
    assert!(manager.degraded_op("carol").is_some());

    let out = manager.scrub_json("carol", true).unwrap();
    assert!(out.contains("\"event\":\"scrub\""), "{out}");
    assert!(out.contains("\"serviceable\":true"), "{out}");

    // After the scrub (which dropped residency), the session reloads and
    // the acked rule is still there.
    let rules = manager.execute("carol", &Command::ListRules).unwrap();
    assert!(rules.contains("0.6"), "{rules}");
    let _ = std::fs::remove_dir_all(&root);
}
