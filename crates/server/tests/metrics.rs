//! Observability integration: the process-global registry against a live
//! server. Three guarantees are pinned here:
//!
//! 1. **Counters mean what the porcelain says.** Memo hit/miss totals
//!    advance by exactly the `memo_lookups` / `feature_computations`
//!    sums reported in the `change` records of a scripted edit session.
//! 2. **`status` and `metrics` cannot disagree.** The `shed` field of
//!    `status` reads the *same atomic* the exposition exports — bumping
//!    the registered counter is visible in the very next `status`.
//! 3. **Scrapes stay well-formed under load.** Every exposition scraped
//!    while a 16-client closed loop hammers the server passes the
//!    text-format validator.
//!
//! The registry is process-global, so tests in this binary serialize on
//! one mutex and measure deltas, never absolute values.

use em_core::obs::core_metrics;
use em_core::{ChangeLine, SessionConfig};
use em_datagen::Domain;
use em_metrics::Instrument;
use em_server::{run_load, serve, Client, ServerConfig, ServerHandle, SessionTemplate};
use std::sync::{Mutex, PoisonError};

static GLOBAL_REGISTRY: Mutex<()> = Mutex::new(());

fn demo_template() -> SessionTemplate {
    let config = SessionConfig {
        n_threads: 2,
        ..SessionConfig::default()
    };
    SessionTemplate::demo(Domain::Products, 0.01, 7, config).unwrap()
}

fn serve_ephemeral() -> ServerHandle {
    serve(demo_template(), ServerConfig::default()).unwrap()
}

/// The memo counters advance by exactly what the `change` porcelain
/// reports: `em_memo_hits_total` by the sum of `memo_lookups`,
/// `em_memo_misses_total` by the sum of `feature_computations`. The
/// wire surface and the metrics surface describe the same evaluation.
#[test]
fn memo_counters_match_change_report_sums() {
    let _guard = GLOBAL_REGISTRY
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    em_metrics::set_enabled(true);
    let handle = serve_ephemeral();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.expect_ok("open memo-probe").unwrap();

    // Baseline after `open` so session bootstrap (which also evaluates)
    // is excluded from the delta.
    let m = core_metrics();
    let hits0 = m.memo_hits.get();
    let misses0 = m.memo_misses.get();

    let script = [
        "add jaccard_ws(title, title) >= 0.6",
        "add trigram(brand, brand) >= 0.5",
        "addpred r1 jaccard_ws(brand, brand) >= 0.3",
        "set p1 0.55",
        "undo",
    ];
    let mut lookups = 0u64;
    let mut computations = 0u64;
    for line in script {
        let payload = c.expect_ok(line).unwrap();
        let change: ChangeLine = serde_json::from_str(&payload).unwrap();
        assert_eq!(change.event, "change", "scripted line {line:?}");
        lookups += change.memo_lookups;
        computations += change.feature_computations;
    }

    assert_eq!(
        m.memo_hits.get() - hits0,
        lookups,
        "memo hit counter must equal the summed memo_lookups of every change record"
    );
    assert_eq!(
        m.memo_misses.get() - misses0,
        computations,
        "memo miss counter must equal the summed feature_computations of every change record"
    );

    handle.shutdown();
}

/// `status.shed` is sourced from the registered admission counter — the
/// same `Arc<Counter>` the exposition renders. Bumping the registry's
/// handle shows up in the next `status` response, byte-for-byte.
#[test]
fn status_shed_reads_the_registered_counter() {
    let _guard = GLOBAL_REGISTRY
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    em_metrics::set_enabled(true);
    // `serve` (re-)registers this server's admission counters; with the
    // mutex held no other server can replace them mid-test.
    let handle = serve_ephemeral();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.expect_ok("open shed-probe").unwrap();

    let shed_of = |payload: &str| -> u64 {
        #[derive(serde::Deserialize)]
        struct Shed {
            shed: u64,
        }
        serde_json::from_str::<Shed>(payload).unwrap().shed
    };

    let before = shed_of(&c.expect_ok("status").unwrap());
    let counter = match em_metrics::registry().find("em_admission_shed_total", &[]) {
        Some(Instrument::Counter(counter)) => counter,
        _ => panic!("em_admission_shed_total must be registered as a counter"),
    };
    assert_eq!(counter.get(), before, "status and exposition must agree");

    counter.add(7);
    let after = shed_of(&c.expect_ok("status").unwrap());
    assert_eq!(
        after,
        before + 7,
        "status must read the registered atomic, not a private copy"
    );
    assert_eq!(counter.get(), after);

    handle.shutdown();
}

/// The `metrics` wire verb returns the JSON exposition; a standalone
/// leader's `replicas` verb reports an empty follower table.
#[test]
fn metrics_and_replicas_verbs_respond_in_porcelain() {
    let _guard = GLOBAL_REGISTRY
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    em_metrics::set_enabled(true);
    let handle = serve_ephemeral();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.expect_ok("open verb-probe").unwrap();

    let metrics = c.expect_ok("metrics").unwrap();
    for family in [
        "em_memo_hits_total",
        "em_cmd_latency_ns",
        "em_conns_active",
        "em_admission_shed_total",
    ] {
        assert!(
            metrics.contains(family),
            "metrics verb must export {family}: {metrics:.200}"
        );
    }

    let replicas = c.expect_ok("replicas").unwrap();
    #[derive(serde::Deserialize)]
    struct Head {
        event: String,
        role: String,
        count: usize,
    }
    let head: Head = serde_json::from_str(&replicas).unwrap();
    assert_eq!(head.event, "replicas");
    assert_eq!(head.role, "leader");
    assert_eq!(head.count, 0, "standalone leader has no follower streams");

    handle.shutdown();
}

/// Every scrape taken while 16 closed-loop clients hammer the server is
/// a complete, well-formed text exposition — truncated or interleaved
/// output fails the validator and therefore this test.
#[test]
fn scrapes_stay_well_formed_under_16_client_load() {
    let _guard = GLOBAL_REGISTRY
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    em_metrics::set_enabled(true);
    let handle = serve(
        demo_template(),
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let wire = handle.addr();
    let expo = handle.metrics_addr().expect("metrics listener bound");

    let load = std::thread::spawn(move || run_load(wire, 16, 4).expect("load run"));
    let mut scrapes = 0usize;
    let mut last = String::new();
    while !load.is_finished() {
        let body = em_metrics::http::scrape(&expo).expect("scrape");
        em_metrics::expo::validate_exposition(&body)
            .unwrap_or_else(|e| panic!("malformed exposition under load: {e}"));
        last = body;
        scrapes += 1;
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let report = load.join().unwrap();
    assert_eq!(report.errors, 0, "load must be error-free: {report}");
    assert!(scrapes >= 3, "expected several scrapes, got {scrapes}");

    // One more quiesced scrape: the load must have left its mark.
    let body = em_metrics::http::scrape(&expo).expect("final scrape");
    em_metrics::expo::validate_exposition(&body).unwrap();
    assert!(body.contains("em_cmd_latency_ns"), "{last:.200}");
    assert!(body.contains("em_conns_opened_total"));

    handle.shutdown();
}
