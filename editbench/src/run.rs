//! One benchmark run: set-up, the measured closed loop, the epilogue
//! (full runs, eviction and recovery), the correctness gate, and the
//! metrics.
//!
//! An untraced run measures only from the client side, and computes its
//! end-to-end metrics over the samples the host's CPU steal left alone
//! (see [`quiet`]). A traced run sends the same seeded stream in blocks
//! that repeat the same work: a tenant's script cycle, or one lifecycle
//! iteration. In a traced block, after each edit has gone out cold, it
//! re-applies the edit and its `undo` through each layer's public entry
//! point, timing the calls from outside the program:
//!
//! | application | entry point | layers |
//! |---|---|---|
//! | cold | `Client::request` | the stream itself |
//! | warm 1 | `Client::request`, `parse_request` | round trip, parse |
//! | warm 2 | `SessionManager::with_session` around `exec::execute` | manager, exec |
//! | warm 3 | `SessionStore` edit on the durable store, `DebugSession::analyze`, `ChangeLine::to_json` | store, analyzer, render |
//! | warm 4 | the same edit on an ephemeral `SessionStore` | store without the journal |
//!
//! The warm applications find the memo the cold one filled, so their
//! paired differences isolate each layer's own cost. Blocks cycle
//! through traced, plain, traced, and plain with the metrics registry
//! off. `trace.overhead_frac` compares the cold round trips of traced
//! blocks, which follow the warm applications of their own earlier
//! steps, with those of plain blocks. `metrics.edit_p95_overhead_frac`
//! compares the two kinds of plain block, which both follow a traced
//! one.

use crate::host::{now_s, Steal, StealMonitor};
use crate::model::{Class, EditKind, Model, PoolRule, Step};
use crate::setup::{self, Spec, Workload};
use crate::stats::{chunk_quantiles, max, mean, median, p95, quiet, values, Sample};
use crate::wire::{Kind, Wire};
use em_core::command::{self, Command};
use em_core::persist::session_store_dir;
use em_core::{
    cost_memo, parse_function, run_memo, ChangeLine, ChangeReport, EvalContext, Executor,
    FunctionStats, SessionStore,
};
use em_server::{exec, parse_request, SessionManager, SessionTemplate};
use em_types::CandidateSet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

/// Read rounds (see [`Sess::inspect`]) in each lifecycle iteration
/// after the full run. A 30-second run makes about six iterations, which
/// give 1,800 reads: several 200-sample chunks behind the read p95 even
/// when steal leaves only a quarter of them quiet.
const INSPECT_ROUNDS: usize = 100;

/// Script cycles every tenant completes before the peak resident memory
/// is read: about a third of a 30-second run on a 2-vCPU host.
const RSS_CYCLES: usize = 400;

/// How often the host's stolen CPU time is sampled.
const STEAL_PERIOD: std::time::Duration = std::time::Duration::from_millis(250);

/// Threshold step of a tenant's nudge, in units of 0.02 (1 to 5).
const NUDGE_UNIT: f64 = 0.02;

/// Threshold nudges in a tenant's script.
const NUDGES: usize = 8;

/// Fig. 6 edits per class a traced run makes when its stream has fewer.
const PROBE_PER_CLASS: usize = 3;

/// Pairs the similarity-kernel probe evaluates per feature.
const KERNEL_PAIRS: usize = 4096;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Wire requests sent.
    pub attempted: u64,
    /// Wire requests answered with an `err` frame.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Host and configuration, as `(key, JSON value)`.
    pub config: Vec<(&'static str, String)>,
    /// The lines the first client sent in the measured loop.
    pub stream: Vec<String>,
}

impl Outcome {
    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Which treatment a block of edits gets in a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Traced,
    MetricsOff,
}

impl Mode {
    /// The mode of block `block`: each plain block follows a traced one.
    fn of(block: usize) -> Mode {
        [Mode::Traced, Mode::Plain, Mode::Traced, Mode::MetricsOff][block % 4]
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-layer samples of the warm applications, in microseconds unless
/// named otherwise. Entry `i` of each paired vector comes from the same
/// request.
#[derive(Debug, Default)]
struct Layers {
    parse: Vec<f64>,
    round_trip: Vec<f64>,
    manager: Vec<f64>,
    exec: Vec<f64>,
    manager_overhead: Vec<f64>,
    wire: Vec<f64>,
    store: Vec<f64>,
    journal: Vec<f64>,
    render: Vec<f64>,
    unattributed: Vec<f64>,
    analyze: Vec<f64>,
    analyze_share: Vec<f64>,
    /// Bytes one journaled edit appends.
    journal_bytes: Vec<f64>,
}

impl Layers {
    fn absorb(&mut self, other: &Layers) {
        self.parse.extend_from_slice(&other.parse);
        self.round_trip.extend_from_slice(&other.round_trip);
        self.manager.extend_from_slice(&other.manager);
        self.exec.extend_from_slice(&other.exec);
        self.manager_overhead
            .extend_from_slice(&other.manager_overhead);
        self.wire.extend_from_slice(&other.wire);
        self.store.extend_from_slice(&other.store);
        self.journal.extend_from_slice(&other.journal);
        self.render.extend_from_slice(&other.render);
        self.unattributed.extend_from_slice(&other.unattributed);
        self.analyze.extend_from_slice(&other.analyze);
        self.analyze_share.extend_from_slice(&other.analyze_share);
        self.journal_bytes.extend_from_slice(&other.journal_bytes);
    }
}

/// The same rule program on an in-process store without a journal.
struct Ephemeral {
    store: SessionStore,
    model: Model,
}

impl Ephemeral {
    fn new(template: &SessionTemplate) -> Ephemeral {
        Ephemeral {
            store: SessionStore::ephemeral(template.fresh()),
            model: Model::new(),
        }
    }

    fn add(&mut self, rule: &PoolRule) {
        self.store
            .add_rule_text(&rule.text)
            .expect("pool rules parse");
        self.model.add(&rule.rule);
    }
}

/// One client connection and the session it drives.
struct Sess {
    name: String,
    wire: Wire,
    model: Model,
    /// This session's view of the pool: the first `spec.rules` are
    /// loaded, the rest are spares for `add` edits.
    pool: Vec<PoolRule>,
    rng: StdRng,
    eph: Option<Ephemeral>,
    /// Change records of cold edits, with the class of each.
    changes: Vec<(Class, ChangeLine)>,
    /// Cold edit round trips (ms) of the measured loop by [`Mode`], in
    /// traced runs.
    cold_ms: [Vec<f64>; 3],
    layers: Layers,
}

impl Sess {
    /// A session whose rules are the pool's rules from `offset` on. The
    /// rule set is fixed, so that its cost does not vary with the seed;
    /// the seed drives the order of adds and every request.
    fn new(name: String, wire: Wire, pool: &[PoolRule], offset: usize, seed: u64) -> Sess {
        let mut pool = pool.to_vec();
        let len = pool.len();
        pool.rotate_left(offset % len);
        Sess {
            name,
            wire,
            model: Model::new(),
            pool,
            rng: StdRng::seed_from_u64(seed),
            eph: None,
            changes: Vec::new(),
            cold_ms: Default::default(),
            layers: Layers::default(),
        }
    }

    /// Opens the session and adds its first `n` pool rules; returns the
    /// time from the first `add` to the last reply, in seconds.
    fn open_and_load(&mut self, n: usize) -> Sample {
        self.wire.send(&format!("open {}", self.name));
        let t = Instant::now();
        for i in 0..n {
            self.wire.send(&format!("add {}", self.pool[i].text));
            self.model.add(&self.pool[i].rule);
        }
        let s = t.elapsed().as_secs_f64();
        Sample::ended(s, s)
    }

    /// Sends an edit cold and records its change line under `class`;
    /// returns the round trip in milliseconds.
    fn cold(&mut self, line: &str, class: Class, mode: Mode) -> f64 {
        let (payload, ms) = self.wire.req(line);
        if let Some(change) = payload
            .lines()
            .next()
            .and_then(|l| ChangeLine::from_json(l).ok())
        {
            self.changes.push((class, change));
        }
        if self.wire.recording {
            self.cold_ms[mode.index()].push(ms);
        }
        ms
    }

    /// Sends `step` and its `undo` as the stream does.
    fn cold_pair(&mut self, step: &Step, mode: Mode) {
        let (edit, undo) = step.classes();
        let line = self.model.line(step, &self.pool);
        self.cold(&line, edit, mode);
        self.cold("undo", undo, mode);
        self.model.apply_pair(step, &self.pool);
    }

    /// Sends `add` of pool rule `i` as the lifecycle stream does;
    /// returns the round trip in milliseconds.
    fn cold_add(&mut self, i: usize, mode: Mode) -> f64 {
        let line = format!("add {}", self.pool[i].text);
        let ms = self.cold(&line, Class::AddRule, mode);
        self.model.add(&self.pool[i].rule);
        if let Some(eph) = &mut self.eph {
            eph.add(&self.pool[i]);
        }
        ms
    }

    /// One round of an analyst's reads, as the tenants' script makes
    /// them: list the first five matches, `explain` the `i`-th listed
    /// pair (cyclically), and ask for the session's `status`.
    fn inspect(&mut self, i: usize) {
        let listing = self.wire.req("matches 5").0;
        let pairs = listed_pairs(&listing).unwrap_or_default();
        let pair = if pairs.is_empty() {
            0
        } else {
            pairs[i % pairs.len()]
        };
        self.wire.req(&format!("explain {pair}"));
        self.wire.req("status");
    }

    /// The session's rule listing and full match listing, unrecorded.
    fn listing(&mut self, n_cands: usize) -> (String, String) {
        let rules = self.wire.send("rules").0;
        let matches = self.wire.send(&format!("matches {n_cands}")).0;
        (rules, matches)
    }

    /// Re-applies `step` and its `undo` warm through every layer; see
    /// the module docs. `eph_warmup` first applies the pair untimed to
    /// the ephemeral store, whose memo has not seen the edit yet.
    fn warm_pair(&mut self, manager: &SessionManager, step: &Step, eph_warmup: bool) {
        let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
        let undo = Command::Undo;

        // Round trip and parse.
        let mut rt = [0.0; 2];
        let mut parse = [0.0; 2];
        let lines = [self.model.line(step, &self.pool), "undo".to_string()];
        for i in 0..2 {
            let t = Instant::now();
            black_box(parse_request(black_box(&lines[i])).expect("valid line"));
            parse[i] = us(t);
            rt[i] = self.wire.send(&lines[i]).1 * 1e3;
        }
        self.model.apply_pair(step, &self.pool);

        // Manager around exec.
        let mut mgr = [0.0; 2];
        let mut ex = [0.0; 2];
        let cmds = [command_of(&self.model.line(step, &self.pool)), undo.clone()];
        for i in 0..2 {
            let t = Instant::now();
            let e = manager
                .with_session(&self.name, |store, labels| {
                    let t = Instant::now();
                    exec::execute(store, labels, &cmds[i]).expect("edit applies");
                    us(t)
                })
                .expect("session exists");
            mgr[i] = us(t);
            ex[i] = e;
        }
        self.model.apply_pair(step, &self.pool);

        // The durable store, the analyzer and the renderer.
        let mut store = [0.0; 2];
        let mut analyze = [0.0; 2];
        let mut render = [0.0; 2];
        let journal_bytes = &mut self.layers.journal_bytes;
        let cmds = [command_of(&self.model.line(step, &self.pool)), undo.clone()];
        for i in 0..2 {
            (analyze[i], store[i], render[i]) = manager
                .with_session(&self.name, |s, _| {
                    let a = if lints(&cmds[i]) {
                        let t = Instant::now();
                        black_box(s.session().analyze());
                        us(t)
                    } else {
                        0.0
                    };
                    let (bytes, records) = (s.usage().1, s.records_since_save());
                    let t = Instant::now();
                    let report = store_apply(s, &cmds[i]);
                    let st = us(t);
                    let t = Instant::now();
                    black_box(ChangeLine::new("edit", None, None, &report).to_json());
                    let render = us(t);
                    // An autosave in between starts a new journal.
                    if s.records_since_save() == records + 1 {
                        journal_bytes.push(s.usage().1.saturating_sub(bytes) as f64);
                    }
                    (a, st, render)
                })
                .expect("session exists");
        }
        self.model.apply_pair(step, &self.pool);

        // The ephemeral store.
        let eph = self
            .eph
            .as_mut()
            .expect("traced runs keep an ephemeral store");
        if eph_warmup {
            store_apply(
                &mut eph.store,
                &command_of(&eph.model.line(step, &self.pool)),
            );
            store_apply(&mut eph.store, &undo);
            eph.model.apply_pair(step, &self.pool);
        }
        let mut ephemeral = [0.0; 2];
        let cmds = [command_of(&eph.model.line(step, &self.pool)), undo];
        for i in 0..2 {
            let t = Instant::now();
            store_apply(&mut eph.store, &cmds[i]);
            ephemeral[i] = us(t);
        }
        eph.model.apply_pair(step, &self.pool);

        let l = &mut self.layers;
        for i in 0..2 {
            l.parse.push(parse[i]);
            l.round_trip.push(rt[i]);
            l.manager.push(mgr[i]);
            l.exec.push(ex[i]);
            l.manager_overhead.push(mgr[i] - ex[i]);
            l.wire.push(rt[i] - mgr[i]);
            l.store.push(store[i]);
            l.journal.push(store[i] - ephemeral[i]);
            l.render.push(render[i]);
            // `exec::execute` analyzes before and after every edit but
            // not around `undo`.
            let attributed = parse[i] + (mgr[i] - ex[i]) + store[i] + 2.0 * analyze[i] + render[i];
            l.unattributed.push(1.0 - attributed / rt[i]);
        }
        l.analyze.push(analyze[0]);
        l.analyze_share.push(2.0 * analyze[0] / ex[0]);
    }
}

fn command_of(line: &str) -> Command {
    match command::parse(line) {
        Ok(Some(cmd)) => cmd,
        other => panic!("{line:?} is not a grammar command: {other:?}"),
    }
}

/// Whether `exec::execute` runs the analyzer around `cmd`.
fn lints(cmd: &Command) -> bool {
    matches!(
        cmd,
        Command::AddRule(_)
            | Command::RemoveRule(_)
            | Command::AddPredicate(..)
            | Command::RemovePredicate(_)
            | Command::SetThreshold(..)
    )
}

/// Applies an edit command through the store's journaled API.
fn store_apply(store: &mut SessionStore, cmd: &Command) -> ChangeReport {
    match cmd {
        Command::AddRule(text) => store.add_rule_text(text).map(|(_, r)| r),
        Command::RemoveRule(rid) => store.remove_rule(*rid),
        Command::RemovePredicate(pid) => store.remove_predicate(*pid),
        Command::SetThreshold(pid, t) => store.set_threshold(*pid, *t),
        Command::Undo => store.undo().map(|r| r.expect("an edit to undo")),
        other => panic!("not a benchmarked edit: {other:?}"),
    }
    .expect("edit applies")
}

/// Samples the end-to-end and per-layer metrics draw from.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    datagen_s: Vec<f64>,
    blocking_s: Vec<f64>,
    rulegen_s: Vec<f64>,
    /// Rule loads by client: during set-up (tenant sessions), or inside
    /// the measured loop (lifecycle sessions).
    load_s: ByClient,
    full_run_s: ByClient,
    recovery_s: ByClient,
    /// When the measured loop began and ended, in seconds of [`now_s`].
    loop_at: (f64, f64),
    /// Stretches of the measured loop that each hold its whole mix of
    /// requests, valued at the edits completed in them: lifecycle
    /// iterations, or whole seconds of the tenants' loop.
    blocks: Vec<Sample>,
    /// Peak resident memory of the measured loop, in MiB.
    peak_rss_mb: f64,
    /// When `peak_rss_mb` was read.
    peak_rss_at: String,
    // Traced only.
    full_run_ms: Vec<f64>,
    memo_lookups: Vec<f64>,
    save_ms: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    replay_ms: Vec<f64>,
    attach_ms: Vec<f64>,
    memo_bytes: Vec<f64>,
    cost_ratio: Vec<f64>,
    kernel_ns_per_pair: Vec<f64>,
}

/// Runs `workload` once: sets up `spec.setup_reps` times, measures for
/// `seconds`, then checks the outcome. Stores live under `root`, which
/// is removed afterwards.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool, root: &Path) -> Outcome {
    let _ = std::fs::remove_dir_all(root);
    let mut x = Samples::default();
    let monitor = StealMonitor::start(STEAL_PERIOD);

    // ---- set-up, repeated; the last repetition is kept ----------------
    let mut kept: Option<(setup::Data, em_server::ServerHandle, Vec<Sess>, PathBuf)> = None;
    for rep in 0..spec.setup_reps.max(1) {
        if let Some((_, server, sessions, _)) = kept.take() {
            drop(sessions);
            server.shutdown();
        }
        let rep_root = root.join(format!("rep{rep}"));
        let t = Instant::now();
        let (data, template) = setup::prepare(spec);
        let server = setup::start(spec, template, &rep_root);
        let mut sessions: Vec<Sess> = (0..spec.clients)
            .map(|i| {
                let name = match spec.workload {
                    Workload::TenantsMixed => format!("tenant-{i}"),
                    Workload::SessionLifecycle => "life-0".to_string(),
                };
                let wire = Wire::connect(server.addr());
                let seed = seed ^ ((i as u64 + 1) * 0x9E37_79B9);
                Sess::new(name, wire, &data.pool, i * spec.rules, seed)
            })
            .collect();
        if spec.workload == Workload::TenantsMixed {
            for (i, s) in sessions.iter_mut().enumerate() {
                x.load_s.push(i, s.open_and_load(spec.rules));
            }
        }
        x.setup_s.push(t.elapsed().as_secs_f64());
        x.datagen_s.push(data.datagen.as_secs_f64());
        x.blocking_s.push(data.blocking.as_secs_f64());
        x.rulegen_s.push(data.rulegen.as_secs_f64());
        kept = Some((data, server, sessions, rep_root));
    }
    let (data, server, mut sessions, store_root) = kept.expect("at least one set-up");
    let manager = std::sync::Arc::clone(server.manager());
    let n_cands = data.n_cands;

    if trace && spec.workload == Workload::TenantsMixed {
        for s in &mut sessions {
            let mut eph = Ephemeral::new(manager.template());
            for r in &s.pool[..spec.rules] {
                eph.add(r);
            }
            s.eph = Some(eph);
        }
    }
    // ---- the measured loop ---------------------------------------------
    for s in &mut sessions {
        s.wire.recording = true;
    }
    let mut gate = Gate::default();
    let rss_reset = reset_peak_rss();
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let loop_t0 = now_s();
    let mut rss = None;
    match spec.workload {
        Workload::TenantsMixed => rss = tenants(&manager, &mut sessions, deadline, trace),
        Workload::SessionLifecycle => lifecycle(
            spec,
            &manager,
            &store_root,
            &mut sessions[0],
            n_cands,
            deadline,
            trace,
            &mut x,
            &mut gate,
        ),
    }
    x.loop_at = (loop_t0, now_s());
    if spec.workload == Workload::TenantsMixed {
        x.blocks = whole_seconds(&sessions, x.loop_at);
    }
    (x.peak_rss_mb, x.peak_rss_at) = match rss {
        Some(mb) => (mb, format!("{RSS_CYCLES} script cycles of every client")),
        None => (peak_rss_mb(), "measured loop end".to_string()),
    };
    em_metrics::set_enabled(true);
    for s in &mut sessions {
        s.wire.recording = false;
    }

    // ---- epilogue ------------------------------------------------------
    if trace {
        // Fig. 6 classes the stream did not exercise enough.
        let s = &mut sessions[0];
        let spare = spec.rules..s.pool.len();
        for class in Class::ALL {
            let seen = s.changes.iter().filter(|(c, _)| *c == class).count();
            let kind = match class {
                Class::AddPredicate | Class::RemovePredicate => EditKind::RemovePredicate,
                Class::Tighten => EditKind::Tighten,
                Class::Relax => EditKind::Relax,
                Class::AddRule => EditKind::AddRule,
                Class::RemoveRule => EditKind::RemoveRule,
            };
            for _ in seen..PROBE_PER_CLASS {
                let step = s.model.draw(&mut s.rng, kind, spare.clone());
                s.cold_pair(&step, Mode::Plain);
            }
        }
    }
    // The lifecycle's tail (`run`, `save`, evict, `attach`) on every
    // session. A traced run makes it at least once, in-process.
    let reps = if trace {
        spec.epilogue_reps.max(1)
    } else {
        spec.epilogue_reps
    };
    for rep in 0..reps {
        for (i, s) in sessions.iter_mut().enumerate() {
            if trace {
                let (run_ms, lookups, save_ms, bytes, memo) = manager
                    .with_session(&s.name, |store, _| {
                        let t = Instant::now();
                        let stats = store.run_full().expect("full run");
                        let run_ms = t.elapsed().as_secs_f64() * 1e3;
                        let t = Instant::now();
                        store.save().expect("save");
                        let save_ms = t.elapsed().as_secs_f64() * 1e3;
                        (
                            run_ms,
                            stats.memo_lookups as f64,
                            save_ms,
                            store.usage().0 as f64,
                            store.session().memory_report().memo_bytes as f64,
                        )
                    })
                    .expect("session exists");
                x.full_run_ms.push(run_ms);
                x.memo_lookups.push(lookups);
                x.save_ms.push(save_ms);
                x.snapshot_bytes.push(bytes);
                x.memo_bytes.push(memo);
            } else {
                let ms = s.wire.send("run").1;
                x.full_run_s.push(i, Sample::ended(ms / 1e3, ms / 1e3));
                s.wire.send("save");
            }
        }
        // A full run may credit a match to an earlier rule than the
        // incremental edits did, so the listings to recover are taken
        // after it.
        let before: Vec<(String, String)> =
            sessions.iter_mut().map(|s| s.listing(n_cands)).collect();
        // Opening one fresh session per client evicts every workload
        // session to its snapshot.
        for (i, s) in sessions.iter_mut().enumerate() {
            s.wire.send(&format!("open spare-{rep}-{i}"));
        }
        for (i, s) in sessions.iter_mut().enumerate() {
            let attach = format!("attach {}", s.name);
            if trace {
                let dir = session_store_dir(&store_root, &s.name).expect("valid name");
                let t = Instant::now();
                drop(SessionStore::open(&dir, manager.template().fresh()).expect("store opens"));
                x.replay_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                manager.attach(&s.name).expect("attach");
                x.attach_ms.push(t.elapsed().as_secs_f64() * 1e3);
                s.wire.send(&attach);
            } else {
                let ms = s.wire.send(&attach).1;
                x.recovery_s.push(i, Sample::ended(ms / 1e3, ms / 1e3));
            }
        }
        for (s, b) in sessions.iter_mut().zip(&before) {
            gate.check(s.listing(n_cands) == *b, || {
                format!("{} differs after eviction and recovery", s.name)
            });
        }
    }

    let steal = monitor.finish();

    // ---- the oracle: a fresh full run of the listed rules --------------
    let (mut ctx, cands) = setup::reference(spec);
    for s in &mut sessions {
        let (rules, matches) = s.listing(n_cands);
        if let Err(e) = oracle(&mut ctx, &cands, &rules, &matches, trace, &mut x) {
            gate.check(false, || format!("{}: {e}", s.name));
        }
    }

    let attempted: u64 = sessions.iter().map(|s| s.wire.attempted).sum();
    let failed: u64 = sessions.iter().map(|s| s.wire.failed).sum();
    let shed = server.admission_snapshot().shed as f64;
    let config = config(
        spec,
        seed,
        seconds,
        trace,
        &data,
        &store_root,
        rss_reset,
        failed,
        attempted,
        &sessions,
        &x,
        &steal,
    );
    let metrics = if trace {
        per_layer(&sessions, &x, shed)
    } else {
        end_to_end(spec, &sessions, &x, &steal)
    };
    let stream = std::mem::take(&mut sessions[0].wire.sent);
    drop(sessions);
    server.shutdown();
    let _ = std::fs::remove_dir_all(root);
    Outcome {
        correct: gate.ok,
        attempted,
        failed,
        metrics,
        config,
        stream,
    }
}

/// Accumulates correctness failures.
#[derive(Debug)]
struct Gate {
    ok: bool,
}

impl Default for Gate {
    fn default() -> Self {
        Gate { ok: true }
    }
}

impl Gate {
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            eprintln!("correctness check failed: {}", why());
            self.ok = false;
        }
    }
}

fn set_mode(mode: Mode) {
    em_metrics::set_enabled(mode != Mode::MetricsOff);
}

/// A tenant's fixed script: threshold nudges, alternately tighter and
/// looser. Each is sent with its `undo`, then one round of reads.
fn tenant_script(s: &mut Sess) -> Vec<Step> {
    (0..NUDGES)
        .map(|i| {
            let delta = NUDGE_UNIT * s.rng.gen_range(1..=5) as f64;
            s.model.nudge(&mut s.rng, delta, i % 2 == 0)
        })
        .collect()
}

/// Every client cycles its own script on its own session, in a seeded
/// order that changes every cycle, so that the two clients' edits and
/// reads do not fall into step. In a traced run each cycle is one block,
/// and the clients meet at a barrier after each cycle, so both run each
/// block in the same mode.
///
/// Returns the peak resident memory once every client has completed
/// [`RSS_CYCLES`] cycles: each edit lengthens the session's history, so
/// a reading at the end would count how many edits the host let through.
fn tenants(
    manager: &SessionManager,
    sessions: &mut [Sess],
    deadline: Instant,
    trace: bool,
) -> Option<f64> {
    let barrier = Barrier::new(sessions.len());
    let stop = AtomicBool::new(false);
    let (done, rss) = (AtomicUsize::new(0), OnceLock::new());
    let clients = sessions.len();
    std::thread::scope(|scope| {
        for s in sessions.iter_mut() {
            let (barrier, stop, done, rss) = (&barrier, &stop, &done, &rss);
            scope.spawn(move || {
                let script = tenant_script(s);
                let mut cycle = 0;
                loop {
                    let mode = if trace { Mode::of(cycle) } else { Mode::Plain };
                    if trace {
                        if barrier.wait().is_leader() {
                            stop.store(Instant::now() >= deadline, Ordering::SeqCst);
                            set_mode(mode);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    } else if Instant::now() >= deadline {
                        break;
                    }
                    let mut order: Vec<usize> = (0..script.len()).collect();
                    order.shuffle(&mut s.rng);
                    for i in order {
                        let step = &script[i];
                        s.cold_pair(step, mode);
                        s.inspect(i);
                        if mode == Mode::Traced {
                            s.warm_pair(manager, step, true);
                        }
                    }
                    cycle += 1;
                    if cycle == RSS_CYCLES && done.fetch_add(1, Ordering::SeqCst) + 1 == clients {
                        let _ = rss.set(peak_rss_mb());
                    }
                }
            });
        }
    });
    rss.into_inner()
}

/// Open, bulk load, full run, inspect, save, evict, recover; repeated.
#[allow(clippy::too_many_arguments)]
fn lifecycle(
    spec: &Spec,
    manager: &SessionManager,
    store_root: &Path,
    s: &mut Sess,
    n_cands: usize,
    deadline: Instant,
    trace: bool,
    x: &mut Samples,
    gate: &mut Gate,
) {
    for k in 0.. {
        let (edits, t0) = (s.wire.edits.len(), now_s());
        let mode = if trace { Mode::of(k) } else { Mode::Plain };
        set_mode(mode);
        s.name = format!("life-{k}");
        s.model = Model::new();
        s.wire.send(&format!("open {}", s.name));
        if k > 0 {
            // The previous iteration's sessions were just evicted for good.
            for old in [format!("life-{}", k - 1), format!("evict-{}", k - 1)] {
                remove_store(store_root, &old);
            }
        }
        if trace {
            s.eph = Some(Ephemeral::new(manager.template()));
        }
        s.pool[..spec.rules].shuffle(&mut s.rng);
        // The load is the sum of the `add` round trips, so that a traced
        // run's extra applications do not count.
        let mut load_ms = 0.0;
        let load_t0 = now_s();
        for i in 0..spec.rules {
            load_ms += s.cold_add(i, mode);
            if mode == Mode::Traced {
                s.warm_pair(manager, &Step::AddRule { pool: i }, false);
            }
        }
        x.load_s.push(
            0,
            Sample {
                value: load_ms / 1e3,
                t0: load_t0,
                t1: now_s(),
            },
        );
        let ms = s.wire.req("run").1;
        x.full_run_s.push(0, Sample::ended(ms / 1e3, ms / 1e3));
        for r in 0..INSPECT_ROUNDS {
            s.inspect(r);
        }
        s.wire.req("save");
        let before = s.listing(n_cands);
        s.wire.send(&format!("open evict-{k}"));
        let ms = s.wire.send(&format!("attach {}", s.name)).1;
        x.recovery_s.push(0, Sample::ended(ms / 1e3, ms / 1e3));
        gate.check(s.listing(n_cands) == before, || {
            format!("{} differs after eviction and recovery", s.name)
        });
        // A traced run makes at least one block of each mode.
        x.blocks.push(Sample {
            value: (s.wire.edits.len() - edits) as f64,
            t0,
            t1: now_s(),
        });
        if Instant::now() >= deadline && (!trace || k >= 3) {
            break;
        }
    }
}

fn remove_store(root: &Path, name: &str) {
    if let Ok(dir) = session_store_dir(root, name) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The pairs a `matches` reply lists, in listing order, after checking
/// that the header counts them.
fn listed_pairs(matches: &str) -> Result<Vec<usize>, String> {
    let mut lines = matches.lines();
    let header: exec::MatchesLine = serde_json::from_str(lines.next().unwrap_or_default())
        .map_err(|e| format!("matches header: {e}"))?;
    let pairs: Vec<usize> = lines
        .map(|l| serde_json::from_str::<exec::MatchLine>(l).map(|m| m.pair))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("match line: {e}"))?;
    if header.shown != pairs.len() {
        return Err(format!(
            "header shows {} matches, the listing {}",
            header.shown,
            pairs.len()
        ));
    }
    Ok(pairs)
}

/// Checks the wire's full match listing against a fresh in-process full
/// run of the rules the wire lists, over the dataset generated again in
/// `ctx` and `cands`. In a traced run it also measures that run against
/// the cost model and times the similarity kernels.
fn oracle(
    ctx: &mut EvalContext,
    cands: &CandidateSet,
    rules: &str,
    matches: &str,
    trace: bool,
    x: &mut Samples,
) -> Result<(), String> {
    let mut text = String::new();
    for line in rules.lines().skip(1) {
        let rule: exec::RuleLine =
            serde_json::from_str(line).map_err(|e| format!("rule line {line:?}: {e}"))?;
        text.push_str(&rule.text);
        text.push('\n');
    }
    let func = parse_function(&text, ctx).map_err(|e| format!("listed rules: {e}"))?;
    let total: exec::MatchesLine = serde_json::from_str(matches.lines().next().unwrap_or_default())
        .map_err(|e| format!("matches header: {e}"))?;
    let mut wire = listed_pairs(matches)?;
    wire.sort_unstable();
    if total.total != wire.len() {
        return Err(format!(
            "listing shows {} of {} matches",
            wire.len(),
            total.total
        ));
    }

    let (outcome, _) = run_memo(&func, ctx, cands, false, &Executor::serial());
    let fresh: Vec<usize> = (0..outcome.verdicts.len())
        .filter(|&i| outcome.verdicts[i])
        .collect();
    if fresh != wire {
        return Err(format!(
            "wire lists {} matches, a fresh full run finds {}",
            wire.len(),
            fresh.len()
        ));
    }

    if trace {
        let stats = FunctionStats::estimate(&func, ctx, cands, 0.01, setup::DATA_SEED);
        let predicted_ns = cost_memo(&func, &stats) * cands.len() as f64;
        x.cost_ratio
            .push(outcome.elapsed.as_secs_f64() * 1e9 / predicted_ns);
        let pairs = &cands.as_slice()[..KERNEL_PAIRS.min(cands.len())];
        let mut out = vec![0.0; pairs.len()];
        let features = func.features();
        let t = Instant::now();
        for &f in &features {
            ctx.compute_batch(f, pairs, &mut out);
            black_box(&out);
        }
        x.kernel_ns_per_pair
            .push(t.elapsed().as_secs_f64() * 1e9 / (features.len() * pairs.len()) as f64);
    }
    Ok(())
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Samples of one kind, by client. The two tenants load different rules,
/// so their samples form two groups of costs; a median over both would
/// fall between the groups and flip with the noise.
#[derive(Debug, Default)]
struct ByClient(Vec<Vec<Sample>>);

impl ByClient {
    fn push(&mut self, client: usize, sample: Sample) {
        if self.0.len() <= client {
            self.0.resize(client + 1, Vec::new());
        }
        self.0[client].push(sample);
    }

    /// Every sample's value.
    fn values(&self) -> Vec<f64> {
        self.0.iter().flat_map(|v| values(v)).collect()
    }

    /// The mean over clients of the median of each client's quiet
    /// samples.
    fn quiet_median(&self, steal: &Steal) -> f64 {
        let medians: Vec<f64> = self
            .0
            .iter()
            .map(|v| median(&values(&quiet(v, steal))))
            .collect();
        mean(&medians)
    }
}

/// Round trips per chunk of the latency percentiles. A chunk's p95 has
/// ten samples beyond it.
const CHUNK: usize = 200;

/// The `q`-quantile of the quiet (see [`quiet`]) edit or read round
/// trips: for each client the median over chunks of [`CHUNK`] consecutive
/// samples, so that a burst of host noise inflates the chunks it
/// overlaps, not the result; then the mean over clients (see
/// [`ByClient`]).
fn latency(sessions: &[Sess], kind: Kind, q: f64, steal: &Steal) -> f64 {
    let per_client: Vec<f64> = sessions
        .iter()
        .map(|s| {
            let v = if kind == Kind::Edit {
                &s.wire.edits
            } else {
                &s.wire.reads
            };
            median(&chunk_quantiles(&values(&quiet(v, steal)), CHUNK, q))
        })
        .collect();
    mean(&per_client)
}

/// The whole seconds (or, in a loop shorter than one, the whole loop) of
/// the loop that ran from `t0` to `t1`, each valued at the edits all
/// clients completed in it.
fn whole_seconds(sessions: &[Sess], (t0, t1): (f64, f64)) -> Vec<Sample> {
    let width = (t1 - t0).min(1.0);
    let mut seconds: Vec<Sample> = (0..((t1 - t0) / width) as usize)
        .map(|k| Sample {
            value: 0.0,
            t0: t0 + k as f64 * width,
            t1: t0 + (k + 1) as f64 * width,
        })
        .collect();
    for e in sessions.iter().flat_map(|s| &s.wire.edits) {
        if let Some(second) = seconds.get_mut(((e.t1 - t0) / width) as usize) {
            second.value += 1.0;
        }
    }
    seconds
}

/// Edits completed per second over the quiet blocks of the loop (see
/// [`Samples::blocks`]), taken within each of `strata` equal runs of
/// consecutive blocks and averaged over them.
///
/// The tenants' edit rate falls as the loop goes on: each autosave
/// writes the session's whole history again, and the history grows with
/// every edit (one 30-second run went from 2,000 to 700 edits a second).
/// The quiet seconds of one run may come early and those of the next
/// late; weighing each stretch of the loop equally keeps the rate from
/// following them.
fn edit_rate(x: &Samples, strata: usize, steal: &Steal) -> f64 {
    let per = x.blocks.len().div_ceil(strata).max(1);
    let rates: Vec<f64> = x
        .blocks
        .chunks(per)
        .map(|blocks| {
            let kept = quiet(blocks, steal);
            let edits: f64 = kept.iter().map(|b| b.value).sum();
            let seconds: f64 = kept.iter().map(|b| b.t1 - b.t0).sum();
            edits / seconds
        })
        .collect();
    mean(&rates)
}

fn end_to_end(spec: &Spec, sessions: &[Sess], x: &Samples, steal: &Steal) -> Vec<Metric> {
    vec![
        metric("setup_s", median(&x.setup_s), "s"),
        metric(
            "edit_p50_ms",
            latency(sessions, Kind::Edit, 0.5, steal),
            "ms",
        ),
        metric(
            "read_p50_ms",
            latency(sessions, Kind::Read, 0.5, steal),
            "ms",
        ),
        metric(
            "read_p95_ms",
            latency(sessions, Kind::Read, 0.95, steal),
            "ms",
        ),
        metric(
            "edits_per_s",
            edit_rate(x, spec.rate_strata(), steal),
            "1/s",
        ),
        metric("load_s", x.load_s.quiet_median(steal), "s"),
        metric("full_run_s", x.full_run_s.quiet_median(steal), "s"),
        metric("recovery_s", x.recovery_s.quiet_median(steal), "s"),
        metric("peak_rss_mb", x.peak_rss_mb, "MB"),
    ]
}

fn per_layer(sessions: &[Sess], x: &Samples, shed: f64) -> Vec<Metric> {
    let mut l = Layers::default();
    let mut changes: Vec<&(Class, ChangeLine)> = Vec::new();
    let mut cold: [Vec<f64>; 3] = Default::default();
    for s in sessions {
        changes.extend(&s.changes);
        for (all, mine) in cold.iter_mut().zip(&s.cold_ms) {
            all.extend(mine);
        }
    }
    for s in sessions {
        l.absorb(&s.layers);
    }
    let delta_us: Vec<f64> = changes.iter().map(|(_, c)| c.elapsed_us as f64).collect();
    let computed: f64 = changes
        .iter()
        .map(|(_, c)| c.feature_computations as f64)
        .sum();
    let looked_up: f64 = changes.iter().map(|(_, c)| c.memo_lookups as f64).sum();
    let examined: Vec<f64> = changes
        .iter()
        .map(|(_, c)| c.pairs_examined as f64)
        .collect();
    let n = changes.len().max(1) as f64;

    let mut m = vec![
        metric("setup.datagen_s", median(&x.datagen_s), "s"),
        metric("setup.blocking_s", median(&x.blocking_s), "s"),
        metric("setup.rulegen_s", median(&x.rulegen_s), "s"),
        metric("setup.rule_load_s", median(&x.load_s.values()), "s"),
        metric(
            "similarity.batched_ns_per_pair",
            median(&x.kernel_ns_per_pair),
            "ns",
        ),
        metric(
            "similarity.feature_computations",
            computed / n,
            "count/edit",
        ),
        metric(
            "core.memo.hit_ratio",
            looked_up / (looked_up + computed).max(1.0),
            "ratio",
        ),
        metric("core.memo.bytes", median(&x.memo_bytes), "B"),
        metric("core.incremental.delta_p50_us", median(&delta_us), "us"),
        metric("core.incremental.delta_p95_us", p95(&delta_us), "us"),
        metric(
            "core.incremental.pairs_examined",
            mean(&examined),
            "count/edit",
        ),
    ];
    for class in Class::ALL {
        let ms: Vec<f64> = changes
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, c)| c.elapsed_us as f64 / 1e3)
            .collect();
        m.push(metric(
            format!("core.incremental.{}_mean_ms", class.name()),
            mean(&ms),
            "ms",
        ));
        m.push(metric(
            format!("core.incremental.{}_max_ms", class.name()),
            max(&ms),
            "ms",
        ));
    }
    m.extend([
        metric("core.engine.full_run_ms", median(&x.full_run_ms), "ms"),
        metric("core.engine.memo_lookups", median(&x.memo_lookups), "count"),
        metric("core.costmodel.ratio", median(&x.cost_ratio), "ratio"),
        metric("core.analyze.p50_us", median(&l.analyze), "us"),
        metric("core.analyze.edit_share", median(&l.analyze_share), "ratio"),
        metric("core.persist.journal_p50_us", median(&l.journal), "us"),
        metric("core.persist.journal_p95_us", p95(&l.journal), "us"),
        metric(
            "core.persist.journal_bytes_per_edit",
            median(&l.journal_bytes),
            "B",
        ),
        metric("core.persist.save_ms", median(&x.save_ms), "ms"),
        metric(
            "core.persist.snapshot_bytes",
            median(&x.snapshot_bytes),
            "B",
        ),
        metric("core.persist.replay_ms", median(&x.replay_ms), "ms"),
        metric("core.porcelain.render_us", median(&l.render), "us"),
        metric("server.proto.parse_us", median(&l.parse), "us"),
        metric("server.exec.execute_p50_us", median(&l.exec), "us"),
        metric("server.exec.execute_p95_us", p95(&l.exec), "us"),
        metric(
            "server.manager.overhead_p50_us",
            median(&l.manager_overhead),
            "us",
        ),
        metric(
            "server.manager.overhead_p95_us",
            p95(&l.manager_overhead),
            "us",
        ),
        metric("server.manager.p50_us", median(&l.manager), "us"),
        metric("server.manager.attach_ms", median(&x.attach_ms), "ms"),
        metric("server.round_trip_p50_us", median(&l.round_trip), "us"),
        metric("server.wire_p50_us", median(&l.wire), "us"),
        metric("server.wire_p95_us", p95(&l.wire), "us"),
        metric("server.admission.shed", shed, "count"),
        metric(
            "metrics.edit_p95_overhead_frac",
            p95(&cold[Mode::Plain.index()]) / p95(&cold[Mode::MetricsOff.index()]) - 1.0,
            "ratio",
        ),
        metric("trace.unattributed_frac", median(&l.unattributed), "ratio"),
        metric(
            "trace.overhead_frac",
            median(&cold[Mode::Traced.index()]) / median(&cold[Mode::Plain.index()]) - 1.0,
            "ratio",
        ),
    ]);
    m
}

/// Hands the heap the set-up freed back to the kernel, then resets this
/// process's peak resident memory (VmHWM) to its current resident
/// memory, so that a later [`peak_rss_mb`] measures from here and counts
/// what is live; `false` when the kernel refuses the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host and the run's configuration.
#[allow(clippy::too_many_arguments)]
fn config(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    data: &setup::Data,
    store_root: &Path,
    rss_reset: bool,
    failed: u64,
    attempted: u64,
    sessions: &[Sess],
    x: &Samples,
    steal: &Steal,
) -> Vec<(&'static str, String)> {
    let q = |s: &str| format!("{s:?}");
    let (total, kept) = sessions
        .iter()
        .flat_map(|s| [&s.wire.edits, &s.wire.reads])
        .fold((0, 0), |(n, k), v| (n + v.len(), k + quiet(v, steal).len()));
    vec![
        ("workload", q(spec.workload.name())),
        ("git_sha", q(&crate::host::git_sha())),
        ("nproc", setup::nproc().to_string()),
        ("scale", spec.scale.to_string()),
        ("candidates", data.n_cands.to_string()),
        ("rules_per_session", spec.rules.to_string()),
        ("rule_pool", data.pool.len().to_string()),
        ("seed", seed.to_string()),
        ("data_seed", setup::DATA_SEED.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        ("clients", spec.clients.to_string()),
        ("session_threads", spec.session_threads().to_string()),
        ("admission_workers", setup::nproc().to_string()),
        ("setup_reps", spec.setup_reps.to_string()),
        ("store_fs", q(&crate::host::filesystem_of(store_root))),
        ("flush_policy", q("journal append + fsync per edit")),
        ("metrics_registry", q("on")),
        (
            "peak_rss_since",
            q(if rss_reset {
                "measured loop start"
            } else {
                "process start"
            }),
        ),
        ("peak_rss_at", q(&x.peak_rss_at)),
        (
            "loop_steal_share",
            steal.share(x.loop_at.0, x.loop_at.1).to_string(),
        ),
        ("quiet_steal", crate::stats::QUIET_STEAL.to_string()),
        (
            "quiet_kept_share",
            (kept as f64 / total.max(1) as f64).to_string(),
        ),
        (
            "failed_frac",
            (failed as f64 / attempted.max(1) as f64).to_string(),
        ),
    ]
}

/// The store root of one run under `base`.
pub fn store_root(base: &Path, workload: Workload) -> PathBuf {
    base.join(format!("{}-{}", workload.name(), std::process::id()))
}
