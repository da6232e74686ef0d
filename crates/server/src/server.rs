//! The TCP server: accept loop, admission control, per-connection
//! handlers, and the disconnect watchdog.
//!
//! One thread accepts; each admitted connection gets its own handler
//! thread speaking the [`crate::proto`] protocol against the shared
//! [`SessionManager`]. Admission control is a hard cap on concurrent
//! connections — the `max_conns + 1`-th client gets a framed `busy`
//! error and an immediate close, so overload degrades into fast refusals
//! instead of unbounded queueing.
//!
//! Every command runs under a *disconnect watchdog*: a sibling thread
//! peeks the client socket while the command evaluates and fires the
//! session's [`CancelToken`](em_core::CancelToken) on EOF. A client that
//! dies mid-edit therefore stops burning server CPU at the next budget
//! check, and the half-applied edit is parked exactly like a deadline
//! trip — journaled, resumable, and visible to the next `attach` as
//! `pending: true`.
//!
//! Nothing a client does may kill the process: handler panics are
//! confined to their thread (and the session layer's own panic
//! quarantine already isolates per-pair evaluation faults).

use crate::admission::{AdmissionConfig, AdmissionQueue, ConnQueue};
use crate::error::ServerError;
use crate::manager::{Role, SessionManager, SessionTemplate};
use crate::proto::{self, Request, MAX_LINE};
use crate::replica::{FollowerOpts, Replicator};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How long blocking socket reads wait before re-checking shutdown and
/// watchdog flags. Also bounds how stale a disconnect detection can be.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Root directory for durable per-session stores; `None` serves
    /// ephemeral sessions only.
    pub store_root: Option<PathBuf>,
    /// How many sessions may stay resident in memory (LRU beyond this
    /// are evicted to their snapshots). Ignored without a store root.
    pub max_resident: usize,
    /// Hard safety bound on concurrent connections; beyond it clients are
    /// refused with a framed `busy` error. Fairness under load comes from
    /// the admission queue, so this default is deliberately high — it
    /// exists to bound thread count, not to shed load.
    pub max_conns: usize,
    /// Command-level admission control (fair-share queue, shedding).
    pub admission: AdmissionConfig,
    /// Bind address for the Prometheus-style text exposition listener
    /// (`:0` picks a free port); `None` disables it. The `metrics` wire
    /// verb works either way.
    pub metrics_addr: Option<String>,
    /// Run as a read-only follower replicating the leader at this
    /// address.
    pub follow: Option<String>,
    /// With `follow`: self-promote to leader when the leader stays
    /// unreachable past the replicator's retry policy.
    pub promote_on_loss: bool,
    /// Test-only injection of network faults into the replication
    /// stream.
    #[cfg(feature = "fault-inject")]
    pub net_faults: Option<Arc<crate::replica::NetFaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            store_root: None,
            max_resident: 8,
            max_conns: 1024,
            admission: AdmissionConfig::default(),
            metrics_addr: None,
            follow: None,
            promote_on_loss: false,
            #[cfg(feature = "fault-inject")]
            net_faults: None,
        }
    }
}

/// A running server: owns the accept thread, the admission queue, the
/// replicator (followers), and the session manager.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
    manager: Arc<SessionManager>,
    admission: Arc<AdmissionQueue>,
    replicator: Option<Replicator>,
    metrics: Option<em_metrics::http::MetricsServer>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics exposition listener's bound address, when one was
    /// configured via [`ServerConfig::metrics_addr`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.addr())
    }

    /// The shared session manager (tests, embedding).
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// Admission-control counters (tests, the load harness).
    pub fn admission_snapshot(&self) -> crate::admission::AdmissionSnapshot {
        self.admission.snapshot()
    }

    /// Stops accepting, stops replicating, drains the admission queue,
    /// then drains sessions: parked edits are settled, every resident
    /// durable session is folded into a fresh snapshot, and the store
    /// locks are released. Returns how many sessions saved cleanly.
    pub fn shutdown(mut self) -> usize {
        self.stop_accepting();
        if let Some(r) = self.replicator.take() {
            r.stop();
        }
        self.admission.shutdown();
        let (_, saved, _) = self.manager.drain();
        saved
    }

    /// True once a client's `shutdown` verb has requested a drain; the
    /// embedding process should call [`ServerHandle::shutdown`].
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn stop_accepting(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_accepting();
        if let Some(r) = self.replicator.take() {
            r.stop();
        }
    }
}

/// Binds and serves. Returns once the listener is live; connections are
/// handled on background threads until [`ServerHandle::shutdown`] (or
/// drop, which stops accepting without the final save).
pub fn serve(template: SessionTemplate, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let manager = Arc::new(SessionManager::new(
        template,
        config.store_root.clone(),
        config.max_resident,
    ));
    let admission = Arc::new(AdmissionQueue::new(config.admission));
    manager.set_admission(Arc::clone(&admission));
    // Expose this server's admission instruments through the global
    // registry (replace semantics: in the ordinary one-server-per-process
    // deployment the exposition and `status` read the SAME Arcs, so the
    // two surfaces cannot disagree; in-process test fleets each keep
    // their own counters and the registry shows the last server's).
    // The core families register here too, not on the first evaluation,
    // so a scrape of a fresh server already lists every family.
    crate::obs::server_metrics();
    em_core::obs::core_metrics();
    {
        use em_metrics::Instrument;
        let reg = em_metrics::registry();
        let c = admission.counters();
        reg.register(
            "em_admission_admitted_total",
            &[],
            "Commands admitted to the fair-share queue",
            Instrument::Counter(Arc::clone(&c.admitted)),
        );
        reg.register(
            "em_admission_executed_total",
            &[],
            "Admitted commands that ran to completion",
            Instrument::Counter(Arc::clone(&c.executed)),
        );
        reg.register(
            "em_admission_shed_total",
            &[],
            "Commands shed by admission control (deadline, full queue, shutdown)",
            Instrument::Counter(Arc::clone(&c.shed)),
        );
        reg.register(
            "em_admission_throttled_total",
            &[],
            "Commands delayed by the per-connection token bucket",
            Instrument::Counter(Arc::clone(&c.throttled)),
        );
        reg.register(
            "em_admission_queue_wait_ns",
            &[],
            "Time commands spent queued before executing or being shed, in nanoseconds",
            Instrument::Histogram(Arc::clone(&c.queue_wait_ns)),
        );
        reg.register(
            "em_admission_depth",
            &[],
            "Commands queued right now",
            Instrument::Gauge(Arc::clone(&c.depth)),
        );
    }
    let metrics = match &config.metrics_addr {
        Some(addr) => Some(em_metrics::http::serve_exposition(
            addr,
            Arc::new(|| em_metrics::expo::render_prometheus(em_metrics::registry())),
        )?),
        None => None,
    };
    let replicator = match &config.follow {
        Some(leader) => {
            manager.set_role(Role::Follower {
                leader: leader.clone(),
            });
            let opts = FollowerOpts {
                promote_on_loss: config.promote_on_loss,
                ..FollowerOpts::new(leader.clone())
            };
            Some(Replicator::spawn(
                Arc::clone(&manager),
                opts,
                #[cfg(feature = "fault-inject")]
                config.net_faults.clone(),
            ))
        }
        None => None,
    };
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept_thread = {
        let manager = Arc::clone(&manager);
        let admission = Arc::clone(&admission);
        let shutdown = Arc::clone(&shutdown);
        let max_conns = config.max_conns.max(1);
        thread::Builder::new()
            .name("em-server-accept".to_string())
            .spawn(move || accept_loop(listener, manager, admission, shutdown, max_conns))?
    };
    Ok(ServerHandle {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
        manager,
        admission,
        replicator,
        metrics,
    })
}

fn accept_loop(
    listener: TcpListener,
    manager: Arc<SessionManager>,
    admission: Arc<AdmissionQueue>,
    shutdown: Arc<AtomicBool>,
    max_conns: usize,
) {
    let active = Arc::new(AtomicUsize::new(0));
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Admission control: reserve a slot or refuse fast.
                if active.fetch_add(1, Ordering::AcqRel) >= max_conns {
                    active.fetch_sub(1, Ordering::AcqRel);
                    let _ = proto::write_frame(
                        &mut stream,
                        false,
                        &ServerError::Busy(format!(
                            "{max_conns} connections already active; retry later"
                        ))
                        .to_string(),
                    );
                    continue; // stream drops → close
                }
                let manager = Arc::clone(&manager);
                let admission = Arc::clone(&admission);
                let shutdown = Arc::clone(&shutdown);
                let conn_active = Arc::clone(&active);
                let spawned = thread::Builder::new()
                    .name("em-server-conn".to_string())
                    .spawn(move || {
                        // Balances the reservation even if the handler
                        // panics.
                        struct Release(Arc<AtomicUsize>);
                        impl Drop for Release {
                            fn drop(&mut self) {
                                self.0.fetch_sub(1, Ordering::AcqRel);
                            }
                        }
                        let _release = Release(conn_active);
                        let queue = admission.register();
                        handle_connection(stream, &manager, &queue, &shutdown);
                    });
                if spawned.is_err() {
                    active.fetch_sub(1, Ordering::AcqRel);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(POLL_INTERVAL);
            }
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Reads `\n`-terminated lines from a socket whose read timeout doubles
/// as a shutdown poll. Partial lines survive timeouts — only a full line
/// (or EOF) leaves the buffer.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

enum Line {
    /// A complete request line (terminator stripped).
    Full(String),
    /// Clean EOF (any unterminated trailing bytes are discarded).
    Eof,
    /// The client sent `> MAX_LINE` bytes with no terminator; the
    /// connection cannot resync and must close after an error frame.
    TooLong,
    /// The line is not UTF-8; the connection can continue (the boundary
    /// was found).
    NotUtf8,
}

impl LineReader {
    fn next_line(&mut self, shutdown: &AtomicBool) -> std::io::Result<Line> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut raw: Vec<u8> = self.buf.drain(..=pos).collect();
                raw.pop(); // the '\n'
                if raw.last() == Some(&b'\r') {
                    raw.pop();
                }
                return Ok(match String::from_utf8(raw) {
                    Ok(s) => Line::Full(s),
                    Err(_) => Line::NotUtf8,
                });
            }
            if self.buf.len() > MAX_LINE {
                return Ok(Line::TooLong);
            }
            if shutdown.load(Ordering::Acquire) {
                return Ok(Line::Eof);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(Line::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    manager: &Arc<SessionManager>,
    queue: &ConnQueue,
    shutdown: &AtomicBool,
) {
    let _conn = crate::obs::ConnGuard::open();
    let _ = stream.set_nodelay(true);
    // One timeout serves three purposes: the main loop polls `shutdown`,
    // the watchdog polls its stop flag, and neither can block forever on
    // a silent peer. (SO_RCVTIMEO lives on the file description, so the
    // clone used for reading shares it.)
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader {
        stream: read_half,
        buf: Vec::new(),
    };
    let mut writer = stream;
    let mut attached: Option<String> = None;

    loop {
        let line = match reader.next_line(shutdown) {
            Ok(Line::Full(line)) => line,
            Ok(Line::Eof) => return,
            Ok(Line::NotUtf8) => {
                if respond(
                    &mut writer,
                    Err(ServerError::BadRequest("line is not UTF-8".into())),
                )
                .is_err()
                {
                    return;
                }
                continue;
            }
            Ok(Line::TooLong) => {
                let _ = respond(
                    &mut writer,
                    Err(ServerError::BadRequest(format!(
                        "request line exceeds {MAX_LINE} bytes"
                    ))),
                );
                return;
            }
            Err(_) => return,
        };
        let request = match proto::parse_request(&line) {
            Ok(None) => continue, // blank / comment
            Ok(Some(req)) => req,
            Err(msg) => {
                if respond(&mut writer, Err(ServerError::BadRequest(msg))).is_err() {
                    return;
                }
                continue;
            }
        };
        if matches!(request, Request::Cmd(em_core::Command::Quit)) {
            let _ = proto::write_frame(&mut writer, true, "{\"event\":\"bye\"}");
            return;
        }
        let verb = request.verb();
        let is_edit = matches!(&request, Request::Cmd(cmd) if cmd.mutates());
        let t0 = std::time::Instant::now();
        let result = dispatch(manager, &mut attached, &writer, queue, shutdown, request);
        let elapsed = t0.elapsed();
        let obs = crate::obs::server_metrics();
        obs.observe_request(verb, elapsed, result.as_ref().err().map(|e| e.kind()));
        if is_edit {
            if let Some(name) = attached.as_deref() {
                obs.record_session_edit(name, elapsed);
            }
        }
        if respond(&mut writer, result).is_err() {
            return;
        }
    }
}

/// Writes one response frame; `Err` only for socket failures.
fn respond(w: &mut TcpStream, result: Result<String, ServerError>) -> std::io::Result<()> {
    match result {
        Ok(payload) => proto::write_frame(w, true, &payload),
        Err(e) => proto::write_frame(w, false, &e.to_string()),
    }
}

fn attached_name(attached: &Option<String>) -> Result<&str, ServerError> {
    attached.as_deref().ok_or(ServerError::NoSession)
}

fn dispatch(
    manager: &Arc<SessionManager>,
    attached: &mut Option<String>,
    client: &TcpStream,
    queue: &ConnQueue,
    shutdown: &AtomicBool,
    request: Request,
) -> Result<String, ServerError> {
    // A follower refuses anything that would fork its timeline from the
    // leader's journal: session creation, deadline changes (they alter
    // how future replayed edits park), and every mutating grammar
    // command. The refusal names the leader so clients can redirect.
    if let Role::Follower { leader } = manager.role() {
        let mutating = match &request {
            Request::Open(_) | Request::Deadline(_) => true,
            Request::Cmd(cmd) => cmd.mutates(),
            _ => false,
        };
        if mutating {
            return Err(ServerError::ReadOnly { leader });
        }
    }
    match request {
        Request::Open(name) => {
            manager.open(&name)?;
            *attached = Some(name.clone());
            manager.status_json(&name)
        }
        Request::Attach(name) => {
            let info = manager.attach(&name)?;
            *attached = Some(name.clone());
            #[derive(serde::Serialize)]
            struct Attached {
                event: String,
                name: String,
                recovered: Option<String>,
                pending: bool,
                rules: usize,
                matches: usize,
            }
            Ok(serde_json::to_string(&Attached {
                event: "attached".to_string(),
                name: info.name,
                recovered: info.recovered,
                pending: info.pending,
                rules: info.n_rules,
                matches: info.n_matches,
            })
            .expect("Attached serializes"))
        }
        Request::Detach => {
            *attached = None;
            Ok("{\"event\":\"detached\"}".to_string())
        }
        Request::Deadline(d) => {
            let name = attached_name(attached)?;
            manager.with_session(name, |store, _| store.session_mut().set_deadline(d))?;
            #[derive(serde::Serialize)]
            struct DeadlineSet {
                event: String,
                ms: Option<u64>,
            }
            Ok(serde_json::to_string(&DeadlineSet {
                event: "deadline".to_string(),
                ms: d.map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            })
            .expect("DeadlineSet serializes"))
        }
        Request::Sessions => Ok(manager.sessions_json()),
        Request::Status => manager.status_json(attached_name(attached)?),
        Request::Ping => Ok("{\"event\":\"pong\"}".to_string()),
        Request::Replicate {
            name,
            epoch,
            idx,
            max,
        } => {
            // The leader's view of its followers comes from these polls:
            // note who asked and how far behind they still are.
            let peer = client.peer_addr().ok().map(|a| a.to_string());
            manager.replicate_json(&name, epoch, idx, max, peer)
        }
        Request::Snapshot(name) => manager.snapshot_json(&name),
        Request::Promote => manager.promote(),
        Request::Metrics => Ok(em_metrics::expo::render_json(em_metrics::registry())),
        Request::Replicas => Ok(manager.replicas_json()),
        Request::Scrub { name, repair } => manager.scrub_json(&name, repair),
        Request::Shutdown => {
            // Raise the flag first so no new lines are read anywhere,
            // then drain: settle parked edits, snapshot residents,
            // release the store locks. The embedding process observes
            // the flag (`ServerHandle::shutdown_requested`) and exits.
            shutdown.store(true, Ordering::Release);
            let (sessions, saved, notes) = manager.drain();
            #[derive(serde::Serialize)]
            struct Drained {
                event: String,
                sessions: usize,
                saved: usize,
                notes: Vec<String>,
            }
            Ok(serde_json::to_string(&Drained {
                event: "shutdown".to_string(),
                sessions,
                saved,
                notes,
            })
            .expect("Drained serializes"))
        }
        Request::Cmd(cmd) => {
            let name = attached_name(attached)?.to_string();
            let token = manager.cancel_token(&name)?;
            // Commands go through the fair-share admission queue: the
            // connection thread blocks (closed loop) while a worker runs
            // the command round-robin across connections. The disconnect
            // watchdog still rides along via a cloned stream handle.
            match client.try_clone() {
                Ok(peek) => {
                    let manager = Arc::clone(manager);
                    queue.run(Box::new(move || {
                        with_disconnect_watchdog(&peek, token, || manager.execute(&name, &cmd))
                    }))
                }
                // No watchdog if the clone failed; the command still runs.
                Err(_) => {
                    let manager = Arc::clone(manager);
                    queue.run(Box::new(move || manager.execute(&name, &cmd)))
                }
            }
        }
    }
}

/// Runs `f` while a sibling thread peeks the client socket; EOF (client
/// gone) cancels the session's in-flight evaluation.
///
/// The watchdog is *not* joined: it blocks in `peek` for up to one
/// [`POLL_INTERVAL`] at a time, and joining would tax every command with
/// that full interval (56 ms p50 instead of ~6 ms in the load bench).
/// Instead it notices the `done` flag within one interval and exits on
/// its own. A cancel fired in that window — the client vanished just as
/// the command finished — is harmless: each edit's budget setup clears
/// the token before evaluating.
fn with_disconnect_watchdog<R>(
    client: &TcpStream,
    token: em_core::CancelToken,
    f: impl FnOnce() -> R,
) -> R {
    let done = Arc::new(AtomicBool::new(false));
    if let Ok(peek) = client.try_clone() {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut byte = [0u8; 1];
            while !done.load(Ordering::Acquire) {
                match peek.peek(&mut byte) {
                    // EOF or a hard socket error: the client is gone.
                    Ok(0) => {
                        token.cancel();
                        return;
                    }
                    // Pipelined bytes are already waiting — the client is
                    // alive; just idle until the command finishes.
                    Ok(_) => thread::sleep(POLL_INTERVAL),
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => {
                        token.cancel();
                        return;
                    }
                }
            }
        });
    }
    let out = f();
    done.store(true, Ordering::Release);
    out
}
