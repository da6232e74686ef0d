//! A client connection that times every request and sorts it into
//! edits (mutating verbs), reads (non-mutating verbs) and session
//! control (`open`, `attach`).

use crate::stats::Sample;
use em_server::{exec, parse_request, Client, Request};
use std::net::SocketAddr;
use std::time::Instant;

/// What a request line is, for the end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A mutating grammar verb (`add`, `set`, `undo`, `run`, `save`, ...).
    Edit,
    /// A non-mutating verb (`matches`, `explain`, `status`, `rules`, ...).
    Read,
    /// Session control (`open`, `attach`, ...).
    Control,
}

/// Classifies a request line the way the server does.
pub fn kind_of(line: &str) -> Kind {
    match parse_request(line) {
        Ok(Some(Request::Cmd(cmd))) if exec::mutates(&cmd) => Kind::Edit,
        Ok(Some(Request::Cmd(_) | Request::Status | Request::Sessions | Request::Ping)) => {
            Kind::Read
        }
        _ => Kind::Control,
    }
}

/// One client connection and what it measured.
pub struct Wire {
    client: Client,
    /// Round trips of edits sent while recording, in milliseconds.
    pub edits: Vec<Sample>,
    /// Round trips of reads sent while recording, in milliseconds.
    pub reads: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with an `err` frame.
    pub failed: u64,
    /// Whether [`Wire::req`] records its line and round trip.
    pub recording: bool,
    /// Lines sent through [`Wire::req`] while recording: the stream.
    pub sent: Vec<String>,
}

impl Wire {
    /// Connects to the server.
    pub fn connect(addr: SocketAddr) -> Wire {
        Wire {
            client: Client::connect(addr).expect("connect to the in-process server"),
            edits: Vec::new(),
            reads: Vec::new(),
            attempted: 0,
            failed: 0,
            recording: false,
            sent: Vec::new(),
        }
    }

    /// Sends `line` and waits for the reply; returns the payload and the
    /// round trip in milliseconds. An `err` frame is counted as failed.
    pub fn send(&mut self, line: &str) -> (String, f64) {
        let t = Instant::now();
        let (ok, payload) = self
            .client
            .request(line)
            .unwrap_or_else(|e| panic!("transport failure on {line:?}: {e}"));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("err reply to {line:?}: {payload}");
        }
        (payload, ms)
    }

    /// [`Wire::send`], adding the line to the stream and the round trip to
    /// the edit or read samples while recording.
    pub fn req(&mut self, line: &str) -> (String, f64) {
        let (payload, ms) = self.send(line);
        if self.recording {
            self.sent.push(line.to_string());
            match kind_of(line) {
                Kind::Edit => self.edits.push(Sample::ended(ms, ms / 1e3)),
                Kind::Read => self.reads.push(Sample::ended(ms, ms / 1e3)),
                Kind::Control => {}
            }
        }
        (payload, ms)
    }
}
