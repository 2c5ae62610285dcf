//! The daemon: TCP listener, session registry, and per-connection
//! command loop.
//!
//! Concurrency model: the registry is a `Mutex<BTreeMap>` of
//! `Arc<Mutex<SessionEntry>>`s — connections clone the entry `Arc` and
//! release the registry before executing, so two clients hammering
//! *different* sessions run fully in parallel while commands on one
//! session serialize (the determinism contract needs a total order per
//! session, which the per-entry lock provides and the journal records).
//!
//! Shutdown: SIGINT/SIGTERM (see [`crate::signal`]) or a `shutdown`
//! command set a flag; the accept loop and every connection poll it on
//! short socket timeouts, finish their in-flight command, and drain.
//! Journals are write-ahead-flushed per command, so even a SIGKILL loses
//! at most a torn trailing line (which replay discards).

use crate::journal::Journal;
use crate::protocol::{json_str, Command, CreateArgs};
use crate::session::Session;
use crate::signal;
use spacecdn_core::placement::PlacementSpec;
use spacecdn_core::retrieval::RetrievalSource;
use spacecdn_core::traffic::PolicyKind;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How often blocked accept/read loops wake to poll the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Longest request line a connection accepts, newline excluded. Even a
/// `fault` listing all 4,236 satellites of the 2024 fleet is ~21 KiB; a
/// longer line gets an error response and the connection is closed.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Directory session journals are written into.
    pub journal_dir: PathBuf,
    /// When set, the daemon writes its bound address here after binding —
    /// how scripts and tests discover a `:0` port.
    pub port_file: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:4600".to_string(),
            journal_dir: PathBuf::from("journals"),
            port_file: None,
        }
    }
}

/// One registered session plus its write-ahead journal.
struct SessionEntry {
    session: Session,
    journal: Journal,
}

/// State shared by the accept loop and every connection thread.
struct State {
    sessions: Mutex<BTreeMap<String, Arc<Mutex<SessionEntry>>>>,
    journal_dir: PathBuf,
    /// This daemon's own shutdown flag (the `shutdown` command); process
    /// signals use the global flag in [`crate::signal`].
    shutdown: AtomicBool,
}

impl State {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::shutdown_requested()
    }
}

/// A bound, not-yet-serving daemon.
pub struct Daemon {
    listener: TcpListener,
    state: Arc<State>,
}

impl Daemon {
    /// Bind the listener and (when configured) publish the bound address
    /// to the port file.
    pub fn bind(cfg: &ServeConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&cfg.listen)?;
        if let Some(port_file) = &cfg.port_file {
            if let Some(parent) = port_file.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            std::fs::write(port_file, format!("{}\n", listener.local_addr()?))?;
        }
        Ok(Daemon {
            listener,
            state: Arc::new(State {
                sessions: Mutex::new(BTreeMap::new()),
                journal_dir: cfg.journal_dir.clone(),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (useful with `listen = "127.0.0.1:0"`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a shutdown is requested, then drain connection
    /// threads and return. Journals are flushed per command, so there is
    /// nothing else to persist.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut workers = Vec::new();
        while !self.state.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&self.state);
                    workers.push(std::thread::spawn(move || serve_connection(stream, state)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) => return Err(e),
            }
            workers.retain(|w| !w.is_finished());
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

fn serve_connection(stream: TcpStream, state: Arc<State>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // One request line, accumulated across read timeouts: a fragment that
    // arrives before a poll wake-up stays here until its newline does.
    let mut line: Vec<u8> = Vec::new();
    loop {
        // Read at most one byte past the cap, so an oversize line is
        // detected without buffering the rest of it.
        let budget = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', &mut line) {
            Ok(n) => {
                if line.last() != Some(&b'\n') {
                    if line.len() > MAX_LINE_BYTES {
                        let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                        let _ = write_line(&mut writer, &err_response(&msg));
                        return;
                    }
                    if n == 0 {
                        return; // client closed
                    }
                    continue; // client closed mid-line; the next read sees EOF
                }
                let response = match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => None,
                    Ok(text) => Some(dispatch(text.trim(), &state)),
                    Err(_) => Some(err_response("request line is not valid UTF-8")),
                };
                line.clear();
                if let Some(response) = response {
                    if write_line(&mut writer, &response).is_err() {
                        return;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if state.draining() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Write one response line and flush it.
fn write_line(writer: &mut TcpStream, response: &str) -> std::io::Result<()> {
    writer.write_all(response.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn err_response(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", json_str(msg))
}

/// Execute one request line and render its response line.
fn dispatch(line: &str, state: &State) -> String {
    let cmd = match Command::parse(line) {
        Ok(cmd) => cmd,
        Err(e) => return err_response(&e),
    };
    match cmd {
        Command::Ping => "{\"ok\":true,\"pong\":true}".to_string(),
        Command::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            "{\"ok\":true,\"shutting_down\":true}".to_string()
        }
        Command::Metrics => {
            // The shared spacecdn-metrics-v1 serializer, embedded as a
            // JSON string so the response stays one line.
            format!(
                "{{\"ok\":true,\"metrics\":{}}}",
                json_str(&spacecdn_telemetry::snapshot_json())
            )
        }
        Command::List => {
            let sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
            let mut parts = Vec::with_capacity(sessions.len());
            for entry in sessions.values() {
                let entry = entry.lock().unwrap_or_else(|e| e.into_inner());
                parts.push(entry.session.summary_json());
            }
            format!("{{\"ok\":true,\"sessions\":[{}]}}", parts.join(","))
        }
        Command::Create(args) => create_session(args, state),
        Command::Drop { session } => {
            let removed = {
                let mut sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
                sessions.remove(&session)
            };
            match removed {
                Some(entry) => {
                    let mut entry = entry.lock().unwrap_or_else(|e| e.into_inner());
                    let clock = entry.session.clock().0;
                    let _ = entry.journal.record(
                        clock,
                        &Command::Drop {
                            session: session.clone(),
                        },
                    );
                    format!("{{\"ok\":true,\"dropped\":{}}}", json_str(&session))
                }
                None => err_response(&format!("no session {session:?}")),
            }
        }
        // Session-addressed commands: resolve the entry, serialize on its
        // lock, journal mutations write-ahead, then execute.
        cmd => {
            let name = cmd.session().expect("session-addressed command");
            let entry = {
                let sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
                sessions.get(name).cloned()
            };
            let Some(entry) = entry else {
                return err_response(&format!("no session {name:?}"));
            };
            let mut entry = entry.lock().unwrap_or_else(|e| e.into_inner());
            if cmd.is_mutating() {
                let clock = entry.session.clock().0;
                if let Err(e) = entry.journal.record(clock, &cmd) {
                    return err_response(&format!("journal write failed: {e}"));
                }
            }
            execute_on_session(&cmd, &mut entry.session)
        }
    }
}

fn create_session(args: CreateArgs, state: &State) -> String {
    let name = args.session.clone();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return err_response("session names are non-empty [A-Za-z0-9_-]+");
    }
    let mut sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
    if sessions.contains_key(&name) {
        return err_response(&format!("session {name:?} already exists"));
    }
    let mut journal = match Journal::create(&state.journal_dir, &name) {
        Ok(j) => j,
        Err(e) => return err_response(&format!("journal create failed: {e}")),
    };
    if let Err(e) = journal.record(0, &Command::Create(args.clone())) {
        return err_response(&format!("journal write failed: {e}"));
    }
    let session = match Session::create(args) {
        Ok(s) => s,
        Err(e) => return err_response(&e),
    };
    let journal_path = journal.path().display().to_string();
    sessions.insert(
        name.clone(),
        Arc::new(Mutex::new(SessionEntry { session, journal })),
    );
    format!(
        "{{\"ok\":true,\"created\":{},\"journal\":{}}}",
        json_str(&name),
        json_str(&journal_path)
    )
}

fn execute_on_session(cmd: &Command, session: &mut Session) -> String {
    match cmd {
        Command::Advance { secs, .. } => {
            session.advance(*secs);
            format!("{{\"ok\":true,\"clock_ns\":{}}}", session.clock().0)
        }
        Command::Fetch { lat, lon, .. } => {
            let result = session.fetch(*lat, *lon);
            let (source, hops) = match result.outcome.as_ref().map(|o| o.source) {
                Some(RetrievalSource::Overhead) => ("overhead", 0),
                Some(RetrievalSource::Isl { hops }) => ("isl", hops),
                Some(RetrievalSource::Ground) => ("ground", 0),
                None => ("none", 0),
            };
            let rtt_ms = result.outcome.as_ref().map_or(0.0, |o| o.rtt.ms());
            format!(
                "{{\"ok\":true,\"fetch\":{{\"source\":\"{}\",\"hops\":{},\"rtt_ms\":{},\"attempts\":{},\"degraded\":{}}}}}",
                source,
                hops,
                crate::protocol::json_f64(rtt_ms),
                result.attempts,
                result.degraded.is_some()
            )
        }
        Command::Traffic {
            requests,
            epochs,
            epoch_step_secs,
            ..
        } => {
            let report = session.traffic(*requests, *epochs, *epoch_step_secs);
            format!(
                "{{\"ok\":true,\"burst\":{{\"requests\":{},\"hit_ratio\":{},\"origin_fetches\":{},\"dead_zones\":{},\"clock_ns\":{}}}}}",
                report.requests,
                crate::protocol::json_f64(report.hit_ratio()),
                report.origin_fetches,
                report.dead_zones,
                session.clock().0
            )
        }
        Command::Fault {
            sats,
            from_secs,
            until_secs,
            gsl,
            ..
        } => {
            session.fault(sats, *from_secs, *until_secs, *gsl);
            format!("{{\"ok\":true,\"clock_ns\":{}}}", session.clock().0)
        }
        Command::Duty { fraction, .. } => {
            session.set_duty(*fraction);
            format!("{{\"ok\":true,\"clock_ns\":{}}}", session.clock().0)
        }
        Command::Cache {
            bytes_per_sat,
            policy,
            ..
        } => {
            session.set_cache_bytes(*bytes_per_sat);
            if let Some(name) = policy {
                // Parse cannot fail: the protocol layer already normalized
                // the name to a canonical PolicyKind spelling.
                if let Some(kind) = PolicyKind::parse(name) {
                    session.set_cache_policy(kind);
                }
            }
            format!("{{\"ok\":true,\"clock_ns\":{}}}", session.clock().0)
        }
        Command::Place { spec, .. } => {
            // Parse cannot fail: the protocol layer already normalized the
            // spec to a canonical PlacementSpec name (or None for "off").
            session.set_placement(spec.as_deref().and_then(PlacementSpec::parse));
            format!("{{\"ok\":true,\"clock_ns\":{}}}", session.clock().0)
        }
        Command::Report { .. } => {
            format!("{{\"ok\":true,\"report\":{}}}", session.report_json())
        }
        other => err_response(&format!("unhandled command {other:?}")),
    }
}
