//! `serve-small`: an in-process `spacecdn-serve` daemon on loopback,
//! driven as a closed loop by plain TCP clients, each owning one session
//! on the 64-satellite test shell and sending small commands.
//!
//! Each request line goes out in one write; the client sets no socket
//! options, so whatever the server's own framing costs shows up in the
//! command latency. The traced run replays every command in process
//! through `Command::parse` → `Journal::record` → `Session`, which the
//! socket round trip is compared against.

use crate::probes;
use crate::stats::{self, json_field, Metrics};
use crate::trace::Tracer;
use crate::{Outcome, Registry};
use spacecdn_core::delta_stats;
use spacecdn_core::placement::PlacementSpec;
use spacecdn_core::traffic::{PolicyKind, TrafficSource};
use spacecdn_geo::{DetRng, Geodetic, Latency, SimTime};
use spacecdn_serve::protocol::Command;
use spacecdn_serve::server::{Daemon, ServeConfig};
use spacecdn_serve::{replay, Journal, Session};
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// Satellites in the test shell (8 planes x 8).
const TEST_SATS: u64 = 64;
/// Session seed (copy layout and burst seeds). Fixed, so a benchmark
/// seed varies the command mix and not the constellation's copy layout.
const SESSION_SEED: u64 = 7;
/// Set-ups per run; `setup_s` is their median. The daemon's 50 ms accept
/// poll makes one set-up read either ≈0.05 or ≈0.10 s (usually about one
/// in five the former), so the median needs enough of them not to flip.
const SETUPS: usize = 15;
/// Session catalog, shards and cache size (also the probe parameters).
const CATALOG: usize = 2_000;
const STREAMS: usize = 2;
const CACHE_MB: u64 = 64;
/// Commands per client over which the simulated metrics are taken: a
/// fixed prefix of the seeded sequence, so they do not depend on how many
/// commands the host gets through.
const SIM_PREFIX: usize = 400;
/// The test sessions' fixed source grid (see `Session`): (lat, lon,
/// weight). Single fetches come from the same cities as burst traffic.
const GRID: [(f64, f64, u32); 6] = [
    (-25.97, 32.58, 2),
    (50.11, 8.68, 8),
    (40.71, -74.01, 9),
    (1.29, 103.85, 6),
    (-33.87, 151.21, 5),
    (19.08, 72.88, 12),
];

/// One plain line-protocol client.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Send `line` in a single write and read the whole response line.
    fn call(&mut self, line: &str) -> io::Result<String> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.writer.write_all(buf.as_bytes())?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed",
            ));
        }
        resp.truncate(resp.trim_end().len());
        Ok(resp)
    }
}

fn is_ok(resp: &str) -> bool {
    resp.starts_with("{\"ok\":true")
}

/// A running daemon with one connected client and session per lane.
struct Served {
    daemon: JoinHandle<io::Result<()>>,
    clients: Vec<Client>,
    sessions: Vec<String>,
    creates: Vec<String>,
    journal_dir: PathBuf,
}

impl Served {
    fn start(dir: &Path, lanes: usize, tr: &mut Tracer) -> io::Result<Served> {
        let daemon = Daemon::bind(&ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            journal_dir: dir.to_path_buf(),
            port_file: None,
        })?;
        let addr = daemon.local_addr()?;
        let handle = std::thread::spawn(move || daemon.run());
        let mut served = Served {
            daemon: handle,
            clients: Vec::new(),
            sessions: Vec::new(),
            creates: Vec::new(),
            journal_dir: dir.to_path_buf(),
        };
        for lane in 0..lanes {
            let name = format!("c{lane}");
            let create = format!(
                "{{\"op\":\"create\",\"session\":\"{name}\",\"seed\":{},\"constellation\":\"test\",\
                 \"streams\":{STREAMS},\"catalog\":{CATALOG},\"cache_mb\":{CACHE_MB},\"copies_per_plane\":1}}",
                SESSION_SEED + lane as u64
            );
            let mut client = Client::connect(addr)?;
            let resp = tr.span("serve.socket", lane as u64, |_| client.call(&create))?;
            if !is_ok(&resp) {
                return Err(io::Error::other(format!("create {name}: {resp}")));
            }
            served.clients.push(client);
            served.sessions.push(name);
            served.creates.push(create);
        }
        Ok(served)
    }

    fn shutdown(mut self) -> io::Result<()> {
        let resp = self.clients[0].call("{\"op\":\"shutdown\"}")?;
        drop(std::mem::take(&mut self.clients));
        let run = self
            .daemon
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?;
        run?;
        if is_ok(&resp) {
            Ok(())
        } else {
            Err(io::Error::other(format!("shutdown: {resp}")))
        }
    }
}

/// The seeded command mix of one client: traffic bursts of 1-100
/// requests, single fetches, pings, reports, and occasional duty, fault,
/// cache and placement mutations. The first command turns placement on,
/// and later mutations keep every setting within a band, so the
/// simulated metrics do not hinge on which settings a seed happens to
/// leave in place. The weights are an assumption, not recorded client
/// traffic; `perfbench/README.md` says how they were chosen.
struct Mix {
    rng: DetRng,
    session: String,
    clock_s: u64,
    placed: bool,
    fetches: usize,
}

impl Mix {
    fn new(seed: u64, session: &str) -> Mix {
        Mix {
            rng: DetRng::new(seed, &format!("perfbench/serve/{session}")),
            session: session.to_string(),
            clock_s: 0,
            placed: false,
            fetches: 0,
        }
    }

    /// The next request line and the simulated requests it asks for.
    fn next(&mut self) -> (String, u64) {
        let s = &self.session;
        if !self.placed {
            self.placed = true;
            return (place_line(s, PLACEMENTS[0]), 0);
        }
        let r = &mut self.rng;
        match r.index(1000) {
            0..=449 => {
                let n = 1 + r.index(100) as u64;
                let line = format!(
                    "{{\"op\":\"traffic\",\"session\":\"{s}\",\"requests\":{n},\"epochs\":{},\"epoch_step_secs\":{}}}",
                    1 + r.index(2),
                    30 + r.index(91)
                );
                (line, n)
            }
            450..=699 => {
                // Cities in turn, so every seed fetches the same mix.
                let (lat, lon, _) = GRID[self.fetches % GRID.len()];
                self.fetches += 1;
                let line =
                    format!("{{\"op\":\"fetch\",\"session\":\"{s}\",\"lat\":{lat},\"lon\":{lon}}}");
                (line, 1)
            }
            700..=849 => ("{\"op\":\"ping\"}".to_string(), 0),
            850..=949 => (format!("{{\"op\":\"report\",\"session\":\"{s}\"}}"), 0),
            _ => {
                let line = match r.index(4) {
                    0 => format!(
                        "{{\"op\":\"duty\",\"session\":\"{s}\",\"fraction\":{}}}",
                        [0.6, 0.8, 1.0][r.index(3)]
                    ),
                    1 => {
                        let a = r.index(TEST_SATS as usize);
                        let b = (a + 1 + r.index(TEST_SATS as usize - 1)) % TEST_SATS as usize;
                        let from = self.clock_s + r.index(300) as u64;
                        let until = from + 60 + r.index(540) as u64;
                        format!(
                            "{{\"op\":\"fault\",\"session\":\"{s}\",\"sats\":[{a},{b}],\"from_secs\":{from},\"until_secs\":{until}}}"
                        )
                    }
                    2 => format!(
                        "{{\"op\":\"cache\",\"session\":\"{s}\",\"bytes_per_sat\":{},\"policy\":\"{}\"}}",
                        (32 + r.index(97) as u64) << 20,
                        ["lru", "sieve", "s3fifo", "tinylfu"][r.index(4)]
                    ),
                    _ => place_line(s, PLACEMENTS[r.index(PLACEMENTS.len())]),
                };
                (line, 0)
            }
        }
    }

    /// Track the session clock from a response, for fault windows.
    fn observe(&mut self, resp: &str) {
        if let Some(ns) = json_field(resp, "clock_ns") {
            self.clock_s = (ns / 1e9) as u64;
        }
    }
}

/// Placement specs the mix switches between.
const PLACEMENTS: [&str; 2] = ["perplane-1:budget-32:coop", "perplane-1:budget-48:coop"];

fn place_line(session: &str, spec: &str) -> String {
    format!("{{\"op\":\"place\",\"session\":\"{session}\",\"spec\":\"{spec}\"}}")
}

/// One command as sent.
struct Sent {
    line: String,
    ms: f64,
    ok: bool,
    sim_requests: u64,
    traced: bool,
    /// Served RTT of a `fetch`.
    fetch_rtt_ms: Option<f64>,
    /// Space-served requests of a `traffic` burst.
    burst_hits: Option<f64>,
}

/// Closed loop on one connection until `until`.
fn drive(
    client: &mut Client,
    mix: &mut Mix,
    until: Instant,
    tr: &mut Tracer,
    log: &mut Vec<Sent>,
) -> io::Result<()> {
    while Instant::now() < until {
        let (line, sim_requests) = mix.next();
        let group = log.len() as u64;
        let t0 = Instant::now();
        let resp = tr.span("serve.socket", group, |_| client.call(&line))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        mix.observe(&resp);
        let ok = is_ok(&resp);
        if !ok {
            println!("FAILED {line} -> {resp}");
        }
        let fetch_rtt_ms = if line.starts_with("{\"op\":\"fetch\"") {
            json_field(&resp, "rtt_ms")
        } else {
            None
        };
        let burst_hits = json_field(&resp, "hit_ratio").map(|h| h * sim_requests as f64);
        log.push(Sent {
            line,
            ms,
            ok,
            sim_requests,
            traced: tr.enabled(),
            fetch_rtt_ms,
            burst_hits,
        });
    }
    Ok(())
}

/// Run every lane's closed loop concurrently for `seconds`.
fn window(
    served: &mut Served,
    mixes: &mut [Mix],
    logs: &mut [Vec<Sent>],
    seconds: f64,
    tr: &mut Tracer,
) -> io::Result<(f64, u64, u64)> {
    let start = Instant::now();
    let from = tr.now_ns();
    let until = start + std::time::Duration::from_secs_f64(seconds);
    let lanes: Vec<Tracer> = (0..mixes.len()).map(|l| tr.lane(l as u32)).collect();
    let results: Vec<io::Result<Tracer>> = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .zip(mixes.iter_mut())
            .zip(logs.iter_mut())
            .zip(lanes)
            .map(|(((client, mix), log), mut lane)| {
                scope.spawn(move || drive(client, mix, until, &mut lane, log).map(|()| lane))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client panicked")))
            })
            .collect()
    });
    for lane in results {
        tr.absorb(lane?);
    }
    Ok((start.elapsed().as_secs_f64(), from, tr.now_ns()))
}

/// Live report vs journal replay, per session. Returns the live reports.
fn check_replay(served: &mut Served, failures: &mut Vec<String>) -> io::Result<Vec<String>> {
    let mut reports = Vec::new();
    for (client, name) in served.clients.iter_mut().zip(&served.sessions) {
        let live = client.call(&format!("{{\"op\":\"report\",\"session\":\"{name}\"}}"))?;
        let path = served.journal_dir.join(format!("{name}.jsonl"));
        match replay(&path) {
            Ok(replayed) if replayed == live => {}
            Ok(replayed) => failures.push(format!(
                "session {name}: replay differs from live report\n  live   {live}\n  replay {replayed}"
            )),
            Err(e) => failures.push(format!("session {name}: replay failed: {e}")),
        }
        reports.push(live);
    }
    Ok(reports)
}

fn lanes() -> usize {
    spacecdn_engine::thread_count().clamp(1, 2)
}

fn journal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Set up `SETUPS` times (each a fresh daemon) and keep the last.
fn setups(tmp: &Path, tr: &mut Tracer) -> io::Result<(Served, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for r in 0..SETUPS {
        if let Some(prev) = last.take() {
            Served::shutdown(prev)?;
        }
        let t0 = Instant::now();
        last = Some(Served::start(&tmp.join(format!("setup{r}")), lanes(), tr)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

fn new_mixes(seed: u64, served: &Served) -> Vec<Mix> {
    served.sessions.iter().map(|s| Mix::new(seed, s)).collect()
}

/// The untraced run: end-to-end metrics.
pub fn measure(seed: u64, seconds: f64, tmp: &Path) -> io::Result<Outcome> {
    let mut off = Tracer::new(false);
    let (mut served, setup_s) = setups(tmp, &mut off)?;
    println!("set-up: {} sessions; {setup_s:?} s", served.sessions.len());
    let mut mixes = new_mixes(seed, &served);
    let mut logs: Vec<Vec<Sent>> = mixes.iter().map(|_| Vec::new()).collect();
    let registry = Registry::read();
    let (window_s, _, _) = window(&mut served, &mut mixes, &mut logs, seconds, &mut off)?;
    Registry::read().print_delta(&registry);

    let mut failures = Vec::new();
    let reports = check_replay(&mut served, &mut failures)?;
    served.shutdown()?;

    let sent: Vec<&Sent> = logs.iter().flatten().collect();
    failures.extend(
        sent.iter()
            .filter(|s| !s.ok)
            .map(|s| format!("not ok: {}", s.line)),
    );
    let ms: Vec<f64> = sent.iter().map(|s| s.ms).collect();
    let sim_requests: u64 = sent.iter().filter(|s| s.ok).map(|s| s.sim_requests).sum();
    let (tail_ms, tail_pct, beyond) = stats::tail(&ms);
    println!(
        "commands: {} over {window_s:.2} s · p50 {:.3} ms · tail p{tail_pct:.2} {tail_ms:.3} ms ({beyond} beyond)",
        ms.len(),
        stats::median(&ms)
    );
    print_per_op(&sent);
    let prefix: Vec<&Sent> = logs
        .iter()
        .flat_map(|l| l.iter().take(SIM_PREFIX))
        .collect();
    if logs.iter().any(|l| l.len() < SIM_PREFIX) {
        println!("note: a client sent fewer than {SIM_PREFIX} commands; simulated metrics cover what it sent");
    }
    let rtts: Vec<f64> = prefix.iter().filter_map(|s| s.fetch_rtt_ms).collect();
    let bursts = prefix.iter().filter(|s| s.burst_hits.is_some());
    let burst_requests: u64 = bursts.clone().map(|s| s.sim_requests).sum();
    let burst_hits: f64 = bursts.filter_map(|s| s.burst_hits).sum();

    let mut m = Metrics::default();
    m.put("sim_req_per_s", sim_requests as f64 / window_s, "1/s");
    m.put("setup_s", stats::median(&setup_s), "s");
    m.put("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    m.put("cmd_p50_ms", stats::median(&ms), "ms");
    m.put("cmd_tail_ms", tail_ms, "ms");
    m.put("cmds_per_s", ms.len() as f64 / window_s, "1/s");
    m.put("sim_hit_ratio", burst_hits / burst_requests as f64, "ratio");
    m.put("sim_fetch_p50_ms", stats::quantile(&rtts, 0.5), "ms");
    m.put("sim_fetch_p90_ms", stats::quantile(&rtts, 0.9), "ms");
    Ok(Outcome {
        attempted: ms.len() as u64 + reports.len() as u64,
        failures,
        metrics: m,
    })
}

/// The `op` of a request line the mix generated (`{"op":"NAME",...}`).
fn op_of(line: &str) -> &str {
    line.strip_prefix("{\"op\":\"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("?")
}

/// Print each op's share of the commands and its median latency, so a
/// reader can see whether `cmd_p50_ms` and `cmds_per_s` hinge on the
/// mix's weights.
fn print_per_op(sent: &[&Sent]) {
    let mut by_op: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in sent {
        by_op.entry(op_of(&s.line)).or_default().push(s.ms);
    }
    println!("per op (count, share, p50 ms):");
    for (op, ms) in &by_op {
        println!(
            "  {op:<8} {:>7} {:>6.1} % {:>10.3}",
            ms.len(),
            100.0 * ms.len() as f64 / sent.len().max(1) as f64,
            stats::median(ms)
        );
    }
}

/// Per-command in-process costs, nanoseconds.
#[derive(Default, Clone, Copy)]
struct Cost {
    parse: u64,
    journal: u64,
    session: u64,
}

/// Execute a parsed command on a session exactly as the daemon does,
/// minus response rendering. Returns the traffic requests it simulated.
fn apply(session: &mut Session, cmd: &Command, tr: &mut Tracer, group: u64) -> u64 {
    match cmd {
        Command::Advance { secs, .. } => session.advance(*secs),
        Command::Fetch { lat, lon, .. } => {
            black_box(session.fetch(*lat, *lon));
        }
        Command::Traffic {
            requests,
            epochs,
            epoch_step_secs,
            ..
        } => {
            tr.span("core.traffic", group, |_| {
                black_box(session.traffic(*requests, *epochs, *epoch_step_secs))
            });
            return *requests;
        }
        Command::Fault {
            sats,
            from_secs,
            until_secs,
            gsl,
            ..
        } => session.fault(sats, *from_secs, *until_secs, *gsl),
        Command::Duty { fraction, .. } => session.set_duty(*fraction),
        Command::Cache {
            bytes_per_sat,
            policy,
            ..
        } => {
            session.set_cache_bytes(*bytes_per_sat);
            if let Some(kind) = policy.as_deref().and_then(PolicyKind::parse) {
                session.set_cache_policy(kind);
            }
        }
        Command::Place { spec, .. } => {
            session.set_placement(spec.as_deref().and_then(PlacementSpec::parse))
        }
        Command::Report { .. } => {
            black_box(session.report_json());
        }
        _ => {}
    }
    0
}

/// Totals of the in-process replay.
#[derive(Default)]
struct InProcess {
    costs: Vec<Vec<Cost>>,
    traffic_requests: u64,
}

/// Replay every sent command in process: parse (+ canonical encoding),
/// journal write for mutating commands, session execution.
fn replay_in_process(
    creates: &[String],
    logs: &[Vec<Sent>],
    live: &[String],
    dir: &Path,
    tr: &mut Tracer,
    failures: &mut Vec<String>,
) -> io::Result<InProcess> {
    let mut out = InProcess::default();
    for (lane, (log, create)) in logs.iter().zip(creates).enumerate() {
        let Ok(Command::Create(args)) = Command::parse(create) else {
            unreachable!("the benchmark's create line parses");
        };
        let name = args.session.clone();
        let mut session = tr
            .span("serve.session", u64::MAX, |_| Session::create(args.clone()))
            .map_err(io::Error::other)?;
        let mut journal = Journal::create(dir, &name)?;
        journal.record(0, &Command::Create(args))?;
        let mut costs = Vec::with_capacity(log.len());
        for (i, sent) in log.iter().enumerate() {
            let group = i as u64;
            let mut c = Cost::default();
            let t0 = Instant::now();
            let cmd = tr.span("serve.parse", group, |_| {
                let cmd = Command::parse(&sent.line);
                if let Ok(cmd) = &cmd {
                    black_box(cmd.canonical());
                }
                cmd
            });
            c.parse = t0.elapsed().as_nanos() as u64;
            let cmd = cmd.map_err(io::Error::other)?;
            if cmd.is_mutating() {
                let t0 = Instant::now();
                let clock = session.clock().0;
                tr.span("serve.journal", group, |_| journal.record(clock, &cmd))?;
                c.journal = t0.elapsed().as_nanos() as u64;
            }
            let t0 = Instant::now();
            out.traffic_requests += tr.span("serve.session", group, |tr| {
                apply(&mut session, &cmd, tr, group)
            });
            c.session = t0.elapsed().as_nanos() as u64;
            costs.push(c);
        }
        let replayed = format!("{{\"ok\":true,\"report\":{}}}", session.report_json());
        if replayed != live[lane] {
            failures.push(format!(
                "session {name}: in-process replay differs from live report"
            ));
        }
        out.costs.push(costs);
    }
    Ok(out)
}

/// The traced run: an untraced and a traced socket window of
/// `seconds / 2` each, then the in-process replay and layer probes.
pub fn trace(seed: u64, seconds: f64, tmp: &Path, trace_out: &Path) -> io::Result<Outcome> {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut failures = Vec::new();
    let mut windows = Vec::new();

    let from = tr.now_ns();
    let mut served = tr.span("bench.setup", 0, |tr| {
        Served::start(&tmp.join("traced"), lanes(), tr)
    })?;
    windows.push((from, tr.now_ns()));
    let mut mixes = new_mixes(seed, &served);
    let mut logs: Vec<Vec<Sent>> = mixes.iter().map(|_| Vec::new()).collect();
    window(&mut served, &mut mixes, &mut logs, seconds / 2.0, &mut off)?;
    let (_, a, b) = window(&mut served, &mut mixes, &mut logs, seconds / 2.0, &mut tr)?;
    windows.push((a, b));
    let live = check_replay(&mut served, &mut failures)?;
    let bytes = journal_bytes(&served.journal_dir);
    let creates = served.creates.clone();
    served.shutdown()?;

    let reg0 = Registry::read();
    let delta0 = delta_stats();
    let from = tr.now_ns();
    let inproc = tr.span("bench.replay", 0, |tr| {
        replay_in_process(
            &creates,
            &logs,
            &live,
            &tmp.join("inproc"),
            tr,
            &mut failures,
        )
    })?;
    windows.push((from, tr.now_ns()));
    let reg1 = Registry::read();
    let delta1 = delta_stats();

    let mut rows = std::collections::BTreeMap::new();
    for &(a, b) in &windows {
        for (k, v) in tr.self_times(a, b) {
            *rows.entry(k).or_insert(0.0) += v;
        }
    }
    let wall: f64 = windows.iter().map(|&(a, b)| (b - a) as f64 / 1e9).sum();
    let ms = |traced: bool| -> Vec<f64> {
        logs.iter()
            .flatten()
            .filter(|s| s.traced == traced)
            .map(|s| s.ms)
            .collect()
    };
    let overhead = stats::median(&ms(true)) / stats::median(&ms(false)) - 1.0;

    // Per-command means over the traced window's commands.
    let (mut n, mut n_journal) = (0u64, 0u64);
    let (mut parse, mut journal, mut session, mut socket) = (0f64, 0f64, 0f64, 0f64);
    for (log, costs) in logs.iter().zip(&inproc.costs) {
        for (sent, c) in log.iter().zip(costs).filter(|(s, _)| s.traced) {
            n += 1;
            n_journal += u64::from(c.journal > 0);
            parse += c.parse as f64 / 1e3;
            journal += c.journal as f64 / 1e3;
            session += c.session as f64 / 1e3;
            socket += sent.ms * 1e3 - (c.parse + c.journal + c.session) as f64 / 1e3;
        }
    }
    let n = n.max(1) as f64;
    let run_s: f64 = tr.named("core.traffic").map(|s| s.secs()).sum();
    let mreq = inproc.traffic_requests as f64 / 1e6;
    let threads = spacecdn_engine::thread_count();
    let sources: Vec<TrafficSource> = GRID
        .iter()
        .map(|&(_, _, weight)| TrafficSource {
            position: Geodetic::ground(0.0, 0.0),
            weight,
            fallback_rtt: vec![Latency::from_ms(200.0)],
        })
        .collect();
    let arrival_ns = probes::arrival_ns(
        seed,
        STREAMS,
        CATALOG,
        0.9,
        &sources,
        SimTime::from_secs(157),
        200_000,
    );
    let (get_ns, insert_ns) = probes::fleet_ns(&probes::FleetProbe {
        policy: PolicyKind::LruTtl,
        sats: TEST_SATS as usize,
        hot_sats: GRID.len() * 2,
        bytes_per_sat: (CACHE_MB << 20) / STREAMS as u64,
        seed,
        catalog: CATALOG,
        alpha: 0.9,
        streams: STREAMS,
    });

    let per_mreq = |name: &str| reg1.counter_delta(&reg0, name) as f64 / mreq;
    let advance_n = reg1.hist_count("core.routing.delta.advance_ns")
        - reg0.hist_count("core.routing.delta.advance_ns");
    let advance_ns = reg1.hist_sum("core.routing.delta.advance_ns")
        - reg0.hist_sum("core.routing.delta.advance_ns");
    let mut m = Metrics::default();
    m.put_not_called("measure.traffic.sources_s", "s");
    m.put(
        "core.scenario.advance_us",
        advance_ns as f64 / 1e3 / advance_n.max(1) as f64,
        "us",
    );
    m.put(
        "lsn.delta_share",
        crate::delta_share(&delta0, &delta1),
        "ratio",
    );
    m.put(
        "engine.snapshot_pool.hit_ratio",
        reg1.pool_hit_ratio(&reg0),
        "ratio",
    );
    let bursts = tr.named("core.traffic").count().max(1) as f64;
    m.put("core.traffic.run_s", run_s / bursts, "s");
    m.put(
        "core.traffic.ns_per_req",
        run_s * 1e9 / inproc.traffic_requests.max(1) as f64,
        "ns",
    );
    m.put(
        "core.traffic.batch_reuse",
        reg1.counter_delta(&reg0, "core.traffic.batch.table_reuses") as f64
            / reg1.counter_delta(&reg0, "core.traffic.requests").max(1) as f64,
        "ratio",
    );
    m.put(
        "core.traffic.batches_formed",
        per_mreq("core.traffic.batch.formed"),
        "1/Mreq",
    );
    m.put(
        "core.traffic.invalidations",
        per_mreq("core.traffic.invalidations"),
        "1/Mreq",
    );
    m.put("core.traffic.arrival_ns", arrival_ns, "ns");
    m.put("content.fleet.get_ns", get_ns, "ns");
    m.put("content.fleet.insert_ns", insert_ns, "ns");
    m.put(
        "content.fleet.inserts",
        per_mreq("core.traffic.inserts"),
        "1/Mreq",
    );
    m.put(
        "content.fleet.evictions",
        per_mreq("core.traffic.evictions"),
        "1/Mreq",
    );
    m.put(
        "engine.busy_share",
        (reg1.hist_sum("engine.par_map.task_ns") - reg0.hist_sum("engine.par_map.task_ns")) as f64
            / 1e9
            / (run_s * threads as f64),
        "ratio",
    );
    m.put("engine.threads", threads as f64, "count");
    m.put("serve.parse_us", parse / n, "us");
    m.put("serve.journal_us", journal / n_journal.max(1) as f64, "us");
    m.put("serve.session_us", session / n, "us");
    m.put("serve.socket_us", socket / n, "us");
    m.put("serve.journal_bytes", bytes as f64, "bytes");
    crate::put_self_rows(&mut m, &rows, wall, overhead);
    crate::write_trace(trace_out, &tr);
    let sent = logs.iter().map(|l| l.len() as u64).sum::<u64>();
    failures.extend(
        logs.iter()
            .flatten()
            .filter(|s| !s.ok)
            .map(|s| format!("not ok: {}", s.line)),
    );
    Ok(Outcome {
        attempted: sent + 2 * live.len() as u64,
        failures,
        metrics: m,
    })
}
