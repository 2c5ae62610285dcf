//! In-process daemon integration tests: scripted client sessions over
//! real TCP sockets, and the headline determinism contract — replaying a
//! session journal reproduces the live `report` response byte-for-byte
//! at every worker thread count.

use spacecdn_serve::server::{Daemon, ServeConfig, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread::JoinHandle;

/// Serializes tests: they share the process-wide engine thread override
/// and each runs its own daemon.
static LOCK: Mutex<()> = Mutex::new(());

struct TestDaemon {
    addr: SocketAddr,
    journal_dir: PathBuf,
    handle: JoinHandle<std::io::Result<()>>,
}

fn start_daemon(tag: &str) -> TestDaemon {
    let journal_dir =
        std::env::temp_dir().join(format!("spacecdn-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let cfg = ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        journal_dir: journal_dir.clone(),
        port_file: None,
    };
    let daemon = Daemon::bind(&cfg).expect("bind");
    let addr = daemon.local_addr().expect("local_addr");
    let handle = std::thread::spawn(move || daemon.run());
    TestDaemon {
        addr,
        journal_dir,
        handle,
    }
}

impl TestDaemon {
    fn client(&self) -> Client {
        Client::connect(self.addr)
    }

    fn journal(&self, session: &str) -> PathBuf {
        self.journal_dir.join(format!("{session}.jsonl"))
    }

    /// Ask the daemon to shut down and wait for a clean exit.
    fn shutdown(self) {
        let mut c = self.client();
        let resp = c.send("{\"op\":\"shutdown\"}");
        assert!(resp.contains("\"shutting_down\":true"), "{resp}");
        drop(c);
        self.handle.join().expect("join").expect("daemon exits Ok");
        let _ = std::fs::remove_dir_all(&self.journal_dir);
    }
}

struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream),
        }
    }

    /// One request line out, one response line back.
    fn send(&mut self, line: &str) -> String {
        self.write_raw(format!("{line}\n").as_bytes());
        self.response()
    }

    /// Put raw bytes on the wire, flushed as one segment.
    fn write_raw(&mut self, bytes: &[u8]) {
        let stream = self.reader.get_mut();
        stream.write_all(bytes).expect("write");
        stream.flush().expect("flush");
    }

    /// The next response line.
    fn response(&mut self) -> String {
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        assert!(
            response.ends_with('\n'),
            "server closed mid-response: {response:?}"
        );
        response.trim_end().to_string()
    }

    fn ok(&mut self, line: &str) -> String {
        let resp = self.send(line);
        assert!(resp.starts_with("{\"ok\":true"), "command {line} -> {resp}");
        resp
    }
}

/// The scripted session the replay contract is pinned against: create,
/// advance, fetches, bursts, fault injection, duty cycling, cache resize.
fn run_scripted_session(c: &mut Client, name: &str) -> String {
    c.ok(&format!(
        "{{\"op\":\"create\",\"session\":\"{name}\",\"seed\":77,\"constellation\":\"test\",\
         \"streams\":2,\"catalog\":400,\"cache_mb\":4,\"copies_per_plane\":1}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"advance\",\"session\":\"{name}\",\"secs\":30}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"fetch\",\"session\":\"{name}\",\"lat\":-25.97,\"lon\":32.58}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"traffic\",\"session\":\"{name}\",\"requests\":2000,\"epochs\":2,\"epoch_step_secs\":60}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"fault\",\"session\":\"{name}\",\"sats\":[3,4,5],\"from_secs\":200,\"gsl\":false}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"duty\",\"session\":\"{name}\",\"fraction\":0.7}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"traffic\",\"session\":\"{name}\",\"requests\":2000,\"epochs\":2,\"epoch_step_secs\":60}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"cache\",\"session\":\"{name}\",\"bytes_per_sat\":2097152}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"fetch\",\"session\":\"{name}\",\"lat\":50.11,\"lon\":8.68}}"
    ));
    c.ok(&format!("{{\"op\":\"report\",\"session\":\"{name}\"}}"))
}

#[test]
fn scripted_session_replays_byte_identically_at_every_thread_count() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("replay");
    let mut c = daemon.client();
    let live_report = run_scripted_session(&mut c, "demo");
    let journal = daemon.journal("demo");
    assert!(journal.is_file(), "journal written at {journal:?}");

    // The ISSUE.md acceptance bar: byte-identical replay at 1/2/5/8
    // worker threads, regardless of what the live daemon used.
    for threads in [1usize, 2, 5, 8] {
        spacecdn_engine::set_thread_override(Some(threads));
        let replayed = spacecdn_serve::journal::replay(&journal)
            .unwrap_or_else(|e| panic!("replay at {threads} threads: {e}"));
        assert_eq!(
            replayed, live_report,
            "replay diverged from live report at {threads} threads"
        );
    }
    spacecdn_engine::set_thread_override(None);
    daemon.shutdown();
}

#[test]
fn live_cache_policy_mutation_journals_and_replays_byte_identically() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("policy");
    let mut c = daemon.client();
    c.ok(
        "{\"op\":\"create\",\"session\":\"pol\",\"seed\":9,\"constellation\":\"test\",\
         \"streams\":2,\"catalog\":400,\"cache_mb\":1,\"copies_per_plane\":1}",
    );
    c.ok("{\"op\":\"traffic\",\"session\":\"pol\",\"requests\":2000,\"epochs\":2,\"epoch_step_secs\":60}");
    // Swap the eviction policy mid-session (alias spelling on the wire;
    // the journal must store the canonical name) and burst again so the
    // new policy shapes the report.
    c.ok("{\"op\":\"cache\",\"session\":\"pol\",\"bytes_per_sat\":1048576,\"policy\":\"s3-fifo\"}");
    c.ok("{\"op\":\"traffic\",\"session\":\"pol\",\"requests\":2000,\"epochs\":2,\"epoch_step_secs\":60}");
    c.ok("{\"op\":\"cache\",\"session\":\"pol\",\"bytes_per_sat\":1048576,\"policy\":\"tinylfu\"}");
    c.ok("{\"op\":\"traffic\",\"session\":\"pol\",\"requests\":2000,\"epochs\":2,\"epoch_step_secs\":60}");
    let live_report = c.ok("{\"op\":\"report\",\"session\":\"pol\"}");

    let journal = daemon.journal("pol");
    let journal_text = std::fs::read_to_string(&journal).expect("journal readable");
    assert!(
        journal_text.contains("\"policy\":\"s3fifo\"")
            && journal_text.contains("\"policy\":\"tinylfu\""),
        "journal stores canonical policy names: {journal_text}"
    );

    for threads in [1usize, 2, 5, 8] {
        spacecdn_engine::set_thread_override(Some(threads));
        let replayed = spacecdn_serve::journal::replay(&journal)
            .unwrap_or_else(|e| panic!("replay at {threads} threads: {e}"));
        assert_eq!(
            replayed, live_report,
            "policy-mutation replay diverged from live report at {threads} threads"
        );
    }
    spacecdn_engine::set_thread_override(None);
    daemon.shutdown();
}

#[test]
fn concurrent_clients_on_distinct_sessions_stay_isolated() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("concurrent");

    // Two clients drive two sessions concurrently; determinism per
    // session must be unaffected by interleaving on the daemon.
    let addr = daemon.addr;
    let workers: Vec<_> = ["alpha", "beta"]
        .into_iter()
        .map(|name| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                run_scripted_session(&mut c, name)
            })
        })
        .collect();
    let reports: Vec<String> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // Same script, same seed => identical traffic/fetch tallies; only the
    // session name differs.
    assert_eq!(
        reports[0].replace("\"session\":\"alpha\"", "\"session\":\"beta\""),
        reports[1],
        "interleaved sessions interfered with each other"
    );

    // And each journal replays to its own live report.
    for (name, live) in ["alpha", "beta"].into_iter().zip(&reports) {
        let replayed = spacecdn_serve::journal::replay(&daemon.journal(name)).unwrap();
        assert_eq!(&replayed, live);
    }

    let mut c = daemon.client();
    let list = c.ok("{\"op\":\"list\"}");
    assert!(list.contains("\"session\":\"alpha\"") && list.contains("\"session\":\"beta\""));
    daemon.shutdown();
}

#[test]
fn protocol_errors_do_not_wedge_the_connection() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("errors");
    let mut c = daemon.client();

    assert!(c.send("not json at all").starts_with("{\"ok\":false"));
    assert!(c
        .send("{\"op\":\"advance\",\"session\":\"ghost\",\"secs\":5}")
        .starts_with("{\"ok\":false"));
    assert!(c
        .send("{\"op\":\"create\",\"session\":\"bad name!\"}")
        .starts_with("{\"ok\":false"));

    // Connection still healthy afterwards.
    c.ok("{\"op\":\"ping\"}");
    c.ok("{\"op\":\"create\",\"session\":\"ok1\",\"catalog\":200,\"streams\":2}");
    assert!(c
        .send("{\"op\":\"create\",\"session\":\"ok1\"}")
        .contains("already exists"));

    // Metrics come back as an embedded spacecdn-metrics-v1 document.
    let metrics = c.ok("{\"op\":\"metrics\"}");
    assert!(metrics.contains("spacecdn-metrics-v1"));

    // Dropping frees the name for reuse.
    c.ok("{\"op\":\"drop\",\"session\":\"ok1\"}");
    c.ok("{\"op\":\"create\",\"session\":\"ok1\",\"catalog\":200,\"streams\":2}");
    daemon.shutdown();
}

#[test]
fn request_lines_split_across_read_timeouts_are_reassembled() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("split");
    // The gap outlasts the server's 50 ms read poll several times over.
    let gap = std::time::Duration::from_millis(200);
    let mut c = daemon.client();

    c.write_raw(b"{\"op\":\"pi");
    std::thread::sleep(gap);
    c.write_raw(b"ng\"}\n");
    assert_eq!(c.response(), "{\"ok\":true,\"pong\":true}");

    // A two-byte character cut between its bytes decodes once whole: the
    // error echoes the session name intact.
    let line = "{\"op\":\"drop\",\"session\":\"caf\u{e9}\"}\n".as_bytes();
    let cut = line.iter().position(|&b| b == 0xC3).expect("lead byte") + 1;
    c.write_raw(&line[..cut]);
    std::thread::sleep(gap);
    c.write_raw(&line[cut..]);
    let resp = c.response();
    assert!(
        resp.starts_with("{\"ok\":false") && resp.contains("no session \\\"caf\u{e9}\\\""),
        "{resp}"
    );
    c.ok("{\"op\":\"ping\"}");

    // One byte past the cap: an error response, then the server closes.
    let mut big = daemon.client();
    big.write_raw(&vec![b'x'; MAX_LINE_BYTES + 1]);
    let resp = big.response();
    assert!(
        resp.starts_with("{\"ok\":false") && resp.contains("exceeds"),
        "{resp}"
    );
    let mut rest = String::new();
    assert_eq!(big.reader.read_line(&mut rest).expect("read"), 0, "{rest}");

    // A line exactly at the cap is still parsed (and rejected as JSON).
    let mut edge = daemon.client();
    let mut at_cap = vec![b' '; MAX_LINE_BYTES];
    at_cap[0] = b'x';
    at_cap.push(b'\n');
    edge.write_raw(&at_cap);
    assert!(edge.response().contains("bad json"));
    edge.ok("{\"op\":\"ping\"}");
    daemon.shutdown();
}
