//! Integration tests for `fisql serve`: concurrent session capacity,
//! admission backpressure, journal-backed restart replay, graceful
//! shutdown, and an accept loop that serves without polling — all
//! against a real daemon on a real socket.

use fisql_core::serve::{
    request_compact, request_shutdown, request_stats, run_load, AckMode, Connected, ServeClient,
    ServeSummary, Server, ServerHandle, SessionStore, StoreOptions,
};
use fisql_core::{LoadConfig, ServeConfig, SessionEvent};
use fisql_spider::{build_aep, AepConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A small, fast serving configuration on an ephemeral port.
fn test_config() -> ServeConfig {
    ServeConfig::default().port(0).n_examples(24)
}

/// Boots a daemon and returns its address, shutdown handle, and the
/// thread that will yield the final summary.
fn boot(config: ServeConfig) -> (String, ServerHandle, JoinHandle<ServeSummary>) {
    let server = Server::bind(config).expect("bind");
    let handle = server.handle().expect("handle");
    let addr = handle.addr().to_string();
    let thread = std::thread::spawn(move || server.serve().expect("serve loop"));
    (addr, handle, thread)
}

/// A booted daemon: its address, shutdown handle, and serve thread.
type Booted = (String, ServerHandle, JoinHandle<ServeSummary>);

/// Boots a `--repl-ack quorum` primary and a follower of it (both
/// memory-only, the follower never auto-promoting) and waits for the
/// replication link.
fn boot_quorum_pair() -> (Booted, Booted) {
    let primary = Server::bind(
        test_config()
            .repl_listen("127.0.0.1:0")
            .repl_ack(AckMode::Quorum),
    )
    .expect("bind primary");
    let repl = primary.repl_addr().expect("repl listener bound");
    let handle = primary.handle().expect("handle");
    let addr = handle.addr().to_string();
    let thread = std::thread::spawn(move || primary.serve().expect("serve loop"));
    let follower = boot(
        test_config()
            .replica_of(repl.to_string())
            .auto_promote(false),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.repl().log.followers() == 0 {
        assert!(Instant::now() < deadline, "the follower never attached");
        std::thread::sleep(Duration::from_millis(5));
    }
    ((addr, handle, thread), follower)
}

fn stop(handle: &ServerHandle, thread: JoinHandle<ServeSummary>) -> ServeSummary {
    handle.shutdown();
    thread.join().expect("server thread")
}

fn admitted(connected: Connected) -> ServeClient {
    match connected {
        Connected::Admitted(client) => client,
        Connected::Rejected { reason, .. } => panic!("rejected: {reason}"),
        Connected::ShuttingDown => panic!("daemon shutting down"),
        Connected::Fenced { message, .. } => panic!("fenced: {message}"),
    }
}

#[test]
fn thirty_two_truly_concurrent_sessions_are_sustained() {
    let config = test_config().max_sessions(32);
    let seed = config.seed;
    let n_examples = config.n_examples;
    let (addr, handle, thread) = boot(config);
    let corpus = build_aep(&AepConfig { n_examples, seed });

    // 32 clients connect and ALL hold their sessions open at once
    // (barrier), then each runs a full ask+feedback round.
    let barrier = Arc::new(Barrier::new(32));
    let clients: Vec<_> = (0..32usize)
        .map(|i| {
            let addr = addr.clone();
            let question = corpus.examples[i % corpus.examples.len()].question.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = admitted(
                    ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10))
                        .expect("connect"),
                );
                // Everyone is admitted concurrently before anyone works.
                barrier.wait();
                let turn = client.ask(&question).expect("ask");
                assert!(!turn.sql.is_empty());
                let turn = client.feedback("we are in 2024", None).expect("feedback");
                assert_eq!(turn.round, 1);
                client.bye().expect("bye")
            })
        })
        .collect();
    for client in clients {
        assert_eq!(client.join().expect("client thread"), 1);
    }

    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_opened, 32);
    assert_eq!(
        summary.admission.peak_active, 32,
        "all 32 held slots at once"
    );
    assert_eq!(summary.admission.rejected(), 0);
    assert_eq!(summary.rounds_served, 32);
    assert_eq!(summary.contained_panics, 0);
}

#[test]
fn admission_rejects_beyond_cap_without_crash_or_hang() {
    // Two slots, no queue: the third concurrent connection must be
    // rejected immediately — and the daemon must keep serving afterwards.
    let config = test_config().max_sessions(2).queue_depth(0);
    let (addr, handle, thread) = boot(config);

    let a =
        admitted(ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap());
    let b = admitted(ServeClient::connect(addr.as_str(), None).unwrap());
    match ServeClient::connect(addr.as_str(), None).unwrap() {
        Connected::Rejected { reason, active, .. } => {
            assert_eq!(active, 2);
            assert!(reason.contains("capacity"), "{reason}");
        }
        Connected::Admitted(_) => panic!("third session must be rejected"),
        Connected::ShuttingDown => panic!("daemon is not shutting down"),
        Connected::Fenced { message, .. } => panic!("fenced: {message}"),
    }

    // Free the slots; the daemon still serves new sessions.
    drop(a);
    drop(b);
    let mut retries = 0;
    let c = loop {
        match ServeClient::connect(addr.as_str(), None).unwrap() {
            Connected::Admitted(client) => break client,
            _ if retries < 100 => {
                retries += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            other => {
                let _ = other;
                panic!("slots never freed after clients dropped");
            }
        }
    };
    assert_eq!(c.bye().expect("bye"), 0);

    let summary = stop(&handle, thread);
    assert!(summary.admission.rejected_full >= 1);
    assert_eq!(summary.admission.peak_active, 2);
}

#[test]
fn scripted_load_completes_against_a_capped_daemon() {
    let config = test_config().max_sessions(8);
    let seed = config.seed;
    let n_examples = config.n_examples;
    let (addr, handle, thread) = boot(config);

    let load = LoadConfig {
        addr,
        sessions: 40,
        concurrency: 16,
        max_rounds: 2,
        corpus_seed: seed,
        n_examples,
        ..LoadConfig::default()
    };
    let report = run_load(&load).expect("load");
    // Queued admission (depth 16, 5 s budget) absorbs the overshoot:
    // every scripted session completes, none fail.
    assert_eq!(report.sessions_completed, 40);
    assert_eq!(report.sessions_failed, 0);
    assert!(report.rounds >= 40);
    assert!(report.latencies_us.len() >= 80);
    // No follower can ever read a plain daemon's replication log, so it
    // retains none.
    assert_eq!(handle.repl().log.tail(), 0, "plain daemon retained ops");

    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_opened, 40);
    assert!(summary.admission.peak_active <= 8);
}

#[test]
fn restart_replays_journaled_sessions_bit_identically() {
    let dir = std::env::temp_dir().join(format!("fisql-serve-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("sessions.fjnl");
    std::fs::remove_file(&store).ok();

    let config = test_config().store(&store);
    let seed = config.seed;
    let n_examples = config.n_examples;
    let corpus = build_aep(&AepConfig { n_examples, seed });

    // Run a session against the first daemon, then stop it WITHOUT the
    // client saying Bye — as a crash/restart would.
    let (addr, handle, thread) = boot(config.clone());
    let (session_id, before) = {
        let mut client = admitted(
            ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap(),
        );
        client.ask(&corpus.examples[1].question).unwrap();
        client.feedback("we are in 2024", None).unwrap();
        client
            .feedback("only the january rows please", None)
            .unwrap();
        let transcript = client.transcript().unwrap();
        (client.session_id, transcript)
        // client drops here: connection closes, session stays journaled.
    };
    stop(&handle, thread);

    // A fresh daemon on the same store reports the unclosed session and
    // replays it bit-identically on resume.
    let restarted = Server::bind(config).expect("rebind");
    assert_eq!(restarted.recovered_sessions(), vec![session_id]);
    let handle = restarted.handle().unwrap();
    let addr = handle.addr().to_string();
    let thread = std::thread::spawn(move || restarted.serve().expect("serve loop"));

    let mut client = admitted(
        ServeClient::connect_retry(addr.as_str(), Some(session_id), Duration::from_secs(10))
            .unwrap(),
    );
    assert_eq!(client.session_id, session_id);
    assert_eq!(client.replayed_rounds, 2);
    let after = client.transcript().unwrap();
    assert_eq!(after, before, "replayed transcript diverged");
    assert_eq!(
        serde_json::to_vec(&after).unwrap(),
        serde_json::to_vec(&before).unwrap(),
        "replayed transcript not bit-identical"
    );
    // The resumed session is live: another round works on top of it.
    let turn = client
        .feedback("count them instead of listing", None)
        .unwrap();
    assert_eq!(turn.round, 3);
    client.bye().unwrap();

    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_resumed, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn foreign_store_configuration_is_refused_at_bind() {
    let dir = std::env::temp_dir().join(format!("fisql-serve-foreign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("sessions.fjnl");
    std::fs::remove_file(&store).ok();

    let config = test_config().store(&store);
    let (_, handle, thread) = boot(config.clone());
    stop(&handle, thread);

    // A different corpus seed changes the replay fingerprint: binding
    // over the old store must refuse, not silently replay wrong.
    let err = Server::bind(config.seed(0xD1FF))
        .err()
        .expect("must refuse");
    assert!(err.to_string().contains("fingerprint"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// One way of stopping a daemon.
#[derive(Debug, Clone, Copy)]
enum StopBy {
    Handle,
    Abort,
    AdminRequest,
}

/// Joins the serve thread, failing if `serve()` has not returned within
/// 2 s.
fn join_within_2s(thread: JoinHandle<ServeSummary>, what: &str) -> ServeSummary {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !thread.is_finished() {
        assert!(
            Instant::now() < deadline,
            "{what}: serve() still running 2 s after the stop"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    thread.join().expect("server thread")
}

#[test]
fn shutdown_request_drains_the_daemon_gracefully() {
    let (addr, _handle, thread) = boot(test_config());
    // An open session sees the drain notice instead of a dead socket.
    let mut client =
        admitted(ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap());
    assert!(request_shutdown(addr.as_str()).expect("shutdown"));
    let summary = join_within_2s(thread, "admin Shutdown with a live session");
    assert_eq!(summary.sessions_opened, 1);
    // The daemon is gone: new connections fail or are drained.
    assert!(matches!(
        ServeClient::connect(addr.as_str(), None),
        Err(_) | Ok(Connected::ShuttingDown | Connected::Rejected { .. })
    ));
    // The held client's next request surfaces the drain (ShuttingDown
    // frame or closed socket), never a hang.
    let _ = client.request(&fisql_core::serve::ClientRequest::Transcript);

    // Every stop path wakes an accept loop blocked on an idle listener:
    // on loopback, on an unspecified bind (woken through loopback), and
    // on a `--repl-listen` daemon, whose replication acceptor must exit
    // too before `serve()` can return.
    let binds = [
        ("127.0.0.1", None),
        ("0.0.0.0", None),
        ("127.0.0.1", Some("0.0.0.0:0")),
    ];
    for (host, repl_listen) in binds {
        for how in [StopBy::Handle, StopBy::Abort, StopBy::AdminRequest] {
            let mut config = test_config().host(host);
            if let Some(repl) = repl_listen {
                config = config.repl_listen(repl);
            }
            let (_, handle, thread) = boot(config);
            let loopback = SocketAddr::from(([127, 0, 0, 1], handle.addr().port()));
            // Give the accept loop time to block in `accept`.
            std::thread::sleep(Duration::from_millis(100));
            match how {
                StopBy::Handle => handle.shutdown(),
                StopBy::Abort => handle.abort(),
                StopBy::AdminRequest => assert!(request_shutdown(loopback).expect("shutdown")),
            }
            let what = format!("{how:?} on {host} (repl listener {repl_listen:?})");
            let summary = join_within_2s(thread, &what);
            assert_eq!(summary.sessions_opened, 0, "{what}");
            assert_eq!(summary.final_active, 0, "{what}");
        }
    }

    // With a follower connected, the primary's shipper sits blocked on
    // the replication log and its ack reader in a blocking read: the
    // stop must wake both. Then the follower, retrying a primary that is
    // gone, must stop as promptly.
    for how in [StopBy::Handle, StopBy::Abort, StopBy::AdminRequest] {
        let ((p_addr, p_handle, p_thread), (_, f_handle, f_thread)) = boot_quorum_pair();
        std::thread::sleep(Duration::from_millis(100));
        match how {
            StopBy::Handle => p_handle.shutdown(),
            StopBy::Abort => p_handle.abort(),
            StopBy::AdminRequest => assert!(request_shutdown(p_addr.as_str()).expect("shutdown")),
        }
        join_within_2s(p_thread, &format!("{how:?} on a primary with a follower"));
        f_handle.shutdown();
        join_within_2s(
            f_thread,
            &format!("the follower after {how:?} on its primary"),
        );
    }
}

#[test]
fn quorum_asks_on_an_idle_pair_wait_on_the_ack_not_a_poll() {
    // Each Ask is released only once the follower acknowledged its
    // record: the round trip must cost a ship and an ack, not a poll
    // interval on either side of the replication link.
    let ((addr, handle, thread), (_, f_handle, f_thread)) = boot_quorum_pair();
    let corpus = build_aep(&AepConfig {
        n_examples: test_config().n_examples,
        seed: test_config().seed,
    });
    let mut client = admitted(ServeClient::connect(addr.as_str(), None).expect("connect"));
    let mut asks: Vec<Duration> = (0..20)
        .map(|i| {
            let started = Instant::now();
            client
                .ask(&corpus.examples[i % corpus.examples.len()].question)
                .expect("ask");
            started.elapsed()
        })
        .collect();
    client.bye().expect("bye");
    asks.sort();
    let median = asks[asks.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median quorum Ask round trip {median:?} (all: {asks:?})"
    );
    let stats = request_stats(addr.as_str()).expect("stats");
    assert_eq!(stats.repl_ack_timeouts, 0, "every Ask was acknowledged");
    stop(&handle, thread);
    stop(&f_handle, f_thread);
}

#[test]
fn sessions_open_on_an_idle_daemon_without_waiting_on_a_poll() {
    // Sessions opened one after another each find the accept loop idle;
    // connect → Welcome must cost a round-trip, not a poll interval.
    let (addr, handle, thread) = boot(test_config());
    let mut opens: Vec<Duration> = (0..20)
        .map(|_| {
            let started = Instant::now();
            let client = admitted(ServeClient::connect(addr.as_str(), None).expect("connect"));
            let open = started.elapsed();
            client.bye().expect("bye");
            open
        })
        .collect();
    opens.sort();
    let median = opens[opens.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median connect → Welcome {median:?} (all: {opens:?})"
    );
    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_opened, 20);
}

#[test]
fn session_store_marker_separates_stores_from_eval_journals() {
    // A serve session store can never be opened as an eval journal: the
    // header's case-count slot is pinned to the marker.
    let dir = std::env::temp_dir().join(format!("fisql-serve-marker-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sessions.fjnl");
    std::fs::remove_file(&path).ok();
    let store = SessionStore::open(
        Some(&path),
        StoreOptions::new(7).fsync(fisql_core::FsyncPolicy::EachRecord),
    )
    .unwrap();
    store.open_session().unwrap();
    store.sync().unwrap();
    drop(store);
    let err = fisql_core::RunJournal::open_resume::<SessionEvent>(
        &path,
        7,
        10, // a real case count, not the marker
        fisql_core::FsyncPolicy::Never,
    )
    .expect_err("eval open over a session store must refuse");
    assert!(err.to_string().contains("case"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes one raw byte blob to a fresh connection and returns whatever
/// the daemon sent back before closing.
fn poke_raw(addr: &str, payload: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(payload).expect("write");
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    reply
}

/// Decodes the first frame of a raw reply as a typed response (None
/// when the daemon closed without answering).
fn first_frame(reply: &[u8]) -> Option<fisql_core::serve::ServerResponse> {
    if reply.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(reply[..4].try_into().unwrap()) as usize;
    serde_json::from_slice(&reply[4..4 + len.min(reply.len() - 4)]).ok()
}

#[test]
fn hostile_frames_get_typed_errors_and_the_daemon_keeps_serving() {
    let config = test_config();
    let seed = config.seed;
    let n_examples = config.n_examples;
    let (addr, handle, thread) = boot(config);

    // Non-UTF-8 garbage in a well-formed frame: typed Error.
    let mut garbage = 8u32.to_le_bytes().to_vec();
    garbage.extend_from_slice(&[0xFF, 0xFE, 0x80, 0x81, 0x00, 0xC0, 0xC1, 0xF5]);
    let reply = first_frame(&poke_raw(&addr, &garbage)).expect("a typed reply");
    assert!(
        matches!(reply, fisql_core::serve::ServerResponse::Error { .. }),
        "{reply:?}"
    );

    // Valid JSON that is not a request: typed Error.
    let body = br#"{"definitely":"not a request"}"#;
    let mut framed = (body.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(body);
    let reply = first_frame(&poke_raw(&addr, &framed)).expect("a typed reply");
    assert!(
        matches!(reply, fisql_core::serve::ServerResponse::Error { .. }),
        "{reply:?}"
    );

    // An oversized length claim: typed Error, no allocation.
    let oversized = ((4u32 << 20) + 1).to_le_bytes();
    let reply = first_frame(&poke_raw(&addr, &oversized)).expect("a typed reply");
    assert!(
        matches!(reply, fisql_core::serve::ServerResponse::Error { .. }),
        "{reply:?}"
    );

    // Deeply nested JSON, within and far past the parser's depth
    // budget, sent before `Hello`: a typed Error either way, and the
    // connection thread's stack survives.
    for depth in [600, 20_000] {
        let mut nested = Vec::new();
        nested.extend(std::iter::repeat_n(b'[', depth));
        nested.extend(std::iter::repeat_n(b']', depth));
        let mut framed = (nested.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&nested);
        let reply = first_frame(&poke_raw(&addr, &framed)).expect("a typed reply");
        assert!(
            matches!(reply, fisql_core::serve::ServerResponse::Error { .. }),
            "{depth} levels: {reply:?}"
        );
    }

    // A truncated frame (header promises more than arrives): the daemon
    // just closes; either way it must not crash or hang.
    let torn = 64u32.to_le_bytes().to_vec();
    let _ = poke_raw(&addr, &torn);

    // After all that abuse, a normal session still completes.
    let corpus = build_aep(&AepConfig { n_examples, seed });
    let mut client =
        admitted(ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap());
    let turn = client.ask(&corpus.examples[0].question).expect("ask");
    assert!(!turn.sql.is_empty());
    client.bye().expect("bye");

    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_opened, 1);
    assert_eq!(summary.contained_panics, 0);
    assert!(
        summary.errors >= 5,
        "hostile frames counted: {}",
        summary.errors
    );
}

#[test]
fn idle_sessions_are_reaped_and_the_slot_returns() {
    // One slot, 200 ms idle budget: a stalled session must be reaped
    // and its slot handed to the next client.
    let config = test_config().max_sessions(1).idle_timeout_ms(200);
    let seed = config.seed;
    let n_examples = config.n_examples;
    let (addr, handle, thread) = boot(config);
    let corpus = build_aep(&AepConfig { n_examples, seed });

    let mut stalled =
        admitted(ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap());
    stalled.ask(&corpus.examples[0].question).expect("ask");

    // The stalled client goes quiet; a second client queues for the
    // only slot and must be admitted once the reaper fires.
    let mut fresh = admitted(
        ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).expect("connect"),
    );
    let turn = fresh.ask(&corpus.examples[1].question).expect("ask");
    assert!(!turn.sql.is_empty());
    fresh.bye().expect("bye");

    // The reaped client's next request surfaces the eviction as an
    // error (the typed Reaped farewell or the closed socket), not a
    // hang.
    let verdict = stalled.feedback("we are in 2024", None);
    assert!(verdict.is_err(), "reaped session must not keep serving");

    let summary = stop(&handle, thread);
    assert_eq!(summary.admission.reaped, 1);
    assert_eq!(summary.sessions_opened, 2);
    assert_eq!(summary.final_active, 0);
    assert_eq!(summary.contained_panics, 0);
}

#[test]
fn stats_admin_request_reports_live_counters() {
    let config = test_config();
    let seed = config.seed;
    let n_examples = config.n_examples;
    let (addr, handle, thread) = boot(config);
    let corpus = build_aep(&AepConfig { n_examples, seed });

    let mut client =
        admitted(ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap());
    client.ask(&corpus.examples[0].question).expect("ask");
    client.feedback("we are in 2024", None).expect("feedback");

    // Session-less admin fetch while the session is still open.
    let stats = request_stats(addr.as_str()).expect("stats");
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.questions_served, 1);
    assert_eq!(stats.rounds_served, 1);
    assert_eq!(stats.admission.admitted_direct, 1);
    assert_eq!(stats.sessions_degraded, 0);
    assert!(!stats.store.durable, "no --store configured");
    assert!(stats.store.writable);
    assert!(stats.store.ops >= 3, "Opened + Ask + Feedback journaled");

    // The same request also answers in-session.
    let in_session = client.stats().expect("in-session stats");
    assert_eq!(in_session.sessions_opened, 1);
    client.bye().expect("bye");

    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_opened, 1);
}

#[test]
fn compaction_preserves_survivors_across_restart_bit_identically() {
    let dir = std::env::temp_dir().join(format!("fisql-serve-compact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("sessions.fjnl");
    std::fs::remove_file(&store).ok();

    let config = test_config().store(&store);
    let seed = config.seed;
    let n_examples = config.n_examples;
    let corpus = build_aep(&AepConfig { n_examples, seed });

    let (addr, handle, thread) = boot(config.clone());

    // Two sessions complete (compaction fodder)...
    for i in 0..2 {
        let mut client = admitted(
            ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap(),
        );
        client.ask(&corpus.examples[i].question).expect("ask");
        client.bye().expect("bye");
    }
    // ...and one survivor stays open across a crash-style disconnect.
    let (survivor_id, before) = {
        let mut client = admitted(
            ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap(),
        );
        client.ask(&corpus.examples[5].question).expect("ask");
        client
            .feedback("only the january rows please", None)
            .expect("feedback");
        (client.session_id, client.transcript().expect("transcript"))
    };

    // Admin-triggered compaction drops the two closed sessions.
    let outcome = request_compact(addr.as_str()).expect("compact");
    assert_eq!(outcome.generation, 1);
    assert_eq!(outcome.sessions_dropped, 2);
    let stats = request_stats(addr.as_str()).expect("stats");
    assert_eq!(stats.store.generation, 1);
    assert_eq!(stats.store.compactions, 1);
    stop(&handle, thread);

    // Kill/rebind: only the survivor is recovered, and its replay is
    // byte-identical to the pre-compaction transcript.
    let restarted = Server::bind(config).expect("rebind over compacted store");
    assert_eq!(restarted.recovered_sessions(), vec![survivor_id]);
    let handle = restarted.handle().unwrap();
    let addr = handle.addr().to_string();
    let thread = std::thread::spawn(move || restarted.serve().expect("serve loop"));

    let mut client = admitted(
        ServeClient::connect_retry(addr.as_str(), Some(survivor_id), Duration::from_secs(10))
            .unwrap(),
    );
    let after = client.transcript().expect("transcript");
    assert_eq!(
        serde_json::to_vec(&after).unwrap(),
        serde_json::to_vec(&before).unwrap(),
        "survivor replay diverged after compaction + restart"
    );
    client.bye().expect("bye");
    stop(&handle, thread);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn automatic_compaction_runs_on_the_closed_session_cadence() {
    let dir = std::env::temp_dir().join(format!("fisql-serve-autocompact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("sessions.fjnl");
    std::fs::remove_file(&store).ok();

    let config = test_config().store(&store).compact_every(2);
    let seed = config.seed;
    let n_examples = config.n_examples;
    let corpus = build_aep(&AepConfig { n_examples, seed });
    let (addr, handle, thread) = boot(config);

    for i in 0..4 {
        let mut client = admitted(
            ServeClient::connect_retry(addr.as_str(), None, Duration::from_secs(10)).unwrap(),
        );
        client
            .ask(&corpus.examples[i % n_examples].question)
            .expect("ask");
        client.bye().expect("bye");
    }
    let stats = request_stats(addr.as_str()).expect("stats");
    assert!(
        stats.store.compactions >= 2,
        "4 closed sessions at --compact-every 2: {stats:?}"
    );
    assert!(stats.store.ops_dropped > 0);

    let summary = stop(&handle, thread);
    assert_eq!(summary.sessions_opened, 4);
    assert!(summary.store.generation >= 2);
    std::fs::remove_dir_all(&dir).ok();
}
