//! The `serve` and `serve-quorum` workloads: an in-process `fisql serve`
//! daemon on loopback with a durable session store, driven in a closed
//! loop by two client threads playing seeded `build_scripts` sessions.
//!
//! Each session is Hello, one or two questions with one to three
//! feedback rounds each, Transcript, then Bye, spoken frame by frame
//! with the protocol's public `write_frame`/`read_frame`. `serve-quorum`
//! plays the same scripts against a primary with one in-process follower
//! under `AckMode::Quorum`.
//!
//! A run first plays the first sessions of the recorded default script
//! seed against a plain daemon and checks their transcript digest, then
//! plays the run's own scripts there to get reference digests. The
//! measured segments (each a freshly booted daemon) must reproduce every
//! transcript byte for byte, so `serve-quorum` is held to the `serve`
//! digest: the zero-acknowledged-loss contract.

use crate::report::{peak_rss_mb, thread_cpu_s, Outcome, Scale, FRAME_KINDS};
use crate::trace::{median, tail, Trace};
use fisql_core::serve::loadgen::{build_scripts, transcript_digest, SessionScript};
use fisql_core::serve::protocol::{read_frame, write_frame, ClientRequest, ServerResponse};
use fisql_core::serve::store::{SessionOp, SessionStore, StoreOptions};
use fisql_core::serve::AckMode;
use fisql_core::{
    chaos_stack, Assistant, FsyncPolicy, LoadConfig, ServeConfig, Server, ServerHandle,
    ServerStats, Session,
};
use fisql_llm::{FallibleLanguageModel, LlmConfig, SimLlm};
use fisql_spider::{build_aep, AepConfig, Corpus};
use std::collections::BTreeMap;
use std::io::{self, Cursor};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which daemon topology a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// One daemon.
    Plain,
    /// Primary plus one follower, quorum acknowledgement.
    Quorum,
}

/// The script seed whose transcript digest is recorded below
/// (`fisql load`'s default seed).
pub const DEFAULT_LOAD_SEED: u64 = 0x10AD;
/// Wrapping sum of the transcript digests of the first [`PREFIX`]
/// sessions of [`DEFAULT_LOAD_SEED`]'s scripts at full scale.
const RECORDED_DIGEST: u64 = 0xccb0_5fb7_6cbb_47ff;
/// Client threads (and so concurrent connections).
const CLIENTS: usize = 2;
/// Measured segments per run; each boots a fresh daemon.
const SEGMENTS: usize = 4;
/// Extra boot-and-stop cycles before each segment, so set-up time is the
/// median of `(EXTRA_BOOTS + 1) * SEGMENTS` samples.
const EXTRA_BOOTS: usize = 2;
/// Scripts generated per run (more than any run completes).
const SCRIPTS: usize = 20_000;
/// Store compaction cadence (closed sessions between compactions).
const COMPACT_EVERY: u64 = 16;
/// Per-response client read timeout: a daemon slower than this fails
/// the session instead of hanging the benchmark.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

fn prefix(scale: Scale) -> usize {
    match scale {
        Scale::Full => 32,
        Scale::Small => 6,
    }
}

/// The daemon configuration every run serves with: the bundled AEP-like
/// corpus, batch fsync, compaction on, ephemeral ports.
fn base_config(scale: Scale) -> ServeConfig {
    ServeConfig::default()
        .port(0)
        .n_examples(match scale {
            Scale::Full => AepConfig::default().n_examples,
            Scale::Small => 40,
        })
        .fsync(FsyncPolicy::Batch)
        .compact_every(COMPACT_EVERY)
}

struct Node {
    handle: ServerHandle,
    thread: JoinHandle<io::Result<fisql_core::ServeSummary>>,
}

impl Node {
    fn boot(config: ServeConfig) -> io::Result<(Node, Option<SocketAddr>)> {
        let server = Server::bind(config)?;
        let handle = server.handle()?;
        let repl = server.repl_addr();
        let thread = std::thread::spawn(move || server.serve());
        Ok((Node { handle, thread }, repl))
    }

    fn stop(self) -> io::Result<()> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(result) => result.map(|_| ()),
            Err(_) => Err(io::Error::other("serve thread panicked")),
        }
    }
}

/// A booted daemon (plus follower for quorum runs).
struct Daemon {
    primary: Node,
    follower: Option<Node>,
    addr: SocketAddr,
}

impl Daemon {
    fn boot(kind: ServeKind, scale: Scale, dir: &Path, tag: &str) -> io::Result<Daemon> {
        let base = base_config(scale);
        match kind {
            ServeKind::Plain => {
                let (primary, _) = Node::boot(base.store(dir.join(format!("{tag}.fjnl"))))?;
                let addr = primary.handle.addr();
                Ok(Daemon {
                    primary,
                    follower: None,
                    addr,
                })
            }
            ServeKind::Quorum => {
                let (primary, repl) = Node::boot(
                    base.clone()
                        .store(dir.join(format!("{tag}-p.fjnl")))
                        .repl_listen("127.0.0.1:0")
                        .repl_ack(AckMode::Quorum),
                )?;
                let repl = repl.ok_or_else(|| io::Error::other("no replication listener"))?;
                let (follower, _) = Node::boot(
                    base.store(dir.join(format!("{tag}-f.fjnl")))
                        .replica_of(repl.to_string())
                        .auto_promote(false),
                )?;
                let deadline = Instant::now() + Duration::from_secs(20);
                while primary.handle.repl().log.followers() == 0 {
                    if Instant::now() > deadline {
                        return Err(io::Error::other("follower never attached"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                let addr = primary.handle.addr();
                Ok(Daemon {
                    primary,
                    follower: Some(follower),
                    addr,
                })
            }
        }
    }

    fn stats(&self) -> io::Result<ServerStats> {
        let mut stream = connect(self.addr)?;
        match request(&mut stream, &ClientRequest::Stats)? {
            ServerResponse::Stats(stats) => Ok(stats),
            other => Err(io::Error::other(format!("Stats answered {other:?}"))),
        }
    }

    fn stop(self) -> io::Result<()> {
        let primary = self.primary.stop();
        let follower = self.follower.map_or(Ok(()), Node::stop);
        primary.and(follower)
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

fn request(stream: &mut TcpStream, req: &ClientRequest) -> io::Result<ServerResponse> {
    write_frame(stream, req)?;
    read_frame(stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon hung up"))
}

/// One request/response pair as the client saw it.
#[derive(Debug, Clone)]
struct Exchange {
    request: ClientRequest,
    response: ServerResponse,
    at: Instant,
    ms: f64,
}

/// One completed session.
#[derive(Debug, Clone)]
struct Played {
    script: usize,
    /// Connect to `Welcome`.
    open_ms: f64,
    /// Ask and Feedback exchanges, in order.
    turns_ms: Vec<f64>,
    transcript_ms: f64,
    digest: u64,
    /// Every exchange (kept in traced runs for the codec replay).
    exchanges: Vec<Exchange>,
}

fn expect(ok: bool, what: &str, got: &ServerResponse) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{what} answered {got:?}"))
    }
}

/// Plays one script end to end.
fn play(
    addr: SocketAddr,
    idx: usize,
    script: &SessionScript,
    keep: bool,
) -> Result<Played, String> {
    let mut exchanges = Vec::new();
    let mut exchange = |stream: &mut TcpStream, req: ClientRequest| -> Result<Exchange, String> {
        let t = Instant::now();
        let response = request(stream, &req).map_err(|e| format!("{req:?}: {e}"))?;
        let ex = Exchange {
            request: req,
            response,
            at: t,
            ms: t.elapsed().as_secs_f64() * 1e3,
        };
        if keep {
            exchanges.push(ex.clone());
        }
        Ok(ex)
    };
    let t = Instant::now();
    let mut stream = connect(addr).map_err(|e| format!("connect: {e}"))?;
    let hello = exchange(
        &mut stream,
        ClientRequest::Hello {
            version: fisql_core::serve::PROTOCOL_VERSION,
            resume: None,
        },
    )?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    expect(
        matches!(hello.response, ServerResponse::Welcome { .. }),
        "Hello",
        &hello.response,
    )?;
    let mut turns_ms = Vec::new();
    for (question, feedbacks) in &script.questions {
        let ask = exchange(
            &mut stream,
            ClientRequest::Ask {
                question: question.clone(),
            },
        )?;
        expect(
            matches!(ask.response, ServerResponse::Turn { .. }),
            "Ask",
            &ask.response,
        )?;
        turns_ms.push(ask.ms);
        for text in feedbacks {
            let fb = exchange(
                &mut stream,
                ClientRequest::Feedback {
                    text: text.clone(),
                    highlight: None,
                },
            )?;
            expect(
                matches!(fb.response, ServerResponse::Turn { .. }),
                "Feedback",
                &fb.response,
            )?;
            turns_ms.push(fb.ms);
        }
    }
    let dump = exchange(&mut stream, ClientRequest::Transcript)?;
    let ServerResponse::TranscriptDump { events } = &dump.response else {
        return Err(format!("Transcript answered {:?}", dump.response));
    };
    let digest = transcript_digest(events);
    let bye = exchange(&mut stream, ClientRequest::Bye)?;
    expect(
        matches!(bye.response, ServerResponse::Goodbye { .. }),
        "Bye",
        &bye.response,
    )?;
    Ok(Played {
        script: idx,
        open_ms,
        turns_ms,
        transcript_ms: dump.ms,
        digest,
        exchanges,
    })
}

/// A played session, or why it failed.
type SessionResult = Result<Played, String>;

/// Closed-loop load: [`CLIENTS`] threads take scripts in order from the
/// `next` cursor until the deadline has passed and scripts up to
/// `min_sessions` were started.
/// Returns each session's result by script index, and the wall time.
fn drive(
    addr: SocketAddr,
    scripts: &[SessionScript],
    next: &AtomicUsize,
    deadline: Instant,
    min_sessions: usize,
    keep: bool,
) -> (Vec<(usize, SessionResult)>, f64) {
    let results = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= scripts.len() || (idx >= min_sessions && Instant::now() >= deadline) {
                    return;
                }
                let result = play(addr, idx, &scripts[idx], keep);
                results.lock().expect("results lock").push((idx, result));
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let mut results = results.into_inner().expect("results lock");
    results.sort_by_key(|(idx, _)| *idx);
    (results, wall)
}

fn scripts_for(seed: u64, scale: Scale, corpus: &Corpus) -> Vec<SessionScript> {
    let base = base_config(scale);
    build_scripts(
        &LoadConfig {
            sessions: SCRIPTS,
            max_rounds: 3,
            seed,
            corpus_seed: base.seed,
            n_examples: base.n_examples,
            ..LoadConfig::default()
        },
        corpus,
    )
}

/// Everything the measured segments collected.
#[derive(Default)]
struct Collected {
    played: Vec<Played>,
    failed: u64,
    attempted: u64,
    wall_s: f64,
    setups: Vec<f64>,
    stats: Vec<ServerStats>,
}

/// Runs the workload (untraced or traced, per `trace`).
pub fn run(
    kind: ServeKind,
    seed: u64,
    seconds: f64,
    scale: Scale,
    dir: &Path,
    trace: &Trace,
    out: &mut Outcome,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let base = base_config(scale);
    let corpus = build_aep(&AepConfig {
        n_examples: base.n_examples,
        seed: base.seed,
    });
    let scripts = scripts_for(seed, scale, &corpus);
    let n_prefix = prefix(scale);

    // Verification pass on a plain daemon: the recorded digest, then the
    // reference transcripts of this run's scripts.
    let verify = Daemon::boot(ServeKind::Plain, scale, dir, "verify")?;
    // A deadline already passed: each pass plays exactly its slice.
    let now = Instant::now();
    if scale == Scale::Full {
        let default_scripts = scripts_for(DEFAULT_LOAD_SEED, scale, &corpus);
        let cursor = AtomicUsize::new(0);
        let (res, _) = drive(
            verify.addr,
            &default_scripts[..n_prefix],
            &cursor,
            now,
            n_prefix,
            false,
        );
        let mut sum = 0u64;
        for (idx, r) in res {
            match r {
                Ok(p) => sum = sum.wrapping_add(p.digest),
                Err(e) => out.fail(format!("default-seed session {idx}: {e}")),
            }
        }
        if sum != RECORDED_DIGEST {
            out.fail(format!(
                "default-seed transcript digest {sum:#018x}, recorded {RECORDED_DIGEST:#018x}"
            ));
        }
        out.note(format!("check: default-seed transcript digest {sum:#018x}"));
    }
    let cursor = AtomicUsize::new(0);
    let (res, _) = drive(
        verify.addr,
        &scripts[..n_prefix],
        &cursor,
        now,
        n_prefix,
        false,
    );
    verify.stop()?;
    let mut reference: BTreeMap<usize, u64> = BTreeMap::new();
    let mut plain_turns = Vec::new();
    for (idx, r) in res {
        match r {
            Ok(p) => {
                reference.insert(idx, p.digest);
                plain_turns.extend(p.turns_ms);
            }
            Err(e) => out.fail(format!("reference session {idx}: {e}")),
        }
    }

    // Measured segments, each on a freshly booted daemon, walking on
    // through the scripts; the first covers the reference prefix. Extra
    // boot-and-stop cycles before each segment spread the set-up samples
    // over the whole run, so one burst of machine noise cannot set them
    // all.
    let mut c = Collected::default();
    let seg_len = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let cursor = AtomicUsize::new(0);
    for seg in 0..SEGMENTS {
        for i in 0..EXTRA_BOOTS {
            let cpu = thread_cpu_s();
            let daemon = Daemon::boot(kind, scale, dir, &format!("boot{seg}-{i}"))?;
            c.setups.push(thread_cpu_s() - cpu);
            daemon.stop()?;
        }
        let cpu = thread_cpu_s();
        let daemon = Daemon::boot(kind, scale, dir, &format!("seg{seg}"))?;
        c.setups.push(thread_cpu_s() - cpu);
        let (res, wall) = drive(
            daemon.addr,
            &scripts,
            &cursor,
            Instant::now() + seg_len,
            n_prefix,
            trace.enabled(),
        );
        c.wall_s += wall;
        if trace.enabled() {
            c.stats.push(daemon.stats()?);
        }
        daemon.stop()?;
        for (idx, r) in res {
            c.attempted += 1;
            match r {
                Ok(p) => {
                    if let Some(&want) = reference.get(&idx) {
                        if want != p.digest {
                            out.fail(format!(
                                "segment {seg} session {idx}: transcript digest {:#018x}, \
                                 reference {want:#018x}",
                                p.digest
                            ));
                        }
                    }
                    c.played.push(p);
                }
                Err(e) => {
                    c.failed += 1;
                    out.fail(format!("segment {seg} session {idx}: {e}"));
                }
            }
        }
    }
    out.attempted += c.attempted;
    out.failed += c.failed;

    let opens: Vec<f64> = c.played.iter().map(|p| p.open_ms).collect();
    let turns: Vec<f64> = c.played.iter().flat_map(|p| p.turns_ms.clone()).collect();
    let transcripts: Vec<f64> = c.played.iter().map(|p| p.transcript_ms).collect();
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let (opens, turns, transcripts) = (sorted(&opens), sorted(&turns), sorted(&transcripts));
    let sessions = c.played.len();
    let sessions_per_s = sessions as f64 / c.wall_s;

    if trace.enabled() {
        layers(
            kind,
            scale,
            dir,
            &corpus,
            &scripts,
            &c,
            &turns,
            &plain_turns,
            trace,
            out,
        )?;
        return Ok(());
    }
    out.e2e("setup_s", median(&c.setups), "s", c.setups.len());
    out.e2e("throughput_per_s", sessions_per_s, "1/s", sessions);
    let t50 = tail(&turns, 50.0);
    out.e2e("turn_p50_ms", t50.value, "ms", t50.samples);
    out.e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);

    out.table("sessions_per_s", sessions_per_s, "1/s", sessions);
    out.table("open_p50_ms", tail(&opens, 50.0).value, "ms", opens.len());
    out.tail_table("open_p99_ms", tail(&opens, 99.0), "ms");
    out.tail_table("turn_p90_ms", tail(&turns, 90.0), "ms");
    out.tail_table("turn_p99_ms", tail(&turns, 99.0), "ms");
    out.table(
        "transcript_p50_ms",
        tail(&transcripts, 50.0).value,
        "ms",
        transcripts.len(),
    );
    out.note(format!(
        "{SEGMENTS} segments, {sessions} sessions, {} turns",
        turns.len()
    ));
    Ok(())
}

// ---------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------

fn request_kind(r: &ClientRequest) -> &'static str {
    match r {
        ClientRequest::Hello { .. } => "hello",
        ClientRequest::Ask { .. } => "ask",
        ClientRequest::Feedback { .. } => "feedback",
        ClientRequest::Transcript => "transcript",
        ClientRequest::Bye => "bye",
        _ => "admin",
    }
}

fn response_kind(r: &ServerResponse) -> &'static str {
    match r {
        ServerResponse::Welcome { .. } => "welcome",
        ServerResponse::Turn { .. } => "turn",
        ServerResponse::TranscriptDump { .. } => "transcript_dump",
        ServerResponse::Goodbye { .. } => "goodbye",
        _ => "other",
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Codec {
    frames: u64,
    encode_ns: u64,
    decode_ns: u64,
    bytes: u64,
}

impl Codec {
    fn mean_us(ns: u64, n: u64) -> f64 {
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    }
}

/// Encodes and decodes one captured frame the way the daemon and client
/// do, returning `(encode ns, decode ns, bytes)`.
fn codec_roundtrip<T>(message: &T) -> io::Result<(u64, u64, u64)>
where
    T: serde::Serialize + serde::de::DeserializeOwned + PartialEq,
{
    let t = Instant::now();
    let mut buf = Vec::new();
    write_frame(&mut buf, message)?;
    let encode = t.elapsed();
    let t = Instant::now();
    let decoded: Option<T> = read_frame(&mut Cursor::new(&buf))?;
    let decode = t.elapsed();
    if decoded.as_ref() != Some(message) {
        return Err(io::Error::other("frame did not round-trip"));
    }
    Ok((
        u64::try_from(encode.as_nanos()).unwrap_or(u64::MAX),
        u64::try_from(decode.as_nanos()).unwrap_or(u64::MAX),
        buf.len() as u64,
    ))
}

/// Per-layer metrics of a traced serve run.
#[allow(clippy::too_many_arguments)]
fn layers(
    kind: ServeKind,
    scale: Scale,
    dir: &Path,
    corpus: &Corpus,
    scripts: &[SessionScript],
    c: &Collected,
    turns: &[f64],
    plain_turns: &[f64],
    trace: &Trace,
    out: &mut Outcome,
) -> io::Result<()> {
    // Client-side spans around every exchange, one unit per session.
    for (i, p) in c.played.iter().enumerate() {
        let unit = i as u64;
        for ex in &p.exchanges {
            let name = match ex.request {
                ClientRequest::Hello { .. } => "client.open",
                ClientRequest::Ask { .. } | ClientRequest::Feedback { .. } => "client.turn",
                ClientRequest::Transcript => "client.transcript",
                _ => "client.bye",
            };
            trace.record(name, unit, ex.at, Duration::from_secs_f64(ex.ms / 1e3));
        }
    }

    // Codec: the captured frames through write_frame/read_frame.
    let mut codec: BTreeMap<&'static str, Codec> = BTreeMap::new();
    for p in &c.played {
        for ex in &p.exchanges {
            let (e, d, b) = codec_roundtrip(&ex.request)?;
            let k = codec.entry(request_kind(&ex.request)).or_default();
            k.frames += 1;
            k.encode_ns += e;
            k.decode_ns += d;
            k.bytes += b;
            let (e, d, b) = codec_roundtrip(&ex.response)?;
            let k = codec.entry(response_kind(&ex.response)).or_default();
            k.frames += 1;
            k.encode_ns += e;
            k.decode_ns += d;
            k.bytes += b;
        }
    }
    let total = codec.values().fold(Codec::default(), |a, k| Codec {
        frames: a.frames + k.frames,
        encode_ns: a.encode_ns + k.encode_ns,
        decode_ns: a.decode_ns + k.decode_ns,
        bytes: a.bytes + k.bytes,
    });
    out.layer(
        "codec.encode.us",
        Codec::mean_us(total.encode_ns, total.frames),
        "us",
    );
    out.layer(
        "codec.decode.us",
        Codec::mean_us(total.decode_ns, total.frames),
        "us",
    );
    out.layer(
        "codec.bytes",
        if total.frames == 0 {
            0.0
        } else {
            total.bytes as f64 / total.frames as f64
        },
        "bytes",
    );
    for kind_name in FRAME_KINDS {
        let k = codec.get(kind_name).copied().unwrap_or_default();
        out.layer(
            &format!("codec.{kind_name}.encode.us"),
            Codec::mean_us(k.encode_ns, k.frames),
            "us",
        );
        out.layer(
            &format!("codec.{kind_name}.decode.us"),
            Codec::mean_us(k.decode_ns, k.frames),
            "us",
        );
        out.layer(
            &format!("codec.{kind_name}.bytes"),
            if k.frames == 0 {
                0.0
            } else {
                k.bytes as f64 / k.frames as f64
            },
            "bytes",
        );
    }
    let codec_pair_us = |req: &str, resp: &str| {
        let mean = |name: &str| {
            let k = codec.get(name).copied().unwrap_or_default();
            Codec::mean_us(k.encode_ns + k.decode_ns, k.frames)
        };
        mean(req) + mean(resp)
    };

    // Session layer: every distinct script replayed in process, untraced
    // then traced; each replayed transcript must equal the daemon's.
    let mut distinct: BTreeMap<usize, &Played> = BTreeMap::new();
    for p in &c.played {
        distinct.entry(p.script).or_insert(p);
    }
    let config = base_config(scale);
    let assistant = Assistant::for_corpus(corpus, SimLlm::new(LlmConfig::default()), 3);
    let off = Trace::new(false);
    let mut walls = [0.0f64; 2];
    for (k, sink) in [&off, trace].into_iter().enumerate() {
        let t = Instant::now();
        for (&idx, played) in &distinct {
            let digest =
                replay_session(corpus, &assistant, &config, &scripts[idx], idx as u64, sink);
            if digest != played.digest {
                out.fail(format!(
                    "in-process replay of session {idx} digests to {digest:#018x}, \
                     the daemon's transcript to {:#018x}",
                    played.digest
                ));
            }
        }
        walls[k] = t.elapsed().as_secs_f64();
    }

    // Store: the same ops through a scratch store with the daemon's
    // options.
    let store_path = dir.join("replay-store.fjnl");
    let store = SessionStore::open(
        Some(&store_path),
        StoreOptions::new(config.fingerprint())
            .fsync(config.fsync)
            .compact_every(config.compact_every),
    )?;
    let mut appends = 0u64;
    let mut append_bytes = 0u64;
    for &idx in distinct.keys() {
        let unit = idx as u64;
        let (id, _) = trace.span("store.open", unit, || store.open_session())?;
        let mut ops = Vec::new();
        for (question, feedbacks) in &scripts[idx].questions {
            let example_idx = corpus
                .examples
                .iter()
                .position(|e| e.question.eq_ignore_ascii_case(question))
                .unwrap_or(0);
            ops.push(SessionOp::Ask {
                example_idx: example_idx as u64,
                question: question.clone(),
            });
            for text in feedbacks {
                ops.push(SessionOp::Feedback {
                    text: text.clone(),
                    highlight: None,
                });
            }
        }
        ops.push(SessionOp::Closed);
        for op in ops {
            let before = store.snapshot().compactions;
            let len_before = std::fs::metadata(&store_path).map(|m| m.len()).unwrap_or(0);
            let started = Instant::now();
            std::hint::black_box(store.append(id, op));
            let elapsed = started.elapsed();
            if store.snapshot().compactions > before {
                trace.record("store.compaction", unit, started, elapsed);
            } else {
                appends += 1;
                let len_after = std::fs::metadata(&store_path).map(|m| m.len()).unwrap_or(0);
                append_bytes += len_after.saturating_sub(len_before);
                trace.record("store.append", unit, started, elapsed);
            }
        }
    }
    drop(store);

    let table = trace.self_times();
    let get = |name: &str| table.get(name).copied().unwrap_or_default();
    let (ask, feedback) = (get("session.ask"), get("session.feedback"));
    out.layer("session.ask.us", ask.mean_us(), "us");
    out.layer("session.feedback.us", feedback.mean_us(), "us");
    out.layer("store.append.us", get("store.append").mean_us(), "us");
    out.layer(
        "store.bytes_per_op",
        if appends == 0 {
            0.0
        } else {
            append_bytes as f64 / appends as f64
        },
        "bytes",
    );
    out.layer(
        "store.compaction.us",
        get("store.compaction").mean_us(),
        "us",
    );

    // Attribution: client spans minus the replayed layers on their path.
    let open = get("client.open");
    let hello_path = codec_pair_us("hello", "welcome") + get("store.open").mean_us();
    out.layer("accept.wait_us", open.mean_us() - hello_path, "us");
    let n_turns = ask.count + feedback.count;
    let per_turn = if n_turns == 0 {
        0.0
    } else {
        (ask.count as f64 * (codec_pair_us("ask", "turn") + ask.mean_us())
            + feedback.count as f64 * (codec_pair_us("feedback", "turn") + feedback.mean_us()))
            / n_turns as f64
            + get("store.append").mean_us()
    };
    out.layer(
        "turn.unattributed_us",
        get("client.turn").mean_us() - per_turn,
        "us",
    );

    // Daemon counters.
    let sum = |f: fn(&ServerStats) -> u64| c.stats.iter().map(f).sum::<u64>() as f64;
    out.layer(
        "admission.queued",
        sum(|s| s.admission.admitted_queued),
        "count",
    );
    out.layer(
        "admission.rejected",
        sum(|s| s.admission.rejected()),
        "count",
    );
    out.layer("repl.shipped", sum(|s| s.repl_records_shipped), "count");
    out.layer("repl.ack_timeouts", sum(|s| s.repl_ack_timeouts), "count");
    out.layer(
        "repl.degraded_entries",
        sum(|s| s.repl_ack_degraded_entries),
        "count",
    );
    out.layer(
        "repl.lag_after_drain",
        c.stats
            .iter()
            .map(|s| s.replication_lag_records)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    let gate_wait = match kind {
        ServeKind::Plain => 0.0,
        ServeKind::Quorum => {
            let mut plain = plain_turns.to_vec();
            plain.sort_by(f64::total_cmp);
            (tail(turns, 50.0).value - tail(&plain, 50.0).value) * 1e3
        }
    };
    out.layer("repl.gate_wait_us", gate_wait, "us");
    out.layer(
        "trace.overhead_ratio",
        if walls[0] > 0.0 {
            (walls[1] - walls[0]) / walls[0]
        } else {
            0.0
        },
        "ratio",
    );
    out.note(format!(
        "traced {} sessions ({} distinct scripts replayed in process against their transcripts)",
        c.played.len(),
        distinct.len()
    ));
    out.layer_table(
        &table,
        &[
            "client.open",
            "client.turn",
            "client.transcript",
            "client.bye",
        ],
    );
    Ok(())
}

/// Replays one script through the daemon's session layer in process (the
/// server's Ask and Feedback dispatch), returning the transcript digest.
fn replay_session(
    corpus: &Corpus,
    assistant: &Assistant,
    config: &ServeConfig,
    script: &SessionScript,
    unit: u64,
    trace: &Trace,
) -> u64 {
    let backend = chaos_stack(&assistant.llm, config.fault_rate, config.retry_budget);
    backend.begin_session();
    let mut session = Session::new(&corpus.databases[0], assistant.clone(), config.strategy)
        .semantic_cache(config.semantic_cache);
    for (question, feedbacks) in &script.questions {
        let idx = corpus
            .examples
            .iter()
            .position(|e| e.question.eq_ignore_ascii_case(question))
            .unwrap_or(0);
        let example = corpus.examples[idx].clone();
        session.db = corpus.database(&example);
        trace.span("session.ask", unit, || {
            std::hint::black_box(session.ask(&example));
        });
        for text in feedbacks {
            trace.span("session.feedback", unit, || {
                std::hint::black_box(session.give_feedback(&backend, &example, text, None));
            });
        }
    }
    transcript_digest(session.events())
}
