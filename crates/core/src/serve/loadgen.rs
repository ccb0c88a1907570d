//! A deterministic load generator for the serve daemon.
//!
//! `fisql load` (and `bench_serve`) drive a daemon with seeded session
//! scripts: each scripted session asks corpus questions and sends a few
//! feedback utterances, all drawn from a [`StdRng`] keyed by the script
//! seed and session index — two runs with the same seed replay the same
//! load, byte for byte.
//!
//! The report folds every completed session's transcript into an
//! **order-insensitive digest** (a wrapping sum of per-session FNV-64
//! digests over the serialized event stream). Which worker runs which
//! script varies with scheduling, but each session's transcript is
//! deterministic, so the digest is stable across runs — the load-level
//! determinism check the serve tests and CI assert on.

use super::client::{request_shutdown, request_stats, FailoverClient};
use super::protocol::{
    read_frame_deadline, write_frame, ClientRequest, ServerResponse, ServerStats, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use crate::config::LoadConfig;
use crate::journal::Fnv64;
use fisql_spider::{build_aep, AepConfig, Corpus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Feedback utterances the scripts cycle through — plausible follow-ups
/// a user of the tool would type; the pipeline incorporates what it can
/// route and leaves the rest, deterministically either way.
const FEEDBACK_POOL: &[&str] = &[
    "we are in 2024",
    "only the january rows please",
    "count them instead of listing",
    "I meant the created date",
    "sort by the count",
];

/// One scripted session: questions, each followed by feedback rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionScript {
    /// `(question text, feedback utterances)` in play order.
    pub questions: Vec<(String, Vec<String>)>,
}

/// Generates the scripts for a load run — a pure function of the config
/// (seed, session count, round bound) and the corpus.
pub fn build_scripts(config: &LoadConfig, corpus: &Corpus) -> Vec<SessionScript> {
    (0..config.sessions)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(config.seed ^ (i as u64).wrapping_mul(0x9E37));
            let n_questions = rng.gen_range(1..=2usize);
            let questions = (0..n_questions)
                .map(|_| {
                    let example = rng.gen_range(0..corpus.examples.len());
                    let rounds = rng.gen_range(1..=config.max_rounds);
                    let feedback = (0..rounds)
                        .map(|_| FEEDBACK_POOL[rng.gen_range(0..FEEDBACK_POOL.len())].to_string())
                        .collect();
                    (corpus.examples[example].question.clone(), feedback)
                })
                .collect();
            SessionScript { questions }
        })
        .collect()
}

/// What one load run did.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Sessions that ran their whole script and closed with `Bye`.
    pub sessions_completed: u64,
    /// Connections the daemon rejected (admission backpressure).
    pub sessions_rejected: u64,
    /// Sessions that failed on a transport or protocol error.
    pub sessions_failed: u64,
    /// Questions asked across completed sessions.
    pub questions: u64,
    /// Feedback rounds sent across completed sessions.
    pub rounds: u64,
    /// Per-request latencies, microseconds, ascending.
    pub latencies_us: Vec<u64>,
    /// Endpoint failovers clients performed mid-session (0 unless a
    /// node died under load).
    pub failovers: u64,
    /// Confirmed turns a promoted follower had never seen (possible
    /// only with `--repl-ack none`).
    pub lost_rounds: u64,
    /// Wall-clock of each successful failover, microseconds, ascending.
    pub failover_latencies_us: Vec<u64>,
    /// Wall-clock for the whole run, milliseconds.
    pub wall_ms: u64,
    /// Order-insensitive digest over every completed session's
    /// transcript (see the module docs).
    pub digest: u64,
    /// The daemon's live statistics, fetched at the end of the run
    /// (`None` when the daemon was already gone).
    pub stats: Option<ServerStats>,
}

impl LoadReport {
    /// Completed sessions per second of wall clock.
    pub fn sessions_per_sec(&self) -> f64 {
        per_sec(self.sessions_completed, self.wall_ms)
    }

    /// Feedback rounds per second of wall clock.
    pub fn rounds_per_sec(&self) -> f64 {
        per_sec(self.rounds, self.wall_ms)
    }

    /// The `p`-th latency percentile, microseconds (0 when no requests
    /// were timed).
    pub fn latency_percentile_us(&self, p: f64) -> u64 {
        percentile(&self.latencies_us, p)
    }

    /// The `p`-th failover-latency percentile, microseconds (0 when no
    /// failover happened).
    pub fn failover_percentile_us(&self, p: f64) -> u64 {
        percentile(&self.failover_latencies_us, p)
    }
}

fn per_sec(count: u64, wall_ms: u64) -> f64 {
    if wall_ms == 0 {
        return 0.0;
    }
    count as f64 * 1000.0 / wall_ms as f64
}

/// The `p`-th percentile (0..=100) of an ascending sample by
/// nearest-rank; 0 on an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[derive(Default)]
struct Tally {
    completed: u64,
    rejected: u64,
    failed: u64,
    questions: u64,
    rounds: u64,
    latencies_us: Vec<u64>,
    failovers: u64,
    lost_rounds: u64,
    failover_latencies_us: Vec<u64>,
    digest: u64,
}

/// Runs the scripted load against a daemon and reports.
pub fn run_load(config: &LoadConfig) -> io::Result<LoadReport> {
    let corpus = build_aep(&AepConfig {
        n_examples: config.n_examples,
        seed: config.corpus_seed,
    });
    let scripts = Arc::new(build_scripts(config, &corpus));
    let next = Arc::new(AtomicUsize::new(0));
    let tally = Arc::new(Mutex::new(Tally::default()));
    let start = Instant::now();

    let workers: Vec<_> = (0..config.concurrency.min(config.sessions))
        .map(|_| {
            let scripts = Arc::clone(&scripts);
            let next = Arc::clone(&next);
            let tally = Arc::clone(&tally);
            let config = config.clone();
            std::thread::spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(script) = scripts.get(idx) else {
                    return;
                };
                let outcome = run_script(&config, script);
                let mut tally = tally
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                match outcome {
                    Ok(Some(done)) => {
                        tally.completed += 1;
                        tally.questions += done.questions;
                        tally.rounds += done.rounds;
                        tally.latencies_us.extend(done.latencies_us);
                        tally.failovers += done.failovers;
                        tally.lost_rounds += done.lost_rounds;
                        tally
                            .failover_latencies_us
                            .extend(done.failover_latencies_us);
                        tally.digest = tally.digest.wrapping_add(done.digest);
                    }
                    Ok(None) => tally.rejected += 1,
                    Err(_) => tally.failed += 1,
                }
            })
        })
        .collect();
    for worker in workers {
        let _ = worker.join();
    }

    let wall_ms = start.elapsed().as_millis() as u64;
    let mut tally = Arc::try_unwrap(tally)
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
        .unwrap_or_default();
    tally.latencies_us.sort_unstable();
    tally.failover_latencies_us.sort_unstable();

    // Live daemon statistics, fetched before any shutdown so the report
    // reflects the run it drove. The first endpoint still standing
    // answers — after a failover that is the promoted follower
    // (best-effort: a cluster that already drained yields `None`, not a
    // failed load).
    let stats = config
        .endpoints()
        .iter()
        .find_map(|endpoint| request_stats(endpoint).ok());
    if config.shutdown {
        // Shut down every reachable endpoint; an already-gone node is
        // fine, but a node that refused the shutdown surfaces.
        let mut last_err = None;
        for endpoint in config.endpoints() {
            if let Err(e) = request_shutdown(&endpoint) {
                last_err = Some(e);
            }
        }
        if let Some(e) = last_err {
            return Err(e);
        }
    }
    Ok(LoadReport {
        sessions_completed: tally.completed,
        sessions_rejected: tally.rejected,
        sessions_failed: tally.failed,
        questions: tally.questions,
        rounds: tally.rounds,
        latencies_us: tally.latencies_us,
        failovers: tally.failovers,
        lost_rounds: tally.lost_rounds,
        failover_latencies_us: tally.failover_latencies_us,
        wall_ms,
        digest: tally.digest,
        stats,
    })
}

struct SessionDone {
    questions: u64,
    rounds: u64,
    latencies_us: Vec<u64>,
    failovers: u64,
    lost_rounds: u64,
    failover_latencies_us: Vec<u64>,
    digest: u64,
}

/// Plays one script end to end. `Ok(None)` means the daemon rejected or
/// drained the connection (backpressure, counted but not an error).
///
/// The session rides a [`FailoverClient`] over the config's endpoint
/// list: with a single endpoint it behaves exactly like the plain
/// client; with several, a node dying mid-script makes the client
/// re-attach to the promoted follower and resume where it left off.
fn run_script(config: &LoadConfig, script: &SessionScript) -> io::Result<Option<SessionDone>> {
    let budget = Duration::from_millis(config.connect_retry_ms);
    let Some(mut client) = FailoverClient::connect(config.endpoints(), budget)? else {
        return Ok(None);
    };
    let mut done = SessionDone {
        questions: 0,
        rounds: 0,
        latencies_us: Vec::new(),
        failovers: 0,
        lost_rounds: 0,
        failover_latencies_us: Vec::new(),
        digest: 0,
    };
    for (question, feedbacks) in &script.questions {
        let t = Instant::now();
        client.ask(question)?;
        done.latencies_us.push(t.elapsed().as_micros() as u64);
        done.questions += 1;
        for feedback in feedbacks {
            let t = Instant::now();
            client.feedback(feedback, None)?;
            done.latencies_us.push(t.elapsed().as_micros() as u64);
            done.rounds += 1;
        }
    }
    let events = client.transcript()?;
    done.digest = transcript_digest(&events);
    client.bye()?;
    done.failovers = client.failovers;
    done.lost_rounds = client.lost_rounds;
    done.failover_latencies_us = std::mem::take(&mut client.failover_latencies_us);
    Ok(Some(done))
}

// ---------------------------------------------------------------------
// Network chaos harness
// ---------------------------------------------------------------------

/// One adversarial client behavior the chaos harness can play.
///
/// Every behavior completes a *legitimate* `Hello` handshake first (so
/// it holds a real admission slot), then turns hostile — the harness
/// exists to prove that misbehaving peers cost the daemon nothing but
/// the slot they were granted, and that the slot always comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosBehavior {
    /// Writes a valid request one byte at a time with a pause between
    /// bytes — the classic slowloris. The daemon's idle clock only
    /// resets on *completed* frames, so the trickle must still be
    /// reaped.
    Slowloris,
    /// Writes half of a valid frame, then drops the connection.
    MidFrameDisconnect,
    /// Writes a length header claiming a frame larger than
    /// [`MAX_FRAME_LEN`].
    Oversized,
    /// Writes a correctly framed payload of non-UTF-8 garbage.
    Garbage,
    /// Completes the handshake, then never sends another byte.
    SilentStall,
    /// Sends a valid `Ask` whose question is about 1 MiB of text with
    /// escapes and multi-byte characters. The JSON decoder is linear, so
    /// the turn costs the daemon time in proportion to its length and
    /// nothing more.
    LongString,
    /// Writes a correctly framed array nested 20,000 levels deep, far
    /// past the JSON parser's depth budget.
    DeepNesting,
}

/// All behaviors, in the order the seeded picker indexes them.
pub const ALL_CHAOS_BEHAVIORS: &[ChaosBehavior] = &[
    ChaosBehavior::Slowloris,
    ChaosBehavior::MidFrameDisconnect,
    ChaosBehavior::Oversized,
    ChaosBehavior::Garbage,
    ChaosBehavior::SilentStall,
    ChaosBehavior::LongString,
    ChaosBehavior::DeepNesting,
];

/// Configuration for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Daemon address, `host:port`.
    pub addr: String,
    /// How many adversarial clients to run (one thread each).
    pub clients: usize,
    /// Seed for the per-client behavior picker and payload choices.
    pub seed: u64,
    /// Behaviors to draw from; defaults to [`ALL_CHAOS_BEHAVIORS`].
    pub behaviors: Vec<ChaosBehavior>,
    /// Pause between bytes for [`ChaosBehavior::Slowloris`].
    pub byte_pause_ms: u64,
    /// Longest any chaos client waits for one server frame. Bound this
    /// above the daemon's idle timeout so stalls observe their reap.
    pub read_deadline_ms: u64,
    /// Budget for retrying refused TCP connects at startup.
    pub connect_retry_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            addr: String::new(),
            clients: 8,
            seed: 0xC4A0,
            behaviors: ALL_CHAOS_BEHAVIORS.to_vec(),
            byte_pause_ms: 40,
            read_deadline_ms: 10_000,
            connect_retry_ms: 2_000,
        }
    }
}

/// How the chaos clients fared — every client lands in exactly one
/// bucket besides `clients` and `admitted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Clients launched.
    pub clients: u64,
    /// Clients whose handshake was admitted (granted a slot).
    pub admitted: u64,
    /// Clients refused at the handshake (admission backpressure or an
    /// unwritable store).
    pub rejected: u64,
    /// Clients that observed their own reap (a typed `Reaped` frame).
    pub reaped: u64,
    /// Hostile frames answered with a typed `Error` frame.
    pub refused: u64,
    /// Connections that ended with a raw socket drop (ours or the
    /// daemon's) instead of a typed frame.
    pub disconnected: u64,
    /// Hostile clients the daemon nonetheless served a normal turn.
    pub served: u64,
    /// Anything else — handshake transport errors, unexpected frames.
    /// A healthy chaos run keeps this at zero.
    pub failed: u64,
}

/// What one chaos client's hostility resolved to.
enum ChaosOutcome {
    Rejected,
    Reaped,
    Refused,
    Disconnected,
    Served,
    Failed,
}

/// Runs `config.clients` adversarial clients against a daemon and
/// tallies how each one was put down. Deterministic in the seed up to
/// scheduling: the behavior each client plays is a pure function of
/// `(seed, client index)`.
pub fn run_chaos(config: &ChaosConfig) -> io::Result<ChaosReport> {
    if config.behaviors.is_empty() || config.clients == 0 {
        return Ok(ChaosReport::default());
    }
    let report = Arc::new(Mutex::new(ChaosReport::default()));
    let workers: Vec<_> = (0..config.clients)
        .map(|i| {
            let config = config.clone();
            let report = Arc::clone(&report);
            std::thread::spawn(move || {
                let mut rng =
                    StdRng::seed_from_u64(config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
                let behavior = config.behaviors[rng.gen_range(0..config.behaviors.len())];
                let outcome = run_chaos_client(&config, behavior, &mut rng);
                let mut report = report
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                report.clients += 1;
                match outcome {
                    ChaosOutcome::Rejected => report.rejected += 1,
                    ChaosOutcome::Reaped => {
                        report.admitted += 1;
                        report.reaped += 1;
                    }
                    ChaosOutcome::Refused => {
                        report.admitted += 1;
                        report.refused += 1;
                    }
                    ChaosOutcome::Disconnected => {
                        report.admitted += 1;
                        report.disconnected += 1;
                    }
                    ChaosOutcome::Served => {
                        report.admitted += 1;
                        report.served += 1;
                    }
                    ChaosOutcome::Failed => report.failed += 1,
                }
            })
        })
        .collect();
    for worker in workers {
        let _ = worker.join();
    }
    Ok(Arc::try_unwrap(report)
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
        .unwrap_or_default())
}

/// Serializes one request into its exact wire bytes (header + body).
fn encode_frame(request: &ClientRequest) -> Vec<u8> {
    let mut bytes = Vec::new();
    // Infallible in practice: writing to a Vec cannot fail, and every
    // `ClientRequest` variant is plain-data serde (no maps with
    // non-string keys, no custom Serialize impls that can error).
    write_frame(&mut bytes, request).expect("a request frame serializes");
    bytes
}

/// Puts a length header in front of a raw body.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(body);
    frame
}

fn chaos_deadline(config: &ChaosConfig) -> Instant {
    Instant::now() + Duration::from_millis(config.read_deadline_ms)
}

/// Connects, completes a legitimate handshake, then plays `behavior`.
fn run_chaos_client(
    config: &ChaosConfig,
    behavior: ChaosBehavior,
    rng: &mut StdRng,
) -> ChaosOutcome {
    let connect_deadline = Instant::now() + Duration::from_millis(config.connect_retry_ms);
    let mut stream = loop {
        match TcpStream::connect(config.addr.as_str()) {
            Ok(stream) => break stream,
            Err(_) if Instant::now() < connect_deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => return ChaosOutcome::Failed,
        }
    };
    if stream.set_nodelay(true).is_err()
        || stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .is_err()
    {
        return ChaosOutcome::Failed;
    }
    let hello = ClientRequest::Hello {
        version: PROTOCOL_VERSION,
        resume: None,
    };
    if write_frame(&mut stream, &hello).is_err() {
        return ChaosOutcome::Failed;
    }
    match read_frame_deadline::<_, ServerResponse>(&mut stream, chaos_deadline(config), true) {
        Ok(Some(ServerResponse::Welcome { .. })) => {}
        Ok(Some(ServerResponse::Rejected { .. } | ServerResponse::ShuttingDown)) => {
            return ChaosOutcome::Rejected;
        }
        _ => return ChaosOutcome::Failed,
    }

    let ask = ClientRequest::Ask {
        question: format!("chaos question {}", rng.gen_range(0..1000u32)),
    };
    match behavior {
        ChaosBehavior::Slowloris => {
            let frame = encode_frame(&ask);
            for &byte in &frame {
                if stream.write_all(&[byte]).is_err() {
                    // The daemon reaped us mid-trickle and closed the
                    // socket; the write side saw it first.
                    return ChaosOutcome::Disconnected;
                }
                std::thread::sleep(Duration::from_millis(config.byte_pause_ms));
            }
            // Outran the idle clock: the turn counts as served.
            await_turn(&mut stream, config)
        }
        ChaosBehavior::MidFrameDisconnect => {
            let frame = encode_frame(&ask);
            let half = (frame.len() / 2).max(5);
            let _ = stream.write_all(&frame[..half.min(frame.len())]);
            drop(stream);
            ChaosOutcome::Disconnected
        }
        ChaosBehavior::Oversized => {
            let header = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
            expect_refusal(&mut stream, &header, config)
        }
        ChaosBehavior::Garbage => {
            let body: Vec<u8> = (0..64).map(|_| rng.gen_range(0x80..=0xFFu8)).collect();
            expect_refusal(&mut stream, &framed(&body), config)
        }
        ChaosBehavior::SilentStall => expect_refusal(&mut stream, &[], config),
        ChaosBehavior::LongString => {
            let unit = format!(
                "chaos question {} with \"quotes\", a \\ and ✓ ünïcödé\n",
                rng.gen_range(0..1000u32)
            );
            let question = unit.repeat((1 << 20) / unit.len());
            if stream
                .write_all(&encode_frame(&ClientRequest::Ask { question }))
                .is_err()
            {
                return ChaosOutcome::Disconnected;
            }
            await_turn(&mut stream, config)
        }
        ChaosBehavior::DeepNesting => {
            let depth = 20_000;
            let mut body = vec![b'['; depth];
            body.resize(2 * depth, b']');
            expect_refusal(&mut stream, &framed(&body), config)
        }
    }
}

/// Writes bytes the daemon must not serve (none, for a stall) and
/// classifies its answer; a served turn would mean it accepted them.
fn expect_refusal(stream: &mut TcpStream, bytes: &[u8], config: &ChaosConfig) -> ChaosOutcome {
    if stream.write_all(bytes).is_err() {
        return ChaosOutcome::Disconnected;
    }
    match read_verdict(stream, config) {
        Verdict::Error => ChaosOutcome::Refused,
        Verdict::Reaped => ChaosOutcome::Reaped,
        Verdict::Gone => ChaosOutcome::Disconnected,
        Verdict::Turn => ChaosOutcome::Failed,
    }
}

/// Classifies the daemon's answer to a request it may legitimately
/// serve. A served turn closes politely, so the session does not read as
/// a casualty.
fn await_turn(stream: &mut TcpStream, config: &ChaosConfig) -> ChaosOutcome {
    match read_verdict(stream, config) {
        Verdict::Reaped => ChaosOutcome::Reaped,
        Verdict::Error => ChaosOutcome::Refused,
        Verdict::Turn => {
            let _ = write_frame(stream, &ClientRequest::Bye);
            let _ = read_frame_deadline::<_, ServerResponse>(stream, chaos_deadline(config), true);
            ChaosOutcome::Served
        }
        Verdict::Gone => ChaosOutcome::Disconnected,
    }
}

/// What the daemon's next frame (or lack of one) said about us.
enum Verdict {
    Reaped,
    Error,
    Turn,
    Gone,
}

fn read_verdict(stream: &mut TcpStream, config: &ChaosConfig) -> Verdict {
    match read_frame_deadline::<_, ServerResponse>(stream, chaos_deadline(config), true) {
        Ok(Some(ServerResponse::Reaped { .. })) => Verdict::Reaped,
        Ok(Some(ServerResponse::Error { .. })) => Verdict::Error,
        Ok(Some(ServerResponse::Turn { .. })) => Verdict::Turn,
        _ => Verdict::Gone,
    }
}

/// FNV-64 over the serialized event stream — one session's contribution
/// to the order-insensitive load digest.
pub fn transcript_digest(events: &[crate::session::SessionEvent]) -> u64 {
    // Infallible in practice: `SessionEvent` is plain-data serde (the
    // same serialization every wire frame carrying events relies on).
    let json = serde_json::to_vec(events).expect("session events serialize");
    let mut fp = Fnv64::new();
    fp.update(&json);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        build_aep(&AepConfig {
            n_examples: 20,
            seed: 0xC11,
        })
    }

    #[test]
    fn scripts_are_deterministic_in_the_seed() {
        let config = LoadConfig {
            sessions: 8,
            ..LoadConfig::default()
        };
        let corpus = corpus();
        let a = build_scripts(&config, &corpus);
        let b = build_scripts(&config, &corpus);
        assert_eq!(a, b);
        let other = build_scripts(
            &LoadConfig {
                seed: config.seed + 1,
                ..config
            },
            &corpus,
        );
        assert_ne!(a, other);
    }

    #[test]
    fn scripts_respect_the_round_bound() {
        let config = LoadConfig {
            sessions: 16,
            max_rounds: 2,
            ..LoadConfig::default()
        };
        for script in build_scripts(&config, &corpus()) {
            assert!(!script.questions.is_empty());
            for (question, feedbacks) in &script.questions {
                assert!(!question.is_empty());
                assert!((1..=2).contains(&feedbacks.len()));
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 50.0), 50);
        assert_eq!(percentile(&sample, 99.0), 99);
        assert_eq!(percentile(&sample, 100.0), 100);
        assert_eq!(percentile(&sample, 0.0), 1);
    }

    #[test]
    fn chaos_behavior_choice_is_a_pure_function_of_seed_and_index() {
        let pick = |seed: u64, i: u64| {
            let mut rng = StdRng::seed_from_u64(seed ^ i.wrapping_mul(0x9E37_79B9));
            ALL_CHAOS_BEHAVIORS[rng.gen_range(0..ALL_CHAOS_BEHAVIORS.len())]
        };
        for i in 0..32 {
            assert_eq!(pick(0xC4A0, i), pick(0xC4A0, i));
        }
        // The pool actually mixes: some pair of clients differs.
        assert!((1..32).any(|i| pick(0xC4A0, i) != pick(0xC4A0, 0)));
    }

    #[test]
    fn chaos_run_with_no_clients_is_empty() {
        let report = run_chaos(&ChaosConfig {
            clients: 0,
            ..ChaosConfig::default()
        })
        .unwrap();
        assert_eq!(report, ChaosReport::default());
    }

    #[test]
    fn digest_is_order_insensitive_across_sessions() {
        let a = transcript_digest(&[crate::session::SessionEvent::User("a".into())]);
        let b = transcript_digest(&[crate::session::SessionEvent::User("b".into())]);
        assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
        assert_ne!(a, b);
    }
}
