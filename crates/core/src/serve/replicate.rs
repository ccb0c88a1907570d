//! Hot-standby replication: journal shipping, fencing epochs, and
//! promotion (DESIGN.md §17).
//!
//! A **primary** daemon streams its session-store records — the same
//! `(session_id, SessionOp)` units the store journals write-ahead — to
//! one or more **followers** over a second length-prefixed channel
//! (`--repl-listen` on the primary, `--replica-of` on the follower).
//! A follower applies each record through
//! [`SessionStore::apply_replicated`], which feeds the exact replay path
//! a restart uses, so the follower's in-memory session image tracks the
//! primary byte-identically: when a client re-attaches after failover,
//! the promoted follower replays the shipped ops into the same
//! transcript the primary would have produced.
//!
//! # The replication log
//!
//! [`ReplLog`] is the logical op stream since store lineage began:
//! every store append lands in it (metadata records — checkpoints,
//! epochs — never do), and its index is the shipping sequence number.
//! It is deliberately independent of the on-disk journal: compaction
//! rewrites the file but never renumbers the *live* stream, so a
//! follower can catch up across a primary compaction without
//! resynchronization. A node boots its log from the store's surviving
//! ops — which means a restart *after* a compaction renumbers the
//! stream (the dropped ops are gone), so raw record counts are **not**
//! trusted across reconnects. Every stream position carries a rolling
//! **lineage hash** of the records before it; the handshake exchanges
//! `(have, have_hash)` and the primary verifies the follower's prefix
//! is byte-identical to its own before resuming shipping there. On any
//! mismatch — a renumbered stream, a fenced ex-primary rejoining with
//! divergent history, ops lost to a degraded disk — the primary answers
//! [`ReplFrame::Resync`] instead of silently skipping records: the
//! follower resets its store to an empty image (keeping its fencing
//! epoch) and re-bootstraps from sequence zero. Only a node that ships
//! (`--repl-listen`) or follows (`--replica-of`) keeps a log; a plain
//! daemon's stays empty and unattached.
//!
//! # Fencing
//!
//! Every store carries a monotonic **epoch**, persisted as a metadata
//! record (see [`SessionOp::Epoch`](super::store::SessionOp)) and bumped
//! on every promotion. The handshake exchanges epochs, and the rule is
//! one-directional: whoever sees a *higher* epoch than its own knows it
//! has been deposed. A promoted follower sends a best-effort fencing
//! notice to its old primary; a deposed primary flips
//! [`ReplState::fenced`] and answers every subsequent write attempt with
//! a typed [`Fenced`](super::protocol::ServerResponse::Fenced) response
//! instead of silently diverging its store.
//!
//! # Acknowledgement modes
//!
//! With `--repl-ack quorum`, the serving loop release-gates every
//! state-changing response on follower durability: the response is not
//! written until a majority of the *connected* followers (at least one)
//! has acknowledged the record the request itself appended — so while a
//! follower is connected, a round the client saw acknowledged is never
//! lost to a primary crash. With **zero** followers connected the
//! quorum is *not* trivially satisfied: the gate blocks for one full
//! ack timeout (giving a follower the chance to reconnect), and only
//! then does the node enter a counted **degraded-async** state —
//! subsequent responses are released immediately (each counted in
//! `repl_ack_timeouts`, the entry in `repl_ack_degraded_entries`) until
//! a follower reconnects, which re-arms the gate. Rounds released while
//! degraded ride at the same risk as `--repl-ack none`; the counters
//! make that window observable instead of silent. With `--repl-ack
//! none`, shipping is asynchronous and the tail of the stream rides at
//! risk (the `run_failover` harness measures exactly that trade).
//!
//! # The partition caveat
//!
//! Auto-promotion fires on *link loss*, which a network partition is
//! indistinguishable from: a partitioned-but-alive primary keeps
//! serving while the follower promotes itself, and the promoted node's
//! fencing notice cannot cross the partition — both sides accept writes
//! at different epochs until the partition heals and the old primary
//! hears the higher epoch (at which point it fences and refuses further
//! writes, but the divergence already happened). Quorum acks bound the
//! damage — the partitioned primary stalls one ack timeout and then
//! only releases counted degraded responses — but do not prevent it.
//! Deployments where partitions are plausible should run
//! `--no-auto-promote` and promote through the admin `Promote` request
//! instead.

use super::protocol::{read_frame, read_frame_deadline, write_frame};
use super::server::accept_until_stopped;
use super::store::{Appended, SessionOp, SessionStore};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Replication wire-protocol version (independent of the client
/// protocol's version).
pub const REPL_PROTOCOL_VERSION: u32 = 1;

/// Poll tick for the replication links: how quickly shutdown, new
/// records, and link loss are observed (the acceptor blocks instead).
const REPL_POLL: Duration = Duration::from_millis(10);

/// A primary sends a heartbeat after this long without records, so a
/// quiet stream still proves the link is alive.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(500);

/// A follower declares the link dead after this long without a frame
/// (heartbeats make this a true failure detector, not a quiet stream).
const LINK_TIMEOUT: Duration = Duration::from_secs(5);

/// Handshake bound: how long either side waits for the peer's first
/// frame.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Records shipped per batch before acks are drained again.
const SHIP_BATCH: usize = 256;

/// Seed of the rolling lineage hash (FNV-1a offset basis): the hash of
/// the empty stream prefix.
pub const LINEAGE_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a pass over `bytes`, continuing from `hash`.
fn fnv_mix(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Extends the rolling lineage hash by one record. Two nodes hold the
/// same hash at position `n` iff their first `n` records are
/// byte-identical — which is what makes a `(have, have_hash)` pair a
/// trustworthy resume point where a raw count is not.
fn record_hash(prev: u64, session_id: u64, op: &SessionOp) -> u64 {
    // Infallible in practice: `SessionOp` is plain-data serde (no maps
    // with non-string keys, no fallible Serialize impls).
    let body = serde_json::to_vec(op).expect("a SessionOp serializes");
    fnv_mix(fnv_mix(prev, &session_id.to_le_bytes()), &body)
}

/// Which role a serving node is currently playing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Accepting sessions and (when configured) shipping to followers.
    #[default]
    Primary,
    /// Standing by: applying the primary's stream, refusing sessions
    /// until promoted.
    Follower,
    /// A deposed ex-primary: a higher epoch exists, so every write
    /// attempt gets a typed refusal.
    Fenced,
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Role::Primary => "primary",
            Role::Follower => "follower",
            Role::Fenced => "fenced",
        })
    }
}

/// When the primary releases a state-changing response to the client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AckMode {
    /// Immediately after local execution; shipping is asynchronous.
    #[default]
    None,
    /// After a majority of the connected followers (at least one) has
    /// acknowledged every record the request journaled.
    Quorum,
}

impl FromStr for AckMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(AckMode::None),
            "quorum" => Ok(AckMode::Quorum),
            other => Err(format!("unknown ack mode {other:?} (none|quorum)")),
        }
    }
}

impl std::fmt::Display for AckMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AckMode::None => "none",
            AckMode::Quorum => "quorum",
        })
    }
}

/// One replication-channel frame (either direction), carried by the same
/// length-prefixed JSON codec the client protocol uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplFrame {
    /// Follower → primary: opens the stream.
    Hello {
        /// The follower's [`REPL_PROTOCOL_VERSION`].
        version: u32,
        /// The follower's store fingerprint; a mismatch is refused (the
        /// stores would replay into different transcripts).
        fingerprint: u64,
        /// The follower's fencing epoch. Higher than the primary's means
        /// the "primary" is deposed — this frame doubles as the fencing
        /// notice a promoted follower sends its old primary.
        epoch: u64,
        /// Records the follower already holds; shipping resumes there.
        have: u64,
        /// The follower's rolling lineage hash at `have` (see
        /// [`LINEAGE_HASH_SEED`]). The primary refuses to resume from a
        /// raw count whose prefix it cannot prove byte-identical to its
        /// own stream — a compaction-then-restart renumbers the stream,
        /// and trusting `have` across that would silently skip records.
        have_hash: u64,
    },
    /// Primary → follower: the stream is open.
    Welcome {
        /// The primary's fencing epoch (the follower adopts it).
        epoch: u64,
        /// The primary's current stream length.
        tail: u64,
    },
    /// Either direction: the receiver's epoch is stale; it must stop
    /// writing and rejoin as a follower.
    Fenced {
        /// The higher epoch that deposed it.
        epoch: u64,
    },
    /// The handshake was refused for a non-epoch reason (version or
    /// fingerprint mismatch).
    Refused {
        /// Human-readable reason.
        message: String,
    },
    /// Primary → follower: the follower's `(have, have_hash)` does not
    /// name a prefix of the primary's stream — the stream was renumbered
    /// (compaction + restart) or the stores diverged (e.g. a deposed
    /// ex-primary rejoining). The follower must reset to an empty store
    /// image and re-handshake from sequence zero; resuming by count
    /// would skip records while still acknowledging them.
    Resync {
        /// Human-readable reason.
        message: String,
    },
    /// Primary → follower: one record of the op stream.
    Ship {
        /// Stream index of this record.
        seq: u64,
        /// The session the op belongs to.
        session_id: u64,
        /// The op itself — the same unit the store journals.
        op: SessionOp,
    },
    /// Primary → follower: the link is alive; `tail` lets an idle
    /// follower measure lag.
    Heartbeat {
        /// The primary's current stream length.
        tail: u64,
    },
    /// Follower → primary: every record below `upto` is durably applied.
    Ack {
        /// Exclusive upper bound of the acknowledged prefix.
        upto: u64,
    },
}

#[derive(Debug, Default)]
struct LogInner {
    /// The logical op stream; index = shipping sequence number.
    records: Vec<(u64, SessionOp)>,
    /// `hashes[i]` = rolling lineage hash of the prefix of length
    /// `i + 1` (the hash of the empty prefix is [`LINEAGE_HASH_SEED`]).
    hashes: Vec<u64>,
    /// Per-connected-follower acknowledged prefix length.
    followers: HashMap<u64, u64>,
    next_follower: u64,
    /// Ship frames written across all followers (stats).
    shipped: u64,
    /// Test/chaos hook: while held, shippers stop sending (acks still
    /// drain), so replication lag builds deterministically.
    held: bool,
}

impl LogInner {
    /// Appends one record, extending the lineage hash; returns the new
    /// stream length.
    fn push(&mut self, session_id: u64, op: SessionOp) -> u64 {
        let prev = self.hashes.last().copied().unwrap_or(LINEAGE_HASH_SEED);
        self.hashes.push(record_hash(prev, session_id, &op));
        self.records.push((session_id, op));
        self.records.len() as u64
    }
}

/// The in-memory logical op stream and follower-acknowledgement state
/// (see the module docs).
#[derive(Debug, Default)]
pub struct ReplLog {
    inner: Mutex<LogInner>,
    /// Signalled when records are appended.
    grew: Condvar,
    /// Signalled when a follower acknowledges.
    acked: Condvar,
}

impl ReplLog {
    /// An empty log.
    pub fn new() -> ReplLog {
        ReplLog::default()
    }

    /// A log seeded with a store's surviving ops. Counts (and lineage
    /// hashes) stay comparable across a restart only while nothing was
    /// compacted away; the handshake's hash check is what catches the
    /// renumbered case.
    pub fn preloaded(records: Vec<(u64, SessionOp)>) -> ReplLog {
        let mut inner = LogInner::default();
        for (session_id, op) in records {
            inner.push(session_id, op);
        }
        ReplLog {
            inner: Mutex::new(inner),
            ..ReplLog::default()
        }
    }

    fn lock(&self) -> MutexGuard<'_, LogInner> {
        // Poison tolerance mirrors the store's: the log is a Vec and two
        // maps, all well-formed at every await point.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one record; returns the stream length after it.
    pub fn append(&self, session_id: u64, op: SessionOp) -> u64 {
        let mut inner = self.lock();
        let tail = inner.push(session_id, op);
        drop(inner);
        self.grew.notify_all();
        tail
    }

    /// The stream length (the next record's sequence number).
    pub fn tail(&self) -> u64 {
        self.lock().records.len() as u64
    }

    /// The rolling lineage hash of the first `n` records — `None` when
    /// the stream is shorter than `n`, i.e. `n` is not a position this
    /// log can vouch for.
    pub fn prefix_hash(&self, n: u64) -> Option<u64> {
        if n == 0 {
            return Some(LINEAGE_HASH_SEED);
        }
        let inner = self.lock();
        inner.hashes.get(n as usize - 1).copied()
    }

    /// Empties the stream (records and hashes; connected-follower state
    /// is untouched) — the follower side of a [`ReplFrame::Resync`],
    /// invoked through [`SessionStore::reset_for_resync`].
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.records.clear();
        inner.hashes.clear();
        drop(inner);
        self.grew.notify_all();
    }

    /// A batch of records starting at `from` (empty while shipping is
    /// held, or when `from` is at or past the tail).
    pub fn records_from(&self, from: u64, max: usize) -> Vec<(u64, u64, SessionOp)> {
        let inner = self.lock();
        if inner.held {
            return Vec::new();
        }
        inner
            .records
            .iter()
            .enumerate()
            .skip(from as usize)
            .take(max)
            .map(|(seq, (id, op))| (seq as u64, *id, op.clone()))
            .collect()
    }

    /// Registers a follower connection whose acknowledged prefix starts
    /// at `have`; returns its id for [`ReplLog::ack`].
    pub fn register(&self, have: u64) -> u64 {
        let mut inner = self.lock();
        let id = inner.next_follower;
        inner.next_follower += 1;
        inner.followers.insert(id, have);
        drop(inner);
        // A registration can satisfy (or change) quorum for waiters.
        self.acked.notify_all();
        id
    }

    /// Drops a follower connection from the quorum.
    pub fn deregister(&self, id: u64) {
        self.lock().followers.remove(&id);
        self.acked.notify_all();
    }

    /// Records a follower's acknowledged prefix (monotonic).
    pub fn ack(&self, id: u64, upto: u64) {
        let mut inner = self.lock();
        if let Some(slot) = inner.followers.get_mut(&id) {
            *slot = (*slot).max(upto);
        }
        drop(inner);
        self.acked.notify_all();
    }

    /// Counts one shipped record batch (stats).
    pub fn note_shipped(&self, n: u64) {
        self.lock().shipped += n;
    }

    /// Ship frames written across all followers since boot.
    pub fn shipped(&self) -> u64 {
        self.lock().shipped
    }

    /// Connected followers.
    pub fn followers(&self) -> usize {
        self.lock().followers.len()
    }

    /// Records not yet acknowledged by the slowest connected follower
    /// (0 with no followers: nothing is owed).
    pub fn lag(&self) -> u64 {
        let inner = self.lock();
        let tail = inner.records.len() as u64;
        inner
            .followers
            .values()
            .map(|acked| tail.saturating_sub(*acked))
            .max()
            .unwrap_or(0)
    }

    /// The prefix length acknowledged by a majority of the connected
    /// followers. With **none** connected nothing is durable anywhere
    /// else, so the answer is 0 — the gate (not this function) decides
    /// how to degrade after the ack timeout.
    fn quorum_acked(inner: &LogInner) -> u64 {
        let followers = inner.followers.len();
        if followers == 0 {
            return 0;
        }
        let mut acks: Vec<u64> = inner.followers.values().copied().collect();
        acks.sort_unstable_by(|a, b| b.cmp(a));
        // Majority of the replica set including the primary itself:
        // (followers + 1 primary) / 2 + 1 nodes, minus the primary.
        let needed = followers.div_ceil(2);
        acks[needed - 1]
    }

    /// Blocks until a follower majority has acknowledged `upto` records,
    /// the deadline passes, or `running` flips false. Returns whether
    /// the quorum was reached.
    pub fn wait_quorum(&self, upto: u64, deadline: Instant, running: &AtomicBool) -> bool {
        let mut inner = self.lock();
        loop {
            if Self::quorum_acked(&inner) >= upto {
                return true;
            }
            if !running.load(Ordering::Acquire) || Instant::now() >= deadline {
                return false;
            }
            let (guard, _) = self
                .acked
                .wait_timeout(inner, REPL_POLL)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    /// Blocks until the stream grows past `from` or the timeout passes.
    fn wait_grow(&self, from: u64, timeout: Duration) {
        let inner = self.lock();
        if inner.records.len() as u64 > from && !inner.held {
            return;
        }
        let _ = self
            .grew
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// Test/chaos hook: pauses (or resumes) shipping so replication lag
    /// builds deterministically. Acks keep draining.
    pub fn hold(&self, held: bool) {
        self.lock().held = held;
        self.grew.notify_all();
    }
}

/// Shared replication state: the log, the fencing epoch, and the node's
/// current role. Present (and inert, with an empty log) even when
/// replication is disabled, so the serving loop has one code path.
#[derive(Debug)]
pub struct ReplState {
    /// The logical op stream (see [`ReplLog`]).
    pub log: Arc<ReplLog>,
    store: Arc<SessionStore>,
    epoch: AtomicU64,
    follower: AtomicBool,
    fenced: AtomicBool,
    /// The higher epoch that fenced this node (0 while unfenced).
    fenced_by: AtomicU64,
    /// When state-changing responses are released (see [`AckMode`]).
    pub ack: AckMode,
    /// Longest one response waits for follower acknowledgement before
    /// being released anyway (counted in `ack_timeouts`).
    pub ack_timeout_ms: u64,
    ack_timeouts: AtomicU64,
    /// Quorum gating is degraded to counted-async: zero followers were
    /// connected for a full ack timeout. Cleared when one reconnects.
    ack_degraded: AtomicBool,
    ack_degraded_entries: AtomicU64,
}

impl ReplState {
    /// Builds the node's replication state over its store. A node that
    /// ships or follows (`replicated`) seeds its log from the store's
    /// surviving ops and attaches it so every subsequent append flows
    /// into it; any other node keeps an empty, unattached log, since no
    /// follower can ever read it.
    pub fn new(
        store: Arc<SessionStore>,
        follower: bool,
        replicated: bool,
        ack: AckMode,
        ack_timeout_ms: u64,
    ) -> Arc<ReplState> {
        let log = if replicated {
            let log = Arc::new(ReplLog::preloaded(store.replication_image()));
            store.attach_repl(Arc::clone(&log));
            log
        } else {
            Arc::new(ReplLog::new())
        };
        Arc::new(ReplState {
            log,
            epoch: AtomicU64::new(store.epoch()),
            store,
            follower: AtomicBool::new(follower),
            fenced: AtomicBool::new(false),
            fenced_by: AtomicU64::new(0),
            ack,
            ack_timeout_ms,
            ack_timeouts: AtomicU64::new(0),
            ack_degraded: AtomicBool::new(false),
            ack_degraded_entries: AtomicU64::new(0),
        })
    }

    /// The node's fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether a higher epoch has deposed this node.
    pub fn fenced(&self) -> bool {
        self.fenced.load(Ordering::Acquire)
    }

    /// The epoch that fenced this node (0 while unfenced).
    pub fn fenced_by(&self) -> u64 {
        self.fenced_by.load(Ordering::Acquire)
    }

    /// Whether the node is standing by as a follower.
    pub fn is_follower(&self) -> bool {
        self.follower.load(Ordering::Acquire)
    }

    /// The current role.
    pub fn role(&self) -> Role {
        if self.fenced() {
            Role::Fenced
        } else if self.is_follower() {
            Role::Follower
        } else {
            Role::Primary
        }
    }

    /// Whether `Hello` must be refused (followers and fenced nodes do
    /// not open sessions).
    pub fn refuses_sessions(&self) -> bool {
        self.is_follower() || self.fenced()
    }

    /// Marks the node deposed by `epoch`. Idempotent; the epoch itself
    /// is *not* adopted or persisted — a fenced node writes nothing.
    pub fn fence(&self, epoch: u64) {
        self.fenced_by.fetch_max(epoch, Ordering::AcqRel);
        self.fenced.store(true, Ordering::Release);
    }

    /// Promotes the node to primary: bumps the epoch past everything it
    /// has seen, persists it in the store, and starts accepting
    /// sessions. A fenced node refuses (it must rejoin as a follower
    /// under the new primary instead of forking history).
    pub fn promote(&self) -> io::Result<u64> {
        if self.fenced() {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!(
                    "node is fenced (deposed by epoch {}); rejoin as a follower instead of promoting",
                    self.fenced_by()
                ),
            ));
        }
        let epoch = self.epoch().max(self.fenced_by()) + 1;
        self.store.set_epoch(epoch)?;
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
        self.follower.store(false, Ordering::Release);
        Ok(epoch)
    }

    /// Adopts a primary's (equal-or-higher) epoch, persisting it.
    pub fn adopt_epoch(&self, epoch: u64) -> io::Result<()> {
        if epoch > self.epoch() {
            self.store.set_epoch(epoch)?;
            self.epoch.fetch_max(epoch, Ordering::AcqRel);
        }
        Ok(())
    }

    /// Release-gates one state-changing response on follower durability
    /// of the records the request itself appended — `upto` is the
    /// stream length right after that append (0 = the request appended
    /// nothing; nothing to gate). No-op under [`AckMode::None`].
    ///
    /// A timeout releases the response anyway — the client must not
    /// hang on a dead follower — and is counted. When the timeout fires
    /// with **zero** followers connected, the node additionally enters
    /// *degraded-async* mode: until a follower reconnects (which
    /// re-arms the gate), subsequent responses are released immediately
    /// but still counted in `ack_timeouts`, so the no-durability window
    /// is observable rather than a silent trivial pass.
    pub fn quorum_gate(&self, upto: u64, running: &AtomicBool) {
        if self.ack != AckMode::Quorum || upto == 0 {
            return;
        }
        if self.log.followers() > 0 {
            // A follower is back: leave degraded-async mode and gate
            // for real again.
            self.ack_degraded.store(false, Ordering::Release);
        } else if self.ack_degraded.load(Ordering::Acquire) {
            // Already degraded: zero followers have cost a full ack
            // timeout once; stalling every subsequent response would
            // add latency without adding durability.
            self.ack_timeouts.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let deadline = Instant::now() + Duration::from_millis(self.ack_timeout_ms);
        if !self.log.wait_quorum(upto, deadline, running) {
            self.ack_timeouts.fetch_add(1, Ordering::Relaxed);
            if self.log.followers() == 0 && !self.ack_degraded.swap(true, Ordering::AcqRel) {
                self.ack_degraded_entries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Responses released on an ack timeout (or while degraded-async)
    /// instead of follower durability.
    pub fn ack_timeouts(&self) -> u64 {
        self.ack_timeouts.load(Ordering::Relaxed)
    }

    /// Whether quorum gating is currently degraded to counted-async
    /// (zero followers connected for at least one full ack timeout).
    pub fn ack_degraded(&self) -> bool {
        self.ack_degraded.load(Ordering::Acquire)
    }

    /// Times the node entered degraded-async gating since boot.
    pub fn ack_degraded_entries(&self) -> u64 {
        self.ack_degraded_entries.load(Ordering::Relaxed)
    }

    /// Resets this node's store to an empty image — the follower side
    /// of a [`ReplFrame::Resync`]. The fencing epoch survives; every
    /// record does not (the primary re-ships its whole image from
    /// sequence zero).
    pub fn resync(&self) -> io::Result<()> {
        self.store.reset_for_resync()
    }
}

// ---------------------------------------------------------------------
// Primary side: the replication acceptor and per-follower shippers
// ---------------------------------------------------------------------

/// Accepts follower connections and spawns one shipper per follower.
/// Runs until `running` flips false (the daemon's stop routine wakes the
/// blocked accept).
pub fn run_repl_acceptor(
    listener: TcpListener,
    repl: Arc<ReplState>,
    running: Arc<AtomicBool>,
    fingerprint: u64,
) {
    // A failed accept ends the acceptor; its shippers still run until
    // the daemon stops.
    let (shippers, _ended) = accept_until_stopped(&listener, &running, |stream| {
        let repl = Arc::clone(&repl);
        let running = Arc::clone(&running);
        std::thread::spawn(move || run_shipper(stream, &repl, &running, fingerprint))
    });
    for shipper in shippers {
        let _ = shipper.join();
    }
}

/// Serves one follower connection: handshake, then ship-and-drain until
/// the link drops, the daemon stops, or this node is fenced.
fn run_shipper(mut stream: TcpStream, repl: &ReplState, running: &AtomicBool, fingerprint: u64) {
    if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(REPL_POLL)).is_err() {
        return;
    }
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let hello = match read_frame_deadline::<_, ReplFrame>(&mut stream, deadline, true) {
        Ok(Some(ReplFrame::Hello {
            version,
            fingerprint: fp,
            epoch,
            have,
            have_hash,
        })) => {
            if version != REPL_PROTOCOL_VERSION {
                let _ = write_frame(
                    &mut stream,
                    &ReplFrame::Refused {
                        message: format!(
                            "replication protocol {version} unsupported (speaking {REPL_PROTOCOL_VERSION})"
                        ),
                    },
                );
                return;
            }
            if fp != fingerprint {
                let _ = write_frame(
                    &mut stream,
                    &ReplFrame::Refused {
                        message: format!(
                            "store fingerprint mismatch: follower {fp:#018x}, primary {fingerprint:#018x}"
                        ),
                    },
                );
                return;
            }
            (epoch, have, have_hash)
        }
        _ => return,
    };
    let (peer_epoch, have, have_hash) = hello;
    if peer_epoch > repl.epoch() {
        // The peer out-epochs us: we are the deposed one. Fence and say
        // so — this is the promoted follower's fencing notice landing.
        repl.fence(peer_epoch);
        let _ = write_frame(&mut stream, &ReplFrame::Fenced { epoch: peer_epoch });
        return;
    }
    // Lineage check: `have` is a trustworthy resume point only if the
    // follower's first `have` records are byte-identical to ours. A
    // compaction followed by a restart renumbers this node's stream, and
    // a fenced ex-primary rejoins with divergent history — in both
    // cases resuming by raw count would skip genuinely new records
    // while the follower still acknowledged them (silent acked data
    // loss). Refuse and demand a resync instead.
    match repl.log.prefix_hash(have) {
        Some(hash) if hash == have_hash => {}
        _ => {
            let _ = write_frame(
                &mut stream,
                &ReplFrame::Resync {
                    message: format!(
                        "stream lineage mismatch at record {have} (primary tail {}): the \
                         op stream was renumbered or diverged; reset to an empty store \
                         image and re-handshake from sequence zero",
                        repl.log.tail()
                    ),
                },
            );
            return;
        }
    }
    if write_frame(
        &mut stream,
        &ReplFrame::Welcome {
            epoch: repl.epoch(),
            tail: repl.log.tail(),
        },
    )
    .is_err()
    {
        return;
    }

    let id = repl.log.register(have);
    let mut sent = have;
    let mut last_write = Instant::now();
    loop {
        if !running.load(Ordering::Acquire) || repl.fenced() {
            break;
        }
        // Drain acknowledgements (non-blocking: the socket's poll tick
        // surfaces WouldBlock when the follower is quiet).
        loop {
            match read_frame::<_, ReplFrame>(&mut stream) {
                Ok(Some(ReplFrame::Ack { upto })) => repl.log.ack(id, upto),
                Ok(Some(_)) => {}
                Ok(None) => {
                    repl.log.deregister(id);
                    return;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    break;
                }
                Err(_) => {
                    repl.log.deregister(id);
                    return;
                }
            }
        }
        // Ship the next batch.
        let batch = repl.log.records_from(sent, SHIP_BATCH);
        if batch.is_empty() {
            if last_write.elapsed() >= HEARTBEAT_EVERY {
                let tail = repl.log.tail();
                if write_frame(&mut stream, &ReplFrame::Heartbeat { tail }).is_err() {
                    break;
                }
                last_write = Instant::now();
            }
            repl.log.wait_grow(sent, REPL_POLL);
            continue;
        }
        let n = batch.len() as u64;
        let mut failed = false;
        for (seq, session_id, op) in batch {
            if write_frame(
                &mut stream,
                &ReplFrame::Ship {
                    seq,
                    session_id,
                    op,
                },
            )
            .is_err()
            {
                failed = true;
                break;
            }
            sent = seq + 1;
        }
        if failed {
            break;
        }
        repl.log.note_shipped(n);
        last_write = Instant::now();
    }
    repl.log.deregister(id);
}

// ---------------------------------------------------------------------
// Follower side: the receive/apply loop and promotion
// ---------------------------------------------------------------------

/// Why one connection to the primary ended.
enum FollowEnd {
    /// The daemon is stopping or the node was promoted elsewhere.
    Stopped,
    /// The peer acknowledged being deposed by our higher epoch; we are
    /// the rightful primary.
    PeerFenced,
    /// Version/fingerprint mismatch; retrying will not help quickly.
    Refused,
    /// The primary cannot vouch for our `(have, have_hash)` prefix —
    /// its stream was renumbered or our stores diverged. We must reset
    /// to an empty image and re-handshake from sequence zero.
    Resync,
    /// The link dropped (connect failure, EOF, or frame timeout).
    LinkLost {
        /// Whether a handshake had completed on this attempt.
        was_connected: bool,
    },
}

/// Follows a primary until the daemon stops, the node is promoted, or —
/// with `auto_promote` — the link to a once-reached primary drops, at
/// which point the follower promotes itself and sends the old primary a
/// best-effort fencing notice.
pub fn run_follower(
    primary: &str,
    repl: &Arc<ReplState>,
    running: &Arc<AtomicBool>,
    fingerprint: u64,
    auto_promote: bool,
) {
    let mut ever_connected = false;
    while running.load(Ordering::Acquire) && repl.is_follower() {
        match follow_once(primary, repl, running, fingerprint) {
            FollowEnd::Stopped => return,
            FollowEnd::PeerFenced => {
                // Our epoch already dominates; make the role match it.
                if repl.is_follower() {
                    let _ = repl.promote();
                }
                return;
            }
            FollowEnd::Refused => {
                // A config mismatch will not heal by tight retrying.
                sleep_while_running(running, Duration::from_millis(500));
            }
            FollowEnd::Resync => {
                // Our history is not a prefix of the primary's stream:
                // wipe to an empty image (the epoch survives) and
                // re-bootstrap from sequence zero. `ever_connected` is
                // deliberately reset — auto-promoting a just-wiped
                // follower would serve an empty store.
                ever_connected = false;
                if repl.resync().is_err() {
                    // The wipe needs a writable disk; back off and retry.
                    sleep_while_running(running, Duration::from_millis(500));
                }
            }
            FollowEnd::LinkLost { was_connected } => {
                ever_connected |= was_connected;
                if ever_connected && auto_promote && repl.is_follower() {
                    if repl.promote().is_ok() {
                        notify_deposed(primary, repl.epoch(), fingerprint);
                    }
                    return;
                }
                sleep_while_running(running, Duration::from_millis(100));
            }
        }
    }
}

/// One connection attempt to the primary: handshake, then apply shipped
/// records until the link ends.
fn follow_once(
    primary: &str,
    repl: &ReplState,
    running: &AtomicBool,
    fingerprint: u64,
) -> FollowEnd {
    let Ok(mut stream) = TcpStream::connect(primary) else {
        return FollowEnd::LinkLost {
            was_connected: false,
        };
    };
    if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(REPL_POLL)).is_err() {
        return FollowEnd::LinkLost {
            was_connected: false,
        };
    }
    let have = repl.log.tail();
    let have_hash = repl.log.prefix_hash(have).unwrap_or(LINEAGE_HASH_SEED);
    if write_frame(
        &mut stream,
        &ReplFrame::Hello {
            version: REPL_PROTOCOL_VERSION,
            fingerprint,
            epoch: repl.epoch(),
            have,
            have_hash,
        },
    )
    .is_err()
    {
        return FollowEnd::LinkLost {
            was_connected: false,
        };
    }
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    match read_frame_deadline::<_, ReplFrame>(&mut stream, deadline, true) {
        Ok(Some(ReplFrame::Welcome { epoch, .. })) => {
            let _ = repl.adopt_epoch(epoch);
        }
        Ok(Some(ReplFrame::Fenced { .. })) => return FollowEnd::PeerFenced,
        Ok(Some(ReplFrame::Refused { .. })) => return FollowEnd::Refused,
        Ok(Some(ReplFrame::Resync { .. })) => return FollowEnd::Resync,
        _ => {
            return FollowEnd::LinkLost {
                was_connected: false,
            }
        }
    }

    let mut last_frame = Instant::now();
    loop {
        if !running.load(Ordering::Acquire) || !repl.is_follower() {
            return FollowEnd::Stopped;
        }
        match read_frame::<_, ReplFrame>(&mut stream) {
            Ok(Some(ReplFrame::Ship {
                seq,
                session_id,
                op,
            })) => {
                last_frame = Instant::now();
                let tail = repl.log.tail();
                if seq > tail {
                    // A gap means the streams desynchronized; drop the
                    // link and re-handshake from our actual count.
                    return FollowEnd::LinkLost {
                        was_connected: true,
                    };
                }
                if seq == tail {
                    // Applying through the store feeds the same replay
                    // image a restart uses — and the attached log, so
                    // our `have` advances with it.
                    let durability = repl.store.apply_replicated(session_id, op);
                    if !matches!(durability, Appended::Durable) {
                        // A degraded apply is in memory only; claiming
                        // durability to the primary would be a lie, so
                        // the ack stream simply stops advancing.
                        continue;
                    }
                }
                if write_frame(
                    &mut stream,
                    &ReplFrame::Ack {
                        upto: repl.log.tail(),
                    },
                )
                .is_err()
                {
                    return FollowEnd::LinkLost {
                        was_connected: true,
                    };
                }
            }
            Ok(Some(ReplFrame::Heartbeat { .. })) => {
                last_frame = Instant::now();
                if write_frame(
                    &mut stream,
                    &ReplFrame::Ack {
                        upto: repl.log.tail(),
                    },
                )
                .is_err()
                {
                    return FollowEnd::LinkLost {
                        was_connected: true,
                    };
                }
            }
            Ok(Some(ReplFrame::Fenced { .. })) => return FollowEnd::PeerFenced,
            Ok(Some(ReplFrame::Resync { .. })) => return FollowEnd::Resync,
            Ok(Some(_)) => {}
            Ok(None) => {
                return FollowEnd::LinkLost {
                    was_connected: true,
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if last_frame.elapsed() >= LINK_TIMEOUT {
                    return FollowEnd::LinkLost {
                        was_connected: true,
                    };
                }
            }
            Err(_) => {
                return FollowEnd::LinkLost {
                    was_connected: true,
                }
            }
        }
    }
}

/// Best-effort fencing notice to a (possibly dead) old primary: a
/// `Hello` carrying our higher epoch makes it fence itself; every
/// failure mode is fine (it is dead, or it will be fenced the moment it
/// ships to us).
pub fn notify_deposed(addr: &str, epoch: u64, fingerprint: u64) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(REPL_POLL));
    let _ = write_frame(
        &mut stream,
        &ReplFrame::Hello {
            version: REPL_PROTOCOL_VERSION,
            fingerprint,
            epoch,
            have: 0,
            have_hash: LINEAGE_HASH_SEED,
        },
    );
    let deadline = Instant::now() + Duration::from_millis(500);
    let _ = read_frame_deadline::<_, ReplFrame>(&mut stream, deadline, true);
}

fn sleep_while_running(running: &AtomicBool, total: Duration) {
    let deadline = Instant::now() + total;
    while running.load(Ordering::Acquire) && Instant::now() < deadline {
        std::thread::sleep(REPL_POLL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_mode_parses_and_renders() {
        assert_eq!("none".parse::<AckMode>().unwrap(), AckMode::None);
        assert_eq!("quorum".parse::<AckMode>().unwrap(), AckMode::Quorum);
        assert!("all".parse::<AckMode>().is_err());
        assert_eq!(AckMode::Quorum.to_string(), "quorum");
    }

    #[test]
    fn repl_frames_roundtrip() {
        let frames = vec![
            ReplFrame::Hello {
                version: REPL_PROTOCOL_VERSION,
                fingerprint: 0xF00D,
                epoch: 2,
                have: 17,
                have_hash: 0xBEEF,
            },
            ReplFrame::Welcome { epoch: 2, tail: 40 },
            ReplFrame::Fenced { epoch: 3 },
            ReplFrame::Resync {
                message: "lineage mismatch".to_string(),
            },
            ReplFrame::Ship {
                seq: 5,
                session_id: 1,
                op: SessionOp::Opened,
            },
            ReplFrame::Heartbeat { tail: 41 },
            ReplFrame::Ack { upto: 41 },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut cursor = &wire[..];
        for want in &frames {
            let got: ReplFrame = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn log_tracks_tail_acks_and_lag() {
        let log = ReplLog::new();
        assert_eq!(log.tail(), 0);
        assert_eq!(log.lag(), 0, "no followers: nothing owed");
        log.append(0, SessionOp::Opened);
        log.append(0, SessionOp::Closed);
        assert_eq!(log.tail(), 2);

        let f = log.register(0);
        assert_eq!(log.lag(), 2);
        log.ack(f, 1);
        assert_eq!(log.lag(), 1);
        log.ack(f, 2);
        assert_eq!(log.lag(), 0);
        // Acks are monotonic: a stale ack never regresses.
        log.ack(f, 1);
        assert_eq!(log.lag(), 0);
        log.deregister(f);
        assert_eq!(log.lag(), 0);
    }

    #[test]
    fn hold_pauses_shipping_reads() {
        let log = ReplLog::new();
        log.append(0, SessionOp::Opened);
        assert_eq!(log.records_from(0, 16).len(), 1);
        log.hold(true);
        assert!(log.records_from(0, 16).is_empty(), "held log ships nothing");
        log.hold(false);
        assert_eq!(log.records_from(0, 16).len(), 1);
    }

    #[test]
    fn quorum_wait_blocks_without_followers_and_gates_with_one() {
        let log = ReplLog::new();
        log.append(0, SessionOp::Opened);
        let running = AtomicBool::new(true);
        // No followers: nothing is durable anywhere else, so the wait
        // must NOT pass trivially — it times out (the gate's degraded
        // accounting takes over from there).
        assert!(
            !log.wait_quorum(1, Instant::now() + Duration::from_millis(30), &running),
            "zero connected followers must not satisfy a quorum"
        );

        let f = log.register(0);
        assert!(
            !log.wait_quorum(1, Instant::now() + Duration::from_millis(30), &running),
            "an unacknowledged record must gate"
        );
        log.ack(f, 1);
        assert!(log.wait_quorum(1, Instant::now() + Duration::from_millis(30), &running));
    }

    #[test]
    fn quorum_is_a_majority_of_connected_followers() {
        let inner_with = |acks: &[u64]| {
            let mut inner = LogInner::default();
            for (i, a) in acks.iter().enumerate() {
                inner.followers.insert(i as u64, *a);
            }
            inner
        };
        assert_eq!(ReplLog::quorum_acked(&inner_with(&[])), 0);
        assert_eq!(ReplLog::quorum_acked(&inner_with(&[3])), 3);
        // Two followers: one ack (plus the primary) is a 2/3 majority.
        assert_eq!(ReplLog::quorum_acked(&inner_with(&[5, 1])), 5);
        // Three followers: two must acknowledge (3/4 majority).
        assert_eq!(ReplLog::quorum_acked(&inner_with(&[9, 4, 1])), 4);
    }

    #[test]
    fn prefix_hash_identifies_identical_prefixes_only() {
        let ask = |i: u64| SessionOp::Ask {
            example_idx: i,
            question: format!("q{i}"),
        };
        let a = ReplLog::new();
        let b = ReplLog::new();
        assert_eq!(a.prefix_hash(0), Some(LINEAGE_HASH_SEED));
        assert_eq!(a.prefix_hash(1), None, "no record to vouch for");
        for log in [&a, &b] {
            log.append(0, SessionOp::Opened);
            log.append(0, ask(1));
            log.append(1, SessionOp::Opened);
        }
        for n in 0..=3u64 {
            assert_eq!(
                a.prefix_hash(n),
                b.prefix_hash(n),
                "identical streams at {n}"
            );
        }
        // Diverge: same length, different content → different hashes.
        a.append(0, ask(2));
        b.append(0, ask(3));
        assert_ne!(a.prefix_hash(4), b.prefix_hash(4));
        // A renumbered (compacted + restarted) stream: the survivors of
        // `a` reloaded from scratch share no comparable positions.
        let survivors = vec![(1, SessionOp::Opened)];
        let reseeded = ReplLog::preloaded(survivors);
        assert_eq!(reseeded.tail(), 1);
        assert_ne!(
            reseeded.prefix_hash(1),
            a.prefix_hash(1),
            "a renumbered stream must not look like a prefix of the original"
        );
    }

    #[test]
    fn preloaded_log_matches_incrementally_built_hashes() {
        let incremental = ReplLog::new();
        incremental.append(3, SessionOp::Opened);
        incremental.append(3, SessionOp::Closed);
        let preloaded = ReplLog::preloaded(vec![(3, SessionOp::Opened), (3, SessionOp::Closed)]);
        assert_eq!(incremental.prefix_hash(2), preloaded.prefix_hash(2));
        preloaded.reset();
        assert_eq!(preloaded.tail(), 0);
        assert_eq!(preloaded.prefix_hash(0), Some(LINEAGE_HASH_SEED));
        assert_eq!(preloaded.prefix_hash(1), None);
    }

    #[test]
    fn quorum_gate_degrades_to_counted_async_without_followers() {
        let store = Arc::new(
            SessionStore::open(None, super::super::store::StoreOptions::new(0)).expect("store"),
        );
        let repl = ReplState::new(Arc::clone(&store), false, true, AckMode::Quorum, 40);
        let running = AtomicBool::new(true);

        // First gated response with zero followers: stalls one full ack
        // timeout, counts it, and enters degraded-async.
        let upto = repl.log.append(0, SessionOp::Opened);
        let started = Instant::now();
        repl.quorum_gate(upto, &running);
        assert!(started.elapsed() >= Duration::from_millis(40));
        assert_eq!(repl.ack_timeouts(), 1);
        assert!(repl.ack_degraded());
        assert_eq!(repl.ack_degraded_entries(), 1);

        // Degraded: subsequent releases are immediate but still counted.
        let upto = repl.log.append(0, SessionOp::Closed);
        let started = Instant::now();
        repl.quorum_gate(upto, &running);
        assert!(started.elapsed() < Duration::from_millis(40));
        assert_eq!(repl.ack_timeouts(), 2);
        assert_eq!(repl.ack_degraded_entries(), 1, "one entry, many releases");

        // A follower reconnecting re-arms the gate; once it has
        // acknowledged the tail the gate passes on durability again.
        let f = repl.log.register(0);
        repl.log.ack(f, repl.log.tail());
        repl.quorum_gate(repl.log.tail(), &running);
        assert!(!repl.ack_degraded(), "a connected follower re-arms gating");
        assert_eq!(
            repl.ack_timeouts(),
            2,
            "a satisfied quorum is not a timeout"
        );
    }

    #[test]
    fn records_from_respects_offset_and_batch() {
        let log = ReplLog::new();
        for i in 0..10u64 {
            log.append(i, SessionOp::Opened);
        }
        let batch = log.records_from(7, 2);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].0, 7);
        assert_eq!(batch[1].0, 8);
        assert!(log.records_from(10, 4).is_empty());
    }
}
