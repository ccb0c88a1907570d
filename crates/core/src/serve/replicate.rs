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
//! [`ReplLog`] numbers the logical op stream since store lineage began:
//! every store append gets the next stream position (metadata records —
//! checkpoints, epochs — never do). It is deliberately independent of
//! the on-disk journal: compaction rewrites the file but never
//! renumbers the *live* stream, so a follower keeps streaming across a
//! primary compaction. Every position carries a rolling **lineage
//! hash** of the records before it, so a `(position, hash)` pair names
//! one exact history where a raw count does not.
//!
//! The log is a **window**, not a history: `base`, the lineage hash at
//! `base`, and only the records some connected follower has not
//! acknowledged yet. Every ack and every deregistration trims it, and a
//! node with no followers keeps no records at all — a follower's own
//! log is always empty, and a primary's holds at most its followers'
//! un-acked tail. A node boots its log by hashing the store's surviving
//! ops (keeping none of them), so a restart *after* a compaction
//! renumbers the stream: raw counts are never trusted across
//! reconnects.
//!
//! # Catch-up
//!
//! The handshake carries the follower's `(have, have_hash)`. When
//! `have` lies inside the primary's window and the hashes agree, the
//! follower's history is a byte-identical prefix of the primary's and
//! shipping resumes there. Otherwise — `have` fell below `base` while
//! the follower was away, the stream was renumbered by a compaction and
//! restart, or a fenced ex-primary rejoins with divergent history — the
//! primary answers with a **snapshot**: its live store image, taken
//! under the store lock at stream position `tail`, streamed as one
//! [`ReplFrame::Snapshot`] header carrying `(tail, hash)` and then one
//! record-sized [`ReplFrame::SnapshotRecord`] per op, so no frame grows
//! with the image. The follower installs the image in place of its own
//! (an atomic journal rewrite that keeps its fencing epoch) and resumes
//! the stream at the header's position; the primary retains every
//! record from that position on until the follower acknowledges it.
//!
//! # Shipping
//!
//! Nothing on the primary's ship/ack path polls. Each follower link
//! runs two threads: the shipper blocks on the log's condition variable
//! until a record arrives (or a heartbeat is due) and writes it, and an
//! ack reader blocks in `read` and feeds every [`ReplFrame::Ack`] to
//! [`ReplLog::ack`], which trims the window and wakes quorum waiters.
//! The daemon's stop routine and [`ReplState::fence`] wake the log, so
//! a shutdown or a fencing reaches every blocked shipper and waiter at
//! once. Only a node that ships (`--repl-listen`) or follows
//! (`--replica-of`) attaches a log; a plain daemon's stays empty.
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
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Replication wire-protocol version (independent of the client
/// protocol's version).
pub const REPL_PROTOCOL_VERSION: u32 = 2;

/// Poll tick of the follower's receive loop and of retry back-offs:
/// how quickly a follower observes shutdown and promotion. The
/// primary's ship/ack path blocks instead.
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

/// Most records one shipper write carries.
pub const SHIP_BATCH: usize = 256;

/// Bytes a shipper buffers before writing them to the socket.
const WRITE_CHUNK: usize = 64 * 1024;

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

/// The lineage hash of `records` read as a stream prefix.
pub(crate) fn lineage_hash(records: &[(u64, SessionOp)]) -> u64 {
    records.iter().fold(LINEAGE_HASH_SEED, |hash, (id, op)| {
        record_hash(hash, *id, op)
    })
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
    /// Primary → follower, in place of `Welcome`: the follower's
    /// `(have, have_hash)` is not a position in the primary's window
    /// (it fell behind the trimmed base, the stream was renumbered by a
    /// compaction and restart, or the histories diverged), so it is
    /// caught up from the primary's store image instead. The next
    /// `records` frames are [`ReplFrame::SnapshotRecord`]s; the
    /// follower installs them in place of its own image and resumes the
    /// stream at `base`.
    Snapshot {
        /// The primary's fencing epoch (the follower adopts it).
        epoch: u64,
        /// The stream position the image was taken at.
        base: u64,
        /// The primary's lineage hash at `base`.
        base_hash: u64,
        /// Image records that follow.
        records: u64,
    },
    /// Primary → follower: one op of a snapshot image, in image order.
    SnapshotRecord {
        /// The session the op belongs to.
        session_id: u64,
        /// The op itself.
        op: SessionOp,
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

/// One retained record of the window.
#[derive(Debug)]
struct Retained {
    session_id: u64,
    op: SessionOp,
    /// Lineage hash of the stream prefix ending with this record.
    hash: u64,
}

/// One connected follower's acknowledgement state.
#[derive(Debug, Clone, Copy)]
struct FollowerSlot {
    /// Prefix length the follower has durably applied (0 until a
    /// snapshot-joined follower acknowledges its image).
    acked: u64,
    /// Where its shipper started; records from here on are retained
    /// until acknowledged.
    from: u64,
}

impl FollowerSlot {
    /// The first record this follower may still need.
    fn needs(self) -> u64 {
        self.acked.max(self.from)
    }
}

#[derive(Debug)]
struct LogInner {
    /// Stream position of the first retained record.
    base: u64,
    /// Lineage hash of the stream prefix of length `base`.
    base_hash: u64,
    /// Records `[base, tail)` that some connected follower has not
    /// acknowledged.
    records: VecDeque<Retained>,
    followers: HashMap<u64, FollowerSlot>,
    next_follower: u64,
    /// Ship frames written across all followers (stats).
    shipped: u64,
    /// Test/chaos hook: while held, shippers stop sending (acks still
    /// drain), so replication lag builds deterministically.
    held: bool,
}

impl Default for LogInner {
    fn default() -> Self {
        LogInner {
            base: 0,
            base_hash: LINEAGE_HASH_SEED,
            records: VecDeque::new(),
            followers: HashMap::new(),
            next_follower: 0,
            shipped: 0,
            held: false,
        }
    }
}

impl LogInner {
    fn tail(&self) -> u64 {
        self.base + self.records.len() as u64
    }

    /// Lineage hash at the tail.
    fn tail_hash(&self) -> u64 {
        self.records.back().map_or(self.base_hash, |r| r.hash)
    }

    /// Lineage hash at position `n`, when `n` lies inside the window.
    fn hash_at(&self, n: u64) -> Option<u64> {
        if n == self.base {
            return Some(self.base_hash);
        }
        let offset = usize::try_from(n.checked_sub(self.base)? - 1).ok()?;
        self.records.get(offset).map(|r| r.hash)
    }

    /// Appends one record, extending the lineage hash; returns the new
    /// stream length. Nobody can need the record without a follower,
    /// so then only the hash advances.
    fn push(&mut self, session_id: u64, op: &SessionOp) -> u64 {
        let hash = record_hash(self.tail_hash(), session_id, op);
        if self.followers.is_empty() {
            self.base += 1;
            self.base_hash = hash;
        } else {
            self.records.push_back(Retained {
                session_id,
                op: op.clone(),
                hash,
            });
        }
        self.tail()
    }

    /// Drops every record all connected followers have acknowledged
    /// (every record, with none connected).
    fn trim(&mut self) {
        let tail = self.tail();
        let floor = self
            .followers
            .values()
            .map(|slot| slot.needs())
            .min()
            .unwrap_or(tail)
            .min(tail);
        while self.base < floor {
            let Some(record) = self.records.pop_front() else {
                break;
            };
            self.base += 1;
            self.base_hash = record.hash;
        }
    }

    /// Records the slowest connected follower has not acknowledged.
    fn lag(&self) -> u64 {
        let tail = self.tail();
        self.followers
            .values()
            .map(|slot| tail.saturating_sub(slot.acked))
            .max()
            .unwrap_or(0)
    }

    fn register(&mut self, slot: FollowerSlot) -> u64 {
        let id = self.next_follower;
        self.next_follower += 1;
        self.followers.insert(id, slot);
        id
    }

    /// Up to `max` records from `from` on (empty while shipping is
    /// held or when `from` is outside the window's records).
    fn batch(&self, from: u64, max: usize) -> Vec<(u64, u64, SessionOp)> {
        if self.held || from < self.base {
            return Vec::new();
        }
        let Ok(skip) = usize::try_from(from - self.base) else {
            return Vec::new();
        };
        self.records
            .iter()
            .skip(skip)
            .take(max)
            .zip(from..)
            .map(|(r, seq)| (seq, r.session_id, r.op.clone()))
            .collect()
    }
}

/// Where a follower that could not resume is caught up from: the
/// stream position and lineage hash a snapshot image was taken at (see
/// [`ReplLog::join_snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapshotPoint {
    /// The follower's id for [`ReplLog::ack`].
    pub(crate) follower: u64,
    /// The stream position of the image.
    pub(crate) base: u64,
    /// The lineage hash at `base`.
    pub(crate) base_hash: u64,
}

/// What a shipper's wait on the log produced.
#[derive(Debug, PartialEq)]
pub(crate) enum Shipment {
    /// Records to write: `(seq, session_id, op)`, consecutive from the
    /// requested position.
    Records(Vec<(u64, u64, SessionOp)>),
    /// Nothing arrived before the heartbeat deadline; `tail` is the
    /// current stream length.
    Idle {
        /// The stream length.
        tail: u64,
    },
    /// The link is over: the follower was deregistered, the node
    /// stopped or was fenced, or the stream was rebased under it.
    Closed,
}

/// The replication window and follower-acknowledgement state (see the
/// module docs).
#[derive(Debug, Default)]
pub struct ReplLog {
    inner: Mutex<LogInner>,
    /// Signalled when records are appended (and on every wake).
    grew: Condvar,
    /// Signalled when a follower acknowledges, joins, or leaves (and on
    /// every wake).
    acked: Condvar,
}

impl ReplLog {
    /// An empty log at stream position 0.
    pub fn new() -> ReplLog {
        ReplLog::default()
    }

    fn lock(&self) -> MutexGuard<'_, LogInner> {
        // Poison tolerance mirrors the store's: the log is a deque and a
        // map, all well-formed at every await point.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Restarts the stream at `base` with lineage hash `base_hash`,
    /// keeping no records and dropping every follower (their shippers
    /// end and the followers re-handshake). A node seeds its log this
    /// way from its store image, and a follower after installing a
    /// snapshot.
    pub(crate) fn rebase(&self, base: u64, base_hash: u64) {
        let mut inner = self.lock();
        inner.base = base;
        inner.base_hash = base_hash;
        inner.records.clear();
        inner.followers.clear();
        drop(inner);
        self.wake_all();
    }

    /// Appends one record; returns the stream length after it.
    pub fn append(&self, session_id: u64, op: &SessionOp) -> u64 {
        let mut inner = self.lock();
        let tail = inner.push(session_id, op);
        drop(inner);
        self.grew.notify_all();
        tail
    }

    /// The stream length (the next record's sequence number).
    pub fn tail(&self) -> u64 {
        self.lock().tail()
    }

    /// The first retained position.
    pub fn base(&self) -> u64 {
        self.lock().base
    }

    /// Records currently held in the window: at most the connected
    /// followers' un-acknowledged tail, and 0 with none connected.
    pub fn retained(&self) -> u64 {
        self.lock().records.len() as u64
    }

    /// The rolling lineage hash at stream position `n` — `None` when
    /// `n` lies outside the window, i.e. is not a position this log can
    /// vouch for.
    pub fn prefix_hash(&self, n: u64) -> Option<u64> {
        self.lock().hash_at(n)
    }

    /// Registers a follower that resumes at `have` — only when `have`
    /// lies inside the window and `have_hash` is this stream's hash
    /// there, i.e. the follower holds a byte-identical prefix. Returns
    /// its id for [`ReplLog::ack`]; `None` means it needs a snapshot.
    pub(crate) fn join(&self, have: u64, have_hash: u64) -> Option<u64> {
        let mut inner = self.lock();
        if inner.hash_at(have)? != have_hash {
            return None;
        }
        let id = inner.register(FollowerSlot {
            acked: have,
            from: have,
        });
        drop(inner);
        // A registration can satisfy (or change) quorum for waiters.
        self.acked.notify_all();
        Some(id)
    }

    /// Registers a follower to be caught up from a snapshot taken at
    /// the current tail; every record from there on is retained until
    /// it acknowledges. It counts toward no quorum until it does. The
    /// caller must hold the lock that serializes appends (the store's),
    /// so the image it copies is exactly the stream at the returned
    /// position.
    pub(crate) fn join_snapshot(&self) -> SnapshotPoint {
        let mut inner = self.lock();
        let (base, base_hash) = (inner.tail(), inner.tail_hash());
        let follower = inner.register(FollowerSlot {
            acked: 0,
            from: base,
        });
        drop(inner);
        self.acked.notify_all();
        SnapshotPoint {
            follower,
            base,
            base_hash,
        }
    }

    /// Drops a follower connection from the quorum and trims what only
    /// it still needed.
    pub fn deregister(&self, id: u64) {
        let mut inner = self.lock();
        inner.followers.remove(&id);
        inner.trim();
        drop(inner);
        self.wake_all();
    }

    /// Records a follower's acknowledged prefix (monotonic, capped at
    /// the tail) and trims the window.
    pub fn ack(&self, id: u64, upto: u64) {
        let mut inner = self.lock();
        let tail = inner.tail();
        if let Some(slot) = inner.followers.get_mut(&id) {
            slot.acked = slot.acked.max(upto.min(tail));
        }
        inner.trim();
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
        self.lock().lag()
    }

    /// Blocks until a record matching `wanted` lies past the slowest
    /// connected follower's acknowledgement, or the deadline passes;
    /// returns whether one does. With shipping held, that record is
    /// provably unshipped — and under quorum acks, the request that
    /// appended it is waiting on the gate.
    pub(crate) fn wait_for_unacked(
        &self,
        deadline: Instant,
        wanted: impl Fn(&SessionOp) -> bool,
    ) -> bool {
        self.wait_on(&self.grew, deadline, |inner| {
            let slowest = inner.followers.values().map(|slot| slot.acked).min()?;
            let skip = usize::try_from(slowest.saturating_sub(inner.base)).unwrap_or(usize::MAX);
            inner
                .records
                .iter()
                .skip(skip)
                .any(|r| wanted(&r.op))
                .then_some(())
        })
        .is_some()
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
        let mut acks: Vec<u64> = inner.followers.values().map(|slot| slot.acked).collect();
        acks.sort_unstable_by(|a, b| b.cmp(a));
        // Majority of the replica set including the primary itself:
        // (followers + 1 primary) / 2 + 1 nodes, minus the primary.
        let needed = followers.div_ceil(2);
        acks[needed - 1]
    }

    /// Blocks until a follower majority has acknowledged `upto` records,
    /// the deadline passes, or `running` flips false (the stop routine
    /// wakes the log). Returns whether the quorum was reached.
    pub fn wait_quorum(&self, upto: u64, deadline: Instant, running: &AtomicBool) -> bool {
        self.wait_on(&self.acked, deadline, |inner| {
            if Self::quorum_acked(inner) >= upto {
                Some(true)
            } else {
                (!running.load(Ordering::Acquire)).then_some(false)
            }
        })
        .unwrap_or(false)
    }

    /// Blocks a shipper until records from `from` on can ship, the
    /// heartbeat deadline `until` passes, or the link is over: follower
    /// `id` deregistered, `live` turned false (stop and fencing wake the
    /// log), or the stream was rebased so that `from` is no longer a
    /// position in it.
    pub(crate) fn wait_batch(
        &self,
        id: u64,
        from: u64,
        until: Instant,
        live: impl Fn() -> bool,
    ) -> Shipment {
        self.wait_on(&self.grew, until, |inner| {
            if !inner.followers.contains_key(&id)
                || !live()
                || from < inner.base
                || from > inner.tail()
            {
                return Some(Shipment::Closed);
            }
            let batch = inner.batch(from, SHIP_BATCH);
            (!batch.is_empty()).then_some(Shipment::Records(batch))
        })
        .unwrap_or_else(|| Shipment::Idle { tail: self.tail() })
    }

    /// Waits on `cond` until `done` yields a value (checked under the
    /// lock, so a wake that follows a state change is never missed) or
    /// `deadline` passes (`None`). Nothing here polls: the deadline is
    /// the caller's own (a heartbeat, an ack timeout).
    fn wait_on<T>(
        &self,
        cond: &Condvar,
        deadline: Instant,
        mut done: impl FnMut(&LogInner) -> Option<T>,
    ) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(value) = done(&inner) {
                return Some(value);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            inner = cond
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Test/chaos hook: pauses (or resumes) shipping so replication lag
    /// builds deterministically. Acks keep draining.
    pub fn hold(&self, held: bool) {
        self.lock().held = held;
        self.grew.notify_all();
    }

    /// Wakes every thread blocked on the log — shippers and quorum
    /// waiters — so each re-checks the daemon's run state and this
    /// node's role. Taking the lock first orders the wake after any
    /// waiter's check of that state: a flag flipped before this call
    /// is never missed.
    pub(crate) fn wake_all(&self) {
        drop(self.lock());
        self.grew.notify_all();
        self.acked.notify_all();
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
    /// ships or follows (`replicated`) attaches its log to the store,
    /// which starts the stream at the hash of the surviving ops, so
    /// every subsequent append flows into it; any other node keeps an
    /// empty, unattached log, since no follower can ever read it.
    pub fn new(
        store: Arc<SessionStore>,
        follower: bool,
        replicated: bool,
        ack: AckMode,
        ack_timeout_ms: u64,
    ) -> Arc<ReplState> {
        let log = Arc::new(ReplLog::new());
        if replicated {
            store.attach_repl(Arc::clone(&log));
        }
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

    /// Marks the node deposed by `epoch` and wakes every shipper and
    /// quorum waiter so they observe it. Idempotent; the epoch itself
    /// is *not* adopted or persisted — a fenced node writes nothing.
    pub fn fence(&self, epoch: u64) {
        self.fenced_by.fetch_max(epoch, Ordering::AcqRel);
        self.fenced.store(true, Ordering::Release);
        self.log.wake_all();
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

/// Writes `frames` through one buffer, flushed to the socket every
/// [`WRITE_CHUNK`] bytes and at the end: a batch of records costs one
/// syscall (and, with `TCP_NODELAY`, as few segments) instead of two
/// per frame, and a long snapshot never buffers whole.
fn write_frames(
    stream: &mut TcpStream,
    frames: impl IntoIterator<Item = ReplFrame>,
) -> io::Result<()> {
    let mut buf = Vec::new();
    for frame in frames {
        write_frame(&mut buf, &frame)?;
        if buf.len() >= WRITE_CHUNK {
            stream.write_all(&buf)?;
            buf.clear();
        }
    }
    stream.write_all(&buf)
}

/// Answers one follower's `Hello`: refuses a version or fingerprint
/// mismatch, fences this node when the peer out-epochs it, and
/// otherwise registers the follower — resuming at its `have` when that
/// is a position in our window, or after sending it a snapshot of the
/// store image. Returns the follower's id and where shipping starts.
fn handshake(stream: &mut TcpStream, repl: &ReplState, fingerprint: u64) -> Option<(u64, u64)> {
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let Ok(Some(ReplFrame::Hello {
        version,
        fingerprint: fp,
        epoch: peer_epoch,
        have,
        have_hash,
    })) = read_frame_deadline::<_, ReplFrame>(stream, deadline, true)
    else {
        return None;
    };
    let refusal = if version != REPL_PROTOCOL_VERSION {
        Some(format!(
            "replication protocol {version} unsupported (speaking {REPL_PROTOCOL_VERSION})"
        ))
    } else if fp != fingerprint {
        Some(format!(
            "store fingerprint mismatch: follower {fp:#018x}, primary {fingerprint:#018x}"
        ))
    } else {
        None
    };
    if let Some(message) = refusal {
        let _ = write_frame(stream, &ReplFrame::Refused { message });
        return None;
    }
    if peer_epoch > repl.epoch() {
        // The peer out-epochs us: we are the deposed one. Fence and say
        // so — this is the promoted follower's fencing notice landing.
        repl.fence(peer_epoch);
        let _ = write_frame(stream, &ReplFrame::Fenced { epoch: peer_epoch });
        return None;
    }
    // Lineage check: `have` is a trustworthy resume point only if it is
    // a position in our window and the follower's first `have` records
    // are byte-identical to ours. Anything else — trimmed past, a
    // renumbered stream, a fenced ex-primary's divergent history — is
    // caught up from a snapshot; resuming by raw count would skip
    // records while the follower still acknowledged them.
    if let Some(id) = repl.log.join(have, have_hash) {
        let welcome = ReplFrame::Welcome {
            epoch: repl.epoch(),
            tail: repl.log.tail(),
        };
        if write_frame(stream, &welcome).is_err() {
            repl.log.deregister(id);
            return None;
        }
        return Some((id, have));
    }
    let (image, point) = repl.store.replication_snapshot(&repl.log);
    let header = ReplFrame::Snapshot {
        epoch: repl.epoch(),
        base: point.base,
        base_hash: point.base_hash,
        records: image.len() as u64,
    };
    let records = image
        .into_iter()
        .map(|(session_id, op)| ReplFrame::SnapshotRecord { session_id, op });
    if write_frames(stream, std::iter::once(header).chain(records)).is_err() {
        repl.log.deregister(point.follower);
        return None;
    }
    Some((point.follower, point.base))
}

/// Serves one follower connection: handshake, then ship until the link
/// drops, the daemon stops, or this node is fenced. Acks are read by a
/// second thread with blocking reads; neither side polls.
fn run_shipper(mut stream: TcpStream, repl: &ReplState, running: &AtomicBool, fingerprint: u64) {
    // The read timeout bounds only the handshake's deadline read; the
    // ack reader clears it and blocks.
    if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(REPL_POLL)).is_err() {
        return;
    }
    let Some((id, start)) = handshake(&mut stream, repl, fingerprint) else {
        return;
    };
    let acks = match stream.try_clone() {
        Ok(acks) if acks.set_read_timeout(None).is_ok() => acks,
        _ => {
            repl.log.deregister(id);
            return;
        }
    };
    std::thread::scope(|scope| {
        scope.spawn(|| read_acks(acks, &repl.log, id));
        ship(&mut stream, repl, running, id, start);
        // Unblocks the ack reader's read; it deregisters on its way out.
        let _ = stream.shutdown(Shutdown::Both);
    });
}

/// The ship half of one follower link: waits on the log for records (or
/// the heartbeat deadline) and writes them, until the log closes the
/// link or a write fails.
fn ship(stream: &mut TcpStream, repl: &ReplState, running: &AtomicBool, id: u64, start: u64) {
    let live = || running.load(Ordering::Acquire) && !repl.fenced();
    let mut sent = start;
    let mut heartbeat_due = Instant::now() + HEARTBEAT_EVERY;
    loop {
        match repl.log.wait_batch(id, sent, heartbeat_due, live) {
            Shipment::Records(batch) => {
                let n = batch.len() as u64;
                let frames = batch
                    .into_iter()
                    .map(|(seq, session_id, op)| ReplFrame::Ship {
                        seq,
                        session_id,
                        op,
                    });
                if write_frames(stream, frames).is_err() {
                    return;
                }
                sent += n;
                repl.log.note_shipped(n);
            }
            Shipment::Idle { tail } => {
                if write_frame(stream, &ReplFrame::Heartbeat { tail }).is_err() {
                    return;
                }
            }
            Shipment::Closed => return,
        }
        heartbeat_due = Instant::now() + HEARTBEAT_EVERY;
    }
}

/// The ack half of one follower link: blocking reads until the link
/// drops (EOF, a transport error, or the shipper's shutdown), then
/// deregisters the follower — which wakes its shipper.
fn read_acks(mut stream: TcpStream, log: &ReplLog, id: u64) {
    while let Ok(Some(frame)) = read_frame::<_, ReplFrame>(&mut stream) {
        if let ReplFrame::Ack { upto } = frame {
            log.ack(id, upto);
        }
    }
    log.deregister(id);
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
    /// Version/fingerprint mismatch, or a snapshot this node could not
    /// install (unwritable disk); retrying will not help quickly.
    Refused,
    /// The link dropped (connect failure, EOF, or frame timeout).
    LinkLost {
        /// Whether this attempt had synchronized with the primary (a
        /// handshake that resumed, or an installed snapshot).
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

/// Receives the `records` image frames that follow a
/// [`ReplFrame::Snapshot`] header, each within [`LINK_TIMEOUT`] of the
/// last.
fn receive_snapshot(stream: &mut TcpStream, records: u64) -> Option<Vec<(u64, SessionOp)>> {
    let mut image = Vec::new();
    for _ in 0..records {
        let deadline = Instant::now() + LINK_TIMEOUT;
        match read_frame_deadline::<_, ReplFrame>(stream, deadline, true) {
            Ok(Some(ReplFrame::SnapshotRecord { session_id, op })) => image.push((session_id, op)),
            _ => return None,
        }
    }
    Some(image)
}

/// Acknowledges everything this follower holds.
fn send_ack(stream: &mut TcpStream, repl: &ReplState) -> io::Result<()> {
    write_frames(
        stream,
        [ReplFrame::Ack {
            upto: repl.log.tail(),
        }],
    )
}

/// One connection attempt to the primary: handshake (and snapshot
/// catch-up, when the primary cannot resume our position), then apply
/// shipped records until the link ends.
fn follow_once(
    primary: &str,
    repl: &ReplState,
    running: &AtomicBool,
    fingerprint: u64,
) -> FollowEnd {
    const UNSYNCED: FollowEnd = FollowEnd::LinkLost {
        was_connected: false,
    };
    const SYNCED: FollowEnd = FollowEnd::LinkLost {
        was_connected: true,
    };
    let Ok(mut stream) = TcpStream::connect(primary) else {
        return UNSYNCED;
    };
    if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(REPL_POLL)).is_err() {
        return UNSYNCED;
    }
    let have = repl.log.tail();
    let have_hash = repl.log.prefix_hash(have).unwrap_or(LINEAGE_HASH_SEED);
    let hello = ReplFrame::Hello {
        version: REPL_PROTOCOL_VERSION,
        fingerprint,
        epoch: repl.epoch(),
        have,
        have_hash,
    };
    if write_frame(&mut stream, &hello).is_err() {
        return UNSYNCED;
    }
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    match read_frame_deadline::<_, ReplFrame>(&mut stream, deadline, true) {
        Ok(Some(ReplFrame::Welcome { epoch, .. })) => {
            let _ = repl.adopt_epoch(epoch);
        }
        Ok(Some(ReplFrame::Snapshot {
            epoch,
            base,
            base_hash,
            records,
        })) => {
            let _ = repl.adopt_epoch(epoch);
            // Until the image is installed this node still holds its
            // old (stale or divergent) image: a link lost here must not
            // count as having been connected, or auto-promotion would
            // serve it.
            let Some(image) = receive_snapshot(&mut stream, records) else {
                return UNSYNCED;
            };
            if repl.store.install_snapshot(image, base, base_hash).is_err() {
                return FollowEnd::Refused;
            }
            if send_ack(&mut stream, repl).is_err() {
                return SYNCED;
            }
        }
        Ok(Some(ReplFrame::Fenced { .. })) => return FollowEnd::PeerFenced,
        Ok(Some(ReplFrame::Refused { .. })) => return FollowEnd::Refused,
        _ => return UNSYNCED,
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
                    return SYNCED;
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
                if send_ack(&mut stream, repl).is_err() {
                    return SYNCED;
                }
            }
            Ok(Some(ReplFrame::Heartbeat { .. })) => {
                last_frame = Instant::now();
                if send_ack(&mut stream, repl).is_err() {
                    return SYNCED;
                }
            }
            Ok(Some(ReplFrame::Fenced { .. })) => return FollowEnd::PeerFenced,
            Ok(Some(_)) => {}
            Ok(None) => return SYNCED,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if last_frame.elapsed() >= LINK_TIMEOUT {
                    return SYNCED;
                }
            }
            Err(_) => return SYNCED,
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

    /// Registers a follower that holds the whole stream so far.
    fn follow(log: &ReplLog) -> u64 {
        let tail = log.tail();
        let hash = log.prefix_hash(tail).expect("the tail is in the window");
        log.join(tail, hash).expect("a caught-up follower resumes")
    }

    fn ask(i: u64) -> SessionOp {
        SessionOp::Ask {
            example_idx: i,
            question: format!("q{i}"),
        }
    }

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
            ReplFrame::Snapshot {
                epoch: 2,
                base: 40,
                base_hash: 0xCAFE,
                records: 1,
            },
            ReplFrame::SnapshotRecord {
                session_id: 1,
                op: SessionOp::Opened,
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
        let f = follow(&log);
        log.append(0, &SessionOp::Opened);
        log.append(0, &SessionOp::Closed);
        assert_eq!(log.tail(), 2);

        assert_eq!(log.lag(), 2);
        assert_eq!(log.retained(), 2);
        log.ack(f, 1);
        assert_eq!(log.lag(), 1);
        assert_eq!(log.retained(), 1, "an ack trims the window");
        log.ack(f, 2);
        assert_eq!(log.lag(), 0);
        assert_eq!((log.base(), log.retained()), (2, 0));
        // Acks are monotonic: a stale ack never regresses.
        log.ack(f, 1);
        assert_eq!(log.lag(), 0);
        log.deregister(f);
        assert_eq!(log.lag(), 0);
        // No followers: appends advance the stream but keep nothing.
        log.append(0, &SessionOp::Opened);
        assert_eq!((log.tail(), log.retained()), (3, 0));
    }

    #[test]
    fn window_keeps_what_the_slowest_follower_needs() {
        let log = ReplLog::new();
        let fast = follow(&log);
        let slow = follow(&log);
        for i in 0..5 {
            log.append(i, &SessionOp::Opened);
        }
        log.ack(fast, 5);
        assert_eq!(log.retained(), 5, "the slow follower still needs all");
        log.ack(slow, 3);
        assert_eq!((log.base(), log.retained()), (3, 2));
        assert!(
            log.lock().batch(2, 8).is_empty(),
            "trimmed records are gone"
        );
        assert_eq!(log.lock().batch(3, 8).len(), 2);
        log.deregister(slow);
        assert_eq!(log.retained(), 0, "what only a gone follower needed goes");
        // A snapshot joiner pins the window from its image position on,
        // and counts toward no quorum until it acknowledges.
        let point = log.join_snapshot();
        assert_eq!(
            (point.base, point.base_hash),
            (5, log.prefix_hash(5).unwrap())
        );
        log.append(9, &SessionOp::Opened);
        log.ack(fast, 6);
        assert_eq!(log.retained(), 1);
        assert_eq!(log.lag(), 6, "nothing acknowledged by the joiner yet");
        log.ack(point.follower, 6);
        assert_eq!((log.retained(), log.lag()), (0, 0));
    }

    #[test]
    fn hold_pauses_shipping_reads() {
        let log = ReplLog::new();
        follow(&log);
        log.append(0, &SessionOp::Opened);
        assert_eq!(log.lock().batch(0, 16).len(), 1);
        log.hold(true);
        assert!(log.lock().batch(0, 16).is_empty(), "held log ships nothing");
        log.hold(false);
        assert_eq!(log.lock().batch(0, 16).len(), 1);
    }

    #[test]
    fn quorum_wait_blocks_without_followers_and_gates_with_one() {
        let log = ReplLog::new();
        log.append(0, &SessionOp::Opened);
        let running = AtomicBool::new(true);
        // No followers: nothing is durable anywhere else, so the wait
        // must NOT pass trivially — it times out (the gate's degraded
        // accounting takes over from there).
        assert!(
            !log.wait_quorum(1, Instant::now() + Duration::from_millis(30), &running),
            "zero connected followers must not satisfy a quorum"
        );

        let f = follow(&log);
        log.append(0, &SessionOp::Closed);
        assert!(
            !log.wait_quorum(2, Instant::now() + Duration::from_millis(30), &running),
            "an unacknowledged record must gate"
        );
        log.ack(f, 2);
        assert!(log.wait_quorum(2, Instant::now() + Duration::from_millis(30), &running));
    }

    #[test]
    fn quorum_is_a_majority_of_connected_followers() {
        let inner_with = |acks: &[u64]| {
            let mut inner = LogInner::default();
            for &acked in acks {
                inner.register(FollowerSlot { acked, from: 0 });
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
        let a = ReplLog::new();
        let b = ReplLog::new();
        assert_eq!(a.prefix_hash(0), Some(LINEAGE_HASH_SEED));
        assert_eq!(a.prefix_hash(1), None, "no record to vouch for");
        // A follower on each keeps the whole stream in the window.
        follow(&a);
        follow(&b);
        for log in [&a, &b] {
            log.append(0, &SessionOp::Opened);
            log.append(0, &ask(1));
            log.append(1, &SessionOp::Opened);
        }
        for n in 0..=3u64 {
            assert_eq!(
                a.prefix_hash(n),
                b.prefix_hash(n),
                "identical streams at {n}"
            );
        }
        // Diverge: same length, different content → different hashes.
        a.append(0, &ask(2));
        b.append(0, &ask(3));
        assert_ne!(a.prefix_hash(4), b.prefix_hash(4));
        // A renumbered (compacted + restarted) stream: the survivors of
        // `a` reseeded from scratch share no comparable positions.
        let reseeded = ReplLog::new();
        let survivors = [(1, SessionOp::Opened)];
        reseeded.rebase(1, lineage_hash(&survivors));
        assert_eq!(reseeded.tail(), 1);
        assert_ne!(
            reseeded.prefix_hash(1),
            a.prefix_hash(1),
            "a renumbered stream must not look like a prefix of the original"
        );
        assert_eq!(
            a.join(1, reseeded.prefix_hash(1).unwrap()),
            None,
            "so it can never resume there"
        );
    }

    #[test]
    fn preloaded_log_matches_incrementally_built_hashes() {
        let incremental = ReplLog::new();
        incremental.append(3, &SessionOp::Opened);
        incremental.append(3, &SessionOp::Closed);
        let image = [(3, SessionOp::Opened), (3, SessionOp::Closed)];
        let preloaded = ReplLog::new();
        preloaded.rebase(image.len() as u64, lineage_hash(&image));
        assert_eq!(incremental.prefix_hash(2), preloaded.prefix_hash(2));
        assert_eq!(preloaded.retained(), 0, "the image is hashed, not kept");
        // Rebasing to the empty stream forgets every position past 0.
        preloaded.rebase(0, LINEAGE_HASH_SEED);
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
        let upto = repl.log.append(0, &SessionOp::Opened);
        let started = Instant::now();
        repl.quorum_gate(upto, &running);
        assert!(started.elapsed() >= Duration::from_millis(40));
        assert_eq!(repl.ack_timeouts(), 1);
        assert!(repl.ack_degraded());
        assert_eq!(repl.ack_degraded_entries(), 1);

        // Degraded: subsequent releases are immediate but still counted.
        let upto = repl.log.append(0, &SessionOp::Closed);
        let started = Instant::now();
        repl.quorum_gate(upto, &running);
        assert!(started.elapsed() < Duration::from_millis(40));
        assert_eq!(repl.ack_timeouts(), 2);
        assert_eq!(repl.ack_degraded_entries(), 1, "one entry, many releases");

        // A follower reconnecting re-arms the gate; once it has
        // acknowledged the tail the gate passes on durability again.
        let f = follow(&repl.log);
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
    fn batches_respect_offset_and_limit() {
        let log = ReplLog::new();
        follow(&log);
        for i in 0..10u64 {
            log.append(i, &SessionOp::Opened);
        }
        let batch = log.lock().batch(7, 2);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].0, 7);
        assert_eq!(batch[1].0, 8);
        assert!(log.lock().batch(10, 4).is_empty());
    }

    /// Runs `wait_batch` on another thread with a far heartbeat deadline
    /// and returns what it produced and how long it blocked.
    fn blocked_shipper(
        repl: &Arc<ReplState>,
        running: &Arc<AtomicBool>,
        wake: impl FnOnce(),
    ) -> (Shipment, Duration) {
        let id = follow(&repl.log);
        let from = repl.log.tail();
        let waiter = {
            let repl = Arc::clone(repl);
            let running = Arc::clone(running);
            std::thread::spawn(move || {
                let started = Instant::now();
                let live = || running.load(Ordering::Acquire) && !repl.fenced();
                let got = repl
                    .log
                    .wait_batch(id, from, started + Duration::from_secs(30), live);
                (got, started.elapsed())
            })
        };
        // Let the shipper block on the condition variable first.
        std::thread::sleep(Duration::from_millis(50));
        wake();
        waiter.join().expect("shipper thread")
    }

    fn replicated_state() -> Arc<ReplState> {
        let store = Arc::new(
            SessionStore::open(None, super::super::store::StoreOptions::new(0)).expect("store"),
        );
        ReplState::new(store, false, true, AckMode::Quorum, 1_000)
    }

    #[test]
    fn a_record_wakes_a_blocked_shipper() {
        let repl = replicated_state();
        let running = Arc::new(AtomicBool::new(true));
        let (got, waited) = blocked_shipper(&repl, &running, || {
            repl.store.append(4, SessionOp::Opened);
        });
        assert_eq!(got, Shipment::Records(vec![(0, 4, SessionOp::Opened)]));
        assert!(waited < Duration::from_secs(2), "woke after {waited:?}");
    }

    #[test]
    fn fence_wakes_a_shipper_blocked_on_the_log() {
        let repl = replicated_state();
        let running = Arc::new(AtomicBool::new(true));
        let (got, waited) = blocked_shipper(&repl, &running, || repl.fence(1));
        assert_eq!(got, Shipment::Closed, "a fenced node ships nothing more");
        assert!(waited < Duration::from_secs(2), "woke after {waited:?}");
    }

    #[test]
    fn stopping_wakes_a_shipper_blocked_on_the_log() {
        let repl = replicated_state();
        let running = Arc::new(AtomicBool::new(true));
        let (got, waited) = blocked_shipper(&repl, &running, || {
            // The daemon's stop routine: flip the flag, then wake.
            running.store(false, Ordering::Release);
            repl.log.wake_all();
        });
        assert_eq!(got, Shipment::Closed);
        assert!(waited < Duration::from_secs(2), "woke after {waited:?}");
    }
}
