//! The session store: the write-ahead run journal reused as a durable,
//! replayable log of session operations.
//!
//! `fisql serve` persists **inputs, not outputs**. Every state-changing
//! client operation is appended as a `(session_id, SessionOp)` record to
//! a [`RunJournal`] *before* it executes (write-ahead), and a session is
//! reconstructed — after a client reconnect or a daemon restart, same
//! code path — by replaying its ops through a fresh [`Session`]
//! (../session.rs). Because the whole pipeline is deterministic (the
//! simulated model, the fault injector, and the resilience middleware
//! are all pure functions of their inputs), replay reproduces the
//! transcript bit-identically; there is no second on-disk format and no
//! snapshot to keep consistent.
//!
//! The journal's existing integrity machinery carries over unchanged:
//! checksummed records mean a torn tail from a crash mid-append costs at
//! most the last operation, and the header fingerprint — here derived
//! from [`ServeConfig::fingerprint`](crate::config::ServeConfig) — makes
//! the daemon refuse a store written under a different corpus, strategy,
//! or chaos configuration rather than replay it into different
//! transcripts. The header's case-count slot is pinned to
//! [`SESSION_STORE_MARKER`], so an evaluation run journal can never be
//! mistaken for a session store (or vice versa).
//!
//! # Compaction
//!
//! A long-lived daemon's journal only ever grows, and restart replay
//! cost grows with it. [`SessionStore::compact`] rewrites the journal
//! keeping only **unclosed** sessions' ops (closed and reaped sessions
//! are fully replayed history nobody can resume into a live slot),
//! prefixed by a [`SessionOp::Checkpoint`] record under the reserved
//! [`META_SESSION`] id that carries the new **generation** number and
//! the next-session-id floor (so ids of dropped sessions are never
//! reissued). The rewrite goes to a `<path>.compact` sibling and is
//! **atomically renamed over** the live journal; a crash mid-compaction
//! leaves the old journal untouched. Compaction triggers automatically
//! every `compact_every` closed sessions, or on demand (the `Compact`
//! admin request). Surviving sessions replay byte-identically before
//! and after — compaction only drops records replay never reads.
//!
//! # Disk faults
//!
//! An optional [`DiskFaultConfig`] lane injects deterministic append and
//! fsync failures plus a disk-full horizon (see [`super::diskfault`]).
//! Failures never kill the daemon: a failed append leaves that session's
//! op in memory only ([`Appended::Degraded`] — the serve layer marks the
//! session degraded and keeps serving it), and a disk-full error flips
//! the whole store unwritable, after which [`SessionStore::open_session`]
//! refuses new sessions with a typed error while existing sessions
//! continue memory-only.

use super::diskfault::DiskFaultConfig;
use super::replicate::{lineage_hash, ReplLog, SnapshotPoint};
use crate::journal::{FsyncPolicy, RunJournal};
use fisql_sqlkit::Span;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Value pinned into the journal header's case-count slot for session
/// stores. An eval journal records its real (small) case count there, so
/// the two uses of the format can never be confused.
pub const SESSION_STORE_MARKER: u64 = u64::MAX;

/// Reserved session id carrying store metadata records
/// ([`SessionOp::Checkpoint`]); never issued to a real session.
pub const META_SESSION: u64 = u64::MAX;

/// Each fencing epoch issues session ids from its own range, starting
/// at `epoch << EPOCH_ID_SHIFT` (see [`SessionStore::open_session`]).
const EPOCH_ID_SHIFT: u32 = 32;

/// One journaled session operation — the replay unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionOp {
    /// The session was opened.
    Opened,
    /// The client asked a question; the server resolved it to a corpus
    /// example. The resolved index is journaled so replay never depends
    /// on the resolution heuristic staying stable.
    Ask {
        /// Index into the serve corpus's example list.
        example_idx: u64,
        /// The question as the client typed it (diagnostics only).
        question: String,
    },
    /// The client sent feedback.
    Feedback {
        /// The feedback utterance.
        text: String,
        /// Optional highlight over the rendered SQL.
        highlight: Option<Span>,
    },
    /// The client closed the session with `Bye`.
    Closed,
    /// The idle reaper reclaimed the session's slot after the client
    /// went silent past `--idle-timeout`. Ends the session like
    /// [`SessionOp::Closed`] (the transcript stays replayable until the
    /// next compaction); replay skips it.
    Reaped {
        /// How long the connection had been idle, milliseconds.
        idle_ms: u64,
    },
    /// Compaction checkpoint, journaled under [`META_SESSION`] as the
    /// first record of a compacted journal. Never part of a session's
    /// replay stream.
    Checkpoint {
        /// Compaction generation (0 = never compacted; +1 per rewrite).
        generation: u64,
        /// Floor for newly issued session ids, so ids of compacted-away
        /// sessions are never reused.
        next_session_id: u64,
    },
    /// Fencing-epoch record, journaled under [`META_SESSION`] when this
    /// node is promoted to replication primary (see
    /// [`super::replicate`]). Monotonic: the store's epoch is the max of
    /// every `Epoch` record it holds; compaction re-asserts it right
    /// after the checkpoint. Never written while replication is unused
    /// (epoch 0 is implicit), so a replication-free store's bytes are
    /// unchanged. Never part of a session's replay stream.
    Epoch {
        /// The fencing epoch (>= 1; bumped on every promotion).
        epoch: u64,
    },
}

impl SessionOp {
    /// Whether this op ends its session (no further live slot).
    pub fn closes_session(&self) -> bool {
        matches!(self, SessionOp::Closed | SessionOp::Reaped { .. })
    }
}

/// How [`SessionStore::open`] should behave beyond the path: replay
/// fingerprint, durability policy, compaction cadence, and the chaos
/// lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreOptions {
    /// Replay fingerprint the journal header must match.
    pub fingerprint: u64,
    /// Fsync policy for appends.
    pub fsync: FsyncPolicy,
    /// Auto-compact after this many closed/reaped sessions
    /// (0 = only on explicit [`SessionStore::compact`] calls).
    pub compact_every: u64,
    /// Deterministic disk-fault injection lane, if any.
    pub faults: Option<DiskFaultConfig>,
}

impl StoreOptions {
    /// Options with the given fingerprint and everything else default
    /// (batch fsync, no auto-compaction, no fault injection).
    pub fn new(fingerprint: u64) -> StoreOptions {
        StoreOptions {
            fingerprint,
            fsync: FsyncPolicy::default(),
            compact_every: 0,
            faults: None,
        }
    }

    /// Builder: sets the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Builder: sets the auto-compaction cadence.
    pub fn compact_every(mut self, closed_sessions: u64) -> Self {
        self.compact_every = closed_sessions;
        self
    }

    /// Builder: sets the disk-fault lane.
    pub fn faults(mut self, faults: Option<DiskFaultConfig>) -> Self {
        self.faults = faults;
        self
    }
}

/// The durability of one accepted append.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Appended {
    /// Journaled write-ahead (or the store is memory-only by
    /// configuration, where memory *is* the store).
    Durable,
    /// The journal write failed; the op was kept in memory only, so the
    /// live daemon still replays it on reconnect, but a restart loses
    /// it. The serve layer marks the session degraded.
    Degraded {
        /// The rendered disk error.
        error: String,
    },
}

/// What one compaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// The generation the store is now at.
    pub generation: u64,
    /// Ops in the store before the rewrite.
    pub ops_before: u64,
    /// Ops kept (surviving sessions only).
    pub ops_after: u64,
    /// Sessions whose history was dropped.
    pub sessions_dropped: u64,
}

/// A point-in-time view of the store's health counters
/// (serde-serializable for the `Stats` admin response).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// Ops currently held (after any compaction).
    pub ops: u64,
    /// Distinct sessions currently held.
    pub sessions: u64,
    /// Compaction generation (0 = never compacted).
    pub generation: u64,
    /// Compactions performed by this store instance.
    pub compactions: u64,
    /// Ops dropped across all compactions.
    pub ops_dropped: u64,
    /// Appends that degraded to memory-only (disk fault).
    pub append_faults: u64,
    /// Fsyncs that failed.
    pub sync_faults: u64,
    /// Whether the journal is still accepting writes (`false` after
    /// disk-full: new sessions are refused).
    pub writable: bool,
    /// Whether the store is durable at all (`false` = memory-only by
    /// configuration).
    pub durable: bool,
    /// Fencing epoch (0 = this lineage was never promoted).
    pub epoch: u64,
}

#[derive(Debug)]
struct Inner {
    /// The backing journal, when the store is durable.
    journal: Option<RunJournal>,
    /// The journal's path (for compaction rewrites).
    path: Option<PathBuf>,
    /// Every live op, in append order — the in-memory image replays
    /// read. Checkpoint records live only on disk.
    ops: Vec<(u64, SessionOp)>,
    /// Next session id to hand out.
    next_id: u64,
    /// Compaction generation.
    generation: u64,
    /// Closed/reaped sessions since the last compaction.
    closed_since_compact: u64,
    /// Per-session journaled-op indices (fault-schedule key).
    op_counts: HashMap<u64, u64>,
    /// Total ops ever offered to the journal (disk-full horizon).
    total_ops: u64,
    /// Fsyncs attempted (fault-schedule key).
    sync_count: u64,
    /// False after disk-full: the journal takes no further writes.
    writable: bool,
    /// Fencing epoch (max of every `Epoch` record; 0 = replication never
    /// promoted this lineage).
    epoch: u64,
    /// Replication log every non-meta append is mirrored into, once a
    /// `ReplState` attaches one (absent when replication is unused).
    repl: Option<Arc<ReplLog>>,
    compactions: u64,
    ops_dropped: u64,
    append_faults: u64,
    sync_faults: u64,
}

/// A concurrent, durable session-operation log (see the module docs).
#[derive(Debug)]
pub struct SessionStore {
    options: StoreOptions,
    inner: Mutex<Inner>,
}

impl SessionStore {
    /// Opens a store. With a `path`, an existing journal is resumed
    /// (validating its fingerprint and truncating any torn tail) and a
    /// missing one is created; without, the store is memory-only.
    pub fn open(path: Option<&Path>, options: StoreOptions) -> io::Result<SessionStore> {
        let (journal, raw_ops) = match path {
            None => (None, Vec::new()),
            Some(path) if path.exists() => {
                let (journal, ops) = RunJournal::open_resume::<SessionOp>(
                    path,
                    options.fingerprint,
                    SESSION_STORE_MARKER,
                    options.fsync,
                )?;
                (Some(journal), ops)
            }
            Some(path) => (
                Some(RunJournal::create(
                    path,
                    options.fingerprint,
                    SESSION_STORE_MARKER,
                    options.fsync,
                )?),
                Vec::new(),
            ),
        };
        // Split metadata off the replayable stream: a checkpoint pins
        // the generation and the id floor, an epoch record pins the
        // fencing epoch, and neither reaches replay.
        let mut generation = 0;
        let mut id_floor = 0;
        let mut epoch = 0;
        let mut ops = Vec::with_capacity(raw_ops.len());
        for (id, op) in raw_ops {
            match op {
                SessionOp::Checkpoint {
                    generation: g,
                    next_session_id,
                } if id == META_SESSION => {
                    generation = generation.max(g);
                    id_floor = id_floor.max(next_session_id);
                }
                SessionOp::Epoch { epoch: e } if id == META_SESSION => {
                    epoch = epoch.max(e);
                }
                _ => ops.push((id, op)),
            }
        }
        let next_id = ops
            .iter()
            .map(|(id, _)| id + 1)
            .max()
            .unwrap_or(0)
            .max(id_floor);
        let op_counts = count_ops(&ops);
        let total_ops = ops.len() as u64;
        Ok(SessionStore {
            options,
            inner: Mutex::new(Inner {
                journal,
                path: path.map(Path::to_path_buf),
                ops,
                next_id,
                generation,
                closed_since_compact: 0,
                op_counts,
                total_ops,
                sync_count: 0,
                writable: true,
                epoch,
                repl: None,
                compactions: 0,
                ops_dropped: 0,
                append_faults: 0,
                sync_faults: 0,
            }),
        })
    }

    /// Opens a fresh session: assigns the next id and journals its
    /// `Opened` record. Refuses (typed `StorageFull`-kind error) when
    /// the journal has flipped unwritable — existing sessions keep
    /// running memory-only, but new work is shed while durability is
    /// gone.
    ///
    /// Ids never repeat across a failover: a node promoted to epoch `E`
    /// issues ids from `E << 32` up, above every id its deposed
    /// predecessor handed out — including opens that never shipped — so
    /// a client re-attaching by id finds its own session or none.
    pub fn open_session(&self) -> io::Result<(u64, Appended)> {
        let (id, durability, _) = self.open_session_tracked()?;
        Ok((id, durability))
    }

    /// [`SessionStore::open_session`], also reporting the replication
    /// stream position of the `Opened` record (0 when replication is
    /// detached) so the caller can gate on exactly its own append.
    pub fn open_session_tracked(&self) -> io::Result<(u64, Appended, u64)> {
        let mut inner = self.lock();
        if inner.journal.is_some() && !inner.writable {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "session store is unwritable (disk full); not accepting new sessions",
            ));
        }
        let id = inner.next_id.max(inner.epoch << EPOCH_ID_SHIFT);
        inner.next_id = id + 1;
        let (durability, repl_upto) = self.append_locked(&mut inner, id, SessionOp::Opened);
        Ok((id, durability, repl_upto))
    }

    /// Appends one op to an existing session, write-ahead. Never fails
    /// the session: a disk fault degrades the append to memory-only and
    /// reports it.
    pub fn append(&self, session_id: u64, op: SessionOp) -> Appended {
        self.append_locked(&mut self.lock(), session_id, op).0
    }

    /// [`SessionStore::append`], also reporting the replication stream
    /// position this op landed at (0 when nothing was mirrored — meta
    /// ops, or no log attached). The position is what a quorum gate
    /// waits on: a session is gated on its own writes, not on whatever
    /// unrelated sessions appended since.
    pub fn append_tracked(&self, session_id: u64, op: SessionOp) -> (Appended, u64) {
        self.append_locked(&mut self.lock(), session_id, op)
    }

    /// Applies one record shipped from a replication primary: the same
    /// append path (journaled write-ahead, mirrored into the attached
    /// log so the follower's `have` count advances), plus an id-floor
    /// bump so a later promotion never reissues a replicated session's
    /// id.
    pub fn apply_replicated(&self, session_id: u64, op: SessionOp) -> Appended {
        let mut inner = self.lock();
        if session_id != META_SESSION {
            inner.next_id = inner.next_id.max(session_id + 1);
        }
        self.append_locked(&mut inner, session_id, op).0
    }

    /// Attaches the replication log every subsequent non-meta append is
    /// mirrored into, starting its stream at the end of the current
    /// image: position = surviving ops, lineage hash = their hash. The
    /// log keeps none of them.
    pub fn attach_repl(&self, log: Arc<ReplLog>) {
        let mut inner = self.lock();
        log.rebase(inner.ops.len() as u64, lineage_hash(&inner.ops));
        inner.repl = Some(log);
    }

    /// A copy of the live op stream for a follower that cannot resume,
    /// registered with `log` at the stream position the copy was taken
    /// at. Both happen under the store lock, which every append to the
    /// attached log holds, so the image is exactly the stream at
    /// `point.base`.
    pub(crate) fn replication_snapshot(
        &self,
        log: &ReplLog,
    ) -> (Vec<(u64, SessionOp)>, SnapshotPoint) {
        let inner = self.lock();
        let point = log.join_snapshot();
        (inner.ops.clone(), point)
    }

    /// Replaces this store's image with a replication primary's
    /// snapshot, taken at stream position `base` with lineage hash
    /// `base_hash`. The journal is atomically rewritten to the fencing
    /// epoch — the one local fact that must survive, or a caught-up
    /// ex-primary could forget it was deposed — followed by the image,
    /// and the attached replication log resumes the stream at `base`.
    /// Fault counters and the fault-schedule keys (`total_ops`,
    /// `sync_count`) stay monotonic.
    pub(crate) fn install_snapshot(
        &self,
        ops: Vec<(u64, SessionOp)>,
        base: u64,
        base_hash: u64,
    ) -> io::Result<()> {
        let mut inner = self.lock();
        let epoch = inner.epoch;
        let meta: Vec<SessionOp> = (epoch > 0)
            .then_some(SessionOp::Epoch { epoch })
            .into_iter()
            .collect();
        self.rewrite_journal(&mut inner, "snapshot", &meta, &ops)?;
        inner.next_id = ops.iter().map(|(id, _)| id + 1).max().unwrap_or(0);
        inner.op_counts = count_ops(&ops);
        inner.ops = ops;
        inner.generation = 0;
        inner.closed_since_compact = 0;
        if let Some(repl) = &inner.repl {
            repl.rebase(base, base_hash);
        }
        Ok(())
    }

    /// Atomically replaces the journal (when the store has one) with
    /// `meta` records followed by `ops`: written to a `.{suffix}`
    /// sibling, synced, and renamed over the live file. The open handle
    /// follows the inode, so appends continue into the file now living
    /// at the path. A failed rewrite leaves the old journal in place.
    fn rewrite_journal(
        &self,
        inner: &mut Inner,
        suffix: &str,
        meta: &[SessionOp],
        ops: &[(u64, SessionOp)],
    ) -> io::Result<()> {
        let Some(path) = inner.path.clone() else {
            return Ok(());
        };
        if !inner.writable {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "session store is unwritable (disk full); cannot rewrite the journal",
            ));
        }
        let tmp = PathBuf::from(format!("{}.{suffix}", path.display()));
        let rewrite = (|| -> io::Result<RunJournal> {
            let mut journal = RunJournal::create(
                &tmp,
                self.options.fingerprint,
                SESSION_STORE_MARKER,
                self.options.fsync,
            )?;
            for op in meta {
                journal.append(META_SESSION, op)?;
            }
            for (id, op) in ops {
                journal.append(*id, op)?;
            }
            journal.sync()?;
            Ok(journal)
        })();
        match rewrite {
            Ok(journal) => {
                std::fs::rename(&tmp, &path)?;
                inner.journal = Some(journal);
                Ok(())
            }
            Err(err) => {
                std::fs::remove_file(&tmp).ok();
                if err.kind() == io::ErrorKind::StorageFull {
                    inner.writable = false;
                }
                Err(err)
            }
        }
    }

    /// The store's fencing epoch (0 = never promoted).
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Raises the fencing epoch, persisting an [`SessionOp::Epoch`]
    /// record (synced immediately — a promotion that later un-happens
    /// would re-split the brain). The in-memory epoch advances even if
    /// the disk is gone: a promotion must not fail on a degraded store,
    /// it only loses crash-persistence of the fence.
    pub fn set_epoch(&self, epoch: u64) -> io::Result<()> {
        let mut inner = self.lock();
        if epoch <= inner.epoch {
            return Ok(());
        }
        inner.epoch = epoch;
        if inner.writable {
            if let Some(journal) = inner.journal.as_mut() {
                let written = journal
                    .append(META_SESSION, &SessionOp::Epoch { epoch })
                    .and_then(|()| journal.sync());
                if let Err(err) = written {
                    inner.append_faults += 1;
                    if err.kind() == io::ErrorKind::StorageFull {
                        inner.writable = false;
                    }
                }
            }
        }
        Ok(())
    }

    fn append_locked(&self, inner: &mut Inner, session_id: u64, op: SessionOp) -> (Appended, u64) {
        let op_index = {
            let slot = inner.op_counts.entry(session_id).or_insert(0);
            let index = *slot;
            *slot += 1;
            index
        };
        let total = inner.total_ops;
        inner.total_ops += 1;
        let closes = op.closes_session();

        let mut durability = Appended::Durable;
        if let Some(journal) = inner.journal.as_mut() {
            if inner.writable {
                let injected = self
                    .options
                    .faults
                    .and_then(|f| f.append_fault(session_id, op_index, total));
                let result = match injected {
                    Some(err) => Err(err),
                    None => journal.append(session_id, &op),
                };
                if let Err(err) = result {
                    inner.append_faults += 1;
                    if err.kind() == io::ErrorKind::StorageFull {
                        inner.writable = false;
                    }
                    durability = Appended::Degraded {
                        error: err.to_string(),
                    };
                }
            } else {
                durability = Appended::Degraded {
                    error: "session store is unwritable (disk full)".to_string(),
                };
            }
        }
        // The in-memory image always records the op: the live daemon
        // replays reconnects from memory even while the disk is gone.
        // A degraded (memory-only) op still enters the replication log —
        // a follower with a healthy disk is exactly how it survives.
        let mut repl_upto = 0;
        if let Some(repl) = &inner.repl {
            if session_id != META_SESSION {
                repl_upto = repl.append(session_id, &op);
            }
        }
        inner.ops.push((session_id, op));

        if closes {
            inner.closed_since_compact += 1;
            if self.options.compact_every > 0
                && inner.closed_since_compact >= self.options.compact_every
            {
                // Auto-compaction is best-effort: a failure leaves the
                // uncompacted journal in place, which is always valid.
                let _ = self.compact_locked(inner);
            }
        }
        (durability, repl_upto)
    }

    /// Rewrites the journal keeping only unclosed sessions' ops, bumps
    /// the generation, and atomically renames the rewrite over the live
    /// file. See the module docs.
    pub fn compact(&self) -> io::Result<CompactionOutcome> {
        self.compact_locked(&mut self.lock())
    }

    fn compact_locked(&self, inner: &mut Inner) -> io::Result<CompactionOutcome> {
        let ops_before = inner.ops.len() as u64;
        let survivors = unclosed_of(&inner.ops);
        let kept: Vec<(u64, SessionOp)> = inner
            .ops
            .iter()
            .filter(|(id, _)| survivors.contains(id))
            .cloned()
            .collect();
        let sessions_dropped = sessions_of(&inner.ops)
            .iter()
            .filter(|id| !survivors.contains(id))
            .count() as u64;
        let generation = inner.generation + 1;
        // The rewrite drops every old metadata record, so a nonzero
        // fencing epoch must be re-asserted or a restart would forget
        // it was ever promoted.
        let mut meta = vec![SessionOp::Checkpoint {
            generation,
            next_session_id: inner.next_id,
        }];
        if inner.epoch > 0 {
            meta.push(SessionOp::Epoch { epoch: inner.epoch });
        }
        self.rewrite_journal(inner, "compact", &meta, &kept)?;

        inner.op_counts = count_ops(&kept);
        inner.ops = kept;
        inner.generation = generation;
        inner.closed_since_compact = 0;
        inner.compactions += 1;
        let ops_after = inner.ops.len() as u64;
        inner.ops_dropped += ops_before - ops_after;
        Ok(CompactionOutcome {
            generation,
            ops_before,
            ops_after,
            sessions_dropped,
        })
    }

    /// The ops of one session, in order (empty = unknown session).
    pub fn session_ops(&self, session_id: u64) -> Vec<SessionOp> {
        self.lock()
            .ops
            .iter()
            .filter(|(id, _)| *id == session_id)
            .map(|(_, op)| op.clone())
            .collect()
    }

    /// Every session id the store knows, ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        sessions_of(&self.lock().ops)
    }

    /// Sessions that were never ended — neither closed with `Bye` nor
    /// reaped — i.e. the ones a crash or silent disconnect interrupted.
    pub fn unclosed_sessions(&self) -> Vec<u64> {
        unclosed_of(&self.lock().ops)
    }

    /// Flushes pending appends to stable storage. A failed fsync is
    /// counted and reported but leaves the store serving (durability of
    /// the batch is lost, nothing else).
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.lock();
        let sync_index = inner.sync_count;
        inner.sync_count += 1;
        if inner.journal.is_none() || !inner.writable {
            return Ok(());
        }
        let total = inner.total_ops;
        let injected = self
            .options
            .faults
            .and_then(|f| f.sync_fault(sync_index, total));
        let result = match (injected, inner.journal.as_mut()) {
            (Some(err), _) => Err(err),
            (None, Some(journal)) => journal.sync(),
            // Unreachable (memory-only stores returned above), but a
            // no-op beats a panic on a daemon-lifetime path.
            (None, None) => Ok(()),
        };
        if let Err(err) = result {
            inner.sync_faults += 1;
            if err.kind() == io::ErrorKind::StorageFull {
                inner.writable = false;
            }
            return Err(err);
        }
        Ok(())
    }

    /// Whether the journal still accepts writes (always `true` for a
    /// memory-only store: there is nothing to fill).
    pub fn writable(&self) -> bool {
        let inner = self.lock();
        inner.journal.is_none() || inner.writable
    }

    /// The compaction generation (0 = never compacted).
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Health counters.
    pub fn snapshot(&self) -> StoreSnapshot {
        let inner = self.lock();
        StoreSnapshot {
            ops: inner.ops.len() as u64,
            sessions: sessions_of(&inner.ops).len() as u64,
            generation: inner.generation,
            compactions: inner.compactions,
            ops_dropped: inner.ops_dropped,
            append_faults: inner.append_faults,
            sync_faults: inner.sync_faults,
            writable: inner.journal.is_none() || inner.writable,
            durable: inner.journal.is_some(),
            epoch: inner.epoch,
        }
    }

    /// Total ops recorded (all sessions, after any compaction).
    pub fn len(&self) -> usize {
        self.lock().ops.len()
    }

    /// Whether the store holds no ops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned store lock means a panic escaped the serve layer's
        // isolation while appending; the in-memory image is still
        // well-formed (Vec pushes are atomic at this granularity).
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Per-session op counts of `ops` (the fault schedule's op indices).
fn count_ops(ops: &[(u64, SessionOp)]) -> HashMap<u64, u64> {
    let mut counts = HashMap::new();
    for (id, _) in ops {
        *counts.entry(*id).or_insert(0) += 1;
    }
    counts
}

/// Distinct session ids in `ops`, ascending.
fn sessions_of(ops: &[(u64, SessionOp)]) -> Vec<u64> {
    let mut ids: Vec<u64> = ops.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Session ids opened but never closed/reaped, in open order.
fn unclosed_of(ops: &[(u64, SessionOp)]) -> Vec<u64> {
    let mut open: Vec<u64> = Vec::new();
    for (id, op) in ops {
        match op {
            SessionOp::Opened => open.push(*id),
            op if op.closes_session() => open.retain(|o| o != id),
            _ => {}
        }
    }
    open
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "fisql-session-store-{}-{name}.fjnl",
            std::process::id()
        ))
    }

    fn opts(fingerprint: u64, fsync: FsyncPolicy) -> StoreOptions {
        StoreOptions::new(fingerprint).fsync(fsync)
    }

    fn ask(idx: u64) -> SessionOp {
        SessionOp::Ask {
            example_idx: idx,
            question: format!("q{idx}"),
        }
    }

    #[test]
    fn ops_roundtrip_across_reopen() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        {
            let store =
                SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::EachRecord)).unwrap();
            let (a, _) = store.open_session().unwrap();
            let (b, _) = store.open_session().unwrap();
            assert_ne!(a, b);
            assert_eq!(store.append(a, ask(4)), Appended::Durable);
            assert_eq!(
                store.append(
                    a,
                    SessionOp::Feedback {
                        text: "we are in 2024".into(),
                        highlight: None,
                    },
                ),
                Appended::Durable
            );
            store.append(b, SessionOp::Closed);
            store.sync().unwrap();
        }
        let store = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Batch)).unwrap();
        assert_eq!(store.session_ids(), vec![0, 1]);
        assert_eq!(
            store.session_ops(0),
            vec![
                SessionOp::Opened,
                ask(4),
                SessionOp::Feedback {
                    text: "we are in 2024".into(),
                    highlight: None,
                },
            ]
        );
        assert_eq!(store.unclosed_sessions(), vec![0]);
        // Ids never collide with recovered sessions.
        assert_eq!(store.open_session().unwrap().0, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn install_snapshot_replaces_the_image_but_keeps_the_epoch() {
        let path = tmp("snapshot");
        std::fs::remove_file(&path).ok();
        let image = vec![(7, SessionOp::Opened), (7, ask(2))];
        {
            let store =
                SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::EachRecord)).unwrap();
            let log = Arc::new(ReplLog::new());
            store.attach_repl(Arc::clone(&log));
            let (id, _) = store.open_session().unwrap();
            store.append(id, ask(1));
            store.set_epoch(3).unwrap();
            store.install_snapshot(image.clone(), 40, 0xABC).unwrap();
            assert_eq!(store.session_ids(), vec![7], "the image is the snapshot's");
            assert_eq!(store.session_ops(7), vec![SessionOp::Opened, ask(2)]);
            assert_eq!(store.epoch(), 3, "the fence survives the install");
            assert_eq!(
                (log.tail(), log.prefix_hash(40)),
                (40, Some(0xABC)),
                "the stream resumes at the snapshot's position"
            );
            assert_eq!(log.retained(), 0);
            // Ids continue from the epoch's range base.
            assert_eq!(store.open_session().unwrap().0, 3 << EPOCH_ID_SHIFT);
        }
        // The journal rewrite is what a restart replays: the snapshot's
        // ops, the epoch re-asserted.
        let store = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Never)).unwrap();
        assert_eq!(
            store.session_ids(),
            vec![7, 3 << EPOCH_ID_SHIFT],
            "the snapshot plus the post-install open"
        );
        assert_eq!(store.epoch(), 3);
        // An empty snapshot blanks the image.
        store.install_snapshot(Vec::new(), 0, 0).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.epoch(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn session_ids_never_repeat_across_a_promotion() {
        let path = tmp("epoch-ids");
        std::fs::remove_file(&path).ok();
        let primary = SessionStore::open(None, opts(0xF00D, FsyncPolicy::Never)).unwrap();
        let shipped = primary.open_session().unwrap().0;
        for _ in 0..2 {
            // Opened on the primary but never shipped.
            primary.open_session().unwrap();
        }
        {
            let follower =
                SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::EachRecord)).unwrap();
            follower.apply_replicated(shipped, SessionOp::Opened);
            follower.set_epoch(1).unwrap();
        }
        // Promoted, restarted, and only then opening: the new ids sit
        // above every id the deposed primary can have issued.
        let promoted = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Never)).unwrap();
        let (id, _) = promoted.open_session().unwrap();
        assert_eq!(id, 1 << EPOCH_ID_SHIFT);
        assert!(primary.session_ids().iter().all(|&old| old < id));
        assert_eq!(promoted.open_session().unwrap().0, id + 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tracked_appends_report_the_replication_position() {
        let store = SessionStore::open(None, opts(0, FsyncPolicy::Never)).unwrap();
        // Replication detached: nothing to gate on.
        let (id, _, upto) = store.open_session_tracked().unwrap();
        assert_eq!(upto, 0);
        let log = Arc::new(ReplLog::new());
        store.attach_repl(Arc::clone(&log));
        // The stream starts at the end of the image (the `Opened`
        // record), hashing it without keeping it.
        assert_eq!(log.tail(), 1);
        assert_eq!(log.retained(), 0);
        let (_, upto) = store.append_tracked(id, ask(0));
        assert_eq!(upto, 2, "first mirrored record");
        let (_, upto) = store.append_tracked(id, SessionOp::Closed);
        assert_eq!(upto, 3);
        assert_eq!(log.tail(), 3);
    }

    #[test]
    fn foreign_fingerprint_is_refused() {
        let path = tmp("foreign");
        std::fs::remove_file(&path).ok();
        {
            let store = SessionStore::open(Some(&path), opts(0xAAAA, FsyncPolicy::Never)).unwrap();
            store.open_session().unwrap();
            store.sync().unwrap();
        }
        let err = SessionStore::open(Some(&path), opts(0xBBBB, FsyncPolicy::Never)).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_recovers_the_intact_prefix() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        {
            let store = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Never)).unwrap();
            let (id, _) = store.open_session().unwrap();
            store.append(id, ask(0));
            store.sync().unwrap();
        }
        // A crash mid-append: garbage half-record at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&64u32.to_le_bytes());
        bytes.extend_from_slice(&[0xCD; 9]);
        std::fs::write(&path, &bytes).unwrap();

        let store = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Never)).unwrap();
        assert_eq!(store.len(), 2, "intact prefix only");
        assert_eq!(store.session_ops(0).len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_only_store_works_without_a_path() {
        let store = SessionStore::open(None, opts(0, FsyncPolicy::Never)).unwrap();
        let (id, durability) = store.open_session().unwrap();
        assert_eq!(durability, Appended::Durable);
        store.append(id, SessionOp::Closed);
        assert_eq!(store.session_ids(), vec![id]);
        assert!(store.writable());
        store.sync().unwrap();
    }

    #[test]
    fn reaped_sessions_count_as_ended() {
        let store = SessionStore::open(None, opts(0, FsyncPolicy::Never)).unwrap();
        let (a, _) = store.open_session().unwrap();
        let (b, _) = store.open_session().unwrap();
        store.append(a, ask(0));
        store.append(a, SessionOp::Reaped { idle_ms: 500 });
        assert_eq!(store.unclosed_sessions(), vec![b]);
        // The reaped transcript is still there to resume until compaction.
        assert_eq!(store.session_ops(a).len(), 3);
    }

    #[test]
    fn compaction_drops_ended_sessions_and_survives_reopen() {
        let path = tmp("compact");
        std::fs::remove_file(&path).ok();
        let survivor_ops;
        {
            let store =
                SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::EachRecord)).unwrap();
            let (done, _) = store.open_session().unwrap();
            store.append(done, ask(1));
            store.append(done, SessionOp::Closed);
            let (reaped, _) = store.open_session().unwrap();
            store.append(reaped, ask(2));
            store.append(reaped, SessionOp::Reaped { idle_ms: 9 });
            let (live, _) = store.open_session().unwrap();
            assert_eq!(live, 2);
            store.append(live, ask(3));
            survivor_ops = store.session_ops(live);

            let outcome = store.compact().unwrap();
            assert_eq!(outcome.generation, 1);
            assert_eq!(outcome.ops_before, 8);
            assert_eq!(outcome.ops_after, 2);
            assert_eq!(outcome.sessions_dropped, 2);
            assert_eq!(store.session_ids(), vec![live]);
            assert_eq!(store.session_ops(live), survivor_ops, "survivor intact");

            // The store keeps appending to the renamed-over journal.
            store.append(live, ask(4));
            store.sync().unwrap();
        }
        // Reopen: generation persisted, survivor replay identical, and
        // the id floor prevents reuse of dropped ids.
        let store = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Never)).unwrap();
        assert_eq!(store.generation(), 1);
        assert_eq!(store.session_ids(), vec![2]);
        let mut expected = survivor_ops.clone();
        expected.push(ask(4));
        assert_eq!(store.session_ops(2), expected);
        assert_eq!(store.open_session().unwrap().0, 3, "id floor respected");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn auto_compaction_triggers_on_closed_session_cadence() {
        let path = tmp("autocompact");
        std::fs::remove_file(&path).ok();
        let store = SessionStore::open(
            Some(&path),
            opts(0xF00D, FsyncPolicy::Never).compact_every(2),
        )
        .unwrap();
        let (keep, _) = store.open_session().unwrap();
        store.append(keep, ask(0));
        for _ in 0..2 {
            let (id, _) = store.open_session().unwrap();
            store.append(id, ask(1));
            store.append(id, SessionOp::Closed);
        }
        // Second close crossed the cadence: generation bumped, only the
        // live session left.
        assert_eq!(store.generation(), 1);
        assert_eq!(store.session_ids(), vec![keep]);
        let snap = store.snapshot();
        assert_eq!(snap.compactions, 1);
        assert!(snap.ops_dropped >= 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_is_atomic_rename_no_tmp_left_behind() {
        let path = tmp("atomic");
        std::fs::remove_file(&path).ok();
        let store = SessionStore::open(Some(&path), opts(0xF00D, FsyncPolicy::Never)).unwrap();
        let (id, _) = store.open_session().unwrap();
        store.append(id, SessionOp::Closed);
        store.compact().unwrap();
        let tmp_path = PathBuf::from(format!("{}.compact", path.display()));
        assert!(!tmp_path.exists(), "rewrite must be renamed over");
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_append_fault_degrades_without_losing_the_memory_image() {
        let store = SessionStore::open(
            None,
            opts(0, FsyncPolicy::Never).faults(Some(DiskFaultConfig::uniform(1.0))),
        )
        .unwrap();
        // Memory-only store: faults never fire (nothing to inject into).
        let (id, d) = store.open_session().unwrap();
        assert_eq!(d, Appended::Durable);

        let path = tmp("faulty");
        std::fs::remove_file(&path).ok();
        let store = SessionStore::open(
            Some(&path),
            opts(0xF00D, FsyncPolicy::Never).faults(Some(DiskFaultConfig::uniform(1.0))),
        )
        .unwrap();
        let (id2, d2) = store.open_session().unwrap();
        assert!(matches!(d2, Appended::Degraded { .. }), "rate 1 must fire");
        // The op is still in the in-memory image for live replay.
        assert_eq!(store.session_ops(id2), vec![SessionOp::Opened]);
        assert_eq!(store.snapshot().append_faults, 1);
        assert!(store.writable(), "transient faults do not flip writable");
        let _ = id;
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_full_flips_unwritable_and_refuses_new_sessions() {
        let path = tmp("full");
        std::fs::remove_file(&path).ok();
        let store = SessionStore::open(
            Some(&path),
            opts(0xF00D, FsyncPolicy::Never).faults(Some(DiskFaultConfig {
                full_after_ops: Some(2),
                ..DiskFaultConfig::uniform(0.0)
            })),
        )
        .unwrap();
        let (id, d) = store.open_session().unwrap();
        assert_eq!(d, Appended::Durable);
        assert_eq!(store.append(id, ask(0)), Appended::Durable);
        // Third op crosses the horizon: degraded, store unwritable.
        assert!(matches!(
            store.append(id, ask(1)),
            Appended::Degraded { .. }
        ));
        assert!(!store.writable());
        let err = store.open_session().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // The existing session continues memory-only.
        assert!(matches!(
            store.append(id, ask(2)),
            Appended::Degraded { .. }
        ));
        assert_eq!(store.session_ops(id).len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_faults_are_counted_and_reported() {
        let path = tmp("syncfault");
        std::fs::remove_file(&path).ok();
        let store = SessionStore::open(
            Some(&path),
            opts(0xF00D, FsyncPolicy::EachRecord).faults(Some(DiskFaultConfig {
                sync_rate: 1.0,
                ..DiskFaultConfig::default()
            })),
        )
        .unwrap();
        store.open_session().unwrap();
        assert!(store.sync().is_err());
        assert_eq!(store.snapshot().sync_faults, 1);
        assert!(store.writable(), "sync faults are not disk-full");
        std::fs::remove_file(&path).ok();
    }
}
