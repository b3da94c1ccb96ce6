//! The recovery manager (paper Section 3.8).
//!
//! "This tool will restart processes after they fail, or if a site recovers.  The recovery
//! manager runs an algorithm similar to the one in \[Skeen\] to distinguish the total failure
//! of a process group from the partial failure of a member, and will advise the recovering
//! process either to restart the group (if it was one of the last to fail) or to wait for it
//! to restart elsewhere and then rejoin."
//!
//! Each registered member logs every view it observes and every message it applies to
//! stable storage.  Whether a recovering member restarts the group or rejoins it is decided
//! by the reform election its site stack runs (`SiteStack::begin_reform`, fed by
//! [`RecoveryManager::log_summary`]); the member reads the verdict at its first view, where
//! [`RecoveryManager::attach_restart`] replays the log of a member that founded that view
//! alone and discards the log of one that rejoined.
//!
//! # Checkpoint-based log compaction
//!
//! The delivery log grows without bound on a long-lived member, so the manager can
//! periodically fold it into a **checkpoint**: the application's state encoded as the same
//! variable-sized blocks `StateTransfer` uses, written at a quiesced cut (a view-change
//! dispatch), after which every log record the checkpoint covers is truncated.
//! [`RecoveryManager::recover`] then replays the newest checkpoint first and the surviving
//! log tail after it.  Two fences keep this safe against races (the `xfer-epoch` pattern
//! from the state-transfer re-serve protocol):
//!
//! * **epoch fencing** — every checkpoint is tagged with the view seq of the cut it was
//!   encoded at; a compaction whose epoch does not exceed the stored checkpoint's is a
//!   straggler from a superseded cut and is rejected;
//! * **replay fencing** — compaction is refused while a replay is in progress, so the log
//!   being read can never be truncated under the reader.
//!
//! A crash *between* writing the checkpoint and truncating the log is also harmless:
//! every log record carries a monotone sequence number (`lsn`) and the checkpoint records
//! the highest lsn it folded, so replay skips log records the checkpoint already covers
//! instead of double-applying them.

use std::cell::Cell;
use std::rc::Rc;

use vsync_core::{
    Address, EntryId, Frontier, GroupId, LogSummary, Message, MsgId, ProcessBuilder, ProcessId,
    View,
};
use vsync_util::{Result, SiteId, VsError};

use crate::stable::StableStore;

/// What [`RecoveryManager::recover`] reconstructed from durable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Delivered-message records re-applied through the caller's closure.
    pub messages: usize,
    /// View markers crossed (not re-applied — membership is re-learned by rejoining).
    pub views: usize,
    /// Checkpoint state blocks handed to the snapshot closure (0 when no checkpoint).
    pub snapshot_blocks: usize,
    /// Epoch (cut view seq) of the checkpoint the replay started from, if any.
    pub checkpoint_epoch: Option<u64>,
}

/// Shared mutable bookkeeping: every clone of a manager (handlers capture clones) must see
/// the same fences and counters.
#[derive(Default)]
struct Shared {
    /// Replay in progress: compaction is fenced off while set.
    replaying: Cell<bool>,
    /// Next log sequence number to stamp (lazily initialised from durable state).
    next_lsn: Cell<Option<u64>>,
    /// Compactions performed by this incarnation.
    compactions: Cell<u64>,
    /// Log records folded into checkpoints by this incarnation.
    records_compacted: Cell<u64>,
}

/// The recovery manager for one service (process group) at one site.
#[derive(Clone)]
pub struct RecoveryManager {
    store: Rc<dyn StableStore>,
    service: String,
    shared: Rc<Shared>,
}

impl RecoveryManager {
    /// Creates a manager that records state for `service` in `store`.
    pub fn new(store: Rc<dyn StableStore>, service: &str) -> Self {
        RecoveryManager {
            store,
            service: service.to_owned(),
            shared: Rc::new(Shared::default()),
        }
    }

    fn key(&self) -> String {
        format!("recovery-{}", self.service)
    }

    fn log_key(&self) -> String {
        format!("recovery-log-{}", self.service)
    }

    fn snap_key(&self) -> String {
        format!("recovery-snap-{}", self.service)
    }

    // -- The durable delivery log ---------------------------------------------------------
    //
    // An append-only record of everything the member applied, interleaved with view
    // markers.  A site that fully dies (process *and* memory gone) replays this log to
    // rebuild its application state up to the last durable record, then rejoins the group;
    // state transfer covers the gap between the log's end and the rejoin cut.  Record
    // format, one message per record (`lsn` is the monotone log sequence number the
    // compaction fence uses):
    //   { rec: "msg",  lsn: u64, entry: u64, payload: <nested message> }   a delivery
    //   { rec: "view", lsn: u64, seq: u64 }                                a view marker

    /// Allocates the next log sequence number, scanning durable state once on first use
    /// (a recovered incarnation must continue the dead one's numbering).
    fn alloc_lsn(&self) -> Result<u64> {
        let next = match self.shared.next_lsn.get() {
            Some(n) => n,
            None => {
                let mut max = self.read_snapshot()?.map(|s| s.folded_lsn).unwrap_or(0);
                for rec in self.store.read_log(&self.log_key())? {
                    max = max.max(rec.get_u64("lsn").unwrap_or(0));
                }
                max + 1
            }
        };
        self.shared.next_lsn.set(Some(next + 1));
        Ok(next)
    }

    /// Appends a delivered-message record.  Call from the application handler, after (or
    /// while) applying the message, so replay order equals delivery order.
    pub fn log_delivery(&self, entry: EntryId, payload: &Message) -> Result<()> {
        let mut rec = Message::new();
        rec.set("rec", "msg");
        rec.set("lsn", self.alloc_lsn()?);
        rec.set("entry", u64::from(entry.0));
        rec.set("payload", payload.clone());
        self.store.append_log(&self.log_key(), &rec)
    }

    /// Appends a view marker, recording that everything logged before it was delivered
    /// no later than this view's cut.
    fn log_view_marker(&self, view: &View) -> Result<()> {
        let mut rec = Message::new();
        rec.set("rec", "view");
        rec.set("lsn", self.alloc_lsn()?);
        rec.set("seq", view.seq());
        self.store.append_log(&self.log_key(), &rec)
    }

    /// Recovery: applies the newest checkpoint's state blocks (if compaction ever ran)
    /// through `snapshot`, then replays the log records it does not cover, in append order,
    /// handing every delivered-message record to `apply` exactly as `log_delivery` recorded
    /// it.  Together the two closures rebuild exactly the state the dead incarnation had
    /// durably recorded.  View markers are counted but not applied: current membership is
    /// re-learned by rejoining, not from history.
    pub fn recover(
        &self,
        mut snapshot: impl FnMut(&Message),
        mut apply: impl FnMut(EntryId, &Message),
    ) -> Result<ReplaySummary> {
        // Replay fence: a compaction racing this replay could truncate the log under us.
        self.shared.replaying.set(true);
        let result = (|| {
            let mut summary = ReplaySummary::default();
            let mut folded_lsn = 0;
            if let Some(snap) = self.read_snapshot()? {
                folded_lsn = snap.folded_lsn;
                summary.checkpoint_epoch = Some(snap.epoch);
                for block in &snap.blocks {
                    snapshot(block);
                    summary.snapshot_blocks += 1;
                }
            }
            for rec in self.store.read_log(&self.log_key())? {
                // Records the checkpoint already folded linger only when a crash hit the
                // window between checkpoint write and log truncation; skipping them is
                // what keeps that window exactly-once.
                if rec.get_u64("lsn").unwrap_or(0) <= folded_lsn {
                    continue;
                }
                match rec.get_str("rec") {
                    Some("msg") => {
                        if let (Some(e), Some(payload)) =
                            (rec.get_u64("entry"), rec.get_msg("payload"))
                        {
                            apply(EntryId(e as u8), payload);
                            summary.messages += 1;
                        }
                    }
                    Some("view") => summary.views += 1,
                    _ => {}
                }
            }
            Ok(summary)
        })();
        self.shared.replaying.set(false);
        result
    }

    /// Number of records currently in the durable log (the compaction trigger input).
    fn log_record_count(&self) -> Result<usize> {
        Ok(self.store.read_log(&self.log_key())?.len())
    }

    /// Discards the log and the checkpoint.  A restarting member that rejoined calls this
    /// at its first view — its divergent tail lost the election, and the rejoin's state
    /// transfer plus fresh logging re-establish durability from the group's history.
    fn discard(&self) -> Result<()> {
        self.store.truncate_log(&self.log_key())?;
        self.store
            .write_checkpoint(&self.snap_key(), &Message::new())?;
        self.shared.next_lsn.set(Some(1));
        Ok(())
    }

    // -- Checkpoint-based compaction ------------------------------------------------------

    /// Folds everything currently in the log into a checkpoint taken at the view cut
    /// `epoch`, then truncates the log.  `blocks` is the application state encoded as the
    /// same variable-sized blocks `StateTransfer` produces, captured **at that cut** (call
    /// from a view-change handler, or use [`attach_compaction`](Self::attach_compaction)).
    ///
    /// Returns `Ok(false)` without touching storage when fenced off: a stale epoch (a
    /// straggler compaction from a superseded cut) or an in-flight replay.
    fn compact(&self, epoch: u64, blocks: &[Message]) -> Result<bool> {
        if self.shared.replaying.get() {
            return Ok(false);
        }
        let prev = self.read_snapshot()?;
        if let Some(prev) = &prev {
            if epoch <= prev.epoch {
                return Ok(false);
            }
        }
        // Accumulate the checkpoint's coverage: the previous checkpoint's totals plus
        // everything the log added since.
        let (mut frontier, mut messages, mut views, mut folded_lsn) = match &prev {
            Some(p) => (p.frontier.clone(), p.messages, p.views, p.folded_lsn),
            None => (Frontier::new(), 0, 0, 0),
        };
        let log = self.store.read_log(&self.log_key())?;
        let mut folded = 0u64;
        for rec in &log {
            let lsn = rec.get_u64("lsn").unwrap_or(0);
            if lsn <= folded_lsn {
                continue;
            }
            folded_lsn = folded_lsn.max(lsn);
            folded += 1;
            match rec.get_str("rec") {
                Some("msg") => {
                    messages += 1;
                    if let Some(origin) = rec.get_msg("payload").and_then(Message::sender) {
                        observe_count(&mut frontier, origin.site);
                    }
                }
                Some("view") => views += 1,
                _ => {}
            }
        }
        let snap = Snapshot {
            epoch,
            folded_lsn,
            frontier,
            messages,
            views,
            blocks: blocks.to_vec(),
        };
        // Checkpoint first, truncate second: if we die between the two, replay skips the
        // lingering records by lsn instead of double-applying them.
        self.store
            .write_checkpoint(&self.snap_key(), &snap.encode())?;
        self.store.truncate_log(&self.log_key())?;
        self.shared
            .compactions
            .set(self.shared.compactions.get() + 1);
        self.shared
            .records_compacted
            .set(self.shared.records_compacted.get() + folded);
        Ok(true)
    }

    /// Attaches automatic compaction to a member process: at every view change (a
    /// quiesced cut — exactly where `StateTransfer` encodes snapshots), if the log has
    /// reached `threshold` records, the state returned by `encode` is checkpointed at the
    /// new view's seq and the log is truncated.  Attach **after**
    /// [`attach_logging`](Self::attach_logging) so the cut's own view marker is folded.
    pub fn attach_compaction(
        &self,
        builder: &mut ProcessBuilder,
        group: GroupId,
        threshold: usize,
        mut encode: impl FnMut() -> Vec<Message> + 'static,
    ) {
        let this = self.clone();
        builder.on_view_change(group, move |ctx, ev| {
            let due = this.log_record_count().map(|n| n >= threshold);
            if due.unwrap_or(false) {
                match this.compact(ev.view.seq(), &encode()) {
                    Ok(true) => ctx.trace(format!(
                        "CompactionCheckpoint: service {} epoch {}",
                        this.service,
                        ev.view.seq()
                    )),
                    Ok(false) => ctx.trace(format!(
                        "CompactionFenced: service {} epoch {}",
                        this.service,
                        ev.view.seq()
                    )),
                    Err(e) => ctx.trace(format!("CompactionFailed: {e}")),
                }
            }
        });
    }

    fn read_snapshot(&self) -> Result<Option<Snapshot>> {
        match self.store.read_checkpoint(&self.snap_key())? {
            Some(m) => Snapshot::decode(&m),
            None => Ok(None),
        }
    }

    // -- Reform support -------------------------------------------------------------------

    /// Summarises what this site's durable state covers, as the reform election's input:
    /// the highest view seq recorded anywhere (checkpoint epoch, log view markers, or the
    /// membership record), the per-origin delivery frontier (checkpoint + log), and the
    /// rank `me` held in the last recorded view.  `None` if nothing durable exists — a
    /// site with no log has nothing to offer an election.
    pub fn log_summary(&self, me: ProcessId) -> Result<Option<LogSummary>> {
        let snap = self.read_snapshot()?;
        let mut view_seq = snap.as_ref().map(|s| s.epoch);
        let mut frontier = snap.map(|s| s.frontier).unwrap_or_default();
        let mut any = !frontier.is_empty() || view_seq.is_some();
        for rec in self.store.read_log(&self.log_key())? {
            any = true;
            match rec.get_str("rec") {
                Some("view") => {
                    if let Some(seq) = rec.get_u64("seq") {
                        view_seq = Some(view_seq.unwrap_or(0).max(seq));
                    }
                }
                Some("msg") => {
                    if let Some(origin) = rec.get_msg("payload").and_then(Message::sender) {
                        observe_count(&mut frontier, origin.site);
                    }
                }
                _ => {}
            }
        }
        // The membership record is written on every view change (possibly later than the
        // last fsync'd log marker) — fold it into both the seq and the rank.
        let mut rank = u64::MAX;
        if let Some(m) = self.store.read_checkpoint(&self.key())? {
            if let Some(seq) = m.get_u64("view-seq") {
                any = true;
                view_seq = Some(view_seq.unwrap_or(0).max(seq));
            }
            let members: Vec<ProcessId> = m
                .get_addr_list("members")
                .unwrap_or_default()
                .iter()
                .filter_map(|a| a.as_process())
                .collect();
            if let Some(r) = members.iter().position(|p| p.same_slot(&me)) {
                rank = r as u64;
            }
        }
        if !any {
            return Ok(None);
        }
        Ok(Some(LogSummary {
            site: me.site,
            view_seq: view_seq.unwrap_or(0),
            covered: frontier,
            rank,
        }))
    }

    // -- Membership record and restart -------------------------------------------------------

    /// Records a view observed by a member (normally called from the attached monitor).
    fn record_view(&self, view: &View) -> Result<()> {
        let mut m = Message::new();
        m.set("view-seq", view.seq());
        m.set(
            "members",
            view.members
                .iter()
                .map(|p| Address::Process(*p))
                .collect::<Vec<_>>(),
        );
        self.store.write_checkpoint(&self.key(), &m)
    }

    /// Attaches view logging to a member process: each observed view updates the
    /// last-known-membership checkpoint (for [`log_summary`](Self::log_summary) and
    /// [`last_known_sites`](Self::last_known_sites)) and appends a view marker to the
    /// durable log (for [`recover`](Self::recover)).
    pub fn attach_logging(&self, builder: &mut ProcessBuilder, group: GroupId) {
        let this = self.clone();
        builder.on_view_change(group, move |_ctx, ev| {
            let _ = this.record_view(&ev.view);
            let _ = this.log_view_marker(&ev.view);
        });
    }

    /// The sites of the last view this site observed before failing: the reform
    /// election's participant set (only their logs could possibly dominate ours).
    pub fn last_known_sites(&self) -> Result<Vec<SiteId>> {
        let Some(m) = self.store.read_checkpoint(&self.key())? else {
            return Ok(Vec::new());
        };
        let mut sites = Vec::new();
        for a in m.get_addr_list("members").unwrap_or_default() {
            if let Some(p) = a.as_process().filter(|p| !sites.contains(&p.site)) {
                sites.push(p.site);
            }
        }
        Ok(sites)
    }

    /// Gives a member restarting after a total failure the paper's advice, once its site's
    /// reform election (`SiteStack::begin_reform`) has decided.  The verdict is the
    /// member's first view of `group`: if the member founded that view alone, this site's
    /// log won, and its checkpoint and tail are replayed through `snapshot` and `apply`
    /// (see [`recover`](Self::recover)); any other first view is a rejoin, so the log is
    /// discarded and state transfer brings the state.  Attach it ahead of
    /// [`attach_logging`](Self::attach_logging), compaction and state transfer, so the
    /// replay reads what the dead incarnation logged and nothing the new one appends.
    pub fn attach_restart(
        &self,
        builder: &mut ProcessBuilder,
        group: GroupId,
        snapshot: impl FnMut(&Message) + 'static,
        apply: impl FnMut(EntryId, &Message) + 'static,
    ) {
        let this = self.clone();
        let mut replay = Some((snapshot, apply));
        builder.on_view_change(group, move |ctx, ev| {
            if !ev.view.contains(ctx.me()) {
                return;
            }
            let Some((snapshot, apply)) = replay.take() else {
                return;
            };
            let advice = if ev.view.len() == 1 {
                let r = this.recover(snapshot, apply);
                r.map(|r| format!("replayed {} + {} records", r.snapshot_blocks, r.messages))
            } else {
                this.discard().map(|()| "discarded its log".to_owned())
            };
            let seq = ev.view.seq();
            let advice = advice.unwrap_or_else(|e| format!("failed: {e}"));
            ctx.trace(format!(
                "Restart: service {} view {seq} {advice}",
                this.service
            ));
        });
    }
}

/// Bumps `frontier`'s per-origin count for `origin` by one.  Delivery counts stand in for
/// protocol sequence numbers (which the application layer never sees): deliveries from one
/// origin are totally ordered at every member, so "how many did this log durably record
/// from each origin" is a consistent cross-log comparison for the election tie-break.
fn observe_count(frontier: &mut Frontier, origin: SiteId) {
    let next = frontier
        .entries()
        .iter()
        .find(|(s, _)| *s == origin)
        .map(|(_, n)| n + 1)
        .unwrap_or(1);
    frontier.observe(MsgId::new(origin, next));
}

/// The durable checkpoint record: `{ epoch, folded-lsn, frontier, msgs, views, blocks }`
/// with the state blocks packed as `n` + `b{i}` nested messages.
struct Snapshot {
    epoch: u64,
    folded_lsn: u64,
    frontier: Frontier,
    messages: usize,
    views: usize,
    blocks: Vec<Message>,
}

impl Snapshot {
    fn encode(&self) -> Message {
        let mut m = Message::with_field_capacity(self.blocks.len() + 6);
        m.set("epoch", self.epoch);
        m.set("folded-lsn", self.folded_lsn);
        m.set("frontier", self.frontier.to_wire());
        m.set("msgs", self.messages as u64);
        m.set("views", self.views as u64);
        m.set("n", self.blocks.len() as u64);
        for (i, b) in self.blocks.iter().enumerate() {
            m.set(&format!("b{i}"), b.clone());
        }
        m
    }

    /// `Ok(None)` for an empty record (how [`RecoveryManager::discard`] erases a
    /// checkpoint — stores have no checkpoint-delete primitive).
    fn decode(m: &Message) -> Result<Option<Snapshot>> {
        let Some(epoch) = m.get_u64("epoch") else {
            return Ok(None);
        };
        let n = m.get_u64("n").unwrap_or(0) as usize;
        let mut blocks = Vec::with_capacity(n);
        for i in 0..n {
            let b = m
                .get_msg(&format!("b{i}"))
                .ok_or_else(|| VsError::CodecError(format!("checkpoint missing block b{i}")))?;
            blocks.push(b.clone());
        }
        Ok(Some(Snapshot {
            epoch,
            folded_lsn: m.get_u64("folded-lsn").unwrap_or(0),
            frontier: Frontier::from_wire(m.get_u64_list("frontier").unwrap_or_default()),
            messages: m.get_u64("msgs").unwrap_or(0) as usize,
            views: m.get_u64("views").unwrap_or(0) as usize,
            blocks,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::MemoryStore;
    use vsync_util::{GroupId, SiteId};

    fn p(site: u16) -> ProcessId {
        ProcessId::new(SiteId(site), 1)
    }

    fn manager() -> RecoveryManager {
        RecoveryManager::new(Rc::new(MemoryStore::new()), "twenty")
    }

    fn delivery(origin: u16, body: u64) -> Message {
        let mut m = Message::with_body(body);
        m.set_sender(p(origin));
        m
    }

    #[test]
    fn replay_reapplies_deliveries_in_log_order() {
        let rm = manager();
        let v1 = View::founding(GroupId(1), p(0));
        rm.log_view_marker(&v1).unwrap();
        rm.log_delivery(EntryId(7), &Message::with_body(10u64))
            .unwrap();
        rm.log_delivery(EntryId(7), &Message::with_body(11u64))
            .unwrap();
        let v2 = v1.successor(&[], &[p(1)]);
        rm.log_view_marker(&v2).unwrap();
        rm.log_delivery(EntryId(8), &Message::with_body(12u64))
            .unwrap();

        let mut seen = Vec::new();
        let summary = rm
            .recover(
                |_| panic!("no checkpoint"),
                |entry, payload| seen.push((entry.0, payload.get_u64("body").unwrap())),
            )
            .unwrap();
        assert_eq!(
            summary,
            ReplaySummary {
                messages: 3,
                views: 2,
                ..ReplaySummary::default()
            }
        );
        assert_eq!(seen, vec![(7, 10), (7, 11), (8, 12)]);

        rm.store.truncate_log(&rm.log_key()).unwrap();
        let summary = rm.recover(|_| {}, |_, _| {}).unwrap();
        assert_eq!(summary, ReplaySummary::default());
    }

    #[test]
    fn replay_survives_a_file_store_reopen() {
        let dir = std::env::temp_dir().join(format!("vsync-replay-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = crate::stable::FileStore::new(&dir)
                .unwrap()
                .with_fsync_interval(1);
            let rm = RecoveryManager::new(Rc::new(store), "svc");
            rm.log_delivery(EntryId(1), &Message::with_body(41u64))
                .unwrap();
            rm.log_view_marker(&View::founding(GroupId(1), p(0)))
                .unwrap();
            rm.log_delivery(EntryId(1), &Message::with_body(42u64))
                .unwrap();
        }
        // A fresh store over the same root — the full site-death scenario — replays
        // everything the dead incarnation logged.
        let rm = RecoveryManager::new(Rc::new(crate::stable::FileStore::new(&dir).unwrap()), "svc");
        let mut bodies = Vec::new();
        let summary = rm
            .recover(
                |_| panic!("no checkpoint"),
                |_, payload| bodies.push(payload.get_u64("body").unwrap()),
            )
            .unwrap();
        assert_eq!(
            summary,
            ReplaySummary {
                messages: 2,
                views: 1,
                ..ReplaySummary::default()
            }
        );
        assert_eq!(bodies, vec![41, 42]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_truncates_and_recover_rebuilds_the_same_state() {
        // The pinned equivalence: a compacted manager recovers to exactly the state an
        // uncompacted one replays, with the partition snapshot + tail == everything.
        let rm = manager();
        let plain = manager();
        let v1 = View::founding(GroupId(1), p(0));
        for (body, origin) in [(1u64, 0u16), (2, 1), (3, 0)] {
            rm.log_delivery(EntryId(7), &delivery(origin, body))
                .unwrap();
            plain
                .log_delivery(EntryId(7), &delivery(origin, body))
                .unwrap();
        }
        rm.log_view_marker(&v1).unwrap();
        plain.log_view_marker(&v1).unwrap();

        // State at the cut = fold of the log so far, encoded as one block per item (the
        // StateTransfer encoding contract).
        let blocks: Vec<Message> = [(1u64, 0u16), (2, 1), (3, 0)]
            .iter()
            .map(|(b, o)| delivery(*o, *b))
            .collect();
        assert!(rm.compact(v1.seq(), &blocks).unwrap());
        assert_eq!(rm.shared.compactions.get(), 1);
        assert_eq!(rm.shared.records_compacted.get(), 4);
        assert_eq!(rm.log_record_count().unwrap(), 0, "log truncated");

        // Both incarnations keep delivering after the checkpoint.
        for (body, origin) in [(4u64, 1u16), (5, 1)] {
            rm.log_delivery(EntryId(7), &delivery(origin, body))
                .unwrap();
            plain
                .log_delivery(EntryId(7), &delivery(origin, body))
                .unwrap();
        }

        let compacted_state = std::cell::RefCell::new(Vec::new());
        let s = rm
            .recover(
                |b| {
                    compacted_state
                        .borrow_mut()
                        .push(b.get_u64("body").unwrap())
                },
                |_, m| {
                    compacted_state
                        .borrow_mut()
                        .push(m.get_u64("body").unwrap())
                },
            )
            .unwrap();
        let compacted_state = compacted_state.into_inner();
        assert_eq!(s.snapshot_blocks, 3);
        assert_eq!(s.messages, 2);
        assert_eq!(s.checkpoint_epoch, Some(v1.seq()));

        let mut plain_state = Vec::new();
        plain
            .recover(|_| {}, |_, m| plain_state.push(m.get_u64("body").unwrap()))
            .unwrap();
        assert_eq!(compacted_state, plain_state);
        assert_eq!(compacted_state, vec![1, 2, 3, 4, 5]);

        // The summaries agree too: compaction must not change what the log claims.
        let a = rm.log_summary(p(0)).unwrap().unwrap();
        let b = plain.log_summary(p(0)).unwrap().unwrap();
        assert_eq!(a.view_seq, b.view_seq);
        assert_eq!(a.covered, b.covered);
    }

    #[test]
    fn stale_epoch_and_inflight_replay_are_fenced() {
        let rm = manager();
        rm.log_delivery(EntryId(1), &delivery(0, 1)).unwrap();
        assert!(rm.compact(5, &[Message::with_body(1u64)]).unwrap());
        rm.log_delivery(EntryId(1), &delivery(0, 2)).unwrap();
        // A straggler from a superseded cut must not clobber the newer checkpoint.
        assert!(!rm.compact(5, &[]).unwrap());
        assert!(!rm.compact(4, &[]).unwrap());
        assert_eq!(rm.shared.compactions.get(), 1);
        // Compaction during a replay is refused (the log is being read).
        let rm2 = rm.clone();
        let mut fenced = None;
        rm.recover(
            |_| {},
            |_, _| {
                if fenced.is_none() {
                    fenced = Some(rm2.compact(9, &[]).unwrap());
                }
            },
        )
        .unwrap();
        assert_eq!(fenced, Some(false));
        // After the replay the same compaction goes through.
        assert!(rm.compact(9, &[Message::with_body(9u64)]).unwrap());
    }

    #[test]
    fn crash_between_checkpoint_and_truncate_stays_exactly_once() {
        // Simulate the window: write the checkpoint a compaction would write, but leave
        // the log untouched (as if we died before truncate_log ran).
        let store: Rc<dyn StableStore> = Rc::new(MemoryStore::new());
        let rm = RecoveryManager::new(store.clone(), "svc");
        rm.log_delivery(EntryId(1), &delivery(0, 1)).unwrap();
        rm.log_delivery(EntryId(1), &delivery(0, 2)).unwrap();
        let snap = Snapshot {
            epoch: 3,
            folded_lsn: 2, // both records folded
            frontier: Frontier::new(),
            messages: 2,
            views: 0,
            blocks: vec![delivery(0, 1), delivery(0, 2)],
        };
        store
            .write_checkpoint("recovery-snap-svc", &snap.encode())
            .unwrap();
        // Post-window deliveries continue the lsn line.
        let rm = RecoveryManager::new(store, "svc");
        rm.log_delivery(EntryId(1), &delivery(0, 3)).unwrap();
        let state = std::cell::RefCell::new(Vec::new());
        let s = rm
            .recover(
                |b| state.borrow_mut().push(b.get_u64("body").unwrap()),
                |_, m| state.borrow_mut().push(m.get_u64("body").unwrap()),
            )
            .unwrap();
        let state = state.into_inner();
        assert_eq!(state, vec![1, 2, 3], "folded records must not double-apply");
        assert_eq!(s.snapshot_blocks, 2);
        assert_eq!(s.messages, 1);
    }

    #[test]
    fn log_summary_reports_seq_frontier_and_rank() {
        let rm = manager();
        // No history: nothing to offer an election, and nobody to expect in it.
        assert!(rm.log_summary(p(3)).unwrap().is_none());
        assert!(rm.last_known_sites().unwrap().is_empty());
        let v = View::founding(GroupId(1), p(1)).successor(&[], &[p(0)]);
        rm.record_view(&v).unwrap();
        assert_eq!(rm.last_known_sites().unwrap(), [SiteId(1), SiteId(0)]);
        rm.log_view_marker(&v).unwrap();
        rm.log_delivery(EntryId(1), &delivery(1, 10)).unwrap();
        rm.log_delivery(EntryId(1), &delivery(1, 11)).unwrap();
        rm.log_delivery(EntryId(1), &delivery(0, 12)).unwrap();
        let s = rm.log_summary(p(0)).unwrap().unwrap();
        assert_eq!(s.site, SiteId(0));
        assert_eq!(s.view_seq, v.seq());
        assert_eq!(s.rank, 1, "p(0) is the younger member of v");
        // A new incarnation of the same slot holds the dead one's rank.
        let reborn = rm.log_summary(p(0).next_incarnation()).unwrap().unwrap();
        assert_eq!(reborn.rank, 1);
        assert_eq!(
            s.covered.entries(),
            &[(SiteId(0), 1), (SiteId(1), 2)],
            "per-origin delivery counts"
        );
        // A summary survives compaction: the checkpoint carries the folded frontier.
        assert!(rm.compact(v.seq() + 1, &[]).unwrap());
        let s2 = rm.log_summary(p(0)).unwrap().unwrap();
        assert_eq!(s2.covered, s.covered);
        assert_eq!(s2.view_seq, v.seq() + 1);
    }

    #[test]
    fn discard_erases_all_durable_state() {
        let rm = manager();
        rm.log_delivery(EntryId(1), &delivery(0, 1)).unwrap();
        rm.compact(2, &[Message::with_body(1u64)]).unwrap();
        rm.log_delivery(EntryId(1), &delivery(0, 2)).unwrap();
        rm.discard().unwrap();
        assert_eq!(
            rm.recover(|_| {}, |_, _| {}).unwrap(),
            ReplaySummary::default()
        );
        // Fresh logging after a discard starts a clean history.
        rm.log_delivery(EntryId(1), &delivery(0, 7)).unwrap();
        let mut state = Vec::new();
        rm.recover(|_| {}, |_, m| state.push(m.get_u64("body").unwrap()))
            .unwrap();
        assert_eq!(state, vec![7]);
    }
}
