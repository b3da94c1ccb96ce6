//! What the integration suites share: one group member whose state is the ordered list of
//! bodies it applied, one recorder that writes a member's history into an
//! [`MemberTimeline`] from whichever thread runs its node, and one call that hands the
//! recorded timelines to [`PartitionInvariants`].  A suite pulls it in with `mod support;`.
#![allow(dead_code)] // each suite uses a different part

use std::path::PathBuf;
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard};

use vsync::core::{
    Duration, EntryId, GroupId, Message, ProcessBuilder, ProcessId, ProtocolKind, SiteId,
    StackConfig, View,
};
use vsync::proto::ProtoConfig;
use vsync::rt::{
    FaultPlan, InvariantViolation, IsisHarness, IsisRuntime, MemberTimeline, PartitionInvariants,
    SimRuntime, ThreadedRuntime,
};
use vsync::tools::{FileStore, RecoveryManager, StateTransfer};
use vsync::util::NetParams;

/// The entry every scenario's traffic goes to.
pub const APPLY: EntryId = EntryId(5);

/// A simulated cluster of `n` sites under the modern profile, every link under `faults`.
pub fn sim(n: usize, seed: u64, faults: FaultPlan) -> IsisHarness<SimRuntime> {
    let params = NetParams {
        faults,
        ..NetParams::modern()
    };
    IsisHarness::new(SimRuntime::new(
        n,
        params,
        StackConfig::from_params(&params),
        ProtoConfig::fast(),
        seed,
    ))
}

/// A threaded cluster of `n` sites with in-process timers, every link under `faults`.
pub fn threaded(n: usize, seed: u64, faults: FaultPlan) -> IsisHarness<ThreadedRuntime> {
    IsisHarness::new(ThreadedRuntime::new(
        n,
        ThreadedRuntime::fast_local_config(),
        ProtoConfig::fast(),
        faults,
        seed,
    ))
}

/// 100 µs of delay and up to 300 µs of jitter per packet: the threaded suites' default.
pub fn jitter() -> FaultPlan {
    FaultPlan::none()
        .with_delay(Duration::from_micros(100))
        .with_jitter(Duration::from_micros(300))
}

/// A fresh directory for one scenario's durable logs.
pub fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("vsync-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A delivery's body; one without a body reads as `u64::MAX`, which no scenario sends.
pub fn body(msg: &Message) -> u64 {
    msg.get_u64("body").unwrap_or(u64::MAX)
}

/// Sends `body` to the group's [`APPLY`] entry from `from`.
pub fn send<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    from: ProcessId,
    gid: GroupId,
    body: u64,
    protocol: ProtocolKind,
) {
    h.client_send(from, gid, APPLY, Message::with_body(body), protocol);
}

/// True once every site in `sites` has installed a view of the group that satisfies `ok`.
pub fn view_at<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    gid: GroupId,
    sites: impl IntoIterator<Item = u16>,
    ok: impl Fn(&View) -> bool,
) -> bool {
    sites
        .into_iter()
        .all(|s| h.view_of(SiteId(s), gid).is_some_and(|v| ok(&v)))
}

/// True once every recorder holds at least `n` bodies.
pub fn holding(recs: &[Recorder], n: usize) -> bool {
    recs.iter().all(|r| r.len() >= n)
}

/// Hands the recorders' timelines to the checker and panics with the first violation of
/// `check` (one of [`PartitionInvariants`]' `check_*` methods).
pub fn check(recs: &[Recorder], check: fn(&PartitionInvariants) -> Result<(), InvariantViolation>) {
    let mut inv = PartitionInvariants::new();
    for r in recs {
        inv.record(r.timeline());
    }
    if let Err(v) = check(&inv) {
        for r in recs {
            eprintln!("{:?}", r.timeline());
        }
        panic!("invariant violated: {v}");
    }
}

/// One member's history, written by its handlers and read by the test.
#[derive(Clone)]
pub struct Recorder(Arc<Mutex<Record>>);

struct Record {
    timeline: MemberTimeline,
    /// The last view the member installed.  A member waiting for its state records the
    /// view only when the state lands: it delivered nothing in the views it waited through.
    view: Option<(u64, Vec<ProcessId>)>,
    /// The seq of the last view in the timeline, which each delivery is tagged with.
    tag: u64,
    ready: bool,
    /// How many bodies came from the durable log, from a transfer snapshot, and by delivery.
    from: [u64; 3],
}

impl Record {
    fn record_view(&mut self) {
        if let Some((seq, members)) = &self.view {
            if *seq > self.tag {
                self.timeline.install(*seq, members.clone());
                self.tag = *seq;
            }
        }
    }

    fn push(&mut self, tag: u64, body: u64, from: usize) {
        self.timeline.deliver(tag, body);
        self.from[from] += 1;
    }
}

impl Recorder {
    /// A recorder for a member that holds its state from the start (`ready`) or waits for
    /// a transfer snapshot.
    pub fn new(ready: bool) -> Recorder {
        Recorder(Arc::new(Mutex::new(Record {
            timeline: MemberTimeline::default(),
            view: None,
            tag: 0,
            ready,
            from: [0; 3],
        })))
    }

    fn lock(&self) -> MutexGuard<'_, Record> {
        self.0.lock().unwrap()
    }

    /// Names the timeline after the member's pid, for the checker's messages.
    pub fn label(&self, pid: ProcessId) {
        self.lock().timeline.label = pid.to_string();
    }

    /// Records a view install at `me`; `holds_state` is false while the member waits for a
    /// snapshot.  A view that excludes `me` (an exile learning of its exclusion) is not one
    /// it installed.
    pub fn install(&self, me: ProcessId, view: &View, holds_state: bool) {
        if !view.contains(me) {
            return;
        }
        let mut r = self.lock();
        r.view = Some((view.seq(), view.members.clone()));
        r.ready = holds_state;
        if holds_state {
            r.record_view();
        }
    }

    /// Records `view` for a member that never waits for state.
    pub fn watch(&self, b: &mut ProcessBuilder, gid: GroupId) {
        let rec = self.clone();
        b.on_view_change(gid, move |ctx, ev| rec.install(ctx.me(), &ev.view, true));
    }

    /// Records a body delivered in the member's current view.
    pub fn deliver(&self, body: u64) {
        let mut r = self.lock();
        let tag = r.tag;
        r.push(tag, body, 2);
    }

    /// Applies one transfer block: adopts its body unless the state already holds it (a
    /// rejoin snapshot or a re-serve overlaps what the member has), and on the last block
    /// marks the member ready, recording the view it waited in.  A last block can outrun
    /// the commit of the view it was served at (channels are FIFO per pair of processes):
    /// the member is then ready at that view's install, as its transfer tool is.
    pub fn apply_block(&self, block: &Message) {
        let mut r = self.lock();
        if let Some(v) = block.get_u64("entry") {
            if !r.timeline.deliveries.iter().any(|(_, b)| *b == v) {
                r.push(0, v, 1);
            }
        }
        let served_at = block.get_u64("xfer-epoch").unwrap_or(0);
        let installed = r.view.as_ref().is_some_and(|(seq, _)| *seq >= served_at);
        if block.get_bool("xfer-last").unwrap_or(false) && installed {
            r.ready = true;
            r.record_view();
        }
    }

    /// The state as transfer blocks, one per body.
    pub fn blocks(&self) -> Vec<Message> {
        self.bodies()
            .into_iter()
            .map(|v| Message::new().with("entry", v))
            .collect()
    }

    pub fn is_ready(&self) -> bool {
        self.lock().ready
    }

    pub fn len(&self) -> usize {
        self.lock().timeline.deliveries.len()
    }

    /// The applied bodies in apply order: the member's state.
    pub fn bodies(&self) -> Vec<u64> {
        let r = self.lock();
        r.timeline.deliveries.iter().map(|(_, b)| *b).collect()
    }

    /// The applied bodies in ascending order.
    pub fn sorted(&self) -> Vec<u64> {
        let mut b = self.bodies();
        b.sort_unstable();
        b
    }

    /// The seqs of the views in the timeline.
    pub fn views(&self) -> Vec<u64> {
        self.lock().timeline.views.iter().map(|v| v.0).collect()
    }

    /// How many bodies came from the durable log, from a snapshot, and by delivery: the
    /// exactly-once partition of the member's state.
    pub fn from(&self) -> [u64; 3] {
        self.lock().from
    }

    pub fn timeline(&self) -> MemberTimeline {
        self.lock().timeline.clone()
    }
}

/// A log member's durable log, and what it does with it at start.
pub enum Disk {
    /// No durable log.
    None,
    /// An fsync'd log under the root from the start, compacted into a checkpoint at every
    /// view change once it holds the given number of records.
    Log(PathBuf, Option<usize>),
    /// Rebuild the state from the root's checkpoint and log before anything is wired,
    /// then keep logging (a process that died with its site).
    Recover(PathBuf),
    /// Restart after a total failure, the site's reform election deciding at the member's
    /// first view: rebuild the state from the root's checkpoint and log if the member
    /// founded that view, or throw the root's log away for the transfer snapshot if it
    /// joined; then keep logging.
    Reform(PathBuf),
}

/// The recovery log a member keeps under `root`.
pub fn open_log(root: PathBuf) -> RecoveryManager {
    let store = FileStore::new(root).expect("open store");
    RecoveryManager::new(Rc::new(store.with_fsync_interval(1)), "recovery")
}

/// Binds `xfer` and a member's handlers on `b`: a view monitor and the buffered [`APPLY`]
/// entry, both writing to `rec`.  Each body is logged to `rm` first, if there is one, so
/// what the test sees is always covered by the log.
pub fn attach(
    b: &mut ProcessBuilder,
    gid: GroupId,
    rec: &Recorder,
    xfer: &StateTransfer,
    rm: Option<RecoveryManager>,
) {
    xfer.attach(b);
    if rec.is_ready() {
        xfer.mark_ready();
    }
    // Registered after the tool's own monitor, so a rejoining exile reads as not ready.
    let (r, x) = (rec.clone(), xfer.clone());
    b.on_view_change(gid, move |ctx, ev| {
        r.install(ctx.me(), &ev.view, x.is_ready())
    });
    let r = rec.clone();
    xfer.on_entry_buffered(b, APPLY, move |_ctx, msg| {
        if let Some(rm) = &rm {
            let _ = rm.log_delivery(APPLY, msg);
        }
        r.deliver(body(msg));
    });
}

/// Spawns a member whose state is the ordered list of bodies it applied, moved to joiners
/// (and rejoining exiles) by `StateTransfer`, one block per body.
pub fn spawn_member<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    site: SiteId,
    gid: GroupId,
    ready: bool,
    disk: Disk,
) -> (ProcessId, Recorder) {
    let rec = Recorder::new(ready);
    let r = rec.clone();
    let reform = matches!(disk, Disk::Reform(_));
    let pid = h.spawn(site, move |b| {
        let (rm, compaction) = match disk {
            Disk::None => (None, None),
            Disk::Log(root, compaction) => (Some(open_log(root)), compaction),
            Disk::Recover(root) | Disk::Reform(root) => {
                let rm = open_log(root);
                let (from_checkpoint, from_log) = (r.clone(), r.clone());
                let snapshot = move |block: &Message| {
                    let v = block.get_u64("entry").unwrap_or(u64::MAX);
                    from_checkpoint.lock().push(0, v, 0);
                };
                let apply = move |entry, payload: &Message| {
                    if entry == APPLY {
                        from_log.lock().push(0, body(payload), 0);
                    }
                };
                if reform {
                    rm.attach_restart(b, gid, snapshot, apply);
                } else {
                    rm.recover(snapshot, apply).expect("recover");
                }
                (Some(rm), None)
            }
        };
        if let Some(rm) = &rm {
            rm.attach_logging(b, gid);
            if let Some(threshold) = compaction {
                let r = r.clone();
                rm.attach_compaction(b, gid, threshold, move || r.blocks());
            }
        }
        let (r_encode, r_apply) = (r.clone(), r.clone());
        let xfer = StateTransfer::new(
            gid,
            move || r_encode.blocks(),
            move |_ctx, block| r_apply.apply_block(block),
        );
        attach(b, gid, &r, &xfer, rm);
    });
    rec.label(pid);
    (pid, rec)
}

/// Spawns a fresh member on each of sites `0..n`, founds the group at site 0, joins the
/// others one by one, and waits until every member holds its state and every site has
/// installed the full view.
pub fn form_group<R: IsisRuntime>(
    h: &mut IsisHarness<R>,
    n: u16,
) -> (GroupId, Vec<ProcessId>, Vec<Recorder>) {
    let gid = h.allocate_group_id();
    let (pids, recs): (Vec<_>, Vec<_>) = (0..n)
        .map(|s| spawn_member(h, SiteId(s), gid, s == 0, Disk::None))
        .unzip();
    h.create_group_with_id("g", gid, pids[0]);
    for pid in &pids[1..] {
        h.join_and_wait(gid, *pid, None, Duration::from_secs(20))
            .expect("join");
    }
    let ok = h.wait_until(Duration::from_secs(20), |h| {
        recs.iter().all(Recorder::is_ready)
            && view_at(h, gid, 0..n, |v| {
                v.seq() == n as u64 && v.len() == n as usize
            })
    });
    assert!(ok, "the {n}-member view never formed everywhere");
    (gid, pids, recs)
}
