//! The factory-automation scenario from the paper's introduction (Section 1).
//!
//! "Consider the design of a distributed system for factory automation, say for VLSI chip
//! fabrication.  Such a system would need to group control processes into services responsible
//! for different aspects of the fabrication procedure.  One service might accept batches of
//! chips needing photographic emulsions, another oversee transport of chips from station to
//! station ..."
//!
//! This module deploys two such services on a simulated cluster:
//!
//! * the **emulsion service**: a process group that executes batch-deposition requests with
//!   the coordinator–cohort tool, so a batch completes even if the member processing it fails
//!   mid-request;
//! * the **transport service**: a process group replicating per-station status with the
//!   replicated-data tool (CBCAST updates, local reads).  Every member also defines and
//!   attaches a replicated semaphore for the single inter-station conveyor, but no step of the
//!   scenario calls P on it, so nothing is serialised by it yet.

use std::cell::RefCell;
use std::rc::Rc;

use vsync_core::{
    Address, Duration, EntryId, GroupId, Message, ProcessId, ProtocolKind, ReplyWanted, SiteId,
};
use vsync_rt::{IsisHarness, SimRuntime};
use vsync_tools::{CoordCohort, ReplicatedData, SemaphoreTool, UpdateOrdering};

/// Entry point for emulsion batch requests.
pub const BATCH_ENTRY: EntryId = EntryId(50);
/// Entry point for transport status updates.
pub const STATUS_ENTRY: EntryId = EntryId(51);
/// Entry point for conveyor semaphore operations.
pub const CONVEYOR_ENTRY: EntryId = EntryId(52);

/// Handle onto one emulsion-service member.
#[derive(Clone)]
pub struct EmulsionMember {
    /// The member's process id.
    pub pid: ProcessId,
    /// Batches this member processed as coordinator (including take-overs).
    pub processed: Rc<RefCell<Vec<u64>>>,
    /// The member's coordinator–cohort tool.
    pub cc: CoordCohort,
}

/// Handle onto one transport-service member.
#[derive(Clone)]
pub struct TransportMember {
    /// The member's process id.
    pub pid: ProcessId,
    /// The member's replicated station-status map.
    pub status: ReplicatedData,
    /// The member's conveyor semaphore.
    pub conveyor: SemaphoreTool,
}

/// The deployed factory.
pub struct Factory {
    /// Group id of the emulsion service.
    pub emulsion_gid: GroupId,
    /// Group id of the transport service.
    pub transport_gid: GroupId,
    /// Emulsion-service members.
    pub emulsion: Vec<EmulsionMember>,
    /// Transport-service members.
    pub transport: Vec<TransportMember>,
}

impl Factory {
    /// Deploys both services, one member per site in `sites`.
    pub fn deploy(sys: &mut IsisHarness<SimRuntime>, sites: &[SiteId]) -> Factory {
        let emulsion_gid = sys.allocate_group_id();
        let transport_gid = sys.allocate_group_id();
        let mut emulsion = Vec::new();
        let mut transport = Vec::new();

        for (i, site) in sites.iter().enumerate() {
            // Emulsion service member.
            let processed = Rc::new(RefCell::new(Vec::new()));
            let cc = CoordCohort::new(emulsion_gid);
            let cc_attach = cc.clone();
            let cc_handle = cc.clone();
            let processed_h = processed.clone();
            let pid = sys.spawn_local(*site, move |b| {
                cc_attach.attach(b);
                let cc_inner = cc_handle.clone();
                b.on_entry(BATCH_ENTRY, move |ctx, msg| {
                    let group = msg.group().unwrap_or(emulsion_gid);
                    let Some(view) = ctx.view_of(group).cloned() else {
                        ctx.null_reply(msg);
                        return;
                    };
                    let plist = view.members.clone();
                    let batch = msg.get_u64("batch").unwrap_or(0);
                    let processed_cb = processed_h.clone();
                    cc_inner.handle(
                        ctx,
                        msg,
                        plist,
                        move |_ctx, request| {
                            // "Deposit the emulsion" for this batch and report the result.
                            let batch = request.get_u64("batch").unwrap_or(0);
                            processed_cb.borrow_mut().push(batch);
                            Message::new().with("deposited", batch)
                        },
                        move |_ctx, _reply| {
                            // Cohort: the coordinator finished; nothing more to do.
                        },
                    );
                    let _ = batch;
                });
            });
            if i == 0 {
                sys.create_group_with_id("emulsion", emulsion_gid, pid);
            } else {
                sys.join_and_wait(emulsion_gid, pid, None, Duration::from_secs(10))
                    .expect("emulsion member join");
            }
            emulsion.push(EmulsionMember { pid, processed, cc });

            // Transport service member.
            let status = ReplicatedData::new(transport_gid, STATUS_ENTRY, UpdateOrdering::Causal);
            let conveyor = SemaphoreTool::new(transport_gid, CONVEYOR_ENTRY);
            conveyor.define("conveyor", 1);
            let status_attach = status.clone();
            let conveyor_attach = conveyor.clone();
            let pid = sys.spawn_local(*site, move |b| {
                status_attach.attach(b);
                conveyor_attach.attach(b);
            });
            if i == 0 {
                sys.create_group_with_id("transport", transport_gid, pid);
            } else {
                sys.join_and_wait(transport_gid, pid, None, Duration::from_secs(10))
                    .expect("transport member join");
            }
            transport.push(TransportMember {
                pid,
                status,
                conveyor,
            });
        }
        sys.settle(Duration::from_millis(50));
        Factory {
            emulsion_gid,
            transport_gid,
            emulsion,
            transport,
        }
    }

    /// Submits an emulsion batch from a client process and waits for the single reply the
    /// coordinator–cohort scheme produces.  Returns the batch number echoed by whichever
    /// member actually performed the deposition.
    pub fn submit_batch(
        &self,
        sys: &mut IsisHarness<SimRuntime>,
        client: ProcessId,
        batch: u64,
        max_wait: Duration,
    ) -> Option<u64> {
        let outcome = sys.client_call(
            client,
            vec![Address::Group(self.emulsion_gid)],
            BATCH_ENTRY,
            Message::new().with("batch", batch),
            ProtocolKind::Cbcast,
            ReplyWanted::One,
            max_wait,
        );
        outcome.replies.first().and_then(|r| r.get_u64("deposited"))
    }

    /// Publishes a station-status update from one transport member.
    pub fn update_station(
        &self,
        sys: &mut IsisHarness<SimRuntime>,
        member_index: usize,
        station: &str,
        state: &str,
    ) {
        let member = &self.transport[member_index];
        let gid = self.transport_gid;
        let msg = Message::new()
            .with("rd-item", station)
            .with("rd-value", state);
        sys.client_send(member.pid, gid, STATUS_ENTRY, msg, ProtocolKind::Cbcast);
    }

    /// Reads a station's status from a member's local replica.
    pub fn station_status(&self, member_index: usize, station: &str) -> Option<String> {
        self.transport[member_index].status.read_string(station)
    }

    /// Total batches processed across all emulsion members (each batch exactly once when the
    /// coordinator survives; a batch may be processed twice only if the coordinator fails
    /// after acting but before its reply propagates, the classic at-least-once window the
    /// paper discusses in Section 5's "limits" paragraph).
    pub fn total_batches_processed(&self) -> usize {
        self.emulsion
            .iter()
            .map(|m| m.processed.borrow().len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_points_are_distinct() {
        assert_ne!(BATCH_ENTRY, STATUS_ENTRY);
        assert_ne!(STATUS_ENTRY, CONVEYOR_ENTRY);
        assert!(!BATCH_ENTRY.is_generic());
    }
}
