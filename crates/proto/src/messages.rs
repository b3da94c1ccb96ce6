//! Wire format of the protocol messages exchanged between group endpoints.
//!
//! Every protocol message is carried inside a regular ISIS [`Message`] so the transport layer
//! (and the statistics that drive Table 1 / Figure 3) see realistic field-structured
//! payloads.  [`ProtoMsg`] is the typed view of those messages; `encode`/`decode` convert
//! between the two.

use vsync_msg::{Frame, Message};
use vsync_net::MsgId;
use vsync_util::{Address, GroupId, ProcessId, Result, SiteId, VectorClock, VsError};

use crate::frontier::{Frontier, IdSet};
use crate::view::View;

/// Thread-local counters of frame-level protocol encode/decode work on the packet path.
///
/// Only *uncached* work is counted: [`ProtoMsg::encode_frame`] calls and
/// [`ProtoMsg::decode_frame`] memo misses.  Tests use the deltas to pin the fan-out
/// invariant — a multicast performs one encode total and at most one parse per
/// (frame, receiving site) — without instrumenting release builds with shared atomics.
/// Thread-local because the simulator is single-threaded while `cargo test` runs tests on
/// parallel threads.
pub mod wire_stats {
    use std::cell::Cell;

    thread_local! {
        static ENCODES: Cell<u64> = const { Cell::new(0) };
        static DECODES: Cell<u64> = const { Cell::new(0) };
    }

    /// Wire frames encoded on this thread so far.
    pub fn frame_encodes() -> u64 {
        ENCODES.with(|c| c.get())
    }

    /// Protocol-message parses performed on this thread so far (memo hits excluded).
    pub fn frame_decodes() -> u64 {
        DECODES.with(|c| c.get())
    }

    pub(super) fn note_encode() {
        ENCODES.with(|c| c.set(c.get() + 1));
    }

    pub(super) fn note_decode() {
        DECODES.with(|c| c.set(c.get() + 1));
    }
}

/// A multicast message held by an endpoint (received but not yet known stable), in the form
/// it travels inside flush reports and commits.  The wire form is a shared [`Frame`], so
/// buffering a received multicast (or reporting it in a flush ack) aliases the packet's
/// frame instead of re-encoding the field tree.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredMsg {
    /// The original data-bearing protocol message (`CbData` or `AbData`) in wire form.
    pub wire: Frame,
    /// For ABCAST messages: the priority this endpoint proposed (in an ack) or the final
    /// priority decided by the flush coordinator (in a commit).
    pub ab_priority: Option<u64>,
}

/// Typed protocol messages exchanged between the group endpoints of different sites.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtoMsg {
    /// CBCAST data message.
    CbData {
        /// Unique id of the multicast.
        id: MsgId,
        /// The application-level sender.
        sender: ProcessId,
        /// Rank of the sender's endpoint in the view the message was sent in.
        sender_rank: u64,
        /// View sequence number the message was sent in.
        view_seq: u64,
        /// Vector timestamp governing causal delivery.
        vt: VectorClock,
        /// Application payload.
        payload: Message,
    },
    /// ABCAST phase one: the data-bearing transmission.
    AbData {
        /// Unique id of the multicast.
        id: MsgId,
        /// The application-level sender.
        sender: ProcessId,
        /// View sequence number the message was sent in.
        view_seq: u64,
        /// Application payload.
        payload: Message,
    },
    /// ABCAST phase one response: a destination proposes a priority.
    AbPropose {
        /// The multicast being ordered.
        id: MsgId,
        /// View sequence number.
        view_seq: u64,
        /// The proposed priority.
        proposed: u64,
        /// Site making the proposal (tie-break component).
        proposer_site: SiteId,
    },
    /// ABCAST phase two: the initiator announces the final priority.
    AbOrder {
        /// The multicast being ordered.
        id: MsgId,
        /// View sequence number.
        view_seq: u64,
        /// Final (maximum) priority.
        final_priority: u64,
        /// Tie-break site carried with the final priority.
        tiebreak_site: SiteId,
    },
    /// Request, sent to the group coordinator's site, to add a member.
    JoinReq {
        /// The process asking to join.
        joiner: ProcessId,
        /// Credentials checked by the protection tool before the join is admitted.
        credentials: Option<String>,
    },
    /// Request, sent to the group coordinator's site, to remove a member voluntarily.
    LeaveReq {
        /// The departing member.
        member: ProcessId,
    },
    /// Report, sent to the group coordinator's site, that members are believed failed.
    FailReport {
        /// The failed members.
        failed: Vec<ProcessId>,
    },
    /// A user-level GBCAST forwarded to the coordinator to be delivered at the next cut.
    GbcastReq {
        /// The application-level sender.
        sender: ProcessId,
        /// Payload to deliver, everywhere, at the same point relative to all other events.
        payload: Message,
    },
    /// Flush phase one: the coordinator asks every member site for its unstable state.
    FlushReq {
        /// Sequence number of the view this flush will install.
        target_seq: u64,
        /// The member coordinating the flush.
        initiator: ProcessId,
        /// Retry counter (a takeover after a coordinator failure bumps it).
        attempt: u64,
    },
    /// Flush phase two: a member site reports its unstable messages and pending proposals.
    FlushAck {
        /// Sequence number of the view being installed.
        target_seq: u64,
        /// The reporting site.
        from_site: SiteId,
        /// Messages received in the current view that are not known stable.
        stored: Vec<StoredMsg>,
    },
    /// Flush phase three: the coordinator distributes the agreed cut and the new view.
    FlushCommit {
        /// Sequence number of the view being installed.
        target_seq: u64,
        /// The new view.
        view: View,
        /// Messages every member must deliver (if it has not already) before the view event.
        deliver: Vec<StoredMsg>,
        /// Per-origin sequence frontier of the pre-cut history: every message covered by it
        /// is part of the state a snapshot taken at this cut includes.  Joining endpoints
        /// suppress redelivery of covered messages — their effects arrive via the state
        /// transfer instead, which is what keeps join-under-load exactly-once.
        covered: Frontier,
        /// User GBCAST payloads delivered at the cut, in this exact order.
        gbcasts: Vec<Message>,
    },
    /// Stability gossip: the ids this site has received in the current view.
    ///
    /// On the wire the set is `runs` — `[origin, lo, hi, ...]`, one triple per origin on
    /// FIFO traffic — plus `ids` — `[origin, seq, ...]`, single ids received beyond a gap
    /// that is still open, absent otherwise (see [`IdSet::to_wire`]).  The frame's size
    /// therefore follows the number of sites, not the number of messages in the view.
    Stability {
        /// View sequence number the ids belong to.
        view_seq: u64,
        /// The reporting site.
        from_site: SiteId,
        /// Ids of messages received at that site.
        received: IdSet,
    },
    /// Total-failure reform: a restarting site summarises its recovery log so the group
    /// can elect the "last to fail" log as authoritative (paper Section 3.8).
    ReformSummary {
        /// The restarting site offering its log.
        from_site: SiteId,
        /// Highest view sequence number the log records (installed or marked).
        view_seq: u64,
        /// Per-origin delivery frontier the log covers (tie-break after view seq).
        covered: Frontier,
        /// Rank the summarising site's member held in its last logged view (second
        /// tie-break: lower rank = older member).
        rank: u64,
    },
    /// Total-failure reform: reply telling a restarting site that the group is in fact
    /// operational, so it must abandon the reform and rejoin through the normal
    /// join + state-transfer path instead.
    ReformAlive {
        /// A site currently hosting a live member, usable as the join contact.
        contact: SiteId,
    },
}

const TYPE_FIELD: &str = "@g-type";
const GROUP_FIELD: &str = "@g-group";
// Fixed field names (no per-call `format!`): message ids ride on every data, proposal and
// order message, so building their field names must not allocate.
const ID_ORIGIN: &str = "id-origin";
const ID_SEQ: &str = "id-seq";

fn put_msg_id(msg: &mut Message, id: MsgId) {
    msg.set(ID_ORIGIN, id.origin.0 as u64);
    msg.set(ID_SEQ, id.seq);
}

fn get_msg_id(msg: &Message) -> Result<MsgId> {
    let origin = msg.require_u64(ID_ORIGIN)?;
    let seq = msg.require_u64(ID_SEQ)?;
    Ok(MsgId::new(SiteId(origin as u16), seq))
}

fn put_process(msg: &mut Message, name: &str, p: ProcessId) {
    msg.set(name, p);
}

fn get_process(msg: &Message, name: &str) -> Result<ProcessId> {
    msg.require_addr(name)?
        .as_process()
        .ok_or_else(|| VsError::CodecError(format!("field {name:?} is not a process address")))
}

// Element field names for packed message lists.  Flush-era packing (`FlushAck` stored
// messages, `FlushCommit` deliver/gbcast lists) names one field per element; building
// `i{N}` through `format!` allocated a string per element per encode *and* per decode,
// which dominated the multi-group burst profile.  Small indices — the overwhelmingly
// common case — come from this static table; larger ones reuse one scratch buffer.
const IDX_NAMES: [&str; 64] = [
    "i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7", "i8", "i9", "i10", "i11", "i12", "i13", "i14",
    "i15", "i16", "i17", "i18", "i19", "i20", "i21", "i22", "i23", "i24", "i25", "i26", "i27",
    "i28", "i29", "i30", "i31", "i32", "i33", "i34", "i35", "i36", "i37", "i38", "i39", "i40",
    "i41", "i42", "i43", "i44", "i45", "i46", "i47", "i48", "i49", "i50", "i51", "i52", "i53",
    "i54", "i55", "i56", "i57", "i58", "i59", "i60", "i61", "i62", "i63",
];

fn idx_name(i: usize, scratch: &mut String) -> &str {
    match IDX_NAMES.get(i) {
        Some(name) => name,
        None => {
            use std::fmt::Write as _;
            scratch.clear();
            let _ = write!(scratch, "i{i}");
            scratch
        }
    }
}

fn pack_msg_list(items: &[Message]) -> Message {
    let mut list = Message::with_field_capacity(items.len() + 1);
    list.set("n", items.len() as u64);
    let mut scratch = String::new();
    for (i, item) in items.iter().enumerate() {
        list.set(idx_name(i, &mut scratch), item.clone());
    }
    list
}

fn unpack_msg_list(list: &Message) -> Result<Vec<Message>> {
    let n = list.require_u64("n")? as usize;
    let mut items = Vec::with_capacity(n);
    let mut scratch = String::new();
    for i in 0..n {
        let name = idx_name(i, &mut scratch);
        let item = list
            .get_msg(name)
            .ok_or_else(|| VsError::CodecError(format!("missing list item i{i}")))?;
        items.push(item.clone());
    }
    Ok(items)
}

fn pack_stored(stored: &[StoredMsg]) -> Message {
    let items: Vec<Message> = stored
        .iter()
        .map(|s| {
            let mut m = Message::new();
            m.set("wire", s.wire.to_message());
            if let Some(p) = s.ab_priority {
                m.set("abp", p);
            }
            m
        })
        .collect();
    pack_msg_list(&items)
}

fn unpack_stored(list: &Message) -> Result<Vec<StoredMsg>> {
    unpack_msg_list(list)?
        .into_iter()
        .map(|m| {
            let wire = m
                .get_msg("wire")
                .ok_or_else(|| VsError::CodecError("stored message missing wire".into()))?
                .clone();
            Ok(StoredMsg {
                wire: Frame::new(wire),
                ab_priority: m.get_u64("abp"),
            })
        })
        .collect()
}

impl ProtoMsg {
    /// Human-readable tag used on the wire and in traces.
    pub fn type_tag(&self) -> &'static str {
        match self {
            ProtoMsg::CbData { .. } => "cb-data",
            ProtoMsg::AbData { .. } => "ab-data",
            ProtoMsg::AbPropose { .. } => "ab-propose",
            ProtoMsg::AbOrder { .. } => "ab-order",
            ProtoMsg::JoinReq { .. } => "join-req",
            ProtoMsg::LeaveReq { .. } => "leave-req",
            ProtoMsg::FailReport { .. } => "fail-report",
            ProtoMsg::GbcastReq { .. } => "gbcast-req",
            ProtoMsg::FlushReq { .. } => "flush-req",
            ProtoMsg::FlushAck { .. } => "flush-ack",
            ProtoMsg::FlushCommit { .. } => "flush-commit",
            ProtoMsg::Stability { .. } => "stability",
            ProtoMsg::ReformSummary { .. } => "reform-summary",
            ProtoMsg::ReformAlive { .. } => "reform-alive",
        }
    }

    /// Encodes the protocol message, tagging it with the group it belongs to.
    pub fn encode(&self, group: GroupId) -> Message {
        // Widest variant (CbData) carries 9 fields; pre-size so repeated `set` calls never
        // grow the field table.
        let mut m = Message::with_field_capacity(9);
        m.set(TYPE_FIELD, self.type_tag());
        m.set(GROUP_FIELD, group);
        match self {
            ProtoMsg::CbData {
                id,
                sender,
                sender_rank,
                view_seq,
                vt,
                payload,
            } => {
                put_msg_id(&mut m, *id);
                put_process(&mut m, "sender", *sender);
                m.set("sender-rank", *sender_rank);
                m.set("view-seq", *view_seq);
                m.set("vt", vt.entries().to_vec());
                m.set("payload", payload.clone());
            }
            ProtoMsg::AbData {
                id,
                sender,
                view_seq,
                payload,
            } => {
                put_msg_id(&mut m, *id);
                put_process(&mut m, "sender", *sender);
                m.set("view-seq", *view_seq);
                m.set("payload", payload.clone());
            }
            ProtoMsg::AbPropose {
                id,
                view_seq,
                proposed,
                proposer_site,
            } => {
                put_msg_id(&mut m, *id);
                m.set("view-seq", *view_seq);
                m.set("proposed", *proposed);
                m.set("proposer-site", proposer_site.0 as u64);
            }
            ProtoMsg::AbOrder {
                id,
                view_seq,
                final_priority,
                tiebreak_site,
            } => {
                put_msg_id(&mut m, *id);
                m.set("view-seq", *view_seq);
                m.set("final", *final_priority);
                m.set("tiebreak-site", tiebreak_site.0 as u64);
            }
            ProtoMsg::JoinReq {
                joiner,
                credentials,
            } => {
                put_process(&mut m, "joiner", *joiner);
                if let Some(c) = credentials {
                    m.set("credentials", c.as_str());
                }
            }
            ProtoMsg::LeaveReq { member } => {
                put_process(&mut m, "member", *member);
            }
            ProtoMsg::FailReport { failed } => {
                m.set(
                    "failed",
                    failed
                        .iter()
                        .map(|p| Address::Process(*p))
                        .collect::<Vec<_>>(),
                );
            }
            ProtoMsg::GbcastReq { sender, payload } => {
                put_process(&mut m, "sender", *sender);
                m.set("payload", payload.clone());
            }
            ProtoMsg::FlushReq {
                target_seq,
                initiator,
                attempt,
            } => {
                m.set("target-seq", *target_seq);
                put_process(&mut m, "initiator", *initiator);
                m.set("attempt", *attempt);
            }
            ProtoMsg::FlushAck {
                target_seq,
                from_site,
                stored,
            } => {
                m.set("target-seq", *target_seq);
                m.set("from-site", from_site.0 as u64);
                m.set("stored", pack_stored(stored));
            }
            ProtoMsg::FlushCommit {
                target_seq,
                view,
                deliver,
                covered,
                gbcasts,
            } => {
                m.set("target-seq", *target_seq);
                view.encode_into(&mut m, "view-");
                m.set("deliver", pack_stored(deliver));
                m.set("covered", covered.to_wire());
                m.set("gbcasts", pack_msg_list(gbcasts));
            }
            ProtoMsg::Stability {
                view_seq,
                from_site,
                received,
            } => {
                m.set("view-seq", *view_seq);
                m.set("from-site", from_site.0 as u64);
                let (runs, ids) = received.to_wire();
                m.set("runs", runs);
                if !ids.is_empty() {
                    m.set("ids", ids);
                }
            }
            ProtoMsg::ReformSummary {
                from_site,
                view_seq,
                covered,
                rank,
            } => {
                m.set("from-site", from_site.0 as u64);
                m.set("view-seq", *view_seq);
                m.set("covered", covered.to_wire());
                m.set("rank", *rank);
            }
            ProtoMsg::ReformAlive { contact } => {
                m.set("contact", contact.0 as u64);
            }
        }
        m
    }

    /// Encodes the protocol message into a shared wire [`Frame`] ready for fan-out: the
    /// sender encodes once, and every destination packet (plus the stability buffer) aliases
    /// the same frame.  This is the packet-path entry point counted by [`wire_stats`].
    pub fn encode_frame(&self, group: GroupId) -> Frame {
        wire_stats::note_encode();
        Frame::new(self.encode(group))
    }

    /// Decodes a protocol message from a wire frame, parsing **once per frame**: the result
    /// is memoized in the frame's shared memo slot, so when a multicast fans one frame out
    /// to N receivers only the first receiver pays for the parse and the rest borrow it.
    ///
    /// A debug assertion keeps the cache honest: the typed message must survive a trip
    /// through its own wire form unchanged, otherwise what this site would re-send (a
    /// relayed commit, a held copy) could parse differently from the memo.  The comparison
    /// is between typed messages, not wire forms, because decoding canonicalises id sets
    /// and frontiers: a peer's unsorted or overlapping runs are legal input.
    pub fn decode_frame(frame: &Frame) -> Result<&(GroupId, ProtoMsg)> {
        if let Some(hit) = frame.memo_get::<(GroupId, ProtoMsg)>() {
            return Ok(hit);
        }
        wire_stats::note_decode();
        let decoded = ProtoMsg::decode(frame.message())?;
        debug_assert_eq!(
            ProtoMsg::decode(&decoded.1.encode(decoded.0)).ok().as_ref(),
            Some(&decoded),
            "ProtoMsg wire round-trip diverged; the decode memo would be unsound"
        );
        frame
            .memo_get_or_init(|| decoded)
            .ok_or_else(|| VsError::Internal("frame memo slot held by a foreign type".to_owned()))
    }

    /// Decodes a protocol message, returning the group it belongs to alongside the message.
    pub fn decode(m: &Message) -> Result<(GroupId, ProtoMsg)> {
        let group = m
            .get_addr(GROUP_FIELD)
            .and_then(|a| a.as_group())
            .ok_or_else(|| VsError::CodecError("missing @g-group field".into()))?;
        let tag = m.require_str(TYPE_FIELD)?;
        let payload_of = |m: &Message| -> Result<Message> {
            m.get_msg("payload")
                .cloned()
                .ok_or_else(|| VsError::CodecError("missing payload".into()))
        };
        let msg = match tag {
            "cb-data" => ProtoMsg::CbData {
                id: get_msg_id(m)?,
                sender: get_process(m, "sender")?,
                sender_rank: m.require_u64("sender-rank")?,
                view_seq: m.require_u64("view-seq")?,
                vt: VectorClock::from_entries(m.get_u64_list("vt").unwrap_or_default().to_vec()),
                payload: payload_of(m)?,
            },
            "ab-data" => ProtoMsg::AbData {
                id: get_msg_id(m)?,
                sender: get_process(m, "sender")?,
                view_seq: m.require_u64("view-seq")?,
                payload: payload_of(m)?,
            },
            "ab-propose" => ProtoMsg::AbPropose {
                id: get_msg_id(m)?,
                view_seq: m.require_u64("view-seq")?,
                proposed: m.require_u64("proposed")?,
                proposer_site: SiteId(m.require_u64("proposer-site")? as u16),
            },
            "ab-order" => ProtoMsg::AbOrder {
                id: get_msg_id(m)?,
                view_seq: m.require_u64("view-seq")?,
                final_priority: m.require_u64("final")?,
                tiebreak_site: SiteId(m.require_u64("tiebreak-site")? as u16),
            },
            "join-req" => ProtoMsg::JoinReq {
                joiner: get_process(m, "joiner")?,
                credentials: m.get_str("credentials").map(str::to_owned),
            },
            "leave-req" => ProtoMsg::LeaveReq {
                member: get_process(m, "member")?,
            },
            "fail-report" => ProtoMsg::FailReport {
                failed: m
                    .get_addr_list("failed")
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|a| a.as_process())
                    .collect(),
            },
            "gbcast-req" => ProtoMsg::GbcastReq {
                sender: get_process(m, "sender")?,
                payload: payload_of(m)?,
            },
            "flush-req" => ProtoMsg::FlushReq {
                target_seq: m.require_u64("target-seq")?,
                initiator: get_process(m, "initiator")?,
                attempt: m.require_u64("attempt")?,
            },
            "flush-ack" => ProtoMsg::FlushAck {
                target_seq: m.require_u64("target-seq")?,
                from_site: SiteId(m.require_u64("from-site")? as u16),
                stored: unpack_stored(
                    m.get_msg("stored")
                        .ok_or_else(|| VsError::CodecError("missing stored".into()))?,
                )?,
            },
            "flush-commit" => ProtoMsg::FlushCommit {
                target_seq: m.require_u64("target-seq")?,
                view: View::decode_from(m, "view-")
                    .ok_or_else(|| VsError::CodecError("missing view".into()))?,
                deliver: unpack_stored(
                    m.get_msg("deliver")
                        .ok_or_else(|| VsError::CodecError("missing deliver".into()))?,
                )?,
                // Required, like `deliver` and `gbcasts`: a commit whose frontier was lost
                // must fail loudly — decoding it as "covers nothing" would silently
                // re-enable double-application at joiners.
                covered: Frontier::from_wire(
                    m.get_u64_list("covered")
                        .ok_or_else(|| VsError::CodecError("missing covered".into()))?,
                ),
                gbcasts: unpack_msg_list(
                    m.get_msg("gbcasts")
                        .ok_or_else(|| VsError::CodecError("missing gbcasts".into()))?,
                )?,
            },
            "stability" => ProtoMsg::Stability {
                view_seq: m.require_u64("view-seq")?,
                from_site: SiteId(m.require_u64("from-site")? as u16),
                received: IdSet::from_wire(
                    m.get_u64_list("runs").unwrap_or_default(),
                    m.get_u64_list("ids").unwrap_or_default(),
                ),
            },
            "reform-summary" => ProtoMsg::ReformSummary {
                from_site: SiteId(m.require_u64("from-site")? as u16),
                view_seq: m.require_u64("view-seq")?,
                // Required: a summary whose frontier was lost would silently lose the
                // election tie-break and could crown the wrong log.
                covered: Frontier::from_wire(
                    m.get_u64_list("covered")
                        .ok_or_else(|| VsError::CodecError("missing covered".into()))?,
                ),
                rank: m.require_u64("rank")?,
            },
            "reform-alive" => ProtoMsg::ReformAlive {
                contact: SiteId(m.require_u64("contact")? as u16),
            },
            other => {
                return Err(VsError::CodecError(format!(
                    "unknown protocol message type {other:?}"
                )))
            }
        };
        Ok((group, msg))
    }

    /// Returns true if the encoded form of `m` looks like a protocol message.
    pub fn is_proto_message(m: &Message) -> bool {
        m.contains(TYPE_FIELD) && m.contains(GROUP_FIELD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::GroupId;

    fn p(site: u16, local: u32) -> ProcessId {
        ProcessId::new(SiteId(site), local)
    }

    fn roundtrip(msg: ProtoMsg) {
        let g = GroupId(42);
        let wire = msg.encode(g);
        assert!(ProtoMsg::is_proto_message(&wire));
        let (g2, back) = ProtoMsg::decode(&wire).expect("decode");
        assert_eq!(g2, g);
        assert_eq!(back, msg);
    }

    #[test]
    fn cb_data_roundtrip() {
        roundtrip(ProtoMsg::CbData {
            id: MsgId::new(SiteId(1), 7),
            sender: p(1, 3),
            sender_rank: 2,
            view_seq: 5,
            vt: VectorClock::from_entries(vec![1, 0, 3]),
            payload: Message::with_body("hello").with("price", 9000u64),
        });
    }

    #[test]
    fn ab_messages_roundtrip() {
        roundtrip(ProtoMsg::AbData {
            id: MsgId::new(SiteId(0), 1),
            sender: p(0, 1),
            view_seq: 1,
            payload: Message::with_body(5u64),
        });
        roundtrip(ProtoMsg::AbPropose {
            id: MsgId::new(SiteId(0), 1),
            view_seq: 1,
            proposed: 17,
            proposer_site: SiteId(3),
        });
        roundtrip(ProtoMsg::AbOrder {
            id: MsgId::new(SiteId(0), 1),
            view_seq: 1,
            final_priority: 21,
            tiebreak_site: SiteId(2),
        });
    }

    #[test]
    fn membership_messages_roundtrip() {
        roundtrip(ProtoMsg::JoinReq {
            joiner: p(2, 1),
            credentials: Some("let-me-in".into()),
        });
        roundtrip(ProtoMsg::JoinReq {
            joiner: p(2, 1),
            credentials: None,
        });
        roundtrip(ProtoMsg::LeaveReq { member: p(1, 1) });
        roundtrip(ProtoMsg::FailReport {
            failed: vec![p(1, 1), p(1, 2)],
        });
        roundtrip(ProtoMsg::GbcastReq {
            sender: p(0, 2),
            payload: Message::with_body("config-update"),
        });
    }

    #[test]
    fn flush_messages_roundtrip() {
        let stored = vec![
            StoredMsg {
                wire: ProtoMsg::CbData {
                    id: MsgId::new(SiteId(1), 9),
                    sender: p(1, 1),
                    sender_rank: 1,
                    view_seq: 3,
                    vt: VectorClock::from_entries(vec![0, 1]),
                    payload: Message::with_body("update"),
                }
                .encode_frame(GroupId(42)),
                ab_priority: None,
            },
            StoredMsg {
                wire: ProtoMsg::AbData {
                    id: MsgId::new(SiteId(0), 4),
                    sender: p(0, 1),
                    view_seq: 3,
                    payload: Message::with_body("queue-op"),
                }
                .encode_frame(GroupId(42)),
                ab_priority: Some(12),
            },
        ];
        roundtrip(ProtoMsg::FlushReq {
            target_seq: 4,
            initiator: p(0, 1),
            attempt: 0,
        });
        roundtrip(ProtoMsg::FlushAck {
            target_seq: 4,
            from_site: SiteId(1),
            stored: stored.clone(),
        });
        let view = View::founding(GroupId(42), p(0, 1)).successor(&[], &[p(1, 1)]);
        let mut covered = Frontier::new();
        covered.observe(MsgId::new(SiteId(1), 9));
        covered.observe(MsgId::new(SiteId(0), 4));
        roundtrip(ProtoMsg::FlushCommit {
            target_seq: 4,
            view: view.clone(),
            deliver: stored,
            covered,
            gbcasts: vec![Message::with_body("cfg")],
        });
        // An empty frontier (nothing unstable at the cut) also survives the wire.
        roundtrip(ProtoMsg::FlushCommit {
            target_seq: 4,
            view,
            deliver: Vec::new(),
            covered: Frontier::new(),
            gbcasts: Vec::new(),
        });
    }

    #[test]
    fn flush_commit_without_a_covered_frontier_is_rejected() {
        // A commit whose frontier was lost must fail loudly, not decode as "covers
        // nothing" (which would silently double-apply at joiners).
        let view = View::founding(GroupId(42), p(0, 1));
        let mut wire = ProtoMsg::FlushCommit {
            target_seq: 2,
            view,
            deliver: Vec::new(),
            covered: Frontier::new(),
            gbcasts: Vec::new(),
        }
        .encode(GroupId(42));
        assert!(ProtoMsg::decode(&wire).is_ok(), "intact commit decodes");
        wire.remove("covered");
        assert!(ProtoMsg::decode(&wire).is_err(), "lost frontier must error");
    }

    fn id_set(ids: &[(u16, u64)]) -> IdSet {
        let mut set = IdSet::new();
        for (site, seq) in ids {
            set.insert(MsgId::new(SiteId(*site), *seq));
        }
        set
    }

    #[test]
    fn stability_roundtrip() {
        // FIFO traffic: one run per origin and no explicit ids on the wire.
        let fifo = ProtoMsg::Stability {
            view_seq: 2,
            from_site: SiteId(3),
            received: id_set(&[(0, 1), (0, 2), (0, 3), (2, 8)]),
        };
        let wire = fifo.encode(GroupId(42));
        assert_eq!(wire.get_u64_list("runs"), Some(&[0, 1, 3, 2, 8, 8][..]));
        assert!(!wire.contains("ids"));
        roundtrip(fifo);
        // A gap open at origin 0: the id beyond it is listed explicitly, a longer stretch
        // beyond a gap is a second run.
        let gapped = ProtoMsg::Stability {
            view_seq: 2,
            from_site: SiteId(3),
            received: id_set(&[(0, 1), (0, 2), (0, 4), (1, 5), (1, 7), (1, 8)]),
        };
        let wire = gapped.encode(GroupId(42));
        assert_eq!(
            wire.get_u64_list("runs"),
            Some(&[0, 1, 2, 1, 5, 5, 1, 7, 8][..])
        );
        assert_eq!(wire.get_u64_list("ids"), Some(&[0, 4][..]));
        roundtrip(gapped);
        // The probe of a wedged or just un-wedged endpoint has nothing to report.
        roundtrip(ProtoMsg::Stability {
            view_seq: 2,
            from_site: SiteId(3),
            received: IdSet::new(),
        });
    }

    #[test]
    fn stability_gossip_canonicalises_foreign_run_lists() {
        // Unsorted, overlapping and touching runs, an id inside a run, a repeated id, an
        // inverted run and a torn trailing element: legal input, one canonical set.
        let mut wire = ProtoMsg::Stability {
            view_seq: 2,
            from_site: SiteId(3),
            received: IdSet::new(),
        }
        .encode(GroupId(42));
        wire.set(
            "runs",
            vec![2u64, 5, 9, 0, 4, 6, 0, 1, 3, 2, 8, 12, 1, 9, 2, 7],
        );
        wire.set("ids", vec![0u64, 2, 2, 14, 2, 14, 2, 13, 5]);
        let expected = ProtoMsg::Stability {
            view_seq: 2,
            from_site: SiteId(3),
            received: IdSet::from_wire(&[0, 1, 6, 2, 5, 14], &[]),
        };
        let (_, decoded) = ProtoMsg::decode(&wire).expect("decode");
        assert_eq!(decoded, expected);
        let canonical = decoded.encode(GroupId(42));
        assert_eq!(
            canonical.get_u64_list("runs"),
            Some(&[0, 1, 6, 2, 5, 14][..])
        );
        assert!(!canonical.contains("ids"));
        // The frame path accepts it too: its debug round-trip assertion compares typed
        // messages, so a non-canonical wire form is not mistaken for a codec bug.
        let frame = Frame::new(wire);
        let (_, via_frame) = ProtoMsg::decode_frame(&frame).expect("decode_frame");
        assert_eq!(via_frame, &expected);
    }

    #[test]
    fn reform_messages_roundtrip() {
        let mut covered = Frontier::new();
        covered.observe(MsgId::new(SiteId(0), 11));
        covered.observe(MsgId::new(SiteId(2), 4));
        roundtrip(ProtoMsg::ReformSummary {
            from_site: SiteId(2),
            view_seq: 9,
            covered,
            rank: 1,
        });
        // A log with no deliveries (views only) summarises with an empty frontier.
        roundtrip(ProtoMsg::ReformSummary {
            from_site: SiteId(0),
            view_seq: 1,
            covered: Frontier::new(),
            rank: 0,
        });
        roundtrip(ProtoMsg::ReformAlive { contact: SiteId(3) });
    }

    #[test]
    fn long_msg_lists_roundtrip_past_the_static_name_table() {
        // 80 elements: indices 0..63 use the static `i{N}` table, 64..79 the scratch path.
        let items: Vec<Message> = (0..80u64).map(Message::with_body).collect();
        let packed = pack_msg_list(&items);
        let back = unpack_msg_list(&packed).expect("unpack");
        assert_eq!(back, items);
        // The last static name and the first scratch-built name are both present.
        assert!(packed.get_msg("i63").is_some());
        assert!(packed.get_msg("i64").is_some());
    }

    #[test]
    fn decode_frame_parses_once_per_frame_and_counts_wire_work() {
        let msg = ProtoMsg::AbData {
            id: MsgId::new(SiteId(1), 2),
            sender: p(1, 1),
            view_seq: 1,
            payload: Message::with_body("fan-out"),
        };
        let encodes = wire_stats::frame_encodes();
        let decodes = wire_stats::frame_decodes();
        let frame = msg.encode_frame(GroupId(9));
        assert_eq!(wire_stats::frame_encodes() - encodes, 1);
        // N receivers alias the frame; only the first parse does work.
        let copies: Vec<_> = (0..4).map(|_| frame.clone()).collect();
        for c in &copies {
            let (g, back) = ProtoMsg::decode_frame(c).expect("decode");
            assert_eq!(*g, GroupId(9));
            assert_eq!(back, &msg);
        }
        assert_eq!(
            wire_stats::frame_decodes() - decodes,
            1,
            "one parse per frame, not per receiver"
        );
    }

    #[test]
    fn decode_frame_rejects_without_poisoning_the_counterpath() {
        let bogus = Frame::new(Message::with_body(1u64));
        assert!(ProtoMsg::decode_frame(&bogus).is_err());
        // A failed parse is not memoized; a later attempt re-reports the error.
        assert!(ProtoMsg::decode_frame(&bogus).is_err());
    }

    #[test]
    fn decode_rejects_non_protocol_messages() {
        assert!(!ProtoMsg::is_proto_message(&Message::with_body(1u64)));
        assert!(ProtoMsg::decode(&Message::with_body(1u64)).is_err());
        let mut m = Message::new();
        m.set(TYPE_FIELD, "bogus");
        m.set(GROUP_FIELD, GroupId(1));
        assert!(ProtoMsg::decode(&m).is_err());
    }
}
