//! The distributed *twenty questions* service (paper Section 5).
//!
//! "Our program works by partitioning a replicated database among several processes and
//! supporting queries on it.  It divides the responsibility for handling queries among the
//! processes, which requires that each incoming request be handled consistently.  The program
//! supports dynamic updates, tolerates failures, and can dynamically reassign the workload
//! decomposition."
//!
//! The service follows the paper's rules exactly:
//!
//! * **vertical** queries name one column; the member whose rank equals
//!   `column_index mod NMEMBERS` answers over the whole database and everyone else sends a
//!   null reply (so the caller, who asked for one reply, never hangs);
//! * **horizontal** queries are answered by every member, each over the rows `R` with
//!   `R mod NMEMBERS == rank`;
//! * members beyond `NMEMBERS` are **hot standbys**: they hold the state, send null replies,
//!   and take over a rank automatically when an older member fails (Step 4);
//! * queries travel by CBCAST and dynamic updates by GBCAST (Step 5);
//! * the replicated database can be logged to stable storage for total-failure recovery
//!   (Step 6), and the work-assignment rule can be changed at run time through the
//!   configuration tool (Step 7).

use std::cell::RefCell;
use std::rc::Rc;

use vsync_core::{
    Address, Duration, EntryId, GroupId, Message, ProcessId, ProtocolKind, ReplyWanted, RpcOutcome,
    SiteId,
};
use vsync_rt::{IsisHarness, SimRuntime};
use vsync_tools::{ConfigTool, ReplicatedData, StateTransfer, UpdateOrdering};

/// Entry point for queries.
pub const QUERY_ENTRY: EntryId = EntryId(10);
/// Entry point for dynamic database updates.
pub const UPDATE_ENTRY: EntryId = EntryId(11);
/// Entry point for configuration changes (work decomposition).
pub const CONFIG_ENTRY: EntryId = EntryId(12);

/// A relational operator in a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Equality (`color = red`).
    Eq,
    /// Numeric greater-than (`price > 9000`).
    Gt,
    /// Numeric less-than.
    Lt,
}

impl Op {
    fn as_str(self) -> &'static str {
        match self {
            Op::Eq => "=",
            Op::Gt => ">",
            Op::Lt => "<",
        }
    }

    fn parse(s: &str) -> Op {
        match s {
            ">" => Op::Gt,
            "<" => Op::Lt,
            _ => Op::Eq,
        }
    }
}

/// The three permitted answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// The predicate holds for every row considered.
    Yes,
    /// The predicate holds for no row considered.
    No,
    /// The predicate holds for some rows but not others.
    Sometimes,
    /// The member considered no rows (possible in horizontal mode with few rows).
    Unknown,
}

impl Answer {
    fn as_str(self) -> &'static str {
        match self {
            Answer::Yes => "yes",
            Answer::No => "no",
            Answer::Sometimes => "sometimes",
            Answer::Unknown => "unknown",
        }
    }

    fn parse(s: &str) -> Answer {
        match s {
            "yes" => Answer::Yes,
            "no" => Answer::No,
            "sometimes" => Answer::Sometimes,
            _ => Answer::Unknown,
        }
    }
}

/// A query: a column, an operator, a comparison value and a mode.
#[derive(Clone, Debug)]
pub struct Query {
    /// Column name (`price`, `color`, ...).
    pub column: String,
    /// Relational operator.
    pub op: Op,
    /// Comparison value (numeric comparisons parse it as an integer).
    pub value: String,
    /// Horizontal mode (`*price > 9000` in the paper's syntax).
    pub horizontal: bool,
}

impl Query {
    /// A vertical query.
    pub fn vertical(column: &str, op: Op, value: &str) -> Self {
        Query {
            column: column.to_owned(),
            op,
            value: value.to_owned(),
            horizontal: false,
        }
    }

    /// A horizontal query.
    pub fn horizontal(column: &str, op: Op, value: &str) -> Self {
        Query {
            column: column.to_owned(),
            op,
            value: value.to_owned(),
            horizontal: true,
        }
    }

    fn to_message(&self) -> Message {
        Message::new()
            .with("q-column", self.column.as_str())
            .with("q-op", self.op.as_str())
            .with("q-value", self.value.as_str())
            .with("q-horizontal", self.horizontal)
    }

    fn from_message(m: &Message) -> Option<Query> {
        Some(Query {
            column: m.get_str("q-column")?.to_owned(),
            op: Op::parse(m.get_str("q-op")?),
            value: m.get_str("q-value")?.to_owned(),
            horizontal: m.get_bool("q-horizontal").unwrap_or(false),
        })
    }
}

/// One row of the relation: `(object, color, size, price, make, model)`.
pub type Row = Vec<(String, String)>;

/// The replicated relation.
#[derive(Clone, Debug, Default)]
pub struct Database {
    /// Column names, in order.
    pub columns: Vec<String>,
    /// Rows; each row maps column name to value.
    pub rows: Vec<Row>,
}

impl Database {
    /// The demonstration database from the paper (the first 11 lines of the cars relation).
    pub fn demo() -> Self {
        let columns = ["object", "color", "size", "price", "make", "model"];
        let raw = [
            ["car", "red", "small", "5", "Weeks", "Toy"],
            ["car", "yellow", "tiny", "6", "Mattel", "Toy"],
            ["car", "black", "compact", "4995", "Hyundai", "Excel"],
            ["car", "tan", "wagon", "6190", "Nissan", "Sentra"],
            ["car", "green", "sedan", "10449", "Ford", "Taurus"],
            ["car", "blue", "compact", "5799", "Honda", "Civic"],
            ["car", "white", "wagon", "15248", "Ford", "Taurus"],
            ["car", "blue", "sport", "18409", "Nissan", "300ZX"],
            ["car", "blue", "sport", "26776", "Porsche", "944"],
            ["car", "white", "sport", "35000", "Mercedes", "300D"],
        ];
        let rows = raw
            .iter()
            .map(|r| {
                columns
                    .iter()
                    .zip(r.iter())
                    .map(|(c, v)| (c.to_string(), v.to_string()))
                    .collect()
            })
            .collect();
        Database {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows,
        }
    }

    /// Number of rows.
    fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation has no rows.
    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column, if it exists.
    fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == column)
    }

    fn row_matches(row: &Row, q: &Query) -> Option<bool> {
        let value = row.iter().find(|(c, _)| c == &q.column).map(|(_, v)| v)?;
        Some(match q.op {
            Op::Eq => value == &q.value,
            Op::Gt => value.parse::<i64>().ok()? > q.value.parse::<i64>().ok()?,
            Op::Lt => value.parse::<i64>().ok()? < q.value.parse::<i64>().ok()?,
        })
    }

    /// Evaluates a query over a subset of rows selected by `keep`.
    fn answer_over(&self, q: &Query, keep: impl Fn(usize) -> bool) -> Answer {
        let mut yes = 0usize;
        let mut no = 0usize;
        for (i, row) in self.rows.iter().enumerate() {
            if !keep(i) {
                continue;
            }
            match Self::row_matches(row, q) {
                Some(true) => yes += 1,
                Some(false) | None => no += 1,
            }
        }
        match (yes, no) {
            (0, 0) => Answer::Unknown,
            (_, 0) => Answer::Yes,
            (0, _) => Answer::No,
            _ => Answer::Sometimes,
        }
    }

    /// Evaluates a query over the whole relation.
    fn answer(&self, q: &Query) -> Answer {
        self.answer_over(q, |_| true)
    }

    /// Appends a row described as `(column, value)` pairs.
    fn add_row(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Serialises the relation into a message (used by the state-transfer tool).
    fn snapshot(&self) -> Message {
        let mut m = Message::new();
        m.set("columns", self.columns.join(","));
        m.set("nrows", self.rows.len() as u64);
        for (i, row) in self.rows.iter().enumerate() {
            let encoded: Vec<String> = row.iter().map(|(c, v)| format!("{c}={v}")).collect();
            m.set(&format!("row{i}"), encoded.join(";"));
        }
        m
    }

    /// Rebuilds the relation from a snapshot.
    fn from_snapshot(m: &Message) -> Database {
        let columns: Vec<String> = m
            .get_str("columns")
            .unwrap_or("")
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .collect();
        let n = m.get_u64("nrows").unwrap_or(0) as usize;
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let Some(encoded) = m.get_str(&format!("row{i}")) else {
                continue;
            };
            let row: Row = encoded
                .split(';')
                .filter_map(|pair| {
                    let (c, v) = pair.split_once('=')?;
                    Some((c.to_owned(), v.to_owned()))
                })
                .collect();
            rows.push(row);
        }
        Database { columns, rows }
    }
}

/// Handle onto one deployed member: its local database replica and counters.
#[derive(Clone)]
pub struct MemberHandle {
    /// The member's process id.
    pub pid: ProcessId,
    /// The member's local database replica.
    pub db: Rc<RefCell<Database>>,
    /// Queries this member answered with a real (non-null) reply.
    pub answered: Rc<RefCell<u64>>,
    /// Updates applied at this member.
    pub updates: Rc<RefCell<u64>>,
    /// The member's configuration tool (step 7: dynamic load balancing).
    pub config: ConfigTool,
    /// The member's replicated-data tool (used for the logging mode of step 6).
    pub replicated: ReplicatedData,
    /// The member's state-transfer tool.
    pub transfer: StateTransfer,
}

/// A deployed twenty-questions service.
pub struct TwentyQuestions {
    /// The group id of the service.
    pub gid: GroupId,
    /// The members, in deployment (age) order.
    pub members: Vec<ProcessId>,
    /// Handles onto each member's local state.
    pub handles: Vec<MemberHandle>,
    /// The number of *active* members (`NMEMBERS`); members beyond this are hot standbys.
    pub nmembers: usize,
}

impl TwentyQuestions {
    /// Deploys the service: one member per entry of `sites`, with the first `nmembers`
    /// active and the rest acting as hot standbys (paper Step 4).
    pub fn deploy(
        sys: &mut IsisHarness<SimRuntime>,
        name: &str,
        sites: &[SiteId],
        nmembers: usize,
        db: Database,
    ) -> TwentyQuestions {
        assert!(!sites.is_empty());
        let gid = sys.allocate_group_id();
        let mut members = Vec::new();
        let mut handles = Vec::new();
        for (i, site) in sites.iter().enumerate() {
            let (pid, handle) = spawn_member(sys, *site, db.clone(), nmembers, Some(gid), name);
            if i == 0 {
                sys.create_group_with_id(name, gid, pid);
                handle.transfer.mark_ready();
            } else {
                sys.join_and_wait(gid, pid, None, Duration::from_secs(10))
                    .expect("member join");
            }
            members.push(pid);
            handles.push(handle);
        }
        sys.settle(Duration::from_millis(50));
        TwentyQuestions {
            gid,
            members,
            handles,
            nmembers,
        }
    }

    /// Issues a query from `client` and collects the replies according to the mode: one reply
    /// for a vertical query, `NMEMBERS` replies for a horizontal one (paper Step 2).
    pub fn query(
        &self,
        sys: &mut IsisHarness<SimRuntime>,
        client: ProcessId,
        q: &Query,
        max_wait: Duration,
    ) -> Vec<Answer> {
        let wanted = if q.horizontal {
            ReplyWanted::Count(self.nmembers)
        } else {
            ReplyWanted::One
        };
        let outcome: RpcOutcome = sys.client_call(
            client,
            vec![Address::Group(self.gid)],
            QUERY_ENTRY,
            q.to_message(),
            ProtocolKind::Cbcast,
            wanted,
            max_wait,
        );
        outcome
            .replies
            .iter()
            .filter_map(|r| r.get_str("answer").map(Answer::parse))
            .collect()
    }

    /// Issues a dynamic update (paper Step 5): adds a row, delivered by GBCAST so it is
    /// ordered consistently with respect to every query.
    pub fn update(&self, sys: &mut IsisHarness<SimRuntime>, client: ProcessId, row: Row) {
        let encoded: Vec<String> = row.iter().map(|(c, v)| format!("{c}={v}")).collect();
        let msg = Message::new().with("new-row", encoded.join(";"));
        sys.client_send(client, self.gid, UPDATE_ENTRY, msg, ProtocolKind::Gbcast);
    }

    /// Number of rows in each member's replica (for consistency checks).
    pub fn replica_sizes(&self) -> Vec<usize> {
        self.handles.iter().map(|h| h.db.borrow().len()).collect()
    }
}

/// Spawns one service member at `site`.  `group` is `None` only for the bootstrap member that
/// exists before the group id has been allocated.
fn spawn_member(
    sys: &mut IsisHarness<SimRuntime>,
    site: SiteId,
    db: Database,
    nmembers: usize,
    group: Option<GroupId>,
    _name: &str,
) -> (ProcessId, MemberHandle) {
    let db = Rc::new(RefCell::new(db));
    let answered = Rc::new(RefCell::new(0u64));
    let updates = Rc::new(RefCell::new(0u64));
    let gid = group.unwrap_or(GroupId(0));
    let config = ConfigTool::new(gid, CONFIG_ENTRY);
    config.load_local("nmembers", nmembers as u64);
    let replicated = ReplicatedData::new(gid, EntryId(19), UpdateOrdering::Causal);
    let db_for_xfer = db.clone();
    let db_for_apply = db.clone();
    let transfer = StateTransfer::new(
        gid,
        move || vec![db_for_xfer.borrow().snapshot()],
        move |_ctx, block| {
            let incoming = Database::from_snapshot(block);
            if !incoming.is_empty() {
                *db_for_apply.borrow_mut() = incoming;
            }
        },
    );

    let db_q = db.clone();
    let answered_q = answered.clone();
    let config_q = config.clone();
    let db_u = db.clone();
    let updates_u = updates.clone();
    let config_attach = config.clone();
    let transfer_attach = transfer.clone();
    let replicated_attach = replicated.clone();

    let pid = sys.spawn_local(site, move |b| {
        config_attach.attach(b);
        transfer_attach.attach(b);
        replicated_attach.attach(b);
        // Query handler (paper Steps 1-4).
        b.on_entry(QUERY_ENTRY, move |ctx, msg| {
            let Some(q) = Query::from_message(msg) else {
                ctx.null_reply(msg);
                return;
            };
            let group = msg.group().unwrap_or(gid);
            let Some(view) = ctx.view_of(group).cloned() else {
                ctx.null_reply(msg);
                return;
            };
            let Some(rank) = view.rank_of(ctx.me()) else {
                ctx.null_reply(msg);
                return;
            };
            let nmembers = (config_q.read_u64("nmembers").unwrap_or(nmembers as u64) as usize)
                .min(view.len())
                .max(1);
            if rank >= nmembers {
                // Hot standby (Step 4): holds the state, stays invisible to clients.
                ctx.null_reply(msg);
                return;
            }
            let db = db_q.borrow();
            let answer = if q.horizontal {
                db.answer_over(&q, |row| row % nmembers == rank)
            } else {
                let col = db.column_index(&q.column).unwrap_or(0);
                if col % nmembers == rank {
                    db.answer(&q)
                } else {
                    drop(db);
                    ctx.null_reply(msg);
                    return;
                }
            };
            drop(db);
            *answered_q.borrow_mut() += 1;
            ctx.reply(
                msg,
                Message::new()
                    .with("answer", answer.as_str())
                    .with("rank", rank),
            );
        });
        // Dynamic update handler (Step 5): applied by every member, including standbys.
        b.on_entry(UPDATE_ENTRY, move |_ctx, msg| {
            let Some(encoded) = msg.get_str("new-row") else {
                return;
            };
            let row: Row = encoded
                .split(';')
                .filter_map(|pair| {
                    let (c, v) = pair.split_once('=')?;
                    Some((c.to_owned(), v.to_owned()))
                })
                .collect();
            db_u.borrow_mut().add_row(row);
            *updates_u.borrow_mut() += 1;
        });
    });
    let handle = MemberHandle {
        pid,
        db,
        answered,
        updates,
        config,
        replicated,
        transfer,
    };
    (pid, handle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_database_matches_the_paper() {
        let db = Database::demo();
        assert_eq!(db.len(), 10);
        assert_eq!(db.columns.len(), 6);
        assert_eq!(db.column_index("price"), Some(3));
        assert_eq!(db.column_index("missing"), None);
    }

    #[test]
    fn query_evaluation() {
        let db = Database::demo();
        // Every demo row is a car.
        assert_eq!(
            db.answer(&Query::vertical("object", Op::Eq, "car")),
            Answer::Yes
        );
        // Some cars cost more than 9000, some do not.
        assert_eq!(
            db.answer(&Query::vertical("price", Op::Gt, "9000")),
            Answer::Sometimes
        );
        // No car is purple.
        assert_eq!(
            db.answer(&Query::vertical("color", Op::Eq, "purple")),
            Answer::No
        );
        // Row-subset evaluation: only the expensive sports cars.
        let expensive = db.answer_over(&Query::vertical("price", Op::Gt, "16000"), |i| i >= 7);
        assert_eq!(expensive, Answer::Yes);
        // Empty subset.
        assert_eq!(
            db.answer_over(&Query::vertical("price", Op::Gt, "0"), |_| false),
            Answer::Unknown
        );
    }

    #[test]
    fn horizontal_query_partition_matches_the_paper_example() {
        // The paper's example: *price > 9000 with 5 members over the 10-row table returns
        // [no, sometimes, sometimes, sometimes, yes].
        let db = Database::demo();
        let q = Query::horizontal("price", Op::Gt, "9000");
        let answers: Vec<Answer> = (0..5).map(|m| db.answer_over(&q, |r| r % 5 == m)).collect();
        assert_eq!(
            answers,
            vec![
                Answer::No,
                Answer::Sometimes,
                Answer::Sometimes,
                Answer::Sometimes,
                Answer::Yes
            ]
        );
    }

    #[test]
    fn snapshot_roundtrip_preserves_the_relation() {
        let mut db = Database::demo();
        db.add_row(vec![
            ("object".into(), "car".into()),
            ("price".into(), "99999".into()),
        ]);
        let snap = db.snapshot();
        let back = Database::from_snapshot(&snap);
        assert_eq!(back.len(), db.len());
        assert_eq!(back.columns, db.columns);
        assert_eq!(
            back.answer(&Query::vertical("price", Op::Gt, "50000")),
            Answer::Sometimes
        );
    }

    #[test]
    fn query_message_roundtrip() {
        let q = Query::horizontal("price", Op::Gt, "9000");
        let m = q.to_message();
        let back = Query::from_message(&m).unwrap();
        assert_eq!(back.column, "price");
        assert_eq!(back.op, Op::Gt);
        assert!(back.horizontal);
        assert!(Query::from_message(&Message::new()).is_none());
    }
}
