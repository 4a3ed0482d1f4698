//! The full-system simulator: the paper's §5.2 methodology end to end.
//!
//! One run wires every piece together: a synthetic Clip2-style trace
//! (edges augmented to `M` neighbours), per-node bandwidth from the §5.2
//! distribution, the hybrid overlay (connected neighbours + loose DHT +
//! overheard list), periodic buffer-map exchange, a pluggable data
//! scheduler, the urgent line, Algorithm 2 pre-fetching over the DHT, VoD
//! backup placement/handover, churn, and the §5.3 metrics.
//!
//! ## Timing model
//!
//! The simulation advances in scheduling periods (`τ`-rounds) driven by
//! the [`cs_sim::Engine`]; within a round, transfer and routing times are
//! computed analytically from trace latencies and bandwidth shares
//! (Algorithm 1 already guarantees every accepted transfer completes
//! inside the period). Segments delivered in round `r` become playable in
//! round `r + 1`; the continuity check runs at the start of each round,
//! exactly like the paper's per-round ratio.
//!
//! ## Data layout: the node arena
//!
//! Node state lives in a dense arena (`Vec<NodeSim>` + free list) indexed
//! by [`NodeIdx`]; the single `DhtId → NodeIdx` map is consulted only at
//! the DHT/overlay boundary (routing, joins, retrieval). Inside the round
//! loop everything — neighbour tables, pull requests, supplier queues —
//! carries [`PeerRef`] handles (`DhtId` identity + cached arena slot), so
//! per-node access is an index load, not a hash probe. `PeerRef` equality
//! and ordering are **by `DhtId`**, which keeps every tie-break identical
//! to the id-keyed implementation this replaced (verified by pinned
//! behavioural fingerprints in `tests/determinism.rs`).
//!
//! Per-round allocations are gone entirely: a persistent [`RoundScratch`]
//! owns the buffer-map snapshots (refreshed only when a buffer's
//! [`StreamBuffer::epoch`] moved — the generation-stamped exchange), the
//! flat pull-request arena (one `Vec`, counting-scattered into
//! per-supplier buckets), the service/pre-fetch plan tables, the
//! pre-fetch outbound ledger and retrieval route buffers, and the
//! scheduling scratch (including the schedulers' own `_into` working
//! memory). A warmed-up steady-state round performs **zero heap
//! allocations** across every phase — pinned by the counting-allocator
//! suite in `tests/zero_alloc.rs`.
//!
//! With the `parallel` feature enabled, the read-only *planning* halves
//! of three phases fan out over `std::thread::scope` workers:
//! scheduling (step 5, per-node plans), supplier service (step 6, queue
//! sort + budget acceptance per supplier-slot shard) and pre-fetch
//! (step 7, urgent-line checks per node shard). Every mutation is
//! applied serially in deterministic node order — and the service merge
//! revalidates any supplier whose buffer changed under earlier-ordered
//! deliveries — so results are bit-identical to the serial path at any
//! thread count (the thread-matrix suite in `tests/determinism.rs` pins
//! 1/2/4/8 workers against the serial fingerprints; the Random
//! scheduler, which draws from the shared RNG while scheduling, always
//! plans step 5 serially, but steps 6 and 7 still fan out).

use rand::seq::SliceRandom;
use rand::Rng;

use cs_dht::{DhtId, DhtNetwork, IdMap, IdSpace};
use cs_net::{BandwidthAssigner, MessageSizes, NodeBandwidth, TrafficClass, TrafficCounter};
#[cfg(feature = "parallel")]
use cs_obs::WorkerPhase;
use cs_obs::{EventKind, Lap, ObsConfig, ObsRunReport, ObsState, Phase as ObsPhase};
use cs_overlay::{plan_churn, ConnectedNeighbors, NeighborEntry, OverheardList, RpServer};
use cs_sim::{RngTree, SimDuration, SimRng, SimTime};
use cs_trace::{augment_to_min_degree, derive_latency, TraceGenConfig, TraceGenerator};

use crate::backup::VodBackupStore;
use crate::buffer::{BufferMap, StreamBuffer};
use crate::config::{SchedulerKind, SystemConfig};
use crate::faults::{FaultPlan, FaultRoundRecord, FaultTrace};
use crate::metrics::{summarize, RoundRecord, RunReport};
use crate::policy::PolicyKind;
use crate::priority::{PriorityPolicy, PriorityTerms};
use crate::rate::RateController;
use crate::retrieval::{retrieve_one_into, RetrievalScratch};
use crate::scheduler::{
    schedule_coolstreaming_into, schedule_greedy_into, schedule_random_into, sort_candidates,
    Assignment, ScheduleContext, SchedulerScratch, SegmentCandidate,
};
use crate::telemetry::{StartupSample, Telemetry, TelemetryRound};
use crate::urgent::{PrefetchCheck, UrgentLine};
use crate::SegmentId;

/// Dense handle into the node arena. Plain slot index — the arena's
/// free-list may reuse slots across churn, so a bare `NodeIdx` is only
/// meaningful while the node it was created for is alive; longer-lived
/// references use [`PeerRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct NodeIdx(u32);

const INVALID_SLOT: u32 = u32::MAX;

/// The ping assumed for an id that is not alive (as in the id-keyed
/// implementation).
const DEFAULT_PING_MS: f64 = 50.0;

/// A peer handle: `DhtId` identity plus a cached arena slot.
///
/// Equality and ordering are **by id only** — the slot is a lookup
/// accelerator that may go stale under churn (the arena re-resolves it
/// through the id map when it does). This makes every comparison and
/// tie-break behave exactly like the id-keyed tables this design
/// replaced.
#[derive(Debug, Clone, Copy)]
struct PeerRef {
    id: DhtId,
    slot: u32,
}

impl PartialEq for PeerRef {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for PeerRef {}
impl PartialOrd for PeerRef {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PeerRef {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

/// Per-node simulation state.
struct NodeSim {
    /// The node's DHT identifier; also the generation check for arena
    /// slot reuse (a stale `PeerRef` whose slot now holds a different id
    /// falls back to the id map).
    id: DhtId,
    /// Unique lifetime stamp assigned by the arena on insertion. Ids can
    /// be reassigned (the RP server frees departed ids) and slots are
    /// reused, so `(slot, id)` does not identify a node *lifetime* —
    /// this does; the buffer-map exchange keys its snapshot reuse on it.
    birth: u64,
    ping_ms: f64,
    bandwidth: NodeBandwidth,
    connected: ConnectedNeighbors<PeerRef>,
    overheard: OverheardList<PeerRef>,
    buffer: StreamBuffer,
    backup: VodBackupStore,
    rate: RateController<PeerRef>,
    urgent: UrgentLine,
    /// Next segment to play; `None` until playback starts.
    next_play: Option<SegmentId>,
    /// Round at which the node first received any data; playback starts
    /// a fixed buffering delay after this.
    first_data_round: Option<u32>,
    /// Round the node entered the overlay (0 for initial members); fresh
    /// nodes get a catch-up grace before the rescue cap applies.
    spawn_round: u32,
    /// Segments obtained by pre-fetch, pending the §4.3 Case-2
    /// (repeated-data) check. Value = the round they were fetched in.
    prefetch_tags: IdMap<SegmentId, u32>,
    /// Segments received (gossip + pre-fetch) during the previous round;
    /// drives the "supplied little data" neighbour-replacement rule.
    last_inflow: u32,
    /// Segments received so far in the current round.
    round_inflow: u32,
    /// Fractional left-over outbound budget carried between rounds.
    outbound_carry: f64,
    /// Fractional left-over inbound budget carried between rounds.
    inbound_carry: f64,
    /// VCR pause: playback is frozen (the play point holds still) but the
    /// node keeps buffering and serving. Set only through
    /// [`SystemEvent::Pause`]/[`SystemEvent::Resume`].
    paused: bool,
    is_source: bool,
}

/// The dense node store: occupied slots + free list + the single
/// `DhtId → slot` boundary map, plus a slot-indexed ping column so the
/// DHT rescue path's latency lookups read one `f64` instead of a whole
/// `NodeSim`.
#[derive(Default)]
struct NodeArena {
    slots: Vec<Option<NodeSim>>,
    free: Vec<u32>,
    by_id: IdMap<DhtId, u32>,
    /// `ping[slot]` = the occupant's `ping_ms` (never mutated after
    /// spawn; rewritten when a slot is reused). Vacant slots keep the
    /// departed node's value, unreachable through `by_id`.
    ping: Vec<f64>,
    /// Monotonic birth-stamp counter (see `NodeSim::birth`).
    next_birth: u64,
}

impl NodeArena {
    fn with_capacity(n: usize) -> Self {
        NodeArena {
            slots: Vec::with_capacity(n),
            free: Vec::new(),
            by_id: IdMap::with_capacity_and_hasher(n, Default::default()),
            ping: Vec::with_capacity(n),
            next_birth: 0,
        }
    }

    fn len(&self) -> usize {
        self.by_id.len()
    }

    fn slot_count(&self) -> usize {
        self.slots.len()
    }

    fn insert(&mut self, mut node: NodeSim) -> NodeIdx {
        let id = node.id;
        node.birth = self.next_birth;
        self.next_birth += 1;
        let ping = node.ping_ms;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(node);
                self.ping[s as usize] = ping;
                s
            }
            None => {
                self.slots.push(Some(node));
                self.ping.push(ping);
                (self.slots.len() - 1) as u32
            }
        };
        let prev = self.by_id.insert(id, slot);
        debug_assert!(prev.is_none(), "duplicate node id {id}");
        NodeIdx(slot)
    }

    fn remove_id(&mut self, id: DhtId) -> Option<NodeSim> {
        let slot = self.by_id.remove(&id)?;
        let node = self.slots[slot as usize].take();
        debug_assert!(node.is_some());
        self.free.push(slot);
        node
    }

    #[inline]
    fn lookup(&self, id: DhtId) -> Option<NodeIdx> {
        self.by_id.get(&id).map(|&s| NodeIdx(s))
    }

    /// The ping of a live node: one id-map probe plus one column read.
    #[inline]
    fn ping_of(&self, id: DhtId) -> Option<f64> {
        self.by_id.get(&id).map(|&s| self.ping[s as usize])
    }

    /// A `PeerRef` for a node that may or may not be alive; dead ids get
    /// an invalid cached slot and resolve to `None` until (unless) the id
    /// comes alive again.
    #[inline]
    fn make_ref(&self, id: DhtId) -> PeerRef {
        PeerRef {
            id,
            slot: self.by_id.get(&id).copied().unwrap_or(INVALID_SLOT),
        }
    }

    /// [`Self::make_ref`] and [`Self::ping_of`] from a single probe.
    #[inline]
    fn ref_and_ping(&self, id: DhtId) -> (PeerRef, Option<f64>) {
        match self.by_id.get(&id) {
            Some(&slot) => (PeerRef { id, slot }, Some(self.ping[slot as usize])),
            None => (
                PeerRef {
                    id,
                    slot: INVALID_SLOT,
                },
                None,
            ),
        }
    }

    /// Resolve a peer handle to its current arena slot: fast path checks
    /// the cached slot's identity, slow path re-consults the id map (the
    /// id may live in a different slot after leave + rejoin). `None`
    /// means the id is not currently alive.
    #[inline]
    fn resolve(&self, r: PeerRef) -> Option<NodeIdx> {
        if let Some(Some(n)) = self.slots.get(r.slot as usize) {
            if n.id == r.id {
                return Some(NodeIdx(r.slot));
            }
        }
        self.lookup(r.id)
    }

    #[inline]
    fn get(&self, idx: NodeIdx) -> Option<&NodeSim> {
        self.slots.get(idx.0 as usize).and_then(|s| s.as_ref())
    }

    #[inline]
    fn node(&self, idx: NodeIdx) -> &NodeSim {
        self.slots[idx.0 as usize]
            .as_ref()
            .expect("NodeIdx points at a live node")
    }

    #[inline]
    fn node_mut(&mut self, idx: NodeIdx) -> &mut NodeSim {
        self.slots[idx.0 as usize]
            .as_mut()
            .expect("NodeIdx points at a live node")
    }

    fn iter_pairs(&self) -> impl Iterator<Item = (DhtId, NodeIdx)> + '_ {
        self.by_id.iter().map(|(&id, &s)| (id, NodeIdx(s)))
    }
}

/// One gossip pull request, queued at its supplier. Carries the dense
/// requester handle for state access plus the requester's `DhtId` for the
/// deterministic per-round tie-break hash (identical to the id-keyed
/// implementation).
///
/// Requests live in one flat arena bucketed by supplier slot (see
/// [`RoundScratch::requests`]); the supplier slot rides along for the
/// bucketing scatter, and the service decision half marks acceptance
/// in-place via `accepted` instead of building per-supplier index lists.
#[derive(Debug, Clone, Copy)]
struct PullRequest {
    requester: NodeIdx,
    requester_id: DhtId,
    segment: SegmentId,
    priority: f64,
    /// The supplier's arena slot this request is queued at.
    supplier_slot: u32,
    /// Set by the step-6 decision half: this request fits the supplier's
    /// outbound budget (and its held data) and will be served.
    accepted: bool,
}

/// A per-node buffer-map snapshot slot: the generation-stamped exchange.
struct MapSnap {
    /// Birth stamp of the node lifetime the snapshot was taken from. Ids
    /// and slots are both reusable; the birth stamp is not, so an equal
    /// `(birth, epoch)` pair guarantees an identical bitmap.
    birth: u64,
    /// The buffer's mutation epoch at snapshot time; equal epoch ⇒ the
    /// bitmap is unchanged and need not be re-copied.
    epoch: u64,
    /// Round stamp: snapshots not refreshed this round are invisible.
    stamp: u64,
    map: BufferMap,
}

/// The buffer-map exchange store, indexed by arena slot.
#[derive(Default)]
struct MapStore {
    snaps: Vec<MapSnap>,
    /// The stamp marking snapshots taken this round.
    stamp: u64,
}

impl MapStore {
    fn begin_round(&mut self, round: u32, slot_count: usize) {
        self.stamp = round as u64 + 1;
        while self.snaps.len() < slot_count {
            self.snaps.push(MapSnap {
                birth: u64::MAX,
                epoch: u64::MAX,
                stamp: 0,
                map: BufferMap::placeholder(),
            });
        }
    }

    /// Refresh the snapshot of `idx` from `node`, copying bitmap words
    /// only when the buffer actually changed since the last copy.
    fn snapshot(&mut self, idx: NodeIdx, node: &NodeSim) {
        let snap = &mut self.snaps[idx.0 as usize];
        if snap.birth != node.birth || snap.epoch != node.buffer.epoch() {
            node.buffer.snapshot_into(&mut snap.map);
            snap.birth = node.birth;
            snap.epoch = node.buffer.epoch();
        }
        snap.stamp = self.stamp;
    }

    /// The advertised map of `idx`, if it was snapshotted this round.
    #[inline]
    fn get(&self, idx: NodeIdx) -> Option<&BufferMap> {
        self.snaps
            .get(idx.0 as usize)
            .filter(|s| s.stamp == self.stamp)
            .map(|s| &s.map)
    }

    /// Install a *received* announcement into `idx`'s snapshot slot —
    /// the live-network twin's replacement for [`Self::snapshot`]: the
    /// bitmap comes off the wire instead of being read from the node's
    /// live state. Mirrors the `(birth, epoch)` re-copy suppression, so
    /// the install path has the same delta-encoding shape a real
    /// network would use.
    fn install_wire(&mut self, idx: NodeIdx, a: &TwinAnnounce) {
        let snap = &mut self.snaps[idx.0 as usize];
        if snap.birth != a.birth || snap.epoch != a.epoch {
            snap.map.install_wire(a.head, a.capacity, &a.words);
            snap.birth = a.birth;
            snap.epoch = a.epoch;
        }
        snap.stamp = self.stamp;
    }
}

/// One node's per-round buffer-map announcement as carried by the
/// live-network twin's transport (`cs-twin`). This is the protocol's
/// only continuous all-to-neighbours state flow: in the simulator the
/// exchange phase reads every node's buffer directly; in the twin the
/// same bytes travel as `Announce` messages and are installed back via
/// [`SystemSim::twin_finish_round`]. `(birth, epoch)` carry the
/// snapshot-reuse key so the install path can suppress redundant word
/// copies exactly like the local exchange does.
#[derive(Debug, Clone, PartialEq)]
pub struct TwinAnnounce {
    /// Arena lifetime stamp of the announcing node (slot reuse guard).
    pub birth: u64,
    /// The announcing buffer's mutation epoch at emission time.
    pub epoch: u64,
    /// Window start of the advertised bitmap.
    pub head: SegmentId,
    /// Window size of the advertised bitmap.
    pub capacity: u64,
    /// The availability bitmap words.
    pub words: Vec<u64>,
    /// Whether the buffer was empty at emission (feeds the
    /// dark-neighbourhood skip proof, which otherwise would read live
    /// remote state).
    pub is_empty: bool,
}

/// The round's delivered exchange views, indexed by arena slot — what
/// the twin hands back to [`SystemSim::twin_finish_round`] after the
/// transport delivered every announcement. Views are assembled from
/// *received messages*; if the transport drops, delays past the round
/// deadline, or corrupts an announcement, the installed view differs
/// from the live state and the decision log diverges from the
/// simulator's — which is exactly what the sim-vs-live equivalence
/// harness detects.
#[derive(Debug, Default, Clone)]
pub struct TwinViews {
    by_slot: Vec<Option<std::sync::Arc<TwinAnnounce>>>,
}

impl TwinViews {
    /// Drop every view (start of a new round).
    pub fn clear(&mut self) {
        self.by_slot.clear();
    }

    /// Install the delivered announcement for `slot`.
    pub fn install(&mut self, slot: u32, announce: std::sync::Arc<TwinAnnounce>) {
        let slot = slot as usize;
        if self.by_slot.len() <= slot {
            self.by_slot.resize(slot + 1, None);
        }
        self.by_slot[slot] = Some(announce);
    }

    /// The delivered announcement for `slot`, if any.
    pub fn get(&self, slot: u32) -> Option<&TwinAnnounce> {
        self.by_slot.get(slot as usize).and_then(|s| s.as_deref())
    }

    /// Number of installed views.
    pub fn len(&self) -> usize {
        self.by_slot.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no view is installed.
    pub fn is_empty(&self) -> bool {
        self.by_slot.iter().all(|s| s.is_none())
    }
}

/// An in-flight round between [`SystemSim::twin_begin_round`] (phases
/// 1–3: churn, emission, maintenance) and
/// [`SystemSim::twin_finish_round`] (phase 4 onward: exchange through
/// playback). Opaque: it carries the round's scratch state and
/// profiler lap, and must be handed back to the same simulator.
pub struct TwinPendingRound {
    round: u32,
    round_end: SimTime,
    first_new: SegmentId,
    scratch: RoundScratch,
    traffic: TrafficCounter,
    joins: usize,
    leaves: usize,
    olap: Lap,
}

impl TwinPendingRound {
    /// The round index being executed.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The simulated time at which this round ends — the twin's
    /// delivery deadline: announcements due after this instant miss
    /// the round.
    pub fn round_end(&self) -> SimTime {
        self.round_end
    }
}

/// One alive node's announcement-relevant state, lent to the visitor
/// of [`SystemSim::twin_wire_states`]. Everything the twin needs to
/// build this node's `Announce` payload ([`TwinAnnounce`]) and its
/// outgoing link set, without cs-twin reaching into simulator
/// internals.
pub struct TwinWireState<'a> {
    /// The node's DHT identifier (the wire-level address).
    pub id: DhtId,
    /// The node's arena slot — the key [`TwinViews`] is indexed by.
    pub slot: u32,
    /// Arena lifetime stamp (guards against same-round slot reuse).
    pub birth: u64,
    /// The buffer's mutation epoch (snapshot-reuse key).
    pub epoch: u64,
    /// Advertised window start.
    pub head: SegmentId,
    /// Advertised window size.
    pub capacity: u64,
    /// Availability bitmap words.
    pub words: &'a [u64],
    /// Whether the buffer is empty at emission time.
    pub is_empty: bool,
    /// Whether this node is the streaming source.
    pub is_source: bool,
    /// The node's ping latency in milliseconds (feeds per-link
    /// latency in the twin's link catalogue).
    pub ping_ms: f64,
    /// Connected-neighbour ids in the overlay's deterministic order —
    /// the announcement's recipient set.
    pub neighbors: &'a [DhtId],
}

/// Reusable scratch for one node's scheduling pass.
#[derive(Default)]
struct SchedScratch {
    /// Generation counter for lazy clearing of `window`.
    gen: u64,
    /// Per-offset supplier lists over the exchange window; `(gen, list)`
    /// — a slot is live only when its gen matches the current pass.
    window: Vec<(u64, Vec<PeerRef>)>,
    /// Offsets touched this pass (sorted before candidate construction so
    /// candidates are built in ascending segment order).
    touched: Vec<u32>,
    /// Recycled supplier vectors for candidates.
    spare: Vec<Vec<PeerRef>>,
    candidates: Vec<SegmentCandidate<PeerRef>>,
    /// The node's connected neighbours, sorted ascending by id.
    nbrs: Vec<PeerRef>,
    /// Supplier-rate table handed to the scheduler (moved in and out to
    /// keep its allocation).
    rates: Vec<(PeerRef, f64)>,
    /// The scheduling algorithms' own working memory (supplier queue,
    /// ordering buffer, feasible list) for the `_into` entry points.
    algo: SchedulerScratch<PeerRef>,
    /// The resulting assignments of the last pass.
    assignments: Vec<Assignment<PeerRef>>,
}

/// One supplier's planned service for the round: the outcome of the
/// read-only decision half of step 6, applied (or revalidated) in
/// deterministic order by the serial merge half.
///
/// The decision loop depends only on the supplier's own pre-service state
/// (outbound carry, bandwidth, buffer) plus static facts (queue order,
/// requester aliveness), so it can run for many suppliers concurrently.
/// The one cross-supplier hazard is the supplier's *own buffer* changing
/// because an earlier-ordered supplier delivered to it (a slide can evict
/// a segment it was about to serve); `buffer_epoch` detects exactly that,
/// and the merge recomputes the decisions serially for such suppliers —
/// making plan + merge bit-identical to the fully serial loop.
#[derive(Default, Clone, Copy)]
struct ServePlan {
    /// The supplier's buffer epoch when the plan was computed.
    buffer_epoch: u64,
    /// New outbound carry to commit at merge time.
    carry: f64,
    /// Whole sends granted this round (before any were consumed).
    sends: i64,
    /// Requests seen / requests refused for lack of budget.
    issued: u64,
    dropped: u64,
}

/// One node's planned pre-fetch for the round: the outcome of the
/// read-only half of step 7 (urgent-line check, Case-2 repeated scan,
/// inbound-room budget), executed serially in node order because the
/// execution half mutates shared state (DHT tables via routing, the
/// outbound-spend ledger, backup stores).
///
/// The plan reads only the owning node's state, the round's buffer-map
/// snapshots and static membership, none of which the execution half of
/// *other* nodes touches — so planning for all nodes concurrently is
/// bit-identical to interleaving plan and execution node by node.
#[derive(Default)]
struct PrefetchPlan {
    /// Case 3: retrieval suppressed (`N_miss > l`, or past the policy's
    /// deficit-scaled threshold).
    suppressed: bool,
    /// The predicted-missed segments to fetch (empty ⇒ not triggered).
    missed: Vec<SegmentId>,
    /// §4.3 Case-2 repeated-data count (α-down signals to apply).
    repeated: u32,
    /// How many of `missed` fit the inbound budget.
    max_fetches: usize,
    /// The effective per-round fetch cap the urgent-line check ran with
    /// (`prefetch_cap` under Legacy, deficit-scaled under Adaptive; 0
    /// when the node never reached the check). Telemetry only.
    cap: usize,
}

/// Step-6 outcome counters, accumulated by the serial merge half.
#[derive(Default)]
struct ServiceCounters {
    deliveries: u64,
    issued: u64,
    dropped: u64,
    /// §4.3 Case-2 repetitions detected on delivery of tagged segments.
    repeated: u32,
    /// Suppliers that delivered ≥ 1 segment this round (telemetry).
    supplier_active: usize,
    /// Largest delivery count by a single supplier this round (telemetry).
    supplier_peak: u64,
}

/// The decision half of supplier service for one supplier slot: sort the
/// pending queue (most urgent first, per-round-hash tie-break) and decide
/// which requests the outbound budget accepts. Pure read over the arena
/// apart from the queue sort and the plan output — which is what lets the
/// `parallel` feature run it for disjoint slot ranges concurrently.
fn plan_service(
    nodes: &NodeArena,
    config: &SystemConfig,
    salt: u64,
    slot: u32,
    reqs: &mut [PullRequest],
    plan: &mut ServePlan,
) {
    let sup = nodes.node(NodeIdx(slot));
    let budget = sup
        .bandwidth
        .outbound_segments_per_sec(config.segment_kbits)
        * config.period_secs
        + sup.outbound_carry;
    let sends = budget.floor();
    plan.carry = budget - sends;
    plan.sends = sends as i64;
    plan.buffer_epoch = sup.buffer.epoch();
    // Most urgent first. Ties break on a per-round hash of the requester
    // — deterministic, but not the same node winning every round (a
    // fixed tie-break starves whoever sorts last). Unstable sort: the
    // (priority, requester-hash, segment) key is unique per request
    // (splitmix64 is a bijection), so the order matches a stable sort.
    reqs.sort_unstable_by(|a, b| {
        b.priority
            .total_cmp(&a.priority)
            .then_with(|| {
                cs_sim::splitmix64(a.requester_id ^ salt)
                    .cmp(&cs_sim::splitmix64(b.requester_id ^ salt))
            })
            .then(a.segment.cmp(&b.segment))
    });
    (plan.issued, plan.dropped) = decide_service(plan.sends, sup, nodes, reqs);
}

/// The budget/acceptance walk of supplier service: marks each request
/// that fits the outbound budget (and the supplier's held data, and a
/// live requester) accepted, in place. The single implementation behind
/// both the plan half and the merge's epoch-revalidation replay — the
/// "bit-identical at any thread count" guarantee rests on these two
/// paths never diverging. Returns `(issued, dropped)`.
fn decide_service(
    sends_budget: i64,
    sup: &NodeSim,
    nodes: &NodeArena,
    reqs: &mut [PullRequest],
) -> (u64, u64) {
    let mut issued = 0u64;
    let mut dropped = 0u64;
    let mut sends = sends_budget;
    for req in reqs.iter_mut() {
        req.accepted = false;
        issued += 1;
        if sends <= 0 {
            dropped += 1;
            continue;
        }
        // The supplier must (still) hold the segment.
        if !sup.buffer.contains(req.segment) {
            continue;
        }
        if nodes.get(req.requester).is_none() {
            continue;
        }
        sends -= 1;
        req.accepted = true;
    }
    (issued, dropped)
}

/// The urgent-line parameters the active policy grants a node at this
/// anchor: `(fetch_cap, suppression_threshold, min_horizon)`. Legacy is
/// the paper's fixed `N_miss > l` cutoff (cap == threshold == `l`,
/// horizon 0 — which makes `decide_scaled_into` exactly `decide_into`);
/// Adaptive scales all three with the runway deficit, with the probe
/// clamped to the buffer window — a probe past `head + capacity` would
/// make every successful fetch slide the window and evict still-unplayed
/// segments (reachable with an oversized runway-target knob, or right
/// after a backward seek re-anchored playback near the buffer head).
/// The single implementation behind the planning path and the
/// `CS_DEBUG_ROUNDS` dump, so the dump always reports the decisions the
/// round actually makes.
///
/// `round`/`spawn_round` feed the joiner grace window
/// ([`AdaptivePolicy::join_grace_rounds`]): inside it the node gets the
/// full rescue envelope — `rescue_cap_max`, no Case-3 suppression, the
/// whole runway-target horizon — because a catching-up joiner's window
/// is *supposed* to be all holes, and the deficit-scaled throttle would
/// read that as the systemic overload it exists to suppress. With the
/// knob at 0 (the default) the grace branch is unreachable.
fn rescue_params(
    config: &SystemConfig,
    buffer: &StreamBuffer,
    anchor: SegmentId,
    p: u64,
    round: u32,
    spawn_round: u32,
) -> (usize, usize, u64) {
    match &config.policy {
        PolicyKind::Legacy => (config.prefetch_cap, config.prefetch_cap, 0),
        PolicyKind::Adaptive(ap) => {
            let window = (buffer.head() + buffer.capacity()).saturating_sub(anchor);
            if ap.in_join_grace(round, spawn_round) {
                // The cap stays inside the scratch pre-sizing bound
                // (`rescue_cap_max.max(prefetch_cap)`), so grace never
                // regrows a plan's miss list.
                return (
                    ap.rescue_cap_max.max(config.prefetch_cap),
                    usize::MAX / 2,
                    ap.rescue_horizon(p.max(1)).min(window),
                );
            }
            let deficit = ap.runway_deficit(buffer.contiguous_from(anchor), p.max(1));
            (
                ap.rescue_cap(config.prefetch_cap, deficit),
                ap.suppression_threshold(config.prefetch_cap, deficit),
                ap.rescue_horizon(p.max(1)).min(window),
            )
        }
    }
}

/// The scheduler's exchange window at a given play anchor:
/// `(window_end, occupancy)`. Pulls focus on segments within a couple of
/// buffering delays of the play point — spending inbound budget on
/// far-future segments starves near-deadline ones (the failure the §4.2
/// urgency term exists to avoid; real CoolStreaming bounds its exchange
/// window the same way). Under the adaptive policy the lookahead widens
/// as window occupancy drops (see [`crate::policy`]); Legacy keeps the
/// fixed window and reports occupancy 1.0.
///
/// The single implementation behind [`plan_node`] and the active-set
/// classifier ([`SystemSim::classify_sched`]) — the window-complete skip
/// proof is only sound while both read the same bounds.
fn exchange_window(
    config: &SystemConfig,
    buffer: &StreamBuffer,
    play_anchor: SegmentId,
    newest_emitted: SegmentId,
) -> (SegmentId, f64) {
    let p = config.demand_per_round();
    let legacy_lookahead = (2 * config.startup_segments).max(4 * p);
    let (lookahead, occupancy) = match &config.policy {
        PolicyKind::Legacy => (legacy_lookahead, 1.0),
        PolicyKind::Adaptive(ap) => {
            let legacy_end = (newest_emitted + 1)
                .min(play_anchor + legacy_lookahead)
                .min(play_anchor + config.buffer_size);
            let occ = if legacy_end > play_anchor {
                let held = buffer.count_range(play_anchor, legacy_end);
                held as f64 / (legacy_end - play_anchor) as f64
            } else {
                1.0
            };
            (ap.lookahead(legacy_lookahead, occ), occ)
        }
    };
    let window_end = (newest_emitted + 1)
        .min(play_anchor + lookahead)
        .min(play_anchor + config.buffer_size);
    (window_end, occupancy)
}

/// The decision half of pre-fetch for one node: the urgent-line check,
/// the Case-2 repeated scan against the round's snapshots, and the
/// inbound budget. Reads only the owning node's state plus round-stable
/// facts, so the `parallel` feature fans it out across nodes.
fn plan_prefetch(
    nodes: &NodeArena,
    config: &SystemConfig,
    maps: &MapStore,
    newest_emitted: SegmentId,
    round: u32,
    idx: NodeIdx,
    plan: &mut PrefetchPlan,
) {
    plan.suppressed = false;
    plan.missed.clear();
    plan.repeated = 0;
    plan.max_fetches = 0;
    plan.cap = 0;
    let node = nodes.node(idx);
    if node.is_source {
        return;
    }
    // Playing nodes guard their play point; buffering nodes guard the
    // contiguity they need to *start* (this is how the pre-fetch
    // "accelerates the streaming system's entering its stable phase",
    // §5.4.1).
    let anchor = node.next_play.or_else(|| node.buffer.iter().next());
    let Some(anchor) = anchor else {
        return;
    };
    let started = node.next_play.is_some();
    let p = config.demand_per_round();
    // Deficit-scaled rescue (the policy layer): under Adaptive the
    // fetch cap, the Case-3 cutoff and the probe horizon all grow with
    // the node's runway deficit, so a stressed swarm's rescue
    // *throttles* to the cap instead of switching off for everyone at
    // once — and holes start getting healed while they are still many
    // rounds from their deadline. See [`rescue_params`].
    let (cap, threshold, horizon) =
        rescue_params(config, &node.buffer, anchor, p, round, node.spawn_round);
    plan.cap = cap;
    let check = node.urgent.decide_scaled_into(
        &node.buffer,
        anchor,
        newest_emitted,
        |_| false, // deliveries already committed this round
        &mut plan.missed,
        cap,
        threshold,
        horizon,
    );
    match check {
        PrefetchCheck::NotTriggered => return,
        PrefetchCheck::TooMany(_) => {
            plan.suppressed = true;
            return;
        }
        PrefetchCheck::Fetch => {}
    }

    // §4.3 Case 2 (repeated data), pull-model form: a predicted-missed
    // segment that a connected neighbour still advertises — with its
    // deadline at least one period away — could "still be got by the
    // data scheduling algorithm before its deadline". The paper
    // fetches it anyway and uses the repetition as the α-down signal;
    // we do the same (skipping the fetch and trusting gossip turned
    // out to strand segments whose pulls kept losing the budget race).
    for &seg in &plan.missed {
        let deadline_far = !started || seg >= anchor + p;
        let neighbour_has = deadline_far
            && node.connected.ids().any(|nref| {
                nodes
                    .resolve(nref)
                    .and_then(|ni| maps.get(ni))
                    .is_some_and(|m| m.contains(seg))
            });
        if neighbour_has {
            plan.repeated += 1;
        }
    }
    // Pre-fetch shares the inbound rate with the scheduler (§4.3); the
    // adaptive policy's slack over-provision applies here too.
    let base_room = node
        .bandwidth
        .inbound_segments_per_sec(config.segment_kbits)
        * config.period_secs;
    let inbound_room = node.inbound_carry + config.policy.provisioned_inbound(base_room);
    plan.max_fetches = plan
        .missed
        .len()
        .min(inbound_room.floor().max(0.0) as usize);
}

/// Persistent per-round working memory: everything the round loop used to
/// allocate afresh every period now lives (and is reused) here.
#[derive(Default)]
struct RoundScratch {
    maps: MapStore,
    sched: SchedScratch,
    /// The round's pull requests, flat in scheduling order. One shared
    /// arena instead of a `Vec` per supplier: per-slot queues re-grow
    /// from zero capacity whenever a slot sees a new high-water mark,
    /// which kept the service phase allocating for hundreds of rounds;
    /// the flat arena's capacity converges to the total-requests
    /// high-water after a handful of rounds.
    requests: Vec<PullRequest>,
    /// `requests` scattered into contiguous per-supplier buckets laid
    /// out in ascending slot order (counting sort, stable), then sorted
    /// within each bucket by the service policy.
    requests_sorted: Vec<PullRequest>,
    /// Per-slot bucket sizes; nonzero only for `touched_suppliers`.
    queue_count: Vec<u32>,
    /// Per-slot bucket start offsets into `requests_sorted`.
    queue_start: Vec<u32>,
    /// Per-slot scatter cursors (consumed during bucketing).
    queue_cursor: Vec<u32>,
    /// Slots with pending requests this round.
    touched_suppliers: Vec<u32>,
    /// Per-slot supplier-service plans (step 6's decision half); only the
    /// slots in `touched_suppliers` are meaningful in any given round.
    serve_plans: Vec<ServePlan>,
    /// Per-node pre-fetch plans (step 7's decision half), parallel to the
    /// round's `order_idx`.
    prefetch_plans: Vec<PrefetchPlan>,
    /// Outbound budget already spent on pre-fetch uploads, per slot.
    outbound_spent: Vec<f64>,
    touched_spent: Vec<u32>,
    /// Route/locate buffers reused by every Algorithm 2 retrieval.
    retrieval: RetrievalScratch,
    /// General-purpose peer-list scratch (neighbour maintenance).
    tmp_refs: Vec<PeerRef>,
    tmp_refs2: Vec<PeerRef>,
    tmp_pairs: Vec<(PeerRef, f64)>,
}

impl RoundScratch {
    fn begin_round(&mut self, round: u32, slot_count: usize) {
        self.maps.begin_round(round, slot_count);
        if self.queue_count.len() < slot_count {
            self.queue_count.resize(slot_count, 0);
            self.queue_start.resize(slot_count, 0);
            self.queue_cursor.resize(slot_count, 0);
        }
        if self.serve_plans.len() < slot_count {
            self.serve_plans.resize_with(slot_count, ServePlan::default);
        }
        for &s in &self.touched_suppliers {
            self.queue_count[s as usize] = 0;
        }
        self.touched_suppliers.clear();
        self.requests.clear();
        if self.outbound_spent.len() < slot_count {
            self.outbound_spent.resize(slot_count, 0.0);
        }
        for &s in &self.touched_spent {
            self.outbound_spent[s as usize] = 0.0;
        }
        self.touched_spent.clear();
    }

    fn push_request(&mut self, req: PullRequest) {
        let count = &mut self.queue_count[req.supplier_slot as usize];
        if *count == 0 {
            self.touched_suppliers.push(req.supplier_slot);
        }
        *count += 1;
        self.requests.push(req);
    }

    /// Scatter `requests` into contiguous per-slot buckets in
    /// `requests_sorted` (ascending slot order, stable within a slot).
    /// Returns nothing; bucket ranges are `queue_start[s] ..
    /// queue_start[s] + queue_count[s]`.
    fn bucket_requests(&mut self) {
        self.touched_suppliers.sort_unstable();
        let mut start = 0u32;
        for &s in &self.touched_suppliers {
            self.queue_start[s as usize] = start;
            self.queue_cursor[s as usize] = start;
            start += self.queue_count[s as usize];
        }
        if self.requests_sorted.len() < self.requests.len() {
            let dummy = PullRequest {
                requester: NodeIdx(0),
                requester_id: 0,
                segment: 0,
                priority: 0.0,
                supplier_slot: 0,
                accepted: false,
            };
            self.requests_sorted.resize(self.requests.len(), dummy);
        }
        for i in 0..self.requests.len() {
            let req = self.requests[i];
            let cursor = &mut self.queue_cursor[req.supplier_slot as usize];
            self.requests_sorted[*cursor as usize] = req;
            *cursor += 1;
        }
    }

    fn add_spent(&mut self, supplier: NodeIdx, amount: f64) {
        let slot = &mut self.outbound_spent[supplier.0 as usize];
        if *slot == 0.0 {
            self.touched_spent.push(supplier.0);
        }
        *slot += amount;
    }
}

/// Structure-of-arrays hot state for the active-set round loop: the
/// per-node fields the classification pass and the planning phases read
/// every round, packed into parallel slot-indexed vectors so the O(N)
/// classification sweep walks dense memory instead of chasing
/// `NodeSim`s through the arena.
///
/// Two families of data live here:
///
/// * **Touch stamps** (`touched` + `birth`): the conservative half of
///   the active set. Any code path that changes a node's *inputs*
///   (join, scenario event, neighbour-set change) stamps the slot with
///   the round the change becomes visible; classification force-plans a
///   stamped node regardless of what the skip proofs say. Stamps are
///   guarded by the arena `birth` of the node that wrote them, so a
///   slot reused by a same-round leave→join can never inherit (or be
///   robbed of) a stale stamp.
/// * **Classification caches** (`anchor`/`window_end`/`occupancy`,
///   guarded by `stamp` + `birth`): facts the classifier proved this
///   round that [`plan_node`] would otherwise re-derive per node.
///
/// The skip proofs themselves are *stateless* — re-evaluated from live
/// buffers and maps every round — so the stamps are pure conservatism:
/// losing one could only be a performance bug if the proofs were exact,
/// and the determinism suite pins that they are.
#[derive(Default)]
struct HotState {
    /// Arena birth of the node whose data occupies each slot; guards
    /// every other per-slot field against slot reuse.
    birth: Vec<u64>,
    /// Force-active stamp: the slot must be planned in round
    /// `touched[slot] - 1` (i.e. stamp = round + 1, 0 = never).
    touched: Vec<u64>,
    /// Whether the slot's buffer map advertised this round was empty
    /// (recorded in the phase-4 snapshot sweep; input to the dark-
    /// neighbourhood skip proof).
    map_empty: Vec<bool>,
    /// Classification freshness: `stamp[slot] == round + 1` means the
    /// cache fields below were written by this round's classifier.
    stamp: Vec<u64>,
    /// Cached play anchor (`u64::MAX` = node had no local anchor; the
    /// cache fields are then not reused).
    anchor: Vec<u64>,
    /// Cached exchange-window end for `anchor`.
    window_end: Vec<u64>,
    /// Cached window occupancy for `anchor`.
    occupancy: Vec<f64>,
    /// `order_idx` positions (ascending) the step-5 scheduling phase
    /// must plan this round.
    active_sched: Vec<u32>,
    /// `order_idx` positions (ascending) the step-7 pre-fetch phase
    /// must plan this round.
    active_prefetch: Vec<u32>,
    /// Nodes in either list because of a touch stamp rather than a
    /// failed skip proof (telemetry).
    forced: u64,
    /// Skip-probe hysteresis for the scheduling classifier: while
    /// `round < sched_dense_until` the proofs are suspended and every
    /// candidate is materialised (always bit-identical — skipping is an
    /// optimisation, never a semantic). Set whenever a probe round finds
    /// fewer than 1/8 of candidates skippable, so a workload the active
    /// set cannot help (everyone starving, everyone active) pays the
    /// classification overhead on at most one round in eight.
    sched_dense_until: u64,
    /// Same hysteresis for the pre-fetch classifier.
    prefetch_dense_until: u64,
    /// Whether this round's pre-fetch list came from the classifier
    /// (fresh `rescue_params` caps, peak already computed) or was
    /// materialised dense (the execute loop takes the peak from the
    /// planned caps, which are all fresh).
    prefetch_classified: bool,
}

impl HotState {
    /// Grow every per-slot array to cover `slot_count` slots and
    /// reserve the active lists to full-overlay capacity (so the lists
    /// never reallocate after warm-up — the zero-alloc suite watches).
    fn ensure(&mut self, slot_count: usize) {
        if self.birth.len() < slot_count {
            self.birth.resize(slot_count, u64::MAX);
            self.touched.resize(slot_count, 0);
            self.map_empty.resize(slot_count, true);
            self.stamp.resize(slot_count, 0);
            self.anchor.resize(slot_count, u64::MAX);
            self.window_end.resize(slot_count, 0);
            self.occupancy.resize(slot_count, 0.0);
        }
        let cap = slot_count.saturating_sub(self.active_sched.capacity());
        self.active_sched.reserve(cap);
        let cap = slot_count.saturating_sub(self.active_prefetch.capacity());
        self.active_prefetch.reserve(cap);
    }

    /// Force-activate a slot for round `round` (stamp survives until
    /// that round's classification). `birth` identifies the node the
    /// stamp is *for*; a different occupant later finds the stamp
    /// guarded away.
    fn touch(&mut self, slot: NodeIdx, birth: u64, round: u32) {
        let s = slot.0 as usize;
        self.ensure(s + 1);
        self.touched[s] = u64::from(round) + 1;
        self.birth[s] = birth;
    }

    /// Whether `slot` (occupied by the node with arena birth `birth`)
    /// carries a live touch stamp for round `round`.
    fn is_touched(&self, slot: NodeIdx, birth: u64, round: u32) -> bool {
        let s = slot.0 as usize;
        s < self.touched.len() && self.touched[s] == u64::from(round) + 1 && self.birth[s] == birth
    }
}

/// A workload event applied between rounds — the hook API the
/// `cs-scenario` engine (and any other external driver) uses to change
/// the system mid-run. Events never consume the churn/scheduler/join RNG
/// streams: everything they need to sample flows through a dedicated
/// `"scenario"` child of the seed tree, so a run that applies no events
/// is bit-identical to a plain [`SystemSim::run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SystemEvent {
    /// Admit one node through the §4.1 RP join protocol (the same path
    /// churn joins take: close-ID ping, neighbour adoption, DHT join).
    /// `None` fields are drawn from the joiner pools on the scenario
    /// stream; `Some` fields express heterogeneous node classes
    /// (capacity tiers, latency classes).
    Join {
        /// Override the joiner's ping time (latency class).
        ping_ms: Option<f64>,
        /// Override the joiner's capacity (upload tier).
        bandwidth: Option<NodeBandwidth>,
    },
    /// Remove a node; `graceful` leaves hand their VoD backups to the
    /// ring predecessor, abrupt failures just vanish.
    Leave { id: DhtId, graceful: bool },
    /// Crash a node (fault plane). Unlike [`SystemEvent::Leave`] with
    /// `graceful: false` — which still tells the RP server and the DHT —
    /// a crash is silent: backups are stranded, DHT routing entries go
    /// stale until lazily repaired on contact, and neighbours only learn
    /// on their next maintenance pass.
    Crash { id: DhtId },
    /// VCR: move a node's play anchor. The exchange window, the urgent
    /// line and the pre-fetcher all re-derive from the new anchor on the
    /// next round.
    Seek { id: DhtId, target: SeekTarget },
    /// VCR: freeze playback. The node keeps buffering, serving and
    /// counting as alive, but its play point holds still and it is not
    /// counted as playing until resumed.
    Pause { id: DhtId },
    /// VCR: resume a paused node at its frozen play point.
    Resume { id: DhtId },
    /// Change a node's capacity mid-run (tier upgrade or throttle).
    SetBandwidth { id: DhtId, bandwidth: NodeBandwidth },
}

/// Where a [`SystemEvent::Seek`] moves the play anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekTarget {
    /// Jump `n` segments toward the live frontier (clamped to it).
    Forward(u64),
    /// Jump `n` segments back (clamped to the oldest segment the buffer
    /// window can still address).
    Backward(u64),
    /// Jump to the live frontier minus the startup buffering window.
    ToLive,
}

/// What applying a [`SystemEvent`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventOutcome {
    /// A join succeeded; the new node got this id.
    Joined(DhtId),
    /// The event applied to its target.
    Applied,
    /// The event had no effect: dead or unsuitable target (e.g. the
    /// source, or a seek on a node that has not started playback), or a
    /// join that found no reachable contact.
    Rejected,
}

/// A pull whose delivery was lost to the fault plane and is being
/// watched by the recovery plane (Adaptive policy only): the requester
/// times the supplier out, retries with exponential backoff and fails
/// over to a DHT rescue fetch that shuns suspected-dead suppliers.
#[derive(Debug, Clone, Copy)]
struct PendingRetry {
    requester: DhtId,
    segment: SegmentId,
    /// The supplier whose delivery went dark (`None` for losses with no
    /// attributable peer). Suspected and evicted on first timeout.
    supplier: Option<DhtId>,
    /// Round the original pull was lost (time-to-recover baseline).
    lost_round: u32,
    /// Backed-off retries issued so far (bounded by `retry_max`).
    attempts: u32,
    /// Round at which the timeout/backoff timer next fires.
    next_check: u32,
    /// Whether the supplier has already been suspected (failover counted
    /// once per lost pull).
    suspected: bool,
}

/// What the fault plane did to one control-path fetch.
enum ControlFault {
    None,
    Lost,
    Delayed(f64),
}

/// All fault-injection and failure-recovery state. Grouped so the hot
/// path can gate every fault check on one `active` flag: with the
/// default inert [`FaultPlan`] and no scripted fault events, nothing
/// here is read past that flag, no `"faults"` RNG draw happens and the
/// run is bit-identical to a fault-free build.
struct FaultState {
    /// Dedicated stream for every fault/recovery draw. Deriving the
    /// child consumes nothing from the sibling streams, so creating it
    /// unconditionally is free.
    rng: SimRng,
    /// Steady-state config baseline (phase overlays stack on top).
    base: FaultPlan,
    /// Effective steady-state rates: `base` plus the scenario's current
    /// per-phase overlay.
    plan: FaultPlan,
    /// Scripted transient loss burst: extra loss probability while
    /// `round < burst_until`.
    burst_loss: f64,
    burst_until: u32,
    /// Scripted partition: sorted arc members; messages crossing the
    /// arc boundary drop deterministically while `round < partition_until`.
    partition: Vec<DhtId>,
    partition_until: u32,
    /// RP/bootstrap outage: joins are rejected while
    /// `round < rp_outage_until`.
    rp_outage_until: u32,
    /// Whether the fault plane ever armed. Gates all per-round work.
    active: bool,
    /// Whether any crash ever happened; gates the lazy stale-route
    /// repair scan (only crashes leave stale DHT entries behind).
    crashed_any: bool,
    /// Scratch: steady-state crash victims drawn this round.
    victims: Vec<DhtId>,
    /// Suppliers suspected dead by the recovery plane, each with the
    /// round its eviction window expires.
    dead_until: Vec<(DhtId, u32)>,
    /// Lost pulls under timeout/retry watch.
    pending: Vec<PendingRetry>,
    /// Counters accumulating for the current round; drained into the
    /// trace at end of round.
    counters: FaultRoundRecord,
    /// The per-round fault/recovery trace (empty while inert).
    trace: FaultTrace,
}

impl FaultState {
    fn new(rng: SimRng, base: FaultPlan) -> Self {
        FaultState {
            rng,
            base,
            plan: base,
            burst_loss: 0.0,
            burst_until: 0,
            partition: Vec::new(),
            partition_until: 0,
            rp_outage_until: 0,
            active: base.enabled(),
            crashed_any: false,
            victims: Vec::new(),
            dead_until: Vec::new(),
            pending: Vec::new(),
            counters: FaultRoundRecord::default(),
            trace: FaultTrace::default(),
        }
    }

    /// Whether the scripted partition drops messages between `a` and `b`
    /// this round (exactly one endpoint inside the arc).
    fn partition_blocks(&self, round: u32, a: DhtId, b: DhtId) -> bool {
        if round >= self.partition_until || self.partition.is_empty() {
            return false;
        }
        let inside = |id| self.partition.binary_search(&id).is_ok();
        inside(a) != inside(b)
    }

    /// Effective loss probability on the data path this round.
    fn data_loss(&self, round: u32) -> f64 {
        let burst = if round < self.burst_until {
            self.burst_loss
        } else {
            0.0
        };
        (self.plan.data_loss + burst).min(1.0)
    }

    /// Effective loss probability on the control path this round.
    fn control_loss(&self, round: u32) -> f64 {
        let burst = if round < self.burst_until {
            self.burst_loss
        } else {
            0.0
        };
        (self.plan.control_loss + burst).min(1.0)
    }

    /// Whether `id` is currently under recovery-plane eviction.
    fn evicted(&self, id: DhtId) -> bool {
        self.dead_until.iter().any(|&(d, _)| d == id)
    }
}

/// The full-system simulator.
pub struct SystemSim {
    config: SystemConfig,
    /// Root of all deterministic randomness; retained so extensions can
    /// derive fresh labelled streams without re-threading the seed.
    #[allow(dead_code)]
    rng_tree: RngTree,
    space: IdSpace,
    rp: RpServer,
    dht: DhtNetwork,
    nodes: NodeArena,
    /// Alive node ids in deterministic (sorted) order; rebuilt on churn.
    order_ids: Vec<DhtId>,
    /// Arena handles parallel to `order_ids`.
    order_idx: Vec<NodeIdx>,
    source: DhtId,
    source_idx: NodeIdx,
    sizes: MessageSizes,
    bw_assigner: BandwidthAssigner,
    /// Ping-time pool for joiners, drawn from the same distribution as
    /// the initial trace.
    joiner_pings: Vec<f64>,
    newest_emitted: SegmentId,
    records: Vec<RoundRecord>,
    churn_rng: SimRng,
    sched_rng: SimRng,
    join_rng: SimRng,
    /// Dedicated stream for [`SystemEvent`] internals (scenario joins'
    /// ids, pings, capacities). Untouched streams above stay untouched:
    /// a run that applies no events reproduces `run()` bit for bit.
    scenario_rng: SimRng,
    /// Next round index for the manual stepping API ([`Self::step`]).
    next_round: u32,
    /// Diagnostic collector; `None` (the default) costs one branch per
    /// tap and allocates nothing.
    telemetry: Option<Box<Telemetry>>,
    /// Observability layer (profiler + distributions + event trace);
    /// `None` (the default) costs one branch per tap. Like telemetry,
    /// it is purely observational: it consumes no RNG and mutates no
    /// protocol state, so arming it cannot move a behavioural
    /// fingerprint (its wall-clock readings are Debug-hidden).
    obs: Option<Box<ObsState>>,
    /// Fault-injection / failure-recovery state; inert (one branch per
    /// gate, no draws, no allocations) unless armed by the config plan
    /// or a scripted fault event.
    faults: FaultState,
    scratch: RoundScratch,
    /// Active-set hot state (SoA). Lives outside `scratch` because the
    /// phase-1 churn/event hooks stamp it *before* `step_round` takes
    /// the scratch, and joins admitted mid-round must stamp persistent
    /// storage.
    hot: HotState,
}

/// Debug introspection record: `(id, next_play, buffer_len, first_id,
/// contiguous_from_first, connected, inbound_rate)`.
pub type NodeDebugState = (DhtId, Option<u64>, u64, Option<u64>, u64, usize, f64);

/// The requester's estimate of supplier `s`'s sending rate `R(j)`:
/// the larger of the observed delivery EWMA and the supplier's
/// advertised per-neighbour outbound share. Without the advertised
/// component, a neighbour that was never asked decays to an estimated
/// rate of zero and is then never asked — a death spiral the real
/// Rate Controller avoids by knowing the peer's advertised bandwidth
/// (Figure 2 carries it in the Peer Table).
fn supplier_rate_estimate(
    nodes: &NodeArena,
    config: &SystemConfig,
    requester: &NodeSim,
    s: PeerRef,
) -> f64 {
    let observed = requester.rate.rate(s);
    let outbound = nodes
        .resolve(s)
        .map(|ni| {
            nodes
                .node(ni)
                .bandwidth
                .outbound_segments_per_sec(config.segment_kbits)
        })
        .unwrap_or(0.0);
    let advertised_share = outbound / config.neighbors as f64;
    // The estimate can never exceed what the supplier could physically
    // send even with no other requester; without this cap the
    // multiplicative probe inflates until every pull piles onto one
    // neighbour.
    observed.max(advertised_share).min(outbound.max(0.01))
}

/// Compute one node's pull schedule from its neighbours' snapshotted
/// maps. Pure read over the arena and the exchange snapshots (apart from
/// `sched`, which is this pass's scratch, and the optional RNG for the
/// Random scheduler) — which is what lets the `parallel` feature fan this
/// out across threads. Returns the node's new inbound carry; the
/// assignments are left in `sched.assignments`.
///
/// `hot` is the active-set classifier's cache: when it proved this node
/// active *this round* it already derived the anchor and exchange
/// window, and the guarded reuse below skips re-deriving them. `None`
/// (the legacy loops) recomputes everything locally.
#[allow(clippy::too_many_arguments)]
fn plan_node(
    nodes: &NodeArena,
    config: &SystemConfig,
    maps: &MapStore,
    newest_emitted: SegmentId,
    idx: NodeIdx,
    round: u32,
    sched: &mut SchedScratch,
    rng: Option<&mut SimRng>,
    hot: Option<&HotState>,
) -> f64 {
    let p = config.demand_per_round();
    let node = nodes.node(idx);
    let node_id = node.id;
    sched.assignments.clear();

    let play_anchor = node
        .next_play
        .or_else(|| node.buffer.iter().next())
        .unwrap_or_else(|| {
            // Nothing buffered yet: aim at the oldest segment any
            // neighbour still holds (bounded below by 1).
            node.connected
                .ids()
                .filter_map(|nref| {
                    nodes
                        .resolve(nref)
                        .and_then(|ni| maps.get(ni))
                        .and_then(|m| m.iter().next())
                })
                .min()
                .unwrap_or(1)
        });
    // The exchange window (see [`exchange_window`]); the occupancy
    // feeds the adaptive policy's rarity bias below. When the
    // active-set classifier already derived this node's anchor and
    // window this round, reuse them — guarded by round stamp, arena
    // birth and anchor equality, so a stale or fallback-anchor cache
    // entry is simply recomputed.
    let legacy_lookahead = (2 * config.startup_segments).max(4 * p);
    let cached = hot.and_then(|h| {
        let s = idx.0 as usize;
        (s < h.stamp.len()
            && h.stamp[s] == u64::from(round) + 1
            && h.birth[s] == node.birth
            && h.anchor[s] == play_anchor)
            .then(|| (h.window_end[s], h.occupancy[s]))
    });
    let (window_end, occupancy) = cached
        .unwrap_or_else(|| exchange_window(config, &node.buffer, play_anchor, newest_emitted));

    // Gather fresh candidates from all connected neighbours into the
    // window slots (per-offset supplier lists, lazily cleared via the
    // generation counter).
    sched.nbrs.clear();
    sched.nbrs.extend(node.connected.ids());
    sched.nbrs.sort_unstable();
    sched.gen += 1;
    let gen = sched.gen;
    sched.touched.clear();
    // Sized to the window's *cap*, not its current width: the width
    // creeps toward the cap as the play gap drifts, and sizing to the
    // cap up front keeps that creep from re-growing the scratch for
    // hundreds of rounds. Each offset's supplier list is bounded by the
    // connected-neighbour count, so pre-sizing it means first touches of
    // deep offsets don't allocate either (the zero-alloc assertion pins
    // both). Under the adaptive policy the cap is the *widest* window
    // the policy can ask for, so occupancy-driven widening mid-run
    // never re-grows the scratch.
    let wcap = match &config.policy {
        PolicyKind::Legacy => legacy_lookahead,
        PolicyKind::Adaptive(ap) => ap.max_lookahead(legacy_lookahead),
    }
    .min(config.buffer_size) as usize;
    if sched.window.len() < wcap {
        let m = config.neighbors;
        sched
            .window
            .resize_with(wcap, || (0, Vec::with_capacity(m)));
    }
    for ni in 0..sched.nbrs.len() {
        let nref = sched.nbrs[ni];
        let Some(nidx) = nodes.resolve(nref) else {
            continue;
        };
        let Some(map) = maps.get(nidx) else { continue };
        for seg in map.fresh_for(&node.buffer, play_anchor, window_end) {
            let off = (seg - play_anchor) as usize;
            let slot = &mut sched.window[off];
            if slot.0 != gen {
                slot.0 = gen;
                slot.1.clear();
                sched.touched.push(off as u32);
            }
            slot.1.push(nref);
        }
    }
    if sched.touched.is_empty() {
        // No fresh segment anywhere: like the pre-arena implementation,
        // the inbound carry is left untouched for this round.
        return node.inbound_carry;
    }
    sched.touched.sort_unstable();

    // Per-neighbour rate estimates, computed once (they depend only on
    // the supplier) and reused for every candidate below and for the
    // scheduler context.
    sched.rates.clear();
    for ni in 0..sched.nbrs.len() {
        let s = sched.nbrs[ni];
        sched
            .rates
            .push((s, supplier_rate_estimate(nodes, config, node, s)));
    }
    let rate_of = |rates: &[(PeerRef, f64)], s: PeerRef| -> f64 {
        rates
            .iter()
            .find(|(k, _)| *k == s)
            .map(|(_, r)| *r)
            .expect("candidate suppliers are connected neighbours")
    };

    // Priorities, in ascending segment order (deterministic regardless of
    // neighbour iteration, which also makes the Random scheduler's
    // shuffle reproducible across processes).
    let policy = match config.scheduler {
        SchedulerKind::ContinuStreaming => PriorityPolicy::UrgencyRarity,
        SchedulerKind::CoolStreaming => PriorityPolicy::RarestFirst,
        SchedulerKind::Random => PriorityPolicy::Uniform,
        SchedulerKind::GreedyWithPolicy(p) => p,
    };
    for c in sched.candidates.drain(..) {
        let mut v = c.suppliers;
        v.clear();
        sched.spare.push(v);
    }
    for ti in 0..sched.touched.len() {
        let off = sched.touched[ti] as usize;
        let seg = play_anchor + off as u64;
        let (max_rate, rarity_product) = {
            let suppliers = &sched.window[off].1;
            let mut max_rate = 0.0f64;
            let mut rarity_product = 1.0f64;
            for &s in suppliers {
                max_rate = max_rate.max(rate_of(&sched.rates, s));
                let prob = nodes
                    .resolve(s)
                    .and_then(|ni| maps.get(ni))
                    .expect("supplier advertised a map this round")
                    .replacement_probability(seg);
                rarity_product *= prob;
            }
            (max_rate, rarity_product)
        };
        let terms = PriorityTerms {
            id: seg,
            play_id: play_anchor,
            playback_rate: p as f64,
            max_rate,
            rarity_product,
            supplier_count: sched.window[off].1.len(),
        };
        // Per-(node, segment) deterministic jitter, sized to
        // dominate the rarity band (0..1) but not genuine urgency
        // (> 1 once a deadline is inside ~1 s): neighbours that
        // compute identical priorities pull identical segments in
        // identical order, holdings synchronise, and the
        // intra-neighbourhood trading that makes swarming work
        // dies. Within the non-urgent bulk the order is therefore
        // diversified per node; near-deadline segments still beat
        // everything. The A1 ablation bench quantifies this.
        let jitter = 1.0
            * (cs_sim::splitmix64(node_id ^ seg.wrapping_mul(0x9E37_79B9)) as f64
                / u64::MAX as f64);
        // Below the policy's occupancy floor the adaptive policy adds a
        // bounded rarity bonus on top of the jitter: candidates few
        // neighbours advertise are pulled preferentially, re-creating
        // the holdings diversity that neighbourhood trading needs —
        // while the per-node jitter keeps neighbouring pull orders
        // decorrelated (replacing the jitter with a shared rarity rank
        // synchronises them and accelerates the spiral).
        let priority = match &config.policy {
            PolicyKind::Legacy => policy.evaluate_terms(&terms) + jitter,
            PolicyKind::Adaptive(ap) => {
                policy.evaluate_terms(&terms)
                    + jitter
                    + ap.rarity_bonus(occupancy, terms.supplier_count)
            }
        };
        let mut suppliers = sched.spare.pop().unwrap_or_default();
        suppliers.clear();
        suppliers.extend_from_slice(&sched.window[off].1);
        sched.candidates.push(SegmentCandidate {
            id: seg,
            priority,
            suppliers,
        });
    }

    // Inbound budget with carry. The adaptive policy over-provisions
    // the per-round allotment by the slack fraction (the steady-state
    // slack knob: a budget exactly equal to demand lets every
    // inefficiency compound into permanent holes).
    let base_budget = node
        .bandwidth
        .inbound_segments_per_sec(config.segment_kbits)
        * config.period_secs;
    let budget_f = config.policy.provisioned_inbound(base_budget) + node.inbound_carry;
    let budget = budget_f.floor().max(0.0) as u32;
    let new_carry = (budget_f - budget as f64).clamp(0.0, 1.0);

    let mut ctx = ScheduleContext {
        inbound_budget: budget,
        period_secs: config.period_secs,
        supplier_rates: std::mem::take(&mut sched.rates),
        deadline_cutoff: node.next_play.map(|np| np + 2 * p),
    };
    match config.scheduler {
        SchedulerKind::CoolStreaming => schedule_coolstreaming_into(
            &sched.candidates,
            &ctx,
            &mut sched.algo,
            &mut sched.assignments,
        ),
        SchedulerKind::Random => schedule_random_into(
            &sched.candidates,
            &ctx,
            rng.expect("Random scheduling always runs on the serial path"),
            &mut sched.algo,
            &mut sched.assignments,
        ),
        SchedulerKind::ContinuStreaming => {
            // Bounded-rescue ordering: urgent candidates (deadline
            // pressure has pushed their priority above the rarity
            // band) are capped at a fraction of the budget; the rest
            // of the order is the diversified rarity ranking. See
            // `SystemConfig::rescue_budget_fraction`.
            sort_candidates(&mut sched.candidates);
            // Catch-up grace: a node that just joined (or just started
            // playing) is *supposed* to spend its whole budget near
            // its play point; the rescue cap only binds in steady
            // state. `join_grace_rounds` can lengthen the window (it
            // never shortens below the 6 rounds the cliff fix
            // hard-wired, so the knob at 0 is bit-identical).
            let grace_rounds = config
                .policy
                .as_adaptive()
                .map_or(6, |ap| ap.join_grace_rounds.max(6));
            let in_grace = round < node.spawn_round + grace_rounds;
            let rescue_cap = if in_grace {
                budget as usize
            } else {
                ((budget as f64 * config.rescue_budget_fraction).floor() as usize).max(1)
            };
            let split = sched
                .candidates
                .iter()
                .position(|c| c.priority <= 1.0)
                .unwrap_or(sched.candidates.len());
            if split > rescue_cap {
                // Keep the `rescue_cap` most urgent, then the normal
                // band; urgent overflow goes to the back of the line
                // (it will usually miss — that is the pre-fetcher's
                // problem, not worth starving dissemination for).
                // [A|B|C] → [A|C|B] is a rotation of the tail.
                sched.candidates[rescue_cap..].rotate_left(split - rescue_cap);
            }
            schedule_greedy_into(
                &sched.candidates,
                &ctx,
                &mut sched.algo,
                &mut sched.assignments,
            )
        }
        SchedulerKind::GreedyWithPolicy(_) => {
            sort_candidates(&mut sched.candidates);
            schedule_greedy_into(
                &sched.candidates,
                &ctx,
                &mut sched.algo,
                &mut sched.assignments,
            )
        }
    };
    sched.rates = std::mem::take(&mut ctx.supplier_rates);
    new_carry
}

impl SystemSim {
    /// Build a simulator (generates the trace, assigns bandwidth, wires
    /// the overlay and DHT). Deterministic in `config.seed`.
    pub fn new(config: SystemConfig) -> Self {
        config.validate();
        let tree = RngTree::new(config.seed);

        // 1. Trace: synthetic Clip2-style topology, augmented to M.
        let mut trace_rng = tree.child("trace");
        let topo_cfg = TraceGenConfig::with_nodes(config.nodes);
        let mut topo = TraceGenerator::new(topo_cfg).generate(&mut trace_rng);
        let mut aug_rng = tree.child("augment");
        augment_to_min_degree(&mut topo, config.neighbors, &mut aug_rng);

        // 2. IDs from the RP server.
        let expected_joins =
            (config.nodes as f64 * config.churn.join_fraction * config.rounds as f64).ceil() as u64;
        let space = IdSpace::for_capacity(
            (config.nodes as u64 + expected_joins) * config.id_space_slack as u64,
        );
        let mut rp = RpServer::new(space);
        let mut rp_rng = tree.child("rp");
        let ids: Vec<DhtId> = (0..config.nodes)
            .map(|_| rp.assign_id(&mut rp_rng))
            .collect();

        // 3. Bandwidth.
        let bw_assigner = BandwidthAssigner::paper(config.bandwidth);
        let mut bw_rng = tree.child("bandwidth");

        // 4. Node states in the arena. Index 0 of the trace is the source.
        let sizes = MessageSizes::for_buffer(config.buffer_size);
        let t_fetch = cs_analysis::t_fetch(config.nodes as u64, config.t_hop_secs);
        let mut nodes = NodeArena::with_capacity(config.nodes);
        let pings: Vec<f64> = topo.records().iter().map(|r| r.ping_ms).collect();
        for (idx, &id) in ids.iter().enumerate() {
            let is_source = idx == 0;
            let bandwidth = if is_source {
                bw_assigner.source_node(config.segment_kbits)
            } else {
                bw_assigner.sample_node(&mut bw_rng)
            };
            nodes.insert(Self::make_node(
                &config, space, id, pings[idx], bandwidth, t_fetch, is_source,
            ));
        }
        let source = ids[0];
        let source_idx = nodes.lookup(source).expect("just inserted");

        // 5. Connected neighbours from the augmented topology: up to M
        //    lowest-latency adjacent nodes.
        for (idx, &id) in ids.iter().enumerate() {
            let mut adj: Vec<(f64, DhtId)> = topo
                .neighbors(idx)
                .iter()
                .map(|&j| (derive_latency(pings[idx], pings[j]), ids[j]))
                .collect();
            adj.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let own = nodes.lookup(id).expect("node exists");
            for (lat, nid) in adj {
                let nref = nodes.make_ref(nid);
                let node = nodes.node_mut(own);
                if node.connected.is_full() {
                    break;
                }
                node.connected.add(NeighborEntry {
                    id: nref,
                    latency_ms: lat,
                    recent_supply_kbps: 0.0,
                });
            }
            // Seed the overheard list with a few random members so
            // neighbour repair has material from round one. The member's
            // ping comes straight from the arena (it carries pings[k] for
            // ids[k]), replacing the O(N) `position()` scan per seed that
            // made this loop — and the whole constructor — O(N²).
            let mut seed_rng = tree.child_indexed("overheard-seed", idx as u64);
            for _ in 0..4 {
                let other = ids[seed_rng.gen_range(0..ids.len())];
                if other != id {
                    let oref = nodes.make_ref(other);
                    let oidx = nodes.resolve(oref).expect("member");
                    let other_ping = nodes.node(oidx).ping_ms;
                    nodes
                        .node_mut(own)
                        .overheard
                        .record(oref, derive_latency(pings[idx], other_ping));
                }
            }
        }

        // 6. The DHT over the same membership. The latency closure reads
        //    pings from the arena (same values the throwaway id → ping
        //    HashMap used to hold).
        let dht = {
            let nodes = &nodes;
            let ping = |n: DhtId| nodes.ping_of(n).expect("member");
            let latency = |a: DhtId, b: DhtId| derive_latency(ping(a), ping(b));
            let mut dht_rng = tree.child("dht");
            DhtNetwork::build(space, &ids, &latency, &mut dht_rng)
        };

        // 7. A ping pool for joiners, same distribution as the trace.
        let mut pool_rng = tree.child("joiner-pings");
        let pool_gen = TraceGenerator::new(TraceGenConfig::with_nodes(
            (expected_joins as usize + 16).max(16),
        ));
        let joiner_pings: Vec<f64> = pool_gen
            .generate(&mut pool_rng)
            .records()
            .iter()
            .map(|r| r.ping_ms)
            .collect();

        let mut sim = SystemSim {
            rng_tree: tree,
            space,
            rp,
            dht,
            nodes,
            order_ids: Vec::new(),
            order_idx: Vec::new(),
            source,
            source_idx,
            sizes,
            bw_assigner,
            joiner_pings,
            newest_emitted: 0,
            records: Vec::with_capacity(config.rounds as usize),
            churn_rng: tree.child("churn"),
            sched_rng: tree.child("scheduler"),
            join_rng: tree.child("join"),
            scenario_rng: tree.child("scenario"),
            next_round: 0,
            telemetry: None,
            obs: None,
            faults: FaultState::new(tree.child("faults"), config.faults),
            scratch: RoundScratch::default(),
            hot: HotState::default(),
            config,
        };
        sim.rebuild_order();
        sim
    }

    fn make_node(
        config: &SystemConfig,
        space: IdSpace,
        id: DhtId,
        ping_ms: f64,
        bandwidth: NodeBandwidth,
        t_fetch: f64,
        is_source: bool,
    ) -> NodeSim {
        let prior = (bandwidth.inbound_segments_per_sec(config.segment_kbits)
            / config.neighbors as f64)
            .max(0.5);
        NodeSim {
            id,
            birth: 0, // assigned by NodeArena::insert
            ping_ms,
            bandwidth,
            connected: ConnectedNeighbors::new(config.neighbors),
            overheard: OverheardList::new(config.overheard),
            buffer: StreamBuffer::new(config.buffer_size),
            backup: VodBackupStore::new(space, id, config.replicas).with_capacity_hint(
                // ≈ 4× the expected share of the live stream window that
                // hashes into this node's responsibility range, so
                // steady-state `maybe_store` calls never grow the vector
                // (the zero-alloc round-loop assertion pins this).
                (((config.buffer_size as usize + 20 * config.playback_rate as usize)
                    * config.replicas as usize
                    * 4)
                    / config.nodes.max(1))
                .clamp(16, 512),
            ),
            rate: RateController::with_capacity(prior, config.neighbors + 3),
            urgent: UrgentLine::new(
                config.playback_rate as f64,
                config.buffer_size,
                config.period_secs,
                t_fetch,
                config.t_hop_secs,
                config.prefetch_cap,
            ),
            next_play: None,
            first_data_round: None,
            spawn_round: 0,
            // Sized so steady-state tag churn (insert on fetch, retain
            // at the play point) never regrows the table: outstanding
            // tags are bounded by the rescue probe depth, so size to
            // twice the policy's horizon (the zero-alloc suite pins
            // this; Legacy's α-window rescue keeps far fewer).
            prefetch_tags: IdMap::with_capacity_and_hasher(
                match &config.policy {
                    PolicyKind::Legacy => 64,
                    PolicyKind::Adaptive(ap) => {
                        64.max(2 * ap.rescue_horizon(config.demand_per_round().max(1)) as usize)
                    }
                },
                Default::default(),
            ),
            last_inflow: 0,
            round_inflow: 0,
            outbound_carry: 0.0,
            inbound_carry: 0.0,
            paused: false,
            is_source,
        }
    }

    /// The configuration of this run.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Current number of alive nodes (including the source).
    pub fn alive(&self) -> usize {
        self.nodes.len()
    }

    /// Debug introspection: one [`NodeDebugState`] tuple per alive node.
    #[doc(hidden)]
    pub fn debug_states(&self) -> Vec<NodeDebugState> {
        self.order_idx
            .iter()
            .map(|&idx| {
                let n = self.nodes.node(idx);
                let first = n.buffer.iter().next();
                (
                    n.id,
                    n.next_play,
                    n.buffer.len(),
                    first,
                    first.map(|f| n.buffer.contiguous_from(f)).unwrap_or(0),
                    n.connected.len(),
                    n.bandwidth
                        .inbound_segments_per_sec(self.config.segment_kbits),
                )
            })
            .collect()
    }

    /// Step the simulation one round manually (debug/benchmark hook).
    #[doc(hidden)]
    pub fn debug_step(&mut self, round: u32) {
        let end = SimTime::from_secs_f64((round as f64 + 1.0) * self.config.period_secs);
        self.step_round(round, end);
    }

    /// Verify the persistent round-scratch invariants (test hook; panics
    /// on violation). Stale state in the reused buffers must be
    /// *invisible*: every lazily-cleared structure is only reachable
    /// through a generation stamp, a touched-list entry or a per-round
    /// count that was refreshed this round.
    #[doc(hidden)]
    pub fn debug_check_scratch(&self) {
        let scratch = &self.scratch;
        // Request arena: per-slot counts are nonzero only for touched
        // slots, and they partition the flat request list exactly.
        let mut touched_total = 0u64;
        for &slot in &scratch.touched_suppliers {
            let count = scratch.queue_count[slot as usize];
            assert!(count > 0, "touched slot {slot} has an empty bucket");
            touched_total += count as u64;
        }
        for (slot, &count) in scratch.queue_count.iter().enumerate() {
            if !scratch.touched_suppliers.contains(&(slot as u32)) {
                assert_eq!(
                    count, 0,
                    "slot {slot} holds a stale queue count without a touched entry \
                     (it would never be cleared)"
                );
            }
        }
        assert_eq!(
            touched_total,
            scratch.requests.len() as u64,
            "request counts out of sync with the flat arena"
        );
        for req in &scratch.requests {
            assert!(
                scratch.touched_suppliers.contains(&req.supplier_slot),
                "request queued at slot {} which is not touched",
                req.supplier_slot
            );
        }
        // Buckets: contiguous, disjoint, in ascending slot order, and
        // plans agree with bucket sizes (plan.issued counts every
        // request in the bucket).
        let mut expected_start = 0u32;
        let mut sorted = scratch.touched_suppliers.clone();
        sorted.sort_unstable();
        for &slot in &sorted {
            assert_eq!(
                scratch.queue_start[slot as usize], expected_start,
                "bucket for slot {slot} is not laid out contiguously"
            );
            expected_start += scratch.queue_count[slot as usize];
            assert_eq!(
                scratch.serve_plans[slot as usize].issued,
                scratch.queue_count[slot as usize] as u64,
                "slot {slot}: serve plan was not refreshed for this round's bucket"
            );
        }
        // Outbound pre-fetch ledger: nonzero spend only on touched-spent
        // slots (anything else would leak into later rounds' rate caps).
        for (slot, &spent) in scratch.outbound_spent.iter().enumerate() {
            if spent != 0.0 {
                assert!(
                    scratch.touched_spent.contains(&(slot as u32)),
                    "slot {slot} carries untracked outbound spend {spent}"
                );
            }
        }
        // Buffer-map snapshots: every stamped-this-round snapshot must
        // belong to a currently alive node lifetime, with its epoch
        // trailing (never leading) the live buffer, and bitmap equality
        // whenever the epochs match. A snapshot whose birth stamp does
        // not match the slot's current occupant must not be stamped.
        for (slot, snap) in scratch.maps.snaps.iter().enumerate() {
            if snap.stamp != scratch.maps.stamp {
                continue; // stale snapshot: invisible by construction
            }
            let node = self.nodes.slots[slot]
                .as_ref()
                .unwrap_or_else(|| panic!("slot {slot}: stamped snapshot of a dead node"));
            assert_eq!(
                snap.birth, node.birth,
                "slot {slot}: stamped snapshot of a previous lifetime"
            );
            assert!(
                snap.epoch <= node.buffer.epoch(),
                "slot {slot}: snapshot epoch leads the live buffer"
            );
            if snap.epoch == node.buffer.epoch() {
                assert_eq!(
                    snap.map,
                    node.buffer.to_map(),
                    "slot {slot}: equal epochs but diverged bitmaps"
                );
            }
        }
        // Active-set lists: strictly ascending positions into the round's
        // node order, never pointing past it, and the scheduling list
        // never contains the source (the pre-fetch list's entries all
        // plan to no-ops for it, so it is merely bounded).
        for (name, list) in [
            ("active_sched", &self.hot.active_sched),
            ("active_prefetch", &self.hot.active_prefetch),
        ] {
            for w in list.windows(2) {
                assert!(w[0] < w[1], "{name} is not strictly ascending");
            }
            if let Some(&last) = list.last() {
                assert!(
                    (last as usize) < self.order_idx.len(),
                    "{name} points past the node order"
                );
            }
        }
        for &k in &self.hot.active_sched {
            assert!(
                !self.nodes.node(self.order_idx[k as usize]).is_source,
                "the source is never scheduled"
            );
        }
        // Ping column: one entry per slot, and every live slot's entry
        // is its occupant's ping (a reused slot was rewritten on insert).
        assert_eq!(self.nodes.ping.len(), self.nodes.slots.len());
        for (slot, node) in self.nodes.slots.iter().enumerate() {
            if let Some(node) = node {
                assert_eq!(
                    self.nodes.ping[slot].to_bits(),
                    node.ping_ms.to_bits(),
                    "slot {slot}: ping column out of sync with its occupant"
                );
            }
        }
    }

    /// Run the configured number of rounds and produce the report.
    ///
    /// Equivalent to stepping every remaining round with [`Self::step`]
    /// and calling [`Self::finish`] — external drivers (the `cs-scenario`
    /// engine) interleave [`Self::apply_event`] calls between steps and
    /// get bit-identical behaviour when they apply no events.
    pub fn run(mut self) -> RunReport {
        while self.step() {}
        self.finish()
    }

    /// Execute the next scheduling round. Returns `false` (without doing
    /// anything) once the configured number of rounds has run.
    ///
    /// Round `r` ends at simulated time `(r + 1)·τ` exactly — integer
    /// microsecond arithmetic, identical to the event-engine schedule
    /// `run()` historically used (the pinned behavioural fingerprints
    /// hold across both drivers).
    pub fn step(&mut self) -> bool {
        if self.next_round >= self.config.rounds {
            return false;
        }
        let tau = SimDuration::from_secs_f64(self.config.period_secs);
        let round = self.next_round;
        let end = SimTime::ZERO + tau * (round as u64 + 1);
        self.step_round(round, end);
        self.next_round += 1;
        true
    }

    /// Rounds executed so far — equivalently, the index of the round the
    /// next [`Self::step`] will run.
    pub fn rounds_run(&self) -> u32 {
        self.next_round
    }

    /// Live-network twin entry point: run phases 1–3 of the next round
    /// (churn, source emission, neighbour maintenance) and hand back
    /// the in-flight round token, or `None` once the configured number
    /// of rounds has run. Between this call and
    /// [`Self::twin_finish_round`] the twin reads every node's
    /// announcement state via [`Self::twin_wire_states`], moves it
    /// between nodes over its transport, and assembles the delivered
    /// [`TwinViews`]. [`Self::step`] is exactly
    /// `twin_begin_round` + `twin_finish_round` with the exchange
    /// short-circuited to local reads — the decision code is shared,
    /// which is what makes sim-vs-live equivalence a meaningful test.
    pub fn twin_begin_round(&mut self) -> Option<TwinPendingRound> {
        if self.next_round >= self.config.rounds {
            return None;
        }
        let tau = SimDuration::from_secs_f64(self.config.period_secs);
        let round = self.next_round;
        let end = SimTime::ZERO + tau * (round as u64 + 1);
        Some(self.round_prelude(round, end))
    }

    /// Finish a round begun with [`Self::twin_begin_round`]: run phase
    /// 4 onward with the exchange reading the transport-delivered
    /// `views` instead of live node state.
    ///
    /// # Panics
    /// If `views` lacks an announcement for any alive node — a
    /// faithful transport always self-delivers (the loopback copy),
    /// so a hole is a runtime bug, not a protocol condition.
    pub fn twin_finish_round(&mut self, pending: TwinPendingRound, views: &TwinViews) {
        self.round_decide(pending, Some(views));
        self.next_round += 1;
    }

    /// Visit every alive node's wire-level announcement state in the
    /// deterministic ascending-id round order. Valid between
    /// [`Self::twin_begin_round`] and [`Self::twin_finish_round`]:
    /// phases 1–3 have run, so the states carry this round's emission
    /// and the post-maintenance neighbour sets — exactly what the
    /// simulator's own exchange phase would read.
    pub fn twin_wire_states(&self, visit: &mut dyn FnMut(TwinWireState<'_>)) {
        let mut neighbors: Vec<DhtId> = Vec::new();
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            let node = self.nodes.node(idx);
            neighbors.clear();
            neighbors.extend(node.connected.ids().map(|p| p.id));
            let (head, capacity, words) = node.buffer.wire_parts();
            visit(TwinWireState {
                id: node.id,
                slot: idx.0,
                birth: node.birth,
                epoch: node.buffer.epoch(),
                head,
                capacity,
                words,
                is_empty: node.buffer.is_empty(),
                is_source: node.is_source,
                ping_ms: node.ping_ms,
                neighbors: &neighbors,
            });
        }
    }

    /// Consume the simulator and produce the report over every round
    /// stepped so far.
    ///
    /// # Panics
    /// If no round has run yet (there is nothing to summarise).
    pub fn finish(mut self) -> RunReport {
        let mut summary = summarize(&self.records);
        if let Some(o) = self.obs.as_deref_mut() {
            if o.dist_enabled() {
                summary.dist = Some(o.dist_summary());
            }
        }
        RunReport {
            rounds: self.records,
            summary,
        }
    }

    /// The per-round records accumulated so far (one per stepped round).
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Alive node ids in deterministic (ascending) order, including the
    /// source. External drivers use this to resolve event targets.
    pub fn alive_ids(&self) -> &[DhtId] {
        &self.order_ids
    }

    /// The id of the source node (it never leaves and ignores VCR/leave
    /// events).
    pub fn source_id(&self) -> DhtId {
        self.source
    }

    /// Newest segment the source has emitted so far.
    pub fn newest_segment(&self) -> SegmentId {
        self.newest_emitted
    }

    /// The play state of a node: `None` if the id is dead,
    /// `Some((next_play, paused))` otherwise (`next_play` is `None`
    /// while the node is still buffering toward its first play).
    pub fn play_state(&self, id: DhtId) -> Option<(Option<SegmentId>, bool)> {
        let idx = self.nodes.lookup(id)?;
        let node = self.nodes.node(idx);
        Some((node.next_play, node.paused))
    }

    /// Turn on the diagnostic telemetry collector (idempotent). Purely
    /// observational: enabling it changes no RNG stream and no simulated
    /// behaviour, only records more.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::default());
        }
    }

    /// The telemetry collected so far, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Take ownership of the collected telemetry (collection continues
    /// into a fresh collector if more rounds are stepped).
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.as_mut().map(|t| std::mem::take(&mut **t))
    }

    /// Arm the observability layer (idempotent; the first call's config
    /// wins). Like telemetry, purely observational: it draws from no
    /// RNG stream and mutates no protocol state, so every behavioural
    /// fingerprint reproduces bit-for-bit whether obs is off, on, or
    /// was never compiled in. Wall-clock readings live only in the
    /// profiler, which no fingerprint hashes.
    pub fn enable_obs(&mut self, cfg: ObsConfig) {
        if self.obs.is_none() {
            let mut o = Box::new(ObsState::new(&cfg, self.config.rounds));
            if o.dist_enabled() {
                o.node_cont.ensure(self.nodes.slot_count());
            }
            self.obs = Some(o);
        }
    }

    /// The observability state, if armed.
    pub fn obs(&self) -> Option<&ObsState> {
        self.obs.as_deref()
    }

    /// Mutable observability state (e.g. to reset profiler timings
    /// after a warm-up window).
    pub fn obs_mut(&mut self) -> Option<&mut ObsState> {
        self.obs.as_deref_mut()
    }

    /// Export the observability run report (trace JSONL, distribution
    /// summary, phase breakdown). The distribution summary is finalised
    /// and cached on first call, so a later [`Self::finish`] attaches
    /// the identical `dist` block to the run summary.
    pub fn take_obs_report(&mut self) -> Option<ObsRunReport> {
        self.obs.as_deref_mut().map(|o| o.run_report())
    }

    /// The per-round fault/recovery trace. Empty while the fault plane
    /// is inert; once armed it gains exactly one record per stepped
    /// round, and its digest is the run's fault fingerprint (two runs
    /// with the same seed and workload produce byte-identical traces).
    pub fn fault_trace(&self) -> &FaultTrace {
        &self.faults.trace
    }

    /// `(scheduling, pre-fetch)` active-set sizes of the last stepped
    /// round (live-monitoring read; both equal the membership when the
    /// active-set optimisation is off).
    pub fn active_set_sizes(&self) -> (usize, usize) {
        (self.hot.active_sched.len(), self.hot.active_prefetch.len())
    }

    /// Stack a scenario phase's steady-state fault rates on top of the
    /// config baseline: `loss` raises both the data- and control-path
    /// loss probability, `crash` the per-node per-round crash
    /// probability. Passing zeros restores the baseline.
    pub fn set_phase_fault_rates(&mut self, loss: f64, crash: f64) {
        assert!(
            (0.0..=1.0).contains(&loss),
            "phase loss must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&crash),
            "phase crash must be a probability"
        );
        let f = &mut self.faults;
        f.plan.crash_rate = (f.base.crash_rate + crash).min(1.0);
        f.plan.data_loss = (f.base.data_loss + loss).min(1.0);
        f.plan.control_loss = (f.base.control_loss + loss).min(1.0);
        if f.plan.enabled() {
            f.active = true;
        }
    }

    /// Script a transient loss burst: `loss` extra loss probability on
    /// every message path for the next `rounds` rounds.
    pub fn begin_loss_burst(&mut self, loss: f64, rounds: u32) {
        assert!(
            (0.0..=1.0).contains(&loss),
            "burst loss must be a probability"
        );
        self.faults.burst_loss = loss;
        self.faults.burst_until = self.next_round.saturating_add(rounds);
        if loss > 0.0 && rounds > 0 {
            self.faults.active = true;
            self.obs_emit(
                self.next_round,
                EventKind::FaultInjected,
                0,
                rounds as u64,
                "loss_burst",
            );
        }
    }

    /// Script a network partition: messages between `members` and the
    /// rest of the overlay drop deterministically for the next `rounds`
    /// rounds.
    pub fn set_partition(&mut self, mut members: Vec<DhtId>, rounds: u32) {
        members.sort_unstable();
        members.dedup();
        let arms = !members.is_empty() && rounds > 0;
        self.faults.partition = members;
        self.faults.partition_until = self.next_round.saturating_add(rounds);
        if arms {
            self.faults.active = true;
            self.obs_emit(
                self.next_round,
                EventKind::FaultInjected,
                0,
                rounds as u64,
                "partition",
            );
        }
    }

    /// Script an RP/bootstrap outage: every join (churn or scenario) is
    /// rejected for the next `rounds` rounds. Consumes no randomness, so
    /// it does not arm the fault plane's per-round machinery.
    pub fn set_rp_outage(&mut self, rounds: u32) {
        self.faults.rp_outage_until = self.next_round.saturating_add(rounds);
        if rounds > 0 {
            self.obs_emit(
                self.next_round,
                EventKind::FaultInjected,
                0,
                rounds as u64,
                "rp_outage",
            );
        }
    }

    /// Debug invariant (fault suite): every connected neighbour of every
    /// alive node resolves to an alive node — crashed nodes were
    /// detected and dropped by the end of the round, so nothing serves
    /// from or schedules against a dark supplier.
    #[doc(hidden)]
    pub fn debug_neighbors_alive(&self) -> bool {
        self.order_idx.iter().all(|&idx| {
            self.nodes
                .node(idx)
                .connected
                .ids()
                .all(|r| self.nodes.resolve(r).is_some())
        })
    }

    /// Debug: lost pulls currently under recovery watch.
    #[doc(hidden)]
    pub fn debug_pending_retries(&self) -> usize {
        self.faults.pending.len()
    }

    /// Debug: the ping the DHT/overlay boundary sees for `id` (the
    /// 50 ms default for ids that are not alive).
    #[doc(hidden)]
    pub fn debug_ping_of_id(&self, id: DhtId) -> f64 {
        self.ping_of_id(id)
    }

    /// Debug: the arena slot `id` lives in, if it is alive.
    #[doc(hidden)]
    pub fn debug_slot_of(&self, id: DhtId) -> Option<u32> {
        self.nodes.lookup(id).map(|i| i.0)
    }

    /// Apply one workload event between rounds. See [`SystemEvent`] for
    /// the semantics of each variant; membership-changing events rebuild
    /// the deterministic node order immediately, so an [`Self::alive_ids`]
    /// read after the call is current.
    pub fn apply_event(&mut self, event: SystemEvent) -> EventOutcome {
        match event {
            SystemEvent::Join { ping_ms, bandwidth } => {
                // A bootstrap outage rejects the join before any
                // scenario-stream draw: a rejected join consumes zero
                // randomness, exactly like every other rejection path.
                if self.next_round < self.faults.rp_outage_until {
                    return EventOutcome::Rejected;
                }
                let id = self.rp.assign_id(&mut self.scenario_rng);
                let ping = match ping_ms {
                    Some(p) => p,
                    None => {
                        let k = self.scenario_rng.gen_range(0..self.joiner_pings.len());
                        self.joiner_pings[k]
                    }
                };
                let bw = match bandwidth {
                    Some(b) => b,
                    None => self.bw_assigner.sample_node(&mut self.scenario_rng),
                };
                if self.admit_joiner(id, ping, bw, self.next_round, true) {
                    self.rebuild_order();
                    EventOutcome::Joined(id)
                } else {
                    EventOutcome::Rejected
                }
            }
            SystemEvent::Leave { id, graceful } => {
                if id == self.source || self.nodes.lookup(id).is_none() {
                    return EventOutcome::Rejected;
                }
                if graceful {
                    self.graceful_leave(id);
                } else {
                    self.abrupt_failure(id);
                }
                self.rebuild_order();
                EventOutcome::Applied
            }
            SystemEvent::Crash { id } => {
                if id == self.source || self.nodes.lookup(id).is_none() {
                    return EventOutcome::Rejected;
                }
                self.faults.active = true;
                self.crash(id);
                self.obs_emit(self.next_round, EventKind::Crash, id, 0, "scenario");
                self.rebuild_order();
                EventOutcome::Applied
            }
            SystemEvent::Seek { id, target } => self.apply_seek(id, target),
            SystemEvent::Pause { id } => self.set_paused(id, true),
            SystemEvent::Resume { id } => self.set_paused(id, false),
            SystemEvent::SetBandwidth { id, bandwidth } => {
                if id == self.source {
                    return EventOutcome::Rejected;
                }
                let Some(idx) = self.nodes.lookup(id) else {
                    return EventOutcome::Rejected;
                };
                let node = self.nodes.node_mut(idx);
                node.bandwidth = bandwidth;
                let birth = node.birth;
                // A capacity change moves budgets and rate estimates:
                // force the node active next round.
                self.hot.touch(idx, birth, self.next_round);
                EventOutcome::Applied
            }
        }
    }

    /// VCR seek: move the play anchor and re-anchor the buffer window
    /// when the jump leaves it. The exchange window, urgent line and
    /// pre-fetcher all derive from the play anchor, so they follow on
    /// the next round; pre-fetch tags behind the new anchor are dropped
    /// (their Case-1/Case-2 deadlines no longer mean anything).
    fn apply_seek(&mut self, id: DhtId, target: SeekTarget) -> EventOutcome {
        if id == self.source {
            return EventOutcome::Rejected;
        }
        let Some(idx) = self.nodes.lookup(id) else {
            return EventOutcome::Rejected;
        };
        let newest = self.newest_emitted;
        let startup = self.config.startup_segments;
        let node = self.nodes.node_mut(idx);
        let Some(np) = node.next_play else {
            // Still buffering: only a jump to the live frontier makes
            // sense (re-anchor the buffering there); relative seeks have
            // no play point to be relative to.
            if matches!(target, SeekTarget::ToLive) {
                let anchor = newest.saturating_sub(startup).max(1);
                node.buffer.slide_to(anchor);
                node.prefetch_tags.retain(|&seg, _| seg >= anchor);
                let birth = node.birth;
                self.hot.touch(idx, birth, self.next_round);
                return EventOutcome::Applied;
            }
            return EventOutcome::Rejected;
        };
        let dest = match target {
            SeekTarget::Forward(n) => np.saturating_add(n).min(newest.max(1)),
            SeekTarget::Backward(n) => np.saturating_sub(n),
            SeekTarget::ToLive => newest.saturating_sub(startup),
        }
        // Never below the buffer head: segments under it cannot be
        // (re-)inserted, so a play anchor there could never advance.
        .max(node.buffer.head())
        .max(1);
        if dest >= node.buffer.head() + node.buffer.capacity() {
            // The jump leaves the current window entirely: re-anchor it
            // at the destination (everything held is behind the new
            // anchor and unreachable for own playback).
            node.buffer.slide_to(dest);
        }
        node.next_play = Some(dest);
        node.prefetch_tags.retain(|&seg, _| seg >= dest);
        let birth = node.birth;
        // The anchor moved: every skip proof's inputs changed — force
        // the node active for the round about to run.
        self.hot.touch(idx, birth, self.next_round);
        EventOutcome::Applied
    }

    fn set_paused(&mut self, id: DhtId, paused: bool) -> EventOutcome {
        if id == self.source {
            return EventOutcome::Rejected;
        }
        let Some(idx) = self.nodes.lookup(id) else {
            return EventOutcome::Rejected;
        };
        let node = self.nodes.node_mut(idx);
        if node.paused == paused {
            return EventOutcome::Rejected;
        }
        node.paused = paused;
        let birth = node.birth;
        self.hot.touch(idx, birth, self.next_round);
        EventOutcome::Applied
    }

    /// Latency between two ids at the DHT/overlay boundary (unknown ids
    /// default to a 50 ms ping, as in the id-keyed implementation).
    fn latency_ids(&self, a: DhtId, b: DhtId) -> f64 {
        derive_latency(self.ping_of_id(a), self.ping_of_id(b))
    }

    #[inline]
    fn ping_of_id(&self, id: DhtId) -> f64 {
        self.nodes.ping_of(id).unwrap_or(DEFAULT_PING_MS)
    }

    /// Latency from a live node to a peer handle (dead peers default to a
    /// 50 ms ping).
    fn latency_ref(&self, from: NodeIdx, to: PeerRef) -> f64 {
        let pb = self
            .nodes
            .resolve(to)
            .map(|i| self.nodes.node(i).ping_ms)
            .unwrap_or(DEFAULT_PING_MS);
        derive_latency(self.nodes.node(from).ping_ms, pb)
    }

    fn rebuild_order(&mut self) {
        let mut pairs: Vec<(DhtId, NodeIdx)> = self.nodes.iter_pairs().collect();
        pairs.sort_unstable_by_key(|p| p.0);
        self.order_ids.clear();
        self.order_idx.clear();
        for (id, idx) in pairs {
            self.order_ids.push(id);
            self.order_idx.push(idx);
        }
    }

    /// One scheduling period.
    fn step_round(&mut self, round: u32, round_end: SimTime) {
        let pending = self.round_prelude(round, round_end);
        self.round_decide(pending, None);
    }

    /// Phases 1–3 of a round — churn, source emission, neighbour
    /// maintenance: everything that happens *before* the buffer-map
    /// exchange, i.e. before any cross-node state flows. The returned
    /// token carries the in-flight round; [`Self::step_round`] resumes
    /// it immediately with [`Self::round_decide`], while the
    /// live-network twin first moves the exchange over its transport
    /// and resumes via [`Self::twin_finish_round`].
    fn round_prelude(&mut self, round: u32, round_end: SimTime) -> TwinPendingRound {
        let mut scratch = std::mem::take(&mut self.scratch);
        let traffic = TrafficCounter::new();
        let mut joins = 0usize;
        let mut leaves = 0usize;
        // Profiler lap: one `Instant::now()` per phase boundary when
        // armed, one `Option` check per boundary otherwise. Wall-clock
        // never feeds back into simulation state.
        let profiling = self.obs.as_deref().is_some_and(|o| o.profiling());
        let mut olap = Lap::start(profiling);

        // --- 1. churn -----------------------------------------------------
        if !self.config.churn.is_static() && round > 0 {
            let plan = plan_churn(
                &self.config.churn,
                &self.order_ids,
                self.source,
                &mut self.churn_rng,
            );
            leaves = plan.leavers();
            for &id in &plan.graceful_leaves {
                self.graceful_leave(id);
            }
            for &id in &plan.failures {
                self.abrupt_failure(id);
            }
            for _ in 0..plan.joins {
                if self.join_one(round) {
                    joins += 1;
                }
            }
            self.rebuild_order();
        }
        // Fault plane: steady-state crash failures. Crashes are *not*
        // churn — no RP report, no DHT leave, no backup handover — so
        // they run off the churn books and the `"faults"` stream.
        if self.faults.active {
            self.inject_crashes();
        }
        self.obs_phase(ObsPhase::Churn, &mut olap);

        // --- 2. source emission -------------------------------------------
        let p = self.config.demand_per_round();
        let first_new = self.newest_emitted + 1;
        self.newest_emitted += p;
        {
            let successor = self.believed_successor(self.source);
            let src = self.nodes.node_mut(self.source_idx);
            for seg in first_new..=self.newest_emitted {
                src.buffer.insert(seg);
                src.backup.maybe_store(seg, successor);
            }
        }
        self.obs_phase(ObsPhase::SourceEmit, &mut olap);

        // --- 3. neighbour maintenance --------------------------------------
        self.maintain_neighbors(round, &mut scratch);
        self.obs_phase(ObsPhase::Maintain, &mut olap);

        TwinPendingRound {
            round,
            round_end,
            first_new,
            scratch,
            traffic,
            joins,
            leaves,
            olap,
        }
    }

    /// Phase 4 onward — from the buffer-map exchange through playback,
    /// GC and record finalisation. With `views: None` the exchange
    /// reads each node's live buffer directly (the simulator path, the
    /// pinned historical behaviour). With `Some(views)` the exchange
    /// installs the transport-delivered announcements instead: the
    /// decisions are then made over *received* state, so any loss,
    /// late delivery or corruption on the wire shows up as decision-log
    /// divergence from the simulator.
    fn round_decide(&mut self, pending: TwinPendingRound, views: Option<&TwinViews>) {
        let TwinPendingRound {
            round,
            round_end,
            first_new,
            mut scratch,
            mut traffic,
            joins,
            leaves,
            mut olap,
        } = pending;
        // Pure config read — same value the prelude's emission phase used.
        let p = self.config.demand_per_round();

        // --- 4. buffer-map exchange -----------------------------------------
        scratch.begin_round(round, self.nodes.slot_count());
        self.hot.ensure(self.nodes.slot_count());
        if let Some(o) = self.obs.as_deref_mut() {
            if o.dist_enabled() {
                // Same amortised-growth contract as `hot.ensure`: a no-op
                // once the arena is at steady size.
                o.node_cont.ensure(self.nodes.slot_count());
            }
        }
        let bufmap_bits = self.sizes.bufmap_bits();
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            let node = self.nodes.node(idx);
            match views {
                None => {
                    scratch.maps.snapshot(idx, node);
                    // Recorded alongside the snapshot so the
                    // dark-neighbourhood skip proof reads what this round
                    // *advertises*, not a later buffer state.
                    self.hot.map_empty[idx.0 as usize] = node.buffer.is_empty();
                }
                Some(v) => {
                    // Twin path: the advertised map comes off the wire.
                    // A missing or slot-reused view means the transport
                    // failed to self-deliver — a runtime bug, not a
                    // protocol condition, hence the hard assertions.
                    let a = v.get(idx.0).unwrap_or_else(|| {
                        panic!("twin round {round}: no delivered view for slot {}", idx.0)
                    });
                    assert_eq!(
                        a.birth, node.birth,
                        "twin round {round}: stale view for slot {} (arena slot reuse)",
                        idx.0
                    );
                    scratch.maps.install_wire(idx, a);
                    self.hot.map_empty[idx.0 as usize] = a.is_empty;
                }
            }
            if !node.is_source {
                traffic.add(
                    TrafficClass::Control,
                    bufmap_bits * node.connected.len() as u64,
                );
            }
        }

        // --- 4b. frontier push seeding (recovery plane) ----------------------
        // After the snapshots so the seeded copies are advertised (and
        // gossip-amplified) from next round, before scheduling so the
        // source's ledger reflects the pushes when pulls are served.
        let pushed = self.push_frontier(round, first_new, &mut scratch, &mut traffic);

        // --- 4c. joiner runway seeding (joiner integration) ------------------
        // Same placement contract as 4b: after the snapshots, before
        // scheduling, so the source ledger reflects the seeds when
        // pulls are served.
        let seeded = self.seed_joiners(round, &mut scratch, &mut traffic);
        self.obs_phase(ObsPhase::Exchange, &mut olap);

        // --- 4d. active-set classification (scheduling) ----------------------
        // After the last buffer mutation before planning (the 4b/4c
        // seeding), so the skip proofs read exactly the state step 5
        // will read.
        self.classify_sched(round);
        self.obs_phase(ObsPhase::ClassifySched, &mut olap);

        // --- 5. scheduling ---------------------------------------------------
        self.run_schedule_phase(round, &mut scratch);
        self.obs_phase(ObsPhase::Schedule, &mut olap);

        // --- 6. supplier service ----------------------------------------------
        // Split into a read-only decision half (parallelisable per
        // supplier slot) and a serial merge half that applies deliveries
        // in ascending-id supplier order — bit-identical to the old
        // single serial loop (see [`ServePlan`]).
        let mut svc = ServiceCounters::default();
        let salt = cs_sim::splitmix64(round as u64 ^ self.config.seed);
        self.plan_service_phase(salt, &mut scratch);
        self.obs_phase(ObsPhase::ServicePlan, &mut olap);
        self.apply_service_phase(round, &mut scratch, &mut traffic, &mut svc);
        self.obs_phase(ObsPhase::ServiceApply, &mut olap);
        let gossip_deliveries = svc.deliveries + pushed + seeded;
        let requests_issued = svc.issued;
        let requests_dropped = svc.dropped;
        let mut prefetch_repeated = svc.repeated;

        // --- 7. on-demand pre-fetch (Algorithm 2) ------------------------------
        // Same split: the urgent-line checks and Case-2 scans are pure
        // reads over per-node state and the round's snapshots, so they
        // fan out; the DHT retrievals mutate shared state (routing
        // tables, the outbound-spend ledger, backups) and stay serial in
        // node order (see [`PrefetchPlan`]).
        let telemetry_on = self.telemetry.is_some();
        let mut prefetch_attempts = 0u32;
        let mut prefetch_successes = 0u32;
        let mut prefetch_overdue = 0u32;
        let mut prefetch_suppressed = 0u32;
        let mut prefetch_routing_msgs = 0u64;
        // Telemetry: the largest effective per-node fetch cap this round
        // (watches the policy layer's deficit-scaled throttle ramp).
        let mut rescue_cap_peak = 0usize;
        if self.config.prefetch_enabled {
            // The pre-fetch classification runs here, not with the
            // scheduling pass: step-6 deliveries move α (Case-2
            // repetitions shrink the probe), so the urgent line is only
            // now stable for the round. On classified rounds the
            // classifier also computes the legacy cap peak (it derives
            // every anchored node's rescue params anyway); on dense
            // rounds (toggle off or hysteresis) every plan is fresh and
            // the peak comes from the planned caps, as before.
            rescue_cap_peak = self.classify_prefetch(round, telemetry_on);
            self.obs_phase(ObsPhase::ClassifyPrefetch, &mut olap);
            self.plan_prefetch_phase(round, &mut scratch);
            self.obs_phase(ObsPhase::PrefetchPlan, &mut olap);
            let targets = std::mem::take(&mut self.hot.active_prefetch);
            for &k in &targets {
                let k = k as usize;
                let idx = self.order_idx[k];
                if telemetry_on && !self.hot.prefetch_classified {
                    rescue_cap_peak = rescue_cap_peak.max(scratch.prefetch_plans[k].cap);
                }
                let (attempts, successes, overdue, suppressed, repeated, routing) =
                    self.execute_prefetch(idx, k, round, &mut scratch, &mut traffic);
                prefetch_attempts += attempts;
                prefetch_successes += successes;
                prefetch_overdue += overdue;
                prefetch_suppressed += suppressed;
                prefetch_repeated += repeated;
                prefetch_routing_msgs += routing;
            }
            self.hot.active_prefetch = targets;
        }
        self.obs_phase(ObsPhase::PrefetchExec, &mut olap);

        // --- 7b. failure recovery (fault plane) ---------------------------------
        // Timeout detection, backed-off retries and supplier failover
        // for pulls the fault plane swallowed. Runs before playback so a
        // successful retry still counts toward this round's continuity.
        if self.faults.active {
            self.run_recovery_phase(round, &mut scratch, &mut traffic);
        }
        self.obs_phase(ObsPhase::Recovery, &mut olap);

        // --- 8. playback and continuity -----------------------------------------
        let mut playing = 0usize;
        let mut continuous = 0usize;
        let mut alive = 0usize;
        let mut paused = 0usize;
        let mut alpha_sum = 0.0;
        // Telemetry accumulators (all dead weight on the disabled path:
        // a handful of untouched stack variables).
        let mut runway_sum = 0u64;
        let mut min_runway = u64::MAX;
        let mut gap_sum = 0u64;
        let mut occupancy_sum = 0.0f64;
        let mut backup_total = 0u64;
        let mut slack_used = 0u64;
        let lookahead = (2 * self.config.startup_segments).max(4 * p);
        // Distribution taps: `obs_dist` gates the windowed per-node
        // continuity/runway samples, `obs_startup` the (unwindowed)
        // startup delays. Both are pure reads — no RNG, no state.
        let obs_dist = self.obs.as_deref().is_some_and(|o| o.dist_active(round));
        let obs_startup = self.obs.as_deref().is_some_and(|o| o.dist_enabled());
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            let node = self.nodes.node_mut(idx);
            if node.is_source {
                continue;
            }
            alive += 1;
            alpha_sum += node.urgent.alpha();
            if telemetry_on {
                backup_total += node.backup.len() as u64;
            }
            match node.next_play {
                None => {
                    // Startup: like a real player, buffer for a fixed
                    // time after first data, then start at the earliest
                    // buffered segment (initial holes are the scheduler's
                    // and pre-fetcher's problem from here on).
                    if node.first_data_round.is_none() && !node.buffer.is_empty() {
                        node.first_data_round = Some(round);
                    }
                    let startup_rounds = (self.config.startup_segments / p.max(1)).max(1) as u32;
                    if let Some(fdr) = node.first_data_round {
                        if round >= fdr + startup_rounds {
                            node.next_play = node.buffer.iter().next();
                            if node.next_play.is_some() {
                                if telemetry_on {
                                    let sample = StartupSample {
                                        id: node.id,
                                        spawn_round: node.spawn_round,
                                        first_data_round: fdr,
                                        start_round: round,
                                    };
                                    if let Some(t) = self.telemetry.as_deref_mut() {
                                        t.startups.push(sample);
                                    }
                                }
                                if obs_startup {
                                    let delay = (round - node.spawn_round) as u64;
                                    if let Some(o) = self.obs.as_deref_mut() {
                                        o.startup_delay.record(delay);
                                    }
                                }
                            }
                        }
                    }
                }
                Some(_) if node.paused => {
                    // VCR pause: the play point holds still. The node
                    // needs no data to keep its (frozen) playback
                    // smooth, so it leaves the continuity ratio
                    // entirely — numerator *and* denominator — or pause
                    // pressure would read as a streaming stall.
                    paused += 1;
                }
                Some(np) => {
                    playing += 1;
                    let on_time = node.buffer.has_range(np, p);
                    if on_time {
                        continuous += 1;
                    }
                    if obs_dist {
                        // Per-node samples inside the measurement window:
                        // runway now, continuity accumulated per slot
                        // (birth-guarded against arena slot reuse).
                        let runway = node.buffer.contiguous_from(np);
                        let birth = node.birth;
                        if let Some(o) = self.obs.as_deref_mut() {
                            o.runway.record(runway);
                            o.node_cont.observe(idx.0 as usize, birth, on_time);
                        }
                    }
                    if telemetry_on {
                        // Inflow beyond per-round demand: how much slack
                        // the node actually used to heal holes.
                        slack_used += (node.round_inflow as u64).saturating_sub(p);
                        let runway = node.buffer.contiguous_from(np);
                        runway_sum += runway;
                        min_runway = min_runway.min(runway);
                        gap_sum += self.newest_emitted.saturating_sub(np);
                        // Mirror the scheduler's exchange-window bounds
                        // (`plan_node`): how much of what the node will
                        // pull over is already held.
                        let window_end = (self.newest_emitted + 1)
                            .min(np + lookahead)
                            .min(np + self.config.buffer_size);
                        if window_end > np {
                            let held = node.buffer.count_range(np, window_end);
                            occupancy_sum += held as f64 / (window_end - np) as f64;
                        }
                    }
                    let next = np + p;
                    node.next_play = Some(next);
                    // The buffer is FIFO in *arrival* order: played
                    // segments stay (serving lagging neighbours) until
                    // fresh segments slide the window past them. Only the
                    // pre-fetch tags expire at the play point.
                    node.prefetch_tags.retain(|&seg, _| seg >= next);
                }
            }
            node.rate.end_period(self.config.period_secs);
            node.last_inflow = node.round_inflow;
            node.round_inflow = 0;
        }
        self.obs_phase(ObsPhase::Playback, &mut olap);

        // --- 9. backup GC and DHT table aging -------------------------------------
        let mut gc_evictions = 0u64;
        if round % 10 == 9 {
            let horizon = self.global_play_floor();
            for k in 0..self.order_idx.len() {
                gc_evictions += self
                    .nodes
                    .node_mut(self.order_idx[k])
                    .backup
                    .gc_before(horizon) as u64;
            }
            self.dht.tick_tables();
        }

        // Cached: `env::var_os` builds a C string per call, which would
        // be the round loop's only steady-state allocation.
        static DEBUG_ROUNDS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        if *DEBUG_ROUNDS.get_or_init(|| std::env::var_os("CS_DEBUG_ROUNDS").is_some()) {
            self.debug_round_report(round);
        }
        self.records.push(RoundRecord {
            round,
            time_secs: round_end.as_secs_f64(),
            alive,
            playing,
            continuous,
            // Paused nodes are excluded from the ratio (see the pause
            // arm above); with none paused this is exactly
            // `continuous / alive`, the pinned historical definition.
            continuity: if alive > paused {
                continuous as f64 / (alive - paused) as f64
            } else {
                0.0
            },
            traffic,
            prefetch_attempts,
            prefetch_successes,
            prefetch_overdue,
            prefetch_repeated,
            prefetch_suppressed,
            mean_alpha: if alive > 0 {
                alpha_sum / alive as f64
            } else {
                0.0
            },
            gossip_deliveries,
            requests_issued,
            requests_dropped,
            joins,
            leaves,
        });
        // Fault plane: drain the round's counters into the trace. While
        // inert this is one branch — the trace stays empty and the
        // counters are never touched.
        let frec = if self.faults.active {
            let mut rec = self.faults.counters;
            rec.round = round;
            self.faults.counters = FaultRoundRecord::default();
            self.faults.trace.push(rec);
            rec
        } else {
            FaultRoundRecord::default()
        };
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.rounds.push(TelemetryRound {
                round,
                playing,
                newest_emitted: self.newest_emitted,
                mean_runway: if playing > 0 {
                    runway_sum as f64 / playing as f64
                } else {
                    0.0
                },
                min_runway: if playing > 0 { min_runway } else { 0 },
                mean_frontier_gap: if playing > 0 {
                    gap_sum as f64 / playing as f64
                } else {
                    0.0
                },
                window_occupancy: if playing > 0 {
                    occupancy_sum / playing as f64
                } else {
                    0.0
                },
                supplier_active: svc.supplier_active,
                supplier_peak_load: svc.supplier_peak,
                dht_routing_msgs: prefetch_routing_msgs,
                gc_evictions,
                backup_segments: backup_total,
                rescue_cap: rescue_cap_peak as u64,
                suppressed_nodes: prefetch_suppressed as u64,
                slack_used,
                faults_injected: frec.injected() as u64,
                timeouts_detected: frec.timeouts as u64,
                retries_issued: frec.retries as u64,
                failovers: frec.failovers as u64,
                stale_repairs: frec.stale_repairs as u64,
                mean_time_to_recover: if frec.recoveries > 0 {
                    frec.recovery_rounds as f64 / frec.recoveries as f64
                } else {
                    0.0
                },
                active_sched: self.hot.active_sched.len() as u64,
                active_prefetch: self.hot.active_prefetch.len() as u64,
                touched_active: self.hot.forced,
            });
        }
        self.obs_phase(ObsPhase::Finalize, &mut olap);
        self.scratch = scratch;
    }

    /// Close the current profiler lap into `phase` (no-op when the
    /// profiler is unarmed — `lap_ns` is `None` and nothing is read).
    #[inline]
    fn obs_phase(&mut self, phase: ObsPhase, lap: &mut Lap) {
        if let Some(ns) = lap.lap_ns() {
            if let Some(o) = self.obs.as_deref_mut() {
                o.profiler.record(phase, ns);
            }
        }
    }

    /// Push a typed protocol event into the trace ring (no-op when
    /// tracing is unarmed). Every call site is serial, deterministic
    /// round code — which is what makes traces byte-identical across
    /// re-runs and thread counts.
    #[inline]
    fn obs_emit(
        &mut self,
        round: u32,
        kind: EventKind,
        node: DhtId,
        aux: u64,
        cause: &'static str,
    ) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.emit(round, kind, node, aux, cause);
        }
    }

    /// Dark-neighbourhood test: every connected neighbour is either dead
    /// (resolves to nothing) or advertised an *empty* buffer map this
    /// round. [`plan_node`]'s candidate gather then provably yields
    /// nothing — dead refs are skipped and empty maps have no fresh
    /// segments at any anchor — so the node early-returns with its carry
    /// untouched. Anchor-independent, which is what lets it skip the
    /// still-buffering startup wave at 100k nodes.
    fn dark_neighbourhood(hot: &HotState, nodes: &NodeArena, node: &NodeSim) -> bool {
        node.connected.ids().all(|nref| match nodes.resolve(nref) {
            None => true,
            Some(ni) => hot.map_empty[ni.0 as usize],
        })
    }

    /// The active-set classification for step 5 (scheduling): one cheap
    /// O(alive) sweep that proves which nodes' planning pass would be a
    /// no-op and builds `hot.active_sched` from the rest. Two exact skip
    /// proofs, both evaluated fresh against live state (nothing mutates
    /// buffers between this sweep and step 5):
    ///
    /// * **window-complete** — the node's exchange window is empty or
    ///   fully buffered, so the gather over `fresh_for` yields no
    ///   candidate at any neighbour;
    /// * **dark neighbourhood** — see [`Self::dark_neighbourhood`].
    ///
    /// A skipped node's `plan_node` would hit the no-candidate early
    /// return (before any rate estimate, budget math or RNG draw — the
    /// Random scheduler's stream is untouched) and its `apply_plan`
    /// would rewrite an unchanged carry: bit-identical to not running
    /// either. Touch-stamped nodes are force-planned regardless (pure
    /// conservatism). Along the way the sweep caches each anchored
    /// node's `(anchor, window_end, occupancy)` for [`plan_node`] to
    /// reuse. With the toggle off — or while the dense-round hysteresis
    /// holds (the last probe found almost nothing skippable) —
    /// materialises every alive non-source node so the phase loops have
    /// a single shape.
    fn classify_sched(&mut self, round: u32) {
        self.hot.ensure(self.nodes.slot_count());
        let hot = &mut self.hot;
        let nodes = &self.nodes;
        let config = &self.config;
        hot.active_sched.clear();
        hot.forced = 0;
        if !config.active_set || u64::from(round) < hot.sched_dense_until {
            for k in 0..self.order_idx.len() {
                if !nodes.node(self.order_idx[k]).is_source {
                    hot.active_sched.push(k as u32);
                }
            }
            return;
        }
        let newest = self.newest_emitted;
        let stamp = u64::from(round) + 1;
        let mut candidates = 0usize;
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            let node = nodes.node(idx);
            if node.is_source {
                continue;
            }
            candidates += 1;
            let s = idx.0 as usize;
            let touched = hot.is_touched(idx, node.birth, round);
            if touched {
                hot.forced += 1;
            }
            match node.next_play.or_else(|| node.buffer.iter().next()) {
                Some(anchor) => {
                    let (window_end, occupancy) =
                        exchange_window(config, &node.buffer, anchor, newest);
                    hot.stamp[s] = stamp;
                    hot.birth[s] = node.birth;
                    hot.anchor[s] = anchor;
                    hot.window_end[s] = window_end;
                    hot.occupancy[s] = occupancy;
                    if !touched {
                        let complete = window_end <= anchor
                            || node.buffer.has_range(anchor, window_end - anchor);
                        if complete || Self::dark_neighbourhood(hot, nodes, node) {
                            continue;
                        }
                    }
                }
                None => {
                    // No local anchor: the fallback anchor depends on
                    // neighbour maps, so nothing is cached for reuse.
                    hot.stamp[s] = stamp;
                    hot.birth[s] = node.birth;
                    hot.anchor[s] = u64::MAX;
                    if !touched && Self::dark_neighbourhood(hot, nodes, node) {
                        continue;
                    }
                }
            }
            hot.active_sched.push(k as u32);
        }
        // Probe verdict: under 1/8 skippable ⇒ the sweep isn't paying
        // for itself; go dense and re-probe in eight rounds.
        if hot.active_sched.len() * 8 >= candidates * 7 {
            hot.sched_dense_until = u64::from(round) + 8;
        }
    }

    /// The active-set classification for step 7 (pre-fetch), run *after*
    /// step 6 because deliveries move α (Case-2 repetitions shrink the
    /// urgent probe). The skip proof is exact — it reproduces the
    /// `NotTriggered` outcome of `decide_scaled_into` without walking
    /// the miss window: no anchor, an empty probe, or a fully buffered
    /// probe range means [`plan_prefetch`] plans nothing and
    /// [`Self::execute_prefetch`] is a counter-free no-op. Touch-stamped
    /// nodes are force-planned. Returns the round's rescue-cap peak
    /// (the classifier derives every anchored node's [`rescue_params`]
    /// anyway, which is exactly the set whose planned caps the legacy
    /// loop maxed over); 0 when the list was materialised dense (toggle
    /// off or hysteresis) — `hot.prefetch_classified` then tells the
    /// caller to take the peak from the planned caps as before.
    fn classify_prefetch(&mut self, round: u32, telemetry_on: bool) -> usize {
        let hot = &mut self.hot;
        let nodes = &self.nodes;
        let config = &self.config;
        hot.active_prefetch.clear();
        if !config.active_set || u64::from(round) < hot.prefetch_dense_until {
            hot.prefetch_classified = false;
            for k in 0..self.order_idx.len() {
                hot.active_prefetch.push(k as u32);
            }
            return 0;
        }
        hot.prefetch_classified = true;
        let newest = self.newest_emitted;
        let p = config.demand_per_round();
        let mut cap_peak = 0usize;
        let mut candidates = 0usize;
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            let node = nodes.node(idx);
            if node.is_source {
                continue;
            }
            candidates += 1;
            let touched = hot.is_touched(idx, node.birth, round);
            let Some(anchor) = node.next_play.or_else(|| node.buffer.iter().next()) else {
                if touched {
                    hot.forced += 1;
                    hot.active_prefetch.push(k as u32);
                }
                continue;
            };
            let (cap, _threshold, horizon) =
                rescue_params(config, &node.buffer, anchor, p, round, node.spawn_round);
            if telemetry_on {
                cap_peak = cap_peak.max(cap);
            }
            let urgent_end = node.urgent.probe_end(anchor, newest, horizon);
            if touched {
                hot.forced += 1;
            } else if urgent_end <= anchor || node.buffer.has_range(anchor, urgent_end - anchor) {
                continue;
            }
            hot.active_prefetch.push(k as u32);
        }
        if hot.active_prefetch.len() * 8 >= candidates * 7 {
            hot.prefetch_dense_until = u64::from(round) + 8;
        }
        cap_peak
    }

    /// Step 5: plan every node's pulls against the snapshotted maps, then
    /// apply (request accounting + queueing at suppliers). Planning is a
    /// pure read, so the `parallel` feature fans it out; application is
    /// always serial and in node order.
    fn run_schedule_phase(&mut self, round: u32, scratch: &mut RoundScratch) {
        #[cfg(feature = "parallel")]
        {
            // The Random scheduler draws from the shared RNG while
            // scheduling, so its planning always runs serially.
            let is_random = matches!(self.config.scheduler, SchedulerKind::Random);
            let workers = self.parallel_workers();
            if !is_random && workers > 1 {
                self.run_schedule_phase_parallel(round, scratch, workers);
                return;
            }
        }
        // The active list is taken out for the loop (its slot in `hot`
        // holds an empty Vec meanwhile) so `apply_plan`'s `&mut self`
        // doesn't conflict; restored afterwards for the telemetry read.
        let targets = std::mem::take(&mut self.hot.active_sched);
        for &k in &targets {
            let idx = self.order_idx[k as usize];
            let new_carry = plan_node(
                &self.nodes,
                &self.config,
                &scratch.maps,
                self.newest_emitted,
                idx,
                round,
                &mut scratch.sched,
                Some(&mut self.sched_rng),
                Some(&self.hot),
            );
            self.apply_plan(idx, new_carry, scratch);
        }
        self.hot.active_sched = targets;
    }

    #[cfg(feature = "parallel")]
    fn run_schedule_phase_parallel(
        &mut self,
        round: u32,
        scratch: &mut RoundScratch,
        workers: usize,
    ) {
        let targets = std::mem::take(&mut self.hot.active_sched);
        let n = targets.len();
        if n == 0 {
            self.hot.active_sched = targets;
            return;
        }
        // Position-indexed against `targets` (the active list), which is
        // ascending in `order_idx` position — so the serial apply below
        // runs in exactly the legacy node order.
        let mut plans: Vec<Option<(Vec<Assignment<PeerRef>>, f64)>> =
            (0..n).map(|_| None).collect();
        let chunk = n.div_ceil(workers).max(1);
        {
            let nodes = &self.nodes;
            let config = &self.config;
            let maps = &scratch.maps;
            let newest = self.newest_emitted;
            let order_idx = &self.order_idx;
            let hot = &self.hot;
            let prof = self
                .obs
                .as_deref()
                .filter(|o| o.profiling())
                .map(|o| &o.profiler);
            std::thread::scope(|s| {
                for (plan_chunk, k_chunk) in plans.chunks_mut(chunk).zip(targets.chunks(chunk)) {
                    s.spawn(move || {
                        let t0 = prof.map(|_| std::time::Instant::now());
                        let mut sched = SchedScratch::default();
                        for (slot, &k) in plan_chunk.iter_mut().zip(k_chunk) {
                            let idx = order_idx[k as usize];
                            let carry = plan_node(
                                nodes,
                                config,
                                maps,
                                newest,
                                idx,
                                round,
                                &mut sched,
                                None,
                                Some(hot),
                            );
                            *slot = Some((std::mem::take(&mut sched.assignments), carry));
                        }
                        if let (Some(p), Some(t0)) = (prof, t0) {
                            p.record_worker(WorkerPhase::Schedule, t0.elapsed().as_nanos() as u64);
                        }
                    });
                }
            });
        }
        for (plan, &k) in plans.into_iter().zip(targets.iter()) {
            let Some((assignments, carry)) = plan else {
                continue;
            };
            let idx = self.order_idx[k as usize];
            scratch.sched.assignments = assignments;
            self.apply_plan(idx, carry, scratch);
        }
        self.hot.active_sched = targets;
    }

    /// Apply one node's plan: update the inbound carry, account the
    /// requests in the Rate Controller, queue them at the suppliers.
    fn apply_plan(&mut self, idx: NodeIdx, new_carry: f64, scratch: &mut RoundScratch) {
        let node_id = {
            let node = self.nodes.node_mut(idx);
            node.inbound_carry = new_carry;
            node.id
        };
        for ai in 0..scratch.sched.assignments.len() {
            let a = scratch.sched.assignments[ai];
            self.nodes.node_mut(idx).rate.record_request(a.supplier);
            let sup_slot = self
                .nodes
                .resolve(a.supplier)
                .expect("scheduled suppliers are alive this round");
            scratch.push_request(PullRequest {
                requester: idx,
                requester_id: node_id,
                segment: a.segment,
                priority: a.priority,
                supplier_slot: sup_slot.0,
                accepted: false,
            });
        }
    }

    /// Worker-thread count for the `parallel` feature's phase fan-outs
    /// (1 ⇒ serial). See [`SystemConfig::parallel_threads`] for the
    /// resolution order; the environment read is cached process-wide.
    #[cfg(feature = "parallel")]
    fn parallel_workers(&self) -> usize {
        if let Some(n) = self.config.parallel_threads {
            return n.max(1);
        }
        // Below the fan-out threshold the spawn overhead dominates.
        if self.order_idx.len() < 128 {
            return 1;
        }
        // `CS_PARALLEL_THREADS` overrides the detected core count
        // (useful to force the fan-out on single-core CI runners —
        // results are identical either way).
        static ENV_THREADS: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
        ENV_THREADS
            .get_or_init(|| {
                std::env::var("CS_PARALLEL_THREADS")
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
            })
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
    }

    /// Step 6, decision half: bucket the round's requests by supplier
    /// slot, then plan every pending queue (sort + budget acceptance).
    /// With the `parallel` feature and more than one worker, the touched
    /// slots are sharded into contiguous runs — buckets are laid out in
    /// ascending slot order, so each worker owns a disjoint slice of the
    /// request arena and a disjoint slice of the plan table.
    fn plan_service_phase(&self, salt: u64, scratch: &mut RoundScratch) {
        scratch.bucket_requests();
        let RoundScratch {
            requests_sorted,
            queue_count,
            queue_start,
            touched_suppliers,
            serve_plans,
            ..
        } = scratch;
        #[cfg(feature = "parallel")]
        {
            let workers = self.parallel_workers();
            if workers > 1 && !touched_suppliers.is_empty() {
                let nodes = &self.nodes;
                let config = &self.config;
                let prof = self
                    .obs
                    .as_deref()
                    .filter(|o| o.profiling())
                    .map(|o| &o.profiler);
                // Shared views for the worker closures (the exclusive
                // borrows stay with the sliced-up request/plan arrays).
                let queue_start: &[u32] = queue_start;
                let queue_count: &[u32] = queue_count;
                // Shard the touched slots into contiguous runs; ascending
                // bucket layout makes every run a disjoint subslice.
                let chunk = touched_suppliers.len().div_ceil(workers).max(1);
                std::thread::scope(|s| {
                    let mut rest_reqs: &mut [PullRequest] = requests_sorted;
                    let mut rest_plans: &mut [ServePlan] = serve_plans;
                    let mut reqs_consumed = 0usize;
                    let mut plans_consumed = 0usize;
                    for slots in touched_suppliers.chunks(chunk) {
                        let first = slots[0] as usize;
                        let last = slots[slots.len() - 1] as usize;
                        let run_start = queue_start[first] as usize;
                        let run_end = queue_start[last] as usize + queue_count[last] as usize;
                        let (_, tail) = rest_reqs.split_at_mut(run_start - reqs_consumed);
                        let (run_reqs, tail) = tail.split_at_mut(run_end - run_start);
                        rest_reqs = tail;
                        reqs_consumed = run_end;
                        let (_, tail) = rest_plans.split_at_mut(first - plans_consumed);
                        let (run_plans, tail) = tail.split_at_mut(last + 1 - first);
                        rest_plans = tail;
                        plans_consumed = last + 1;
                        s.spawn(move || {
                            let t0 = prof.map(|_| std::time::Instant::now());
                            for &slot in slots {
                                let b0 = queue_start[slot as usize] as usize - run_start;
                                let blen = queue_count[slot as usize] as usize;
                                plan_service(
                                    nodes,
                                    config,
                                    salt,
                                    slot,
                                    &mut run_reqs[b0..b0 + blen],
                                    &mut run_plans[slot as usize - first],
                                );
                            }
                            if let (Some(p), Some(t0)) = (prof, t0) {
                                p.record_worker(
                                    WorkerPhase::ServicePlan,
                                    t0.elapsed().as_nanos() as u64,
                                );
                            }
                        });
                    }
                });
                return;
            }
        }
        for &slot in touched_suppliers.iter() {
            let start = queue_start[slot as usize] as usize;
            let len = queue_count[slot as usize] as usize;
            plan_service(
                &self.nodes,
                &self.config,
                salt,
                slot,
                &mut requests_sorted[start..start + len],
                &mut serve_plans[slot as usize],
            );
        }
    }

    /// Step 6, merge half: walk suppliers in ascending-id order (the
    /// serial service order) and apply each plan's deliveries. A supplier
    /// whose buffer changed since its plan was computed — it received
    /// segments from an earlier-ordered supplier, possibly sliding its
    /// window — gets its decisions recomputed serially against the live
    /// buffer, which is exactly what the old serial loop saw. Results are
    /// therefore bit-identical to serial at any worker count.
    fn apply_service_phase(
        &mut self,
        round: u32,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
        svc: &mut ServiceCounters,
    ) {
        let faults_on = self.faults.active;
        for k in 0..self.order_idx.len() {
            let sidx = self.order_idx[k];
            let slot = sidx.0 as usize;
            let len = scratch.queue_count[slot] as usize;
            if len == 0 {
                continue;
            }
            let start = scratch.queue_start[slot] as usize;
            let plan = scratch.serve_plans[slot];
            let sup_ref = {
                let sup = self.nodes.node_mut(sidx);
                sup.outbound_carry = plan.carry;
                PeerRef {
                    id: sup.id,
                    slot: sidx.0,
                }
            };
            let (issued, dropped) = if self.nodes.node(sidx).buffer.epoch() == plan.buffer_epoch {
                // Fast path: the plan's inputs are still exact.
                (plan.issued, plan.dropped)
            } else {
                // Revalidation: re-run the shared decision walk on the
                // live buffer (the bucket is already sorted).
                decide_service(
                    plan.sends,
                    self.nodes.node(sidx),
                    &self.nodes,
                    &mut scratch.requests_sorted[start..start + len],
                )
            };
            svc.issued += issued;
            svc.dropped += dropped;
            let mut delivered_here = 0u64;
            for ri in start..start + len {
                let req = scratch.requests_sorted[ri];
                if req.accepted {
                    // Fault plane: the supplier sent, but the segment
                    // never arrives — the requester cannot tell a lost
                    // delivery from a silent supplier, which is what the
                    // recovery plane's timeout exists to resolve.
                    if faults_on && self.data_delivery_lost(round, sup_ref.id, req.requester_id) {
                        self.note_lost_pull(round, req.requester_id, req.segment, Some(sup_ref.id));
                        continue;
                    }
                    self.deliver_one(sup_ref, req, traffic, svc);
                    delivered_here += 1;
                }
            }
            if delivered_here > 0 {
                svc.supplier_active += 1;
                svc.supplier_peak = svc.supplier_peak.max(delivered_here);
                if let Some(o) = self.obs.as_deref_mut() {
                    if o.dist_active(round) {
                        o.supplier_load.record(delivered_here);
                    }
                }
            }
        }
    }

    /// Deliver one accepted request: payload accounting, receiver buffer
    /// insert, rate/supply bookkeeping, the §4.3 Case-2 check for tagged
    /// repeats, and backup placement of newly received segments.
    fn deliver_one(
        &mut self,
        sup_ref: PeerRef,
        req: PullRequest,
        traffic: &mut TrafficCounter,
        svc: &mut ServiceCounters,
    ) {
        svc.deliveries += 1;
        traffic.add(TrafficClass::Data, self.sizes.segment_bits);
        let newly = {
            let receiver = self.nodes.node_mut(req.requester);
            let newly = receiver.buffer.insert(req.segment);
            receiver.round_inflow += 1;
            receiver.rate.record_delivery(sup_ref);
            receiver
                .connected
                .record_supply(sup_ref, self.config.segment_kbits);
            newly
        };
        if !newly {
            // Already present: if it carries a pre-fetch tag and its
            // deadline has not passed, this is §4.3 Case 2.
            let receiver = self.nodes.node_mut(req.requester);
            if receiver.prefetch_tags.remove(&req.segment).is_some()
                && receiver.next_play.is_none_or(|np| req.segment >= np)
            {
                receiver.urgent.on_repeated();
                svc.repeated += 1;
            }
            return;
        }
        let successor = self.believed_successor(req.requester_id);
        let receiver = self.nodes.node_mut(req.requester);
        receiver.backup.maybe_store(req.segment, successor);
    }

    /// Step 7, decision half: plan every node's urgent-line outcome. With
    /// the `parallel` feature and more than one worker, nodes are sharded
    /// into contiguous `order_idx` ranges.
    fn plan_prefetch_phase(&self, round: u32, scratch: &mut RoundScratch) {
        let n = self.order_idx.len();
        if scratch.prefetch_plans.len() < n {
            // Pre-size each plan's miss list to the widest cap the
            // policy can grant, so a node hitting a new deficit
            // high-water mid-run never regrows it (zero-alloc pin).
            let cap_max = match &self.config.policy {
                PolicyKind::Legacy => self.config.prefetch_cap,
                PolicyKind::Adaptive(ap) => ap.rescue_cap_max.max(self.config.prefetch_cap),
            };
            scratch.prefetch_plans.resize_with(n, || PrefetchPlan {
                missed: Vec::with_capacity(cap_max),
                ..PrefetchPlan::default()
            });
        }
        // Only the active list is planned; a skipped node's stale plan
        // is never read (the execute loop walks the same list).
        let targets: &[u32] = &self.hot.active_prefetch;
        #[cfg(feature = "parallel")]
        {
            let workers = self.parallel_workers();
            if workers > 1 && !targets.is_empty() {
                let nodes = &self.nodes;
                let config = &self.config;
                let maps = &scratch.maps;
                let newest = self.newest_emitted;
                let order_idx = &self.order_idx;
                let prof = self
                    .obs
                    .as_deref()
                    .filter(|o| o.profiling())
                    .map(|o| &o.profiler);
                // Shard the (ascending) active list into contiguous
                // runs; each run owns a disjoint subslice of the
                // k-indexed plan table — same discipline as
                // `plan_service_phase`'s slot sharding.
                let chunk = targets.len().div_ceil(workers).max(1);
                std::thread::scope(|s| {
                    let mut rest_plans: &mut [PrefetchPlan] = &mut scratch.prefetch_plans[..n];
                    let mut consumed = 0usize;
                    for ks in targets.chunks(chunk) {
                        let first = ks[0] as usize;
                        let last = ks[ks.len() - 1] as usize;
                        let (_, tail) = rest_plans.split_at_mut(first - consumed);
                        let (run_plans, tail) = tail.split_at_mut(last + 1 - first);
                        rest_plans = tail;
                        consumed = last + 1;
                        s.spawn(move || {
                            let t0 = prof.map(|_| std::time::Instant::now());
                            for &k in ks {
                                plan_prefetch(
                                    nodes,
                                    config,
                                    maps,
                                    newest,
                                    round,
                                    order_idx[k as usize],
                                    &mut run_plans[k as usize - first],
                                );
                            }
                            if let (Some(p), Some(t0)) = (prof, t0) {
                                p.record_worker(
                                    WorkerPhase::PrefetchPlan,
                                    t0.elapsed().as_nanos() as u64,
                                );
                            }
                        });
                    }
                });
                return;
            }
        }
        let RoundScratch {
            prefetch_plans,
            maps,
            ..
        } = scratch;
        for &k in targets {
            plan_prefetch(
                &self.nodes,
                &self.config,
                maps,
                self.newest_emitted,
                round,
                self.order_idx[k as usize],
                &mut prefetch_plans[k as usize],
            );
        }
    }

    /// Step 7, execution half for one node: apply the planned α-down
    /// signals, then run Algorithm 2 retrievals for the planned missed
    /// segments. Mutates shared state (DHT tables, the outbound-spend
    /// ledger, backups), so it always runs serially in node order.
    /// Returns `(attempts, successes, overdue, suppressed, repeated,
    /// routing_msgs)`.
    fn execute_prefetch(
        &mut self,
        idx: NodeIdx,
        k: usize,
        round: u32,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
    ) -> (u32, u32, u32, u32, u32, u64) {
        if scratch.prefetch_plans[k].suppressed {
            return (0, 0, 0, 1, 0, 0);
        }
        let repeated = scratch.prefetch_plans[k].repeated;
        let max_fetches = scratch.prefetch_plans[k].max_fetches;
        for _ in 0..repeated {
            self.nodes.node_mut(idx).urgent.on_repeated();
        }
        if scratch.prefetch_plans[k].missed.is_empty() {
            return (0, 0, 0, 0, repeated, 0);
        }
        let (requester_id, anchor, started) = {
            let node = self.nodes.node(idx);
            // Unchanged since the plan was computed (only this node's own
            // execution mutates them): same anchor the plan used.
            let anchor = node
                .next_play
                .or_else(|| node.buffer.iter().next())
                .expect("planned node had an anchor");
            (node.id, anchor, node.next_play.is_some())
        };
        let p = self.config.demand_per_round();

        let mut attempts = 0u32;
        let mut successes = 0u32;
        let mut overdue = 0u32;
        let mut routing_msgs = 0u64;
        let period_ms = self.config.period_secs * 1000.0;
        let source_cap = self
            .config
            .policy
            .as_adaptive()
            .map_or(0, |pol| pol.source_rescue_cap);
        let mut source_fallbacks = 0usize;

        for mi in 0..max_fetches {
            let seg = scratch.prefetch_plans[k].missed[mi];
            attempts += 1;
            // Split borrows: the DHT is mutated by routing; node state and
            // the outbound ledger are read through disjoint fields (the
            // per-segment snapshot maps this replaced cost O(N) hash
            // inserts per missed segment).
            let outcome = {
                let nodes = &self.nodes;
                let config = &self.config;
                let spent = &scratch.outbound_spent;
                let ping = |n: DhtId| nodes.ping_of(n).unwrap_or(DEFAULT_PING_MS);
                let latency = |a: DhtId, b: DhtId| derive_latency(ping(a), ping(b));
                let has_backup = |n: DhtId, s: SegmentId| {
                    nodes.lookup(n).is_some_and(|i| nodes.node(i).backup.has(s))
                };
                let available_rate = |n: DhtId| {
                    nodes
                        .lookup(n)
                        .map(|i| {
                            let cap = nodes
                                .node(i)
                                .bandwidth
                                .outbound_segments_per_sec(config.segment_kbits);
                            let used = spent.get(i.0 as usize).copied().unwrap_or(0.0);
                            (cap - used).max(0.0)
                        })
                        .unwrap_or(0.0)
                };
                let transfer_ms = {
                    // UDP direct download at the supplier's outbound share.
                    config.segment_kbits / 450.0 * 1000.0
                };
                retrieve_one_into(
                    &mut self.dht,
                    requester_id,
                    seg,
                    &latency,
                    &has_backup,
                    &available_rate,
                    config.replicas,
                    transfer_ms,
                    &mut scratch.retrieval,
                )
            };
            traffic.add(
                TrafficClass::PrefetchRouting,
                outcome.routing_messages as u64 * self.sizes.routing_message_bits,
            );
            routing_msgs += outcome.routing_messages as u64;
            // Lazy DHT repair: routing just contacted these nodes, so
            // any crashed one among them is detected now and evicted
            // from the routing tables before it is overheard.
            if self.faults.crashed_any {
                self.repair_stale_routes(&scratch.retrieval.located);
            }
            // The requester overhears every node its lookups reached
            // (the located list stayed in the retrieval scratch).
            {
                let local_ping = self.nodes.node(idx).ping_ms;
                for li in 0..scratch.retrieval.located.len() {
                    let l = scratch.retrieval.located[li];
                    if l != requester_id {
                        let (lref, lping) = self.nodes.ref_and_ping(l);
                        let lat = derive_latency(local_ping, lping.unwrap_or(DEFAULT_PING_MS));
                        self.nodes.node_mut(idx).overheard.record(lref, lat);
                    }
                }
            }
            if let Some(supplier) = outcome.supplier {
                // Fault plane: the rescue fetch rides the control path —
                // it can be swallowed outright or delayed past its
                // deadline.
                let mut extra_delay_ms = 0.0;
                if self.faults.active {
                    match self.control_fetch_fault(round, requester_id, supplier) {
                        ControlFault::Lost => {
                            self.note_lost_pull(round, requester_id, seg, Some(supplier));
                            continue;
                        }
                        ControlFault::Delayed(ms) => extra_delay_ms = ms,
                        ControlFault::None => {}
                    }
                }
                successes += 1;
                traffic.add(TrafficClass::PrefetchData, self.sizes.segment_bits);
                if let Some(sup_idx) = self.nodes.lookup(supplier) {
                    scratch.add_spent(sup_idx, 1.0 / self.config.period_secs);
                }
                let fetch_ms = outcome.fetch_latency_ms.unwrap_or(period_ms) + extra_delay_ms;
                // Deadline: the start of the round in which `seg` plays.
                // Buffering nodes have no deadline yet.
                let deadline_ms = if !started {
                    f64::INFINITY
                } else if seg < anchor + p {
                    0.0 // needed this very round: always late
                } else {
                    ((seg - anchor) / p) as f64 * period_ms
                };
                {
                    let node = self.nodes.node_mut(idx);
                    node.buffer.insert(seg);
                    node.round_inflow += 1;
                    node.prefetch_tags.insert(seg, round);
                }
                let successor = self.believed_successor(requester_id);
                let node = self.nodes.node_mut(idx);
                node.backup.maybe_store(seg, successor);
                if fetch_ms > deadline_ms.max(f64::EPSILON) && deadline_ms < period_ms {
                    // Case 1: arrived after (or perilously at) its
                    // deadline round.
                    node.urgent.on_overdue();
                    overdue += 1;
                }
            } else if source_fallbacks < source_cap {
                // No replica holds the segment at all. Origin fallback:
                // re-seed the copy from the source so the gossip plane
                // can re-amplify it (see [`Self::source_fetch`]).
                source_fallbacks += 1;
                routing_msgs += 1;
                if let Some(fetch_ms) =
                    self.source_fetch(round, idx, requester_id, seg, scratch, traffic)
                {
                    successes += 1;
                    let deadline_ms = if !started {
                        f64::INFINITY
                    } else if seg < anchor + p {
                        0.0
                    } else {
                        ((seg - anchor) / p) as f64 * period_ms
                    };
                    let node = self.nodes.node_mut(idx);
                    node.prefetch_tags.insert(seg, round);
                    if fetch_ms > deadline_ms.max(f64::EPSILON) && deadline_ms < period_ms {
                        node.urgent.on_overdue();
                        overdue += 1;
                    }
                }
            }
        }
        (attempts, successes, overdue, 0, repeated, routing_msgs)
    }

    /// The node's *belief* about its ring successor: its closest clockwise
    /// DHT peer (the loose `n₁` of §4.3), falling back to itself.
    fn believed_successor(&self, id: DhtId) -> DhtId {
        self.dht
            .node(id)
            .and_then(|s| s.peers.closest_clockwise())
            .map(|p| p.id)
            .unwrap_or(id)
    }

    /// Oldest play point across alive nodes (for backup GC).
    fn global_play_floor(&self) -> SegmentId {
        self.order_idx
            .iter()
            .filter_map(|&idx| self.nodes.node(idx).next_play)
            .min()
            .unwrap_or(1)
            .saturating_sub(self.config.demand_per_round())
            .max(1)
    }

    fn maintain_neighbors(&mut self, round: u32, scratch: &mut RoundScratch) {
        // Recovery plane: suppliers under timeout-eviction are dropped
        // exactly like dead ones — failover to the overheard refill.
        let evict_on = self.faults.active && !self.faults.dead_until.is_empty();
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            let self_id = self.nodes.node(idx).id;
            // Drop dead neighbours.
            scratch.tmp_refs.clear();
            for nref in self.nodes.node(idx).connected.ids() {
                if self.nodes.resolve(nref).is_none() || (evict_on && self.faults.evicted(nref.id))
                {
                    scratch.tmp_refs.push(nref);
                }
            }
            // Conservative touch: any change to the connected set below
            // force-activates the node for this round's classification.
            let mut partners_changed = !scratch.tmp_refs.is_empty();
            for di in 0..scratch.tmp_refs.len() {
                let d = scratch.tmp_refs[di];
                let node = self.nodes.node_mut(idx);
                node.connected.remove(d);
                node.overheard.remove(d);
                node.rate.forget(d);
            }
            // Membership gossip: overhear one neighbour-of-neighbour,
            // keeping the overheard list warm at (near) zero cost.
            scratch.tmp_refs.clear();
            scratch
                .tmp_refs
                .extend(self.nodes.node(idx).connected.ids());
            let heard: Option<(PeerRef, f64)> = if scratch.tmp_refs.is_empty() {
                None
            } else {
                let via = scratch.tmp_refs[self.sched_rng.gen_range(0..scratch.tmp_refs.len())];
                scratch.tmp_refs2.clear();
                if let Some(vidx) = self.nodes.resolve(via) {
                    scratch.tmp_refs2.extend(
                        self.nodes
                            .node(vidx)
                            .connected
                            .ids()
                            .filter(|x| x.id != self_id),
                    );
                }
                if scratch.tmp_refs2.is_empty() {
                    None
                } else {
                    let pick =
                        scratch.tmp_refs2[self.sched_rng.gen_range(0..scratch.tmp_refs2.len())];
                    Some((pick, self.latency_ref(idx, pick)))
                }
            };
            if let Some((pick, lat)) = heard {
                self.nodes.node_mut(idx).overheard.record(pick, lat);
            }
            // Refill to M from the overheard list.
            scratch.tmp_pairs.clear();
            {
                let node = self.nodes.node(idx);
                for e in node.overheard.entries() {
                    if e.id.id != self_id
                        && self.nodes.resolve(e.id).is_some()
                        && !node.connected.contains(e.id)
                        && !(evict_on && self.faults.evicted(e.id.id))
                    {
                        scratch.tmp_pairs.push((e.id, e.latency_ms));
                    }
                }
            }
            // Unstable (allocation-free) sort: overheard entries have
            // unique ids, so the id tie-break makes the comparator total.
            scratch
                .tmp_pairs
                .sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            {
                let node = self.nodes.node_mut(idx);
                for pi in 0..scratch.tmp_pairs.len() {
                    let (cref, lat) = scratch.tmp_pairs[pi];
                    if node.connected.is_full() {
                        break;
                    }
                    node.connected.add(NeighborEntry {
                        id: cref,
                        latency_ms: lat,
                        recent_supply_kbps: 0.0,
                    });
                    partners_changed = true;
                }
            }
            // Replace a weak neighbour ("supplied little data") with an
            // overheard candidate. A starving node rewires immediately —
            // finding a better-provisioned neighbourhood is its only way
            // out; a healthy node only sheds neighbours that supply
            // nothing. Starving means *unmet demand*: inflow below the
            // playback rate while the exchange window still has holes. A
            // sated node (window fully buffered — e.g. a paused viewer)
            // pulls nothing by choice; treating its idle inflow as
            // starvation made it rewire every third round forever,
            // thrashing the overlay and touch-forcing it back into the
            // active set each time. Rate-limited: a node reconsiders its
            // weakest partnership at most every third round. Rewiring
            // every round under system stress destroys the supply
            // relationships it is trying to fix (every replacement resets
            // rate estimates and supplier history).
            let starving = {
                let node = self.nodes.node(idx);
                node.next_play.is_some_and(|anchor| {
                    (node.last_inflow as u64) < self.config.demand_per_round()
                        && (round as u64 + self_id).is_multiple_of(3)
                        && {
                            let (window_end, _) = exchange_window(
                                &self.config,
                                &node.buffer,
                                anchor,
                                self.newest_emitted,
                            );
                            window_end > anchor
                                && !node.buffer.has_range(anchor, window_end - anchor)
                        }
                })
            };
            if starving || round % 5 == 4 {
                let weak: Option<PeerRef> = {
                    let node = self.nodes.node(idx);
                    if !node.connected.is_full() {
                        None
                    } else {
                        node.connected
                            .weakest()
                            .filter(|w| {
                                (starving
                                    || w.recent_supply_kbps < 0.05 * self.config.segment_kbits)
                                    && w.id.id != self.source
                            })
                            .map(|w| w.id)
                    }
                };
                if let Some(w) = weak {
                    let replacement: Option<(PeerRef, f64)> = {
                        let node = self.nodes.node(idx);
                        node.overheard
                            .best_candidate(|c| {
                                c.id == self_id
                                    || c == w
                                    || self.nodes.resolve(c).is_none()
                                    || node.connected.contains(c)
                                    || (evict_on && self.faults.evicted(c.id))
                            })
                            .map(|e| (e.id, e.latency_ms))
                    };
                    if let Some((rref, lat)) = replacement {
                        let node = self.nodes.node_mut(idx);
                        node.connected.replace(
                            w,
                            NeighborEntry {
                                id: rref,
                                latency_ms: lat,
                                recent_supply_kbps: 0.0,
                            },
                        );
                        node.rate.forget(w);
                        partners_changed = true;
                        if starving {
                            self.obs_emit(
                                round,
                                EventKind::StarvationRewire,
                                self_id,
                                w.id,
                                "starving",
                            );
                        }
                    }
                }
            }
            if partners_changed {
                let birth = self.nodes.node(idx).birth;
                self.hot.touch(idx, birth, round);
            }
        }
    }

    /// Graceful leave: hand the VoD backups to the ring predecessor, tell
    /// the RP server, drop the node.
    fn graceful_leave(&mut self, id: DhtId) {
        let heir = self.dht.predecessor_of(id);
        if let Some(mut node) = self.nodes.remove_id(id) {
            if let Some(h) = heir.filter(|h| *h != id) {
                if let Some(heir_idx) = self.nodes.lookup(h) {
                    let heir_node = self.nodes.node_mut(heir_idx);
                    for seg in node.backup.drain() {
                        heir_node.backup.store_handover(seg);
                    }
                }
            }
        }
        self.rp.report_failure(id);
        self.dht.leave(id);
        self.obs_emit(self.next_round, EventKind::Leave, id, 0, "graceful");
    }

    /// Abrupt failure: the node just vanishes (no handover).
    fn abrupt_failure(&mut self, id: DhtId) {
        self.nodes.remove_id(id);
        self.rp.report_failure(id);
        self.dht.leave(id);
        self.obs_emit(self.next_round, EventKind::Leave, id, 0, "abrupt");
    }

    /// Crash failure (fault plane): the node goes silently dark. Unlike
    /// [`Self::abrupt_failure`], *nothing else is told* — the RP keeps
    /// the id allocated (so it is never reused), the DHT keeps routing
    /// through the stale entry until [`Self::repair_stale_routes`]
    /// evicts it on contact, and neighbours only notice on their next
    /// maintenance pass. Backups the node held are stranded.
    fn crash(&mut self, id: DhtId) {
        self.nodes.remove_id(id);
        self.faults.crashed_any = true;
        self.faults.counters.crashes += 1;
    }

    /// Steady-state crash injection: each alive non-source node crashes
    /// this round with probability `crash_rate`, drawn on the `"faults"`
    /// stream in deterministic id order.
    fn inject_crashes(&mut self) {
        let rate = self.faults.plan.crash_rate;
        if rate <= 0.0 {
            return;
        }
        let source = self.source;
        self.faults.victims.clear();
        for &id in &self.order_ids {
            if id != source && self.faults.rng.gen_bool(rate) {
                self.faults.victims.push(id);
            }
        }
        if self.faults.victims.is_empty() {
            return;
        }
        for vi in 0..self.faults.victims.len() {
            let id = self.faults.victims[vi];
            self.crash(id);
            self.obs_emit(self.next_round, EventKind::Crash, id, 0, "crash_rate");
        }
        self.rebuild_order();
    }

    /// Lazily repair stale DHT routing state: every crashed node a
    /// retrieval routed through or located is evicted from the routing
    /// tables on contact. Only crashes leave stale entries behind
    /// (leaves and failures already call `dht.leave`), so the scan is
    /// gated on any crash ever having happened.
    fn repair_stale_routes(&mut self, located: &[DhtId]) {
        for &l in located {
            if self.nodes.lookup(l).is_none() && self.dht.leave(l) {
                self.faults.counters.stale_repairs += 1;
            }
        }
    }

    /// Whether the fault plane swallows one data-path delivery. Only
    /// called while the plane is active.
    fn data_delivery_lost(&mut self, round: u32, supplier: DhtId, requester: DhtId) -> bool {
        let f = &mut self.faults;
        if f.partition_blocks(round, supplier, requester) {
            f.counters.data_losses += 1;
            return true;
        }
        let p = f.data_loss(round);
        if p > 0.0 && f.rng.gen_bool(p) {
            f.counters.data_losses += 1;
            return true;
        }
        false
    }

    /// What the fault plane does to one control-path fetch (DHT rescue
    /// download). Only called while the plane is active.
    fn control_fetch_fault(
        &mut self,
        round: u32,
        requester: DhtId,
        supplier: DhtId,
    ) -> ControlFault {
        let f = &mut self.faults;
        if f.partition_blocks(round, requester, supplier) {
            f.counters.control_losses += 1;
            return ControlFault::Lost;
        }
        let p = f.control_loss(round);
        if p > 0.0 && f.rng.gen_bool(p) {
            f.counters.control_losses += 1;
            return ControlFault::Lost;
        }
        if f.plan.delay_prob > 0.0 && f.rng.gen_bool(f.plan.delay_prob) {
            f.counters.delays += 1;
            return ControlFault::Delayed(f.plan.delay_ms);
        }
        ControlFault::None
    }

    /// Put a lost pull under recovery watch. Legacy policy has no
    /// recovery plane — the loss simply stands, exactly the gap the
    /// Legacy-vs-Adaptive chaos comparison measures.
    fn note_lost_pull(
        &mut self,
        round: u32,
        requester: DhtId,
        segment: SegmentId,
        supplier: Option<DhtId>,
    ) {
        let Some(policy) = self.config.policy.as_adaptive() else {
            return;
        };
        self.faults.pending.push(PendingRetry {
            requester,
            segment,
            supplier,
            lost_round: round,
            attempts: 0,
            next_check: round + policy.supplier_timeout_rounds,
            suspected: false,
        });
    }

    /// Step 7b: the recovery plane. Scans the pending lost pulls in
    /// arrival order (serial, so the `"faults"` draws are identical at
    /// any worker count): segments that arrived by other means are
    /// recovered; expired timeouts suspect and evict the dark supplier
    /// (failover) and re-issue the pull as a DHT rescue fetch with
    /// exponential backoff + jitter, bounded by `retry_max`.
    fn run_recovery_phase(
        &mut self,
        round: u32,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
    ) {
        // Suspected-supplier evictions expire.
        self.faults.dead_until.retain(|&(_, until)| until > round);
        if self.faults.pending.is_empty() {
            return;
        }
        let Some(policy) = self.config.policy.as_adaptive().copied() else {
            self.faults.pending.clear();
            return;
        };
        let mut kept = 0usize;
        for i in 0..self.faults.pending.len() {
            let mut e = self.faults.pending[i];
            let drop_entry = 'decide: {
                let Some(ridx) = self.nodes.lookup(e.requester) else {
                    // Requester gone: nothing left to recover.
                    break 'decide true;
                };
                {
                    let node = self.nodes.node(ridx);
                    if node.buffer.contains(e.segment) {
                        // Healed by gossip or an earlier retry.
                        self.faults.counters.recoveries += 1;
                        self.faults.counters.recovery_rounds += (round - e.lost_round) as u64;
                        break 'decide true;
                    }
                    if e.segment < node.buffer.head()
                        || node.next_play.is_some_and(|np| e.segment < np)
                    {
                        // Playback moved past the hole: moot.
                        break 'decide true;
                    }
                }
                if round < e.next_check {
                    break 'decide false;
                }
                // Timeout fired: the supplier has been dark for the full
                // window — suspect it once per lost pull.
                self.faults.counters.timeouts += 1;
                if let Some(sup) = e.supplier {
                    if !e.suspected {
                        e.suspected = true;
                        // Liveness probe before failover (the §4.1 ping
                        // idiom): a crashed supplier never answers; an
                        // alive one answers unless the probe itself is
                        // lost on the control path. Without the probe a
                        // loss burst mass-evicts the *alive* supply side
                        // for `evict_rounds` — the recovery plane then
                        // amplifies the burst into a supply collapse
                        // instead of damping it.
                        let dead = self.nodes.lookup(sup).is_none() || {
                            let p = self.faults.control_loss(round);
                            p > 0.0 && self.faults.rng.gen_bool(p)
                        };
                        if dead {
                            if !self.faults.evicted(sup) {
                                self.faults
                                    .dead_until
                                    .push((sup, round + policy.evict_rounds));
                            }
                            self.faults.counters.failovers += 1;
                            self.obs_emit(
                                round,
                                EventKind::SupplierFailover,
                                e.requester,
                                sup,
                                "dark_supplier",
                            );
                        }
                    }
                }
                if e.attempts >= policy.retry_max {
                    // Retry budget exhausted: give up, gossip may still
                    // heal the hole.
                    break 'decide true;
                }
                e.attempts += 1;
                self.faults.counters.retries += 1;
                self.obs_emit(
                    round,
                    EventKind::RetryBackoff,
                    e.requester,
                    e.segment,
                    "supplier_timeout",
                );
                if self.retry_fetch(round, ridx, e.requester, e.segment, scratch, traffic) {
                    self.faults.counters.recoveries += 1;
                    self.faults.counters.recovery_rounds += (round - e.lost_round) as u64;
                    self.obs_emit(
                        round,
                        EventKind::Rescue,
                        e.requester,
                        e.segment,
                        "recovery_retry",
                    );
                    break 'decide true;
                }
                let jitter = if policy.backoff_jitter_rounds > 0 {
                    self.faults.rng.gen_range(0..=policy.backoff_jitter_rounds)
                } else {
                    0
                };
                e.next_check = round
                    + policy.supplier_timeout_rounds
                    + policy.backoff_rounds(e.attempts)
                    + jitter;
                false
            };
            if !drop_entry {
                self.faults.pending[kept] = e;
                kept += 1;
            }
        }
        self.faults.pending.truncate(kept);
    }

    /// One recovery retry: a direct Algorithm-2 rescue fetch that shuns
    /// suppliers currently under eviction. Returns whether the segment
    /// arrived.
    fn retry_fetch(
        &mut self,
        round: u32,
        idx: NodeIdx,
        requester_id: DhtId,
        seg: SegmentId,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
    ) -> bool {
        let outcome = {
            let nodes = &self.nodes;
            let config = &self.config;
            let spent = &scratch.outbound_spent;
            let dead = &self.faults.dead_until;
            let ping = |n: DhtId| nodes.ping_of(n).unwrap_or(DEFAULT_PING_MS);
            let latency = |a: DhtId, b: DhtId| derive_latency(ping(a), ping(b));
            let has_backup = |n: DhtId, s: SegmentId| {
                nodes.lookup(n).is_some_and(|i| nodes.node(i).backup.has(s))
            };
            let available_rate = |n: DhtId| {
                // Failover: a supplier under eviction is treated as
                // having nothing to give, so selection moves to the
                // next-best replica holder.
                if dead.iter().any(|&(d, _)| d == n) {
                    return 0.0;
                }
                nodes
                    .lookup(n)
                    .map(|i| {
                        let cap = nodes
                            .node(i)
                            .bandwidth
                            .outbound_segments_per_sec(config.segment_kbits);
                        let used = spent.get(i.0 as usize).copied().unwrap_or(0.0);
                        (cap - used).max(0.0)
                    })
                    .unwrap_or(0.0)
            };
            let transfer_ms = config.segment_kbits / 450.0 * 1000.0;
            retrieve_one_into(
                &mut self.dht,
                requester_id,
                seg,
                &latency,
                &has_backup,
                &available_rate,
                config.replicas,
                transfer_ms,
                &mut scratch.retrieval,
            )
        };
        traffic.add(
            TrafficClass::PrefetchRouting,
            outcome.routing_messages as u64 * self.sizes.routing_message_bits,
        );
        if self.faults.crashed_any {
            self.repair_stale_routes(&scratch.retrieval.located);
        }
        let Some(supplier) = outcome.supplier else {
            // Last resort: no replica holds the segment, so retrying the
            // DHT lookup is futile — fall back to the origin when the
            // policy allows it.
            if self
                .config
                .policy
                .as_adaptive()
                .is_some_and(|p| p.source_rescue_cap > 0)
            {
                return self
                    .source_fetch(round, idx, requester_id, seg, scratch, traffic)
                    .is_some();
            }
            return false;
        };
        // The retry rides the control path too: it can be lost again
        // (the entry stays pending; delay is irrelevant at round
        // granularity — the segment still lands this round).
        if let ControlFault::Lost = self.control_fetch_fault(round, requester_id, supplier) {
            return false;
        }
        traffic.add(TrafficClass::PrefetchData, self.sizes.segment_bits);
        if let Some(sup_idx) = self.nodes.lookup(supplier) {
            scratch.add_spent(sup_idx, 1.0 / self.config.period_secs);
        }
        {
            let node = self.nodes.node_mut(idx);
            node.buffer.insert(seg);
            node.round_inflow += 1;
        }
        let successor = self.believed_successor(requester_id);
        self.nodes.node_mut(idx).backup.maybe_store(seg, successor);
        true
    }

    /// Step 4b (recovery plane): frontier push seeding. The source
    /// pushes up to `source_push` copies of each segment it emitted
    /// this round to deterministic ring-spread positions (the node
    /// closest clockwise to `hash(segment, i)`, the same
    /// position-hashing idea as the §4.2 backup placement). Charged to
    /// the source's shared outbound ledger and subject to data-path
    /// loss, like any other data transfer. Returns the copies that
    /// arrived (they count as gossip-plane deliveries). Serial and
    /// RNG-free, so it is bit-identical at any worker count; with the
    /// knob at 0 (the default) it is a single branch.
    fn push_frontier(
        &mut self,
        round: u32,
        first_new: SegmentId,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
    ) -> u64 {
        let fanout = self
            .config
            .policy
            .as_adaptive()
            .map_or(0, |p| p.source_push);
        if fanout == 0 {
            return 0;
        }
        let src_idx = self.source_idx;
        let space = self.dht.space().size();
        let period = self.config.period_secs;
        let cap = self
            .nodes
            .node(src_idx)
            .bandwidth
            .outbound_segments_per_sec(self.config.segment_kbits);
        let mut pushed = 0u64;
        for seg in first_new..=self.newest_emitted {
            for i in 0..fanout as u64 {
                let used = scratch
                    .outbound_spent
                    .get(src_idx.0 as usize)
                    .copied()
                    .unwrap_or(0.0);
                if cap - used <= 0.0 {
                    // The origin's uplink is spent: seeding yields to the
                    // pull traffic it shares the ledger with.
                    return pushed;
                }
                let pos = cs_sim::splitmix64(seg.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i) % space;
                let k = match self.order_ids.binary_search(&pos) {
                    Ok(k) => k,
                    Err(k) => k % self.order_ids.len(),
                };
                let id = self.order_ids[k];
                if id == self.source || self.nodes.node(self.order_idx[k]).buffer.contains(seg) {
                    continue;
                }
                let idx = self.order_idx[k];
                // The push is sent (budget and bits spent) whether or
                // not the fault plane swallows it in flight.
                scratch.add_spent(src_idx, 1.0 / period);
                traffic.add(TrafficClass::Data, self.sizes.segment_bits);
                if self.faults.active && self.data_delivery_lost(round, self.source, id) {
                    continue;
                }
                {
                    let node = self.nodes.node_mut(idx);
                    node.buffer.insert(seg);
                    node.round_inflow += 1;
                }
                let successor = self.believed_successor(id);
                self.nodes.node_mut(idx).backup.maybe_store(seg, successor);
                pushed += 1;
            }
        }
        pushed
    }

    /// Step 4c (joiner integration): runway seeding for freshly-admitted
    /// nodes — the frontier push extended to joiners. Every node
    /// admitted *this* round gets up to `join_seed` segments of its
    /// initial runway pushed straight from the source, starting at its
    /// adopted play anchor, charged to the same shared outbound ledger
    /// as every other source transfer (a saturated uplink seeds less —
    /// a join storm cannot mint bandwidth) and subject to data-path
    /// loss. Without it a joiner pulls its whole catch-up window from
    /// neighbours who are themselves at budget, and under 5 %-per-round
    /// churn that steady catch-up tax is what drags the swarm below the
    /// paper's fig-8 continuity. Serial and RNG-free; with the knob at
    /// 0 (the default) it is a single branch. The initial population
    /// (spawn round 0) is excluded by the round-0 early out.
    fn seed_joiners(
        &mut self,
        round: u32,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
    ) -> u64 {
        let seed = self.config.policy.as_adaptive().map_or(0, |p| p.join_seed) as u64;
        if seed == 0 || round == 0 {
            return 0;
        }
        let src_idx = self.source_idx;
        let period = self.config.period_secs;
        let cap = self
            .nodes
            .node(src_idx)
            .bandwidth
            .outbound_segments_per_sec(self.config.segment_kbits);
        let mut pushed = 0u64;
        for k in 0..self.order_idx.len() {
            let idx = self.order_idx[k];
            let (id, anchor) = {
                let node = self.nodes.node(idx);
                if node.is_source || node.spawn_round != round {
                    continue;
                }
                // A joiner that adopted no play point (its base was not
                // playing and holds nothing) has no runway to seed yet;
                // the regular startup path covers it.
                let Some(anchor) = node.next_play.or_else(|| node.buffer.iter().next()) else {
                    continue;
                };
                (node.id, anchor)
            };
            for seg in anchor..(anchor + seed).min(self.newest_emitted + 1) {
                let used = scratch
                    .outbound_spent
                    .get(src_idx.0 as usize)
                    .copied()
                    .unwrap_or(0.0);
                if cap - used <= 0.0 {
                    // The origin's uplink is spent: seeding yields to
                    // the pull traffic it shares the ledger with.
                    return pushed;
                }
                if self.nodes.node(idx).buffer.contains(seg) {
                    continue;
                }
                scratch.add_spent(src_idx, 1.0 / period);
                traffic.add(TrafficClass::Data, self.sizes.segment_bits);
                if self.faults.active && self.data_delivery_lost(round, self.source, id) {
                    continue;
                }
                {
                    let node = self.nodes.node_mut(idx);
                    node.buffer.insert(seg);
                    node.round_inflow += 1;
                }
                let successor = self.believed_successor(id);
                self.nodes.node_mut(idx).backup.maybe_store(seg, successor);
                pushed += 1;
            }
        }
        pushed
    }

    /// Origin-fallback fetch (recovery plane): every replica lookup for
    /// `seg` came up empty or dark, so the §4.3 rescue cannot succeed no
    /// matter how often it retries — but the source always holds the
    /// full stream. A direct unicast fetch to the bootstrap address (no
    /// DHT routing), charged against the source's shared outbound-spend
    /// ledger: when the origin's uplink is spent, the fallback fails
    /// like any saturated supplier, so a desperate swarm cannot mint
    /// bandwidth. The point is not to serve the swarm from the origin —
    /// one uplink cannot — but to re-seed a broken distribution wave
    /// with copies the gossip plane then re-amplifies. Rides the
    /// control path (the fault plane can swallow or delay it). Returns
    /// the eq. 6-style fetch time when the segment arrived.
    fn source_fetch(
        &mut self,
        round: u32,
        idx: NodeIdx,
        requester_id: DhtId,
        seg: SegmentId,
        scratch: &mut RoundScratch,
        traffic: &mut TrafficCounter,
    ) -> Option<f64> {
        if requester_id == self.source || seg > self.newest_emitted {
            return None;
        }
        let src_idx = self.source_idx;
        {
            let cap = self
                .nodes
                .node(src_idx)
                .bandwidth
                .outbound_segments_per_sec(self.config.segment_kbits);
            let used = scratch
                .outbound_spent
                .get(src_idx.0 as usize)
                .copied()
                .unwrap_or(0.0);
            if cap - used <= 0.0 {
                return None;
            }
        }
        // One request message to a known address, then the payload.
        traffic.add(
            TrafficClass::PrefetchRouting,
            self.sizes.routing_message_bits,
        );
        let mut extra_delay_ms = 0.0;
        if self.faults.active {
            match self.control_fetch_fault(round, requester_id, self.source) {
                ControlFault::Lost => return None,
                ControlFault::Delayed(ms) => extra_delay_ms = ms,
                ControlFault::None => {}
            }
        }
        self.faults.counters.failovers += 1;
        traffic.add(TrafficClass::PrefetchData, self.sizes.segment_bits);
        scratch.add_spent(src_idx, 1.0 / self.config.period_secs);
        let rtt = {
            let req_ping = self.nodes.node(idx).ping_ms;
            let src_ping = self.nodes.node(src_idx).ping_ms;
            derive_latency(req_ping, src_ping) * 2.0
        };
        let transfer_ms = self.config.segment_kbits / 450.0 * 1000.0;
        {
            let node = self.nodes.node_mut(idx);
            node.buffer.insert(seg);
            node.round_inflow += 1;
        }
        let successor = self.believed_successor(requester_id);
        self.nodes.node_mut(idx).backup.maybe_store(seg, successor);
        self.obs_emit(
            round,
            EventKind::OriginFallback,
            requester_id,
            seg,
            "replicas_exhausted",
        );
        Some(rtt + transfer_ms + extra_delay_ms)
    }

    /// One churn join via the RP server (§4.1 protocol).
    fn join_one(&mut self, round: u32) -> bool {
        // A bootstrap outage turns arrivals away before any `"join"`
        // draw (the RP is the only way in).
        if round < self.faults.rp_outage_until {
            return false;
        }
        let id = self.rp.assign_id(&mut self.join_rng);
        let ping =
            self.joiner_pings[(round as usize * 31 + self.nodes.len()) % self.joiner_pings.len()];
        let bandwidth = self.bw_assigner.sample_node(&mut self.join_rng);
        self.admit_joiner(id, ping, bandwidth, round, false)
    }

    /// The §4.1 admission protocol, shared by churn joins and scenario
    /// [`SystemEvent::Join`]s: PING the RP's close-ID list, notify the
    /// contacts, adopt a neighbour view, enter the DHT. `scenario`
    /// selects which RNG stream the DHT join consumes — churn joins keep
    /// drawing from the `"join"` stream exactly as before, scenario
    /// joins stay on their own stream.
    fn admit_joiner(
        &mut self,
        id: DhtId,
        ping: f64,
        bandwidth: NodeBandwidth,
        round: u32,
        scenario: bool,
    ) -> bool {
        let t_fetch = cs_analysis::t_fetch(self.nodes.len().max(2) as u64, self.config.t_hop_secs);
        let mut node = Self::make_node(
            &self.config,
            self.space,
            id,
            ping,
            bandwidth,
            t_fetch,
            false,
        );
        node.spawn_round = round;

        // PING the close-ID list, adopt the nearest alive node's view.
        // (Latency to the joiner uses the 50 ms default until the node is
        // inserted — identical to the id-keyed implementation.)
        let candidates = self.rp.close_list(id, 4);
        let mut alive: Vec<(f64, DhtId)> = Vec::new();
        for c in candidates {
            if self.nodes.lookup(c).is_some() {
                alive.push((self.latency_ids(id, c), c));
            } else {
                self.rp.report_failure(c);
            }
        }
        alive.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let Some(&(_, base)) = alive.first() else {
            // Nobody reachable; abort the join (id rolled back).
            self.rp.report_failure(id);
            return false;
        };

        // "notifies B, C, D his joining": the notified nodes file the
        // newcomer — into a free connected slot if they have one, and into
        // their overheard list either way. Without this, nobody ever
        // points at joiners, in-degree concentrates on long-lived nodes,
        // and the swarm's aggregate upload capacity decays under churn.
        // (The joiner's ref resolves through the id map once inserted.)
        let new_ref = PeerRef {
            id,
            slot: INVALID_SLOT,
        };
        for &(lat, c) in &alive {
            if let Some(cidx) = self.nodes.lookup(c) {
                let peer = self.nodes.node_mut(cidx);
                peer.overheard.record(new_ref, lat);
                if !peer.connected.is_full() {
                    peer.connected.add(NeighborEntry {
                        id: new_ref,
                        latency_ms: lat,
                        recent_supply_kbps: 0.0,
                    });
                }
                let birth = peer.birth;
                // Conservative touch: the contact's partner view changed.
                self.hot.touch(cidx, birth, round);
            }
        }

        // Adopt: the alive close-ID candidates first (they are uniform
        // over the membership, which keeps the overlay's expansion intact
        // across join generations — adopting only the base's neighbours
        // degenerates the graph into clusters of clones), then the base
        // itself and a couple of its neighbours, then overheard fill.
        for &(lat, c) in &alive {
            if c != id && !node.connected.is_full() {
                node.connected.add(NeighborEntry {
                    id: self.nodes.make_ref(c),
                    latency_ms: lat,
                    recent_supply_kbps: 0.0,
                });
            }
        }

        // Ring-spread sponsor adoption (joiner integration): before
        // inheriting the base's view, adopt up to `join_sponsors` peers
        // at deterministic ring-spread positions — the same
        // position-hashing idea as the frontier push — and notify them,
        // exactly like the close contacts. Sponsors give the joiner
        // suppliers across the whole ring (the base's view is clustered
        // near the base), and give the *sponsors* a pointer at the
        // joiner, so in-degree under sustained churn spreads instead of
        // concentrating in the RP close neighbourhood. RNG-free and
        // unreachable with the knob at 0 (the default).
        let sponsors = self
            .config
            .policy
            .as_adaptive()
            .map_or(0, |p| p.join_sponsors);
        if sponsors > 0 && !self.order_ids.is_empty() {
            let space = self.dht.space().size();
            for i in 0..sponsors as u64 {
                let pos = cs_sim::splitmix64(id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i) % space;
                let k = match self.order_ids.binary_search(&pos) {
                    Ok(k) => k,
                    Err(k) => k % self.order_ids.len(),
                };
                let sid = self.order_ids[k];
                // The order arrays are rebuilt only after the whole
                // churn batch, so mid-batch entries can be stale: skip
                // departed sponsors (and never sponsor through the
                // source — the point is to bypass its neighbourhood).
                if sid == id || sid == self.source {
                    continue;
                }
                let Some(sidx) = self.nodes.lookup(sid) else {
                    continue;
                };
                let lat = self.latency_ids(id, sid);
                {
                    let sponsor = self.nodes.node_mut(sidx);
                    sponsor.overheard.record(new_ref, lat);
                    if !sponsor.connected.is_full() {
                        sponsor.connected.add(NeighborEntry {
                            id: new_ref,
                            latency_ms: lat,
                            recent_supply_kbps: 0.0,
                        });
                    }
                    let birth = sponsor.birth;
                    self.hot.touch(sidx, birth, round);
                }
                let sref = self.nodes.make_ref(sid);
                if !node.connected.is_full() {
                    node.connected.add(NeighborEntry {
                        id: sref,
                        latency_ms: lat,
                        recent_supply_kbps: 0.0,
                    });
                } else {
                    node.overheard.record(sref, lat);
                }
            }
        }
        {
            let base_idx = self.nodes.lookup(base).expect("base is alive");
            let base_node = self.nodes.node(base_idx);
            let adopt_connected: Vec<PeerRef> = base_node.connected.ids().collect();
            let adopt_overheard: Vec<PeerRef> =
                base_node.overheard.entries().map(|e| e.id).collect();
            // Follow the base's play point only if the base is actually
            // playing; otherwise the joiner buffers up and starts like any
            // fresh node. (Following a synthetic frontier position pins
            // the joiner at the emission edge where nothing is available
            // yet — it would never receive anything.)
            let follow_play = base_node.next_play;
            for nref in adopt_connected {
                if nref.id != id && !node.connected.is_full() {
                    node.connected.add(NeighborEntry {
                        id: nref,
                        latency_ms: self.latency_ids(id, nref.id),
                        recent_supply_kbps: 0.0,
                    });
                }
            }
            if !node.connected.is_full() {
                node.connected.add(NeighborEntry {
                    id: self.nodes.make_ref(base),
                    latency_ms: self.latency_ids(id, base),
                    recent_supply_kbps: 0.0,
                });
            }
            for nref in adopt_overheard {
                if nref.id != id {
                    node.overheard.record(nref, self.latency_ids(id, nref.id));
                }
            }
            // "A new joining node ... starts its media playback by
            // following its neighbors' current steps."
            if let Some(fp) = follow_play {
                node.buffer.slide_to(fp);
                node.next_play = Some(fp);
            }
        }

        let new_idx = self.nodes.insert(node);
        // Force the joiner active for its first round. The fresh arena
        // birth also overwrites whatever stamp a departed previous
        // occupant of this slot left behind — a same-round leave→join
        // can neither inherit nor be robbed of a touch (the birth guard
        // pins this; see the slot-reuse property test).
        let new_birth = self.nodes.node(new_idx).birth;
        self.hot.touch(new_idx, new_birth, round);
        // The DHT join closure sees the joiner's real ping (it is in the
        // arena now), like the `pings` snapshot the id-keyed version
        // chained the joiner into.
        let rng = if scenario {
            &mut self.scenario_rng
        } else {
            &mut self.join_rng
        };
        let nodes = &self.nodes;
        let latency = |a: DhtId, b: DhtId| {
            let ping = |n: DhtId| nodes.ping_of(n).unwrap_or(DEFAULT_PING_MS);
            derive_latency(ping(a), ping(b))
        };
        if self.dht.join(id, &latency, rng).is_err() {
            // The id collides with the stale DHT entry of a *crashed*
            // node: a joiner's close-list ping found it dead and told
            // the RP ("tells the RP server E's failure"), the RP freed
            // and later reassigned the id, but nobody cleaned the DHT —
            // crashes leave no graceful handoff. Only crashes create
            // this split-brain (every other departure path removes the
            // node from the RP and the DHT together), so repair the
            // stale entry lazily and retry; `join` fails before any RNG
            // draw, keeping the retry deterministic.
            debug_assert!(self.faults.crashed_any, "collision without any crash");
            let removed = self.dht.leave(id);
            debug_assert!(removed, "IdTaken id missing from the DHT");
            self.faults.counters.stale_repairs += 1;
            self.dht
                .join(id, &latency, rng)
                .expect("RP-assigned ids are unique once the stale entry is gone");
        }
        self.obs_emit(
            round,
            EventKind::JoinAdmitted,
            id,
            0,
            if scenario { "scenario" } else { "churn" },
        );
        true
    }

    /// The `CS_DEBUG_ROUNDS` diagnostic dump (development aid). Mirrors
    /// the *active* policy's urgent-line parameters (deficit-scaled
    /// cap/threshold/horizon under Adaptive), so the counters report the
    /// decisions the round actually made.
    fn debug_round_report(&self, round: u32) {
        let mut not_triggered = 0u32;
        let mut too_many = 0u32;
        let mut fetch = 0u32;
        let mut no_anchor = 0u32;
        let p = self.config.demand_per_round();
        let mut missed = Vec::new();
        for &idx in &self.order_idx {
            let n = self.nodes.node(idx);
            if n.is_source {
                continue;
            }
            let Some(anchor) = n.next_play.or_else(|| n.buffer.iter().next()) else {
                no_anchor += 1;
                continue;
            };
            let (cap, threshold, horizon) =
                rescue_params(&self.config, &n.buffer, anchor, p, round, n.spawn_round);
            match n.urgent.decide_scaled_into(
                &n.buffer,
                anchor,
                self.newest_emitted,
                |_| false,
                &mut missed,
                cap,
                threshold,
                horizon,
            ) {
                PrefetchCheck::NotTriggered => not_triggered += 1,
                PrefetchCheck::TooMany(_) => too_many += 1,
                PrefetchCheck::Fetch => fetch += 1,
            }
        }
        let mean_inflow: f64 = self
            .order_idx
            .iter()
            .map(|&i| self.nodes.node(i).last_inflow as f64)
            .sum::<f64>()
            / self.order_idx.len().max(1) as f64;
        let mut est_inflow = 0.0;
        let mut est_n = 0u32;
        let mut join_inflow = 0.0;
        let mut join_n = 0u32;
        let mut est_cands = 0.0;
        let mut join_cands = 0.0;
        for &idx in &self.order_idx {
            let n = self.nodes.node(idx);
            if n.is_source {
                continue;
            }
            let missing_window = n
                .next_play
                .map(|np| {
                    (np..(np + 100).min(self.newest_emitted + 1))
                        .filter(|&sg| !n.buffer.contains(sg))
                        .count() as f64
                })
                .unwrap_or(-1.0);
            if round >= n.spawn_round + 6 {
                est_inflow += n.last_inflow as f64;
                est_cands += missing_window;
                est_n += 1;
            } else {
                join_inflow += n.last_inflow as f64;
                join_cands += missing_window;
                join_n += 1;
            }
        }
        eprintln!(
            "DBG round {round}: notrig={not_triggered} toomany={too_many} fetch={fetch} noanchor={no_anchor} mean_inflow={mean_inflow:.1} est(n={est_n} in={:.1} miss={:.0}) join(n={join_n} in={:.1} miss={:.0})",
            est_inflow / est_n.max(1) as f64,
            est_cands / est_n.max(1) as f64,
            join_inflow / join_n.max(1) as f64,
            join_cands / join_n.max(1) as f64,
        );
    }
}

/// A convenience shuffle used by examples and benches: pick `count`
/// distinct alive ids deterministically.
pub fn sample_ids(sim_order: &[DhtId], count: usize, rng: &mut SimRng) -> Vec<DhtId> {
    let mut v = sim_order.to_vec();
    v.shuffle(rng);
    v.truncate(count);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(scheduler: SchedulerKind, prefetch: bool, seed: u64) -> SystemConfig {
        SystemConfig {
            nodes: 40,
            rounds: 18,
            startup_segments: 30,
            scheduler,
            prefetch_enabled: prefetch,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn run_produces_one_record_per_round() {
        let report = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, true, 1)).run();
        assert_eq!(report.rounds.len(), 18);
        for (i, r) in report.rounds.iter().enumerate() {
            assert_eq!(r.round as usize, i);
            assert!((r.time_secs - (i as f64 + 1.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn continuity_ramps_up() {
        let report = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, true, 2)).run();
        let first = report.rounds.first().unwrap().continuity;
        let last = report.rounds.last().unwrap().continuity;
        assert!(last > first, "continuity should rise: {first} → {last}");
        assert!(
            last > 0.5,
            "a 40-node static net should mostly play: {last}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, true, 3)).run();
        let b = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, true, 3)).run();
        assert_eq!(a.rounds, b.rounds);
        let c = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, true, 4)).run();
        assert_ne!(a.rounds, c.rounds);
    }

    #[test]
    fn random_scheduler_is_deterministic_too() {
        // The candidate sets are built in ascending segment order (not
        // hash-map order), so even the shuffling scheduler reproduces.
        let a = SystemSim::new(tiny(SchedulerKind::Random, false, 21)).run();
        let b = SystemSim::new(tiny(SchedulerKind::Random, false, 21)).run();
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn coolstreaming_never_prefetches() {
        let report = SystemSim::new(tiny(SchedulerKind::CoolStreaming, false, 5)).run();
        for r in &report.rounds {
            assert_eq!(r.prefetch_attempts, 0);
            assert_eq!(r.traffic.bits(TrafficClass::PrefetchData), 0);
            assert_eq!(r.traffic.bits(TrafficClass::PrefetchRouting), 0);
        }
    }

    #[test]
    fn continustreaming_prefetches_something() {
        let report = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, true, 6)).run();
        let attempts: u32 = report.rounds.iter().map(|r| r.prefetch_attempts).sum();
        assert!(attempts > 0, "some pre-fetch should trigger in 12 rounds");
    }

    #[test]
    fn control_overhead_is_small_and_present() {
        let report = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, true, 7)).run();
        let oh = report.summary.control_overhead;
        assert!(oh > 0.0, "buffer maps are exchanged");
        assert!(oh < 0.1, "control overhead {oh} should be small");
    }

    #[test]
    fn dynamic_churn_changes_membership() {
        let cfg = tiny(SchedulerKind::ContinuStreaming, true, 8).with_dynamic_churn();
        let report = SystemSim::new(cfg).run();
        let joins: usize = report.rounds.iter().map(|r| r.joins).sum();
        let leaves: usize = report.rounds.iter().map(|r| r.leaves).sum();
        assert!(joins > 0, "some joins over 12 rounds of 5% churn");
        assert!(leaves > 0, "some leaves over 12 rounds of 5% churn");
    }

    #[test]
    fn alive_count_tracks_churn() {
        let cfg = SystemConfig {
            nodes: 60,
            rounds: 10,
            churn: cs_overlay::ChurnConfig {
                leave_fraction: 0.2,
                join_fraction: 0.0,
                graceful_fraction: 0.5,
            },
            ..tiny(SchedulerKind::ContinuStreaming, true, 9)
        };
        let report = SystemSim::new(cfg).run();
        let first = report.rounds.first().unwrap().alive;
        let last = report.rounds.last().unwrap().alive;
        assert!(last < first, "pure leaving must shrink the overlay");
    }

    #[test]
    fn source_always_survives() {
        let cfg = SystemConfig {
            nodes: 30,
            rounds: 15,
            churn: cs_overlay::ChurnConfig {
                leave_fraction: 0.3,
                join_fraction: 0.0,
                graceful_fraction: 0.0,
            },
            ..tiny(SchedulerKind::ContinuStreaming, true, 10)
        };
        let sim = SystemSim::new(cfg);
        let source = sim.source;
        let report = sim.run();
        // The run completes every round — the source kept emitting.
        assert_eq!(report.rounds.len(), 15);
        let _ = source;
    }

    #[test]
    fn greedy_policy_variants_run() {
        for policy in [
            PriorityPolicy::UrgencyOnly,
            PriorityPolicy::RarityOnly,
            PriorityPolicy::RarestFirst,
        ] {
            let cfg = tiny(SchedulerKind::GreedyWithPolicy(policy), true, 11);
            let report = SystemSim::new(cfg).run();
            assert_eq!(report.rounds.len(), 18);
        }
    }

    #[test]
    fn random_scheduler_runs_and_underperforms_eventually() {
        let rand_report = SystemSim::new(tiny(SchedulerKind::Random, false, 12)).run();
        let cont_report = SystemSim::new(tiny(SchedulerKind::ContinuStreaming, true, 12)).run();
        assert!(
            cont_report.summary.stable_continuity >= rand_report.summary.stable_continuity,
            "ContinuStreaming ({}) should not lose to random ({})",
            cont_report.summary.stable_continuity,
            rand_report.summary.stable_continuity
        );
    }

    #[test]
    fn arena_reuses_slots_without_aliasing() {
        // Drive heavy churn and verify the slot-reuse invariants the hot
        // path relies on: ids resolve to nodes carrying that id, and the
        // arena's id map matches the occupied slots exactly.
        let cfg = SystemConfig {
            nodes: 50,
            rounds: 25,
            churn: cs_overlay::ChurnConfig {
                leave_fraction: 0.15,
                join_fraction: 0.15,
                graceful_fraction: 0.5,
            },
            ..tiny(SchedulerKind::ContinuStreaming, true, 14)
        };
        let mut sim = SystemSim::new(cfg);
        for round in 0..25 {
            sim.debug_step(round);
            let occupied: usize = sim.nodes.slots.iter().filter(|s| s.is_some()).count();
            assert_eq!(occupied, sim.nodes.by_id.len(), "round {round}");
            for (&id, &slot) in &sim.nodes.by_id {
                let node = sim.nodes.slots[slot as usize]
                    .as_ref()
                    .expect("mapped slot occupied");
                assert_eq!(node.id, id, "round {round}: slot/id mismatch");
                let r = sim.nodes.make_ref(id);
                assert_eq!(sim.nodes.resolve(r), Some(NodeIdx(slot)));
            }
            assert!(sim.nodes.lookup(sim.source).is_some(), "source immortal");
        }
    }
}
