//! A whole DHT overlay: every node's peer table plus ring membership.
//!
//! This is the substrate for the Figure 3 experiment and for the
//! on-demand retrieval path of the full system. It deliberately stays
//! *structural*: latencies are supplied by the caller (derived from trace
//! ping times in the real experiments), and timing/byte accounting happens
//! in the layers above.
//!
//! ## Data layout: the node arena
//!
//! Node state lives in a dense arena (`Vec<Option<DhtNodeState>>` + free
//! list) addressed by [`DhtIdx`] slot handles, mirroring the node arena of
//! the full-system simulator. Ring membership is a sorted `Vec<DhtId>`
//! (binary-searched by `responsible_of`/`successor_of`/`predecessor_of`),
//! and the single `DhtId → DhtIdx` map (an [`IdMap`], hashed by the
//! deterministic [`IdHasher`](crate::IdHasher) rather than SipHash) is
//! consulted only at the overlay boundary — inside the routing loop every
//! hop moves slot-to-slot through the slot hints cached in
//! [`DhtPeerEntry`]. Every decision (greedy next
//! hop, tie-breaks, table replacement, RNG consumption in `build`/`join`)
//! is keyed on `DhtId` exactly as in the `BTreeMap`-keyed implementation
//! this replaced, so routes are bit-identical (pinned by
//! `tests/dht_routing.rs`).

use rand::seq::SliceRandom;
use rand::Rng;

use cs_sim::SimRng;

use crate::id::{DhtId, IdMap, IdSpace};
use crate::peers::{DhtPeerTable, NO_SLOT};
use crate::placement::ResponsibilityRange;

/// Dense handle into the DHT node arena. Plain slot index — the free
/// list reuses slots across churn, so a bare `DhtIdx` is only meaningful
/// while the node it was resolved for is alive; longer-lived references
/// carry the `DhtId` and re-resolve at the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DhtIdx(pub(crate) u32);

impl DhtIdx {
    /// The raw slot index (for parallel bookkeeping structures).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-node DHT state.
#[derive(Debug, Clone)]
pub struct DhtNodeState {
    /// The node's level-constrained peer table.
    pub peers: DhtPeerTable,
}

/// Errors joining a node into the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinError {
    /// The ID is already taken.
    IdTaken(DhtId),
    /// The ID does not fit the network's ID space.
    OutOfSpace(DhtId),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::IdTaken(id) => write!(f, "DHT id {id} is already taken"),
            JoinError::OutOfSpace(id) => write!(f, "DHT id {id} outside the ID space"),
        }
    }
}

impl std::error::Error for JoinError {}

/// How many candidates per level the table-builder samples before keeping
/// the lowest-latency one. Mirrors the paper's "much freedom in choosing
/// its DHT peers": any in-range node is legal, we just prefer nearby ones.
const CANDIDATES_PER_LEVEL: usize = 3;

/// The DHT overlay network.
#[derive(Debug, Clone)]
pub struct DhtNetwork {
    space: IdSpace,
    /// The node arena: `slots[i]` holds the node whose handle is
    /// `DhtIdx(i)`, `None` for vacant slots awaiting reuse.
    slots: Vec<Option<DhtNodeState>>,
    /// Vacant slot indices, reused LIFO by `join`.
    free: Vec<u32>,
    /// The boundary map: live id → occupied slot.
    by_id: IdMap<DhtId, u32>,
    /// Live ids in ring (ascending) order; binary-searched by the
    /// ring-geometry queries and indexed directly by `random_id`.
    ring: Vec<DhtId>,
}

impl DhtNetwork {
    /// An empty network over the given ID space.
    pub fn new(space: IdSpace) -> Self {
        DhtNetwork {
            space,
            slots: Vec::new(),
            free: Vec::new(),
            by_id: IdMap::default(),
            ring: Vec::new(),
        }
    }

    /// Build a network over `ids`, populating every node's peer table from
    /// the live membership: for each level, sample a few in-range
    /// candidates and keep the lowest-latency one.
    ///
    /// # Panics
    /// If `ids` contains duplicates or out-of-space values.
    pub fn build(
        space: IdSpace,
        ids: &[DhtId],
        latency_ms: &impl Fn(DhtId, DhtId) -> f64,
        rng: &mut SimRng,
    ) -> Self {
        let mut net = DhtNetwork::new(space);
        net.slots.reserve(ids.len());
        net.by_id.reserve(ids.len());
        for &id in ids {
            assert!(space.contains(id), "id {id} outside the ID space");
            let slot = net.slots.len() as u32;
            net.slots.push(Some(DhtNodeState {
                peers: DhtPeerTable::new(space, id),
            }));
            let prev = net.by_id.insert(id, slot);
            assert!(prev.is_none(), "duplicate id {id}");
        }
        net.ring = ids.to_vec();
        net.ring.sort_unstable();
        // Tables are built in ring (ascending id) order, like the
        // id-keyed implementation iterated its sorted key set.
        let sorted = net.ring.clone();
        for &id in &sorted {
            let table = net.build_table(id, &sorted, latency_ms, rng);
            let slot = net.by_id[&id];
            net.slots[slot as usize]
                .as_mut()
                .expect("just inserted")
                .peers = table;
        }
        net
    }

    fn build_table(
        &self,
        owner: DhtId,
        sorted_ids: &[DhtId],
        latency_ms: &impl Fn(DhtId, DhtId) -> f64,
        rng: &mut SimRng,
    ) -> DhtPeerTable {
        let mut table = DhtPeerTable::new(self.space, owner);
        for level in 1..=self.space.bits() {
            let (from, to) = self.space.level_interval(owner, level);
            let view = interval_view(self.space, sorted_ids, from, to, owner);
            let len = view.len();
            if len == 0 {
                continue;
            }
            // Emulates `in_range.choose_multiple(rng, amount)` — same
            // draws, same picks, same order — without materialising the
            // interval (the top level alone spans half the ring, which
            // made table construction O(N) per node, O(N²) per build).
            let amount = CANDIDATES_PER_LEVEL.min(len);
            let mut disp = [(usize::MAX, 0usize); 2 * CANDIDATES_PER_LEVEL];
            let mut nd = 0usize;
            let idx_at = |disp: &[(usize, usize)], nd: usize, x: usize| {
                disp[..nd]
                    .iter()
                    .find(|d| d.0 == x)
                    .map(|d| d.1)
                    .unwrap_or(x)
            };
            for k in 0..amount {
                // The partial Fisher–Yates of the shim's choose_multiple,
                // over a virtual identity index vector: `disp` records
                // the handful of displaced entries.
                let j = rng.gen_range(k..len);
                let vk = idx_at(&disp, nd, k);
                let vj = idx_at(&disp, nd, j);
                for (x, v) in [(k, vj), (j, vk)] {
                    match disp[..nd].iter_mut().find(|d| d.0 == x) {
                        Some(d) => d.1 = v,
                        None => {
                            disp[nd] = (x, v);
                            nd += 1;
                        }
                    }
                }
                let cand = view.get(vj);
                let hint = self.by_id.get(&cand).copied().unwrap_or(NO_SLOT);
                table.offer_hinted(cand, latency_ms(owner, cand), hint);
            }
        }
        table
    }

    /// The ID space.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Number of arena slots ever allocated (occupied + vacant).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of vacant slots awaiting reuse.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// True when no nodes are present.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Whether `id` is a live node.
    pub fn contains(&self, id: DhtId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// Iterate over live node IDs in ring order.
    pub fn ids(&self) -> impl Iterator<Item = DhtId> + '_ {
        self.ring.iter().copied()
    }

    /// The arena handle of a live node (the boundary id → slot step).
    pub fn lookup(&self, id: DhtId) -> Option<DhtIdx> {
        self.by_id.get(&id).map(|&s| DhtIdx(s))
    }

    /// The id occupying an arena slot, if it is live.
    pub fn id_at(&self, idx: DhtIdx) -> Option<DhtId> {
        self.slots
            .get(idx.index())
            .and_then(|s| s.as_ref())
            .map(|n| n.peers.owner())
    }

    /// Borrow a node's state by arena handle.
    pub fn node_at(&self, idx: DhtIdx) -> Option<&DhtNodeState> {
        self.slots.get(idx.index()).and_then(|s| s.as_ref())
    }

    /// Borrow a node's state.
    pub fn node(&self, id: DhtId) -> Option<&DhtNodeState> {
        self.by_id.get(&id).map(|&s| {
            self.slots[s as usize]
                .as_ref()
                .expect("mapped slot occupied")
        })
    }

    /// Mutably borrow a node's state.
    pub fn node_mut(&mut self, id: DhtId) -> Option<&mut DhtNodeState> {
        match self.by_id.get(&id) {
            Some(&s) => self.slots[s as usize].as_mut(),
            None => None,
        }
    }

    /// Direct slot access for the routing hot loop (slot must be live).
    #[inline]
    pub(crate) fn state_at(&self, slot: u32) -> &DhtNodeState {
        self.slots[slot as usize]
            .as_ref()
            .expect("routing slot is live")
    }

    /// Mutable direct slot access for the routing hot loop.
    #[inline]
    pub(crate) fn state_at_mut(&mut self, slot: u32) -> &mut DhtNodeState {
        self.slots[slot as usize]
            .as_mut()
            .expect("routing slot is live")
    }

    /// Resolve an id to its current slot: fast path verifies the cached
    /// hint's occupant, slow path consults the boundary map (the id may
    /// occupy a different slot after leave + rejoin). `None` means the id
    /// is not currently alive.
    #[inline]
    pub(crate) fn resolve_slot(&self, id: DhtId, hint: u32) -> Option<u32> {
        if let Some(Some(n)) = self.slots.get(hint as usize) {
            if n.peers.owner() == id {
                return Some(hint);
            }
        }
        self.by_id.get(&id).copied()
    }

    /// Ground truth: the node *counter-clockwise closest* to `key` — the
    /// node that §4.3 makes responsible for ring position `key`. `None`
    /// on an empty network.
    pub fn responsible_of(&self, key: DhtId) -> Option<DhtId> {
        debug_assert!(self.space.contains(key));
        let i = self.ring.partition_point(|&x| x <= key);
        if i > 0 {
            Some(self.ring[i - 1])
        } else {
            self.ring.last().copied()
        }
    }

    /// The live successor of `id` on the ring (clockwise next node,
    /// excluding `id` itself); `None` if `id` is alone or absent.
    pub fn successor_of(&self, id: DhtId) -> Option<DhtId> {
        if self.ring.len() < 2 || !self.contains(id) {
            return None;
        }
        let i = self.ring.partition_point(|&x| x <= id);
        Some(if i < self.ring.len() {
            self.ring[i]
        } else {
            self.ring[0]
        })
    }

    /// The live predecessor of `id` on the ring (counter-clockwise next
    /// node, excluding `id` itself); `None` if `id` is alone or absent.
    pub fn predecessor_of(&self, id: DhtId) -> Option<DhtId> {
        if self.ring.len() < 2 || !self.contains(id) {
            return None;
        }
        let i = self.ring.partition_point(|&x| x < id);
        Some(if i > 0 {
            self.ring[i - 1]
        } else {
            *self.ring.last().expect("len >= 2")
        })
    }

    /// The responsibility range of a live node, derived from its *actual*
    /// ring successor (ground truth, used by tests and by the storage
    /// layer when redistributing after churn).
    pub fn responsibility_of(&self, id: DhtId) -> Option<ResponsibilityRange> {
        let succ = self.successor_of(id).unwrap_or(id);
        self.contains(id)
            .then(|| ResponsibilityRange::new(self.space, id, succ))
    }

    /// Join a new node: build its table from the live membership and
    /// advertise it to a handful of nodes that would file it (the nodes
    /// whose level intervals contain it), mimicking the announcement the
    /// join protocol sends to its close-ID contacts.
    pub fn join(
        &mut self,
        id: DhtId,
        latency_ms: &impl Fn(DhtId, DhtId) -> f64,
        rng: &mut SimRng,
    ) -> Result<(), JoinError> {
        if !self.space.contains(id) {
            return Err(JoinError::OutOfSpace(id));
        }
        if self.by_id.contains_key(&id) {
            return Err(JoinError::IdTaken(id));
        }
        // Pre-join membership: the table-building base and the
        // announcement sample (same snapshot the id-keyed version took
        // from its key set).
        let sorted = self.ring.clone();
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slots[s as usize].is_none(), "free slot occupied");
                self.slots[s as usize] = Some(DhtNodeState {
                    peers: DhtPeerTable::new(self.space, id),
                });
                s
            }
            None => {
                self.slots.push(Some(DhtNodeState {
                    peers: DhtPeerTable::new(self.space, id),
                }));
                (self.slots.len() - 1) as u32
            }
        };
        self.by_id.insert(id, slot);
        let at = self.ring.partition_point(|&x| x < id);
        self.ring.insert(at, id);

        let table = self.build_table(id, &sorted, latency_ms, rng);
        self.slots[slot as usize]
            .as_mut()
            .expect("just inserted")
            .peers = table;

        // The predecessor must learn its new closest-clockwise peer: that
        // peer bounds the predecessor's backup range [n, n₁).
        if let Some(pred) = self.predecessor_of(id) {
            let lat = latency_ms(pred, id);
            if let Some(&ps) = self.by_id.get(&pred) {
                self.slots[ps as usize]
                    .as_mut()
                    .expect("mapped slot occupied")
                    .peers
                    .offer_closer_hinted(id, lat, slot);
            }
        }
        // Tell a sample of existing nodes about the newcomer; the rest
        // will learn by overhearing routed messages.
        let sample: Vec<DhtId> = sorted
            .choose_multiple(rng, 16.min(sorted.len()))
            .copied()
            .collect();
        for other in sample {
            let lat = latency_ms(other, id);
            if let Some(&os) = self.by_id.get(&other) {
                self.slots[os as usize]
                    .as_mut()
                    .expect("mapped slot occupied")
                    .peers
                    .offer_hinted(id, lat, slot);
            }
        }
        Ok(())
    }

    /// Remove a node. Dangling references in other tables are repaired
    /// lazily by the router. Returns `true` if the node was present.
    pub fn leave(&mut self, id: DhtId) -> bool {
        let Some(slot) = self.by_id.remove(&id) else {
            return false;
        };
        let node = self.slots[slot as usize].take();
        debug_assert!(node.is_some(), "mapped slot occupied");
        self.free.push(slot);
        let at = self.ring.partition_point(|&x| x < id);
        debug_assert!(self.ring.get(at) == Some(&id), "ring in sync with map");
        self.ring.remove(at);
        true
    }

    /// Age every table by one maintenance period (stale entries become
    /// replaceable by any overheard candidate).
    pub fn tick_tables(&mut self) {
        for state in self.slots.iter_mut().flatten() {
            state.peers.tick();
        }
    }

    /// A uniformly random live node ID.
    pub fn random_id(&self, rng: &mut SimRng) -> Option<DhtId> {
        if self.ring.is_empty() {
            return None;
        }
        let idx = rng.gen_range(0..self.ring.len());
        Some(self.ring[idx])
    }

    /// Check every node's level invariant plus the arena's structural
    /// invariants (map ↔ slots ↔ ring ↔ free list); `Err` describes the
    /// first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Ring: strictly ascending, exactly the live membership.
        if let Some(w) = self.ring.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!(
                "ring not strictly ascending at {} >= {}",
                w[0], w[1]
            ));
        }
        if self.ring.len() != self.by_id.len() {
            return Err(format!(
                "ring has {} ids but the map has {}",
                self.ring.len(),
                self.by_id.len()
            ));
        }
        let occupied = self.slots.iter().filter(|s| s.is_some()).count();
        if occupied != self.by_id.len() {
            return Err(format!(
                "{} occupied slots but {} mapped ids",
                occupied,
                self.by_id.len()
            ));
        }
        if self.free.len() + occupied != self.slots.len() {
            return Err(format!(
                "free list ({}) + occupied ({}) != slots ({})",
                self.free.len(),
                occupied,
                self.slots.len()
            ));
        }
        for &f in &self.free {
            if self.slots.get(f as usize).is_none_or(|s| s.is_some()) {
                return Err(format!("free-list slot {f} is not vacant"));
            }
        }
        // Per-node: the map points at a slot owned by that id, and the
        // level invariant holds (checked in ring order, like the id-keyed
        // implementation walked its sorted key set).
        for &id in &self.ring {
            let Some(&slot) = self.by_id.get(&id) else {
                return Err(format!("ring id {id} missing from the map"));
            };
            let Some(Some(state)) = self.slots.get(slot as usize) else {
                return Err(format!("id {id} maps to vacant slot {slot}"));
            };
            if state.peers.owner() != id {
                return Err(format!(
                    "id {id} maps to slot {slot} owned by {}",
                    state.peers.owner()
                ));
            }
            state
                .peers
                .check_invariants()
                .map_err(|e| format!("node {id}: {e}"))?;
        }
        Ok(())
    }
}

/// A zero-copy view of the IDs from a sorted slice lying in the (possibly
/// wrapping) clockwise interval `[from, to)`, minus one excluded id: one
/// or two contiguous sub-slices plus the exclusion's virtual position.
/// Enumerates exactly the sequence the eager `ids_in_interval` helper
/// used to collect (the wrapping `[from, N)` segment first).
struct IntervalView<'a> {
    first: &'a [DhtId],
    second: &'a [DhtId],
    /// Virtual index of the excluded id within `first ++ second`, when
    /// the interval contains it.
    exclude_at: Option<usize>,
}

impl IntervalView<'_> {
    fn len(&self) -> usize {
        self.first.len() + self.second.len() - usize::from(self.exclude_at.is_some())
    }

    fn get(&self, i: usize) -> DhtId {
        let j = match self.exclude_at {
            Some(e) if i >= e => i + 1,
            _ => i,
        };
        if j < self.first.len() {
            self.first[j]
        } else {
            self.second[j - self.first.len()]
        }
    }
}

fn interval_view(
    space: IdSpace,
    sorted_ids: &[DhtId],
    from: DhtId,
    to: DhtId,
    exclude: DhtId,
) -> IntervalView<'_> {
    let range = |lo: DhtId, hi_excl: DhtId| {
        let start = sorted_ids.partition_point(|&x| x < lo);
        let end = sorted_ids.partition_point(|&x| x < hi_excl);
        &sorted_ids[start..end]
    };
    let (first, second) = if from < to {
        (range(from, to), &sorted_ids[0..0])
    } else {
        // Wraps: [from, N) ∪ [0, to).
        (range(from, space.size()), range(0, to))
    };
    let exclude_at = match first.binary_search(&exclude) {
        Ok(p) => Some(p),
        Err(_) => second.binary_search(&exclude).ok().map(|p| first.len() + p),
    };
    IntervalView {
        first,
        second,
        exclude_at,
    }
}

/// All IDs from `sorted_ids` lying in the (possibly wrapping) clockwise
/// interval `[from, to)`, excluding `exclude`. Reference model for
/// [`interval_view`] (the hot path no longer materialises intervals).
#[cfg(test)]
fn ids_in_interval(
    space: IdSpace,
    sorted_ids: &[DhtId],
    from: DhtId,
    to: DhtId,
    exclude: DhtId,
) -> Vec<DhtId> {
    let mut out = Vec::new();
    let mut push_range = |lo: DhtId, hi_excl: DhtId| {
        // indices of ids in [lo, hi_excl)
        let start = sorted_ids.partition_point(|&x| x < lo);
        let end = sorted_ids.partition_point(|&x| x < hi_excl);
        for &id in &sorted_ids[start..end] {
            if id != exclude {
                out.push(id);
            }
        }
    };
    if from < to {
        push_range(from, to);
    } else {
        // Wraps: [from, N) ∪ [0, to).
        push_range(from, space.size());
        push_range(0, to);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_sim::RngTree;

    fn flat_latency(_: DhtId, _: DhtId) -> f64 {
        10.0
    }

    fn build_net(n: usize, bits: u32, seed: u64) -> DhtNetwork {
        let mut rng = RngTree::new(seed).child("dht-net");
        let space = IdSpace::new(bits);
        // Random distinct IDs.
        let mut ids: Vec<DhtId> = Vec::with_capacity(n);
        let mut used = std::collections::HashSet::new();
        while ids.len() < n {
            let id = rng.gen_range(0..space.size());
            if used.insert(id) {
                ids.push(id);
            }
        }
        DhtNetwork::build(space, &ids, &flat_latency, &mut rng)
    }

    #[test]
    fn build_fills_reachable_levels() {
        let net = build_net(500, 13, 1);
        net.check_invariants().unwrap();
        // With 500 nodes in 8192 positions most high levels must be
        // filled; the very low levels (intervals of size 1 or 2) are
        // usually empty.
        let avg_filled: f64 = net
            .ids()
            .map(|id| net.node(id).unwrap().peers.filled() as f64)
            .sum::<f64>()
            / net.len() as f64;
        assert!(
            avg_filled >= 6.0,
            "average filled levels {avg_filled} too low for n=500, N=8192"
        );
    }

    #[test]
    fn responsible_of_is_ccw_closest() {
        let space = IdSpace::new(6);
        let mut rng = RngTree::new(2).child("x");
        let net = DhtNetwork::build(space, &[10, 20, 40], &flat_latency, &mut rng);
        assert_eq!(net.responsible_of(10), Some(10));
        assert_eq!(net.responsible_of(15), Some(10));
        assert_eq!(net.responsible_of(39), Some(20));
        assert_eq!(net.responsible_of(63), Some(40));
        // Wrap: positions before the first node belong to the last node.
        assert_eq!(net.responsible_of(5), Some(40));
    }

    #[test]
    fn successor_wraps() {
        let space = IdSpace::new(6);
        let mut rng = RngTree::new(3).child("x");
        let net = DhtNetwork::build(space, &[10, 20, 40], &flat_latency, &mut rng);
        assert_eq!(net.successor_of(10), Some(20));
        assert_eq!(net.successor_of(40), Some(10));
        assert_eq!(net.successor_of(99), None);
    }

    #[test]
    fn responsibility_partition_covers_ring() {
        let net = build_net(50, 10, 4);
        let space = net.space();
        for key in (0..space.size()).step_by(7) {
            let owner = net.responsible_of(key).unwrap();
            let range = net.responsibility_of(owner).unwrap();
            assert!(range.contains(key), "key {key} not in its owner's range");
        }
    }

    #[test]
    fn join_and_leave() {
        let mut net = build_net(100, 10, 5);
        let mut rng = RngTree::new(5).child("join");
        // Find a free ID.
        let free = (0..net.space().size())
            .find(|&id| !net.contains(id))
            .unwrap();
        net.join(free, &flat_latency, &mut rng).unwrap();
        assert!(net.contains(free));
        assert!(net.node(free).unwrap().peers.filled() > 0);
        assert_eq!(
            net.join(free, &flat_latency, &mut rng),
            Err(JoinError::IdTaken(free))
        );
        assert!(net.leave(free));
        assert!(!net.leave(free));
    }

    #[test]
    fn join_out_of_space_rejected() {
        let mut net = build_net(10, 6, 6);
        let mut rng = RngTree::new(6).child("join");
        assert_eq!(
            net.join(64, &flat_latency, &mut rng),
            Err(JoinError::OutOfSpace(64))
        );
    }

    #[test]
    fn newcomer_is_advertised() {
        let mut net = build_net(200, 10, 7);
        let mut rng = RngTree::new(7).child("join");
        let free = (0..net.space().size())
            .find(|&id| !net.contains(id))
            .unwrap();
        let pred = {
            let mut tmp = net.clone();
            tmp.join(free, &flat_latency, &mut rng).unwrap();
            tmp.predecessor_of(free).unwrap()
        };
        net.join(free, &flat_latency, &mut RngTree::new(7).child("join2"))
            .unwrap();
        // At minimum the ring predecessor must have filed the newcomer:
        // its backup-responsibility range depends on it.
        assert!(
            net.node(pred).unwrap().peers.peers().any(|p| p.id == free),
            "predecessor {pred} should have filed the newcomer {free}"
        );
    }

    #[test]
    fn ids_in_interval_wrapping() {
        let space = IdSpace::new(6);
        let ids = [1u64, 5, 20, 60, 62];
        // Wrapping interval: the [from, N) segment comes first.
        let v = ids_in_interval(space, &ids, 58, 6, 999);
        assert_eq!(v, vec![60, 62, 1, 5]);
        let v2 = ids_in_interval(space, &ids, 58, 6, 62);
        assert_eq!(v2, vec![60, 1, 5]);
        let v3 = ids_in_interval(space, &ids, 2, 21, 999);
        assert_eq!(v3, vec![5, 20]);
    }

    #[test]
    fn interval_view_matches_reference() {
        let mut rng = RngTree::new(11).child("view");
        for case in 0..300 {
            let bits = rng.gen_range(2u32..10);
            let space = IdSpace::new(bits);
            let n = rng.gen_range(0usize..40);
            let mut set = std::collections::BTreeSet::new();
            for _ in 0..n {
                set.insert(rng.gen_range(0..space.size()));
            }
            let sorted: Vec<DhtId> = set.into_iter().collect();
            let from = rng.gen_range(0..space.size());
            let to = rng.gen_range(0..space.size());
            // Sometimes a member, sometimes absent.
            let exclude = rng.gen_range(0..space.size());
            let reference = ids_in_interval(space, &sorted, from, to, exclude);
            let view = interval_view(space, &sorted, from, to, exclude);
            let listed: Vec<DhtId> = (0..view.len()).map(|i| view.get(i)).collect();
            assert_eq!(listed, reference, "case {case} [{from}, {to}) \\ {exclude}");
        }
    }

    #[test]
    fn random_id_is_live() {
        let net = build_net(30, 8, 8);
        let mut rng = RngTree::new(8).child("r");
        for _ in 0..20 {
            let id = net.random_id(&mut rng).unwrap();
            assert!(net.contains(id));
        }
        let empty = DhtNetwork::new(IdSpace::new(4));
        let mut rng2 = RngTree::new(8).child("r2");
        assert!(empty.random_id(&mut rng2).is_none());
    }

    #[test]
    fn free_list_reuses_slots() {
        let mut net = build_net(50, 10, 9);
        let mut rng = RngTree::new(9).child("churn");
        let before = net.slot_count();
        // Leave 10, rejoin 10: no arena growth.
        let victims: Vec<DhtId> = net.ids().take(10).collect();
        for v in &victims {
            assert!(net.leave(*v));
        }
        assert_eq!(net.free_count(), 10);
        let mut joined = 0;
        while joined < 10 {
            let id = rng.gen_range(0..net.space().size());
            if net.join(id, &flat_latency, &mut rng).is_ok() {
                joined += 1;
            }
        }
        assert_eq!(net.slot_count(), before, "rejoins must reuse freed slots");
        assert_eq!(net.free_count(), 0);
        net.check_invariants().unwrap();
    }

    #[test]
    fn lookup_and_id_at_roundtrip() {
        let net = build_net(40, 9, 10);
        for id in net.ids().collect::<Vec<_>>() {
            let idx = net.lookup(id).expect("live id resolves");
            assert_eq!(net.id_at(idx), Some(id));
            assert_eq!(net.node_at(idx).unwrap().peers.owner(), id);
        }
    }
}
