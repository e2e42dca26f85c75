//! Exact per-party communication accounting.
//!
//! Communication complexity is the quantity the paper optimizes, so the
//! simulator meters every envelope: bytes and messages, sent and received,
//! plus *locality* (the number of distinct parties each party exchanges
//! messages with — the degree of the effective communication graph).
//!
//! [`MetricsTable::report`] aggregates into the columns of Table 1:
//! max-per-party communication, totals, and maximum locality.
//!
//! # Sparse layout
//!
//! The table is *sparse*: `new(n)` allocates one pointer-sized slot per
//! party and nothing else. A party's counters ([`PartyCell`], private) are
//! boxed on its **first** charge, so establishment-only runs and the
//! million-party sweeps (`--bin scale`) pay memory proportional to the
//! parties that actually communicate, not to `n`.
//!
//! A cell records its peers in two forms. The per-link paths
//! ([`MetricsTable::record_send_tagged`],
//! [`MetricsTable::record_receive_tagged`],
//! [`MetricsTable::record_sends_tagged`]) name individuals, which go into
//! two sorted id vectors by binary-search insertion. The committee path
//! ([`MetricsTable::charge_exchange`]) names whole sides, and those are
//! held *by reference*: every distinct sorted, deduplicated id list an
//! exchange has named is interned once in a pool owned by the table, and
//! the cell keeps a 4-byte reference — pool index plus one bit, "without
//! my own id" — the first time it meets that side. A party of an
//! n = 2^16 run has hundreds to thousands of peers but meets them as 32
//! committees on average (136 at most), so a cell weighs ≈ 1.4 KB where
//! a private sorted copy of those ids weighs ≈ 13 KB (measured at
//! n = 2^14), and a repeated exchange costs a scan of those few dozen
//! references instead of a walk of the peer list. The pool is bounded by
//! the committees of the tree ([`MetricsTable::peer_groups`]), not by the
//! number of exchanges, tags or epochs.
//!
//! Readers expand references on demand. [`MetricsTable::party`] builds the
//! two peer sets; [`MetricsTable::report_for`] counts each party's
//! locality against one scratch row of stamps, in O(Σ sizes of the groups
//! the party references) and without a sort: a report pays for the
//! expansion, a charge never does.
//!
//! A pre-aggregated [`Totals`] row is maintained by every charging call —
//! once per envelope on the per-link paths, once per *exchange* on the
//! bulk paths below — which keeps the global conservation check
//! ([`MetricsTable::tags_conserve_totals`]) and the per-step attribution in
//! `--bin table1` exact without a full scan.
//!
//! # Committee-granular charges
//!
//! Fig. 3 steps 3–8 move bytes committee to committee, so their call
//! sites meter a whole exchange at once: [`MetricsTable::charge_exchange`]
//! (every sender seat to every receiver seat) and the sender-half
//! [`MetricsTable::record_sends_tagged`]. Both are *defined as* their
//! per-link expansion into [`MetricsTable::record_send_tagged`] /
//! [`MetricsTable::record_receive_tagged`] and are observationally
//! identical to it, but touch each party's cell once per exchange instead
//! of once per link: counters move by `bytes · k`, the tag marginal and
//! the totals row take one bump, and the opposite side is one group
//! reference. Seats listed several times count by multiplicity, and a
//! party with `k = 0` links is never materialized (DESIGN.md §4b
//! "Committee-granular metering").
//!
//! The step 7–8 spread stays per id on purpose: a sender's targets are a
//! PRF-chosen subset that is fresh for every (sender, epoch), so interning
//! them would add `n` lists per instance that nothing ever references
//! twice. `record_sends_tagged` moves the counters once and inserts the
//! targets one by one.
//!
//! # Differential oracle
//!
//! The previous dense implementation is kept verbatim as
//! [`DenseMetricsTable`]. [`MetricsTable::enable_shadow`] attaches a dense
//! shadow seeded from the table's current state, which then receives
//! every charge first — a bulk charge as its link-by-link expansion, so
//! the shadow checks the bulk arithmetic instead of repeating it;
//! [`MetricsTable::shadow_divergence`] then asserts exact equality on
//! every counter, peer set, tag marginal, report column and conservation
//! check.
//!
//! Two suites arm it. `tests/proptest_metrics_sparse.rs` applies random
//! charge sequences from an empty table, so every path, establishment's
//! included, is checked from its first charge. The `differential`
//! harness (`tests/support/differential.rs`) arms the shadow on a running
//! service right after establishment, as one more variant that must be
//! invisible, across the chaos catalogue. There establishment's own
//! charges — the per-link KSSV election (Interactive) and the synthetic
//! charge (Charged) — are copied into the shadow, not re-derived; the
//! committee phases after arming take the per-link path again.

use crate::envelope::PartyId;
use crate::wire;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Communication counters for a single party.
///
/// Returned by [`MetricsTable::party`] as an owned snapshot (the sparse
/// table stores id vectors and group references internally);
/// [`DenseMetricsTable::party`] hands out references to the same type.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartyMetrics {
    /// Bytes of payload sent.
    pub bytes_sent: u64,
    /// Bytes of payload received *and processed* (after filtering).
    pub bytes_received: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received and processed.
    pub msgs_received: u64,
    /// Distinct peers this party sent to.
    pub peers_out: BTreeSet<PartyId>,
    /// Distinct peers this party processed messages from.
    pub peers_in: BTreeSet<PartyId>,
    /// Sent bytes by wire tag ([`crate::wire::tag`]). Marginals over this
    /// map sum exactly to `bytes_sent` — every recording path is tagged
    /// (untagged paths charge [`crate::wire::tag::RAW`]).
    pub sent_by_tag: BTreeMap<u8, u64>,
    /// Received-and-processed bytes by wire tag; sums to `bytes_received`.
    pub recv_by_tag: BTreeMap<u8, u64>,
}

impl PartyMetrics {
    /// Total bytes communicated (sent + received).
    pub fn bytes_total(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Locality: distinct peers in either direction.
    pub fn locality(&self) -> usize {
        self.peers_out.union(&self.peers_in).count()
    }
}

/// Sparse per-party counters: allocated on a party's first charge.
///
/// Peers are kept in two forms (module docs, "Sparse layout"): the ids a
/// per-link charge named, in sorted vectors, and [`GroupRef`]s to the
/// committees a bulk exchange named. Tag marginals are sorted vectors too —
/// a handful of entries, where binary-search insertion into a flat vector
/// is both smaller and faster than a tree map.
#[derive(Clone, Debug, Default)]
struct PartyCell {
    bytes_sent: u64,
    bytes_received: u64,
    msgs_sent: u64,
    msgs_received: u64,
    /// Sorted, deduplicated ids of the per-link paths (outbound).
    peers_out: Vec<u64>,
    /// Sorted, deduplicated ids of the per-link paths (inbound).
    peers_in: Vec<u64>,
    /// Distinct groups this party sent to as a whole, in first-use order.
    groups_out: Vec<GroupRef>,
    /// Distinct groups this party received from as a whole.
    groups_in: Vec<GroupRef>,
    /// Sorted `(tag, bytes)` marginals for sent traffic.
    sent_by_tag: Vec<(u8, u64)>,
    /// Sorted `(tag, bytes)` marginals for received traffic.
    recv_by_tag: Vec<(u8, u64)>,
}

/// One entry of a cell's `groups_out` / `groups_in`: the index of an
/// interned id list in the table's [`GroupPool`], and in the low bit
/// whether the cell's own id is to be left out of it (the party is a
/// member and the exchange was `skip_self`). Four bytes stand for a whole
/// committee of peers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GroupRef(u32);

impl GroupRef {
    fn new(group: u32, skips_own: bool) -> Self {
        GroupRef(group << 1 | u32::from(skips_own))
    }

    fn group(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn skips_own(self) -> bool {
        self.0 & 1 == 1
    }
}

/// Every distinct sorted, deduplicated id list a bulk exchange has named,
/// stored once and addressed by position. Content-keyed, so a committee
/// costs its ids once however many parties, tags and epochs exchange with
/// it; indices are handed out in first-use order and never move.
#[derive(Clone, Debug, Default)]
struct GroupPool {
    lists: Vec<Arc<[u64]>>,
    index: HashMap<Arc<[u64]>, u32>,
}

impl GroupPool {
    /// Index of the ids of `counts` (a [`seat_counts`] list), interning
    /// them on first sight.
    fn intern(&mut self, counts: &[(u64, u64)]) -> u32 {
        let ids: Vec<u64> = counts.iter().map(|e| e.0).collect();
        if let Some(&group) = self.index.get(ids.as_slice()) {
            return group;
        }
        assert!(
            self.lists.len() < 1 << 31,
            "a GroupRef holds a 31-bit index"
        );
        let group = self.lists.len() as u32;
        let list: Arc<[u64]> = ids.into();
        self.lists.push(Arc::clone(&list));
        self.index.insert(list, group);
        group
    }
}

fn insert_sorted(v: &mut Vec<u64>, x: u64) {
    if let Err(pos) = v.binary_search(&x) {
        v.insert(pos, x);
    }
}

fn bump_tag(v: &mut Vec<(u8, u64)>, tag: u8, bytes: u64) {
    match v.binary_search_by_key(&tag, |e| e.0) {
        Ok(i) => v[i].1 += bytes,
        Err(i) => v.insert(i, (tag, bytes)),
    }
}

/// The distinct ids of `ids` in sorted order, each with its multiplicity
/// (a party holding several committee seats appears once per seat).
fn seat_counts(ids: &[PartyId]) -> Vec<(u64, u64)> {
    let mut counts: Vec<(u64, u64)> = ids.iter().map(|p| (p.0, 1)).collect();
    counts.sort_unstable();
    counts.dedup_by(|dup, kept| {
        let same = dup.0 == kept.0;
        if same {
            kept.1 += dup.1;
        }
        same
    });
    counts
}

/// Multiplicity of `id` in a [`seat_counts`] list (0 when absent).
fn seats_of(counts: &[(u64, u64)], id: u64) -> u64 {
    counts
        .binary_search_by_key(&id, |e| e.0)
        .map_or(0, |i| counts[i].1)
}

impl PartyCell {
    fn bytes_total(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    fn conserves(&self) -> bool {
        self.sent_by_tag.iter().map(|(_, b)| b).sum::<u64>() == self.bytes_sent
            && self.recv_by_tag.iter().map(|(_, b)| b).sum::<u64>() == self.bytes_received
    }

    /// `links` sent envelopes of `bytes` each, to the group `peers`, in
    /// one touch of the cell. A cell holds a few dozen references, so the
    /// membership test is a linear scan and not a set.
    fn charge_sent(&mut self, links: u64, bytes: u64, tag: u8, peers: GroupRef) {
        self.bytes_sent += bytes * links;
        self.msgs_sent += links;
        if !self.groups_out.contains(&peers) {
            self.groups_out.push(peers);
        }
        bump_tag(&mut self.sent_by_tag, tag, bytes * links);
    }

    /// Receive-side twin of [`PartyCell::charge_sent`].
    fn charge_received(&mut self, links: u64, bytes: u64, tag: u8, peers: GroupRef) {
        self.bytes_received += bytes * links;
        self.msgs_received += links;
        if !self.groups_in.contains(&peers) {
            self.groups_in.push(peers);
        }
        bump_tag(&mut self.recv_by_tag, tag, bytes * links);
    }
}

/// Scratch row for counting distinct peers without sorting them: one
/// stamp per party position, holding the generation of the last cell that
/// listed it. [`MetricsTable::report_for`] allocates one per call and
/// advances the generation per visited party, so the row is never cleared.
struct PeerStamps {
    row: Vec<u32>,
    generation: u32,
    /// Peers of the current cell beyond the row. Per-link charges have
    /// never range-checked the peer they name, so counting must not either.
    stray: Vec<u64>,
}

impl PeerStamps {
    fn new(n: usize) -> Self {
        PeerStamps {
            row: vec![0; n],
            generation: 0,
            stray: Vec::new(),
        }
    }

    fn next_cell(&mut self) {
        self.stray.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.row.fill(0);
            self.generation = 1;
        }
    }

    /// True the first time `peer` is offered since [`Self::next_cell`].
    fn first_visit(&mut self, peer: u64) -> bool {
        let stamp = usize::try_from(peer).ok().and_then(|i| self.row.get_mut(i));
        match stamp {
            Some(stamp) => std::mem::replace(stamp, self.generation) != self.generation,
            None => {
                let fresh = !self.stray.contains(&peer);
                if fresh {
                    self.stray.push(peer);
                }
                fresh
            }
        }
    }
}

/// Pre-aggregated global counters, maintained incrementally on every
/// charge so whole-table invariants need no scan over `n` cells.
#[derive(Clone, Debug, Default)]
struct Totals {
    bytes_sent: u64,
    bytes_received: u64,
    msgs_sent: u64,
    msgs_received: u64,
    sent_by_tag: BTreeMap<u8, u64>,
    recv_by_tag: BTreeMap<u8, u64>,
}

impl Totals {
    fn conserves(&self) -> bool {
        self.sent_by_tag.values().sum::<u64>() == self.bytes_sent
            && self.recv_by_tag.values().sum::<u64>() == self.bytes_received
    }

    fn sent(&mut self, bytes: u64, msgs: u64, tag: u8) {
        self.bytes_sent += bytes;
        self.msgs_sent += msgs;
        *self.sent_by_tag.entry(tag).or_insert(0) += bytes;
    }

    fn received(&mut self, bytes: u64, msgs: u64, tag: u8) {
        self.bytes_received += bytes;
        self.msgs_received += msgs;
        *self.recv_by_tag.entry(tag).or_insert(0) += bytes;
    }
}

/// Metrics for all parties in one protocol execution (sparse layout; see
/// the module docs).
#[derive(Clone, Debug)]
pub struct MetricsTable {
    /// One slot per party; `None` until the party's first charge.
    cells: Vec<Option<Box<PartyCell>>>,
    /// The id lists the cells' [`GroupRef`]s point into.
    groups: GroupPool,
    totals: Totals,
    rounds: u64,
    /// Dense differential oracle; every mutation is mirrored here first
    /// when attached (see [`MetricsTable::enable_shadow`]).
    shadow: Option<Box<DenseMetricsTable>>,
}

impl MetricsTable {
    /// Creates a table for `n` parties. O(n) pointer slots, zero cells:
    /// per-party storage materializes on first charge, so tables for runs
    /// that never charge most parties (establishment-only, huge-n sweeps)
    /// stay proportional to the touched set.
    pub fn new(n: usize) -> Self {
        MetricsTable {
            cells: vec![None; n],
            groups: GroupPool::default(),
            totals: Totals::default(),
            rounds: 0,
            shadow: None,
        }
    }

    /// Number of parties.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the table tracks no parties.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of parties whose counters have materialized (i.e. that were
    /// charged at least once). Memory scales with this, not with `len()`.
    pub fn allocated_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    /// Number of distinct peer groups interned by
    /// [`MetricsTable::charge_exchange`] — one per distinct set of senders
    /// or receivers ever charged, so bounded by the committees of the tree
    /// and not by how many exchanges or epochs ran.
    pub fn peer_groups(&self) -> usize {
        self.groups.lists.len()
    }

    /// The peers `group` stands for in the cell of party `own`.
    fn members(&self, group: GroupRef, own: u64) -> impl Iterator<Item = u64> + '_ {
        let skip = group.skips_own().then_some(own);
        self.groups.lists[group.group()]
            .iter()
            .copied()
            .filter(move |&p| Some(p) != skip)
    }

    /// Per-party metrics, as an owned snapshot with every group reference
    /// expanded. Parties never charged report all-zero counters. Panics if
    /// `id` is out of range.
    pub fn party(&self, id: PartyId) -> PartyMetrics {
        let Some(cell) = self.cells[id.index()].as_deref() else {
            return PartyMetrics::default();
        };
        let peers = |ids: &[u64], groups: &[GroupRef]| -> BTreeSet<PartyId> {
            let grouped = groups.iter().flat_map(|&g| self.members(g, id.0));
            ids.iter().copied().chain(grouped).map(PartyId).collect()
        };
        PartyMetrics {
            bytes_sent: cell.bytes_sent,
            bytes_received: cell.bytes_received,
            msgs_sent: cell.msgs_sent,
            msgs_received: cell.msgs_received,
            peers_out: peers(&cell.peers_out, &cell.groups_out),
            peers_in: peers(&cell.peers_in, &cell.groups_in),
            sent_by_tag: cell.sent_by_tag.iter().copied().collect(),
            recv_by_tag: cell.recv_by_tag.iter().copied().collect(),
        }
    }

    /// Distinct peers of `own` in either direction, counted against
    /// `seen`: O(Σ sizes of the groups the cell references), no sort.
    fn locality(&self, own: u64, cell: &PartyCell, seen: &mut PeerStamps) -> u64 {
        seen.next_cell();
        let mut count = 0u64;
        for &p in cell.peers_out.iter().chain(&cell.peers_in) {
            count += u64::from(seen.first_visit(p));
        }
        // Most groups are met in both directions: walk those once.
        let inbound = cell
            .groups_in
            .iter()
            .filter(|g| !cell.groups_out.contains(g));
        for &g in cell.groups_out.iter().chain(inbound) {
            for p in self.members(g, own) {
                count += u64::from(seen.first_visit(p));
            }
        }
        count
    }

    /// Attaches the dense reference implementation as a differential
    /// shadow, seeded with the table's current state: every party's
    /// [`MetricsTable::party`] snapshot and the round count. Charges that
    /// landed before arming are copied, not re-derived; every later one
    /// reaches the shadow through its own dense path.
    pub fn enable_shadow(&mut self) {
        self.shadow = Some(Box::new(DenseMetricsTable {
            parties: (0..self.len())
                .map(|i| self.party(PartyId::from(i)))
                .collect(),
            rounds: self.rounds,
        }));
    }

    /// Differential check against the dense shadow: `None` when no shadow
    /// is attached **or** every counter, peer set, tag marginal, report
    /// column and conservation check agrees exactly; otherwise a
    /// description of the first divergence found.
    pub fn shadow_divergence(&self) -> Option<String> {
        let dense = self.shadow.as_deref()?;
        if dense.len() != self.len() {
            return Some(format!(
                "party count: sparse {} != dense {}",
                self.len(),
                dense.len()
            ));
        }
        if dense.rounds() != self.rounds {
            return Some(format!(
                "rounds: sparse {} != dense {}",
                self.rounds,
                dense.rounds()
            ));
        }
        for i in 0..self.len() {
            let id = PartyId::from(i);
            let sparse = self.party(id);
            let dense_m = dense.party(id);
            if &sparse != dense_m {
                return Some(format!("party {i}: sparse {sparse:?} != dense {dense_m:?}"));
            }
        }
        if self.report() != dense.report() {
            return Some(format!(
                "report: sparse {:?} != dense {:?}",
                self.report(),
                dense.report()
            ));
        }
        let ids = || (0..self.len()).map(PartyId::from);
        if self.breakdown_for(ids()) != dense.breakdown_for(ids()) {
            return Some("tag breakdown diverged".into());
        }
        if self.tags_conserve_totals() != dense.tags_conserve_totals() {
            return Some("conservation verdicts diverged".into());
        }
        None
    }

    fn cell_mut(&mut self, index: usize) -> &mut PartyCell {
        self.cells[index].get_or_insert_with(Default::default)
    }

    /// Records a sent envelope, attributed to [`crate::wire::tag::RAW`].
    pub fn record_send(&mut self, from: PartyId, to: PartyId, bytes: usize) {
        self.record_send_tagged(from, to, bytes, wire::tag::RAW);
    }

    /// Records a sent envelope, attributing its bytes to a wire tag.
    pub fn record_send_tagged(&mut self, from: PartyId, to: PartyId, bytes: usize, tag: u8) {
        if let Some(shadow) = self.shadow.as_deref_mut() {
            shadow.record_send_tagged(from, to, bytes, tag);
        }
        let m = self.cell_mut(from.index());
        m.bytes_sent += bytes as u64;
        m.msgs_sent += 1;
        insert_sorted(&mut m.peers_out, to.0);
        bump_tag(&mut m.sent_by_tag, tag, bytes as u64);
        self.totals.sent(bytes as u64, 1, tag);
    }

    /// Records a received-and-processed envelope, attributed to
    /// [`crate::wire::tag::RAW`].
    pub fn record_receive(&mut self, to: PartyId, from: PartyId, bytes: usize) {
        self.record_receive_tagged(to, from, bytes, wire::tag::RAW);
    }

    /// Records a received-and-processed envelope, attributing its bytes to
    /// a wire tag.
    pub fn record_receive_tagged(&mut self, to: PartyId, from: PartyId, bytes: usize, tag: u8) {
        if let Some(shadow) = self.shadow.as_deref_mut() {
            shadow.record_receive_tagged(to, from, bytes, tag);
        }
        let m = self.cell_mut(to.index());
        m.bytes_received += bytes as u64;
        m.msgs_received += 1;
        insert_sorted(&mut m.peers_in, from.0);
        bump_tag(&mut m.recv_by_tag, tag, bytes as u64);
        self.totals.received(bytes as u64, 1, tag);
    }

    /// Charges one committee-to-committee exchange: every seat of `senders`
    /// sends `bytes` to every seat of `receivers` and every copy is
    /// received and processed. **Defined as** the per-link expansion
    ///
    /// ```text
    /// for s in senders { for r in receivers {
    ///     if skip_self && r == s { continue }
    ///     record_send_tagged(s, r, bytes, tag);
    ///     record_receive_tagged(r, s, bytes, tag);
    /// }}
    /// ```
    ///
    /// and observationally identical to it — the attached dense shadow is
    /// fed exactly that expansion — but each party's cell is touched once:
    /// counters move by `bytes · k` for the party's `k` links, the opposite
    /// side is recorded as one reference to its interned id list, the tag
    /// marginal and the totals row take one bump. A party listed on several
    /// seats is charged once per seat (multiplicity), and a party with
    /// `k = 0` links (e.g. the only receiver of its own `skip_self`
    /// exchange) is not materialized, so no `(tag, 0)` marginal appears
    /// that the expansion would not write; an exchange without a single
    /// link interns nothing.
    ///
    /// Returns the number of links charged.
    pub fn charge_exchange(
        &mut self,
        senders: &[PartyId],
        receivers: &[PartyId],
        bytes: usize,
        tag: u8,
        skip_self: bool,
    ) -> u64 {
        if let Some(shadow) = self.shadow.as_deref_mut() {
            for &s in senders {
                for &r in receivers.iter().filter(|&&r| !(skip_self && r == s)) {
                    shadow.record_send_tagged(s, r, bytes, tag);
                    shadow.record_receive_tagged(r, s, bytes, tag);
                }
            }
        }
        let bytes = bytes as u64;
        let from = seat_counts(senders);
        let to = seat_counts(receivers);
        // Seats of `id` on the opposite side that a `skip_self` exchange
        // leaves out.
        let own_seats = |id: u64, opposite: &[(u64, u64)]| {
            if skip_self {
                seats_of(opposite, id)
            } else {
                0
            }
        };
        let skipped: u64 = from.iter().map(|&(s, k)| k * own_seats(s, &to)).sum();
        let links = senders.len() as u64 * receivers.len() as u64 - skipped;
        if links == 0 {
            return 0;
        }
        // With a link to charge, each side has a party with `k > 0`: both
        // lists end up referenced.
        let (from_group, to_group) = (self.groups.intern(&from), self.groups.intern(&to));
        for &(s, seats) in &from {
            let own = own_seats(s, &to);
            let k = seats * (receivers.len() as u64 - own);
            if k > 0 {
                let peers = GroupRef::new(to_group, own > 0);
                self.cell_mut(s as usize).charge_sent(k, bytes, tag, peers);
            }
        }
        for &(r, seats) in &to {
            let own = own_seats(r, &from);
            let k = seats * (senders.len() as u64 - own);
            if k > 0 {
                let peers = GroupRef::new(from_group, own > 0);
                self.cell_mut(r as usize)
                    .charge_received(k, bytes, tag, peers);
            }
        }
        self.totals.sent(bytes * links, links, tag);
        self.totals.received(bytes * links, links, tag);
        links
    }

    /// The sender half of a fan-out: `from` sends `bytes` to every entry
    /// of `to` — **defined as** one [`MetricsTable::record_send_tagged`]
    /// per entry; the counters move once, the peers go in id by id. For
    /// exchanges whose receive side is decided per link (the step 7–8
    /// spread: corrupt and offline addressees never process their copy) —
    /// and whose targets are a fresh PRF-chosen subset per sender and
    /// epoch, which interned as groups would grow the pool by `n` lists an
    /// instance and never be referenced twice.
    pub fn record_sends_tagged(&mut self, from: PartyId, to: &[PartyId], bytes: usize, tag: u8) {
        if let Some(shadow) = self.shadow.as_deref_mut() {
            for &r in to {
                shadow.record_send_tagged(from, r, bytes, tag);
            }
        }
        let (links, bytes) = (to.len() as u64, bytes as u64);
        if links > 0 {
            let m = self.cell_mut(from.index());
            m.bytes_sent += bytes * links;
            m.msgs_sent += links;
            for peer in to {
                insert_sorted(&mut m.peers_out, peer.0);
            }
            bump_tag(&mut m.sent_by_tag, tag, bytes * links);
            self.totals.sent(bytes * links, links, tag);
        }
    }

    /// Charges synthetic communication to a party under a wire tag — used
    /// when a sub-functionality is costed analytically rather than executed
    /// message-by-message (see DESIGN.md §2, substitution 5).
    ///
    /// There is no addressee: the bytes count toward `bytes_sent` but touch
    /// neither peer set, so they are invisible to
    /// [`PartyMetrics::locality`] and to any receiver's
    /// [`PartyMetrics::bytes_total`]. Synthetic traffic with a known
    /// committee topology (e.g. redundant-path aggregation copies) must go
    /// through [`MetricsTable::charge_exchange`] instead, or Table 1's
    /// locality and max-bytes columns silently under-report the redundancy
    /// factor.
    pub fn charge_synthetic_tagged(&mut self, party: PartyId, bytes: u64, msgs: u64, tag: u8) {
        if let Some(shadow) = self.shadow.as_deref_mut() {
            shadow.charge_synthetic_tagged(party, bytes, msgs, tag);
        }
        let m = self.cell_mut(party.index());
        m.bytes_sent += bytes;
        m.msgs_sent += msgs;
        bump_tag(&mut m.sent_by_tag, tag, bytes);
        self.totals.sent(bytes, msgs, tag);
    }

    /// Advances the round counter.
    pub fn bump_round(&mut self) {
        if let Some(shadow) = self.shadow.as_deref_mut() {
            shadow.bump_round();
        }
        self.rounds += 1;
    }

    /// Rounds elapsed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Aggregated report over a set of parties (typically the honest ones —
    /// the adversary may inflate its own counters arbitrarily).
    pub fn report_for<I: IntoIterator<Item = PartyId>>(&self, ids: I) -> Report {
        let mut report = Report {
            rounds: self.rounds,
            ..Report::default()
        };
        let mut count = 0u64;
        let mut seen = PeerStamps::new(self.cells.len());
        for id in ids {
            count += 1;
            let Some(m) = self.cells[id.index()].as_deref() else {
                continue;
            };
            let total = m.bytes_total();
            report.max_bytes_per_party = report.max_bytes_per_party.max(total);
            report.max_bytes_sent = report.max_bytes_sent.max(m.bytes_sent);
            report.total_bytes += m.bytes_sent;
            report.total_msgs += m.msgs_sent;
            report.max_msgs_per_party =
                report.max_msgs_per_party.max(m.msgs_sent + m.msgs_received);
            report.max_locality = report.max_locality.max(self.locality(id.0, m, &mut seen));
        }
        report.parties = count;
        report
    }

    /// Aggregated report over all parties.
    pub fn report(&self) -> Report {
        self.report_for((0..self.cells.len()).map(PartyId::from))
    }

    /// `(Σ bytes_sent, max bytes_total)` over a set of parties — the two
    /// [`Report`] columns (`total_bytes`, `max_bytes_per_party`) a per-step
    /// snapshot needs, in one pass that reads counters only: no snapshot
    /// is built and no group reference is expanded for locality.
    pub fn sent_and_max_total_for<I: IntoIterator<Item = PartyId>>(&self, ids: I) -> (u64, u64) {
        let (mut sent, mut max_total) = (0u64, 0u64);
        for cell in ids
            .into_iter()
            .filter_map(|id| self.cells[id.index()].as_deref())
        {
            sent += cell.bytes_sent;
            max_total = max_total.max(cell.bytes_total());
        }
        (sent, max_total)
    }

    /// Per-tag byte breakdown aggregated over a set of parties (typically
    /// the honest ones) — the per-step attribution dimension behind
    /// Table 1's totals.
    pub fn breakdown_for<I: IntoIterator<Item = PartyId>>(&self, ids: I) -> TagBreakdown {
        let mut out = TagBreakdown::default();
        for id in ids {
            let Some(m) = self.cells[id.index()].as_deref() else {
                continue;
            };
            for &(t, b) in &m.sent_by_tag {
                *out.sent.entry(t).or_insert(0) += b;
            }
            for &(t, b) in &m.recv_by_tag {
                *out.received.entry(t).or_insert(0) += b;
            }
        }
        out
    }

    /// Exact conservation of the per-tag attribution: for **every**
    /// materialized party, the per-tag sent/received marginals sum to the
    /// party's untyped `bytes_sent`/`bytes_received` totals — and the
    /// pre-aggregated global marginals conserve independently (an O(tags)
    /// cross-check that needs no cell scan). Holds by construction — every
    /// recording path goes through a `_tagged` variant — and is asserted by
    /// tests after full protocol runs. Unmaterialized parties are all-zero
    /// and conserve trivially.
    pub fn tags_conserve_totals(&self) -> bool {
        self.totals.conserves() && self.cells.iter().flatten().all(|m| m.conserves())
    }
}

/// The dense reference implementation the sparse [`MetricsTable`] is
/// checked against: one eagerly-allocated [`PartyMetrics`] per party,
/// exactly the pre-refactor layout. O(n) memory at construction — kept
/// only as the differential oracle (see [`MetricsTable::enable_shadow`])
/// and for small-n unit tests; production paths use the sparse table.
#[derive(Clone, Debug)]
pub struct DenseMetricsTable {
    parties: Vec<PartyMetrics>,
    rounds: u64,
}

impl DenseMetricsTable {
    /// Creates a table for `n` parties, allocating all cells up front.
    pub fn new(n: usize) -> Self {
        DenseMetricsTable {
            parties: vec![PartyMetrics::default(); n],
            rounds: 0,
        }
    }

    /// Number of parties.
    pub fn len(&self) -> usize {
        self.parties.len()
    }

    /// True if the table tracks no parties.
    pub fn is_empty(&self) -> bool {
        self.parties.is_empty()
    }

    /// Per-party metrics.
    pub fn party(&self, id: PartyId) -> &PartyMetrics {
        &self.parties[id.index()]
    }

    /// Records a sent envelope, attributed to [`crate::wire::tag::RAW`].
    pub fn record_send(&mut self, from: PartyId, to: PartyId, bytes: usize) {
        self.record_send_tagged(from, to, bytes, wire::tag::RAW);
    }

    /// Records a sent envelope, attributing its bytes to a wire tag.
    pub fn record_send_tagged(&mut self, from: PartyId, to: PartyId, bytes: usize, tag: u8) {
        let m = &mut self.parties[from.index()];
        m.bytes_sent += bytes as u64;
        m.msgs_sent += 1;
        m.peers_out.insert(to);
        *m.sent_by_tag.entry(tag).or_insert(0) += bytes as u64;
    }

    /// Records a received-and-processed envelope, attributed to
    /// [`crate::wire::tag::RAW`].
    pub fn record_receive(&mut self, to: PartyId, from: PartyId, bytes: usize) {
        self.record_receive_tagged(to, from, bytes, wire::tag::RAW);
    }

    /// Records a received-and-processed envelope, attributing its bytes to
    /// a wire tag.
    pub fn record_receive_tagged(&mut self, to: PartyId, from: PartyId, bytes: usize, tag: u8) {
        let m = &mut self.parties[to.index()];
        m.bytes_received += bytes as u64;
        m.msgs_received += 1;
        m.peers_in.insert(from);
        *m.recv_by_tag.entry(tag).or_insert(0) += bytes as u64;
    }

    /// See [`MetricsTable::charge_synthetic_tagged`].
    pub fn charge_synthetic_tagged(&mut self, party: PartyId, bytes: u64, msgs: u64, tag: u8) {
        let m = &mut self.parties[party.index()];
        m.bytes_sent += bytes;
        m.msgs_sent += msgs;
        *m.sent_by_tag.entry(tag).or_insert(0) += bytes;
    }

    /// Advances the round counter.
    pub fn bump_round(&mut self) {
        self.rounds += 1;
    }

    /// Rounds elapsed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// See [`MetricsTable::report_for`].
    pub fn report_for<I: IntoIterator<Item = PartyId>>(&self, ids: I) -> Report {
        let mut report = Report {
            rounds: self.rounds,
            ..Report::default()
        };
        let mut count = 0u64;
        for id in ids {
            let m = &self.parties[id.index()];
            let total = m.bytes_total();
            report.max_bytes_per_party = report.max_bytes_per_party.max(total);
            report.max_bytes_sent = report.max_bytes_sent.max(m.bytes_sent);
            report.total_bytes += m.bytes_sent;
            report.total_msgs += m.msgs_sent;
            report.max_msgs_per_party =
                report.max_msgs_per_party.max(m.msgs_sent + m.msgs_received);
            report.max_locality = report.max_locality.max(m.locality() as u64);
            count += 1;
        }
        report.parties = count;
        report
    }

    /// Aggregated report over all parties.
    pub fn report(&self) -> Report {
        self.report_for((0..self.parties.len()).map(PartyId::from))
    }

    /// See [`MetricsTable::breakdown_for`].
    pub fn breakdown_for<I: IntoIterator<Item = PartyId>>(&self, ids: I) -> TagBreakdown {
        let mut out = TagBreakdown::default();
        for id in ids {
            let m = &self.parties[id.index()];
            for (&t, &b) in &m.sent_by_tag {
                *out.sent.entry(t).or_insert(0) += b;
            }
            for (&t, &b) in &m.recv_by_tag {
                *out.received.entry(t).or_insert(0) += b;
            }
        }
        out
    }

    /// See [`MetricsTable::tags_conserve_totals`].
    pub fn tags_conserve_totals(&self) -> bool {
        self.parties.iter().all(|m| {
            m.sent_by_tag.values().sum::<u64>() == m.bytes_sent
                && m.recv_by_tag.values().sum::<u64>() == m.bytes_received
        })
    }
}

/// Per-tag byte totals over a party set (see
/// [`MetricsTable::breakdown_for`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TagBreakdown {
    /// Sent bytes per wire tag.
    pub sent: BTreeMap<u8, u64>,
    /// Received-and-processed bytes per wire tag.
    pub received: BTreeMap<u8, u64>,
}

impl TagBreakdown {
    /// Sent bytes aggregated per step label ([`crate::wire::step_label_for`]),
    /// in registry order — the rows of the per-step breakdown column in
    /// the `table1` harness.
    pub fn sent_by_step_label(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (&t, &b) in &self.sent {
            let label = crate::wire::step_label_for(t);
            if let Some(entry) = out.iter_mut().find(|(l, _)| *l == label) {
                entry.1 += b;
            } else {
                out.push((label, b));
            }
        }
        out
    }

    /// Total sent bytes across all tags.
    pub fn total_sent(&self) -> u64 {
        self.sent.values().sum()
    }
}

/// Aggregate communication statistics for one execution — the measured
/// analogues of Table 1's columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Parties included in the aggregation.
    pub parties: u64,
    /// Maximum over parties of (bytes sent + bytes received).
    pub max_bytes_per_party: u64,
    /// Maximum over parties of bytes sent.
    pub max_bytes_sent: u64,
    /// Sum over parties of bytes sent (= total network traffic).
    pub total_bytes: u64,
    /// Sum over parties of messages sent.
    pub total_msgs: u64,
    /// Maximum over parties of messages sent + received.
    pub max_msgs_per_party: u64,
    /// Maximum communication-graph degree over parties.
    pub max_locality: u64,
    /// Synchronous rounds elapsed.
    pub rounds: u64,
}

impl Report {
    /// Maximum bits per party — the paper's headline measure.
    pub fn max_bits_per_party(&self) -> u64 {
        self.max_bytes_per_party * 8
    }

    /// Renders the report as a JSON object without a serde dependency (the
    /// container is offline) — the form the golden metering reports are
    /// pinned in.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"parties\":{},\"max_bytes_per_party\":{},\"max_bytes_sent\":{},\
             \"total_bytes\":{},\"total_msgs\":{},\"max_msgs_per_party\":{},\
             \"max_locality\":{},\"rounds\":{}}}",
            self.parties,
            self.max_bytes_per_party,
            self.max_bytes_sent,
            self.total_bytes,
            self.total_msgs,
            self.max_msgs_per_party,
            self.max_locality,
            self.rounds
        )
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parties={} rounds={} max_bytes/party={} total_bytes={} max_msgs/party={} max_locality={}",
            self.parties,
            self.rounds,
            self.max_bytes_per_party,
            self.total_bytes,
            self.max_msgs_per_party,
            self.max_locality
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_report() {
        let mut t = MetricsTable::new(3);
        t.record_send(PartyId(0), PartyId(1), 100);
        t.record_receive(PartyId(1), PartyId(0), 100);
        t.record_send(PartyId(0), PartyId(2), 50);
        t.record_receive(PartyId(2), PartyId(0), 50);
        t.bump_round();

        assert_eq!(t.party(PartyId(0)).bytes_sent, 150);
        assert_eq!(t.party(PartyId(0)).locality(), 2);
        assert_eq!(t.party(PartyId(1)).bytes_received, 100);
        assert_eq!(t.party(PartyId(1)).locality(), 1);

        let r = t.report();
        assert_eq!(r.parties, 3);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.max_bytes_per_party, 150);
        assert_eq!(r.total_bytes, 150);
        assert_eq!(r.max_locality, 2);
        assert_eq!(r.max_bits_per_party(), 1200);
    }

    #[test]
    fn report_for_subset_excludes_others() {
        let mut t = MetricsTable::new(3);
        t.record_send(PartyId(0), PartyId(1), 1000);
        t.record_send(PartyId(2), PartyId(1), 5);
        let r = t.report_for([PartyId(2)]);
        assert_eq!(r.parties, 1);
        assert_eq!(r.max_bytes_per_party, 5);
    }

    #[test]
    fn synthetic_charge() {
        let mut t = MetricsTable::new(1);
        t.charge_synthetic_tagged(PartyId(0), 42, 3, wire::tag::RAW);
        assert_eq!(t.party(PartyId(0)).bytes_sent, 42);
        assert_eq!(t.party(PartyId(0)).msgs_sent, 3);
    }

    #[test]
    fn synthetic_link_charge_reaches_locality_and_totals() {
        // The silent-metrics gap: an addressee-less synthetic charge leaves
        // redundant-path copies out of locality() and out of the
        // receiver's bytes_total(). A link charge must surface both.
        let mut t = MetricsTable::new(3);
        t.charge_exchange(&[PartyId(0)], &[PartyId(1)], 64, wire::tag::RAW, false);
        t.charge_exchange(&[PartyId(0)], &[PartyId(2)], 64, wire::tag::RAW, false);

        // Sender side: bytes, messages, and *locality* all move.
        assert_eq!(t.party(PartyId(0)).bytes_sent, 128);
        assert_eq!(t.party(PartyId(0)).msgs_sent, 2);
        assert_eq!(
            t.party(PartyId(0)).locality(),
            2,
            "synthetic copies must count toward the sender's locality"
        );

        // Receiver side: the copy shows up in bytes_total and locality —
        // this is exactly what the addressee-less variant fails to do.
        assert_eq!(t.party(PartyId(1)).bytes_received, 64);
        assert_eq!(t.party(PartyId(1)).bytes_total(), 64);
        assert_eq!(t.party(PartyId(1)).locality(), 1);

        // Contrast with the addressee-less charge: no locality, no
        // receiver bytes.
        let mut bare = MetricsTable::new(3);
        bare.charge_synthetic_tagged(PartyId(0), 128, 2, wire::tag::RAW);
        assert_eq!(bare.party(PartyId(0)).locality(), 0);
        assert_eq!(bare.party(PartyId(1)).bytes_total(), 0);

        // Aggregate view: the report's locality column sees the links.
        let r = t.report();
        assert_eq!(r.max_locality, 2);
        assert_eq!(r.max_bytes_per_party, 128);
    }

    #[test]
    fn tagged_marginals_conserve_untyped_totals() {
        use crate::wire::tag;
        let mut t = MetricsTable::new(3);
        t.record_send_tagged(PartyId(0), PartyId(1), 10, tag::VALUE_SEED);
        t.record_receive_tagged(PartyId(1), PartyId(0), 10, tag::VALUE_SEED);
        t.record_send(PartyId(0), PartyId(2), 5); // untyped → RAW bucket
        t.charge_synthetic_tagged(PartyId(2), 7, 1, tag::ESTABLISH);
        t.charge_exchange(&[PartyId(1)], &[PartyId(2)], 3, tag::SPREAD, false);
        assert!(t.tags_conserve_totals());

        assert_eq!(t.party(PartyId(0)).sent_by_tag[&tag::VALUE_SEED], 10);
        assert_eq!(t.party(PartyId(0)).sent_by_tag[&tag::RAW], 5);
        assert_eq!(t.party(PartyId(0)).bytes_sent, 15);

        let bd = t.breakdown_for((0..3u64).map(PartyId));
        assert_eq!(bd.total_sent(), t.report().total_bytes);
        assert_eq!(bd.sent[&tag::SPREAD], 3);
        assert_eq!(bd.received[&tag::SPREAD], 3);
        assert!(bd
            .sent_by_step_label()
            .iter()
            .any(|(l, b)| *l == "3:disseminate" && *b == 10));
    }

    #[test]
    fn locality_counts_union_not_sum() {
        let mut t = MetricsTable::new(2);
        t.record_send(PartyId(0), PartyId(1), 1);
        t.record_receive(PartyId(0), PartyId(1), 1);
        assert_eq!(t.party(PartyId(0)).locality(), 1);
    }

    #[test]
    fn cells_materialize_on_first_charge_only() {
        // The O(n²)-shaped waste this rewrite removes: a table for a
        // million parties must cost pointer slots only until charged.
        let mut t = MetricsTable::new(1 << 20);
        assert_eq!(t.allocated_cells(), 0);
        t.record_send(PartyId(7), PartyId(9), 10);
        assert_eq!(t.allocated_cells(), 1);
        t.record_receive(PartyId(9), PartyId(7), 10);
        assert_eq!(t.allocated_cells(), 2);
        // Re-charging an existing cell allocates nothing new.
        t.record_send(PartyId(7), PartyId(9), 10);
        assert_eq!(t.allocated_cells(), 2);
        // Untouched parties still report exact zeros.
        assert_eq!(t.party(PartyId(500_000)), PartyMetrics::default());
        let r = t.report();
        assert_eq!(r.parties, 1 << 20);
        assert_eq!(r.total_bytes, 20);
    }

    #[test]
    fn shadow_agrees_on_mixed_charge_sequence() {
        use crate::wire::tag;
        let mut t = MetricsTable::new(8);
        t.enable_shadow();
        t.record_send_tagged(PartyId(0), PartyId(1), 10, tag::VALUE_SEED);
        t.record_receive_tagged(PartyId(1), PartyId(0), 10, tag::VALUE_SEED);
        t.record_send(PartyId(3), PartyId(2), 17);
        t.charge_synthetic_tagged(PartyId(4), 100, 2, tag::ESTABLISH);
        t.charge_exchange(&[PartyId(5)], &[PartyId(6)], 64, tag::AGGR_SHARE, false);
        t.charge_synthetic_tagged(PartyId(7), 1, 1, tag::RAW);
        t.bump_round();
        t.record_send_tagged(PartyId(0), PartyId(1), 3, tag::SPREAD);
        assert_eq!(t.shadow_divergence(), None);
    }

    fn ids(seats: &[u64]) -> Vec<PartyId> {
        seats.iter().copied().map(PartyId).collect()
    }

    /// Charges one exchange in bulk on a shadowed table and as its
    /// per-link definition on a second; every observable must agree.
    /// Returns the bulk table.
    fn bulk_equals_per_link(
        n: usize,
        senders: &[u64],
        receivers: &[u64],
        bytes: usize,
        skip_self: bool,
    ) -> MetricsTable {
        use crate::wire::tag;
        let (senders, receivers) = (ids(senders), ids(receivers));
        let mut bulk = MetricsTable::new(n);
        bulk.enable_shadow();
        let links = bulk.charge_exchange(&senders, &receivers, bytes, tag::AGGR_SHARE, skip_self);
        let mut per_link = MetricsTable::new(n);
        for &s in &senders {
            for &r in &receivers {
                if skip_self && r == s {
                    continue;
                }
                per_link.record_send_tagged(s, r, bytes, tag::AGGR_SHARE);
                per_link.record_receive_tagged(r, s, bytes, tag::AGGR_SHARE);
            }
        }
        assert_eq!(bulk.shadow_divergence(), None);
        for i in 0..n {
            let id = PartyId::from(i);
            assert_eq!(bulk.party(id), per_link.party(id), "party {i}");
        }
        assert_eq!(bulk.report(), per_link.report());
        assert_eq!(links, per_link.report().total_msgs);
        assert_eq!(bulk.allocated_cells(), per_link.allocated_cells());
        assert!(bulk.tags_conserve_totals());
        bulk
    }

    #[test]
    fn exchange_equals_per_link_on_disjoint_committees() {
        let t = bulk_equals_per_link(16, &[0, 1, 2], &[7, 9, 8, 15], 100, false);
        assert_eq!(t.party(PartyId(1)).bytes_sent, 400);
        assert_eq!(t.party(PartyId(9)).msgs_received, 3);
        // Disjoint sides: skip_self changes nothing.
        bulk_equals_per_link(16, &[0, 1, 2], &[7, 9, 8, 15], 100, true);
    }

    #[test]
    fn exchange_equals_per_link_on_overlapping_committees() {
        // An intra-committee exchange, and a partial overlap.
        let t = bulk_equals_per_link(8, &[1, 3, 5], &[1, 3, 5], 10, true);
        assert_eq!(t.party(PartyId(3)).msgs_sent, 2);
        assert_eq!(t.party(PartyId(3)).locality(), 2, "own id is no peer");
        bulk_equals_per_link(8, &[1, 3, 5], &[3, 4, 5, 6], 10, true);
        // Without skip_self a party is its own peer, as per link.
        let t = bulk_equals_per_link(8, &[1, 3, 5], &[3, 4, 5, 6], 10, false);
        assert!(t.party(PartyId(3)).peers_out.contains(&PartyId(3)));
    }

    #[test]
    fn exchange_counts_duplicate_seats_by_multiplicity() {
        // Party 2 holds two sender seats, party 5 three receiver seats,
        // party 4 one of each.
        let t = bulk_equals_per_link(8, &[2, 4, 2], &[5, 4, 5, 6, 5], 7, true);
        assert_eq!(t.party(PartyId(2)).msgs_sent, 10);
        assert_eq!(t.party(PartyId(4)).msgs_sent, 4);
        assert_eq!(t.party(PartyId(5)).msgs_received, 9);
        assert_eq!(t.party(PartyId(5)).peers_in.len(), 2);
        bulk_equals_per_link(8, &[2, 4, 2], &[5, 4, 5, 6, 5], 7, false);
    }

    #[test]
    fn zero_byte_exchange_still_writes_the_tag_row() {
        use crate::wire::tag;
        let t = bulk_equals_per_link(6, &[0, 1], &[1, 2], 0, true);
        assert_eq!(
            t.party(PartyId(0)).sent_by_tag.get(&tag::AGGR_SHARE),
            Some(&0)
        );
        assert_eq!(
            t.party(PartyId(2)).recv_by_tag.get(&tag::AGGR_SHARE),
            Some(&0)
        );
        assert_eq!(t.party(PartyId(0)).msgs_sent, 2);
    }

    #[test]
    fn linkless_seats_are_not_materialized() {
        // Empty sides, and a party whose only counterpart is itself.
        for (senders, receivers) in [
            (&[][..], &[1u64, 2][..]),
            (&[1, 2][..], &[][..]),
            (&[][..], &[][..]),
            (&[3][..], &[3][..]),
            (&[3, 3][..], &[3][..]),
        ] {
            let t = bulk_equals_per_link(8, senders, receivers, 50, true);
            assert_eq!(t.allocated_cells(), 0, "{senders:?} -> {receivers:?}");
            assert_eq!(t.breakdown_for((0..8u64).map(PartyId)), Default::default());
        }
        // k = 0 for one seat only: party 3 sends nothing (its own seat is
        // the sole receiver it could address) but still receives from 1.
        let t = bulk_equals_per_link(8, &[1, 3], &[3], 50, true);
        assert_eq!(t.allocated_cells(), 2);
        assert!(t.party(PartyId(3)).sent_by_tag.is_empty());

        let mut t = MetricsTable::new(4);
        t.enable_shadow();
        t.record_sends_tagged(PartyId(0), &[], 9, 1);
        assert_eq!(t.allocated_cells(), 0);
        assert_eq!(t.shadow_divergence(), None);
    }

    /// `(groups_out, groups_in)` reference counts of a charged cell.
    fn references(t: &MetricsTable, party: usize) -> (usize, usize) {
        let cell = t.cells[party].as_deref().expect("charged");
        (cell.groups_out.len(), cell.groups_in.len())
    }

    #[test]
    fn repeat_exchange_adds_no_reference() {
        let (committee, parent) = (ids(&[1, 2, 3, 4, 5]), ids(&[5, 6, 7]));
        let mut t = MetricsTable::new(8);
        t.enable_shadow();
        t.charge_exchange(&committee, &committee, 10, 3, true);
        t.charge_exchange(&committee, &parent, 10, 3, true);
        t.charge_exchange(&parent, &committee, 10, 3, true);
        assert_eq!(t.peer_groups(), 2);
        let state = |t: &MetricsTable| {
            let counts: Vec<_> = (1..8).map(|p| references(t, p)).collect();
            (t.peer_groups(), counts)
        };
        let before = state(&t);
        assert_eq!(before.1[0], (2, 2), "party 1: own committee and parent");
        // The same three exchanges again under another tag and size.
        t.charge_exchange(&committee, &committee, 99, 4, true);
        t.charge_exchange(&committee, &parent, 0, 4, true);
        t.charge_exchange(&parent, &committee, 7, 5, true);
        assert_eq!(state(&t), before);
        assert_eq!(t.party(PartyId(1)).msgs_sent, 2 * (4 + 3));

        // A strict sub-committee of senders is one more group, once.
        let honest = ids(&[1, 2, 4]);
        for _ in 0..3 {
            t.charge_exchange(&honest, &parent, 10, 3, true);
        }
        assert_eq!(t.peer_groups(), 3);
        assert_eq!(references(&t, 1), before.1[0], "senders gain nothing");
        assert_eq!(references(&t, 6), (before.1[5].0, before.1[5].1 + 1));
        assert_eq!(t.shadow_divergence(), None);
    }

    #[test]
    fn same_members_intern_once() {
        let mut t = MetricsTable::new(8);
        t.enable_shadow();
        t.charge_exchange(&ids(&[2, 4, 2]), &ids(&[6]), 1, 1, true);
        assert_eq!(t.peer_groups(), 2);
        t.charge_exchange(&ids(&[4, 2]), &ids(&[6]), 1, 1, true);
        assert_eq!(
            t.peer_groups(),
            2,
            "seat order and multiplicity are not content"
        );
        // A skipping and a plain reference point at the same list.
        t.charge_exchange(&ids(&[2, 4]), &ids(&[2, 4]), 1, 1, true);
        t.charge_exchange(&ids(&[2, 4]), &ids(&[2, 4]), 1, 1, false);
        assert_eq!(t.peer_groups(), 2);
        assert_eq!(references(&t, 2), (3, 2), "out: {{6}}, own∖self, own");
        // Only a member has an own id to leave out: party 6 holds one
        // reference to {2, 4} whatever `skip_self` said.
        t.charge_exchange(&ids(&[4, 2]), &ids(&[6]), 1, 1, false);
        assert_eq!(references(&t, 6), (0, 1));
        assert_eq!(t.shadow_divergence(), None);
    }

    #[test]
    fn skip_bit_is_per_reference() {
        let committee = ids(&[1, 3, 5]);
        let mut t = MetricsTable::new(8);
        t.enable_shadow();
        t.charge_exchange(&committee, &committee, 10, 3, true);
        assert!(!t.party(PartyId(3)).peers_out.contains(&PartyId(3)));
        assert_eq!(t.report().max_locality, 2);
        // The same committee without `skip_self`: per link, 3 now sends to
        // and receives from itself, and the first reference must not hide it.
        t.charge_exchange(&committee, &committee, 10, 3, false);
        let m = t.party(PartyId(3));
        assert!(m.peers_out.contains(&PartyId(3)) && m.peers_in.contains(&PartyId(3)));
        assert_eq!(m.locality(), 3);
        assert_eq!(t.report().max_locality, 3);
        assert_eq!(t.shadow_divergence(), None);
    }

    #[test]
    fn out_of_range_peer_is_counted_not_indexed() {
        // A peer position has never been range-checked; only the charged
        // party's is (it indexes the cell).
        let far = PartyId(1 << 40);
        let mut t = MetricsTable::new(4);
        t.enable_shadow();
        t.record_send(PartyId(0), far, 1);
        t.record_receive(PartyId(0), far, 1);
        t.record_send(PartyId(0), PartyId(2), 1);
        t.record_sends_tagged(PartyId(1), &[far, PartyId(4), far], 1, 2);
        assert_eq!(t.party(PartyId(0)).locality(), 2);
        assert_eq!(t.party(PartyId(1)).locality(), 2);
        assert_eq!(t.report().max_locality, 2);
        assert_eq!(t.shadow_divergence(), None);
    }

    #[test]
    fn locality_is_per_party_across_one_report() {
        // One stamped row serves every party of a report call: a peer
        // counted for party 0 must count again for party 1.
        let mut t = MetricsTable::new(6);
        t.enable_shadow();
        t.charge_exchange(&ids(&[0, 1]), &ids(&[2, 3, 4]), 1, 1, false);
        t.record_send(PartyId(1), PartyId(5), 1);
        t.record_receive(PartyId(1), PartyId(2), 1);
        assert_eq!(t.report_for(ids(&[0, 1, 0])).max_locality, 4);
        assert_eq!(t.report_for(ids(&[1, 0])).max_locality, 4);
        assert_eq!(t.report_for(ids(&[0])).max_locality, 3);
        assert_eq!(t.shadow_divergence(), None);
    }

    #[test]
    fn sends_equal_per_link_sends() {
        let mut bulk = MetricsTable::new(8);
        bulk.enable_shadow();
        bulk.record_sends_tagged(PartyId(2), &ids(&[5, 1, 5, 2]), 11, 6);
        let m = bulk.party(PartyId(2));
        assert_eq!((m.bytes_sent, m.msgs_sent), (44, 4));
        assert_eq!(m.peers_out, ids(&[1, 2, 5]).into_iter().collect());
        assert_eq!(bulk.allocated_cells(), 1, "sender side only");
        assert_eq!(bulk.shadow_divergence(), None);
        assert!(bulk.tags_conserve_totals());
    }

    #[test]
    fn sent_and_max_total_matches_report_columns() {
        let mut t = MetricsTable::new(6);
        t.charge_exchange(&ids(&[0, 1]), &ids(&[1, 2, 3]), 10, 1, true);
        t.charge_synthetic_tagged(PartyId(4), 1000, 1, wire::tag::RAW);
        let honest = || ids(&[0, 1, 2, 5]).into_iter();
        let report = t.report_for(honest());
        assert_eq!(
            t.sent_and_max_total_for(honest()),
            (report.total_bytes, report.max_bytes_per_party)
        );
    }

    #[test]
    fn shadow_divergence_is_none_without_shadow() {
        let mut t = MetricsTable::new(2);
        t.record_send(PartyId(0), PartyId(1), 5);
        assert_eq!(t.shadow_divergence(), None);
    }

    #[test]
    fn shadow_armed_mid_run_starts_from_the_current_state() {
        use crate::wire::tag;
        let mut t = MetricsTable::new(6);
        t.charge_exchange(&ids(&[0, 1]), &ids(&[2, 3]), 10, tag::ESTABLISH, true);
        t.charge_synthetic_tagged(PartyId(4), 7, 1, tag::ESTABLISH);
        t.bump_round();
        t.enable_shadow();
        assert_eq!(t.shadow_divergence(), None, "seeded equal");
        t.charge_exchange(&ids(&[2, 3]), &ids(&[0, 5]), 3, tag::AGGR_SHARE, false);
        t.record_sends_tagged(PartyId(1), &ids(&[4, 5]), 2, tag::SPREAD);
        t.bump_round();
        assert_eq!(t.shadow_divergence(), None, "tracks every later charge");
        assert_eq!(t.party(PartyId(0)).bytes_total(), 20 + 6);
        // Arming again re-seeds from the state as it is now.
        t.enable_shadow();
        assert_eq!(t.shadow_divergence(), None);
    }
}
