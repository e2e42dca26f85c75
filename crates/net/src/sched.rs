//! The worker pool behind the parallel round engine.
//!
//! [`crate::runner::run_phase_threaded`] steps a phase's honest machines on
//! a **persistent scoped worker pool** with over-partitioned,
//! self-scheduled chunks per round:
//!
//! * the phase spawns `workers` scoped threads once; each round's machines
//!   are drained into owned [`WorkItem`]s and pushed onto a shared injector
//!   queue;
//! * chunks are **equal-count contiguous ascending-id ranges**, and each
//!   round is cut into more chunks than workers so an idle worker claims
//!   trailing chunks a one-chunk-per-worker partition would have
//!   serialized behind a slow neighbour;
//! * workers never touch the [`Network`]: every machine steps against a
//!   buffered [`Ctx`] and the per-chunk effect logs are merged on the
//!   calling thread in ascending chunk order — which is ascending
//!   [`PartyId`] order, the sequential engine's order. Claim order
//!   therefore influences *wall-clock only*; transcripts, metrics, and the
//!   adversary's rushing view stay bit-identical for every thread count.

use crate::envelope::{Envelope, PartyId};
use crate::network::{Ctx, Network, RoundEffects};
use crate::runner::Machine;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// A phase-scoped boxed honest machine.
pub(crate) type BoxedMachine<'m> = Box<dyn Machine + Send + 'm>;

/// Chunks offered per worker per round: over-partitioning is what lets an
/// idle worker pick up a trailing chunk while a busy one is still inside
/// an earlier chunk. Three is a latency/overhead compromise — chunk dispatch
/// costs one channel send plus one mutex pull.
const CHUNKS_PER_WORKER: usize = 3;

/// One claimable unit of round work: a contiguous ascending-id run of
/// machines with their inboxes, owned while in flight.
struct WorkItem<'m> {
    chunk: usize,
    round: u64,
    n: usize,
    parties: Vec<(PartyId, BoxedMachine<'m>, Vec<Envelope>)>,
}

/// A completed chunk: machines handed back with their buffered effects.
struct ChunkResult<'m> {
    chunk: usize,
    parties: Vec<(PartyId, BoxedMachine<'m>, RoundEffects)>,
}

/// What a worker reports per chunk: the result, or the caught panic payload
/// (re-raised on the calling thread with its original message).
type ChunkOutcome<'m> = Result<ChunkResult<'m>, Box<dyn Any + Send>>;

/// The per-phase worker pool: a shared injector queue the workers claim
/// chunks from, and a results channel back to the phase-driving thread.
pub(crate) struct Pool<'m> {
    injector: Sender<WorkItem<'m>>,
    results: Receiver<ChunkOutcome<'m>>,
    workers: usize,
}

/// Spawns `workers` scoped pool threads, runs `f` with the pool handle on
/// the calling thread, then shuts the pool down (dropping the injector ends
/// every worker loop; the scope joins them).
pub(crate) fn with_pool<'m, R>(workers: usize, f: impl FnOnce(&mut Pool<'m>) -> R) -> R {
    std::thread::scope(|scope| {
        let (injector, queue) = channel::<WorkItem<'m>>();
        let queue = Arc::new(Mutex::new(queue));
        let (result_tx, results) = channel::<ChunkOutcome<'m>>();
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let result_tx = result_tx.clone();
            scope.spawn(move || worker_loop(&queue, &result_tx));
        }
        drop(result_tx);
        let mut pool = Pool {
            injector,
            results,
            workers,
        };
        f(&mut pool)
    })
}

/// One worker: claim the next chunk on the queue (self-scheduling —
/// whichever worker goes idle first takes the trailing chunk), run it
/// behind a panic guard, report the outcome. Exits when the injector
/// closes at the end of the phase.
fn worker_loop<'m>(queue: &Mutex<Receiver<WorkItem<'m>>>, results: &Sender<ChunkOutcome<'m>>) {
    loop {
        // Holding the lock while blocked in recv serializes *claims*, not
        // work: the next idle worker waits on the mutex and claims the next
        // item the moment the current claimant releases it.
        let item = {
            let guard = queue.lock().unwrap_or_else(|e| e.into_inner());
            match guard.recv() {
                Ok(item) => item,
                Err(_) => return, // phase over
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| run_chunk(item)));
        if results.send(outcome).is_err() {
            return; // phase thread gone (itself unwinding)
        }
    }
}

/// Steps every machine of one chunk against a buffered context.
fn run_chunk(item: WorkItem<'_>) -> ChunkResult<'_> {
    let WorkItem {
        chunk,
        round,
        n,
        parties,
    } = item;
    let mut done = Vec::with_capacity(parties.len());
    for (id, mut machine, inbox) in parties {
        let mut effects = RoundEffects::new();
        machine.on_round(&mut Ctx::buffered(id, round, n, &mut effects), &inbox);
        done.push((id, machine, effects));
    }
    ChunkResult {
        chunk,
        parties: done,
    }
}

impl<'m> Pool<'m> {
    /// Runs one parallel honest step: drain the steppable machines into
    /// equal-count contiguous chunks, let the workers claim them, then
    /// merge the buffered effects in ascending chunk (= [`PartyId`]) order.
    ///
    /// # Panics
    ///
    /// Re-raises (with its original payload) the first panic any machine
    /// hit on a worker — after every in-flight chunk has reported, so no
    /// worker is left holding phase state.
    pub(crate) fn step_round(
        &mut self,
        net: &mut Network,
        machines: &mut BTreeMap<PartyId, BoxedMachine<'m>>,
        inboxes: &mut BTreeMap<PartyId, Vec<Envelope>>,
        round: u64,
        offline: &BTreeSet<PartyId>,
    ) {
        let n = net.len();
        let ids: Vec<PartyId> = machines.keys().copied().collect();
        let mut items: Vec<(PartyId, BoxedMachine<'m>, Vec<Envelope>)> =
            Vec::with_capacity(ids.len());
        for id in ids {
            let inbox = inboxes.remove(&id).unwrap_or_default();
            if offline.contains(&id) {
                // Same as the sequential engine: the inbox is consumed and
                // dropped, the machine keeps its (frozen) state in the map.
                continue;
            }
            let machine = machines.remove(&id).expect("machine present");
            items.push((id, machine, inbox));
        }
        if items.is_empty() {
            return; // every machine offline this round
        }
        let total = items.len();
        let nchunks = (self.workers * CHUNKS_PER_WORKER).min(total);
        let mut items = items.into_iter();
        for chunk in 0..nchunks {
            // Chunk c covers [c·total/nchunks, (c+1)·total/nchunks).
            let len = (chunk + 1) * total / nchunks - chunk * total / nchunks;
            self.injector
                .send(WorkItem {
                    chunk,
                    round,
                    n,
                    parties: items.by_ref().take(len).collect(),
                })
                .expect("pool workers alive");
        }
        let mut results: Vec<ChunkResult<'m>> = Vec::with_capacity(nchunks);
        let mut panic_payload: Option<Box<dyn Any + Send>> = None;
        for _ in 0..nchunks {
            match self.results.recv().expect("pool workers alive") {
                Ok(res) => results.push(res),
                Err(payload) => panic_payload = Some(panic_payload.take().unwrap_or(payload)),
            }
        }
        if let Some(payload) = panic_payload {
            // Re-raise machine panics with their original payload so
            // `should_panic` expectations and chaos harnesses see the same
            // message as under sequential execution.
            resume_unwind(payload);
        }
        // Chunks are contiguous ascending-id ranges, so ascending chunk
        // order is ascending PartyId order — the sequential merge order.
        results.sort_by_key(|r| r.chunk);
        for res in results {
            for (id, machine, effects) in res.parties {
                net.apply_effects(effects);
                machines.insert(id, machine);
            }
        }
    }
}
