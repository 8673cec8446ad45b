//! The sharded parallel frontier engine — determinism v2.
//!
//! The sequential engines define determinism by a single global draw order: vertex `u`'s
//! pushes consume whatever words happen to come next on the shared trial stream, so any
//! change of iteration schedule changes every trajectory. That definition makes frontier
//! iteration inherently serial — the RNG stream *is* a serialization point — and it is why
//! post-saturation rounds (where |A_t| ≈ n and a round is pure sampling) gained only ~1.1×
//! from the sparse-frontier engine.
//!
//! Stream mode replaces it with **per-vertex determinism**: a trial owns one 32-byte key
//! ([`VertexStreams`]), and every entity draws from the counter-based ChaCha8 stream keyed
//! by `(key, entity, round)` ([`rand_chacha::ChaCha8Rng::stream_for`]). Draws no longer
//! have a global order at all — only per-entity orders, which are fixed by construction —
//! so frontier iteration can be sharded across threads and the trajectory is *bit-identical
//! for every thread count*, `--threads 1` included.
//!
//! # Entity-id contract
//!
//! | entity id            | owner                                                        |
//! |----------------------|--------------------------------------------------------------|
//! | `0..n`               | vertex `v` (COBRA, BIPS, PUSH, PUSH–PULL, contact); the walk |
//! |                      | keys by its *current position*                               |
//! | `0..w`               | walker index (multiple walks)                                |
//! | [`FAULT_ENTITY`]     | [`FaultedProcess`](crate::FaultedProcess) plan dynamics      |
//! | [`ADVERSARY_ENTITY`] | [`AdversarialProcess`](crate::AdversarialProcess) `observe`  |
//! | [`DEFENSE_ENTITY`]   | [`DefendedProcess`](crate::DefendedProcess) `observe`        |
//!
//! The reserved ids sit at the top of the `u64` space, unreachable by any vertex or walker
//! count, so wrapper dynamics (crash sampling, Gilbert–Elliott sojourns, policy
//! tie-breaking) stay deterministic and schedule-independent too.
//!
//! # Equivalence contract (v2)
//!
//! * **Thread-count invariance (exact):** a stream-mode trajectory is bit-identical across
//!   `threads = 1, 2, 4, 8, …` — enforced by proptests for all seven processes.
//! * **Distribution equivalence (statistical):** stream mode is *not* bit-identical to the
//!   sequential engine (the draws come from different streams by design), but cover-time
//!   distributions match — enforced by matched-quantile tests under common random numbers
//!   at the trial level.
//!
//! # One step, two draw sources
//!
//! Every process has exactly one stepping body,
//! [`SpreadingProcess::step_with`], which takes its randomness as [`Draws`]:
//!
//! * [`Draws::Shared`] — determinism v1: one shared sequential stream consumed in the
//!   process's iteration order, with proposals applied the moment they are made;
//! * [`Draws::Streams`] — determinism v2: the per-`(entity, round)` streams above, with
//!   items sharded across the engine's threads and proposals merged in item order.
//!
//! A process writes its per-item work once, as a kernel generic over the RNG type, and
//! hands it to the crate-internal driver here, which runs it over a frontier, a walker
//! vector or the full vertex range in either mode. Wrappers draw their own dynamics through
//! [`Draws::with_entity_rng`]: the shared stream itself, or their reserved entity's stream.
//!
//! # Deriving streams eight at a time
//!
//! In a saturated round almost every vertex is active and draws only a few words, so the
//! cost of a round is mostly the first ChaCha8 block of each vertex stream. Each stream
//! shard therefore walks its index range in groups of [`LANES`] (8) consecutive items and
//! derives their streams together with [`VertexStreams::stream_lanes`]: on x86-64 CPUs
//! with AVX2 one 8-lane kernel computes the eight first blocks side by side (see the
//! vendored `rand_chacha`). The last `len % 8` items of a shard derive theirs one by one
//! with [`ParallelFrontier::stream`]. Lane `l` of a group is word for word the stream
//! `stream(entity, round)` would build, and the items still run and merge in index order,
//! so grouping changes no trajectory: the shard boundaries and tails a thread count
//! induces stay invisible, as the thread-invariance contract requires.

use cobra_graph::sample::VertexStreams;
use cobra_graph::{Graph, VertexBitset, VertexId};
use rand::RngCore;
use rand_chacha::{ChaCha8Rng, LANES};

use crate::fault::StepFaults;
use crate::process::SpreadingProcess;
use crate::{CoreError, Result};

/// Reserved entity id for [`FaultedProcess`](crate::FaultedProcess) plan dynamics (crash
/// resolution, repair/re-crash sweeps, Gilbert–Elliott channel advances).
pub const FAULT_ENTITY: u64 = u64::MAX;

/// Reserved entity id for [`AdversarialProcess`](crate::AdversarialProcess) policy
/// observation draws.
pub const ADVERSARY_ENTITY: u64 = u64::MAX - 1;

/// Reserved entity id for [`DefendedProcess`](crate::DefendedProcess) policy observation
/// draws.
pub const DEFENSE_ENTITY: u64 = u64::MAX - 2;

/// Where one [`step_with`](SpreadingProcess::step_with) takes its randomness from.
pub enum Draws<'a> {
    /// Determinism v1: one shared sequential stream, consumed in the process's iteration
    /// order; proposals are applied directly.
    Shared(&'a mut dyn RngCore),
    /// Determinism v2: every entity draws from its own `(entity, round)` stream of the
    /// engine; items are sharded across its threads and proposals merged in item order.
    Streams(&'a ParallelFrontier),
}

impl std::fmt::Debug for Draws<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if matches!(self, Draws::Shared(_)) {
            "Draws::Shared"
        } else {
            "Draws::Streams"
        })
    }
}

/// Where a kernel's output goes: proposed activations and sent messages. A process passes
/// its merge — what applying a proposal means for its next state — as a sink too.
pub(crate) trait Sink {
    /// Proposes (or, for a process's merge, applies) the activation of `v`.
    fn propose(&mut self, v: VertexId);

    /// Whether `v` was already claimed this round. Only the shared path applies proposals
    /// as they are made, so only it can answer; stream shards always answer `false`, which
    /// keeps every entity's draw count independent of the schedule.
    fn claimed(&self, v: VertexId) -> bool {
        let _ = v;
        false
    }

    /// Counts one sent message (PUSH and PUSH–PULL cost accounting).
    fn message(&mut self) {}
}

impl<F: FnMut(VertexId)> Sink for F {
    fn propose(&mut self, v: VertexId) {
        self(v);
    }
}

/// One process's per-item work for a round, written once for both draw sources: `rng` is
/// the shared `dyn RngCore` or the item's own ChaCha8 stream.
pub(crate) trait Kernel: Sync {
    /// Runs the work of `item` (a vertex, or a walker's position).
    fn run<R: RngCore + ?Sized, S: Sink>(&self, item: VertexId, rng: &mut R, sink: &mut S);
}

/// The common merge: claim `v` in `next`, and run `fresh` when it was not claimed before.
pub(crate) struct Claim<'a, F> {
    pub(crate) next: &'a mut VertexBitset,
    pub(crate) fresh: F,
}

impl<F: FnMut(VertexId)> Sink for Claim<'_, F> {
    #[inline(always)]
    fn propose(&mut self, v: VertexId) {
        if self.next.insert(v) {
            (self.fresh)(v);
        }
    }

    fn claimed(&self, v: VertexId) -> bool {
        self.next.contains(v)
    }
}

/// The items a driver pass iterates, and whose stream each one draws from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Items<'a> {
    /// Frontier vertices, each drawing from its own vertex stream.
    Vertices(&'a [VertexId]),
    /// Every vertex `0..n`, each drawing from its own vertex stream.
    All(usize),
    /// Walker positions: walker `i` owns stream `i` (keying by position would weld
    /// co-located walkers together — they would share every draw and never separate).
    Walkers(&'a [VertexId]),
}

impl Items<'_> {
    fn len(&self) -> usize {
        match *self {
            Items::Vertices(items) | Items::Walkers(items) => items.len(),
            Items::All(n) => n,
        }
    }

    /// Item `i`, and the stream entity it draws from.
    #[inline(always)]
    fn get(&self, i: usize) -> (u64, VertexId) {
        match *self {
            Items::Vertices(items) => (items[i] as u64, items[i]),
            Items::All(_) => (i as u64, i),
            Items::Walkers(items) => (i as u64, items[i]),
        }
    }
}

/// The shared path's sink: proposals go straight to the process's merge.
struct Direct<M> {
    merge: M,
    messages: u64,
}

impl<M: Sink> Sink for Direct<M> {
    #[inline(always)]
    fn propose(&mut self, v: VertexId) {
        self.merge.propose(v);
    }

    fn claimed(&self, v: VertexId) -> bool {
        self.merge.claimed(v)
    }

    fn message(&mut self) {
        self.messages += 1;
    }
}

/// One stream shard's buffered output, merged in shard order after the fan-out.
struct Shard {
    proposals: Vec<VertexId>,
    messages: u64,
}

impl Sink for Shard {
    fn propose(&mut self, v: VertexId) {
        self.proposals.push(v);
    }

    fn message(&mut self) {
        self.messages += 1;
    }
}

impl Draws<'_> {
    /// Runs `f` on the RNG for `entity`'s draws at `round`: the shared stream itself, or
    /// the entity's own stream. Wrappers draw their dynamics through this with their
    /// reserved entity id.
    // cobra-lint: draws(bounded)
    pub fn with_entity_rng<T>(
        &mut self,
        entity: u64,
        round: usize,
        f: impl FnOnce(&mut dyn RngCore) -> T,
    ) -> T {
        match self {
            Draws::Shared(rng) => f(&mut **rng),
            Draws::Streams(engine) => f(&mut engine.stream(entity, round as u64)),
        }
    }

    /// Runs `kernel` once per item of round `round` and applies its proposals through
    /// `merge` in item order, returning the number of messages the kernel counted. Shared
    /// draws run the items in order on the one stream, applying each proposal at once;
    /// streams shard the items across the engine's threads and merge the buffered
    /// proposals in shard order, so the result is the same at every thread count.
    // Inlined into each process's step: the `items` match folds away and the kernel and
    // the merge inline into one loop, as in a hand-written step.
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    #[inline(always)]
    pub(crate) fn run<K: Kernel, M: Sink>(
        self,
        items: Items<'_>,
        round: usize,
        kernel: K,
        mut merge: M,
    ) -> u64 {
        let engine = match self {
            Draws::Shared(rng) => {
                let mut sink = Direct { merge, messages: 0 };
                match items {
                    Items::Vertices(items) | Items::Walkers(items) => {
                        for &item in items {
                            kernel.run(item, rng, &mut sink);
                        }
                    }
                    Items::All(n) => {
                        for item in 0..n {
                            kernel.run(item, rng, &mut sink);
                        }
                    }
                }
                return sink.messages;
            }
            Draws::Streams(engine) => engine,
        };
        let round = round as u64;
        // `move` keeps the kernel the shards share apart from the one the shared path
        // reads, which can then live in registers.
        let shards = engine.fan_out_ranges(items.len(), move |range| {
            let mut shard = Shard { proposals: Vec::with_capacity(range.len()), messages: 0 };
            // Whole groups of `LANES` items derive their streams together, the tail one at a
            // time; items still run in index order.
            let tail = range.end - range.len() % LANES;
            for start in (range.start..tail).step_by(LANES) {
                let entities = std::array::from_fn(|lane| items.get(start + lane).0);
                let mut lanes = engine.streams.stream_lanes(&entities, round);
                for (lane, rng) in lanes.iter_mut().enumerate() {
                    kernel.run(items.get(start + lane).1, rng, &mut shard);
                }
            }
            for i in tail..range.end {
                let (entity, item) = items.get(i);
                kernel.run(item, &mut engine.stream(entity, round), &mut shard);
            }
            shard
        });
        let mut messages = 0;
        for shard in shards {
            messages += shard.messages;
            shard.proposals.into_iter().for_each(|v| merge.propose(v));
        }
        messages
    }
}

/// The per-trial stream engine behind [`Draws::Streams`]: the trial's [`VertexStreams`]
/// key plus the worker-thread count for sharded frontier iteration.
#[derive(Debug, Clone)]
pub struct ParallelFrontier {
    streams: VertexStreams,
    threads: usize,
}

impl ParallelFrontier {
    /// Builds an engine from an explicit stream key.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `threads == 0`.
    pub fn new(streams: VertexStreams, threads: usize) -> Result<Self> {
        if threads == 0 {
            return Err(CoreError::InvalidParameters {
                reason: "the parallel frontier engine needs at least one thread".to_string(),
            });
        }
        Ok(ParallelFrontier { streams, threads })
    }

    /// Draws the trial key from `rng` (the per-trial RNG), so the engine is a pure function
    /// of the trial seed and the existing `(master, label, index)` seeding path carries
    /// over unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `threads == 0`.
    // cobra-lint: draws(bounded)
    pub fn from_rng(rng: &mut dyn RngCore, threads: usize) -> Result<Self> {
        Self::new(VertexStreams::from_rng(rng), threads)
    }

    /// The per-entity stream table.
    pub fn streams(&self) -> &VertexStreams {
        &self.streams
    }

    /// The worker-thread count shard fan-outs use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The independent ChaCha8 stream of `entity` at `round` — shorthand for
    /// `self.streams().stream(entity, round)`.
    #[inline]
    pub fn stream(&self, entity: u64, round: u64) -> ChaCha8Rng {
        self.streams.stream(entity, round)
    }

    /// Shards `items` across the engine's threads, collecting each shard's result in shard
    /// order: `op(shard_base, shard_items)` runs on scoped threads via the vendored rayon.
    /// Shards are contiguous, so concatenating the results preserves item order.
    pub fn fan_out<T, R, F>(&self, items: &[T], op: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        rayon::par_chunks(items, self.threads, op)
    }

    /// Range analogue of [`fan_out`](Self::fan_out): shards `0..len` into contiguous
    /// sub-ranges. The step driver shards item indices this way, and merging in range
    /// order is what makes stream mode thread-count invariant.
    pub fn fan_out_ranges<R, F>(&self, len: usize, op: F) -> Vec<R>
    where
        R: Send,
        F: Fn(std::ops::Range<usize>) -> R + Sync,
    {
        rayon::par_ranges(len, self.threads, op)
    }
}

/// Wraps a process so the ordinary [`SpreadingProcess`] driving loop — the `Runner`,
/// observers, the Monte-Carlo driver, `repro` — runs it in stream mode without any
/// changes: [`step_with`](SpreadingProcess::step_with) ignores the caller's draws (all
/// randomness comes from the per-entity streams) and steps the inner process with
/// [`Draws::Streams`] over the held engine.
pub struct ParallelProcess<'g> {
    inner: Box<dyn SpreadingProcess + Send + 'g>,
    engine: ParallelFrontier,
}

impl std::fmt::Debug for ParallelProcess<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelProcess").field("engine", &self.engine).finish_non_exhaustive()
    }
}

impl<'g> ParallelProcess<'g> {
    /// Wraps `inner` under `engine`.
    pub fn new(inner: Box<dyn SpreadingProcess + Send + 'g>, engine: ParallelFrontier) -> Self {
        ParallelProcess { inner, engine }
    }

    /// Convenience constructor drawing the stream key from the trial RNG.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `threads == 0`.
    // cobra-lint: draws(bounded)
    pub fn from_rng(
        inner: Box<dyn SpreadingProcess + Send + 'g>,
        threads: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Self> {
        Ok(Self::new(inner, ParallelFrontier::from_rng(rng, threads)?))
    }

    /// The held engine.
    pub fn engine(&self) -> &ParallelFrontier {
        &self.engine
    }

    /// The wrapped process.
    pub fn inner(&self) -> &dyn SpreadingProcess {
        self.inner.as_ref()
    }
}

impl SpreadingProcess for ParallelProcess<'_> {
    // The caller's draws are deliberately untouched: stream mode draws only from the
    // per-entity streams, which is exactly what makes the trajectory thread-invariant.
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(0)
    fn step_with(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        let _ = draws;
        self.inner.step_with(Draws::Streams(&self.engine), faults);
    }

    fn round(&self) -> usize {
        self.inner.round()
    }

    crate::process::forward_state_queries!();

    fn adopt_state(&mut self, active: &[VertexId], coverage: Option<&VertexBitset>) -> Result<()> {
        self.inner.adopt_state(active, coverage)
    }

    fn set_branching_boost(&mut self, multiplier: u32) -> f64 {
        self.inner.set_branching_boost(multiplier)
    }

    fn reseed(&mut self, vertices: &[VertexId]) -> usize {
        self.inner.reseed(vertices)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Builds the stream-mode process for `spec` on `graph`: the full wrapper stack from
/// [`ProcessSpec::build`](crate::spec::ProcessSpec::build) (fault, adversary and defense
/// layers included — each draws its dynamics from a reserved entity stream) inside a
/// [`ParallelProcess`] whose trial key comes from `rng`.
///
/// # Errors
///
/// Propagates spec build failures and rejects `threads == 0`.
// cobra-lint: draws(bounded)
pub fn build_parallel<'g>(
    spec: &crate::spec::ProcessSpec,
    graph: &'g Graph,
    threads: usize,
    rng: &mut dyn RngCore,
) -> Result<ParallelProcess<'g>> {
    let inner = spec.build(graph)?;
    ParallelProcess::from_rng(inner, threads, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cobra::{Branching, CobraProcess};
    use crate::process::run_until_complete;
    use cobra_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn engine_validates_thread_count() {
        assert!(ParallelFrontier::new(VertexStreams::new([0u8; 32]), 0).is_err());
        assert!(ParallelFrontier::new(VertexStreams::new([0u8; 32]), 3).is_ok());
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        assert!(ParallelFrontier::from_rng(&mut rng, 0).is_err());
    }

    #[test]
    fn engine_key_is_deterministic_in_the_trial_rng() {
        let key = |threads| {
            let mut rng = ChaCha12Rng::seed_from_u64(9);
            *ParallelFrontier::from_rng(&mut rng, threads).unwrap().streams().key()
        };
        assert_eq!(key(1), key(8), "the key must not depend on the thread count");
    }

    #[test]
    fn parallel_cobra_runs_to_completion_and_ignores_the_caller_rng() {
        let g = generators::connected_random_regular(128, 4, &mut ChaCha12Rng::seed_from_u64(3))
            .unwrap();
        let run = |caller_seed: u64| {
            let cobra = CobraProcess::new(&g, 0, Branching::fixed(2).unwrap()).unwrap();
            let engine = ParallelFrontier::new(VertexStreams::new([11u8; 32]), 2).unwrap();
            let mut p = ParallelProcess::new(Box::new(cobra), engine);
            let mut rng = ChaCha12Rng::seed_from_u64(caller_seed);
            run_until_complete(&mut p, &mut rng, 100_000).unwrap()
        };
        // Different caller RNGs, identical trajectories: the stream key decides everything.
        assert_eq!(run(1), run(2));
    }
}
