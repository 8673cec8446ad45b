//! A discrete-time SIS contact process with an optional persistent source.
//!
//! The paper notes that COBRA/BIPS is a discrete cousin of Harris' contact process: infected
//! vertices infect each neighbour at rate `µ` and recover at rate 1. The discrete-time
//! approximation here proceeds in rounds: an infected vertex infects each neighbour
//! independently with probability `infection_probability`, and then recovers with probability
//! `recovery_probability` (unless it is the persistent source, mirroring the BVDV
//! "persistently infected animal" scenario the paper cites). Unlike BIPS, the process can die
//! out when no source is pinned — which is exactly the behaviour the experiments contrast.
//!
//! Transmission is push-style, so a round iterates the explicit infected frontier and costs
//! `O(Σ_{u ∈ A_t} deg(u) + n/64)` — independent of how many vertices are *healthy*.

use cobra_graph::{Graph, VertexBitset, VertexId};
use rand::{Rng, RngCore};

use crate::fault::StepFaults;
use crate::parallel::{Claim, Draws, Items, Kernel, Sink};
use crate::process::SpreadingProcess;
use crate::{CoreError, Result};

/// Parameters of the discrete SIS contact process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactParameters {
    /// Probability that an infected vertex transmits to a given neighbour in one round.
    pub infection_probability: f64,
    /// Probability that an infected vertex recovers at the end of a round.
    pub recovery_probability: f64,
}

impl ContactParameters {
    /// Validated constructor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if either probability is outside `[0, 1]`.
    pub fn new(infection_probability: f64, recovery_probability: f64) -> Result<Self> {
        for (name, p) in [("infection", infection_probability), ("recovery", recovery_probability)]
        {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(CoreError::InvalidParameters {
                    reason: format!("{name} probability {p} must be in [0, 1]"),
                });
            }
        }
        Ok(ContactParameters { infection_probability, recovery_probability })
    }
}

/// A running discrete SIS contact process.
#[derive(Debug, Clone)]
pub struct ContactProcess<'g> {
    graph: &'g Graph,
    source: VertexId,
    persistent_source: bool,
    parameters: ContactParameters,
    infected: VertexBitset,
    /// `A_t` as an ascending list — the frontier the transmission loop iterates.
    frontier: Vec<VertexId>,
    /// Scratch for `A_{t+1}`; all-clear between steps.
    next_infected: VertexBitset,
    newly: Vec<VertexId>,
    round: usize,
}

impl<'g> ContactProcess<'g> {
    /// Creates a contact process started from `source`. When `persistent_source` is true the
    /// source never recovers (the BVDV scenario); otherwise the epidemic can go extinct.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnsuitableGraph`] if the graph is empty or (for `n > 1`) has an
    /// isolated vertex — infection only travels along edges, so an isolated vertex can
    /// never be infected and every full-infection run would exhaust its budget — and the
    /// usual vertex validation errors.
    pub fn new(
        graph: &'g Graph,
        source: VertexId,
        parameters: ContactParameters,
        persistent_source: bool,
    ) -> Result<Self> {
        let n = graph.num_vertices();
        if n == 0 {
            return Err(CoreError::UnsuitableGraph { reason: "empty graph".to_string() });
        }
        if source >= n {
            return Err(CoreError::VertexOutOfRange { vertex: source, num_vertices: n });
        }
        if n > 1 {
            if let Some(isolated) = graph.vertices().find(|&v| graph.degree(v) == 0) {
                return Err(CoreError::UnsuitableGraph {
                    reason: format!("vertex {isolated} is isolated and can never be infected"),
                });
            }
        }
        let mut infected = VertexBitset::new(n);
        infected.insert(source);
        Ok(ContactProcess {
            graph,
            source,
            persistent_source,
            parameters,
            infected,
            frontier: vec![source],
            next_infected: VertexBitset::new(n),
            newly: vec![source],
            round: 0,
        })
    }

    /// Number of currently infected vertices.
    pub fn num_infected(&self) -> usize {
        self.frontier.len()
    }

    /// Whether the epidemic has died out (no infected vertices left).
    pub fn extinct(&self) -> bool {
        self.frontier.is_empty()
    }

    /// The process parameters.
    pub fn parameters(&self) -> ContactParameters {
        self.parameters
    }
}

/// One infected vertex's transmissions and recovery: the per-vertex work of a round.
struct Transmissions<'a> {
    graph: &'a Graph,
    source: VertexId,
    persistent_source: bool,
    parameters: ContactParameters,
    faults: &'a StepFaults<'a>,
}

impl Kernel for Transmissions<'_> {
    // The shared path skips the Bernoulli draw of a target another sender already claimed
    // this round. Stream shards cannot see cross-sender state (it would make draw counts
    // depend on the schedule), so they draw every neighbour: distribution-identical, since
    // a skipped draw was an independent Bernoulli whose outcome could not matter, and each
    // sender's draw count becomes a pure function of its degree.
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    #[inline(always)]
    fn run<R: RngCore + ?Sized, S: Sink>(&self, u: VertexId, rng: &mut R, sink: &mut S) {
        let faults = self.faults;
        // A crashed vertex stays ill without infecting anyone (recovery still applies).
        if !faults.is_crashed(u) {
            // An i.i.d.-dropped transmission composes into one Bernoulli draw with the
            // effective probability p(1-f) — per sender, so a targeted (frontier) drop
            // lowers only the targeted senders' rate; with no faults the stream is untouched.
            let transmit = self.parameters.infection_probability * (1.0 - faults.sender_drop(u));
            for v in self.graph.neighbor_iter(u) {
                // Per-edge channel loss folds into the per-neighbour Bernoulli too (the edge
                // identity is known here); 1 - 0 with no bank active.
                let transmit = transmit * (1.0 - faults.edge_drop_probability(u, v));
                if !sink.claimed(v)
                    && !faults.severs(u, v)
                    && transmit > 0.0
                    && rng.gen_bool(transmit)
                {
                    sink.propose(v);
                }
            }
        }
        // Recovery (skipped for the persistent source).
        let recovery = self.parameters.recovery_probability;
        let recovers = (!self.persistent_source || u != self.source)
            && recovery > 0.0
            && rng.gen_bool(recovery);
        if !recovers {
            sink.propose(u);
        }
    }
}

impl SpreadingProcess for ContactProcess<'_> {
    // The frontier is ascending and proposals are applied in sender order (per sender:
    // infected neighbours, then its own survival), so the shared draw order matches the
    // dense engine's and the stream merge is one fixed order at every thread count.
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    fn step_with(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        self.newly.clear();
        let transmissions = Transmissions {
            graph: self.graph,
            source: self.source,
            persistent_source: self.persistent_source,
            parameters: self.parameters,
            faults,
        };
        let fresh = |v| {
            // A surviving sender was infected this round, so it is never a new activation.
            if !self.infected.contains(v) {
                self.newly.push(v);
            }
        };
        let merge = Claim { next: &mut self.next_infected, fresh };
        draws.run(Items::Vertices(&self.frontier), self.round, transmissions, merge);
        if self.persistent_source
            && self.next_infected.insert(self.source)
            && !self.infected.contains(self.source)
        {
            // Unreachable when the source started infected, but kept for state safety: a
            // re-pinned source that was healthy this round is a genuine activation.
            self.newly.push(self.source);
        }
        // Erase A_t through its own member list, swap, re-materialise the frontier.
        self.infected.clear_list(&self.frontier);
        std::mem::swap(&mut self.infected, &mut self.next_infected);
        self.frontier.clear();
        self.infected.collect_into(&mut self.frontier);
        self.round += 1;
    }

    fn round(&self) -> usize {
        self.round
    }

    fn active(&self) -> &VertexBitset {
        &self.infected
    }

    fn num_active(&self) -> usize {
        self.frontier.len()
    }

    fn newly_activated(&self) -> &[VertexId] {
        &self.newly
    }

    fn for_each_active(&self, f: &mut dyn FnMut(VertexId)) {
        for &v in &self.frontier {
            f(v);
        }
    }

    fn is_complete(&self) -> bool {
        self.frontier.len() == self.graph.num_vertices()
    }

    fn adopt_state(&mut self, active: &[VertexId], coverage: Option<&VertexBitset>) -> Result<()> {
        crate::process::validate_adopted_state(self.graph.num_vertices(), active, coverage)?;
        self.infected.clear_list(&self.frontier);
        self.frontier.clear();
        self.newly.clear();
        for &v in active {
            if self.infected.insert(v) {
                self.newly.push(v);
            }
        }
        if self.persistent_source && self.infected.insert(self.source) {
            self.newly.push(self.source);
        }
        self.infected.collect_into(&mut self.frontier);
        self.round = 0;
        Ok(())
    }

    fn reseed(&mut self, vertices: &[VertexId]) -> usize {
        // Re-infect the given vertices — the defense analogue of re-introducing the disease
        // into a recovered host. No branching lever exists here, so `reseed` is the only hook.
        let mut inserted = 0;
        for &v in vertices {
            if v < self.graph.num_vertices() && self.infected.insert(v) {
                self.newly.push(v);
                inserted += 1;
            }
        }
        if inserted > 0 {
            self.frontier.clear();
            self.infected.collect_into(&mut self.frontier);
        }
        inserted
    }

    fn reset(&mut self) {
        self.infected.clear_list(&self.frontier);
        self.frontier.clear();
        self.infected.insert(self.source);
        self.frontier.push(self.source);
        self.newly.clear();
        self.newly.push(self.source);
        self.round = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::run_until_complete;
    use cobra_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    #[test]
    fn parameter_validation() {
        assert!(ContactParameters::new(0.5, 0.5).is_ok());
        assert!(ContactParameters::new(-0.1, 0.5).is_err());
        assert!(ContactParameters::new(0.5, 1.5).is_err());
        assert!(ContactParameters::new(f64::NAN, 0.5).is_err());
        let g = generators::cycle(5).unwrap();
        let params = ContactParameters::new(0.5, 0.5).unwrap();
        assert!(ContactProcess::new(&g, 9, params, true).is_err());
        assert!(ContactProcess::new(&cobra_graph::Graph::default(), 0, params, true).is_err());
    }

    #[test]
    fn isolated_vertices_are_rejected_like_the_other_processes() {
        // Regression: the contact process accepted graphs with isolated vertices and then
        // ran to its round budget on every trial (the infection can never reach them).
        let isolated = cobra_graph::Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let params = ContactParameters::new(0.5, 0.5).unwrap();
        let err = ContactProcess::new(&isolated, 0, params, true).unwrap_err();
        assert!(
            matches!(err, crate::CoreError::UnsuitableGraph { ref reason } if reason.contains("3")),
            "must name the isolated vertex: {err}"
        );
        // The single-vertex graph stays fine: its only vertex is the source.
        let singleton = cobra_graph::Graph::from_edges(1, &[]).unwrap();
        assert!(ContactProcess::new(&singleton, 0, params, true).is_ok());
    }

    #[test]
    fn persistent_source_never_recovers() {
        let g = generators::cycle(12).unwrap();
        let params = ContactParameters::new(0.2, 0.9).unwrap();
        let mut process = ContactProcess::new(&g, 5, params, true).unwrap();
        let mut r = rng(1);
        for _ in 0..100 {
            process.step(&mut r);
            assert!(process.active().contains(5), "persistent source must stay infected");
            assert!(!process.extinct());
        }
    }

    #[test]
    fn without_a_persistent_source_the_epidemic_can_die_out() {
        // High recovery, low transmission: extinction is essentially certain quickly.
        let g = generators::cycle(12).unwrap();
        let params = ContactParameters::new(0.05, 0.95).unwrap();
        let mut extinctions = 0;
        for seed in 0..20u64 {
            let mut process = ContactProcess::new(&g, 0, params, false).unwrap();
            let mut r = rng(seed);
            for _ in 0..200 {
                process.step(&mut r);
                if process.extinct() {
                    extinctions += 1;
                    break;
                }
            }
        }
        assert!(extinctions >= 15, "only {extinctions}/20 runs went extinct");
    }

    #[test]
    fn aggressive_parameters_infect_everything_with_a_persistent_source() {
        let g = generators::complete(32).unwrap();
        let params = ContactParameters::new(0.5, 0.2).unwrap();
        let mut process = ContactProcess::new(&g, 0, params, true).unwrap();
        let rounds = run_until_complete(&mut process, &mut rng(3), 100_000).unwrap();
        assert!(rounds < 100);
        assert!(process.is_complete());
    }

    #[test]
    fn frontier_stays_in_sync_with_the_bitset() {
        let g = generators::hypercube(5).unwrap();
        let params = ContactParameters::new(0.3, 0.4).unwrap();
        let mut process = ContactProcess::new(&g, 0, params, true).unwrap();
        let mut r = rng(8);
        for _ in 0..50 {
            process.step(&mut r);
            let mut listed = Vec::new();
            process.for_each_active(&mut |v| listed.push(v));
            assert_eq!(listed, process.active().iter().collect::<Vec<_>>());
            assert_eq!(process.num_infected(), process.active().count());
        }
    }

    #[test]
    fn zero_infection_probability_never_spreads() {
        let g = generators::complete(8).unwrap();
        let params = ContactParameters::new(0.0, 0.0).unwrap();
        let mut process = ContactProcess::new(&g, 0, params, true).unwrap();
        let mut r = rng(4);
        for _ in 0..20 {
            process.step(&mut r);
            assert_eq!(process.num_infected(), 1);
        }
        assert_eq!(process.parameters().infection_probability, 0.0);
    }

    #[test]
    fn reset_restores_the_source_only() {
        let g = generators::complete(16).unwrap();
        let params = ContactParameters::new(0.4, 0.3).unwrap();
        let mut process = ContactProcess::new(&g, 2, params, true).unwrap();
        let mut r = rng(5);
        for _ in 0..10 {
            process.step(&mut r);
        }
        process.reset();
        assert_eq!(process.num_infected(), 1);
        assert!(process.active().contains(2));
        assert_eq!(process.round(), 0);
        assert_eq!(process.newly_activated(), &[2]);
    }
}
