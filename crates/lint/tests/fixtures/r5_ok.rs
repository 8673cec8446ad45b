// R5 fixture: the step path annotated par, shard results flowing back through the
// engine's ordered merge — no shared cells, plus one documented membership-only exception.
// The shard buffers live in the (par, not hot) driver, so the step itself stays hot.
impl SpreadingProcess for Demo {
    // cobra-lint: hot
    // cobra-lint: par
    fn step_with(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        self.newly.clear();
        for target in self.propose(&self.engine) {
            self.next_active.insert(target);
        }
    }
}

// cobra-lint: par
fn propose(&self, engine: &ParallelFrontier) -> Vec<VertexId> {
    let graph = self.graph;
    let shards = engine.fan_out(&self.frontier, |_, chunk| {
        let mut proposals = Vec::with_capacity(chunk.len());
        for &u in chunk {
            proposals.extend(graph.neighbors(u));
        }
        proposals
    });
    shards.into_iter().flatten().collect()
}

// cobra-lint: par
fn shard_probe(&self) -> usize {
    let seen = Cell::new(0usize); // cobra-lint: allow(R5, shard-local counter, never shared)
    seen.get()
}
