//! The stream driver's lane groups and tails against a per-item replay.
//!
//! The stream engine derives the streams of eight consecutive items of a shard at once and
//! the remainder one by one. Whether an item lands in a group of eight or in the tail
//! depends on the frontier, shard and walker counts; none of that may show in a trajectory.
//! These tests run instances whose counts are mostly not multiples of 8 (n = 9…17, walkers
//! 1…9, threads 1/2/3) and replay every round item by item from `engine.stream(entity,
//! round)`, the scalar derivation, without going through the driver.

use cobra_core::parallel::{ParallelFrontier, ParallelProcess};
use cobra_core::spec::ProcessSpec;
use cobra_core::SpreadingProcess;
use cobra_graph::sample::VertexStreams;
use cobra_graph::{generators, Graph, VertexId};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

const ROUNDS: usize = 40;

fn engine(threads: usize, seed: u8) -> ParallelFrontier {
    ParallelFrontier::new(VertexStreams::new([seed; 32]), threads).expect("threads >= 1")
}

fn stream_process<'g>(
    spec: &str,
    graph: &'g Graph,
    engine: ParallelFrontier,
) -> ParallelProcess<'g> {
    let spec: ProcessSpec = spec.parse().expect("valid spec");
    ParallelProcess::new(spec.build(graph).expect("spec builds"), engine)
}

fn active_list(p: &dyn SpreadingProcess) -> Vec<VertexId> {
    let mut active = Vec::new();
    p.for_each_active(&mut |v| active.push(v));
    active
}

/// Degree-4 circulants: growth is slow, so frontiers pass through every size from 1 to n.
fn graphs() -> impl Iterator<Item = Graph> {
    (9..=17).map(|n| generators::cycle_power(n, 2).expect("n > 4"))
}

#[test]
fn cobra_frontiers_match_a_per_vertex_replay() {
    for graph in graphs() {
        let n = graph.num_vertices();
        for threads in 1..=3 {
            let engine = engine(threads, n as u8);
            let mut p = stream_process("cobra:k=2", &graph, engine.clone());
            let mut unused = ChaCha12Rng::seed_from_u64(0);
            let mut frontier = active_list(&p);
            for round in 0..ROUNDS {
                // Replay: frontier vertices in ascending order, two pushes each from their
                // own (vertex, round) stream, first proposals marking the newly active.
                let mut next = vec![false; n];
                let mut newly = Vec::new();
                for &u in &frontier {
                    let mut rng = engine.stream(u as u64, round as u64);
                    for _ in 0..2 {
                        let w = graph.sample_neighbor(u, &mut rng).expect("degree 4");
                        if !next[w] && !frontier.contains(&w) {
                            newly.push(w);
                        }
                        next[w] = true;
                    }
                }
                p.step(&mut unused);
                let label = format!("n={n} threads={threads} round={round}");
                assert_eq!(p.newly_activated(), &newly[..], "{label}");
                frontier = (0..n).filter(|&v| next[v]).collect();
                assert_eq!(active_list(&p), frontier, "{label}");
            }
        }
    }
}

#[test]
fn bips_rounds_over_all_vertices_match_a_per_vertex_replay() {
    for graph in graphs() {
        let n = graph.num_vertices();
        for threads in 1..=3 {
            let engine = engine(threads, 100 + n as u8);
            let mut p = stream_process("bips:k=2", &graph, engine.clone());
            let mut unused = ChaCha12Rng::seed_from_u64(0);
            let source = active_list(&p)[0];
            let mut infected = vec![false; n];
            infected[source] = true;
            for round in 0..ROUNDS {
                // Replay: every vertex but the source probes two neighbours on its own
                // stream and is infected next round if a probe hits.
                let next: Vec<bool> = (0..n)
                    .map(|u| {
                        let mut rng = engine.stream(u as u64, round as u64);
                        u == source
                            || (0..2).any(|_| {
                                infected[graph.sample_neighbor(u, &mut rng).expect("degree 4")]
                            })
                    })
                    .collect();
                p.step(&mut unused);
                let expected: Vec<VertexId> = (0..n).filter(|&v| next[v]).collect();
                assert_eq!(active_list(&p), expected, "n={n} threads={threads} round={round}");
                infected = next;
            }
        }
    }
}

#[test]
fn walker_positions_match_a_per_walker_replay() {
    let graph = generators::cycle_power(13, 2).expect("n > 4");
    for walkers in 1..=9 {
        for threads in 1..=3 {
            let engine = engine(threads, walkers as u8);
            let mut p = stream_process(&format!("multiwalk:w={walkers}"), &graph, engine.clone());
            let mut unused = ChaCha12Rng::seed_from_u64(0);
            let mut positions = Vec::new();
            p.for_each_token(&mut |v| positions.push(v));
            assert_eq!(positions.len(), walkers);
            for round in 0..ROUNDS {
                // Replay: walker i moves on its own (i, round) stream.
                for (i, position) in positions.iter_mut().enumerate() {
                    let mut rng = engine.stream(i as u64, round as u64);
                    *position = graph.sample_neighbor(*position, &mut rng).expect("degree 4");
                }
                p.step(&mut unused);
                let mut actual = Vec::new();
                p.for_each_token(&mut |v| actual.push(v));
                assert_eq!(actual, positions, "walkers={walkers} threads={threads} round={round}");
            }
        }
    }
}
