//! Zero-fault wrappers are a no-op: a `FaultedProcess` with `drop=0`, no crashes and no
//! churn must reproduce the bare process **bit for bit** under the same seeded RNG — the
//! fault hooks inside every `step_with` implementation (one stepping body per process,
//! whichever `Draws` source it runs on) may not touch the RNG or the bookkeeping when the
//! fault view is benign. This extends the engine-equivalence discipline of
//! `tests/frontier_equivalence.rs` to the fault layer, for all seven processes.
//!
//! The Gilbert–Elliott channel is held to the same standard at its degenerate corners:
//! a *lossless* channel (`fb = fg = 0`) is bit-identical to the bare process regardless of
//! its transition probabilities, and the *burst-length-1* channel (`pb = pg = 1` with equal
//! state losses) is bit-identical to i.i.d. `drop=f` — the channel alternates
//! deterministically without consuming randomness, so both wrappers present the same
//! per-round drop probability to the same RNG stream.

use cobra::core::spec::ProcessSpec;
use cobra::graph::{generators, Graph};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// One spec per process implementation (matching `frontier_equivalence::all_specs`).
fn all_specs() -> Vec<ProcessSpec> {
    vec![
        ProcessSpec::cobra(2).unwrap(),
        ProcessSpec::cobra_fractional(0.4).unwrap().with_start(3),
        ProcessSpec::bips(2).unwrap().with_start(1),
        ProcessSpec::random_walk(),
        ProcessSpec::multiple_walks(5).with_start(2),
        ProcessSpec::push(),
        ProcessSpec::push_pull().with_start(4),
        ProcessSpec::contact(0.6, 0.3).unwrap(),
        "contact:p=0.2,q=0.7,transient".parse().unwrap(),
    ]
}

/// The zero-fault plans under test: plain zero drop, zero drop plus an empty sampled
/// crash set, and a lossless Gilbert–Elliott channel (none may consume RNG).
fn zero_fault_wrappings(spec: &ProcessSpec) -> Vec<ProcessSpec> {
    vec![
        format!("{spec}+drop=0").parse().expect("zero drop clause parses"),
        format!("{spec}+drop=0+crash=0").parse().expect("zero crash clause parses"),
        format!("{spec}+gedrop=0.3,0.7,0").parse().expect("lossless channel clause parses"),
    ]
}

/// Steps two builds of the same underlying process — `spec` as the reference,
/// `wrapped_spec` as the candidate — with identically seeded RNGs and asserts
/// byte-identical evolution of the active set, delta and coverage.
fn assert_same_evolution(
    graph: &Graph,
    spec: &ProcessSpec,
    wrapped_spec: &ProcessSpec,
    seed: u64,
    rounds: usize,
) {
    let mut bare = spec.build(graph).expect("reference process builds");
    let mut wrapped = wrapped_spec.build(graph).expect("candidate process builds");
    let mut bare_rng = ChaCha12Rng::seed_from_u64(seed);
    let mut wrapped_rng = ChaCha12Rng::seed_from_u64(seed);

    assert_eq!(wrapped.num_active(), bare.num_active(), "{wrapped_spec}: initial count");
    for round in 1..=rounds {
        bare.step(&mut bare_rng);
        wrapped.step(&mut wrapped_rng);
        assert_eq!(
            wrapped.num_active(),
            bare.num_active(),
            "{wrapped_spec} seed {seed}: num_active diverged at round {round}"
        );
        assert_eq!(
            wrapped.active().to_indicator(),
            bare.active().to_indicator(),
            "{wrapped_spec} seed {seed}: active set diverged at round {round}"
        );
        let mut bare_delta = bare.newly_activated().to_vec();
        let mut wrapped_delta = wrapped.newly_activated().to_vec();
        bare_delta.sort_unstable();
        wrapped_delta.sort_unstable();
        assert_eq!(
            wrapped_delta, bare_delta,
            "{wrapped_spec} seed {seed}: delta diverged at round {round}"
        );
        // The visited/coverage evolution (COBRA and the walks track it; the wrapper must
        // forward it untouched).
        assert_eq!(
            wrapped.coverage().map(|set| set.count()),
            bare.coverage().map(|set| set.count()),
            "{wrapped_spec} seed {seed}: num_visited diverged at round {round}"
        );
        assert_eq!(
            wrapped.is_complete(),
            bare.is_complete(),
            "{wrapped_spec} seed {seed}: completion diverged at round {round}"
        );
        if bare.is_complete() {
            break;
        }
    }
}

fn assert_all_processes_no_op(graph: &Graph, seed: u64, rounds: usize) {
    for spec in all_specs() {
        if spec.start() >= graph.num_vertices() {
            continue;
        }
        for wrapped_spec in zero_fault_wrappings(&spec) {
            assert_same_evolution(graph, &spec, &wrapped_spec, seed, rounds);
        }
    }
}

/// The burst-length-1 pairing: `drop=f` as the reference, the degenerate alternating
/// channel `gedrop=1,1,f,f` as the candidate. `f64`'s `Display` is the shortest
/// round-tripping form, so the clause parses back to exactly `f`.
fn assert_all_processes_burst_one_degenerate(graph: &Graph, f: f64, seed: u64, rounds: usize) {
    for spec in all_specs() {
        if spec.start() >= graph.num_vertices() {
            continue;
        }
        let iid: ProcessSpec = format!("{spec}+drop={f}").parse().expect("iid drop clause parses");
        let degenerate: ProcessSpec =
            format!("{spec}+gedrop=1,1,{f},{f}").parse().expect("degenerate channel parses");
        assert_same_evolution(graph, &iid, &degenerate, seed, rounds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every process on connected random-regular expanders: the zero-fault wrapper is
    /// invisible.
    #[test]
    fn zero_fault_wrapper_is_identity_on_random_regular(
        n in 12usize..80,
        r in 3usize..6,
        seed in 0u64..10_000,
    ) {
        prop_assume!((n * r) % 2 == 0 && r < n);
        let mut gen_rng = ChaCha12Rng::seed_from_u64(seed ^ 0xFA17);
        let graph = generators::connected_random_regular(n, r, &mut gen_rng).unwrap();
        assert_all_processes_no_op(&graph, seed, 60);
    }

    /// Every process on 2-D tori (the poor-expander contrast family).
    #[test]
    fn zero_fault_wrapper_is_identity_on_torus(side in 3usize..9, seed in 0u64..10_000) {
        let graph = generators::torus_2d(side, side).unwrap();
        assert_all_processes_no_op(&graph, seed, 50);
    }

    /// Every process under arbitrary loss rates: the degenerate burst-length-1
    /// Gilbert–Elliott channel is bit-identical to i.i.d. drop on expanders…
    #[test]
    fn ge_burst_one_matches_iid_drop_on_random_regular(
        n in 12usize..64,
        r in 3usize..6,
        f in 0.01f64..0.6,
        seed in 0u64..10_000,
    ) {
        prop_assume!((n * r) % 2 == 0 && r < n);
        let mut gen_rng = ChaCha12Rng::seed_from_u64(seed ^ 0x6E01);
        let graph = generators::connected_random_regular(n, r, &mut gen_rng).unwrap();
        assert_all_processes_burst_one_degenerate(&graph, f, seed, 60);
    }

    /// …and on tori.
    #[test]
    fn ge_burst_one_matches_iid_drop_on_torus(
        side in 3usize..9,
        f in 0.01f64..0.6,
        seed in 0u64..10_000,
    ) {
        let graph = generators::torus_2d(side, side).unwrap();
        assert_all_processes_burst_one_degenerate(&graph, f, seed, 50);
    }
}

/// Fixed, deterministic smoke version on the acceptance instance family.
#[test]
fn zero_fault_wrapper_is_identity_on_a_fixed_expander() {
    let mut gen_rng = ChaCha12Rng::seed_from_u64(2016);
    let graph = generators::connected_random_regular(128, 8, &mut gen_rng).unwrap();
    for seed in 0..4u64 {
        assert_all_processes_no_op(&graph, seed, 150);
    }
}

/// Fixed, deterministic smoke for the burst-length-1 degeneracy, at the acceptance loss
/// rates of E9/E9b.
#[test]
fn ge_burst_one_matches_iid_drop_on_a_fixed_expander() {
    let mut gen_rng = ChaCha12Rng::seed_from_u64(2016);
    let graph = generators::connected_random_regular(128, 8, &mut gen_rng).unwrap();
    for (seed, f) in [(0u64, 0.05), (1, 0.1), (2, 0.25), (3, 0.4)] {
        assert_all_processes_burst_one_degenerate(&graph, f, seed, 150);
    }
}

// ---------------------------------------------------------------------------
// Draw-count sanitizer: the zero-draw benign-path invariant, asserted directly
// on the counts rather than indirectly through bit-identical trajectories.
// ---------------------------------------------------------------------------

use cobra::core::CountingRng;

/// Every benign wrapping draws **exactly** as many RNG words per round as the bare
/// process — the wrapper's fault hooks consume zero draws. Checked per round, for all
/// seven processes (including the data-dependent BIPS and contact draw patterns), on the
/// acceptance expander family.
#[test]
fn benign_wrappers_draw_exactly_zero_extra_words_per_round() {
    let mut gen_rng = ChaCha12Rng::seed_from_u64(2016);
    let graph = generators::connected_random_regular(64, 4, &mut gen_rng).unwrap();
    for spec in all_specs() {
        for wrapped_spec in zero_fault_wrappings(&spec) {
            for seed in 0..3u64 {
                let mut bare = spec.build(&graph).expect("reference process builds");
                let mut wrapped = wrapped_spec.build(&graph).expect("candidate process builds");
                let mut bare_rng = CountingRng::new(ChaCha12Rng::seed_from_u64(seed));
                let mut wrapped_rng = CountingRng::new(ChaCha12Rng::seed_from_u64(seed));
                for round in 1..=60 {
                    bare.step(&mut bare_rng);
                    wrapped.step(&mut wrapped_rng);
                    let expected = bare_rng.take_count();
                    assert_eq!(
                        wrapped_rng.take_count(),
                        expected,
                        "{wrapped_spec} seed {seed}: draw count diverged at round {round} \
                         (bare drew {expected})"
                    );
                    if bare.is_complete() {
                        break;
                    }
                }
            }
        }
    }
}

/// The draw arithmetic itself, in closed form, for the processes whose per-round count is
/// data-independent on a graph without isolated vertices: COBRA with fixed `k` draws
/// `k · |A_t|` words, PUSH draws `|informed_t|`, PUSH–PULL draws `n`, a single walk draws
/// `1`, `w` walks draw `w`. Asserted per round, bare and under every benign wrapping.
#[test]
fn per_round_draw_counts_match_closed_forms() {
    let mut gen_rng = ChaCha12Rng::seed_from_u64(2016);
    let graph = generators::connected_random_regular(48, 4, &mut gen_rng).unwrap();
    let n = graph.num_vertices() as u64;
    type ExpectedDraws = Box<dyn Fn(u64) -> u64>;
    let cases: Vec<(ProcessSpec, ExpectedDraws)> = vec![
        (ProcessSpec::cobra(2).unwrap(), Box::new(|active| 2 * active)),
        (ProcessSpec::cobra(3).unwrap(), Box::new(|active| 3 * active)),
        (ProcessSpec::push(), Box::new(|active| active)),
        (ProcessSpec::push_pull(), Box::new(move |_| n)),
        (ProcessSpec::random_walk(), Box::new(|_| 1)),
        (ProcessSpec::multiple_walks(5), Box::new(|_| 5)),
    ];
    for (spec, expected_draws) in &cases {
        let mut variants = vec![spec.clone()];
        variants.extend(zero_fault_wrappings(spec));
        for variant in variants {
            for seed in 0..3u64 {
                let mut process = variant.build(&graph).expect("process builds");
                let mut rng = CountingRng::new(ChaCha12Rng::seed_from_u64(seed));
                for round in 1..=50 {
                    let active_before = process.num_active() as u64;
                    process.step(&mut rng);
                    assert_eq!(
                        rng.take_count(),
                        expected_draws(active_before),
                        "{variant} seed {seed}: draw count off at round {round} \
                         ({active_before} active before the step)"
                    );
                    if process.is_complete() {
                        break;
                    }
                }
            }
        }
    }
}
