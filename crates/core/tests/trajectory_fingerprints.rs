//! Pinned trajectories for both stepping engines.
//!
//! The other equivalence suites compare engines against each other (frontier vs dense,
//! stream mode across thread counts); none of them pins a stream-mode trajectory, and the
//! faulted, adversarial and defended *sequential* trajectories have no dense oracle. This
//! suite closes that gap: every round of every spec below is folded into an FNV-1a 64-bit
//! fingerprint, for the sequential engine (`ProcessSpec::build` driven by a seeded
//! ChaCha12, whose total draw count is folded in as well) and for the stream engine
//! (`ParallelProcess` with a fixed trial key). The expected constants were recorded once;
//! any change to a draw, a draw order or a merge order changes a fingerprint.

use cobra_core::counting::CountingRng;
use cobra_core::parallel::{ParallelFrontier, ParallelProcess};
use cobra_core::spec::ProcessSpec;
use cobra_core::SpreadingProcess;
use cobra_graph::sample::VertexStreams;
use cobra_graph::{generators, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// FNV-1a, 64-bit: a fixed, dependency-free hash (unlike `DefaultHasher`, whose algorithm
/// is unspecified and may change between toolchains).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Folds everything observable about the current round into `h`.
fn fold_round(h: &mut Fnv1a, p: &dyn SpreadingProcess) {
    h.word(p.round() as u64);
    h.word(p.newly_activated().len() as u64);
    for &v in p.newly_activated() {
        h.word(v as u64);
    }
    h.word(p.num_active() as u64);
    match p.coverage() {
        Some(c) => {
            h.word(1);
            h.word(c.count() as u64);
        }
        None => h.word(0),
    }
    h.word(u64::from(p.is_complete()));
}

const ROUNDS: usize = 250;

fn sequential_fingerprint(spec: &ProcessSpec, graph: &Graph, seed: u64) -> u64 {
    let mut p = spec.build(graph).expect("spec builds");
    let mut rng = CountingRng::new(ChaCha12Rng::seed_from_u64(seed));
    let mut h = Fnv1a::new();
    fold_round(&mut h, p.as_ref());
    for _ in 0..ROUNDS {
        if p.is_complete() {
            break;
        }
        p.step(&mut rng);
        fold_round(&mut h, p.as_ref());
    }
    h.word(rng.count());
    h.0
}

fn stream_fingerprint(spec: &ProcessSpec, graph: &Graph, key: [u8; 32]) -> u64 {
    let inner = spec.build(graph).expect("spec builds");
    let engine = ParallelFrontier::new(VertexStreams::new(key), 3).expect("threads >= 1");
    let mut p = ParallelProcess::new(inner, engine);
    let mut unused = ChaCha12Rng::seed_from_u64(0xDEAD);
    let mut h = Fnv1a::new();
    fold_round(&mut h, &p);
    for _ in 0..ROUNDS {
        if p.is_complete() {
            break;
        }
        p.step(&mut unused);
        fold_round(&mut h, &p);
    }
    h.0
}

fn expander() -> Graph {
    let mut rng = ChaCha12Rng::seed_from_u64(81);
    generators::connected_random_regular(96, 4, &mut rng).unwrap()
}

fn torus() -> Graph {
    generators::torus_2d(8, 12).unwrap()
}

/// `(spec, on_torus, sequential fingerprint, stream fingerprint)`. The bare processes run
/// on both graphs; the wrapper stacks (those of the thread-invariance suite) on the
/// expander.
const PINNED: &[(&str, bool, u64, u64)] = &[
    ("cobra:k=2", false, 0xdf48c042b4ace31e, 0x364a54359c14747a),
    ("cobra:rho=0.5", false, 0x2e21602c1d9718ee, 0xbf9b6d9d68d800af),
    ("bips:k=2", false, 0x416624dd5f7b74c9, 0xa88ab23e08049d0e),
    ("walk", false, 0x71a671e67d242867, 0x728f7687b72741c6),
    ("walks:w=6", false, 0x10848a71e49ca603, 0xe509aa750cbde7be),
    ("push", false, 0xc22a4a801c699f92, 0x74ea9e5759a11ced),
    ("pushpull", false, 0xb5746ab6da3c0553, 0x4be6a7734ebdcaa0),
    ("contact:p=0.3,q=0.2", false, 0x2722d47fdf672b62, 0x317454bd152062cc),
    ("cobra:k=2", true, 0x34ab867386defe49, 0x6b68a7ce482a08ee),
    ("cobra:rho=0.5", true, 0x4efff5dafad2191a, 0x783a8bac514b9cc9),
    ("bips:k=2", true, 0x381c19062d0fd18d, 0x7bee4db80bbf406b),
    ("walk", true, 0x557c11305e53c851, 0xb9ef64abb04bb114),
    ("walks:w=6", true, 0x552cb51f32856533, 0xfd2be32c37db330c),
    ("push", true, 0xc357feb9cf12f241, 0xb93f4b523ec4fbe7),
    ("pushpull", true, 0x0f9bf0e9f6afcab6, 0xaf3bf473707b8f77),
    ("contact:p=0.3,q=0.2", true, 0x1053d8ed02370a4a, 0xe3402bde5eeb8e59),
    ("cobra:k=2+drop=0.2+crash=5%", false, 0x4b610ef417944342, 0xe60d4f89d1582967),
    ("bips:k=2+crash=10%+repair=0.1", false, 0x8826153bf9f090be, 0x6cdba71d7dab83cd),
    ("push+gedrop=0.05,0.25,0.5", false, 0xd278688efd3310df, 0xf2f4223b0d183add),
    ("cobra:k=2+adv=topdeg:budget=5%", false, 0x1145484564cdc6dd, 0x0cec9aac7f7d3519),
    ("push+adv=dropfront", false, 0xc9bfe2a1f10bfd2a, 0x4b9de6217e5a12e1),
    (
        "cobra:k=2+adv=topdeg:budget=5%+def=boostk:trigger=stall,w=8,cap=4",
        false,
        0xa1f82906eaac38de,
        0x3528f6b22c65ed42,
    ),
    (
        "cobra:k=2+drop=0.3+def=reseed:m=2%,cooldown=8",
        false,
        0xeb90cdbc78c009d9,
        0x76870634dc23ed60,
    ),
];

#[test]
fn both_engines_reproduce_the_pinned_trajectories() {
    let (expander, torus) = (expander(), torus());
    let mut mismatches = Vec::new();
    for (i, &(raw, on_torus, sequential, stream)) in PINNED.iter().enumerate() {
        let graph = if on_torus { &torus } else { &expander };
        let spec: ProcessSpec = raw.parse().unwrap();
        let got_sequential = sequential_fingerprint(&spec, graph, 1000 + i as u64);
        let got_stream = stream_fingerprint(&spec, graph, [i as u8 + 1; 32]);
        if (got_sequential, got_stream) != (sequential, stream) {
            mismatches.push(format!(
                "    ({raw:?}, {on_torus}, {got_sequential:#018x}, {got_stream:#018x}),"
            ));
        }
    }
    assert!(mismatches.is_empty(), "trajectory fingerprints changed:\n{}", mismatches.join("\n"));
}
