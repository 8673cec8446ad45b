//! The 8-lane stream derivation against its scalar oracle.
//!
//! `ChaCha8Rng::streams_for_lanes` (and `VertexStreams::stream_lanes` over it) must hand out
//! streams that are word-for-word the ones eight `stream_for` calls build: the stream
//! engine derives vertex streams eight at a time, and every trajectory pin assumes nothing
//! changed. Both paths are checked by calling each directly: the AVX2 kernel (when the CPU
//! has it) and the portable per-lane scalar path.

use cobra_graph::sample::VertexStreams;
use rand::{RngCore, SeedableRng};
use rand_chacha::{ChaCha12Rng, ChaCha8Rng, LANES};

/// Words read from each lane: more than two 16-word blocks.
const WORDS: u64 = 40;

fn entity_sets(rng: &mut ChaCha12Rng) -> Vec<[u64; LANES]> {
    let mut sets = vec![
        // Consecutive vertices, as the driver derives them.
        std::array::from_fn(|lane| lane as u64),
        // The wrapper entities reserved at the top of the id space, and their neighbours.
        std::array::from_fn(|lane| u64::MAX - lane as u64),
        // Ids straddling the 32-bit halves of the entity words, and repeats.
        [u32::MAX as u64, 1 << 32, (1 << 32) + 1, 1 << 63, 5, 5, 0, u64::MAX],
    ];
    sets.extend((0..4).map(|_| std::array::from_fn(|_| rng.next_u64())));
    sets
}

fn rounds() -> [u64; 6] {
    [0, 1, 7, 1 << 31, u64::from(u32::MAX) - 1, u64::from(u32::MAX)]
}

/// A lane derivation under test: `(key, entities, round)` to eight streams.
type Derive = dyn Fn(&[u8; 32], &[u64; LANES], u64) -> [ChaCha8Rng; LANES];

/// Asserts that `derive` equals eight `stream_for` calls, word for word, with the same
/// `word_pos` after the reads.
fn check(label: &str, derive: &Derive) {
    let mut rng = ChaCha12Rng::seed_from_u64(0x00C0_B2A0);
    for round in rounds() {
        for entities in entity_sets(&mut rng) {
            let mut key = [0u8; 32];
            rng.fill_bytes(&mut key);
            let mut lanes = derive(&key, &entities, round);
            for (lane, &entity) in lanes.iter_mut().zip(&entities) {
                let mut oracle = ChaCha8Rng::stream_for(&key, entity, round);
                assert_eq!(lane.word_pos(), 0, "{label}: entity {entity} round {round}");
                for word in 0..WORDS {
                    assert_eq!(
                        lane.next_u32(),
                        oracle.next_u32(),
                        "{label}: entity {entity} round {round} word {word}"
                    );
                }
                assert_eq!(lane.word_pos(), WORDS, "{label}: entity {entity} round {round}");
                assert_eq!(lane.word_pos(), oracle.word_pos());
                assert_eq!(lane.next_u64(), oracle.next_u64());
            }
        }
    }
}

#[test]
fn portable_lanes_equal_eight_stream_for_calls() {
    check("portable", &ChaCha8Rng::streams_for_lanes_portable);
}

#[test]
fn avx2_lanes_equal_eight_stream_for_calls() {
    if ChaCha8Rng::streams_for_lanes_avx2(&[0; 32], &[0; LANES], 0).is_none() {
        eprintln!("skipped: this CPU does not report AVX2");
        return;
    }
    check("avx2", &|key, entities, round| {
        ChaCha8Rng::streams_for_lanes_avx2(key, entities, round).expect("AVX2 was detected")
    });
}

#[test]
fn vertex_stream_lanes_equal_vertex_streams() {
    check("VertexStreams", &|key, entities, round| {
        VertexStreams::new(*key).stream_lanes(entities, round)
    });
}
