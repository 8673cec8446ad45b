//! The trial RNG's 8-block buffer against the 1-block scalar stream.
//!
//! `TrialRng` buffers eight ChaCha blocks per refill, computed by the 8-lane AVX2 kernel when
//! the CPU has it and by the scalar block function otherwise. Either way it must read the
//! exact words of the 1-block stream with the same seed: every trajectory pin, equivalence
//! suite and experiment table assumes the trial streams did not change. Both refill paths
//! are checked by pinning each directly, at every round count the kernel supports.

use cobra_stats::rng::{rng_from_seed, TrialRng};
use rand::{RngCore, SeedableRng};
use rand_chacha::{ChaCha8Rng, ChaChaRng, LANES};

/// Words one refill of the wide stream buffers.
const WORDS: usize = 16 * LANES;

/// Pins a wide stream's refill path.
type Pin<const R: usize> = fn(ChaChaRng<R, LANES>) -> ChaChaRng<R, LANES>;

/// The portable path and the run-time dispatch always; the AVX2 path when the CPU has it.
fn paths<const R: usize>() -> Vec<(&'static str, Pin<R>)> {
    let mut paths: Vec<(&'static str, Pin<R>)> =
        vec![("portable", ChaChaRng::with_portable_refill), ("dispatched", |rng| rng)];
    if ChaChaRng::<R, LANES>::from_seed([0; 32]).with_avx2_refill().is_some() {
        paths.push(("avx2", |rng| rng.with_avx2_refill().expect("AVX2 detected")));
    } else {
        eprintln!("skipping the AVX2 refill path: this CPU has no AVX2");
    }
    paths
}

fn check<const R: usize>() {
    for seed in [0u64, 1, 2016, u64::MAX] {
        for (path, pin) in paths::<R>() {
            let wide = || pin(ChaChaRng::<R, LANES>::seed_from_u64(seed));
            let scalar = || ChaChaRng::<R>::seed_from_u64(seed);
            let label = format!("{path} ChaCha{R} seed {seed}");

            // Three full buffers and then some, one word at a time.
            let (mut a, mut b) = (wide(), scalar());
            for word in 0..3 * WORDS + 9 {
                assert_eq!(a.next_u32(), b.next_u32(), "{label}: word {word}");
            }

            // Mixed widths at odd offsets, so `u64`s straddle the 128-word buffer edges.
            let (mut a, mut b) = (wide(), scalar());
            let (mut position, mut straddles) = (0, 0);
            while position < 4 * WORDS {
                if position % 5 == 1 {
                    assert_eq!(a.next_u32(), b.next_u32(), "{label}: u32 at {position}");
                    position += 1;
                } else {
                    straddles += usize::from(position % WORDS == WORDS - 1);
                    assert_eq!(a.next_u64(), b.next_u64(), "{label}: u64 at {position}");
                    position += 2;
                }
            }
            assert!(straddles > 0, "{label}: no u64 straddled a buffer edge");

            // `fill_bytes` with lengths that are not multiples of 8.
            let (mut a, mut b) = (wide(), scalar());
            for len in [1, 5, 11, 31, 129, 513, 1023] {
                let (mut x, mut y) = (vec![0u8; len], vec![0u8; len]);
                a.fill_bytes(&mut x);
                b.fill_bytes(&mut y);
                assert_eq!(x, y, "{label}: fill_bytes({len})");
            }

            // A clone taken mid-buffer continues both streams identically.
            let (mut a, mut b) = (wide(), scalar());
            for _ in 0..2 * WORDS + 61 {
                assert_eq!(a.next_u32(), b.next_u32(), "{label}");
            }
            let mut copy = a.clone();
            for word in 0..2 * WORDS {
                let want = b.next_u32();
                assert_eq!(a.next_u32(), want, "{label}: original, word {word} after the clone");
                assert_eq!(copy.next_u32(), want, "{label}: clone, word {word}");
            }
        }
    }
}

#[test]
fn wide_chacha8_matches_the_scalar_stream() {
    check::<8>();
}

#[test]
fn wide_chacha12_matches_the_scalar_stream() {
    check::<12>();
}

#[test]
fn wide_chacha20_matches_the_scalar_stream() {
    check::<20>();
}

#[test]
fn trial_rng_is_the_wide_chacha12_stream() {
    let mut trial: ChaChaRng<12, LANES> = rng_from_seed(7);
    let mut scalar = ChaChaRng::<12>::seed_from_u64(7);
    for word in 0..5 * WORDS {
        assert_eq!(trial.next_u32(), scalar.next_u32(), "word {word}");
    }
}

#[test]
fn wide_word_pos_round_trips_at_group_edges() {
    let key = [0x5A; 32];
    let mut oracle = ChaChaRng::<12>::stream_for(&key, 9, 4);
    let words: Vec<u32> = (0..5 * WORDS).map(|_| oracle.next_u32()).collect();
    for (path, pin) in paths::<12>() {
        let mut rng: TrialRng = pin(ChaChaRng::stream_for(&key, 9, 4));
        for (read, &want) in words.iter().enumerate() {
            assert_eq!(rng.word_pos(), read as u64, "{path}: after {read} reads");
            assert_eq!(rng.next_u32(), want, "{path}: word {read}");
        }
        for edge in [0, WORDS, 2 * WORDS, 3 * WORDS, 4 * WORDS] {
            for pos in [edge.saturating_sub(1), edge, edge + 1] {
                rng.set_word_pos(pos as u64);
                assert_eq!(rng.word_pos(), pos as u64, "{path}: seek to {pos}");
                assert_eq!(rng.next_u32(), words[pos], "{path}: seek to {pos}");
                assert_eq!(rng.word_pos(), pos as u64 + 1, "{path}: seek to {pos}, one read");
            }
        }
    }
}

#[test]
fn the_per_vertex_stream_type_keeps_one_buffered_block() {
    // The stream engine builds eight `ChaCha8Rng`s per lane group with
    // `streams_for_lanes`: each is the 16-word state, one 16-word block and the index.
    assert_eq!(std::mem::size_of::<ChaCha8Rng>(), 2 * 64 + 8);
    assert!(std::mem::size_of::<TrialRng>() >= 64 + LANES * 64);
}
