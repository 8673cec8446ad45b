//! Generators for every graph family the COBRA/BIPS paper (and the prior work it builds on)
//! refers to.
//!
//! The paper's theorems are stated for connected `r`-regular graphs parameterised by the second
//! eigenvalue `λ` of the random-walk transition matrix. The generators here cover:
//!
//! * **good expanders** — complete graphs, random `r`-regular graphs (w.h.p. `λ ≈ 2√(r-1)/r`),
//!   hypercubes, and dense circulants;
//! * **poor expanders** — cycles, tori/grids of fixed dimension, rings of cliques, barbells and
//!   lollipops (used for the contrast experiments and the Dutta et al. grid results);
//! * **structured small graphs** — Petersen, complete bipartite, trees and stars, used mostly by
//!   the exact duality checks and unit tests.
//!
//! Randomised generators take an explicit RNG so that experiment runs are reproducible from a
//! master seed.

mod basic;
mod circulant;
mod composite;
mod hypercube;
mod named;
mod random;
mod torus;
mod trees;

pub use basic::{complete, complete_bipartite, cycle, path, star};
pub use circulant::{circulant, cycle_power};
pub use composite::{barbell, lollipop, ring_of_cliques};
pub use hypercube::hypercube;
pub use named::{bull, diamond, petersen, triangle};
pub use random::{
    chung_lu, configuration_model, connected_chung_lu, connected_random_regular, erdos_renyi_gnp,
    random_regular,
};
pub use torus::{grid_2d, torus, torus_2d};
pub use trees::{balanced_tree, binary_tree, caterpillar};

use std::fmt;

use crate::{GraphError, Result};

/// A named graph family together with the parameters needed to instantiate it.
///
/// This is the configuration type the experiment harness serialises into result records so
/// every measured row states exactly which graph it ran on.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum GraphFamily {
    /// Complete graph `K_n`.
    Complete {
        /// Number of vertices.
        n: usize,
    },
    /// Cycle `C_n`.
    Cycle {
        /// Number of vertices.
        n: usize,
    },
    /// Hypercube `Q_d` on `2^d` vertices.
    Hypercube {
        /// Dimension.
        dim: u32,
    },
    /// Random `r`-regular graph, resampled until connected.
    RandomRegular {
        /// Number of vertices.
        n: usize,
        /// Degree.
        r: usize,
    },
    /// `d`-dimensional torus with the given side lengths.
    Torus {
        /// Side length of each dimension.
        sides: Vec<usize>,
    },
    /// Circulant graph on `n` vertices with offsets `1..=k` (the `k`-th power of a cycle).
    CyclePower {
        /// Number of vertices.
        n: usize,
        /// Power (half the degree).
        k: usize,
    },
    /// Ring of `c` cliques of size `s` joined by single edges.
    RingOfCliques {
        /// Number of cliques.
        cliques: usize,
        /// Size of each clique.
        size: usize,
    },
    /// Erdős–Rényi `G(n, p)`: each edge present independently with probability `p`.
    /// Not resampled for connectivity — pick `p` comfortably above `ln n / n` (processes
    /// reject graphs with isolated vertices loudly).
    ErdosRenyi {
        /// Number of vertices.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// Two `K_k` cliques joined by a single edge — a canonical poor expander.
    Barbell {
        /// Size of each clique.
        k: usize,
    },
    /// A `K_k` clique with a path of `path` vertices attached.
    Lollipop {
        /// Size of the clique.
        k: usize,
        /// Number of path vertices.
        path: usize,
    },
    /// The star `S_n` (vertex 0 is the centre).
    Star {
        /// Number of vertices (centre plus `n - 1` leaves).
        n: usize,
    },
    /// The complete bipartite graph `K_{a,b}` (bipartite, so `λ_n = -1`: outside the
    /// paper's hypotheses — a negative instance).
    CompleteBipartite {
        /// Size of the first side.
        a: usize,
        /// Size of the second side.
        b: usize,
    },
    /// A balanced `b`-ary tree of the given height (root at vertex 0).
    BalancedTree {
        /// Branching factor.
        branching: usize,
        /// Height (a single root at height 0).
        height: u32,
    },
    /// Chung–Lu expected-degree power-law graph with exponent `gamma` and target mean
    /// degree `d`, resampled until connected (isolated vertices would otherwise be rejected
    /// loudly by every process).
    ChungLu {
        /// Number of vertices.
        n: usize,
        /// Power-law exponent (`> 2`).
        gamma: f64,
        /// Target mean degree.
        d: f64,
    },
    /// An edge list loaded from disk (SNAP-style text, with a binary CSR cache beside it).
    /// `lenient` tolerates real-world quirks: unordered/1-indexed/duplicate edges,
    /// self-loops, and no `n m` header. See
    /// [`io::load_edge_list_file`](crate::io::load_edge_list_file).
    File {
        /// Path of the edge-list file.
        path: String,
        /// Tolerate headerless real-world exports instead of the strict `n m` format.
        lenient: bool,
    },
}

impl GraphFamily {
    /// Instantiates the family, using `rng` for randomised families.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooLarge`] before generating
    /// anything when the family's vertex count, or the arc count its parameters fix, exceeds
    /// the `u32` CSR; propagates the underlying generator error for invalid parameters.
    pub fn instantiate<R: rand::Rng>(&self, rng: &mut R) -> Result<crate::Graph> {
        crate::csr::check_csr_size(self.num_vertices(), self.max_arcs())?;
        match self {
            GraphFamily::Complete { n } => complete(*n),
            GraphFamily::Cycle { n } => cycle(*n),
            GraphFamily::Hypercube { dim } => hypercube(*dim),
            GraphFamily::RandomRegular { n, r } => connected_random_regular(*n, *r, rng),
            GraphFamily::Torus { sides } => torus(sides),
            GraphFamily::CyclePower { n, k } => cycle_power(*n, *k),
            GraphFamily::RingOfCliques { cliques, size } => ring_of_cliques(*cliques, *size),
            GraphFamily::ErdosRenyi { n, p } => erdos_renyi_gnp(*n, *p, rng),
            GraphFamily::Barbell { k } => barbell(*k),
            GraphFamily::Lollipop { k, path } => lollipop(*k, *path),
            GraphFamily::Star { n } => star(*n),
            GraphFamily::CompleteBipartite { a, b } => complete_bipartite(*a, *b),
            GraphFamily::BalancedTree { branching, height } => balanced_tree(*branching, *height),
            GraphFamily::ChungLu { n, gamma, d } => connected_chung_lu(*n, *gamma, *d, rng),
            GraphFamily::File { path, lenient } => crate::io::load_edge_list_file(path, *lenient),
        }
    }

    /// A short human-readable label used in experiment tables (e.g. `"random-4-regular"`).
    pub fn label(&self) -> String {
        match self {
            GraphFamily::Complete { n } => format!("complete-K{n}"),
            GraphFamily::Cycle { n } => format!("cycle-C{n}"),
            GraphFamily::Hypercube { dim } => format!("hypercube-Q{dim}"),
            GraphFamily::RandomRegular { n, r } => format!("random-{r}-regular-n{n}"),
            GraphFamily::Torus { sides } => {
                let dims: Vec<String> = sides.iter().map(|s| s.to_string()).collect();
                format!("torus-{}", dims.join("x"))
            }
            GraphFamily::CyclePower { n, k } => format!("cycle-power-n{n}-k{k}"),
            GraphFamily::RingOfCliques { cliques, size } => {
                format!("ring-of-{cliques}-cliques-{size}")
            }
            GraphFamily::ErdosRenyi { n, p } => format!("erdos-renyi-n{n}-p{p}"),
            GraphFamily::Barbell { k } => format!("barbell-K{k}"),
            GraphFamily::Lollipop { k, path } => format!("lollipop-K{k}-P{path}"),
            GraphFamily::Star { n } => format!("star-S{n}"),
            GraphFamily::CompleteBipartite { a, b } => format!("complete-bipartite-K{a}x{b}"),
            GraphFamily::BalancedTree { branching, height } => {
                format!("balanced-tree-b{branching}-h{height}")
            }
            GraphFamily::ChungLu { n, gamma, d } => format!("chung-lu-n{n}-g{gamma}-d{d}"),
            GraphFamily::File { path, .. } => {
                let stem =
                    std::path::Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or(path);
                format!("file-{stem}")
            }
        }
    }

    /// Number of vertices the instantiated graph will have.
    ///
    /// For [`GraphFamily::File`] the count is unknown until the file is read, so this
    /// returns `0`; call [`instantiate`](Self::instantiate) and ask the graph instead.
    /// Counts beyond `usize` saturate at `usize::MAX`.
    pub fn num_vertices(&self) -> usize {
        match self {
            GraphFamily::Complete { n } | GraphFamily::Cycle { n } => *n,
            GraphFamily::Hypercube { dim } => 1usize.checked_shl(*dim).unwrap_or(usize::MAX),
            GraphFamily::RandomRegular { n, .. } => *n,
            GraphFamily::Torus { sides } => sides.iter().fold(1, |n, &s| n.saturating_mul(s)),
            GraphFamily::CyclePower { n, .. } => *n,
            GraphFamily::RingOfCliques { cliques, size } => cliques.saturating_mul(*size),
            GraphFamily::ErdosRenyi { n, .. } => *n,
            GraphFamily::Barbell { k } => k.saturating_mul(2),
            GraphFamily::Lollipop { k, path } => k.saturating_add(*path),
            GraphFamily::Star { n } => *n,
            GraphFamily::CompleteBipartite { a, b } => a.saturating_add(*b),
            GraphFamily::BalancedTree { branching, height } => {
                let mut total = 1usize;
                let mut level = 1usize;
                for _ in 0..*height {
                    level = level.saturating_mul(*branching);
                    total = total.saturating_add(level);
                }
                total
            }
            GraphFamily::ChungLu { n, .. } => *n,
            GraphFamily::File { .. } => 0,
        }
    }

    /// An upper bound on the arc count (`2m`) of the instance, from the parameters alone;
    /// `0` for the families whose edge count is drawn or read (Erdős–Rényi, Chung–Lu,
    /// `file:`), which [`Graph::from_edges`](crate::Graph::from_edges) checks once built.
    fn max_arcs(&self) -> usize {
        let n = self.num_vertices();
        match self {
            GraphFamily::Complete { n } => n.saturating_mul(n.saturating_sub(1)),
            GraphFamily::Cycle { n } => n.saturating_mul(2),
            GraphFamily::Hypercube { dim } => n.saturating_mul(*dim as usize),
            GraphFamily::RandomRegular { n, r } => n.saturating_mul(*r),
            GraphFamily::Torus { sides } => n.saturating_mul(2 * sides.len()),
            GraphFamily::CyclePower { n, k } => n.saturating_mul(k.saturating_mul(2)),
            GraphFamily::RingOfCliques { size, .. } => n.saturating_mul(*size),
            GraphFamily::Barbell { k } => n.saturating_mul(*k),
            GraphFamily::Lollipop { k, .. } => n.saturating_mul(k.saturating_add(2)),
            GraphFamily::Star { n } => n.saturating_mul(2),
            GraphFamily::CompleteBipartite { a, b } => a.saturating_mul(*b).saturating_mul(2),
            GraphFamily::BalancedTree { .. } => n.saturating_mul(2),
            GraphFamily::ErdosRenyi { .. }
            | GraphFamily::ChungLu { .. }
            | GraphFamily::File { .. } => 0,
        }
    }

    /// The canonical identity of the instance this family produces under master seed
    /// `seed` — the key of shared graph-instance caches.
    ///
    /// Two `(family, seed)` pairs map to the same key **iff** they instantiate the same
    /// graph: the family half is the canonical [`Display`](fmt::Display) form (which
    /// round-trips through [`FromStr`](std::str::FromStr), so equivalent spellings like
    /// `er:` / `erdos-renyi:` normalise to one key), and the seed half pins the RNG stream
    /// randomised generators draw from. Deterministic families (`complete:`, `torus:`, …)
    /// ignore their RNG but still key per-seed, which only costs duplicate cache entries,
    /// never a wrong hit.
    pub fn cache_key(&self, seed: u64) -> String {
        format!("{self}#{seed}")
    }
}

/// Canonical CLI syntax for graph families (`Display` emits it, `FromStr` parses it):
///
/// | family | syntax |
/// |--------|--------|
/// | complete graph | `complete:n=64` |
/// | cycle | `cycle:n=64` |
/// | hypercube | `hypercube:d=7` |
/// | random regular | `random-regular:n=256,r=4` |
/// | torus | `torus:sides=16x16` (any dimension: `8x8x8`) |
/// | cycle power | `cycle-power:n=64,k=3` |
/// | ring of cliques | `ring-of-cliques:c=8,s=6` |
/// | Erdős–Rényi | `erdos-renyi:n=128,p=0.05` (aliases `er`, `gnp`) |
/// | barbell | `barbell:k=16` |
/// | lollipop | `lollipop:k=16,path=8` |
/// | star | `star:n=64` |
/// | complete bipartite | `complete-bipartite:a=8,b=8` |
/// | balanced tree | `balanced-tree:b=3,h=4` (aliases `branching=`, `height=`) |
/// | Chung–Lu power law | `chung-lu:n=256,gamma=2.5,d=8` (`d` optional, default 8; alias `cl`) |
/// | edge-list file | `file:path=nets/topo.edges` (`lenient=true` for SNAP-style exports) |
impl fmt::Display for GraphFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphFamily::Complete { n } => write!(f, "complete:n={n}"),
            GraphFamily::Cycle { n } => write!(f, "cycle:n={n}"),
            GraphFamily::Hypercube { dim } => write!(f, "hypercube:d={dim}"),
            GraphFamily::RandomRegular { n, r } => write!(f, "random-regular:n={n},r={r}"),
            GraphFamily::Torus { sides } => {
                let dims: Vec<String> = sides.iter().map(usize::to_string).collect();
                write!(f, "torus:sides={}", dims.join("x"))
            }
            GraphFamily::CyclePower { n, k } => write!(f, "cycle-power:n={n},k={k}"),
            GraphFamily::RingOfCliques { cliques, size } => {
                write!(f, "ring-of-cliques:c={cliques},s={size}")
            }
            GraphFamily::ErdosRenyi { n, p } => write!(f, "erdos-renyi:n={n},p={p}"),
            GraphFamily::Barbell { k } => write!(f, "barbell:k={k}"),
            GraphFamily::Lollipop { k, path } => write!(f, "lollipop:k={k},path={path}"),
            GraphFamily::Star { n } => write!(f, "star:n={n}"),
            GraphFamily::CompleteBipartite { a, b } => write!(f, "complete-bipartite:a={a},b={b}"),
            GraphFamily::BalancedTree { branching, height } => {
                write!(f, "balanced-tree:b={branching},h={height}")
            }
            GraphFamily::ChungLu { n, gamma, d } => {
                write!(f, "chung-lu:n={n},gamma={gamma},d={d}")
            }
            GraphFamily::File { path, lenient } => {
                write!(f, "file:path={path}")?;
                if *lenient {
                    write!(f, ",lenient=true")?;
                }
                Ok(())
            }
        }
    }
}

impl std::str::FromStr for GraphFamily {
    type Err = GraphError;

    fn from_str(text: &str) -> Result<Self> {
        let invalid = |reason: String| GraphError::InvalidParameters { reason };
        let (name, rest) = match text.split_once(':') {
            Some((name, rest)) => (name.trim(), rest),
            None => (text.trim(), ""),
        };
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        for token in rest.split(',').filter(|t| !t.is_empty()) {
            let (key, value) = token.split_once('=').ok_or_else(|| {
                invalid(format!("expected key=value, found {token:?} in graph spec {text:?}"))
            })?;
            pairs.push((key.trim(), value.trim()));
        }
        let mut take = |key: &str| -> Option<&str> {
            let index = pairs.iter().position(|(k, _)| *k == key)?;
            Some(pairs.remove(index).1)
        };
        let parse_usize = |key: &str, raw: &str| -> Result<usize> {
            raw.parse().map_err(|_| invalid(format!("invalid value {raw:?} for `{key}`")))
        };
        let require = |key: &str, value: Option<&str>| -> Result<String> {
            value
                .map(str::to_string)
                .ok_or_else(|| invalid(format!("graph spec {text:?} requires {key}=<value>")))
        };
        let family = match name.to_ascii_lowercase().as_str() {
            "complete" | "kn" => {
                GraphFamily::Complete { n: parse_usize("n", &require("n", take("n"))?)? }
            }
            "cycle" | "cn" => {
                GraphFamily::Cycle { n: parse_usize("n", &require("n", take("n"))?)? }
            }
            "hypercube" | "qd" => {
                let raw = require("d", take("d").or_else(|| take("dim")))?;
                let dim = raw
                    .parse::<u32>()
                    .map_err(|_| invalid(format!("invalid value {raw:?} for `d`")))?;
                GraphFamily::Hypercube { dim }
            }
            "random-regular" | "regular" | "rr" => GraphFamily::RandomRegular {
                n: parse_usize("n", &require("n", take("n"))?)?,
                r: parse_usize("r", &require("r", take("r"))?)?,
            },
            "torus" | "grid" => {
                let raw = require("sides", take("sides"))?;
                let sides = raw
                    .split('x')
                    .map(|side| parse_usize("sides", side))
                    .collect::<Result<Vec<usize>>>()?;
                GraphFamily::Torus { sides }
            }
            "cycle-power" => GraphFamily::CyclePower {
                n: parse_usize("n", &require("n", take("n"))?)?,
                k: parse_usize("k", &require("k", take("k"))?)?,
            },
            "ring-of-cliques" => GraphFamily::RingOfCliques {
                cliques: parse_usize("c", &require("c", take("c").or_else(|| take("cliques")))?)?,
                size: parse_usize("s", &require("s", take("s").or_else(|| take("size")))?)?,
            },
            "erdos-renyi" | "er" | "gnp" => {
                let raw = require("p", take("p"))?;
                let p = raw
                    .parse::<f64>()
                    .map_err(|_| invalid(format!("invalid value {raw:?} for `p`")))?;
                GraphFamily::ErdosRenyi { n: parse_usize("n", &require("n", take("n"))?)?, p }
            }
            "barbell" => GraphFamily::Barbell { k: parse_usize("k", &require("k", take("k"))?)? },
            "lollipop" => GraphFamily::Lollipop {
                k: parse_usize("k", &require("k", take("k"))?)?,
                path: parse_usize("path", &require("path", take("path").or_else(|| take("p")))?)?,
            },
            "star" => GraphFamily::Star { n: parse_usize("n", &require("n", take("n"))?)? },
            "complete-bipartite" | "kab" => GraphFamily::CompleteBipartite {
                a: parse_usize("a", &require("a", take("a"))?)?,
                b: parse_usize("b", &require("b", take("b"))?)?,
            },
            "balanced-tree" | "tree" => {
                let branching =
                    parse_usize("b", &require("b", take("b").or_else(|| take("branching")))?)?;
                let raw = require("h", take("h").or_else(|| take("height")))?;
                let height = raw
                    .parse::<u32>()
                    .map_err(|_| invalid(format!("invalid value {raw:?} for `h`")))?;
                GraphFamily::BalancedTree { branching, height }
            }
            "chung-lu" | "chunglu" | "cl" => {
                let raw = require("gamma", take("gamma").or_else(|| take("g")))?;
                let gamma = raw
                    .parse::<f64>()
                    .map_err(|_| invalid(format!("invalid value {raw:?} for `gamma`")))?;
                let d = match take("d") {
                    Some(raw) => raw
                        .parse::<f64>()
                        .map_err(|_| invalid(format!("invalid value {raw:?} for `d`")))?,
                    None => 8.0,
                };
                GraphFamily::ChungLu { n: parse_usize("n", &require("n", take("n"))?)?, gamma, d }
            }
            "file" => {
                let path = require("path", take("path"))?;
                if path.is_empty() {
                    return Err(invalid(format!("graph spec {text:?} requires a non-empty path")));
                }
                let lenient = match take("lenient") {
                    None => false,
                    Some("true") | Some("1") | Some("yes") => true,
                    Some("false") | Some("0") | Some("no") => false,
                    Some(other) => {
                        return Err(invalid(format!(
                            "invalid value {other:?} for `lenient` (expected true or false)"
                        )))
                    }
                };
                GraphFamily::File { path, lenient }
            }
            other => {
                return Err(invalid(format!(
                    "unknown graph family {other:?} (expected complete, cycle, hypercube, \
                     random-regular, torus, cycle-power, ring-of-cliques, erdos-renyi, \
                     barbell, lollipop, star, complete-bipartite, balanced-tree, chung-lu \
                     or file)"
                )))
            }
        };
        if let Some((key, _)) = pairs.first() {
            return Err(invalid(format!("unknown parameter `{key}` in graph spec {text:?}")));
        }
        Ok(family)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn families_beyond_the_u32_csr_fail_before_generating() {
        // Each of these would need gigabytes before the CSR could even be checked; the
        // closed-form vertex and arc counts reject them up front.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let cases = [
            ("random-regular:n=4294967296,r=4", 1usize << 32, 1usize << 34),
            ("complete:n=70000", 70_000, 70_000 * 69_999),
            ("hypercube:d=64", usize::MAX, usize::MAX),
            ("torus:sides=65536x65536", 1 << 32, 1 << 34),
        ];
        for (spec, vertices, arcs) in cases {
            let family: GraphFamily = spec.parse().unwrap();
            let err = family.instantiate(&mut rng).unwrap_err();
            assert_eq!(err, crate::GraphError::TooLarge { vertices, arcs }, "{spec}");
        }
        // Just under the limit in both counts, the check lets a family through to its
        // generator (which then decides on its own parameters).
        let fits = GraphFamily::Complete { n: 65_536 };
        assert!(crate::csr::check_csr_size(fits.num_vertices(), fits.max_arcs()).is_ok());
    }

    #[test]
    fn families_instantiate_and_match_vertex_counts() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let families = vec![
            GraphFamily::Complete { n: 12 },
            GraphFamily::Cycle { n: 9 },
            GraphFamily::Hypercube { dim: 5 },
            GraphFamily::RandomRegular { n: 30, r: 3 },
            GraphFamily::Torus { sides: vec![4, 5] },
            GraphFamily::CyclePower { n: 20, k: 3 },
            GraphFamily::RingOfCliques { cliques: 4, size: 5 },
            // G(n, p) with p far above the ln n / n connectivity threshold.
            GraphFamily::ErdosRenyi { n: 24, p: 0.5 },
            GraphFamily::Barbell { k: 6 },
            GraphFamily::Lollipop { k: 6, path: 4 },
            GraphFamily::Star { n: 11 },
            GraphFamily::CompleteBipartite { a: 4, b: 7 },
            GraphFamily::BalancedTree { branching: 3, height: 3 },
            GraphFamily::ChungLu { n: 64, gamma: 3.0, d: 8.0 },
        ];
        for family in families {
            let g = family.instantiate(&mut rng).unwrap();
            assert_eq!(g.num_vertices(), family.num_vertices(), "family {family:?}");
            assert!(crate::ops::is_connected(&g), "family {family:?} should be connected");
            assert!(!family.label().is_empty());
        }
    }

    #[test]
    fn file_family_loads_from_disk() {
        let g = crate::generators::petersen().unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join("cobra_family_file_test.edges");
        let path_str = path.to_str().unwrap().to_string();
        std::fs::write(&path, crate::io::to_edge_list(&g)).unwrap();
        let family = GraphFamily::File { path: path_str.clone(), lenient: false };
        assert_eq!(family.num_vertices(), 0, "vertex count unknown before the file is read");
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let loaded = family.instantiate(&mut rng).unwrap();
        assert_eq!(loaded, g);
        assert!(family.label().starts_with("file-"));
        let missing = GraphFamily::File { path: "/no/such/file.edges".into(), lenient: false };
        assert!(missing.instantiate(&mut rng).is_err());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(format!("{path_str}.csrcache"));
    }

    #[test]
    fn cache_keys_normalise_spellings_and_separate_seeds() {
        let canonical: GraphFamily = "random-regular:n=256,r=4".parse().unwrap();
        let aliased: GraphFamily = "er:n=64,p=0.25".parse().unwrap();
        let spelled_out: GraphFamily = "erdos-renyi:n=64,p=0.25".parse().unwrap();
        // Equivalent spellings agree; different families and seeds never collide.
        assert_eq!(aliased.cache_key(7), spelled_out.cache_key(7));
        assert_ne!(canonical.cache_key(7), spelled_out.cache_key(7));
        assert_ne!(canonical.cache_key(7), canonical.cache_key(8));
        // The family half is the canonical Display form, so the key parses back.
        let key = canonical.cache_key(7);
        let (family_text, seed_text) = key.rsplit_once('#').unwrap();
        assert_eq!(family_text.parse::<GraphFamily>().unwrap(), canonical);
        assert_eq!(seed_text, "7");
    }

    #[test]
    fn labels_are_distinct_and_descriptive() {
        let a = GraphFamily::Complete { n: 8 }.label();
        let b = GraphFamily::Cycle { n: 8 }.label();
        assert_ne!(a, b);
        assert!(a.contains('8'));
    }

    #[test]
    fn family_serde_round_trip() {
        let family = GraphFamily::Torus { sides: vec![8, 8, 8] };
        let json = serde_json::to_string(&family).unwrap();
        let back: GraphFamily = serde_json::from_str(&json).unwrap();
        assert_eq!(family, back);
    }

    #[test]
    fn family_display_parse_round_trip() {
        let families = vec![
            GraphFamily::Complete { n: 12 },
            GraphFamily::Cycle { n: 9 },
            GraphFamily::Hypercube { dim: 5 },
            GraphFamily::RandomRegular { n: 30, r: 3 },
            GraphFamily::Torus { sides: vec![4, 5, 6] },
            GraphFamily::CyclePower { n: 20, k: 3 },
            GraphFamily::RingOfCliques { cliques: 4, size: 5 },
            GraphFamily::ErdosRenyi { n: 128, p: 0.05 },
            GraphFamily::Barbell { k: 16 },
            GraphFamily::Lollipop { k: 16, path: 8 },
            GraphFamily::Star { n: 64 },
            GraphFamily::CompleteBipartite { a: 8, b: 9 },
            GraphFamily::BalancedTree { branching: 3, height: 4 },
            GraphFamily::ChungLu { n: 256, gamma: 2.5, d: 8.0 },
            GraphFamily::File { path: "nets/topo.edges".into(), lenient: false },
            GraphFamily::File { path: "nets/topo.edges".into(), lenient: true },
        ];
        for family in families {
            let text = family.to_string();
            let back: GraphFamily = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(family, back, "round trip through {text:?}");
        }
    }

    #[test]
    fn family_parse_accepts_aliases_and_rejects_junk() {
        assert_eq!(
            "rr:n=64,r=4".parse::<GraphFamily>().unwrap(),
            GraphFamily::RandomRegular { n: 64, r: 4 }
        );
        assert_eq!(
            "grid:sides=8x8".parse::<GraphFamily>().unwrap(),
            GraphFamily::Torus { sides: vec![8, 8] }
        );
        assert_eq!(
            "hypercube:dim=6".parse::<GraphFamily>().unwrap(),
            GraphFamily::Hypercube { dim: 6 }
        );
        assert_eq!(
            "gnp:n=64,p=0.1".parse::<GraphFamily>().unwrap(),
            GraphFamily::ErdosRenyi { n: 64, p: 0.1 }
        );
        assert_eq!(
            "tree:branching=2,height=5".parse::<GraphFamily>().unwrap(),
            GraphFamily::BalancedTree { branching: 2, height: 5 }
        );
        assert_eq!(
            "lollipop:k=8,p=4".parse::<GraphFamily>().unwrap(),
            GraphFamily::Lollipop { k: 8, path: 4 }
        );
        assert_eq!(
            "cl:n=128,gamma=2.5".parse::<GraphFamily>().unwrap(),
            GraphFamily::ChungLu { n: 128, gamma: 2.5, d: 8.0 }
        );
        assert_eq!(
            "chung-lu:n=128,g=3,d=6".parse::<GraphFamily>().unwrap(),
            GraphFamily::ChungLu { n: 128, gamma: 3.0, d: 6.0 }
        );
        assert_eq!(
            "file:path=a/b.edges,lenient=yes".parse::<GraphFamily>().unwrap(),
            GraphFamily::File { path: "a/b.edges".into(), lenient: true }
        );
        assert!("file".parse::<GraphFamily>().is_err()); // missing path
        assert!("file:path=".parse::<GraphFamily>().is_err()); // empty path
        assert!("file:path=x,lenient=maybe".parse::<GraphFamily>().is_err());
        assert!("chung-lu:n=128".parse::<GraphFamily>().is_err()); // missing gamma
        assert!("chung-lu:n=128,gamma=abc".parse::<GraphFamily>().is_err());
        assert!("mystery:n=3".parse::<GraphFamily>().is_err());
        assert!("complete".parse::<GraphFamily>().is_err());
        assert!("complete:n=abc".parse::<GraphFamily>().is_err());
        assert!("complete:n=4,bogus=1".parse::<GraphFamily>().is_err());
        assert!("torus:sides=4xsix".parse::<GraphFamily>().is_err());
        assert!("erdos-renyi:n=64".parse::<GraphFamily>().is_err());
        assert!("erdos-renyi:n=64,p=nope".parse::<GraphFamily>().is_err());
        assert!("balanced-tree:b=2".parse::<GraphFamily>().is_err());
        assert!("star".parse::<GraphFamily>().is_err());
    }
}
