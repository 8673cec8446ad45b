//! The three workloads, and every input they use, derived from the workload seed alone.

use cobra_core::sim::{Runner, StopReason};
use cobra_core::spec::ProcessSpec;
use cobra_core::SpreadingProcess;
use cobra_experiments::serve::protocol::JobParams;
use cobra_graph::generators::GraphFamily;
use cobra_stats::rng::SeedSequence;
use rand::RngCore;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `cobra:k=2` trials to full cover on `random-regular:n=100000,r=8`.
    Cover,
    /// `cobra:k=2` trials to 1 % active on `random-regular:n=1000000,r=8`.
    Growth,
    /// A Zipf-skewed job mix served over TCP by an in-process server.
    Serve,
}

/// The `(spec, log2 n, one-off)` key table of `serve-zipf`, hottest first. The Zipf rank of
/// a key is its index here. Fixed keys on the same size share one instance, as two users
/// naming the same graph would; a one-off key gets a fresh instance in every block of the
/// job list. The cache holds every fixed instance plus a few one-offs, so the one-offs are
/// the tail it cannot hold: they miss, and evict each other. Big instances sit at high
/// ranks, which keeps them recently used: the largest (rank 3, 4 of 53 jobs) is built once
/// and is the class the p99 job latency falls in, so p99 does not hinge on a rebuild whose
/// cost depends on how often the seed's stub matching restarts.
///
/// Every key completes on every seed tried: `drop=0.01` rather than `drop=0.1` (whose
/// first-round extinction, about 1 % of trials, would make a job fail on some seeds) and
/// the engine-routed `oblivious` adversary rather than `topdeg:budget=5%`, which kills most
/// COBRA trials outright (E10), or `partition`, whose spectral sweep makes a job's cost vary
/// fivefold between seeds. The `topdeg` policy's step cost is measured by the traced run.
const SERVE_KEYS: [(&str, u32, bool); 16] = [
    ("cobra:k=2", 12, false),
    ("push", 12, false),
    ("bips:k=2", 13, false),
    ("cobra:k=2", 16, false),
    ("bips:k=2", 15, false),
    ("cobra:k=2+drop=0.01", 14, false),
    ("cobra:k=2+adv=oblivious+drop=0.01", 13, false),
    ("cobra:k=2+def=boostk", 12, false),
    ("push", 14, false),
    ("cobra:k=2", 13, false),
    ("cobra:k=2", 12, true),
    ("bips:k=2", 12, true),
    ("push", 12, true),
    ("cobra:k=2+drop=0.01", 12, true),
    ("cobra:k=2+def=boostk", 12, true),
    ("cobra:k=2+adv=oblivious+drop=0.01", 12, true),
];

/// One-off instances the serving cache has room for beside the fixed ones.
const ONE_OFF_SLOTS: usize = 8;

/// Key ranks of one block of the `serve-zipf` job list: rank `r` appears `round(16 / (r +
/// 1))` times, a Zipf law with exponent 1. Each block is shuffled by the seed, so every
/// prefix of the list holds the keys in nearly exact Zipf proportions and every run serves
/// the same mix.
const ZIPF_BLOCK: [usize; 53] = [
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3,
    3, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 11, 12, 13, 14, 15,
];

/// Share of `serve-zipf` jobs that ask for per-trial observer traces.
const TRACE_SHARE: f64 = 0.25;

/// Trials per `serve-zipf` job: small jobs, so protocol and scheduling costs show.
const SERVE_TRIALS: usize = 2;

/// Trials per simulation job: the `repro --process` presets' counts, quick (10) on
/// cover-rr100k and full (50) on growth-rr1m, whose trials cost a tenth as much. A job then
/// takes 0.2–0.3 s, a sum of many trials per core that one host stall moves little.
fn sim_trials(workload: Workload) -> usize {
    if workload == Workload::Growth {
        50
    } else {
        10
    }
}

/// Round budget of a simulation job: the CLI default; no trial comes near it.
pub const MAX_ROUNDS: usize = 10_000_000;

/// Round budget of a `serve-zipf` job, 1000x its keys' cover times: a trial that died
/// would fail fast instead of stepping a dead process for 10^7 rounds.
const SERVE_MAX_ROUNDS: usize = 100_000;

/// A workload at a size (`tiny` shrinks every instance for the self-test).
#[derive(Debug, Clone)]
pub struct Setup {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Self-test sizes.
    pub tiny: bool,
    /// Worker threads / trial parallelism: the host's core count.
    pub nproc: usize,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cover-rr100k" => Some(Workload::Cover),
            "growth-rr1m" => Some(Workload::Growth),
            "serve-zipf" => Some(Workload::Serve),
            _ => None,
        }
    }
}

impl Setup {
    /// The `serve-zipf` instance size of `log2 n` (`tiny` divides by 16).
    fn serve_n(&self, lg: u32) -> usize {
        1 << if self.tiny { lg - 4 } else { lg }
    }

    /// The instance seed of every `serve-zipf` key on a graph of `2^lg` vertices: keys on
    /// the same size share one instance, as two users naming the same graph would.
    fn serve_seed(&self, lg: u32) -> u64 {
        // Kept below 2^52 so it survives the protocol's JSON numbers exactly.
        (self.seed.wrapping_mul(1_000_003).wrapping_add(u64::from(lg))) & ((1 << 52) - 1)
    }

    /// The main instance: the simulation workloads' graph, or the hottest `serve-zipf` one.
    pub fn family(&self) -> GraphFamily {
        match self.workload {
            Workload::Cover => {
                GraphFamily::RandomRegular { n: if self.tiny { 2_000 } else { 100_000 }, r: 8 }
            }
            Workload::Growth => {
                GraphFamily::RandomRegular { n: if self.tiny { 20_000 } else { 1_000_000 }, r: 8 }
            }
            Workload::Serve => {
                GraphFamily::RandomRegular { n: self.serve_n(SERVE_KEYS[0].1), r: 8 }
            }
        }
    }

    /// The master seed of the main instance (the CLI derives the instance from it).
    pub fn main_seed(&self) -> u64 {
        match self.workload {
            Workload::Serve => self.serve_seed(SERVE_KEYS[0].1),
            _ => self.seed,
        }
    }

    /// The active fraction a simulation trial stops at, when it does not run to cover.
    pub fn target_fraction(&self) -> Option<f64> {
        (self.workload == Workload::Growth).then_some(0.01)
    }

    /// The runner the simulation workloads use (`serve-zipf` jobs run to completion).
    pub fn runner(&self) -> Runner {
        let runner = Runner::new(MAX_ROUNDS);
        match self.target_fraction() {
            Some(fraction) => runner.until_coverage(fraction).expect("a valid fraction"),
            None => runner,
        }
    }

    /// The runner of an in-process replay of a job: the workload's own runner for the
    /// simulation workloads, and the server's (run to completion) for `serve-zipf`.
    pub fn job_runner(&self, params: &JobParams) -> Runner {
        match self.workload {
            Workload::Serve => Runner::new(params.max_rounds),
            _ => self.runner(),
        }
    }

    /// The graph-cache budget: every fixed `serve-zipf` instance plus [`ONE_OFF_SLOTS`]
    /// one-offs, or the single instance of a simulation workload.
    pub fn cache_bytes(&self) -> usize {
        match self.workload {
            Workload::Serve => {
                let fixed: usize =
                    self.fixed_sizes().iter().map(|&lg| heap_bytes(self.serve_n(lg))).sum();
                fixed + ONE_OFF_SLOTS * heap_bytes(self.serve_n(12))
            }
            _ => 256 << 20,
        }
    }

    /// The distinct `log2 n` of the fixed `serve-zipf` keys, hottest first.
    fn fixed_sizes(&self) -> Vec<u32> {
        let mut sizes = Vec::new();
        for &(_, lg, one_off) in &SERVE_KEYS {
            if !one_off && !sizes.contains(&lg) {
                sizes.push(lg);
            }
        }
        sizes
    }

    /// Job `index` of the workload's job list. A simulation workload's job is
    /// [`sim_trials`] trials of its single key; `serve-zipf` draws the key from a Zipf law, block by block.
    pub fn job(&self, index: u64) -> JobParams {
        let spec: ProcessSpec;
        let family;
        let seed;
        let mut trace = false;
        let trials;
        let mut max_rounds = MAX_ROUNDS;
        match self.workload {
            Workload::Serve => {
                let block = index / ZIPF_BLOCK.len() as u64;
                let mut rng = SeedSequence::new(self.seed).trial_rng("zipf-block", block);
                let order = shuffled_block(&mut rng);
                let rank = order[(index % ZIPF_BLOCK.len() as u64) as usize];
                let mut rng = SeedSequence::new(self.seed).trial_rng("zipf-job", index);
                let (text, lg, one_off) = SERVE_KEYS[rank];
                spec = text.parse().expect("serve keys parse");
                family = GraphFamily::RandomRegular { n: self.serve_n(lg), r: 8 };
                seed = if one_off {
                    (self.serve_seed(lg) + 1024 * (block + 1) + rank as u64) & ((1 << 52) - 1)
                } else {
                    self.serve_seed(lg)
                };
                trace = unit(&mut rng) < TRACE_SHARE;
                trials = SERVE_TRIALS;
                max_rounds = SERVE_MAX_ROUNDS;
            }
            _ => {
                spec = ProcessSpec::cobra(2).expect("k = 2 is valid");
                family = self.family();
                seed = self.seed;
                trials = sim_trials(self.workload);
            }
        }
        JobParams { spec, family, trials, seed, max_rounds, trace }
    }

    /// Job `index` of a short served session: the job list's, except that a simulation job
    /// asks for `nproc` trials, since a server runs every job to full cover (eight seconds a
    /// trial on growth-rr1m).
    pub fn session_job(&self, index: u64) -> JobParams {
        let job = self.job(index);
        match self.workload {
            Workload::Serve => job,
            _ => JobParams { trials: self.nproc, ..job },
        }
    }

    /// Jobs per block of the job list: the list's mix is exact over whole blocks.
    pub fn block_len(&self) -> usize {
        match self.workload {
            Workload::Serve => ZIPF_BLOCK.len(),
            _ => 1,
        }
    }

    /// One single-trial job per fixed instance, used to warm the server's cache at set-up
    /// (the simulation workloads warm their one instance).
    pub fn warmup_jobs(&self) -> Vec<JobParams> {
        let sizes = match self.workload {
            Workload::Serve => self.fixed_sizes(),
            _ => vec![0],
        };
        sizes
            .into_iter()
            .map(|lg| {
                let mut job = self.job(0);
                if self.workload == Workload::Serve {
                    job.spec = ProcessSpec::cobra(2).expect("k = 2 is valid");
                    job.family = GraphFamily::RandomRegular { n: self.serve_n(lg), r: 8 };
                    job.seed = self.serve_seed(lg);
                    job.trace = false;
                }
                job.trials = 1;
                job
            })
            .collect()
    }
}

/// CSR heap of an `r = 8` instance on `n` vertices: `n + 1` offsets and `8n` neighbours,
/// 8 bytes each (what `Graph::heap_bytes` reports).
fn heap_bytes(n: usize) -> usize {
    8 * (9 * n + 1)
}

/// The stop test of `Runner`: the active target (if any), then completion.
pub fn goal_reached(process: &dyn SpreadingProcess, fraction: Option<f64>) -> Option<StopReason> {
    if let Some(f) = fraction {
        if process.num_active() >= (f * process.num_vertices() as f64).ceil() as usize {
            return Some(StopReason::TargetReached);
        }
    }
    process.is_complete().then_some(StopReason::Completed)
}

/// A uniform double in `[0, 1)` from one 64-bit word.
fn unit(rng: &mut dyn RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// One block of key ranks in a seed-drawn order (Fisher–Yates).
fn shuffled_block(rng: &mut dyn RngCore) -> [usize; ZIPF_BLOCK.len()] {
    let mut order = ZIPF_BLOCK;
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The NDJSON submit line of a job, as a client sends it.
pub fn submit_line(params: &JobParams) -> String {
    format!(
        "{{\"cmd\":\"submit\",\"spec\":\"{}\",\"graph\":\"{}\",\"trials\":{},\"seed\":{},\
         \"max_rounds\":{},\"trace\":{}}}",
        params.spec, params.family, params.trials, params.seed, params.max_rounds, params.trace
    )
}

/// The CLI path's instance for a job: `SeedSequence::new(seed).child("ad-hoc")`, stream
/// `instance` 0 — exactly what `repro --process` and a server worker build.
pub fn instance_seq(seed: u64) -> SeedSequence {
    SeedSequence::new(seed).child("ad-hoc")
}

/// The CLI path's trial label of a job.
pub fn label(params: &JobParams) -> String {
    format!("{}@{}", params.spec, params.family)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(workload: Workload, seed: u64) -> Setup {
        Setup { workload, seed, tiny: false, nproc: 2 }
    }

    #[test]
    fn job_lists_derive_from_the_seed_alone() {
        let a: Vec<String> =
            (0..64).map(|i| submit_line(&setup(Workload::Serve, 3).job(i))).collect();
        let b: Vec<String> =
            (0..64).map(|i| submit_line(&setup(Workload::Serve, 3).job(i))).collect();
        let c: Vec<String> =
            (0..64).map(|i| submit_line(&setup(Workload::Serve, 4).job(i))).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn the_zipf_mix_is_skewed_and_every_line_parses() {
        let setup = setup(Workload::Serve, 9);
        let mut hottest = 0;
        for i in 0..2_000 {
            let job = setup.job(i);
            hottest +=
                usize::from(job.spec.to_string() == "cobra:k=2" && job.family == setup.family());
            let line = submit_line(&job);
            assert!(cobra_experiments::serve::protocol::parse_request(&line).is_ok(), "{line}");
        }
        // Rank 0 carries 16 of every 53 jobs.
        assert!((560..650).contains(&hottest), "{hottest}");
    }

    #[test]
    fn the_cache_holds_the_fixed_instances_but_not_every_one_off() {
        let setup = setup(Workload::Serve, 1);
        let fixed: usize =
            setup.warmup_jobs().iter().map(|job| heap_bytes(job.family.num_vertices())).sum();
        assert!(fixed < setup.cache_bytes());
        let instances: std::collections::HashSet<String> =
            (0..530).map(|i| setup.job(i)).map(|job| job.family.cache_key(job.seed)).collect();
        assert!(instances.len() > setup.warmup_jobs().len() + ONE_OFF_SLOTS);
    }
}
