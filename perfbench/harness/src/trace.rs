//! The traced run: per-layer metrics, each timed from outside by calling the layer's public
//! functions, with spans recorded around those calls.
//!
//! A span records its name, start, end, parent and group (the job or trial it belongs to).
//! Spans stay in memory and are written as NDJSON when the run ends. A layer's self time is
//! its spans' duration minus the part covered by their child spans.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cobra_core::counting::CountingRng;
use cobra_core::sim::{CoverageTrace, FirstVisitTimes, Observer, RunOutcome, StopReason};
use cobra_core::spec::ProcessSpec;
use cobra_core::{ParallelFrontier, SpreadingProcess};
use cobra_experiments::driver;
use cobra_experiments::serve::cache::GraphCache;
use cobra_experiments::serve::protocol::{self, JobParams, Request, TrialTrace};
use cobra_graph::sample::VertexStreams;
use cobra_graph::Graph;
use cobra_stats::parallel::{run_trials, TrialConfig};
use cobra_stats::rng::SeedSequence;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::serve;
use crate::util::{mean, median, secs, Checks, Report};
use crate::workload::{goal_reached, instance_seq, label, submit_line, Setup};

/// One recorded span; times are ns since the tracer started.
#[derive(Debug, Clone)]
struct Span {
    id: usize,
    parent: usize,
    group: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. A disabled tracer records nothing.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    fn begin(&mut self, name: &'static str, group: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map_or(0, |&index| self.spans[index].id);
        let id = self.spans.len() + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, group, name, start_ns, end_ns: start_ns });
        self.open.push(id - 1);
    }

    /// Closes the innermost open span.
    fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("end without begin");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Total self time per span name, in ms.
    fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for span in &self.spans {
            child_ns[span.parent] += span.end_ns - span.start_ns;
        }
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[span.id]);
            *totals.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
        }
        totals
    }

    fn write(&self, path: &str) {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{}}}\n",
                s.id, s.parent, s.group, s.name, s.start_ns, s.end_ns
            ));
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(path, out) {
            Ok(()) => println!("spans: {} written to {path}", self.spans.len()),
            Err(error) => println!("spans: cannot write {path}: {error}"),
        }
    }
}

/// The span names whose self time is reported, in print order.
const SPAN_NAMES: [&str; 10] = [
    "job",
    "parse_request",
    "get_or_build",
    "instantiate",
    "trial",
    "build",
    "step",
    "trial_event",
    "summary_event",
    "fan_out",
];

/// `Runner::run_observed` as a benchmark-owned loop, so each `step` call can be timed;
/// `on_step(active_before, ns)` sees every round.
fn run_loop(
    process: &mut dyn SpreadingProcess,
    rng: &mut dyn RngCore,
    fraction: Option<f64>,
    max_rounds: usize,
    observers: &mut [&mut dyn Observer],
    (tracer, group): (&mut Tracer, u64),
    mut on_step: impl FnMut(usize, u64),
) -> RunOutcome {
    let outcome = |process: &dyn SpreadingProcess, reason| RunOutcome {
        rounds: process.round(),
        final_active: process.num_active(),
        num_vertices: process.num_vertices(),
        reason,
    };
    for observer in observers.iter_mut() {
        observer.on_start(process);
    }
    if let Some(reason) = goal_reached(process, fraction) {
        return outcome(process, reason);
    }
    for _ in 0..max_rounds {
        let active = process.num_active();
        tracer.begin("step", group);
        let start = Instant::now();
        process.step(rng);
        on_step(active, start.elapsed().as_nanos() as u64);
        tracer.end();
        for observer in observers.iter_mut() {
            observer.on_round(process);
        }
        if let Some(reason) = goal_reached(process, fraction) {
            return outcome(process, reason);
        }
    }
    outcome(process, StopReason::BudgetExhausted)
}

/// What one in-process replay pass of the job list measured.
#[derive(Debug, Default)]
struct Replay {
    jobs: usize,
    failed: usize,
    parse_us: Vec<f64>,
    encode_us: Vec<f64>,
    bytes: Vec<f64>,
    build_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    instantiate_s: Vec<f64>,
    heap_bytes: usize,
    trial_loop_s: f64,
    summaries: Vec<(u64, JobParams, String)>,
}

/// Replays jobs `0..` of the workload's list through the serving layers' public functions
/// (parse, cache, build, step, encode), the way a server worker runs them. Runs for
/// `seconds` (at least two jobs) unless `jobs` fixes the count.
fn replay(
    setup: &Setup,
    cache: &GraphCache,
    tracer: &mut Tracer,
    seconds: f64,
    jobs: Option<usize>,
) -> Replay {
    let mut out = Replay::default();
    let window = Instant::now();
    let mut index = 0;
    while jobs.map_or(index < 2 || secs(window) < seconds, |count| index < count) {
        let group = index as u64 + 1;
        let line = submit_line(&setup.job(index as u64));
        index += 1;
        tracer.begin("job", group);

        tracer.begin("parse_request", group);
        let start = Instant::now();
        let request = protocol::parse_request(&line);
        out.parse_us.push(1e6 * secs(start));
        tracer.end();
        let Ok(Request::Submit(params)) = request else {
            panic!("the job list's submit lines parse: {line}");
        };

        tracer.begin("get_or_build", group);
        let start = Instant::now();
        let mut built = None;
        let graph = cache
            .get_or_build(&params.family, params.seed, || {
                tracer.begin("instantiate", group);
                let start = Instant::now();
                let graph = params
                    .family
                    .instantiate(&mut instance_seq(params.seed).trial_rng("instance", 0));
                built = Some(secs(start));
                tracer.end();
                graph
            })
            .expect("job instances build");
        tracer.end();
        if let Some(build_s) = built {
            out.miss_ms.push(1e3 * secs(start));
            out.instantiate_s.push(build_s);
            out.heap_bytes += graph.heap_bytes();
        }

        let runner = setup.job_runner(&params);
        let trial_label = label(&params);
        let seq = instance_seq(params.seed);
        let fraction = setup.target_fraction();
        let mut outcomes = Vec::new();
        // Encoding cost and size per job: its trial events plus the summary.
        let (mut encode_us, mut bytes) = (0.0, 0);
        for trial in 0..params.trials {
            let trial_start = Instant::now();
            tracer.begin("trial", group);
            let mut rng = seq.trial_rng(&trial_label, trial as u64);
            tracer.begin("build", group);
            let start = Instant::now();
            let mut process = params.spec.build(&graph).expect("job specs build");
            out.build_ms.push(1e3 * secs(start));
            tracer.end();
            let mut coverage = CoverageTrace::new();
            let mut visits = FirstVisitTimes::new();
            let mut both: [&mut dyn Observer; 2] = [&mut coverage, &mut visits];
            let observers: &mut [&mut dyn Observer] =
                if params.trace { &mut both } else { &mut [] };
            let outcome = run_loop(
                process.as_mut(),
                &mut rng,
                fraction,
                runner.max_rounds(),
                observers,
                (tracer, group),
                |_, _| {},
            );
            tracer.end();
            out.trial_loop_s += secs(trial_start);
            out.failed += usize::from(!outcome.completed());
            let trace = params.trace.then(|| TrialTrace {
                coverage_deltas: coverage.deltas(),
                cover_time: visits.cover_time(),
            });
            tracer.begin("trial_event", group);
            let start = Instant::now();
            let event = protocol::trial_event(group, trial, &outcome, trace.as_ref());
            encode_us += 1e6 * secs(start);
            bytes += event.len();
            tracer.end();
            outcomes.push(outcome);
        }
        tracer.begin("summary_event", group);
        let start = Instant::now();
        let summary = protocol::summary_event(group, &params, &outcomes);
        out.encode_us.push(encode_us + 1e6 * secs(start));
        out.bytes.push((bytes + summary.len()) as f64);
        tracer.end();
        out.summaries.push((group, params, summary));
        tracer.end();
    }
    out.jobs = index;
    out
}

/// Step-time totals of one loop: all rounds, saturated rounds (|A| ≥ n/4) and sparse rounds
/// (|A| < n/100).
#[derive(Debug, Default, Clone, Copy)]
struct StepTimes {
    ns: f64,
    active: f64,
    rounds: usize,
    saturated_ns: f64,
    saturated_active: f64,
    sparse_ns: f64,
    sparse_rounds: usize,
}

impl StepTimes {
    /// Records one round; rounds of a dead process (no active vertex) do no work and are
    /// left out, so a wrapper that kills the process is compared on its live rounds.
    fn add(&mut self, n: usize, active: usize, ns: u64) {
        if active == 0 {
            return;
        }
        let ns = ns as f64;
        self.ns += ns;
        self.active += active as f64;
        self.rounds += 1;
        if 4 * active >= n {
            self.saturated_ns += ns;
            self.saturated_active += active as f64;
        }
        if 100 * active < n {
            self.sparse_ns += ns;
            self.sparse_rounds += 1;
        }
    }

    fn merge(&mut self, other: StepTimes) {
        self.ns += other.ns;
        self.active += other.active;
        self.rounds += other.rounds;
        self.saturated_ns += other.saturated_ns;
        self.saturated_active += other.saturated_active;
        self.sparse_ns += other.sparse_ns;
        self.sparse_rounds += other.sparse_rounds;
    }

    fn ns_per_active(&self) -> f64 {
        self.ns / self.active
    }
}

/// Steps `process` to the workload goal (or exactly `rounds` rounds) and times every step.
fn timed(
    process: &mut dyn SpreadingProcess,
    rng: &mut dyn RngCore,
    fraction: Option<f64>,
    rounds: Option<usize>,
) -> (StepTimes, RunOutcome) {
    let n = process.num_vertices();
    let mut times = StepTimes::default();
    let outcome = match rounds {
        Some(rounds) => {
            for _ in 0..rounds {
                let active = process.num_active();
                let start = Instant::now();
                process.step(rng);
                times.add(n, active, start.elapsed().as_nanos() as u64);
            }
            RunOutcome {
                rounds,
                final_active: process.num_active(),
                num_vertices: n,
                reason: StopReason::BudgetExhausted,
            }
        }
        None => run_loop(
            process,
            rng,
            fraction,
            usize::MAX,
            &mut [],
            (&mut Tracer::new(false), 0),
            |active, ns| times.add(n, active, ns),
        ),
    };
    (times, outcome)
}

/// Same-seed comparisons on the main instance: the bare sequential step against the stream
/// engine, the fault/adversary/defense wrappers and the observed runner.
#[derive(Debug, Default)]
struct Compare {
    bare: StepTimes,
    benign: StepTimes,
    adversary: StepTimes,
    defense: StepTimes,
    stream_one: StepTimes,
    stream_many: StepTimes,
    run_s: f64,
    observed_s: f64,
    trials: usize,
    words: u64,
    word_active: f64,
}

fn compare(setup: &Setup, graph: &Graph, seconds: f64, checks: &mut Checks) -> Compare {
    let bare = ProcessSpec::cobra(2).expect("k = 2 is valid");
    let parse = |text: &str| -> ProcessSpec { text.parse().expect("wrapper specs parse") };
    let benign = parse("cobra:k=2+drop=0");
    let adversary = parse("cobra:k=2+adv=topdeg:budget=5%");
    let defense = parse("cobra:k=2+def=boostk");
    let fraction = setup.target_fraction();
    let runner = setup.runner();
    let seq = SeedSequence::new(setup.seed).child("trace-compare");
    let trial_label = format!("{bare}@{}", setup.family());
    let build = |spec: &ProcessSpec| spec.build(graph).expect("comparison specs build");
    let mut out = Compare::default();
    let mut benign_identical = true;
    let window = Instant::now();
    while out.trials < 2 || secs(window) < seconds {
        let trial = out.trials as u64;
        let rng = || seq.trial_rng(&trial_label, trial);

        let mut r = rng();
        let (times, outcome) = timed(build(&bare).as_mut(), &mut r, fraction, None);
        out.bare.merge(times);
        if trial == 0 {
            let mut counting = CountingRng::new(rng());
            let (times, _) = timed(build(&bare).as_mut(), &mut counting, fraction, None);
            out.words = counting.count();
            out.word_active = times.active;
        }

        let mut r = rng();
        let (times, benign_outcome) = timed(build(&benign).as_mut(), &mut r, fraction, None);
        benign_identical &= benign_outcome == outcome;
        out.benign.merge(times);

        let rounds = Some(outcome.rounds);
        let mut r = rng();
        out.adversary.merge(timed(build(&adversary).as_mut(), &mut r, None, rounds).0);
        let mut r = rng();
        out.defense.merge(timed(build(&defense).as_mut(), &mut r, None, rounds).0);

        let mut r = rng();
        let mut one = bare.build_parallel(graph, 1, &mut r).expect("stream build");
        out.stream_one.merge(timed(one.as_mut(), &mut r, fraction, None).0);
        let mut r = rng();
        let mut many = bare.build_parallel(graph, setup.nproc, &mut r).expect("stream build");
        out.stream_many.merge(timed(many.as_mut(), &mut r, fraction, None).0);

        let mut process = build(&bare);
        let start = Instant::now();
        let plain = runner.run(process.as_mut(), &mut rng());
        out.run_s += secs(start);
        let mut process = build(&bare);
        let mut coverage = CoverageTrace::new();
        let mut visits = FirstVisitTimes::new();
        let start = Instant::now();
        let observed =
            runner.run_observed(process.as_mut(), &mut rng(), &mut [&mut coverage, &mut visits]);
        out.observed_s += secs(start);
        benign_identical &= plain == outcome && observed == outcome;
        out.trials += 1;
    }
    checks.check(
        benign_identical,
        "drop=0 wrapper, Runner::run and Runner::run_observed reproduce the bare trajectories",
    );
    checks.check(
        out.words as f64 == 2.0 * out.word_active,
        format!(
            "CountingRng: cobra:k=2 draws exactly 2 words per active vertex ({} words)",
            out.words
        ),
    );
    if out.bare.saturated_active == 0.0 {
        // The growth phase never saturates: one full-cover trial supplies those rounds.
        let mut r = seq.trial_rng(&trial_label, u64::MAX);
        let (times, _) = timed(build(&bare).as_mut(), &mut r, None, None);
        out.bare.saturated_ns += times.saturated_ns;
        out.bare.saturated_active += times.saturated_active;
    }
    out
}

/// Sum of per-trial times over wall time × `nproc`, on the CLI default path's executor.
fn trial_efficiency(setup: &Setup, graph: &Graph, seconds: f64) -> f64 {
    let spec = ProcessSpec::cobra(2).expect("k = 2 is valid");
    let runner = setup.runner();
    let trial_label = format!("{spec}@{}", setup.family());
    let (mut busy, mut wall) = (0.0, 0.0);
    let window = Instant::now();
    let mut batch = 0;
    while batch < 3 || secs(window) < seconds {
        let seq = SeedSequence::new(setup.seed).child(&format!("efficiency-{batch}"));
        let start = Instant::now();
        let config = TrialConfig::parallel(setup.job(0).trials);
        let times = run_trials(&seq, &trial_label, config, |_, rng| {
            let start = Instant::now();
            let mut process = spec.build(graph).expect("cobra builds");
            black_box(runner.run(process.as_mut(), rng));
            secs(start)
        });
        wall += secs(start);
        busy += times.iter().sum::<f64>();
        batch += 1;
    }
    busy / (wall * setup.nproc as f64)
}

/// ChaCha8 words per ns, and one `VertexStreams::stream` derivation plus 2 draws.
fn rng_micro(setup: &Setup) -> (f64, f64) {
    let mut seed_rng = SeedSequence::new(setup.seed).trial_rng("rng-micro", 0);
    let mut key = [0u8; 32];
    seed_rng.fill_bytes(&mut key);
    let words = if setup.tiny { 1 << 16 } else { 1 << 22 };
    let mut per_word = Vec::new();
    let mut per_stream = Vec::new();
    let streams = VertexStreams::new(key);
    for rep in 0..5u64 {
        let mut rng = ChaCha8Rng::from_seed(key);
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..words {
            acc ^= rng.next_u64();
        }
        black_box(acc);
        per_word.push(1e9 * secs(start) / words as f64);
        let calls = words / 8;
        let start = Instant::now();
        for entity in 0..calls as u64 {
            let mut stream = streams.stream(entity, rep);
            acc ^= stream.next_u64() ^ stream.next_u64();
        }
        black_box(acc);
        per_stream.push(1e9 * secs(start) / calls as f64);
    }
    (median(&per_word), median(&per_stream))
}

/// One no-op `ParallelFrontier::fan_out` at `nproc` shards, in µs.
fn fanout_micro(setup: &Setup, tracer: &mut Tracer) -> f64 {
    let mut rng = SeedSequence::new(setup.seed).trial_rng("fanout-micro", 0);
    let engine = ParallelFrontier::from_rng(&mut rng, setup.nproc).expect("nproc >= 1");
    let items: Vec<usize> = (0..setup.nproc).collect();
    let mut samples = Vec::new();
    for call in 0..2_000u64 {
        tracer.begin("fan_out", call);
        let start = Instant::now();
        black_box(engine.fan_out(&items, |base, part| base + part.len()));
        samples.push(1e6 * secs(start));
        tracer.end();
    }
    median(&samples)
}

/// The traced run of any workload: every per-layer metric.
pub fn run(setup: &Setup, seconds: f64, spans: &str, report: &mut Report, checks: &mut Checks) {
    let mut tracer = Tracer::new(true);
    let cache = GraphCache::new(setup.cache_bytes());

    // The tracing overhead: the traced pass's trial-loop time over the mean of two untraced
    // passes of the same jobs (graph acquisition is left out: later passes hit the cache).
    let traced = replay(setup, &cache, &mut tracer, 0.2 * seconds, None);
    let cache_stats = cache.stats();
    let untraced_s = [0, 1].map(|_| {
        replay(setup, &cache, &mut Tracer::new(false), 0.0, Some(traced.jobs)).trial_loop_s
    });
    let untraced_s = (untraced_s[0] + untraced_s[1]) / 2.0;
    let overhead_s = traced.trial_loop_s - untraced_s;

    // The replayed summaries must equal the CLI path's recomputation.
    let mut expected: HashMap<String, Vec<RunOutcome>> = HashMap::new();
    let mut mismatches = 0;
    for (job, params, summary) in &traced.summaries {
        let key = submit_line(&JobParams { trace: false, ..params.clone() });
        let outcomes = expected.entry(key).or_insert_with(|| {
            let seq = instance_seq(params.seed);
            let graph = cache
                .get_or_build(&params.family, params.seed, || {
                    params.family.instantiate(&mut seq.trial_rng("instance", 0))
                })
                .expect("instantiate");
            driver::run_spec_trials(
                &graph,
                &params.spec,
                &setup.job_runner(params),
                &seq,
                &label(params),
                TrialConfig::parallel(params.trials),
            )
        });
        mismatches += usize::from(*summary != protocol::summary_event(*job, params, outcomes));
    }
    checks.check(
        mismatches == 0,
        format!(
            "{} replayed summaries equal the run_spec_trials recomputation ({mismatches} mismatches)",
            traced.summaries.len()
        ),
    );

    let main: Arc<Graph> = cache
        .get_or_build(&setup.family(), setup.main_seed(), || {
            setup
                .family()
                .instantiate(&mut instance_seq(setup.main_seed()).trial_rng("instance", 0))
        })
        .expect("main instance builds");
    let cmp = compare(setup, &main, 0.3 * seconds, checks);
    let efficiency = trial_efficiency(setup, &main, 0.1 * seconds);
    let (ns_per_word, stream_for_ns) = rng_micro(setup);
    let fanout_us = fanout_micro(setup, &mut tracer);
    let session_seconds = if setup.tiny { 0.5 } else { 0.2 * seconds };
    let [accept_ms, wait_p50, wait_p99, stream_ms, served] =
        serve::session_timings(setup, session_seconds, checks);
    println!(
        "traced: {} replayed jobs, {} compared trials, {served} served jobs in the session",
        traced.jobs, cmp.trials
    );

    report.attempted = traced.jobs as u64;
    report.failed = traced.failed as u64;
    let lookups = (cache_stats.hits + cache_stats.misses) as f64;
    let bare_ns = cmp.bare.ns_per_active();
    let m = report;
    m.metric("graph.instantiate_s", median(&traced.instantiate_s), "s");
    m.metric("graph.heap_mb", traced.heap_bytes as f64 / 1e6, "MB");
    m.metric("rng.ns_per_word", ns_per_word, "ns/word");
    m.metric("rng.stream_for_ns", stream_for_ns, "ns");
    m.metric("rng.words_per_active", cmp.words as f64 / cmp.word_active, "words/active");
    m.metric("core.build_ms", median(&traced.build_ms), "ms");
    m.metric(
        "core.step_saturated_ns_per_active",
        cmp.bare.saturated_ns / cmp.bare.saturated_active,
        "ns/active",
    );
    m.metric(
        "core.step_sparse_us_per_round",
        cmp.bare.sparse_ns / 1e3 / cmp.bare.sparse_rounds as f64,
        "us/round",
    );
    m.metric("core.rounds_per_trial", cmp.bare.rounds as f64 / cmp.trials as f64, "rounds");
    // Computed, not measured: per active vertex one offsets pair (16 B) and two neighbour
    // ids (2 x 8 B) read from the CSR.
    m.metric(
        "core.csr_bytes_per_round_computed",
        32.0 * cmp.bare.active / cmp.bare.rounds as f64,
        "B/round",
    );
    m.metric("parallel.fanout_us", fanout_us, "us");
    m.metric("parallel.step_t1_ns_per_active", cmp.stream_one.ns_per_active(), "ns/active");
    m.metric("parallel.step_tN_ns_per_active", cmp.stream_many.ns_per_active(), "ns/active");
    m.metric(
        "parallel.vs_seq_ratio",
        cmp.bare.ns_per_active() / cmp.stream_one.ns_per_active(),
        "ratio",
    );
    m.metric("driver.trial_efficiency", efficiency, "ratio");
    m.metric("sim.observer_overhead", cmp.observed_s / cmp.run_s, "ratio");
    m.metric("fault.benign_overhead", cmp.benign.ns_per_active() / bare_ns, "ratio");
    m.metric("adversary.step_ratio", cmp.adversary.ns_per_active() / bare_ns, "ratio");
    m.metric("defense.step_ratio", cmp.defense.ns_per_active() / bare_ns, "ratio");
    m.metric("protocol.parse_us", median(&traced.parse_us), "us");
    m.metric("protocol.encode_us_per_job", median(&traced.encode_us), "us");
    m.metric("protocol.bytes_per_job", mean(&traced.bytes), "B");
    m.metric("cache.hit_ratio", cache_stats.hits as f64 / lookups, "ratio");
    m.metric("cache.miss_ms", median(&traced.miss_ms), "ms");
    m.metric("cache.evictions", cache_stats.evictions as f64, "count");
    m.metric("serve.accept_ms", accept_ms, "ms");
    m.metric("serve.wait_ms_p50", wait_p50, "ms");
    m.metric("serve.wait_ms_p99", wait_p99, "ms");
    m.metric("serve.stream_ms", stream_ms, "ms");
    m.metric("serve.session_jobs", served, "count");
    let self_ms = tracer.self_ms();
    for name in SPAN_NAMES {
        m.metric(&format!("self.{name}_ms"), self_ms.get(name).copied().unwrap_or(0.0), "ms");
    }
    m.metric("trace.overhead_ms", 1e3 * overhead_s, "ms");
    m.metric("trace.overhead_frac", overhead_s / untraced_s, "ratio");
    tracer.write(spans);
}
