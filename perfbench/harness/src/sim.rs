//! End-to-end run of the simulation workloads (`cover-rr100k`, `growth-rr1m`): the CLI's
//! default path (`driver::run_spec_trials`, sequential engine, trials spread over the
//! cores) against its `--threads nproc` path (`driver::run_parallel_spec_trials`).

use std::time::Instant;

use cobra_core::reference;
use cobra_core::sim::{RunOutcome, Runner, StopReason};
use cobra_core::spec::ProcessSpec;
use cobra_experiments::driver;
use cobra_graph::Graph;
use cobra_stats::parallel::TrialConfig;
use cobra_stats::rng::SeedSequence;

use crate::util::{self, fast_latency, fast_rate, mean, secs, Checks, Report};
use crate::workload::{goal_reached, instance_seq, label, Setup, Workload};

/// Trials whose sequential rounds are replayed on the dense reference engine.
const DENSE_PREFIX: usize = 2;

/// Builds `reps` instances of the workload's family and keeps the last, the workload
/// seed's own; the set-up metric is the mean build time. The other builds use seeds derived
/// from the workload seed: the stub-matching generator restarts on about half the seeds,
/// each restart adding a whole build, so one seed's build says little about the family's.
/// For the same reason the mean, not the median, is reported: the median of a few builds
/// lands on either side of that two-mode distribution.
pub fn build_instance(setup: &Setup) -> (Graph, Vec<f64>) {
    let reps: u64 = match (setup.workload, setup.tiny) {
        (Workload::Growth, false) => 3,
        _ => 5,
    };
    let family = setup.family();
    let mut times = Vec::new();
    let mut graph = None;
    for rep in (0..reps).rev() {
        drop(graph.take());
        let seed = setup.main_seed().wrapping_add(rep * 1_000_003);
        let start = Instant::now();
        let built = family
            .instantiate(&mut instance_seq(seed).trial_rng("instance", 0))
            .expect("workload instance builds");
        times.push(secs(start));
        graph = Some(built);
    }
    (graph.expect("at least one build"), times)
}

/// The trial seeds of simulation job `job`: a child of the CLI's ad-hoc sequence, so every
/// job runs fresh trials on the shared instance.
pub fn job_seq(setup: &Setup, job: usize) -> SeedSequence {
    instance_seq(setup.seed).child(&format!("job-{job}"))
}

fn failed(outcomes: &[RunOutcome]) -> u64 {
    outcomes.iter().filter(|o| !o.completed()).count() as u64
}

fn mean_rounds(outcomes: &[RunOutcome]) -> (f64, f64) {
    let rounds: Vec<f64> = outcomes.iter().map(|o| o.rounds as f64).collect();
    let n = rounds.len() as f64;
    let mean = rounds.iter().sum::<f64>() / n;
    let var = rounds.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
    (mean, var / n)
}

/// Runs a dense reference trial with the [`Runner`] stop rules.
fn run_dense(
    process: &mut dyn reference::DenseProcess,
    rng: &mut dyn rand::RngCore,
    runner: &Runner,
    fraction: Option<f64>,
) -> (usize, usize, bool) {
    let n = process.active_indicator().len();
    let goal = |p: &dyn reference::DenseProcess| {
        fraction.is_some_and(|f| p.num_active() >= (f * n as f64).ceil() as usize)
            || p.is_complete()
    };
    for _ in 0..runner.max_rounds() {
        if goal(process) {
            break;
        }
        process.step(rng);
    }
    (process.round(), process.num_active(), goal(process))
}

/// Steps two stream-mode builds of one trial (1 and `nproc` threads) in lock step and
/// reports whether their active sets agree after every round.
fn stream_lockstep(setup: &Setup, graph: &Graph, spec: &ProcessSpec, seq: &SeedSequence) -> bool {
    let runner = setup.runner();
    let trial_label = label(&setup.job(0));
    let mut rng_one = seq.trial_rng(&trial_label, 0);
    let mut rng_many = seq.trial_rng(&trial_label, 0);
    let mut one = spec.build_parallel(graph, 1, &mut rng_one).expect("stream build");
    let mut many = spec.build_parallel(graph, setup.nproc, &mut rng_many).expect("stream build");
    for _ in 0..runner.max_rounds() {
        if one.active() != many.active() || one.num_active() != many.num_active() {
            return false;
        }
        if goal_reached(one.as_ref(), setup.target_fraction()).is_some() {
            return true;
        }
        one.step(&mut rng_one);
        many.step(&mut rng_many);
    }
    false
}

/// The end-to-end run of a simulation workload.
pub fn run(setup: &Setup, seconds: f64, report: &mut Report, checks: &mut Checks) {
    let (graph, setup_times) = build_instance(setup);
    util::reset_peak_rss();
    println!("graph heap of the instance: {:.1} MB", graph.heap_bytes() as f64 / 1e6);
    let params = setup.job(0);
    let spec = &params.spec;
    let runner = setup.runner();
    let trial_label = label(&params);
    let config = TrialConfig::parallel(params.trials);

    // One untimed job per path first: the first trials on a fresh instance pay its page
    // faults and the allocator's growth, which users of a long run pay once.
    let warm = instance_seq(setup.seed).child("warm-up");
    driver::run_spec_trials(&graph, spec, &runner, &warm, &trial_label, config);
    driver::run_parallel_spec_trials(
        &graph,
        spec,
        &runner,
        &warm,
        &trial_label,
        config,
        setup.nproc,
    );

    // The measured window: jobs of 10 trials, alternating the two CLI paths on the
    // same trial seeds so both see the same share of any host drift.
    let mut seq_latency = Vec::new();
    let mut stream_latency = Vec::new();
    let mut seq_outcomes = Vec::new();
    let mut stream_outcomes = Vec::new();
    let window = Instant::now();
    let mut job = 0;
    while job < 2 || secs(window) < seconds {
        let seq = job_seq(setup, job);
        let start = Instant::now();
        let outcomes = driver::run_spec_trials(&graph, spec, &runner, &seq, &trial_label, config);
        seq_latency.push(secs(start));
        seq_outcomes.extend(outcomes);
        let start = Instant::now();
        let outcomes = driver::run_parallel_spec_trials(
            &graph,
            spec,
            &runner,
            &seq,
            &trial_label,
            config,
            setup.nproc,
        );
        stream_latency.push(secs(start));
        stream_outcomes.extend(outcomes);
        job += 1;
    }

    // Correctness, outside the window.
    let seq0 = job_seq(setup, 0);
    let fraction = setup.target_fraction();
    for (trial, outcome) in seq_outcomes.iter().enumerate().take(DENSE_PREFIX) {
        let mut dense = reference::build_dense(spec, &graph).expect("dense build");
        let mut rng = seq0.trial_rng(&trial_label, trial as u64);
        let (rounds, active, done) = run_dense(dense.as_mut(), &mut rng, &runner, fraction);
        checks.check(
            (rounds, active, done) == (outcome.rounds, outcome.final_active, outcome.completed()),
            format!(
                "sequential trial {trial} matches the dense reference ({} rounds, dense {rounds})",
                outcome.rounds
            ),
        );
    }
    let one_thread =
        driver::run_parallel_spec_trials(&graph, spec, &runner, &seq0, &trial_label, config, 1);
    checks.check(
        one_thread[..] == stream_outcomes[..params.trials]
            && stream_lockstep(setup, &graph, spec, &seq0),
        format!("stream trajectories identical at 1 and {} threads", setup.nproc),
    );
    let (seq_mean, seq_var) = mean_rounds(&seq_outcomes);
    let (stream_mean, stream_var) = mean_rounds(&stream_outcomes);
    let tolerance = 5.0 * (seq_var + stream_var).sqrt() + 0.5;
    checks.check(
        (seq_mean - stream_mean).abs() <= tolerance,
        format!(
            "mean rounds agree: sequential {seq_mean:.3}, stream {stream_mean:.3} \
             (tolerance 5 standard errors + 0.5 = {tolerance:.3})"
        ),
    );
    let expected = if setup.workload == Workload::Growth {
        StopReason::TargetReached
    } else {
        StopReason::Completed
    };
    checks.check(
        seq_outcomes.iter().chain(&stream_outcomes).all(|o| o.reason == expected),
        format!("every trial stopped with {expected:?}"),
    );

    let attempted = (seq_outcomes.len() + stream_outcomes.len()) as u64;
    let failures = failed(&seq_outcomes) + failed(&stream_outcomes);
    report.attempted = attempted;
    report.failed = failures;
    let seq_time: f64 = seq_latency.iter().sum();
    let stream_time: f64 = stream_latency.iter().sum();
    let trials = params.trials as f64;
    println!(
        "window: {job} jobs of {} trials per path; sequential {seq_time:.2} s, stream \
         {stream_time:.2} s; failed_frac {:.6}; job latency samples {}",
        params.trials,
        failures as f64 / attempted as f64,
        seq_latency.len()
    );
    report.metric("setup_s", mean(&setup_times), "s");
    report.metric("trials_per_s", fast_rate(&seq_latency, trials), "trials/s");
    report.metric("stream_trials_per_s", fast_rate(&stream_latency, trials), "trials/s");
    report.metric("jobs_per_s", fast_rate(&seq_latency, 1.0), "jobs/s");
    report.metric("job_p50_ms", 1e3 * fast_latency(&seq_latency, 0.5), "ms");
    report.metric("job_p99_ms", 1e3 * fast_latency(&seq_latency, 0.99), "ms");
    report.metric("completed_frac", 1.0 - failures as f64 / attempted as f64, "ratio");
}
