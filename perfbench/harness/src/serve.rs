//! The served path: an in-process `serve::spawn` server driven over real TCP by a closed
//! loop of clients, each sending its next job only after the previous summary arrived.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cobra_core::sim::{RunOutcome, Runner};
use cobra_experiments::driver;
use cobra_experiments::serve::protocol::{self, JobParams};
use cobra_experiments::serve::{spawn, ServeConfig, ServerHandle};
use cobra_graph::Graph;
use cobra_stats::parallel::TrialConfig;

use crate::util::{self, fast_latency, mean, median, quantile, secs, Checks, Report};
use crate::workload::{instance_seq, label, submit_line, Setup};

/// One served job as the client saw it; times are seconds since the loop started.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Index in the workload's job list.
    pub index: u64,
    /// What was submitted.
    pub params: JobParams,
    /// Server-assigned job id (0 when refused).
    pub job: u64,
    /// Submit line sent.
    pub sent: f64,
    /// `accepted` received.
    pub accepted: f64,
    /// First `trial` event received.
    pub first_trial: f64,
    /// Terminal record received.
    pub done: f64,
    /// `trial` events received.
    pub trial_events: usize,
    /// The terminal record (`summary`, `job-failed`, `job-cancelled`) or the refusal.
    pub terminal: String,
}

impl JobRecord {
    /// Whether the job ended in a summary whose every trial completed.
    pub fn ok(&self) -> bool {
        self.terminal.contains("\"event\":\"summary\"")
            && field_u64(&self.terminal, "completed") == field_u64(&self.terminal, "trials")
    }
}

struct Client {
    sock: TcpStream,
    lines: Lines<BufReader<TcpStream>>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let sock = TcpStream::connect(addr).expect("connect to the served port");
        sock.set_nodelay(true).expect("set TCP_NODELAY");
        let lines = BufReader::new(sock.try_clone().expect("clone socket")).lines();
        Client { sock, lines }
    }

    fn send(&mut self, line: &str) {
        self.sock.write_all(format!("{line}\n").as_bytes()).expect("send request");
    }

    fn recv(&mut self) -> String {
        self.lines.next().expect("server closed early").expect("read reply")
    }

    /// Submits one job and streams it to its terminal record.
    fn run_job(&mut self, index: u64, params: &JobParams, origin: Instant) -> JobRecord {
        let sent = secs(origin);
        self.send(&submit_line(params));
        let reply = self.recv();
        let accepted = secs(origin);
        let mut record = JobRecord {
            index,
            params: params.clone(),
            job: 0,
            sent,
            accepted,
            first_trial: accepted,
            done: accepted,
            trial_events: 0,
            terminal: reply.clone(),
        };
        if !reply.contains("\"event\":\"accepted\"") {
            return record;
        }
        record.job = field_u64(&reply, "job");
        self.send(&format!("{{\"cmd\":\"results\",\"job\":{}}}", record.job));
        loop {
            let line = self.recv();
            if line.contains("\"event\":\"trial\"") {
                if record.trial_events == 0 {
                    record.first_trial = secs(origin);
                }
                record.trial_events += 1;
                continue;
            }
            record.done = secs(origin);
            if record.trial_events == 0 {
                record.first_trial = record.done;
            }
            record.terminal = line;
            return record;
        }
    }
}

fn field_u64(line: &str, name: &str) -> u64 {
    let pattern = format!("\"{name}\":");
    let start = line.find(&pattern).map_or(line.len(), |at| at + pattern.len());
    line[start..].chars().take_while(char::is_ascii_digit).collect::<String>().parse().unwrap_or(0)
}

/// Spawns a server with `nproc` workers and the workload's cache budget, then warms the
/// cache with one job per hot instance.
pub fn spawn_warm(setup: &Setup) -> ServerHandle {
    let config = ServeConfig {
        port: 0,
        workers: setup.nproc,
        cache_bytes: setup.cache_bytes(),
        ..ServeConfig::default()
    };
    let server = spawn(&config).expect("spawn the serving engine");
    let mut client = Client::connect(server.addr());
    let origin = Instant::now();
    for (index, params) in setup.warmup_jobs().iter().enumerate() {
        let record = client.run_job(index as u64, params, origin);
        assert!(record.ok(), "warm-up job failed: {}", record.terminal);
    }
    server
}

/// Runs `nproc` closed-loop clients against `addr` for `seconds`, taking jobs `0..` from
/// `job` in order; returns the records sorted by index.
pub fn closed_loop(
    setup: &Setup,
    addr: SocketAddr,
    seconds: f64,
    job: &(dyn Fn(u64) -> JobParams + Sync),
) -> (Vec<JobRecord>, f64) {
    let next = AtomicU64::new(0);
    let records = Mutex::new(Vec::new());
    let origin = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..setup.nproc {
            scope.spawn(|| {
                let mut client = Client::connect(addr);
                let mut mine = Vec::new();
                while secs(origin) < seconds {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    mine.push(client.run_job(index, &job(index), origin));
                }
                records.lock().expect("records lock").extend(mine);
            });
        }
    });
    let elapsed = secs(origin);
    let mut records = records.into_inner().expect("records lock");
    records.sort_by_key(|record| record.index);
    (records, elapsed)
}

/// The CLI-path recomputation of every distinct job in `records`, keyed by submit line
/// (trace off): `driver::run_spec_trials` on the job's own instance, run to completion as
/// a server worker runs it.
fn recompute(records: &[JobRecord]) -> HashMap<String, (JobParams, Vec<RunOutcome>)> {
    let mut graphs: HashMap<String, Graph> = HashMap::new();
    let mut expected = HashMap::new();
    for record in records {
        let params = JobParams { trace: false, ..record.params.clone() };
        let key = submit_line(&params);
        if expected.contains_key(&key) {
            continue;
        }
        let seq = instance_seq(params.seed);
        let graph = graphs.entry(params.family.cache_key(params.seed)).or_insert_with(|| {
            params.family.instantiate(&mut seq.trial_rng("instance", 0)).expect("instantiate")
        });
        let outcomes = driver::run_spec_trials(
            graph,
            &params.spec,
            &Runner::new(params.max_rounds),
            &seq,
            &label(&params),
            TrialConfig::parallel(params.trials),
        );
        expected.insert(key, (params, outcomes));
    }
    expected
}

/// Checks every served summary byte for byte against the CLI-path recomputation.
pub fn check_summaries(records: &[JobRecord], checks: &mut Checks) {
    let expected = recompute(records);
    let mut mismatches = 0;
    for record in records.iter().filter(|record| record.terminal.contains("\"event\":\"summary\""))
    {
        let key = submit_line(&JobParams { trace: false, ..record.params.clone() });
        let (params, outcomes) = &expected[&key];
        let want = protocol::summary_event(record.job, params, outcomes);
        if record.terminal != want || record.trial_events != params.trials {
            if mismatches == 0 {
                println!("served:   {}\nexpected: {want}", record.terminal);
            }
            mismatches += 1;
        }
    }
    checks.check(
        mismatches == 0,
        format!(
            "{} served summaries byte-identical to the run_spec_trials recomputation \
             ({} distinct jobs, {mismatches} mismatches)",
            records.iter().filter(|record| record.ok()).count(),
            expected.len()
        ),
    );
}

/// The end-to-end run of `serve-zipf`.
pub fn run(setup: &Setup, seconds: f64, report: &mut Report, checks: &mut Checks) {
    // Set-up: spawn plus cache warm-up, three times (the metric is their mean, as on the
    // simulation workloads); the last server is measured.
    let mut setup_times = Vec::new();
    let mut server = None;
    for _ in 0..3 {
        if let Some(old) = server.take() {
            ServerHandle::shutdown(old);
        }
        let start = Instant::now();
        server = Some(spawn_warm(setup));
        setup_times.push(secs(start));
    }
    let server = server.expect("a server");
    util::reset_peak_rss();
    let (records, elapsed) = closed_loop(setup, server.addr(), 0.7 * seconds, &|i| setup.job(i));
    let mut client = Client::connect(server.addr());
    client.send("{\"cmd\":\"stats\"}");
    let stats = client.recv();
    server.shutdown();
    println!(
        "graph heap resident in the server's cache: {:.1} MB ({} hits, {} misses, {} evictions)",
        field_u64(&stats, "cache_bytes") as f64 / 1e6,
        field_u64(&stats, "cache_hits"),
        field_u64(&stats, "cache_misses"),
        field_u64(&stats, "cache_evictions")
    );

    // The same job list on the CLI `--threads nproc` path, for the rest of the window, in
    // whole blocks so every block replays the exact Zipf mix; the upper quartile over
    // blocks counts, as `util::fast_rate` explains.
    let mut graphs: HashMap<String, Graph> = HashMap::new();
    let mut block_rates = Vec::new();
    let (mut block_time, mut block_trials) = (0.0, 0);
    let stream_window = Instant::now();
    let mut index = 0;
    while index % setup.block_len() != 0 || secs(stream_window) < 0.3 * seconds {
        let params = setup.job(index as u64);
        index += 1;
        let seq = instance_seq(params.seed);
        let graph = graphs.entry(params.family.cache_key(params.seed)).or_insert_with(|| {
            params.family.instantiate(&mut seq.trial_rng("instance", 0)).expect("instantiate")
        });
        let start = Instant::now();
        let outcomes = driver::run_parallel_spec_trials(
            graph,
            &params.spec,
            &setup.job_runner(&params),
            &seq,
            &label(&params),
            TrialConfig::parallel(params.trials),
            setup.nproc,
        );
        block_time += secs(start);
        block_trials += outcomes.len();
        if index % setup.block_len() == 0 {
            block_rates.push(block_trials as f64 / block_time);
            (block_time, block_trials) = (0.0, 0);
        }
    }
    drop(graphs);

    check_summaries(&records, checks);
    let ok: Vec<&JobRecord> = records.iter().filter(|record| record.ok()).collect();
    let latency: Vec<f64> = ok.iter().map(|record| record.done - record.sent).collect();
    let trials: usize = ok.iter().map(|record| record.trial_events).sum();
    report.attempted = records.len() as u64;
    report.failed = (records.len() - ok.len()) as u64;
    println!(
        "window: {} jobs over {elapsed:.2} s ({} failed, failed_frac {:.6}); job latency \
         samples {}; stream replay {index} jobs",
        records.len(),
        report.failed,
        report.failed as f64 / records.len() as f64,
        latency.len()
    );
    report.metric("setup_s", mean(&setup_times), "s");
    report.metric("trials_per_s", trials as f64 / elapsed, "trials/s");
    report.metric("stream_trials_per_s", quantile(&block_rates, 0.75), "trials/s");
    report.metric("jobs_per_s", ok.len() as f64 / elapsed, "jobs/s");
    report.metric("job_p50_ms", 1e3 * quantile(&latency, 0.5), "ms");
    report.metric("job_p99_ms", 1e3 * fast_latency(&latency, 0.99), "ms");
    report.metric("completed_frac", ok.len() as f64 / records.len() as f64, "ratio");
}

/// Client-side scheduler timings of a short served session: accept, queue wait (accepted
/// to first trial) and streaming (first trial to summary), in ms.
pub fn session_timings(setup: &Setup, seconds: f64, checks: &mut Checks) -> [f64; 5] {
    let server = spawn_warm(setup);
    let (records, _) = closed_loop(setup, server.addr(), seconds, &|i| setup.session_job(i));
    server.shutdown();
    check_summaries(&records, checks);
    let ok: Vec<&JobRecord> = records.iter().filter(|record| record.ok()).collect();
    let accept: Vec<f64> = ok.iter().map(|r| 1e3 * (r.accepted - r.sent)).collect();
    let wait: Vec<f64> = ok.iter().map(|r| 1e3 * (r.first_trial - r.accepted)).collect();
    let stream: Vec<f64> = ok.iter().map(|r| 1e3 * (r.done - r.first_trial)).collect();
    [median(&accept), quantile(&wait, 0.5), quantile(&wait, 0.99), median(&stream), ok.len() as f64]
}
