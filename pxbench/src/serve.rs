//! The two serve workloads: `pxml serve` started in-process with
//! [`Server::start`] and driven over loopback TCP by closed-loop client
//! threads (each sends its next request only after the reply to its
//! last), one connection each.
//!
//! Per workload, which layer it stresses and which it bypasses
//! (measured with `--seconds 20` on a 2-core Xeon):
//!
//! * `read_hot` — SL d=8 b=4 (87,381 objects), two clients, QUERY
//!   only, drawn Zipf(1.0) from a pool of 2,048 distinct
//!   POINT/EXISTS/CHAIN lines after one untimed pass over the pool.
//!   Result-cache hit ratio 1.000 in the timed window: framing,
//!   `translate_query`, the read lock and the result-cache probe are
//!   all that run; lowering, the §6.1 kernels and the WAL are bypassed.
//! * `mixed_durable` — SL d=8 b=3 (9,841 objects), one client, 90/10
//!   QUERY/MUTATE from `serve_workload` (entry-level SETEDGE/SETVAL
//!   ops), daemon with `--wal` and `fsync=always`, pre-flight on and a
//!   [`MIXED_CACHE_BYTES`] cache ceiling below the window's working
//!   set, booted over a pre-journalled tail of [`PREJOURNAL_OPS`] ops.
//!   Half the QUERYs carry a `max_steps` budget that keeps answers
//!   exact, so they run the governed path (pre-flight, then the legacy
//!   recursion with private memos on a result-cache miss); a quarter of
//!   those governed POINTs ask for the root, which no path reaches, so
//!   pre-flight proves them zero. Each MUTATE takes the engine write
//!   lock for a whole re-lower plus a WAL append and fsync: mutations
//!   are 10% of requests and about 85% of the client's wall time
//!   (`mutate_wall_share` in the report). Nothing is bypassed on
//!   purpose.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pxml_cli::protocol::{
    encode_response, parse_request, parse_response, Request, RequestOptions, Status,
};
use pxml_cli::serve::{Client, ServeConfig, Server, ServerHandle, Target};
use pxml_cli::{load_with_crc, translate_query};
use pxml_core::{parse_ops, render_ops, ArenaInstance, Budget};
use pxml_gen::{
    generate, random_mutations, serve_workload, GeneratedInstance, Labeling, ServeRequest,
    WorkloadConfig,
};
use pxml_query::{Answer, BudgetSpec, QueryEngine};
use pxml_storage::{recover_segment, FsyncPolicy, Wal};

use crate::trace::{layer_self_times, write_spans, Recorder};
use crate::util::{median, percentile, put, rss_mb, Metrics, Rng, Slices};
use crate::Outcome;

/// Ops journalled before `mixed_durable` boots, so every boot recovers
/// and replays them.
pub const PREJOURNAL_OPS: usize = 100;
/// Boots per run; `setup_s` is their median.
const BOOTS: usize = 11;
/// Distinct queries in the `read_hot` pool.
const HOT_POOL: usize = 2048;
/// Zipf ranks pre-drawn per `read_hot` client (cycled if exhausted).
const HOT_DRAWS: usize = 600_000;
/// Requests pre-generated per `mixed_durable` client and second of
/// window (about twice the rate it reaches).
const MIXED_PER_SECOND: f64 = 6_000.0;
/// `mixed_durable` cache ceiling: below the window's working set, so
/// the ceiling evicts.
const MIXED_CACHE_BYTES: u64 = 256 << 10;
/// Per-request step budget of governed QUERYs: never reached on these
/// trees, so every governed answer is exact.
const GOVERNED_MAX_STEPS: u64 = 1_000_000_000;
/// Live-daemon answers compared against the recovered replica.
const PROBES: usize = 64;
/// PING round trips for `serve.ping_us`.
const PINGS: usize = 500;
/// The percentile `op_tail_us` reports, of the median slice. Not p90:
/// on `read_hot` the p90 of a cache hit sits on the seam between
/// requests that found a free core and requests that waited for one,
/// and on `mixed_durable` on the seam between the 90% QUERY and 10%
/// MUTATE populations.
const TAIL_Q: f64 = 0.99;
/// Seed of every serve workload's tree.
const INSTANCE_SEED: u64 = 1;
/// Registry name of the served instance (the file stem).
const INSTANCE: &str = "inst";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Mixed,
}

impl Kind {
    fn config(self, seed: u64) -> WorkloadConfig {
        match self {
            Kind::Hot => WorkloadConfig::paper(8, 4, Labeling::SameLabel, seed),
            Kind::Mixed => WorkloadConfig::paper(8, 3, Labeling::SameLabel, seed),
        }
    }

    fn serve_config(self, path: &Path, wal_dir: &Path) -> ServeConfig {
        let mut cfg = ServeConfig::ephemeral(vec![path.to_path_buf()]);
        if self == Kind::Mixed {
            cfg.wal_dir = Some(wal_dir.to_path_buf());
            cfg.fsync = FsyncPolicy::Always;
            cfg.preflight = true;
            cfg.max_cache_bytes = Some(MIXED_CACHE_BYTES);
        }
        cfg
    }

    /// Slice length in seconds: `mixed_durable` needs longer slices to
    /// hold enough mutations for its median (about 75 per slice).
    fn slice_s(self) -> f64 {
        match self {
            Kind::Mixed => 0.5,
            Kind::Hot => 0.2,
        }
    }

    /// Whether a request is the workload's defining operation, the one
    /// `op_p50_us` is the median of. A median over two populations of
    /// different cost sits on the seam between them and jumps from run
    /// to run: on `mixed_durable` QUERYs split into result-cache hits,
    /// ungoverned misses and governed misses, while the write path the
    /// workload exists for is MUTATE.
    fn defining(self, req: &Request) -> bool {
        match self {
            Kind::Mixed => matches!(req, Request::Mutate { .. }),
            Kind::Hot => true,
        }
    }

    /// Requests the traced run replays in-process, taken round-robin
    /// from the start of the client streams: about a second of work.
    fn replayed(self) -> usize {
        match self {
            Kind::Hot => 40_000,
            Kind::Mixed => 1_500,
        }
    }

    /// Closed-loop client threads, one connection each. `mixed_durable`
    /// runs one because with two, a MUTATE either waits for the other
    /// client's MUTATE or not, and its median sat on that seam: it
    /// spread by 0.21 of its median over ten seeds, against 0.10 with
    /// one client.
    fn clients(self) -> usize {
        match self {
            Kind::Mixed => 1,
            Kind::Hot => 2,
        }
    }
}

/// Everything generated from the seed before any timer starts.
struct Inputs {
    g: GeneratedInstance,
    path: PathBuf,
    wal_dir: PathBuf,
    /// Pristine copy of the pre-journalled segment (traced replays
    /// start from it).
    wal_seed: Option<PathBuf>,
    pool: Vec<Request>,
    /// Index sequence per client into `pool`.
    seqs: Vec<Vec<u32>>,
    /// Pool entries sent once, untimed, before the window.
    warm: Vec<u32>,
    /// The answer each pool entry must get, where it is known up front:
    /// `read_hot`'s oracle answers, `mixed_durable`'s provable zeros.
    expected: Vec<Option<String>>,
    probes: Vec<String>,
}

fn query(line: String, max_steps: Option<u64>) -> Request {
    Request::Query {
        instance: INSTANCE.into(),
        options: RequestOptions {
            max_steps,
            ..RequestOptions::default()
        },
        query: line,
    }
}

fn mutate(ops: String) -> Request {
    Request::Mutate {
        instance: INSTANCE.into(),
        options: RequestOptions::default(),
        ops,
    }
}

/// Whether the daemon runs a request on the governed path: it has no
/// governance defaults, so exactly the QUERYs that carry a budget.
fn governed(req: &Request) -> bool {
    matches!(req, Request::Query { options, .. } if options.max_steps.is_some())
}

fn request_text(r: &ServeRequest) -> &str {
    match r {
        ServeRequest::Query(t) | ServeRequest::Mutate(t) => t,
    }
}

fn oracle_answer(engine: &QueryEngine, line: &str) -> Result<String, String> {
    let q = translate_query(engine.instance(), line)?;
    engine
        .run(&q)
        .map(|p| format!("{p:.6}"))
        .map_err(|e| e.to_string())
}

fn generate_inputs(kind: Kind, seed: u64, seconds: f64, work: &Path) -> Result<Inputs, String> {
    // The tree comes from a fixed seed; `seed` draws the request
    // streams, so runs compare the same tree.
    let g = generate(&kind.config(INSTANCE_SEED));
    let path = work.join(format!("{INSTANCE}.pxmlb"));
    pxml_storage::write_binary_file(&g.instance, &path).map_err(|e| e.to_string())?;
    let wal_dir = work.join("wal");
    let mut rng = Rng::new(seed ^ 0x0070_7862_656e_6368);
    let mut inputs = Inputs {
        g,
        path,
        wal_dir,
        wal_seed: None,
        pool: Vec::new(),
        seqs: Vec::new(),
        warm: Vec::new(),
        expected: Vec::new(),
        probes: Vec::new(),
    };
    match kind {
        Kind::Hot => {
            let mut seen = std::collections::HashSet::new();
            let mut lines = Vec::new();
            let mut round = 0u64;
            while lines.len() < HOT_POOL && round < 64 {
                for r in serve_workload(&inputs.g, HOT_POOL, 0, seed.wrapping_add(round)) {
                    let t = request_text(&r).to_string();
                    if lines.len() < HOT_POOL && seen.insert(t.clone()) {
                        lines.push(t);
                    }
                }
                round += 1;
            }
            let oracle = QueryEngine::new(inputs.g.instance.clone());
            inputs.expected = lines
                .iter()
                .map(|l| oracle_answer(&oracle, l).map(Some))
                .collect::<Result<_, _>>()?;
            // Zipf(1.0) over ranks; rank r maps to pool entry r (the
            // pool order is already seed-random).
            let weights: Vec<f64> = (1..=lines.len()).map(|r| 1.0 / r as f64).collect();
            let total: f64 = weights.iter().sum();
            let mut cdf = Vec::with_capacity(weights.len());
            let mut acc = 0.0;
            for w in &weights {
                acc += w / total;
                cdf.push(acc);
            }
            for _ in 0..kind.clients() {
                let seq = (0..HOT_DRAWS)
                    .map(|_| {
                        let u = rng.unit();
                        cdf.partition_point(|&c| c < u).min(lines.len() - 1) as u32
                    })
                    .collect();
                inputs.seqs.push(seq);
            }
            inputs.warm = (0..lines.len() as u32).collect();
            inputs.pool = lines.into_iter().map(|l| query(l, None)).collect();
        }
        Kind::Mixed => {
            let root = inputs
                .g
                .instance
                .catalog()
                .object_name(inputs.g.instance.root())
                .to_string();
            let mut queries = 0usize;
            for c in 0..kind.clients() as u64 {
                let start = inputs.pool.len() as u32;
                for r in serve_workload(
                    &inputs.g,
                    (MIXED_PER_SECOND * seconds) as usize,
                    100,
                    seed.wrapping_mul(31).wrapping_add(c),
                ) {
                    let (req, expected) = match r {
                        ServeRequest::Mutate(ops) => (mutate(ops), None),
                        ServeRequest::Query(line) => {
                            queries += 1;
                            // Every other QUERY is governed; every
                            // fourth, if a POINT, asks for the root,
                            // which pre-flight proves zero.
                            match queries % 4 {
                                1 => (query(line, Some(GOVERNED_MAX_STEPS)), None),
                                3 => match line.strip_prefix("POINT ") {
                                    Some(rest) => {
                                        let path = rest.split_once(" IN ").map_or("", |p| p.1);
                                        (
                                            query(
                                                format!("POINT {root} IN {path}"),
                                                Some(GOVERNED_MAX_STEPS),
                                            ),
                                            Some(format!("{:.6}", 0.0)),
                                        )
                                    }
                                    None => (query(line, Some(GOVERNED_MAX_STEPS)), None),
                                },
                                _ => (query(line, None), None),
                            }
                        }
                    };
                    inputs.pool.push(req);
                    inputs.expected.push(expected);
                }
                inputs
                    .seqs
                    .push((start..inputs.pool.len() as u32).collect());
            }
            inputs.probes = serve_workload(&inputs.g, PROBES * 2, 0, seed ^ 0x0070_726f_6265)
                .iter()
                .map(|r| request_text(r).to_string())
                .take(PROBES)
                .collect();
            // The pre-journalled tail: one op per record, rendered the
            // way the daemon journals MUTATE ops.
            let crc = pxml_storage::crc32(&std::fs::read(&inputs.path).map_err(|e| e.to_string())?);
            let (mut wal, _, _) = Wal::attach(&inputs.wal_dir, INSTANCE, crc, FsyncPolicy::Always)
                .map_err(|e| e.to_string())?;
            let ops = random_mutations(&inputs.g.instance, PREJOURNAL_OPS, seed ^ 0x7461_696c);
            if ops.len() != PREJOURNAL_OPS {
                return Err(format!("only {} pre-journal ops generated", ops.len()));
            }
            for op in &ops {
                wal.append(&render_ops(&inputs.g.instance, std::slice::from_ref(op)))
                    .map_err(|e| e.to_string())?;
            }
            drop(wal);
            let seed_copy = work.join("wal-seed.wal");
            std::fs::copy(segment(&inputs.wal_dir), &seed_copy).map_err(|e| e.to_string())?;
            inputs.wal_seed = Some(seed_copy);
        }
    }
    Ok(inputs)
}

fn segment(wal_dir: &Path) -> PathBuf {
    wal_dir.join(format!("{INSTANCE}.wal"))
}

/// Engine counters read over the wire (`STATS` text and `METRICS`).
#[derive(Clone, Debug, Default)]
struct Counters {
    v: std::collections::BTreeMap<&'static str, f64>,
}

impl Counters {
    fn read(client: &mut Client) -> Result<Counters, String> {
        let (status, stats) = client.roundtrip(&Request::Stats {
            instance: INSTANCE.into(),
        })?;
        if status != Status::Ok {
            return Err(format!("STATS failed: {stats}"));
        }
        let (status, metrics) = client.roundtrip(&Request::Metrics)?;
        if status != Status::Ok {
            return Err(format!("METRICS failed: {metrics}"));
        }
        let mut c = Counters::default();
        let tokens: Vec<&str> = stats.split_whitespace().collect();
        let num = |i: usize| {
            tokens
                .get(i)
                .and_then(|t| t.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        for (i, t) in tokens.iter().enumerate() {
            let pair = |c: &mut Counters, hit: &'static str, miss: &'static str| {
                if let Some((a, b)) = tokens.get(i + 1).and_then(|p| p.split_once('/')) {
                    c.v.insert(hit, a.parse().unwrap_or(0.0));
                    c.v.insert(miss, b.parse().unwrap_or(0.0));
                }
            };
            match *t {
                "result" => pair(&mut c, "result_hits", "result_misses"),
                "layers" => pair(&mut c, "layers_hits", "layers_misses"),
                "eps" => pair(&mut c, "eps_hits", "eps_misses"),
                "link" => pair(&mut c, "link_hits", "link_misses"),
                "run" => drop(c.v.insert("queries", num(i + 1))),
                "seen" => drop(c.v.insert("opf_entries", num(i + 1))),
                "evictions" => drop(c.v.insert("evictions", num(i + 1))),
                "refused" => drop(c.v.insert("admission_rejections", num(i + 1))),
                "steps" => drop(c.v.insert("budget_steps", num(i + 1))),
                "zeros" => drop(c.v.insert("preflight_zeros", num(i + 1))),
                "applied" => drop(c.v.insert("mutations", num(i + 1))),
                "invalidations" => drop(c.v.insert("invalidations", num(i + 1))),
                _ => {}
            }
        }
        for (family, key) in [
            ("pxml_wal_appends_total", "wal_appends"),
            ("pxml_wal_fsyncs_total", "wal_fsyncs"),
            ("pxml_wal_fsync_nanos_total", "wal_fsync_nanos"),
            ("pxml_serve_instance_cache_bytes", "cache_bytes"),
        ] {
            let total: f64 = metrics
                .lines()
                .filter(|l| l.starts_with(family) && l[family.len()..].starts_with(['{', ' ']))
                .filter_map(|l| l.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()))
                .sum();
            c.v.insert(key, total);
        }
        Ok(c)
    }

    fn delta(&self, before: &Counters, key: &str) -> f64 {
        self.v.get(key).copied().unwrap_or(0.0) - before.v.get(key).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One request of the timed window.
#[derive(Clone, Copy, Default)]
struct Sample {
    /// Completion time since the client's start, in microseconds.
    end_us: u32,
    lat_ns: u32,
    idx: u32,
    mutate: bool,
    ok: bool,
}

/// What one client thread saw in the timed window.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Answers that differ from the expected one, or governed answers
    /// that came back as an interval: (pool index, wire answer).
    mismatches: Vec<(u32, String)>,
    exhausted: bool,
}

/// Sample buffer per client and second of window. Buffers are touched
/// before the resident-set baseline is taken, so recording samples
/// does not count as the daemon's memory growth.
fn sample_capacity(kind: Kind, seconds: f64) -> usize {
    let per_second = match kind {
        Kind::Hot => 80_000.0,
        Kind::Mixed => MIXED_PER_SECOND,
    };
    (per_second * seconds) as usize
}

fn sample_buffers(kind: Kind, seconds: f64) -> Vec<Vec<Sample>> {
    (0..kind.clients())
        .map(|_| {
            let mut v = vec![
                Sample {
                    end_us: 1,
                    ..Sample::default()
                };
                sample_capacity(kind, seconds)
            ];
            v.clear();
            v
        })
        .collect()
}

fn drive(
    kind: Kind,
    inputs: &Arc<Inputs>,
    target: &Target,
    seconds: f64,
    buffers: Vec<Vec<Sample>>,
) -> Result<Vec<ClientLog>, String> {
    let barrier = Arc::new(Barrier::new(kind.clients() + 1));
    let mut workers = Vec::new();
    for (c, samples) in buffers.into_iter().enumerate() {
        let inputs = Arc::clone(inputs);
        let barrier = Arc::clone(&barrier);
        let target = target.clone();
        workers.push(std::thread::spawn(move || -> Result<ClientLog, String> {
            let mut client = Client::connect(&target)?;
            let mut log = ClientLog {
                samples,
                ..ClientLog::default()
            };
            let seq = &inputs.seqs[c];
            barrier.wait();
            let started = Instant::now();
            let deadline = started + Duration::from_secs_f64(seconds);
            let mut i = 0usize;
            while Instant::now() < deadline {
                if i == seq.len() {
                    if kind == Kind::Mixed {
                        log.exhausted = true;
                        break;
                    }
                    i = 0;
                }
                let idx = seq[i];
                i += 1;
                let req = &inputs.pool[idx as usize];
                let t = Instant::now();
                let (status, body) = client.roundtrip(req)?;
                let lat_ns = u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX);
                let sample = Sample {
                    end_us: u32::try_from(started.elapsed().as_micros()).unwrap_or(u32::MAX),
                    lat_ns,
                    idx,
                    mutate: matches!(req, Request::Mutate { .. }),
                    ok: status == Status::Ok,
                };
                let wrong = match &inputs.expected[idx as usize] {
                    Some(want) => body != *want,
                    None => governed(req) && body.starts_with('['),
                };
                if sample.ok && wrong {
                    log.mismatches.push((idx, body));
                }
                log.samples.push(sample);
            }
            Ok(log)
        }));
    }
    barrier.wait();
    let mut logs = Vec::new();
    for w in workers {
        logs.push(
            w.join()
                .map_err(|_| "client thread panicked".to_string())??,
        );
    }
    Ok(logs)
}

fn query_line(r: &Request) -> &str {
    match r {
        Request::Query { query, .. } => query,
        Request::Mutate { ops, .. } => ops,
        _ => "",
    }
}

fn boot(cfg: &ServeConfig) -> Result<(ServerHandle, f64), String> {
    let t = Instant::now();
    let h = Server::start(cfg.clone())?;
    Ok((h, t.elapsed().as_secs_f64()))
}

/// One run of a serve workload.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    report: &mut Vec<String>,
) -> Result<Outcome, String> {
    let inputs = Arc::new(generate_inputs(kind, seed, seconds, work)?);
    let objects = inputs.g.instance.object_count();
    report.push(format!(
        "inputs: {objects} objects, pool {} requests, {} client(s) closed loop",
        inputs.pool.len(),
        kind.clients()
    ));
    let cfg = kind.serve_config(&inputs.path, &inputs.wal_dir);

    // Set-up: BOOTS boots, median wall time; the last one serves.
    let buffers = sample_buffers(kind, seconds);
    let rss0 = rss_mb();
    let mut boots = Vec::new();
    let mut handle = None;
    for b in 0..BOOTS {
        let (h, s) = boot(&cfg)?;
        boots.push(s);
        if b + 1 < BOOTS {
            h.shutdown_and_join()?;
        } else {
            handle = Some(h);
        }
    }
    let handle = handle.ok_or("no daemon")?;
    let setup_s = median(&boots);
    let target = Target::Tcp(format!("127.0.0.1:{}", handle.port().ok_or("no port")?));
    let mut ctl = Client::connect(&target)?;
    for &w in &inputs.warm {
        let (status, body) = ctl.roundtrip(&inputs.pool[w as usize])?;
        if status != Status::Ok {
            return Err(format!("warm-up request failed: {body}"));
        }
    }
    let seg_before = std::fs::metadata(segment(&inputs.wal_dir)).map_or(0, |m| m.len());
    let before = Counters::read(&mut ctl)?;

    let logs = drive(kind, &inputs, &target, seconds, buffers)?;

    let after = Counters::read(&mut ctl)?;
    let seg_after = std::fs::metadata(segment(&inputs.wal_dir)).map_or(0, |m| m.len());
    let rss1 = rss_mb();
    let samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let window_s = samples.iter().map(|s| s.end_us).max().unwrap_or(1) as f64 / 1e6;
    let query_ns: Vec<u64> = samples
        .iter()
        .filter(|s| !s.mutate)
        .map(|s| u64::from(s.lat_ns))
        .collect();
    let mutate_ns: Vec<u64> = samples
        .iter()
        .filter(|s| s.mutate)
        .map(|s| u64::from(s.lat_ns))
        .collect();
    let all_ns: Vec<u64> = samples.iter().map(|s| u64::from(s.lat_ns)).collect();
    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    if logs.iter().any(|l| l.exhausted) {
        report
            .push("warning: a client ran out of pre-generated requests before the deadline".into());
    }
    if logs
        .iter()
        .any(|l| l.samples.len() > sample_capacity(kind, seconds))
    {
        report.push("warning: a client outgrew its pre-touched sample buffer".into());
    }

    let mut pings = Vec::new();
    for _ in 0..PINGS {
        let t = Instant::now();
        ctl.roundtrip(&Request::Ping)?;
        pings.push(t.elapsed().as_nanos() as u64);
    }

    // Answer and durability gates. Every request of these streams is
    // valid by construction, so a reply that is not ok is a failure too.
    let mut problems = Vec::new();
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} requests were not answered ok"
        ));
    }
    for (idx, body) in logs.iter().flat_map(|l| &l.mismatches) {
        let line = query_line(&inputs.pool[*idx as usize]);
        problems.push(match &inputs.expected[*idx as usize] {
            Some(want) => format!("{line:?}: wire {body} vs expected {want}"),
            None => format!("{line:?}: governed answer {body} is not exact"),
        });
    }
    if kind == Kind::Mixed {
        let acked = samples.iter().filter(|s| s.mutate && s.ok).count() as u64;
        let mut live = Vec::new();
        for p in &inputs.probes {
            let (status, body) = ctl.roundtrip(&query(p.clone(), None))?;
            if status != Status::Ok {
                problems.push(format!("probe {p:?} failed: {body}"));
            }
            live.push(body);
        }
        let seg = recover_segment(&segment(&inputs.wal_dir)).map_err(|e| e.to_string())?;
        let expected_records = PREJOURNAL_OPS as u64 + acked;
        if seg.records.len() as u64 != expected_records {
            problems.push(format!(
                "segment holds {} records, expected {PREJOURNAL_OPS} pre-journalled + {acked} acknowledged",
                seg.records.len()
            ));
        }
        let (mut replica, _) = load_with_crc(&inputs.path)?;
        for record in &seg.records {
            for op in parse_ops(&replica, record).map_err(|e| e.to_string())? {
                replica.apply(&op).map_err(|e| e.to_string())?;
            }
        }
        let replica = QueryEngine::new(replica);
        for (p, wire) in inputs.probes.iter().zip(&live) {
            let want = oracle_answer(&replica, p)?;
            if &want != wire {
                problems.push(format!(
                    "probe {p:?}: daemon {wire} vs recovered replica {want}"
                ));
            }
        }
        report.push(format!(
            "durability: {} records recovered = {PREJOURNAL_OPS} pre-journalled + {acked} acknowledged; {} probes equal on daemon and replica",
            seg.records.len(),
            inputs.probes.len()
        ));
    }
    drop(ctl);
    handle.shutdown_and_join()?;
    if !problems.is_empty() {
        problems.truncate(20);
        return Err(format!(
            "correctness gate failed:\n  {}",
            problems.join("\n  ")
        ));
    }
    let checked = samples
        .iter()
        .filter(|s| inputs.expected[s.idx as usize].is_some())
        .count();
    let governed_n = samples
        .iter()
        .filter(|s| governed(&inputs.pool[s.idx as usize]))
        .count();
    report.push(format!(
        "answer gate: {attempted} requests ok, {checked} wire answers equal to the expected one, {governed_n} governed answers exact"
    ));

    // End-to-end metrics (untraced window).
    let mut e2e = Metrics::new();
    put(&mut e2e, "setup_s", setup_s, "s");
    let all: Vec<(u64, u64, bool)> = samples
        .iter()
        .map(|s| {
            (
                u64::from(s.end_us) * 1000,
                u64::from(s.lat_ns),
                kind.defining(&inputs.pool[s.idx as usize]),
            )
        })
        .collect();
    let n_slices = ((seconds / kind.slice_s()).round() as usize).max(1);
    let slices = Slices::of(&all, seconds, n_slices, TAIL_Q);
    put(&mut e2e, "throughput_ops", slices.throughput(), "1/s");
    put(&mut e2e, "op_p50_us", slices.p50_us(), "us");
    put(&mut e2e, "op_tail_us", slices.tail_us(), "us");
    put(&mut e2e, "rss_mb", rss1 - rss0, "MB");
    report.push(format!("boots (s): {boots:?}"));
    report.extend(slices.describe());
    report.push(format!(
        "whole window: {attempted} requests in {window_s:.3} s = {:.1} 1/s, p50 {:.3} us, p99 {:.3} us",
        attempted as f64 / window_s,
        percentile(&all_ns, 0.5) as f64 / 1e3,
        percentile(&all_ns, 0.99) as f64 / 1e3
    ));
    let q = |p: f64| percentile(&query_ns, p) as f64 / 1e3;
    let m = |p: f64| percentile(&mutate_ns, p) as f64 / 1e3;
    report.push(format!(
        "query_p50_us {:.3} us  query_p99_us {:.3} us  (n={})",
        q(0.5),
        q(0.99),
        query_ns.len()
    ));
    if !mutate_ns.is_empty() {
        report.push(format!(
            "mutate_p50_us {:.3} us  mutate_p90_us {:.3} us  (n={})",
            m(0.5),
            m(0.9),
            mutate_ns.len()
        ));
        let mutate_wall: u64 = mutate_ns.iter().sum();
        let total_wall: u64 = all_ns.iter().sum();
        report.push(format!(
            "mutate_wall_share {:.3} (mutations are {:.3} of requests)",
            ratio(mutate_wall as f64, total_wall as f64),
            ratio(mutate_ns.len() as f64, attempted as f64)
        ));
    }
    report.push(format!(
        "failed_frac {:.6} ({failed} of {attempted})",
        ratio(failed as f64, attempted as f64)
    ));

    // Per-layer counters from the wire.
    let d = |k: &str| after.delta(&before, k);
    let mut layer = Metrics::new();
    let hit = |h: &str, m: &str| ratio(d(h), d(h) + d(m));
    put(
        &mut layer,
        "cache.result_hit_ratio",
        hit("result_hits", "result_misses"),
        "ratio",
    );
    put(
        &mut layer,
        "cache.layers_hit_ratio",
        hit("layers_hits", "layers_misses"),
        "ratio",
    );
    put(
        &mut layer,
        "cache.eps_hit_ratio",
        hit("eps_hits", "eps_misses"),
        "ratio",
    );
    put(
        &mut layer,
        "cache.link_hit_ratio",
        hit("link_hits", "link_misses"),
        "ratio",
    );
    put(&mut layer, "cache.evictions", d("evictions"), "count");
    put(
        &mut layer,
        "cache.admission_rejections",
        d("admission_rejections"),
        "count",
    );
    put(
        &mut layer,
        "cache.evicted_per_mutation",
        ratio(d("invalidations"), d("mutations")),
        "count",
    );
    put(
        &mut layer,
        "query.opf_entries_per_query",
        ratio(d("opf_entries"), d("queries")),
        "count",
    );
    put(
        &mut layer,
        "query.budget_steps_per_query",
        ratio(d("budget_steps"), d("queries")),
        "count",
    );
    put(
        &mut layer,
        "preflight.zero_frac",
        ratio(d("preflight_zeros"), d("queries")),
        "frac",
    );
    put(
        &mut layer,
        "wal.fsyncs_per_append",
        ratio(d("wal_fsyncs"), d("wal_appends")),
        "count",
    );
    put(
        &mut layer,
        "wal.bytes_per_append",
        ratio((seg_after - seg_before) as f64, d("wal_appends")),
        "bytes",
    );
    report.push(format!(
        "wal.fsync_us_per_append {:.3} us (n={})",
        ratio(d("wal_fsync_nanos"), d("wal_appends")) / 1e3,
        d("wal_appends")
    ));
    report.push(format!(
        "serve.ping_us {:.3} us (n={PINGS})",
        percentile(&pings, 0.5) as f64 / 1e3
    ));
    report.push(format!(
        "cache bytes at the end of the window {} (ceiling {})",
        after.v.get("cache_bytes").copied().unwrap_or(0.0),
        if kind == Kind::Mixed {
            MIXED_CACHE_BYTES.to_string()
        } else {
            "none".into()
        }
    ));

    if traced {
        // The wire p50 over exactly the requests the replay replays:
        // the first ones of each client's stream. The daemon's cost per
        // request drifts over the window (cache contents, the op pool
        // cycling), so the whole window's p50 is not comparable.
        let mut firsts: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for log in &logs {
            for s in log.samples.iter().take(kind.replayed() / kind.clients()) {
                firsts[usize::from(s.mutate)].push(u64::from(s.lat_ns));
            }
        }
        let p50 = |v: &[u64]| percentile(v, 0.5) as f64 / 1e3;
        let wire_p50 = [
            ("serve.query", p50(&firsts[0])),
            ("serve.mutate", p50(&firsts[1])),
        ];
        // On a thread of its own, as the daemon serves each connection.
        std::thread::scope(|scope| {
            scope
                .spawn(|| replay_layers(kind, &inputs, work, &wire_p50, &mut layer, report))
                .join()
                .map_err(|_| "replay thread panicked".to_string())?
        })?;
    }
    Ok(Outcome {
        attempted,
        failed,
        e2e,
        layer,
    })
}

/// The per-layer breakdown: replays the workload in-process through the
/// public functions `Server::start`, `dispatch` and `mutate_locked`
/// call, in their order, once with spans off and once with spans on.
fn replay_layers(
    kind: Kind,
    inputs: &Inputs,
    work: &Path,
    wire_p50_us: &[(&str, f64)],
    layer: &mut Metrics,
    report: &mut Vec<String>,
) -> Result<(), String> {
    let n = kind.replayed();
    // Spans off and on, alternated twice so neither side always runs
    // first; shadow work is taken out of the spans-on wall time.
    // Per-request times come from the spans-off replays, which do
    // exactly the daemon's work.
    let (mut off_wall, mut on_wall, mut replay_ops_per_s) = (0u64, 0u64, 0.0);
    let mut on = Recorder::new(true);
    let mut requests = [Vec::new(), Vec::new()];
    for _ in 0..2 {
        let off = replay(kind, inputs, work, n, &mut Recorder::new(false))?;
        off_wall += off.wall_ns;
        replay_ops_per_s += off.replay_ops_per_s / 2.0;
        for (req, r) in requests.iter_mut().zip(off.requests) {
            req.extend(r);
        }
        on = Recorder::new(true);
        on_wall += replay(kind, inputs, work, n, &mut on)?.wall_ns - on.shadow_ns;
    }
    let overhead = (on_wall as f64 - off_wall as f64) / off_wall as f64;
    let spans_path = work
        .parent()
        .unwrap_or(work)
        .join(format!("spans-{}.jsonl", crate::workload_name(kind)));
    write_spans(on.spans(), &spans_path).map_err(|e| e.to_string())?;
    report.push(format!(
        "spans: {} written to {}",
        on.spans().len(),
        spans_path.display()
    ));
    let (layers, path_ns) = layer_self_times(on.spans());
    crate::put_layer_shares(layer, &layers, path_ns);
    put(layer, "trace.overhead_frac", overhead, "frac");
    put(layer, "trace.path_ms", path_ns as f64 / 1e6, "ms");
    let decode = layers.get("storage.decode").map_or(0, |l| l.self_ns);
    put(layer, "storage.decode_ms", decode as f64 / 1e6, "ms");
    put(layer, "wal.replay_ops_per_s", replay_ops_per_s, "1/s");

    // Per-call figures under the names the layer map uses.
    let calls = |name: &str| {
        layers
            .get(name)
            .map(|l| l.calls.clone())
            .unwrap_or_default()
    };
    let p = |name: &str, q: f64| percentile(&calls(name), q) as f64 / 1e3;
    for (name, label, q) in [
        ("core.lower", "core.lower_ms (p50)", 0.5),
        ("wal.recover", "wal.recover_ms (p50)", 0.5),
    ] {
        if !calls(name).is_empty() {
            report.push(format!(
                "{label} {:.3} ms (n={})",
                p(name, q) / 1e3,
                calls(name).len()
            ));
        }
    }
    for name in [
        "wal.append",
        "core.apply",
        "core.parse_ops",
        "core.render_ops",
        "ql.translate",
        "protocol.decode",
        "protocol.encode",
    ] {
        if !calls(name).is_empty() {
            report.push(format!(
                "{name}_us p50 {:.3} us (n={})",
                p(name, 0.5),
                calls(name).len()
            ));
        }
    }
    for (name, hi) in [
        ("query.run", 0.99),
        ("query.run_governed", 0.99),
        ("query.apply_mutation", 0.9),
    ] {
        if !calls(name).is_empty() {
            report.push(format!(
                "{name}_us p50 {:.3} us  p{} {:.3} us (n={})",
                p(name, 0.5),
                (hi * 100.0) as u32,
                p(name, hi),
                calls(name).len()
            ));
        }
    }
    if let Some(l) = layers.get("query.apply_mutation") {
        report.push(format!(
            "query.invalidate_us mean {:.3} us (apply_mutation minus shadow apply and lower, n={})",
            l.self_ns as f64 / 1e3 / l.calls.len() as f64,
            l.calls.len()
        ));
    }
    report.push(format!("wal.replay_ops_per_s {replay_ops_per_s:.1} 1/s"));
    for ((verb, wire), replayed) in wire_p50_us.iter().zip(&requests) {
        let mut share = 0.0;
        if !replayed.is_empty() {
            let replay_p50 = percentile(replayed, 0.5) as f64 / 1e3;
            report.push(format!(
                "serve.unaccounted_us {verb} {:.3} us (wire p50 {wire:.3} - spans-off replay p50 {replay_p50:.3} over the same requests, n={})",
                wire - replay_p50,
                replayed.len()
            ));
            share = ratio(wire - replay_p50, *wire);
        }
        put(layer, &format!("{verb}.unaccounted_frac"), share, "frac");
    }
    report.push(format!(
        "trace.overhead_frac {overhead:.4} (two replays each: spans off {:.3} ms, on {:.3} ms without shadow work)",
        off_wall as f64 / 1e6,
        on_wall as f64 / 1e6
    ));
    Ok(())
}

/// What one in-process replay measured with a plain clock.
struct Replay {
    /// Boot plus requests (the warm pass excluded).
    wall_ns: u64,
    /// The boot's WAL replay rate.
    replay_ops_per_s: f64,
    /// Per-request durations: QUERY, then MUTATE.
    requests: [Vec<u64>; 2],
}

/// One in-process replay: boot, then the first `n` requests of the
/// client streams taken round-robin.
fn replay(
    kind: Kind,
    inputs: &Inputs,
    work: &Path,
    n: usize,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    let wal_dir = work.join("replay-wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    if let Some(seed) = &inputs.wal_seed {
        std::fs::create_dir_all(&wal_dir).map_err(|e| e.to_string())?;
        std::fs::copy(seed, segment(&wal_dir)).map_err(|e| e.to_string())?;
    }
    let started = Instant::now();

    // Boot, as Server::start does it.
    rec.next_request();
    let root = rec.open("serve.boot");
    let (pi, crc) = rec.span("storage.decode", || load_with_crc(&inputs.path))?;
    let mut engine = rec.span("query.engine_new", || QueryEngine::new(pi));
    let composite = rec.last_id();
    rec.shadow("core.lower", composite, || {
        ArenaInstance::lower_unchecked(engine.instance())
    });
    if kind == Kind::Mixed {
        engine.set_max_cache_bytes(MIXED_CACHE_BYTES);
        engine.set_preflight(true);
    }
    let mut shadow_pi = if kind == Kind::Mixed {
        rec.shadow("bench.shadow_copy", None, || engine.instance().clone())
    } else {
        None
    };
    let mut wal = None;
    let mut replay_rate = 0.0;
    if kind == Kind::Mixed {
        let (w, _, records) = rec
            .span("wal.attach", || {
                Wal::attach(&wal_dir, INSTANCE, crc, FsyncPolicy::Always)
            })
            .map_err(|e| e.to_string())?;
        let composite = rec.last_id();
        rec.shadow("wal.recover", composite, || {
            recover_segment(&segment(&wal_dir))
        });
        // As the daemon's boot replays records: a record that does not
        // parse is skipped, and a record stops at its first failing op.
        let t = Instant::now();
        let mut applied = 0usize;
        for record in &records {
            let Ok(ops) = rec.span("core.parse_ops", || parse_ops(engine.instance(), record))
            else {
                continue;
            };
            for op in &ops {
                let ok = rec
                    .span("query.apply_mutation", || engine.apply_mutation(op))
                    .is_ok();
                shadow_apply(rec, shadow_pi.as_mut(), op);
                if !ok {
                    break;
                }
                applied += 1;
            }
        }
        replay_rate = applied as f64 / t.elapsed().as_secs_f64();
        wal = Some(w);
    }
    rec.close(root);
    let boot_ns = started.elapsed().as_nanos() as u64;

    if kind == Kind::Hot {
        // The untimed warm pass of the wire run, done without spans.
        for &w in &inputs.warm {
            let q = translate_query(engine.instance(), query_line(&inputs.pool[w as usize]))?;
            engine.run(&q).map_err(|e| e.to_string())?;
        }
    }
    let stream_started = Instant::now();

    let mut requests = [Vec::new(), Vec::new()];
    for i in 0..n {
        let seq = &inputs.seqs[i % kind.clients()];
        let Some(&idx) = seq.get((i / kind.clients()) % seq.len().max(1)) else {
            break;
        };
        let req = &inputs.pool[idx as usize];
        rec.next_request();
        let is_mutate = matches!(req, Request::Mutate { .. });
        let started = Instant::now();
        let root = rec.open(if is_mutate {
            "serve.mutate"
        } else {
            "serve.query"
        });
        let payload = rec.span("protocol.encode", || req.render());
        let parsed = rec.span("protocol.decode", || parse_request(&payload))?;
        let (status, body) = match &parsed {
            Request::Query { query, options, .. } => {
                let q = rec.span("ql.translate", || translate_query(engine.instance(), query))?;
                // The daemon has no governance defaults: a request is
                // governed exactly when it carries a budget.
                let answer = match options.max_steps {
                    Some(max_steps) => {
                        let spec = BudgetSpec {
                            max_steps: Some(max_steps),
                            timeout: None,
                            cancel: None,
                            degrade: Default::default(),
                        };
                        rec.span("query.run_governed", || engine.run_governed(&q, &spec))
                    }
                    None => rec.span("query.run", || engine.run(&q).map(Answer::Exact)),
                };
                match answer.map_err(|e| e.to_string())? {
                    Answer::Exact(p) => (Status::Ok, format!("{p:.6}")),
                    Answer::Interval(iv) => (Status::Ok, format!("[{:.6}, {:.6}]", iv.lo, iv.hi)),
                }
            }
            Request::Mutate { ops, .. } => {
                let parsed = rec
                    .span("core.parse_ops", || parse_ops(engine.instance(), ops))
                    .map_err(|e| e.to_string())?;
                for op in &parsed {
                    let text = rec.span("core.render_ops", || {
                        render_ops(engine.instance(), std::slice::from_ref(op))
                    });
                    let w = wal.as_mut().ok_or("MUTATE without a WAL")?;
                    rec.span("wal.append", || w.append(&text))
                        .map_err(|e| e.to_string())?;
                    apply_traced(rec, &mut engine, shadow_pi.as_mut(), op)?;
                }
                (Status::Ok, format!("applied {} ops", parsed.len()))
            }
            _ => return Err("unexpected verb in the replay stream".into()),
        };
        let frame = rec.span("protocol.encode", || encode_response(status, &body));
        rec.span("protocol.decode", || parse_response(&frame))?;
        rec.close(root);
        requests[usize::from(is_mutate)].push(started.elapsed().as_nanos() as u64);
    }
    let wall_ns = boot_ns + stream_started.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_dir_all(&wal_dir);
    Ok(Replay {
        wall_ns,
        replay_ops_per_s: replay_rate,
        requests,
    })
}

/// `apply_mutation_governed` as `mutate_locked` calls it (an unlimited
/// budget: MUTATEs carry none and the daemon has no defaults), plus
/// shadow measurements of the apply and re-lower it performs.
fn apply_traced(
    rec: &mut Recorder,
    engine: &mut QueryEngine,
    shadow_pi: Option<&mut pxml_core::ProbInstance>,
    op: &pxml_core::Mutation,
) -> Result<(), String> {
    rec.span("query.apply_mutation", || {
        engine.apply_mutation_governed(op, &Budget::unlimited())
    })
    .map_err(|e| e.to_string())?;
    shadow_apply(rec, shadow_pi, op);
    Ok(())
}

/// Shadow spans of the apply and re-lower inside the `apply_mutation`
/// call recorded last, on the shadow copy of the instance.
fn shadow_apply(
    rec: &mut Recorder,
    shadow_pi: Option<&mut pxml_core::ProbInstance>,
    op: &pxml_core::Mutation,
) {
    let composite = rec.last_id();
    if let Some(shadow) = shadow_pi {
        // A failing op fails the same way on the copy and leaves both
        // unchanged.
        let _ = rec.shadow("core.apply", composite, || shadow.apply(op));
        rec.shadow("core.lower", composite, || {
            ArenaInstance::lower_unchecked(shadow)
        });
    }
}
