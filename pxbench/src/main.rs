//! One benchmark for `pxml serve` and the paper's algebra.
//!
//! ```text
//! cargo run --release --offline --manifest-path pxbench/Cargo.toml -- \
//!     --workload <read_hot|mixed_durable|fig7_algebra> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed`
//! with `pxml-gen` before any timer starts. With `--trace 0` the last
//! line of standard output is a JSON object carrying the end-to-end
//! metrics of the untraced timed window; with `--trace 1` the same
//! window runs (its engine counters feed the per-layer ratios) and is
//! followed by an in-process traced replay whose spans give per-layer
//! self times, and the JSON carries the per-layer metrics. The lines
//! before it are a report: commit, machine fingerprint, every figure
//! with its unit and sample count. A wrong answer, or a durability
//! divergence, exits 1 without a result line. Scratch files go to
//! `pxbench/out/`.

mod fig7;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;

use serve::Kind;
use util::{put, Metrics};

/// The workloads, by the names `BENCHMARK.json` uses.
const WORKLOADS: [&str; 3] = ["read_hot", "mixed_durable", "fig7_algebra"];

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ops", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("rss_mb", "MB"),
];

/// Spans whose share of the traced request path is reported as
/// `<name>.self_frac` (0 where a workload never reaches the layer).
pub const SHARE_SPANS: [&str; 33] = [
    "serve.boot",
    "serve.query",
    "serve.mutate",
    "fig7.load",
    "fig7.round",
    "storage.decode",
    "storage.text_write",
    "query.engine_new",
    "core.lower",
    "core.apply",
    "core.parse_ops",
    "core.render_ops",
    "wal.attach",
    "wal.recover",
    "wal.append",
    "query.run",
    "query.run_governed",
    "query.apply_mutation",
    "ql.translate",
    "protocol.encode",
    "protocol.decode",
    "algebra.project.c1",
    "algebra.select.c1",
    "algebra.copy.c1",
    "algebra.locate.c1",
    "algebra.structure.c1",
    "algebra.update_interp.c1",
    "algebra.project.c2",
    "algebra.select.c2",
    "algebra.copy.c2",
    "algebra.locate.c2",
    "algebra.structure.c2",
    "algebra.update_interp.c2",
];

/// The other per-layer metrics: (name, unit).
///
/// Two figures are computed and reported but left out, because they do
/// not measure what their name says on any workload:
/// `serve.mutate.unaccounted_frac` (the spans-off replay's MUTATE runs
/// slower than the daemon's on the same requests, so the difference is
/// not time on the socket) and `cache.admission_rejections` (refusing
/// an entry takes one whose cost rivals the ceiling; under a ceiling
/// that still caches, none occurs, so it reads 0 on every workload).
pub const LAYER_OTHER: [(&str, &str); 16] = [
    ("trace.overhead_frac", "frac"),
    ("trace.path_ms", "ms"),
    ("storage.decode_ms", "ms"),
    ("wal.replay_ops_per_s", "1/s"),
    ("wal.fsyncs_per_append", "count"),
    ("wal.bytes_per_append", "bytes"),
    ("serve.query.unaccounted_frac", "frac"),
    ("cache.result_hit_ratio", "ratio"),
    ("cache.layers_hit_ratio", "ratio"),
    ("cache.eps_hit_ratio", "ratio"),
    ("cache.link_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.evicted_per_mutation", "count"),
    ("query.opf_entries_per_query", "count"),
    ("query.budget_steps_per_query", "count"),
    ("preflight.zero_frac", "frac"),
];

/// What one workload run produced.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    e2e: Metrics,
    layer: Metrics,
}

fn workload_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Hot => "read_hot",
        Kind::Mixed => "mixed_durable",
    }
}

/// Self-time share of the request path for every span in
/// [`SHARE_SPANS`].
fn put_layer_shares(layer: &mut Metrics, layers: &BTreeMap<String, trace::Layer>, path_ns: u64) {
    for name in SHARE_SPANS {
        let own = layers.get(name).map_or(0, |l| l.self_ns);
        let share = if path_ns > 0 {
            own as f64 / path_ns as f64
        } else {
            0.0
        };
        put(layer, &format!("{name}.self_frac"), share, "frac");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pxbench: {e}");
            eprintln!(
                "usage: pxbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let work = PathBuf::from("pxbench/out").join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("pxbench: creating {}: {e}", work.display());
        std::process::exit(1);
    }
    let mut report = vec![
        format!(
            "workload {} seed {} seconds {} trace {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!("commit {}", util::commit()),
        format!("machine {}", util::fingerprint()),
    ];
    let outcome = match args.workload.as_str() {
        "read_hot" => serve::run(
            Kind::Hot,
            args.seed,
            args.seconds,
            args.trace,
            &work,
            &mut report,
        ),
        "mixed_durable" => serve::run(
            Kind::Mixed,
            args.seed,
            args.seconds,
            args.trace,
            &work,
            &mut report,
        ),
        _ => fig7::run(args.seed, args.seconds, args.trace, &work, &mut report),
    };
    let _ = std::fs::remove_dir_all(&work);
    for line in &report {
        println!("# {line}");
    }
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pxbench: {e}");
            std::process::exit(1);
        }
    };
    let mut metrics = Metrics::new();
    if args.trace {
        for name in SHARE_SPANS {
            let key = format!("{name}.self_frac");
            let v = outcome.layer.get(&key).map_or(0.0, |m| m.value);
            put(&mut metrics, &key, v, "frac");
        }
        for (name, unit) in LAYER_OTHER {
            put(
                &mut metrics,
                name,
                outcome.layer.get(name).map_or(0.0, |m| m.value),
                unit,
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            put(
                &mut metrics,
                name,
                outcome.e2e.get(name).map_or(0.0, |m| m.value),
                unit,
            );
        }
    }
    for (name, m) in outcome.e2e.iter().chain(outcome.layer.iter()) {
        println!("# metric {name} {} {}", util::num(m.value), m.unit);
    }
    println!(
        "{}",
        util::result_line(true, outcome.attempted.max(1), outcome.failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `"key": "value"` from one JSON object's text.
    fn field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
        let at = object.find(&format!("\"{key}\": \""))? + key.len() + 5;
        object[at..].split('"').next()
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this binary prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut named: Vec<(String, String)> = Vec::new();
        let mut workloads: Vec<String> = Vec::new();
        for object in text.split('{').skip(1) {
            match (field(object, "name"), field(object, "unit")) {
                (Some(n), Some(u)) => named.push((n.to_string(), u.to_string())),
                (Some(n), None) => workloads.push(n.to_string()),
                _ => {}
            }
        }
        let mut expected: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(LAYER_OTHER.iter())
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .chain(
                SHARE_SPANS
                    .iter()
                    .map(|n| (format!("{n}.self_frac"), "frac".to_string())),
            )
            .collect();
        expected.sort();
        named.sort();
        assert_eq!(named, expected);
        assert_eq!(workloads, WORKLOADS);
    }
}
