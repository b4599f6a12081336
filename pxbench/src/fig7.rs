//! `fig7_algebra`: the paper's §7.1 procedure on two cells, single
//! threaded. `pxml-algebra` and the text writer are on no serve path,
//! so without this workload an algebra change would go unmeasured.
//!
//! * Cell 1, SL b=4 d=7 (21,845 objects): copying the input and
//!   writing the result dominate.
//! * Cell 2, FR b=6 d=5 (9,331 objects, 64-entry OPFs): the ℘ update
//!   dominates ancestor projection.
//!
//! One operation is a round: on each cell, one ancestor projection and
//! one selection, each followed by writing its result as text (the
//! steps of `measure_cell`). Round `r` uses the `r`-th of
//! [`PASS_ROUNDS`] accepted random path queries (length = depth) per
//! cell and kind; a pass runs all of them, and the timed window repeats
//! passes. Each pass is one slice in the sense of `util::Slices`: its
//! median round (`op_p50_us`), its slowest round (`op_tail_us`) and its
//! rounds per second (`throughput_ops`), each reported as its median
//! over the passes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pxml_algebra::{
    ancestor_project_timed, select_timed, timing::PhaseTimes, PathExpr, SelectCond,
};
use pxml_cli::load_with_crc;
use pxml_core::ProbInstance;
use pxml_gen::{generate, query_batch, selection_batch, Labeling, WorkloadConfig};
use pxml_storage::write_text_file;

use crate::trace::{layer_self_times, write_spans, Recorder};
use crate::util::{median, percentile, put, rss_mb, Metrics, Slices};
use crate::Outcome;

/// Rounds per pass, and accepted queries drawn per cell and kind.
const PASS_ROUNDS: usize = 6;
/// Set-up repetitions; `setup_s` is their median.
const LOADS: usize = 11;
/// Rounds replayed by the traced run.
const REPLAY_ROUNDS: usize = 8;

struct Cell {
    tag: &'static str,
    path: PathBuf,
    projections: Vec<PathExpr>,
    selections: Vec<SelectCond>,
}

fn cells(seed: u64, work: &Path) -> Result<Vec<Cell>, String> {
    let specs = [
        ("c1", WorkloadConfig::paper(7, 4, Labeling::SameLabel, seed)),
        (
            "c2",
            WorkloadConfig::paper(5, 6, Labeling::FullyRandom, seed ^ 0x6332),
        ),
    ];
    let mut out = Vec::new();
    for (tag, config) in specs {
        let g = generate(&config);
        let path = work.join(format!("{tag}.pxmlb"));
        pxml_storage::write_binary_file(&g.instance, &path).map_err(|e| e.to_string())?;
        let projections = query_batch(&g, PASS_ROUNDS, config.seed ^ 0xABCD);
        let selections: Vec<SelectCond> = selection_batch(&g, PASS_ROUNDS, config.seed ^ 0xEF01)
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        if projections.is_empty() || selections.is_empty() {
            return Err(format!("cell {tag}: no accepted queries generated"));
        }
        out.push(Cell {
            tag,
            path,
            projections,
            selections,
        });
    }
    Ok(out)
}

fn load(cells: &[Cell], rec: &mut Recorder) -> Result<Vec<ProbInstance>, String> {
    cells
        .iter()
        .map(|c| {
            rec.span("storage.decode", || load_with_crc(&c.path))
                .map(|(pi, _)| pi)
        })
        .collect()
}

fn phases(t: &PhaseTimes) -> [(&'static str, u64); 4] {
    [
        ("algebra.copy", t.copy.as_nanos() as u64),
        ("algebra.locate", t.locate.as_nanos() as u64),
        ("algebra.structure", t.structure.as_nanos() as u64),
        ("algebra.update_interp", t.update_interp.as_nanos() as u64),
    ]
}

/// Wall times of one round's four operations (each including its
/// write), in the order c1 project, c1 select, c2 project, c2 select.
struct Round {
    ops_ns: [u64; 4],
    results: Vec<ProbInstance>,
}

fn round(
    cells: &[Cell],
    pis: &[ProbInstance],
    r: usize,
    out: &Path,
    rec: &mut Recorder,
) -> Result<Round, String> {
    let mut ops_ns = [0u64; 4];
    let mut results = Vec::new();
    let root = rec.open("fig7.round");
    for (c, (cell, pi)) in cells.iter().zip(pis).enumerate() {
        let t = Instant::now();
        let s = rec.open_tagged("algebra.project", cell.tag);
        let (projected, times) =
            ancestor_project_timed(pi, &cell.projections[r % cell.projections.len()])
                .map_err(|e| format!("{}: projection failed: {e}", cell.tag))?;
        rec.close(s);
        let id = rec.last_id();
        rec.synthesize(id, cell.tag, &phases(&times));
        rec.span("storage.text_write", || write_text_file(&projected, out))
            .map_err(|e| e.to_string())?;
        ops_ns[2 * c] = t.elapsed().as_nanos() as u64;
        results.push(projected);

        let t = Instant::now();
        let s = rec.open_tagged("algebra.select", cell.tag);
        let (selected, times) = select_timed(pi, &cell.selections[r % cell.selections.len()])
            .map_err(|e| format!("{}: selection failed: {e}", cell.tag))?;
        rec.close(s);
        let id = rec.last_id();
        rec.synthesize(id, cell.tag, &phases(&times));
        rec.span("storage.text_write", || {
            write_text_file(&selected.instance, out)
        })
        .map_err(|e| e.to_string())?;
        ops_ns[2 * c + 1] = t.elapsed().as_nanos() as u64;
        results.push(selected.instance);
    }
    rec.close(root);
    Ok(Round { ops_ns, results })
}

/// One run of `fig7_algebra`.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    report: &mut Vec<String>,
) -> Result<Outcome, String> {
    let cells = cells(seed, work)?;
    let out = work.join("result.pxml");
    let rss0 = rss_mb();
    let mut off = Recorder::new(false);
    let mut loads = Vec::new();
    let mut pis = Vec::new();
    for _ in 0..LOADS {
        let t = Instant::now();
        pis = load(&cells, &mut off)?;
        loads.push(t.elapsed().as_secs_f64());
    }
    report.push(format!(
        "inputs: cells of {} and {} objects, {PASS_ROUNDS} projection and selection queries each",
        pis[0].object_count(),
        pis[1].object_count()
    ));

    // Timed window: validation of each result is the answer gate and
    // stays outside the measured time.
    let mut rounds: Vec<u64> = Vec::new();
    let mut per_op: [Vec<u64>; 4] = Default::default();
    let (mut p50, mut tail, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut measured = Duration::ZERO;
    let mut problems = Vec::new();
    while measured.as_secs_f64() < seconds {
        let mut pass = Vec::new();
        for r in 0..PASS_ROUNDS {
            let round = round(&cells, &pis, r, &out, &mut off)?;
            let total: u64 = round.ops_ns.iter().sum();
            pass.push(total);
            for (k, ns) in round.ops_ns.iter().enumerate() {
                per_op[k].push(*ns);
            }
            for (k, res) in round.results.iter().enumerate() {
                if let Err(e) = res.validate() {
                    problems.push(format!("round {r} op {k}: result fails validate(): {e}"));
                }
            }
        }
        let pass_ns: u64 = pass.iter().sum();
        measured += Duration::from_nanos(pass_ns);
        p50.push(percentile(&pass, 0.5) as f64 / 1e3);
        tail.push(percentile(&pass, 1.0) as f64 / 1e3);
        rate.push(PASS_ROUNDS as f64 / (pass_ns as f64 / 1e9));
        rounds.extend(pass);
    }
    let rss1 = rss_mb();
    let _ = std::fs::remove_file(&out);
    if !problems.is_empty() {
        problems.truncate(20);
        return Err(format!(
            "correctness gate failed:\n  {}",
            problems.join("\n  ")
        ));
    }
    report.push(format!(
        "answer gate: {} result instances pass validate()",
        rounds.len() * 4
    ));

    let n = rounds.len() as u64;
    let mut e2e = Metrics::new();
    put(&mut e2e, "setup_s", median(&loads), "s");
    let passes = p50.len();
    let slices = Slices::from_parts(p50, tail, rate, 1.0, vec![PASS_ROUNDS; passes]);
    put(&mut e2e, "throughput_ops", slices.throughput(), "1/s");
    put(&mut e2e, "op_p50_us", slices.p50_us(), "us");
    put(&mut e2e, "op_tail_us", slices.tail_us(), "us");
    put(&mut e2e, "rss_mb", rss1 - rss0, "MB");
    report.push(format!("loads (s): {loads:?}"));
    report.extend(slices.describe());
    report.push(format!(
        "whole window: {n} rounds in {:.3} s of operations = {:.3} 1/s, p50 {:.3} us, p90 {:.3} us",
        measured.as_secs_f64(),
        n as f64 / measured.as_secs_f64(),
        percentile(&rounds, 0.5) as f64 / 1e3,
        percentile(&rounds, 0.9) as f64 / 1e3
    ));
    for (k, name) in ["c1 proj", "c1 select", "c2 proj", "c2 select"]
        .iter()
        .enumerate()
    {
        let (kind, cell) = name
            .split_once(' ')
            .map(|(c, k)| (k, c))
            .unwrap_or(("", ""));
        report.push(format!(
            "{kind}_p50_us[{cell}] {:.3} us  {kind}_p90_us[{cell}] {:.3} us  (n={}, incl. write)",
            percentile(&per_op[k], 0.5) as f64 / 1e3,
            percentile(&per_op[k], 0.9) as f64 / 1e3,
            per_op[k].len()
        ));
    }
    report.push(format!("failed_frac 0.000000 (0 of {})", n * 4));

    let mut layer = Metrics::new();
    if traced {
        let replay = |rec: &mut Recorder| -> Result<u64, String> {
            let t = Instant::now();
            rec.next_request();
            let root = rec.open("fig7.load");
            let pis = load(&cells, rec)?;
            rec.close(root);
            for r in 0..REPLAY_ROUNDS {
                rec.next_request();
                round(&cells, &pis, r, &out, rec)?;
            }
            Ok(t.elapsed().as_nanos() as u64)
        };
        // Spans off and on, alternated twice so neither side always
        // runs first.
        let (mut off_wall, mut on_wall) = (0u64, 0u64);
        let mut on = Recorder::new(true);
        for _ in 0..2 {
            off_wall += replay(&mut Recorder::new(false))?;
            on = Recorder::new(true);
            on_wall += replay(&mut on)?;
        }
        let _ = std::fs::remove_file(&out);
        let overhead = (on_wall as f64 - off_wall as f64) / off_wall as f64;
        let spans_path = work
            .parent()
            .unwrap_or(work)
            .join("spans-fig7_algebra.jsonl");
        write_spans(on.spans(), &spans_path).map_err(|e| e.to_string())?;
        report.push(format!(
            "spans: {} written to {}",
            on.spans().len(),
            spans_path.display()
        ));
        let (layers, path_ns) = layer_self_times(on.spans());
        crate::put_layer_shares(&mut layer, &layers, path_ns);
        put(&mut layer, "trace.overhead_frac", overhead, "frac");
        put(&mut layer, "trace.path_ms", path_ns as f64 / 1e6, "ms");
        let decode = layers.get("storage.decode").map_or(0, |l| l.self_ns);
        put(&mut layer, "storage.decode_ms", decode as f64 / 1e6, "ms");
        for (name, l) in &layers {
            if name.starts_with("algebra.") || name == "storage.text_write" {
                report.push(format!(
                    "{name}_us mean {:.3} us  p50 {:.3} us (n={})",
                    l.calls.iter().sum::<u64>() as f64 / l.calls.len() as f64 / 1e3,
                    percentile(&l.calls, 0.5) as f64 / 1e3,
                    l.calls.len()
                ));
            }
        }
        report.push(format!(
            "trace.overhead_frac {overhead:.4} (two replays each: spans off {:.3} ms, on {:.3} ms)",
            off_wall as f64 / 1e6,
            on_wall as f64 / 1e6
        ));
    }
    Ok(Outcome {
        attempted: n,
        failed: 0,
        e2e,
        layer,
    })
}
