//! Differential gate: switching observation on must not change what the
//! engine answers, counts or caches.
//!
//! For every {pre-flight on, off} × {`run`, `run_governed` unlimited,
//! `run_governed` under a tight step ceiling} cell, the same workload is
//! answered by three fresh single-threaded engines that differ only in
//! [`TraceMode`] (`Off`, `Timing`, `Full`). Within a cell the three must
//! give identical answers, identical `StatsSnapshot` counters (timing
//! and histogram fields excluded) and identical `cache_len()` /
//! `cache_bytes()`. Every cell must also balance
//! `result_hits + result_misses == queries_run`, and wherever `run`
//! answers `Ok(p)` the unlimited governed run must answer `Exact(p)`.
//!
//! The workloads mix provably-zero queries (a point query on the root,
//! which no positive-length path locates), rewritable ones (a point query
//! on the only located object becomes the exists query on its path),
//! chains, erroring queries (a broken chain, Figure 2's non-tree
//! `R.book.author` point query) and exact repeats, so every pipeline
//! stage runs and the repeats hit the result memo.

mod common;

use pxml::algebra::{locate_weak, PathExpr};
use pxml::core::fixtures::{chain as chain_fixture, fig2_instance};
use pxml::core::ProbInstance;
use pxml::query::{Answer, BudgetSpec, Query, QueryEngine, QueryError, StatsSnapshot, TraceMode};

use common::random_tree;

/// How a cell's queries enter the engine.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Run,
    GovernedUnlimited,
    GovernedTight,
}

const ENTRIES: [Entry; 3] = [Entry::Run, Entry::GovernedUnlimited, Entry::GovernedTight];
const MODES: [TraceMode; 3] = [TraceMode::Off, TraceMode::Timing, TraceMode::Full];

/// Everything a cell compares across trace modes.
#[derive(Debug, PartialEq)]
struct Observed {
    answers: Vec<Result<Answer, QueryError>>,
    counters: Vec<(&'static str, u64)>,
    cache_len: (usize, usize, usize, usize),
    cache_bytes: u64,
}

/// The snapshot's counters; the timing totals and histograms are left
/// out because they differ between any two runs.
fn counters(s: &StatsSnapshot) -> Vec<(&'static str, u64)> {
    vec![
        ("queries_run", s.queries_run),
        ("result_hits", s.result_hits),
        ("result_misses", s.result_misses),
        ("layers_hits", s.layers_hits),
        ("layers_misses", s.layers_misses),
        ("eps_hits", s.eps_hits),
        ("eps_misses", s.eps_misses),
        ("link_hits", s.link_hits),
        ("link_misses", s.link_misses),
        ("opf_entries_visited", s.opf_entries_visited),
        ("queries_degraded", s.queries_degraded),
        ("queries_exhausted", s.queries_exhausted),
        ("budget_steps_spent", s.budget_steps_spent),
        ("budget_polls", s.budget_polls),
        ("preflight_zeros", s.preflight_zeros),
        ("preflight_rewrites", s.preflight_rewrites),
        ("preflight_rejections", s.preflight_rejections),
        ("cache_evictions", s.cache_evictions),
        ("cache_admission_rejections", s.cache_admission_rejections),
        ("batches_run", s.batches_run),
        ("mutations_applied", s.mutations_applied),
        ("cache_invalidations", s.cache_invalidations),
    ]
}

/// Answers `queries` in order on a fresh single-threaded engine.
fn observe(
    pi: &ProbInstance,
    queries: &[Query],
    preflight: bool,
    entry: Entry,
    mode: TraceMode,
) -> Observed {
    let engine = QueryEngine::with_threads(pi.clone(), 1);
    engine.set_preflight(preflight);
    engine.set_trace_mode(mode);
    engine.set_trace_capacity(queries.len());
    let tight = BudgetSpec {
        max_steps: Some(2),
        ..BudgetSpec::default()
    };
    let answers = queries
        .iter()
        .map(|q| match entry {
            Entry::Run => engine.run(q).map(Answer::Exact),
            Entry::GovernedUnlimited => engine.run_governed(q, &BudgetSpec::default()),
            Entry::GovernedTight => engine.run_governed(q, &tight),
        })
        .collect();
    if mode == TraceMode::Full {
        assert_eq!(
            engine.take_traces().len(),
            queries.len(),
            "one trace record per query"
        );
    }
    Observed {
        answers,
        counters: counters(&engine.stats()),
        cache_len: engine.cache_len(),
        cache_bytes: engine.cache_bytes(),
    }
}

/// Exists and point queries along the first-potential-child walk (each
/// prefix), a point query on the root per path, chains along the walk
/// plus a broken chain, and then the whole list again.
fn walk_workload(pi: &ProbInstance) -> Vec<Query> {
    let root = pi.root();
    let mut labels = Vec::new();
    let mut chain = vec![root];
    let mut cur = root;
    while let Some((_, child, l)) = pi.weak().node(cur).and_then(|n| n.universe().iter().next()) {
        labels.push(l);
        chain.push(child);
        cur = child;
    }
    let mut queries = Vec::new();
    for len in 1..=labels.len() {
        let p = PathExpr::new(root, labels[..len].iter().copied());
        queries.push(Query::exists(p.clone()));
        queries.push(Query::point(p.clone(), root));
        for o in locate_weak(pi, &p) {
            queries.push(Query::point(p.clone(), o));
        }
    }
    for len in 1..chain.len() {
        queries.push(Query::chain(chain[..=len].to_vec()));
    }
    queries.push(Query::chain(vec![root, root]));
    let again = queries.clone();
    queries.extend(again);
    queries
}

/// Figure 2: the title queries are tree-shaped, `R.book.author` is not
/// (ungoverned errs `NotTreeShaped`, governed falls back to the DAG
/// engine), and the root is never located on `R.book`.
fn fig2_workload(pi: &ProbInstance) -> Vec<Query> {
    let o = |n: &str| pi.oid(n).unwrap();
    let path = |t: &str| PathExpr::parse(pi.catalog(), t).unwrap();
    let once = vec![
        Query::point(path("R.book.title"), o("T2")),
        Query::exists(path("R.book.title")),
        Query::point(path("R.book.author"), o("A1")),
        Query::exists(path("R.book.author")),
        Query::point(path("R.book"), pi.root()),
        Query::chain([pi.root(), o("B1"), o("A1"), o("I1")]),
        Query::chain([o("B1"), o("A1")]),
    ];
    let mut queries = once.clone();
    queries.extend(once.iter().cloned());
    queries.extend(once);
    queries
}

/// Runs every cell over one instance and workload; returns the summed
/// off-mode counters of the pre-flight cells, for coverage checks.
fn check_instance(name: &str, pi: &ProbInstance, queries: &[Query]) -> Vec<(&'static str, u64)> {
    let mut preflight_totals = counters(&StatsSnapshot::default());
    for preflight in [false, true] {
        let mut ungoverned = None;
        for entry in ENTRIES {
            let off = observe(pi, queries, preflight, entry, MODES[0]);
            for &mode in &MODES[1..] {
                let traced = observe(pi, queries, preflight, entry, mode);
                assert_eq!(
                    traced, off,
                    "{name}: pre-flight {preflight}, {entry:?}: {mode:?} differs from Off"
                );
            }
            let get = |k: &str| off.counters.iter().find(|(n, _)| *n == k).unwrap().1;
            assert_eq!(
                get("result_hits") + get("result_misses"),
                get("queries_run"),
                "{name}: pre-flight {preflight}, {entry:?}: hits + misses != queries"
            );
            assert!(
                get("result_hits") > 0,
                "{name}: repeats must hit the result memo"
            );
            if preflight {
                for (total, (_, v)) in preflight_totals.iter_mut().zip(&off.counters) {
                    total.1 += v;
                }
            }
            match entry {
                Entry::Run => ungoverned = Some(off.answers),
                Entry::GovernedUnlimited => {
                    let plain = ungoverned.as_ref().expect("run cell comes first");
                    for (i, (p, g)) in plain.iter().zip(&off.answers).enumerate() {
                        if let Ok(p) = p {
                            assert_eq!(g, &Ok(*p), "{name}: query {i} governed vs run");
                        }
                    }
                }
                Entry::GovernedTight => {}
            }
        }
    }
    preflight_totals
}

#[test]
fn observation_changes_no_answer_counter_or_cache() {
    let mut instances: Vec<(String, ProbInstance, Vec<Query>)> = (0..12u64)
        .map(|seed| {
            let pi = random_tree(seed);
            let queries = walk_workload(&pi);
            (format!("random tree {seed}"), pi, queries)
        })
        .collect();
    let fig2 = fig2_instance();
    let queries = fig2_workload(&fig2);
    instances.push(("fig2".into(), fig2, queries));
    let chain = chain_fixture(3, 0.5);
    let queries = walk_workload(&chain);
    instances.push(("chain(3, 0.5)".into(), chain, queries));

    let mut totals = counters(&StatsSnapshot::default());
    for (name, pi, queries) in &instances {
        let cell = check_instance(name, pi, queries);
        for (total, (_, v)) in totals.iter_mut().zip(&cell) {
            total.1 += v;
        }
    }
    // The workloads reach every pre-flight outcome.
    for stage in [
        "preflight_zeros",
        "preflight_rewrites",
        "preflight_rejections",
    ] {
        let n = totals.iter().find(|(k, _)| *k == stage).unwrap().1;
        assert!(n > 0, "no pre-flight cell exercised {stage}");
    }
}

/// The smallest case: a provably-zero point query asked three times is
/// proved once, memoised, and then answered from the memo, whatever the
/// trace mode.
#[test]
fn provable_zero_is_proved_once_in_every_trace_mode() {
    let pi = chain_fixture(3, 0.5);
    let q = Query::point(PathExpr::parse(pi.catalog(), "r.next").unwrap(), pi.root());
    for entry in [Entry::Run, Entry::GovernedUnlimited] {
        for mode in MODES {
            let got = observe(&pi, &[q.clone(), q.clone(), q.clone()], true, entry, mode);
            let get = |k: &str| got.counters.iter().find(|(n, _)| *n == k).unwrap().1;
            let at = format!("{entry:?} {mode:?}");
            assert_eq!(get("preflight_zeros"), 1, "{at}");
            assert_eq!(get("result_misses"), 1, "{at}");
            assert_eq!(get("result_hits"), 2, "{at}");
            assert_eq!(got.cache_len.0, 1, "{at}: the zero is memoised");
            assert!(
                got.answers.iter().all(|a| a == &Ok(Answer::Exact(0.0))),
                "{at}"
            );
        }
    }
}
