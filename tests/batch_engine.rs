//! The batch engine's contract, property-tested across random
//! instances:
//!
//! 1. **Exact equality** — engine answers are `==` (bit-identical, not
//!    within-epsilon) to the sequential `point_query` / `exists_query` /
//!    `chain_probability` answers, errors included, on trees and DAGs.
//!    The engine shares the sequential functions' ε implementation, so
//!    memoisation must never change a single bit.
//! 2. **Oracle agreement** — on small instances the batch answers agree
//!    with possible-worlds enumeration within 1e-9.
//! 3. **Determinism under parallelism** — the same batch answered with
//!    1, 2 and 8 workers returns identical result vectors.

mod common;

use proptest::prelude::*;

use pxml::algebra::{locate_weak, satisfies_sd, PathExpr};
use pxml::core::worlds::enumerate_worlds;
use pxml::core::ProbInstance;
use pxml::query::engine::{BudgetSpec, DegradePolicy};
use pxml::query::{chain_probability, exists_query, point_query, QueryError, StatsSnapshot};
use pxml::{BatchQuery, QueryEngine, QueryTrace, TraceMode, TraceOutcome};

use common::{random_dag, random_tree};

/// First-potential-child walk from the root: the label sequence and the
/// object chain it traverses (same construction as `point_queries.rs`).
fn first_child_walk(pi: &ProbInstance) -> (Vec<pxml::core::Label>, Vec<pxml::core::ObjectId>) {
    let mut labels = Vec::new();
    let mut chain = vec![pi.root()];
    let mut cur = pi.root();
    while let Some(node) = pi.weak().node(cur) {
        let Some((_, child, l)) = node.universe().iter().next() else { break };
        labels.push(l);
        chain.push(child);
        cur = child;
        if labels.len() > 5 {
            break;
        }
    }
    (labels, chain)
}

/// A mixed workload over `pi`: exists + per-located-object point queries
/// for every prefix of the first-child walk (and of the `x`/`y` label
/// pairs on DAGs), plus chain queries along the walk. Includes
/// deliberate duplicates so the whole-query memo is exercised.
fn build_queries(pi: &ProbInstance, extra_labels: &[pxml::core::Label]) -> Vec<BatchQuery> {
    let (walk_labels, chain) = first_child_walk(pi);
    let mut paths: Vec<PathExpr> = (1..=walk_labels.len())
        .map(|len| PathExpr::new(pi.root(), walk_labels[..len].iter().copied()))
        .collect();
    for &l1 in extra_labels {
        paths.push(PathExpr::new(pi.root(), [l1]));
        for &l2 in extra_labels {
            paths.push(PathExpr::new(pi.root(), [l1, l2]));
        }
    }
    let mut queries = Vec::new();
    for p in &paths {
        queries.push(BatchQuery::exists(p.clone()));
        for o in locate_weak(pi, p) {
            queries.push(BatchQuery::point(p.clone(), o));
        }
    }
    for len in 1..chain.len() {
        queries.push(BatchQuery::chain(chain[..=len].to_vec()));
    }
    // Duplicates: re-ask the first half of the workload verbatim.
    let half: Vec<BatchQuery> = queries[..queries.len() / 2].to_vec();
    queries.extend(half);
    queries
}

/// The sequential answer the engine must reproduce exactly.
fn sequential_answer(pi: &ProbInstance, q: &BatchQuery) -> Result<f64, QueryError> {
    match q {
        BatchQuery::Point { path, object } => point_query(pi, path, *object),
        BatchQuery::Exists { path } => exists_query(pi, path),
        BatchQuery::Chain { objects } => chain_probability(pi, objects),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random trees, every engine answer — value or error — is
    /// exactly equal (`==`) to the sequential answer.
    #[test]
    fn engine_equals_sequential_on_trees(seed in 0u64..3000) {
        let pi = random_tree(seed);
        let queries = build_queries(&pi, &[]);
        let expected: Vec<_> =
            queries.iter().map(|q| sequential_answer(&pi, q)).collect();
        let engine = QueryEngine::with_threads(pi, 1);
        let got = engine.run_batch(&queries);
        prop_assert_eq!(got, expected);
    }

    /// Same exact-equality contract on random DAGs, where point/exists
    /// queries may answer `Err(NotTreeShaped)` — the engine must return
    /// the identical error, not a value.
    #[test]
    fn engine_equals_sequential_on_dags(seed in 0u64..3000) {
        let pi = random_dag(seed);
        let extra = [pi.lid("x").unwrap(), pi.lid("y").unwrap()];
        let queries = build_queries(&pi, &extra);
        let expected: Vec<_> =
            queries.iter().map(|q| sequential_answer(&pi, q)).collect();
        let engine = QueryEngine::with_threads(pi, 1);
        let got = engine.run_batch(&queries);
        prop_assert_eq!(got, expected);
    }

    /// On small instances every successful batch answer agrees with the
    /// possible-worlds oracle within 1e-9.
    #[test]
    fn engine_matches_worlds_oracle(seed in 0u64..1500) {
        let pi = random_tree(seed);
        let worlds = enumerate_worlds(&pi).expect("enumerable");
        let queries = build_queries(&pi, &[]);
        let engine = QueryEngine::with_threads(pi, 1);
        let answers = engine.run_batch(&queries);
        let pi = engine.instance();
        for (q, a) in queries.iter().zip(&answers) {
            let Ok(p) = a else { continue };
            let direct = match q {
                BatchQuery::Point { path, object } => {
                    worlds.probability_that(|s| satisfies_sd(s, path, *object))
                }
                BatchQuery::Exists { path } => {
                    worlds.probability_that(|s| !pxml::algebra::locate_sd(s, path).is_empty())
                }
                BatchQuery::Chain { objects } => worlds.probability_that(|s| {
                    objects.windows(2).all(|w| s.children(w[0]).contains(&w[1]))
                }),
            };
            prop_assert!(
                (p - direct).abs() < 1e-9,
                "{q:?} on seed {seed}: engine {p} vs worlds {direct} ({})",
                pi.object_count()
            );
        }
    }

    /// The same batch answered with 1, 2 and 8 workers over a shared
    /// cache returns identical (`==`) result vectors: evaluation order
    /// must not leak into the answers.
    #[test]
    fn engine_is_deterministic_across_thread_counts(seed in 0u64..1500) {
        let tree_queries = build_queries(&random_tree(seed), &[]);
        let dag = random_dag(seed);
        let extra = [dag.lid("x").unwrap(), dag.lid("y").unwrap()];
        let dag_queries = build_queries(&dag, &extra);
        for (make, queries) in [
            (random_tree as fn(u64) -> ProbInstance, &tree_queries),
            (random_dag as fn(u64) -> ProbInstance, &dag_queries),
        ] {
            let baseline = QueryEngine::with_threads(make(seed), 1).run_batch(queries);
            for threads in [2usize, 8] {
                let engine = QueryEngine::with_threads(make(seed), threads);
                let got = engine.run_batch(queries);
                prop_assert_eq!(&got, &baseline, "threads={}", threads);
                // Re-running the identical batch on the now-warm cache
                // must still return the same vector, all from the memo.
                let again = engine.run_batch(queries);
                prop_assert_eq!(&again, &baseline, "warm rerun, threads={}", threads);
                let snap = engine.stats();
                prop_assert!(snap.result_hits as usize >= queries.len());
            }
        }
    }

    /// Counter balance: after any mix of ungoverned and governed runs —
    /// including budget-starved `DegradePolicy::Interval` batches, whose
    /// degraded queries must be counted exactly once — every snapshot
    /// satisfies `result_hits + result_misses == queries_run` at rest,
    /// plus the degraded/exhausted bounds.
    #[test]
    fn stats_counters_balance_across_run_modes(seed in 0u64..300, max_steps in 1u64..64) {
        let pi = random_tree(seed);
        let queries = build_queries(&pi, &[]);
        let engine = QueryEngine::with_threads(pi, 2);

        let mut expected_queries = 0u64;
        engine.run_batch(&queries);
        expected_queries += queries.len() as u64;

        // Starved governed run: many queries degrade to intervals.
        let starved = BudgetSpec {
            max_steps: Some(max_steps),
            degrade: DegradePolicy::Interval,
            ..BudgetSpec::default()
        };
        engine.run_batch_governed(&queries, &starved);
        expected_queries += queries.len() as u64;

        // Unlimited governed run on the now-warm cache.
        engine.run_batch_governed(&queries, &BudgetSpec::default());
        expected_queries += queries.len() as u64;

        let snap = engine.stats();
        prop_assert_eq!(snap.queries_run, expected_queries);
        prop_assert_eq!(snap.result_hits + snap.result_misses, snap.queries_run);
        prop_assert!(snap.queries_degraded + snap.queries_exhausted <= snap.queries_run);
        prop_assert!(snap.queries_degraded <= snap.result_misses);
    }
}

/// Every invariant a snapshot racing live writers must satisfy (the
/// at-rest balance `hits + misses == queries_run` only holds when no
/// query is mid-flight, so racing snapshots check `<=`).
fn assert_snapshot_invariants(snap: &StatsSnapshot) {
    assert!(
        snap.result_hits + snap.result_misses <= snap.queries_run,
        "result counters overtook queries_run: {snap:?}"
    );
    assert!(
        snap.queries_degraded + snap.queries_exhausted <= snap.queries_run,
        "degradation counters overtook queries_run: {snap:?}"
    );
    assert!(snap.queries_degraded <= snap.result_misses, "degraded overtook misses: {snap:?}");
}

/// Satellite (a): `batch_nanos` **accumulates** across `run_batch`
/// calls (it was documented as set-once) and `batches_run` counts them.
#[test]
fn batch_nanos_accumulates_across_batches() {
    let pi = random_tree(7);
    let queries = build_queries(&pi, &[]);
    let engine = QueryEngine::with_threads(pi, 1);

    engine.run_batch(&queries);
    let first = engine.stats();
    assert_eq!(first.batches_run, 1);
    assert!(first.batch_nanos > 0, "a batch took zero time: {first:?}");

    engine.run_batch(&queries);
    let second = engine.stats();
    assert_eq!(second.batches_run, 2);
    assert!(
        second.batch_nanos > first.batch_nanos,
        "batch_nanos did not accumulate: {} then {}",
        first.batch_nanos,
        second.batch_nanos
    );
    assert_eq!(second.queries_run, 2 * queries.len() as u64);
}

/// Satellite (d), engine flavour: four threads hammer the engine (two
/// ungoverned, one starved-interval governed, one unlimited governed)
/// while the main thread snapshots in a loop; every racing snapshot
/// satisfies the counter invariants, and the final at-rest snapshot
/// balances exactly.
#[test]
fn concurrent_snapshots_satisfy_invariants() {
    let pi = random_tree(11);
    let queries = build_queries(&pi, &[]);
    let engine = QueryEngine::with_threads(pi, 1);
    const ROUNDS: usize = 40;

    std::thread::scope(|s| {
        for worker in 0..4usize {
            let engine = &engine;
            let queries = &queries;
            s.spawn(move || {
                let starved = BudgetSpec {
                    max_steps: Some(2),
                    degrade: DegradePolicy::Interval,
                    ..BudgetSpec::default()
                };
                for _ in 0..ROUNDS {
                    match worker {
                        0 | 1 => {
                            for q in queries {
                                let _ = engine.run(q);
                            }
                        }
                        2 => {
                            engine.run_batch_governed(queries, &starved);
                        }
                        _ => {
                            engine.run_batch_governed(queries, &BudgetSpec::default());
                        }
                    }
                }
            });
        }
        // Snapshot continuously while the writers run.
        for _ in 0..10_000 {
            assert_snapshot_invariants(&engine.stats());
        }
    });

    let at_rest = engine.stats();
    assert_snapshot_invariants(&at_rest);
    assert_eq!(at_rest.queries_run, (4 * ROUNDS * queries.len()) as u64);
    assert_eq!(at_rest.result_hits + at_rest.result_misses, at_rest.queries_run);
}

/// Full tracing materialises exactly one record per query, covering the
/// whole batch, with coherent phase spans and cache provenance; every
/// record survives a JSON round-trip bit-exactly. Checked with pre-flight
/// off and on, through both `run_batch` and `run_batch_governed`: a
/// provably-zero query is traced as `PreflightZero` only on the miss
/// that proved it, and its repeat as a result-memo hit.
#[test]
fn full_tracing_records_one_trace_per_query() {
    let pi = random_tree(3);
    let (walk, _) = first_child_walk(&pi);
    // No positive-length path locates the root, so this is provably 0.
    let zero = BatchQuery::point(PathExpr::new(pi.root(), [walk[0]]), pi.root());
    let mut queries = vec![zero.clone()];
    queries.extend(build_queries(&pi, &[]));
    queries.push(zero);

    for preflight in [false, true] {
        for governed in [false, true] {
            let at = format!("pre-flight {preflight}, governed {governed}");
            let engine = QueryEngine::with_threads(pi.clone(), 1);
            engine.set_preflight(preflight);
            engine.set_trace_mode(TraceMode::Full);
            engine.set_trace_capacity(queries.len());
            if governed {
                engine.run_batch_governed(&queries, &BudgetSpec::default());
            } else {
                engine.run_batch(&queries);
            }
            let traces = engine.take_traces();
            assert_eq!(traces.len(), queries.len(), "{at}");
            assert_eq!(engine.traces_dropped(), 0, "{at}");

            for t in &traces {
                assert!(t.total_nanos > 0, "{at}: zero-duration trace: {t:?}");
                assert!(
                    t.locate_nanos + t.marginal_nanos + t.normalise_nanos <= t.total_nanos,
                    "{at}: phase spans exceed the total: {t:?}"
                );
                let round_tripped = QueryTrace::from_json(&t.to_json()).expect("trace JSON parses");
                assert_eq!(&round_tripped, t, "{at}: JSON round-trip changed the record");
            }

            // The duplicate half of the workload must show result-cache hits.
            assert!(traces.iter().any(|t| t.result_hit), "{at}: no trace recorded a result hit");
            assert!(traces.iter().any(|t| !t.result_hit), "{at}: no trace recorded a miss");

            // The zero is proved on its first (missing) run only.
            let proved: Vec<usize> = traces
                .iter()
                .enumerate()
                .filter(|(_, t)| t.outcome == TraceOutcome::PreflightZero)
                .map(|(i, _)| i)
                .collect();
            let (first, last) = (&traces[0], &traces[traces.len() - 1]);
            if preflight {
                assert_eq!(proved, vec![0], "{at}");
                assert!(!first.result_hit, "{at}: the proof is a memo miss");
            } else {
                assert!(proved.is_empty(), "{at}");
                assert_eq!(first.outcome, TraceOutcome::Exact, "{at}");
            }
            assert_eq!((first.lo, first.hi), (0.0, 0.0), "{at}");
            assert!(last.result_hit, "{at}: the repeat is a memo hit");
            assert_eq!(last.outcome, TraceOutcome::Exact, "{at}");
            assert_eq!((last.lo, last.hi), (0.0, 0.0), "{at}");

            // The ring drains on take: a second drain is empty.
            assert!(engine.take_traces().is_empty(), "{at}");
        }
    }
}
