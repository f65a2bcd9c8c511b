//! Paper-invariant tier: seeded fits recorded with a `RingRecorder`,
//! with the PROCLUS paper's structural invariants asserted from the
//! event stream. Every invariant here is a sentence from the paper
//! (§2.2, §2.3) restated as an assertion over `proclus_obs::Event`s:
//!
//! * FindDimensions spreads exactly `k·l` dimensions with at least 2
//!   per cluster, every round (paper §2.2, "greedy with constraint").
//! * The hill climb's best objective is monotone non-increasing, and
//!   `improved` flags exactly the rounds that lowered it.
//! * AssignPoints partitions all `N` points during the iterative phase.
//! * Bad-medoid swaps fire only under the `(n/k)·minDeviation` rule,
//!   always including the smallest cluster (paper §2.2).
//! * Refinement's outliers are exactly the points beyond every sphere
//!   of influence `Δᵢ` (paper §2.3).

use proclus::math::DistanceKind;
use proclus::obs::{Event, RingRecorder};
use proclus::prelude::*;

const K: usize = 3;
const L: f64 = 3.0;
const SEEDS: [u64; 3] = [7, 41, 1999];

/// One recorded fit: the dataset, the model, and the event stream.
fn traced_fit(seed: u64) -> (GeneratedDataset, ProclusModel, Vec<Event>) {
    let data = SyntheticSpec::new(1_500, 10, K, 3.5).seed(seed).generate();
    let rec = RingRecorder::new(1 << 16);
    let model = Proclus::new(K, L)
        .seed(seed)
        .restarts(3)
        .fit_traced(&data.points, &rec)
        .expect("fit");
    assert_eq!(rec.dropped(), 0, "ring too small for the invariant tier");
    (data, model, rec.events())
}

#[test]
fn stream_is_bracketed_and_restarts_are_ordered() {
    for seed in SEEDS {
        let (_, _, events) = traced_fit(seed);
        assert!(
            matches!(
                events.first(),
                Some(Event::FitStart {
                    algorithm: "proclus",
                    ..
                })
            ),
            "seed {seed}: stream must open with fit_start"
        );
        assert!(
            matches!(events.last(), Some(Event::FitEnd { .. })),
            "seed {seed}: stream must close with fit_end"
        );
        // Restart indices appear in order, and each restart's rounds
        // count 1, 2, 3, ... without gaps.
        let mut current_restart = None;
        let mut next_round = 1;
        for ev in &events {
            match ev {
                Event::RestartStart { restart, .. } => {
                    let expected = current_restart.map_or(0, |r: usize| r + 1);
                    assert_eq!(*restart, expected, "seed {seed}: restart order");
                    current_restart = Some(*restart);
                    next_round = 1;
                }
                Event::Round { restart, round, .. } => {
                    assert_eq!(Some(*restart), current_restart, "seed {seed}");
                    assert_eq!(*round, next_round, "seed {seed}: round numbering");
                    next_round += 1;
                }
                _ => {}
            }
        }
    }
}

#[test]
fn find_dimensions_spreads_k_l_with_at_least_two_each() {
    let total = Proclus::new(K, L).total_dimensions();
    for seed in SEEDS {
        let (_, _, events) = traced_fit(seed);
        let mut rounds = 0;
        for ev in &events {
            let dims = match ev {
                Event::Round { dims, .. } => dims,
                Event::Refine { dims, .. } => dims,
                _ => continue,
            };
            rounds += 1;
            assert_eq!(dims.len(), K, "seed {seed}: one dimension set per medoid");
            let sum: usize = dims.iter().map(Vec::len).sum();
            assert_eq!(sum, total, "seed {seed}: Σ|Dᵢ| must equal k·l");
            for (i, di) in dims.iter().enumerate() {
                assert!(
                    di.len() >= 2,
                    "seed {seed}: cluster {i} got {} dims (< 2)",
                    di.len()
                );
                assert!(
                    di.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed}: dimension sets are sorted, duplicate-free"
                );
            }
        }
        assert!(rounds > 0, "seed {seed}: no rounds recorded");
    }
}

#[test]
fn round_payloads_are_shape_consistent() {
    for seed in SEEDS {
        let (data, _, events) = traced_fit(seed);
        let n = data.points.rows();
        for ev in &events {
            if let Event::Round {
                locality_sizes,
                dims,
                dim_scores,
                cluster_sizes,
                ..
            } = ev
            {
                assert_eq!(locality_sizes.len(), K, "seed {seed}");
                assert_eq!(cluster_sizes.len(), K, "seed {seed}");
                // The iterative phase partitions every point.
                assert_eq!(
                    cluster_sizes.iter().sum::<usize>(),
                    n,
                    "seed {seed}: AssignPoints must partition all N points"
                );
                // Z-scores parallel the chosen dimensions exactly.
                assert_eq!(dim_scores.len(), dims.len(), "seed {seed}");
                for (di, si) in dims.iter().zip(dim_scores) {
                    assert_eq!(di.len(), si.len(), "seed {seed}");
                    assert!(si.iter().all(|z| z.is_finite()), "seed {seed}");
                }
            }
        }
    }
}

#[test]
fn best_objective_is_monotone_and_improved_flags_match() {
    for seed in SEEDS {
        let (_, _, events) = traced_fit(seed);
        let mut best: Option<f64> = None;
        for ev in &events {
            match ev {
                Event::RestartStart { .. } => best = None,
                Event::Round {
                    objective,
                    best_objective,
                    improved,
                    ..
                } => {
                    assert!(objective.is_finite(), "seed {seed}");
                    let expected_improved = best.is_none_or(|b| *objective < b);
                    assert_eq!(
                        *improved, expected_improved,
                        "seed {seed}: improved flag disagrees with history"
                    );
                    let expected_best = best.map_or(*objective, |b| b.min(*objective));
                    assert_eq!(
                        *best_objective, expected_best,
                        "seed {seed}: best objective must be the running minimum"
                    );
                    if let Some(b) = best {
                        assert!(*best_objective <= b, "seed {seed}: monotone");
                    }
                    best = Some(*best_objective);
                }
                _ => {}
            }
        }
    }
}

#[test]
fn swaps_fire_only_under_the_min_deviation_rule() {
    let min_deviation = 0.1;
    for seed in SEEDS {
        let (data, _, events) = traced_fit(seed);
        let n = data.points.rows();
        let mut swaps = 0;
        for ev in &events {
            if let Event::Swap {
                bad,
                cluster_sizes,
                threshold,
                ..
            } = ev
            {
                swaps += 1;
                let expected_threshold = (n as f64 / K as f64) * min_deviation;
                assert_eq!(*threshold, expected_threshold, "seed {seed}");
                // Recompute the paper's rule: smallest cluster plus
                // everything under threshold, ascending.
                let smallest = (0..K)
                    .min_by_key(|&i| (cluster_sizes[i], i))
                    .expect("k > 0");
                let expected: Vec<usize> = (0..K)
                    .filter(|&i| i == smallest || (cluster_sizes[i] as f64) < expected_threshold)
                    .collect();
                assert_eq!(*bad, expected, "seed {seed}: bad-medoid set");
            }
        }
        // The hill climb must actually exercise the rule on this data.
        assert!(
            swaps > 0,
            "seed {seed}: no swap ever fired — dead invariant"
        );
    }
}

#[test]
fn refine_outliers_follow_the_sphere_of_influence_rule() {
    for seed in SEEDS {
        let (data, _, events) = traced_fit(seed);
        let points = &data.points;
        let metric = DistanceKind::Manhattan; // fit default
        let mut refines = 0;
        for ev in &events {
            if let Event::Refine {
                medoids,
                dims,
                spheres,
                outliers,
                ..
            } = ev
            {
                refines += 1;
                assert_eq!(medoids.len(), K, "seed {seed}");
                // Δᵢ = min over other medoids at *non-zero* projected
                // distance of d_{Dᵢ}(mᵢ, mⱼ) (coincident medoids are
                // excluded — see `spheres_of_influence`).
                for i in 0..K {
                    let expected = (0..K)
                        .filter(|&j| j != i)
                        .map(|j| {
                            metric.eval_segmental(
                                points.row(medoids[i]),
                                points.row(medoids[j]),
                                &dims[i],
                            )
                        })
                        .filter(|&d| d > 0.0)
                        .fold(f64::INFINITY, f64::min);
                    assert_eq!(spheres[i], expected, "seed {seed}: sphere {i}");
                }
                // A point is an outlier iff it lies beyond every sphere.
                let recomputed = (0..points.rows())
                    .filter(|&p| {
                        (0..K).all(|i| {
                            metric.eval_segmental(points.row(p), points.row(medoids[i]), &dims[i])
                                > spheres[i]
                        })
                    })
                    .count();
                assert_eq!(
                    *outliers, recomputed,
                    "seed {seed}: δ-based outlier rule violated"
                );
            }
        }
        assert!(refines > 0, "seed {seed}: no refinement recorded");
    }
}

/// FNV-1a 64-bit over the serialized event stream (same digest
/// construction as the golden-trace determinism test).
fn event_stream_digest(events: &[Event]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in events {
        for b in ev.to_json().bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The round cache is a pure performance layer. These five fits pin the
/// event-stream digests that the engine without a round cache produced
/// (and the cache reproduced, bit for bit): swap-heavy climbs,
/// multi-restart reuse, deeper inner refinement, candidate-pool
/// exhaustion, and thread counts 1 and 8. Any drift in what the cache
/// serves — a stale slot, a wrong column, a miscounted logical pass —
/// moves a digest.
#[test]
fn cached_fits_reproduce_pinned_event_digests() {
    // (dataset, params, label, digest): five seeded configurations.
    let swap_rich = |seed: u64| SyntheticSpec::new(1_500, 10, K, 3.5).seed(seed).generate();
    let mut cases: Vec<(GeneratedDataset, Proclus, &str, u64)> = vec![
        (
            swap_rich(7),
            Proclus::new(K, L).seed(7).restarts(3),
            "swap-rich seed 7",
            0x9b68_687b_126d_1bcb,
        ),
        (
            swap_rich(41),
            Proclus::new(K, L).seed(41).restarts(3),
            "swap-rich seed 41",
            0x014c_8f3f_2de5_8fae,
        ),
        (
            swap_rich(1999),
            Proclus::new(K, L).seed(1999).restarts(3).threads(8),
            "swap-rich seed 1999, 8 threads",
            0xb3f8_8379_5745_d88f,
        ),
        (
            SyntheticSpec::new(800, 8, 2, 3.0).seed(5).generate(),
            Proclus::new(2, 3.0)
                .seed(5)
                .restarts(2)
                .inner_refinements(2),
            "deeper inner refinement",
            0x359d_b50a_c95c_01a4,
        ),
    ];
    // Candidate-pool exhaustion: k equals N, so the bad-medoid step
    // runs out of fresh candidates and the climb stops degraded.
    let tiny = SyntheticSpec::new(4, 2, 1, 2.0).seed(2).generate();
    cases.push((
        tiny,
        Proclus::new(4, 2.0).seed(2),
        "pool exhaustion",
        0xd475_a9d3_d57e_0100,
    ));

    for (data, params, label, digest) in &cases {
        let rec = RingRecorder::new(1 << 16);
        params.fit_traced(&data.points, &rec).expect(label);
        assert_eq!(rec.dropped(), 0, "{label}: ring too small");
        let got = event_stream_digest(&rec.events());
        assert_eq!(
            got, *digest,
            "{label}: event-stream digest {got:#018x} moved"
        );
    }
    // The suite must actually cover both degenerate regimes it claims:
    // at least one case with swaps and one with pool exhaustion.
    let (data, params, _, _) = &cases[0];
    let rec = RingRecorder::new(1 << 16);
    params.fit_traced(&data.points, &rec).expect("swap-rich");
    assert!(
        rec.events().iter().any(|e| matches!(e, Event::Swap { .. })),
        "swap-rich case never swapped"
    );
    let (data, params, _, _) = &cases[4];
    let model = params.fit(&data.points).expect("tiny");
    assert!(
        model.diagnostics().degradations.iter().any(|d| matches!(
            d,
            proclus::core::model::Degradation::CandidatePoolExhausted { .. }
        )),
        "tiny case never exhausted the candidate pool"
    );
}

#[test]
fn fit_end_matches_the_returned_model() {
    for seed in SEEDS {
        let (_, model, events) = traced_fit(seed);
        let Some(Event::FitEnd {
            rounds,
            improvements,
            objective,
            iterative_objective,
            outliers,
        }) = events.last()
        else {
            panic!("seed {seed}: missing fit_end");
        };
        assert_eq!(*rounds, model.rounds(), "seed {seed}");
        assert_eq!(*improvements, model.improvements(), "seed {seed}");
        assert_eq!(*objective, model.objective(), "seed {seed}");
        assert_eq!(
            *iterative_objective,
            model.iterative_objective(),
            "seed {seed}"
        );
        assert_eq!(*outliers, model.outliers().len(), "seed {seed}");
    }
}

/// Logs, in call order, every event and `locality` span, and adds up
/// the `iterate.revisits` counter: a round with no `locality` span
/// since the previous round ran no pass.
#[derive(Default)]
struct RoundLog {
    calls: std::sync::Mutex<Vec<Option<Event>>>,
    revisits: std::sync::atomic::AtomicU64,
}

impl proclus::obs::Recorder for RoundLog {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&self, event: &Event) {
        self.calls.lock().unwrap().push(Some(event.clone()));
    }

    fn span(&self, phase: proclus::obs::Phase, _elapsed: std::time::Duration) {
        if phase == proclus::obs::Phase::Locality {
            self.calls.lock().unwrap().push(None);
        }
    }

    fn counter(&self, key: proclus::obs::Counter, delta: u64) {
        if key == proclus::obs::Counter::IterateRevisits {
            self.revisits
                .fetch_add(delta, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// FNV-1a over a model's assignment, cluster dimensions and objective
/// bits: equal digests mean the same clustering.
fn model_digest(model: &ProclusModel) -> u64 {
    let mut bytes = Vec::new();
    for a in model.assignment() {
        bytes.extend_from_slice(&a.map_or(-1, |c| c as i64).to_le_bytes());
    }
    for c in model.clusters() {
        bytes.extend_from_slice(&(c.dimensions.len() as u64).to_le_bytes());
        for &d in &c.dimensions {
            bytes.extend_from_slice(&(d as u64).to_le_bytes());
        }
    }
    bytes.extend_from_slice(&model.objective().to_bits().to_le_bytes());
    proclus::math::hash::fnv1a64(&bytes)
}

/// A candidate pool of `B·k = 6` leaves each swap three unused points,
/// so the climb keeps coming back to vertices it has scored. Such a
/// round runs no pass: it replays its first visit, which is never an
/// improvement. The model and the event stream are pinned to the
/// digests of the engine that rescored every revisit, at 1 and 4
/// threads alike.
#[test]
fn revisited_vertices_replay_their_first_visit() {
    let data = SyntheticSpec::new(400, 8, K, 3.0).seed(23).generate();
    let mut streams = Vec::new();
    for threads in [1, 4] {
        let log = RoundLog::default();
        let model = Proclus::new(K, L)
            .seed(23)
            .medoid_factor(2)
            .restarts(3)
            .threads(threads)
            .fit_traced(&data.points, &log)
            .expect("fit");
        let ctx = format!("threads {threads}");
        assert_eq!(
            model_digest(&model),
            0x2a23_6d20_83aa_0119,
            "{ctx}: model digest moved"
        );
        let calls = log.calls.into_inner().unwrap();
        let events: Vec<Event> = calls.iter().flatten().cloned().collect();
        assert_eq!(
            event_stream_digest(&events),
            0x0ba1_9de3_e06a_1fae,
            "{ctx}: event-stream digest moved"
        );

        // Split each restart's rounds into first visits (a locality
        // pass ran) and revisits (none did).
        let (mut fresh, mut revisits, mut ran) = (Vec::new(), 0u64, false);
        for call in &calls {
            match call {
                None => ran = true,
                Some(Event::RestartStart { .. }) => fresh.clear(),
                Some(Event::Round {
                    locality_sizes,
                    dims,
                    dim_scores,
                    cluster_sizes,
                    objective,
                    improved,
                    round,
                    ..
                }) => {
                    let payload = (
                        locality_sizes.clone(),
                        dims.clone(),
                        dim_scores.clone(),
                        cluster_sizes.clone(),
                        objective.to_bits(),
                    );
                    if std::mem::take(&mut ran) {
                        fresh.push(payload);
                        continue;
                    }
                    revisits += 1;
                    assert!(!improved, "{ctx}: revisit round {round} improved");
                    assert!(
                        fresh.contains(&payload),
                        "{ctx}: revisit round {round} repeats no earlier round"
                    );
                }
                Some(_) => {}
            }
        }
        assert!(revisits > 0, "{ctx}: no round revisited a vertex");
        assert_eq!(log.revisits.into_inner(), revisits, "{ctx}");
        assert_eq!(model.diagnostics().revisits as u64, revisits, "{ctx}");
        streams.push(events);
    }
    assert_eq!(streams[0], streams[1], "threads 1 vs 4");
}
