//! Integration tests of the work-stealing trial executor: determinism
//! across worker counts and cache states, and per-trial early stopping.

mod support;

use prudentia_apps::Service;
use prudentia_core::{
    execute_pairs, trial_seed, DurationPolicy, ExecutorConfig, ImpairmentSpec, NetworkSetting,
    PairSpec, QdiscSpec, ScenarioSpec, TrialCache, TrialPolicy,
};
use std::sync::Arc;
use support::canonical;

fn matrix_pairs() -> Vec<PairSpec> {
    vec![
        PairSpec {
            contender: Service::IperfCubic.spec(),
            incumbent: Service::IperfReno.spec(),
            setting: NetworkSetting::highly_constrained(),
        },
        PairSpec {
            contender: Service::IperfReno.spec(),
            incumbent: Service::IperfBbr415.spec(),
            setting: NetworkSetting::highly_constrained(),
        },
    ]
}

fn matrix_config(parallelism: usize) -> ExecutorConfig {
    let mut config = ExecutorConfig::new(
        TrialPolicy {
            min_trials: 2,
            batch: 1,
            max_trials: 3,
        },
        DurationPolicy::Quick,
        parallelism,
    );
    // Injected loss sits exactly at the §3.4 discard threshold, so the
    // measured per-trial rate falls on either side seed-by-seed: some
    // trials are discarded and replaced, exercising replacement seeds.
    config.external_loss = 0.0005;
    config
}

#[test]
fn determinism_matrix_across_parallelism_and_cache() {
    let pairs = matrix_pairs();

    let (baseline, baseline_stats) =
        execute_pairs(&pairs, &matrix_config(1)).expect("valid config");
    let want = canonical(&baseline);
    assert!(
        baseline_stats.trials_discarded > 0,
        "threshold-straddling external loss must discard at least one \
         trial so replacement seeds are exercised"
    );

    // A sequential rerun must replay the exact event schedule, not just
    // land on the same fairness numbers: snapshot equality includes the
    // total simulator event count, so a double-fired or dropped timer
    // fails here even if every outcome byte agrees by luck.
    let (rerun, rerun_stats) = execute_pairs(&pairs, &matrix_config(1)).expect("valid config");
    assert_eq!(
        support::snapshot(&rerun, &rerun_stats),
        support::snapshot(&baseline, &baseline_stats),
        "sequential rerun must reproduce outcomes and event counts exactly"
    );
    assert!(baseline_stats.sim_events > 0);

    // Kept trials must use the deterministic seed stream of the pair
    // identity, in index order, with discarded indices skipped.
    for (pair, outcome) in pairs.iter().zip(&baseline) {
        let stream: Vec<u64> = (0..outcome.trials.len() + 40)
            .map(|i| {
                trial_seed(
                    pair.contender.name(),
                    pair.incumbent.name(),
                    &pair.setting.name,
                    i,
                )
            })
            .collect();
        let mut cursor = 0;
        for trial in &outcome.trials {
            let at = stream[cursor..]
                .iter()
                .position(|&s| s == trial.seed)
                .expect("every kept trial's seed comes from the pair's seed stream, in order");
            cursor += at + 1;
        }
    }

    for parallelism in [2, 8] {
        let (outcomes, _) =
            execute_pairs(&pairs, &matrix_config(parallelism)).expect("valid config");
        assert_eq!(
            canonical(&outcomes),
            want,
            "parallelism {parallelism} must not change outcomes"
        );
    }

    // Cold cache at parallelism 2, then warm at 8 and at 1.
    let cache = Arc::new(TrialCache::new());
    let (cold, _) = execute_pairs(&pairs, &matrix_config(2).with_cache(Arc::clone(&cache)))
        .expect("valid config");
    assert_eq!(
        canonical(&cold),
        want,
        "cold cache must not change outcomes"
    );

    let (warm8, warm8_stats) =
        execute_pairs(&pairs, &matrix_config(8).with_cache(Arc::clone(&cache)))
            .expect("valid config");
    assert_eq!(
        canonical(&warm8),
        want,
        "warm cache must not change outcomes"
    );
    assert!(
        warm8_stats.trials_cached > 0,
        "second run must hit the cache"
    );

    // A single worker issues exactly the sequential schedule, which the
    // cold run (a superset) has fully memoized: zero simulations.
    let (warm1, warm1_stats) =
        execute_pairs(&pairs, &matrix_config(1).with_cache(Arc::clone(&cache)))
            .expect("valid config");
    assert_eq!(
        canonical(&warm1),
        want,
        "warm cache must not change outcomes"
    );
    assert_eq!(
        warm1_stats.trials_run, 0,
        "warm single-worker run is all hits"
    );
    assert!(warm1_stats.cache_hit_rate() > 0.99);
}

#[test]
fn short_pair_event_counts_are_pinned() {
    // Cheaper, not fewer: per-trial simulator event counts of one short
    // pair, recorded on the commit before the sent-packet ring and the
    // 2¹⁸ ns wheel tick. The lossy trial takes the reorder-drain and RTO
    // paths through the ring thousands of times; a transport or calendar
    // change that arms, drops or double-fires a single timer moves these
    // numbers even when every fairness figure survives.
    let pair = &matrix_pairs()[0];
    let events = |trial: usize, external_loss: f64| {
        let seed = trial_seed(
            pair.contender.name(),
            pair.incumbent.name(),
            &pair.setting.name,
            trial,
        );
        let mut spec = prudentia_core::ExperimentSpec::quick(
            pair.contender.clone(),
            pair.incumbent.clone(),
            pair.setting.clone(),
            seed,
        );
        spec.external_loss = external_loss;
        prudentia_core::run_experiment_instrumented(&spec).1
    };
    assert_eq!(
        [events(0, 0.0), events(1, 0.0005), events(0, 0.01)],
        [636_091, 636_037, 429_058],
        "per-trial sim_events of iPerf (Cubic) vs iPerf (Reno) at 8 Mbps moved"
    );
}

#[test]
fn scenario_trials_deterministic_across_parallelism_and_cache() {
    // The scenario analogue of the matrix test above: a CoDel pair and an
    // impaired (lossy, variable-rate) drop-tail pair must produce
    // byte-identical outcomes at parallelism 1/2/8 and from cold or warm
    // caches — the impairment RNG is per-trial, not per-worker.
    let codel_setting = NetworkSetting::highly_constrained().with_scenario(
        ScenarioSpec {
            qdisc: QdiscSpec::codel(),
            impairment: ImpairmentSpec::default(),
        },
        "codel",
    );
    let impaired_setting = NetworkSetting::highly_constrained().with_scenario(
        ScenarioSpec {
            qdisc: QdiscSpec::DropTail,
            impairment: ImpairmentSpec {
                loss_prob: 0.001,
                ..ImpairmentSpec::lte_like(8e6)
            },
        },
        "lossy-lte",
    );
    let pairs = vec![
        PairSpec {
            contender: Service::IperfCubic.spec(),
            incumbent: Service::IperfReno.spec(),
            setting: codel_setting,
        },
        PairSpec {
            contender: Service::IperfReno.spec(),
            incumbent: Service::IperfCubic.spec(),
            setting: impaired_setting,
        },
    ];
    let config = |parallelism| {
        ExecutorConfig::new(
            TrialPolicy {
                min_trials: 2,
                batch: 1,
                max_trials: 3,
            },
            DurationPolicy::Quick,
            parallelism,
        )
    };

    let (baseline, _) = execute_pairs(&pairs, &config(1)).expect("valid config");
    let want = canonical(&baseline);
    for parallelism in [2, 8] {
        let (outcomes, _) = execute_pairs(&pairs, &config(parallelism)).expect("valid config");
        assert_eq!(
            canonical(&outcomes),
            want,
            "parallelism {parallelism} must not change scenario outcomes"
        );
    }

    let cache = Arc::new(TrialCache::new());
    let (cold, _) =
        execute_pairs(&pairs, &config(2).with_cache(Arc::clone(&cache))).expect("valid config");
    assert_eq!(canonical(&cold), want, "cold cache changed outcomes");
    let (warm, warm_stats) =
        execute_pairs(&pairs, &config(8).with_cache(Arc::clone(&cache))).expect("valid config");
    assert_eq!(canonical(&warm), want, "warm cache changed outcomes");
    assert!(warm_stats.trials_cached > 0, "warm run must hit the cache");
}

#[test]
fn scenario_and_legacy_settings_never_share_cache_keys() {
    // A scenario'd setting renames itself ("[codel]"), so its seeds and
    // cache keys are disjoint from the legacy setting's — a CoDel trial
    // can never be served from a memoized drop-tail result or vice versa.
    let legacy = NetworkSetting::highly_constrained();
    let codel = NetworkSetting::highly_constrained().with_scenario(
        ScenarioSpec {
            qdisc: QdiscSpec::codel(),
            impairment: ImpairmentSpec::default(),
        },
        "codel",
    );
    assert_ne!(legacy.name, codel.name);
    let spec_of = |setting: &NetworkSetting| {
        prudentia_core::ExperimentSpec::quick(
            Service::IperfCubic.spec(),
            Service::IperfReno.spec(),
            setting.clone(),
            7,
        )
    };
    assert_ne!(
        prudentia_core::trial_key(&spec_of(&legacy)),
        prudentia_core::trial_key(&spec_of(&codel)),
    );
}

#[test]
fn early_stopping_scales_trials_to_variance() {
    let policy = TrialPolicy {
        min_trials: 6, // the order-statistic CI needs >= 6 samples
        batch: 2,
        max_trials: 10,
    };
    let setting = NetworkSetting::highly_constrained();

    // Reno vs Cubic at 8 Mbps settles quickly: the CI is inside the
    // tolerance as soon as it exists, so the pair stops at min_trials.
    let low_variance = [PairSpec {
        contender: Service::IperfReno.spec(),
        incumbent: Service::IperfCubic.spec(),
        setting: setting.clone(),
    }];
    let config = ExecutorConfig::new(policy, DurationPolicy::Quick, 2);
    let (outcomes, stats) = execute_pairs(&low_variance, &config).expect("valid config");
    assert!(outcomes[0].converged, "low-variance pair must converge");
    assert_eq!(
        outcomes[0].trials.len(),
        policy.min_trials,
        "low-variance pair must stop at min_trials"
    );
    assert_eq!(stats.pairs[0].kept_trials, policy.min_trials);

    // Reno vs Reno at 8 Mbps is bimodal (loss-synchronization lockouts),
    // so its CI stays wide: the pair must extend beyond min_trials,
    // toward (possibly hitting) max_trials.
    let high_variance = [PairSpec {
        contender: Service::IperfReno.spec(),
        incumbent: Service::IperfReno.spec(),
        setting,
    }];
    let (outcomes, stats) = execute_pairs(&high_variance, &config).expect("valid config");
    assert!(
        outcomes[0].trials.len() > policy.min_trials,
        "high-variance pair must extend beyond min_trials (got {} trials, converged: {})",
        outcomes[0].trials.len(),
        outcomes[0].converged,
    );
    assert!(outcomes[0].trials.len() <= policy.max_trials);
    assert_eq!(stats.pairs[0].kept_trials, outcomes[0].trials.len());
}
