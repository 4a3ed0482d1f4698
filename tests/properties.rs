//! Randomised property tests for the core data structures and the
//! paper's invariants.
//!
//! Originally written with `proptest`; this build environment is offline,
//! so the same properties now run over seeded-RNG case loops (64 cases
//! each, like the old `ProptestConfig::with_cases(64)`). Shrinking is
//! lost, but every failure reports the case seed, which reproduces it
//! exactly.

use continustreaming::analysis::ContinuityModel;
use continustreaming::dht::{route, DhtNetwork, ResponsibilityRange};
use continustreaming::prelude::*;
use rand::Rng as _;

const CASES: u64 = 64;

/// The stream buffer behaves like a set restricted to a sliding window:
/// everything inserted and not yet evicted is present; length matches a
/// reference model.
#[test]
fn buffer_matches_reference_model() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0xB0F).child_indexed("buffer-model", case);
        let capacity = rng.gen_range(1u64..300);
        let n_ids = rng.gen_range(0usize..400);
        let ids: Vec<u64> = (0..n_ids).map(|_| rng.gen_range(1u64..2_000)).collect();

        let mut buf = StreamBuffer::new(capacity);
        let mut reference: std::collections::BTreeSet<u64> = Default::default();
        for &id in &ids {
            buf.insert(id);
            reference.insert(id);
            let head = buf.head();
            reference.retain(|&x| x >= head);
        }
        assert_eq!(buf.len(), reference.len() as u64, "case {case}");
        for &id in &reference {
            assert!(buf.contains(id), "case {case}: missing {id}");
        }
        let listed: Vec<u64> = buf.iter().collect();
        assert_eq!(
            listed,
            reference.iter().copied().collect::<Vec<_>>(),
            "case {case}"
        );
    }
}

/// Sliding a buffer never lets stale IDs survive and never invents
/// segments.
#[test]
fn buffer_slide_is_monotone() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0x51D).child_indexed("buffer-slide", case);
        let capacity = rng.gen_range(1u64..200);
        let fill = rng.gen_range(0u64..200);
        let slide = rng.gen_range(1u64..400);

        let mut buf = StreamBuffer::new(capacity);
        for id in 1..=fill {
            buf.insert(id);
        }
        let before: Vec<u64> = buf.iter().collect();
        buf.slide_to(slide);
        for id in buf.iter() {
            assert!(id >= slide, "case {case}: stale id {id} survived");
            assert!(before.contains(&id), "case {case}: invented id {id}");
        }
    }
}

/// ID-space levels partition the ring: every non-owner ID belongs to
/// exactly one level interval.
#[test]
fn dht_levels_partition() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0xD47).child_indexed("levels", case);
        let bits = rng.gen_range(2u32..12);
        let space = IdSpace::new(bits);
        let owner = rng.gen::<u64>() % space.size();
        let p = rng.gen::<u64>() % space.size();
        if p == owner {
            continue;
        }
        let level = space.level_of(owner, p).expect("non-owner has a level");
        let mut containing = 0;
        for l in 1..=bits {
            let (from, to) = space.level_interval(owner, l);
            if space.in_interval(p, from, to) {
                containing += 1;
                assert_eq!(l, level, "case {case}");
            }
        }
        assert_eq!(containing, 1, "case {case}");
    }
}

/// Responsibility ranges over a full partition cover every key exactly
/// once.
#[test]
fn responsibility_partition() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0x9E5).child_indexed("responsibility", case);
        let bits = rng.gen_range(3u32..10);
        let space = IdSpace::new(bits);
        let n_ids = rng.gen_range(2usize..12);
        let ids: Vec<u64> = {
            let mut set = std::collections::BTreeSet::new();
            for _ in 0..n_ids {
                set.insert(rng.gen_range(0u64..1024) % space.size());
            }
            set.into_iter().collect()
        };
        if ids.len() < 2 {
            continue;
        }
        let key = rng.gen::<u64>() % space.size();
        let mut owners = 0;
        for (i, &id) in ids.iter().enumerate() {
            let succ = ids[(i + 1) % ids.len()];
            if ResponsibilityRange::new(space, id, succ).contains(key) {
                owners += 1;
            }
        }
        assert_eq!(
            owners, 1,
            "case {case}: key {key} must have exactly one owner"
        );
    }
}

/// The §5.1 model is internally consistent for any sane parameters:
/// PC_new ≥ PC_old, both in [0, 1], Δ = difference.
#[test]
fn continuity_model_invariants() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0xC01).child_indexed("continuity", case);
        let lambda = rng.gen_range(0.0f64..60.0);
        let p = rng.gen_range(1u32..30);
        let k = rng.gen_range(0u32..8);
        let m = ContinuityModel {
            lambda,
            playback_rate: p as f64,
            period: 1.0,
            replicas: k,
        };
        let pred = m.predict();
        assert!(
            pred.pc_old >= -1e-12 && pred.pc_old <= 1.0 + 1e-12,
            "case {case}: pc_old {}",
            pred.pc_old
        );
        assert!(
            pred.pc_new >= pred.pc_old - 1e-12,
            "case {case}: pc_new {} < pc_old {}",
            pred.pc_new,
            pred.pc_old
        );
        assert!(
            (pred.delta - (pred.pc_new - pred.pc_old)).abs() < 1e-9,
            "case {case}"
        );
    }
}

/// Backup targets are deterministic and inside the space.
#[test]
fn placement_targets_valid() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0x9AC).child_indexed("placement", case);
        let seg = rng.gen_range(1u64..1_000_000);
        let k = rng.gen_range(1u32..6);
        let space = IdSpace::new(13);
        let a = continustreaming::dht::backup_targets(space, seg, k);
        let b = continustreaming::dht::backup_targets(space, seg, k);
        assert_eq!(a, b, "case {case}");
        for &t in &a {
            assert!(space.contains(t), "case {case}: target {t}");
        }
    }
}

/// Join/leave/rejoin churn never corrupts the DHT arena: after every
/// churn round the level tables still satisfy the level invariant, the
/// `DhtId → DhtIdx` boundary map matches the occupied slots and the ring
/// exactly, and lookups still terminate at the true responsible node.
#[test]
fn dht_arena_survives_churn() {
    for case in 0..24u64 {
        let mut rng = RngTree::new(0xA7E).child_indexed("dht-churn", case);
        let bits = rng.gen_range(8u32..12);
        let space = IdSpace::new(bits);
        let n = rng.gen_range(40usize..120);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            set.insert(rng.gen_range(0..space.size()));
        }
        let ids: Vec<DhtId> = set.into_iter().collect();
        let latency = |a: DhtId, b: DhtId| 10.0 + ((a ^ b) % 17) as f64;
        let mut net = DhtNetwork::build(space, &ids, &latency, &mut rng);
        net.check_invariants()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));

        for round in 0..6 {
            // Leave a random batch (abrupt: dangling entries stay).
            let victims: Vec<DhtId> = net
                .ids()
                .collect::<Vec<_>>()
                .into_iter()
                .filter(|_| rng.gen_bool(0.2))
                .collect();
            for v in &victims {
                assert!(net.leave(*v), "case {case}: {v} was live");
                assert!(net.lookup(*v).is_none(), "case {case}: {v} still resolves");
            }
            // Rejoin some of the departed ids plus some fresh ones: slot
            // reuse must cover the whole batch while vacancies last.
            let mut joins = 0usize;
            for &v in victims.iter().take(victims.len() / 2) {
                net.join(v, &latency, &mut rng).unwrap();
                joins += 1;
            }
            while joins < victims.len() {
                let id = rng.gen_range(0..space.size());
                if net.join(id, &latency, &mut rng).is_ok() {
                    joins += 1;
                }
            }
            // As many joins as leaves and the free list was large enough:
            // the arena must not have grown.
            assert_eq!(
                net.free_count(),
                net.slot_count() - net.len(),
                "case {case} round {round}: free-list accounting"
            );
            net.check_invariants()
                .unwrap_or_else(|e| panic!("case {case} round {round}: {e}"));
            // Boundary map ↔ slots: every live id round-trips.
            for id in net.ids().collect::<Vec<_>>() {
                let idx = net.lookup(id).expect("live id resolves");
                assert_eq!(net.id_at(idx), Some(id), "case {case} round {round}");
            }
            // Routing over the churned arena still reaches ground truth
            // (and lazily repairs through the stale slot hints).
            for _ in 0..20 {
                let src = net.random_id(&mut rng).unwrap();
                let key = rng.gen_range(0..space.size());
                let out = route(&mut net, src, key, &latency, true);
                for p in &out.path {
                    assert!(net.contains(*p), "case {case}: dead node {p} on path");
                }
                if out.succeeded() {
                    assert_eq!(net.responsible_of(key), Some(out.terminal()));
                }
            }
        }
    }
}

/// Back-to-back rounds reusing the persistent `RoundScratch` leave no
/// *visible* stale state: per-slot queue counts are refreshed or zero,
/// the flat request arena partitions exactly into the touched buckets,
/// serve plans are re-planned for every bucket, the outbound-spend
/// ledger tracks its touched list, and generation-stamped buffer-map
/// snapshots either carry this round's stamp (alive node, matching
/// birth, epoch not ahead of the live buffer, bitmap equal on equal
/// epochs) or are invisible. Mirrors the PR-1 snapshot-epoch tests, now
/// over the whole scratch. Exercised across all three schedulers in the
/// static environment — where buffers mutate every round but membership
/// does not — via the `debug_check_scratch` hook after every round.
#[test]
fn round_scratch_reuse_leaves_no_stale_state() {
    for (scheduler, prefetch) in [
        (SchedulerKind::ContinuStreaming, true),
        (SchedulerKind::CoolStreaming, false),
        (SchedulerKind::Random, false),
    ] {
        let config = SystemConfig {
            nodes: 60,
            rounds: 30,
            startup_segments: 30,
            scheduler,
            prefetch_enabled: prefetch,
            seed: 0xA110C,
            ..SystemConfig::default()
        };
        let mut sim = SystemSim::new(config);
        for round in 0..30 {
            sim.debug_step(round);
            sim.debug_check_scratch();
        }
    }
}

/// The same invariants hold under dynamic churn, where arena slots are
/// freed and reused and stamped snapshots of departed lifetimes must
/// become invisible rather than alias the slot's next occupant.
#[test]
fn round_scratch_reuse_is_clean_under_churn() {
    for case in 0..6u64 {
        let config = SystemConfig {
            nodes: 50 + 10 * case as usize,
            rounds: 25,
            startup_segments: 30,
            seed: 0xC0FFEE + case,
            ..SystemConfig::default()
        }
        .with_dynamic_churn();
        let mut sim = SystemSim::new(config);
        for round in 0..25 {
            sim.debug_step(round);
            sim.debug_check_scratch();
        }
    }
}

/// Freed arena slots are reused before the slot vector grows, across
/// repeated leave/rejoin waves (no arena leak under sustained churn).
#[test]
fn dht_arena_reuses_free_slots() {
    for case in 0..16u64 {
        let mut rng = RngTree::new(0x5107).child_indexed("dht-slots", case);
        let space = IdSpace::new(10);
        let n = rng.gen_range(30usize..80);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            set.insert(rng.gen_range(0..space.size()));
        }
        let ids: Vec<DhtId> = set.into_iter().collect();
        let latency = |_: DhtId, _: DhtId| 10.0;
        let mut net = DhtNetwork::build(space, &ids, &latency, &mut rng);
        let cap = net.slot_count();
        assert_eq!(cap, n, "build allocates exactly n slots");
        for wave in 0..8 {
            let k = rng.gen_range(1usize..n / 2);
            let victims: Vec<DhtId> = net.ids().take(k).collect();
            for v in &victims {
                net.leave(*v);
            }
            assert_eq!(net.free_count(), k, "case {case} wave {wave}");
            let mut joined = 0;
            while joined < k {
                let id = rng.gen_range(0..space.size());
                if net.join(id, &latency, &mut rng).is_ok() {
                    joined += 1;
                }
            }
            assert_eq!(
                net.slot_count(),
                cap,
                "case {case} wave {wave}: rejoins must reuse freed slots"
            );
            assert_eq!(net.free_count(), 0, "case {case} wave {wave}");
        }
        net.check_invariants().unwrap();
    }
}

/// Every route in a well-built DHT terminates at the true owner within
/// the appendix hop bound. The randomness comes from the seeded RNG tree.
#[test]
fn routing_bound_holds_over_many_networks() {
    for seed in 0..4u64 {
        let tree = RngTree::new(seed);
        let mut rng = tree.child("net");
        let space = IdSpace::new(11); // N = 2048
        let mut used = std::collections::HashSet::new();
        let mut ids = Vec::new();
        while ids.len() < 400 {
            let id = rng.gen_range(0..space.size());
            if used.insert(id) {
                ids.push(id);
            }
        }
        let mut net = DhtNetwork::build(space, &ids, &|_, _| 10.0, &mut rng);
        let bound = continustreaming::analysis::routing_hop_upper_bound(space.bits());
        let mut lrng = tree.child("lookups");
        let mut ok = 0;
        for _ in 0..200 {
            let src = net.random_id(&mut lrng).expect("non-empty");
            let key = lrng.gen_range(0..space.size());
            let out = route(&mut net, src, key, &|_, _| 10.0, false);
            assert!(
                (out.hops() as f64) <= bound,
                "seed {seed}: {} hops exceeds the appendix bound {bound}",
                out.hops()
            );
            ok += u32::from(out.succeeded());
        }
        assert!(ok >= 190, "seed {seed}: success rate too low: {ok}/200");
    }
}

/// Policy-layer invariants over randomised deficits and knob settings:
/// the effective rescue cap is monotone non-decreasing in the runway
/// deficit, never below 1 while the deficit is positive, never above
/// the configured ceiling, and exactly the legacy `prefetch_cap` at
/// zero deficit.
#[test]
fn policy_rescue_cap_is_monotone_and_bounded() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0xADA9).child_indexed("rescue-cap", case);
        let policy = AdaptivePolicy {
            target_runway_rounds: rng.gen_range(1u64..12),
            deficit_per_extra_fetch: rng.gen_range(1u64..10),
            rescue_cap_max: rng.gen_range(1usize..40),
            suppress_slope: rng.gen_range(0usize..20),
            ..AdaptivePolicy::default()
        };
        policy.validate();
        let base_cap = rng.gen_range(1usize..12);
        let mut last_cap = 0usize;
        let mut last_threshold = 0usize;
        for deficit in 0..300u64 {
            let cap = policy.rescue_cap(base_cap, deficit);
            let threshold = policy.suppression_threshold(base_cap, deficit);
            assert!(
                cap >= 1,
                "case {case}: cap {cap} below 1 at deficit {deficit}"
            );
            assert!(
                cap <= policy.rescue_cap_max.max(base_cap),
                "case {case}: cap {cap} above ceiling at deficit {deficit}"
            );
            assert!(
                cap >= base_cap,
                "case {case}: adaptive must never rescue less than legacy \
                 (cap {cap} < base {base_cap} at deficit {deficit})"
            );
            assert!(
                cap >= last_cap,
                "case {case}: cap not monotone at deficit {deficit}"
            );
            assert!(
                threshold >= last_threshold,
                "case {case}: suppression threshold not monotone at deficit {deficit}"
            );
            assert!(
                threshold >= cap,
                "case {case}: threshold {threshold} below cap {cap} — a fetchable \
                 miss count would be suppressed"
            );
            if deficit == 0 {
                assert_eq!(
                    cap,
                    base_cap.max(1),
                    "case {case}: zero deficit must reproduce the legacy cutoff exactly"
                );
            }
            last_cap = cap;
            last_threshold = threshold;
        }
    }
}

/// The occupancy-adaptive window is never narrower than the legacy
/// window, never wider than the policy maximum, and monotone
/// non-increasing in occupancy; healthy occupancy reproduces the legacy
/// width exactly.
#[test]
fn policy_window_never_narrower_than_legacy() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0x71D0).child_indexed("window", case);
        let policy = AdaptivePolicy {
            occupancy_floor: rng.gen_range(0.05f64..1.0),
            lookahead_factor: rng.gen_range(1.0f64..4.0),
            ..AdaptivePolicy::default()
        };
        policy.validate();
        let legacy = rng.gen_range(1u64..600);
        let mut last = u64::MAX;
        for step in 0..=20u64 {
            let occ = step as f64 / 20.0;
            let w = policy.lookahead(legacy, occ);
            assert!(
                w >= legacy,
                "case {case}: window {w} narrower than legacy {legacy} at occ {occ}"
            );
            assert!(w <= policy.max_lookahead(legacy), "case {case}");
            assert!(
                w <= last,
                "case {case}: window must not widen as occupancy rises"
            );
            last = w;
        }
        assert_eq!(
            policy.lookahead(legacy, policy.occupancy_floor),
            legacy,
            "case {case}: at the floor the window is exactly legacy"
        );
        assert_eq!(policy.lookahead(legacy, 1.0), legacy, "case {case}");
    }
}

/// Adaptive rounds reusing the persistent `RoundScratch` (and the
/// scheduler scratch inside it) carry no policy state across rounds:
/// the scratch invariants hold after every round, and a fresh simulator
/// over the same config reproduces the run byte for byte — the policy
/// decisions are pure functions of per-round state, so scratch reuse
/// cannot leak them.
#[test]
fn adaptive_policy_state_resets_with_scratch_reuse() {
    let config = SystemConfig {
        nodes: 60,
        rounds: 30,
        startup_segments: 30,
        seed: 0xADA50,
        policy: PolicyKind::adaptive(),
        ..SystemConfig::default()
    }
    .with_dynamic_churn();
    let mut sim = SystemSim::new(config.clone());
    for round in 0..30 {
        sim.debug_step(round);
        sim.debug_check_scratch();
    }
    let a = SystemSim::new(config.clone()).run();
    let b = SystemSim::new(config).run();
    assert_eq!(a.rounds, b.rounds, "adaptive runs must reproduce");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// Same-round slot reuse must not dodge the active set: an abrupt
/// `Leave` frees the departed node's arena slot and an immediately
/// following `Join` hands that slot to the newcomer, so every per-slot
/// epoch stamp in the hot state (touch marks, classification caches,
/// map-empty flags) still describes the *previous* occupant. The touch
/// guard keys stamps on the slot's birth counter, so the joiner must be
/// force-planned rather than skipped — pinned here by running the same
/// scripted leave→join sequence with the active-set toggle on and off
/// and requiring bit-identical round records and per-node end states,
/// with the scratch invariants checked after every round.
#[test]
fn active_set_plans_joiners_reusing_a_slot_same_round() {
    for case in 0..12u64 {
        let script = |active_set: bool| {
            let config = SystemConfig {
                nodes: 60,
                rounds: 30,
                startup_segments: 30,
                seed: 0x510 + case,
                active_set,
                ..SystemConfig::default()
            };
            let mut sim = SystemSim::new(config);
            let source = sim.source_id();
            let mut reused = 0usize;
            for round in 0..30 {
                if round >= 5 && round % 3 == 2 {
                    // Deterministically pick a non-source victim; its slot
                    // is freed and the join below reuses it in the same
                    // round (LIFO free list).
                    let victims: Vec<_> = sim
                        .alive_ids()
                        .iter()
                        .copied()
                        .filter(|&id| id != source)
                        .collect();
                    let victim = victims[(case as usize + round as usize) % victims.len()];
                    let left = sim.apply_event(SystemEvent::Leave {
                        id: victim,
                        graceful: false,
                    });
                    let joined = sim.apply_event(SystemEvent::Join {
                        ping_ms: None,
                        bandwidth: None,
                    });
                    if left == EventOutcome::Applied && matches!(joined, EventOutcome::Joined(_)) {
                        reused += 1;
                    }
                }
                sim.debug_step(round);
                sim.debug_check_scratch();
            }
            assert!(
                reused >= 5,
                "case {case}: the script must actually churn slots (got {reused})"
            );
            (
                format!("{:?}", sim.records()),
                format!("{:?}", sim.debug_states()),
            )
        };
        let on = script(true);
        let off = script(false);
        assert_eq!(
            on.0, off.0,
            "case {case}: active-set run diverged on round records after \
             same-round leave→join slot reuse"
        );
        assert_eq!(
            on.1, off.1,
            "case {case}: active-set run left different per-node end state"
        );
    }
}

/// The arena's slot-indexed ping column follows slot reuse: a leave
/// frees a slot, the next join (LIFO free list) moves into it with a
/// different ping, and the boundary lookup must then return the new
/// occupant's ping while the departed id falls back to the 50 ms
/// default. `debug_check_scratch` asserts the column against every live
/// occupant after every round.
#[test]
fn ping_column_follows_slot_reuse() {
    let config = SystemConfig {
        nodes: 60,
        rounds: 30,
        startup_segments: 30,
        seed: 0x9196,
        ..SystemConfig::default()
    };
    let mut sim = SystemSim::new(config);
    let source = sim.source_id();
    let mut reused = 0usize;
    for round in 0..30u32 {
        if round >= 5 && round % 4 == 1 {
            let victims: Vec<_> = sim
                .alive_ids()
                .iter()
                .copied()
                .filter(|&id| id != source)
                .collect();
            let victim = victims[round as usize % victims.len()];
            let old_ping = sim.debug_ping_of_id(victim);
            let old_slot = sim.debug_slot_of(victim).expect("victim is alive");
            // A ping no trace-drawn node has, and never the 50 ms default.
            let new_ping = 321.5 + round as f64;
            assert_ne!(old_ping, new_ping);
            let left = sim.apply_event(SystemEvent::Leave {
                id: victim,
                graceful: round % 2 == 0,
            });
            assert_eq!(left, EventOutcome::Applied);
            let joined = sim.apply_event(SystemEvent::Join {
                ping_ms: Some(new_ping),
                bandwidth: None,
            });
            let EventOutcome::Joined(new_id) = joined else {
                panic!("round {round}: join rejected ({joined:?})");
            };
            assert_eq!(
                sim.debug_slot_of(new_id),
                Some(old_slot),
                "round {round}: the joiner must reuse the freed slot"
            );
            assert_eq!(sim.debug_ping_of_id(new_id), new_ping);
            if new_id != victim {
                assert_eq!(
                    sim.debug_ping_of_id(victim),
                    50.0,
                    "round {round}: a departed id must fall back to the default ping"
                );
            }
            reused += 1;
        }
        sim.debug_step(round);
        sim.debug_check_scratch();
    }
    assert!(reused >= 5, "the script must churn slots (got {reused})");
}

/// Recovery plane: the deterministic (jitter-free) retry backoff is
/// monotone non-decreasing in the attempt number and never below the
/// configured base, for arbitrary knob draws.
#[test]
fn recovery_backoff_is_monotone_and_bounded_below() {
    for case in 0..CASES {
        let mut rng = RngTree::new(0xFA017).child_indexed("backoff", case);
        let p = AdaptivePolicy {
            backoff_base_rounds: rng.gen_range(1u32..6),
            backoff_factor: rng.gen_range(1u32..5),
            ..AdaptivePolicy::default()
        };
        let mut last = 0u32;
        for attempt in 1..40u32 {
            let d = p.backoff_rounds(attempt);
            assert!(d >= p.backoff_base_rounds, "case {case}: delay below base");
            assert!(d >= last, "case {case}: backoff not monotone");
            last = d;
        }
    }
}

/// A chaotic-but-small workload arming every steady-state injector and
/// the full recovery plane (incl. origin fallback and frontier push).
fn chaos_config(seed: u64) -> SystemConfig {
    SystemConfig {
        nodes: 120,
        rounds: 40,
        startup_segments: 30,
        seed,
        faults: FaultPlan {
            crash_rate: 0.01,
            data_loss: 0.05,
            control_loss: 0.05,
            delay_prob: 0.02,
            delay_ms: 80.0,
        },
        policy: PolicyKind::Adaptive(AdaptivePolicy {
            source_rescue_cap: 2,
            source_push: 4,
            ..AdaptivePolicy::default()
        }),
        ..SystemConfig::default()
    }
}

/// Same seed ⇒ byte-identical fault trace (records *and* chained
/// digest); a different seed produces a different fault history.
#[test]
fn fault_trace_is_byte_identical_across_runs() {
    let mut a = SystemSim::new(chaos_config(11));
    let mut b = SystemSim::new(chaos_config(11));
    for round in 0..40 {
        a.debug_step(round);
        b.debug_step(round);
    }
    assert!(!a.fault_trace().is_empty(), "the armed plane must record");
    assert_eq!(a.fault_trace(), b.fault_trace());
    assert_eq!(a.fault_trace().digest(), b.fault_trace().digest());
    let mut c = SystemSim::new(chaos_config(12));
    for round in 0..40 {
        c.debug_step(round);
    }
    assert_ne!(
        a.fault_trace().digest(),
        c.fault_trace().digest(),
        "different seed must produce a different fault history"
    );
}

/// Causal bounds on the recovery counters, per round and globally: a
/// retry only ever follows a timeout firing, the per-loss retry budget
/// is `retry_max`, and time-to-recover deltas never exceed the round
/// index they were measured at.
#[test]
fn recovery_counters_respect_causal_bounds() {
    let config = chaos_config(5);
    let retry_max = config.policy.as_adaptive().unwrap().retry_max as u64;
    let mut sim = SystemSim::new(config);
    for round in 0..40 {
        sim.debug_step(round);
    }
    let trace = sim.fault_trace();
    assert_eq!(trace.rounds.len(), 40, "one record per stepped round");
    let mut losses = 0u64;
    let mut retries = 0u64;
    for rec in &trace.rounds {
        assert!(
            rec.retries <= rec.timeouts,
            "round {}: {} retries but only {} timeouts",
            rec.round,
            rec.retries,
            rec.timeouts
        );
        assert!(
            rec.recovery_rounds <= rec.recoveries as u64 * rec.round as u64,
            "round {}: time-to-recover exceeds elapsed time",
            rec.round
        );
        losses += (rec.data_losses + rec.control_losses) as u64;
        retries += rec.retries as u64;
    }
    assert!(losses > 0, "the 5% loss rates must inject something");
    assert!(
        retries <= retry_max * losses,
        "{retries} retries exceed the {retry_max}-per-loss budget on {losses} losses"
    );
}

/// Crash containment: a crashed (silently dark) node may linger in
/// neighbour sets only *within* the round it died — by the end of every
/// round the liveness machinery has dropped it, so nothing schedules
/// against or serves from a dark supplier. Crashes must actually occur
/// for the test to mean anything.
#[test]
fn crashed_nodes_never_remain_connected_after_the_round() {
    let mut sim = SystemSim::new(chaos_config(21));
    for round in 0..40 {
        sim.debug_step(round);
        assert!(
            sim.debug_neighbors_alive(),
            "round {round}: a dark supplier stayed connected"
        );
    }
    let crashes: u32 = sim.fault_trace().rounds.iter().map(|r| r.crashes).sum();
    assert!(crashes > 0, "no crash was ever injected");
}

/// The fault trace is bit-identical at every parallel fan-out width —
/// all fault and recovery draws live in serial phases.
#[cfg(feature = "parallel")]
#[test]
fn fault_trace_is_identical_at_any_worker_count() {
    let serial = {
        let mut c = chaos_config(31);
        c.parallel_threads = Some(1);
        let mut sim = SystemSim::new(c);
        for round in 0..40 {
            sim.debug_step(round);
        }
        sim.fault_trace().clone()
    };
    assert!(!serial.is_empty());
    for threads in [2usize, 4, 8] {
        let mut c = chaos_config(31);
        c.parallel_threads = Some(threads);
        let mut sim = SystemSim::new(c);
        for round in 0..40 {
            sim.debug_step(round);
        }
        assert_eq!(
            &serial,
            sim.fault_trace(),
            "fault trace drifted at {threads} threads"
        );
    }
}
