//! Checkpoint/replay contract tests over the whole stack:
//!
//! * checkpoint → restore → run equals the uninterrupted run, for random
//!   seeds, checkpoint slots and event mixes (property tests);
//! * a snapshot's JSON round-trip is lossless down to the last weight and
//!   RNG word (canonical bytes in, identical bytes out).
//!
//! The `RAYON_NUM_THREADS` determinism gate lives in its own single-test
//! binary (`crates/replay/tests/thread_determinism.rs`): toggling the
//! variable is only safe when no other test in the process reads it
//! concurrently.

use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use onslicing::nn::{Activation, Mlp};
use onslicing::replay::{Checkpoint, TelemetryRecorder};
use onslicing::scenario::{Scenario, ScenarioConfig, ScenarioEngine, ScenarioEvent, SliceSpec};
use onslicing::slices::SliceKind;

/// A CI-scale two-slice scenario with an optional burst + fault mix.
fn quick_scenario(with_events: bool) -> Scenario {
    let mut scenario = Scenario::new("ckpt-quick", 8, 20)
        .slice(SliceSpec::new(SliceKind::Mar))
        .slice(SliceSpec::new(SliceKind::Rdc));
    if with_events {
        scenario = scenario
            .at(
                3,
                ScenarioEvent::TrafficBurst {
                    slice: 0,
                    scale: 1.7,
                    duration_slots: 5,
                },
            )
            .at(
                6,
                ScenarioEvent::DomainFault {
                    domain: onslicing::domains::DomainKind::Transport,
                    capacity_scale: 0.7,
                    duration_slots: 6,
                },
            );
    }
    scenario
}

fn config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        ..ScenarioConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole contract: interrupting a run at any slot, serializing
    /// the engine to JSON and restoring it into a fresh engine reproduces
    /// the remaining slots' telemetry exactly — same per-slot costs,
    /// rewards, λ values and episode outcomes as the uninterrupted run.
    #[test]
    fn checkpoint_restore_step_equals_uninterrupted_run(
        seed in 0u64..1_000,
        checkpoint_slot in 2usize..18,
        event_mix in 0usize..2,
    ) {
        let scenario = quick_scenario(event_mix == 1);

        let mut reference = ScenarioEngine::new(scenario.clone(), config(seed)).unwrap();
        let mut full = TelemetryRecorder::new(&reference);
        let ref_report = reference.run_with_observer(&mut full);
        let full_trace = full.finalize();

        let mut engine = ScenarioEngine::new(scenario, config(seed)).unwrap();
        engine.run_until(checkpoint_slot, &mut ());
        let checkpoint = Checkpoint::capture(&engine);
        drop(engine);
        let mut restored = Checkpoint::from_json(&checkpoint.to_json()).unwrap().restore();
        prop_assert_eq!(restored.current_slot(), checkpoint_slot);
        let mut tail = TelemetryRecorder::new(&restored);
        let resumed_report = restored.run_with_observer(&mut tail);
        let tail_trace = tail.finalize();

        prop_assert_eq!(ref_report, resumed_report);
        let (expected_slots, expected_episodes) = full_trace.suffix_from(checkpoint_slot);
        prop_assert_eq!(&tail_trace.slots, &expected_slots);
        prop_assert_eq!(&tail_trace.episodes, &expected_episodes);
    }

    /// A snapshot JSON round-trip is lossless: deserializing and
    /// re-serializing a mid-run engine reproduces the checkpoint byte for
    /// byte (BTreeMap-backed state makes the representation canonical), so
    /// every network weight, Adam moment and RNG stream survives exactly.
    #[test]
    fn snapshot_json_round_trip_is_byte_lossless(seed in 0u64..1_000) {
        let mut engine = ScenarioEngine::new(quick_scenario(true), config(seed)).unwrap();
        engine.run_until(5, &mut ());
        let json = serde_json::to_string(&engine).unwrap();
        let restored: ScenarioEngine = serde_json::from_str(&json).unwrap();
        let rejson = serde_json::to_string(&restored).unwrap();
        prop_assert_eq!(json, rejson);
    }

    /// Weight-level exactness: an MLP's parameters survive the JSON round
    /// trip bit for bit, and a mid-block ChaCha8 stream resumes on the
    /// exact next word.
    #[test]
    fn weights_and_rng_streams_round_trip_exactly(seed in 0u64..1_000_000_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mlp = Mlp::new(&[6, 12, 4], Activation::Tanh, Activation::Sigmoid, &mut rng);
        let back: Mlp = serde_json::from_str(&serde_json::to_string(&mlp).unwrap()).unwrap();
        prop_assert_eq!(mlp.parameters(), back.parameters());

        rng.next_u32(); // odd offset: the restored stream must continue mid-block
        let mut restored: ChaCha8Rng =
            serde_json::from_str(&serde_json::to_string(&rng).unwrap()).unwrap();
        for _ in 0..32 {
            prop_assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }
}

/// Checkpoints written before `Dense` lost its per-sample caches carry two
/// (always empty) arrays per dense layer, under the same format version.
/// Such a file must restore and resume exactly like the one this build
/// writes.
#[test]
fn parent_format_checkpoint_with_dense_cache_keys_resumes_bit_for_bit() {
    let mut engine = ScenarioEngine::new(quick_scenario(true), config(11)).unwrap();
    engine.run_until(9, &mut ());
    let json = Checkpoint::capture(&engine).to_json();
    drop(engine);

    let mut doctored = json.clone();
    let mut dense_layers = 0;
    for act in ["Relu", "Sigmoid", "Tanh", "Identity"] {
        let tail = format!(r#""activation":"{act}"}}"#);
        dense_layers += json.matches(&tail).count();
        doctored = doctored.replace(
            &tail,
            &format!(r#""activation":"{act}","cached_input":[],"cached_pre_activation":[]}}"#),
        );
    }
    // Two slices, each with a three-layer policy mean net and critic.
    assert_eq!(dense_layers, 12, "dense layers found in the checkpoint");

    let resume = |text: &str| {
        let mut restored = Checkpoint::from_json(text).unwrap().restore();
        let mut tail = TelemetryRecorder::new(&restored);
        let report = restored.run_with_observer(&mut tail);
        // Every weight, Adam moment, buffer, RNG stream and run counter at
        // the end of the run.
        let end_state = serde_json::to_string(&restored).unwrap();
        (report, tail.finalize(), end_state)
    };
    let (report, trace, end_state) = resume(&json);
    let (old_report, old_trace, old_end_state) = resume(&doctored);
    assert_eq!(report, old_report);
    assert_eq!(trace.slots, old_trace.slots);
    assert_eq!(trace.episodes, old_trace.episodes);
    assert_eq!(end_state, old_end_state);
}
