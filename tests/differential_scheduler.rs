//! Cross-profile golden pin for the timing-wheel event calendar.
//!
//! The legacy `BinaryHeap` calendar soaked in-tree for one PR as the
//! differential oracle and has since been deleted; what remains is the
//! strongest surviving check: the blessed golden traces were originally
//! produced by the legacy heap, and the wheel must keep regenerating
//! them byte-for-byte. CI runs this suite twice — debug in the main test
//! job and release in the `differential` job — so it also pins
//! `--release` codegen against the blessed bytes.
//!
//! Beside the bytes it pins each golden trial's simulator event count
//! ([`GOLDEN_SIM_EVENTS`]): work on the hot path may make an event
//! cheaper, but a change that makes them *fewer* (or more) has changed
//! what is simulated, even if the 100 ms telemetry happens not to show it.

use prudentia_cc::CcaKind;
use prudentia_check::golden::{
    default_golden_dir, golden_setting, render_csv, GOLDEN_CCAS, GOLDEN_SEED,
};
use prudentia_check::run_solo;
use prudentia_core::NetworkSetting;

/// Events each golden trial processes, in [`GOLDEN_CCAS`] order, recorded
/// on the commit before the sent-packet ring and the 2¹⁸ ns wheel tick
/// (the `BTreeMap` transport on the 4096 ns wheel). Re-record only with
/// a change that is meant to alter the event schedule, and say so.
const GOLDEN_SIM_EVENTS: [(&str, u64); 8] = [
    ("newreno", 102_176),
    ("cubic", 102_923),
    ("bbr_v1_linux515", 119_601),
    ("bbr_v3", 118_195),
    ("gcc", 37_130),
    ("ledbatpp", 102_622),
    ("bbr_v2", 119_600),
    ("prague", 62_740),
];

#[test]
fn wheel_matches_blessed_golden_bytes_cross_profile() {
    // The blessed golden files were produced by the legacy heap; the
    // timing wheel must regenerate them byte-for-byte, in both codegen
    // profiles.
    let setting = NetworkSetting::highly_constrained();
    let golden = default_golden_dir().join("cubic.csv");
    let blessed = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden.display()));
    let run = run_solo(
        CcaKind::Cubic,
        &setting,
        GOLDEN_SEED,
        prudentia_check::golden::GOLDEN_DURATION,
    );
    assert_eq!(
        render_csv(&run.rows),
        blessed,
        "timing wheel drifted from the blessed cubic golden trace"
    );
}

#[test]
fn wheel_matches_every_blessed_golden_at_the_golden_pin() {
    // All golden CCAs at the golden seed, duration, and per-CCA setting
    // (Prague runs behind DualPI2): the exact configuration the tier-1
    // golden suite pins, regenerated here so a calendar regression in any
    // CCA's event pattern fails in this suite too (release profile
    // included).
    let mut sim_events = Vec::new();
    for &(kind, stem) in GOLDEN_CCAS.iter() {
        let setting = golden_setting(kind);
        let golden = default_golden_dir().join(format!("{stem}.csv"));
        let blessed = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden.display()));
        let run = run_solo(
            kind,
            &setting,
            GOLDEN_SEED,
            prudentia_check::golden::GOLDEN_DURATION,
        );
        assert_eq!(
            render_csv(&run.rows),
            blessed,
            "{stem}: timing wheel drifted from the blessed golden trace"
        );
        sim_events.push((stem, run.sim_events));
    }
    assert_eq!(
        sim_events, GOLDEN_SIM_EVENTS,
        "golden trials processed a different number of simulator events"
    );
}
