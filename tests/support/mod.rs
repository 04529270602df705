//! Fixtures shared by the integration tests: the one-tag test layout,
//! its frame builder and model, and the deterministic LCG payloads.
//!
//! Each test binary compiles this module on its own and uses a subset
//! of it, hence the `dead_code` allowance.

#![allow(dead_code)]

use m2ai::core::calibration::PhaseCalibrator;
use m2ai::core::frames::{FeatureMode, FrameBuilder, FrameLayout};
use m2ai::core::network::{build_model, Architecture};
use m2ai::nn::model::SequenceClassifier;

/// One tag, four antennas, joint features.
pub fn layout() -> FrameLayout {
    FrameLayout::new(1, 4, FeatureMode::Joint)
}

/// Builder over [`layout`] with calibration disabled and 0.5 s frames.
pub fn builder() -> FrameBuilder {
    FrameBuilder::new(layout(), PhaseCalibrator::disabled(1, 4), 0.5)
}

/// The 12-class model for [`layout`] (seed 7).
pub fn model(arch: Architecture) -> SequenceClassifier {
    build_model(&layout(), 12, arch, 7)
}

/// `n` deterministic pseudo-random values in `(-1, 1)` from an LCG
/// started at `seed | 1`.
pub fn lcg_values(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 23) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Deterministic frame payload of stream `seed` at `step`, one
/// [`layout`] frame of [`lcg_values`].
pub fn synth_frame(seed: u64, step: usize) -> Vec<f32> {
    lcg_values(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(step as u64),
        layout().frame_dim(),
    )
}
