//! Periodogram power-spectral-density estimation (Eq. 13–16).
//!
//! The periodogram estimator `φ_p(ω) = (1/N)|Σ_t y(t)·e^{-jωt}|²` is
//! computed with the FFT at the canonical frequency samples
//! `ω_k = 2πk/N` (Eq. 15), and a band-power helper summarises the
//! per-antenna power that forms the paper's `n × N` periodogram frame.

use crate::fft::fft_in_buffer;
use crate::window::Window;
use crate::{Complex, DspError};
use std::cell::RefCell;

/// Per-thread scratch for [`periodogram_into`]: the FFT work buffer and
/// a one-entry taper cache (window coefficients plus their power
/// normaliser, keyed by `(window, n)`). Periodograms are computed at a
/// handful of fixed lengths per pipeline, so a last-used cache hits
/// almost always; the cached values are recomputed by the very same
/// calls on a miss, keeping results bitwise identical.
#[derive(Default)]
struct PeriodogramScratch {
    taper: Option<(Window, usize, Vec<f64>, f64)>,
    buf: Vec<Complex>,
}

thread_local! {
    static PERIODOGRAM_SCRATCH: RefCell<PeriodogramScratch> =
        RefCell::new(PeriodogramScratch::default());
}

/// A one-sided summary of the PSD of a complex record.
#[derive(Debug, Clone, PartialEq)]
pub struct Psd {
    /// Normalised frequencies `ω_k/2π = k/N` for each bin.
    pub freqs: Vec<f64>,
    /// Power density at each bin (linear scale).
    pub power: Vec<f64>,
}

impl Psd {
    /// Total power: `Σ power / N`, equal to the mean squared magnitude
    /// of the record by Parseval's theorem.
    pub fn total_power(&self) -> f64 {
        if self.power.is_empty() {
            return 0.0;
        }
        self.power.iter().sum::<f64>() / self.power.len() as f64
    }

    /// Index and value of the strongest bin.
    ///
    /// Returns `None` for an empty spectrum.
    pub fn dominant(&self) -> Option<(usize, f64)> {
        self.power
            .iter()
            .cloned()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite power"))
    }
}

/// Computes the raw (single-record) periodogram of a complex sequence.
///
/// With `Window::Rect` this is exactly Eq. (14) evaluated at the
/// frequency samples of Eq. (15); other windows apply the taper and a
/// power-preserving normalisation.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn periodogram(data: &[Complex], window: Window) -> Result<Psd, DspError> {
    let mut out = Psd {
        freqs: Vec::new(),
        power: Vec::new(),
    };
    periodogram_into(data, window, &mut out)?;
    Ok(out)
}

/// In-place variant of [`periodogram`]: writes into `out`, reusing its
/// `freqs`/`power` storage and a per-thread FFT buffer and taper cache,
/// so steady-state callers allocate nothing (power-of-two lengths) per
/// record. Bitwise identical to [`periodogram`]. On error, `out` is
/// untouched.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn periodogram_into(data: &[Complex], window: Window, out: &mut Psd) -> Result<(), DspError> {
    if data.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let n = data.len();
    PERIODOGRAM_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let scratch = &mut *scratch;
        let hit = matches!(&scratch.taper, Some((w, len, _, _)) if *w == window && *len == n);
        if !hit {
            let coeffs = window.coefficients(n);
            let norm = window.power(n).max(1e-300);
            scratch.taper = Some((window, n, coeffs, norm));
        }
        let (_, _, coeffs, norm) = scratch.taper.as_ref().expect("taper just cached");
        scratch.buf.clear();
        scratch
            .buf
            .extend(data.iter().zip(coeffs).map(|(z, &wi)| z.scale(wi)));
        fft_in_buffer(&mut scratch.buf);
        out.power.clear();
        out.power
            .extend(scratch.buf.iter().map(|z| z.norm_sqr() / norm));
        out.freqs.clear();
        out.freqs.extend((0..n).map(|k| k as f64 / n as f64));
    });
    Ok(())
}

/// Computes the periodogram of a real-valued sequence.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn periodogram_real(data: &[f64], window: Window) -> Result<Psd, DspError> {
    let complex: Vec<Complex> = data.iter().map(|&v| Complex::new(v, 0.0)).collect();
    periodogram(&complex, window)
}

/// Mean power of a complex record: `(1/N)·Σ|y(t)|²`.
///
/// This is the per-antenna scalar the paper's periodogram frame
/// (`n_tags × n_antennas`, Fig. 5(d)) stores; by Parseval it equals the
/// average of the periodogram bins.
pub fn mean_power(data: &[Complex]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().map(|z| z.norm_sqr()).sum::<f64>() / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, cycles: usize, amp: f64) -> Vec<Complex> {
        (0..n)
            .map(|t| {
                Complex::from_polar(
                    amp,
                    2.0 * std::f64::consts::PI * (cycles * t) as f64 / n as f64,
                )
            })
            .collect()
    }

    #[test]
    fn tone_dominates_correct_bin() {
        let x = tone(64, 7, 2.0);
        let psd = periodogram(&x, Window::Rect).unwrap();
        assert_eq!(psd.dominant().unwrap().0, 7);
    }

    #[test]
    fn parseval_total_power() {
        let x = tone(32, 3, 1.5);
        let psd = periodogram(&x, Window::Rect).unwrap();
        let time_power = mean_power(&x);
        assert!((psd.total_power() - time_power).abs() < 1e-9);
    }

    #[test]
    fn windowing_preserves_tone_power_estimate_order() {
        // A Hann-windowed tone still dominates its bin neighbourhood.
        let x = tone(128, 20, 1.0);
        let psd = periodogram(&x, Window::Hann).unwrap();
        let (k, _) = psd.dominant().unwrap();
        assert!((k as i64 - 20).unsigned_abs() <= 1);
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(periodogram(&[], Window::Rect), Err(DspError::EmptyInput));
        assert!(periodogram_real(&[], Window::Rect).is_err());
        assert_eq!(mean_power(&[]), 0.0);
    }

    #[test]
    fn real_signal_periodogram_symmetric() {
        let x: Vec<f64> = (0..64).map(|t| (t as f64 * 0.4).sin()).collect();
        let psd = periodogram_real(&x, Window::Rect).unwrap();
        let n = psd.power.len();
        for k in 1..n {
            assert!((psd.power[k] - psd.power[n - k]).abs() < 1e-9);
        }
    }

    #[test]
    fn dominant_none_for_empty() {
        let psd = Psd {
            freqs: vec![],
            power: vec![],
        };
        assert!(psd.dominant().is_none());
        assert_eq!(psd.total_power(), 0.0);
    }
}
