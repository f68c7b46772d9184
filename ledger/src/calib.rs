//! Calibration against the neighbours' load: a reference sample run in the
//! same seconds as the iterations, used as a control variate.
//!
//! The 2-core box this benchmark was sized on is a shared virtual machine.
//! Its speed moves by a third and more from one minute to the next — every
//! workload slows and recovers together, and so does a plain Python loop —
//! while the iterations inside one 15 s run agree to a few percent. Ten runs
//! of one workload spread (interquartile ÷ median) by 18–40 %, beyond any
//! bound a benchmark may declare, and no statistic of a run's own iteration
//! times takes that out. A fixed piece of harness-owned work timed between
//! the iterations sees the same neighbours. It is more exposed to them than
//! the program is (it is all throughput; the program also waits, schedules
//! and allocates), so the correction is `time × (NOMINAL ÷ reference)^0.5`:
//! over fifty runs the logarithm of each workload's iteration time followed
//! the logarithm of the reference with slopes of 0.4 to 0.7, and the one
//! exponent 0.5 brought every workload's spread from 24–30 % to 4–11 %.
//! On a quiet machine the reference does not move and the correction is a
//! constant factor.
//!
//! The reference shares no code with the program (a change to
//! `tiled::kernel` must not move the unit) and mixes what the program
//! mixes: vectorizable arithmetic, streaming memory traffic and tile-sized
//! allocations, on as many threads as the session has workers. Uncorrected
//! times are always printed beside the corrected ones.

use std::hint::black_box;
use std::time::{Duration, Instant};

const DIM: usize = 128;
const STREAM: usize = 2 << 20;

struct Lane {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    src: Vec<f64>,
    dst: Vec<f64>,
}

impl Lane {
    fn new(k: usize) -> Lane {
        let ramp = |n: usize, step: f64| (0..n).map(|i| (i % 13) as f64 * step).collect();
        Lane {
            a: ramp(DIM * DIM, 0.25 + k as f64),
            b: ramp(DIM * DIM, 0.5),
            c: vec![0.0; DIM * DIM],
            src: ramp(STREAM, 0.125),
            dst: vec![0.0; STREAM],
        }
    }

    fn work(&mut self) {
        // Arithmetic: 48 products of 128×128 tiles, row-times-scalar form so
        // the compiler vectorizes the inner loop; operands stay in L2.
        for _ in 0..48 {
            for i in 0..DIM {
                let c_row = &mut self.c[i * DIM..(i + 1) * DIM];
                for k in 0..DIM {
                    let a_ik = self.a[i * DIM + k];
                    let b_row = &self.b[k * DIM..(k + 1) * DIM];
                    for (c, b) in c_row.iter_mut().zip(b_row) {
                        *c = *c * 0.999 + a_ik * b;
                    }
                }
            }
        }
        // Memory: eight passes over 2 × 16 MB, past every cache level.
        for _ in 0..8 {
            for (d, s) in self.dst.iter_mut().zip(&self.src) {
                *d = *d * 0.5 + s;
            }
        }
        // Allocation: 192 tile-sized buffers made, filled and dropped.
        for i in 0..192 {
            black_box(vec![i as f64; DIM * DIM]);
        }
        black_box((&self.c, &self.dst));
    }
}

pub struct Reference {
    lanes: Vec<Lane>,
}

impl Reference {
    pub fn new(threads: usize) -> Reference {
        Reference {
            lanes: (0..threads).map(Lane::new).collect(),
        }
    }

    /// Run the fixed work once on every lane in parallel; returns its wall.
    pub fn sample(&mut self) -> Duration {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for lane in &mut self.lanes {
                scope.spawn(|| lane.work());
            }
        });
        start.elapsed()
    }
}

/// The reference's median wall on the dev box when the neighbours are idle:
/// corrected times read as milliseconds at that speed.
const NOMINAL_MS: f64 = 40.0;
/// Share of the reference's slowdown (in the logarithm) that the program's
/// iterations were measured to follow.
const SENSITIVITY: f64 = 0.5;
/// At most one sample per this much wall time, so that the samples cost
/// about a tenth of a run however short the workload's iterations are.
const EVERY: Duration = Duration::from_millis(600);

/// Reference samples taken through one run.
pub struct Calibration {
    reference: Reference,
    last: Option<Instant>,
    samples_ms: Vec<f64>,
}

impl Calibration {
    pub fn new(threads: usize) -> Calibration {
        Calibration {
            reference: Reference::new(threads),
            last: None,
            samples_ms: Vec::new(),
        }
    }

    pub fn sample(&mut self) {
        let wall = self.reference.sample();
        self.samples_ms.push(wall.as_secs_f64() * 1e3);
        self.last = Some(Instant::now());
    }

    pub fn sample_if_due(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// Median reference wall of the run, ms.
    pub fn reference_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms)
    }

    /// The factor that turns a wall time of this run into a corrected one.
    pub fn factor(&self) -> f64 {
        correction(self.reference_ms())
    }
}

fn correction(reference_ms: f64) -> f64 {
    if reference_ms > 0.0 {
        (NOMINAL_MS / reference_ms).powf(SENSITIVITY)
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_does_its_work_on_every_lane() {
        let mut reference = Reference::new(2);
        assert!(reference.sample() > Duration::ZERO);
        for lane in &reference.lanes {
            assert!(lane.c.iter().all(|v| v.is_finite()));
            assert!(lane.c.iter().any(|v| *v != 0.0));
            assert!(lane.dst.iter().skip(1).any(|v| *v != 0.0));
        }
    }

    #[test]
    fn correction_charges_half_the_slowdown() {
        assert_eq!(correction(NOMINAL_MS), 1.0);
        assert!((correction(4.0 * NOMINAL_MS) - 0.5).abs() < 1e-12);
        assert!((correction(NOMINAL_MS / 4.0) - 2.0).abs() < 1e-12);
        assert_eq!(correction(0.0), 1.0);
        let mut calibration = Calibration::new(1);
        calibration.sample();
        calibration.sample_if_due();
        assert_eq!(
            calibration.samples_ms.len(),
            1,
            "second sample is not due yet"
        );
        assert!(calibration.factor() > 0.0);
    }
}
