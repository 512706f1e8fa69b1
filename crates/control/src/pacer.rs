//! The adaptive epoch pacer: an AIMD/hysteresis controller for epoch (and
//! sequencer-batch) durations.
//!
//! The paper frames epoch duration as ECC's central latency/throughput
//! tradeoff (§II, §V): a longer epoch amortizes the switch cost over more
//! transactions, a shorter one bounds the delay until the next epoch's reads
//! and commit visibility. The [`AdaptivePacer`] closes the loop over signals
//! the engines already export — epoch-switch duration, executor queue depth,
//! functor-computing backlog — folding them into a single dimensionless
//! *pressure* and steering the duration inside `[min, max]`:
//!
//! * pressure above the high watermark → the pipeline is congested (or the
//!   switch overhead dominates the epoch), so *multiplicatively lengthen*
//!   the epoch to amortize switches and let the backlog drain in larger
//!   batches;
//! * pressure below the low watermark → the system has headroom, so
//!   *additively shorten* toward the latency-optimal minimum;
//! * pressure inside the `[low, high]` band → hold (the hysteresis band
//!   prevents limit-cycle oscillation between the two actions).
//!
//! Multiplicative-on-lengthen / additive-on-shorten is deliberate: backing
//! off must outrun a growing queue, while chasing lower latency may only
//! creep so a brief lull cannot collapse the epoch and re-trigger overload.

use std::sync::Arc;
use std::time::Duration;

use aloha_common::metrics::{duration_micros, Gauge};
use aloha_epoch::Pacer;

/// Instantaneous backpressure readings fed to the controller.
///
/// All fields are levels (not rates); zero means idle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacerSample {
    /// Entries queued toward the executor lanes (backend data plane).
    pub exec_queue: u64,
    /// Transactions parked in the functor-computing stage (FE side).
    pub backlog: u64,
}

/// Where the pacer reads its signals: any `Fn` closure sampling live engine
/// state (queue lengths, pending vectors) works.
pub trait SignalSource: Send + 'static {
    /// Takes one instantaneous reading.
    fn sample(&self) -> PacerSample;
}

impl<F: Fn() -> PacerSample + Send + 'static> SignalSource for F {
    fn sample(&self) -> PacerSample {
        self()
    }
}

/// Whether the epoch duration is feedback-governed or pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacingMode {
    /// Every epoch uses the configured initial duration — bit-for-bit the
    /// pre-control-plane behavior, and the ablation baseline.
    Fixed,
    /// AIMD/hysteresis adaptation inside `[min, max]`.
    Adaptive,
}

/// Controller parameters.
#[derive(Debug, Clone)]
pub struct PacerConfig {
    /// Fixed vs adaptive operation.
    pub mode: PacingMode,
    /// Starting (and `Fixed`-mode) epoch duration.
    pub initial: Duration,
    /// Shortest epoch the controller may choose.
    pub min: Duration,
    /// Longest epoch the controller may choose.
    pub max: Duration,
    /// Additive shorten step applied per epoch while pressure is low.
    pub shorten_step: Duration,
    /// Multiplicative lengthen factor applied while pressure is high (> 1).
    pub lengthen_factor: f64,
    /// Pressure below which the controller shortens.
    pub low_watermark: f64,
    /// Pressure above which the controller lengthens.
    pub high_watermark: f64,
    /// Executor queue depth that maps to pressure 1.0.
    pub exec_queue_target: u64,
    /// Functor-computing backlog that maps to pressure 1.0.
    pub backlog_target: u64,
    /// Switch-overhead fraction (switch time / epoch time) that maps to
    /// pressure 1.0; epochs lengthen when switches stop amortizing.
    pub switch_overhead_target: f64,
}

impl PacerConfig {
    /// The `Fixed` configuration at `initial` — today's behavior.
    pub fn fixed(initial: Duration) -> PacerConfig {
        PacerConfig {
            mode: PacingMode::Fixed,
            ..PacerConfig::adaptive(initial)
        }
    }

    /// An adaptive configuration centered on `initial`, with the bounds and
    /// gains used throughout the workspace: `[initial/5, initial*4]`,
    /// shorten by `initial/10` per quiet epoch, lengthen ×1.5 per congested
    /// one, hysteresis band `[0.5, 1.0]`.
    pub fn adaptive(initial: Duration) -> PacerConfig {
        PacerConfig {
            mode: PacingMode::Adaptive,
            initial,
            min: initial / 5,
            max: initial * 4,
            shorten_step: initial / 10,
            lengthen_factor: 1.5,
            low_watermark: 0.5,
            high_watermark: 1.0,
            exec_queue_target: 256,
            backlog_target: 256,
            switch_overhead_target: 0.2,
        }
    }

    /// Overrides the clamp bounds.
    pub fn with_bounds(mut self, min: Duration, max: Duration) -> PacerConfig {
        self.min = min;
        self.max = max;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`aloha_common::Error::Config`] when the bounds are inverted,
    /// `initial` lies outside them, the gains are degenerate, or the
    /// watermarks do not form a band.
    pub fn validate(&self) -> aloha_common::Result<()> {
        let err = |msg: &str| Err(aloha_common::Error::Config(msg.to_string()));
        if self.min.is_zero() || self.min > self.max {
            return err("pacer bounds must satisfy 0 < min <= max");
        }
        if self.initial < self.min || self.initial > self.max {
            return err("pacer initial duration must lie within [min, max]");
        }
        if self.mode == PacingMode::Adaptive {
            if self.lengthen_factor <= 1.0 {
                return err("pacer lengthen factor must exceed 1");
            }
            if self.shorten_step.is_zero() {
                return err("pacer shorten step must be positive");
            }
            if !(0.0 < self.low_watermark && self.low_watermark <= self.high_watermark) {
                return err("pacer watermarks must satisfy 0 < low <= high");
            }
        }
        Ok(())
    }
}

/// Gauges exporting the pacer's live state into the `control` stats node.
#[derive(Debug, Default)]
pub struct PacerGauges {
    /// The duration most recently handed to the epoch manager, in µs.
    pub epoch_duration_micros: Gauge,
    /// The most recent pressure reading, in thousandths (pressure × 1000).
    pub pressure_millis: Gauge,
}

/// The AIMD/hysteresis controller. Implements [`aloha_epoch::Pacer`], so the
/// epoch manager consults it before every grant; Calvin's sequencer drives
/// it once per batch round through the same trait.
pub struct AdaptivePacer {
    cfg: PacerConfig,
    current: Duration,
    source: Box<dyn SignalSource>,
    gauges: Arc<PacerGauges>,
    last_switch: Duration,
}

impl std::fmt::Debug for AdaptivePacer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptivePacer")
            .field("mode", &self.cfg.mode)
            .field("current", &self.current)
            .finish()
    }
}

impl AdaptivePacer {
    /// Builds a controller reading signals from `source` and exporting its
    /// state through `gauges`.
    ///
    /// # Errors
    ///
    /// Propagates [`PacerConfig::validate`] failures.
    pub fn new(
        cfg: PacerConfig,
        source: impl SignalSource,
        gauges: Arc<PacerGauges>,
    ) -> aloha_common::Result<AdaptivePacer> {
        cfg.validate()?;
        let current = cfg.initial;
        gauges.epoch_duration_micros.set(duration_micros(current));
        Ok(AdaptivePacer {
            cfg,
            current,
            source: Box::new(source),
            gauges,
            last_switch: Duration::ZERO,
        })
    }

    /// The normalized pressure for `sample` given the most recent switch
    /// measurement: the *maximum* of the per-signal ratios, so the most
    /// congested resource governs (bottleneck semantics — averaging would
    /// let an idle signal mask a saturated one).
    fn pressure(&self, sample: PacerSample) -> f64 {
        let ratio = |v: u64, target: u64| v as f64 / target.max(1) as f64;
        let switch_fraction = self.last_switch.as_secs_f64() / self.current.as_secs_f64();
        (ratio(sample.exec_queue, self.cfg.exec_queue_target))
            .max(ratio(sample.backlog, self.cfg.backlog_target))
            .max(switch_fraction / self.cfg.switch_overhead_target)
    }

    /// The duration the controller currently holds.
    pub fn current(&self) -> Duration {
        self.current
    }
}

impl Pacer for AdaptivePacer {
    fn next_duration(&mut self) -> Duration {
        if self.cfg.mode == PacingMode::Fixed {
            return self.current;
        }
        let pressure = self.pressure(self.source.sample());
        if pressure > self.cfg.high_watermark {
            self.current = Duration::from_secs_f64(
                (self.current.as_secs_f64() * self.cfg.lengthen_factor)
                    .min(self.cfg.max.as_secs_f64()),
            );
        } else if pressure < self.cfg.low_watermark {
            self.current = self
                .current
                .saturating_sub(self.cfg.shorten_step)
                .max(self.cfg.min);
        }
        self.gauges
            .epoch_duration_micros
            .set(duration_micros(self.current));
        self.gauges.pressure_millis.set((pressure * 1000.0) as u64);
        self.current
    }

    fn observe_switch(&mut self, switch: Duration) {
        // Exponential smoothing so a single slow switch (GC pause, fault
        // retransmission) cannot whipsaw the controller.
        self.last_switch = (self.last_switch + switch) / 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn pacer_with_queue(queue: Arc<AtomicU64>) -> AdaptivePacer {
        let cfg = PacerConfig::adaptive(Duration::from_millis(25));
        let source = move || PacerSample {
            exec_queue: queue.load(Ordering::Relaxed),
            ..PacerSample::default()
        };
        AdaptivePacer::new(cfg, source, Arc::new(PacerGauges::default())).unwrap()
    }

    #[test]
    fn quiet_system_converges_to_min_and_clamps() {
        let queue = Arc::new(AtomicU64::new(0));
        let mut pacer = pacer_with_queue(Arc::clone(&queue));
        let mut prev = pacer.current();
        for _ in 0..100 {
            let next = pacer.next_duration();
            assert!(next <= prev, "quiet epochs must only shorten");
            prev = next;
        }
        assert_eq!(prev, Duration::from_millis(5), "clamped at min = initial/5");
    }

    #[test]
    fn congestion_converges_to_max_and_clamps() {
        let queue = Arc::new(AtomicU64::new(100_000));
        let mut pacer = pacer_with_queue(Arc::clone(&queue));
        let mut prev = pacer.current();
        for _ in 0..100 {
            let next = pacer.next_duration();
            assert!(next >= prev, "congested epochs must only lengthen");
            prev = next;
        }
        assert_eq!(prev, Duration::from_millis(100), "clamped at max = 4x");
    }

    #[test]
    fn lengthen_outpaces_shorten() {
        // AIMD: recovery from overload must be faster than the creep toward
        // lower latency, or a growing queue outruns the controller.
        let queue = Arc::new(AtomicU64::new(0));
        let mut pacer = pacer_with_queue(Arc::clone(&queue));
        let start = pacer.current();
        queue.store(100_000, Ordering::Relaxed);
        pacer.next_duration();
        let lengthened = pacer.current() - start;
        let after_lengthen = pacer.current();
        queue.store(0, Ordering::Relaxed);
        pacer.next_duration();
        let shorten_step = after_lengthen - pacer.current();
        assert!(
            lengthened > shorten_step,
            "one lengthen ({lengthened:?}) must exceed one shorten ({shorten_step:?})"
        );
    }

    #[test]
    fn hysteresis_band_holds_steady() {
        // Pressure inside [low, high] must leave the duration untouched —
        // no limit-cycle oscillation around a watermark.
        let queue = Arc::new(AtomicU64::new(0));
        let mut pacer = pacer_with_queue(Arc::clone(&queue));
        // exec_queue_target = 256, band = [0.5, 1.0] → 192 gives 0.75.
        queue.store(192, Ordering::Relaxed);
        let held = pacer.next_duration();
        for _ in 0..50 {
            assert_eq!(pacer.next_duration(), held, "in-band pressure must hold");
        }
    }

    #[test]
    fn switch_overhead_alone_lengthens_epochs() {
        // No queue pressure, but the measured switch costs more than 20% of
        // the epoch: the controller must amortize by lengthening.
        let queue = Arc::new(AtomicU64::new(0));
        let mut pacer = pacer_with_queue(Arc::clone(&queue));
        let before = pacer.current();
        for _ in 0..4 {
            pacer.observe_switch(Duration::from_millis(20));
        }
        assert!(pacer.next_duration() > before);
    }

    #[test]
    fn fixed_mode_never_moves() {
        let cfg = PacerConfig::fixed(Duration::from_millis(25));
        let source = || PacerSample {
            exec_queue: u64::MAX / 2,
            backlog: u64::MAX / 2,
        };
        let mut pacer = AdaptivePacer::new(cfg, source, Arc::new(PacerGauges::default())).unwrap();
        for _ in 0..10 {
            assert_eq!(pacer.next_duration(), Duration::from_millis(25));
        }
    }

    #[test]
    fn gauges_track_controller_state() {
        let gauges = Arc::new(PacerGauges::default());
        let cfg = PacerConfig::adaptive(Duration::from_millis(10));
        let mut pacer = AdaptivePacer::new(cfg, PacerSample::default, Arc::clone(&gauges)).unwrap();
        assert_eq!(gauges.epoch_duration_micros.get(), 10_000);
        pacer.next_duration();
        assert_eq!(gauges.epoch_duration_micros.get(), 9_000);
        assert_eq!(gauges.pressure_millis.get(), 0);
    }

    #[test]
    fn config_validation_rejects_degenerate_controllers() {
        let ok = PacerConfig::adaptive(Duration::from_millis(25));
        assert!(ok.validate().is_ok());
        let mut inverted = ok.clone();
        inverted.min = Duration::from_millis(50);
        inverted.max = Duration::from_millis(10);
        assert!(inverted.validate().is_err());
        let mut outside = ok.clone();
        outside.initial = Duration::from_secs(10);
        assert!(outside.validate().is_err());
        let mut flat = ok.clone();
        flat.lengthen_factor = 1.0;
        assert!(flat.validate().is_err());
        let mut band = ok;
        band.low_watermark = 2.0;
        band.high_watermark = 1.0;
        assert!(band.validate().is_err());
    }
}
