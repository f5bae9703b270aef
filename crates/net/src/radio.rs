//! Radio configuration: channel loss and delivery delay.
//!
//! The paper assumes that "in most cases the delay of message delivery
//! within the transmission range is smaller than a reasonable time
//! `Thop`" (Section 2.2). [`RadioConfig`] bundles a [`LossModel`] with
//! a bounded delivery-delay model: a fixed propagation/processing
//! delay plus optional uniform jitter, whose sum should be kept below
//! the protocol's `Thop` round timeout.

use crate::loss::{Bernoulli, LossModel, Perfect};
use crate::time::SimDuration;
use rand::{Rng, RngExt};
use std::fmt;

/// Channel configuration handed to the [`Simulator`](crate::sim::Simulator).
///
/// # Examples
///
/// ```
/// use cbfd_net::radio::RadioConfig;
/// use cbfd_net::time::SimDuration;
///
/// let radio = RadioConfig::bernoulli(0.1)
///     .with_delay(SimDuration::from_millis(1))
///     .with_jitter(SimDuration::from_micros(200));
/// assert_eq!(radio.delay(), SimDuration::from_millis(1));
/// ```
pub struct RadioConfig {
    loss: Box<dyn LossModel>,
    delay: SimDuration,
    jitter: SimDuration,
}

impl RadioConfig {
    /// Default fixed delivery delay (1 ms), comfortably below the
    /// default `Thop` of the FDS.
    pub const DEFAULT_DELAY: SimDuration = SimDuration::from_millis(1);

    /// Creates a configuration with a custom loss model, the default
    /// delay, and no jitter.
    pub fn new(loss: Box<dyn LossModel>) -> Self {
        RadioConfig {
            loss,
            delay: Self::DEFAULT_DELAY,
            jitter: SimDuration::ZERO,
        }
    }

    /// A perfectly reliable channel.
    pub fn lossless() -> Self {
        RadioConfig::new(Box::new(Perfect))
    }

    /// The paper's channel: i.i.d. per-receiver loss with probability
    /// `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn bernoulli(p: f64) -> Self {
        RadioConfig::new(Box::new(Bernoulli::new(p)))
    }

    /// Sets the fixed delivery delay.
    pub fn with_delay(mut self, delay: SimDuration) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the maximum uniform jitter added to every delivery.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// The fixed component of the delivery delay.
    #[inline]
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// The maximum jitter added on top of the fixed delay.
    #[inline]
    pub fn jitter(&self) -> SimDuration {
        self.jitter
    }

    /// Worst-case delivery delay (`delay + jitter`); protocol round
    /// timeouts (`Thop`) must be at least this long for the paper's
    /// timing assumptions to hold.
    #[inline]
    pub fn max_delay(&self) -> SimDuration {
        self.delay + self.jitter
    }

    /// Draws a delivery delay for one (transmission, receiver) pair.
    pub(crate) fn draw_delay<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        draw_delay(self.delay, self.jitter, rng)
    }

    /// Mutable access to the loss model (used by the simulator on each
    /// transmission).
    pub(crate) fn loss_mut(&mut self) -> &mut dyn LossModel {
        self.loss.as_mut()
    }

    /// Shared access to the loss model (used by the checkpoint writer
    /// to snapshot the channel state).
    pub(crate) fn loss(&self) -> &dyn LossModel {
        self.loss.as_ref()
    }
}

/// The one delivery-delay draw: `delay` plus uniform jitter in
/// `[0, jitter]` µs, drawing nothing when `jitter` is zero. Every
/// engine calls it, so their delay draws are draw-for-draw identical.
pub(crate) fn draw_delay<R: Rng + ?Sized>(
    delay: SimDuration,
    jitter: SimDuration,
    rng: &mut R,
) -> SimDuration {
    if jitter.is_zero() {
        delay
    } else {
        delay + SimDuration::from_micros(rng.random_range(0..=jitter.as_micros()))
    }
}

impl fmt::Debug for RadioConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RadioConfig")
            .field("loss", &self.loss)
            .field("delay", &self.delay)
            .field("jitter", &self.jitter)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_delay_no_jitter() {
        let r = RadioConfig::lossless();
        assert_eq!(r.delay(), RadioConfig::DEFAULT_DELAY);
        assert!(r.jitter().is_zero());
        assert_eq!(r.max_delay(), RadioConfig::DEFAULT_DELAY);
    }

    #[test]
    fn builder_sets_fields() {
        let r = RadioConfig::bernoulli(0.2)
            .with_delay(SimDuration::from_millis(2))
            .with_jitter(SimDuration::from_millis(1));
        assert_eq!(r.delay(), SimDuration::from_millis(2));
        assert_eq!(r.jitter(), SimDuration::from_millis(1));
        assert_eq!(r.max_delay(), SimDuration::from_millis(3));
    }

    #[test]
    fn draw_delay_without_jitter_is_fixed() {
        let r = RadioConfig::lossless().with_delay(SimDuration::from_micros(123));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(r.draw_delay(&mut rng), SimDuration::from_micros(123));
        }
    }

    #[test]
    fn draw_delay_with_jitter_is_bounded() {
        let r = RadioConfig::lossless()
            .with_delay(SimDuration::from_micros(100))
            .with_jitter(SimDuration::from_micros(50));
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1_000 {
            let d = r.draw_delay(&mut rng);
            assert!(d >= SimDuration::from_micros(100));
            assert!(d <= SimDuration::from_micros(150));
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", RadioConfig::bernoulli(0.1));
        assert!(s.contains("RadioConfig"));
        assert!(s.contains("Bernoulli"));
    }
}
