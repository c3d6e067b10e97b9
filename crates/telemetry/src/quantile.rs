//! A windowed quantile sketch over a stream of round times.

/// A fixed-capacity sliding window with nearest-rank quantile queries —
/// the arrival-history store behind the learned escalation deadline.
///
/// The window is deliberately small (tens of rounds): the controller must
/// track *recent* behaviour, and a sorted copy of ≤ a few hundred floats
/// is cheaper than a streaming sketch at these sizes.
#[derive(Debug, Clone)]
pub(crate) struct QuantileWindow {
    values: Vec<f64>,
    capacity: usize,
    /// Next slot to overwrite once the window is full (ring behaviour).
    next: usize,
}

impl QuantileWindow {
    /// An empty window holding at most `capacity` observations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        QuantileWindow {
            values: Vec::with_capacity(capacity),
            capacity,
            next: 0,
        }
    }

    /// Records one observation, evicting the oldest once full. Non-finite
    /// values are ignored.
    pub(crate) fn push(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if self.values.len() < self.capacity {
            self.values.push(value);
        } else {
            self.values[self.next] = value;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank over the current
    /// window (index `round(q·(n−1))`, so a half-index rounds up), or
    /// `None` when empty or `q` is out of range.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        if self.values.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let idx = (q * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_over_partial_window() {
        let mut w = QuantileWindow::new(8);
        assert!(w.values.is_empty());
        assert_eq!(w.quantile(0.5), None);
        for v in [3.0, 1.0, 2.0] {
            w.push(v);
        }
        assert_eq!(w.values.len(), 3);
        assert_eq!(w.quantile(0.0), Some(1.0));
        assert_eq!(w.quantile(0.5), Some(2.0));
        assert_eq!(w.quantile(1.0), Some(3.0));
        assert_eq!(w.quantile(1.5), None);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut w = QuantileWindow::new(3);
        for v in [10.0, 20.0, 30.0, 1.0] {
            w.push(v); // 10 evicted
        }
        assert_eq!(w.values.len(), 3);
        assert_eq!(w.quantile(0.0), Some(1.0));
        assert_eq!(w.quantile(1.0), Some(30.0));
        w.push(2.0); // 20 evicted
        assert_eq!(w.quantile(1.0), Some(30.0));
        w.push(3.0); // 30 evicted
        assert_eq!(w.quantile(1.0), Some(3.0));
    }

    #[test]
    fn percentile_shorthands() {
        let mut w = QuantileWindow::new(100);
        assert_eq!(w.quantile(0.5), None);
        for i in 1..=100 {
            w.push(i as f64);
        }
        // Nearest rank over an even count rounds the half-index up.
        assert_eq!(w.quantile(0.5), Some(51.0));
        assert_eq!(w.quantile(0.9), Some(90.0));
        assert_eq!(w.quantile(0.99), Some(99.0));
    }

    #[test]
    fn non_finite_ignored() {
        let mut w = QuantileWindow::new(2);
        w.push(f64::INFINITY);
        w.push(f64::NAN);
        assert!(w.values.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        QuantileWindow::new(0);
    }
}
