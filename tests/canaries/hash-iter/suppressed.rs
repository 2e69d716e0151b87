//! Canary: an audited exception. The iteration feeds a commutative
//! integer reduction, so order cannot reach the result.

/// Plan counts keyed by id.
pub struct Cache {
    #[expect(
        clippy::disallowed_types,
        reason = "only summed as u64, which is order-independent"
    )]
    plans: std::collections::HashMap<u64, u64>,
}

impl Cache {
    /// Sums the counts.
    pub fn total(&self) -> u64 {
        self.plans.values().sum()
    }
}
