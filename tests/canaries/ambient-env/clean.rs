//! Canary: the value is plumbed through configuration instead.

/// Where the run's settings come from.
pub struct Config {
    /// The host class the run reports under.
    pub runner_class: String,
}

/// The host class, from the config.
pub fn runner_class(cfg: &Config) -> &str {
    &cfg.runner_class
}
