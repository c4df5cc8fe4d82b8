//! Operation accounting: every ingest call, query and oracle check is an
//! attempt; a failed, refused or wrong one is a failure.

/// Failure messages kept for the report (the count is always exact).
const KEPT_MESSAGES: usize = 8;

/// Attempted and failed operation counts of one run.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// The first few failure descriptions.
    pub messages: Vec<String>,
}

impl Outcome {
    /// Counts one successful operation.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts `n` successful operations.
    pub fn ok_n(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < KEPT_MESSAGES {
            self.messages.push(what.into());
        }
    }

    /// Counts one operation that succeeded iff `pass`.
    pub fn check(&mut self, pass: bool, what: impl FnOnce() -> String) {
        if pass {
            self.ok();
        } else {
            self.fail(what());
        }
    }

    /// Folds another outcome (e.g. a thread's) into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(m);
            }
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// A run is correct when it attempted something and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}
