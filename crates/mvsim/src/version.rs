//! Attempt identifiers and the versions reads observe. The store that
//! holds the versions is `pstore`.

/// Identifier of one execution attempt of a job (retries get fresh ids).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AttemptId(pub u64);

/// A committed version of an object.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Version {
    /// Commit timestamp of the writing transaction (logical clock).
    pub commit_ts: u64,
    /// The attempt that wrote it.
    pub writer: AttemptId,
}

/// What a read observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Observed {
    /// The initial version `op₀`.
    Initial,
    /// A committed version.
    Version(Version),
}

impl Observed {
    /// Commit timestamp of the observed version (0 for the initial one).
    pub fn ts(self) -> u64 {
        match self {
            Observed::Initial => 0,
            Observed::Version(v) => v.commit_ts,
        }
    }

    pub fn writer(self) -> Option<AttemptId> {
        match self {
            Observed::Initial => None,
            Observed::Version(v) => Some(v.writer),
        }
    }
}
