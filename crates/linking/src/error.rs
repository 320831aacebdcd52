//! Structured errors for the fallible linking entry points.
//!
//! Every long-running phase of the batch pipeline and the serving layer is
//! a *failure domain*: a panic inside it is caught at the domain boundary
//! ([`std::panic::catch_unwind`]) and surfaces as a [`LinkError`] variant
//! naming the domain, instead of aborting the process or poisoning shared
//! state. See the "Failure domains & containment" section of
//! ARCHITECTURE.md for the domain map.

use crate::persist::PersistError;
use std::any::Any;
use std::fmt;

/// Convenience alias for results of the fallible `try_*` entry points.
pub type LinkResult<T> = Result<T, LinkError>;

/// A contained failure from one of the linking failure domains.
///
/// Each variant carries the stringified panic payload (or injected
/// message) plus enough context to tell *which* domain failed — the
/// shared stores, scratch buffers and caches the failed call touched are
/// all self-healing, so a clean retry over the same state is
/// bit-identical to a never-faulted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The blocking phase (`stream_candidates`) panicked — the blocker
    /// itself, or the sink refusing a candidate outside the stores it was
    /// reset for.
    BlockingPanicked {
        /// [`Blocker::name`](crate::blocking::Blocker::name) of the
        /// strategy that failed.
        blocker: String,
        /// Stringified panic payload.
        payload: String,
    },
    /// A comparison worker panicked mid-scoring. The surviving workers
    /// drained the remaining blocks before the run was abandoned, so the
    /// error reports how far the batch got.
    WorkerPanicked {
        /// Index of the first worker that panicked.
        worker: usize,
        /// Stringified panic payload.
        payload: String,
        /// Workers that finished their claim loop cleanly.
        survivors: usize,
        /// Links (matches + possibles) scored by the surviving workers.
        partial_links: usize,
    },
    /// Freezing one shard of a sharded build panicked.
    ShardBuildPanicked {
        /// Index of the shard that failed to freeze.
        shard: usize,
        /// Stringified panic payload.
        payload: String,
    },
    /// Building or warming the next catalog epoch inside
    /// [`Linker::try_swap`](crate::serve::Linker::try_swap) panicked; the
    /// previous epoch is still serving and the sequence did not advance.
    EpochBuildPanicked {
        /// Stringified panic payload.
        payload: String,
    },
    /// A probe panicked; the probe scratch re-initialises itself on the
    /// next call, so the handle stays serviceable.
    ProbePanicked {
        /// Stringified panic payload.
        payload: String,
    },
    /// A streaming ingest ([`FeedIngest`](crate::ingest::FeedIngest))
    /// failed — a malformed statement in the feed, or a panic while a
    /// chunk was being parsed and columnarised. The ingest is poisoned:
    /// it refuses further chunks and never publishes a store built from
    /// the partial feed.
    IngestFailed {
        /// The parse error, or the stringified panic payload.
        payload: String,
    },
    /// Spilling a catalog snapshot
    /// ([`Linker::snapshot`](crate::serve::Linker::snapshot)) failed.
    /// The manifest rename is the commit point and it was never reached
    /// (or never became durable), so the previous manifest generation —
    /// if any — is still the directory's restart point.
    SnapshotFailed {
        /// What failed, naming the file involved.
        source: PersistError,
    },
    /// Restoring a catalog from a snapshot directory
    /// ([`Linker::open`](crate::serve::Linker::open)) failed: the
    /// directory holds no manifest at all, or every manifest generation
    /// failed validation. Nothing half-loaded is ever returned.
    RestoreFailed {
        /// What failed, naming the directory or file involved.
        source: PersistError,
    },
    /// An error injected through a `fail_point!` `return` action
    /// (fault-injection builds only).
    Injected {
        /// The failpoint site that fired.
        site: String,
        /// The action's argument, if any.
        message: String,
    },
}

impl LinkError {
    /// Construct an [`LinkError::Injected`] from a failpoint site and its
    /// optional action argument.
    pub fn injected(site: &str, message: Option<String>) -> Self {
        LinkError::Injected {
            site: site.to_string(),
            message: message.unwrap_or_default(),
        }
    }
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::BlockingPanicked { blocker, payload } => {
                write!(f, "blocking phase ({blocker}) panicked: {payload}")
            }
            LinkError::WorkerPanicked {
                worker,
                payload,
                survivors,
                partial_links,
            } => write!(
                f,
                "comparison worker {worker} panicked ({survivors} workers survived, \
                 {partial_links} partial links drained): {payload}"
            ),
            LinkError::ShardBuildPanicked { shard, payload } => {
                write!(f, "columnarising shard {shard} panicked: {payload}")
            }
            LinkError::EpochBuildPanicked { payload } => {
                write!(
                    f,
                    "epoch build panicked (previous epoch still serving): {payload}"
                )
            }
            LinkError::ProbePanicked { payload } => write!(f, "probe panicked: {payload}"),
            LinkError::IngestFailed { payload } => {
                write!(f, "streaming ingest failed (nothing published): {payload}")
            }
            LinkError::SnapshotFailed { source } => {
                write!(
                    f,
                    "catalog snapshot spill failed (previous manifest generation, \
                     if any, is still the restart point): {source}"
                )
            }
            LinkError::RestoreFailed { source } => {
                write!(f, "catalog snapshot restore failed: {source}")
            }
            LinkError::Injected { site, message } => {
                write!(f, "injected failure at failpoint '{site}': {message}")
            }
        }
    }
}

impl std::error::Error for LinkError {
    /// The persistence variants wrap a [`PersistError`] (which in turn
    /// may wrap the underlying [`std::io::Error`]); the panic-containment
    /// variants carry only a stringified payload and have no source.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LinkError::SnapshotFailed { source } | LinkError::RestoreFailed { source } => {
                Some(source)
            }
            _ => None,
        }
    }
}

/// Render a [`catch_unwind`](std::panic::catch_unwind) payload as a
/// string: `panic!("…")` yields `&'static str` or `String`; anything else
/// (a custom `panic_any`) gets a fixed placeholder.
pub(crate) fn panic_payload(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure_domain() {
        let e = LinkError::WorkerPanicked {
            worker: 2,
            payload: "boom".into(),
            survivors: 3,
            partial_links: 41,
        };
        let text = e.to_string();
        assert!(text.contains("worker 2"));
        assert!(text.contains("3 workers survived"));
        assert!(text.contains("41 partial links"));
        assert!(text.contains("boom"));
        assert!(LinkError::injected("serve::build_epoch", None)
            .to_string()
            .contains("serve::build_epoch"));
    }

    #[test]
    fn payloads_stringify() {
        let caught = std::panic::catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_payload(caught), "plain str");
        let caught = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_payload(caught), "formatted 7");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(42u8)).unwrap_err();
        assert_eq!(panic_payload(caught), "non-string panic payload");
    }
}
