//! The CLI's error type: every failure mode carries a user-facing message.

use std::error::Error;
use std::fmt;

use segram_graph::GraphError;
use segram_index::PersistError;
use segram_io::{BgzfError, FormatError, StreamError};

/// Errors surfaced to the terminal by the `segram` binary.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself was wrong; the message includes usage help.
    Usage(String),
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// An input file was malformed.
    Format {
        /// The path involved.
        path: String,
        /// The underlying parse error (with line number).
        source: FormatError,
    },
    /// A graph operation failed (construction, topological sort, ...).
    Graph(GraphError),
    /// A persistent `.sgi` index file could not be loaded or written
    /// (corrupt, truncated, or version-skewed — never a panic).
    Index {
        /// The index file involved.
        path: String,
        /// The named persistence error.
        source: PersistError,
    },
    /// A BGZF-compressed input was malformed (bad framing, a failed
    /// checksum, corrupt DEFLATE data, or a truncation — never a panic).
    Bgzf {
        /// The compressed file involved.
        path: String,
        /// The named corruption class.
        source: BgzfError,
    },
    /// A `segram serve` / `segram request` protocol failure: the server
    /// refused (`BUSY`), reported an error (`ERR`), or answered something
    /// the client does not understand.
    Server(String),
}

impl CliError {
    /// Convenience constructor for usage errors.
    pub fn usage(message: impl Into<String>) -> Self {
        Self::Usage(message.into())
    }

    /// Wraps an I/O error with its path.
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        Self::Io {
            path: path.into(),
            source,
        }
    }

    /// Wraps a parse error with its path.
    pub fn format(path: impl Into<String>, source: FormatError) -> Self {
        Self::Format {
            path: path.into(),
            source,
        }
    }

    /// Names a streaming read/render failure after the file it belongs
    /// to: transport errors after `io_path`, format errors after
    /// `format_path`.
    pub fn stream(source: StreamError, io_path: &str, format_path: &str) -> Self {
        match source {
            StreamError::Io(err) => Self::io(io_path, err),
            StreamError::Format(err) => Self::format(format_path, err),
        }
    }

    /// Wraps a persistence error with its path; plain I/O failures fold
    /// into [`CliError::Io`] so missing-file messages stay uniform.
    pub fn index(path: impl Into<String>, source: PersistError) -> Self {
        match source {
            PersistError::Io(err) => Self::io(path, err),
            other => Self::Index {
                path: path.into(),
                source: other,
            },
        }
    }

    /// Wraps a BGZF corruption error with its path.
    pub fn bgzf(path: impl Into<String>, source: BgzfError) -> Self {
        Self::Bgzf {
            path: path.into(),
            source,
        }
    }

    /// Convenience constructor for serve-protocol errors.
    pub fn server(message: impl Into<String>) -> Self {
        Self::Server(message.into())
    }

    /// The conventional process exit code for this error class.
    pub fn exit_code(&self) -> i32 {
        match self {
            Self::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(message) => write!(f, "usage error: {message}"),
            Self::Io { path, source } => write!(f, "{path}: {source}"),
            Self::Format { path, source } => write!(f, "{path}: {source}"),
            Self::Graph(err) => write!(f, "graph error: {err}"),
            Self::Index { path, source } => write!(f, "{path}: {source}"),
            Self::Bgzf { path, source } => write!(f, "{path}: {source}"),
            Self::Server(message) => write!(f, "server error: {message}"),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Usage(_) => None,
            Self::Io { source, .. } => Some(source),
            Self::Format { source, .. } => Some(source),
            Self::Graph(err) => Some(err),
            Self::Index { source, .. } => Some(source),
            Self::Bgzf { source, .. } => Some(source),
            Self::Server(_) => None,
        }
    }
}

impl From<GraphError> for CliError {
    fn from(err: GraphError) -> Self {
        Self::Graph(err)
    }
}
