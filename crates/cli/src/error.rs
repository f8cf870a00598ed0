//! CLI error type.

use std::fmt;

/// Errors surfaced to the user by the `dht` binary.
#[derive(Debug)]
pub enum CliError {
    /// The arguments could not be understood; the string carries the usage
    /// text or a specific message.
    Usage(String),
    /// A value could not be parsed (bad number, unknown algorithm name, …).
    Parse(String),
    /// A referenced name (node set, dataset) does not exist.
    NotFound(String),
    /// Error from the graph substrate (I/O, malformed edge list, …).
    Graph(dht_graph::GraphError),
    /// Error from the join algorithms.
    Core(dht_core::CoreError),
    /// Error from the alternative-measure crate.
    Measure(dht_measures::MeasureError),
    /// Filesystem error.
    Io(std::io::Error),
}

impl CliError {
    /// The `dht` process exit status for this error: 2 for a usage error
    /// (the command line itself is wrong), 1 for everything else.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Parse(msg) | CliError::NotFound(msg) => {
                write!(f, "{msg}")
            }
            CliError::Graph(e) => write!(f, "graph error: {e}"),
            CliError::Core(e) => write!(f, "join error: {e}"),
            CliError::Measure(e) => write!(f, "measure error: {e}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Graph(e) => Some(e),
            CliError::Core(e) => Some(e),
            CliError::Measure(e) => Some(e),
            CliError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dht_graph::GraphError> for CliError {
    fn from(e: dht_graph::GraphError) -> Self {
        CliError::Graph(e)
    }
}

impl From<dht_core::CoreError> for CliError {
    fn from(e: dht_core::CoreError) -> Self {
        CliError::Core(e)
    }
}

impl From<dht_measures::MeasureError> for CliError {
    fn from(e: dht_measures::MeasureError) -> Self {
        CliError::Measure(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_passes_messages_through() {
        assert_eq!(
            CliError::Usage("use it right".into()).to_string(),
            "use it right"
        );
        assert_eq!(
            CliError::Parse("bad number".into()).to_string(),
            "bad number"
        );
        assert!(CliError::NotFound("no such set".into())
            .to_string()
            .contains("no such set"));
    }

    #[test]
    fn conversions_preserve_the_source_error() {
        let err: CliError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(err.to_string().contains("gone"));
        let err: CliError = dht_measures::MeasureError::ZeroCount { name: "depth" }.into();
        assert!(err.to_string().contains("depth"));
        use std::error::Error;
        assert!(err.source().is_some());
    }
}
