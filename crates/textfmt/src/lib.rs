//! # pipefill-textfmt
//!
//! Every text format the workspace reads or writes, decided once: the
//! [`toml`] subset and the [`json`] of the checked-in documents. Both
//! readers locate every error at a [`Pos`] and never panic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

pub mod json;
pub mod toml;

/// A 1-based line and character column in a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// Line, from 1.
    pub line: usize,
    /// Column in characters, from 1 (one past the end for end of line).
    pub col: usize,
}

impl Pos {
    /// An error located here.
    pub fn error(self, msg: impl Into<String>) -> Error {
        let msg = msg.into();
        Error { pos: self, msg }
    }
}

/// A located error; displays as `line N, col M: msg`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Where the offending token starts.
    pub pos: Pos,
    /// What is wrong, naming the offending key or token.
    pub msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Pos { line, col } = self.pos;
        write!(f, "line {line}, col {col}: {}", self.msg)
    }
}

impl From<Error> for String {
    fn from(e: Error) -> String {
        e.to_string()
    }
}
