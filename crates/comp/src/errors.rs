//! Error types for the comprehension front-end.

use std::fmt;

/// An error from lexing, parsing, type checking, planning or evaluation, or
/// a failed job of a planned query.
#[derive(Debug, Clone, PartialEq)]
pub struct CompError {
    /// Which phase produced the error.
    pub phase: Phase,
    /// Human-readable message.
    pub message: String,
    /// Byte offset in the source, when known.
    pub offset: Option<usize>,
}

/// Compilation phase that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Lex,
    Parse,
    Type,
    Eval,
    Plan,
    /// A job of a planned query failed on the runtime.
    Job,
}

impl CompError {
    pub fn lex(message: impl Into<String>, offset: usize) -> Self {
        CompError {
            phase: Phase::Lex,
            message: message.into(),
            offset: Some(offset),
        }
    }

    pub fn parse(message: impl Into<String>, offset: usize) -> Self {
        CompError {
            phase: Phase::Parse,
            message: message.into(),
            offset: Some(offset),
        }
    }

    pub fn typing(message: impl Into<String>) -> Self {
        CompError {
            phase: Phase::Type,
            message: message.into(),
            offset: None,
        }
    }

    pub fn eval(message: impl Into<String>) -> Self {
        CompError {
            phase: Phase::Eval,
            message: message.into(),
            offset: None,
        }
    }

    pub fn plan(message: impl Into<String>) -> Self {
        CompError {
            phase: Phase::Plan,
            message: message.into(),
            offset: None,
        }
    }

    pub fn job(message: impl Into<String>) -> Self {
        CompError {
            phase: Phase::Job,
            message: message.into(),
            offset: None,
        }
    }
}

impl fmt::Display for CompError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phase = match self.phase {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::Type => "type",
            Phase::Eval => "eval",
            Phase::Plan => "plan",
            Phase::Job => "job",
        };
        match self.offset {
            Some(o) => write!(f, "{phase} error at byte {o}: {}", self.message),
            None => write!(f, "{phase} error: {}", self.message),
        }
    }
}

impl std::error::Error for CompError {}
