//! Runtime errors.
//!
//! Errors in the [`RuntimeError::is_type_error`] class are exactly the
//! "wrong" outcomes of Milner's slogan: a sound type system guarantees
//! well-typed programs never produce them (Prop. 1). The remaining variants
//! (division by zero, fuel exhaustion, an effect inside a read region) are
//! legitimate failures that no ML-style type system rules out.

use polyview_syntax::{Label, Name};
use std::fmt;

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// Variable not bound at runtime.
    Unbound(Name),
    /// Applied a non-function.
    NotAFunction(&'static str),
    /// Projected a field from a non-record.
    NotARecord(&'static str),
    /// Field absent from a record.
    NoSuchField(Label),
    /// `update`/`extract` on an immutable field.
    ImmutableField(Label),
    /// Set operation on a non-set.
    NotASet(&'static str),
    /// Condition of `if` (or a predicate) was not a boolean.
    NotABool(&'static str),
    /// Object operation on a non-object.
    NotAnObject(&'static str),
    /// Arithmetic on a non-integer.
    NotAnInt(&'static str),
    /// Class operation on a non-class.
    NotAClass(&'static str),
    /// `fix x. e` where `e` is not a lambda abstraction.
    FixNonFunction,
    /// Integer division or modulus by zero.
    DivisionByZero,
    /// The configured evaluation fuel ran out (used to bound property
    /// tests over programs containing `fix`).
    FuelExhausted,
    /// A builtin received a value of an unexpected shape.
    BuiltinType { builtin: &'static str },
    /// Inside a read region ([`crate::Machine::begin_read`]), an `insert`,
    /// `delete` or `update` targeted state that existed before the region
    /// began. Raised before anything is mutated.
    EffectInRead,
}

impl RuntimeError {
    /// True for errors that constitute "going wrong" in the type-soundness
    /// sense — a well-typed program must never raise these (Prop. 1).
    pub fn is_type_error(&self) -> bool {
        !matches!(
            self,
            RuntimeError::DivisionByZero | RuntimeError::FuelExhausted | RuntimeError::EffectInRead
        )
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Unbound(x) => write!(f, "unbound variable `{x}` at runtime"),
            RuntimeError::NotAFunction(what) => write!(f, "applied non-function ({what})"),
            RuntimeError::NotARecord(what) => write!(f, "expected a record, got {what}"),
            RuntimeError::NoSuchField(l) => write!(f, "record has no field `{l}`"),
            RuntimeError::ImmutableField(l) => {
                write!(f, "field `{l}` is immutable")
            }
            RuntimeError::NotASet(what) => write!(f, "expected a set, got {what}"),
            RuntimeError::NotABool(what) => write!(f, "expected a boolean, got {what}"),
            RuntimeError::NotAnObject(what) => write!(f, "expected an object, got {what}"),
            RuntimeError::NotAnInt(what) => write!(f, "expected an integer, got {what}"),
            RuntimeError::NotAClass(what) => write!(f, "expected a class, got {what}"),
            RuntimeError::FixNonFunction => write!(f, "fix applied to a non-function body"),
            RuntimeError::DivisionByZero => write!(f, "integer division by zero"),
            RuntimeError::FuelExhausted => write!(f, "evaluation fuel exhausted"),
            RuntimeError::BuiltinType { builtin } => {
                write!(f, "builtin `{builtin}` received a value of the wrong shape")
            }
            RuntimeError::EffectInRead => {
                write!(f, "a read tried to change state that existed before it")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_error_classification() {
        assert!(RuntimeError::NotAFunction("int").is_type_error());
        assert!(RuntimeError::NoSuchField(Label::new("x")).is_type_error());
        assert!(!RuntimeError::DivisionByZero.is_type_error());
        assert!(!RuntimeError::FuelExhausted.is_type_error());
        assert!(!RuntimeError::EffectInRead.is_type_error());
    }
}
