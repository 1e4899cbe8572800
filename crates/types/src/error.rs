//! Type errors, with messages phrased in the paper's vocabulary.

use polyview_syntax::visit::RecClassViolation;
use polyview_syntax::{Label, Mono, Name, TyVar};
use std::fmt;

/// Errors produced by kinded unification and inference.
#[derive(Clone, Debug, PartialEq)]
pub enum TypeError {
    /// Two types failed to unify.
    Mismatch(Mono, Mono),
    /// Occurs check: binding the variable would build an infinite type.
    Occurs(TyVar, Mono),
    /// A record type lacked a field required by a kind constraint.
    MissingField { label: Label, record: Mono },
    /// A field exists but is immutable where mutability is required
    /// (e.g. `update(joe, Name, …)` on an immutable `Name`, or
    /// `extract` from an immutable field — the paper's second illegal
    /// example in Section 2).
    MutabilityViolation { label: Label, record: Mono },
    /// A kind constraint `[[…]]` was imposed on a type that is not (and can
    /// never be) a record type — e.g. projecting a field from an integer.
    NotARecord(Mono),
    /// Unbound term variable.
    Unbound(Name),
    /// Recursive class definitions violated the Section 4.4 scope
    /// restriction.
    RecClass(RecClassViolation),
    /// A top-level binding gives a mutable field a non-ground type,
    /// violating the paper's soundness restriction.
    NonGroundMutable { label: Label, ty: Mono },
    /// Two record *types* disagree on a field's mutability (record types
    /// are exact; `[l = τ]` and `[l := τ]` are different types).
    FieldMutabilityMismatch {
        label: Label,
        left: Mono,
        right: Mono,
    },
    /// A record construction names a label twice: a record has one field
    /// per label, and its layout one slot.
    DuplicateField(Label),
    /// A lowered (offset-resolved) form reached the type checker. Lowering
    /// runs strictly *after* inference; source programs cannot contain
    /// these forms, so this indicates a pipeline-ordering bug, not a user
    /// error.
    LoweredForm(&'static str),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Mismatch(a, b) => write!(f, "type mismatch: {a} vs {b}"),
            TypeError::Occurs(v, t) => {
                write!(f, "occurs check: t{v} occurs in {t} (infinite type)")
            }
            TypeError::MissingField { label, record } => {
                write!(f, "record type {record} has no field `{label}`")
            }
            TypeError::MutabilityViolation { label, record } => write!(
                f,
                "field `{label}` of {record} is immutable where a mutable field \
                 (l := τ) is required"
            ),
            TypeError::NotARecord(t) => {
                write!(
                    f,
                    "type {t} is not a record type, cannot satisfy a record kind"
                )
            }
            TypeError::Unbound(x) => write!(f, "unbound variable `{x}`"),
            TypeError::RecClass(v) => match v {
                RecClassViolation::InOwnExtent(n) => write!(
                    f,
                    "recursive class identifier `{n}` may not appear in an own-extent \
                     expression (Section 4.4 restriction)"
                ),
                RecClassViolation::InView(n) => write!(
                    f,
                    "recursive class identifier `{n}` may not appear inside an `as` \
                     viewing function (Section 4.4 restriction)"
                ),
                RecClassViolation::InPred(n) => write!(
                    f,
                    "recursive class identifier `{n}` may not appear inside a `where` \
                     predicate (Section 4.4 restriction)"
                ),
                RecClassViolation::InCompoundSource(n) => write!(
                    f,
                    "an include source mentioning recursive class identifier `{n}` \
                     must be exactly that identifier (Section 4.4 restriction)"
                ),
            },
            TypeError::NonGroundMutable { label, ty } => write!(
                f,
                "mutable field `{label}` has non-ground type {ty}; the paper requires \
                 mutable field types to be ground monotypes"
            ),
            TypeError::FieldMutabilityMismatch { label, left, right } => write!(
                f,
                "record types {left} and {right} disagree on the mutability of \
                 field `{label}`"
            ),
            TypeError::DuplicateField(l) => {
                write!(f, "the record construction gives field `{l}` twice")
            }
            TypeError::LoweredForm(form) => write!(
                f,
                "lowered form `{form}` reached type inference; lowering must run \
                 after inference"
            ),
        }
    }
}

impl std::error::Error for TypeError {}

impl From<RecClassViolation> for TypeError {
    fn from(v: RecClassViolation) -> Self {
        TypeError::RecClass(v)
    }
}
