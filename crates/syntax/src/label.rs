//! Record labels and variable names.
//!
//! Labels order and compare by their text so that record types have a
//! canonical field order independent of construction order — the paper
//! treats `[A = int, B = bool]` and `[B = bool, A = int]` as the same type.

use std::borrow::Borrow;
use std::fmt;
use std::rc::Rc;

/// A record label (also used for the numeric labels `1`, `2`, … of tuples).
///
/// Cheap to clone; equality, ordering and hashing are by the label text.
/// The text is shared through an `Rc`, not an `Arc`: inference and
/// lowering clone names constantly, and a non-atomic count makes that
/// clone an ordinary increment. So names, and the terms, types and values
/// that hold them, are not `Send`. An engine lives on one thread; threads
/// exchange statement text and rendered results, never terms.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(Rc<str>);

impl Label {
    pub fn new(s: impl AsRef<str>) -> Self {
        Label(Rc::from(s.as_ref()))
    }

    /// The numeric label `n`, used for tuple fields (`τ1 × τ2` is
    /// `[1 = τ1, 2 = τ2]` in the paper).
    pub fn tuple(n: usize) -> Self {
        Label::new(n.to_string())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True for the numeric labels produced by [`Label::tuple`].
    pub fn is_numeric(&self) -> bool {
        !self.0.is_empty() && self.0.bytes().all(|b| b.is_ascii_digit())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({})", self.0)
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Label::new(s)
    }
}

impl Borrow<str> for Label {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// A term variable name. Shares the representation of [`Label`].
pub type Name = Label;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn labels_compare_by_text() {
        assert_eq!(Label::new("Name"), Label::from("Name"));
        assert!(Label::new("Age") < Label::new("Name"));
    }

    #[test]
    fn tuple_labels_are_numeric() {
        assert!(Label::tuple(1).is_numeric());
        assert!(Label::tuple(42).is_numeric());
        assert!(!Label::new("Salary").is_numeric());
        assert!(!Label::new("").is_numeric());
        assert!(!Label::new("1a").is_numeric());
    }

    #[test]
    fn tuple_label_text() {
        assert_eq!(Label::tuple(2).as_str(), "2");
    }

    #[test]
    fn labels_are_ordered_in_sets() {
        let mut s = BTreeSet::new();
        s.insert(Label::new("b"));
        s.insert(Label::new("a"));
        s.insert(Label::new("c"));
        let v: Vec<_> = s.iter().map(|l| l.as_str().to_string()).collect();
        assert_eq!(v, ["a", "b", "c"]);
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let l = Label::new("Salary");
        let m = l.clone();
        assert_eq!(l, m);
    }
}
