//! Canonical record layouts for the offset-resolved execution tier.
//!
//! A [`Layout`] fixes the slot order of a record value: its labels in
//! canonical (sorted) order, each with its mutability. The offset of a
//! field is its rank in that order — the same index Ohori's compilation of
//! the record calculus assigns (`idx(l, τ)` in "A polymorphic record
//! calculus and its compilation", TOPLAS 1995). Because record types in
//! this calculus are width-exact (unification never widens a record), a
//! layout computed from a record *type* agrees with the layout of every
//! value of that type, which is what makes compile-time offsets sound.
//!
//! Layouts are produced by the lowering pass (`polyview-trans`) for
//! lowered record constructions and by the evaluator for records built
//! from un-lowered code; both sides share this type so the offset
//! contract cannot drift.

use crate::label::Label;
use std::fmt;

/// The slot order of a record: labels sorted canonically, with per-field
/// mutability. Immutable once built; shared via `Rc` between the lowered
/// IR and every record value using it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    labels: Vec<Label>,
    mutables: Vec<bool>,
}

impl Layout {
    /// Build a layout from `(label, mutable)` pairs in any order; the
    /// fields are sorted into canonical label order.
    ///
    /// Labels must be distinct (the record typing rule refuses a
    /// construction that repeats one).
    pub fn new(fields: impl IntoIterator<Item = (Label, bool)>) -> Self {
        let mut fs: Vec<(Label, bool)> = fields.into_iter().collect();
        fs.sort_by(|a, b| a.0.cmp(&b.0));
        Layout {
            labels: fs.iter().map(|(l, _)| l.clone()).collect(),
            mutables: fs.into_iter().map(|(_, m)| m).collect(),
        }
    }

    /// The offset of `l`: its rank in canonical order. `None` when the
    /// layout has no such field (the dynamic-fallback "no such field"
    /// path).
    pub fn offset_of(&self, l: &Label) -> Option<usize> {
        self.labels.binary_search(l).ok()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label at `offset` (canonical order).
    pub fn label_at(&self, offset: usize) -> &Label {
        &self.labels[offset]
    }

    /// Is the field at `offset` mutable?
    pub fn is_mutable(&self, offset: usize) -> bool {
        self.mutables[offset]
    }

    /// Labels in canonical (slot) order.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// `(label, mutable)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&Label, bool)> + '_ {
        self.labels.iter().zip(self.mutables.iter().copied())
    }
}

impl fmt::Display for Layout {
    /// `[Name@0, Salary@1:=]` — each label with its offset, mutable fields
    /// marked `:=`. This is the rendering the `:explain` layout report
    /// uses.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (l, m)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}@{i}{}", if m { ":=" } else { "" })?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(fields: &[(&str, bool)]) -> Layout {
        Layout::new(fields.iter().map(|(l, m)| (Label::new(l), *m)))
    }

    #[test]
    fn offsets_follow_canonical_label_order() {
        // Construction order is irrelevant: offsets rank by label text.
        let a = layout(&[("Salary", true), ("Name", false)]);
        let b = layout(&[("Name", false), ("Salary", true)]);
        assert_eq!(a, b);
        assert_eq!(a.offset_of(&Label::new("Name")), Some(0));
        assert_eq!(a.offset_of(&Label::new("Salary")), Some(1));
        assert_eq!(a.offset_of(&Label::new("Bonus")), None);
    }

    #[test]
    fn numeric_tuple_labels_sort_as_text() {
        // Tuple labels are text: "10" < "2" — the type side orders record
        // fields the same way (BTreeMap<Label, _>), so both agree.
        let l = layout(&[("1", false), ("2", false), ("10", false)]);
        assert_eq!(l.offset_of(&Label::new("1")), Some(0));
        assert_eq!(l.offset_of(&Label::new("10")), Some(1));
        assert_eq!(l.offset_of(&Label::new("2")), Some(2));
    }

    #[test]
    fn mutability_travels_with_the_sorted_field() {
        let l = layout(&[("z", true), ("a", false)]);
        assert!(!l.is_mutable(0));
        assert!(l.is_mutable(1));
        assert_eq!(l.label_at(1), &Label::new("z"));
    }

    #[test]
    fn display_reports_offsets_and_mutability() {
        let l = layout(&[("Salary", true), ("Name", false)]);
        assert_eq!(l.to_string(), "[Name@0, Salary@1:=]");
        assert_eq!(layout(&[]).to_string(), "[]");
    }
}
