//! Runtime values.
//!
//! * Records carry an identity (`RecordId`) and a vector of field *slots*
//!   into the store — `extract` shares slots between records, which is how
//!   the paper's Doe/john aliasing example works.
//! * Objects are `(raw, viewing function)` associations with their own
//!   identity; `eq` on objects is association identity, while *sets* of
//!   objects identify elements up to `objeq` (same raw object), the
//!   semantics chosen in Section 3.1.
//! * Sets are canonical ordered maps from dedup keys to representative
//!   elements; union is left-biased on key collision.

use crate::error::RuntimeError;
use polyview_syntax::{Label, Lambda, Layout};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Index of an L-value slot in the store.
pub type SlotId = usize;

/// Identity of a record (the paper's L-value identity for records).
pub type RecordId = u64;

/// Index of a class in the machine's class table.
pub type ClassId = usize;

/// A record value, laid out flat: `slots[i]` holds the field whose label
/// is `layout.label_at(i)`, i.e. slot order *is* canonical label order —
/// the offset contract the compile tier's lowered `dot@i`/`update@i`
/// forms rely on. Mutability lives in the shared [`Layout`]; records
/// built from the same lowered construction site share one layout
/// allocation.
#[derive(Debug)]
pub struct RecordVal {
    pub id: RecordId,
    pub layout: Rc<Layout>,
    pub slots: Vec<SlotId>,
}

impl RecordVal {
    /// The offset of `l` in this record's layout.
    pub fn offset_of(&self, l: &Label) -> Option<usize> {
        self.layout.offset_of(l)
    }

    /// `(label, mutable, slot)` triples in slot (canonical label) order.
    pub fn iter(&self) -> impl Iterator<Item = (&Label, bool, SlotId)> + '_ {
        self.layout
            .iter()
            .zip(self.slots.iter().copied())
            .map(|((l, m), s)| (l, m, s))
    }
}

/// A user function: a flat closure. `code` is the resolved λ, shared
/// with the code that made the closure (creating one never copies a
/// body), and `captured[i]` is the value of its `i`-th free variable when
/// it was made. A `fix` closure is pushed into its own frame on
/// application (this is how `fix x.λy.e` ties the knot without reference
/// cycles).
#[derive(Debug)]
pub struct Closure {
    pub id: u64,
    pub code: Rc<Lambda>,
    pub captured: Box<[Value]>,
}

/// A builtin primitive, possibly partially applied.
#[derive(Clone)]
pub struct Builtin {
    pub id: u64,
    pub name: &'static str,
    pub arity: usize,
    pub args: Vec<Value>,
    pub f: fn(&[Value]) -> Result<Value, RuntimeError>,
}

impl std::fmt::Debug for Builtin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Builtin({}/{}, {} applied)",
            self.name,
            self.arity,
            self.args.len()
        )
    }
}

/// A viewing function attached to a raw object. Structured so the common
/// constructions of the algebra need no synthesized closures.
#[derive(Clone, Debug)]
pub enum ViewFn {
    /// `IDView`: present the raw object unchanged.
    Identity,
    /// A user-supplied function value.
    Fn(Value),
    /// `(e1 as e2)`: apply `inner` (e1's view) then `outer` (e2).
    Compose(Rc<ViewFn>, Rc<ViewFn>),
    /// `fuse`: present the n-tuple `[1 = v1(x), …, n = vn(x)]`.
    Tuple(Vec<Rc<ViewFn>>),
    /// `relobj`: present `[l1 = v1(x·l1), …, ln = vn(x·ln)]`.
    RelFields(Vec<(Label, Rc<ViewFn>)>),
}

/// An object: a raw object, a viewing function, and the association's own
/// identity (used by `eq`; `objeq` compares the raw identities).
#[derive(Debug)]
pub struct ObjVal {
    pub id: u64,
    pub raw: Value,
    pub view: ViewFn,
}

/// A set value: canonical map from element keys to representatives.
pub type SetMap = BTreeMap<Key, Value>;

/// Set entries in strictly increasing key order: what one level of an
/// extent fill hands to the next (DESIGN.md §3).
pub(crate) type Run = Vec<(Key, Value)>;

/// Merge two key-ordered entry sequences into one run in a single linear
/// pass. On a key present in both, `left`'s entry is kept: the one
/// left-biased union of sets ([`SetVal::union_left`]) and of a class's
/// own extent with its includes.
pub(crate) fn merge_left(
    left: impl Iterator<Item = (Key, Value)>,
    right: impl Iterator<Item = (Key, Value)>,
) -> Run {
    merge_left_noting(left, right, |_| {})
}

/// [`merge_left`], handing each key of a discarded `right` entry to
/// `dropped`.
pub(crate) fn merge_left_noting(
    left: impl Iterator<Item = (Key, Value)>,
    right: impl Iterator<Item = (Key, Value)>,
    mut dropped: impl FnMut(Key),
) -> Run {
    let (mut left, mut right) = (left.peekable(), right.peekable());
    let mut out = Vec::with_capacity(left.size_hint().0 + right.size_hint().0);
    while let (Some((l, _)), Some((r, _))) = (left.peek(), right.peek()) {
        match l.cmp(r) {
            Ordering::Less => out.extend(left.next()),
            Ordering::Greater => out.extend(right.next()),
            Ordering::Equal => {
                out.extend(left.next());
                if let Some((k, _)) = right.next() {
                    dropped(k);
                }
            }
        }
    }
    out.extend(left);
    out.extend(right);
    out
}

/// Shared, immutable set representation.
#[derive(Clone, Debug)]
pub struct SetVal(pub Rc<SetMap>);

impl SetVal {
    pub fn empty() -> Self {
        SetVal(Rc::new(BTreeMap::new()))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn values(&self) -> impl DoubleEndedIterator<Item = &Value> {
        self.0.values()
    }

    /// Build from elements left to right, keeping the *first* occurrence of
    /// each key (consistent with left-biased union).
    pub fn from_elems(elems: impl IntoIterator<Item = Value>) -> Self {
        let mut m = SetMap::new();
        for v in elems {
            let k = v.key();
            m.entry(k).or_insert(v);
        }
        SetVal(Rc::new(m))
    }

    /// Build from a [`Run`]: its entries are already sorted and distinct,
    /// so the map is bulk-built from them.
    pub(crate) fn from_run(run: Run) -> Self {
        SetVal(Rc::new(run.into_iter().collect()))
    }

    /// Clones of the entries, in key order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        self.0.iter().map(|(k, v)| (k.clone(), v.clone()))
    }

    /// Left-biased union ([`merge_left`]): on key collision the element of
    /// `self` is kept and the one from `other` discarded (Section 3.1's
    /// chosen alternative).
    pub fn union_left(&self, other: &SetVal) -> SetVal {
        if other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        SetVal::from_run(merge_left(self.entries(), other.entries()))
    }

    /// Remove every element whose key occurs in `other`.
    pub fn difference(&self, other: &SetVal) -> SetVal {
        let mut m = (*self.0).clone();
        for k in other.0.keys() {
            m.remove(k);
        }
        SetVal(Rc::new(m))
    }

    pub fn contains_key(&self, k: &Key) -> bool {
        self.0.contains_key(k)
    }
}

/// Runtime values.
///
/// `repr(u64)` puts every payload at offset 8, after a word-sized tag, so
/// a clone copies whole words. With the default layout `Bool`'s payload
/// sits at offset 1, and every clone copied bytes 1..8 with overlapping
/// narrow moves that stall store forwarding; evaluation clones a value on
/// every variable read. The size stays 24 bytes.
#[derive(Clone, Debug)]
#[repr(u64)]
pub enum Value {
    Unit,
    Int(i64),
    Bool(bool),
    Str(Rc<str>),
    Record(Rc<RecordVal>),
    Set(SetVal),
    Closure(Rc<Closure>),
    Builtin(Rc<Builtin>),
    /// The result of `extract`: a first-class slot reference, consumable
    /// only as a record field value.
    LValue(SlotId),
    Obj(Rc<ObjVal>),
    Class(ClassId),
}

/// Canonical identity/equality key of a value; used for set membership and
/// for `eq`.
///
/// Records and functions key by identity (L-value equality), objects key by
/// their *raw object's* identity (`objeq` — the set-formation equality the
/// paper chooses), base values key structurally, and sets key by their
/// element keys.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    Unit,
    Int(i64),
    Bool(bool),
    Str(Rc<str>),
    Record(RecordId),
    Fn(u64),
    LValue(SlotId),
    Obj(RecordId),
    Class(ClassId),
    Set(Vec<Key>),
}

impl Value {
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// A one-word description of the value's shape, for error messages.
    pub fn shape(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Str(_) => "string",
            Value::Record(_) => "record",
            Value::Set(_) => "set",
            Value::Closure(_) | Value::Builtin(_) => "function",
            Value::LValue(_) => "L-value",
            Value::Obj(_) => "object",
            Value::Class(_) => "class",
        }
    }

    /// The dedup/equality key of this value.
    pub fn key(&self) -> Key {
        match self {
            Value::Unit => Key::Unit,
            Value::Int(n) => Key::Int(*n),
            Value::Bool(b) => Key::Bool(*b),
            Value::Str(s) => Key::Str(s.clone()),
            Value::Record(r) => Key::Record(r.id),
            Value::Set(s) => Key::Set(s.0.keys().cloned().collect()),
            Value::Closure(c) => Key::Fn(c.id),
            Value::Builtin(b) => Key::Fn(b.id),
            Value::LValue(s) => Key::LValue(*s),
            Value::Obj(o) => match &o.raw {
                Value::Record(r) => Key::Obj(r.id),
                // Raw objects are records by construction; fall back to the
                // association id for robustness.
                _ => Key::Obj(o.id),
            },
            Value::Class(c) => Key::Class(*c),
        }
    }

    /// The paper's `eq`: L-value equality on records and functions, `objeq`
    /// is *not* used here — two objects are `eq` only if they are the same
    /// association (same raw *and* the identical view construction event).
    pub fn value_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Obj(a), Value::Obj(b)) => a.id == b.id,
            _ => self.key() == other.key(),
        }
    }

    pub fn as_bool(&self) -> Result<bool, RuntimeError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(RuntimeError::NotABool(other.shape())),
        }
    }

    pub fn as_int(&self) -> Result<i64, RuntimeError> {
        match self {
            Value::Int(n) => Ok(*n),
            other => Err(RuntimeError::NotAnInt(other.shape())),
        }
    }

    pub fn as_set(&self) -> Result<&SetVal, RuntimeError> {
        match self {
            Value::Set(s) => Ok(s),
            other => Err(RuntimeError::NotASet(other.shape())),
        }
    }

    pub fn as_record(&self) -> Result<&Rc<RecordVal>, RuntimeError> {
        match self {
            Value::Record(r) => Ok(r),
            other => Err(RuntimeError::NotARecord(other.shape())),
        }
    }

    pub fn as_obj(&self) -> Result<&Rc<ObjVal>, RuntimeError> {
        match self {
            Value::Obj(o) => Ok(o),
            other => Err(RuntimeError::NotAnObject(other.shape())),
        }
    }

    pub fn as_class(&self) -> Result<ClassId, RuntimeError> {
        match self {
            Value::Class(c) => Ok(*c),
            other => Err(RuntimeError::NotAClass(other.shape())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: RecordId) -> Value {
        Value::Record(Rc::new(RecordVal {
            id,
            layout: Rc::new(Layout::new([])),
            slots: Vec::new(),
        }))
    }

    fn obj(id: u64, raw: Value) -> Value {
        Value::Obj(Rc::new(ObjVal {
            id,
            raw,
            view: ViewFn::Identity,
        }))
    }

    #[test]
    fn base_values_compare_structurally() {
        assert!(Value::Int(1).value_eq(&Value::Int(1)));
        assert!(!Value::Int(1).value_eq(&Value::Int(2)));
        assert!(Value::str("a").value_eq(&Value::str("a")));
        assert!(!Value::str("a").value_eq(&Value::Bool(true)));
    }

    #[test]
    fn records_compare_by_identity() {
        assert!(rec(1).value_eq(&rec(1)));
        assert!(!rec(1).value_eq(&rec(2)));
    }

    #[test]
    fn objects_eq_by_association_but_key_by_raw() {
        let o1 = obj(10, rec(1));
        let o2 = obj(11, rec(1));
        // Different associations over the same raw: not `eq`…
        assert!(!o1.value_eq(&o2));
        // …but identified in sets (objeq).
        assert_eq!(o1.key(), o2.key());
    }

    #[test]
    fn set_from_elems_keeps_first() {
        let o1 = obj(10, rec(1));
        let o2 = obj(11, rec(1));
        let s = SetVal::from_elems([o1.clone(), o2]);
        assert_eq!(s.len(), 1);
        let kept = s.values().next().expect("one element");
        assert!(kept.value_eq(&o1));
    }

    #[test]
    fn union_is_left_biased() {
        let o1 = obj(10, rec(1));
        let o2 = obj(11, rec(1));
        let s1 = SetVal::from_elems([o1.clone()]);
        let s2 = SetVal::from_elems([o2.clone()]);
        let u = s1.union_left(&s2);
        assert_eq!(u.len(), 1);
        assert!(u.values().next().expect("elem").value_eq(&o1));
        // Reversed, the other representative survives.
        let u2 = s2.union_left(&s1);
        assert!(u2.values().next().expect("elem").value_eq(&o2));
    }

    #[test]
    fn union_with_empty_is_identity() {
        let s = SetVal::from_elems([Value::Int(1), Value::Int(2)]);
        assert_eq!(s.union_left(&SetVal::empty()).len(), 2);
        assert_eq!(SetVal::empty().union_left(&s).len(), 2);
    }

    #[test]
    fn difference_removes_by_key() {
        let s = SetVal::from_elems([Value::Int(1), Value::Int(2)]);
        let d = s.difference(&SetVal::from_elems([Value::Int(2), Value::Int(3)]));
        assert_eq!(d.len(), 1);
        assert!(d.contains_key(&Key::Int(1)));
    }

    #[test]
    fn sets_compare_by_element_keys() {
        let a = Value::Set(SetVal::from_elems([Value::Int(1), Value::Int(2)]));
        let b = Value::Set(SetVal::from_elems([Value::Int(2), Value::Int(1)]));
        assert!(a.value_eq(&b));
        let c = Value::Set(SetVal::from_elems([Value::Int(3)]));
        assert!(!a.value_eq(&c));
    }

    #[test]
    fn nested_sets_key_structurally() {
        let inner1 = Value::Set(SetVal::from_elems([Value::Int(1)]));
        let inner2 = Value::Set(SetVal::from_elems([Value::Int(1)]));
        let s = SetVal::from_elems([inner1, inner2]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn shapes_for_errors() {
        assert_eq!(Value::Unit.shape(), "unit");
        assert_eq!(rec(1).shape(), "record");
        assert_eq!(Value::Set(SetVal::empty()).shape(), "set");
    }
}
