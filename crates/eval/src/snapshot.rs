//! Machine snapshots: a versioned byte encoding of the complete evaluator
//! state — store, class table, global values, identity counter,
//! and mutation epoch — with **object-identity sharing preserved**.
//!
//! The encoding follows the no-serde discipline of `polyview_syntax::wire`
//! (hand-rolled, std-only, versioned header, loud decode errors). What it
//! adds over plain structural encoding is a *node table*: every shared
//! allocation (`Rc<RecordVal>`, `Rc<Closure>`, `Rc<Builtin>`, `Rc<ObjVal>`,
//! set maps, closure code, layouts, and view functions) is serialized
//! once at its first visit (`NODE_DEF`, which
//! implicitly assigns the next table index) and referenced by index
//! everywhere else (`NODE_REF`). The decoder memoizes indexes back to
//! fresh `Rc`s, so a record reachable from two globals decodes to one
//! allocation reachable from two globals — shared ids round-trip as
//! shared, never duplicated. Slot-level sharing (the paper's `extract`)
//! is free: `SlotId`s are indexes into the one flat store section.
//!
//! A closure is flat: its code (a code node) and the values it captured,
//! in capture order. The code is the λ's `fix` name, parameter and body;
//! where the λ took its captures from was used when the closure was made
//! and is not kept, since it may name global slots, whose numbering
//! depends on the order names were first bound. A body never reads a
//! global (a λ captures the globals it uses), so the bytes depend only on
//! the value graph. Code is checked on decode
//! (`polyview_syntax::resolve::well_scoped`), so a restored closure reads
//! only slots its frame has.
//!
//! Code is shared by content, not by allocation: a closure's λ or a
//! layout whose encoding equals one already written is a `NODE_REF` to
//! it, whichever `Rc` holds it. No program can tell two equal pieces of
//! code apart, and which allocation holds a piece depends on history the
//! snapshot does not carry (a statement-cache hit reuses its cached code,
//! a recompile allocates fresh code). So equal value graphs encode to
//! equal bytes, with or without a statement cache.
//!
//! Soundness leans on an invariant of the evaluator: the value graph is
//! **acyclic**. Recursion ties its knot at application time (a `fix`
//! closure is pushed into its own frame when applied, it does not capture
//! itself), so a pre-order `NODE_DEF` walk terminates and every
//! `NODE_REF` points at a node whose contents were already decoded.
//!
//! What is deliberately *not* serialized: the extent cache, work-counter
//! stats, and the profiler. A restored machine starts with all three
//! cold, and no program can tell: a cache hit has exactly a recompute's
//! effects (ids, fuel), so a cold cache only costs time. Builtin function pointers cannot cross a process boundary, so a
//! builtin serializes its name, id, and applied arguments; the decoder
//! re-resolves the pointer from [`crate::builtins::natives`] and rejects
//! names the running binary does not know.

use crate::builtins;
use crate::machine::{ClassData, IncludeSpec, Machine};
use crate::store::Store;
use crate::value::{Builtin, Closure, ObjVal, RecordVal, SetVal, Value, ViewFn};
use polyview_syntax::resolve::well_scoped;
use polyview_syntax::wire::{
    read_expr, read_label, read_layout, read_name, write_expr, write_label, write_layout,
    write_name, ByteReader, ByteWriter, WireError,
};
use polyview_syntax::{Lambda, Layout, Name};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::rc::Rc;

/// First bytes of every machine snapshot.
pub const MACHINE_MAGIC: [u8; 4] = *b"PVMS";
/// Format version; decoding any other version is a loud error. Version 2
/// encodes flat closures (resolved code and captured values) where
/// version 1 encoded named environment chains; version 3 encodes only the
/// resolved code form, with the un-resolved expression tags retired.
pub const MACHINE_VERSION: u32 = 3;

const NODE_DEF: u8 = 0;
const NODE_REF: u8 = 1;

const KIND_RECORD: u8 = 0;
const KIND_SET: u8 = 1;
const KIND_CLOSURE: u8 = 2;
const KIND_BUILTIN: u8 = 3;
const KIND_OBJ: u8 = 4;
const KIND_CODE: u8 = 5;
const KIND_LAYOUT: u8 = 6;
const KIND_VIEW: u8 = 7;

fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_RECORD => "record",
        KIND_SET => "set",
        KIND_CLOSURE => "closure",
        KIND_BUILTIN => "builtin",
        KIND_OBJ => "object",
        KIND_CODE => "code",
        KIND_LAYOUT => "layout",
        KIND_VIEW => "view fn",
        _ => "unknown",
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct Enc {
    w: ByteWriter,
    /// `Rc` allocation address → node-table index. Addresses are unique
    /// across all *live* allocations and the borrowed machine keeps every
    /// encoded allocation alive for the whole walk, so one map covers all
    /// node kinds.
    memo: HashMap<usize, u32>,
    /// Hash of a code node's kind and encoded contents → its node-table
    /// index and where those bytes sit in `w`. Only the first node with a
    /// given hash is kept: a 64-bit collision between unequal code costs
    /// that pair its sharing, never correctness, since the bytes are
    /// compared before a reference is emitted.
    code: HashMap<u64, (u32, Range<usize>)>,
    /// Nodes defined so far: the index the next `NODE_DEF` takes.
    nodes: u32,
}

impl Enc {
    /// Emit a node: a `NODE_REF` if `ptr` was seen before, otherwise a
    /// `NODE_DEF` (implicitly assigning the next index, pre-order) whose
    /// contents `body` writes.
    fn node(&mut self, ptr: usize, kind: u8, body: impl FnOnce(&mut Enc)) {
        if let Some(&idx) = self.memo.get(&ptr) {
            self.reference(idx);
        } else {
            let idx = self.next_index();
            self.memo.insert(ptr, idx);
            self.w.u8(NODE_DEF);
            self.w.u8(kind);
            body(self);
        }
    }

    /// Emit a code node: as [`Enc::node`], except that on an address miss
    /// the node is written and then, if a node with the same kind and
    /// bytes was written before, taken back and replaced by a reference
    /// to that one (see the module docs).
    fn code(&mut self, ptr: usize, kind: u8, body: impl FnOnce(&mut ByteWriter)) {
        if let Some(&idx) = self.memo.get(&ptr) {
            return self.reference(idx);
        }
        let def = self.w.len();
        self.w.u8(NODE_DEF);
        self.w.u8(kind);
        body(&mut self.w);
        let span = def + 1..self.w.len();
        let written = self.w.written();
        let mut hasher = DefaultHasher::new();
        written[span.clone()].hash(&mut hasher);
        let hash = hasher.finish();
        let idx = match self.code.get(&hash) {
            Some((idx, seen)) if written[seen.clone()] == written[span.clone()] => {
                let idx = *idx;
                self.w.truncate(def);
                self.reference(idx);
                idx
            }
            seen => {
                let first = seen.is_none();
                let idx = self.next_index();
                if first {
                    self.code.insert(hash, (idx, span));
                }
                idx
            }
        };
        self.memo.insert(ptr, idx);
    }

    fn reference(&mut self, idx: u32) {
        self.w.u8(NODE_REF);
        self.w.u32(idx);
    }

    /// The index the next `NODE_DEF` takes.
    fn next_index(&mut self) -> u32 {
        let idx = self.nodes;
        self.nodes = idx.checked_add(1).expect("node table overflow");
        idx
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Unit => self.w.u8(0),
            Value::Int(i) => {
                self.w.u8(1);
                self.w.i64(*i);
            }
            Value::Bool(b) => {
                self.w.u8(2);
                self.w.bool(*b);
            }
            Value::Str(s) => {
                self.w.u8(3);
                self.w.str(s);
            }
            Value::Record(r) => {
                self.w.u8(4);
                self.record(r);
            }
            Value::Set(s) => {
                self.w.u8(5);
                self.set(s);
            }
            Value::Closure(c) => {
                self.w.u8(6);
                self.closure(c);
            }
            Value::Builtin(b) => {
                self.w.u8(7);
                self.builtin(b);
            }
            Value::LValue(slot) => {
                self.w.u8(8);
                self.w.usize(*slot);
            }
            Value::Obj(o) => {
                self.w.u8(9);
                self.obj(o);
            }
            Value::Class(c) => {
                self.w.u8(10);
                self.w.usize(*c);
            }
        }
    }

    fn record(&mut self, r: &Rc<RecordVal>) {
        self.node(Rc::as_ptr(r) as usize, KIND_RECORD, |e| {
            e.w.u64(r.id);
            e.layout(&r.layout);
            e.w.usize(r.slots.len());
            for s in &r.slots {
                e.w.usize(*s);
            }
        });
    }

    fn layout(&mut self, l: &Rc<Layout>) {
        self.code(Rc::as_ptr(l) as usize, KIND_LAYOUT, |w| write_layout(w, l));
    }

    fn set(&mut self, s: &SetVal) {
        self.node(Rc::as_ptr(&s.0) as usize, KIND_SET, |e| {
            e.w.usize(s.len());
            // Values only: keys are recomputed on decode (`Value::key` is
            // deterministic given the ids, which round-trip).
            for v in s.values() {
                e.value(v);
            }
        });
    }

    fn closure(&mut self, c: &Rc<Closure>) {
        self.node(Rc::as_ptr(c) as usize, KIND_CLOSURE, |e| {
            e.w.u64(c.id);
            e.code(Rc::as_ptr(&c.code) as usize, KIND_CODE, |w| {
                let code = &c.code;
                match &code.fix {
                    None => w.bool(false),
                    Some(f) => {
                        w.bool(true);
                        write_name(w, f);
                    }
                }
                write_name(w, &code.param);
                write_expr(w, &code.body);
            });
            e.w.usize(c.captured.len());
            for v in c.captured.iter() {
                e.value(v);
            }
        });
    }

    fn builtin(&mut self, b: &Rc<Builtin>) {
        self.node(Rc::as_ptr(b) as usize, KIND_BUILTIN, |e| {
            e.w.u64(b.id);
            e.w.str(b.name);
            e.w.usize(b.arity);
            e.w.usize(b.args.len());
            for a in &b.args {
                e.value(a);
            }
        });
    }

    fn obj(&mut self, o: &Rc<ObjVal>) {
        self.node(Rc::as_ptr(o) as usize, KIND_OBJ, |e| {
            e.w.u64(o.id);
            e.value(&o.raw);
            e.viewfn(&o.view);
        });
    }

    fn viewfn(&mut self, vf: &ViewFn) {
        match vf {
            ViewFn::Identity => self.w.u8(0),
            ViewFn::Fn(v) => {
                self.w.u8(1);
                self.value(v);
            }
            ViewFn::Compose(inner, outer) => {
                self.w.u8(2);
                self.view_node(inner);
                self.view_node(outer);
            }
            ViewFn::Tuple(vs) => {
                self.w.u8(3);
                self.w.usize(vs.len());
                for v in vs {
                    self.view_node(v);
                }
            }
            ViewFn::RelFields(fs) => {
                self.w.u8(4);
                self.w.usize(fs.len());
                for (l, v) in fs {
                    write_label(&mut self.w, l);
                    self.view_node(v);
                }
            }
        }
    }

    fn view_node(&mut self, vf: &Rc<ViewFn>) {
        self.node(Rc::as_ptr(vf) as usize, KIND_VIEW, |e| {
            e.viewfn(vf);
        });
    }
}

/// Serialize the complete machine state to the versioned byte format.
/// Infallible: every reachable value has an encoding.
pub fn encode_machine(m: &Machine) -> Vec<u8> {
    let mut e = Enc {
        w: ByteWriter::new(),
        memo: HashMap::new(),
        code: HashMap::new(),
        nodes: 0,
    };
    for b in MACHINE_MAGIC {
        e.w.u8(b);
    }
    e.w.u32(MACHINE_VERSION);
    match m.fuel {
        None => e.w.bool(false),
        Some(f) => {
            e.w.bool(true);
            e.w.u64(f);
        }
    }
    e.w.u64(m.next_id());
    e.w.u64(m.class_epoch());
    e.w.usize(m.store.len());
    e.w.usize(m.class_count());
    for slot in 0..m.store.len() {
        e.value(m.store.get(slot));
    }
    for cid in 0..m.class_count() {
        let cd = m.class_data(cid);
        e.w.usize(cd.own_slot);
        e.w.usize(cd.includes.len());
        for inc in cd.includes.iter() {
            e.w.usize(inc.sources.len());
            for s in &inc.sources {
                e.w.usize(*s);
            }
            e.value(&inc.view);
            e.value(&inc.pred);
        }
    }
    // Sorted for a deterministic byte stream (HashMap order is not).
    let mut globals: Vec<_> = m.globals_iter().collect();
    globals.sort_by(|a, b| a.0.cmp(b.0));
    e.w.usize(globals.len());
    for (name, v) in globals {
        write_name(&mut e.w, name);
        e.value(v);
    }
    e.w.into_bytes()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A decoded node-table entry. Cloning clones the `Rc`, which is exactly
/// how `NODE_REF` restores sharing.
#[derive(Clone)]
enum DecNode {
    Record(Rc<RecordVal>),
    Set(SetVal),
    Closure(Rc<Closure>),
    Builtin(Rc<Builtin>),
    Obj(Rc<ObjVal>),
    Code(Rc<Lambda>),
    Layout(Rc<Layout>),
    View(Rc<ViewFn>),
}

struct Dec<'a> {
    r: ByteReader<'a>,
    /// Table index → decoded node. `None` marks a definition still being
    /// decoded; a reference to it would mean a cycle, which the encoder
    /// cannot produce (the value graph is acyclic), so it is rejected.
    nodes: Vec<Option<DecNode>>,
    /// Bounds from the header, for validating ids as they are read.
    store_len: usize,
    class_count: usize,
    next_id: u64,
    /// Builtin name → (arity, fn pointer), resolved from the running
    /// binary.
    natives: HashMap<&'static str, (usize, builtins::NativeFn)>,
}

impl<'a> Dec<'a> {
    fn node(&mut self, expect: u8) -> Result<DecNode, WireError> {
        match self.r.u8("node framing")? {
            NODE_DEF => {
                let idx = self.nodes.len();
                self.nodes.push(None);
                let kind = self.r.u8("node kind")?;
                if kind != expect {
                    return Err(WireError::Malformed(format!(
                        "expected {} node, found {}",
                        kind_name(expect),
                        kind_name(kind)
                    )));
                }
                let n = self.node_body(kind)?;
                self.nodes[idx] = Some(n.clone());
                Ok(n)
            }
            NODE_REF => {
                let idx = self.r.u32("node index")? as usize;
                match self.nodes.get(idx) {
                    Some(Some(n)) => {
                        let n = n.clone();
                        self.check_ref_kind(&n, expect, idx)?;
                        Ok(n)
                    }
                    Some(None) => Err(WireError::Malformed(format!(
                        "reference to node {idx} from inside its own definition (cycle)"
                    ))),
                    None => Err(WireError::Malformed(format!(
                        "dangling reference to undefined node {idx}"
                    ))),
                }
            }
            tag => Err(WireError::BadTag {
                what: "node framing",
                tag,
            }),
        }
    }

    fn check_ref_kind(&self, n: &DecNode, expect: u8, idx: usize) -> Result<(), WireError> {
        let got = match n {
            DecNode::Record(_) => KIND_RECORD,
            DecNode::Set(_) => KIND_SET,
            DecNode::Closure(_) => KIND_CLOSURE,
            DecNode::Builtin(_) => KIND_BUILTIN,
            DecNode::Obj(_) => KIND_OBJ,
            DecNode::Code(_) => KIND_CODE,
            DecNode::Layout(_) => KIND_LAYOUT,
            DecNode::View(_) => KIND_VIEW,
        };
        if got != expect {
            return Err(WireError::Malformed(format!(
                "node {idx} is a {} but was referenced as a {}",
                kind_name(got),
                kind_name(expect)
            )));
        }
        Ok(())
    }

    fn node_body(&mut self, kind: u8) -> Result<DecNode, WireError> {
        match kind {
            KIND_RECORD => {
                let id = self.id("record id")?;
                let layout = self.layout()?;
                let n = self.r.count("record slot count")?;
                let mut slots = Vec::with_capacity(n);
                for _ in 0..n {
                    slots.push(self.slot("record slot")?);
                }
                if slots.len() != layout.len() {
                    return Err(WireError::Malformed(format!(
                        "record {id} has {} slots but its layout has {} fields",
                        slots.len(),
                        layout.len()
                    )));
                }
                Ok(DecNode::Record(Rc::new(RecordVal { id, layout, slots })))
            }
            KIND_SET => {
                let n = self.r.count("set element count")?;
                let mut elems = Vec::with_capacity(n);
                for _ in 0..n {
                    elems.push(self.value()?);
                }
                // Keys are recomputed: deterministic given the decoded ids.
                Ok(DecNode::Set(SetVal::from_elems(elems)))
            }
            KIND_CLOSURE => {
                let id = self.id("closure id")?;
                let code = match self.node(KIND_CODE)? {
                    DecNode::Code(c) => c,
                    _ => unreachable!("kind checked"),
                };
                let n = self.r.count("captured values")?;
                if !well_scoped(&code, n) {
                    return Err(WireError::Malformed(format!(
                        "closure {id} code reads a slot its frame does not have: {}",
                        polyview_syntax::Expr::LamAt(code)
                    )));
                }
                let mut captured = Vec::with_capacity(n);
                for _ in 0..n {
                    captured.push(self.value()?);
                }
                Ok(DecNode::Closure(Rc::new(Closure {
                    id,
                    code,
                    captured: captured.into_boxed_slice(),
                })))
            }
            KIND_BUILTIN => {
                let id = self.id("builtin id")?;
                let name = self.r.str("builtin name")?;
                let arity = self.r.usize("builtin arity")?;
                let Some(&(native_arity, f)) = self.natives.get(name.as_str()) else {
                    return Err(WireError::Malformed(format!(
                        "snapshot references builtin {name:?}, unknown to this binary"
                    )));
                };
                if arity != native_arity {
                    return Err(WireError::Malformed(format!(
                        "builtin {name:?} arity mismatch: snapshot says {arity}, binary says {native_arity}"
                    )));
                }
                let n = self.r.count("builtin applied-arg count")?;
                if n >= arity.max(1) {
                    return Err(WireError::Malformed(format!(
                        "builtin {name:?} carries {n} applied args at arity {arity}"
                    )));
                }
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    args.push(self.value()?);
                }
                // The name's &'static str comes from the natives table, not
                // the snapshot buffer.
                let name: &'static str = self
                    .natives
                    .keys()
                    .find(|k| **k == name.as_str())
                    .copied()
                    .expect("present: resolved above");
                Ok(DecNode::Builtin(Rc::new(Builtin {
                    id,
                    name,
                    arity,
                    args,
                    f,
                })))
            }
            KIND_OBJ => {
                let id = self.id("object id")?;
                let raw = self.value()?;
                let view = self.viewfn()?;
                Ok(DecNode::Obj(Rc::new(ObjVal { id, raw, view })))
            }
            KIND_CODE => {
                let fix = if self.r.bool("fix present")? {
                    Some(read_name(&mut self.r)?)
                } else {
                    None
                };
                let param = read_name(&mut self.r)?;
                let body = read_expr(&mut self.r)?;
                Ok(DecNode::Code(Rc::new(Lambda {
                    fix,
                    param,
                    captures: Vec::new(),
                    body,
                })))
            }
            KIND_LAYOUT => Ok(DecNode::Layout(Rc::new(read_layout(&mut self.r)?))),
            KIND_VIEW => Ok(DecNode::View(Rc::new(self.viewfn()?))),
            tag => Err(WireError::BadTag {
                what: "node kind",
                tag,
            }),
        }
    }

    fn value(&mut self) -> Result<Value, WireError> {
        Ok(match self.r.u8("value tag")? {
            0 => Value::Unit,
            1 => Value::Int(self.r.i64("int value")?),
            2 => Value::Bool(self.r.bool("bool value")?),
            3 => Value::str(self.r.str("str value")?),
            4 => match self.node(KIND_RECORD)? {
                DecNode::Record(r) => Value::Record(r),
                _ => unreachable!("kind checked"),
            },
            5 => match self.node(KIND_SET)? {
                DecNode::Set(s) => Value::Set(s),
                _ => unreachable!("kind checked"),
            },
            6 => match self.node(KIND_CLOSURE)? {
                DecNode::Closure(c) => Value::Closure(c),
                _ => unreachable!("kind checked"),
            },
            7 => match self.node(KIND_BUILTIN)? {
                DecNode::Builtin(b) => Value::Builtin(b),
                _ => unreachable!("kind checked"),
            },
            8 => Value::LValue(self.slot("lvalue slot")?),
            9 => match self.node(KIND_OBJ)? {
                DecNode::Obj(o) => Value::Obj(o),
                _ => unreachable!("kind checked"),
            },
            10 => Value::Class(self.class_id("class value")?),
            tag => {
                return Err(WireError::BadTag {
                    what: "value tag",
                    tag,
                })
            }
        })
    }

    fn layout(&mut self) -> Result<Rc<Layout>, WireError> {
        match self.node(KIND_LAYOUT)? {
            DecNode::Layout(l) => Ok(l),
            _ => unreachable!("kind checked"),
        }
    }

    fn viewfn(&mut self) -> Result<ViewFn, WireError> {
        Ok(match self.r.u8("view-fn tag")? {
            0 => ViewFn::Identity,
            1 => ViewFn::Fn(self.value()?),
            2 => {
                let inner = self.view_node()?;
                let outer = self.view_node()?;
                ViewFn::Compose(inner, outer)
            }
            3 => {
                let n = self.r.count("view tuple arity")?;
                let mut vs = Vec::with_capacity(n);
                for _ in 0..n {
                    vs.push(self.view_node()?);
                }
                ViewFn::Tuple(vs)
            }
            4 => {
                let n = self.r.count("view field count")?;
                let mut fs = Vec::with_capacity(n);
                for _ in 0..n {
                    let l = read_label(&mut self.r)?;
                    fs.push((l, self.view_node()?));
                }
                ViewFn::RelFields(fs)
            }
            tag => {
                return Err(WireError::BadTag {
                    what: "view-fn tag",
                    tag,
                })
            }
        })
    }

    fn view_node(&mut self) -> Result<Rc<ViewFn>, WireError> {
        match self.node(KIND_VIEW)? {
            DecNode::View(v) => Ok(v),
            _ => unreachable!("kind checked"),
        }
    }

    fn slot(&mut self, what: &'static str) -> Result<usize, WireError> {
        let s = self.r.usize(what)?;
        if s >= self.store_len {
            return Err(WireError::Malformed(format!(
                "{what} {s} out of range (store has {} slots)",
                self.store_len
            )));
        }
        Ok(s)
    }

    fn class_id(&mut self, what: &'static str) -> Result<usize, WireError> {
        let c = self.r.usize(what)?;
        if c >= self.class_count {
            return Err(WireError::Malformed(format!(
                "{what} {c} out of range (table has {} classes)",
                self.class_count
            )));
        }
        Ok(c)
    }

    fn id(&mut self, what: &'static str) -> Result<u64, WireError> {
        let id = self.r.u64(what)?;
        if id >= self.next_id {
            return Err(WireError::Malformed(format!(
                "{what} {id} not below the identity counter {}",
                self.next_id
            )));
        }
        Ok(id)
    }
}

/// Reconstruct a machine from bytes produced by [`encode_machine`].
/// Anything else — truncation, version skew, dangling node references,
/// out-of-range slot/class/identity ids, unknown builtins, trailing
/// garbage — is a loud [`WireError`], never a silently wrong machine.
pub fn decode_machine(bytes: &[u8]) -> Result<Machine, WireError> {
    let mut d = Dec {
        r: ByteReader::new(bytes),
        nodes: Vec::new(),
        store_len: 0,
        class_count: 0,
        next_id: 0,
        natives: builtins::natives()
            .into_iter()
            .map(|(name, arity, f)| (name, (arity, f)))
            .collect(),
    };
    for expected in MACHINE_MAGIC {
        if d.r.u8("magic")? != expected {
            return Err(WireError::Malformed(
                "bad magic: not a machine snapshot".into(),
            ));
        }
    }
    let version = d.r.u32("version")?;
    if version != MACHINE_VERSION {
        return Err(WireError::Malformed(format!(
            "unsupported machine snapshot version {version} (this binary reads {MACHINE_VERSION})"
        )));
    }
    let fuel = if d.r.bool("fuel present")? {
        Some(d.r.u64("fuel")?)
    } else {
        None
    };
    d.next_id = d.r.u64("identity counter")?;
    let class_epoch = d.r.u64("class epoch")?;
    d.store_len = d.r.count("store length")?;
    d.class_count = d.r.count("class count")?;

    let mut store = Store::new();
    for _ in 0..d.store_len {
        let v = d.value()?;
        store.alloc(v);
    }

    let mut classes = Vec::with_capacity(d.class_count);
    for _ in 0..d.class_count {
        let own_slot = d.slot("class own-extent slot")?;
        let n = d.r.count("include count")?;
        let mut includes = Vec::with_capacity(n);
        for _ in 0..n {
            let ns = d.r.count("include source count")?;
            let mut sources = Vec::with_capacity(ns);
            for _ in 0..ns {
                sources.push(d.class_id("include source")?);
            }
            let view = d.value()?;
            let pred = d.value()?;
            includes.push(IncludeSpec {
                sources,
                view,
                pred,
            });
        }
        classes.push(ClassData {
            own_slot,
            includes: includes.into(),
        });
    }

    let count = d.r.count("global count")?;
    let mut globals = Vec::with_capacity(count);
    for _ in 0..count {
        let name: Name = read_name(&mut d.r)?;
        let v = d.value()?;
        globals.push((name, v));
    }

    if !d.r.finished() {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after machine snapshot",
            d.r.remaining()
        )));
    }
    let next_id = d.next_id;
    Ok(Machine::restore(
        store,
        classes,
        globals,
        next_id,
        class_epoch,
        fuel,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyview_syntax::{Expr, Idx, Label, Lit, Slot};

    /// The code of `fn x => body`, capturing `captures`.
    fn code(captures: Vec<Slot>, body: Expr) -> Rc<Lambda> {
        Rc::new(Lambda {
            fix: None,
            param: Label::new("x"),
            captures,
            body,
        })
    }

    fn roundtrip(m: &Machine) -> Machine {
        decode_machine(&encode_machine(m)).expect("roundtrip decodes")
    }

    #[test]
    fn fresh_machine_roundtrips() {
        let m = Machine::new();
        let r = roundtrip(&m);
        assert_eq!(r.next_id(), m.next_id());
        assert_eq!(r.class_epoch(), 0);
        assert_eq!(r.store.len(), 0);
        assert_eq!(r.class_count(), 0);
        assert_eq!(r.globals_iter().count(), m.globals_iter().count());
    }

    #[test]
    fn restored_builtins_are_callable() {
        let m = Machine::new();
        let mut r = roundtrip(&m);
        let e = Expr::app(
            Expr::app(Expr::Var(Label::new("add")), Expr::Lit(Lit::Int(2))),
            Expr::Lit(Lit::Int(40)),
        );
        let v = r.eval(&e).expect("add applies");
        assert!(matches!(v, Value::Int(42)));
    }

    #[test]
    fn shared_record_identity_survives() {
        let mut m = Machine::new();
        let slot = m.store.alloc(Value::Int(1));
        let id = m.fresh_id();
        let rec = Rc::new(RecordVal {
            id,
            layout: Rc::new(Layout::new([(Label::new("A"), true)])),
            slots: vec![slot],
        });
        m.define_global("x", Value::Record(rec.clone()));
        m.define_global("y", Value::Record(rec));
        let r = roundtrip(&m);
        let x = r.global(&Label::new("x")).unwrap().as_record().unwrap();
        let y = r.global(&Label::new("y")).unwrap().as_record().unwrap();
        assert!(Rc::ptr_eq(x, y), "shared record decoded as one allocation");
        assert_eq!(x.id, id);
        // Slot-level sharing: both see the same store cell.
        let mut r = roundtrip(&m);
        r.store.set(slot, Value::Int(99));
        let x = r.global(&Label::new("x")).unwrap().as_record().unwrap();
        assert!(matches!(r.store.get(x.slots[0]), Value::Int(99)));
    }

    #[test]
    fn distinct_records_stay_distinct() {
        let mut m = Machine::new();
        let layout = Rc::new(Layout::new([(Label::new("A"), true)]));
        let s1 = m.store.alloc(Value::Int(1));
        let s2 = m.store.alloc(Value::Int(1));
        let id1 = m.fresh_id();
        let id2 = m.fresh_id();
        m.define_global(
            "x",
            Value::Record(Rc::new(RecordVal {
                id: id1,
                layout: layout.clone(),
                slots: vec![s1],
            })),
        );
        m.define_global(
            "y",
            Value::Record(Rc::new(RecordVal {
                id: id2,
                layout,
                slots: vec![s2],
            })),
        );
        let r = roundtrip(&m);
        let x = r.global(&Label::new("x")).unwrap().as_record().unwrap();
        let y = r.global(&Label::new("y")).unwrap().as_record().unwrap();
        assert!(!Rc::ptr_eq(x, y));
        assert_ne!(x.id, y.id);
        // The shared *layout* still decodes to one allocation.
        assert!(Rc::ptr_eq(&x.layout, &y.layout));
    }

    #[test]
    fn closure_code_sharing_and_captures_survive() {
        let mut m = Machine::new();
        // fn x => n, with n captured as 7 by one closure and 8 by another.
        let body = code(
            vec![Slot::Local(0)],
            Expr::VarAt(Label::new("n"), Slot::Captured(0)),
        );
        for (name, n) in [("f", 7), ("g", 8)] {
            let c = Closure {
                id: m.fresh_id(),
                code: body.clone(),
                captured: Box::new([Value::Int(n)]),
            };
            m.define_global(name, Value::Closure(Rc::new(c)));
        }
        let mut r = roundtrip(&m);
        let (f, g) = match (
            r.global(&Label::new("f")).unwrap().clone(),
            r.global(&Label::new("g")).unwrap().clone(),
        ) {
            (Value::Closure(f), Value::Closure(g)) => (f, g),
            other => panic!("expected closures, got {other:?}"),
        };
        assert!(Rc::ptr_eq(&f.code, &g.code), "shared code stays shared");
        for (name, want) in [("f", 7), ("g", 8)] {
            let v = r
                .eval(&Expr::app(
                    Expr::Var(Label::new(name)),
                    Expr::Lit(Lit::Unit),
                ))
                .expect("captured binding applies");
            assert!(matches!(v, Value::Int(n) if n == want), "{name}: {v:?}");
        }
    }

    #[test]
    fn code_with_a_retired_tag_is_refused() {
        // A closure whose code holds a marker, so the tag before it can be
        // found in the bytes and overwritten.
        const MARK: i64 = 0x0123_4567_89ab_cdef;
        let encoded = |body: Expr| {
            let mut m = Machine::new();
            let c = Closure {
                id: m.fresh_id(),
                code: code(Vec::new(), body),
                captured: Box::new([]),
            };
            m.define_global("f", Value::Closure(Rc::new(c)));
            let bytes = encode_machine(&m);
            let at = bytes
                .windows(8)
                .position(|w| w == MARK.to_le_bytes())
                .expect("the marker is encoded");
            (bytes, at)
        };
        // `Lit(Int(MARK))`: the expression tag, the literal tag, the int.
        let (bytes, at) = encoded(Expr::Lit(Lit::Int(MARK)));
        // Var, λ, record, dot, extract, update: the un-resolved forms.
        for tag in [1, 3, 5, 6, 7, 8] {
            let mut bad = bytes.clone();
            bad[at - 2] = tag;
            assert_eq!(
                decode_machine(&bad).err(),
                Some(WireError::BadTag { what: "expr", tag })
            );
        }
        // `x.N@MARK`: the index tag, then the offset. Tag 1 was a named
        // index parameter.
        let at_x = Expr::VarAt(Label::new("x"), Slot::Local(0));
        let (mut bad, at) = encoded(Expr::dot_at(at_x, "N", Idx::Const(MARK as usize)));
        bad[at - 1] = 1;
        assert_eq!(
            decode_machine(&bad).err(),
            Some(WireError::BadTag {
                what: "idx",
                tag: 1
            })
        );
    }

    #[test]
    fn closure_code_reading_a_missing_slot_is_refused() {
        let mut m = Machine::new();
        let c = Closure {
            id: m.fresh_id(),
            code: code(Vec::new(), Expr::VarAt(Label::new("y"), Slot::Local(1))),
            captured: Box::new([]),
        };
        m.define_global("f", Value::Closure(Rc::new(c)));
        let err = decode_machine(&encode_machine(&m)).err().expect("refused");
        assert!(
            err.to_string().contains("slot its frame does not have"),
            "{err}"
        );
    }

    #[test]
    fn sets_and_objects_roundtrip() {
        let mut m = Machine::new();
        let slot = m.store.alloc(Value::str("ann"));
        let raw_id = m.fresh_id();
        let raw = Value::Record(Rc::new(RecordVal {
            id: raw_id,
            layout: Rc::new(Layout::new([(Label::new("Name"), true)])),
            slots: vec![slot],
        }));
        let o1 = Value::Obj(Rc::new(ObjVal {
            id: m.fresh_id(),
            raw: raw.clone(),
            view: ViewFn::Identity,
        }));
        let o2 = Value::Obj(Rc::new(ObjVal {
            id: m.fresh_id(),
            raw,
            view: ViewFn::Identity,
        }));
        let set = Value::Set(SetVal::from_elems([o1, o2]));
        m.define_global("s", set.clone());
        let r = roundtrip(&m);
        let got = r.global(&Label::new("s")).unwrap();
        // objeq identifies the two objects (same raw id): one element in,
        // one element out, and the rendering agrees.
        assert_eq!(got.as_set().unwrap().len(), set.as_set().unwrap().len());
        assert_eq!(r.show(got), m.show(&set));
        // The raw record behind the surviving object is the same
        // allocation graph: its id survived.
        let obj = got.as_set().unwrap().values().next().unwrap();
        assert_eq!(obj.as_obj().unwrap().raw.as_record().unwrap().id, raw_id);
    }

    #[test]
    fn classes_roundtrip() {
        let mut m = Machine::new();
        let own = m.store.alloc(Value::Set(SetVal::empty()));
        m.push_class_for_test(ClassData {
            own_slot: own,
            includes: Rc::from([IncludeSpec {
                sources: vec![0],
                view: Value::Closure(Rc::new(Closure {
                    id: 100,
                    code: code(Vec::new(), Expr::VarAt(Label::new("x"), Slot::Local(0))),
                    captured: Box::new([]),
                })),
                pred: Value::Bool(true),
            }]),
        });
        // Keep next_id above the closure id minted by hand.
        while m.next_id() <= 100 {
            m.fresh_id();
        }
        let r = roundtrip(&m);
        assert_eq!(r.class_count(), 1);
        let cd = r.class_data(0);
        assert_eq!(cd.own_slot, own);
        assert_eq!(cd.includes.len(), 1);
        assert_eq!(cd.includes[0].sources, vec![0]);
    }

    #[test]
    fn corrupt_input_is_loud() {
        assert!(decode_machine(b"garbage").is_err());
        assert!(decode_machine(b"").is_err());
        let good = encode_machine(&Machine::new());
        assert!(
            decode_machine(&good[..good.len() - 1]).is_err(),
            "truncated"
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_machine(&trailing).is_err(), "trailing bytes");
        let mut wrong_version = good.clone();
        wrong_version[4] = 0xFF;
        assert!(decode_machine(&wrong_version).is_err(), "version skew");
        // A version-1 snapshot (named environment chains) or version-2 one
        // (un-resolved code tags) is refused by name, before any of its
        // closures is read.
        for old in [1u32, 2] {
            let mut bytes = good.clone();
            bytes[4..8].copy_from_slice(&old.to_le_bytes());
            let err = decode_machine(&bytes).err().expect("older version refused");
            assert!(
                err.to_string()
                    .contains(&format!("unsupported machine snapshot version {old}")),
                "{err}"
            );
        }
    }
}
