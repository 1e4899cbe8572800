//! A hand-rolled binary codec for the syntax layer, following the
//! no-serde discipline of `obs::jsonl`: fixed-width little-endian
//! integers, length-prefixed UTF-8 strings, one `u8` tag per enum
//! variant. The engine snapshot tier (DESIGN.md §17) builds on these
//! primitives: `polyview-eval` encodes closure bodies and layouts with
//! them, `polyview-core` encodes schemes and kinds.
//!
//! The format is intentionally dumb — no varints, no compression, no
//! self-description — because snapshots are versioned at the envelope
//! level (the eval/core headers carry magic + version) and decoded only
//! by the same build that defines these tags. Every decode path returns
//! a [`WireError`] instead of panicking: a truncated or corrupt snapshot
//! must surface loudly to the caller, never produce a half-decoded
//! value.
//!
//! `Expr` trees are encoded structurally, and only in resolved form
//! (DESIGN.md §13), the one code form a machine holds: a variable's slot,
//! a resolved λ's capture list and a field operation's offset are plain
//! data. Sharing of closure code across values is
//! preserved one level up, by the evaluator's node table
//! (`polyview_eval::snapshot`), which shares whole closure bodies by
//! content before delegating to [`write_expr`] for their contents.

use crate::kind::{FieldReq, Kind, MutReq};
use crate::label::{Label, Name};
use crate::layout::Layout;
use crate::scheme::Scheme;
use crate::term::{ClassDef, Expr, Idx, IncludeClause, Lambda, Lit, Slot};
use crate::types::{BaseTy, FieldTy, Mono};
use std::fmt;

/// A decode failure. Encoding is infallible; decoding anything that was
/// not produced by the matching encoder is not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated { what: &'static str },
    /// An enum tag byte outside the known range.
    BadTag { what: &'static str, tag: u8 },
    /// A length-prefixed string that is not UTF-8.
    BadUtf8,
    /// Anything else (bad magic, unsupported version, dangling node
    /// reference, …) — the message says what.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "snapshot truncated while reading {what}"),
            WireError::BadTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in snapshot string"),
            WireError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only byte sink. All integers are little-endian fixed width.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `usize` stored as `u64` (offsets, lengths, slot ids).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Raw bytes with a length prefix (nested sections).
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Everything written so far.
    pub fn written(&self) -> &[u8] {
        &self.buf
    }

    /// Take back everything written after the first `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }
}

/// Cursor over an encoded buffer. Every read checks bounds and returns
/// [`WireError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what, tag }),
        }
    }

    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("len checked")))
    }

    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("len checked")))
    }

    pub fn i64(&mut self, what: &'static str) -> Result<i64, WireError> {
        let b = self.take(8, what)?;
        Ok(i64::from_le_bytes(b.try_into().expect("len checked")))
    }

    pub fn usize(&mut self, what: &'static str) -> Result<usize, WireError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| WireError::Malformed(format!("{what}: {v} overflows usize")))
    }

    pub fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let n = self.u32(what)? as usize;
        let b = self.take(n, what)?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// A length-prefixed nested section written by [`ByteWriter::bytes`].
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], WireError> {
        let n = self.usize(what)?;
        self.take(n, what)
    }

    /// Bounded element count for a collection about to be decoded: a
    /// corrupt length prefix must not become a huge allocation.
    pub fn count(&mut self, what: &'static str) -> Result<usize, WireError> {
        let n = self.usize(what)?;
        if n > self.remaining() {
            return Err(WireError::Malformed(format!(
                "{what}: count {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Labels and literals
// ---------------------------------------------------------------------

pub fn write_label(w: &mut ByteWriter, l: &Label) {
    w.str(l.as_str());
}

pub fn read_label(r: &mut ByteReader) -> Result<Label, WireError> {
    Ok(Label::new(r.str("label")?))
}

pub fn write_lit(w: &mut ByteWriter, l: &Lit) {
    match l {
        Lit::Unit => w.u8(0),
        Lit::Int(n) => {
            w.u8(1);
            w.i64(*n);
        }
        Lit::Bool(b) => {
            w.u8(2);
            w.bool(*b);
        }
        Lit::Str(s) => {
            w.u8(3);
            w.str(s);
        }
    }
}

pub fn read_lit(r: &mut ByteReader) -> Result<Lit, WireError> {
    Ok(match r.u8("lit tag")? {
        0 => Lit::Unit,
        1 => Lit::Int(r.i64("int lit")?),
        2 => Lit::Bool(r.bool("bool lit")?),
        3 => Lit::Str(r.str("str lit")?),
        tag => return Err(WireError::BadTag { what: "lit", tag }),
    })
}

// ---------------------------------------------------------------------
// Layouts
// ---------------------------------------------------------------------

pub fn write_layout(w: &mut ByteWriter, l: &Layout) {
    w.usize(l.len());
    for (label, mutable) in l.iter() {
        write_label(w, label);
        w.bool(mutable);
    }
}

pub fn read_layout(r: &mut ByteReader) -> Result<Layout, WireError> {
    let n = r.count("layout fields")?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let label = read_label(r)?;
        let mutable = r.bool("layout mutability")?;
        fields.push((label, mutable));
    }
    Ok(Layout::new(fields))
}

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

/// Tag 1, a named index parameter, is retired with the un-resolved forms.
fn write_idx(w: &mut ByteWriter, i: &Idx) {
    match i {
        Idx::Const(n) => {
            w.u8(0);
            w.usize(*n);
        }
        Idx::At(name, slot) => {
            w.u8(2);
            write_label(w, name);
            write_slot(w, *slot);
        }
        Idx::Dynamic => w.u8(3),
    }
}

fn write_slot(w: &mut ByteWriter, s: Slot) {
    let (tag, i) = match s {
        Slot::Local(i) => (0, i),
        Slot::Captured(i) => (1, i),
        Slot::Global(i) => (2, i),
    };
    w.u8(tag);
    w.u32(i);
}

fn read_slot(r: &mut ByteReader) -> Result<Slot, WireError> {
    let tag = r.u8("slot tag")?;
    let i = r.u32("slot index")?;
    Ok(match tag {
        0 => Slot::Local(i),
        1 => Slot::Captured(i),
        2 => Slot::Global(i),
        tag => return Err(WireError::BadTag { what: "slot", tag }),
    })
}

fn read_idx(r: &mut ByteReader) -> Result<Idx, WireError> {
    Ok(match r.u8("idx tag")? {
        0 => Idx::Const(r.usize("const idx")?),
        2 => Idx::At(read_label(r)?, read_slot(r)?),
        3 => Idx::Dynamic,
        tag => return Err(WireError::BadTag { what: "idx", tag }),
    })
}

fn write_class_def(w: &mut ByteWriter, c: &ClassDef) {
    write_expr(w, &c.own);
    w.usize(c.includes.len());
    for inc in &c.includes {
        w.usize(inc.sources.len());
        for s in &inc.sources {
            write_expr(w, s);
        }
        write_expr(w, &inc.view);
        write_expr(w, &inc.pred);
    }
}

fn read_class_def(r: &mut ByteReader) -> Result<ClassDef, WireError> {
    let own = Box::new(read_expr(r)?);
    let n = r.count("include clauses")?;
    let mut includes = Vec::with_capacity(n);
    for _ in 0..n {
        let m = r.count("include sources")?;
        let mut sources = Vec::with_capacity(m);
        for _ in 0..m {
            sources.push(read_expr(r)?);
        }
        let view = read_expr(r)?;
        let pred = read_expr(r)?;
        includes.push(IncludeClause {
            sources,
            view,
            pred,
        });
    }
    Ok(ClassDef { own, includes })
}

/// Encode resolved code (`crate::resolve::is_resolved`): the only code a
/// machine holds. Tags 1, 3, 5, 6, 7 and 8 belonged to the un-resolved
/// forms (`Var`, `λ`, a record construction, `e·l`, `extract`, `update`)
/// and are retired, not reused; the decoder refuses them.
pub fn write_expr(w: &mut ByteWriter, e: &Expr) {
    match e {
        Expr::Lit(l) => {
            w.u8(0);
            write_lit(w, l);
        }
        Expr::Eq(a, b) => {
            w.u8(2);
            write_expr(w, a);
            write_expr(w, b);
        }
        Expr::App(f, a) => {
            w.u8(4);
            write_expr(w, f);
            write_expr(w, a);
        }
        Expr::SetLit(es) => {
            w.u8(9);
            w.usize(es.len());
            for e in es {
                write_expr(w, e);
            }
        }
        Expr::Union(a, b) => {
            w.u8(10);
            write_expr(w, a);
            write_expr(w, b);
        }
        Expr::Hom(s, f, op, z) => {
            w.u8(11);
            write_expr(w, s);
            write_expr(w, f);
            write_expr(w, op);
            write_expr(w, z);
        }
        Expr::Fix(x, body) => {
            w.u8(12);
            write_label(w, x);
            write_expr(w, body);
        }
        Expr::Let(x, rhs, body) => {
            w.u8(13);
            write_label(w, x);
            write_expr(w, rhs);
            write_expr(w, body);
        }
        Expr::If(c, t, e) => {
            w.u8(14);
            write_expr(w, c);
            write_expr(w, t);
            write_expr(w, e);
        }
        Expr::IdView(e) => {
            w.u8(15);
            write_expr(w, e);
        }
        Expr::AsView(e, v) => {
            w.u8(16);
            write_expr(w, e);
            write_expr(w, v);
        }
        Expr::Query(f, o) => {
            w.u8(17);
            write_expr(w, f);
            write_expr(w, o);
        }
        Expr::Fuse(a, b) => {
            w.u8(18);
            write_expr(w, a);
            write_expr(w, b);
        }
        Expr::RelObj(fields) => {
            w.u8(19);
            w.usize(fields.len());
            for (l, e) in fields {
                write_label(w, l);
                write_expr(w, e);
            }
        }
        Expr::ClassExpr(c) => {
            w.u8(20);
            write_class_def(w, c);
        }
        Expr::CQuery(f, c) => {
            w.u8(21);
            write_expr(w, f);
            write_expr(w, c);
        }
        Expr::Insert(c, e) => {
            w.u8(22);
            write_expr(w, c);
            write_expr(w, e);
        }
        Expr::Delete(c, e) => {
            w.u8(23);
            write_expr(w, c);
            write_expr(w, e);
        }
        Expr::LetClasses(defs, body) => {
            w.u8(24);
            w.usize(defs.len());
            for (n, c) in defs {
                write_label(w, n);
                write_class_def(w, c);
            }
            write_expr(w, body);
        }
        Expr::DotAt(e, l, i) => {
            w.u8(25);
            write_expr(w, e);
            write_label(w, l);
            write_idx(w, i);
        }
        Expr::ExtractAt(e, l, i) => {
            w.u8(26);
            write_expr(w, e);
            write_label(w, l);
            write_idx(w, i);
        }
        Expr::UpdateAt(e, l, i, v) => {
            w.u8(27);
            write_expr(w, e);
            write_label(w, l);
            write_idx(w, i);
            write_expr(w, v);
        }
        Expr::RecordAt(layout, entries) => {
            w.u8(28);
            write_layout(w, layout);
            w.usize(entries.len());
            for (off, e) in entries {
                w.usize(*off);
                write_expr(w, e);
            }
        }
        Expr::Collect(s, f) => {
            w.u8(29);
            write_expr(w, s);
            write_expr(w, f);
        }
        Expr::VarAt(x, slot) => {
            w.u8(30);
            write_label(w, x);
            write_slot(w, *slot);
        }
        Expr::LamAt(l) => {
            w.u8(31);
            write_lambda(w, l);
        }
        Expr::Var(_)
        | Expr::Lam(..)
        | Expr::Record(_)
        | Expr::Dot(..)
        | Expr::Extract(..)
        | Expr::Update(..) => unreachable!("only resolved code is encoded, not {e}"),
    }
}

/// Encode a resolved λ: its `fix` name, parameter, capture list and body.
fn write_lambda(w: &mut ByteWriter, l: &Lambda) {
    match &l.fix {
        None => w.bool(false),
        Some(f) => {
            w.bool(true);
            write_label(w, f);
        }
    }
    write_label(w, &l.param);
    w.usize(l.captures.len());
    for s in &l.captures {
        write_slot(w, *s);
    }
    write_expr(w, &l.body);
}

/// Decode a resolved λ written by [`write_lambda`].
fn read_lambda(r: &mut ByteReader) -> Result<Lambda, WireError> {
    let fix = if r.bool("fix present")? {
        Some(read_label(r)?)
    } else {
        None
    };
    let param = read_label(r)?;
    let n = r.count("captures")?;
    let mut captures = Vec::with_capacity(n);
    for _ in 0..n {
        captures.push(read_slot(r)?);
    }
    let body = read_expr(r)?;
    Ok(Lambda {
        fix,
        param,
        captures,
        body,
    })
}

/// Decode an expression tree written by [`write_expr`].
pub fn read_expr(r: &mut ByteReader) -> Result<Expr, WireError> {
    Ok(match r.u8("expr tag")? {
        0 => Expr::Lit(read_lit(r)?),
        2 => Expr::eq(read_expr(r)?, read_expr(r)?),
        4 => Expr::app(read_expr(r)?, read_expr(r)?),
        9 => {
            let n = r.count("set elements")?;
            let mut es = Vec::with_capacity(n);
            for _ in 0..n {
                es.push(read_expr(r)?);
            }
            Expr::SetLit(es)
        }
        10 => Expr::union(read_expr(r)?, read_expr(r)?),
        11 => Expr::hom(read_expr(r)?, read_expr(r)?, read_expr(r)?, read_expr(r)?),
        12 => {
            let x = read_label(r)?;
            Expr::fix(x, read_expr(r)?)
        }
        13 => {
            let x = read_label(r)?;
            let rhs = read_expr(r)?;
            Expr::let_(x, rhs, read_expr(r)?)
        }
        14 => Expr::if_(read_expr(r)?, read_expr(r)?, read_expr(r)?),
        15 => Expr::id_view(read_expr(r)?),
        16 => Expr::as_view(read_expr(r)?, read_expr(r)?),
        17 => Expr::query(read_expr(r)?, read_expr(r)?),
        18 => Expr::fuse(read_expr(r)?, read_expr(r)?),
        19 => {
            let n = r.count("relobj fields")?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let l = read_label(r)?;
                fields.push((l, read_expr(r)?));
            }
            Expr::RelObj(fields)
        }
        20 => Expr::ClassExpr(read_class_def(r)?),
        21 => Expr::cquery(read_expr(r)?, read_expr(r)?),
        22 => Expr::insert(read_expr(r)?, read_expr(r)?),
        23 => Expr::delete(read_expr(r)?, read_expr(r)?),
        24 => {
            let n = r.count("class group")?;
            let mut defs = Vec::with_capacity(n);
            for _ in 0..n {
                let name = read_label(r)?;
                defs.push((name, read_class_def(r)?));
            }
            Expr::LetClasses(defs, Box::new(read_expr(r)?))
        }
        25 => {
            let e = read_expr(r)?;
            let l = read_label(r)?;
            Expr::dot_at(e, l, read_idx(r)?)
        }
        26 => {
            let e = read_expr(r)?;
            let l = read_label(r)?;
            Expr::extract_at(e, l, read_idx(r)?)
        }
        27 => {
            let e = read_expr(r)?;
            let l = read_label(r)?;
            let i = read_idx(r)?;
            Expr::update_at(e, l, i, read_expr(r)?)
        }
        28 => {
            let layout = read_layout(r)?;
            let n = r.count("record-at entries")?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let off = r.usize("slot offset")?;
                entries.push((off, read_expr(r)?));
            }
            Expr::RecordAt(std::rc::Rc::new(layout), entries)
        }
        29 => Expr::collect(read_expr(r)?, read_expr(r)?),
        30 => Expr::VarAt(read_label(r)?, read_slot(r)?),
        31 => Expr::LamAt(std::rc::Rc::new(read_lambda(r)?)),
        tag => return Err(WireError::BadTag { what: "expr", tag }),
    })
}

// ---------------------------------------------------------------------
// Types, kinds, schemes
// ---------------------------------------------------------------------

pub fn write_mono(w: &mut ByteWriter, t: &Mono) {
    match t {
        Mono::Base(BaseTy::Int) => w.u8(0),
        Mono::Base(BaseTy::Bool) => w.u8(1),
        Mono::Base(BaseTy::Str) => w.u8(2),
        Mono::Unit => w.u8(3),
        Mono::Var(v) => {
            w.u8(4);
            w.u32(*v);
        }
        Mono::Arrow(a, b) => {
            w.u8(5);
            write_mono(w, a);
            write_mono(w, b);
        }
        Mono::Set(t) => {
            w.u8(6);
            write_mono(w, t);
        }
        Mono::LVal(t) => {
            w.u8(7);
            write_mono(w, t);
        }
        Mono::Record(fields) => {
            w.u8(8);
            w.usize(fields.len());
            for (l, f) in fields {
                write_label(w, l);
                w.bool(f.mutable);
                write_mono(w, &f.ty);
            }
        }
        Mono::Obj(t) => {
            w.u8(9);
            write_mono(w, t);
        }
        Mono::Class(t) => {
            w.u8(10);
            write_mono(w, t);
        }
    }
}

pub fn read_mono(r: &mut ByteReader) -> Result<Mono, WireError> {
    Ok(match r.u8("mono tag")? {
        0 => Mono::int(),
        1 => Mono::bool(),
        2 => Mono::str(),
        3 => Mono::Unit,
        4 => Mono::Var(r.u32("type var")?),
        5 => Mono::arrow(read_mono(r)?, read_mono(r)?),
        6 => Mono::set(read_mono(r)?),
        7 => Mono::lval(read_mono(r)?),
        8 => {
            let n = r.count("record type fields")?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let l = read_label(r)?;
                let mutable = r.bool("field-ty mutability")?;
                let ty = read_mono(r)?;
                fields.push((l, FieldTy { mutable, ty }));
            }
            Mono::record(fields)
        }
        9 => Mono::obj(read_mono(r)?),
        10 => Mono::class(read_mono(r)?),
        tag => return Err(WireError::BadTag { what: "mono", tag }),
    })
}

pub fn write_kind(w: &mut ByteWriter, k: &Kind) {
    match k {
        Kind::Univ => w.u8(0),
        Kind::Record(reqs) => {
            w.u8(1);
            w.usize(reqs.len());
            for (l, req) in reqs {
                write_label(w, l);
                w.bool(req.req == MutReq::Mutable);
                write_mono(w, &req.ty);
            }
        }
    }
}

pub fn read_kind(r: &mut ByteReader) -> Result<Kind, WireError> {
    Ok(match r.u8("kind tag")? {
        0 => Kind::Univ,
        1 => {
            let n = r.count("kind fields")?;
            let mut reqs = std::collections::BTreeMap::new();
            for _ in 0..n {
                let l = read_label(r)?;
                let mutable = r.bool("kind mutability")?;
                let ty = read_mono(r)?;
                let req = if mutable {
                    FieldReq::mutable(ty)
                } else {
                    FieldReq::any(ty)
                };
                reqs.insert(l, req);
            }
            Kind::Record(reqs)
        }
        tag => return Err(WireError::BadTag { what: "kind", tag }),
    })
}

pub fn write_scheme(w: &mut ByteWriter, s: &Scheme) {
    w.usize(s.binders.len());
    for (v, k) in &s.binders {
        w.u32(*v);
        write_kind(w, k);
    }
    write_mono(w, &s.body);
}

pub fn read_scheme(r: &mut ByteReader) -> Result<Scheme, WireError> {
    let n = r.count("scheme binders")?;
    let mut binders = Vec::with_capacity(n);
    for _ in 0..n {
        let v = r.u32("binder var")?;
        binders.push((v, read_kind(r)?));
    }
    Ok(Scheme::poly(binders, read_mono(r)?))
}

/// Encode a name used as a map key (same representation as a label).
pub fn write_name(w: &mut ByteWriter, n: &Name) {
    write_label(w, n);
}

pub fn read_name(r: &mut ByteReader) -> Result<Name, WireError> {
    read_label(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Field;

    /// `e` resolved against an empty global table: the form the encoder
    /// takes.
    fn resolved(e: &Expr) -> Expr {
        crate::resolve::resolve(e, &mut crate::GlobalNames::default())
    }

    fn roundtrip_expr(e: &Expr) -> Expr {
        let mut w = ByteWriter::new();
        write_expr(&mut w, e);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = read_expr(&mut r).expect("decodes");
        assert!(r.finished(), "undrained bytes after expr");
        back
    }

    #[test]
    fn primitive_roundtrips() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.i64(-42);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert!(r.bool("b").unwrap());
        assert_eq!(r.u32("c").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("d").unwrap(), u64::MAX);
        assert_eq!(r.i64("e").unwrap(), -42);
        assert_eq!(r.str("f").unwrap(), "héllo");
        assert_eq!(r.bytes("g").unwrap(), &[1, 2, 3]);
        assert!(r.finished());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.u64(123);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..4]);
        assert!(matches!(
            r.u64("x"),
            Err(WireError::Truncated { what: "x" })
        ));
    }

    #[test]
    fn oversized_count_is_rejected() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.count("huge").is_err());
    }

    #[test]
    fn expr_roundtrip_covers_core_and_views() {
        let e = Expr::let_(
            "x",
            Expr::record([
                Field::immutable("Name", Expr::str("Joe")),
                Field::mutable("Salary", Expr::int(2000)),
            ]),
            Expr::if_(
                Expr::eq(Expr::dot(Expr::var("x"), "Name"), Expr::str("Joe")),
                Expr::query(
                    Expr::lam("p", Expr::dot(Expr::var("p"), "Salary")),
                    Expr::id_view(Expr::var("x")),
                ),
                Expr::int(0),
            ),
        );
        let e = resolved(&e);
        assert_eq!(roundtrip_expr(&e), e);
    }

    #[test]
    fn expr_roundtrip_covers_classes_and_lowered_forms() {
        let cd = ClassDef {
            own: Box::new(Expr::empty_set()),
            includes: vec![IncludeClause {
                sources: vec![Expr::var("Staff")],
                view: Expr::lam("x", Expr::var("x")),
                pred: Expr::lam("x", Expr::bool(true)),
            }],
        };
        let layout = Layout::new([(Label::new("a"), false), (Label::new("b"), true)]);
        let e = Expr::LetClasses(
            vec![(Label::new("C"), cd)],
            Box::new(Expr::RecordAt(
                std::rc::Rc::new(layout),
                vec![
                    (0, Expr::int(1)),
                    (1, Expr::dot_at(Expr::var("r"), "b", Idx::Dynamic)),
                ],
            )),
        );
        let e = resolved(&e);
        assert_eq!(roundtrip_expr(&e), e);
        let e2 = resolved(&Expr::insert(
            Expr::var("C"),
            Expr::update_at(Expr::var("r"), "b", Idx::Const(1), Expr::int(9)),
        ));
        assert_eq!(roundtrip_expr(&e2), e2);
    }

    #[test]
    fn expr_roundtrip_covers_collect() {
        // collect(S, λx.{x.N@0}) — the lowered union-fold, nested in a
        // closure body the way a snapshot meets it.
        let e = Expr::lam(
            "s",
            Expr::collect(
                Expr::var("s"),
                Expr::lam(
                    "x",
                    Expr::set([Expr::dot_at(Expr::var("x"), "N", Idx::Const(0))]),
                ),
            ),
        );
        let e = resolved(&e);
        assert_eq!(roundtrip_expr(&e), e);
    }

    #[test]
    fn expr_roundtrip_covers_resolved_forms() {
        // fix f => fn #i => fn x => f #i (x.N@#i) k, resolved: every slot
        // kind, a capture list, and an index parameter (`#i`, the inner
        // λ's second capture).
        let e = resolved(&Expr::let_(
            "k",
            Expr::var("g"),
            Expr::fix(
                "f",
                Expr::lam(
                    "#i",
                    Expr::lam(
                        "x",
                        Expr::apps(
                            Expr::var("f"),
                            [
                                Expr::var("#i"),
                                Expr::dot_at(
                                    Expr::var("x"),
                                    "N",
                                    Idx::At(Label::new("#i"), Slot::Captured(1)),
                                ),
                                Expr::var("k"),
                            ],
                        ),
                    ),
                ),
            ),
        ));
        assert!(crate::resolve::is_resolved(&e));
        assert_eq!(roundtrip_expr(&e), e);
    }

    #[test]
    fn retired_tags_are_refused() {
        // Var, λ, record, dot, extract, update: the un-resolved forms.
        for tag in [1, 3, 5, 6, 7, 8] {
            assert_eq!(
                read_expr(&mut ByteReader::new(&[tag, 0, 0, 0, 0])),
                Err(WireError::BadTag { what: "expr", tag })
            );
        }
        // A named index parameter.
        assert_eq!(
            read_idx(&mut ByteReader::new(&[1, 0, 0, 0, 0])),
            Err(WireError::BadTag {
                what: "idx",
                tag: 1
            })
        );
    }

    #[test]
    fn scheme_roundtrip_with_kinded_binders() {
        let s = Scheme::poly(
            vec![
                (1, Kind::Univ),
                (
                    2,
                    Kind::has_mutable_field(Label::new("Salary"), Mono::int()),
                ),
            ],
            Mono::arrow(Mono::Var(2), Mono::set(Mono::Var(1))),
        );
        let mut w = ByteWriter::new();
        write_scheme(&mut w, &s);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_scheme(&mut r).unwrap(), s);
        assert!(r.finished());
    }

    #[test]
    fn mono_roundtrip_covers_every_constructor() {
        let t = Mono::arrows(
            [
                Mono::int(),
                Mono::bool(),
                Mono::str(),
                Mono::Unit,
                Mono::Var(9),
                Mono::set(Mono::lval(Mono::int())),
                Mono::obj(Mono::record([
                    (Label::new("x"), FieldTy::immutable(Mono::int())),
                    (Label::new("y"), FieldTy::mutable(Mono::bool())),
                ])),
            ],
            Mono::class(Mono::Unit),
        );
        let mut w = ByteWriter::new();
        write_mono(&mut w, &t);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_mono(&mut r).unwrap(), t);
        assert!(r.finished());
    }

    #[test]
    fn layout_roundtrip_preserves_offsets() {
        let l = Layout::new([(Label::new("Salary"), true), (Label::new("Name"), false)]);
        let mut w = ByteWriter::new();
        write_layout(&mut w, &l);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_layout(&mut r).unwrap(), l);
    }
}
