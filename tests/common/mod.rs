//! The one case generator the integration tests share: splitmix64, plus a
//! generator of **well-typed-by-construction programs** covering all
//! three layers of the calculus, used by the property tests for Props. 1–5
//! (`tests/properties/`).
//!
//! Everything is deterministic in the seed, so a failure reproduces from
//! the seed the harness prints. The program generator deliberately avoids
//! two things:
//!
//! * the `div`/`imod` builtins (division by zero is a legitimate runtime
//!   failure outside the type-soundness statement), and `fix` (generated
//!   programs always terminate, so Prop. 1 runs need no fuel);
//! * constructing two *distinct view associations over one raw object*
//!   outside the class layer, where the translated path cannot collapse
//!   them (the one documented divergence from the native objeq-collapsing
//!   set semantics; the class layer implements the collapse in both paths
//!   and is fully exercised).

#![allow(dead_code)]

use polyview_syntax::builder as b;
use polyview_syntax::{ClassDef, Expr, Field, FieldTy, Label, Mono, Name};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The benchmark's `extent_storm` ring (Fig. 7) as one program: a group
/// of 8 classes where `RCi` owns 10 objects and includes `RC(i+1)` under
/// the identity view, then `x0`, an object no class holds yet.
pub fn ring_program() -> String {
    let mut ring = String::new();
    for i in 0..8 {
        ring.push_str(if i == 0 { "class " } else { " and " });
        let own: Vec<String> = (0..10)
            .map(|j| format!("IDView([Name = \"o{i}_{j}\", V = {j}])"))
            .collect();
        ring.push_str(&format!(
            "RC{i} = class {{{}}} include RC{} as fn x => x where fn x => true end",
            own.join(", "),
            (i + 1) % 8
        ));
    }
    format!("{ring}; val x0 = IDView([Name = \"x0\", V = 100]);")
}

/// A generated `class … and …` group and its objects, as declarations
/// ([`Gen::class_schema`]), with the statements a stream over it draws
/// from ([`Gen::schema_statement`]).
pub struct Schema {
    /// Declarations, in order: the objects, the field predicates, the
    /// group.
    pub decls: Vec<String>,
    /// Classes `A0`, `A1`, … of the group.
    pub classes: usize,
    /// Objects `o0`, `o1`, … over raw records `r0`, `r1`, ….
    pub objects: usize,
}

/// What a schema statement is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StmtKind {
    /// An `insert`, `delete` or `update`, or a `val` storing a scan: run
    /// with `exec`.
    Write,
    /// A count or a rendering of an extent: run as a read region.
    Read,
}

/// A record view of a class's objects: `[Name, V, M := …]`, the raw
/// records' own type.
const SCHEMA_VIEW: &str = "[Name = x.Name ^ \"'\", V = x.V, M := extract(x, M)]";

/// The seed of the stream every property draws its case seeds from.
const CASE_SEED: u64 = 0x5EED;

/// Runs `n` cases of a property, each on a fresh generator seeded from a
/// fixed seed list. A failure panics with the case's index and seed
/// (`Gen::new(seed)` regenerates it) ahead of the property's own message,
/// which names the generated program: this stands in for shrinking.
pub fn cases(n: usize, mut property: impl FnMut(&mut Gen)) {
    cases_where(n, |g| {
        property(g);
        true
    });
}

/// [`cases`] for a property over a size (a depth, a class count) drawn
/// uniformly from `sizes` first.
pub fn sized_cases(n: usize, sizes: Range<usize>, mut property: impl FnMut(&mut Gen, usize)) {
    cases(n, |g| {
        let size = sizes.start + g.pick(sizes.len());
        property(g, size)
    });
}

/// [`cases`] for a property with a precondition: `property` returns
/// `false` for a case outside it, and that case does not count. Runs until
/// `n` cases passed the precondition, and fails if as many were skipped.
pub fn cases_where(n: usize, mut property: impl FnMut(&mut Gen) -> bool) {
    let mut seeds = Gen::new(CASE_SEED);
    let (mut ran, mut skipped) = (0, 0);
    while ran < n {
        assert!(skipped < n, "{skipped} cases skipped before {n} ran");
        let (index, seed) = (ran + skipped, seeds.next_u64());
        match catch_unwind(AssertUnwindSafe(|| property(&mut Gen::new(seed)))) {
            Ok(true) => ran += 1,
            Ok(false) => skipped += 1,
            Err(panic) => {
                let msg = (panic.downcast_ref::<String>().map(String::as_str))
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("(no message)");
                panic!("case {index} (seed {seed}): {msg}")
            }
        }
    }
}

/// `hom(s, f, λa.λb.add(a, b), 0)`: the sum of `f` over `s`.
pub fn sum(s: Expr, f: Expr) -> Expr {
    let add = Expr::apps(Expr::var("add"), [Expr::var("a"), Expr::var("b")]);
    Expr::hom(s, f, Expr::lam("a", Expr::lam("b", add)), Expr::int(0))
}

/// `c-query(λs. sum of 1 over s, class)`: the size of `class`'s extent.
pub fn count(class: Expr) -> Expr {
    let size = sum(Expr::var("s"), Expr::lam("x", Expr::int(1)));
    Expr::cquery(Expr::lam("s", size), class)
}

/// `λx.x`, the identity view.
pub fn identity() -> Expr {
    Expr::lam("x", Expr::var("x"))
}

/// splitmix64 (Steele, Lea & Flood, OOPSLA 2014) and the programs drawn
/// from it. Cloning a generator forks its stream.
#[derive(Clone)]
pub struct Gen {
    state: u64,
    fresh: u32,
}

/// Scoped variables available to generated terms.
pub type Scope = Vec<(Name, Mono)>;

/// A generator of operand terms of one type.
type Operand = fn(&mut Gen, &mut Scope, usize) -> Expr;

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen {
            state: seed,
            fresh: 0,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `0..n`.
    pub fn pick(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below(hi.abs_diff(lo)) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn flip(&mut self) -> bool {
        self.chance(0.5)
    }

    fn name(&mut self, base: &str) -> Name {
        self.fresh += 1;
        Label::new(format!("{base}{}", self.fresh))
    }

    // ---------- types ----------

    /// A random ground type (no obj/class/function components): the types
    /// record fields may carry.
    pub fn ground_type(&mut self, depth: usize) -> Mono {
        if depth == 0 {
            return match self.pick(3) {
                0 => Mono::int(),
                1 => Mono::bool(),
                _ => Mono::str(),
            };
        }
        match self.pick(5) {
            0 => Mono::int(),
            1 => Mono::bool(),
            2 => Mono::str(),
            3 => Mono::set(self.ground_type(depth - 1)),
            _ => self.record_type(depth - 1, false),
        }
    }

    /// A ground record type with 1–4 fields; `with_mutables` allows `:=`
    /// fields.
    pub fn record_type(&mut self, depth: usize, with_mutables: bool) -> Mono {
        let fields = (0..1 + self.pick(4)).map(|i| {
            let mutable = with_mutables && self.flip();
            // Mutable fields keep base types so updates are easy to
            // generate.
            let ty = self.ground_type(if mutable { 0 } else { depth });
            (Label::new(format!("f{i}")), FieldTy { mutable, ty })
        });
        Mono::record(fields.collect::<Vec<_>>())
    }

    /// A view type for objects: a record, possibly with mutable fields.
    pub fn view_type(&mut self) -> Mono {
        self.record_type(1, true)
    }

    // ---------- terms ----------

    /// A term of the given ground/record type under `scope`.
    pub fn term(&mut self, ty: &Mono, scope: &mut Scope, depth: usize) -> Expr {
        // Reuse a scoped variable of the right type ~25% of the time.
        if !scope.is_empty() && self.chance(0.25) {
            let hits: Vec<usize> = scope
                .iter()
                .enumerate()
                .filter(|(_, (_, t))| t == ty)
                .map(|(i, _)| i)
                .collect();
            if !hits.is_empty() {
                let i = hits[self.pick(hits.len())];
                return Expr::Var(scope[i].0.clone());
            }
        }
        match ty {
            Mono::Base(b) => match b {
                polyview_syntax::BaseTy::Int => self.int_term(scope, depth),
                polyview_syntax::BaseTy::Bool => self.bool_term(scope, depth),
                polyview_syntax::BaseTy::Str => self.str_term(scope, depth),
            },
            Mono::Unit => self.unit_term(scope, depth),
            Mono::Set(elem) => self.set_term(elem, scope, depth),
            Mono::Record(_) => self.record_term(ty, scope, depth),
            Mono::Obj(view) => self.obj_term(view, scope, depth),
            Mono::Class(view) => self.class_term(view, scope, depth),
            Mono::Arrow(..) | Mono::Var(_) | Mono::LVal(_) => {
                unreachable!("generator never targets function, variable or L-value types")
            }
        }
    }

    fn int_term(&mut self, scope: &mut Scope, depth: usize) -> Expr {
        if depth == 0 {
            return Expr::int(self.range(-50, 50));
        }
        match self.pick(7) {
            0 => Expr::int(self.range(-50, 50)),
            1 => {
                let op = ["add", "sub", "mul"][self.pick(3)];
                self.binop(op, Self::int_term, scope, depth - 1)
            }
            2 => {
                let c = self.bool_term(scope, depth - 1);
                let (t, e) = (
                    self.int_term(scope, depth - 1),
                    self.int_term(scope, depth - 1),
                );
                Expr::if_(c, t, e)
            }
            3 => self.let_wrap(&Mono::int(), scope, depth),
            4 => {
                // Project an int field out of an inline record.
                let rec_ty = self.record_with_field(Mono::int(), "pick");
                let rec = self.record_term(&rec_ty, scope, depth - 1);
                Expr::dot(rec, "pick")
            }
            5 => {
                // Query an object's int field.
                let view = self.record_with_field(Mono::int(), "q");
                let o = self.obj_term(&view, scope, depth - 1);
                Expr::query(Expr::lam("x", Expr::dot(Expr::var("x"), "q")), o)
            }
            _ => {
                // Sum a set via hom.
                let s = self.set_term(&Mono::int(), scope, depth - 1);
                sum(s, Expr::lam("x", Expr::var("x")))
            }
        }
    }

    fn bool_term(&mut self, scope: &mut Scope, depth: usize) -> Expr {
        if depth == 0 {
            return Expr::bool(self.flip());
        }
        match self.pick(6) {
            0 => Expr::bool(self.flip()),
            1 => {
                let t = self.ground_type(1);
                Expr::eq(
                    self.term(&t, scope, depth - 1),
                    self.term(&t, scope, depth - 1),
                )
            }
            2 => {
                let op = ["lt", "le", "gt", "ge"][self.pick(4)];
                self.binop(op, Self::int_term, scope, depth - 1)
            }
            3 => Expr::app(Expr::var("not"), self.bool_term(scope, depth - 1)),
            4 => polyview_syntax::sugar::member(
                self.int_term(scope, depth - 1),
                self.set_term(&Mono::int(), scope, depth - 1),
            ),
            _ => {
                // objeq of two independently created objects (never two
                // views of one raw; see module docs). Both objects use the
                // *same raw-record shape*: the paper's Fig. 3 translation of
                // fuse applies one λx to both view functions, so it is
                // typeable only when the raw types coincide — a subtlety of
                // Prop. 3 documented in crates/trans and pinned by a
                // dedicated test.
                let view = self.view_type();
                let widened = self.flip();
                let a = self.obj_term_styled(&view, widened, scope, depth - 1);
                let b = self.obj_term_styled(&view, widened, scope, depth - 1);
                polyview_syntax::sugar::objeq(a, b)
            }
        }
    }

    fn str_term(&mut self, scope: &mut Scope, depth: usize) -> Expr {
        if depth == 0 {
            let words = ["a", "bb", "ccc", "joe", "staff", "female"];
            return Expr::str(words[self.pick(words.len())]);
        }
        match self.pick(3) {
            0 => self.str_term(scope, 0),
            1 => self.binop("concat", Self::str_term, scope, depth - 1),
            _ => Expr::app(Expr::var("int_to_string"), self.int_term(scope, depth - 1)),
        }
    }

    fn unit_term(&mut self, scope: &mut Scope, depth: usize) -> Expr {
        if depth == 0 {
            return Expr::unit();
        }
        match self.pick(3) {
            0 => Expr::unit(),
            1 => {
                // Update a fresh record's mutable field.
                let r = self.name("r");
                let fv = self.int_term(scope, depth - 1);
                Expr::let_(
                    r.clone(),
                    Expr::record([Field::mutable("m", Expr::int(0))]),
                    Expr::update(Expr::Var(r), "m", fv),
                )
            }
            _ => {
                // Update through a view (the paper's view-update).
                let view = Mono::record([(Label::new("m"), FieldTy::mutable(Mono::int()))]);
                let o = self.obj_term(&view, scope, depth - 1);
                let fv = self.int_term(scope, depth - 1);
                Expr::query(Expr::lam("x", Expr::update(Expr::var("x"), "m", fv)), o)
            }
        }
    }

    fn set_term(&mut self, elem: &Mono, scope: &mut Scope, depth: usize) -> Expr {
        if depth == 0 {
            return Expr::empty_set();
        }
        match self.pick(4) {
            0 => {
                let n = self.pick(4);
                let elems: Vec<Expr> = (0..n).map(|_| self.term(elem, scope, depth - 1)).collect();
                Expr::set(elems)
            }
            1 => Expr::union(
                self.set_term(elem, scope, depth - 1),
                self.set_term(elem, scope, depth - 1),
            ),
            2 => {
                // filter with a closed predicate.
                let x = self.name("fx");
                scope.push((x.clone(), elem.clone()));
                let pred_body = self.bool_term(scope, depth - 1);
                scope.pop();
                polyview_syntax::sugar::filter(
                    Expr::lam(x, pred_body),
                    self.set_term(elem, scope, depth - 1),
                )
            }
            _ => self.let_wrap(&Mono::set(elem.clone()), scope, depth),
        }
    }

    fn record_term(&mut self, ty: &Mono, scope: &mut Scope, depth: usize) -> Expr {
        let fields = match ty {
            Mono::Record(fs) => fs,
            other => unreachable!("record_term on {other}"),
        };
        let fs: Vec<Field> = fields
            .iter()
            .map(|(l, f)| Field {
                label: l.clone(),
                mutable: f.mutable,
                expr: self.term(&f.ty, scope, depth.saturating_sub(1)),
            })
            .collect();
        Expr::Record(fs)
    }

    /// An object presenting `view`: either the identity view over a raw
    /// record of exactly the view type, or a projection view over a wider
    /// raw record (renames/hiding, with `extract` transferring mutability).
    fn obj_term(&mut self, view: &Mono, scope: &mut Scope, depth: usize) -> Expr {
        let widened = depth > 0 && self.flip();
        self.obj_term_styled(view, widened, scope, depth)
    }

    /// Like [`Gen::obj_term`] but with the raw-record style fixed by the
    /// caller, so two objects can be guaranteed type-identical raws.
    fn obj_term_styled(
        &mut self,
        view: &Mono,
        widened: bool,
        scope: &mut Scope,
        depth: usize,
    ) -> Expr {
        let Mono::Record(view_fields) = view else {
            unreachable!("obj_term on non-record view {view}")
        };
        if !widened {
            return Expr::id_view(self.record_term(view, scope, depth.saturating_sub(1)));
        }
        let depth = depth.max(1);
        // Wider raw: src field `src_<l>` per view field `l`, plus an extra.
        let src = |l: &Label| Label::new(format!("src_{l}"));
        let raw = view_fields.iter().map(|(l, f)| {
            let expr = self.term(&f.ty, scope, depth - 1);
            Field {
                label: src(l),
                mutable: f.mutable,
                expr,
            }
        });
        let mut raw: Vec<Field> = raw.collect();
        raw.push(Field::immutable("extra", self.int_term(scope, depth - 1)));
        let x = self.name("vx");
        let view_body = view_fields.iter().map(|(l, f)| {
            let expr = if f.mutable {
                Expr::extract(Expr::Var(x.clone()), src(l))
            } else {
                Expr::dot(Expr::Var(x.clone()), src(l))
            };
            Field {
                label: l.clone(),
                mutable: f.mutable,
                expr,
            }
        });
        let view_fn = Expr::lam(x.clone(), Expr::Record(view_body.collect()));
        Expr::as_view(Expr::id_view(Expr::Record(raw)), view_fn)
    }

    /// A set of up to `max - 1` objects presenting `view`.
    fn objs(&mut self, max: usize, view: &Mono, scope: &mut Scope, depth: usize) -> Expr {
        let n = self.pick(max);
        Expr::set(
            (0..n)
                .map(|_| self.obj_term(view, scope, depth))
                .collect::<Vec<_>>(),
        )
    }

    /// A class of objects presenting `view`: an own extent plus optionally
    /// an include from a freshly bound source class.
    pub fn class_term(&mut self, view: &Mono, scope: &mut Scope, depth: usize) -> Expr {
        let own = self.objs(3, view, scope, depth.saturating_sub(1));
        if depth == 0 || self.flip() {
            return b::class(own, vec![]);
        }
        // Bind a source class and include it under the identity view with
        // a (possibly selective) predicate.
        let src = self.name("Src");
        let src_class = self.class_term(view, scope, depth - 1);
        let o = self.name("po");
        scope.push((o.clone(), Mono::obj(view.clone())));
        let pred_body = if self.flip() {
            Expr::bool(true)
        } else {
            // A query-based predicate over the first field.
            let (l, f) = match view {
                Mono::Record(fs) => {
                    let (l, f) = fs.iter().next().expect("non-empty record");
                    (l.clone(), f.ty.clone())
                }
                _ => unreachable!(),
            };
            let probe = self.term(&f, scope, 0);
            Expr::query(
                Expr::lam("x", Expr::eq(Expr::Dot(Box::new(Expr::var("x")), l), probe)),
                Expr::Var(o.clone()),
            )
        };
        scope.pop();
        let own = self.objs(2, view, scope, depth.saturating_sub(1));
        let include = b::include(
            vec![Expr::Var(src.clone())],
            identity(),
            Expr::lam(o, pred_body),
        );
        Expr::let_(src, src_class, b::class(own, vec![include]))
    }

    /// `op(a, b)`, both operands drawn by `arg`.
    fn binop(&mut self, op: &str, arg: Operand, scope: &mut Scope, depth: usize) -> Expr {
        let (a, b) = (arg(self, scope, depth), arg(self, scope, depth));
        Expr::apps(Expr::var(op), [a, b])
    }

    fn let_wrap(&mut self, ty: &Mono, scope: &mut Scope, depth: usize) -> Expr {
        let bty = self.ground_type(1);
        let rhs = self.term(&bty, scope, depth - 1);
        let x = self.name("v");
        scope.push((x.clone(), bty));
        let body = self.term(ty, scope, depth - 1);
        scope.pop();
        Expr::Let(x, Box::new(rhs), Box::new(body))
    }

    fn record_with_field(&mut self, field_ty: Mono, label: &str) -> Mono {
        let mut fields = vec![(Label::new(label), field_ty)];
        if self.flip() {
            fields.push((Label::new("pad"), self.ground_type(0)));
        }
        Mono::record_imm(fields)
    }

    /// A random closed, terminating, well-typed program together with its
    /// by-construction type. Target types are observable (base/sets/unit)
    /// so results can be compared across evaluators.
    pub fn observable_program(&mut self, depth: usize) -> (Expr, Mono) {
        let ty = match self.pick(5) {
            0 => Mono::int(),
            1 => Mono::bool(),
            2 => Mono::str(),
            3 => Mono::set(Mono::int()),
            _ => Mono::Unit,
        };
        let mut scope = Scope::new();
        let e = self.term(&ty, &mut scope, depth);
        (e, ty)
    }

    /// A program exercising the class layer: classes (possibly nested
    /// includes), finished with a counting `c-query` so the result is an
    /// observable int.
    pub fn class_program(&mut self, depth: usize) -> (Expr, Mono) {
        let view = self.view_type();
        let mut scope = Scope::new();
        let class = self.class_term(&view, &mut scope, depth);
        (count(class), Mono::int())
    }

    /// A group of 2–4 classes over 6–9 objects, for the extent-cache
    /// oracle. Every class owns a few objects and has one to three
    /// include clauses, whose sources are drawn from the group, so the
    /// fill trees have cycles and diamonds; one clause in twelve has two
    /// sources (a `fuse`). A clause's view is the identity or a record
    /// view, and its predicate is `true`, a test of a field through a
    /// named function (which mints no id), a test through a `λ` (which
    /// mints one per call), or an `eq` against an older object.
    pub fn class_schema(&mut self) -> Schema {
        let (classes, objects) = (2 + self.pick(3), 6 + self.pick(4));
        let mut decls = Vec::new();
        for i in 0..objects {
            let (v, m) = (self.below(4), self.below(3));
            decls.push(format!("val r{i} = [Name = \"o{i}\", V = {v}, M := {m}];"));
            decls.push(format!("val o{i} = IDView(r{i});"));
        }
        for k in 0..4 {
            decls.push(format!("val pv{k} = fn p => not (p.V = {k});"));
            decls.push(format!("val pm{k} = fn p => p.M = {k};"));
        }
        let mut group = String::new();
        for c in 0..classes {
            let own: Vec<String> = (0..objects)
                .filter(|_| self.chance(0.3))
                .map(|i| format!("o{i}"))
                .collect();
            group.push_str(if c == 0 { "class " } else { " and " });
            group.push_str(&format!("A{c} = class {{{}}}", own.join(", ")));
            for _ in 0..1 + self.pick(3) {
                let first = self.pick(classes);
                if classes > 1 && self.pick(12) == 0 {
                    // A fused candidate presents a pair: the predicate
                    // cannot test the fields above.
                    let second = (first + 1 + self.pick(classes - 1)) % classes;
                    group.push_str(&format!(
                        " include A{first}, A{second} as fn t => [Name = t.1.Name ^ \"+\" ^ \
                         t.2.Name, V = t.1.V, M := extract(t.1, M)] where fn x => true"
                    ));
                    continue;
                }
                let view = if self.flip() {
                    "fn x => x".to_string()
                } else {
                    format!("fn x => {SCHEMA_VIEW}")
                };
                let k = self.below(4);
                let pred = match self.pick(10) {
                    0..=2 => "fn x => true".to_string(),
                    3..=4 => format!("fn x => query(pv{k}, x)"),
                    5..=6 => format!("fn x => query(pm{k}, x)"),
                    7 => format!("fn x => query(fn p => p.V > {k}, x)"),
                    _ => format!("fn x => not (x = o{})", self.pick(objects)),
                };
                group.push_str(&format!(" include A{first} as {view} where {pred}"));
            }
            group.push_str(" end");
        }
        group.push(';');
        decls.push(group);
        Schema {
            decls,
            classes,
            objects,
        }
    }

    /// One statement of a stream over `s`: an `insert` or `delete` of an
    /// object (now and then a fresh association of one), an `update` of
    /// a field the predicates read, a count or a rendering of an extent,
    /// or a scan stored in `keep`.
    pub fn schema_statement(&mut self, s: &Schema) -> (String, StmtKind) {
        let (c, i) = (self.pick(s.classes), self.pick(s.objects));
        let obj = if self.pick(8) == 0 {
            format!("(o{i} as fn x => {SCHEMA_VIEW})")
        } else {
            format!("o{i}")
        };
        match self.pick(20) {
            0..=4 => (format!("insert(A{c}, {obj});"), StmtKind::Write),
            5..=7 => (format!("delete(A{c}, {obj});"), StmtKind::Write),
            8 => (
                format!("update(r{i}, M, {});", self.below(3)),
                StmtKind::Write,
            ),
            9..=11 => (
                format!("val keep = cquery(fn s => s, A{c});"),
                StmtKind::Write,
            ),
            12..=15 => (
                format!("cquery(fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0), A{c})"),
                StmtKind::Read,
            ),
            _ => (
                format!("cquery(fn s => map(fn o => query(fn x => x.Name, o), s), A{c})"),
                StmtKind::Read,
            ),
        }
    }

    /// A mutually recursive class group shaped as a ring of `k` classes,
    /// each with a small own extent, ending in a count query over class 0.
    pub fn recursive_ring_program(&mut self, k: usize, depth: usize) -> (Expr, Mono) {
        assert!(k >= 1);
        let view = self.record_type(0, false);
        let mut scope = Scope::new();
        let binds = (0..k)
            .map(|i| {
                let next = Expr::var(format!("RC{}", (i + 1) % k));
                let own = Box::new(self.objs(3, &view, &mut scope, depth));
                let includes = vec![b::include(
                    vec![next],
                    identity(),
                    Expr::lam("x", Expr::bool(true)),
                )];
                (Label::new(format!("RC{i}")), ClassDef { own, includes })
            })
            .collect();
        let body = count(Expr::var("RC0"));
        (Expr::LetClasses(binds, Box::new(body)), Mono::int())
    }
}
