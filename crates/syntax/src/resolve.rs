//! Scope resolution: every variable is found once, before the code runs.
//!
//! The calculus is lexically scoped, so where a variable lives is known
//! from the program text alone (no types needed). The resolver rewrites
//!
//! * each variable into [`Expr::VarAt`]: a local of the current frame, a
//!   variable the enclosing closure captured, or — outside every λ — a
//!   top-level slot numbered by [`GlobalNames`];
//! * each `λ` (and each `fix`-bound `λ`) into [`Expr::LamAt`], a flat
//!   closure that lists where its free variables come from;
//! * each record construction into [`Expr::RecordAt`], laid out by its
//!   sorted labels ([`Expr::record_at`], the rule lowering uses too);
//! * each `e·l`, `extract` and `update` into its `…At` form with an
//!   [`Idx::Dynamic`] offset: with no types, the label is looked up when
//!   the operation runs.
//!
//! So the machine has one input form: lowered and resolved code differ
//! only in which offsets are known.
//!
//! A λ captures its free variables when it is evaluated, globals included,
//! so a later rebinding of a top-level name never reaches an existing
//! closure: the paper's lexical semantics (DESIGN.md §13).
//!
//! [`Scope`] is the bookkeeping alone; the lowering pass in
//! `polyview-trans` drives it from its own walk, so typed statements are
//! resolved in the same pass that resolves their field offsets. [`resolve`]
//! is the walk for code that is not lowered (a bare machine's input).

use crate::label::Name;
use crate::term::{ClassDef, Expr, Idx, IncludeClause, Lambda, Slot};
use std::collections::HashMap;
use std::rc::Rc;

/// The numbering of top-level names. A name gets a slot the first time
/// code mentions or defines it and keeps it, so rebinding a name reuses
/// its slot.
#[derive(Clone, Debug, Default)]
pub struct GlobalNames {
    slots: HashMap<Name, u32>,
    names: Vec<Name>,
}

impl GlobalNames {
    /// The slot of `x`, numbering it if it has none yet.
    pub fn slot(&mut self, x: &Name) -> u32 {
        if let Some(&g) = self.slots.get(x) {
            return g;
        }
        let g = u32::try_from(self.names.len()).expect("global slot overflow");
        self.slots.insert(x.clone(), g);
        self.names.push(x.clone());
        g
    }

    /// The slot of `x`, if it has one.
    pub fn get(&self, x: &Name) -> Option<u32> {
        self.slots.get(x).copied()
    }

    /// The name numbered `g`.
    pub fn name(&self, g: u32) -> &Name {
        &self.names[g as usize]
    }

    /// Numbered names, in slot order.
    pub fn names(&self) -> &[Name] {
        &self.names
    }
}

/// One function's frame during resolution.
#[derive(Default)]
struct Frame {
    /// Live local binders, in slot order.
    locals: Vec<Name>,
    /// Captured names, in capture order, with where the enclosing frame
    /// holds each.
    captures: Vec<(Name, Slot)>,
}

/// The frames enclosing the code being resolved: frame 0 is the
/// statement itself, and each λ opens one more.
pub struct Scope<'g> {
    globals: &'g mut GlobalNames,
    frames: Vec<Frame>,
}

impl<'g> Scope<'g> {
    pub fn new(globals: &'g mut GlobalNames) -> Self {
        Scope {
            globals,
            frames: vec![Frame::default()],
        }
    }

    /// Where `x` lives from the innermost frame. A name free in a λ is
    /// captured by it, and by every λ between it and the binder.
    pub fn var(&mut self, x: &Name) -> Slot {
        self.find(self.frames.len() - 1, x)
    }

    fn find(&mut self, depth: usize, x: &Name) -> Slot {
        let frame = &self.frames[depth];
        if let Some(i) = frame.locals.iter().rposition(|n| n == x) {
            return Slot::Local(i as u32);
        }
        if depth == 0 {
            return Slot::Global(self.globals.slot(x));
        }
        if let Some(i) = frame.captures.iter().position(|(n, _)| n == x) {
            return Slot::Captured(i as u32);
        }
        let outer = self.find(depth - 1, x);
        let frame = &mut self.frames[depth];
        frame.captures.push((x.clone(), outer));
        Slot::Captured(frame.captures.len() as u32 - 1)
    }

    /// Bind a local (`let`, a class binder) in the innermost frame; it
    /// takes the next slot.
    pub fn bind(&mut self, x: &Name) {
        self.innermost().locals.push(x.clone());
    }

    /// Drop the `n` most recent locals of the innermost frame.
    pub fn unbind(&mut self, n: usize) {
        let locals = &mut self.innermost().locals;
        locals.truncate(locals.len() - n);
    }

    /// Open the frame of a λ binding `param` (after `fix`, when it is the λ
    /// of a `fix`).
    pub fn enter(&mut self, fix: Option<&Name>, param: &Name) {
        let locals = fix.into_iter().chain([param]).cloned().collect();
        self.frames.push(Frame {
            locals,
            captures: Vec::new(),
        });
    }

    /// Close the innermost λ frame with its resolved body.
    pub fn leave(&mut self, fix: Option<Name>, param: Name, body: Expr) -> Expr {
        let frame = self.frames.pop().expect("a λ frame is open");
        debug_assert!(!self.frames.is_empty(), "the statement frame never closes");
        Expr::LamAt(Rc::new(Lambda {
            fix,
            param,
            captures: frame.captures.into_iter().map(|(_, s)| s).collect(),
            body,
        }))
    }

    fn innermost(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("the statement frame is open")
    }
}

/// Resolve a statement that was not lowered. Code already resolved is
/// returned unchanged, so resolving twice is harmless.
pub fn resolve(e: &Expr, globals: &mut GlobalNames) -> Expr {
    Resolver(Scope::new(globals)).expr(e)
}

struct Resolver<'g>(Scope<'g>);

impl Resolver<'_> {
    fn expr(&mut self, e: &Expr) -> Expr {
        let b = |r: &mut Self, e: &Expr| Box::new(r.expr(e));
        match e {
            Expr::Lit(_) | Expr::VarAt(..) | Expr::LamAt(_) => e.clone(),
            Expr::Var(x) => Expr::VarAt(x.clone(), self.0.var(x)),
            Expr::Lam(x, body) => {
                self.0.enter(None, x);
                let body = self.expr(body);
                self.0.leave(None, x.clone(), body)
            }
            Expr::Fix(f, lam) => match &**lam {
                Expr::Lam(x, body) => {
                    self.0.enter(Some(f), x);
                    let body = self.expr(body);
                    self.0.leave(Some(f.clone()), x.clone(), body)
                }
                // Evaluating it fails without running the body, which is
                // resolved only so that the machine holds one code form.
                body => {
                    self.0.bind(f);
                    let body = self.expr(body);
                    self.0.unbind(1);
                    Expr::Fix(f.clone(), Rc::new(body))
                }
            },
            Expr::Let(x, rhs, body) => {
                let rhs = self.expr(rhs);
                self.0.bind(x);
                let body = self.expr(body);
                self.0.unbind(1);
                Expr::let_(x.clone(), rhs, body)
            }
            Expr::LetClasses(binds, body) => {
                for (n, _) in binds {
                    self.0.bind(n);
                }
                let binds: Vec<_> = binds
                    .iter()
                    .map(|(n, cd)| (n.clone(), self.class(cd)))
                    .collect();
                let body = self.expr(body);
                self.0.unbind(binds.len());
                Expr::LetClasses(binds, Box::new(body))
            }
            Expr::Eq(x, y) => Expr::Eq(b(self, x), b(self, y)),
            Expr::App(x, y) => Expr::App(b(self, x), b(self, y)),
            Expr::Record(fs) => Expr::record_at(fs, |x| self.expr(x)),
            Expr::Dot(x, l) => Expr::DotAt(b(self, x), l.clone(), Idx::Dynamic),
            Expr::Extract(x, l) => Expr::ExtractAt(b(self, x), l.clone(), Idx::Dynamic),
            Expr::Update(x, l, v) => {
                Expr::UpdateAt(b(self, x), l.clone(), Idx::Dynamic, b(self, v))
            }
            Expr::SetLit(es) => Expr::SetLit(es.iter().map(|x| self.expr(x)).collect()),
            Expr::Union(x, y) => Expr::Union(b(self, x), b(self, y)),
            Expr::Hom(s, f, op, z) => Expr::Hom(b(self, s), b(self, f), b(self, op), b(self, z)),
            Expr::If(c, t, f) => Expr::If(b(self, c), b(self, t), b(self, f)),
            Expr::IdView(x) => Expr::IdView(b(self, x)),
            Expr::AsView(x, y) => Expr::AsView(b(self, x), b(self, y)),
            Expr::Query(x, y) => Expr::Query(b(self, x), b(self, y)),
            Expr::Fuse(x, y) => Expr::Fuse(b(self, x), b(self, y)),
            Expr::RelObj(fs) => {
                Expr::RelObj(fs.iter().map(|(l, x)| (l.clone(), self.expr(x))).collect())
            }
            Expr::ClassExpr(cd) => Expr::ClassExpr(self.class(cd)),
            Expr::CQuery(x, y) => Expr::CQuery(b(self, x), b(self, y)),
            Expr::Insert(x, y) => Expr::Insert(b(self, x), b(self, y)),
            Expr::Delete(x, y) => Expr::Delete(b(self, x), b(self, y)),
            Expr::DotAt(x, l, i) => Expr::DotAt(b(self, x), l.clone(), i.clone()),
            Expr::ExtractAt(x, l, i) => Expr::ExtractAt(b(self, x), l.clone(), i.clone()),
            Expr::UpdateAt(x, l, i, v) => {
                Expr::UpdateAt(b(self, x), l.clone(), i.clone(), b(self, v))
            }
            Expr::RecordAt(layout, fs) => Expr::RecordAt(
                layout.clone(),
                fs.iter().map(|(o, x)| (*o, self.expr(x))).collect(),
            ),
            Expr::Collect(s, f) => Expr::Collect(b(self, s), b(self, f)),
        }
    }

    fn class(&mut self, cd: &ClassDef) -> ClassDef {
        ClassDef {
            own: Box::new(self.expr(&cd.own)),
            includes: cd
                .includes
                .iter()
                .map(|inc| IncludeClause {
                    sources: inc.sources.iter().map(|s| self.expr(s)).collect(),
                    view: self.expr(&inc.view),
                    pred: self.expr(&inc.pred),
                })
                .collect(),
        }
    }
}

/// Is `e` free of unresolved forms — no [`Expr::Var`], no `λ`, no
/// `fix`-bound `λ`, and no record construction, `e·l`, `extract` or
/// `update` without its layout or offset? The machine evaluates only such
/// code.
pub fn is_resolved(e: &Expr) -> bool {
    let mut ok = true;
    crate::visit::walk(e, &mut |n| {
        let unresolved = match n {
            Expr::Var(_)
            | Expr::Lam(..)
            | Expr::Record(_)
            | Expr::Dot(..)
            | Expr::Extract(..)
            | Expr::Update(..) => true,
            Expr::Fix(_, b) => matches!(**b, Expr::Lam(..)),
            _ => false,
        };
        ok &= !unresolved;
    });
    ok
}

/// Does the body of a closure made from `l` that captured `captured`
/// values read only slots its frame has — locals it bound, variables it
/// captured, never a global — with every nested λ capturing only such
/// slots? The snapshot decoder checks each decoded closure with this
/// before the machine can run it.
pub fn well_scoped(l: &Lambda, captured: usize) -> bool {
    let locals = usize::from(l.fix.is_some()) + 1;
    scoped(&l.body, locals, captured)
}

fn scoped(e: &Expr, locals: usize, captured: usize) -> bool {
    let slot_ok = |s: &Slot| match *s {
        Slot::Local(i) => (i as usize) < locals,
        Slot::Captured(i) => (i as usize) < captured,
        Slot::Global(_) => false,
    };
    let idx_ok = |i: &Idx| match i {
        Idx::Const(_) | Idx::Dynamic => true,
        Idx::At(_, s) => slot_ok(s),
    };
    match e {
        Expr::Var(_) | Expr::Lam(..) => false,
        Expr::Fix(_, b) => !matches!(**b, Expr::Lam(..)) && scoped(b, locals + 1, captured),
        Expr::VarAt(_, s) => slot_ok(s),
        Expr::LamAt(l) => l.captures.iter().all(slot_ok) && well_scoped(l, l.captures.len()),
        Expr::Let(_, rhs, body) => {
            scoped(rhs, locals, captured) && scoped(body, locals + 1, captured)
        }
        Expr::LetClasses(binds, _) => {
            let n = locals + binds.len();
            crate::visit::children(e)
                .into_iter()
                .all(|c| scoped(c, n, captured))
        }
        Expr::DotAt(_, _, i) | Expr::ExtractAt(_, _, i) | Expr::UpdateAt(_, _, i, _)
            if !idx_ok(i) =>
        {
            false
        }
        _ => crate::visit::children(e)
            .into_iter()
            .all(|c| scoped(c, locals, captured)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;
    use crate::term::Field;

    fn parse_free(e: Expr) -> (Expr, GlobalNames) {
        let mut g = GlobalNames::default();
        let r = resolve(&e, &mut g);
        (r, g)
    }

    fn lam(e: &Expr) -> &Lambda {
        match e {
            Expr::LamAt(l) => l,
            other => panic!("expected a resolved λ, got {other:?}"),
        }
    }

    #[test]
    fn locals_take_slots_in_binding_order() {
        // let a = 1 in let b = 2 in a end end
        let e = Expr::let_(
            "a",
            Expr::int(1),
            Expr::let_("b", Expr::int(2), Expr::var("a")),
        );
        let (r, g) = parse_free(e);
        let Expr::Let(_, _, inner) = &r else { panic!() };
        let Expr::Let(_, _, body) = &**inner else {
            panic!()
        };
        assert_eq!(**body, Expr::VarAt(Label::new("a"), Slot::Local(0)));
        assert!(g.names().is_empty(), "no global was mentioned");
    }

    #[test]
    fn free_variables_are_captured_through_every_enclosing_lambda() {
        // fn a => fn b => add a b
        let e = Expr::lam(
            "a",
            Expr::lam(
                "b",
                Expr::apps(Expr::var("add"), [Expr::var("a"), Expr::var("b")]),
            ),
        );
        let (r, g) = parse_free(e);
        let outer = lam(&r);
        assert_eq!(outer.captures, vec![Slot::Global(0)], "add, from the top");
        let inner = lam(&outer.body);
        // add is captured first (the head is resolved first), then a.
        assert_eq!(inner.captures, vec![Slot::Captured(0), Slot::Local(0)]);
        assert_eq!(
            inner.body,
            Expr::apps(
                Expr::VarAt(Label::new("add"), Slot::Captured(0)),
                [
                    Expr::VarAt(Label::new("a"), Slot::Captured(1)),
                    Expr::VarAt(Label::new("b"), Slot::Local(0)),
                ]
            )
        );
        assert_eq!(g.get(&Label::new("add")), Some(0));
    }

    #[test]
    fn a_fix_binds_itself_before_its_parameter() {
        let e = Expr::fix(
            "f",
            Expr::lam("x", Expr::app(Expr::var("f"), Expr::var("x"))),
        );
        let (r, _) = parse_free(e);
        let l = lam(&r);
        assert_eq!(l.fix, Some(Label::new("f")));
        assert!(l.captures.is_empty());
        assert_eq!(
            l.body,
            Expr::app(
                Expr::VarAt(Label::new("f"), Slot::Local(0)),
                Expr::VarAt(Label::new("x"), Slot::Local(1)),
            )
        );
    }

    #[test]
    fn shadowing_finds_the_innermost_binder() {
        let e = Expr::lam("x", Expr::let_("x", Expr::int(1), Expr::var("x")));
        let (r, _) = parse_free(e);
        let Expr::Let(_, _, body) = &lam(&r).body else {
            panic!()
        };
        assert_eq!(**body, Expr::VarAt(Label::new("x"), Slot::Local(1)));
    }

    #[test]
    fn field_operations_resolve_to_layouts_and_dynamic_offsets() {
        // let r = [b := 1, a = 2] in
        //   let u = (fn x => update(x, b, x.a)) r in [c := extract(r, b)] end
        // end
        let e = Expr::let_(
            "r",
            Expr::record([
                Field::mutable("b", Expr::int(1)),
                Field::immutable("a", Expr::int(2)),
            ]),
            Expr::let_(
                "u",
                Expr::app(
                    Expr::lam(
                        "x",
                        Expr::update(Expr::var("x"), "b", Expr::dot(Expr::var("x"), "a")),
                    ),
                    Expr::var("r"),
                ),
                Expr::record([Field::mutable("c", Expr::extract(Expr::var("r"), "b"))]),
            ),
        );
        let (r, _) = parse_free(e);
        let at = |x: &str, i| Expr::VarAt(Label::new(x), Slot::Local(i));
        let layout = |fs: &[(&str, bool)]| {
            Rc::new(crate::layout::Layout::new(
                fs.iter().map(|(l, m)| (Label::new(l), *m)),
            ))
        };
        let body = Expr::update_at(
            at("x", 0),
            "b",
            Idx::Dynamic,
            Expr::dot_at(at("x", 0), "a", Idx::Dynamic),
        );
        let want = Expr::let_(
            "r",
            // Entries stay in source order, each at its label's rank.
            Expr::RecordAt(
                layout(&[("a", false), ("b", true)]),
                vec![(1, Expr::int(1)), (0, Expr::int(2))],
            ),
            Expr::let_(
                "u",
                Expr::app(
                    Expr::LamAt(Rc::new(Lambda {
                        fix: None,
                        param: Label::new("x"),
                        captures: Vec::new(),
                        body,
                    })),
                    at("r", 0),
                ),
                Expr::RecordAt(
                    layout(&[("c", true)]),
                    vec![(0, Expr::extract_at(at("r", 0), "b", Idx::Dynamic))],
                ),
            ),
        );
        assert_eq!(r, want);
        assert!(is_resolved(&r));
        for raw in [
            Expr::record([Field::immutable("a", Expr::int(1))]),
            Expr::dot(Expr::unit(), "a"),
            Expr::extract(Expr::unit(), "a"),
            Expr::update(Expr::unit(), "a", Expr::int(1)),
        ] {
            assert!(!is_resolved(&raw), "{raw}");
        }
    }

    #[test]
    fn resolving_twice_changes_nothing() {
        let e = Expr::lam("x", Expr::app(Expr::var("g"), Expr::var("x")));
        let mut g = GlobalNames::default();
        let once = resolve(&e, &mut g);
        assert!(is_resolved(&once));
        assert!(!is_resolved(&e));
        assert_eq!(resolve(&once, &mut g), once);
    }

    #[test]
    fn well_scoped_refuses_slots_the_frame_lacks() {
        let (r, _) = parse_free(Expr::lam("x", Expr::lam("y", Expr::var("x"))));
        assert!(well_scoped(lam(&r), 0));
        let bad = |body: Expr| Lambda {
            fix: None,
            param: Label::new("x"),
            captures: Vec::new(),
            body,
        };
        for body in [
            Expr::VarAt(Label::new("x"), Slot::Local(1)),
            Expr::VarAt(Label::new("x"), Slot::Captured(0)),
            Expr::VarAt(Label::new("x"), Slot::Global(0)),
            Expr::var("x"),
        ] {
            assert!(!well_scoped(&bad(body.clone()), 0), "{body:?}");
        }
        let captured = Expr::VarAt(Label::new("x"), Slot::Captured(0));
        assert!(well_scoped(&bad(captured), 1));
        let in_let = Expr::let_(
            "y",
            Expr::int(1),
            Expr::VarAt(Label::new("y"), Slot::Local(1)),
        );
        assert!(well_scoped(&bad(in_let), 0));
    }
}
