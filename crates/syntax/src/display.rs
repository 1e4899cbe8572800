//! Pretty-printing of terms, types, kinds and schemes in the paper's
//! notation.
//!
//! Types print as e.g. `[Name = string, Salary := int]`,
//! `{obj([Name = string])}`, and schemes as
//! `∀t1::[[Income = int]]. t1 → int` with binders renamed to `t1, t2, …` in
//! order of appearance, so two alpha-equivalent schemes print identically.

use crate::kind::{Kind, MutReq};
use crate::scheme::Scheme;
use crate::term::{ClassDef, Expr, Lit};
use crate::types::{BaseTy, Mono, TyVar};
use std::collections::HashMap;
use std::fmt;

impl fmt::Display for BaseTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseTy::Int => write!(f, "int"),
            BaseTy::Bool => write!(f, "bool"),
            BaseTy::Str => write!(f, "string"),
        }
    }
}

/// Renaming of type variables for display.
struct VarNames {
    map: HashMap<TyVar, usize>,
    rename: bool,
}

impl VarNames {
    fn raw() -> Self {
        VarNames {
            map: HashMap::new(),
            rename: false,
        }
    }
    fn renamed() -> Self {
        VarNames {
            map: HashMap::new(),
            rename: true,
        }
    }
    fn name(&mut self, v: TyVar) -> String {
        if self.rename {
            let n = self.map.len() + 1;
            let idx = *self.map.entry(v).or_insert(n);
            format!("t{idx}")
        } else {
            format!("t{v}")
        }
    }
}

fn fmt_mono(t: &Mono, names: &mut VarNames, out: &mut String) {
    match t {
        Mono::Base(b) => out.push_str(&b.to_string()),
        Mono::Unit => out.push_str("unit"),
        Mono::Var(v) => out.push_str(&names.name(*v)),
        Mono::Arrow(a, b) => {
            let needs_parens = matches!(**a, Mono::Arrow(..));
            if needs_parens {
                out.push('(');
            }
            fmt_mono(a, names, out);
            if needs_parens {
                out.push(')');
            }
            out.push_str(" -> ");
            fmt_mono(b, names, out);
        }
        Mono::Set(e) => {
            out.push('{');
            fmt_mono(e, names, out);
            out.push('}');
        }
        Mono::LVal(e) => {
            out.push_str("L(");
            fmt_mono(e, names, out);
            out.push(')');
        }
        Mono::Record(fs) => {
            out.push('[');
            for (i, (l, ft)) in fs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(l.as_str());
                out.push_str(if ft.mutable { " := " } else { " = " });
                fmt_mono(&ft.ty, names, out);
            }
            out.push(']');
        }
        Mono::Obj(e) => {
            out.push_str("obj(");
            fmt_mono(e, names, out);
            out.push(')');
        }
        Mono::Class(e) => {
            out.push_str("class(");
            fmt_mono(e, names, out);
            out.push(')');
        }
    }
}

fn fmt_kind(k: &Kind, names: &mut VarNames, out: &mut String) {
    match k {
        Kind::Univ => out.push('U'),
        Kind::Record(reqs) => {
            out.push_str("[[");
            for (i, (l, r)) in reqs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(l.as_str());
                out.push_str(match r.req {
                    MutReq::Any => " = ",
                    MutReq::Mutable => " := ",
                });
                fmt_mono(&r.ty, names, out);
            }
            out.push_str("]]");
        }
    }
}

impl fmt::Display for Mono {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        fmt_mono(self, &mut VarNames::raw(), &mut s);
        f.write_str(&s)
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        fmt_kind(self, &mut VarNames::raw(), &mut s);
        f.write_str(&s)
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = VarNames::renamed();
        let mut s = String::new();
        for (v, k) in &self.binders {
            s.push('∀');
            let nm = names.name(*v);
            s.push_str(&nm);
            s.push_str("::");
            fmt_kind(k, &mut names, &mut s);
            s.push('.');
        }
        if !self.binders.is_empty() {
            s.push(' ');
        }
        fmt_mono(&self.body, &mut names, &mut s);
        f.write_str(&s)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Unit => write!(f, "()"),
            Lit::Int(n) => write!(f, "{n}"),
            Lit::Bool(b) => write!(f, "{b}"),
            Lit::Str(s) => write!(f, "{s:?}"),
        }
    }
}

fn fmt_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Lit(l) => out.push_str(&l.to_string()),
        Expr::Var(x) | Expr::VarAt(x, _) => out.push_str(x.as_str()),
        Expr::Eq(a, b) => fmt_call(out, "eq", [a.as_ref(), b.as_ref()]),
        Expr::Lam(x, b) => {
            out.push_str("fn ");
            out.push_str(x.as_str());
            out.push_str(" => ");
            fmt_expr(b, out);
        }
        Expr::App(f, a) => {
            out.push('(');
            fmt_app_operand(f, out);
            out.push(' ');
            fmt_app_operand(a, out);
            out.push(')');
        }
        Expr::Record(fs) => {
            out.push('[');
            for (i, fld) in fs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(fld.label.as_str());
                out.push_str(if fld.mutable { " := " } else { " = " });
                fmt_expr(&fld.expr, out);
            }
            out.push(']');
        }
        Expr::Dot(e, l) => {
            fmt_expr(e, out);
            out.push('.');
            out.push_str(l.as_str());
        }
        Expr::Extract(e, l) => {
            out.push_str("extract(");
            fmt_expr(e, out);
            out.push_str(", ");
            out.push_str(l.as_str());
            out.push(')');
        }
        Expr::Update(e, l, v) => {
            out.push_str("update(");
            fmt_expr(e, out);
            out.push_str(", ");
            out.push_str(l.as_str());
            out.push_str(", ");
            fmt_expr(v, out);
            out.push(')');
        }
        Expr::SetLit(es) => {
            out.push('{');
            for (i, e) in es.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                fmt_expr(e, out);
            }
            out.push('}');
        }
        Expr::Union(a, b) => fmt_call(out, "union", [a.as_ref(), b.as_ref()]),
        Expr::Hom(s, f, op, z) => fmt_call(
            out,
            "hom",
            [s.as_ref(), f.as_ref(), op.as_ref(), z.as_ref()],
        ),
        Expr::Fix(x, b) => {
            out.push_str("fix ");
            out.push_str(x.as_str());
            out.push_str(" => ");
            fmt_expr(b, out);
        }
        // A resolved λ renders as its source form.
        Expr::LamAt(l) => {
            if let Some(f) = &l.fix {
                out.push_str("fix ");
                out.push_str(f.as_str());
                out.push_str(" => ");
            }
            out.push_str("fn ");
            out.push_str(l.param.as_str());
            out.push_str(" => ");
            fmt_expr(&l.body, out);
        }
        Expr::Let(x, rhs, body) => {
            out.push_str("let ");
            out.push_str(x.as_str());
            out.push_str(" = ");
            fmt_expr(rhs, out);
            out.push_str(" in ");
            fmt_expr(body, out);
            out.push_str(" end");
        }
        Expr::If(c, t, e2) => {
            out.push_str("if ");
            fmt_expr(c, out);
            out.push_str(" then ");
            fmt_expr(t, out);
            out.push_str(" else ");
            fmt_expr(e2, out);
        }
        Expr::IdView(e) => fmt_call(out, "IDView", [e.as_ref()]),
        Expr::AsView(e, f) => {
            out.push('(');
            fmt_expr(e, out);
            out.push_str(" as ");
            fmt_expr(f, out);
            out.push(')');
        }
        Expr::Query(f, o) => fmt_call(out, "query", [f.as_ref(), o.as_ref()]),
        Expr::Fuse(a, b) => fmt_call(out, "fuse", [a.as_ref(), b.as_ref()]),
        Expr::RelObj(fs) => {
            out.push_str("relobj(");
            for (i, (l, e)) in fs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(l.as_str());
                out.push_str(" = ");
                fmt_expr(e, out);
            }
            out.push(')');
        }
        Expr::ClassExpr(cd) => fmt_class(cd, out),
        Expr::CQuery(f, c) => fmt_call(out, "cquery", [f.as_ref(), c.as_ref()]),
        Expr::Insert(c, e) => fmt_call(out, "insert", [c.as_ref(), e.as_ref()]),
        Expr::Delete(c, e) => fmt_call(out, "delete", [c.as_ref(), e.as_ref()]),
        // Lowered forms (never produced by the parser): render the source
        // label together with the resolved offset so `:explain` output and
        // debug dumps show exactly what the compile tier decided.
        Expr::DotAt(e, l, idx) => {
            fmt_expr(e, out);
            out.push('.');
            out.push_str(l.as_str());
            fmt_idx(idx, out);
        }
        Expr::ExtractAt(e, l, idx) => {
            out.push_str("extract");
            fmt_idx(idx, out);
            out.push('(');
            fmt_expr(e, out);
            out.push_str(", ");
            out.push_str(l.as_str());
            out.push(')');
        }
        Expr::UpdateAt(e, l, idx, v) => {
            out.push_str("update");
            fmt_idx(idx, out);
            out.push('(');
            fmt_expr(e, out);
            out.push_str(", ");
            out.push_str(l.as_str());
            out.push_str(", ");
            fmt_expr(v, out);
            out.push(')');
        }
        Expr::RecordAt(layout, fs) => {
            // Entries are in source (evaluation) order, each tagged with
            // its target slot; print label from the layout at that slot.
            out.push('[');
            for (i, (slot, e)) in fs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(layout.label_at(*slot).as_str());
                out.push('@');
                out.push_str(&slot.to_string());
                out.push_str(if layout.is_mutable(*slot) {
                    " := "
                } else {
                    " = "
                });
                fmt_expr(e, out);
            }
            out.push(']');
        }
        // The lowered union-fold (never produced by the parser).
        Expr::Collect(s, f) => fmt_call(out, "collect", [s.as_ref(), f.as_ref()]),
        Expr::LetClasses(binds, body) => {
            out.push_str("let class ");
            for (i, (c, cd)) in binds.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                out.push_str(c.as_str());
                out.push_str(" = ");
                fmt_class(cd, out);
            }
            out.push_str(" in ");
            fmt_expr(body, out);
            out.push_str(" end");
        }
    }
}

/// `@3` for a resolved constant offset, `@?x` for an index parameter, and
/// nothing for a dynamic lookup, which renders as its source form.
fn fmt_idx(idx: &crate::term::Idx, out: &mut String) {
    match idx {
        crate::term::Idx::Const(n) => {
            out.push('@');
            out.push_str(&n.to_string());
        }
        crate::term::Idx::At(x, _) => {
            out.push_str("@?");
            out.push_str(x.as_str());
        }
        crate::term::Idx::Dynamic => {}
    }
}

fn fmt_class(cd: &ClassDef, out: &mut String) {
    out.push_str("class ");
    fmt_expr(&cd.own, out);
    for inc in &cd.includes {
        out.push_str(" include ");
        for (i, s) in inc.sources.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            fmt_expr(s, out);
        }
        out.push_str(" as ");
        fmt_expr(&inc.view, out);
        out.push_str(" where ");
        fmt_expr(&inc.pred, out);
    }
    out.push_str(" end");
}

/// Operands of an application: prefix forms and negative literals need
/// parentheses to re-parse in juxtaposition position.
fn fmt_app_operand(e: &Expr, out: &mut String) {
    let needs_parens = matches!(
        e,
        Expr::If(..)
            | Expr::Let(..)
            | Expr::Lam(..)
            | Expr::Fix(..)
            | Expr::LamAt(_)
            | Expr::LetClasses(..)
    ) || matches!(e, Expr::Lit(Lit::Int(n)) if *n < 0);
    if needs_parens {
        out.push('(');
        fmt_expr(e, out);
        out.push(')');
    } else {
        fmt_expr(e, out);
    }
}

fn fmt_call<'a>(out: &mut String, name: &str, args: impl IntoIterator<Item = &'a Expr>) {
    out.push_str(name);
    out.push('(');
    for (i, a) in args.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        fmt_expr(a, out);
    }
    out.push(')');
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        fmt_expr(self, &mut s);
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;
    use crate::term::Field;
    use crate::types::FieldTy;

    #[test]
    fn record_type_display() {
        let t = Mono::record([
            (Label::new("Name"), FieldTy::immutable(Mono::str())),
            (Label::new("Salary"), FieldTy::mutable(Mono::int())),
        ]);
        assert_eq!(t.to_string(), "[Name = string, Salary := int]");
    }

    #[test]
    fn obj_and_set_display() {
        let t = Mono::set(Mono::obj(Mono::record_imm([(
            Label::new("Name"),
            Mono::str(),
        )])));
        assert_eq!(t.to_string(), "{obj([Name = string])}");
    }

    #[test]
    fn arrow_display_parenthesizes_domain() {
        let t = Mono::arrow(Mono::arrow(Mono::int(), Mono::int()), Mono::bool());
        assert_eq!(t.to_string(), "(int -> int) -> bool");
        let t2 = Mono::arrow(Mono::int(), Mono::arrow(Mono::int(), Mono::bool()));
        assert_eq!(t2.to_string(), "int -> int -> bool");
    }

    #[test]
    fn scheme_display_renames_binders() {
        // The Annual_Income type from the paper:
        // ∀t::[[Income = int, Bonus = int]]. t → int
        let s = Scheme::poly(
            vec![(
                42,
                Kind::Record(
                    [
                        (Label::new("Bonus"), crate::kind::FieldReq::any(Mono::int())),
                        (
                            Label::new("Income"),
                            crate::kind::FieldReq::any(Mono::int()),
                        ),
                    ]
                    .into_iter()
                    .collect(),
                ),
            )],
            Mono::arrow(Mono::Var(42), Mono::int()),
        );
        assert_eq!(
            s.to_string(),
            "∀t1::[[Bonus = int, Income = int]]. t1 -> int"
        );
    }

    #[test]
    fn alpha_equivalent_schemes_print_identically() {
        let mk = |v: TyVar| {
            Scheme::poly(
                vec![(v, Kind::Univ)],
                Mono::arrow(Mono::Var(v), Mono::Var(v)),
            )
        };
        assert_eq!(mk(3).to_string(), mk(77).to_string());
    }

    #[test]
    fn mutable_kind_display() {
        let k = Kind::has_mutable_field(Label::new("Bonus"), Mono::int());
        assert_eq!(k.to_string(), "[[Bonus := int]]");
    }

    #[test]
    fn expr_display_roundtrips_shape() {
        let e = Expr::let_(
            "joe",
            Expr::id_view(Expr::record([
                Field::immutable("Name", Expr::str("Joe")),
                Field::mutable("Salary", Expr::int(2000)),
            ])),
            Expr::query(Expr::lam("x", Expr::var("x")), Expr::var("joe")),
        );
        assert_eq!(
            e.to_string(),
            "let joe = IDView([Name = \"Joe\", Salary := 2000]) in \
             query(fn x => x, joe) end"
        );
    }

    #[test]
    fn class_display() {
        let cd = ClassDef {
            own: Box::new(Expr::empty_set()),
            includes: vec![crate::term::IncludeClause {
                sources: vec![Expr::var("Staff")],
                view: Expr::lam("s", Expr::var("s")),
                pred: Expr::lam("s", Expr::bool(true)),
            }],
        };
        assert_eq!(
            Expr::ClassExpr(cd).to_string(),
            "class {} include Staff as fn s => s where fn s => true end"
        );
    }
}
