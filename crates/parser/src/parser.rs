//! Recursive-descent parser with precedence climbing.
//!
//! Precedence, loosest to tightest:
//!
//! ```text
//! fn / fix / let / if / select / relation      (prefix forms)
//! as                                           (view composition)
//! orelse
//! andalso
//! = == <> < <= > >=                            (non-associative)
//! + - ^
//! * / %
//! juxtaposition (application)
//! unary -
//! .label                                       (projection)
//! ```

use crate::error::ParseError;
use crate::lexer::lex;
use crate::token::{Spanned, Tok};
use polyview_syntax::sugar;
use polyview_syntax::visit;
use polyview_syntax::{ClassDef, Expr, Field, IncludeClause, Label, Name};

/// A top-level declaration.
#[derive(Clone, Debug, PartialEq)]
pub enum Decl {
    /// `val x = e;`
    Val(Name, Expr),
    /// `fun f x y = e and g z = e';` — possibly mutually recursive.
    Fun(Vec<(Name, Vec<Name>, Expr)>),
    /// `class A = class … end and B = class … end;` — a recursive class
    /// group bound at top level.
    Classes(Vec<(Name, ClassDef)>),
    /// A bare expression.
    Expr(Expr),
}

polyview_syntax::work_counters! {
    /// Front-end work counters, one parse's worth.
    pub struct ParseStats {
        /// Tokens the lexer produced, excluding the end-of-input marker.
        pub tokens: u64,
        /// AST nodes the parse built.
        pub nodes: u64,
    }
}

/// Parse a whole program (sequence of declarations).
pub fn parse_program(src: &str) -> Result<Vec<Decl>, ParseError> {
    parse_program_counted(src).map(|(decls, _)| decls)
}

/// [`parse_program`], also reporting token and node counts.
pub fn parse_program_counted(src: &str) -> Result<(Vec<Decl>, ParseStats), ParseError> {
    let toks = lex(src)?;
    let tokens = (toks.len() as u64).saturating_sub(1); // exclude Eof
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut decls = Vec::new();
    while !p.at(&Tok::Eof) {
        decls.push(p.decl()?);
        while p.eat(&Tok::Semi) {}
    }
    let nodes = decls.iter().map(decl_nodes).sum();
    Ok((decls, ParseStats { tokens, nodes }))
}

/// Parse a single expression (must consume the whole input).
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    parse_expr_counted(src).map(|(e, _)| e)
}

/// [`parse_expr`], also reporting token and node counts.
pub fn parse_expr_counted(src: &str) -> Result<(Expr, ParseStats), ParseError> {
    let toks = lex(src)?;
    let tokens = (toks.len() as u64).saturating_sub(1); // exclude Eof
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let e = p.expr()?;
    p.expect(&Tok::Eof)?;
    let nodes = visit::term_size(&e);
    Ok((e, ParseStats { tokens, nodes }))
}

/// AST nodes contributed by one declaration (the expressions it binds).
fn decl_nodes(d: &Decl) -> u64 {
    match d {
        Decl::Val(_, e) | Decl::Expr(e) => visit::term_size(e),
        Decl::Fun(defs) => defs.iter().map(|(_, _, e)| visit::term_size(e)).sum(),
        Decl::Classes(binds) => binds.iter().map(|(_, cd)| visit::class_def_size(cd)).sum(),
    }
}

/// Maximum expression nesting depth; beyond this the parser reports an
/// error instead of exhausting the stack on adversarial input.
const MAX_DEPTH: usize = 100;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        let i = (self.pos + 1).min(self.toks.len() - 1);
        &self.toks[i].tok
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let s = &self.toks[self.pos];
        ParseError::new(msg, s.line, s.col)
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<Name, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(Label::new(s))
            }
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    /// A label: an identifier or an integer (tuple label).
    fn label(&mut self) -> Result<Label, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(Label::new(s))
            }
            Tok::Int(n) if n >= 0 => {
                self.bump();
                Ok(Label::new(n.to_string()))
            }
            other => Err(self.err(format!("expected label, found `{other}`"))),
        }
    }

    // ---------- declarations ----------

    fn decl(&mut self) -> Result<Decl, ParseError> {
        match self.peek() {
            Tok::Val => {
                self.bump();
                let name = self.ident()?;
                self.expect(&Tok::Eq)?;
                let e = self.expr()?;
                Ok(Decl::Val(name, e))
            }
            Tok::Fun => {
                self.bump();
                let mut defs = vec![self.fundef()?];
                while self.eat(&Tok::And) {
                    defs.push(self.fundef()?);
                }
                Ok(Decl::Fun(defs))
            }
            // `class A = class … end and …` at top level; plain
            // `class … end` expressions fall through to Decl::Expr.
            Tok::Class if matches!(self.peek2(), Tok::Ident(_)) => {
                self.bump();
                let mut binds = vec![self.class_bind()?];
                while self.eat(&Tok::And) {
                    binds.push(self.class_bind()?);
                }
                Ok(Decl::Classes(binds))
            }
            _ => Ok(Decl::Expr(self.expr()?)),
        }
    }

    fn fundef(&mut self) -> Result<(Name, Vec<Name>, Expr), ParseError> {
        let name = self.ident()?;
        let mut params = vec![self.ident()?];
        while matches!(self.peek(), Tok::Ident(_)) {
            params.push(self.ident()?);
        }
        self.expect(&Tok::Eq)?;
        let body = self.expr()?;
        Ok((name, params, body))
    }

    fn class_bind(&mut self) -> Result<(Name, ClassDef), ParseError> {
        let name = self.ident()?;
        self.expect(&Tok::Eq)?;
        self.expect(&Tok::Class)?;
        let cd = self.class_body()?;
        Ok((name, cd))
    }

    // ---------- expressions ----------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(self.err(format!(
                "expression nesting exceeds the maximum depth of {MAX_DEPTH}"
            )));
        }
        let out = self.expr_inner();
        self.depth -= 1;
        out
    }

    fn expr_inner(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Fn => {
                self.bump();
                // fn x y => e, and fn () => e for unit-domain functions.
                let mut params = Vec::new();
                if self.at(&Tok::LParen) && self.peek2() == &Tok::RParen {
                    self.bump();
                    self.bump();
                    params.push(Label::new("_unit"));
                } else {
                    params.push(self.ident()?);
                    while matches!(self.peek(), Tok::Ident(_)) {
                        params.push(self.ident()?);
                    }
                }
                self.expect(&Tok::Arrow)?;
                let body = self.expr()?;
                Ok(params
                    .into_iter()
                    .rev()
                    .fold(body, |acc, p| Expr::lam(p, acc)))
            }
            Tok::Fix => {
                self.bump();
                let name = self.ident()?;
                self.expect(&Tok::Arrow)?;
                let body = self.expr()?;
                Ok(Expr::fix(name, body))
            }
            Tok::If => {
                self.bump();
                let c = self.expr()?;
                self.expect(&Tok::Then)?;
                let t = self.expr()?;
                self.expect(&Tok::Else)?;
                let e = self.expr()?;
                Ok(Expr::if_(c, t, e))
            }
            Tok::Let => self.let_expr(),
            Tok::Select => {
                // select as VIEW from SET where PRED
                self.bump();
                self.expect(&Tok::As)?;
                let view = self.expr()?;
                self.expect(&Tok::From)?;
                let set = self.expr()?;
                self.expect(&Tok::Where)?;
                let pred = self.expr()?;
                Ok(sugar::select_as_from_where(view, set, pred))
            }
            Tok::Relation => {
                // relation [l = e, …] from x in S, y in T where P
                self.bump();
                self.expect(&Tok::LBracket)?;
                let mut fields = Vec::new();
                if !self.at(&Tok::RBracket) {
                    loop {
                        let l = self.label()?;
                        self.expect(&Tok::Eq)?;
                        fields.push((l, self.expr()?));
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket)?;
                self.expect(&Tok::From)?;
                let mut binders = Vec::new();
                loop {
                    let x = self.ident()?;
                    self.expect(&Tok::In)?;
                    let s = self.or_expr()?;
                    binders.push((x, s));
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::Where)?;
                let pred = self.expr()?;
                Ok(sugar::relation_from_where(fields, binders, pred))
            }
            _ => self.as_expr(),
        }
    }

    fn let_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect(&Tok::Let)?;
        match self.peek() {
            Tok::Class => {
                self.bump();
                let mut binds = vec![self.class_bind_inline()?];
                while self.eat(&Tok::And) {
                    binds.push(self.class_bind_inline()?);
                }
                self.expect(&Tok::In)?;
                let body = self.expr()?;
                self.expect(&Tok::End)?;
                Ok(Expr::LetClasses(binds, Box::new(body)))
            }
            Tok::Fun => {
                self.bump();
                let mut defs = Vec::new();
                loop {
                    let (f, params, body) = self.fundef()?;
                    defs.push((f, params, body));
                    if !self.eat(&Tok::And) {
                        break;
                    }
                }
                self.expect(&Tok::In)?;
                let body = self.expr()?;
                self.expect(&Tok::End)?;
                Ok(fun_decl_to_expr(defs, body))
            }
            _ => {
                let name = self.ident()?;
                self.expect(&Tok::Eq)?;
                let rhs = self.expr()?;
                self.expect(&Tok::In)?;
                let body = self.expr()?;
                self.expect(&Tok::End)?;
                Ok(Expr::let_(name, rhs, body))
            }
        }
    }

    /// Inside `let class …`, a binding is `NAME = class … end` or just
    /// `NAME = class …` — we already consumed the leading `class` keyword
    /// of the group for the first binding, so accept both orders.
    fn class_bind_inline(&mut self) -> Result<(Name, ClassDef), ParseError> {
        let name = self.ident()?;
        self.expect(&Tok::Eq)?;
        self.expect(&Tok::Class)?;
        let cd = self.class_body()?;
        Ok((name, cd))
    }

    fn class_body(&mut self) -> Result<ClassDef, ParseError> {
        let own = self.or_expr()?;
        let mut includes = Vec::new();
        while self.eat(&Tok::Include) {
            let mut sources = vec![self.or_expr()?];
            while self.eat(&Tok::Comma) {
                sources.push(self.or_expr()?);
            }
            self.expect(&Tok::As)?;
            let view = self.expr()?;
            self.expect(&Tok::Where)?;
            let pred = self.expr()?;
            includes.push(IncludeClause {
                sources,
                view,
                pred,
            });
        }
        self.expect(&Tok::End)?;
        Ok(ClassDef {
            own: Box::new(own),
            includes,
        })
    }

    fn as_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.or_expr()?;
        while self.eat(&Tok::As) {
            // The viewing function is typically a lambda; allow full
            // prefix forms on the right of `as`.
            let f = match self.peek() {
                Tok::Fn | Tok::Fix | Tok::If | Tok::Let => self.expr()?,
                _ => self.or_expr()?,
            };
            e = Expr::as_view(e, f);
        }
        Ok(e)
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.and_expr()?;
        while self.eat(&Tok::Orelse) {
            let r = self.and_expr()?;
            e = sugar::or(e, r);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.cmp_expr()?;
        while self.eat(&Tok::Andalso) {
            let r = self.cmp_expr()?;
            e = sugar::and(e, r);
        }
        Ok(e)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let e = self.add_expr()?;
        let op = match self.peek() {
            Tok::Eq | Tok::EqEq => Some("eq"),
            Tok::Neq => Some("neq"),
            Tok::Lt => Some("lt"),
            Tok::Le => Some("le"),
            Tok::Gt => Some("gt"),
            Tok::Ge => Some("ge"),
            _ => None,
        };
        match op {
            None => Ok(e),
            Some(op) => {
                self.bump();
                let r = self.add_expr()?;
                Ok(match op {
                    "eq" => Expr::eq(e, r),
                    "neq" => sugar::not(Expr::eq(e, r)),
                    other => Expr::apps(Expr::var(other), [e, r]),
                })
            }
        }
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => "add",
                Tok::Minus => "sub",
                Tok::Caret => "concat",
                _ => break,
            };
            self.bump();
            let r = self.mul_expr()?;
            e = Expr::apps(Expr::var(op), [e, r]);
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.prefix_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => "mul",
                Tok::Slash => "div",
                Tok::Percent => "imod",
                _ => break,
            };
            self.bump();
            let r = self.prefix_expr()?;
            e = Expr::apps(Expr::var(op), [e, r]);
        }
        Ok(e)
    }

    fn prefix_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Tok::Minus) {
            let e = self.prefix_expr()?;
            // Constant-fold negative literals.
            if let Expr::Lit(polyview_syntax::Lit::Int(n)) = e {
                return Ok(Expr::int(-n));
            }
            return Ok(Expr::app(Expr::var("neg"), e));
        }
        self.app_expr()
    }

    fn app_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.postfix_expr()?;
        while self.starts_atom() {
            let a = self.postfix_expr()?;
            e = Expr::app(e, a);
        }
        Ok(e)
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Int(_)
                | Tok::Str(_)
                | Tok::Ident(_)
                | Tok::True
                | Tok::False
                | Tok::LParen
                | Tok::LBracket
                | Tok::LBrace
                | Tok::IdView
                | Tok::Query
                | Tok::Fuse
                | Tok::Relobj
                | Tok::Extract
                | Tok::Update
                | Tok::Union
                | Tok::Hom
                | Tok::EqKw
                | Tok::Member
                | Tok::MapKw
                | Tok::FilterKw
                | Tok::Prod
                | Tok::Intersect
                | Tok::Objeq
                | Tok::Cquery
                | Tok::Insert
                | Tok::Delete
                | Tok::Not
                | Tok::Class
        )
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.atom()?;
        while self.eat(&Tok::Dot) {
            let l = self.label()?;
            e = Expr::Dot(Box::new(e), l);
        }
        Ok(e)
    }

    /// A parenthesized, comma-separated argument list.
    fn args(&mut self, n: usize, what: &str) -> Result<Vec<Expr>, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut out = Vec::with_capacity(n);
        if !self.at(&Tok::RParen) {
            loop {
                out.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        if out.len() != n {
            return Err(self.err(format!(
                "`{what}` expects {n} argument(s), found {}",
                out.len()
            )));
        }
        Ok(out)
    }

    /// Like [`Parser::args`] but variadic with a minimum count.
    fn args_min(&mut self, min: usize, what: &str) -> Result<Vec<Expr>, ParseError> {
        self.expect(&Tok::LParen)?;
        let mut out = Vec::new();
        if !self.at(&Tok::RParen) {
            loop {
                out.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        if out.len() < min {
            return Err(self.err(format!(
                "`{what}` expects at least {min} argument(s), found {}",
                out.len()
            )));
        }
        Ok(out)
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(Expr::int(n))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::str(s))
            }
            Tok::True => {
                self.bump();
                Ok(Expr::bool(true))
            }
            Tok::False => {
                self.bump();
                Ok(Expr::bool(false))
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(Expr::var(s))
            }
            Tok::Not => {
                self.bump();
                Ok(Expr::var("not"))
            }
            Tok::LParen => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    return Ok(Expr::unit());
                }
                let first = self.expr()?;
                if self.at(&Tok::Comma) {
                    let mut elems = vec![first];
                    while self.eat(&Tok::Comma) {
                        elems.push(self.expr()?);
                    }
                    self.expect(&Tok::RParen)?;
                    Ok(Expr::tuple(elems))
                } else {
                    self.expect(&Tok::RParen)?;
                    Ok(first)
                }
            }
            Tok::LBracket => {
                self.bump();
                let mut fields = Vec::new();
                if !self.at(&Tok::RBracket) {
                    loop {
                        let l = self.label()?;
                        let mutable = if self.eat(&Tok::Assign) {
                            true
                        } else {
                            self.expect(&Tok::Eq)?;
                            false
                        };
                        let e = self.expr()?;
                        fields.push(Field {
                            label: l,
                            mutable,
                            expr: e,
                        });
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket)?;
                Ok(Expr::Record(fields))
            }
            Tok::LBrace => {
                self.bump();
                let mut elems = Vec::new();
                if !self.at(&Tok::RBrace) {
                    loop {
                        elems.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBrace)?;
                Ok(Expr::SetLit(elems))
            }
            Tok::Class => {
                self.bump();
                Ok(Expr::ClassExpr(self.class_body()?))
            }
            Tok::IdView => {
                self.bump();
                let mut a = self.args(1, "IDView")?;
                Ok(Expr::id_view(a.remove(0)))
            }
            Tok::Query => {
                self.bump();
                let mut a = self.args(2, "query")?;
                let o = a.remove(1);
                Ok(Expr::query(a.remove(0), o))
            }
            Tok::Fuse => {
                self.bump();
                let mut a = self.args(2, "fuse")?;
                let b = a.remove(1);
                Ok(Expr::fuse(a.remove(0), b))
            }
            Tok::Relobj => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let mut fields = Vec::new();
                if !self.at(&Tok::RParen) {
                    loop {
                        let l = self.label()?;
                        self.expect(&Tok::Eq)?;
                        fields.push((l, self.expr()?));
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen)?;
                Ok(Expr::RelObj(fields))
            }
            Tok::Extract => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let e = self.expr()?;
                self.expect(&Tok::Comma)?;
                let l = self.label()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::Extract(Box::new(e), l))
            }
            Tok::Update => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let e = self.expr()?;
                self.expect(&Tok::Comma)?;
                let l = self.label()?;
                self.expect(&Tok::Comma)?;
                let v = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::Update(Box::new(e), l, Box::new(v)))
            }
            Tok::Union => {
                self.bump();
                let mut a = self.args(2, "union")?;
                let b = a.remove(1);
                Ok(Expr::union(a.remove(0), b))
            }
            Tok::Hom => {
                self.bump();
                let mut a = self.args(4, "hom")?;
                let z = a.remove(3);
                let op = a.remove(2);
                let f = a.remove(1);
                Ok(Expr::hom(a.remove(0), f, op, z))
            }
            Tok::EqKw => {
                self.bump();
                let mut a = self.args(2, "eq")?;
                let b = a.remove(1);
                Ok(Expr::eq(a.remove(0), b))
            }
            Tok::Member => {
                self.bump();
                let mut a = self.args(2, "member")?;
                let b = a.remove(1);
                Ok(sugar::member(a.remove(0), b))
            }
            Tok::MapKw => {
                self.bump();
                let mut a = self.args(2, "map")?;
                let b = a.remove(1);
                Ok(sugar::map(a.remove(0), b))
            }
            Tok::FilterKw => {
                self.bump();
                let mut a = self.args(2, "filter")?;
                let b = a.remove(1);
                Ok(sugar::filter(a.remove(0), b))
            }
            Tok::Prod => {
                self.bump();
                let a = self.args_min(1, "prod")?;
                Ok(sugar::prod(a))
            }
            Tok::Intersect => {
                self.bump();
                let a = self.args_min(2, "intersect")?;
                let mut it = a.into_iter();
                let first = it.next().expect("len >= 2");
                Ok(it.fold(first, sugar::intersect2))
            }
            Tok::Objeq => {
                self.bump();
                let mut a = self.args(2, "objeq")?;
                let b = a.remove(1);
                Ok(sugar::objeq(a.remove(0), b))
            }
            Tok::Cquery => {
                self.bump();
                let mut a = self.args(2, "cquery")?;
                let c = a.remove(1);
                Ok(Expr::cquery(a.remove(0), c))
            }
            Tok::Insert => {
                self.bump();
                let mut a = self.args(2, "insert")?;
                let e = a.remove(1);
                Ok(Expr::insert(a.remove(0), e))
            }
            Tok::Delete => {
                self.bump();
                let mut a = self.args(2, "delete")?;
                let e = a.remove(1);
                Ok(Expr::delete(a.remove(0), e))
            }
            other => Err(self.err(format!("expected an expression, found `{other}`"))),
        }
    }
}

/// Encode `let fun f x y = e and … in body end` using the paper's
/// `fix`/record construction (via [`sugar::fun_and`]); multi-parameter
/// functions curry into nested lambdas. The engine encodes top-level
/// `fun` declarations with it too.
pub fn fun_decl_to_expr(defs: Vec<(Name, Vec<Name>, Expr)>, body: Expr) -> Expr {
    let singles = defs
        .into_iter()
        .map(|(f, mut params, e)| {
            let first = params.remove(0);
            let curried = params.into_iter().rev().fold(e, |acc, p| Expr::lam(p, acc));
            (f, first, curried)
        })
        .collect();
    sugar::fun_and(singles, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyview_syntax::builder as b;

    fn pe(src: &str) -> Expr {
        parse_expr(src).expect("parses")
    }

    #[test]
    fn counted_parse_reports_tokens_and_nodes() {
        let (e, stats) = parse_expr_counted("1 + 2 * 3").expect("parses");
        // Desugared arithmetic builds applications, so nodes ≥ literal count.
        assert_eq!(stats.nodes, visit::term_size(&e));
        assert_eq!(stats.tokens, 5, "1 + 2 * 3 is five tokens");

        let (decls, pstats) =
            parse_program_counted("val x = 1;\nfun f n = n + x;").expect("parses");
        assert_eq!(decls.len(), 2);
        assert!(pstats.tokens > 0 && pstats.nodes > 0);

        let (_, cstats) = parse_program_counted("class C = class {} end;").expect("parses");
        assert!(cstats.nodes > 0, "class declarations contribute nodes");
    }

    #[test]
    fn literals() {
        assert_eq!(pe("42"), b::int(42));
        assert_eq!(pe("-42"), b::int(-42));
        assert_eq!(pe("true"), b::boolean(true));
        assert_eq!(pe("\"hi\""), b::str("hi"));
        assert_eq!(pe("()"), b::unit());
    }

    #[test]
    fn arithmetic_precedence() {
        // 1 + 2 * 3 parses as add(1, mul(2, 3)).
        assert_eq!(
            pe("1 + 2 * 3"),
            b::add(b::int(1), b::mul(b::int(2), b::int(3)))
        );
        // (1 + 2) * 3
        assert_eq!(
            pe("(1 + 2) * 3"),
            b::mul(b::add(b::int(1), b::int(2)), b::int(3))
        );
    }

    #[test]
    fn comparison_and_equality() {
        assert_eq!(pe("1 < 2"), b::lt(b::int(1), b::int(2)));
        assert_eq!(pe("1 = 2"), b::eq(b::int(1), b::int(2)));
        assert_eq!(pe("1 == 2"), b::eq(b::int(1), b::int(2)));
        assert_eq!(pe("1 <> 2"), sugar::not(b::eq(b::int(1), b::int(2))));
    }

    #[test]
    fn application_is_left_associative() {
        assert_eq!(pe("f x y"), b::app(b::app(b::v("f"), b::v("x")), b::v("y")));
    }

    #[test]
    fn lambda_multi_param_curries() {
        assert_eq!(pe("fn x y => x"), b::lam("x", b::lam("y", b::v("x"))));
        assert_eq!(pe("fn () => 1"), Expr::thunk(b::int(1)));
    }

    #[test]
    fn record_syntax() {
        assert_eq!(
            pe("[Name = \"Joe\", Salary := 2000]"),
            b::record([b::imm("Name", b::str("Joe")), b::mt("Salary", b::int(2000))])
        );
        assert_eq!(pe("[]"), b::record([]));
    }

    #[test]
    fn tuple_and_projection() {
        assert_eq!(pe("(1, 2)"), Expr::pair(b::int(1), b::int(2)));
        assert_eq!(pe("x.1"), b::proj(b::v("x"), 1));
        assert_eq!(pe("x.Name"), b::dot(b::v("x"), "Name"));
        assert_eq!(pe("x.Name.len"), b::dot(b::dot(b::v("x"), "Name"), "len"));
    }

    #[test]
    fn sets() {
        assert_eq!(pe("{}"), b::empty());
        assert_eq!(pe("{1, 2}"), b::set([b::int(1), b::int(2)]));
    }

    #[test]
    fn let_and_if() {
        assert_eq!(pe("let x = 1 in x end"), b::let_("x", b::int(1), b::v("x")));
        assert_eq!(
            pe("if true then 1 else 2"),
            b::if_(b::boolean(true), b::int(1), b::int(2))
        );
    }

    #[test]
    fn fix_expression() {
        assert_eq!(
            pe("fix f => fn n => n"),
            Expr::fix("f", b::lam("n", b::v("n")))
        );
    }

    #[test]
    fn view_operators() {
        assert_eq!(
            pe("IDView([a = 1])"),
            b::id_view(b::record([b::imm("a", b::int(1))]))
        );
        assert_eq!(
            pe("x as fn y => y"),
            b::as_view(b::v("x"), b::lam("y", b::v("y")))
        );
        assert_eq!(
            pe("query(fn x => x, joe)"),
            b::query(b::lam("x", b::v("x")), b::v("joe"))
        );
        assert_eq!(pe("fuse(a, b)"), b::fuse(b::v("a"), b::v("b")));
        assert_eq!(
            pe("relobj(emp = a, dept = b)"),
            b::relobj([("emp", b::v("a")), ("dept", b::v("b"))])
        );
    }

    #[test]
    fn as_chains_left() {
        let e = pe("x as f as g");
        assert_eq!(e, b::as_view(b::as_view(b::v("x"), b::v("f")), b::v("g")));
    }

    #[test]
    fn extract_and_update() {
        assert_eq!(
            pe("extract(joe, Salary)"),
            b::extract(b::v("joe"), "Salary")
        );
        assert_eq!(
            pe("update(joe, Salary, 4000)"),
            b::update(b::v("joe"), "Salary", b::int(4000))
        );
    }

    #[test]
    fn core_set_operators() {
        assert_eq!(
            pe("union({1}, {2})"),
            b::union(b::set([b::int(1)]), b::set([b::int(2)]))
        );
        assert!(matches!(pe("hom({1}, f, g, 0)"), Expr::Hom(..)));
        assert!(matches!(pe("member(1, {1})"), Expr::Let(..)));
        assert!(matches!(pe("map(f, s)"), Expr::Let(..)));
        assert!(matches!(pe("filter(p, s)"), Expr::Let(..)));
        assert!(matches!(pe("prod(s, t)"), Expr::Let(..)));
        assert!(matches!(pe("intersect(s, t)"), Expr::Hom(..)));
        assert!(matches!(pe("objeq(a, b)"), Expr::If(..)));
    }

    #[test]
    fn class_expression() {
        let e = pe("class {} include Staff as fn s => s where fn s => true end");
        match e {
            Expr::ClassExpr(cd) => {
                assert_eq!(*cd.own, b::empty());
                assert_eq!(cd.includes.len(), 1);
                assert_eq!(cd.includes[0].sources, vec![b::v("Staff")]);
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn class_multi_source_include() {
        let e = pe("class {} include Staff, Student as fn p => p where fn p => true end");
        match e {
            Expr::ClassExpr(cd) => {
                assert_eq!(cd.includes[0].sources.len(), 2);
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn let_class_recursive_group() {
        let e = pe(
            "let class A = class {} include B as fn x => x where fn x => true end \
             and B = class {} end \
             in cquery(fn s => s, A) end",
        );
        match e {
            Expr::LetClasses(binds, _) => {
                assert_eq!(binds.len(), 2);
                assert_eq!(binds[0].0, Label::new("A"));
            }
            other => panic!("expected let-classes, got {other:?}"),
        }
    }

    #[test]
    fn select_from_where_derived_form() {
        let e = pe("select as fn x => x from S where fn x => true");
        // select desugars to let view = … in map(…, filter(…)).
        assert!(matches!(e, Expr::Let(..)));
    }

    #[test]
    fn relation_derived_form() {
        let e = pe("relation [l = x, r = y] from x in S, y in T where true");
        assert!(matches!(e, Expr::Let(..)));
    }

    #[test]
    fn andalso_orelse_not() {
        assert_eq!(
            pe("true andalso false"),
            sugar::and(b::boolean(true), b::boolean(false))
        );
        assert_eq!(
            pe("true orelse false"),
            sugar::or(b::boolean(true), b::boolean(false))
        );
        assert_eq!(pe("not true"), b::app(b::v("not"), b::boolean(true)));
    }

    #[test]
    fn string_concat_operator() {
        assert_eq!(
            pe("\"a\" ^ \"b\""),
            Expr::apps(b::v("concat"), [b::str("a"), b::str("b")])
        );
    }

    #[test]
    fn unary_minus_on_expr() {
        assert_eq!(pe("-x"), b::app(b::v("neg"), b::v("x")));
        assert_eq!(pe("1 - 2"), b::sub(b::int(1), b::int(2)));
    }

    #[test]
    fn program_declarations() {
        let decls = parse_program(
            "val x = 1;\n\
             fun f a = a and g z = f z;\n\
             class A = class {} end;\n\
             f x",
        )
        .expect("parses");
        assert_eq!(decls.len(), 4);
        assert!(matches!(decls[0], Decl::Val(..)));
        match &decls[1] {
            Decl::Fun(defs) => assert_eq!(defs.len(), 2),
            other => panic!("expected fun, got {other:?}"),
        }
        assert!(matches!(decls[2], Decl::Classes(_)));
        assert!(matches!(decls[3], Decl::Expr(_)));
    }

    #[test]
    fn class_decl_group() {
        let decls = parse_program(
            "class A = class {} include B as fn x => x where fn x => true end \
             and B = class {} end;",
        )
        .expect("parses");
        match &decls[0] {
            Decl::Classes(binds) => assert_eq!(binds.len(), 2),
            other => panic!("expected classes, got {other:?}"),
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_expr("1 +").expect_err("should fail");
        assert_eq!(err.line, 1);
        assert!(err.col >= 3, "got col {}", err.col);
    }

    #[test]
    fn wrong_arity_keyword_call() {
        let err = parse_expr("query(f)").expect_err("should fail");
        assert!(err.message.contains("expects 2"), "got: {}", err.message);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_expr("1 2 3 ]").is_err());
    }

    #[test]
    fn let_fun_in_expression() {
        let e = pe("let fun f x = x + 1 in f 41 end");
        assert!(matches!(e, Expr::Let(..)));
    }

    #[test]
    fn paper_joe_view_parses() {
        let e = pe("joe as fn x => [Name = x.Name, \
                    Age = this_year() - x.BirthYear, \
                    Income = x.Salary, \
                    Bonus := extract(x, Bonus)]");
        assert!(matches!(e, Expr::AsView(..)));
    }
}
