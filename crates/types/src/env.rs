//! Type assignments `A`: a global layer for top-level definitions and
//! builtins, plus a scoped stack for the variables bound during inference.

use crate::ctx::Infer;
use polyview_syntax::{Mono, Name, Scheme, TyVar};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A type assignment mapping term variables to polytypes.
#[derive(Clone, Debug, Default)]
pub struct TypeEnv {
    globals: HashMap<Name, Scheme>,
    /// Globals whose schemes have free (weak) variables.
    open: HashSet<Name>,
    scope: Vec<(Name, Scheme)>,
    /// One past the highest variable a defined scheme has named: where
    /// every statement's counter starts and ends (DESIGN.md §10).
    mark: TyVar,
}

impl TypeEnv {
    pub fn new() -> Self {
        TypeEnv::default()
    }

    /// Install a top-level binding (builtin or `val`-defined).
    pub fn define_global(&mut self, name: impl Into<Name>, s: Scheme) {
        let name = name.into();
        let free = s.free_vars();
        let named = free.iter().chain(s.binders.iter().map(|(v, _)| v));
        self.raise_mark(named.map(|v| v + 1).max().unwrap_or(0));
        if free.is_empty() {
            self.open.remove(&name);
        } else {
            self.open.insert(name.clone());
        }
        self.globals.insert(name, s);
    }

    pub fn lookup(&self, name: &Name) -> Option<&Scheme> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
            .or_else(|| self.globals.get(name))
    }

    /// Push a scoped binding; pop with [`TypeEnv::pop`].
    pub fn push(&mut self, name: Name, s: Scheme) {
        self.scope.push((name, s));
    }

    pub fn pop(&mut self) -> Option<(Name, Scheme)> {
        self.scope.pop()
    }

    /// Current scope depth, for save/restore around branches.
    pub fn depth(&self) -> usize {
        self.scope.len()
    }

    pub fn truncate(&mut self, depth: usize) {
        self.scope.truncate(depth);
    }

    /// All type variables free in the environment, resolved through the
    /// current substitution. Generalization must not quantify these.
    pub fn free_vars(&self, cx: &Infer) -> HashSet<TyVar> {
        let open = self.open.iter().map(|n| &self.globals[n]);
        let scoped = self.scope.iter().map(|(_, s)| s);
        open.chain(scoped)
            .flat_map(|s| scheme_free_vars(cx, s))
            .collect()
    }

    /// No global scheme or settled kind names a variable at or above this.
    pub fn mark(&self) -> TyVar {
        self.mark
    }

    /// Raise the mark to at least `past` (a restored snapshot's counter).
    pub fn raise_mark(&mut self, past: TyVar) {
        self.mark = self.mark.max(past);
    }

    /// Commit a statement (DESIGN.md §10): resolve the global schemes, keep
    /// only the kinds of variables free in them, raise the mark past those,
    /// and clear the substitution. Only the open globals are walked, so the
    /// cost follows them, not the session's length.
    pub fn settle(&mut self, cx: &mut Infer) {
        let mut kinds = BTreeMap::new();
        self.open.retain(|n| {
            let s = self.globals.get_mut(n).expect("open names are bound");
            s.body = cx.resolve(&s.body);
            for (_, k) in &mut s.binders {
                *k = cx.resolve_kind(k);
            }
            let free = scheme_free_vars(cx, s);
            for &v in &free {
                self.mark = self.mark.max(v + 1);
                let k = cx.resolve_kind(&cx.kind_of(v));
                if !k.is_univ() {
                    kinds.insert(v, k);
                }
            }
            !free.is_empty()
        });
        cx.restore(self.mark, kinds);
    }

    /// Iterate over the global bindings (for documentation / listing).
    pub fn globals(&self) -> impl Iterator<Item = (&Name, &Scheme)> {
        self.globals.iter()
    }
}

/// The variables free in `s` under the current substitution, including
/// those reached through kinds (of the scheme's binders too).
fn scheme_free_vars(cx: &Infer, s: &Scheme) -> Vec<TyVar> {
    let mut vars = Vec::new();
    let mut seen = HashSet::new();
    cx.free_vars_deep(&s.body, &mut vars, &mut seen);
    for (_, k) in &s.binders {
        for v in k.free_vars() {
            cx.free_vars_deep(&Mono::Var(v), &mut vars, &mut seen);
        }
    }
    vars.retain(|v| !s.binders.iter().any(|(b, _)| b == v));
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyview_syntax::{Label, Mono};

    #[test]
    fn scope_shadows_globals() {
        let mut env = TypeEnv::new();
        env.define_global("x", Scheme::mono(Mono::int()));
        env.push(Label::new("x"), Scheme::mono(Mono::bool()));
        assert_eq!(env.lookup(&Label::new("x")).unwrap().body, Mono::bool());
        env.pop();
        assert_eq!(env.lookup(&Label::new("x")).unwrap().body, Mono::int());
    }

    #[test]
    fn later_pushes_shadow_earlier() {
        let mut env = TypeEnv::new();
        env.push(Label::new("x"), Scheme::mono(Mono::int()));
        env.push(Label::new("x"), Scheme::mono(Mono::str()));
        assert_eq!(env.lookup(&Label::new("x")).unwrap().body, Mono::str());
    }

    #[test]
    fn free_vars_sees_scope_monotypes() {
        let cx = Infer::new();
        let mut env = TypeEnv::new();
        env.push(Label::new("x"), Scheme::mono(Mono::Var(7)));
        assert!(env.free_vars(&cx).contains(&7));
    }

    #[test]
    fn free_vars_exclude_scheme_binders() {
        let cx = Infer::new();
        let mut env = TypeEnv::new();
        env.push(
            Label::new("f"),
            Scheme::poly(
                vec![(3, polyview_syntax::Kind::Univ)],
                Mono::arrow(Mono::Var(3), Mono::Var(3)),
            ),
        );
        assert!(!env.free_vars(&cx).contains(&3));
    }

    #[test]
    fn truncate_restores_depth() {
        let mut env = TypeEnv::new();
        let d = env.depth();
        env.push(Label::new("a"), Scheme::mono(Mono::int()));
        env.push(Label::new("b"), Scheme::mono(Mono::int()));
        env.truncate(d);
        assert!(env.lookup(&Label::new("a")).is_none());
    }
}
