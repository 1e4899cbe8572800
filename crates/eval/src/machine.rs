//! The evaluator.
//!
//! A [`Machine`] owns the slot store, the class table, the global value
//! environment, and the identity counter. Expression evaluation is a plain
//! tree walk; classes and objects are interpreted natively with exactly the
//! meaning the paper's translations assign to them (Figs. 3 and 5 and the
//! `f^i` functions of Section 4.4).

use crate::builtins;
use crate::env::Env;
use crate::error::RuntimeError;
use crate::profile::{Profile, Profiler};
use crate::store::Store;
use crate::value::{
    Builtin, ClassId, Closure, Key, ObjVal, RecordVal, SetVal, SlotId, Value, ViewFn,
};
use polyview_obs::{Clock, WallClock};
use polyview_syntax::{ClassDef, Expr, Idx, Label, Layout, Lit, Name};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;

/// One `include` clause of an evaluated class: resolved source classes, the
/// viewing function value, and the predicate value.
#[derive(Clone, Debug)]
pub struct IncludeSpec {
    pub sources: Vec<ClassId>,
    pub view: Value,
    pub pred: Value,
}

/// An evaluated class: `[OwnExt := S, Ext = λ().…]` in the translation —
/// natively, a slot holding the own extent plus the delayed include
/// computation.
#[derive(Clone, Debug)]
pub struct ClassData {
    pub own_slot: crate::value::SlotId,
    pub includes: Vec<IncludeSpec>,
}

/// Work counters for the evaluator: fuel units burned (one per expression
/// node and application, counted even when fuel is unbounded) and the number
/// of identity-carrying records / object sets constructed. Per-statement
/// deltas make evaluation cost observable (see DESIGN.md §9).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Evaluation steps taken (the same unit that fuel budgets are in).
    pub fuel_consumed: u64,
    /// Records constructed (record expressions, relobj raws, view tuples).
    pub records_allocated: u64,
    /// Sets constructed by set-producing primitives.
    pub sets_allocated: u64,
    /// Field operations executed through a compile-time integer offset:
    /// lowered `dot@i`/`extract@i`/`update@i` with a resolved index, and
    /// lowered record constructions. The compile tier's success metric.
    pub field_offsets_resolved: u64,
    /// Field operations that fell back to dynamic label lookup: un-lowered
    /// `dot`/`extract`/`update`/record constructions (compile tier off, or
    /// residue the lowering could not resolve) and lowered ops whose index
    /// parameter carried the unresolved sentinel. Machine-internal record
    /// building (view materialization, relobj raws) is *not* counted — it
    /// has no source field operation to lower (DESIGN.md §13).
    pub dyn_field_fallbacks: u64,
}

/// The evaluation machine.
pub struct Machine {
    pub store: Store,
    classes: Vec<ClassData>,
    globals: HashMap<Name, Value>,
    next_id: u64,
    /// Remaining evaluation fuel; `None` means unbounded. Each expression
    /// node costs one unit.
    pub fuel: Option<u64>,
    /// Opt-in memoization of top-level class extents (see
    /// [`Machine::enable_extent_cache`]).
    extent_cache_enabled: bool,
    extent_cache: HashMap<ClassId, (u64, SetVal)>,
    /// Bumped by every store mutation — `insert`, `delete`, and record
    /// field `update` (extent predicates can read mutable fields); cache
    /// entries from older epochs are stale.
    class_epoch: u64,
    /// Work counters; monotone until [`Machine::reset_stats`].
    stats: MachineStats,
    /// The attribution profiler, present only between
    /// [`Machine::profile_start`] and [`Machine::profile_stop`]. While
    /// `None` (the default), evaluation pays exactly one `is_none` check
    /// per node and performs **zero** clock reads.
    profiler: Option<Profiler>,
    /// Clock handed to profilers started on this machine. Sticky: set it
    /// once (tests inject a `ManualClock`), every later `profile_start`
    /// uses it.
    profile_clock: Arc<dyn Clock>,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    /// A machine with all builtins installed and unbounded fuel.
    pub fn new() -> Self {
        let mut m = Machine {
            store: Store::new(),
            classes: Vec::new(),
            globals: HashMap::new(),
            next_id: 0,
            fuel: None,
            extent_cache_enabled: false,
            extent_cache: HashMap::new(),
            class_epoch: 0,
            stats: MachineStats::default(),
            profiler: None,
            profile_clock: Arc::new(WallClock::new()),
        };
        for (name, arity, f) in builtins::natives() {
            let id = m.fresh_id();
            m.globals.insert(
                Label::new(name),
                Value::Builtin(Rc::new(Builtin {
                    id,
                    name,
                    arity,
                    args: Vec::new(),
                    f,
                })),
            );
        }
        m
    }

    /// Append a hand-built class (snapshot tests construct class tables
    /// without going through `class … end` evaluation).
    #[cfg(test)]
    pub(crate) fn push_class_for_test(&mut self, cd: ClassData) -> ClassId {
        self.classes.push(cd);
        self.classes.len() - 1
    }

    /// A machine with an evaluation budget (for property tests over
    /// programs containing `fix`).
    pub fn with_fuel(fuel: u64) -> Self {
        let mut m = Machine::new();
        m.fuel = Some(fuel);
        m
    }

    pub fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The next identity this machine would mint (snapshots persist it so
    /// a restored machine never reuses a live id).
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// The store-mutation epoch (snapshots persist it so extent-cache
    /// invalidation stays monotone across a restore).
    pub fn class_epoch(&self) -> u64 {
        self.class_epoch
    }

    /// Reassemble a machine from snapshot-decoded parts (`crate::snapshot`).
    /// The decoder has already validated internal consistency (slot and
    /// class ids in range, `next_id` above every live id). Caches, stats,
    /// and the profiler start cold — all are correctness-neutral
    /// derivatives of the persisted state.
    pub(crate) fn restore(
        store: Store,
        classes: Vec<ClassData>,
        globals: HashMap<Name, Value>,
        next_id: u64,
        class_epoch: u64,
        fuel: Option<u64>,
    ) -> Machine {
        Machine {
            store,
            classes,
            globals,
            next_id,
            fuel,
            extent_cache_enabled: false,
            extent_cache: HashMap::new(),
            class_epoch,
            stats: MachineStats::default(),
            profiler: None,
            profile_clock: Arc::new(WallClock::new()),
        }
    }

    /// Install a global value binding (used by the engine for top-level
    /// `val` definitions).
    pub fn define_global(&mut self, name: impl Into<Name>, v: Value) {
        self.globals.insert(name.into(), v);
    }

    pub fn global(&self, name: &Name) -> Option<&Value> {
        self.globals.get(name)
    }

    /// Iterate the global value environment (the engine uses this to
    /// resolve class ids back to their bound names in profile reports).
    pub fn globals_iter(&self) -> impl Iterator<Item = (&Name, &Value)> {
        self.globals.iter()
    }

    pub fn class_data(&self, id: ClassId) -> &ClassData {
        &self.classes[id]
    }

    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Snapshot of the work counters.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// Zero the work counters (store, classes, and globals are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = MachineStats::default();
    }

    /// Install the clock future [`Machine::profile_start`] calls will use.
    /// Does not affect a profiler already running.
    pub fn set_profile_clock(&mut self, clock: Arc<dyn Clock>) {
        self.profile_clock = clock;
    }

    /// Begin attribution profiling: every subsequent `eval_in` node opens a
    /// timed frame until [`Machine::profile_stop`]. Starting while already
    /// profiling discards the in-flight profile.
    pub fn profile_start(&mut self) {
        self.profiler = Some(Profiler::new(Arc::clone(&self.profile_clock)));
    }

    /// Stop profiling and return the collected [`Profile`] (`None` if
    /// profiling was never started).
    pub fn profile_stop(&mut self) -> Option<Profile> {
        self.profiler.take().map(Profiler::finish)
    }

    pub fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    fn burn(&mut self) -> Result<(), RuntimeError> {
        self.stats.fuel_consumed += 1;
        if let Some(f) = &mut self.fuel {
            if *f == 0 {
                return Err(RuntimeError::FuelExhausted);
            }
            *f -= 1;
        }
        Ok(())
    }

    /// Evaluate a closed expression in the global environment.
    pub fn eval(&mut self, e: &Expr) -> Result<Value, RuntimeError> {
        self.eval_global(e)
    }

    /// Evaluate a cached AST under the persistent global environment — the
    /// entry point for prepared (compile-once/run-many) execution. The AST
    /// is only borrowed: nothing is cloned up front, and closure creation
    /// during the run shares `Lam`/`Fix` bodies with the cached tree via
    /// `Rc` instead of deep-copying them.
    pub fn eval_global(&mut self, e: &Expr) -> Result<Value, RuntimeError> {
        self.eval_in(e, &Env::empty())
    }

    /// Evaluate under a local environment.
    ///
    /// The profiler check is the *only* cost the profiler adds to normal
    /// runs: one `Option::is_none` on a field already in cache (fuel was
    /// just touched). With a profiler installed, dispatch detours through
    /// [`Machine::eval_profiled`] which brackets the node with two clock
    /// reads.
    pub fn eval_in(&mut self, e: &Expr, env: &Env) -> Result<Value, RuntimeError> {
        self.burn()?;
        if self.profiler.is_none() {
            self.eval_dispatch(e, env)
        } else {
            self.eval_profiled(e, env)
        }
    }

    /// The undecorated dispatch. The hot recursion path (variables,
    /// application, let, if) stays in this function with a deliberately
    /// small stack frame; everything else is dispatched to a cold helper
    /// with its own frame.
    fn eval_dispatch(&mut self, e: &Expr, env: &Env) -> Result<Value, RuntimeError> {
        match e {
            Expr::Lit(l) => Ok(match l {
                Lit::Unit => Value::Unit,
                Lit::Int(n) => Value::Int(*n),
                Lit::Bool(b) => Value::Bool(*b),
                Lit::Str(s) => Value::str(s),
            }),
            Expr::Var(x) => env
                .lookup(x)
                .or_else(|| self.globals.get(x))
                .cloned()
                .ok_or_else(|| RuntimeError::Unbound(x.clone())),
            Expr::App(f, a) => {
                let vf = self.eval_in(f, env)?;
                let va = self.eval_in(a, env)?;
                self.apply(vf, va)
            }
            Expr::Let(x, rhs, body) => {
                let v = self.eval_in(rhs, env)?;
                let env2 = env.bind(x.clone(), v);
                self.eval_in(body, &env2)
            }
            Expr::If(c, t, e2) => {
                if self.eval_in(c, env)?.as_bool()? {
                    self.eval_in(t, env)
                } else {
                    self.eval_in(e2, env)
                }
            }
            other => self.eval_cold(other, env),
        }
    }

    /// Profiled dispatch: open a frame keyed by this node (unless past the
    /// depth cap), attribute env-lookup depth for variables, evaluate, and
    /// close the frame — on errors too, so the tree stays balanced.
    /// Out-of-line so the unprofiled path carries none of this code.
    #[inline(never)]
    fn eval_profiled(&mut self, e: &Expr, env: &Env) -> Result<Value, RuntimeError> {
        let entered = match &mut self.profiler {
            Some(p) => p.enter(e),
            None => unreachable!("checked by eval_in"),
        };
        if entered {
            if let Expr::Var(x) = e {
                let hops = env.lookup_cost(x);
                if let Some(p) = &mut self.profiler {
                    p.note_env_lookup(hops);
                }
            }
        }
        let r = self.eval_dispatch(e, env);
        if entered {
            // A nested profile_stop (impossible today: stop is a machine
            // API, not an expression) would take the profiler; guard
            // rather than unwrap.
            if let Some(p) = &mut self.profiler {
                p.exit();
            }
        }
        r
    }

    /// A field operation fell back to dynamic label lookup: bump the stat
    /// and, when profiling, attribute the fallback to the current site.
    fn note_dyn_fallback(&mut self, label: &str) {
        self.stats.dyn_field_fallbacks += 1;
        if let Some(p) = &mut self.profiler {
            p.note_fallback(label);
        }
    }

    #[inline(never)]
    fn eval_cold(&mut self, e: &Expr, env: &Env) -> Result<Value, RuntimeError> {
        match e {
            Expr::Lit(_) | Expr::Var(_) | Expr::App(..) | Expr::Let(..) | Expr::If(..) => {
                unreachable!("handled by eval_dispatch")
            }
            Expr::Eq(a, b) => {
                let va = self.eval_in(a, env)?;
                let vb = self.eval_in(b, env)?;
                Ok(Value::Bool(va.value_eq(&vb)))
            }
            Expr::Lam(x, body) => {
                let id = self.fresh_id();
                Ok(Value::Closure(Rc::new(Closure {
                    id,
                    fix_name: None,
                    param: x.clone(),
                    body: body.clone(),
                    env: env.clone(),
                })))
            }
            Expr::Record(fields) => {
                // Un-lowered construction: the layout must be computed
                // from the labels at runtime (counted as fallback work).
                let mut triples = Vec::with_capacity(fields.len());
                for f in fields {
                    let v = self.eval_in(&f.expr, env)?;
                    let slot = match v {
                        // The paper's (rec) rule: an extracted L-value
                        // becomes the field's slot — sharing, not copying.
                        Value::LValue(s) => s,
                        other => self.store.alloc(other),
                    };
                    triples.push((f.label.clone(), f.mutable, slot));
                }
                self.note_dyn_fallback("[record]");
                Ok(self.build_record(triples))
            }
            Expr::Dot(e, l) => {
                let v = self.eval_in(e, env)?;
                let r = v.as_record()?;
                let (_, slot) = self.field_slot(r, l, None)?;
                Ok(self.store.get(slot).clone())
            }
            Expr::Extract(e, l) => {
                let v = self.eval_in(e, env)?;
                let r = v.as_record()?;
                let (i, slot) = self.field_slot(r, l, None)?;
                if !r.layout.is_mutable(i) {
                    return Err(RuntimeError::ImmutableField(l.clone()));
                }
                Ok(Value::LValue(slot))
            }
            Expr::Update(e, l, rhs) => {
                let v = self.eval_in(e, env)?;
                let slot = {
                    let r = v.as_record()?;
                    let (i, slot) = self.field_slot(r, l, None)?;
                    if !r.layout.is_mutable(i) {
                        return Err(RuntimeError::ImmutableField(l.clone()));
                    }
                    slot
                };
                let nv = self.eval_in(rhs, env)?;
                self.store.set(slot, nv);
                // A field write can change what any extent predicate
                // observes (`include … where` reads object state), so it
                // invalidates cached extents exactly like insert/delete.
                self.class_epoch += 1;
                Ok(Value::Unit)
            }
            // ---------- lowered field operations (the compile tier) ----------
            Expr::DotAt(e, l, idx) => {
                let v = self.eval_in(e, env)?;
                let off = self.resolve_idx(idx, env)?;
                let r = v.as_record()?;
                let (_, slot) = self.field_slot(r, l, off)?;
                Ok(self.store.get(slot).clone())
            }
            Expr::ExtractAt(e, l, idx) => {
                let v = self.eval_in(e, env)?;
                let off = self.resolve_idx(idx, env)?;
                let r = v.as_record()?;
                let (i, slot) = self.field_slot(r, l, off)?;
                if !r.layout.is_mutable(i) {
                    return Err(RuntimeError::ImmutableField(l.clone()));
                }
                Ok(Value::LValue(slot))
            }
            Expr::UpdateAt(e, l, idx, rhs) => {
                let v = self.eval_in(e, env)?;
                let off = self.resolve_idx(idx, env)?;
                let slot = {
                    let r = v.as_record()?;
                    let (i, slot) = self.field_slot(r, l, off)?;
                    if !r.layout.is_mutable(i) {
                        return Err(RuntimeError::ImmutableField(l.clone()));
                    }
                    slot
                };
                let nv = self.eval_in(rhs, env)?;
                self.store.set(slot, nv);
                self.class_epoch += 1;
                Ok(Value::Unit)
            }
            Expr::RecordAt(layout, entries) => {
                // Lowered construction: entries are in source (evaluation)
                // order, each carrying its target slot; the layout is shared
                // with every record built here, not recomputed.
                let mut slots: Vec<SlotId> = vec![usize::MAX; layout.len()];
                for (off, fe) in entries {
                    let v = self.eval_in(fe, env)?;
                    let slot = match v {
                        Value::LValue(s) => s,
                        other => self.store.alloc(other),
                    };
                    slots[*off] = slot;
                }
                debug_assert!(
                    slots.iter().all(|s| *s != usize::MAX),
                    "lowered record construction left a slot unfilled"
                );
                let id = self.fresh_id();
                self.stats.records_allocated += 1;
                self.stats.field_offsets_resolved += 1;
                Ok(Value::Record(Rc::new(RecordVal {
                    id,
                    layout: layout.clone(),
                    slots,
                })))
            }
            Expr::SetLit(es) => {
                let mut elems = Vec::with_capacity(es.len());
                for e in es {
                    elems.push(self.eval_in(e, env)?);
                }
                self.stats.sets_allocated += 1;
                Ok(Value::Set(SetVal::from_elems(elems)))
            }
            Expr::Union(a, b) => {
                let va = self.eval_in(a, env)?;
                let vb = self.eval_in(b, env)?;
                let sa = va.as_set()?;
                let sb = vb.as_set()?;
                self.stats.sets_allocated += 1;
                Ok(Value::Set(sa.union_left(sb)))
            }
            Expr::Hom(s, f, op, z) => {
                let vs = self.eval_in(s, env)?;
                let vf = self.eval_in(f, env)?;
                let vop = self.eval_in(op, env)?;
                let vz = self.eval_in(z, env)?;
                self.hom(vs.as_set()?.clone(), vf, vop, vz)
            }
            Expr::Fix(x, body) => match &**body {
                Expr::Lam(p, lam_body) => {
                    let id = self.fresh_id();
                    Ok(Value::Closure(Rc::new(Closure {
                        id,
                        fix_name: Some(x.clone()),
                        param: p.clone(),
                        body: lam_body.clone(),
                        env: env.clone(),
                    })))
                }
                _ => Err(RuntimeError::FixNonFunction),
            },
            // ---------- views (the meaning of Fig. 3) ----------
            Expr::IdView(e) => {
                let raw = self.eval_in(e, env)?;
                raw.as_record()?; // raw objects are records
                let id = self.fresh_id();
                Ok(Value::Obj(Rc::new(ObjVal {
                    id,
                    raw,
                    view: ViewFn::Identity,
                })))
            }
            Expr::AsView(o, f) => {
                let vo = self.eval_in(o, env)?;
                let vf = self.eval_in(f, env)?;
                let o = vo.as_obj()?;
                let id = self.fresh_id();
                Ok(Value::Obj(Rc::new(ObjVal {
                    id,
                    raw: o.raw.clone(),
                    view: ViewFn::Compose(Rc::new(o.view.clone()), Rc::new(ViewFn::Fn(vf))),
                })))
            }
            Expr::Query(f, o) => {
                let vf = self.eval_in(f, env)?;
                let vo = self.eval_in(o, env)?;
                let o = vo.as_obj()?.clone();
                let materialized = self.apply_view(&o.view, o.raw.clone())?;
                self.apply(vf, materialized)
            }
            Expr::Fuse(a, b) => {
                let va = self.eval_in(a, env)?;
                let vb = self.eval_in(b, env)?;
                let oa = va.as_obj()?.clone();
                let ob = vb.as_obj()?.clone();
                Ok(Value::Set(self.fuse_objs(&[oa, ob])))
            }
            Expr::RelObj(fields) => {
                let mut raw_fields = Vec::with_capacity(fields.len());
                let mut views = Vec::with_capacity(fields.len());
                for (l, e) in fields {
                    let v = self.eval_in(e, env)?;
                    let o = v.as_obj()?.clone();
                    let slot = self.store.alloc(o.raw.clone());
                    raw_fields.push((l.clone(), false, slot));
                    views.push((l.clone(), Rc::new(o.view.clone())));
                }
                // relobj creates a *new* raw object, hence new identity.
                let raw = self.build_record(raw_fields);
                let id = self.fresh_id();
                Ok(Value::Obj(Rc::new(ObjVal {
                    id,
                    raw,
                    view: ViewFn::RelFields(views),
                })))
            }

            // ---------- classes (the meaning of Fig. 5 / Section 4.4) ----------
            Expr::ClassExpr(cd) => {
                let cid = self.eval_class_def(cd, env)?;
                Ok(Value::Class(cid))
            }
            Expr::CQuery(f, c) => {
                let vf = self.eval_in(f, env)?;
                let vc = self.eval_in(c, env)?;
                let cid = vc.as_class()?;
                let extent = self.top_level_extent(cid)?;
                self.apply(vf, Value::Set(extent))
            }
            Expr::Insert(c, e) => {
                let vc = self.eval_in(c, env)?;
                let ve = self.eval_in(e, env)?;
                ve.as_obj()?;
                let cid = vc.as_class()?;
                let slot = self.classes[cid].own_slot;
                let own = self.store.get(slot).as_set()?.clone();
                // tr: update(C, OwnExt, union(C·OwnExt, {e})) — left-biased,
                // so inserting an object already present (by objeq) keeps
                // the existing element.
                let updated = own.union_left(&SetVal::from_elems([ve]));
                self.store.set(slot, Value::Set(updated));
                self.class_epoch += 1;
                Ok(Value::Unit)
            }
            Expr::Delete(c, e) => {
                let vc = self.eval_in(c, env)?;
                let ve = self.eval_in(e, env)?;
                ve.as_obj()?;
                let cid = vc.as_class()?;
                let slot = self.classes[cid].own_slot;
                let own = self.store.get(slot).as_set()?.clone();
                let updated = own.difference(&SetVal::from_elems([ve]));
                self.store.set(slot, Value::Set(updated));
                self.class_epoch += 1;
                Ok(Value::Unit)
            }
            Expr::LetClasses(binds, body) => {
                // Pre-allocate every class id so include sources can refer
                // to siblings cyclically, then fill the definitions.
                let mut env2 = env.clone();
                let first_id = self.classes.len();
                for (i, (name, _)) in binds.iter().enumerate() {
                    let own_slot = self.store.alloc(Value::Set(SetVal::empty()));
                    self.classes.push(ClassData {
                        own_slot,
                        includes: Vec::new(),
                    });
                    env2 = env2.bind(name.clone(), Value::Class(first_id + i));
                }
                for (i, (_, cd)) in binds.iter().enumerate() {
                    let cid = first_id + i;
                    let own = self.eval_in(&cd.own, &env2)?;
                    own.as_set()?;
                    let slot = self.classes[cid].own_slot;
                    self.store.set(slot, own);
                    let includes = self.eval_includes(cd, &env2)?;
                    self.classes[cid].includes = includes;
                }
                self.eval_in(body, &env2)
            }
        }
    }

    /// Evaluate a non-recursive class definition to a fresh class id.
    fn eval_class_def(&mut self, cd: &ClassDef, env: &Env) -> Result<ClassId, RuntimeError> {
        let own = self.eval_in(&cd.own, env)?;
        own.as_set()?;
        let own_slot = self.store.alloc(own);
        let includes = self.eval_includes(cd, env)?;
        let cid = self.classes.len();
        self.classes.push(ClassData { own_slot, includes });
        Ok(cid)
    }

    fn eval_includes(
        &mut self,
        cd: &ClassDef,
        env: &Env,
    ) -> Result<Vec<IncludeSpec>, RuntimeError> {
        let mut includes = Vec::with_capacity(cd.includes.len());
        for inc in &cd.includes {
            let mut sources = Vec::with_capacity(inc.sources.len());
            for s in &inc.sources {
                let v = self.eval_in(s, env)?;
                sources.push(v.as_class()?);
            }
            let view = self.eval_in(&inc.view, env)?;
            let pred = self.eval_in(&inc.pred, env)?;
            includes.push(IncludeSpec {
                sources,
                view,
                pred,
            });
        }
        Ok(includes)
    }

    /// Build a record value from `(label, mutable, slot)` triples (any
    /// order; slots already allocated). Used by un-lowered record
    /// expressions and by machine-internal constructions (relobj raws,
    /// view materialization) — the latter have no source field operation,
    /// so this helper does not touch the offset/fallback counters.
    fn build_record(&mut self, mut triples: Vec<(Label, bool, SlotId)>) -> Value {
        triples.sort_by(|a, b| a.0.cmp(&b.0));
        let layout = Layout::new(triples.iter().map(|(l, m, _)| (l.clone(), *m)));
        let slots = triples.into_iter().map(|(_, _, s)| s).collect();
        let id = self.fresh_id();
        self.stats.records_allocated += 1;
        Value::Record(Rc::new(RecordVal {
            id,
            layout: Rc::new(layout),
            slots,
        }))
    }

    /// Locate a field: `(offset, slot)`. With a resolved offset (`Some`)
    /// this is a direct slot read — the fast path the compile tier buys —
    /// guarded by one label compare against the layout, in release builds
    /// too: a wrong-but-in-bounds compiled offset must degrade into the
    /// counted dynamic path below, never silently read the wrong field.
    /// Without a resolved offset (un-lowered op, or an index parameter
    /// that carried the unresolved sentinel) the label is looked up in
    /// the layout, and the fallback counter records the residue.
    fn field_slot(
        &mut self,
        r: &RecordVal,
        l: &Label,
        resolved: Option<usize>,
    ) -> Result<(usize, SlotId), RuntimeError> {
        match resolved {
            Some(i) if i < r.slots.len() && r.layout.label_at(i) == l => {
                self.stats.field_offsets_resolved += 1;
                Ok((i, r.slots[i]))
            }
            _ => {
                self.note_dyn_fallback(l.as_str());
                let i = r
                    .offset_of(l)
                    .ok_or_else(|| RuntimeError::NoSuchField(l.clone()))?;
                Ok((i, r.slots[i]))
            }
        }
    }

    /// Resolve a lowered index operand to an offset. An index *parameter*
    /// is an ordinary λ-bound variable holding an int; a negative value is
    /// the lowering's "could not resolve" sentinel and yields `None`
    /// (dynamic fallback).
    fn resolve_idx(&mut self, idx: &Idx, env: &Env) -> Result<Option<usize>, RuntimeError> {
        match idx {
            Idx::Const(n) => Ok(Some(*n)),
            Idx::Var(x) => {
                let v = env
                    .lookup(x)
                    .or_else(|| self.globals.get(x))
                    .cloned()
                    .ok_or_else(|| RuntimeError::Unbound(x.clone()))?;
                let n = v.as_int()?;
                Ok(usize::try_from(n).ok())
            }
        }
    }

    /// Apply a function value.
    pub fn apply(&mut self, f: Value, arg: Value) -> Result<Value, RuntimeError> {
        self.burn()?;
        match f {
            Value::Closure(c) => {
                let mut env = c.env.clone();
                if let Some(fx) = &c.fix_name {
                    env = env.bind(fx.clone(), Value::Closure(c.clone()));
                }
                let env = env.bind(c.param.clone(), arg);
                self.eval_in(&c.body, &env)
            }
            Value::Builtin(b) => {
                let mut nb = (*b).clone();
                nb.args.push(arg);
                if nb.args.len() == nb.arity {
                    (nb.f)(&nb.args)
                } else {
                    nb.id = self.fresh_id();
                    Ok(Value::Builtin(Rc::new(nb)))
                }
            }
            other => Err(RuntimeError::NotAFunction(other.shape())),
        }
    }

    /// `hom(S, f, op, z) = op(f(e1), op(f(e2), … op(f(en), z)…))`,
    /// folding right over the canonical element order.
    fn hom(&mut self, s: SetVal, f: Value, op: Value, z: Value) -> Result<Value, RuntimeError> {
        let elems: Vec<Value> = s.values().cloned().collect();
        let mut acc = z;
        for e in elems.into_iter().rev() {
            let fe = self.apply(f.clone(), e)?;
            let partial = self.apply(op.clone(), fe)?;
            acc = self.apply(partial, acc)?;
        }
        Ok(acc)
    }

    /// Materialize a view: apply the viewing function to the raw object.
    pub fn apply_view(&mut self, view: &ViewFn, raw: Value) -> Result<Value, RuntimeError> {
        match view {
            ViewFn::Identity => Ok(raw),
            ViewFn::Fn(f) => self.apply(f.clone(), raw),
            ViewFn::Compose(inner, outer) => {
                let mid = self.apply_view(inner, raw)?;
                self.apply_view(outer, mid)
            }
            ViewFn::Tuple(vs) => {
                let mut fields = Vec::with_capacity(vs.len());
                for (i, v) in vs.iter().enumerate() {
                    let val = self.apply_view(v, raw.clone())?;
                    let slot = self.store.alloc(val);
                    fields.push((Label::tuple(i + 1), false, slot));
                }
                Ok(self.build_record(fields))
            }
            ViewFn::RelFields(views) => {
                let r = raw.as_record()?.clone();
                let mut fields = Vec::with_capacity(views.len());
                for (l, v) in views {
                    let i = r
                        .offset_of(l)
                        .ok_or_else(|| RuntimeError::NoSuchField(l.clone()))?;
                    let component_raw = self.store.get(r.slots[i]).clone();
                    let val = self.apply_view(v, component_raw)?;
                    let slot = self.store.alloc(val);
                    fields.push((l.clone(), false, slot));
                }
                Ok(self.build_record(fields))
            }
        }
    }

    /// Materialize an object's current view — `query(λx.x, o)`.
    pub fn materialize(&mut self, o: &Value) -> Result<Value, RuntimeError> {
        let o = o.as_obj()?.clone();
        self.apply_view(&o.view, o.raw.clone())
    }

    /// n-ary `fuse`: when all objects share one raw object, a singleton of
    /// the product-view object; otherwise empty. For a single object this
    /// degenerates to a singleton of that object (used by 1-source
    /// `include` clauses).
    pub fn fuse_objs(&mut self, objs: &[Rc<ObjVal>]) -> SetVal {
        assert!(!objs.is_empty(), "fuse of zero objects");
        self.stats.sets_allocated += 1;
        if objs.len() == 1 {
            return SetVal::from_elems([Value::Obj(objs[0].clone())]);
        }
        let raw_key = objs[0].raw.key();
        if objs.iter().any(|o| o.raw.key() != raw_key) {
            return SetVal::empty();
        }
        let views: Vec<Rc<ViewFn>> = objs.iter().map(|o| Rc::new(o.view.clone())).collect();
        let id = self.fresh_id();
        let fused = Value::Obj(Rc::new(ObjVal {
            id,
            raw: objs[0].raw.clone(),
            view: ViewFn::Tuple(views),
        }));
        SetVal::from_elems([fused])
    }

    /// n-ary intersection of sets of objects (the paper's `intersect`):
    /// one fused object per raw object present in *all* sets.
    pub fn intersect_obj_sets(&mut self, sets: &[SetVal]) -> Result<SetVal, RuntimeError> {
        assert!(!sets.is_empty(), "intersect of zero sets");
        if sets.len() == 1 {
            return Ok(sets[0].clone());
        }
        let mut out = Vec::new();
        'outer: for (k, v0) in sets[0].0.iter() {
            let mut group: Vec<Rc<ObjVal>> = Vec::with_capacity(sets.len());
            group.push(v0.as_obj()?.clone());
            for s in &sets[1..] {
                match s.0.get(k) {
                    Some(v) => group.push(v.as_obj()?.clone()),
                    None => continue 'outer,
                }
            }
            let fused = self.fuse_objs(&group);
            for v in fused.values() {
                out.push(v.clone());
            }
        }
        Ok(SetVal::from_elems(out))
    }

    /// The extent of a class: own extent ∪ includes, with the visited-set
    /// (`L`) algorithm of Section 4.4 guaranteeing termination (Prop. 5).
    /// `visited` must already contain `cid`.
    pub fn class_extent(
        &mut self,
        cid: ClassId,
        visited: &BTreeSet<ClassId>,
    ) -> Result<SetVal, RuntimeError> {
        self.burn()?;
        let data = self.classes[cid].clone();
        let mut result = self.store.get(data.own_slot).as_set()?.clone();
        for inc in &data.includes {
            // Extents of the sources, cutting cycles via the visited set.
            let mut source_extents = Vec::with_capacity(inc.sources.len());
            for &src in &inc.sources {
                if visited.contains(&src) {
                    source_extents.push(SetVal::empty());
                } else {
                    let mut v2 = visited.clone();
                    v2.insert(src);
                    source_extents.push(self.class_extent(src, &v2)?);
                }
            }
            let candidates = self.intersect_obj_sets(&source_extents)?;
            // select as view from candidates where pred
            let mut included = Vec::new();
            for obj in candidates.values().cloned().collect::<Vec<_>>() {
                let keep = self.apply(inc.pred.clone(), obj.clone())?.as_bool()?;
                if keep {
                    let o = obj.as_obj()?.clone();
                    let id = self.fresh_id();
                    included.push(Value::Obj(Rc::new(ObjVal {
                        id,
                        raw: o.raw.clone(),
                        view: ViewFn::Compose(
                            Rc::new(o.view.clone()),
                            Rc::new(ViewFn::Fn(inc.view.clone())),
                        ),
                    })));
                }
            }
            result = result.union_left(&SetVal::from_elems(included));
        }
        Ok(result)
    }

    /// Convenience: the full extent of a class value (entry point used by
    /// `c-query` and the engine).
    pub fn extent_of(&mut self, class_value: &Value) -> Result<SetVal, RuntimeError> {
        let cid = class_value.as_class()?;
        self.top_level_extent(cid)
    }

    /// Compute (or fetch from the cache, when enabled and fresh) the full
    /// extent of a class.
    fn top_level_extent(&mut self, cid: ClassId) -> Result<SetVal, RuntimeError> {
        if self.extent_cache_enabled {
            if let Some((epoch, cached)) = self.extent_cache.get(&cid) {
                if *epoch == self.class_epoch {
                    let rows = cached.len() as u64;
                    let served = cached.clone();
                    if let Some(p) = &mut self.profiler {
                        p.note_extent(cid, true, rows, self.class_epoch);
                    }
                    return Ok(served);
                }
            }
        }
        let mut visited = BTreeSet::new();
        visited.insert(cid);
        let extent = self.class_extent(cid, &visited)?;
        if let Some(p) = &mut self.profiler {
            // A recompute with the cache on means the previous entry was
            // invalidated by the epoch current now.
            p.note_extent(cid, false, extent.len() as u64, self.class_epoch);
        }
        if self.extent_cache_enabled {
            self.extent_cache
                .insert(cid, (self.class_epoch, extent.clone()));
        }
        Ok(extent)
    }

    /// Opt-in memoization of top-level class extents, an *extension* to the
    /// paper's always-recompute semantics (§4.3's `λ()` delay).
    ///
    /// Cache entries are invalidated by any store mutation — `insert`,
    /// `delete`, and record-field `update` all bump a global epoch — so a
    /// predicate or viewing function reading mutable state always sees
    /// extents consistent with the current store; enabling the cache is
    /// observationally transparent. The cost is coarseness: one `update`
    /// anywhere recomputes every extent on next read. The E4 ablation
    /// bench quantifies the trade-off.
    pub fn enable_extent_cache(&mut self, enabled: bool) {
        self.extent_cache_enabled = enabled;
        if !enabled {
            self.extent_cache.clear();
        }
    }

    /// Number of live cache entries (diagnostics).
    pub fn extent_cache_len(&self) -> usize {
        self.extent_cache.len()
    }

    /// Read a record field value (engine convenience).
    pub fn field_of(&self, record: &Value, label: &str) -> Result<Value, RuntimeError> {
        let r = record.as_record()?;
        let l = Label::new(label);
        let i = r.offset_of(&l).ok_or(RuntimeError::NoSuchField(l))?;
        Ok(self.store.get(r.slots[i]).clone())
    }

    /// Pretty-print a value, reading record fields through the store.
    /// Rendering depth is capped defensively (well-typed programs cannot
    /// build cyclic values — the occurs check forbids the types — but the
    /// machine API is public).
    pub fn show(&self, v: &Value) -> String {
        self.show_depth(v, 64)
    }

    fn show_depth(&self, v: &Value, depth: usize) -> String {
        if depth == 0 {
            return "…".to_string();
        }
        match v {
            Value::Unit => "()".to_string(),
            Value::Int(n) => n.to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => format!("{s:?}"),
            Value::Record(r) => {
                let mut out = String::from("[");
                for (i, (l, mutable, slot)) in r.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(l.as_str());
                    out.push_str(if mutable { " := " } else { " = " });
                    out.push_str(&self.show_depth(self.store.get(slot), depth - 1));
                }
                out.push(']');
                out
            }
            Value::Set(s) => {
                let mut out = String::from("{");
                for (i, e) in s.values().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&self.show_depth(e, depth - 1));
                }
                out.push('}');
                out
            }
            Value::Closure(_) | Value::Builtin(_) => "<fn>".to_string(),
            Value::LValue(s) => format!("<lval #{s}>"),
            Value::Obj(o) => format!("<obj raw={}>", self.show_depth(&o.raw, depth - 1)),
            Value::Class(c) => format!("<class #{c}>"),
        }
    }

    /// Test whether a set value contains an element `objeq`/value-equal to
    /// `v`.
    pub fn set_contains(&self, s: &SetVal, v: &Value) -> bool {
        s.contains_key(&v.key())
    }

    /// Expose the key of a value (for tests and the isa baseline).
    pub fn key_of(v: &Value) -> Key {
        v.key()
    }
}
