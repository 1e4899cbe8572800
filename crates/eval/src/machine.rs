//! The evaluator.
//!
//! A [`Machine`] owns the slot store, the class table, the global values,
//! the value stack, and the identity counter. Expression evaluation is a
//! plain tree walk over resolved code (`polyview_syntax::resolve`): a
//! variable is a stack, capture or global slot, never a name (DESIGN.md
//! §13). Classes and objects are interpreted natively with exactly the
//! meaning the paper's translations assign to them (Figs. 3 and 5 and the
//! `f^i` functions of Section 4.4).

use crate::builtins;
use crate::error::RuntimeError;
use crate::profile::{Profile, Profiler};
use crate::store::Store;
use crate::value::{
    merge_left_noting, Builtin, ClassId, Closure, Key, ObjVal, RecordVal, Run, SetMap, SetVal,
    SlotId, Value, ViewFn,
};
use polyview_obs::{Clock, WallClock};
use polyview_syntax::resolve::{is_resolved, resolve};
use polyview_syntax::{ClassDef, Expr, GlobalNames, Idx, Label, Lambda, Layout, Lit, Name, Slot};
use std::collections::HashMap;
use std::ops::Range;
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
    pub includes: Rc<[IncludeSpec]>,
}

polyview_syntax::work_counters! {
    /// Work counters for the evaluator: fuel units burned (one per expression
    /// node and application, counted even when fuel is unbounded) and the number
    /// of identity-carrying records / object sets constructed. Per-statement
    /// deltas make evaluation cost observable (see DESIGN.md §9).
    pub struct MachineStats {
        /// Evaluation steps taken (the same unit that fuel budgets are in).
        pub fuel_consumed: u64,
        /// Records constructed (record expressions, relobj raws, view tuples).
        pub records_allocated: u64,
        /// Sets constructed by set-producing primitives.
        pub sets_allocated: u64,
        /// Field operations executed through a known integer offset:
        /// `dot@i`/`extract@i`/`update@i` with a resolved index, and record
        /// constructions (every one has its layout). The compile tier's
        /// success metric.
        pub field_offsets_resolved: u64,
        /// Field operations that looked their label up: `dot`/`extract`/
        /// `update` with an [`Idx::Dynamic`] offset (an AST evaluated without
        /// lowering, or residue the lowering could not resolve) and ops whose
        /// index parameter carried the unresolved sentinel. Record
        /// constructions are laid out by their labels when resolved, so none
        /// is counted here, and neither is machine-internal record building
        /// (view materialization, relobj raws) (DESIGN.md §13).
        pub dyn_field_fallbacks: u64,
        /// Class extents computed for a read ([`Machine::extent_of`]) that
        /// the extent cache could not serve: cold fills.
        pub extent_fills: u64,
        /// Class extents the extent cache served.
        pub extent_hits: u64,
        /// Served extents (counted in `extent_hits` too) whose cache entry
        /// was stale and was brought current by replaying the writes logged
        /// since its fill ([`Machine::replay_writes`]).
        pub extent_patches: u64,
    }
}

/// A memoized top-level class extent, with what filling it cost, so that
/// serving it again has exactly the effects of recomputing it: the fuel
/// the fill burned and the identities it minted (DESIGN.md §3). Writes
/// after its epoch are replayed onto it before it is served.
struct CachedExtent {
    /// The store epoch the extent is current at.
    epoch: u64,
    set: SetVal,
    /// `next_id` when the fill began: it minted `base_id..base_id + ids`.
    /// Every association the fill wrapped carries one of these ids, and
    /// the own associations of the class all carry older ones.
    base_id: u64,
    ids: u64,
    /// Fuel units the fill burned.
    fuel: u64,
    shape: FillShape,
}

/// How a fill reached the own extents it read: what replaying a write
/// onto its result needs besides the result.
struct FillShape {
    /// The fill tree in pre-order, the root first: one node per own
    /// extent read (a cut cycle reads none).
    nodes: Vec<FillNode>,
    /// The root's include clauses, in order.
    tops: Vec<TopInclude>,
    /// Writes to classes in the tree can be patched in: every include had
    /// one source, and no predicate minted an id or read an extent.
    plain: bool,
    /// A predicate read a class extent, so any write can change the
    /// result.
    read_extents: bool,
}

impl FillShape {
    fn new() -> Self {
        FillShape {
            nodes: Vec::new(),
            tops: Vec::new(),
            plain: true,
            read_extents: false,
        }
    }
}

/// One own extent a fill read.
struct FillNode {
    class: ClassId,
    /// The node whose include clause read this one, the clause's index,
    /// and the clause's view, which every association the clause wraps in
    /// this fill shares; `None` at the root.
    via: Option<(usize, usize, Rc<ViewFn>)>,
}

/// One include clause of the root.
struct TopInclude {
    /// The ids of the associations it wrapped, in key order.
    wrapped: Range<u64>,
    /// The keys of those the merge discarded (the own association or an
    /// earlier clause held the raw object), ascending.
    discarded: Vec<Key>,
}

/// What an `insert` or `delete` did to its class's own extent.
enum Change {
    /// Nothing: the element was already present, or absent.
    Kept,
    Inserted(Key, Value),
    /// The key, and the element the own extent held for it.
    Deleted(Key, Value),
}

/// A logged `insert` or `delete` (`Machine::extent_log`).
struct LoggedWrite {
    /// The store epoch the write moved to.
    epoch: u64,
    class: ClassId,
    change: Change,
}

/// Writes an entry may fall behind by before it is evicted: on the
/// benchmark ring, replaying one write costs about 2.5 µs and a fill
/// about 40 µs, so replaying more than 16 costs more than a refill.
const MAX_LOG: u64 = 16;

/// The least fuel cap of one replayed write (a cap of the entry's fill
/// fuel alone would stop a small extent from ever being patched).
const REPLAY_FUEL: u64 = 1 << 12;

/// Where a read region began ([`Machine::begin_read`]): the sizes and
/// counters [`Machine::end_read`] rolls the machine back to.
#[derive(Clone, Copy, Debug)]
pub struct ReadMark {
    slots: usize,
    classes: usize,
    next_id: u64,
    class_epoch: u64,
    fuel: Option<u64>,
}

/// The evaluation machine.
pub struct Machine {
    pub store: Store,
    classes: Vec<ClassData>,
    /// Top-level names and their slots in `globals`. Only resolution
    /// consults it; evaluation reads `globals` by slot.
    global_names: GlobalNames,
    /// Top-level values by slot; `None` for a name code mentions but no
    /// declaration has bound. Rebinding a name overwrites its slot.
    globals: Vec<Option<Value>>,
    /// The value stack: the frames of the functions being applied, each
    /// its captured variables, then its locals (DESIGN.md §13).
    stack: Vec<Value>,
    next_id: u64,
    /// Remaining evaluation fuel; `None` means unbounded. Each expression
    /// node costs one unit.
    pub fuel: Option<u64>,
    /// Top-level class extents ([`Machine::extent_of`]), served once
    /// their epoch is current.
    extent_cache: HashMap<ClassId, CachedExtent>,
    /// The store epoch, bumped by every store write: `insert`, `delete`,
    /// and record field `update` (extent predicates can read mutable
    /// fields). A cache entry from an older epoch is stale. A read brings
    /// it current by replaying the logged writes since its epoch, or
    /// refills it.
    class_epoch: u64,
    /// Every write of the epochs after `log_start`, oldest first, when all
    /// are `insert`s and `delete`s: what stale entries replay. Another
    /// store write empties it, and it holds no write older than the oldest
    /// entry.
    extent_log: Vec<LoggedWrite>,
    log_start: u64,
    /// Set while a replay re-runs predicates ([`Machine::probe`]).
    replaying: bool,
    /// Work counters, monotone. The engine adds each evaluation's delta
    /// of them to its metrics registry.
    stats: MachineStats,
    /// Inside a read region: the store length at its start. Slots below it
    /// are state a later statement can observe, so writing one fails with
    /// [`RuntimeError::EffectInRead`].
    read_floor: Option<usize>,
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
            global_names: GlobalNames::default(),
            globals: Vec::new(),
            stack: Vec::new(),
            next_id: 0,
            fuel: None,
            extent_cache: HashMap::new(),
            class_epoch: 0,
            extent_log: Vec::new(),
            log_start: 0,
            replaying: false,
            stats: MachineStats::default(),
            read_floor: None,
            profiler: None,
            profile_clock: Arc::new(WallClock::new()),
        };
        for (name, arity, f) in builtins::natives() {
            let id = m.fresh_id();
            m.define_global(
                name,
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

    /// Open a read region. Until the matching [`Machine::end_read`],
    /// evaluation may allocate freely — and write slots it allocated — but
    /// any write to a slot that existed before the region (`insert`/
    /// `delete` on an older class, `update` of an older field) fails with
    /// [`RuntimeError::EffectInRead`] before mutating anything. Regions do
    /// not nest.
    pub fn begin_read(&mut self) -> ReadMark {
        assert!(self.read_floor.is_none(), "read regions do not nest");
        self.read_floor = Some(self.store.len());
        ReadMark {
            slots: self.store.len(),
            classes: self.classes.len(),
            next_id: self.next_id,
            class_epoch: self.class_epoch,
            fuel: self.fuel,
        }
    }

    /// Close a read region: drop every slot and class it allocated, and
    /// rewind the identity counter, store epoch and fuel. Afterwards the
    /// machine is exactly as it was at [`Machine::begin_read`] (the work
    /// counters and the extent cache excepted), however the region ended —
    /// so values it produced must be rendered first.
    ///
    /// An extent the region cached survives iff its class predates the
    /// region and it was computed at the mark's epoch: it was computed from
    /// pre-mark state only, which the region could not write, so it still
    /// matches the store. The region's other entries are evicted, since a
    /// region class id is reused by the next region and a region epoch by
    /// the next write. Entries from before the region (epochs up to the
    /// mark's) stay; a stale one is replaced when its class is next read,
    /// so no single read pays for dropping them all. The write log drops
    /// the region's writes with its epochs.
    pub fn end_read(&mut self, mark: ReadMark) {
        self.store.truncate(mark.slots);
        self.classes.truncate(mark.classes);
        self.next_id = mark.next_id;
        self.class_epoch = mark.class_epoch;
        self.fuel = mark.fuel;
        self.extent_cache
            .retain(|&cid, e| cid < mark.classes && e.epoch <= mark.class_epoch);
        let kept = self
            .extent_log
            .partition_point(|w| w.epoch <= mark.class_epoch);
        self.extent_log.truncate(kept);
        self.log_start = self.log_start.min(mark.class_epoch);
        self.read_floor = None;
    }

    /// The store write behind `insert`, `delete` and `update`, refused
    /// inside a read region when `slot` predates it. Every such write bumps
    /// the store epoch, so every cached extent goes stale. An `insert` or
    /// `delete` passes what it did to its class, which the write log keeps
    /// for replay onto the stale entries. A field write passes `None`: it
    /// can change what any extent predicate observes (`include … where`
    /// reads object state), so no entry survives it by replay.
    fn write_slot(
        &mut self,
        slot: SlotId,
        v: Value,
        logged: Option<(ClassId, Change)>,
    ) -> Result<(), RuntimeError> {
        if self.read_floor.is_some_and(|floor| slot < floor) {
            return Err(RuntimeError::EffectInRead);
        }
        self.store.set(slot, v);
        self.class_epoch += 1;
        match logged {
            Some((class, change)) => self.log_write(class, change),
            None => self.clear_log(),
        }
        Ok(())
    }

    /// Append the write that moved the store to the current epoch to the
    /// log, first dropping the writes every entry has seen. An entry more
    /// than [`MAX_LOG`] writes behind is evicted.
    fn log_write(&mut self, class: ClassId, change: Change) {
        let Some(oldest) = self.extent_cache.values().map(|e| e.epoch).min() else {
            return self.clear_log();
        };
        let from = oldest.max(self.class_epoch.saturating_sub(MAX_LOG));
        if from > oldest {
            self.extent_cache.retain(|_, e| e.epoch >= from);
        }
        let seen = self.extent_log.partition_point(|w| w.epoch <= from);
        self.extent_log.drain(..seen);
        self.log_start = self.log_start.max(from);
        let epoch = self.class_epoch;
        self.extent_log.push(LoggedWrite {
            epoch,
            class,
            change,
        });
    }

    /// Start the write log over at the current epoch: no entry older than
    /// it can be replayed.
    fn clear_log(&mut self) {
        self.extent_log.clear();
        self.log_start = self.class_epoch;
    }

    /// Reassemble a machine from snapshot-decoded parts (`crate::snapshot`).
    /// The decoder has already validated internal consistency (slot and
    /// class ids in range, `next_id` above every live id). Caches, stats,
    /// and the profiler start cold — all are correctness-neutral
    /// derivatives of the persisted state.
    pub(crate) fn restore(
        store: Store,
        classes: Vec<ClassData>,
        globals: Vec<(Name, Value)>,
        next_id: u64,
        class_epoch: u64,
        fuel: Option<u64>,
    ) -> Machine {
        let mut m = Machine {
            store,
            classes,
            global_names: GlobalNames::default(),
            globals: Vec::with_capacity(globals.len()),
            stack: Vec::new(),
            next_id,
            fuel,
            extent_cache: HashMap::new(),
            class_epoch,
            extent_log: Vec::new(),
            log_start: class_epoch,
            replaying: false,
            stats: MachineStats::default(),
            read_floor: None,
            profiler: None,
            profile_clock: Arc::new(WallClock::new()),
        };
        for (name, v) in globals {
            m.define_global(name, v);
        }
        m
    }

    /// Install a global value binding (used by the engine for top-level
    /// `val` definitions). A name that was bound before keeps its slot, so
    /// the old value lives on only in the closures that captured it.
    pub fn define_global(&mut self, name: impl Into<Name>, v: Value) {
        let g = self.global_names.slot(&name.into()) as usize;
        if self.globals.len() <= g {
            self.globals.resize(g + 1, None);
        }
        self.globals[g] = Some(v);
    }

    pub fn global(&self, name: &Name) -> Option<&Value> {
        let g = self.global_names.get(name)?;
        self.globals.get(g as usize)?.as_ref()
    }

    /// Iterate the bound globals (the engine uses this to resolve class
    /// ids back to their bound names in profile reports).
    pub fn globals_iter(&self) -> impl Iterator<Item = (&Name, &Value)> {
        let names = self.global_names.names();
        self.globals
            .iter()
            .enumerate()
            .filter_map(|(g, v)| Some((&names[g], v.as_ref()?)))
    }

    /// The numbering of top-level names that code for this machine is
    /// resolved against (the lowering pass numbers the globals a
    /// statement reads with it).
    pub fn global_names(&mut self) -> &mut GlobalNames {
        &mut self.global_names
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

    /// Evaluate a closed expression that was not resolved (a test's or a
    /// translation's AST): resolve it against this machine's globals, then
    /// run it. Its field operations look their labels up. Resolution is a
    /// walk over the whole term, so code run many times is resolved once
    /// and run with [`Machine::eval_code`]; the engine's lowering pass does
    /// that.
    pub fn eval(&mut self, e: &Expr) -> Result<Value, RuntimeError> {
        let code = resolve(e, &mut self.global_names);
        self.eval_code(&code)
    }

    /// Run resolved code — the entry point for prepared
    /// (compile-once/run-many) execution. The code is only borrowed, and a
    /// closure made during the run shares its `λ`'s code with the cached
    /// tree. The value stack ends at the height it began at, however the
    /// run ends.
    pub fn eval_code(&mut self, code: &Expr) -> Result<Value, RuntimeError> {
        debug_assert!(is_resolved(code), "eval_code takes resolved code: {code}");
        let fp = self.stack.len();
        let r = self.eval_in(code, fp);
        self.stack.truncate(fp);
        r
    }

    /// Evaluate in the frame whose locals start at stack index `fp`.
    ///
    /// The profiler check is the *only* cost the profiler adds to normal
    /// runs: one `Option::is_none` on a field already in cache (fuel was
    /// just touched). With a profiler installed, dispatch detours through
    /// [`Machine::eval_profiled`] which brackets the node with two clock
    /// reads.
    fn eval_in(&mut self, e: &Expr, fp: usize) -> Result<Value, RuntimeError> {
        self.burn()?;
        if self.profiler.is_none() {
            self.eval_dispatch(e, fp)
        } else {
            self.eval_profiled(e, fp)
        }
    }

    /// The undecorated dispatch. The hot recursion path (variables,
    /// application, let, if) stays in this function with a deliberately
    /// small stack frame; everything else is dispatched to a cold helper
    /// with its own frame.
    ///
    /// Stack discipline: when a node of a frame runs, the stack holds
    /// exactly that frame's live locals above `fp`, and every node leaves
    /// the stack as it found it (an error may leave more; whoever pushed
    /// below truncates).
    fn eval_dispatch(&mut self, e: &Expr, fp: usize) -> Result<Value, RuntimeError> {
        debug_assert!(
            !matches!(e, Expr::Var(_) | Expr::Lam(..))
                && !matches!(e, Expr::Fix(_, b) if matches!(**b, Expr::Lam(..))),
            "unresolved node reached the machine: {e}"
        );
        match e {
            Expr::Lit(l) => Ok(match l {
                Lit::Unit => Value::Unit,
                Lit::Int(n) => Value::Int(*n),
                Lit::Bool(b) => Value::Bool(*b),
                Lit::Str(s) => Value::str(s),
            }),
            Expr::VarAt(_, s) => self.read(*s, fp),
            Expr::App(f, a) => match &**f {
                Expr::App(g, x) if self.profiler.is_none() => self.eval_app2(g, x, a, fp),
                _ => {
                    let vf = self.eval_in(f, fp)?;
                    let va = self.eval_in(a, fp)?;
                    self.apply(vf, va)
                }
            },
            Expr::Let(_, rhs, body) => {
                let v = self.eval_in(rhs, fp)?;
                let height = self.stack.len();
                self.stack.push(v);
                let r = self.eval_in(body, fp);
                self.stack.truncate(height);
                r
            }
            Expr::If(c, t, e2) => {
                if self.eval_in(c, fp)?.as_bool()? {
                    self.eval_in(t, fp)
                } else {
                    self.eval_in(e2, fp)
                }
            }
            other => self.eval_cold(other, fp),
        }
    }

    /// The value in `slot` of the frame at `fp`.
    #[inline(always)]
    fn read(&self, slot: Slot, fp: usize) -> Result<Value, RuntimeError> {
        match slot {
            Slot::Global(g) => self.global_at(g),
            local => Ok(self.frame_value(local, fp)),
        }
    }

    /// The value in a local or captured `slot` of the frame at `fp`:
    /// captured variables sit below `fp`, the last-captured lowest, and
    /// locals from `fp` up. Inlined, so the hot reads return in registers.
    #[inline(always)]
    fn frame_value(&self, slot: Slot, fp: usize) -> Value {
        match slot {
            Slot::Local(i) => self.stack[fp + i as usize].clone(),
            Slot::Captured(i) => self.stack[fp - 1 - i as usize].clone(),
            Slot::Global(g) => unreachable!("code in a λ reads no global (slot {g})"),
        }
    }

    /// A global's value; only code outside every λ reads one.
    #[cold]
    #[inline(never)]
    fn global_at(&self, g: u32) -> Result<Value, RuntimeError> {
        match self.globals.get(g as usize) {
            Some(Some(v)) => Ok(v.clone()),
            _ => Err(RuntimeError::Unbound(self.global_names.name(g).clone())),
        }
    }

    /// Profiled dispatch: open a frame keyed by this node (unless past the
    /// depth cap), evaluate, and close the frame — on errors too, so the
    /// tree stays balanced. Out-of-line so the unprofiled path carries
    /// none of this code.
    #[inline(never)]
    fn eval_profiled(&mut self, e: &Expr, fp: usize) -> Result<Value, RuntimeError> {
        let entered = match &mut self.profiler {
            Some(p) => p.enter(e),
            None => unreachable!("checked by eval_in"),
        };
        let r = self.eval_dispatch(e, fp);
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
    fn eval_cold(&mut self, e: &Expr, fp: usize) -> Result<Value, RuntimeError> {
        match e {
            Expr::Lit(_) | Expr::VarAt(..) | Expr::App(..) | Expr::Let(..) | Expr::If(..) => {
                unreachable!("handled by eval_dispatch")
            }
            Expr::Var(_)
            | Expr::Lam(..)
            | Expr::Record(_)
            | Expr::Dot(..)
            | Expr::Extract(..)
            | Expr::Update(..) => unreachable!("the resolver leaves no {e}"),
            Expr::Eq(a, b) => {
                let va = self.eval_in(a, fp)?;
                let vb = self.eval_in(b, fp)?;
                Ok(Value::Bool(va.value_eq(&vb)))
            }
            Expr::LamAt(code) => {
                let id = self.fresh_id();
                let mut captured = Vec::with_capacity(code.captures.len());
                for s in &code.captures {
                    captured.push(self.read(*s, fp)?);
                }
                Ok(Value::Closure(Rc::new(Closure {
                    id,
                    code: code.clone(),
                    captured: captured.into_boxed_slice(),
                })))
            }
            // ---------- field operations ----------
            Expr::DotAt(e, l, idx) => {
                let v = self.eval_in(e, fp)?;
                let off = self.resolve_idx(idx, fp)?;
                let r = v.as_record()?;
                let (_, slot) = self.field_slot(r, l, off)?;
                Ok(self.store.get(slot).clone())
            }
            Expr::ExtractAt(e, l, idx) => {
                let v = self.eval_in(e, fp)?;
                let off = self.resolve_idx(idx, fp)?;
                let r = v.as_record()?;
                let (i, slot) = self.field_slot(r, l, off)?;
                if !r.layout.is_mutable(i) {
                    return Err(RuntimeError::ImmutableField(l.clone()));
                }
                Ok(Value::LValue(slot))
            }
            Expr::UpdateAt(e, l, idx, rhs) => {
                let v = self.eval_in(e, fp)?;
                let off = self.resolve_idx(idx, fp)?;
                let slot = {
                    let r = v.as_record()?;
                    let (i, slot) = self.field_slot(r, l, off)?;
                    if !r.layout.is_mutable(i) {
                        return Err(RuntimeError::ImmutableField(l.clone()));
                    }
                    slot
                };
                let nv = self.eval_in(rhs, fp)?;
                self.write_slot(slot, nv, None)?;
                Ok(Value::Unit)
            }
            Expr::RecordAt(layout, entries) => {
                // Entries are in source (evaluation) order, each carrying
                // its target slot; the layout is shared with every record
                // built here, not recomputed. A repeated label (which only
                // code no type checker saw can hold) maps two entries to
                // one slot.
                let mut slots: Vec<SlotId> = vec![usize::MAX; layout.len()];
                for (off, fe) in entries {
                    if slots[*off] != usize::MAX {
                        return Err(RuntimeError::DuplicateField(layout.label_at(*off).clone()));
                    }
                    let v = self.eval_in(fe, fp)?;
                    let slot = match v {
                        // The paper's (rec) rule: an extracted L-value
                        // becomes the field's slot — sharing, not copying.
                        Value::LValue(s) => s,
                        other => self.store.alloc(other),
                    };
                    slots[*off] = slot;
                }
                debug_assert!(
                    slots.iter().all(|s| *s != usize::MAX),
                    "a record construction left a slot unfilled"
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
                // The first occurrence of a key wins, as in `from_elems`.
                let mut elems = SetMap::new();
                for e in es {
                    let v = self.eval_in(e, fp)?;
                    elems.entry(v.key()).or_insert(v);
                }
                self.stats.sets_allocated += 1;
                Ok(Value::Set(SetVal(Rc::new(elems))))
            }
            Expr::Union(a, b) => {
                let va = self.eval_in(a, fp)?;
                let vb = self.eval_in(b, fp)?;
                let sa = va.as_set()?;
                let sb = vb.as_set()?;
                self.stats.sets_allocated += 1;
                Ok(Value::Set(sa.union_left(sb)))
            }
            Expr::Hom(s, f, op, z) => {
                let vs = self.eval_in(s, fp)?;
                let vf = self.eval_in(f, fp)?;
                let vop = self.eval_in(op, fp)?;
                let vz = self.eval_in(z, fp)?;
                self.hom(vs.as_set()?.clone(), vf, vop, vz)
            }
            Expr::Collect(s, f) => {
                let vs = self.eval_in(s, fp)?;
                let vf = self.eval_in(f, fp)?;
                self.collect(vs.as_set()?.clone(), vf)
            }
            // A `fix` over a λ was resolved to a `LamAt`.
            Expr::Fix(..) => Err(RuntimeError::FixNonFunction),
            // ---------- views (the meaning of Fig. 3) ----------
            Expr::IdView(e) => {
                let raw = self.eval_in(e, fp)?;
                raw.as_record()?; // raw objects are records
                let id = self.fresh_id();
                Ok(Value::Obj(Rc::new(ObjVal {
                    id,
                    raw,
                    view: ViewFn::Identity,
                })))
            }
            Expr::AsView(o, f) => {
                let vo = self.eval_in(o, fp)?;
                let vf = self.eval_in(f, fp)?;
                let o = vo.as_obj()?;
                let id = self.fresh_id();
                Ok(Value::Obj(Rc::new(ObjVal {
                    id,
                    raw: o.raw.clone(),
                    view: ViewFn::Compose(Rc::new(o.view.clone()), Rc::new(ViewFn::Fn(vf))),
                })))
            }
            Expr::Query(f, o) => match &**f {
                Expr::LamAt(l) if self.profiler.is_none() && frame_only(l) => {
                    // `query(λx.e, o)` runs the λ's body without making
                    // the closure, with the generic path's effects in its
                    // order: the λ node's burn and id, `o`, the view, the
                    // application's burn (DESIGN.md §13).
                    self.burn()?;
                    self.fresh_id();
                    let vo = self.eval_in(o, fp)?;
                    let o = vo.as_obj()?.clone();
                    let materialized = self.apply_view(&o.view, o.raw.clone())?;
                    self.burn()?;
                    self.run_body(l, fp, materialized)
                }
                _ => {
                    let vf = self.eval_in(f, fp)?;
                    let vo = self.eval_in(o, fp)?;
                    let o = vo.as_obj()?.clone();
                    let materialized = self.apply_view(&o.view, o.raw.clone())?;
                    self.apply(vf, materialized)
                }
            },
            Expr::Fuse(a, b) => {
                let va = self.eval_in(a, fp)?;
                let vb = self.eval_in(b, fp)?;
                let oa = va.as_obj()?.clone();
                let ob = vb.as_obj()?.clone();
                Ok(Value::Set(self.fuse_objs(&[oa, ob])))
            }
            Expr::RelObj(fields) => {
                let mut raw_fields = Vec::with_capacity(fields.len());
                let mut views = Vec::with_capacity(fields.len());
                for (l, e) in fields {
                    let v = self.eval_in(e, fp)?;
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
                let cid = self.eval_class_def(cd, fp)?;
                Ok(Value::Class(cid))
            }
            Expr::CQuery(f, c) => {
                let vf = self.eval_in(f, fp)?;
                let vc = self.eval_in(c, fp)?;
                let cid = vc.as_class()?;
                let extent = self.top_level_extent(cid)?;
                self.apply(vf, Value::Set(extent))
            }
            Expr::Insert(c, e) => {
                let vc = self.eval_in(c, fp)?;
                let ve = self.eval_in(e, fp)?;
                ve.as_obj()?;
                let cid = vc.as_class()?;
                let slot = self.classes[cid].own_slot;
                let own = self.store.get(slot).as_set()?.clone();
                let key = ve.key();
                let change = if own.contains_key(&key) {
                    Change::Kept
                } else {
                    Change::Inserted(key, ve.clone())
                };
                // tr: update(C, OwnExt, union(C·OwnExt, {e})) — left-biased,
                // so inserting an object already present (by objeq) keeps
                // the existing element.
                let updated = own.union_left(&SetVal::from_elems([ve]));
                self.write_slot(slot, Value::Set(updated), Some((cid, change)))?;
                Ok(Value::Unit)
            }
            Expr::Delete(c, e) => {
                let vc = self.eval_in(c, fp)?;
                let ve = self.eval_in(e, fp)?;
                ve.as_obj()?;
                let cid = vc.as_class()?;
                let slot = self.classes[cid].own_slot;
                let own = self.store.get(slot).as_set()?.clone();
                let key = ve.key();
                let change = match own.0.get(&key) {
                    Some(old) => Change::Deleted(key, old.clone()),
                    None => Change::Kept,
                };
                let updated = own.difference(&SetVal::from_elems([ve]));
                self.write_slot(slot, Value::Set(updated), Some((cid, change)))?;
                Ok(Value::Unit)
            }
            Expr::LetClasses(binds, body) => {
                if self.replaying {
                    // Filling the group drops every cached extent.
                    return Err(RuntimeError::EffectInRead);
                }
                // Pre-allocate every class id so include sources can refer
                // to siblings cyclically, then fill the definitions. The
                // class values are the frame's next locals.
                let height = self.stack.len();
                let first_id = self.classes.len();
                for i in 0..binds.len() {
                    let own_slot = self.store.alloc(Value::Set(SetVal::empty()));
                    self.classes.push(ClassData {
                        own_slot,
                        includes: Rc::from([]),
                    });
                    self.stack.push(Value::Class(first_id + i));
                }
                let r = self.fill_classes(binds, first_id, fp, body);
                self.stack.truncate(height);
                r
            }
        }
    }

    /// Fill a `let class … and …` group's pre-allocated classes in order,
    /// then evaluate the body.
    fn fill_classes(
        &mut self,
        binds: &[(Name, ClassDef)],
        first_id: ClassId,
        fp: usize,
        body: &Expr,
    ) -> Result<Value, RuntimeError> {
        for (i, (_, cd)) in binds.iter().enumerate() {
            let cid = first_id + i;
            let own = self.eval_in(&cd.own, fp)?;
            own.as_set()?;
            let slot = self.classes[cid].own_slot;
            self.store.set(slot, own);
            // Filling a class in place bumps no epoch, so an extent read
            // earlier in the group is now stale.
            self.drop_extents();
            let includes = self.eval_includes(cd, fp)?;
            self.classes[cid].includes = includes.into();
            self.drop_extents();
        }
        self.eval_in(body, fp)
    }

    /// Empty the extent cache and the write log.
    fn drop_extents(&mut self) {
        self.extent_cache.clear();
        self.clear_log();
    }

    /// Evaluate a non-recursive class definition to a fresh class id.
    fn eval_class_def(&mut self, cd: &ClassDef, fp: usize) -> Result<ClassId, RuntimeError> {
        let own = self.eval_in(&cd.own, fp)?;
        own.as_set()?;
        let own_slot = self.store.alloc(own);
        let includes = self.eval_includes(cd, fp)?;
        let cid = self.classes.len();
        self.classes.push(ClassData {
            own_slot,
            includes: includes.into(),
        });
        Ok(cid)
    }

    fn eval_includes(
        &mut self,
        cd: &ClassDef,
        fp: usize,
    ) -> Result<Vec<IncludeSpec>, RuntimeError> {
        let mut includes = Vec::with_capacity(cd.includes.len());
        for inc in &cd.includes {
            let mut sources = Vec::with_capacity(inc.sources.len());
            for s in &inc.sources {
                let v = self.eval_in(s, fp)?;
                sources.push(v.as_class()?);
            }
            let view = self.eval_in(&inc.view, fp)?;
            let pred = self.eval_in(&inc.pred, fp)?;
            includes.push(IncludeSpec {
                sources,
                view,
                pred,
            });
        }
        Ok(includes)
    }

    /// Build a record value from `(label, mutable, slot)` triples (any
    /// order; slots already allocated). Used by machine-internal
    /// constructions (relobj raws, view materialization), which have no
    /// source field operation, so this helper does not touch the
    /// offset/fallback counters.
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
    /// Without a resolved offset ([`Idx::Dynamic`], or an index parameter
    /// that carried the unresolved sentinel) the label is looked up in
    /// the layout, and the fallback counter records it: the one place a
    /// dynamic lookup is counted.
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

    /// Resolve an index operand to an offset. An index *parameter* is an
    /// ordinary λ-bound variable holding an int; a negative value is the
    /// lowering's "could not resolve" sentinel and yields `None`, as
    /// [`Idx::Dynamic`] does (dynamic fallback).
    fn resolve_idx(&mut self, idx: &Idx, fp: usize) -> Result<Option<usize>, RuntimeError> {
        match idx {
            Idx::Const(n) => Ok(Some(*n)),
            Idx::At(_, s) => {
                let n = self.read(*s, fp)?.as_int()?;
                Ok(usize::try_from(n).ok())
            }
            Idx::Dynamic => Ok(None),
        }
    }

    /// Apply a function value.
    pub fn apply(&mut self, f: Value, arg: Value) -> Result<Value, RuntimeError> {
        self.burn()?;
        match f {
            Value::Closure(c) => {
                let height = self.stack.len();
                let fp = self.push_frame(&c);
                self.stack.push(arg);
                let r = self.eval_in(&c.code.body, fp);
                self.stack.truncate(height);
                r
            }
            Value::Builtin(b) => {
                if b.args.len() + 1 == b.arity {
                    return match &b.args[..] {
                        [] => (b.f)(&[arg]),
                        [x] => (b.f)(&[x.clone(), arg]),
                        more => {
                            let mut args = more.to_vec();
                            args.push(arg);
                            (b.f)(&args)
                        }
                    };
                }
                let mut args = Vec::with_capacity(b.args.len() + 1);
                args.extend(b.args.iter().cloned());
                args.push(arg);
                Ok(Value::Builtin(Rc::new(Builtin {
                    id: self.fresh_id(),
                    name: b.name,
                    arity: b.arity,
                    args,
                    f: b.f,
                })))
            }
            other => Err(RuntimeError::NotAFunction(other.shape())),
        }
    }

    /// Push the frame `c`'s body runs in, less its argument: the captured
    /// variables (the last-captured lowest), then for a `fix` closure the
    /// closure itself. Returns the frame pointer.
    fn push_frame(&mut self, c: &Rc<Closure>) -> usize {
        self.stack.extend(c.captured.iter().rev().cloned());
        let fp = self.stack.len();
        if c.code.fix.is_some() {
            self.stack.push(Value::Closure(c.clone()));
        }
        fp
    }

    /// `g x a` — an application whose function is itself an application —
    /// with the inner App node's charge taken here (DESIGN.md §13).
    #[inline(never)]
    fn eval_app2(
        &mut self,
        g: &Expr,
        x: &Expr,
        a: &Expr,
        fp: usize,
    ) -> Result<Value, RuntimeError> {
        self.burn()?;
        let vg = self.eval_in(g, fp)?;
        let vx = self.eval_in(x, fp)?;
        self.apply2(vg, vx, |m| m.eval_in(a, fp))
    }

    /// `apply(apply(f, x), a())` without building the value in between
    /// when `f` is a closure whose body is a `λ` or a binary builtin with
    /// no arguments yet (DESIGN.md §13). Every observable effect is the
    /// generic path's, in its order: each `burn`, the identity the
    /// intermediate closure or partial application would have been minted
    /// with (before `a` runs), and the frame the body sees: the inner λ's
    /// captures are read straight from `f`'s frame. `a` runs before either
    /// frame is pushed, so it sees its own frame on top. While a profiler
    /// runs, the generic path is taken, so attribution sees the
    /// intermediate value's frames.
    fn apply2(
        &mut self,
        f: Value,
        x: Value,
        a: impl FnOnce(&mut Self) -> Result<Value, RuntimeError>,
    ) -> Result<Value, RuntimeError> {
        if self.profiler.is_none() {
            match &f {
                Value::Closure(c) => {
                    if let Expr::LamAt(inner) = &c.code.body {
                        if inner.fix.is_none() {
                            self.burn()?; // apply f to x
                            self.burn()?; // the λ node
                            self.fresh_id(); // the inner closure's id
                            let va = a(self)?;
                            self.burn()?; // apply the inner closure to a
                            return self.call2(c, x, inner, va);
                        }
                    }
                }
                Value::Builtin(b) if b.arity == 2 && b.args.is_empty() => {
                    self.burn()?; // apply f to x
                    self.fresh_id(); // the partial application's id
                    let va = a(self)?;
                    self.burn()?; // apply the partial application to a
                    return (b.f)(&[x, va]);
                }
                _ => {}
            }
        }
        let vf = self.apply(f, x)?;
        let va = a(self)?;
        self.apply(vf, va)
    }

    /// Run `inner`, the λ that `c`'s body is, applied to `va`, in the frame
    /// the closure `c x` would have given it.
    fn call2(
        &mut self,
        c: &Rc<Closure>,
        x: Value,
        inner: &Lambda,
        va: Value,
    ) -> Result<Value, RuntimeError> {
        let height = self.stack.len();
        let outer = self.push_frame(c);
        self.stack.push(x);
        let r = self.run_body(inner, outer, va);
        self.stack.truncate(height);
        r
    }

    /// Run the body of `l`, a λ evaluated in the frame at `from`, applied
    /// to `arg`, without making its closure: its captures are read straight
    /// from that frame into the new one.
    fn run_body(&mut self, l: &Lambda, from: usize, arg: Value) -> Result<Value, RuntimeError> {
        let height = self.stack.len();
        for s in l.captures.iter().rev() {
            let v = self.frame_value(*s, from);
            self.stack.push(v);
        }
        let fp = self.stack.len();
        self.stack.push(arg);
        let r = self.eval_in(&l.body, fp);
        self.stack.truncate(height);
        r
    }

    /// `hom(S, f, op, z) = op(f(e1), op(f(e2), … op(f(en), z)…))`,
    /// folding right over the canonical element order.
    fn hom(&mut self, s: SetVal, f: Value, op: Value, z: Value) -> Result<Value, RuntimeError> {
        let mut acc = z;
        for e in s.values().rev() {
            let fe = self.apply(f.clone(), e.clone())?;
            acc = self.apply2(op.clone(), fe, move |_| Ok(acc))?;
        }
        Ok(acc)
    }

    /// `collect(S, f)`: the lowered `hom(S, f, λa.λb.union(a, b), {})`
    /// in one pass (DESIGN.md §13). `f` is applied in the fold's order —
    /// descending key order, so identities minted by `f` come out as they
    /// would from the fold — and each result's elements are inserted into
    /// one map. An insert overwrites, so on a key collision the element
    /// from the smallest source key wins: the left-biased fold's result.
    fn collect(&mut self, s: SetVal, f: Value) -> Result<Value, RuntimeError> {
        let mut out = SetMap::new();
        for e in s.values().rev() {
            let fe = self.apply(f.clone(), e.clone())?;
            let Value::Set(SetVal(elems)) = fe else {
                return Err(RuntimeError::NotASet(fe.shape()));
            };
            match Rc::try_unwrap(elems) {
                Ok(owned) => out.extend(owned),
                Err(shared) => {
                    out.extend(shared.iter().map(|(k, v)| (k.clone(), v.clone())));
                }
            }
        }
        self.stats.sets_allocated += 1;
        Ok(Value::Set(SetVal(Rc::new(out))))
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
    /// Each level of the recursion hands its extent up as a key-ordered
    /// run, and only this top level builds a set (DESIGN.md §3). `shape`
    /// records how the fill reached each own extent.
    fn class_extent(
        &mut self,
        cid: ClassId,
        shape: &mut FillShape,
    ) -> Result<SetVal, RuntimeError> {
        if !self.classes[cid].includes.is_empty() {
            let run = self.extent_run(cid, None, &mut vec![cid], shape)?;
            return Ok(SetVal::from_run(run));
        }
        // A class with no includes is its own extent: share the stored set.
        self.burn()?;
        shape.nodes.push(FillNode {
            class: cid,
            via: None,
        });
        Ok(self.store.get(self.classes[cid].own_slot).as_set()?.clone())
    }

    /// One level of [`Machine::class_extent`]: `cid`'s own extent merged,
    /// left-biased, with each include's objects in clause order. `visited`
    /// is Section 4.4's `L`; it holds `cid`. `via` is how the level above
    /// reached this one.
    fn extent_run(
        &mut self,
        cid: ClassId,
        via: Option<(usize, usize, Rc<ViewFn>)>,
        visited: &mut Vec<ClassId>,
        shape: &mut FillShape,
    ) -> Result<Run, RuntimeError> {
        self.burn()?;
        let node = shape.nodes.len();
        shape.nodes.push(FillNode { class: cid, via });
        let data = self.classes[cid].clone();
        let own = self.store.get(data.own_slot).as_set()?.clone();
        let mut run: Option<Run> = None;
        for (clause, inc) in data.includes.iter().enumerate() {
            let included = self
                .include_run(inc, (node, clause), visited, shape)?
                .into_iter();
            let mut lost = |k: Key| {
                if node == 0 {
                    shape.tops[clause].discarded.push(k);
                }
            };
            run = Some(match run {
                None => merge_left_noting(own.entries(), included, &mut lost),
                Some(run) => merge_left_noting(run.into_iter(), included, &mut lost),
            });
        }
        Ok(run.unwrap_or_else(|| own.entries().collect()))
    }

    /// What one `include` clause, `at` (node, clause index) in the fill
    /// tree, adds to a level: its sources' extents intersected (`fuse`
    /// when there are several), filtered by the predicate, each kept
    /// object wrapped in a fresh association under the include's view.
    fn include_run(
        &mut self,
        inc: &IncludeSpec,
        at: (usize, usize),
        visited: &mut Vec<ClassId>,
        shape: &mut FillShape,
    ) -> Result<Run, RuntimeError> {
        // One view, shared by every association the clause wraps.
        let outer = Rc::new(ViewFn::Fn(inc.view.clone()));
        let via = || Some((at.0, at.1, outer.clone()));
        let candidates = match inc.sources[..] {
            [src] => self.source_run(src, via(), visited, shape)?,
            _ => {
                shape.plain = false;
                let mut sets = Vec::with_capacity(inc.sources.len());
                for &src in &inc.sources {
                    sets.push(SetVal::from_run(self.source_run(
                        src,
                        via(),
                        visited,
                        shape,
                    )?));
                }
                self.intersect_obj_sets(&sets)?.entries().collect()
            }
        };
        let first = self.next_id;
        let mut included = Vec::with_capacity(candidates.len());
        for (key, obj) in candidates {
            let before = self.next_id;
            let keep = self.apply(inc.pred.clone(), obj.clone())?.as_bool()?;
            shape.plain &= self.next_id == before;
            if keep {
                let o = obj.as_obj()?;
                let id = self.fresh_id();
                let view = ViewFn::Compose(Rc::new(o.view.clone()), outer.clone());
                let raw = o.raw.clone();
                included.push((key, Value::Obj(Rc::new(ObjVal { id, raw, view }))));
            }
        }
        if at.0 == 0 {
            shape.tops.push(TopInclude {
                wrapped: first..self.next_id,
                discarded: Vec::new(),
            });
        }
        Ok(included)
    }

    /// An include source's extent under `visited`: empty when the source
    /// is already being computed, which cuts every cycle.
    fn source_run(
        &mut self,
        src: ClassId,
        via: Option<(usize, usize, Rc<ViewFn>)>,
        visited: &mut Vec<ClassId>,
        shape: &mut FillShape,
    ) -> Result<Run, RuntimeError> {
        if visited.contains(&src) {
            return Ok(Run::new());
        }
        visited.push(src);
        let run = self.extent_run(src, via, visited, shape);
        visited.pop();
        run
    }

    /// Convenience: the full extent of a class value (entry point used by
    /// `c-query` and the engine).
    pub fn extent_of(&mut self, class_value: &Value) -> Result<SetVal, RuntimeError> {
        let cid = class_value.as_class()?;
        self.top_level_extent(cid)
    }

    /// The full extent of a class, served from the cache when its entry is
    /// current or can be brought current by replaying the writes since
    /// its fill, and recomputed (and cached) otherwise.
    ///
    /// A hit is indistinguishable from a recompute. It needs the fuel the
    /// fill burned and charges it, so fuel runs out exactly where a
    /// recompute would run it out. It advances the identity counter past
    /// the ids the fill minted and re-mints the served objects from the
    /// current counter, so every `cquery` still yields fresh associations
    /// (`eq` tells two scans apart, as in the Fig. 5 translation). A fill
    /// that wrote or allocated store state is not cached, since a hit
    /// could not replay that.
    fn top_level_extent(&mut self, cid: ClassId) -> Result<SetVal, RuntimeError> {
        if self.replaying {
            // A replayed predicate that reads an extent is not replayed.
            return Err(RuntimeError::EffectInRead);
        }
        let patched = self.replay_writes(cid);
        if let Some(set) = self.extent_hit(cid) {
            self.stats.extent_hits += 1;
            self.stats.extent_patches += u64::from(patched);
            if let Some(p) = &mut self.profiler {
                p.note_extent(cid, true, set.len() as u64, self.class_epoch);
            }
            return Ok(set);
        }
        // Drop a stale entry before recomputing, so two copies of one
        // extent are never live at once.
        self.extent_cache.remove(&cid);
        self.stats.extent_fills += 1;
        let (epoch, slots, base_id, fuel, reads) = (
            self.class_epoch,
            self.store.len(),
            self.next_id,
            self.stats.fuel_consumed,
            self.extent_reads(),
        );
        let mut shape = FillShape::new();
        let set = self.class_extent(cid, &mut shape)?;
        if let Some(p) = &mut self.profiler {
            // The previous entry, if any, was invalidated by this epoch.
            p.note_extent(cid, false, set.len() as u64, epoch);
        }
        if self.class_epoch == epoch && self.store.len() == slots {
            shape.read_extents = self.extent_reads() != reads;
            shape.plain &= !shape.read_extents;
            let entry = CachedExtent {
                epoch,
                set: set.clone(),
                base_id,
                ids: self.next_id - base_id,
                fuel: self.stats.fuel_consumed - fuel,
                shape,
            };
            self.extent_cache.insert(cid, entry);
        }
        Ok(set)
    }

    /// Extents read so far, filled or served.
    fn extent_reads(&self) -> u64 {
        self.stats.extent_fills + self.stats.extent_hits
    }

    /// Bring `cid`'s stale cache entry current by replaying the logged
    /// writes since its epoch onto it (DESIGN.md §3). Returns whether it
    /// did; an entry some write cannot be replayed onto is dropped.
    fn replay_writes(&mut self, cid: ClassId) -> bool {
        let stale = self
            .extent_cache
            .get(&cid)
            .is_some_and(|e| e.epoch != self.class_epoch);
        if !stale {
            return false;
        }
        let mut e = self.extent_cache.remove(&cid).expect("a stale entry");
        if e.epoch < self.log_start {
            return false;
        }
        let from = self.extent_log.partition_point(|w| w.epoch <= e.epoch);
        debug_assert_eq!(
            (self.extent_log.len() - from) as u64,
            self.class_epoch - e.epoch,
            "the log holds one write per epoch"
        );
        for at in from..self.extent_log.len() {
            if !self.replay_write(&mut e, cid, at) {
                return false;
            }
        }
        e.epoch = self.class_epoch;
        self.extent_cache.insert(cid, e);
        true
    }

    /// Replay the logged write at `at` onto `e`, `cid`'s entry: whether
    /// `e` now holds what a fill just after that write would.
    fn replay_write(&mut self, e: &mut CachedExtent, cid: ClassId, at: usize) -> bool {
        let w = &self.extent_log[at];
        let class = w.class;
        if class == cid && self.classes[cid].includes.is_empty() {
            // The extent is the stored set itself, which the write replaced.
            return false;
        }
        let (key, elem, inserted) = match &w.change {
            Change::Kept => return true,
            Change::Inserted(k, v) => (k.clone(), v.clone(), true),
            Change::Deleted(k, v) => (k.clone(), v.clone(), false),
        };
        if e.shape.read_extents {
            return false;
        }
        let mut reads = e
            .shape
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.class == class);
        let Some((node, _)) = reads.next() else {
            // The fill never read the class's own extent.
            return true;
        };
        // The element must reach the root by one path, and nothing else
        // the fill read may hold its raw object.
        if !e.shape.plain || reads.next().is_some() {
            return false;
        }
        let nodes = &e.shape.nodes;
        let elsewhere = nodes
            .iter()
            .any(|n| n.class != class && self.own_held(n.class, &key, at));
        !elsewhere && self.patch(e, node, key, elem, inserted)
    }

    /// Whether `class`'s own extent held `key` just after the logged write
    /// at `at`: whether it holds it now, unless a later logged write to the
    /// class changed that.
    fn own_held(&self, class: ClassId, key: &Key, at: usize) -> bool {
        for w in &self.extent_log[at + 1..] {
            match &w.change {
                Change::Inserted(k, _) if w.class == class && k == key => return false,
                Change::Deleted(k, _) if w.class == class && k == key => return true,
                _ => {}
            }
        }
        let own = self.store.get(self.classes[class].own_slot);
        own.as_set().is_ok_and(|s| s.contains_key(key))
    }

    /// Patch `elem`, inserted into or deleted from the own extent that
    /// fill-tree node `node` read, into `e`. Only the associations on the
    /// path from that node to the root change: each include on it
    /// re-runs its predicate on the element's wrapping from below, and a
    /// kept one mints one id.
    ///
    /// Ids are structural. A fill mints an include's ids after its
    /// source's, and a level's in key order. So the ids the element's
    /// wrappings take or free below the root come before every id of the
    /// root clause on the path and of each later clause, and its root
    /// association sits among that clause's in key order. Only root
    /// associations carry ids a program can see, so shifting those and
    /// the clause ranges is the whole patch.
    fn patch(
        &mut self,
        e: &mut CachedExtent,
        node: usize,
        key: Key,
        elem: Value,
        inserted: bool,
    ) -> bool {
        let mut path = Vec::new();
        let mut n = node;
        while let Some((up, clause, view)) = &e.shape.nodes[n].via {
            path.push((e.shape.nodes[*up].class, *clause, view.clone()));
            n = *up;
        }
        let Some(&(_, top, _)) = path.last() else {
            return patch_own(e, key, &elem, inserted);
        };
        let cap = e.fuel.max(REPLAY_FUEL);
        let Some(((kept, wrapped), fuel)) = self.probe(cap, |m| m.rewrap(elem, &path)) else {
            return false;
        };
        // The ids the write mints or frees: one per include that kept the
        // element, all but the root's below the root.
        let ids = kept as u64;
        let reached = kept == path.len();
        let below = ids - u64::from(reached);
        let shift = |id: u64, by: u64| match inserted {
            true => id.checked_add(by),
            false => id.checked_sub(by),
        };
        let Range { start, end } = e.shape.tops[top].wrapped;
        let set = Rc::make_mut(&mut e.set.0);
        if inserted || !reached {
            if set.contains_key(&key) {
                return false;
            }
        } else if !matches!(set.remove(&key), Some(Value::Obj(o)) if (start..end).contains(&o.id)) {
            return false;
        }
        // The root association's rank in its clause: the clause's kept
        // candidates with smaller keys, shown or discarded.
        let discarded = &e.shape.tops[top].discarded;
        let mut rank = discarded.iter().filter(|k| **k < key).count() as u64;
        for (k, v) in set.iter_mut() {
            let Value::Obj(o) = v else { continue };
            let by = match o.id {
                id if id >= end => ids,
                id if id >= start && *k < key => {
                    rank += 1;
                    below
                }
                id if id >= start => ids,
                _ => continue,
            };
            match shift(o.id, by) {
                Some(id) if id != o.id => renumber(o, id),
                Some(_) => {}
                None => return false,
            }
        }
        if inserted && reached {
            let Ok(w) = wrapped.as_obj() else {
                return false;
            };
            let (id, raw, view) = (start + below + rank, w.raw.clone(), w.view.clone());
            set.insert(key, Value::Obj(Rc::new(ObjVal { id, raw, view })));
        }
        for (clause, t) in e.shape.tops.iter_mut().enumerate().skip(top) {
            let first = if clause == top { below } else { ids };
            match (shift(t.wrapped.start, first), shift(t.wrapped.end, ids)) {
                (Some(s), Some(x)) => t.wrapped = s..x,
                _ => return false,
            }
        }
        match (shift(e.ids, ids), shift(e.fuel, fuel)) {
            (Some(i), Some(f)) => (e.ids, e.fuel) = (i, f),
            _ => return false,
        }
        true
    }

    /// Re-run the predicates of `path`'s includes, bottom up, on `elem`
    /// and on each association that wraps it: how many kept it, and its
    /// outermost wrapping. A wrapping has no id yet, and needs none: no
    /// builtin shows an id, and every other object a predicate can reach
    /// is older, so `eq` answers as on the id a fill would mint.
    fn rewrap(
        &mut self,
        elem: Value,
        path: &[(ClassId, usize, Rc<ViewFn>)],
    ) -> Result<(usize, Value), RuntimeError> {
        let mut obj = elem;
        for (passed, (class, clause, view)) in path.iter().enumerate() {
            let pred = self.classes[*class].includes[*clause].pred.clone();
            if !self.apply(pred, obj.clone())?.as_bool()? {
                return Ok((passed, obj));
            }
            let o = obj.as_obj()?;
            let view = ViewFn::Compose(Rc::new(o.view.clone()), view.clone());
            let raw = o.raw.clone();
            obj = Value::Obj(Rc::new(ObjVal {
                id: u64::MAX,
                raw,
                view,
            }));
        }
        Ok((path.len(), obj))
    }

    /// Run `f` so that it leaves no trace: with at most `cap` fuel, every
    /// store write refused, and an extent read or class group refused
    /// too. Returns its value and the fuel it burned, unless it failed or
    /// minted an id or allocated a slot. The work counters are put back.
    fn probe<T>(
        &mut self,
        cap: u64,
        f: impl FnOnce(&mut Self) -> Result<T, RuntimeError>,
    ) -> Option<(T, u64)> {
        let (stats, next_id, slots, classes, height) = (
            self.stats,
            self.next_id,
            self.store.len(),
            self.classes.len(),
            self.stack.len(),
        );
        let fuel = self.fuel.replace(cap);
        let floor = self.read_floor.replace(slots);
        let profiler = self.profiler.take();
        self.replaying = true;
        let r = f(self);
        self.replaying = false;
        let burned = self.stats.fuel_consumed - stats.fuel_consumed;
        let clean = self.next_id == next_id && self.store.len() == slots;
        self.stats = stats;
        self.next_id = next_id;
        self.store.truncate(slots);
        self.classes.truncate(classes);
        self.stack.truncate(height);
        self.fuel = fuel;
        self.read_floor = floor;
        self.profiler = profiler;
        match r {
            Ok(v) if clean => Some((v, burned)),
            _ => None,
        }
    }

    /// Serve `cid`'s cached extent with a recompute's effects, or `None`
    /// when the entry is missing, stale, or costs more fuel than is left.
    fn extent_hit(&mut self, cid: ClassId) -> Option<SetVal> {
        let e = self.extent_cache.get(&cid)?;
        if e.epoch != self.class_epoch || self.fuel.is_some_and(|f| f < e.fuel) {
            return None;
        }
        self.stats.fuel_consumed += e.fuel;
        if let Some(f) = &mut self.fuel {
            *f -= e.fuel;
        }
        let next = self.next_id;
        self.next_id += e.ids;
        if next == e.base_id {
            return Some(e.set.clone());
        }
        // Only the top-level objects carry fill-minted ids (each include
        // wraps its candidate in a fresh association); keys are raw-record
        // ids, so none changes. The shift is relative: a region may have
        // rewound the counter below `base_id`.
        let remint = |v: &Value| match v {
            Value::Obj(o) if o.id >= e.base_id => Value::Obj(Rc::new(ObjVal {
                id: next + (o.id - e.base_id),
                raw: o.raw.clone(),
                view: o.view.clone(),
            })),
            other => other.clone(),
        };
        let set = e.set.0.iter().map(|(k, v)| (k.clone(), remint(v)));
        Some(SetVal(Rc::new(set.collect())))
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

/// Patch `elem`, inserted into or deleted from the root's own extent,
/// into `e`: the extent holds the element itself, with no wrapping, id or
/// fuel. An inserted one must be older than the fill, as the entry's own
/// associations are.
fn patch_own(e: &mut CachedExtent, key: Key, elem: &Value, inserted: bool) -> bool {
    let Ok(o) = elem.as_obj() else {
        return false;
    };
    let set = Rc::make_mut(&mut e.set.0);
    if inserted {
        o.id < e.base_id && set.insert(key, elem.clone()).is_none()
    } else {
        matches!(set.remove(&key), Some(Value::Obj(old)) if old.id == o.id)
    }
}

/// Give `o` the id `id`: in place when nothing else holds it.
fn renumber(o: &mut Rc<ObjVal>, id: u64) {
    match Rc::get_mut(o) {
        Some(o) => o.id = id,
        None => {
            let (raw, view) = (o.raw.clone(), o.view.clone());
            *o = Rc::new(ObjVal { id, raw, view });
        }
    }
}

/// Does `l` capture only frame slots — no global, whose read can fail —
/// and bind no `fix` self, so its body can run without its closure?
fn frame_only(l: &Lambda) -> bool {
    l.fix.is_none() && !l.captures.iter().any(|s| matches!(s, Slot::Global(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::encode_machine;
    use polyview_parser::parse_expr;

    /// A machine with a one-member class `Staff` and a record `boxed` with
    /// a mutable field — state that predates every read below.
    fn seeded() -> Machine {
        let mut m = Machine::new();
        for (name, src) in [
            ("boxed", "[F := 1, G = 2]"),
            ("Staff", "class {IDView([Name = \"Ada\"])} end"),
        ] {
            let v = m.eval(&parse_expr(src).expect("parses")).expect("seeds");
            m.define_global(name, v);
        }
        m
    }

    /// Run `src` as a read region, rendering its value inside the region.
    fn read(m: &mut Machine, src: &str) -> Result<String, RuntimeError> {
        let e = parse_expr(src).expect("parses");
        let mark = m.begin_read();
        let r = m.eval(&e).map(|v| m.show(&v));
        m.end_read(mark);
        r
    }

    #[test]
    fn every_read_shape_leaves_the_machine_byte_identical() {
        let cases = [
            // records and views
            (
                "query(fn x => [N = x.Name, M = [K := 1]], \
                 IDView([Name = \"q\"]) as fn x => [Name = x.Name])",
                Ok("[M = [K := 1], N = \"q\"]"),
            ),
            // an anonymous class, and a recursive let-class group
            (
                "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), \
                 class {IDView([Name = \"b\"])} end)",
                Ok("{\"b\"}"),
            ),
            (
                "let class A = class {IDView([a = 1])} include B as fn x => x where fn x => true end \
                 and B = class {IDView([a = 2])} include A as fn x => x where fn x => true end \
                 in cquery(fn s => map(fn o => query(fn x => x.a, o), s), A) end",
                Ok("{1, 2}"),
            ),
            // writes to state the read itself created are legal
            (
                "let r = [F := 1] in let u = update(r, F, 5) in r.F end end",
                Ok("5"),
            ),
            (
                "let c = class {} end in let u = insert(c, IDView([N = 7])) in \
                 cquery(fn s => map(fn o => query(fn x => x.N, o), s), c) end end",
                Ok("{7}"),
            ),
            // a runtime error after allocating
            (
                "let r = [A = 1] in 1 / 0 end",
                Err(RuntimeError::DivisionByZero),
            ),
        ];
        for (src, want) in cases {
            let mut m = seeded();
            let before = encode_machine(&m);
            let got = read(&mut m, src);
            assert_eq!(got, want.map(str::to_string), "{src}");
            assert_eq!(encode_machine(&m), before, "{src} left state behind");
        }
    }

    #[test]
    fn fuel_exhaustion_rolls_back_to_the_mark() {
        let mut m = seeded();
        m.fuel = Some(300);
        let before = encode_machine(&m);
        let got = read(&mut m, "let fun loop x = loop [A = x] in loop 0 end");
        assert_eq!(got, Err(RuntimeError::FuelExhausted));
        assert_eq!(encode_machine(&m), before);
        assert_eq!(m.fuel, Some(300), "the read's fuel is refunded");
    }

    #[test]
    fn effects_on_older_state_are_refused_before_mutating() {
        for src in [
            "update(boxed, F, 99)",
            "insert(Staff, IDView([Name = \"Eve\"]))",
            "cquery(fn s => hom(s, fn o => delete(Staff, o), fn a => fn b => b, ()), Staff)",
            // a fresh record sharing an older slot through `extract`
            "let r = [F := extract(boxed, F)] in update(r, F, 99) end",
        ] {
            let mut m = seeded();
            let before = encode_machine(&m);
            assert_eq!(read(&mut m, src), Err(RuntimeError::EffectInRead), "{src}");
            assert_eq!(encode_machine(&m), before, "{src} mutated older state");
        }
        let mut m = seeded();
        assert_eq!(read(&mut m, "boxed.F").as_deref(), Ok("1"));
        assert_eq!(
            read(
                &mut m,
                "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Staff)"
            )
            .as_deref(),
            Ok("{\"Ada\"}")
        );
    }

    /// The type checker keeps a recursive group's names out of its own
    /// extents (§4.4), but a bare machine runs what it is given: an extent
    /// read while the group is being filled must not be served once the
    /// group is complete.
    #[test]
    fn an_extent_read_while_its_group_is_filled_is_not_served_later() {
        // `B` reads itself before its own extent is set (a placeholder),
        // then before its includes are set (`n` must be 1), and the body
        // reads the finished class.
        let src = "let class A = class {IDView([N = 5])} end \
                   and B = class (let k = cquery(fn s => s, B) in {IDView([N = 1])} end) \
                   include A as (let n = cquery(fn s => hom(s, fn x => 1, \
                   fn a => fn b => a + b, 0), B) in fn x => [N = n + 10] end) \
                   where fn x => true end \
                   in cquery(fn s => map(fn o => query(fn x => x.N, o), s), B) end";
        let mut m = Machine::new();
        let v = m.eval(&parse_expr(src).expect("parses")).expect("runs");
        assert_eq!(m.show(&v), "{1, 11}");
    }

    #[test]
    fn read_filled_extents_survive_only_for_older_classes_at_the_mark_epoch() {
        let mut m = seeded();
        let before = encode_machine(&m);
        // A class the read creates: evicted, since the next region reuses
        // its class id and slots.
        let fresh = "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), \
                     class {IDView([Name = \"r\"])} include Staff as fn x => x \
                     where fn x => true end)";
        let first = read(&mut m, fresh).expect("first read");
        assert_eq!(first, "{\"Ada\", \"r\"}");
        assert_eq!(m.extent_cache_len(), 0, "region classes are evicted");
        assert_eq!(encode_machine(&m), before);
        assert_eq!(read(&mut m, fresh).expect("second read"), first);
        assert_eq!(encode_machine(&m), before);

        // A class older than the region, filled at the mark's epoch: kept,
        // and the next read is served from it.
        let staff = "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Staff)";
        assert_eq!(read(&mut m, staff).as_deref(), Ok("{\"Ada\"}"));
        assert_eq!(m.extent_cache_len(), 1, "an older class's extent survives");
        assert_eq!(encode_machine(&m), before);
        let fuel = m.stats().fuel_consumed;
        assert_eq!(read(&mut m, staff).as_deref(), Ok("{\"Ada\"}"));
        let warm = m.stats().fuel_consumed - fuel;
        let mut cold = crate::snapshot::decode_machine(&before).expect("decodes");
        assert_eq!(read(&mut cold, staff).as_deref(), Ok("{\"Ada\"}"));
        assert_eq!(
            cold.stats().fuel_consumed,
            warm,
            "a hit burns the fill's fuel"
        );
        assert_eq!(read(&mut m, fresh).expect("third read"), first);
        assert_eq!(m.extent_cache_len(), 1);

        // The same class refilled after the region moved the epoch: its
        // epoch is reused by the next write, so it is evicted.
        let moved = "let c = class {} end in let u = insert(c, IDView([Name = \"z\"])) in \
                     cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Staff) end end";
        assert_eq!(read(&mut m, moved).as_deref(), Ok("{\"Ada\"}"));
        assert_eq!(
            m.extent_cache_len(),
            0,
            "an entry at a region epoch is evicted"
        );
        assert_eq!(encode_machine(&m), before);
    }
}
