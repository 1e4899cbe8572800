//! The attribution profiler (DESIGN.md §14): where inside a statement the
//! evaluation time went, keyed by eval node kind × source span.
//!
//! The profiler is opt-in per [`crate::Machine`]
//! ([`Machine::profile_start`](crate::Machine::profile_start)); while it is
//! off the evaluator pays exactly one flag check per node and performs
//! **zero clock reads** — the property the `ManualClock` read-counter
//! tests pin. While on, every `eval_in` dispatch opens a frame: two clock
//! reads bracket the node, a per-frame child-time accumulator splits
//! total time into self time, and three attribution channels hang off the
//! current frame:
//!
//! * **env-lookup depth** — how many environment links a `Var` node
//!   walked (a miss walks the whole chain before falling back to the
//!   globals map);
//! * **dynamic-fallback sites** — which nodes executed a field operation
//!   through the counted dynamic-label path (the residue the lowering
//!   left behind), label by label;
//! * **extent scans / view recomputes** — per class: cache hits, full
//!   recomputes, rows produced, and the store epoch whose bump invalidated
//!   the previously cached extent.
//!
//! The AST carries no positional spans (lexer positions die at the
//! parser), so a node's "span" is a truncated rendering of the node
//! itself ([`span_of`]), cached per node address. Tree identity during
//! one evaluation is (parent frame, node address): re-entering the same
//! node under the same parent — a loop body, a closure called twice —
//! accumulates into one tree node, while recursion grows a genuine call
//! chain, capped at [`MAX_DEPTH`] frames (deeper work is folded into the
//! deepest profiled frame's self time and counted in
//! [`Profile::truncated_frames`]).

use polyview_obs::Clock;
use polyview_syntax::Expr;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Character cap on a rendered node span (whole node renderings can be
/// arbitrarily large; the profile only needs enough to recognize the
/// site).
pub const SPAN_MAX: usize = 48;

/// Frame-stack depth cap. Frames past the cap are not timed — their cost
/// lands in the deepest profiled ancestor's self time — so deep `fix`
/// recursions cannot grow the profile tree without bound.
pub const MAX_DEPTH: usize = 128;

/// One node of the hierarchical profile tree: an eval node kind × source
/// span, with timing, hit, and env-lookup attribution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileNode {
    /// Eval dispatch kind (`"app"`, `"var"`, `"cquery"`, `"dot@"`, …).
    pub kind: &'static str,
    /// Truncated source rendering of the node ([`span_of`]).
    pub span: String,
    /// Times this node was entered under this tree position.
    pub hits: u64,
    /// Wall time spent in this node including children, in ns.
    pub total_ns: u64,
    /// Wall time spent in this node excluding children, in ns. Invariant:
    /// `total_ns == self_ns + Σ children.total_ns` at every node.
    pub self_ns: u64,
    /// Environment links walked by `var` lookups at this node, summed over
    /// hits (a global/builtin hit walks the entire local chain first).
    pub env_hops: u64,
    /// Largest single env-lookup walk observed at this node.
    pub env_hops_max: u64,
    pub children: Vec<ProfileNode>,
}

/// One dynamic-fallback call site: a profile-tree position that executed a
/// field operation through the dynamic-label path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FallbackSite {
    /// Kind of the node the fallback executed under.
    pub kind: &'static str,
    /// Span of that node.
    pub span: String,
    /// The field label looked up dynamically (`"[record]"` for un-lowered
    /// record constructions, which recompute a whole layout).
    pub label: String,
    pub count: u64,
}

/// Per-class extent-scan / view-recompute attribution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViewRecompute {
    /// The class id (the engine resolves it to a bound name for reports).
    pub class: usize,
    /// Full extent recomputations (cache misses, or every scan when the
    /// extent cache is off).
    pub recomputes: u64,
    /// Extent-cache hits served without recomputation.
    pub cache_hits: u64,
    /// Rows (objects) produced across all recomputes.
    pub rows_scanned: u64,
    /// The store epoch current at the last recompute — i.e. the epoch
    /// whose bump invalidated the previously cached extent.
    pub invalidating_epoch: u64,
}

/// A finished evaluation profile: the tree plus the attribution channels.
/// Plain owned data (`Send`), so pool workers can merge and ship it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    pub roots: Vec<ProfileNode>,
    pub fallback_sites: Vec<FallbackSite>,
    pub view_recomputes: Vec<ViewRecompute>,
    /// Frames skipped past [`MAX_DEPTH`]; their time is folded into the
    /// deepest profiled ancestor's self time.
    pub truncated_frames: u64,
}

/// A flattened hot-row: one (kind, span) aggregated across every tree
/// position it appears at.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HotNode {
    pub kind: &'static str,
    pub span: String,
    pub hits: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Profile {
    /// Total evaluation time covered by the profile (sum of root totals).
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|n| n.total_ns).sum()
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> u64 {
        fn walk(n: &ProfileNode) -> u64 {
            1 + n.children.iter().map(walk).sum::<u64>()
        }
        self.roots.iter().map(walk).sum()
    }

    /// Aggregate the tree by (kind, span) and sort hottest-first (self
    /// time, then total, then kind/span — a total order, so the table is
    /// deterministic under a deterministic clock).
    pub fn hot_nodes(&self) -> Vec<HotNode> {
        let mut agg: Vec<HotNode> = Vec::new();
        let mut index: HashMap<(&'static str, &str), usize> = HashMap::new();
        fn walk<'p>(
            n: &'p ProfileNode,
            agg: &mut Vec<HotNode>,
            index: &mut HashMap<(&'static str, &'p str), usize>,
        ) {
            let at = match index.get(&(n.kind, n.span.as_str())) {
                Some(&i) => i,
                None => {
                    agg.push(HotNode {
                        kind: n.kind,
                        span: n.span.clone(),
                        ..HotNode::default()
                    });
                    index.insert((n.kind, n.span.as_str()), agg.len() - 1);
                    agg.len() - 1
                }
            };
            agg[at].hits += n.hits;
            agg[at].total_ns += n.total_ns;
            agg[at].self_ns += n.self_ns;
            for c in &n.children {
                walk(c, agg, index);
            }
        }
        for r in &self.roots {
            walk(r, &mut agg, &mut index);
        }
        agg.sort_by(|a, b| {
            b.self_ns
                .cmp(&a.self_ns)
                .then(b.total_ns.cmp(&a.total_ns))
                .then(a.kind.cmp(b.kind))
                .then(a.span.cmp(&b.span))
        });
        agg
    }

    /// Render the tree as folded stacks — the `inferno` / `flamegraph.pl`
    /// input format: one line per stack, frames `;`-separated, the sample
    /// weight (self time in ns) after the final space. Frames are
    /// `kind:span` with `;` sanitized out of the span.
    pub fn folded(&self) -> String {
        fn frame(n: &ProfileNode) -> String {
            let mut s = String::with_capacity(n.kind.len() + n.span.len() + 1);
            s.push_str(n.kind);
            s.push(':');
            for c in n.span.chars() {
                s.push(if c == ';' { ',' } else { c });
            }
            s
        }
        fn walk(n: &ProfileNode, stack: &mut Vec<String>, out: &mut String) {
            stack.push(frame(n));
            if n.self_ns > 0 {
                out.push_str(&stack.join(";"));
                out.push(' ');
                out.push_str(&n.self_ns.to_string());
                out.push('\n');
            }
            for c in &n.children {
                walk(c, stack, out);
            }
            stack.pop();
        }
        let mut out = String::new();
        let mut stack = Vec::new();
        for r in &self.roots {
            walk(r, &mut stack, &mut out);
        }
        out
    }

    /// Merge another profile into this one: trees are merged structurally
    /// by (kind, span) path, fallback sites by (kind, span, label), and
    /// view recomputes by class (keeping the latest invalidating epoch).
    /// This is what a pool worker's sampled continuous profile is built
    /// from.
    pub fn absorb(&mut self, other: &Profile) {
        fn merge_into(dst: &mut Vec<ProfileNode>, src: &[ProfileNode]) {
            for s in src {
                match dst
                    .iter_mut()
                    .find(|d| d.kind == s.kind && d.span == s.span)
                {
                    Some(d) => {
                        d.hits += s.hits;
                        d.total_ns += s.total_ns;
                        d.self_ns += s.self_ns;
                        d.env_hops += s.env_hops;
                        d.env_hops_max = d.env_hops_max.max(s.env_hops_max);
                        merge_into(&mut d.children, &s.children);
                    }
                    None => dst.push(s.clone()),
                }
            }
        }
        merge_into(&mut self.roots, &other.roots);
        for s in &other.fallback_sites {
            match self
                .fallback_sites
                .iter_mut()
                .find(|d| d.kind == s.kind && d.span == s.span && d.label == s.label)
            {
                Some(d) => d.count += s.count,
                None => self.fallback_sites.push(s.clone()),
            }
        }
        for s in &other.view_recomputes {
            match self.view_recomputes.iter_mut().find(|d| d.class == s.class) {
                Some(d) => {
                    d.recomputes += s.recomputes;
                    d.cache_hits += s.cache_hits;
                    d.rows_scanned += s.rows_scanned;
                    d.invalidating_epoch = d.invalidating_epoch.max(s.invalidating_epoch);
                }
                None => self.view_recomputes.push(s.clone()),
            }
        }
        self.truncated_frames += other.truncated_frames;
    }
}

/// The eval dispatch kind of an expression node.
pub fn kind_of(e: &Expr) -> &'static str {
    match e {
        Expr::Lit(_) => "lit",
        Expr::Var(_) => "var",
        Expr::Eq(..) => "eq",
        Expr::Lam(..) => "lam",
        Expr::App(..) => "app",
        Expr::Record(_) => "record",
        Expr::Dot(..) => "dot",
        Expr::Extract(..) => "extract",
        Expr::Update(..) => "update",
        Expr::SetLit(_) => "set",
        Expr::Union(..) => "union",
        Expr::Hom(..) => "hom",
        Expr::Fix(..) => "fix",
        Expr::Let(..) => "let",
        Expr::If(..) => "if",
        Expr::IdView(_) => "idview",
        Expr::AsView(..) => "asview",
        Expr::Query(..) => "query",
        Expr::Fuse(..) => "fuse",
        Expr::RelObj(_) => "relobj",
        Expr::ClassExpr(_) => "class",
        Expr::CQuery(..) => "cquery",
        Expr::Insert(..) => "insert",
        Expr::Delete(..) => "delete",
        Expr::LetClasses(..) => "letclasses",
        Expr::DotAt(..) => "dot@",
        Expr::ExtractAt(..) => "extract@",
        Expr::UpdateAt(..) => "update@",
        Expr::RecordAt(..) => "record@",
    }
}

/// Render a node's source span: its `Display` form with whitespace runs
/// collapsed, truncated to [`SPAN_MAX`] characters (with `…`).
pub fn span_of(e: &Expr) -> String {
    let full = e.to_string();
    let mut out = String::with_capacity(SPAN_MAX + 4);
    let mut in_space = false;
    let mut chars = 0usize;
    for c in full.chars() {
        if c.is_whitespace() {
            in_space = true;
            continue;
        }
        if in_space && chars > 0 {
            out.push(' ');
            chars += 1;
        }
        in_space = false;
        out.push(c);
        chars += 1;
        if chars >= SPAN_MAX {
            out.push('…');
            break;
        }
    }
    out
}

// ----- the in-flight builder -----

struct BuildNode {
    kind: &'static str,
    span: Rc<str>,
    hits: u64,
    total_ns: u64,
    self_ns: u64,
    env_hops: u64,
    env_hops_max: u64,
    /// Children in first-entered order (deterministic: evaluation order).
    children: Vec<usize>,
    /// Child arena id by child expression address.
    child_index: HashMap<usize, usize>,
}

struct Frame {
    node: usize,
    start_ns: u64,
    /// Total time of already-finished direct children of this frame.
    child_ns: u64,
}

/// The in-flight profile builder attached to a running
/// [`crate::Machine`]. Frames mirror the `eval_in` recursion; `finish`
/// converts the arena into a [`Profile`].
pub(crate) struct Profiler {
    clock: Arc<dyn Clock>,
    nodes: Vec<BuildNode>,
    roots: Vec<usize>,
    root_index: HashMap<usize, usize>,
    stack: Vec<Frame>,
    /// Span rendering cache by node address (a node re-entered at many
    /// tree positions renders once).
    spans: HashMap<usize, Rc<str>>,
    /// Fallback counts keyed by (arena node, label); `usize::MAX` is the
    /// outside-eval sentinel (machine API calls with no frame open).
    fallbacks: Vec<((usize, String), u64)>,
    /// View-recompute rows in first-seen class order.
    views: Vec<ViewRecompute>,
    truncated: u64,
}

impl Profiler {
    pub(crate) fn new(clock: Arc<dyn Clock>) -> Self {
        Profiler {
            clock,
            nodes: Vec::new(),
            roots: Vec::new(),
            root_index: HashMap::new(),
            stack: Vec::new(),
            spans: HashMap::new(),
            fallbacks: Vec::new(),
            views: Vec::new(),
            truncated: 0,
        }
    }

    fn span(&mut self, e: &Expr) -> Rc<str> {
        let addr = e as *const Expr as usize;
        if let Some(s) = self.spans.get(&addr) {
            return Rc::clone(s);
        }
        let s: Rc<str> = Rc::from(span_of(e).as_str());
        self.spans.insert(addr, Rc::clone(&s));
        s
    }

    fn new_node(&mut self, e: &Expr) -> usize {
        let span = self.span(e);
        self.nodes.push(BuildNode {
            kind: kind_of(e),
            span,
            hits: 0,
            total_ns: 0,
            self_ns: 0,
            env_hops: 0,
            env_hops_max: 0,
            children: Vec::new(),
            child_index: HashMap::new(),
        });
        self.nodes.len() - 1
    }

    /// Open a frame for `e`. Returns `false` past the depth cap — the
    /// caller must then skip the matching [`Profiler::exit`], and the
    /// subtree's cost lands in the current frame's self time.
    pub(crate) fn enter(&mut self, e: &Expr) -> bool {
        if self.stack.len() >= MAX_DEPTH {
            self.truncated += 1;
            return false;
        }
        let addr = e as *const Expr as usize;
        let node = match self.stack.last() {
            Some(f) => {
                let parent = f.node;
                match self.nodes[parent].child_index.get(&addr) {
                    Some(&n) => n,
                    None => {
                        let n = self.new_node(e);
                        self.nodes[parent].children.push(n);
                        self.nodes[parent].child_index.insert(addr, n);
                        n
                    }
                }
            }
            None => match self.root_index.get(&addr) {
                Some(&n) => n,
                None => {
                    let n = self.new_node(e);
                    self.roots.push(n);
                    self.root_index.insert(addr, n);
                    n
                }
            },
        };
        self.nodes[node].hits += 1;
        let start_ns = self.clock.now_ns();
        self.stack.push(Frame {
            node,
            start_ns,
            child_ns: 0,
        });
        true
    }

    /// Close the current frame: charge elapsed − child time as self time,
    /// and the full elapsed time to the parent's child accumulator.
    pub(crate) fn exit(&mut self) {
        let end_ns = self.clock.now_ns();
        let f = self.stack.pop().expect("profiler frame underflow");
        let d = end_ns.saturating_sub(f.start_ns);
        let n = &mut self.nodes[f.node];
        n.total_ns += d;
        n.self_ns += d.saturating_sub(f.child_ns);
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += d;
        }
    }

    /// A `var` node walked `hops` environment links.
    pub(crate) fn note_env_lookup(&mut self, hops: u64) {
        if let Some(f) = self.stack.last() {
            let n = &mut self.nodes[f.node];
            n.env_hops += hops;
            n.env_hops_max = n.env_hops_max.max(hops);
        }
    }

    /// A dynamic field fallback executed under the current frame.
    pub(crate) fn note_fallback(&mut self, label: &str) {
        let site = self.stack.last().map_or(usize::MAX, |f| f.node);
        match self
            .fallbacks
            .iter_mut()
            .find(|((n, l), _)| *n == site && l == label)
        {
            Some((_, c)) => *c += 1,
            None => self.fallbacks.push(((site, label.to_string()), 1)),
        }
    }

    /// A top-level extent was served for `class`: from the cache (`hit`)
    /// or recomputed (`rows` produced at store epoch `epoch`).
    pub(crate) fn note_extent(&mut self, class: usize, hit: bool, rows: u64, epoch: u64) {
        let row = match self.views.iter_mut().find(|v| v.class == class) {
            Some(v) => v,
            None => {
                self.views.push(ViewRecompute {
                    class,
                    ..ViewRecompute::default()
                });
                self.views.last_mut().expect("just pushed")
            }
        };
        if hit {
            row.cache_hits += 1;
        } else {
            row.recomputes += 1;
            row.rows_scanned += rows;
            row.invalidating_epoch = epoch;
        }
    }

    /// Convert the arena into an owned [`Profile`]. Any frames still open
    /// (evaluation aborted by an error between enter and exit — the
    /// machine always pairs them, so this is defensive) are closed first.
    pub(crate) fn finish(mut self) -> Profile {
        while !self.stack.is_empty() {
            self.exit();
        }
        fn build(nodes: &[BuildNode], id: usize) -> ProfileNode {
            let n = &nodes[id];
            ProfileNode {
                kind: n.kind,
                span: n.span.to_string(),
                hits: n.hits,
                total_ns: n.total_ns,
                self_ns: n.self_ns,
                env_hops: n.env_hops,
                env_hops_max: n.env_hops_max,
                children: n.children.iter().map(|&c| build(nodes, c)).collect(),
            }
        }
        let roots = self.roots.iter().map(|&r| build(&self.nodes, r)).collect();
        let fallback_sites = self
            .fallbacks
            .iter()
            .map(|((site, label), count)| {
                let (kind, span) = if *site == usize::MAX {
                    ("<machine>", String::new())
                } else {
                    (self.nodes[*site].kind, self.nodes[*site].span.to_string())
                };
                FallbackSite {
                    kind,
                    span,
                    label: label.clone(),
                    count: *count,
                }
            })
            .collect();
        let mut view_recomputes = self.views;
        view_recomputes.sort_by_key(|v| v.class);
        Profile {
            roots,
            fallback_sites,
            view_recomputes,
            truncated_frames: self.truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyview_obs::ManualClock;

    fn leaf(kind: &'static str, span: &str, hits: u64, total: u64, selfn: u64) -> ProfileNode {
        ProfileNode {
            kind,
            span: span.to_string(),
            hits,
            total_ns: total,
            self_ns: selfn,
            ..ProfileNode::default()
        }
    }

    #[test]
    fn frames_split_total_into_self_plus_children() {
        // Shape: outer(inner, inner) under a step-1 clock; every frame
        // costs exactly 1ns of measured time per enter/exit pair... the
        // arithmetic is easiest checked through the invariant.
        let clock = Arc::new(ManualClock::with_step(10));
        let mut p = Profiler::new(clock);
        let outer = Expr::int(1); // any nodes; identity is by address
        let inner = Expr::int(2);
        assert!(p.enter(&outer));
        assert!(p.enter(&inner));
        p.exit();
        assert!(p.enter(&inner));
        p.exit();
        p.exit();
        let prof = p.finish();
        assert_eq!(prof.roots.len(), 1);
        let root = &prof.roots[0];
        assert_eq!(root.hits, 1);
        assert_eq!(root.children.len(), 1, "same child address merges");
        assert_eq!(root.children[0].hits, 2);
        assert_eq!(
            root.total_ns,
            root.self_ns + root.children[0].total_ns,
            "total = self + Σ children"
        );
        assert_eq!(prof.total_ns(), root.total_ns);
        assert_eq!(prof.node_count(), 2);
    }

    #[test]
    fn depth_cap_folds_into_deepest_frame() {
        let clock = Arc::new(ManualClock::with_step(1));
        let mut p = Profiler::new(clock);
        let e = Expr::int(0);
        let mut entered = 0;
        for _ in 0..(MAX_DEPTH + 5) {
            if p.enter(&e) {
                entered += 1;
            }
        }
        assert_eq!(entered, MAX_DEPTH);
        for _ in 0..entered {
            p.exit();
        }
        let prof = p.finish();
        assert_eq!(prof.truncated_frames, 5);
    }

    #[test]
    fn folded_emits_one_line_per_self_bearing_node() {
        let prof = Profile {
            roots: vec![ProfileNode {
                children: vec![leaf("var", "x", 2, 10, 10)],
                ..leaf("app", "f x; y", 1, 30, 20)
            }],
            ..Profile::default()
        };
        assert_eq!(prof.folded(), "app:f x, y 20\napp:f x, y;var:x 10\n");
    }

    #[test]
    fn absorb_merges_by_kind_and_span() {
        let mut a = Profile {
            roots: vec![leaf("app", "f 1", 1, 10, 10)],
            fallback_sites: vec![FallbackSite {
                kind: "dot",
                span: "x.Name".into(),
                label: "Name".into(),
                count: 2,
            }],
            view_recomputes: vec![ViewRecompute {
                class: 0,
                recomputes: 1,
                cache_hits: 0,
                rows_scanned: 8,
                invalidating_epoch: 3,
            }],
            truncated_frames: 1,
        };
        let b = Profile {
            roots: vec![leaf("app", "f 1", 2, 20, 20), leaf("var", "y", 1, 5, 5)],
            fallback_sites: vec![FallbackSite {
                kind: "dot",
                span: "x.Name".into(),
                label: "Name".into(),
                count: 3,
            }],
            view_recomputes: vec![ViewRecompute {
                class: 0,
                recomputes: 2,
                cache_hits: 4,
                rows_scanned: 16,
                invalidating_epoch: 7,
            }],
            truncated_frames: 0,
        };
        a.absorb(&b);
        assert_eq!(a.roots.len(), 2);
        assert_eq!(a.roots[0].hits, 3);
        assert_eq!(a.roots[0].total_ns, 30);
        assert_eq!(a.fallback_sites.len(), 1);
        assert_eq!(a.fallback_sites[0].count, 5);
        assert_eq!(a.view_recomputes[0].recomputes, 3);
        assert_eq!(a.view_recomputes[0].cache_hits, 4);
        assert_eq!(a.view_recomputes[0].rows_scanned, 24);
        assert_eq!(a.view_recomputes[0].invalidating_epoch, 7);
        assert_eq!(a.truncated_frames, 1);
    }

    #[test]
    fn hot_nodes_aggregate_across_tree_positions() {
        let prof = Profile {
            roots: vec![
                ProfileNode {
                    children: vec![leaf("var", "x", 1, 4, 4)],
                    ..leaf("app", "f x", 1, 10, 6)
                },
                ProfileNode {
                    children: vec![leaf("var", "x", 1, 2, 2)],
                    ..leaf("let", "let y = …", 1, 3, 1)
                },
            ],
            ..Profile::default()
        };
        let hot = prof.hot_nodes();
        assert_eq!(hot[0].kind, "app");
        assert_eq!(hot[1].kind, "var");
        assert_eq!(hot[1].hits, 2, "same (kind, span) rows merge");
        assert_eq!(hot[1].total_ns, 6);
        assert_eq!(hot[1].self_ns, 6);
    }

    #[test]
    fn span_of_collapses_whitespace_and_truncates() {
        let e = Expr::str("abcdefghijklmnopqrstuvwxyz abcdefghijklmnopqrstuvwxyz");
        let s = span_of(&e);
        assert!(s.chars().count() <= SPAN_MAX + 1, "got {} {s:?}", s.len());
        assert!(s.ends_with('…'), "got {s:?}");
        assert!(!s.contains("  "));
    }
}
