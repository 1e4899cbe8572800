//! `:profile` — a per-statement evaluation attribution report.
//!
//! [`crate::Engine::profile`] compiles a statement fresh and runs it with
//! the machine's attribution profiler attached (DESIGN.md §14). The
//! [`ProfileReport`] is plain data with three renderings:
//!
//! * `Display` — the REPL view: a hot-node table sorted by self time,
//!   followed by dynamic-fallback sites and view-recompute attribution;
//! * [`ProfileReport::to_json_lines`] — one JSON object per line, the
//!   same export discipline as the metrics registry (validated by
//!   `polyview_obs::jsonl` in the verify gate);
//! * [`ProfileReport::to_folded`] — folded stacks, the
//!   `inferno`/`flamegraph.pl` input format, without depending on either.

use crate::explain::ns;
use polyview_eval::{Profile, ProfileNode};
use polyview_obs::jsonl::ObjectBuilder;
use polyview_syntax::Scheme;

/// How many hot-node rows the `Display` table shows.
const HOT_ROWS: usize = 12;

/// Per-statement profile report produced by [`crate::Engine::profile`].
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// The statement text.
    pub src: String,
    /// Principal scheme inferred for the statement.
    pub scheme: Scheme,
    /// Rendered result value.
    pub rendered: String,
    /// Total profiled evaluation time (sum of root node totals; exact
    /// under an injected manual clock).
    pub eval_ns: u64,
    /// The attribution profile itself.
    pub profile: Profile,
    /// Class-id → bound-name pairs for rendering view-recompute rows
    /// (sorted, deduplicated by id).
    pub class_names: Vec<(usize, String)>,
}

impl ProfileReport {
    /// The bound name of a class, or `class#N` for one no global names.
    pub fn class_name(&self, id: usize) -> String {
        match self.class_names.iter().find(|(i, _)| *i == id) {
            Some((_, n)) => n.clone(),
            None => format!("class#{id}"),
        }
    }

    /// Render as JSON lines: `profile.node` (one per tree node, parents
    /// before children, with the ancestor path), `profile.fallback_site`,
    /// `profile.view_recompute`, and a closing `profile.summary`. Field
    /// order is fixed — goldens pin it — and every line renders through
    /// the same [`ObjectBuilder`] as the metrics registry.
    pub fn to_json_lines(&self) -> String {
        fn line(out: &mut String, obj: ObjectBuilder) {
            out.push_str(&obj.finish());
            out.push('\n');
        }
        fn node_lines(n: &ProfileNode, path: &mut Vec<String>, out: &mut String) {
            line(
                out,
                ObjectBuilder::new()
                    .field_str("kind", "profile.node")
                    .field_str_array("path", path)
                    .field_str("node", n.kind)
                    .field_str("span", &n.span)
                    .field_u64("hits", n.hits)
                    .field_u64("total_ns", n.total_ns)
                    .field_u64("self_ns", n.self_ns)
                    .field_u64("env_hops", n.env_hops),
            );
            path.push(format!("{} {}", n.kind, n.span));
            for c in &n.children {
                node_lines(c, path, out);
            }
            path.pop();
        }
        let mut out = String::new();
        let mut path: Vec<String> = Vec::new();
        for r in &self.profile.roots {
            node_lines(r, &mut path, &mut out);
        }
        for s in &self.profile.fallback_sites {
            line(
                &mut out,
                ObjectBuilder::new()
                    .field_str("kind", "profile.fallback_site")
                    .field_str("site", s.kind)
                    .field_str("span", &s.span)
                    .field_str("label", &s.label)
                    .field_u64("count", s.count),
            );
        }
        for v in &self.profile.view_recomputes {
            line(
                &mut out,
                ObjectBuilder::new()
                    .field_str("kind", "profile.view_recompute")
                    .field_str("class", &self.class_name(v.class))
                    .field_u64("class_id", v.class as u64)
                    .field_u64("recomputes", v.recomputes)
                    .field_u64("cache_hits", v.cache_hits)
                    .field_u64("rows_scanned", v.rows_scanned)
                    .field_u64("invalidating_epoch", v.invalidating_epoch),
            );
        }
        line(
            &mut out,
            ObjectBuilder::new()
                .field_str("kind", "profile.summary")
                .field_str("statement", &self.src)
                .field_u64("eval_ns", self.eval_ns)
                .field_u64("nodes", self.profile.node_count())
                .field_u64("truncated_frames", self.profile.truncated_frames),
        );
        out
    }

    /// Folded stacks (see [`Profile::folded`]).
    pub fn to_folded(&self) -> String {
        self.profile.folded()
    }
}

impl std::fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "statement  {}", self.src)?;
        writeln!(f, "type       {}", self.scheme)?;
        writeln!(f, "result     {}", self.rendered)?;
        writeln!(
            f,
            "eval       {:>8}  nodes={} truncated-frames={}",
            ns(self.eval_ns),
            self.profile.node_count(),
            self.profile.truncated_frames
        )?;
        writeln!(f, "hot nodes  self        total       hits  kind      span")?;
        let hot = self.profile.hot_nodes();
        for h in hot.iter().take(HOT_ROWS) {
            writeln!(
                f,
                "           {:<10}  {:<10}  {:>4}  {:<8}  {}",
                ns(h.self_ns),
                ns(h.total_ns),
                h.hits,
                h.kind,
                h.span
            )?;
        }
        if hot.len() > HOT_ROWS {
            writeln!(f, "           … {} more", hot.len() - HOT_ROWS)?;
        }
        if self.profile.fallback_sites.is_empty() {
            writeln!(f, "fallbacks  (none — every field op ran offset-resolved)")?;
        } else {
            for s in &self.profile.fallback_sites {
                writeln!(
                    f,
                    "fallbacks  {:>4}× .{} at {} {}",
                    s.count, s.label, s.kind, s.span
                )?;
            }
        }
        if self.profile.view_recomputes.is_empty() {
            write!(f, "views      (no extent scans in this statement)")?;
        } else {
            for (i, v) in self.profile.view_recomputes.iter().enumerate() {
                if i > 0 {
                    writeln!(f)?;
                }
                write!(
                    f,
                    "views      {} recomputes={} cache-hits={} rows={} invalidated-by-epoch={}",
                    self.class_name(v.class),
                    v.recomputes,
                    v.cache_hits,
                    v.rows_scanned,
                    v.invalidating_epoch
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyview_eval::{FallbackSite, ViewRecompute};
    use polyview_obs::jsonl;

    fn report() -> ProfileReport {
        ProfileReport {
            src: "q \"x\"".into(),
            scheme: Scheme::mono(polyview_syntax::Mono::int()),
            rendered: "3".into(),
            eval_ns: 30,
            profile: Profile {
                roots: vec![ProfileNode {
                    kind: "app",
                    span: "q \"x\"".into(),
                    hits: 1,
                    total_ns: 30,
                    self_ns: 20,
                    env_hops: 0,
                    env_hops_max: 0,
                    children: vec![ProfileNode {
                        kind: "var",
                        span: "q".into(),
                        hits: 1,
                        total_ns: 10,
                        self_ns: 10,
                        env_hops: 2,
                        env_hops_max: 2,
                        children: vec![],
                    }],
                }],
                fallback_sites: vec![FallbackSite {
                    kind: "dot",
                    span: "x.Name".into(),
                    label: "Name".into(),
                    count: 4,
                }],
                view_recomputes: vec![ViewRecompute {
                    class: 0,
                    recomputes: 2,
                    cache_hits: 1,
                    rows_scanned: 10,
                    invalidating_epoch: 5,
                }],
                truncated_frames: 0,
            },
            class_names: vec![(0, "Staff".into())],
        }
    }

    #[test]
    fn json_lines_are_valid_and_key_order_is_pinned() {
        let r = report();
        let json = r.to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 2 + 1 + 1 + 1);
        let keys0 = jsonl::check_object_line(lines[0]).expect("valid node line");
        assert_eq!(
            keys0,
            ["kind", "path", "node", "span", "hits", "total_ns", "self_ns", "env_hops"]
        );
        // The child's path carries the parent frame, escaped.
        assert!(
            lines[1].contains("\"path\":[\"app q \\\"x\\\"\"]"),
            "{}",
            lines[1]
        );
        let keys2 = jsonl::check_object_line(lines[2]).expect("valid site line");
        assert_eq!(keys2, ["kind", "site", "span", "label", "count"]);
        let keys3 = jsonl::check_object_line(lines[3]).expect("valid view line");
        assert_eq!(
            keys3,
            [
                "kind",
                "class",
                "class_id",
                "recomputes",
                "cache_hits",
                "rows_scanned",
                "invalidating_epoch"
            ]
        );
        assert!(lines[3].contains("\"class\":\"Staff\""));
        let keys4 = jsonl::check_object_line(lines[4]).expect("valid summary line");
        assert_eq!(
            keys4,
            ["kind", "statement", "eval_ns", "nodes", "truncated_frames"]
        );
    }

    #[test]
    fn display_names_classes_and_sites() {
        let s = report().to_string();
        for needle in [
            "hot nodes",
            "app",
            "4× .Name",
            "Staff",
            "invalidated-by-epoch=5",
            "truncated-frames=0",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
        }
    }

    #[test]
    fn unknown_class_renders_with_id() {
        let mut r = report();
        r.class_names.clear();
        assert_eq!(r.class_name(0), "class#0");
    }

    #[test]
    fn folded_delegates_to_profile() {
        let r = report();
        let folded = r.to_folded();
        assert_eq!(folded, "app:q \"x\" 20\napp:q \"x\";var:q 10\n");
    }
}
