//! `:explain` — a per-statement pipeline report.
//!
//! [`crate::Engine::explain`] compiles a statement *fresh* (even when the
//! statement cache holds it), timing each phase with the engine's tracer
//! clock and diffing the layer work counters around each phase, so the
//! report attributes parse/infer/translate/eval cost to exactly this
//! statement. The [`Explain`] value is plain data; `Display` renders the
//! REPL view.

use polyview_syntax::Scheme;

/// Per-statement pipeline report produced by [`crate::Engine::explain`].
///
/// Durations come from the engine's tracer clock (nanoseconds; inject a
/// [`polyview_obs::ManualClock`] for deterministic values). Work counters
/// are deltas across this statement only, not session totals.
#[derive(Clone, Debug)]
pub struct Explain {
    /// The statement text.
    pub src: String,
    /// Principal scheme inferred for the statement.
    pub scheme: Scheme,
    /// Rendered result value.
    pub rendered: String,
    /// Whether the statement cache already held a valid compilation of this
    /// statement before the explain run (i.e. a plain
    /// [`eval_expr`](crate::Engine::eval_expr) would have hit).
    pub cached_before: bool,
    /// The statement's dependency snapshot: each free top-level name with
    /// the declaration epoch it was captured at. The cached compilation
    /// stays valid until one of these names is rebound; unrelated
    /// declarations leave it warm.
    pub deps: Vec<(String, u64)>,

    /// Parse-phase wall time.
    pub parse_ns: u64,
    /// Inference-phase wall time.
    pub infer_ns: u64,
    /// Lowering-phase (offset compilation) wall time.
    pub lower_ns: u64,
    /// Translation-phase (Figs. 3/5) wall time.
    pub translate_ns: u64,
    /// Evaluation-phase wall time.
    pub eval_ns: u64,

    /// Tokens produced by the lexer.
    pub tokens: u64,
    /// AST nodes produced by the parser.
    pub nodes: u64,
    /// Unification steps spent on this statement.
    pub unify_steps: u64,
    /// Occurs checks spent on this statement.
    pub occurs_checks: u64,
    /// Record-kind merges spent on this statement.
    pub kind_merges: u64,
    /// Scheme instantiations spent on this statement.
    pub instantiations: u64,
    /// Field accesses and updates the compile tier resolved to constant
    /// integer offsets in this statement.
    pub offsets_resolved: u64,
    /// Field operations compiled against an in-scope index *parameter*
    /// (inside an index-abstracted polymorphic function body).
    pub index_params_used: u64,
    /// Polymorphic bindings rewritten into index-abstracted form.
    pub index_abstractions: u64,
    /// Field operations the compile tier could not resolve and left on the
    /// dynamic-lookup path (documented residue; zero on monomorphic code).
    pub dynamic_residue: u64,
    /// Record constructions compiled to layout-directed slot writes.
    pub records_lowered: u64,
    /// Per-operation offset/layout report rows (one per field op or record
    /// construction in the lowered statement), e.g. `dot .Name @0`.
    pub offset_rows: Vec<String>,
    /// AST nodes of the Figs. 3/5 translation of this statement.
    pub translated_size: u64,
    /// Evaluation steps spent running this statement.
    pub fuel_consumed: u64,
    /// Records constructed while running this statement.
    pub records_allocated: u64,
    /// Sets constructed while running this statement.
    pub sets_allocated: u64,
    /// Field operations the evaluator executed through a resolved offset
    /// while running this statement.
    pub field_offsets_resolved: u64,
    /// Field operations the evaluator fell back to dynamic label lookup for
    /// while running this statement.
    pub dyn_field_fallbacks: u64,
}

/// Render nanoseconds with a readable unit. Shared with the profile
/// report's table renderer.
pub(crate) fn ns(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{}ms", n / 1_000_000)
    } else if n >= 10_000 {
        format!("{}µs", n / 1_000)
    } else {
        format!("{n}ns")
    }
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "statement  {}", self.src)?;
        writeln!(f, "type       {}", self.scheme)?;
        writeln!(f, "result     {}", self.rendered)?;
        writeln!(
            f,
            "cache      {}",
            if self.cached_before {
                "hit (explain recompiled anyway)"
            } else {
                "miss (now cached)"
            }
        )?;
        if self.deps.is_empty() {
            writeln!(
                f,
                "deps       (none — no free top-level names, never stale)"
            )?;
        } else {
            let rows: Vec<String> = self
                .deps
                .iter()
                .map(|(n, at)| format!("{n}@{at}"))
                .collect();
            writeln!(f, "deps       {}", rows.join(" "))?;
        }
        writeln!(
            f,
            "parse      {:>8}  tokens={} nodes={}",
            ns(self.parse_ns),
            self.tokens,
            self.nodes
        )?;
        writeln!(
            f,
            "infer      {:>8}  unify-steps={} occurs-checks={} kind-merges={} instantiations={}",
            ns(self.infer_ns),
            self.unify_steps,
            self.occurs_checks,
            self.kind_merges,
            self.instantiations
        )?;
        writeln!(
            f,
            "lower      {:>8}  offsets={} index-params={} abstractions={} static-residue={} records={}",
            ns(self.lower_ns),
            self.offsets_resolved,
            self.index_params_used,
            self.index_abstractions,
            self.dynamic_residue,
            self.records_lowered
        )?;
        if self.offset_rows.is_empty() {
            writeln!(f, "offsets    (no field operations in this statement)")?;
        } else {
            for row in &self.offset_rows {
                writeln!(f, "offsets    {row}")?;
            }
        }
        writeln!(
            f,
            "translate  {:>8}  core-nodes={}",
            ns(self.translate_ns),
            self.translated_size
        )?;
        write!(
            f,
            "eval       {:>8}  fuel={} records={} sets={} offsets={} runtime-fallbacks={}",
            ns(self.eval_ns),
            self.fuel_consumed,
            self.records_allocated,
            self.sets_allocated,
            self.field_offsets_resolved,
            self.dyn_field_fallbacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_picks_units() {
        assert_eq!(ns(0), "0ns");
        assert_eq!(ns(9_999), "9999ns");
        assert_eq!(ns(10_000), "10µs");
        assert_eq!(ns(2_000_000), "2000µs");
        assert_eq!(ns(10_000_000), "10ms");
    }

    #[test]
    fn display_mentions_every_phase() {
        let e = Explain {
            src: "1 + 2".into(),
            scheme: Scheme::mono(polyview_syntax::Mono::int()),
            rendered: "3".into(),
            cached_before: false,
            deps: vec![("plus".into(), 0)],
            parse_ns: 100,
            infer_ns: 200,
            lower_ns: 250,
            translate_ns: 300,
            eval_ns: 400,
            tokens: 3,
            nodes: 3,
            unify_steps: 2,
            occurs_checks: 1,
            kind_merges: 0,
            instantiations: 0,
            offsets_resolved: 1,
            index_params_used: 0,
            index_abstractions: 0,
            dynamic_residue: 0,
            records_lowered: 0,
            offset_rows: vec!["dot .Name @0".into()],
            translated_size: 3,
            fuel_consumed: 3,
            records_allocated: 0,
            sets_allocated: 0,
            field_offsets_resolved: 1,
            dyn_field_fallbacks: 0,
        };
        let s = e.to_string();
        for needle in [
            "parse",
            "infer",
            "lower",
            "offsets",
            "dot .Name @0",
            "translate",
            "eval",
            // The two fallback families must stay visually distinct:
            // lowering residue is a *static* fact, the eval counter a
            // *runtime* one (DESIGN.md §14).
            "static-residue",
            "runtime-fallbacks",
            "miss",
            "int",
            "plus@0",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
        }
    }
}
