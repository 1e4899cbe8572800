//! `:explain` — a per-statement pipeline report.
//!
//! [`crate::Engine::explain`] compiles a statement *fresh* (even when the
//! statement cache holds it), timing each phase with the engine's tracer
//! clock and diffing the layer work counters around each phase, so the
//! report attributes parse/infer/translate/eval cost to exactly this
//! statement. The [`Explain`] value is plain data; `Display` renders the
//! REPL view.

use polyview_eval::MachineStats;
use polyview_parser::ParseStats;
use polyview_syntax::Scheme;
use polyview_trans::LowerStats;
use polyview_types::InferStats;

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

    /// Tokens lexed and AST nodes parsed for this statement.
    pub parse: ParseStats,
    /// Inference work spent on this statement.
    pub infer: InferStats,
    /// The compile tier's work on this statement: offsets resolved,
    /// index parameters used, abstractions, the dynamic residue it left
    /// (zero on monomorphic code) and records laid out.
    pub lower: LowerStats,
    /// Per-operation offset/layout report rows (one per field op or record
    /// construction in the lowered statement), e.g. `dot .Name @0`.
    pub offset_rows: Vec<String>,
    /// AST nodes of the Figs. 3/5 translation of this statement.
    pub translated_size: u64,
    /// Evaluation work spent running this statement.
    pub eval: MachineStats,
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
            self.parse.tokens,
            self.parse.nodes
        )?;
        writeln!(
            f,
            "infer      {:>8}  unify-steps={} occurs-checks={} kind-merges={} instantiations={}",
            ns(self.infer_ns),
            self.infer.unify_steps,
            self.infer.occurs_checks,
            self.infer.kind_merges,
            self.infer.instantiations
        )?;
        writeln!(
            f,
            "lower      {:>8}  offsets={} index-params={} abstractions={} static-residue={} records={}",
            ns(self.lower_ns),
            self.lower.offsets_resolved,
            self.lower.index_params_used,
            self.lower.index_abstractions,
            self.lower.dynamic_residue,
            self.lower.records_lowered
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
            self.eval.fuel_consumed,
            self.eval.records_allocated,
            self.eval.sets_allocated,
            self.eval.field_offsets_resolved,
            self.eval.dyn_field_fallbacks
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
            parse: ParseStats {
                tokens: 3,
                nodes: 3,
            },
            infer: InferStats {
                unify_steps: 2,
                occurs_checks: 1,
                ..InferStats::default()
            },
            lower: LowerStats {
                offsets_resolved: 1,
                ..LowerStats::default()
            },
            offset_rows: vec!["dot .Name @0".into()],
            translated_size: 3,
            eval: MachineStats {
                fuel_consumed: 3,
                field_offsets_resolved: 1,
                ..MachineStats::default()
            },
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
