//! The engine snapshot envelope: a versioned byte format for the complete
//! session state (DESIGN.md §17).
//!
//! Layering: the machine section — store, classes, globals, identity
//! counter, with object-identity sharing preserved — is produced by
//! [`polyview_eval::encode_machine`] and embedded here as one
//! length-prefixed byte string. The envelope adds everything else a
//! session is: the type side (the settled global schemes, the
//! fresh-variable counter, and the kinds of the variables left free in
//! those schemes) and the engine bookkeeping
//! (declaration epochs, per-name epochs, index signatures). What is *not*
//! serialized — the statement
//! cache, metrics, tracer — is a cold-start derivative of what is.
//!
//! Why no substitution: it is one statement's history, not session
//! state. After every statement that keeps its effects the engine settles
//! (`TypeEnv::settle`): schemes resolved, only the kinds of their free
//! variables kept, the substitution cleared. So encoding copies the live
//! context and restoring rebuilds it (`Infer::restore`); the counter keeps
//! fresh variables clear of restored ids.
//!
//! All maps are serialized in sorted order, so identical engine state
//! encodes to identical bytes (the machine section's node numbering is
//! traversal-order deterministic for the same reason).

use polyview_syntax::wire::{
    read_kind, read_label, read_name, read_scheme, write_kind, write_label, write_name,
    write_scheme, ByteReader, ByteWriter, WireError,
};
use polyview_syntax::{Kind, Label, Name, Scheme, TyVar};

/// First bytes of every engine snapshot (the machine section inside has
/// its own `PVMS` magic).
pub const ENGINE_MAGIC: [u8; 4] = *b"PVES";
/// Envelope version; decoding any other version is a loud error. Version
/// 1 carried a compile-tier flag byte after the name epochs; version 2
/// dropped it (lowering is unconditional). Version 3 carries a `PVMS` v2
/// machine section, whose closures are flat: resolved code and the
/// values it captured, not named environment chains. Version 4 dropped
/// the alias-edge section (an alias holds its source's value, so
/// rebinding the source leaves it current) and carries a `PVMS` v3
/// machine section, whose code has only resolved forms.
pub const ENGINE_VERSION: u32 = 4;

/// The flattened session state the envelope carries — the bridge between
/// [`crate::Engine`]'s private fields and the byte format. Vectors are
/// expected in sorted order (encode preserves whatever order it is
/// given; `Engine::snapshot` sorts).
pub(crate) struct EngineParts {
    /// The [`polyview_eval::encode_machine`] section, embedded opaquely.
    pub machine_bytes: Vec<u8>,
    /// The inference context's fresh-variable counter at snapshot time.
    pub next_var: u32,
    /// Kinds of type variables that remain free in the resolved global
    /// schemes (only non-`U` kinds; everything absent is universal).
    pub free_kinds: Vec<(TyVar, Kind)>,
    /// Every globally bound scheme, as the last statement settled it.
    pub globals: Vec<(Name, Scheme)>,
    pub env_epoch: u64,
    pub name_epochs: Vec<(Name, u64)>,
    /// Index signatures of index-abstracted bindings (compile tier).
    pub index_sigs: Vec<(Name, Vec<(TyVar, Label)>)>,
}

pub(crate) fn encode_parts(p: &EngineParts) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for b in ENGINE_MAGIC {
        w.u8(b);
    }
    w.u32(ENGINE_VERSION);
    w.bytes(&p.machine_bytes);
    w.u32(p.next_var);
    w.usize(p.free_kinds.len());
    for (v, k) in &p.free_kinds {
        w.u32(*v);
        write_kind(&mut w, k);
    }
    w.usize(p.globals.len());
    for (n, s) in &p.globals {
        write_name(&mut w, n);
        write_scheme(&mut w, s);
    }
    w.u64(p.env_epoch);
    w.usize(p.name_epochs.len());
    for (n, e) in &p.name_epochs {
        write_name(&mut w, n);
        w.u64(*e);
    }
    w.usize(p.index_sigs.len());
    for (n, sig) in &p.index_sigs {
        write_name(&mut w, n);
        w.usize(sig.len());
        for (v, l) in sig {
            w.u32(*v);
            write_label(&mut w, l);
        }
    }
    w.into_bytes()
}

pub(crate) fn decode_parts(bytes: &[u8]) -> Result<EngineParts, WireError> {
    let mut r = ByteReader::new(bytes);
    for expected in ENGINE_MAGIC {
        if r.u8("magic")? != expected {
            return Err(WireError::Malformed(
                "bad magic: not an engine snapshot".into(),
            ));
        }
    }
    let version = r.u32("version")?;
    if version != ENGINE_VERSION {
        return Err(WireError::Malformed(format!(
            "unsupported engine snapshot version {version} (this binary reads {ENGINE_VERSION})"
        )));
    }
    let machine_bytes = r.bytes("machine section")?.to_vec();
    let next_var = r.u32("type-variable counter")?;
    let n = r.count("free-kind count")?;
    let mut free_kinds = Vec::with_capacity(n);
    for _ in 0..n {
        let v = r.u32("kinded variable")?;
        free_kinds.push((v, read_kind(&mut r)?));
    }
    let n = r.count("global scheme count")?;
    let mut globals = Vec::with_capacity(n);
    for _ in 0..n {
        let name = read_name(&mut r)?;
        globals.push((name, read_scheme(&mut r)?));
    }
    let env_epoch = r.u64("env epoch")?;
    let n = r.count("name-epoch count")?;
    let mut name_epochs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = read_name(&mut r)?;
        name_epochs.push((name, r.u64("name epoch")?));
    }
    let n = r.count("index-signature count")?;
    let mut index_sigs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = read_name(&mut r)?;
        let m = r.count("index-signature arity")?;
        let mut sig = Vec::with_capacity(m);
        for _ in 0..m {
            let v = r.u32("index variable")?;
            sig.push((v, read_label(&mut r)?));
        }
        index_sigs.push((name, sig));
    }
    if !r.finished() {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after engine snapshot",
            r.remaining()
        )));
    }
    Ok(EngineParts {
        machine_bytes,
        next_var,
        free_kinds,
        globals,
        env_epoch,
        name_epochs,
        index_sigs,
    })
}

#[cfg(test)]
mod tests {
    use crate::Engine;

    const SESSION: &str = r#"
        class Staff = class {} end;
        class Female = class {} include Staff as fn x => [Name = x.Name]
            where fn x => query(fn p => p.Sex = "female", x) end;
        insert(Staff, IDView([Name = "Ada", Sex = "female", Salary := 100]));
        insert(Staff, IDView([Name = "Joe", Sex = "male", Salary := 200]));
        val bob = IDView([Name = "Bob", Sex = "male", Salary := 50]);
        insert(Staff, bob);
        val total = fn s => hom(s, fn o => query(fn x => x.Salary, o), fn a => fn b => a + b, 0);
        fun pay s = cquery(total, s) and twice x = total(x) + total(x);
        val pay2 = pay;
    "#;

    const RENDER: &str = "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Staff)";

    fn session_engine() -> Engine {
        let mut e = Engine::new();
        e.load_prelude().expect("prelude");
        e.exec(SESSION).expect("session executes");
        e
    }

    #[test]
    fn roundtrip_preserves_session_observations() {
        let mut orig = session_engine();
        let mut restored = Engine::from_snapshot(&orig.snapshot()).expect("decodes");
        assert_eq!(restored.env_epoch(), orig.env_epoch());
        for name in ["Staff", "Female", "total", "pay", "pay2", "map"] {
            assert_eq!(
                restored.name_epoch(name),
                orig.name_epoch(name),
                "epoch of {name}"
            );
            assert_eq!(
                restored.scheme_of(name).map(|s| s.to_string()),
                orig.scheme_of(name).map(|s| s.to_string()),
                "scheme of {name}"
            );
        }
        for probe in [
            RENDER,
            "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Female)",
            "pay(Staff)",
            "pay2(Staff)",
            "twice(cquery(fn s => s, Staff))",
        ] {
            assert_eq!(
                restored.eval_to_string(probe).expect("restored serves"),
                orig.eval_to_string(probe).expect("original serves"),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn roundtrip_then_tail_replay_matches_full_replay() {
        // Snapshot mid-log, replay a tail on the restored engine, and the
        // result must match replaying everything on a fresh engine — the
        // soundness statement the pool's bounded recovery leans on.
        let tail = [
            "insert(Staff, IDView([Name = \"Eva\", Sex = \"female\", Salary := 300]))",
            "val shout = fn n => concat n \"!\";",
            "val loud = cquery(fn s => map(fn o => shout(query(fn x => x.Name, o)), s), Staff)",
        ];
        let mut full = session_engine();
        let mut restored = Engine::from_snapshot(&session_engine().snapshot()).expect("decodes");
        for entry in tail {
            let a = full.exec(entry).map(|_| ()).map_err(|e| e.to_string());
            let b = restored.exec(entry).map(|_| ()).map_err(|e| e.to_string());
            assert_eq!(a, b, "entry {entry} agrees");
        }
        for probe in [RENDER, "loud", "pay(Staff)"] {
            assert_eq!(
                restored.eval_to_string(probe).expect("restored"),
                full.eval_to_string(probe).expect("full"),
                "probe {probe}"
            );
        }
        assert_eq!(restored.env_epoch(), full.env_epoch());
    }

    #[test]
    fn mutation_after_restore_stays_identity_correct() {
        // `bob` was inserted into Staff before the snapshot, so the global
        // binding and the class extent share one raw record. A restore
        // must preserve that sharing: mutating through the global must be
        // visible through the extent, exactly as on the original.
        let mut orig = session_engine();
        let mut restored = Engine::from_snapshot(&orig.snapshot()).expect("decodes");
        let probe = "cquery(fn s => map(fn o => query(fn x => x.Salary, o), s), Staff)";
        for eng in [&mut orig, &mut restored] {
            eng.exec("query(fn x => update(x, Salary, 777), bob)")
                .expect("mutate through the shared record");
        }
        let got = restored.eval_to_string(probe).expect("restored");
        assert_eq!(got, orig.eval_to_string(probe).expect("original"));
        assert!(
            got.contains("777"),
            "extent sees the mutation through the shared slot: {got}"
        );
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        assert_eq!(
            session_engine().snapshot(),
            session_engine().snapshot(),
            "identical sessions encode to identical bytes"
        );
    }

    /// A statement-cache hit reuses its cached code and a recompile
    /// allocates fresh code, so the two share code by different pointers.
    /// The encoder shares code by content, so the bytes agree (1,591 and
    /// 1,641 bytes when code was shared by pointer and the envelope still
    /// carried an alias-edge count).
    #[test]
    fn the_statement_cache_does_not_reach_the_bytes() {
        let insert = r#"insert(C1, IDView([Name = "n2", Salary := 516]))"#;
        let run = |capacity: Option<usize>| {
            let mut e = Engine::new();
            if let Some(c) = capacity {
                e.set_stmt_cache_capacity(c);
            }
            e.exec("class C1 = class {} end;").expect("class");
            for _ in 0..3 {
                e.eval_expr(insert).expect("insert");
            }
            e.snapshot()
        };
        let (cached, cold) = (run(None), run(Some(0)));
        assert_eq!(cached.len(), 1583);
        assert!(cached == cold, "{} vs {} bytes", cached.len(), cold.len());
    }

    #[test]
    fn corrupt_envelope_is_loud() {
        let e = session_engine();
        let good = e.snapshot();
        assert!(Engine::from_snapshot(b"nonsense").is_err());
        assert!(Engine::from_snapshot(&good[..good.len() / 2]).is_err());
        let mut trailing = good.clone();
        trailing.push(7);
        assert!(Engine::from_snapshot(&trailing).is_err());
        let mut skew = good;
        skew[4] = 0xEE;
        assert!(Engine::from_snapshot(&skew).is_err());
    }

    #[test]
    fn older_envelopes_are_rejected() {
        // A v1 envelope (it carried the compile-tier flag byte), a v2 one
        // (its closures held named environment chains) and a v3 one (it
        // carried alias edges) must fail on their version field, never be
        // misread as v4.
        for version in [1u32, 2, 3] {
            let mut old = session_engine().snapshot();
            old[4..8].copy_from_slice(&version.to_le_bytes());
            let err = Engine::from_snapshot(&old)
                .map(|_| ())
                .expect_err("older version refused");
            assert!(
                err.to_string()
                    .contains(&format!("unsupported engine snapshot version {version}")),
                "got {err}"
            );
        }
        // A current envelope around a v2 machine section (its code could
        // hold un-resolved forms) fails on the section's version.
        let mut old = session_engine().snapshot();
        let pvms = old
            .windows(4)
            .position(|w| w == b"PVMS")
            .expect("the machine section is embedded");
        old[pvms + 4..pvms + 8].copy_from_slice(&2u32.to_le_bytes());
        let err = Engine::from_snapshot(&old)
            .map(|_| ())
            .expect_err("older machine section refused");
        assert!(
            err.to_string()
                .contains("unsupported machine snapshot version 2"),
            "got {err}"
        );
    }

    #[test]
    fn a_closure_over_a_fix_of_no_function_round_trips() {
        // `fix x => [a = x.a]` is well typed but fails when run, before its
        // body runs. A closure holding it keeps the body, resolved like
        // all code, so it encodes.
        let mut e = Engine::new();
        e.exec("val f = fn y => fix x => [a = x.a];")
            .expect("defines");
        let bytes = e.snapshot();
        let mut r = Engine::from_snapshot(&bytes).expect("decodes");
        assert_eq!(r.snapshot(), bytes);
        for eng in [&mut e, &mut r] {
            let err = eng.eval_to_string("f 1").expect_err("fix of a record");
            assert!(err.to_string().contains("fix"), "{err}");
        }
    }

    #[test]
    fn restored_engine_keeps_polymorphism() {
        // Restored schemes instantiate at fresh variables that never
        // collide with restored ids: the prelude's polymorphic `map` must
        // instantiate at two different element types post-restore, and
        // new polymorphic bindings must generalize and instantiate too.
        let mut restored = Engine::from_snapshot(&session_engine().snapshot()).expect("decodes");
        restored
            .exec(
                "val ints = map(fn x => x + 1, {1, 2});
                 val strs = map(fn s => concat s \"!\", {\"a\"});
                 val idf = fn x => x;
                 val p = idf(1);
                 val q = idf(\"s\");",
            )
            .expect("post-restore instantiations type-check");
        assert_eq!(restored.eval_to_string("ints").unwrap(), "{2, 3}");
        assert_eq!(restored.eval_to_string("pay(Staff)").unwrap(), "350");
    }
}
