//! Snapshot round-trip properties (DESIGN.md §17): for randomized
//! sessions — classes, inserts, shared objects, vals, funs — an engine
//! restored from `snapshot()` is observationally identical to the
//! original:
//!
//! * every class renders the same extent;
//! * `env_epoch` and every declared name's epoch and scheme agree;
//! * object *sharing* survives: a record inserted into several classes
//!   (or reachable through a global and an extent) is still one record —
//!   mutating through one handle is visible through every other, exactly
//!   as on the original;
//! * reads leave no trace: an engine that served reads between the
//!   statements snapshots to the same bytes as one that served none;
//! * the live engine is the one its snapshot restores: after every
//!   statement, whichever entry point ran it, both take the next
//!   statement to the same bytes and answer reads alike;
//! * the statement cache cannot be seen: an engine with it and one without
//!   it agree on every outcome, scheme, epoch and read.

use crate::common::{cases_where, sized_cases, Gen};
use polyview::Engine;

/// A randomly generated session: the statements plus what they declared.
struct Session {
    stmts: Vec<String>,
    classes: Vec<String>,
    /// Globals bound to objects that were also inserted into ≥1 class —
    /// the sharing probes.
    shared: Vec<String>,
    /// Every top-level name declared, for epoch/scheme comparison.
    names: Vec<String>,
}

fn gen_session(g: &mut Gen, len: usize) -> Session {
    // Always at least one class, so inserts and renders have a target.
    let mut s = Session {
        stmts: vec!["class C0 = class {} end;".to_string()],
        classes: vec!["C0".to_string()],
        shared: Vec::new(),
        names: vec!["C0".to_string()],
    };
    let mut fresh = 0usize;
    for _ in 0..len {
        match g.below(6) {
            0 => {
                let c = format!("C{}", s.classes.len());
                s.stmts.push(format!("class {c} = class {{}} end;"));
                s.classes.push(c.clone());
                s.names.push(c);
            }
            1 | 2 => {
                let c = &s.classes[g.pick(s.classes.len())];
                let pay = g.below(1000);
                s.stmts.push(format!(
                    "insert({c}, IDView([Name = \"n{fresh}\", Salary := {pay}]))"
                ));
                fresh += 1;
            }
            3 => {
                // A shared object: bound globally *and* inserted into one
                // or two classes — the same raw record reachable through
                // several handles.
                let o = format!("o{}", s.shared.len());
                let pay = g.below(1000);
                s.stmts.push(format!(
                    "val {o} = IDView([Name = \"{o}\", Salary := {pay}]);"
                ));
                for _ in 0..1 + g.pick(2) {
                    let c = &s.classes[g.pick(s.classes.len())];
                    s.stmts.push(format!("insert({c}, {o})"));
                }
                s.shared.push(o.clone());
                s.names.push(o);
            }
            4 => {
                let v = format!("v{fresh}");
                let (a, b) = (g.below(100), g.below(100));
                s.stmts.push(format!("val {v} = {a} + {b};"));
                s.names.push(v);
                fresh += 1;
            }
            _ => {
                let f = format!("f{fresh}");
                let k = 1 + g.below(49);
                s.stmts.push(format!("fun {f} x = x + {k};"));
                s.names.push(f);
                fresh += 1;
            }
        }
    }
    s
}

fn run_session(s: &Session) -> Engine {
    let mut e = Engine::new();
    e.load_prelude().expect("prelude");
    for stmt in &s.stmts {
        e.exec(stmt).expect("session statement executes");
    }
    e
}

fn render_extent(e: &mut Engine, class: &str) -> String {
    e.eval_to_string(&format!(
        "cquery(fn s => map(fn o => query(fn x => x.Salary, o), s), {class})"
    ))
    .expect("extent renders")
}

/// snapshot → restore is the identity on everything a session can
/// observe: extents, epochs, schemes.
#[test]
fn snapshot_roundtrip_is_observationally_identity() {
    sized_cases(24, 3..16, |g, len| {
        let session = gen_session(g, len);
        let stmts = session.stmts.join("\n");
        let mut orig = run_session(&session);
        let mut restored = Engine::from_snapshot(&orig.snapshot()).expect("snapshot decodes");

        assert_eq!(
            restored.env_epoch(),
            orig.env_epoch(),
            "env epoch after:\n{stmts}"
        );
        for name in &session.names {
            assert_eq!(
                restored.name_epoch(name),
                orig.name_epoch(name),
                "epoch of {name} after:\n{stmts}"
            );
            assert_eq!(
                restored.scheme_of(name).map(|s| s.to_string()),
                orig.scheme_of(name).map(|s| s.to_string()),
                "scheme of {name} after:\n{stmts}"
            );
        }
        for class in &session.classes {
            assert_eq!(
                render_extent(&mut restored, class),
                render_extent(&mut orig, class),
                "extent of {class} after:\n{stmts}"
            );
        }
    });
}

/// Sharing survives the round trip: mutating a shared object through
/// its global handle changes every extent it appears in, identically
/// on the original and the restored engine. A session without a shared
/// object is outside the property and skipped.
#[test]
fn snapshot_roundtrip_preserves_object_sharing() {
    cases_where(24, |g| {
        let len = 4 + g.pick(12);
        let bump = g.range(1000, 9999);
        let session = gen_session(g, len);
        if session.shared.is_empty() {
            return false;
        }
        let stmts = session.stmts.join("\n");
        let mut orig = run_session(&session);
        let mut restored = Engine::from_snapshot(&orig.snapshot()).expect("snapshot decodes");

        for (i, o) in session.shared.iter().enumerate() {
            let mutate = format!("query(fn x => update(x, Salary, {}), {o})", bump + i as i64);
            orig.exec(&mutate).expect("mutate original");
            restored.exec(&mutate).expect("mutate restored");
        }
        // If the restore had copied instead of shared, the restored
        // extents would still show the old salaries while the original's
        // show the bump — the renders would diverge.
        for class in &session.classes {
            assert_eq!(
                render_extent(&mut restored, class),
                render_extent(&mut orig, class),
                "post-mutation extent of {class} after:\n{stmts}"
            );
        }
        let seen = session
            .classes
            .iter()
            .map(|c| render_extent(&mut orig, c))
            .collect::<Vec<_>>()
            .join(" ");
        assert!(
            seen.contains(&bump.to_string()),
            "some extent must witness the mutation through the shared record: {seen} after:\n{stmts}"
        );
        true
    });
}

/// A read against the names declared so far: an extent, a name, or a
/// probe that only type checks while `C0`'s element type is still free
/// (it stays weak until the first insert into `C0`), so the read binds or
/// refines that weak variable.
fn gen_read(g: &mut Gen, classes: &[&String], names: &[&String]) -> String {
    match g.below(4) {
        0 => format!(
            "cquery(fn s => map(fn o => query(fn x => x.Salary, o), s), {})",
            classes[g.pick(classes.len())]
        ),
        1 => "cquery(fn s => map(fn o => query(fn x => x.Tag ^ \"!\", o), s), C0)".to_string(),
        2 => format!(
            "cquery(fn s => map(fn o => query(fn x => x.Name = {}, o), s), C0)",
            g.below(9)
        ),
        _ => names[g.pick(names.len())].to_string(),
    }
}

/// After every statement of a random session, an engine that also served
/// random reads (some binding `C0`'s weak element type) has exactly the
/// snapshot bytes of an engine that served none: a read's type-variable
/// counter, bindings and kinds are dropped with it.
#[test]
fn reads_leave_the_full_snapshot_unchanged() {
    sized_cases(24, 3..16, |g, len| {
        let session = gen_session(g, len);
        let mut reader = Engine::new();
        let mut plain = Engine::new();
        reader.load_prelude().expect("prelude");
        plain.load_prelude().expect("prelude");
        for stmt in &session.stmts {
            reader.exec(stmt).expect("session statement executes");
            plain.exec(stmt).expect("session statement executes");
            let declared = |n: &&String| plain.scheme_of(n).is_some();
            let classes: Vec<&String> = session.classes.iter().filter(declared).collect();
            let names: Vec<&String> = session.names.iter().filter(declared).collect();
            for _ in 0..g.below(4) {
                let read = gen_read(g, &classes, &names);
                let _ = reader.read(&read);
                assert_eq!(
                    reader.snapshot(),
                    plain.snapshot(),
                    "after {stmt} and the read {read}"
                );
            }
        }
    });
}

/// Run one session statement through a public entry point: a declaration
/// through `exec`, an expression statement through `exec`,
/// `eval_to_string`, `eval_expr` or `prepare` + `run`, as `entry` picks.
fn apply(e: &mut Engine, stmt: &str, entry: u64) {
    let ran = match if stmt.ends_with(';') { 0 } else { entry } {
        0 => e.exec(stmt).map(drop),
        1 => e.eval_to_string(stmt).map(drop),
        2 => e.eval_expr(stmt).map(drop),
        _ => e.prepare(stmt).and_then(|p| e.run(&p)).map(drop),
    };
    ran.unwrap_or_else(|err| panic!("{stmt} through entry {entry}: {err}"));
}

/// Between statements the live engine holds exactly the type state its
/// snapshot holds: after every statement of a random session, an engine
/// restored from the snapshot takes the next statement (through the same,
/// randomly chosen entry point) to the same snapshot bytes, and answers a
/// random read (some binding `C0`'s weak element type) the same way. The
/// restored engine starts with a cold statement cache, so a statement the
/// live engine has seen before is a hit on one side and a compile on the
/// other.
#[test]
fn the_live_engine_is_the_one_its_snapshot_restores() {
    sized_cases(24, 3..16, |g, len| {
        let session = gen_session(g, len);
        let mut live = Engine::new();
        live.load_prelude().expect("prelude");
        for stmt in &session.stmts {
            let mut restored = Engine::from_snapshot(&live.snapshot()).expect("snapshot decodes");
            let entry = g.below(4);
            apply(&mut live, stmt, entry);
            apply(&mut restored, stmt, entry);
            assert_eq!(
                restored.snapshot(),
                live.snapshot(),
                "after {stmt} through entry {entry}"
            );
            let declared = |n: &&String| live.scheme_of(n).is_some();
            let classes: Vec<&String> = session.classes.iter().filter(declared).collect();
            let names: Vec<&String> = session.names.iter().filter(declared).collect();
            let read = gen_read(g, &classes, &names);
            assert_eq!(
                restored.read(&read),
                live.read(&read),
                "the read {read} after {stmt} through entry {entry}"
            );
        }
    });
}

/// The names `e` has declared.
fn in_scope<'a>(e: &Engine, names: &'a [String]) -> Vec<&'a String> {
    names.iter().filter(|n| e.scheme_of(n).is_some()).collect()
}

/// Run `stmt` through the entry point `entry` picks, as [`apply`] does, and
/// render what it gave: its outcomes, its value, or its error, with the
/// scheme `eval_expr` returned.
fn observe(e: &mut Engine, stmt: &str, entry: u64) -> String {
    let decl = stmt.ends_with(';');
    let out = match if decl { 0 } else { entry } {
        0 => e.exec(stmt).map(|out| format!("{out:?}")),
        1 => e.eval_to_string(stmt),
        2 => e
            .eval_expr(stmt)
            .map(|(s, v)| format!("{} : {s}", e.show(&v))),
        _ => e.prepare(stmt).and_then(|p| e.run_to_string(&p)),
    };
    out.unwrap_or_else(|err| format!("error: {err}"))
}

/// The statement cache cannot be seen. An engine with the default cache
/// and one with none run a random session through the same random entry
/// points, with a weak function `w` declared first. Between statements
/// they also run, as statements, an earlier expression statement again or
/// a read, so hits happen, and some statements fix or re-kind a weak
/// variable (`C0`'s element type, `w`'s type) that cached schemes name,
/// or are rejected after binding one. Both engines agree on every
/// outcome, every declared name's scheme and epoch, the answer to a
/// random read, and their full snapshot bytes after each statement: the
/// snapshot encoder shares code by content, so a hit's reused code and a
/// recompile's fresh code encode alike.
#[test]
fn the_statement_cache_cannot_be_seen() {
    sized_cases(48, 3..16, |g, len| {
        let session = gen_session(g, len);
        let mut cached = Engine::new();
        let mut cold = Engine::new();
        cold.set_stmt_cache_capacity(0);
        let weak = "val w = (fn x => x)(fn y => y);".to_string();
        let mut names = session.names.clone();
        names.push("w".to_string());
        for e in [&mut cached, &mut cold] {
            e.load_prelude().expect("prelude");
            e.exec(&weak).expect("weak w");
        }
        let mut exprs: Vec<String> = Vec::new();
        for stmt in &session.stmts {
            let mut s = stmt.clone();
            for extra in 0..=g.below(3) {
                if extra > 0 {
                    let (classes, known) =
                        (in_scope(&cold, &session.classes), in_scope(&cold, &names));
                    s = match g.below(4) {
                        0 if !exprs.is_empty() => exprs[g.pick(exprs.len())].clone(),
                        1 => ["w", "w(1)", "w(true)", "(w, C0)"][g.pick(4)].to_string(),
                        _ => gen_read(g, &classes, &known),
                    };
                }
                let entry = g.below(4);
                assert_eq!(
                    observe(&mut cached, &s, entry),
                    observe(&mut cold, &s, entry),
                    "{s} through entry {entry}"
                );
                if !s.ends_with(';') {
                    exprs.push(s.clone());
                }
            }
            assert!(
                cached.snapshot() == cold.snapshot(),
                "snapshot bytes after {stmt}"
            );
            for name in in_scope(&cold, &names) {
                assert_eq!(cached.name_epoch(name), cold.name_epoch(name), "{name}");
                assert_eq!(
                    cached.scheme_of(name),
                    cold.scheme_of(name),
                    "scheme of {name} after {stmt}"
                );
            }
            let read = gen_read(
                g,
                &in_scope(&cold, &session.classes),
                &in_scope(&cold, &names),
            );
            assert_eq!(
                cached.read(&read),
                cold.read(&read),
                "the read {read} after {stmt}"
            );
        }
    });
}
