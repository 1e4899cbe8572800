//! The four workloads: their schemas, their seeded op streams, and the
//! model every reply is checked against.
//!
//! The system under test only ever sees the statement strings built here.
//! Every stream is a pure function of `(workload, seed, client)`, and the
//! model a stream keeps (which objects it has inserted or deleted) is
//! updated when a write is generated, so a closed-loop client can check
//! each reply against the state its own earlier writes produced.

/// splitmix64, the op-stream generator.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is negligible for these small `n`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Objects in the `Staff` schema of the wire workloads; even ones are
/// female, so `Female` holds exactly half of them.
const STAFF: usize = 200;
/// `fun h_k … and hh_k …` groups rebound by `adhoc_compile`.
const FUN_GROUPS: u64 = 16;
/// Classes in the `extent_storm` ring, and each one's own objects.
const RING: usize = 8;
const RING_OWN: usize = 10;
/// Extra `val`-bound objects per ring class that writes insert or delete.
const RING_EXTRA: usize = 4;
/// Depth of the `extent_storm` view-composition chain.
const CHAIN: usize = 32;

const COUNT_FN: &str = "fn s => hom(s, fn x => 1, fn a => fn b => a + b, 0)";
const VIEW_NAMES: &str = "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Female)";
const PICK_NAMES: &str = "cquery(fn s => map(pick, s), Female)";
/// Rebinding `pick` changes its code but never its answer.
const PICK_VARIANTS: [&str; 3] = [
    "val pick = fn o => query(fn p => p.Name, o);",
    "val pick = fn o => query(fn p => p.Name ^ \"\", o);",
    "val pick = fn o => query(fn p => if true then p.Name else \"\", o);",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Served view reads over loopback TCP; compile layers idle.
    WireViews,
    /// The same server, write-heavy, with checkpoints.
    WriteChurn,
    /// Distinct ad-hoc statements into an in-process engine; eval idles.
    AdhocCompile,
    /// Recursive class extents and a deep view chain in-process.
    ExtentStorm,
}

pub const ALL: [Workload; 4] = [
    Workload::WireViews,
    Workload::WriteChurn,
    Workload::AdhocCompile,
    Workload::ExtentStorm,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireViews => "wire_views",
            Workload::WriteChurn => "write_churn",
            Workload::AdhocCompile => "adhoc_compile",
            Workload::ExtentStorm => "extent_storm",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Served through `NetServer` (true) or an in-process `Engine`.
    pub fn over_wire(self) -> bool {
        matches!(self, Workload::WireViews | Workload::WriteChurn)
    }

    /// Closed-loop clients, one request in flight each.
    pub fn clients(self) -> usize {
        if self.over_wire() {
            2
        } else {
            1
        }
    }

    /// Ops in a default 10-s run on the 2-vCPU machine the baseline was
    /// recorded on. The untimed warm-up is 2% of them, shared among the
    /// clients; the smoke test runs 1%.
    pub fn nominal_ops(self) -> u64 {
        match self {
            Workload::WireViews => 22_000,
            Workload::WriteChurn => 80_000,
            Workload::AdhocCompile => 145_000,
            Workload::ExtentStorm => 75_000,
        }
    }

    /// Timed ops after which `peak_rss_mb` is read. Memory grows with
    /// traffic, so it is read at a fixed op count, not at the end of a
    /// run whose length depends on speed; every full-length run gets past
    /// this mark.
    pub fn rss_mark_ops(self) -> u64 {
        match self {
            Workload::WireViews => 10_000,
            Workload::WriteChurn => 30_000,
            Workload::AdhocCompile => 60_000,
            Workload::ExtentStorm => 30_000,
        }
    }

    /// The statements that build the schema and data, in order.
    pub fn setup(self) -> Vec<String> {
        match self {
            Workload::WireViews | Workload::WriteChurn => {
                let mut out: Vec<String> = (0..STAFF)
                    .map(|k| {
                        let sex = if k % 2 == 0 { "female" } else { "male" };
                        format!(
                            "val e{k} = IDView([Name = \"s{k}\", Sex = \"{sex}\", Salary := {}]);",
                            1000 + k
                        )
                    })
                    .collect();
                let own: Vec<String> = (0..STAFF).map(|k| format!("e{k}")).collect();
                out.push(format!("class Staff = class {{{}}} end;", own.join(", ")));
                out.push(
                    "class Female = class {} include Staff as fn x => [Name = x.Name] \
                     where fn x => query(fn p => p.Sex = \"female\", x) end;"
                        .to_string(),
                );
                if self == Workload::WriteChurn {
                    out.push(PICK_VARIANTS[0].to_string());
                }
                out
            }
            Workload::AdhocCompile => {
                let mut out = vec![
                    "val joe = IDView([Name = \"Joe\", BirthYear = 1955, Salary := 2000, Bonus := 5000]);"
                        .to_string(),
                    "val joe_view = joe as fn x => [Name = x.Name, Age = this_year() - x.BirthYear, \
                     Income = x.Salary, Bonus := extract(x, Bonus)];"
                        .to_string(),
                ];
                out.extend((0..FUN_GROUPS).map(|k| fun_group(k, k)));
                out
            }
            Workload::ExtentStorm => {
                let mut ring = String::new();
                for i in 0..RING {
                    ring.push_str(if i == 0 { "class " } else { " and " });
                    let own: Vec<String> = (0..RING_OWN)
                        .map(|j| format!("IDView([Name = \"o{i}_{j}\", V = {j}])"))
                        .collect();
                    ring.push_str(&format!(
                        "RC{i} = class {{{}}} include RC{} as fn x => x where fn x => true end",
                        own.join(", "),
                        (i + 1) % RING
                    ));
                }
                ring.push(';');
                let mut out = vec![ring];
                for i in 0..RING {
                    for j in 0..RING_EXTRA {
                        out.push(format!(
                            "val x{i}_{j} = IDView([Name = \"x{i}_{j}\", V = {}]);",
                            100 + j
                        ));
                    }
                }
                out.push("val c0 = IDView([v0 = 42]);".to_string());
                for k in 0..CHAIN {
                    out.push(format!(
                        "val c{} = c{k} as fn x => [v{} = x.v{k}];",
                        k + 1,
                        k + 1
                    ));
                }
                out
            }
        }
    }

    /// Client `client`'s op stream for `seed`.
    pub fn stream(self, seed: u64, client: usize) -> Stream {
        let mut mix = SplitMix64::new(seed ^ ((self as u64) << 56) ^ ((client as u64) << 48));
        let rng = SplitMix64::new(mix.next_u64());
        let model = match self {
            Workload::WriteChurn => vec![true; STAFF],
            Workload::ExtentStorm => vec![false; RING * RING_EXTRA],
            _ => Vec::new(),
        };
        Stream {
            workload: self,
            client,
            rng,
            index: 0,
            model,
        }
    }
}

/// `fun h_k … and hh_k …`: a mutually recursive group whose base case
/// returns `lit`.
fn fun_group(k: u64, lit: u64) -> String {
    format!(
        "fun h{k} n = if n = 0 then {lit} else hh{k} (n - 1) \
         and hh{k} n = if n = 0 then 0 else h{k} (n - 1);"
    )
}

/// What a correct reply looks like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Exactly this rendering.
    Text(String),
    /// A declaration binding this name first (`name : scheme`).
    Binds(String),
    /// `Female`'s extent is exactly the 100 female names.
    AllFemales,
    /// Only female names, and the checking client's own female objects
    /// present exactly when its model says so.
    ChurnedFemales,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    pub write: bool,
    pub src: String,
    pub expect: Expect,
}

/// One client's seeded op stream and the model that checks its replies.
#[derive(Clone, Debug)]
pub struct Stream {
    workload: Workload,
    client: usize,
    rng: SplitMix64,
    index: u64,
    /// `write_churn`: which `Staff` objects are present (only this
    /// client's own are ever written). `extent_storm`: which extra ring
    /// objects are inserted.
    model: Vec<bool>,
}

impl Stream {
    /// The next op. Writes update the model as they are generated.
    pub fn next_op(&mut self) -> Op {
        let i = self.index;
        self.index += 1;
        let roll = self.rng.below(1000);
        match self.workload {
            Workload::WireViews => {
                if roll < 900 {
                    return read(VIEW_NAMES.to_string(), Expect::AllFemales);
                }
                let k = self.rng.below(STAFF as u64);
                match self.rng.below(3) {
                    0 => write_unit(format!(
                        "query(fn x => update(x, Salary, {}), e{k})",
                        self.rng.below(100_000)
                    )),
                    1 => write_unit(format!("insert(Staff, e{k})")),
                    _ => Op {
                        write: true,
                        src: format!("val tick = {i};"),
                        expect: Expect::Binds("tick".to_string()),
                    },
                }
            }
            Workload::WriteChurn => {
                if roll < 500 {
                    return read(PICK_NAMES.to_string(), Expect::ChurnedFemales);
                }
                if roll < 550 {
                    let v = self.rng.below(PICK_VARIANTS.len() as u64) as usize;
                    return Op {
                        write: true,
                        src: PICK_VARIANTS[v].to_string(),
                        expect: Expect::Binds("pick".to_string()),
                    };
                }
                let k = self.own_staff();
                if roll < 750 {
                    write_unit(format!(
                        "query(fn x => update(x, Salary, {}), e{k})",
                        self.rng.below(100_000)
                    ))
                } else if roll < 875 {
                    self.model[k] = false;
                    write_unit(format!("delete(Staff, e{k})"))
                } else {
                    self.model[k] = true;
                    write_unit(format!("insert(Staff, e{k})"))
                }
            }
            Workload::AdhocCompile => {
                // Distinct literals make every statement text new.
                let lit = 1000 + 16 * i + self.rng.below(16);
                if roll < 100 {
                    let k = self.rng.below(FUN_GROUPS);
                    return Op {
                        write: true,
                        src: fun_group(k, lit),
                        expect: Expect::Binds(format!("h{k}")),
                    };
                }
                match roll % 3 {
                    0 => read(
                        format!(
                            "let g = fn r => r.f0 + r.f1 + r.f2 + r.f3 in \
                             g [f0 = {lit}, f1 = 1, f2 = 2, f3 = 3] + \
                             g [f0 = {lit}, f1 = 1, f2 = 2, f3 = 3, f4 = 4] + \
                             g [f0 = {lit}, f1 = 1, f2 = 2, f3 = 3, f4 = 4, f5 = 5] end"
                        ),
                        Expect::Text((3 * lit + 18).to_string()),
                    ),
                    1 => read(
                        format!("query(fn p => p.Income * 12 + p.Bonus + {lit}, joe_view)"),
                        Expect::Text((29_000 + lit).to_string()),
                    ),
                    _ => read(
                        format!(
                            "hom(map(fn o => query(fn x => x.A, o), \
                             {{IDView([A = {lit}]), IDView([A = 5]), IDView([A = 6])}}), \
                             fn x => x, fn a => fn b => a + b, 0)"
                        ),
                        Expect::Text((lit + 11).to_string()),
                    ),
                }
            }
            Workload::ExtentStorm => {
                if roll < 100 {
                    let slot = self.rng.below((RING * RING_EXTRA) as u64) as usize;
                    let (class, j) = (slot / RING_EXTRA, slot % RING_EXTRA);
                    let verb = if self.model[slot] { "delete" } else { "insert" };
                    self.model[slot] = !self.model[slot];
                    return write_unit(format!("{verb}(RC{class}, x{class}_{j})"));
                }
                if roll < 775 {
                    let class = self.rng.below(RING as u64);
                    let inserted = self.model.iter().filter(|&&p| p).count();
                    read(
                        format!("cquery({COUNT_FN}, RC{class})"),
                        Expect::Text((RING * RING_OWN + inserted).to_string()),
                    )
                } else {
                    read(
                        format!("query(fn x => x.v{CHAIN}, c{CHAIN})"),
                        Expect::Text("42".to_string()),
                    )
                }
            }
        }
    }

    /// A `Staff` object only this client writes: half of the females and
    /// half of the males belong to each of the two clients.
    fn own_staff(&mut self) -> usize {
        let pair = self.rng.below((STAFF / 4) as u64) as usize;
        4 * pair + 2 * self.client + self.rng.below(2) as usize
    }

    /// Is `reply` what `op` should have answered, given this stream's
    /// model?
    pub fn check(&self, op: &Op, reply: &str) -> bool {
        match &op.expect {
            Expect::Text(t) => reply == t,
            Expect::Binds(name) => reply
                .strip_prefix(name.as_str())
                .is_some_and(|rest| rest.starts_with(" :")),
            Expect::AllFemales => {
                parse_names(reply).is_some_and(|ks| ks == (0..STAFF).step_by(2).collect::<Vec<_>>())
            }
            Expect::ChurnedFemales => parse_names(reply).is_some_and(|ks| {
                let mut seen = [false; STAFF];
                for &k in &ks {
                    if k % 2 == 1 || seen[k] {
                        return false;
                    }
                    seen[k] = true;
                }
                (0..STAFF)
                    .filter(|k| k % 2 == 0 && (k / 2) % 2 == self.client)
                    .all(|k| seen[k] == self.model[k])
            }),
        }
    }
}

fn read(src: String, expect: Expect) -> Op {
    Op {
        write: false,
        src,
        expect,
    }
}

fn write_unit(src: String) -> Op {
    Op {
        write: true,
        src,
        expect: Expect::Text("()".to_string()),
    }
}

/// Parse a rendered set of staff names (`{"s0", "s2"}`) into sorted
/// object numbers; `None` for anything else.
fn parse_names(reply: &str) -> Option<Vec<usize>> {
    let inner = reply.strip_prefix('{')?.strip_suffix('}')?;
    if inner.is_empty() {
        return Some(Vec::new());
    }
    let mut ks = inner
        .split(", ")
        .map(|n| {
            let k: usize = n.strip_prefix("\"s")?.strip_suffix('"')?.parse().ok()?;
            (k < STAFF).then_some(k)
        })
        .collect::<Option<Vec<usize>>>()?;
    ks.sort_unstable();
    Some(ks)
}
