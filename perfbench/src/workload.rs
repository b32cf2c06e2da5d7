//! The three workloads: a graph, a seeded per-client request stream and
//! the reference answer of every request.
//!
//! Everything here is a pure function of the seed, so the untraced and
//! the traced run of one invocation replay the same stream, and a claim
//! tuned on one seed can be checked on another.

use ecrpq_automata::Alphabet;
use ecrpq_core::planner;
use ecrpq_graph::{GraphDb, NodeId};
use ecrpq_query::{parse_query, RelationRegistry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// An answer set as the service returns it.
pub type Answers = BTreeSet<Vec<NodeId>>;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["reach_bfs", "acyclic_adhoc", "regime_mix"];

/// Input sizes: `Full` is what the benchmark measures, `Tiny` is for the
/// self-test. Tiny graphs still have more than `√5e7 ≈ 7071` nodes, so
/// the planner picks the same strategies as at full size instead of the
/// Lemma 4.3 materialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One request: its text and the answers a correct service returns.
#[derive(Clone)]
pub struct Request {
    pub text: Arc<str>,
    pub expected: Arc<Answers>,
}

/// A generated workload. `db` is left unfrozen, so every set-up pays the
/// CSR freeze inside `QueryService::new`.
pub struct Workload {
    pub name: &'static str,
    pub db: GraphDb,
    /// Closed-loop clients; `clients × threads = nproc`.
    pub clients: usize,
    /// Evaluation threads per request.
    pub threads: usize,
    /// The hot set the warm-up pass sends before timing starts.
    pub warmup: Vec<Request>,
    kind: Kind,
    seed: u64,
}

enum Kind {
    /// One query text, sent over and over.
    Reach(Request),
    /// A two-atom acyclic chain family over the planted instance: a hot
    /// set, and members no request has named yet.
    Acyclic {
        hot: Vec<Request>,
        novel: Vec<Member>,
        planted: Planted,
    },
    /// Base queries, each with its seeded regex variants (the base text
    /// first).
    Mix(Vec<Vec<Request>>),
}

/// The closed-form answer structure of `planted_acyclic_instance`: the
/// chain heads `heads .. heads + k` reach the join vertex `heads + k` by
/// `a`-steps, and the join vertex starts a `b`-chain of `b_run` edges
/// whose last vertex has one `d`-edge to `sink`.
#[derive(Clone, Copy)]
struct Planted {
    heads: NodeId,
    k: usize,
    b_run: usize,
    sink: NodeId,
}

/// One member of the acyclic chain family.
#[derive(Clone, Copy)]
struct Member {
    /// Minimum `a`-run of `p`.
    a_min: usize,
    /// Minimum `b`-run of `r`.
    b_min: usize,
    /// Whether `r` ends in the `d`-edge (`z` is the sink) or not (`z` is
    /// on the `b`-chain).
    to_sink: bool,
    /// Which of `x`, `y`, `z` are free.
    head: Head,
}

#[derive(Clone, Copy)]
enum Head {
    Xz,
    X,
    Z,
    Xyz,
}

/// Members' minimum `a`-runs stay short: the Yannakakis table build costs
/// a sweep of the decoy cycles per automaton state, so a long `a`-run
/// would make a cold request cost hundreds of milliseconds.
const A_MIN_MAX: usize = 4;

impl Planted {
    /// Every member: `b_min` runs one past the chain, so some members
    /// have no answers.
    fn family(&self) -> Vec<Member> {
        let mut members = Vec::new();
        for a_min in 1..=A_MIN_MAX.min(self.k) {
            for b_min in 1..=self.b_run + 1 {
                for to_sink in [true, false] {
                    for head in [Head::Xz, Head::X, Head::Z, Head::Xyz] {
                        members.push(Member {
                            a_min,
                            b_min,
                            to_sink,
                            head,
                        });
                    }
                }
            }
        }
        members
    }

    /// Head `h` reaches the join vertex by `k − h` `a`-steps; only the
    /// join vertex starts a `b`-run, which reaches the chain vertex at
    /// distance `L ≤ b_run`, and the sink after `b_run` steps and a `d`.
    fn request(&self, m: Member) -> Request {
        let join = self.heads + self.k as NodeId;
        let xs: Vec<NodeId> = (0..=self.k - m.a_min)
            .map(|h| self.heads + h as NodeId)
            .collect();
        let zs: Vec<NodeId> = if m.to_sink {
            if m.b_min <= self.b_run {
                vec![self.sink]
            } else {
                Vec::new()
            }
        } else {
            (m.b_min..=self.b_run).map(|l| join + l as NodeId).collect()
        };
        let mut expected = Answers::new();
        for &x in &xs {
            for &z in &zs {
                expected.insert(match m.head {
                    Head::Xz => vec![x, z],
                    Head::X => vec![x],
                    Head::Z => vec![z],
                    Head::Xyz => vec![x, join, z],
                });
            }
        }
        let head = match m.head {
            Head::Xz => "q(x, z)",
            Head::X => "q(x)",
            Head::Z => "q(z)",
            Head::Xyz => "q(x, y, z)",
        };
        let text = format!(
            "{head} :- x -[p]-> y, y -[r]-> z, p in {}a*, r in {}b*{}",
            "a".repeat(m.a_min),
            "b".repeat(m.b_min),
            if m.to_sink { "d" } else { "" }
        );
        Request {
            text: text.into(),
            expected: Arc::new(expected),
        }
    }
}

/// Regime-mix bases beyond the E22 corpus and `queries/*.ecrpq`: a text
/// the analyzer proves unsatisfiable (`p` cannot start with both `a` and
/// `b`), so the service short-circuits it.
const UNSATISFIABLE: &str = "q(x) :- x -[p]-> y, p in a(a|b)*, p in b(a|b)*";

/// The `queries/` corpus, one query per non-comment line, less the
/// queries whose answer sets grow with the graph rather than with the
/// query: `example_2_1.ecrpq` (every pair of nodes with equal-length
/// paths into a common node) and the `prefix` line of
/// `prefix_pairs.ecrpq` (every triple). A single hot request of either
/// costs more than a hundred ordinary ones even on a few hundred nodes.
const QUERY_FILES: [&str; 4] = [
    include_str!("../../queries/crpq_chain.ecrpq"),
    include_str!("../../queries/np_diamond_chord.ecrpq"),
    include_str!("../../queries/prefix_pairs.ecrpq"),
    include_str!("../../queries/pspace_eq_star.ecrpq"),
];

/// Marks the dropped `prefix_pairs.ecrpq` line.
const UNBOUNDED_RELATION: &str = "prefix(";

/// Distinct texts per regime-mix base, the base text included. Over all
/// bases the pool is larger than `DEFAULT_PLAN_CAPACITY`, so the plan
/// cache evicts.
const MIX_VARIANTS: usize = 48;

/// The regime-mix graph: this many components of `MIX_COMPONENT` nodes.
/// Answer sets and search spaces stay within a component, so every
/// query's cost grows with the component count and the graph's shape
/// varies less from seed to seed than one random graph of the same size.
const MIX_COMPONENTS: usize = 40;
const MIX_COMPONENT: usize = 8;

/// Hot-set size of `acyclic_adhoc`: small enough that the hot plans stay
/// cached while novel texts churn through the rest of the LRU.
const ACYCLIC_HOT: usize = 32;

impl Workload {
    /// Generates workload `name` at `seed`. Reference answers that need
    /// evaluation (regime_mix) are computed here, before any timing.
    pub fn generate(name: &str, seed: u64, scale: Scale, nproc: usize) -> Result<Self, String> {
        let tiny = scale == Scale::Tiny;
        let (name, db, clients, threads, kind) = match name {
            "reach_bfs" => {
                // Small enough that other tenants' cache traffic on a
                // shared host moves the search less than the benchmark's
                // bounds (5·10⁴ nodes did not), large enough that the
                // product tables skip their all-pairs closure (|V| ≲ 11.5k
                // builds it, and set-up would be that quadratic build).
                // The self-test runs this size too.
                let n = 12_000;
                let (db, _, sources) = ecrpq_workloads::planted_power_law_instance(n, 8, seed);
                let request = Request {
                    text: "q(x) :- x -[p]-> y, p in c(a|b)*d".into(),
                    expected: Arc::new(sources.iter().map(|&s| vec![s]).collect()),
                };
                // nproc single-threaded clients, not one client with
                // nproc threads: a request split over every core waits
                // for its slowest part, so on a shared host one
                // descheduled core stalls the whole request, and such
                // runs spread past the benchmark's bounds
                ("reach_bfs", db, nproc, 1, Kind::Reach(request))
            }
            "acyclic_adhoc" => {
                let (n, k) = if tiny { (8_000, 16) } else { (100_000, 128) };
                let (db, _, answers) = ecrpq_workloads::planted_acyclic_instance(n, k, seed);
                let planted = planted_shape(&answers, k)?;
                let mut family = planted.family();
                shuffle(&mut family, &mut SmallRng::seed_from_u64(seed));
                let novel = family.split_off(ACYCLIC_HOT.min(family.len() / 2));
                let hot = family.iter().map(|&m| planted.request(m)).collect();
                let kind = Kind::Acyclic {
                    hot,
                    novel,
                    planted,
                };
                ("acyclic_adhoc", db, nproc, 1, kind)
            }
            "regime_mix" => {
                let components = if tiny { 4 } else { MIX_COMPONENTS };
                let db = components_db(components, MIX_COMPONENT, seed);
                let bases = mix_bases(&db, seed, if tiny { 4 } else { MIX_VARIANTS })?;
                ("regime_mix", db, nproc, 1, Kind::Mix(bases))
            }
            other => {
                return Err(format!(
                    "unknown workload `{other}` (expected one of {})",
                    NAMES.join(", ")
                ))
            }
        };
        let warmup = match &kind {
            Kind::Reach(request) => vec![request.clone()],
            Kind::Acyclic { hot, .. } => hot.clone(),
            Kind::Mix(bases) => bases.iter().map(|b| b[0].clone()).collect(),
        };
        Ok(Workload {
            name,
            db,
            clients,
            threads,
            warmup,
            kind,
            seed,
        })
    }

    /// Client `client`'s request stream. Deterministic in the seed and
    /// the client, so two runs of one invocation send the same requests.
    pub fn stream(&self, client: usize) -> Stream<'_> {
        let salt = (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Stream {
            workload: self,
            client,
            sent: 0,
            rng: SmallRng::seed_from_u64(self.seed ^ salt),
        }
    }
}

/// An endless per-client request stream.
pub struct Stream<'w> {
    workload: &'w Workload,
    client: usize,
    sent: usize,
    rng: SmallRng,
}

impl Iterator for Stream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let sent = self.sent;
        self.sent += 1;
        Some(match &self.workload.kind {
            Kind::Reach(request) => request.clone(),
            Kind::Acyclic {
                hot,
                novel,
                planted,
            } => {
                if sent % 4 == 3 {
                    // clients interleave over the novel list, so no text
                    // is sent twice until the list wraps
                    let slot = (sent / 4) * self.workload.clients + self.client;
                    planted.request(novel[slot % novel.len()])
                } else {
                    hot[self.rng.gen_range(0..hot.len())].clone()
                }
            }
            Kind::Mix(bases) => {
                let variants = &bases[self.rng.gen_range(0..bases.len())];
                variants[self.rng.gen_range(0..variants.len())].clone()
            }
        })
    }
}

/// Reads the planted structure back from the generator's answer set
/// `{(heads + h, sink) : h < k}`; the `b`-chain fills the ids between the
/// last head and the sink.
fn planted_shape(answers: &Answers, k: usize) -> Result<Planted, String> {
    let first = answers
        .iter()
        .next()
        .ok_or("planted instance has no answers")?;
    let (heads, sink) = (first[0], first[1]);
    let mids = (sink as usize)
        .checked_sub(heads as usize + k)
        .filter(|&m| m >= 2 && answers.len() == k)
        .ok_or("unexpected planted acyclic layout")?;
    Ok(Planted {
        heads,
        k,
        b_run: mids - 1,
        sink,
    })
}

/// `count` disjoint components of `size` nodes over labels `{a, b}`, each
/// a directed cycle plus `size / 2` chords, with seeded labels and chord
/// ends. The cycle makes each component strongly connected.
fn components_db(count: usize, size: usize, seed: u64) -> GraphDb {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = GraphDb::with_alphabet(Alphabet::ascii_lower(2));
    let labels = [db.alphabet_mut().intern('a'), db.alphabet_mut().intern('b')];
    let first = db.add_nodes_anon(count * size);
    for c in 0..count {
        let node = |i: usize| first + (c * size + i) as NodeId;
        for i in 0..size {
            let label = labels[rng.gen_range(0..labels.len())];
            db.add_edge_sym(node(i), label, node((i + 1) % size));
        }
        for _ in 0..size / 2 {
            let (u, v) = (rng.gen_range(0..size), rng.gen_range(0..size));
            let label = labels[rng.gen_range(0..labels.len())];
            db.add_edge_sym(node(u), label, node(v));
        }
    }
    db
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The regime-mix pool: every base text with up to `variants − 1` seeded
/// regex variants, each paired with its reference answers from a fresh
/// uncached `planner::answers` run.
fn mix_bases(db: &GraphDb, seed: u64, variants: usize) -> Result<Vec<Vec<Request>>, String> {
    let mut bases: Vec<String> = ecrpq_bench::harness::trial::server_corpus()
        .into_iter()
        .map(|(_, _, text)| text.to_string())
        .collect();
    bases.extend(
        QUERY_FILES
            .iter()
            .flat_map(|file| file.lines())
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .filter(|line| !line.contains(UNBOUNDED_RELATION))
            .map(str::to_string),
    );
    bases.push(UNSATISFIABLE.to_string());
    let mut rng = SmallRng::seed_from_u64(seed);
    let texts: Vec<Vec<String>> = bases
        .iter()
        .map(|base| regex_variants(base, variants, &mut rng))
        .collect();
    // references are the costliest part of generation: split them over
    // two threads
    let flat: Vec<&String> = texts.iter().flatten().collect();
    let half = flat.len().div_ceil(2);
    let answers: Vec<Result<Answers, String>> = std::thread::scope(|s| {
        let parts: Vec<_> = flat
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || chunk.iter().map(|t| reference(db, t)).collect::<Vec<_>>())
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect()
    });
    let mut answers = answers.into_iter();
    texts
        .into_iter()
        .map(|group| {
            group
                .into_iter()
                .map(|text| {
                    let expected = answers.next().expect("one answer per text")?;
                    Ok(Request {
                        text: text.into(),
                        expected: Arc::new(expected),
                    })
                })
                .collect()
        })
        .collect()
}

fn reference(db: &GraphDb, text: &str) -> Result<Answers, String> {
    let mut alphabet = db.alphabet().clone();
    let query = parse_query(text, &mut alphabet, &RelationRegistry::new())
        .map_err(|e| format!("`{text}`: {e}"))?;
    Ok(planner::answers(db, &query))
}

/// `base` followed by up to `count − 1` distinct variants. A variant
/// wraps each regex of the base in a seeded prefix and suffix from
/// `{ε, a, b}`: the query shape is kept, while its languages, cache key
/// and answers change. Universal `(a|b)*` regexes stay as they are: the
/// minimizer drops such an atom when the rest of the query implies it,
/// and a wrapped one would turn a query that minimizes to PTIME into an
/// NP search.
fn regex_variants(base: &str, count: usize, rng: &mut SmallRng) -> Vec<String> {
    const AFFIXES: [&str; 3] = ["", "a", "b"];
    let mut affix = || AFFIXES[rng.gen_range(0..AFFIXES.len())];
    let slots: Vec<_> = regex_slots(base)
        .into_iter()
        .filter(|slot| &base[slot.clone()] != "(a|b)*")
        .collect();
    let mut out = vec![base.to_string()];
    let distinct = 9usize.saturating_pow(slots.len() as u32);
    let wanted = count.min(distinct);
    while out.len() < wanted {
        let mut text = String::with_capacity(base.len() + 8 * slots.len());
        let mut at = 0;
        for slot in &slots {
            let (pre, post) = (affix(), affix());
            text.push_str(&base[at..slot.start]);
            let regex = &base[slot.clone()];
            if pre.is_empty() && post.is_empty() {
                text.push_str(regex);
            } else {
                text.push_str(&format!("{pre}({regex}){post}"));
            }
            at = slot.end;
        }
        text.push_str(&base[at..]);
        if !out.contains(&text) {
            out.push(text);
        }
    }
    out
}

/// Byte ranges of the regexes in a query text: after ` in ` up to the
/// next `,` (regexes contain no commas), and inside `-(` … `)->`.
fn regex_slots(text: &str) -> Vec<std::ops::Range<usize>> {
    let mut slots = Vec::new();
    for (at, _) in text.match_indices(" in ") {
        let start = at + 4;
        let end = text[start..].find(',').map_or(text.len(), |e| start + e);
        slots.push(start..end);
    }
    for (at, _) in text.match_indices("-(") {
        let start = at + 2;
        if let Some(e) = text[start..].find(")->") {
            slots.push(start..start + e);
        }
    }
    slots.sort_by_key(|s| s.start);
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regex_slots_cover_both_atom_forms() {
        let text = "q(x, z) :- x -(a*b)-> y, y -[p]-> z, p in (a|b)b, eq_len(p, p)";
        let slots: Vec<&str> = regex_slots(text).into_iter().map(|r| &text[r]).collect();
        assert_eq!(slots, ["a*b", "(a|b)b"]);
    }

    #[test]
    fn acyclic_closed_form_matches_the_generator_and_the_planner() {
        let (db, _, answers) = ecrpq_workloads::planted_acyclic_instance(64, 8, 3);
        let planted = planted_shape(&answers, 8).expect("planted layout");
        let first = Member {
            a_min: 1,
            b_min: 1,
            to_sink: true,
            head: Head::Xz,
        };
        assert_eq!(*planted.request(first).expected, answers);
        for m in planted.family() {
            let request = planted.request(m);
            let planner = reference(&db, &request.text).expect("family text parses");
            assert_eq!(planner, *request.expected, "{}", request.text);
        }
    }
}
