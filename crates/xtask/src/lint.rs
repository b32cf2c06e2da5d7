//! The repo lint pass: rules clippy can't express because they encode
//! project policy, not Rust style.
//!
//! Every rule is a pure function from `(path, content)` to violations, so
//! the tests can seed one violation per rule without touching the tree.

/// One finding of the lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number (0 = whole-file finding).
    pub line: usize,
    /// What rule fired and why.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}", self.file, self.message)
        } else {
            write!(f, "{}:{}: {}", self.file, self.line, self.message)
        }
    }
}

/// Crates this repo owns (not the offline stand-ins for crates.io
/// dependencies, which mirror external APIs and are exempt from policy).
pub const OWN_CRATES: &[&str] = &[
    "analyze",
    "automata",
    "bench",
    "core",
    "graph",
    "query",
    "reductions",
    "structure",
    "workloads",
    "xtask",
];

/// Modules on the product-search hot path: their maps are keyed by dense
/// integers, where FNV beats SipHash by a wide margin (see DESIGN.md).
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/product.rs",
    "crates/core/src/enumerate.rs",
    "crates/core/src/semijoin.rs",
    "crates/graph/src/db.rs",
];

/// Marker that exempts one audited `unwrap`/`expect` from [`lint_unwrap`].
/// Put it at the end of the offending line or on the line just above, with
/// a word on why the panic is unreachable.
pub const ALLOW_MARKER: &str = "lint:allow(unwrap)";

/// Modules whose worklist loops sit on the governed evaluation hot path:
/// an unguarded loop there can run arbitrarily long without ever
/// discovering that a deadline or budget tripped.
pub const BUDGET_HOT_FILES: &[&str] = &[
    "crates/core/src/product.rs",
    "crates/core/src/enumerate.rs",
    "crates/core/src/semijoin.rs",
    "crates/core/src/cq_eval.rs",
    "crates/core/src/bitbfs.rs",
];

/// Marker that exempts one audited loop from [`lint_budget_checkpoints`].
/// Put it on the loop header line or the first line of the body, with a
/// word on why the loop is bounded (e.g. O(path-length) reconstruction).
pub const ALLOW_UNGUARDED: &str = "lint:allow(unguarded-loop)";

/// Rule 1: a crate entry point must start its attribute block with
/// `#![forbid(unsafe_code)]`. Applies to `lib.rs`/`main.rs` of own crates.
pub fn lint_forbid_unsafe(path: &str, content: &str) -> Vec<Violation> {
    if content.contains("#![forbid(unsafe_code)]") {
        return Vec::new();
    }
    vec![Violation {
        file: path.to_string(),
        line: 0,
        message: "crate entry point is missing `#![forbid(unsafe_code)]`".to_string(),
    }]
}

/// Rule 2: hot-path modules must not use the default (SipHash) hasher —
/// `HashMap`/`HashSet` there must be the FNV aliases.
pub fn lint_default_hasher(path: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, line) in content.lines().enumerate() {
        let code = strip_comment(line);
        for needle in ["HashMap", "HashSet"] {
            for pos in match_positions(code, needle) {
                // FnvHashMap / FnvHashSet are exactly the point of the rule
                if pos >= 3 && &code[pos - 3..pos] == "Fnv" {
                    continue;
                }
                // `use crate::fnv::...` re-export sites name the alias target
                if code.trim_start().starts_with("use ") && code.contains("fnv") {
                    continue;
                }
                out.push(Violation {
                    file: path.to_string(),
                    line: idx + 1,
                    message: format!(
                        "default-hasher `{needle}` on the hot path — use the FNV alias \
                         from `fnv::` instead"
                    ),
                });
            }
        }
    }
    out
}

/// Rule 3: no `.unwrap()` / `.expect(` in library code outside tests.
/// `#[cfg(test)]` blocks are skipped by brace tracking; comment lines are
/// skipped; an audited case carries the [`ALLOW_MARKER`] on its line or
/// the line above.
pub fn lint_unwrap(path: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines: Vec<&str> = content.lines().collect();
    let mut i = 0usize;
    let mut skip_depth: Option<i64> = None; // brace depth at cfg(test) entry
    let mut depth: i64 = 0;
    while i < lines.len() {
        let line = lines[i];
        let code = strip_comment(line);
        if skip_depth.is_none() && code.contains("#[cfg(test)]") {
            skip_depth = Some(depth);
        }
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        depth += opens - closes;
        if let Some(d) = skip_depth {
            // the cfg(test) item is over once we fall back to its depth
            // after having entered it
            if depth <= d && closes > 0 {
                skip_depth = None;
            }
            i += 1;
            continue;
        }
        let trimmed = line.trim_start();
        let in_comment =
            trimmed.starts_with("//") || trimmed.starts_with("///") || trimmed.starts_with("//!");
        if !in_comment {
            for needle in [".unwrap()", ".expect("] {
                if code.contains(needle) {
                    let allowed = line.contains(ALLOW_MARKER)
                        || (i > 0 && lines[i - 1].contains(ALLOW_MARKER));
                    if !allowed {
                        out.push(Violation {
                            file: path.to_string(),
                            line: i + 1,
                            message: format!(
                                "`{needle}` in library code — handle the error, or audit it \
                                 with `// {ALLOW_MARKER}: why this cannot panic`"
                            ),
                        });
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// Rule 4: build artifacts must not be tracked. `tracked` is the output of
/// `git ls-files` split into lines.
pub fn lint_tracked_target<'a>(tracked: impl Iterator<Item = &'a str>) -> Vec<Violation> {
    tracked
        .filter(|p| p.starts_with("target/") || p.contains("/target/"))
        .map(|p| Violation {
            file: p.to_string(),
            line: 0,
            message: "build artifact tracked by git — `git rm --cached` it; `/target` is \
                      ignored via .gitignore"
                .to_string(),
        })
        .collect()
}

/// Rule 5: every `while let Some(` worklist loop in a
/// [`BUDGET_HOT_FILES`] module must check in with the budget governor
/// somewhere in its body — a `.tick(`, `checkpoint(` or `stopped(` call —
/// or carry the [`ALLOW_UNGUARDED`] audit marker on its header or first
/// body line. Worklist loops are where evaluation time actually goes; one
/// that never checks in turns a 50 ms deadline into "whenever the loop
/// drains".
pub fn lint_budget_checkpoints(path: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines: Vec<&str> = content.lines().collect();
    for (idx, header) in lines.iter().enumerate() {
        let code = strip_comment(header);
        if !code.contains("while let Some(") {
            continue;
        }
        if header.contains(ALLOW_UNGUARDED)
            || lines
                .get(idx + 1)
                .is_some_and(|l| l.contains(ALLOW_UNGUARDED))
        {
            continue;
        }
        // brace-track the loop body: from the header line until the depth
        // falls back to zero after having opened
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut guarded = false;
        for body_line in &lines[idx..] {
            let body_code = strip_comment(body_line);
            for needle in [".tick(", ".tick_traced(", "checkpoint(", "stopped("] {
                if body_code.contains(needle) {
                    guarded = true;
                }
            }
            depth += body_code.matches('{').count() as i64;
            depth -= body_code.matches('}').count() as i64;
            if depth > 0 {
                opened = true;
            }
            if opened && depth <= 0 {
                break;
            }
        }
        if !guarded {
            out.push(Violation {
                file: path.to_string(),
                line: idx + 1,
                message: format!(
                    "unguarded worklist loop on the budget hot path — call `pacer.tick()` \
                     (or `checkpoint`/`stopped`) in the body, or audit it with \
                     `// {ALLOW_UNGUARDED}: why the loop is bounded`"
                ),
            });
        }
    }
    out
}

/// Modules on the evaluation hot path that must not read the wall clock
/// directly: all timing goes through the tracer's `PhaseSpan`, which is
/// compiled out under `NoopTracer`. A raw `Instant::now()` here is paid
/// on every run, traced or not — exactly the overhead the observability
/// layer exists to avoid.
pub const CLOCK_HOT_FILES: &[&str] = &[
    "crates/core/src/product.rs",
    "crates/core/src/enumerate.rs",
    "crates/core/src/semijoin.rs",
    "crates/core/src/cq_eval.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/bitbfs.rs",
];

/// Marker that exempts one audited clock read from [`lint_raw_clock`].
/// Put it on the offending line or the line just above, with a word on
/// why the read is off the per-configuration path.
pub const ALLOW_RAW_CLOCK: &str = "lint:allow(raw-clock)";

/// Rule 6: no direct `Instant::now()` / `SystemTime::now()` in a
/// [`CLOCK_HOT_FILES`] module. Phase timing belongs in `trace::PhaseSpan`
/// (zero-cost when tracing is off); deadline checks belong in the
/// governor. Comment lines are skipped; an audited read carries the
/// [`ALLOW_RAW_CLOCK`] marker on its line or the line above.
pub fn lint_raw_clock(path: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines: Vec<&str> = content.lines().collect();
    for (idx, line) in lines.iter().enumerate() {
        let code = strip_comment(line);
        let hit = ["Instant::now()", "SystemTime::now()"]
            .iter()
            .find(|n| code.contains(*n));
        let Some(needle) = hit else { continue };
        let allowed =
            line.contains(ALLOW_RAW_CLOCK) || (idx > 0 && lines[idx - 1].contains(ALLOW_RAW_CLOCK));
        if !allowed {
            out.push(Violation {
                file: path.to_string(),
                line: idx + 1,
                message: format!(
                    "`{needle}` on the evaluation hot path — time phases with \
                     `trace::PhaseSpan` (free under `NoopTracer`), or audit it with \
                     `// {ALLOW_RAW_CLOCK}: why this read is off the hot loop`"
                ),
            });
        }
    }
    out
}

/// Modules holding the bit-parallel BFS kernel: their inner loops are
/// word-at-a-time by design, and a per-element map probe there silently
/// reintroduces the scalar access pattern the kernel exists to avoid
/// (one cache miss per configuration instead of per 64).
pub const BITPARALLEL_HOT_FILES: &[&str] = &["crates/core/src/bitbfs.rs"];

/// Marker that exempts one audited scalar probe from
/// [`lint_scalar_probe`]. Put it on the offending line or the line just
/// above, with a word on why the probe is off the per-word path.
pub const ALLOW_SCALAR_PROBE: &str = "lint:allow(scalar-probe)";

/// Rule 7: no per-element map/set probes — `.get(` or `.insert(` — in a
/// [`BITPARALLEL_HOT_FILES`] module. Kernel state belongs in dense
/// word-indexed arrays (`BitSet`, the bump arena, CSR slices); a probe
/// per configuration is exactly the scalar layout the kernel replaces.
/// `#[cfg(test)]` blocks and comment lines are skipped; an audited probe
/// carries the [`ALLOW_SCALAR_PROBE`] marker on its line or the line
/// above.
pub fn lint_scalar_probe(path: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines: Vec<&str> = content.lines().collect();
    let mut i = 0usize;
    let mut skip_depth: Option<i64> = None; // brace depth at cfg(test) entry
    let mut depth: i64 = 0;
    while i < lines.len() {
        let line = lines[i];
        let code = strip_comment(line);
        if skip_depth.is_none() && code.contains("#[cfg(test)]") {
            skip_depth = Some(depth);
        }
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        depth += opens - closes;
        if let Some(d) = skip_depth {
            if depth <= d && closes > 0 {
                skip_depth = None;
            }
            i += 1;
            continue;
        }
        for needle in [".get(", ".insert("] {
            if code.contains(needle) {
                let allowed = line.contains(ALLOW_SCALAR_PROBE)
                    || (i > 0 && lines[i - 1].contains(ALLOW_SCALAR_PROBE));
                if !allowed {
                    out.push(Violation {
                        file: path.to_string(),
                        line: i + 1,
                        message: format!(
                            "scalar probe `{needle}` in the bit-parallel kernel — keep state \
                             in dense word-indexed arrays, or audit it with \
                             `// {ALLOW_SCALAR_PROBE}: why this probe is off the per-word path`"
                        ),
                    });
                }
            }
        }
        i += 1;
    }
    out
}

/// Modules implementing the streaming answer enumerator: their contract
/// is constant-memory, per-tuple yielding — materializing intermediate
/// answer vectors there silently turns "streaming" back into "collect
/// everything, then iterate", which is exactly what the enumerator
/// replaces (and what lets `max_answers` overshoot).
pub const ENUMERATOR_FILES: &[&str] = &["crates/core/src/enumerate.rs"];

/// Marker that exempts one audited materialization from
/// [`lint_materialize`]. Put it on the offending line or the line just
/// above, with a word on why the allocation is bounded (e.g. once per
/// query, O(#vars), not per answer).
pub const ALLOW_MATERIALIZE: &str = "lint:allow(materialize)";

/// Rule 8: no `.collect::<Vec` / `.push(` in an [`ENUMERATOR_FILES`]
/// module — the streaming enumerator must yield tuples one at a time, not
/// buffer them. Setup-time allocations (the step program, per-variable
/// domains) are audited with the [`ALLOW_MATERIALIZE`] marker on the line
/// or the line above; `#[cfg(test)]` blocks and comment lines are
/// skipped.
pub fn lint_materialize(path: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines: Vec<&str> = content.lines().collect();
    let mut i = 0usize;
    let mut skip_depth: Option<i64> = None; // brace depth at cfg(test) entry
    let mut depth: i64 = 0;
    while i < lines.len() {
        let line = lines[i];
        let code = strip_comment(line);
        if skip_depth.is_none() && code.contains("#[cfg(test)]") {
            skip_depth = Some(depth);
        }
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        depth += opens - closes;
        if let Some(d) = skip_depth {
            if depth <= d && closes > 0 {
                skip_depth = None;
            }
            i += 1;
            continue;
        }
        for needle in [".collect::<Vec", ".push("] {
            if code.contains(needle) {
                let allowed = line.contains(ALLOW_MATERIALIZE)
                    || (i > 0 && lines[i - 1].contains(ALLOW_MATERIALIZE));
                if !allowed {
                    out.push(Violation {
                        file: path.to_string(),
                        line: i + 1,
                        message: format!(
                            "`{needle}` in the streaming enumerator — yield tuples instead of \
                             buffering them, or audit a setup-time allocation with \
                             `// {ALLOW_MATERIALIZE}: why this is bounded`"
                        ),
                    });
                }
            }
        }
        i += 1;
    }
    out
}

/// Files implementing semantics-changing query rewrites. Every site that
/// applies a rewrite (drops, replaces, or admits a candidate query) must
/// be dominated by a containment-verification call in the same function —
/// the soundness discipline of the regime minimizer and the optimizer.
pub const REWRITE_FILES: &[&str] = &[
    "crates/core/src/optimize.rs",
    "crates/analyze/src/minimize.rs",
];

/// Marker that exempts one audited rewrite application from
/// [`lint_unverified_rewrite`]. Put it on the offending line or the line
/// just above, with a word on why the rewrite is sound without a
/// containment check (e.g. pure bookkeeping, no language change).
pub const ALLOW_UNVERIFIED: &str = "lint:allow(unverified-rewrite)";

/// Tokens that apply a rewrite: marking an atom dropped, or admitting a
/// candidate query into the search frontier.
const REWRITE_APPLY: &[&str] = &["dropped[", "candidates.push("];

/// Tokens that verify containment: any of these between the enclosing
/// `fn` line and the application site counts as domination.
const REWRITE_VERIFY: &[&str] = &[
    "is_subset_of",
    "verify_equiv",
    "is_universal",
    ".equivalent(",
];

/// Rule 9: in a [`REWRITE_FILES`] module, every rewrite-application site
/// (see [`REWRITE_APPLY`]) must have a containment-verification call (see
/// [`REWRITE_VERIFY`]) earlier in the same function — a rewrite admitted
/// without two-way language inclusion is unsound by construction.
/// Audited exceptions carry [`ALLOW_UNVERIFIED`] on the line or the line
/// above; `#[cfg(test)]` blocks and comment lines are skipped.
pub fn lint_unverified_rewrite(path: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines: Vec<&str> = content.lines().collect();
    let mut i = 0usize;
    let mut skip_depth: Option<i64> = None; // brace depth at cfg(test) entry
    let mut depth: i64 = 0;
    while i < lines.len() {
        let line = lines[i];
        let code = strip_comment(line);
        if skip_depth.is_none() && code.contains("#[cfg(test)]") {
            skip_depth = Some(depth);
        }
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        depth += opens - closes;
        if let Some(d) = skip_depth {
            if depth <= d && closes > 0 {
                skip_depth = None;
            }
            i += 1;
            continue;
        }
        for needle in REWRITE_APPLY {
            if !code.contains(needle) {
                continue;
            }
            let allowed = line.contains(ALLOW_UNVERIFIED)
                || (i > 0 && lines[i - 1].contains(ALLOW_UNVERIFIED));
            if allowed {
                continue;
            }
            // scan back to the enclosing `fn` line; any verification
            // token in that window dominates the application site
            let fn_line = (0..=i)
                .rev()
                .find(|&j| strip_comment(lines[j]).contains("fn "))
                .unwrap_or(0);
            let verified = (fn_line..=i).any(|j| {
                let c = strip_comment(lines[j]);
                REWRITE_VERIFY.iter().any(|v| c.contains(v))
            });
            if !verified {
                out.push(Violation {
                    file: path.to_string(),
                    line: i + 1,
                    message: format!(
                        "`{needle}` rewrite application without a containment check earlier \
                         in the function — verify with two-way language inclusion, or audit \
                         with `// {ALLOW_UNVERIFIED}: why this is sound`"
                    ),
                });
            }
        }
        i += 1;
    }
    out
}

/// Files that implement the long-lived query service. Their per-request
/// path must never re-parse or re-compile: compilation belongs to the
/// cold path behind the prepared-plan cache, executed once per distinct
/// query text.
pub const SERVER_FILES: &[&str] = &["crates/core/src/server.rs"];

/// Marker that exempts one audited compilation site from
/// [`lint_cold_path`]. Put it on the offending line or the line just
/// above, with a word on why the site runs once per distinct query (not
/// once per request).
pub const ALLOW_COLD_PATH: &str = "lint:allow(cold-path)";

/// Tokens that do query-compilation work: any parsing (including key
/// normalization via `unparse`), the planner's shared compile step
/// (`planner::compile`, which runs analysis, minimization and
/// `PreparedQuery::build`) and plan compilation itself. A request that
/// hits the cache must touch none of these.
const COLD_PATH_TOKENS: &[&str] = &["parse", "compile(", "PreparedQuery::build"];

/// Rule 10: in a [`SERVER_FILES`] module, every compilation-work site
/// (see [`COLD_PATH_TOKENS`]) must be an audited cold-path site carrying
/// [`ALLOW_COLD_PATH`] on the line or the line above — otherwise a cache
/// hit would silently repeat the work the cache exists to amortize.
/// Import lines (`use …` names `parse_query` legitimately),
/// `#[cfg(test)]` blocks and comment lines are skipped.
pub fn lint_cold_path(path: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines: Vec<&str> = content.lines().collect();
    let mut i = 0usize;
    let mut skip_depth: Option<i64> = None; // brace depth at cfg(test) entry
    let mut depth: i64 = 0;
    while i < lines.len() {
        let line = lines[i];
        let code = strip_comment(line);
        if skip_depth.is_none() && code.contains("#[cfg(test)]") {
            skip_depth = Some(depth);
        }
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        depth += opens - closes;
        if let Some(d) = skip_depth {
            if depth <= d && closes > 0 {
                skip_depth = None;
            }
            i += 1;
            continue;
        }
        let trimmed = code.trim_start();
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            i += 1;
            continue;
        }
        for needle in COLD_PATH_TOKENS {
            if !code.contains(needle) {
                continue;
            }
            let allowed =
                line.contains(ALLOW_COLD_PATH) || (i > 0 && lines[i - 1].contains(ALLOW_COLD_PATH));
            if !allowed {
                out.push(Violation {
                    file: path.to_string(),
                    line: i + 1,
                    message: format!(
                        "`{needle}` compilation work in the query service — move it behind \
                         the prepared-plan cache, or audit the cold-path site with \
                         `// {ALLOW_COLD_PATH}: why this runs once per distinct query`"
                    ),
                });
            }
            break; // one violation per line is enough
        }
        i += 1;
    }
    out
}

/// Files that drive experiments. All experiment configuration goes
/// through the declarative specs under `experiments/` and all trajectory
/// JSON through the harness aggregator — these bins must not grow back
/// the hand-rolled `ECRPQ_E*` env knobs or ad-hoc JSON writers the
/// harness replaced.
pub const EXPERIMENT_BIN_FILES: &[&str] = &[
    "crates/bench/src/bin/experiments.rs",
    "crates/bench/src/bin/harness.rs",
];

/// Marker that exempts one audited site from [`lint_harness_bypass`].
/// Put it on the offending line or the line just above, with a word on
/// why the site legitimately bypasses the spec/aggregate contract.
pub const ALLOW_HARNESS_BYPASS: &str = "lint:allow(harness-bypass)";

/// Rule 11: experiment bins (see [`EXPERIMENT_BIN_FILES`]) must not read
/// per-experiment `ECRPQ_E<digit>…` environment variables (sizes and
/// output paths live in the spec's `[workload]`/`[smoke]` tables) and
/// must not write files directly (per-trial and aggregate JSON is
/// written by `ecrpq_bench::harness` under its content-addressed keys) —
/// unless the site carries [`ALLOW_HARNESS_BYPASS`]. Comment lines and
/// `#[cfg(test)]` blocks are skipped.
pub fn lint_harness_bypass(path: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines: Vec<&str> = content.lines().collect();
    let mut i = 0usize;
    let mut skip_depth: Option<i64> = None; // brace depth at cfg(test) entry
    let mut depth: i64 = 0;
    while i < lines.len() {
        let line = lines[i];
        let code = strip_comment(line);
        if skip_depth.is_none() && code.contains("#[cfg(test)]") {
            skip_depth = Some(depth);
        }
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        depth += opens - closes;
        if let Some(d) = skip_depth {
            if depth <= d && closes > 0 {
                skip_depth = None;
            }
            i += 1;
            continue;
        }
        let allowed = line.contains(ALLOW_HARNESS_BYPASS)
            || (i > 0 && lines[i - 1].contains(ALLOW_HARNESS_BYPASS));
        let env_knob = match_positions(code, "ECRPQ_E")
            .into_iter()
            .any(|p| code[p + "ECRPQ_E".len()..].starts_with(|c: char| c.is_ascii_digit()));
        if env_knob && !allowed {
            out.push(Violation {
                file: path.to_string(),
                line: i + 1,
                message: format!(
                    "per-experiment env knob in an experiment bin — sizes belong in the \
                     spec's `[workload]`/`[smoke]` tables under `experiments/`, or audit \
                     with `// {ALLOW_HARNESS_BYPASS}: why`"
                ),
            });
        } else if code.contains("fs::write") && !allowed {
            out.push(Violation {
                file: path.to_string(),
                line: i + 1,
                message: format!(
                    "ad-hoc file write in an experiment bin — trajectory JSON is written \
                     by the harness aggregator under its content-addressed key, or audit \
                     with `// {ALLOW_HARNESS_BYPASS}: why`"
                ),
            });
        }
        i += 1;
    }
    out
}

/// Drops a trailing `// …` comment (naive: does not parse string
/// literals, which is fine for the policy rules above).
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(p) => &line[..p],
        None => line,
    }
}

/// Byte offsets of every occurrence of `needle` in `hay`.
fn match_positions(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(p) = hay[start..].find(needle) {
        out.push(start + p);
        start += p + needle.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forbid_unsafe_fires_on_missing_attribute() {
        let v = lint_forbid_unsafe("crates/foo/src/lib.rs", "#![warn(missing_docs)]\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("forbid(unsafe_code)"));
        assert!(lint_forbid_unsafe("x", "#![forbid(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn default_hasher_fires_on_std_map_but_not_fnv() {
        let bad = "    let m: HashMap<u32, u32> = HashMap::default();\n";
        let v = lint_default_hasher("crates/core/src/product.rs", bad);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 1);
        let good = "    let m: FnvHashMap<u32, u32> = FnvHashMap::default();\n";
        assert!(lint_default_hasher("crates/core/src/product.rs", good).is_empty());
        // comments and fnv re-export lines don't count
        assert!(lint_default_hasher("f", "// a HashMap here\n").is_empty());
        assert!(lint_default_hasher("f", "use crate::fnv::{FnvHashMap as HashMap};\n").is_empty());
    }

    #[test]
    fn unwrap_fires_outside_tests_only() {
        let src = "\
fn lib_code() {
    let x = foo().unwrap();
}
#[cfg(test)]
mod tests {
    fn t() {
        let y = bar().unwrap();
    }
}
";
        let v = lint_unwrap("crates/foo/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unwrap_respects_allow_marker_and_comments() {
        let audited = "\
fn f() {
    // lint:allow(unwrap): domain is never empty here
    let x = foo().unwrap();
    let y = bar().expect(\"always\"); // lint:allow(unwrap): invariant
}
";
        assert!(lint_unwrap("f", audited).is_empty());
        assert!(lint_unwrap("f", "// .unwrap() in prose\n").is_empty());
        assert!(lint_unwrap("f", "/// doc: .expect(reason)\n").is_empty());
        // unwrap_or_* are fine
        assert!(lint_unwrap("f", "let x = foo().unwrap_or(0);\n").is_empty());
        let v = lint_unwrap("f", "let x = foo().expect(\"boom\");\n");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn code_after_test_mod_is_linted_again() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { a().unwrap(); }
}
fn lib_code() {
    b().unwrap();
}
";
        let v = lint_unwrap("f", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn budget_checkpoint_fires_on_unguarded_worklist_loop() {
        let bad = "\
fn sweep() {
    while let Some(x) = stack.pop() {
        expand(x);
    }
}
";
        let v = lint_budget_checkpoints("crates/core/src/semijoin.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("unguarded worklist loop"));
    }

    #[test]
    fn budget_checkpoint_accepts_ticked_loops_and_markers() {
        let ticked = "\
fn sweep() {
    while let Some(x) = stack.pop() {
        if pacer.tick() {
            return None;
        }
        expand(x);
    }
}
";
        assert!(lint_budget_checkpoints("f", ticked).is_empty());
        let marked = "\
fn trace() {
    while let Some(p) = parent.get(&cur) {
        // lint:allow(unguarded-loop): O(path-length) trace rebuild
        cur = p;
    }
}
";
        assert!(lint_budget_checkpoints("f", marked).is_empty());
        // a checkpoint-flavoured call in a nested helper position counts
        let checkpointed = "\
fn drain() {
    while let Some(x) = q.pop_front() {
        if governor.checkpoint(1) {
            break;
        }
    }
}
";
        assert!(lint_budget_checkpoints("f", checkpointed).is_empty());
        // a guarded loop followed by an unguarded one: only the second fires
        let mixed = "\
fn both() {
    while let Some(x) = a.pop() {
        pacer.tick();
    }
    while let Some(y) = b.pop() {
        expand(y);
    }
}
";
        let v = lint_budget_checkpoints("f", mixed);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn tick_traced_counts_as_a_checkpoint() {
        let traced = "\
fn sweep() {
    while let Some(x) = stack.pop() {
        if pacer.tick_traced(tracer, Phase::Semijoin) {
            return None;
        }
        expand(x);
    }
}
";
        assert!(lint_budget_checkpoints("crates/core/src/semijoin.rs", traced).is_empty());
    }

    #[test]
    fn raw_clock_fires_outside_the_tracer() {
        let bad = "fn f() {\n    let t0 = Instant::now();\n}\n";
        let v = lint_raw_clock("crates/core/src/product.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("PhaseSpan"));
        let sys = "let t = std::time::SystemTime::now();\n";
        assert_eq!(lint_raw_clock("f", sys).len(), 1);
    }

    /// The search cursor in `enumerate.rs` is the product family's only
    /// backtracker, so it is held to the same clock rule as the BFS.
    #[test]
    fn raw_clock_fires_in_the_search_cursor() {
        let path = "crates/core/src/enumerate.rs";
        assert!(CLOCK_HOT_FILES.contains(&path));
        assert!(BUDGET_HOT_FILES.contains(&path));
        assert!(HOT_PATH_FILES.contains(&path));
        let bad = "fn next_assignment() {\n    let t0 = Instant::now();\n}\n";
        let v = lint_raw_clock(path, bad);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].file.as_str(), v[0].line), (path, 2));
    }

    #[test]
    fn raw_clock_respects_marker_and_comments() {
        let audited = "\
fn f() {
    // lint:allow(raw-clock): once per run, outside the search loop
    let t0 = Instant::now();
    let t1 = Instant::now(); // lint:allow(raw-clock): cold path
}
";
        assert!(lint_raw_clock("f", audited).is_empty());
        assert!(lint_raw_clock("f", "// Instant::now() in prose\n").is_empty());
        assert!(lint_raw_clock("f", "/// doc about Instant::now()\n").is_empty());
    }

    #[test]
    fn scalar_probe_fires_in_kernel_code() {
        let bad = "\
fn expand() {
    if visited.get(&idx).is_none() {
        frontier.insert(idx);
    }
}
";
        let v = lint_scalar_probe("crates/core/src/bitbfs.rs", bad);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].line, 3);
        assert!(v[0].message.contains("scalar probe"));
    }

    #[test]
    fn scalar_probe_respects_marker_tests_and_comments() {
        let audited = "\
fn expand() {
    // lint:allow(scalar-probe): one lookup per atom, not per config
    let dense = tables.get(&atom);
    let x = cache.insert(k, v); // lint:allow(scalar-probe): setup path
}
";
        assert!(lint_scalar_probe("f", audited).is_empty());
        assert!(lint_scalar_probe("f", "// .get( in prose\n").is_empty());
        // word-at-a-time accessors are fine: the rule names probes only
        assert!(lint_scalar_probe("f", "let w = words.get_mut(i);\n").is_empty());
        let test_only = "\
#[cfg(test)]
mod tests {
    fn t() {
        assert!(seen.insert(cfg));
    }
}
";
        assert!(lint_scalar_probe("f", test_only).is_empty());
    }

    #[test]
    fn materialize_fires_in_enumerator_code() {
        let bad = "\
fn drain() {
    let all = answers.iter().collect::<Vec<_>>();
    buffer.push(tuple);
}
";
        let v = lint_materialize("crates/core/src/enumerate.rs", bad);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].line, 3);
        assert!(v[0].message.contains("streaming enumerator"));
    }

    #[test]
    fn materialize_respects_marker_tests_and_comments() {
        let audited = "\
fn build() {
    // lint:allow(materialize): once per query, O(#vars), not per answer
    let order = tree_order.collect::<Vec<_>>();
    steps.push(step); // lint:allow(materialize): setup-time step program
}
";
        assert!(lint_materialize("f", audited).is_empty());
        assert!(lint_materialize("f", "// .push( in prose\n").is_empty());
        let test_only = "\
#[cfg(test)]
mod tests {
    fn t() {
        got.push(ans);
    }
}
";
        assert!(lint_materialize("f", test_only).is_empty());
    }

    #[test]
    fn tracked_target_fires_per_artifact() {
        let files = ["src/lib.rs", "target/debug/foo.d", "crates/a/src/lib.rs"];
        let v = lint_tracked_target(files.iter().copied());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].file, "target/debug/foo.d");
        assert!(lint_tracked_target(["src/lib.rs"].iter().copied()).is_empty());
    }

    #[test]
    fn unverified_rewrite_fires_without_domination() {
        let bad = "\
fn apply(atoms: &[Atom]) {
    dropped[0] = true;
    candidates.push((step, q2));
}
";
        let v = lint_unverified_rewrite("crates/core/src/optimize.rs", bad);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].line, 3);
        assert!(v[0].message.contains("containment check"));
    }

    #[test]
    fn unverified_rewrite_accepts_dominated_sites() {
        let good = "\
fn apply(atoms: &[Atom]) {
    if atoms[i].rel.is_subset_of(&atoms[j].rel) {
        dropped[j] = true;
    }
    match verify_equiv(&a, &b, cfg) {
        Verdict::Verified => candidates.push((step, q2)),
        _ => {}
    }
}
";
        assert!(lint_unverified_rewrite("f", good).is_empty());
    }

    #[test]
    fn unverified_rewrite_respects_marker_tests_and_fn_boundaries() {
        let audited = "\
fn apply() {
    // lint:allow(unverified-rewrite): bookkeeping only, no language change
    dropped[0] = true;
}
";
        assert!(lint_unverified_rewrite("f", audited).is_empty());
        assert!(lint_unverified_rewrite("f", "// dropped[ in prose\n").is_empty());
        let test_only = "\
#[cfg(test)]
mod tests {
    fn t() {
        candidates.push(x);
    }
}
";
        assert!(lint_unverified_rewrite("f", test_only).is_empty());
        // a verification in an *earlier* function must not dominate
        let other_fn = "\
fn checker(a: &SyncRel, b: &SyncRel) -> bool {
    a.is_subset_of(b)
}
fn apply() {
    dropped[0] = true;
}
";
        let v = lint_unverified_rewrite("f", other_fn);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn cold_path_fires_on_unaudited_compilation_work() {
        let bad = "\
fn handle(&self, text: &str) {
    let q = parse_query(text, &mut alphabet, &registry);
    let p = PreparedQuery::build(&q);
}
";
        let v = lint_cold_path("crates/core/src/server.rs", bad);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("`parse`"));
        assert_eq!(v[1].line, 3);
        assert!(v[1].message.contains("PreparedQuery::build"));
    }

    #[test]
    fn cold_path_fires_on_unaudited_compile_step() {
        let bad = "\
fn execute(&self, query: &Ecrpq) {
    let c = planner::compile(&self.db, query, &NoopTracer);
}
";
        let v = lint_cold_path("crates/core/src/server.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("`compile(`"), "{}", v[0].message);
        let audited = "\
fn prepare_cold(&self, query: &Ecrpq) {
    // lint:allow(cold-path): compiled once per distinct query text
    let c = planner::compile(&self.db, query, &NoopTracer);
}
";
        assert!(lint_cold_path("crates/core/src/server.rs", audited).is_empty());
    }

    #[test]
    fn cold_path_respects_marker_imports_tests_and_comments() {
        let audited = "\
fn prepare_cold(&self, text: &str) {
    // lint:allow(cold-path): one parse per distinct query text
    let q = parse_query(text, &mut alphabet, &registry);
    // lint:allow(cold-path): compiled once, reused by every execution
    let p = PreparedQuery::build(&q);
}
";
        assert!(lint_cold_path("f", audited).is_empty());
        // import lines legitimately name parse_query; comments are prose
        assert!(lint_cold_path("f", "use ecrpq_query::{parse_query, unparse};\n").is_empty());
        assert!(lint_cold_path("f", "// the cache means no parse per request\n").is_empty());
        let test_only = "\
#[cfg(test)]
mod tests {
    fn t() {
        let q = parse_query(text, &mut alphabet, &registry);
    }
}
";
        assert!(lint_cold_path("f", test_only).is_empty());
        // `unparse` carries the `parse` token: key normalization must be
        // audited too, and the marker on the same line also counts
        let same_line = "fn k(q: &Ecrpq) { unparse(q) } // lint:allow(cold-path): once per text\n";
        assert!(lint_cold_path("f", same_line).is_empty());
        let v = lint_cold_path("f", "fn k(q: &Ecrpq) -> String { unparse(q) }\n");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn harness_bypass_flags_env_knobs_and_adhoc_writes() {
        let bad = "\
fn e19_bitparallel() {
    let nodes = std::env::var(\"ECRPQ_E19_NODES\").ok();
    fs::write(\"BENCH_bitparallel.json\", body)?;
}
";
        let v = lint_harness_bypass("crates/bench/src/bin/experiments.rs", bad);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("env knob"));
        assert_eq!(v[1].line, 3);
        assert!(v[1].message.contains("file write"));
    }

    #[test]
    fn harness_bypass_requires_a_digit_after_the_prefix() {
        // the crate's own env namespace without an experiment number is
        // not a per-experiment knob (e.g. a hypothetical ECRPQ_EFFORT)
        assert!(lint_harness_bypass("f", "let v = env::var(\"ECRPQ_EFFORT\");\n").is_empty());
        let v = lint_harness_bypass("f", "let v = env::var(\"ECRPQ_E22_QPS\");\n");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn harness_bypass_respects_marker_tests_and_comments() {
        let audited = "\
fn dump() {
    // lint:allow(harness-bypass): debug dump behind an explicit flag
    fs::write(path, body)?;
    fs::write(other, body)?; // lint:allow(harness-bypass): same dump
}
";
        assert!(lint_harness_bypass("f", audited).is_empty());
        // comments are prose; cfg(test) fixtures may write scratch files
        assert!(lint_harness_bypass("f", "// replaced the ECRPQ_E19_NODES knob\n").is_empty());
        let test_only = "\
#[cfg(test)]
mod tests {
    fn t() {
        fs::write(dir.join(\"spec.toml\"), src).unwrap();
    }
}
";
        assert!(lint_harness_bypass("f", test_only).is_empty());
        let v = lint_harness_bypass("f", "fn d() { fs::write(p, b) }\n");
        assert_eq!(v.len(), 1);
    }
}
