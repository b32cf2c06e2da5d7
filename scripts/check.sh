#!/usr/bin/env bash
# Repository gate: formatting, lints, and the tier-1 build+test cycle.
# Everything runs offline against the workspace's own dependency shims.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: tests =="
cargo test -q --offline --workspace

echo "== benchmark build + self-tests (perfbench/, its own workspace) =="
# the benchmark imports engine, planner and service entry points by name;
# nothing else in this gate compiles it
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== differential suites (evaluator equivalence, layout + parallel + budget + oracle) =="
cargo test -q --offline --test differential --test parallel_differential --test layout_differential \
  --test budget_differential --test oracle_differential --test metrics_invariants \
  --test trace_observability --test minimize_differential --test server_differential \
  --test harness_roundtrip --test harness_diff

echo "== xtask lint (repo policy) =="
cargo run -q -p xtask --offline -- lint

echo "== experiment harness smoke (E18-E22 via their committed specs) =="
# each spec's [smoke] table shrinks the workload to a seconds-scale size
# while keeping the full trial path — generator, correctness assertions,
# per-trial caching — and the harness diff gates the smoke aggregate's
# key set against the committed full-size trajectory (--keys-only: smoke
# timings are not comparable to full-size timings, the schema is). E18
# has no [smoke] table: its full-size run already takes well under a
# second
harness() { cargo run -q --release --offline -p ecrpq-bench --bin harness -- "$@"; }
for pair in e18:BENCH_observability.json e19:BENCH_bitparallel.json \
            e20:BENCH_yannakakis.json e21:BENCH_minimize.json \
            e22:BENCH_server.json; do
  exp="${pair%%:*}" bench="${pair#*:}"
  harness run "experiments/$exp.toml" --smoke --out "target/${exp}_smoke.json"
  harness diff "target/${exp}_smoke.json" --against "$bench" --keys-only \
    || { echo "$exp smoke schema drifted from $bench"; exit 1; }
done

echo "== harness resume gate (warm rerun must execute zero trials) =="
# the e19 smoke trials above are now cached under their content-addressed
# keys; a warm rerun with --require-warm fails if any trial re-executes
harness run experiments/e19.toml --smoke --out target/e19_smoke.json --require-warm

echo "== harness regression gate (self-diff clean, planted slowdown caught) =="
# the committed trajectory diffed against itself must pass...
harness diff BENCH_bitparallel.json --against BENCH_bitparallel.json --spec experiments/e19.toml
# ...and with every fresh metric degraded 2x it must fail with exit 1
if harness diff BENCH_bitparallel.json --against BENCH_bitparallel.json \
     --spec experiments/e19.toml --planted 2.0 > /dev/null; then
  echo "harness diff did not catch a planted 2x slowdown"; exit 1
fi

echo "== analyze --fix idempotence (on corpus copies, never in place) =="
# pass 1 over pristine copies may apply fixes; pass 2 must apply zero and
# leave every file byte-identical — the --fix contract the W006
# suggestions promise
rm -rf target/fix_idempotence target/fix_idempotence_pass1
mkdir -p target/fix_idempotence
cp queries/*.ecrpq target/fix_idempotence/
cargo run -q --release --offline -p ecrpq-bench --bin analyze -- --fix \
  target/fix_idempotence/*.ecrpq > /dev/null
cp -r target/fix_idempotence target/fix_idempotence_pass1
second=$(cargo run -q --release --offline -p ecrpq-bench --bin analyze -- --fix \
  target/fix_idempotence/*.ecrpq)
# contract: --fix prints one "<path>: <n> fix(es) applied" summary line per
# input file. The gate must anchor on those summary lines only — a bare
# `grep -qv` over the whole output would "fail" on any blank or
# informational line that legitimately isn't a summary line.
if echo "$second" | grep ' fix(es) applied' | grep -qv ': 0 fix(es) applied'; then
  echo "analyze --fix is not idempotent:"; echo "$second"; exit 1
fi
diff -r target/fix_idempotence target/fix_idempotence_pass1 \
  || { echo "analyze --fix second pass changed files"; exit 1; }

echo "== analyze CLI over the query corpus + workloads =="
cargo run -q --release --offline -p ecrpq-bench --bin analyze -- queries/*.ecrpq --workloads

echo "== analyze --trace (per-query phase tables) =="
cargo run -q --release --offline -p ecrpq-bench --bin analyze -- queries/*.ecrpq --trace > /dev/null

echo "== cargo doc (deny warnings) =="
# every crate of the workspace, the vendored shims (rand/proptest)
# included: deleting a public item must not leave a dangling intra-doc
# link anywhere
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "All checks passed."
