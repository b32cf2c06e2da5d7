//! Experiment specs: the declarative description of one experiment.
//!
//! A spec names a workload generator with parameters, a trial matrix
//! (cartesian product of axes), repetition count, the aggregate output
//! path, optional `[gate]` minimums enforced at aggregation, optional
//! `[tolerance]` overrides for `harness diff`, and an optional `[smoke]`
//! table of workload overrides for fast CI runs. The canonical
//! serialization of the *effective* spec (after smoke overrides) is
//! hashed (FNV-1a 64) to form the content-addressed results directory:
//! edit any parameter and cached trials are invalidated automatically.

use super::toml::{self, TomlDoc, TomlValue};
use std::collections::BTreeMap;
use std::path::Path;

/// A scalar spec value (matrix axes and workload parameters).
#[derive(Debug, Clone, PartialEq)]
pub enum SpecValue {
    /// A string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl SpecValue {
    /// Canonical rendering: the form used in trial keys, generator
    /// parameters, and the hashed serialization. Floats always carry a
    /// decimal point so they stay distinguishable from integers.
    pub fn render(&self) -> String {
        match self {
            SpecValue::Str(s) => s.clone(),
            SpecValue::Int(v) => v.to_string(),
            SpecValue::Float(v) => {
                let s = v.to_string();
                if s.contains('.') || s.contains('e') {
                    s
                } else {
                    format!("{s}.0")
                }
            }
            SpecValue::Bool(b) => b.to_string(),
        }
    }

    fn from_toml(v: &TomlValue) -> Result<SpecValue, String> {
        match v {
            TomlValue::Str(s) => Ok(SpecValue::Str(s.clone())),
            TomlValue::Int(v) => Ok(SpecValue::Int(*v)),
            TomlValue::Float(v) => Ok(SpecValue::Float(*v)),
            TomlValue::Bool(b) => Ok(SpecValue::Bool(*b)),
            TomlValue::Arr(_) => Err("arrays are only allowed as matrix axes".to_string()),
        }
    }
}

/// One trial's coordinates in the matrix: `(axis, value)` pairs in axis
/// order.
pub type TrialParams = Vec<(String, SpecValue)>;

/// A parsed experiment spec. Field order mirrors the TOML layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Short name (`e19`); names the spec in logs and default paths.
    pub name: String,
    /// One-line human description.
    pub title: String,
    /// Trial-kind dispatched on by `run_trial`.
    pub kind: String,
    /// Aggregate output path for full-size runs (`BENCH_*.json`).
    pub output: String,
    /// Repetitions per timed measurement (median is reported).
    pub reps: usize,
    /// `[workload]` bindings; must include `generator`.
    pub workload: Vec<(String, SpecValue)>,
    /// `[workload.<name>]` variants, selected by a `workload` matrix axis.
    pub variants: Vec<(String, Vec<(String, SpecValue)>)>,
    /// `[matrix]` axes in source order; the first axis varies slowest.
    pub matrix: Vec<(String, Vec<SpecValue>)>,
    /// `[gate]` minimums checked against the flattened aggregate.
    pub gate: Vec<(String, f64)>,
    /// `[tolerance]` per-metric relative tolerances for `harness diff`.
    pub tolerance: Vec<(String, f64)>,
    /// `[smoke]` workload overrides (plus the special key `reps`).
    pub smoke: Vec<(String, SpecValue)>,
}

impl Spec {
    /// Parses a spec from TOML source.
    pub fn parse(src: &str) -> Result<Spec, String> {
        Spec::from_doc(&toml::parse(src)?)
    }

    /// Loads and parses a spec file.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&src).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn from_doc(doc: &TomlDoc) -> Result<Spec, String> {
        let root = doc.section("").ok_or("missing top-level keys")?;
        let get_str = |key: &str| -> Result<String, String> {
            match root.iter().find(|(k, _)| k == key) {
                Some((_, TomlValue::Str(s))) => Ok(s.clone()),
                Some(_) => Err(format!("`{key}` must be a string")),
                None => Err(format!("missing required key `{key}`")),
            }
        };
        let reps = match root.iter().find(|(k, _)| k == "reps") {
            Some((_, TomlValue::Int(v))) if *v >= 1 => *v as usize,
            Some(_) => return Err("`reps` must be a positive integer".to_string()),
            None => 1,
        };
        for (k, _) in root {
            if !matches!(k.as_str(), "name" | "title" | "kind" | "output" | "reps") {
                return Err(format!("unknown top-level key `{k}`"));
            }
        }

        let scalar_section = |name: &str| -> Result<Vec<(String, SpecValue)>, String> {
            doc.section(name).map_or(Ok(Vec::new()), |bindings| {
                bindings
                    .iter()
                    .map(|(k, v)| {
                        SpecValue::from_toml(v)
                            .map(|sv| (k.clone(), sv))
                            .map_err(|e| format!("[{name}] {k}: {e}"))
                    })
                    .collect()
            })
        };
        let float_section = |name: &str| -> Result<Vec<(String, f64)>, String> {
            doc.section(name).map_or(Ok(Vec::new()), |bindings| {
                bindings
                    .iter()
                    .map(|(k, v)| match v {
                        TomlValue::Float(f) => Ok((k.clone(), *f)),
                        TomlValue::Int(i) => Ok((k.clone(), *i as f64)),
                        _ => Err(format!("[{name}] {k}: must be a number")),
                    })
                    .collect()
            })
        };

        let workload = scalar_section("workload")?;
        if doc.section("workload").is_some() && !workload.iter().any(|(k, _)| k == "generator") {
            return Err("[workload] must name a `generator`".to_string());
        }

        let mut variants = Vec::new();
        for (section, _) in &doc.sections {
            if let Some(variant) = section.strip_prefix("workload.") {
                let bindings = scalar_section(section)?;
                if !bindings.iter().any(|(k, _)| k == "generator") {
                    return Err(format!("[{section}] must name a `generator`"));
                }
                variants.push((variant.to_string(), bindings));
            } else if !matches!(
                section.as_str(),
                "" | "workload" | "matrix" | "gate" | "tolerance" | "smoke"
            ) {
                return Err(format!("unknown section `[{section}]`"));
            }
        }

        let mut matrix = Vec::new();
        for (axis, v) in doc.section("matrix").unwrap_or(&[]) {
            let TomlValue::Arr(items) = v else {
                return Err(format!("[matrix] {axis}: must be an array"));
            };
            if items.is_empty() {
                return Err(format!("[matrix] {axis}: empty axis"));
            }
            let values: Result<Vec<SpecValue>, String> = items
                .iter()
                .map(|item| SpecValue::from_toml(item).map_err(|e| format!("[matrix] {axis}: {e}")))
                .collect();
            matrix.push((axis.clone(), values?));
        }

        if matrix.iter().any(|(axis, _)| axis == "workload") && variants.is_empty() {
            return Err("matrix axis `workload` needs [workload.<name>] variants".to_string());
        }

        Ok(Spec {
            name: get_str("name")?,
            title: get_str("title").unwrap_or_default(),
            kind: get_str("kind")?,
            output: get_str("output")?,
            reps,
            workload,
            variants,
            matrix,
            gate: float_section("gate")?,
            tolerance: float_section("tolerance")?,
            smoke: scalar_section("smoke")?,
        })
    }

    /// The effective spec after applying `[smoke]` overrides: each smoke
    /// binding replaces (or adds) the same-named workload parameter in the
    /// base workload *and every variant*; the special key `reps` replaces
    /// [`Spec::reps`]. The smoke table itself is cleared, so the smoke
    /// spec's canonical hash differs from the full-size spec's and the two
    /// never share cached trials.
    pub fn apply_smoke(&self) -> Spec {
        let mut out = self.clone();
        for (k, v) in &self.smoke {
            if k == "reps" {
                if let SpecValue::Int(r) = v {
                    out.reps = (*r).max(1) as usize;
                }
                continue;
            }
            override_binding(&mut out.workload, k, v);
            for (_, bindings) in &mut out.variants {
                override_binding(bindings, k, v);
            }
        }
        out.smoke.clear();
        out
    }

    /// Serializes this spec back to TOML. `Spec::parse(&spec.to_toml())`
    /// yields an equal spec — the round-trip the golden tests pin.
    /// (Comments and key order of the source file are not preserved;
    /// [`Spec::canonical`] is the order-insensitive hashing form.)
    pub fn to_toml(&self) -> String {
        fn toml_value(v: &SpecValue) -> String {
            match v {
                SpecValue::Str(s) => format!("\"{s}\""),
                other => other.render(),
            }
        }
        fn float_lit(v: f64) -> String {
            let s = v.to_string();
            if s.contains('.') || s.contains('e') {
                s
            } else {
                format!("{s}.0")
            }
        }
        fn section(out: &mut String, header: &str, bindings: &[(String, SpecValue)]) {
            if bindings.is_empty() {
                return;
            }
            out.push_str(&format!("\n[{header}]\n"));
            for (k, v) in bindings {
                out.push_str(&format!("{k} = {}\n", toml_value(v)));
            }
        }
        fn floats(out: &mut String, header: &str, entries: &[(String, f64)]) {
            if entries.is_empty() {
                return;
            }
            out.push_str(&format!("\n[{header}]\n"));
            for (k, v) in entries {
                out.push_str(&format!("{k} = {}\n", float_lit(*v)));
            }
        }
        let mut out = String::new();
        out.push_str(&format!("name = \"{}\"\n", self.name));
        out.push_str(&format!("title = \"{}\"\n", self.title));
        out.push_str(&format!("kind = \"{}\"\n", self.kind));
        out.push_str(&format!("output = \"{}\"\n", self.output));
        out.push_str(&format!("reps = {}\n", self.reps));
        section(&mut out, "workload", &self.workload);
        for (name, bindings) in &self.variants {
            section(&mut out, &format!("workload.{name}"), bindings);
        }
        if !self.matrix.is_empty() {
            out.push_str("\n[matrix]\n");
            for (axis, values) in &self.matrix {
                let rendered: Vec<String> = values.iter().map(toml_value).collect();
                out.push_str(&format!("{axis} = [{}]\n", rendered.join(", ")));
            }
        }
        floats(&mut out, "gate", &self.gate);
        floats(&mut out, "tolerance", &self.tolerance);
        section(&mut out, "smoke", &self.smoke);
        out
    }

    /// Deterministic canonical serialization: every field rendered with
    /// sorted sections and keys. Two specs with the same meaning hash the
    /// same even if their TOML differs in order or comments.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "name={}\nkind={}\noutput={}\nreps={}\n",
            self.name, self.kind, self.output, self.reps
        ));
        let mut push_bindings = |label: &str, bindings: &[(String, SpecValue)]| {
            let mut sorted: Vec<_> = bindings.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            for (k, v) in sorted {
                out.push_str(&format!("{label}.{k}={}\n", v.render()));
            }
        };
        push_bindings("workload", &self.workload);
        let mut variants: Vec<_> = self.variants.iter().collect();
        variants.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, bindings) in variants {
            push_bindings(&format!("workload.{name}"), bindings);
        }
        push_bindings("smoke", &self.smoke);
        for (axis, values) in &self.matrix {
            let rendered: Vec<String> = values.iter().map(SpecValue::render).collect();
            out.push_str(&format!("matrix.{axis}=[{}]\n", rendered.join(",")));
        }
        let mut push_floats = |label: &str, entries: &[(String, f64)]| {
            let mut sorted: Vec<_> = entries.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            for (k, v) in sorted {
                out.push_str(&format!("{label}.{k}={v}\n"));
            }
        };
        push_floats("gate", &self.gate);
        push_floats("tolerance", &self.tolerance);
        out
    }

    /// FNV-1a 64 hash of [`Spec::canonical`], as 16 hex digits.
    pub fn hash(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.canonical().bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Expands the matrix into the trial list: the cartesian product of
    /// the axes with the *first* axis varying slowest (so a committed row
    /// order is expressed by axis order in the spec). A spec with no
    /// matrix has exactly one trial with empty params.
    pub fn trials(&self) -> Vec<TrialParams> {
        let mut trials: Vec<TrialParams> = vec![Vec::new()];
        for (axis, values) in &self.matrix {
            let mut next = Vec::with_capacity(trials.len() * values.len());
            for prefix in &trials {
                for value in values {
                    let mut t = prefix.clone();
                    t.push((axis.clone(), value.clone()));
                    next.push(t);
                }
            }
            trials = next;
        }
        trials
    }

    /// The file stem of a trial's cached result: `axis-value` pairs
    /// joined with `_`, or `single` for a matrix-less spec.
    pub fn trial_key(params: &TrialParams) -> String {
        if params.is_empty() {
            return "single".to_string();
        }
        params
            .iter()
            .map(|(k, v)| format!("{k}-{}", sanitize(&v.render())))
            .collect::<Vec<_>>()
            .join("_")
    }

    /// The workload bindings for one trial: the `[workload.<name>]`
    /// variant when the trial has a `workload` axis, otherwise the base
    /// `[workload]` table.
    pub fn workload_for(&self, params: &TrialParams) -> Result<&[(String, SpecValue)], String> {
        if let Some((_, v)) = params.iter().find(|(k, _)| k == "workload") {
            let name = v.render();
            return self
                .variants
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, b)| b.as_slice())
                .ok_or_else(|| format!("no [workload.{name}] variant in spec `{}`", self.name));
        }
        Ok(self.workload.as_slice())
    }

    /// A trial's workload as generator name + string parameters for
    /// [`ecrpq_workloads::generate`].
    pub fn generator_for(
        &self,
        params: &TrialParams,
    ) -> Result<(String, BTreeMap<String, String>), String> {
        let bindings = self.workload_for(params)?;
        let mut name = None;
        let mut gen_params = BTreeMap::new();
        for (k, v) in bindings {
            if k == "generator" {
                name = Some(v.render());
            } else {
                gen_params.insert(k.clone(), v.render());
            }
        }
        let name = name.ok_or_else(|| format!("spec `{}` names no generator", self.name))?;
        Ok((name, gen_params))
    }

    /// Integer workload parameter (base table only), with a default.
    pub fn workload_usize(&self, key: &str, default: usize) -> usize {
        match self.workload.iter().find(|(k, _)| k == key) {
            Some((_, SpecValue::Int(v))) => *v as usize,
            _ => default,
        }
    }

    /// String workload parameter (base table only).
    pub fn workload_str(&self, key: &str) -> Option<&str> {
        match self.workload.iter().find(|(k, _)| k == key) {
            Some((_, SpecValue::Str(s))) => Some(s),
            _ => None,
        }
    }
}

fn override_binding(bindings: &mut Vec<(String, SpecValue)>, key: &str, value: &SpecValue) {
    if let Some(slot) = bindings.iter_mut().find(|(k, _)| k == key) {
        slot.1 = value.clone();
    } else {
        bindings.push((key.to_string(), value.clone()));
    }
}

/// File-name-safe rendering of a trial value.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
name = "e99"
title = "example"
kind = "bitparallel"
output = "BENCH_example.json"
reps = 3

[workload]
generator = "planted_power_law"
nodes = 1000
sources = 4
seed = 2022

[matrix]
threads = [1, 2]
layout = ["flat", "bitparallel"]

[smoke]
nodes = 100
reps = 1

[tolerance]
configs_per_sec = 0.5
"#;

    #[test]
    fn parses_and_expands_first_axis_slowest() {
        let spec = Spec::parse(EXAMPLE).expect("parses");
        assert_eq!(spec.reps, 3);
        let trials = spec.trials();
        assert_eq!(trials.len(), 4);
        let keys: Vec<String> = trials.iter().map(Spec::trial_key).collect();
        assert_eq!(
            keys,
            vec![
                "threads-1_layout-flat",
                "threads-1_layout-bitparallel",
                "threads-2_layout-flat",
                "threads-2_layout-bitparallel",
            ]
        );
    }

    #[test]
    fn smoke_overrides_change_the_hash_and_the_workload() {
        let spec = Spec::parse(EXAMPLE).expect("parses");
        let smoke = spec.apply_smoke();
        assert_eq!(smoke.reps, 1);
        let (name, params) = smoke.generator_for(&Vec::new()).expect("generator");
        assert_eq!(name, "planted_power_law");
        assert_eq!(params.get("nodes").map(String::as_str), Some("100"));
        assert_ne!(spec.hash(), smoke.hash());
        assert_eq!(smoke.hash(), spec.apply_smoke().hash());
    }

    #[test]
    fn canonical_hash_ignores_key_order_but_not_values() {
        let a = Spec::parse(EXAMPLE).expect("parses");
        let reordered = EXAMPLE.replace(
            "generator = \"planted_power_law\"\nnodes = 1000",
            "nodes = 1000\ngenerator = \"planted_power_law\"",
        );
        assert_ne!(reordered, EXAMPLE);
        let b = Spec::parse(&reordered).expect("parses");
        assert_eq!(a.hash(), b.hash());
        let c = Spec::parse(&EXAMPLE.replace("seed = 2022", "seed = 2023")).expect("parses");
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn workload_variants_resolve_by_matrix_axis() {
        let src = r#"
name = "e98"
kind = "observability"
output = "BENCH_obs.json"

[matrix]
workload = ["fast", "slow"]

[workload.fast]
generator = "random"
nodes = 8

[workload.slow]
generator = "random"
nodes = 80
"#;
        let spec = Spec::parse(src).expect("parses");
        let trials = spec.trials();
        assert_eq!(trials.len(), 2);
        let (_, p) = spec.generator_for(&trials[1]).expect("variant");
        assert_eq!(p.get("nodes").map(String::as_str), Some("80"));
        let missing = vec![("workload".to_string(), SpecValue::Str("absent".into()))];
        assert!(spec.generator_for(&missing).is_err());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(Spec::parse("kind = \"x\"\noutput = \"y\"\n").is_err()); // no name
        assert!(Spec::parse("name = \"a\"\nkind = \"x\"\noutput = \"y\"\nbogus = 1\n").is_err());
        assert!(
            Spec::parse("name = \"a\"\nkind = \"x\"\noutput = \"y\"\n[workload]\nnodes = 1\n")
                .is_err(),
            "workload without generator"
        );
        assert!(
            Spec::parse("name = \"a\"\nkind = \"x\"\noutput = \"y\"\n[matrix]\nk = 3\n").is_err(),
            "non-array axis"
        );
        assert!(
            Spec::parse(
                "name = \"a\"\nkind = \"x\"\noutput = \"y\"\n[matrix]\nworkload = [\"w\"]\n"
            )
            .is_err(),
            "workload axis without variants"
        );
    }
}
