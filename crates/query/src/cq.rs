//! Conjunctive queries over relational structures.
//!
//! CQs are both the *target* of the tractability reduction (Lemma 4.3:
//! ECRPQ with bounded components → CQ over materialized relations) and the
//! *source* of the W\[1\]-hardness reduction (Lemma 5.3: `CQ_bin` over the
//! collapse multigraph → ECRPQ). This module holds the query and database
//! representations; evaluation algorithms live in `ecrpq-core`.

use ecrpq_structure::{Graph, MultiGraph};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A named relation instance: a set of tuples over `u32` domain elements.
#[derive(Debug, Clone, Default)]
pub struct RelationInstance {
    /// Arity of the relation.
    pub arity: usize,
    /// The tuples.
    pub tuples: HashSet<Vec<u32>>,
}

/// A relational structure with a finite domain `0..domain_size`.
#[derive(Debug, Clone, Default)]
pub struct RelationalDb {
    domain_size: usize,
    relations: HashMap<String, RelationInstance>,
}

impl RelationalDb {
    /// Creates an empty structure over `0..domain_size`.
    pub fn new(domain_size: usize) -> Self {
        RelationalDb {
            domain_size,
            relations: HashMap::new(),
        }
    }

    /// The domain size.
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// Declares a relation (idempotent).
    ///
    /// # Panics
    /// Panics if the relation exists with a different arity.
    pub fn declare(&mut self, name: &str, arity: usize) {
        let r = self
            .relations
            .entry(name.to_string())
            .or_insert_with(|| RelationInstance {
                arity,
                tuples: HashSet::new(),
            });
        assert_eq!(r.arity, arity, "relation {name} redeclared with new arity");
    }

    /// Inserts a tuple, declaring the relation if needed.
    ///
    /// # Panics
    /// Panics on arity mismatch or out-of-domain elements.
    pub fn insert(&mut self, name: &str, tuple: &[u32]) {
        assert!(
            tuple.iter().all(|&x| (x as usize) < self.domain_size),
            "tuple element out of domain"
        );
        self.declare(name, tuple.len());
        self.relations
            .get_mut(name)
            // lint:allow(unwrap): declare() on the line above inserts the relation
            .unwrap()
            .tuples
            .insert(tuple.to_vec());
    }

    /// Looks up a relation instance.
    pub fn relation(&self, name: &str) -> Option<&RelationInstance> {
        self.relations.get(name)
    }

    /// Mutable access to a relation instance (for bulk loading).
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut RelationInstance> {
        self.relations.get_mut(name)
    }

    /// Membership test (false for unknown relations).
    pub fn holds(&self, name: &str, tuple: &[u32]) -> bool {
        self.relations
            .get(name)
            .is_some_and(|r| r.tuples.contains(tuple))
    }

    /// Total number of tuples across relations.
    pub fn num_tuples(&self) -> usize {
        self.relations.values().map(|r| r.tuples.len()).sum()
    }

    /// Adds, for every binary relation `R`, its inverse `R⁻¹` (named
    /// `name^-1`) — the preprocessing step of Lemma 5.3.
    pub fn add_inverses(&mut self) {
        let binary: Vec<(String, Vec<Vec<u32>>)> = self
            .relations
            .iter()
            .filter(|(name, r)| r.arity == 2 && !name.ends_with("^-1"))
            .map(|(name, r)| (name.clone(), r.tuples.iter().cloned().collect()))
            .collect();
        for (name, tuples) in binary {
            let inv = format!("{name}^-1");
            self.declare(&inv, 2);
            for t in tuples {
                self.insert(&inv, &[t[1], t[0]]);
            }
        }
    }
}

/// An atom `R(z₁, …, z_r)` of a conjunctive query; variables are indices
/// `0..num_vars`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CqAtom {
    /// Relation name.
    pub relation: String,
    /// Argument variables (repetitions allowed, unlike ECRPQ relation
    /// atoms).
    pub vars: Vec<usize>,
}

/// A conjunctive query `q(x̄) = ∃ȳ R₁(z̄₁) ∧ ⋯ ∧ R_m(z̄_m)`.
#[derive(Debug, Clone, Default)]
pub struct Cq {
    /// Number of variables (free ∪ existential).
    pub num_vars: usize,
    /// The atoms.
    pub atoms: Vec<CqAtom>,
    /// Free variables; empty = Boolean.
    pub free: Vec<usize>,
}

impl Cq {
    /// Creates a Boolean CQ with `num_vars` variables and no atoms.
    pub fn new(num_vars: usize) -> Self {
        Cq {
            num_vars,
            atoms: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Adds an atom.
    ///
    /// # Panics
    /// Panics if a variable is out of range or the atom is 0-ary.
    pub fn atom(&mut self, relation: &str, vars: &[usize]) {
        assert!(!vars.is_empty(), "0-ary atoms are not supported");
        assert!(vars.iter().all(|&v| v < self.num_vars));
        self.atoms.push(CqAtom {
            relation: relation.to_string(),
            vars: vars.to_vec(),
        });
    }

    /// The Gaifman graph: variables as vertices, an edge whenever two
    /// variables share an atom (§2).
    pub fn gaifman(&self) -> Graph {
        let mut g = Graph::new(self.num_vars);
        for a in &self.atoms {
            for (i, &u) in a.vars.iter().enumerate() {
                for &v in &a.vars[i + 1..] {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Whether all atoms are binary (`CQ_bin`).
    pub fn is_binary(&self) -> bool {
        self.atoms.iter().all(|a| a.vars.len() == 2)
    }

    /// The multigraph abstraction of a `CQ_bin` (§2): one edge `{x, x′}`
    /// per atom `R(x, x′)`.
    ///
    /// # Panics
    /// Panics if the query is not binary.
    pub fn multigraph(&self) -> MultiGraph {
        assert!(self.is_binary(), "multigraph abstraction needs CQ_bin");
        let mut m = MultiGraph::new(self.num_vars);
        for a in &self.atoms {
            m.add_edge(a.vars[0], a.vars[1]);
        }
        m
    }

    /// Checks arities against a database.
    pub fn validate(&self, db: &RelationalDb) -> Result<(), String> {
        for a in &self.atoms {
            match db.relation(&a.relation) {
                None => return Err(format!("unknown relation {}", a.relation)),
                Some(r) if r.arity != a.vars.len() => {
                    return Err(format!(
                        "atom {}: arity {} vs {} arguments",
                        a.relation,
                        r.arity,
                        a.vars.len()
                    ))
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl fmt::Display for Cq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q(")?;
        for (i, v) in self.free.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "x{v}")?;
        }
        write!(f, ") :- ")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", a.relation)?;
            for (j, v) in a.vars.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "x{v}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_basics() {
        let mut db = RelationalDb::new(3);
        db.insert("R", &[0, 1]);
        db.insert("R", &[1, 2]);
        db.insert("S", &[2]);
        assert!(db.holds("R", &[0, 1]));
        assert!(!db.holds("R", &[1, 0]));
        assert!(!db.holds("T", &[0]));
        assert_eq!(db.num_tuples(), 3);
        assert_eq!(db.relation("R").unwrap().arity, 2);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_panics() {
        let mut db = RelationalDb::new(2);
        db.insert("R", &[0, 5]);
    }

    #[test]
    fn inverses() {
        let mut db = RelationalDb::new(3);
        db.insert("R", &[0, 1]);
        db.insert("U", &[2]); // unary untouched
        db.add_inverses();
        assert!(db.holds("R^-1", &[1, 0]));
        assert!(db.relation("U^-1").is_none());
        // idempotent-ish: inverses of inverses are not added
        db.add_inverses();
        assert!(db.relation("R^-1^-1").is_none());
    }

    #[test]
    fn gaifman_graph() {
        // the paper's multigraph example: R(x,y) ∧ S(z,y) ∧ S(y,z) ∧ S(z,z) ∧ R(z,z)
        let mut q = Cq::new(3); // x=0, y=1, z=2
        q.atom("R", &[0, 1]);
        q.atom("S", &[2, 1]);
        q.atom("S", &[1, 2]);
        q.atom("S", &[2, 2]);
        q.atom("R", &[2, 2]);
        let g = q.gaifman();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
        let m = q.multigraph();
        assert_eq!(m.multiplicity(1, 2), 2);
        assert_eq!(m.multiplicity(2, 2), 2);
        assert_eq!(m.multiplicity(0, 1), 1);
        assert_eq!(m.num_edges(), 5);
    }

    #[test]
    fn validate_against_db() {
        let mut db = RelationalDb::new(2);
        db.insert("R", &[0, 1]);
        let mut q = Cq::new(2);
        q.atom("R", &[0, 1]);
        assert!(q.validate(&db).is_ok());
        let mut q2 = Cq::new(2);
        q2.atom("R", &[0]);
        assert!(q2.validate(&db).is_err());
        let mut q3 = Cq::new(1);
        q3.atom("Missing", &[0]);
        assert!(q3.validate(&db).is_err());
    }

    #[test]
    fn display() {
        let mut q = Cq::new(2);
        q.atom("R", &[0, 1]);
        q.free = vec![0];
        assert_eq!(q.to_string(), "q(x0) :- R(x0, x1)");
    }

    #[test]
    fn ternary_atoms_not_binary() {
        let mut q = Cq::new(3);
        q.atom("T", &[0, 1, 2]);
        assert!(!q.is_binary());
        let g = q.gaifman();
        assert_eq!(g.num_edges(), 3); // triangle
    }
}
