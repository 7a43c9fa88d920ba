//! Seeded databases and the space of conjunctive-query shapes the serve
//! workloads draw from.
//!
//! Every database has three binary relations `A`, `B`, `C` (edge labels).
//! A shape is a CQ over those labels up to renaming: paths, stars,
//! triangles, 4-cycles and 4-cycles with a chord, each with one or two
//! head choices. Requests render a shape with fresh variable names and a
//! rotated or reversed atom order, so the server must minimize and confirm by
//! homomorphic equivalence to recognise a repeat.

use crate::util::Rng;
use std::fmt::Write;

pub const LABELS: [&str; 3] = ["A", "B", "C"];

/// One fact: label index, source, target.
pub type Fact = (u8, u32, u32);

#[derive(Clone)]
pub struct Db {
    pub name: String,
    pub facts: Vec<Fact>,
}

/// Facts-file text (`A 0 1` lines) for a set of facts.
pub fn facts_text<'a>(facts: impl IntoIterator<Item = &'a Fact>) -> String {
    let mut out = String::new();
    for &(l, u, v) in facts {
        let _ = writeln!(out, "{} {u} {v}", LABELS[l as usize]);
    }
    out
}

/// A directed cycle on `n` vertices, labels rotating A, B, C.
pub fn cycle_db(name: &str, n: u32) -> Db {
    Db {
        name: name.to_string(),
        facts: (0..n).map(|i| ((i % 3) as u8, i, (i + 1) % n)).collect(),
    }
}

/// `m` distinct random labelled edges on `n` vertices (no loops), with
/// every label present.
pub fn random_db(name: &str, n: u32, m: usize, rng: &mut Rng) -> Db {
    let mut seen = std::collections::HashSet::new();
    let mut facts = Vec::with_capacity(m);
    while facts.len() < m {
        let l = if facts.len() < 3 {
            facts.len() as u8
        } else {
            rng.below(3) as u8
        };
        let u = rng.below(n as usize) as u32;
        let v = rng.below(n as usize) as u32;
        if u != v && seen.insert((l, u, v)) {
            facts.push((l, u, v));
        }
    }
    Db {
        name: name.to_string(),
        facts,
    }
}

/// A CQ shape: atoms `(label, from var, to var)` and the head variables.
#[derive(Clone, Debug)]
pub struct Shape {
    pub atoms: Vec<Fact>,
    pub head: Vec<u32>,
}

fn label_seqs(len: usize) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new()];
    for _ in 0..len {
        out = out
            .into_iter()
            .flat_map(|s| {
                (0..3u8).map(move |l| {
                    let mut s = s.clone();
                    s.push(l);
                    s
                })
            })
            .collect();
    }
    out
}

/// Every shape, in a fixed order. Paths of length 1–6 (head: both ends,
/// or the start), stars of 2–4 leaves (head: centre), triangles (head:
/// one vertex, or all three), 4-cycles and 4-cycles with a chord (head:
/// one vertex): 2679 shapes.
pub fn shape_space() -> Vec<Shape> {
    let mut out = Vec::new();
    for len in 1..=6u32 {
        for seq in label_seqs(len as usize) {
            let atoms: Vec<Fact> = seq
                .iter()
                .enumerate()
                .map(|(i, &l)| (l, i as u32, i as u32 + 1))
                .collect();
            out.push(Shape {
                atoms: atoms.clone(),
                head: vec![0, len],
            });
            out.push(Shape {
                atoms,
                head: vec![0],
            });
        }
    }
    for leaves in 2..=4usize {
        for seq in label_seqs(leaves) {
            out.push(Shape {
                atoms: seq
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| (l, 0, i as u32 + 1))
                    .collect(),
                head: vec![0],
            });
        }
    }
    for seq in label_seqs(3) {
        let atoms = vec![(seq[0], 0, 1), (seq[1], 1, 2), (seq[2], 2, 0)];
        out.push(Shape {
            atoms: atoms.clone(),
            head: vec![0],
        });
        out.push(Shape {
            atoms,
            head: vec![0, 1, 2],
        });
    }
    for seq in label_seqs(4) {
        let ring = vec![
            (seq[0], 0, 1),
            (seq[1], 1, 2),
            (seq[2], 2, 3),
            (seq[3], 3, 0),
        ];
        out.push(Shape {
            atoms: ring.clone(),
            head: vec![0],
        });
        for chord in 0..3u8 {
            let mut atoms = ring.clone();
            atoms.push((chord, 0, 2));
            out.push(Shape {
                atoms,
                head: vec![0],
            });
        }
    }
    out
}

/// Renders `shape` as query text with fresh variable names. With
/// `reorder`, the atoms come in a random rotation, forward or reversed,
/// among the orders in which every atom shares a variable with an earlier
/// one; without it, in the shape's own order.
///
/// Two properties of the program shape this. A disconnected order makes
/// the IVM counting view's materialization, which joins in atom order,
/// build a cross product (one such 6-path on the largest `serve_read`
/// database takes about a minute to register). And a maintained view
/// keeps the atom order of the query that registered it, so its cost per
/// delta does too.
pub fn render(shape: &Shape, head_name: &str, reorder: bool, rng: &mut Rng) -> String {
    let tag = rng.next_u64() % 1_000_000;
    let var = |i: u32| format!("V{tag}x{i}");
    let n = shape.atoms.len();
    if !reorder {
        return write_query(shape, head_name, &(0..n).collect::<Vec<_>>(), var);
    }
    let orders: Vec<Vec<usize>> = (0..2 * n)
        .map(|k| {
            let rotated = (0..n).map(|i| (i + k % n) % n);
            if k < n {
                rotated.collect()
            } else {
                rotated.rev().collect()
            }
        })
        .filter(|order: &Vec<usize>| connected(shape, order))
        .collect();
    let order = &orders[rng.below(orders.len())];
    write_query(shape, head_name, order, var)
}

/// True when every atom in `order` after the first shares a variable
/// with an atom before it.
fn connected(shape: &Shape, order: &[usize]) -> bool {
    let mut seen: Vec<u32> = Vec::new();
    for (i, &a) in order.iter().enumerate() {
        let (_, x, y) = shape.atoms[a];
        if i > 0 && !seen.contains(&x) && !seen.contains(&y) {
            return false;
        }
        seen.extend([x, y]);
    }
    true
}

/// The shape with plain variable names and its atoms in order (what the
/// oracle evaluates).
pub fn canonical(shape: &Shape, head_name: &str) -> String {
    let order: Vec<usize> = (0..shape.atoms.len()).collect();
    write_query(shape, head_name, &order, |i| format!("X{i}"))
}

fn write_query(
    shape: &Shape,
    head_name: &str,
    order: &[usize],
    var: impl Fn(u32) -> String,
) -> String {
    let head: Vec<String> = shape.head.iter().map(|&v| var(v)).collect();
    let body: Vec<String> = order
        .iter()
        .map(|&i| {
            let (l, a, b) = shape.atoms[i];
            format!("{}({},{})", LABELS[l as usize], var(a), var(b))
        })
        .collect();
    format!("{head_name}({}) :- {}", head.join(","), body.join(", "))
}

/// A single-relation dump query `Q(X0,X1) :- L(X0,X1)`, used to compare
/// whole relations after a restart.
pub fn dump_shape(label: u8) -> Shape {
    Shape {
        atoms: vec![(label, 0, 1)],
        head: vec![0, 1],
    }
}
