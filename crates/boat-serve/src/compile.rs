//! The tree compiler: lowering a pointer-chasing [`Tree`] into an
//! immutable, flattened [`CompiledTree`].
//!
//! `Tree` is the *construction* representation — an arena of enum nodes
//! carrying full per-class counts, parents, and depths, optimized for
//! splicing and verification. Serving wants the opposite: a read-only
//! structure-of-arrays where one prediction touches a handful of dense
//! `Vec`s instead of chasing `Node`/`Vec<u64>` allocations, and where the
//! common "go left" step is a `+1` (nodes are laid out in **preorder**, so
//! every internal node's left child is physically adjacent; only the right
//! child needs an explicit index).
//!
//! ## Exactness
//!
//! Compilation is required to be **prediction-exact**: for every record,
//! [`CompiledTree::predict`] — the only compiled scoring path — returns
//! exactly what [`Tree::predict`] returns — including the pinned
//! edge-value contract (`boat_tree::model::Predicate::matches`): NaN
//! numeric values fail `X ≤ x` and route right; category codes absent
//! from a splitting subset (including codes never seen at training time)
//! fail `X ∈ Y` and route right. The compiler replicates the *same*
//! IEEE-754 `<=` on the bit-identical split point and the *same* 64-bit
//! mask test, so the agreement is structural, not coincidental — and the
//! differential oracle in `tests/differential.rs` asserts it anyway.
//!
//! Compilation is also **deterministic**: the tables are a pure function
//! of the logical tree (reachable nodes in preorder), so two trees that
//! compare equal under `Tree`'s structural equality compile to
//! byte-identical tables ([`CompiledTree::table_bytes`]).

use boat_data::Record;
use boat_tree::{NodeKind, Predicate, Tree};

/// Per-node operation tag of a compiled node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeOp {
    /// Terminal node: predict `label[i]`.
    Leaf = 0,
    /// Numeric split: `value <= threshold[i]` routes to `i + 1`, else to
    /// `right[i]`.
    Num = 1,
    /// Categorical split: `(cat_mask[i] >> code) & 1 == 1` routes to
    /// `i + 1`, else to `right[i]`.
    Cat = 2,
}

/// An immutable, flattened decision tree in structure-of-arrays layout.
///
/// Nodes are stored in preorder: node `0` is the root and the left child
/// of internal node `i` is always `i + 1` (adjacent — the hot "routes
/// left" step is a unit increment with perfect locality). All per-node
/// attributes live in parallel dense arrays, so the traversal loop is a
/// tag dispatch plus one comparison per level with no pointer chasing and
/// no per-prediction allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTree {
    /// Number of class labels (`k`); every `label` entry is `< n_classes`.
    pub(crate) n_classes: u16,
    /// Operation tag per node.
    pub(crate) ops: Vec<NodeOp>,
    /// Splitting attribute per internal node (`u16::MAX` for leaves,
    /// where it is meaningless but kept deterministic for byte-identity).
    pub(crate) split_attr: Vec<u16>,
    /// Numeric split point per `Num` node (bit-identical to the source
    /// tree's `Predicate::NumLe` operand; `0.0` elsewhere).
    pub(crate) threshold: Vec<f64>,
    /// Splitting-subset mask per `Cat` node (the `Predicate::CatIn`
    /// operand's `CatSet::mask()`; `0` elsewhere).
    pub(crate) cat_mask: Vec<u64>,
    /// Right-child index per internal node (`0` for leaves — unambiguous,
    /// since the root is never anyone's right child).
    pub(crate) right: Vec<u32>,
    /// Majority class label per leaf (`0` for internal nodes).
    pub(crate) label: Vec<u16>,
    /// Canonical 13-byte provenance record per node
    /// ([`boat_proof::NodeRecord`] wire format), emitted during lowering
    /// so Merkle-committing the tree needs no second lowering pass —
    /// `crate::provenance::tree_commit` hands these straight to
    /// [`boat_proof::TreeCommit::from_parts`]. Derived (a pure function
    /// of the tables; not serialized in [`CompiledTree::table_bytes`]).
    pub(crate) records: Vec<u8>,
    /// Exclusive end of each node's preorder span (its subtree extent) —
    /// the reuse-diff geometry for incremental recommit. Derived.
    pub(crate) span: Vec<u32>,
}

impl CompiledTree {
    /// Lower `tree` into its flattened serving form.
    ///
    /// Leaf labels are materialized from the node family's class counts
    /// with the same tie-breaking rule as `Tree::predict` (smaller class
    /// index wins). Unreachable arena entries (left behind by subtree
    /// replacement) are skipped — the compiled output depends only on the
    /// logical tree.
    pub fn compile(tree: &Tree) -> CompiledTree {
        let ids = tree.preorder_ids();
        let n = ids.len();
        // Map arena id -> compiled (preorder) index.
        let mut index_of = vec![u32::MAX; ids.iter().map(|id| id.index()).max().unwrap_or(0) + 1];
        for (i, id) in ids.iter().enumerate() {
            index_of[id.index()] = i as u32;
        }
        let n_classes = tree.node(tree.root()).class_counts.len() as u16;
        let mut out = CompiledTree {
            n_classes,
            ops: Vec::with_capacity(n),
            split_attr: Vec::with_capacity(n),
            threshold: Vec::with_capacity(n),
            cat_mask: Vec::with_capacity(n),
            right: Vec::with_capacity(n),
            label: Vec::with_capacity(n),
            records: Vec::with_capacity(n * boat_proof::NODE_RECORD_LEN),
            span: Vec::new(),
        };
        for (i, id) in ids.iter().enumerate() {
            let node = tree.node(*id);
            match &node.kind {
                NodeKind::Leaf => {
                    let label = node.majority_label();
                    out.ops.push(NodeOp::Leaf);
                    out.split_attr.push(u16::MAX);
                    out.threshold.push(0.0);
                    out.cat_mask.push(0);
                    out.right.push(0);
                    out.label.push(label);
                    out.records
                        .extend_from_slice(&boat_proof::NodeRecord::leaf(label).to_bytes());
                }
                NodeKind::Internal { split, left, right } => {
                    debug_assert_eq!(
                        index_of[left.index()] as usize,
                        i + 1,
                        "preorder left child must be adjacent"
                    );
                    let attr = split.attr as u16;
                    let (op, threshold, mask, record) = match split.predicate {
                        Predicate::NumLe(x) => (
                            NodeOp::Num,
                            x,
                            0u64,
                            boat_proof::NodeRecord::num(attr, x.to_bits()),
                        ),
                        Predicate::CatIn(set) => (
                            NodeOp::Cat,
                            0.0,
                            set.mask(),
                            boat_proof::NodeRecord::cat(attr, set.mask()),
                        ),
                    };
                    out.ops.push(op);
                    out.split_attr.push(attr);
                    out.threshold.push(threshold);
                    out.cat_mask.push(mask);
                    out.right.push(index_of[right.index()]);
                    out.label.push(0);
                    out.records.extend_from_slice(&record.to_bytes());
                }
            }
        }
        // Subtree spans, bottom-up (leaf span = self; internal span ends
        // where the right child's span ends).
        out.span = vec![0u32; n];
        for i in (0..n).rev() {
            out.span[i] = match out.ops[i] {
                NodeOp::Leaf => i as u32 + 1,
                _ => out.span[out.right[i] as usize],
            };
        }
        out
    }

    /// Number of class labels.
    pub fn n_classes(&self) -> u16 {
        self.n_classes
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.ops.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.ops.iter().filter(|&&op| op == NodeOp::Leaf).count()
    }

    /// Predict the class label of one record.
    ///
    /// Agrees with [`Tree::predict`] on every record (the differential
    /// oracle's guarantee), including NaN numeric values and unseen
    /// category codes. Category codes must be `< 64` (the schema bound).
    #[inline]
    pub fn predict(&self, record: &Record) -> u16 {
        let mut i = 0usize;
        loop {
            match self.ops[i] {
                NodeOp::Leaf => return self.label[i],
                NodeOp::Num => {
                    let v = record.num(self.split_attr[i] as usize);
                    i = if v <= self.threshold[i] {
                        i + 1
                    } else {
                        self.right[i] as usize
                    };
                }
                NodeOp::Cat => {
                    let c = record.cat(self.split_attr[i] as usize);
                    i = if (self.cat_mask[i] >> c) & 1 != 0 {
                        i + 1
                    } else {
                        self.right[i] as usize
                    };
                }
            }
        }
    }

    /// A canonical byte serialization of every table, in declaration
    /// order. Two compiled trees are byte-identical here iff their logical
    /// source trees are structurally equal — the form the model-IO and
    /// torn-state regressions compare.
    pub fn table_bytes(&self) -> Vec<u8> {
        let n = self.n_nodes();
        let mut out = Vec::with_capacity(8 + n * 23);
        out.extend_from_slice(&self.n_classes.to_le_bytes());
        out.extend_from_slice(&(n as u32).to_le_bytes());
        for &op in &self.ops {
            out.push(op as u8);
        }
        for &a in &self.split_attr {
            out.extend_from_slice(&a.to_le_bytes());
        }
        for &t in &self.threshold {
            out.extend_from_slice(&t.to_bits().to_le_bytes());
        }
        for &m in &self.cat_mask {
            out.extend_from_slice(&m.to_le_bytes());
        }
        for &r in &self.right {
            out.extend_from_slice(&r.to_le_bytes());
        }
        for &l in &self.label {
            out.extend_from_slice(&l.to_le_bytes());
        }
        out
    }

    /// Approximate resident size of the tables in bytes (capacity
    /// excluded) — surfaced by the serving metrics.
    pub fn table_size_bytes(&self) -> usize {
        self.ops.len() * (1 + 2 + 8 + 8 + 4 + 2) + 2
    }
}

/// Convenience free function: [`CompiledTree::compile`].
pub fn compile(tree: &Tree) -> CompiledTree {
    CompiledTree::compile(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boat_data::Field;
    use boat_tree::{CatSet, Split};

    fn rec(x: f64, c: u32) -> Record {
        Record::new(vec![Field::Num(x), Field::Cat(c)], 0)
    }

    /// x <= 5 ? (c in {1,3} ? [4,0] : [0,2]) : [2,2]
    fn sample_tree() -> Tree {
        let mut t = Tree::leaf(vec![6, 4]);
        let (l, _r) = t.split_node(
            t.root(),
            Split {
                attr: 0,
                predicate: Predicate::NumLe(5.0),
            },
            vec![4, 2],
            vec![2, 2],
        );
        t.split_node(
            l,
            Split {
                attr: 1,
                predicate: Predicate::CatIn(CatSet::from_iter([1, 3])),
            },
            vec![4, 0],
            vec![0, 2],
        );
        t
    }

    #[test]
    fn compiles_preorder_with_adjacent_left_children() {
        let c = CompiledTree::compile(&sample_tree());
        assert_eq!(c.n_nodes(), 5);
        assert_eq!(c.n_leaves(), 3);
        assert_eq!(c.n_classes(), 2);
        // Preorder: root(Num), left(Cat), leaf, leaf, right leaf.
        assert_eq!(
            c.ops,
            vec![
                NodeOp::Num,
                NodeOp::Cat,
                NodeOp::Leaf,
                NodeOp::Leaf,
                NodeOp::Leaf
            ]
        );
        assert_eq!(c.right, vec![4, 3, 0, 0, 0]);
        assert_eq!(c.split_attr[..2], [0, 1]);
        assert_eq!(c.threshold[0], 5.0);
        assert_eq!(c.cat_mask[1], CatSet::from_iter([1, 3]).mask());
        assert_eq!(c.label, vec![0, 0, 0, 1, 0]);
    }

    #[test]
    fn predict_matches_interpreted_tree() {
        let t = sample_tree();
        let c = CompiledTree::compile(&t);
        for (x, cat) in [
            (3.0, 1u32),
            (3.0, 0),
            (9.0, 1),
            (5.0, 0),
            (5.0, 3),
            (f64::NAN, 1),
            (f64::INFINITY, 3),
            (f64::NEG_INFINITY, 0),
            (3.0, 2), // unseen-at-training category
        ] {
            let r = rec(x, cat);
            assert_eq!(c.predict(&r), t.predict(&r), "x={x} c={cat}");
        }
    }

    #[test]
    fn single_leaf_tree_predicts_majority() {
        let c = CompiledTree::compile(&Tree::leaf(vec![1, 5, 5]));
        assert_eq!(c.n_nodes(), 1);
        // Tie between classes 1 and 2 breaks low → 1.
        assert_eq!(c.predict(&rec(0.0, 0)), 1);
    }

    #[test]
    fn table_bytes_identical_for_equal_trees_only() {
        let a = CompiledTree::compile(&sample_tree());
        // Same logical tree via a replace+compact cycle (different arena).
        let mut t = sample_tree();
        let sub = sample_tree();
        t.replace_subtree(t.root(), &sub);
        let b = CompiledTree::compile(&t);
        assert_eq!(a.table_bytes(), b.table_bytes());
        assert_eq!(a, b);
        // A different split point must change the bytes.
        let mut t2 = Tree::leaf(vec![6, 4]);
        t2.split_node(
            t2.root(),
            Split {
                attr: 0,
                predicate: Predicate::NumLe(6.0),
            },
            vec![4, 2],
            vec![2, 2],
        );
        assert_ne!(a.table_bytes(), CompiledTree::compile(&t2).table_bytes());
    }
}
