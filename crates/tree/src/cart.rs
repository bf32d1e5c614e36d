//! CART classification tree trained by Gini-impurity splits.

use serde::{Deserialize, Serialize};

/// Tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Do not split nodes smaller than this.
    pub min_samples_split: usize,
    /// Number of classes.
    pub n_classes: usize,
}

impl TreeConfig {
    /// Sensible defaults for `n_classes` classes.
    pub fn new(n_classes: usize) -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 8,
            n_classes,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        /// Majority class.
        class: usize,
        /// Class histogram at the leaf (kept for introspection).
        counts: Vec<usize>,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// `x[feature] <= threshold` branch.
        left: Box<Node>,
        /// `x[feature] > threshold` branch.
        right: Box<Node>,
    },
}

/// A trained CART classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    config: TreeConfig,
    root: Node,
    n_features: usize,
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

fn majority(counts: &[usize]) -> usize {
    let mut best = 0;
    for (i, &c) in counts.iter().enumerate() {
        if c > counts[best] {
            best = i;
        }
    }
    best
}

impl DecisionTree {
    /// Trains a tree on feature rows `x` with class labels `y`.
    ///
    /// # Panics
    /// Panics on empty input, ragged feature rows, or labels outside
    /// `0..n_classes`.
    pub fn train(x: &[Vec<f64>], y: &[usize], config: TreeConfig) -> Self {
        assert!(!x.is_empty(), "training set must not be empty");
        assert_eq!(x.len(), y.len(), "feature/label count mismatch");
        let n_features = x[0].len();
        assert!(
            x.iter().all(|r| r.len() == n_features),
            "ragged feature rows"
        );
        assert!(
            y.iter().all(|&l| l < config.n_classes),
            "label outside 0..n_classes"
        );
        let idx: Vec<usize> = (0..x.len()).collect();
        let root = Self::grow(x, y, &idx, &config, 0);
        Self {
            config,
            root,
            n_features,
        }
    }

    fn class_counts(y: &[usize], idx: &[usize], k: usize) -> Vec<usize> {
        let mut counts = vec![0usize; k];
        for &i in idx {
            counts[y[i]] += 1;
        }
        counts
    }

    fn grow(x: &[Vec<f64>], y: &[usize], idx: &[usize], cfg: &TreeConfig, depth: usize) -> Node {
        let counts = Self::class_counts(y, idx, cfg.n_classes);
        let node_gini = gini(&counts, idx.len());
        if depth >= cfg.max_depth || idx.len() < cfg.min_samples_split || node_gini == 0.0 {
            return Node::Leaf {
                class: majority(&counts),
                counts,
            };
        }
        // Exhaustive best-split search: for each feature, sweep sorted
        // values maintaining incremental left/right class counts.
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        let n_features = x[0].len();
        let total = idx.len() as f64;
        // `f` indexes a column across many rows of `x`, not one slice,
        // so the range loop is the natural shape here.
        #[allow(clippy::needless_range_loop)]
        for f in 0..n_features {
            let mut order: Vec<usize> = idx.to_vec();
            order.sort_unstable_by(|&a, &b| {
                x[a][f].partial_cmp(&x[b][f]).expect("features are finite")
            });
            let mut left = vec![0usize; cfg.n_classes];
            let mut right = counts.clone();
            for w in 0..order.len() - 1 {
                let i = order[w];
                left[y[i]] += 1;
                right[y[i]] -= 1;
                let (a, b) = (x[order[w]][f], x[order[w + 1]][f]);
                if a == b {
                    continue; // cannot split between equal values
                }
                let nl = w + 1;
                let nr = order.len() - nl;
                let score =
                    (nl as f64 / total) * gini(&left, nl) + (nr as f64 / total) * gini(&right, nr);
                if best.is_none_or(|(_, _, s)| score < s) {
                    best = Some((f, (a + b) / 2.0, score));
                }
            }
        }
        match best {
            Some((feature, threshold, score)) if score < node_gini - 1e-12 => {
                let (li, ri): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| x[i][feature] <= threshold);
                // A degenerate split cannot happen (threshold strictly
                // separates two distinct values), but guard anyway.
                if li.is_empty() || ri.is_empty() {
                    return Node::Leaf {
                        class: majority(&counts),
                        counts,
                    };
                }
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(Self::grow(x, y, &li, cfg, depth + 1)),
                    right: Box::new(Self::grow(x, y, &ri, cfg, depth + 1)),
                }
            }
            _ => Node::Leaf {
                class: majority(&counts),
                counts,
            },
        }
    }

    /// Predicts the class of one feature row.
    ///
    /// # Panics
    /// Panics if the row width differs from the training data.
    pub fn predict(&self, x: &[f64]) -> usize {
        self.predict_with_purity(x).0
    }

    /// Predicts the class of one feature row, and whether the leaf it
    /// lands in was pure in training: every training row that reached
    /// that leaf carried the predicted class.
    ///
    /// # Panics
    /// Panics if the row width differs from the training data.
    pub fn predict_with_purity(&self, x: &[f64]) -> (usize, bool) {
        assert_eq!(x.len(), self.n_features, "feature width mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { class, counts } => {
                    let pure = counts.iter().filter(|&&c| c > 0).count() == 1;
                    return (*class, pure);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Fraction of `(x, y)` rows predicted correctly.
    pub fn accuracy(&self, x: &[Vec<f64>], y: &[usize]) -> f64 {
        if x.is_empty() {
            return 0.0;
        }
        let hit = x
            .iter()
            .zip(y)
            .filter(|(row, &l)| self.predict(row) == l)
            .count();
        hit as f64 / x.len() as f64
    }

    /// Feature-row width this tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes this tree predicts over.
    pub fn n_classes(&self) -> usize {
        self.config.n_classes
    }

    /// Structural validation for trees rebuilt from serialized data.
    ///
    /// Training establishes these invariants by construction, but
    /// serde's derived `Deserialize` rebuilds fields verbatim — a
    /// corrupted or hand-edited file can hold split feature indices
    /// past the row width (an out-of-bounds panic in [`Self::predict`])
    /// or leaf classes past `n_classes`. Walks every node and reports
    /// the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.config.n_classes == 0 {
            return Err("tree declares zero classes".into());
        }
        fn walk(n: &Node, n_features: usize, n_classes: usize, depth: usize) -> Result<(), String> {
            match n {
                Node::Leaf { class, counts } => {
                    if *class >= n_classes {
                        return Err(format!(
                            "leaf class {class} outside 0..{n_classes} (depth {depth})"
                        ));
                    }
                    if counts.len() != n_classes {
                        return Err(format!(
                            "leaf histogram has {} bins, expected {n_classes} (depth {depth})",
                            counts.len()
                        ));
                    }
                    Ok(())
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if *feature >= n_features {
                        return Err(format!(
                            "split on feature {feature} but rows have {n_features} (depth {depth})"
                        ));
                    }
                    if !threshold.is_finite() {
                        return Err(format!("non-finite split threshold at depth {depth}"));
                    }
                    walk(left, n_features, n_classes, depth + 1)?;
                    walk(right, n_features, n_classes, depth + 1)
                }
            }
        }
        walk(&self.root, self.n_features, self.config.n_classes, 0)
    }

    /// Tree depth (leaf-only tree = 0).
    pub fn depth(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(left).max(walk(right)),
            }
        }
        walk(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        // XOR needs two levels of splits — a single threshold fails.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let a = (i % 2) as f64 + 0.01 * (i as f64 % 7.0);
            let b = ((i / 2) % 2) as f64 + 0.013 * (i as f64 % 5.0);
            x.push(vec![a, b]);
            y.push(((a.round() as usize) ^ (b.round() as usize)) & 1);
        }
        (x, y)
    }

    #[test]
    fn learns_a_single_threshold() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let t = DecisionTree::train(&x, &y, TreeConfig::new(2));
        assert_eq!(t.accuracy(&x, &y), 1.0);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.predict(&[3.0]), 0);
        assert_eq!(t.predict(&[15.0]), 1);
    }

    #[test]
    fn learns_xor_with_depth_two() {
        let (x, y) = xor_data();
        let cfg = TreeConfig {
            max_depth: 4,
            min_samples_split: 2,
            n_classes: 2,
        };
        let t = DecisionTree::train(&x, &y, cfg);
        assert_eq!(t.accuracy(&x, &y), 1.0);
        assert!(t.depth() >= 2);
    }

    #[test]
    fn depth_limit_is_respected() {
        let (x, y) = xor_data();
        let cfg = TreeConfig {
            max_depth: 1,
            min_samples_split: 2,
            n_classes: 2,
        };
        let t = DecisionTree::train(&x, &y, cfg);
        assert!(t.depth() <= 1);
        // XOR cannot be solved at depth 1.
        assert!(t.accuracy(&x, &y) < 0.9);
    }

    #[test]
    fn min_samples_split_stops_growth() {
        let (x, y) = xor_data();
        let cfg = TreeConfig {
            max_depth: 16,
            min_samples_split: 1000,
            n_classes: 2,
        };
        let t = DecisionTree::train(&x, &y, cfg);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 1, 1];
        let t = DecisionTree::train(&x, &y, TreeConfig::new(3));
        assert_eq!(t.depth(), 0, "a single leaf");
        assert_eq!(t.predict(&[99.0]), 1);
    }

    #[test]
    fn constant_features_yield_majority_leaf() {
        let x = vec![vec![5.0]; 10];
        let y = vec![0, 0, 0, 1, 0, 0, 1, 0, 0, 0];
        let t = DecisionTree::train(&x, &y, TreeConfig::new(2));
        assert_eq!(t.depth(), 0, "a single leaf");
        assert_eq!(t.predict(&[5.0]), 0);
        assert_eq!(t.predict_with_purity(&[5.0]), (0, false));
    }

    #[test]
    fn purity_follows_the_training_histogram_of_the_leaf() {
        // Rows 0..10 are all class 0; rows 10..20 mix both classes on one
        // feature value, so no split can separate them.
        let mut x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        x.extend((0..10).map(|_| vec![50.0]));
        let y: Vec<usize> = (0..20)
            .map(|i| usize::from(i >= 10 && i % 2 == 0))
            .collect();
        let t = DecisionTree::train(&x, &y, TreeConfig::new(2));
        assert_eq!(t.predict_with_purity(&[3.0]), (0, true));
        assert!(!t.predict_with_purity(&[50.0]).1);
        for row in &x {
            assert_eq!(t.predict_with_purity(row).0, t.predict(row));
        }
    }

    #[test]
    fn multiclass_training_works() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for c in 0..4usize {
            for i in 0..15 {
                x.push(vec![c as f64 * 10.0 + (i % 3) as f64, (i % 5) as f64]);
                y.push(c);
            }
        }
        let t = DecisionTree::train(&x, &y, TreeConfig::new(4));
        assert_eq!(t.accuracy(&x, &y), 1.0);
    }

    #[test]
    fn serialises_and_round_trips() {
        let (x, y) = xor_data();
        let t = DecisionTree::train(&x, &y, TreeConfig::new(2));
        let json = serde_json::to_string(&t).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.predict(&x[0]), t.predict(&x[0]));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_training_panics() {
        let _ = DecisionTree::train(&[], &[], TreeConfig::new(2));
    }

    #[test]
    #[should_panic(expected = "feature width")]
    fn wrong_width_prediction_panics() {
        let t = DecisionTree::train(&[vec![0.0], vec![1.0]], &[0, 1], TreeConfig::new(2));
        let _ = t.predict(&[0.0, 1.0]);
    }

    #[test]
    fn validate_accepts_trained_trees() {
        let (x, y) = xor_data();
        let t = DecisionTree::train(&x, &y, TreeConfig::new(2));
        assert!(t.validate().is_ok());
        assert_eq!(t.n_features(), 2);
        assert_eq!(t.n_classes(), 2);
    }

    #[test]
    fn validate_catches_out_of_range_split_feature() {
        // Simulate a corrupted on-disk tree: deserialize a payload
        // whose split feature indexes past the row width. Without
        // validation, predict() would panic on the row access.
        let (x, y) = xor_data();
        let t = DecisionTree::train(&x, &y, TreeConfig::new(2));
        let json = serde_json::to_string(&t).unwrap();
        assert!(json.contains("\"feature\":0") || json.contains("\"feature\":1"));
        let mangled = json.replacen("\"feature\":0", "\"feature\":9", 1).replacen(
            "\"feature\":1",
            "\"feature\":9",
            1,
        );
        let bad: DecisionTree = serde_json::from_str(&mangled).unwrap();
        let err = bad.validate().unwrap_err();
        assert!(err.contains("feature 9"), "{err}");
    }

    #[test]
    fn validate_catches_out_of_range_leaf_class() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 1, 1];
        let t = DecisionTree::train(&x, &y, TreeConfig::new(3));
        let json = serde_json::to_string(&t).unwrap();
        let mangled = json.replacen("\"class\":1", "\"class\":7", 1);
        assert_ne!(mangled, json);
        let bad: DecisionTree = serde_json::from_str(&mangled).unwrap();
        let err = bad.validate().unwrap_err();
        assert!(err.contains("class 7"), "{err}");
    }

    #[test]
    fn gini_of_pure_and_uniform() {
        assert_eq!(gini(&[10, 0], 10), 0.0);
        assert!((gini(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[0, 0], 0), 0.0);
    }
}
