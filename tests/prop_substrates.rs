//! Property tests for the substrate data structures against simple
//! reference models: bitsets vs `Vec<bool>`, cost algebra, and
//! pattern-lattice laws.

use proptest::prelude::*;
use scwsc::patterns::Pattern;
use scwsc::sets::bitset::BitSet;
use scwsc::sets::cost::Cost;

#[derive(Debug, Clone)]
enum Op {
    Insert(usize),
    Remove(usize),
    Clear,
    Fill,
}

fn arb_ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0..len).prop_map(Op::Insert),
            (0..len).prop_map(Op::Remove),
            Just(Op::Clear),
            Just(Op::Fill),
        ],
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// BitSet behaves like a Vec<bool> under arbitrary operation traces.
    #[test]
    fn bitset_matches_model(len in 1usize..200, ops in arb_ops(199)) {
        let mut bits = BitSet::new(len);
        let mut model = vec![false; len];
        for op in ops {
            match op {
                Op::Insert(i) if i < len => {
                    let was_new = bits.insert(i);
                    prop_assert_eq!(was_new, !model[i]);
                    model[i] = true;
                }
                Op::Remove(i) if i < len => {
                    let was_set = bits.remove(i);
                    prop_assert_eq!(was_set, model[i]);
                    model[i] = false;
                }
                Op::Clear => {
                    bits.clear();
                    model.fill(false);
                }
                Op::Fill => {
                    bits.fill();
                    model.fill(true);
                }
                _ => {}
            }
        }
        prop_assert_eq!(bits.count_ones(), model.iter().filter(|&&b| b).count());
        let expected: Vec<usize> = (0..len).filter(|&i| model[i]).collect();
        prop_assert_eq!(bits.to_vec(), expected);
    }

    /// Set algebra matches the boolean model.
    #[test]
    fn bitset_algebra_matches_model(
        len in 1usize..150,
        a in proptest::collection::vec(any::<bool>(), 1..150),
        b in proptest::collection::vec(any::<bool>(), 1..150),
    ) {
        let n = len.min(a.len()).min(b.len());
        let mut x = BitSet::new(n);
        let mut y = BitSet::new(n);
        for i in 0..n {
            if a[i] { x.insert(i); }
            if b[i] { y.insert(i); }
        }
        let inter = x.intersection_count(&y);
        prop_assert_eq!(inter, (0..n).filter(|&i| a[i] && b[i]).count());

        let mut u = x.clone();
        u.union_with(&y);
        prop_assert_eq!(u.count_ones(), (0..n).filter(|&i| a[i] || b[i]).count());

        let mut d = x.clone();
        d.difference_with(&y);
        prop_assert_eq!(d.count_ones(), (0..n).filter(|&i| a[i] && !b[i]).count());

        // count_unset is |ids| minus hits
        let ids: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(
            x.count_unset(ids.iter().map(|&i| i as usize)),
            (0..n).filter(|&i| !a[i]).count()
        );
    }

    /// Cost addition is commutative/associative and ordering is total.
    #[test]
    fn cost_algebra(a in 0.0f64..1e12, b in 0.0f64..1e12, c in 0.0f64..1e12) {
        let (x, y, z) = (
            Cost::new(a).unwrap(),
            Cost::new(b).unwrap(),
            Cost::new(c).unwrap(),
        );
        prop_assert_eq!(x + y, y + x);
        prop_assert!(((x + y) + z).value() - (x + (y + z)).value() <= 1e-3 * (a + b + c).max(1.0));
        prop_assert_eq!(x.cmp(&y), a.partial_cmp(&b).unwrap());
    }

    /// Lattice laws: parents generalize; a pattern generalizes all its
    /// children; specificity steps by one.
    #[test]
    fn pattern_lattice_laws(vals in proptest::collection::vec(proptest::option::of(0u32..5), 1..6)) {
        let p = Pattern::new(vals);
        for parent in p.parents() {
            prop_assert!(parent.generalizes(&p));
            prop_assert!(parent.is_parent_of(&p));
            prop_assert_eq!(parent.specificity() + 1, p.specificity());
        }
        prop_assert_eq!(p.parents().len(), p.specificity());
        for (attr, v) in p.values().iter().enumerate() {
            if v.is_none() {
                let child = p.child(attr, 3);
                prop_assert!(p.generalizes(&child));
                prop_assert!(p.is_parent_of(&child));
            }
        }
        prop_assert!(p.generalizes(&p));
    }
}
