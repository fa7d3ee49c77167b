//! Property tests: `par_map_min` must be indistinguishable from the
//! sequential map — for arbitrary inputs, at every worker count from 1
//! through 16 — and worker panics must propagate.

use proptest::prelude::*;
use sor_par::{current_threads, par_map_min, with_threads};

proptest! {
    /// `par_map_min` equals the sequential map, element for element, at
    /// every worker count 1..16.
    #[test]
    fn par_map_equals_sequential(items in proptest::collection::vec(any::<i64>(), 0..200)) {
        let expect: Vec<i64> = items.iter().map(|x| x.wrapping_mul(31).wrapping_add(7)).collect();
        for w in 1..16usize {
            let got = with_threads(w, || {
                assert_eq!(current_threads(), w);
                par_map_min(&items, 2, |x| x.wrapping_mul(31).wrapping_add(7))
            });
            prop_assert_eq!(&got, &expect, "workers={}", w);
        }
    }

    /// A panic in any task reaches the caller at every worker count.
    #[test]
    fn panics_propagate(len in 1usize..100, workers in 1usize..16) {
        let items: Vec<usize> = (0..len).collect();
        let bomb = len / 2;
        let caught = with_threads(workers, || {
            std::panic::catch_unwind(|| {
                par_map_min(&items, 2, |&x| {
                    if x == bomb {
                        panic!("bomb");
                    }
                    x
                })
            })
        });
        prop_assert!(caught.is_err());
    }
}
