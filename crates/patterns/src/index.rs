//! Inverted index over a [`Table`]: per `(attribute, value)` posting lists
//! plus k-way intersection, the workhorse for computing a pattern's
//! benefit set `Ben(p)` without scanning the table.

use crate::dictionary::ValueId;
use crate::pattern::Pattern;
use crate::table::{RowId, Table};

/// Posting lists `(attr, value) → sorted row ids`.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// postings[attr][value] = sorted row ids having that value
    postings: Vec<Vec<Vec<RowId>>>,
    num_rows: usize,
}

impl InvertedIndex {
    /// Builds the index in one pass over the table.
    pub fn build(table: &Table) -> InvertedIndex {
        let mut postings: Vec<Vec<Vec<RowId>>> = (0..table.num_attrs())
            .map(|a| vec![Vec::new(); table.dictionary(a).len()])
            .collect();
        for (attr, attr_postings) in postings.iter_mut().enumerate() {
            for (row, &v) in table.column(attr).iter().enumerate() {
                attr_postings[v as usize].push(row as RowId);
            }
        }
        InvertedIndex {
            postings,
            num_rows: table.num_rows(),
        }
    }

    /// Rows having `value` in `attr` (sorted ascending).
    pub fn posting(&self, attr: usize, value: ValueId) -> &[RowId] {
        &self.postings[attr][value as usize]
    }

    /// Number of rows in the indexed table.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// `Ben(p)`: the sorted rows matching `pattern`, via posting-list
    /// intersection (smallest list drives a galloping probe of the rest).
    /// The all-wildcards pattern yields every row.
    pub fn benefit(&self, pattern: &Pattern) -> Vec<RowId> {
        let mut lists: Vec<&[RowId]> = Vec::new();
        for (attr, v) in pattern.values().iter().enumerate() {
            if let Some(v) = v {
                match self.postings[attr].get(*v as usize) {
                    Some(list) => lists.push(list),
                    None => return Vec::new(), // value outside active domain
                }
            }
        }
        match lists.len() {
            0 => (0..self.num_rows as RowId).collect(),
            1 => lists[0].to_vec(),
            _ => {
                lists.sort_by_key(|l| l.len());
                let (first, rest) = lists.split_first().expect("len >= 2");
                intersect_driver(first, rest)
            }
        }
    }

    /// `|Ben(p)|` without materializing the row list.
    pub fn benefit_count(&self, pattern: &Pattern) -> usize {
        // For the sizes seen here materializing is cheap enough; kept as a
        // separate entry point so callers express intent.
        if pattern.is_root() {
            self.num_rows
        } else {
            self.benefit(pattern).len()
        }
    }
}

/// Intersects `driver` against every list in `rest` using galloping
/// (exponential + binary) search, good when the driver is much smaller.
fn intersect_driver(driver: &[RowId], rest: &[&[RowId]]) -> Vec<RowId> {
    let mut out = Vec::with_capacity(driver.len());
    let mut cursors = vec![0usize; rest.len()];
    'rows: for &row in driver {
        for (list, cursor) in rest.iter().zip(cursors.iter_mut()) {
            match gallop_to(list, *cursor, row) {
                Some(pos) => *cursor = pos + 1,
                None => {
                    // Advance the cursor past smaller entries anyway so the
                    // next probe starts close.
                    *cursor = list.partition_point(|&x| x < row);
                    if *cursor >= list.len() {
                        break 'rows; // this list is exhausted: no more hits
                    }
                    continue 'rows;
                }
            }
        }
        out.push(row);
    }
    out
}

/// Finds `target` in `list[start..]` by galloping; returns its position.
fn gallop_to(list: &[RowId], start: usize, target: RowId) -> Option<usize> {
    if start >= list.len() {
        return None;
    }
    let mut step = 1usize;
    let mut hi = start;
    while hi < list.len() && list[hi] < target {
        hi = hi.saturating_add(step);
        step <<= 1;
    }
    let lo = hi.saturating_sub(step >> 1).max(start);
    let hi = hi.min(list.len());
    let idx = lo + list[lo..hi].partition_point(|&x| x < target);
    (idx < list.len() && list[idx] == target).then_some(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::entities as table;

    fn pat(t: &Table, ty: Option<&str>, loc: Option<&str>) -> Pattern {
        Pattern::new(vec![
            ty.map(|v| t.dictionary(0).lookup(v).unwrap()),
            loc.map(|v| t.dictionary(1).lookup(v).unwrap()),
        ])
    }

    #[test]
    fn postings_are_sorted_per_value() {
        let t = table();
        let idx = InvertedIndex::build(&t);
        let a = t.dictionary(0).lookup("A").unwrap();
        assert_eq!(idx.posting(0, a), &[0, 1, 3, 5, 8, 10, 14, 15]);
        let south = t.dictionary(1).lookup("South").unwrap();
        assert_eq!(idx.posting(1, south), &[2, 12, 15]);
    }

    #[test]
    fn root_benefit_is_all_rows() {
        let t = table();
        let idx = InvertedIndex::build(&t);
        assert_eq!(
            idx.benefit(&Pattern::all_wildcards(2)),
            (0..16).collect::<Vec<RowId>>()
        );
        assert_eq!(idx.benefit_count(&Pattern::all_wildcards(2)), 16);
    }

    #[test]
    fn single_attribute_benefit() {
        let t = table();
        let idx = InvertedIndex::build(&t);
        assert_eq!(
            idx.benefit(&pat(&t, Some("B"), None)),
            vec![2, 4, 6, 7, 9, 11, 12, 13]
        );
        assert_eq!(idx.benefit(&pat(&t, None, Some("West"))), vec![0, 6]);
    }

    #[test]
    fn two_attribute_intersection() {
        let t = table();
        let idx = InvertedIndex::build(&t);
        assert_eq!(idx.benefit(&pat(&t, Some("B"), Some("South"))), vec![2, 12]);
        assert_eq!(idx.benefit(&pat(&t, Some("A"), Some("South"))), vec![15]);
        assert_eq!(idx.benefit_count(&pat(&t, Some("B"), Some("West"))), 1);
    }

    #[test]
    fn matches_agrees_with_index() {
        let t = table();
        let idx = InvertedIndex::build(&t);
        for p in [
            pat(&t, Some("A"), None),
            pat(&t, None, Some("South")),
            pat(&t, Some("B"), Some("West")),
            Pattern::all_wildcards(2),
        ] {
            let scanned: Vec<RowId> = (0..t.num_rows() as RowId)
                .filter(|&r| p.matches(&t, r))
                .collect();
            assert_eq!(idx.benefit(&p), scanned, "{}", p.display(&t));
        }
    }

    #[test]
    fn gallop_finds_positions() {
        let list: Vec<RowId> = vec![2, 5, 9, 14, 20, 33, 50];
        assert_eq!(gallop_to(&list, 0, 2), Some(0));
        assert_eq!(gallop_to(&list, 0, 50), Some(6));
        assert_eq!(gallop_to(&list, 2, 14), Some(3));
        assert_eq!(gallop_to(&list, 0, 15), None);
        assert_eq!(gallop_to(&list, 7, 2), None, "start past end");
        assert_eq!(gallop_to(&list, 3, 9), None, "target before start");
    }

    #[test]
    fn three_way_intersection() {
        let mut b = Table::builder(&["X", "Y", "Z"], "m");
        b.push_row(&["a", "p", "u"], 1.0).unwrap();
        b.push_row(&["a", "p", "v"], 1.0).unwrap();
        b.push_row(&["a", "q", "u"], 1.0).unwrap();
        b.push_row(&["b", "p", "u"], 1.0).unwrap();
        let t = b.build();
        let idx = InvertedIndex::build(&t);
        let p = Pattern::new(vec![
            t.dictionary(0).lookup("a"),
            t.dictionary(1).lookup("p"),
            t.dictionary(2).lookup("u"),
        ]);
        assert_eq!(idx.benefit(&p), vec![0]);
        let empty = Pattern::new(vec![
            t.dictionary(0).lookup("b"),
            t.dictionary(1).lookup("q"),
            None,
        ]);
        assert_eq!(idx.benefit(&empty), Vec::<RowId>::new());
    }

    #[test]
    fn empty_table_index() {
        let t = Table::builder(&["X"], "m").build();
        let idx = InvertedIndex::build(&t);
        assert_eq!(idx.benefit(&Pattern::all_wildcards(1)), Vec::<RowId>::new());
    }
}
