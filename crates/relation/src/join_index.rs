//! Join indexes: which joined tuples does a base tuple contribute to?
//!
//! Section 5.4.1 of the paper: a single base-table modification can affect
//! multiple tuples of the joined relation, because the modified base tuple may
//! join with several partner tuples.  QFE "constructs a join index for each
//! foreign-key relationship … to efficiently keep track of the set of related
//! tuples for each base tuple", and uses it to account for these side effects
//! when costing candidate modifications.  [`JoinIndex`] is that structure,
//! built directly from a [`JoinedRelation`]'s provenance.

use std::collections::BTreeMap;

use crate::join::JoinedRelation;

/// Maps `(base table, base row index)` to the joined-row indices that the base
/// row participates in.
#[derive(Debug, Clone, Default)]
pub struct JoinIndex {
    /// Base table → base row → joined rows (keyed by table first, so a
    /// lookup borrows the table name instead of allocating a key).
    entries: BTreeMap<String, BTreeMap<usize, Vec<usize>>>,
}

impl JoinIndex {
    /// Builds the index from a joined relation's provenance.
    pub fn build(join: &JoinedRelation) -> Self {
        let mut entries: BTreeMap<String, BTreeMap<usize, Vec<usize>>> = BTreeMap::new();
        for (joined_idx, row) in join.rows().iter().enumerate() {
            for (table, &base_idx) in &row.provenance {
                entries
                    .entry(table.clone())
                    .or_default()
                    .entry(base_idx)
                    .or_default()
                    .push(joined_idx);
            }
        }
        JoinIndex { entries }
    }

    /// Joined-row indices that contain base row `row` of `table`.
    /// Empty when the base row does not participate in the join (dangling).
    pub fn joined_rows_of(&self, table: &str, row: usize) -> &[usize] {
        self.entries
            .get(table)
            .and_then(|rows| rows.get(&row))
            .map_or(&[], Vec::as_slice)
    }

    /// Number of joined rows a base row participates in (its *fan-out*).
    ///
    /// A fan-out of 1 means a modification of this base row has no side
    /// effects beyond the single intended joined tuple — the database
    /// generator prefers such rows (Section 5.4.1).
    pub fn fan_out(&self, table: &str, row: usize) -> usize {
        self.joined_rows_of(table, row).len()
    }

    /// All indexed base rows of a given table.
    pub fn base_rows(&self, table: &str) -> Vec<usize> {
        self.entries
            .get(table)
            .map(|rows| rows.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Total number of `(table, base row)` entries in the index.
    pub fn len(&self) -> usize {
        self.entries.values().map(BTreeMap::len).sum()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::foreign_key::ForeignKey;
    use crate::join::full_foreign_key_join;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::table::Table;
    use crate::tuple;
    use crate::types::DataType;

    fn example_db() -> Database {
        let t1 = Table::with_rows(
            TableSchema::new(
                "T1",
                vec![
                    ColumnDef::new("A", DataType::Int),
                    ColumnDef::new("B", DataType::Int),
                    ColumnDef::new("C", DataType::Int),
                ],
            )
            .unwrap()
            .with_primary_key(&["A"])
            .unwrap(),
            vec![
                tuple![1i64, 10i64, 50i64],
                tuple![2i64, 80i64, 45i64],
                tuple![3i64, 92i64, 80i64],
            ],
        )
        .unwrap();
        let t2 = Table::with_rows(
            TableSchema::new(
                "T2",
                vec![
                    ColumnDef::new("A", DataType::Int),
                    ColumnDef::new("D", DataType::Int),
                ],
            )
            .unwrap(),
            vec![
                tuple![1i64, 20i64],
                tuple![1i64, 40i64],
                tuple![2i64, 25i64],
                tuple![3i64, 20i64],
            ],
        )
        .unwrap();
        let mut db = Database::new();
        db.add_table(t1).unwrap();
        db.add_table(t2).unwrap();
        db.add_foreign_key(ForeignKey::new("T2", "A", "T1", "A"))
            .unwrap();
        db
    }

    #[test]
    fn fan_out_matches_example_5_4() {
        // Modifying T1's base tuple (1,10,50) affects the first two joined
        // tuples (Example 5.4 in the paper), i.e. fan-out 2.
        let db = example_db();
        let join = full_foreign_key_join(&db).unwrap();
        let idx = JoinIndex::build(&join);
        assert_eq!(idx.fan_out("T1", 0), 2);
        assert_eq!(idx.fan_out("T1", 1), 1);
        assert_eq!(idx.fan_out("T1", 2), 1);
        // Each T2 row joins exactly once.
        for r in 0..4 {
            assert_eq!(idx.fan_out("T2", r), 1);
        }
    }

    #[test]
    fn joined_rows_of_returns_indices() {
        let db = example_db();
        let join = full_foreign_key_join(&db).unwrap();
        let idx = JoinIndex::build(&join);
        let rows = idx.joined_rows_of("T1", 0);
        assert_eq!(rows.len(), 2);
        for &jr in rows {
            assert_eq!(join.rows()[jr].provenance.get("T1"), Some(&0));
        }
        assert!(idx.joined_rows_of("T1", 99).is_empty());
        assert!(idx.joined_rows_of("T9", 0).is_empty());
    }

    #[test]
    fn base_rows_and_len() {
        let db = example_db();
        let join = full_foreign_key_join(&db).unwrap();
        let idx = JoinIndex::build(&join);
        assert_eq!(idx.base_rows("T1"), vec![0, 1, 2]);
        assert_eq!(idx.base_rows("T2"), vec![0, 1, 2, 3]);
        assert_eq!(idx.len(), 7);
        assert!(!idx.is_empty());
        assert!(JoinIndex::default().is_empty());
    }
}
