//! Dictionary-encoded string columns.
//!
//! Every string column in the store is dictionary encoded: a `Vec<u32>` of
//! codes plus a sorted-insertion-order dictionary of distinct values. This is
//! the "computationally lightweight" encoding the paper's §III-C2 discusses —
//! fixed-width codes keep scans sequential and cheap, at the price of holding
//! the dictionary in memory. The `bench/dictionary` ablation quantifies the
//! trade-off against raw strings.

use std::collections::HashMap;
use std::sync::Arc;

/// An immutable dictionary-encoded string column.
///
/// The dictionary is shared and immutable: [`DictColumn::take`] and
/// [`DictColumn::slice`] gather only the `u32` codes and hand the result the
/// same `Arc`, so a gather costs the same whatever the cardinality
/// (`o_comment`'s dictionary holds 58 803 values at SF 0.1). Values are distinct
/// within a dictionary (the [`DictBuilder`] invariant, which
/// [`DictColumn::take_compact`] relies on).
///
/// Dictionary *layout* is observable: the engine charges some string kernels
/// `n + cardinality` cpu ops, so which values a gathered column carries, and
/// in what order, is part of a query's `WorkProfile`. Gathers that must build
/// a fresh dictionary ([`DictColumn::take_compact`]) therefore reproduce
/// exactly what interning the rows through a [`DictBuilder`] would: only the
/// used values, in first-seen row order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictColumn {
    codes: Vec<u32>,
    values: Arc<Vec<String>>,
}

impl DictColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    /// The dictionary code for row `i`.
    #[inline]
    pub fn code(&self, i: usize) -> u32 {
        self.codes[i]
    }

    /// All codes, in row order.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The decoded string for row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        &self.values[self.codes[i] as usize]
    }

    /// The string a code maps to.
    #[inline]
    pub fn decode(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// The dictionary values (index = code).
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Reassembles a column from raw codes and dictionary values.
    ///
    /// Exists for the integrity layer's fault injection and repair paths,
    /// which must rebuild columns with deliberately wrong (but in-range)
    /// bytes. Every code must index into `values`; that invariant is
    /// asserted here because a code past the dictionary would turn silent
    /// corruption into an out-of-bounds panic at decode time.
    pub fn from_parts(codes: Vec<u32>, values: Vec<String>) -> DictColumn {
        debug_assert!(
            codes.iter().all(|&c| (c as usize) < values.len().max(1)),
            "every code must index the dictionary"
        );
        DictColumn { codes, values: Arc::new(values) }
    }

    /// Looks up the code of an exact value, if present. O(cardinality); use
    /// once per predicate, not per row.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.values.iter().position(|v| v == value).map(|p| p as u32)
    }

    /// Heap bytes of the column: codes plus the full dictionary payload. A
    /// shared dictionary is counted by every column that references it, so
    /// memory accounting does not depend on how gathers share dictionaries.
    pub fn heap_bytes(&self) -> usize {
        self.codes.len() * std::mem::size_of::<u32>()
            + self
                .values
                .iter()
                .map(|v| v.capacity() + std::mem::size_of::<String>())
                .sum::<usize>()
    }

    /// Builds a new column containing the rows selected by `sel`. Only the
    /// codes are gathered; the result shares this column's dictionary.
    pub fn take(&self, sel: &[u32]) -> DictColumn {
        DictColumn {
            codes: sel.iter().map(|&i| self.codes[i as usize]).collect(),
            values: Arc::clone(&self.values),
        }
    }

    /// Copies the contiguous code range `r`, sharing this column's
    /// dictionary — see [`crate::Column::slice`].
    pub fn slice(&self, r: std::ops::Range<usize>) -> DictColumn {
        DictColumn { codes: self.codes[r].to_vec(), values: Arc::clone(&self.values) }
    }

    /// Gathers the rows named by `sel` into a column with its own compact
    /// dictionary; an index equal to `none_row` yields `""` (an outer
    /// join's unmatched row).
    ///
    /// The result is identical, codes and values, to pushing the decoded
    /// rows through a [`DictBuilder`]: used values in first-seen row order,
    /// with `none_row` and a real `""` value sharing one code. Codes are
    /// remapped through a cardinality-sized table, so each row costs an
    /// array lookup and each used value is cloned once.
    pub fn take_compact(&self, sel: &[u32], none_row: u32) -> DictColumn {
        const UNSEEN: u32 = u32::MAX;
        let mut remap = vec![UNSEEN; self.values.len()];
        // `none_row` decodes as "", so it takes the real "" value's slot.
        let empty = self.code_of("").map(|c| c as usize);
        let mut none_code = UNSEEN;
        let mut values = Vec::new();
        let mut codes = Vec::with_capacity(sel.len());
        for &i in sel {
            let src = if i == none_row { empty } else { Some(self.codes[i as usize] as usize) };
            let slot = match src {
                Some(c) => &mut remap[c],
                None => &mut none_code,
            };
            if *slot == UNSEEN {
                *slot = values.len() as u32;
                values.push(src.map_or_else(String::new, |c| self.values[c].clone()));
            }
            codes.push(*slot);
        }
        DictColumn { codes, values: Arc::new(values) }
    }

    /// Iterates decoded values in row order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.codes.iter().map(move |&c| self.values[c as usize].as_str())
    }
}

impl<'a> FromIterator<&'a str> for DictColumn {
    fn from_iter<T: IntoIterator<Item = &'a str>>(iter: T) -> Self {
        let mut b = DictBuilder::new();
        for s in iter {
            b.push(s);
        }
        b.finish()
    }
}

/// Incremental builder for [`DictColumn`].
#[derive(Debug, Default)]
pub struct DictBuilder {
    codes: Vec<u32>,
    values: Vec<String>,
    index: HashMap<String, u32>,
}

impl DictBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with row capacity pre-allocated.
    pub fn with_capacity(rows: usize) -> Self {
        Self { codes: Vec::with_capacity(rows), ..Self::default() }
    }

    /// Appends one value, interning it in the dictionary.
    pub fn push(&mut self, value: &str) {
        let code = match self.index.get(value) {
            Some(&c) => c,
            None => {
                let c = self.values.len() as u32;
                self.values.push(value.to_string());
                self.index.insert(value.to_string(), c);
                c
            }
        };
        self.codes.push(code);
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Finalizes the column.
    pub fn finish(self) -> DictColumn {
        DictColumn { codes: self.codes, values: Arc::new(self.values) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DictColumn {
        ["AIR", "RAIL", "AIR", "TRUCK", "RAIL", "AIR"].into_iter().collect()
    }

    #[test]
    fn interning_dedupes() {
        let c = sample();
        assert_eq!(c.len(), 6);
        assert_eq!(c.cardinality(), 3);
        assert_eq!(c.get(0), "AIR");
        assert_eq!(c.get(3), "TRUCK");
        assert_eq!(c.code(0), c.code(2));
    }

    #[test]
    fn code_of_finds_existing_only() {
        let c = sample();
        let air = c.code_of("AIR").unwrap();
        assert_eq!(c.decode(air), "AIR");
        assert_eq!(c.code_of("SHIP"), None);
    }

    #[test]
    fn take_preserves_dictionary() {
        let c = sample();
        let t = c.take(&[1, 4]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0), "RAIL");
        assert_eq!(t.get(1), "RAIL");
        assert_eq!(t.cardinality(), c.cardinality());
    }

    const NONE: u32 = u32::MAX;

    /// What `take_compact` must reproduce: the decoded rows interned
    /// through a builder, `NONE` as `""`.
    fn interned(src: &DictColumn, sel: &[u32]) -> DictColumn {
        let mut b = DictBuilder::new();
        for &i in sel {
            b.push(if i == NONE { "" } else { src.get(i as usize) });
        }
        b.finish()
    }

    #[test]
    fn take_compact_matches_interning() {
        let plain = sample();
        let with_empty: DictColumn = ["x", "", "y", "x", ""].into_iter().collect();
        let cases: [(&DictColumn, &[u32]); 8] = [
            (&plain, &[4, 1, 0, 0]),
            (&plain, &[]),
            (&plain, &[NONE, NONE]),
            (&plain, &[2, NONE, 3, NONE]),
            // `NONE` before and after a real "" row must share its code.
            (&with_empty, &[NONE, 2, 1, 4, NONE]),
            (&with_empty, &[0, 1, NONE, 3]),
            (&with_empty, &[2, 0]),
            (&with_empty, &[]),
        ];
        for (src, sel) in cases {
            let got = src.take_compact(sel, NONE);
            let want = interned(src, sel);
            assert_eq!(got.codes(), want.codes(), "codes for {sel:?}");
            assert_eq!(got.values(), want.values(), "values for {sel:?}");
        }
    }

    /// Gathers and morsel slices must share the source dictionary rather
    /// than deep-copy it, whatever the dictionary's size.
    #[test]
    fn take_and_slice_share_the_dictionary() {
        let src = crate::Column::Str(sample());
        let d = src.as_str().unwrap();
        for out in [src.take(&[3, 0, 2]), src.slice(1..3), src.take(&[])] {
            assert!(Arc::ptr_eq(&out.as_str().unwrap().values, &d.values));
        }
    }

    #[test]
    fn iter_yields_row_order() {
        let c = sample();
        let rows: Vec<&str> = c.iter().collect();
        assert_eq!(rows, ["AIR", "RAIL", "AIR", "TRUCK", "RAIL", "AIR"]);
    }

    #[test]
    fn empty_column() {
        let c: DictColumn = std::iter::empty::<&str>().collect();
        assert!(c.is_empty());
        assert_eq!(c.cardinality(), 0);
        assert_eq!(c.heap_bytes(), 0);
    }

    #[test]
    fn heap_bytes_counts_codes_and_dict() {
        let c = sample();
        assert!(c.heap_bytes() >= 6 * 4 + "AIRRAILTRUCK".len());
    }
}
