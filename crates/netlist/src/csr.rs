//! Compressed sparse rows: a jagged table in two flat buffers, whatever
//! its row count. The netlist's fanin and fanout, the partitioner's graph
//! adjacency, the replication planner's per-gate replica rows and the
//! compiled blocks' reader and route tables are all stored this way.

/// A jagged table stored flat: row `i` is `values[offsets[i]..offsets[i + 1]]`.
///
/// Rows are appended in order; the last one stays open (accepting
/// [`Csr::push`]) until [`Csr::close_row`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    offsets: Vec<u32>,
    values: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr::with_capacity(0, 0)
    }
}

impl<T> Csr<T> {
    /// No rows, with room for `rows` rows of `values` values in all.
    pub fn with_capacity(rows: usize, values: usize) -> Csr<T> {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Csr { offsets, values: Vec::with_capacity(values) }
    }

    /// Number of closed rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[T] {
        &self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Row `i`, mutable.
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Row offsets: `rows() + 1` of them, starting at 0.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every value, row after row.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Every value, row after row, mutable.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Append a value to the open row.
    pub fn push(&mut self, value: T) {
        self.values.push(value);
    }

    /// Close the open row with the values pushed since the last close.
    pub fn close_row(&mut self) {
        let end = u32::try_from(self.values.len()).expect("a Csr holds at most u32::MAX values");
        self.offsets.push(end);
    }

    /// Append a whole row.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.values.extend(row);
        self.close_row();
    }
}

impl<T: Copy + Default> Csr<T> {
    /// `rows` rows holding each `(row, value)` of `entries`, by counting
    /// sort: a row keeps its entries in iteration order. `entries` is
    /// walked twice, once to count and once to place.
    pub fn by_row(rows: usize, entries: impl Iterator<Item = (usize, T)> + Clone) -> Csr<T> {
        let mut offsets = vec![0u32; rows + 1];
        for (r, _) in entries.clone() {
            offsets[r + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        let mut next = offsets.clone();
        let mut values = vec![T::default(); offsets[rows] as usize];
        for (r, v) in entries {
            values[next[r] as usize] = v;
            next[r] += 1;
        }
        Csr { offsets, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_appended_and_grouped_agree() {
        let mut pushed: Csr<u32> = Csr::default();
        pushed.push_row([7, 8]);
        pushed.close_row();
        pushed.push(9);
        pushed.close_row();
        assert_eq!(pushed.rows(), 3);
        assert_eq!((pushed.row(0), pushed.row(1), pushed.row(2)), (&[7, 8][..], &[][..], &[9][..]));
        let grouped = Csr::by_row(3, [(2, 9), (0, 7), (0, 8)].into_iter());
        assert_eq!(grouped, pushed);
        assert_eq!(grouped.offsets(), &[0, 2, 2, 3]);
    }
}
