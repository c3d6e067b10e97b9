//! The zero-copy gradient data plane: contiguous gradient storage
//! ([`GradientBlock`]) and scratch-buffer reuse ([`BufferPool`]).
//!
//! The paper (and the communication-efficient gradient-coding line of
//! work it belongs to) treats the gradient vector as *the* unit of cost.
//! Before this module the workspace's hot paths did not: partial
//! gradients travelled as `Vec<Vec<f64>>` (one heap allocation per
//! partition per round), coded gradients were fresh `Vec<f64>`s, and
//! every decode materialized new vectors. [`GradientBlock`] flattens the
//! `k × d` partial-gradient matrix into one contiguous allocation whose
//! rows are borrowed (`row`/`row_mut`), and [`BufferPool`] recycles
//! `d`-length scratch vectors so steady-state training performs zero
//! data-plane allocations. See `GradientCodec::encode_into` and
//! `DecodePlan::apply_into` for the codec entry points built on top.
//!
//! # Ownership rules ([`BufferPool`])
//!
//! * [`BufferPool::checkout`] transfers ownership of a `dim`-length,
//!   **zeroed** buffer to the caller. The pool never retains a handle to
//!   a checked-out buffer.
//! * The caller returns the buffer with [`BufferPool::recycle`] — ideally
//!   to the pool it came from, though any pool of the same `dim` accepts
//!   it (buffers carry no provenance). Dropping a checked-out buffer is
//!   safe but forfeits the reuse (the next checkout allocates).
//! * Recycled buffers are re-zeroed at the *next* checkout, so data can
//!   never leak from one round (or one worker) into another — this is
//!   asserted by the `buffer_pool_never_leaks_stale_data` property test.
//! * [`BufferPool::hits`] / [`BufferPool::misses`] /
//!   [`BufferPool::alloc_bytes`] expose the recycling behaviour to
//!   telemetry (`RoundRecord.pool_hits` / `RoundRecord.alloc_bytes`).

use crate::error::CodingError;

/// Flat, contiguous `rows × dim` gradient storage: row `j` is partition
/// `j`'s partial gradient (or worker `j`'s coded gradient, depending on
/// the consumer). One allocation holds the whole block; rows are borrowed
/// slices, never copied.
///
/// # Example
///
/// ```
/// use hetgc_coding::GradientBlock;
///
/// let mut block = GradientBlock::new(3, 4);
/// block.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(block.row(1), &[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(block.row(0), &[0.0; 4]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBlock {
    data: Vec<f64>,
    rows: usize,
    dim: usize,
}

impl GradientBlock {
    /// A zeroed `rows × dim` block (one allocation).
    pub fn new(rows: usize, dim: usize) -> Self {
        GradientBlock {
            data: vec![0.0; rows * dim],
            rows,
            dim,
        }
    }

    /// Builds a block from equal-length rows (one `Vec` per row), copying
    /// each row into the flat storage.
    ///
    /// # Errors
    ///
    /// [`CodingError::InvalidParameter`] when row lengths disagree.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, CodingError> {
        let dim = rows.first().map_or(0, Vec::len);
        let mut block = GradientBlock::new(rows.len(), dim);
        for (j, row) in rows.iter().enumerate() {
            if row.len() != dim {
                return Err(CodingError::InvalidParameter {
                    reason: format!("row {j} has dim {}, expected {dim}", row.len()),
                });
            }
            block.row_mut(j).copy_from_slice(row);
        }
        Ok(block)
    }

    /// Number of rows (`k` partitions, or `m` workers).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Length of each row (`d` model parameters).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as a borrowed slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} >= rows={}", self.rows);
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Row `i` as a mutable borrowed slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} >= rows={}", self.rows);
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole block, row-major, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshapes to `rows × dim`, zeroing the contents. Reuses the existing
    /// allocation when it is large enough — the re-code path calls this
    /// instead of constructing a fresh block.
    pub fn reset(&mut self, rows: usize, dim: usize) {
        self.rows = rows;
        self.dim = dim;
        self.data.clear();
        self.data.resize(rows * dim, 0.0);
    }

    /// Copies the block out as one `Vec` per row — the layout the dense
    /// reference [`CodingMatrix::encode`](crate::CodingMatrix::encode)
    /// takes; avoid it on hot paths.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.rows).map(|i| self.row(i).to_vec()).collect()
    }
}

/// A pool of `dim`-length scratch vectors with checkout/recycle
/// semantics: the steady-state replacement for per-round `vec![0.0; d]`.
/// See the module docs for the ownership rules.
///
/// # Example
///
/// ```
/// use hetgc_coding::BufferPool;
///
/// let mut pool = BufferPool::new(4);
/// let mut buf = pool.checkout(); // zeroed, len 4 — this one allocates
/// buf[0] = 7.0;
/// pool.recycle(buf);
/// let again = pool.checkout(); // recycled: no allocation, re-zeroed
/// assert_eq!(again, vec![0.0; 4]);
/// assert_eq!((pool.hits(), pool.misses()), (1, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BufferPool {
    dim: usize,
    free: Vec<Vec<f64>>,
    hits: u64,
    misses: u64,
    alloc_bytes: u64,
}

impl BufferPool {
    /// An empty pool of `dim`-length buffers.
    pub fn new(dim: usize) -> Self {
        BufferPool {
            dim,
            free: Vec::new(),
            hits: 0,
            misses: 0,
            alloc_bytes: 0,
        }
    }

    /// Checks a zeroed `dim`-length buffer out of the pool. Recycled
    /// buffers are re-zeroed here (never handed out dirty); an empty pool
    /// allocates (counted in [`BufferPool::alloc_bytes`]).
    pub fn checkout(&mut self) -> Vec<f64> {
        match self.free.pop() {
            Some(mut buf) => {
                self.hits += 1;
                buf.clear();
                buf.resize(self.dim, 0.0);
                buf
            }
            None => {
                self.misses += 1;
                self.alloc_bytes += (self.dim * std::mem::size_of::<f64>()) as u64;
                vec![0.0; self.dim]
            }
        }
    }

    /// Checks out a buffer of an explicit length (instead of the pool's
    /// `dim`), zeroed — for callers with round-varying scratch sizes
    /// (e.g. a session's arrival-combination rows).
    pub(crate) fn checkout_with_len(&mut self, len: usize) -> Vec<f64> {
        match self.free.pop() {
            Some(mut buf) => {
                self.hits += 1;
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.misses += 1;
                self.alloc_bytes += (len * std::mem::size_of::<f64>()) as u64;
                vec![0.0; len]
            }
        }
    }

    /// Checks out a buffer initialized as a copy of `src` (fully
    /// overwritten — no zeroing pass needed).
    pub fn checkout_copied(&mut self, src: &[f64]) -> Vec<f64> {
        match self.free.pop() {
            Some(mut buf) => {
                self.hits += 1;
                buf.clear();
                buf.extend_from_slice(src);
                buf
            }
            None => {
                self.misses += 1;
                self.alloc_bytes += std::mem::size_of_val(src) as u64;
                src.to_vec()
            }
        }
    }

    /// Returns a buffer to the pool. Buffers of a different length are
    /// accepted too (they are resized at the next checkout), so a pool
    /// survives a re-code that changes `dim`.
    pub fn recycle(&mut self, buf: Vec<f64>) {
        self.free.push(buf);
    }

    /// Grows an arena that is written by index to at least `len`
    /// elements, booking a reallocation in [`BufferPool::alloc_bytes`] as
    /// if it were a miss of the arena's new size. The first growth after
    /// a checkout takes the whole recycled capacity at once.
    #[inline]
    pub(crate) fn grow<T: Copy + Default>(&mut self, buf: &mut Vec<T>, len: usize) {
        if buf.len() < len {
            self.grow_to(buf, len);
        }
    }

    #[cold]
    fn grow_to<T: Copy + Default>(&mut self, buf: &mut Vec<T>, len: usize) {
        let before = buf.capacity();
        buf.resize(len.max(2 * buf.len()).max(before), T::default());
        if buf.capacity() != before {
            self.alloc_bytes += (buf.capacity() * std::mem::size_of::<T>()) as u64;
        }
    }

    /// Buffers currently parked in the pool.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Checkouts served by recycling (no allocation).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Checkouts that had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total bytes allocated by misses over the pool's lifetime.
    pub fn alloc_bytes(&self) -> u64 {
        self.alloc_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_rows_are_disjoint_views() {
        let mut b = GradientBlock::new(2, 3);
        b.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        b.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(b.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(b.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(b.data, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(b.to_rows(), vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
    }

    #[test]
    fn block_from_rows_round_trips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let b = GradientBlock::from_rows(&rows).unwrap();
        assert_eq!((b.rows(), b.dim()), (3, 2));
        assert_eq!(b.to_rows(), rows);
        assert!(GradientBlock::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn block_reset_reuses_capacity() {
        let mut b = GradientBlock::new(4, 8);
        b.row_mut(3)[7] = 9.0;
        let ptr = b.data.as_ptr();
        b.reset(2, 16); // same total size: must not reallocate
        assert_eq!(b.data.as_ptr(), ptr);
        assert_eq!((b.rows(), b.dim()), (2, 16));
        assert!(b.data.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "row 2")]
    fn block_row_out_of_range_panics() {
        GradientBlock::new(2, 3).row(2);
    }

    #[test]
    fn pool_checkout_recycle_counts() {
        let mut pool = BufferPool::new(3);
        let a = pool.checkout();
        let b = pool.checkout();
        assert_eq!(pool.misses(), 2);
        assert_eq!(pool.alloc_bytes(), 2 * 3 * 8);
        pool.recycle(a);
        pool.recycle(b);
        assert_eq!(pool.available(), 2);
        let _c = pool.checkout();
        assert_eq!((pool.hits(), pool.misses()), (1, 2));
        assert_eq!(pool.alloc_bytes(), 2 * 3 * 8, "hits allocate nothing");
    }

    #[test]
    fn pool_rezeros_recycled_buffers() {
        let mut pool = BufferPool::new(4);
        let mut buf = pool.checkout();
        buf.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        pool.recycle(buf);
        assert_eq!(pool.checkout(), vec![0.0; 4], "stale data must not leak");
    }

    #[test]
    fn pool_survives_dim_change() {
        // A buffer recycled at another length (a re-code changed `dim`)
        // is tolerated: resized and re-zeroed on reuse.
        let mut pool = BufferPool::new(5);
        pool.recycle(vec![1.0; 2]);
        assert_eq!(pool.checkout(), vec![0.0; 5]);
        assert_eq!((pool.hits(), pool.misses()), (1, 0));
    }
}
