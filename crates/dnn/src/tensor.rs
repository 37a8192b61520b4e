//! A small dense tensor type (channel-major, `f32`).
//!
//! The networks in this crate operate on single images in `[C, H, W]` layout
//! and on flat vectors `[N]`; a full batch dimension is not needed for the
//! accuracy experiments and keeping the type small keeps the layer code
//! readable.

use crate::error::DnnError;
use serde::{Deserialize, Serialize};
#[cfg(test)]
use std::cell::Cell;

#[cfg(test)]
thread_local! {
    /// Per-thread count of [`Tensor::clone`] calls (see [`clone_count`]).
    static CLONE_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Number of `Tensor::clone` calls performed by the *current thread* so far
/// (unit-test builds only).
///
/// Instrumentation hook for the zero-copy regression tests: the inference
/// and training hot paths are required to perform **no** intermediate tensor
/// clones, and the tests pin that down by comparing this counter before and
/// after a forward/backward pass.  The counter is thread-local so parallel
/// test threads cannot perturb each other's measurement.
#[cfg(test)]
pub(crate) fn clone_count() -> u64 {
    CLONE_COUNT.with(Cell::get)
}

/// A dense `f32` tensor with an explicit shape.
///
/// # Example
///
/// ```rust
/// use optima_dnn::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.shape(), &[2, 3]);
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Default for Tensor {
    /// An empty placeholder tensor (no shape, no elements, no allocation),
    /// meant as a seed for in-place [`Tensor::resize_to`] /
    /// [`Tensor::copy_from`] — the scratch-arena pools start from this.
    fn default() -> Self {
        Tensor {
            shape: Vec::new(),
            data: Vec::new(),
        }
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        #[cfg(test)]
        CLONE_COUNT.with(|count| count.set(count.get() + 1));
        Tensor {
            shape: self.shape.clone(),
            data: self.data.clone(),
        }
    }
}

impl Tensor {
    /// Creates a zero-filled tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Creates a tensor from raw data.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] when the data length does not
    /// match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self, DnnError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(DnnError::ShapeMismatch {
                expected: shape.to_vec(),
                found: vec![data.len()],
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: vec![data.len()],
            data: data.to_vec(),
        }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] when the element counts differ.
    pub fn reshaped(&self, shape: &[usize]) -> Result<Tensor, DnnError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(DnnError::ShapeMismatch {
                expected: shape.to_vec(),
                found: self.shape.clone(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Reinterprets the tensor in place with a new shape of equal element
    /// count (no data movement).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] when the element counts differ.
    pub fn reshape_in_place(&mut self, shape: &[usize]) -> Result<(), DnnError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(DnnError::ShapeMismatch {
                expected: shape.to_vec(),
                found: self.shape.clone(),
            });
        }
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        Ok(())
    }

    /// Reshapes the tensor in place to `shape`, zero-filling the data.
    ///
    /// Shape and data capacities are retained, so repeated calls allocate
    /// only while the element count is still growing towards its steady
    /// state — the property the scratch-arena inference path relies on.
    pub fn resize_to(&mut self, shape: &[usize]) {
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        let len = shape.iter().product();
        self.data.clear();
        self.data.resize(len, 0.0);
    }

    /// Copies another tensor's shape and data into this one, reusing the
    /// existing capacity (no allocation once large enough).
    pub fn copy_from(&mut self, other: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&other.shape);
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Value at `[c, y, x]` of a 3-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-D or the indices are out of range.
    pub fn at3(&self, c: usize, y: usize, x: usize) -> f32 {
        assert_eq!(self.shape.len(), 3, "at3 requires a 3-D tensor");
        let (_, h, w) = (self.shape[0], self.shape[1], self.shape[2]);
        self.data[(c * h + y) * w + x]
    }

    /// Mutable value at `[c, y, x]` of a 3-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-D or the indices are out of range.
    pub fn at3_mut(&mut self, c: usize, y: usize, x: usize) -> &mut f32 {
        assert_eq!(self.shape.len(), 3, "at3_mut requires a 3-D tensor");
        let (_, h, w) = (self.shape[0], self.shape[1], self.shape[2]);
        &mut self.data[(c * h + y) * w + x]
    }

    /// Largest absolute value (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |acc, v| acc.max(v.abs()))
    }

    /// Index of the largest element (argmax); `None` for empty tensors.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Indices of the `k` largest elements, in descending order of value.
    ///
    /// Runs in `O(n + k log k)` via a selection partition instead of a full
    /// sort, and orders by [`f32::total_cmp`] (ties broken by ascending
    /// index), so the result is deterministic even in the presence of NaNs
    /// — consistent with the workspace-wide `total_cmp` ordering policy.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut indices: Vec<usize> = (0..self.data.len()).collect();
        let k = k.min(indices.len());
        if k == 0 {
            return Vec::new();
        }
        let descending =
            |&a: &usize, &b: &usize| self.data[b].total_cmp(&self.data[a]).then(a.cmp(&b));
        if k < indices.len() {
            indices.select_nth_unstable_by(k - 1, descending);
            indices.truncate(k);
        }
        indices.sort_unstable_by(descending);
        indices
    }

    /// Elementwise sum with another tensor of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, DnnError> {
        if self.shape != other.shape {
            return Err(DnnError::ShapeMismatch {
                expected: self.shape.clone(),
                found: other.shape.clone(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Applies a function to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies a function to every element in place (no allocation).
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for value in &mut self.data {
            *value = f(*value);
        }
    }

    /// Elementwise in-place sum with another tensor of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), DnnError> {
        if self.shape != other.shape {
            return Err(DnnError::ShapeMismatch {
                expected: self.shape.clone(),
                found: other.shape.clone(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.data()[3], 4.0);
        assert!(Tensor::from_vec(&[3], vec![1.0]).is_err());
    }

    #[test]
    fn three_d_indexing_is_row_major_within_channel() {
        let mut t = Tensor::zeros(&[2, 2, 3]);
        *t.at3_mut(1, 1, 2) = 7.0;
        assert_eq!(t.at3(1, 1, 2), 7.0);
        assert_eq!(t.data()[2 * 2 * 3 - 1], 7.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.reshaped(&[2, 3]).unwrap();
        assert_eq!(r.shape(), &[2, 3]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshaped(&[4, 2]).is_err());
    }

    #[test]
    fn argmax_and_top_k() {
        let t = Tensor::from_slice(&[0.1, 0.9, 0.3, 0.8]);
        assert_eq!(t.argmax(), Some(1));
        assert_eq!(t.top_k(2), vec![1, 3]);
        assert_eq!(Tensor::from_slice(&[]).argmax(), None);
    }

    #[test]
    fn add_and_map() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 6.0]);
        assert!(a.add(&Tensor::zeros(&[3])).is_err());
        assert_eq!(a.map(|v| v * 2.0).data(), &[2.0, 4.0]);
        assert_eq!(b.max_abs(), 4.0);
    }

    #[test]
    fn in_place_operations_match_their_allocating_twins() {
        let mut a = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let b = Tensor::from_slice(&[0.5, 0.5, 0.5]);
        a.add_assign(&b).unwrap();
        assert_eq!(a.data(), &[1.5, -1.5, 3.5]);
        assert!(a.add_assign(&Tensor::zeros(&[2])).is_err());
        a.map_inplace(|v| v.max(0.0));
        assert_eq!(a.data(), &[1.5, 0.0, 3.5]);
        a.reshape_in_place(&[3, 1]).unwrap();
        assert_eq!(a.shape(), &[3, 1]);
        assert!(a.reshape_in_place(&[4]).is_err());
    }

    #[test]
    fn top_k_matches_a_full_sort_and_handles_edge_cases() {
        let t = Tensor::from_slice(&[0.3, 0.9, 0.1, 0.9, -0.5, 0.7]);
        // Descending by value, ties broken by ascending index.
        assert_eq!(t.top_k(4), vec![1, 3, 5, 0]);
        assert_eq!(t.top_k(0), Vec::<usize>::new());
        assert_eq!(t.top_k(100), vec![1, 3, 5, 0, 2, 4]);
    }

    #[test]
    fn top_k_is_deterministic_under_nan() {
        // total_cmp sorts NaN above all finite values, so a NaN logit is
        // selected deterministically rather than shuffling the order.
        let t = Tensor::from_slice(&[0.2, f32::NAN, 0.8, 0.5]);
        assert_eq!(t.top_k(2), vec![1, 2]);
        assert_eq!(t.top_k(2), t.top_k(2));
    }

    #[test]
    fn resize_to_and_copy_from_reuse_capacity() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.resize_to(&[4]);
        assert_eq!(t.shape(), &[4]);
        assert_eq!(t.data(), &[0.0; 4]);
        let source = Tensor::from_vec(&[1, 2], vec![5.0, 6.0]).unwrap();
        t.copy_from(&source);
        assert_eq!(t.shape(), &[1, 2]);
        assert_eq!(t.data(), &[5.0, 6.0]);
        // Shrinking keeps the larger capacity around for reuse.
        t.resize_to(&[6]);
        assert_eq!(t.data(), &[0.0; 6]);
    }

    #[test]
    fn clone_count_increments_per_clone() {
        let t = Tensor::zeros(&[4]);
        let before = clone_count();
        let _copy = t.clone();
        assert_eq!(clone_count(), before + 1);
    }
}
