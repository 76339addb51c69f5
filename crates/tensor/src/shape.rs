//! Shapes and strides.

/// A tensor shape: the extent of each dimension.
///
/// Kept as a thin wrapper over `Vec<usize>` so callers can pattern-match,
/// while giving shape arithmetic a home.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Total number of elements (1 for a scalar / empty shape).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Row-major (C-order) strides, in *elements*, for a shape.
///
/// The last dimension is contiguous; a zero-dimensional shape has no
/// strides. Dimensions of extent 0 are permitted (empty tensors).
pub fn contiguous_strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![0usize; dims.len()];
    let mut acc = 1usize;
    for (i, &d) in dims.iter().enumerate().rev() {
        strides[i] = acc;
        acc = acc.saturating_mul(d.max(1));
    }
    strides
}

/// True when `strides` describe a dense row-major layout for `dims`:
/// exactly [`contiguous_strides`], walked from the last dimension without
/// building them (this runs on every `Tensor::bytes()`).
pub fn is_contiguous(dims: &[usize], strides: &[usize]) -> bool {
    if dims.len() != strides.len() {
        return false;
    }
    let mut acc = 1usize;
    for (&d, &stride) in dims.iter().zip(strides).rev() {
        if stride != acc {
            return false;
        }
        acc = acc.saturating_mul(d.max(1));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_products_dims() {
        assert_eq!(Shape::new(&[2, 3, 4]).numel(), 24);
        assert_eq!(Shape::new(&[]).numel(), 1);
        assert_eq!(Shape::new(&[5, 0, 2]).numel(), 0);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(contiguous_strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(contiguous_strides(&[7]), vec![1]);
        assert!(contiguous_strides(&[]).is_empty());
    }

    #[test]
    fn strides_with_zero_dim() {
        // a zero-extent dim must not zero out outer strides
        assert_eq!(contiguous_strides(&[2, 0, 3]), vec![3, 3, 1]);
    }

    #[test]
    fn contiguity_check() {
        assert!(is_contiguous(&[2, 3], &[3, 1]));
        assert!(!is_contiguous(&[2, 3], &[4, 1]));
    }

    #[test]
    fn the_contiguity_walk_agrees_with_comparing_built_strides() {
        let built = |dims: &[usize], strides: &[usize]| strides == contiguous_strides(dims);
        let shapes: [&[usize]; 8] = [
            &[],
            &[1],
            &[7],
            &[2, 3, 4],
            &[2, 0, 3], // a zero extent keeps the outer strides
            &[0],
            &[1, 1, 5],
            &[usize::MAX, 2, 3], // saturates, in both
        ];
        for dims in shapes {
            let dense = contiguous_strides(dims);
            assert!(is_contiguous(dims, &dense), "{dims:?}");
            // Every one-off stride vector, the shapes a sliced or
            // transposed view has.
            for i in 0..dense.len() {
                for bump in [1usize, 2] {
                    let mut sliced = dense.clone();
                    sliced[i] = sliced[i].saturating_add(bump);
                    assert_eq!(
                        is_contiguous(dims, &sliced),
                        built(dims, &sliced),
                        "{dims:?} {sliced:?}"
                    );
                }
                let mut swapped = dense.clone();
                swapped.swap(i, dense.len() - 1);
                assert_eq!(
                    is_contiguous(dims, &swapped),
                    built(dims, &swapped),
                    "{dims:?} {swapped:?}"
                );
            }
            // A rank mismatch is never contiguous.
            let mut longer = dense.clone();
            longer.push(1);
            assert!(!is_contiguous(dims, &longer));
            assert_eq!(built(dims, &longer), is_contiguous(dims, &longer));
        }
        // A real sliced view: rows 0..2 of a [4, 6] tensor narrowed to
        // columns 1..4 has dims [2, 3] over strides [6, 1].
        assert!(!is_contiguous(&[2, 3], &[6, 1]));
        assert!(!built(&[2, 3], &[6, 1]));
    }

    #[test]
    fn display_shape() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::new(&[]).to_string(), "[]");
    }
}
