//! Dense field containers for grid entities.
//!
//! Layout: **column-major** — all vertical levels of one horizontal entity
//! are contiguous (`data[entity * nlev + level]`). This is the layout ICON
//! uses on GPUs for column physics and implicit vertical solvers; the
//! horizontal operators iterate entity-outer/level-inner, touching memory
//! sequentially.

/// A 2-D (single level) field over `n` horizontal entities.
#[derive(Debug, Clone, PartialEq)]
pub struct Field2 {
    data: Vec<f64>,
}

impl Field2 {
    pub fn zeros(n: usize) -> Self {
        Field2 { data: vec![0.0; n] }
    }

    pub fn from_fn(n: usize, f: impl Fn(usize) -> f64) -> Self {
        Field2 {
            data: (0..n).map(f).collect(),
        }
    }

    pub fn from_vec(data: Vec<f64>) -> Self {
        Field2 { data }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Area-weighted global integral: `sum_i w_i * f_i`.
    pub fn weighted_sum(&self, weights: &[f64]) -> f64 {
        debug_assert_eq!(self.len(), weights.len());
        self.data.iter().zip(weights).map(|(f, w)| f * w).sum()
    }

    pub fn min(&self) -> f64 {
        self.data.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.data.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }
}

impl std::ops::Index<usize> for Field2 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for Field2 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

/// A 3-D field: `n` horizontal entities times `nlev` vertical levels,
/// column-major (levels of one column contiguous).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Field3 {
    data: Vec<f64>,
    n: usize,
    nlev: usize,
}

impl Field3 {
    pub fn zeros(n: usize, nlev: usize) -> Self {
        Field3 {
            data: vec![0.0; n * nlev],
            n,
            nlev,
        }
    }

    pub fn from_fn(n: usize, nlev: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * nlev);
        for i in 0..n {
            for k in 0..nlev {
                data.push(f(i, k));
            }
        }
        Field3 { data, n, nlev }
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn nlev(&self) -> usize {
        self.nlev
    }

    #[inline]
    pub fn at(&self, i: usize, k: usize) -> f64 {
        debug_assert!(i < self.n && k < self.nlev);
        self.data[i * self.nlev + k]
    }

    #[inline]
    pub fn at_mut(&mut self, i: usize, k: usize) -> &mut f64 {
        debug_assert!(i < self.n && k < self.nlev);
        &mut self.data[i * self.nlev + k]
    }

    #[inline]
    pub fn set(&mut self, i: usize, k: usize, v: f64) {
        self.data[i * self.nlev + k] = v;
    }

    /// The vertical column of entity `i`.
    #[inline]
    pub fn col(&self, i: usize) -> &[f64] {
        &self.data[i * self.nlev..(i + 1) * self.nlev]
    }

    #[inline]
    pub fn col_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.nlev..(i + 1) * self.nlev]
    }

    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Columns as parallel-iterable disjoint chunks (for rayon consumers:
    /// `field.columns_mut().par_iter_mut()` is done by callers via
    /// `par_chunks_mut`).
    #[inline]
    pub fn chunks(&self) -> std::slice::Chunks<'_, f64> {
        self.data.chunks(self.nlev)
    }

    #[inline]
    pub fn chunks_mut(&mut self) -> std::slice::ChunksMut<'_, f64> {
        self.data.chunks_mut(self.nlev)
    }

    /// Global integral with horizontal weights: `sum_{i,k} w_i f_{i,k}`.
    pub fn weighted_sum(&self, weights: &[f64]) -> f64 {
        debug_assert_eq!(self.n, weights.len());
        self.chunks()
            .zip(weights)
            .map(|(col, w)| w * col.iter().sum::<f64>())
            .sum()
    }

    /// Global integral with per-(entity,level) volume weights
    /// `w_i * dz_k`.
    pub fn volume_weighted_sum(&self, area: &[f64], dz: &[f64]) -> f64 {
        debug_assert_eq!(self.n, area.len());
        debug_assert_eq!(self.nlev, dz.len());
        self.chunks()
            .zip(area)
            .map(|(col, a)| a * col.iter().zip(dz).map(|(f, d)| f * d).sum::<f64>())
            .sum()
    }

    pub fn min(&self) -> f64 {
        self.data.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.data.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field2_basics() {
        let mut f = Field2::zeros(4);
        f[2] = 3.5;
        assert_eq!(f[2], 3.5);
        assert_eq!(f.len(), 4);
        assert_eq!(f.weighted_sum(&[1.0, 1.0, 2.0, 1.0]), 7.0);
        assert_eq!(f.max(), 3.5);
        assert_eq!(f.min(), 0.0);
    }

    #[test]
    fn field3_layout_is_column_major() {
        let f = Field3::from_fn(3, 4, |i, k| (i * 10 + k) as f64);
        assert_eq!(f.col(1), &[10.0, 11.0, 12.0, 13.0]);
        assert_eq!(f.at(2, 3), 23.0);
        // Contiguity: column slices tile the backing store in order.
        let flat: Vec<f64> = f.chunks().flatten().cloned().collect();
        assert_eq!(flat, f.as_slice());
    }

    #[test]
    fn field3_integrals() {
        let f = Field3::from_fn(2, 2, |_, _| 2.0);
        assert_eq!(f.weighted_sum(&[1.0, 3.0]), 2.0 * 2.0 * 4.0);
        assert_eq!(f.volume_weighted_sum(&[1.0, 1.0], &[0.5, 1.5]), 2.0 * 2.0 * 2.0);
    }

    #[test]
    fn col_mut_writes_through() {
        let mut f = Field3::zeros(2, 3);
        f.col_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(f.at(1, 0), 1.0);
        assert_eq!(f.at(1, 2), 3.0);
        assert_eq!(f.at(0, 2), 0.0);
    }
}
