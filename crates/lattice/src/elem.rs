use std::fmt;

/// An element of a finite lattice, identified by its index.
///
/// `Elem` is just a validated index; which lattice it belongs to is
/// determined by context. Indices are assigned by each lattice
/// implementation in `0..len`.
///
/// # Examples
///
/// ```
/// use taint_lattice::Elem;
///
/// let e = Elem::new(3);
/// assert_eq!(e.index(), 3);
/// assert_eq!(e.to_string(), "τ3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Elem(u32);

impl Elem {
    /// Creates the element with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    pub fn new(index: usize) -> Self {
        Elem(u32::try_from(index).expect("lattice element index overflows u32"))
    }

    /// The element's index within its lattice.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// `const`-context constructor used for lattice-constant elements.
    pub(crate) const fn from_const(index: u32) -> Self {
        Elem(index)
    }
}

impl fmt::Debug for Elem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Elem({})", self.0)
    }
}

impl fmt::Display for Elem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

impl From<u32> for Elem {
    fn from(value: u32) -> Self {
        Elem(value)
    }
}

impl From<Elem> for u32 {
    fn from(value: Elem) -> Self {
        value.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_index_round_trip() {
        for i in [0usize, 1, 7, 1000] {
            assert_eq!(Elem::new(i).index(), i);
        }
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let e = Elem::new(2);
        assert_eq!(format!("{e}"), "τ2");
        assert_eq!(format!("{e:?}"), "Elem(2)");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(Elem::new(1) < Elem::new(2));
    }

    #[test]
    fn u32_conversions_round_trip() {
        let e = Elem::from(9u32);
        assert_eq!(u32::from(e), 9);
    }
}
