//! Typed views over functional memory.

use crate::FunctionalMemory;
use imp_common::Addr;
use std::marker::PhantomData;

/// Scalar types that can live in simulated memory.
///
/// This trait is sealed: the simulator only needs the fixed set of
/// primitive widths below.
pub trait MemScalar: Copy + private::Sealed {
    /// Element size in bytes (a power of two; this is what makes IMP's
    /// shift-based address generation of Eq. (2) applicable).
    const SIZE_BYTES: u32;

    /// Writes the value at `addr`.
    fn store(self, mem: &mut FunctionalMemory, addr: Addr);

    /// Reads a value from `addr`.
    fn load(mem: &FunctionalMemory, addr: Addr) -> Self;
}

mod private {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for i32 {}
    impl Sealed for i64 {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

macro_rules! impl_mem_scalar {
    ($t:ty, $size:expr, $w:ident, $r:ident, $to:expr, $from:expr) => {
        impl MemScalar for $t {
            const SIZE_BYTES: u32 = $size;
            fn store(self, mem: &mut FunctionalMemory, addr: Addr) {
                mem.$w(addr, ($to)(self));
            }
            fn load(mem: &FunctionalMemory, addr: Addr) -> Self {
                ($from)(mem.$r(addr))
            }
        }
    };
}

impl_mem_scalar!(u8, 1, write_u8, read_u8, |v| v, |v| v);
impl_mem_scalar!(u16, 2, write_u16, read_u16, |v| v, |v| v);
impl_mem_scalar!(u32, 4, write_u32, read_u32, |v| v, |v| v);
impl_mem_scalar!(u64, 8, write_u64, read_u64, |v| v, |v| v);
impl_mem_scalar!(i32, 4, write_u32, read_u32, |v: i32| v as u32, |v: u32| v
    as i32);
impl_mem_scalar!(i64, 8, write_u64, read_u64, |v: i64| v as u64, |v: u64| v
    as i64);
impl_mem_scalar!(f32, 4, write_u32, read_u32, f32::to_bits, f32::from_bits);
impl_mem_scalar!(f64, 8, write_u64, read_u64, f64::to_bits, f64::from_bits);

/// A typed array placed in simulated memory.
///
/// `ArrayRef` is a lightweight handle (base + length); the backing bytes
/// live in a [`FunctionalMemory`] passed to each operation, so handles can
/// be freely copied into workload generators.
#[derive(Debug)]
pub struct ArrayRef<T> {
    base: Addr,
    len: u64,
    _t: PhantomData<T>,
}

impl<T> Clone for ArrayRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ArrayRef<T> {}

impl<T: MemScalar> ArrayRef<T> {
    /// Creates a view of `len` elements starting at `base`.
    pub fn new(base: Addr, len: u64) -> Self {
        ArrayRef {
            base,
            len,
            _t: PhantomData,
        }
    }

    /// Base address of element 0.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element size in bytes.
    pub fn elem_bytes(&self) -> u32 {
        T::SIZE_BYTES
    }

    /// Address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i` is out of bounds.
    pub fn addr_of(&self, i: u64) -> Addr {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base.offset((i * T::SIZE_BYTES as u64) as i64)
    }

    /// Reads element `i`.
    pub fn read(&self, mem: &FunctionalMemory, i: u64) -> T {
        T::load(mem, self.addr_of(i))
    }

    /// Writes element `i`.
    pub fn write(&self, mem: &mut FunctionalMemory, i: u64, v: T) {
        v.store(mem, self.addr_of(i));
    }

    /// Copies a host slice into simulated memory starting at element 0.
    ///
    /// # Panics
    ///
    /// Panics if `values` is longer than the array.
    pub fn fill_from(&self, mem: &mut FunctionalMemory, values: &[T]) {
        assert!(values.len() as u64 <= self.len, "slice longer than array");
        for (i, v) in values.iter().enumerate() {
            self.write(mem, i as u64, *v);
        }
    }
}

/// A bit vector in simulated memory (used by Triangle Counting; accessed
/// indirectly with the paper's shift of -3, i.e. coefficient 1/8).
#[derive(Clone, Copy, Debug)]
pub struct BitVecRef {
    base: Addr,
    bits: u64,
}

impl BitVecRef {
    /// Creates a view of `bits` bits starting at `base`.
    pub fn new(base: Addr, bits: u64) -> Self {
        BitVecRef { base, bits }
    }

    /// Base address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Byte address holding bit `i`: `base + (i >> 3)`. This is exactly
    /// the address the workload's `A[B[i]]` access touches with
    /// coefficient 1/8.
    pub fn addr_of_bit(&self, i: u64) -> Addr {
        debug_assert!(i < self.bits, "bit {i} out of bounds ({} bits)", self.bits);
        self.base.offset((i >> 3) as i64)
    }

    /// Reads bit `i`.
    pub fn get(&self, mem: &FunctionalMemory, i: u64) -> bool {
        let byte = mem.read_u8(self.addr_of_bit(i));
        byte & (1 << (i & 7)) != 0
    }

    /// Sets bit `i` to `v`.
    pub fn set(&self, mem: &mut FunctionalMemory, i: u64, v: bool) {
        let addr = self.addr_of_bit(i);
        let mut byte = mem.read_u8(addr);
        if v {
            byte |= 1 << (i & 7);
        } else {
            byte &= !(1 << (i & 7));
        }
        mem.write_u8(addr, byte);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AddressSpace;

    #[test]
    fn array_roundtrip_every_type() {
        let mut s = AddressSpace::new();
        let mut m = FunctionalMemory::new();
        let a = s.alloc_array::<f64>("f", 4);
        a.write(&mut m, 0, 3.25);
        a.write(&mut m, 3, -1.5);
        assert_eq!(a.read(&m, 0), 3.25);
        assert_eq!(a.read(&m, 3), -1.5);

        let b = s.alloc_array::<i32>("i", 4);
        b.write(&mut m, 1, -7);
        assert_eq!(b.read(&m, 1), -7);

        let c = s.alloc_array::<u64>("u", 2);
        c.write(&mut m, 0, u64::MAX);
        assert_eq!(c.read(&m, 0), u64::MAX);
    }

    #[test]
    fn fill_from_writes_prefix() {
        let mut s = AddressSpace::new();
        let mut m = FunctionalMemory::new();
        let a = s.alloc_array::<u32>("x", 8);
        a.fill_from(&mut m, &[1, 2, 3]);
        assert_eq!(a.read(&m, 0), 1);
        assert_eq!(a.read(&m, 2), 3);
        assert_eq!(a.read(&m, 3), 0); // untouched stays zero
    }

    #[test]
    fn addresses_follow_element_size() {
        let mut s = AddressSpace::new();
        let a = s.alloc_array::<u16>("h", 10);
        assert_eq!(a.addr_of(4).raw() - a.base().raw(), 8);
        assert_eq!(a.elem_bytes(), 2);
    }

    #[test]
    fn bitvec_addressing_is_coeff_one_eighth() {
        let mut s = AddressSpace::new();
        let bv = s.alloc_bitvec("bits", 1024);
        // bit i lives at base + i/8: the shift -3 pattern of the paper.
        assert_eq!(bv.addr_of_bit(0), bv.base());
        assert_eq!(bv.addr_of_bit(7), bv.base());
        assert_eq!(bv.addr_of_bit(8).raw(), bv.base().raw() + 1);
        assert_eq!(bv.addr_of_bit(1023).raw(), bv.base().raw() + 127);
    }

    #[test]
    fn bitvec_set_get() {
        let mut s = AddressSpace::new();
        let mut m = FunctionalMemory::new();
        let bv = s.alloc_bitvec("bits", 100);
        assert!(!bv.get(&m, 42));
        bv.set(&mut m, 42, true);
        assert!(bv.get(&m, 42));
        assert!(!bv.get(&m, 41));
        assert!(!bv.get(&m, 43));
        bv.set(&mut m, 42, false);
        assert!(!bv.get(&m, 42));
    }
}
