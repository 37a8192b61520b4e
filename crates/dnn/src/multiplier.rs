//! Pluggable narrow-integer product providers.
//!
//! The quantized inference engine performs every magnitude product through
//! the [`ProductTable`] trait.  Implementations:
//!
//! * [`ExactInt4Products`] — the error-free INT4 baseline of Tables II/III,
//! * [`ExactProducts`] — the same baseline at any operand width (1..=8 bits),
//! * [`InMemoryProducts`] — the in-SRAM multiplier of a selected OPTIMA
//!   design corner (via [`optima_imc::multiplier::MultiplierTable`]),
//! * [`ComposedProducts`] — digital shift-add composition of a wide product
//!   from a narrower table, mirroring the multi-pass
//!   `optima_circuit::array::ArrayConfig` slice composition (e.g. INT8
//!   from 4-bit analog slices),
//! * [`DynDispatchProducts`] — a decorator that opts a table out of LUT
//!   snapshotting, forcing the per-product dynamic-dispatch reference path
//!   that the LUT bit-identity tests and benchmarks compare against.

use optima_imc::multiplier::MultiplierTable;
use std::fmt;
use std::sync::Arc;

/// Provider of `operand_bits`-wide magnitude products.
pub trait ProductTable: Send + Sync {
    /// Product of two magnitudes (`a, b ∈ 0..=2^operand_bits − 1`).
    fn product(&self, a: u8, b: u8) -> u16;

    /// Short human-readable name (used in experiment tables).
    fn name(&self) -> String;

    /// Operand width in bits; the quantized inference engine sizes its flat
    /// product LUT as `(1 << 2·operand_bits)` entries and quantizes weights
    /// and activations to this width.  Defaults to the paper's 4 bits.
    fn operand_bits(&self) -> u8 {
        4
    }

    /// Whether [`ProductTable::product`] is a pure function of its operands,
    /// allowing the quantized inference engine to snapshot the full product
    /// space into a flat lookup table once and never call `product` again.
    ///
    /// Defaults to `true`.  Tables returning `false` — e.g.
    /// [`DynDispatchProducts`] — route inference through the per-product
    /// dynamic-dispatch reference path, so every multiplication calls
    /// `product`.
    fn supports_snapshot(&self) -> bool {
        true
    }
}

impl fmt::Debug for dyn ProductTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProductTable({})", self.name())
    }
}

/// Error-free INT4 multiplication.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactInt4Products;

impl ProductTable for ExactInt4Products {
    fn product(&self, a: u8, b: u8) -> u16 {
        debug_assert!(a <= 15 && b <= 15);
        a as u16 * b as u16
    }

    fn name(&self) -> String {
        "exact-int4".to_string()
    }
}

/// Error-free multiplication at an arbitrary operand width (1..=8 bits).
#[derive(Debug, Clone, Copy)]
pub struct ExactProducts {
    bits: u8,
}

impl ExactProducts {
    /// Exact products of `bits`-wide magnitudes.
    ///
    /// # Panics
    ///
    /// Panics when `bits` is outside 1..=8 (products must fit `u16`).
    pub fn new(bits: u8) -> Self {
        assert!(
            (1..=8).contains(&bits),
            "operand width must be 1..=8 bits, got {bits}"
        );
        ExactProducts { bits }
    }
}

impl ProductTable for ExactProducts {
    fn product(&self, a: u8, b: u8) -> u16 {
        a as u16 * b as u16
    }

    fn name(&self) -> String {
        format!("exact-int{}", self.bits)
    }

    fn operand_bits(&self) -> u8 {
        self.bits
    }
}

/// Products looked up from a pre-computed in-SRAM multiplier table.
#[derive(Debug, Clone)]
pub struct InMemoryProducts {
    table: MultiplierTable,
    label: String,
}

impl InMemoryProducts {
    /// Wraps a multiplier table under a descriptive label (e.g. `"fom"`).
    pub fn new(table: MultiplierTable, label: impl Into<String>) -> Self {
        InMemoryProducts {
            table,
            label: label.into(),
        }
    }

    /// The wrapped table.
    pub fn table(&self) -> &MultiplierTable {
        &self.table
    }
}

impl ProductTable for InMemoryProducts {
    fn product(&self, a: u8, b: u8) -> u16 {
        self.table.lookup(a as u16, b as u16)
    }

    fn name(&self) -> String {
        format!("in-memory ({})", self.label)
    }

    fn operand_bits(&self) -> u8 {
        self.table.operand_bits()
    }
}

/// Digital shift-add composition of wide products from a narrower table.
///
/// Mirrors the multi-pass slice composition the parametric array performs in
/// analog: each `slice_bits`-wide slice pair of the wide operands is
/// multiplied by the inner table and accumulated with the appropriate binary
/// weight.  With an exact inner table the composition is itself exact; with
/// an in-SRAM table every pass contributes that table's analog error at its
/// slice position, which is precisely how a composed INT8 OPTIMA macro
/// behaves.
#[derive(Debug, Clone)]
pub struct ComposedProducts {
    inner: Arc<dyn ProductTable>,
    slices: u8,
}

impl ComposedProducts {
    /// Composes `slices` × `slices` passes of `inner` into one wide product.
    ///
    /// # Panics
    ///
    /// Panics when the composed width `slices · inner.operand_bits()`
    /// exceeds 8 bits (products must fit `u16`) or `slices` is zero.
    pub fn new(inner: Arc<dyn ProductTable>, slices: u8) -> Self {
        assert!(slices >= 1, "composition needs at least one slice");
        let wide = slices as u16 * inner.operand_bits() as u16;
        assert!(
            (1..=8).contains(&wide),
            "composed width {wide} bits exceeds the 8-bit product range"
        );
        ComposedProducts { inner, slices }
    }

    /// The narrow table every pass consults.
    pub fn inner(&self) -> &Arc<dyn ProductTable> {
        &self.inner
    }
}

impl ProductTable for ComposedProducts {
    fn product(&self, a: u8, b: u8) -> u16 {
        let slice_bits = self.inner.operand_bits();
        let mask = ((1u16 << slice_bits) - 1) as u8;
        let mut acc: u32 = 0;
        for i in 0..self.slices {
            let a_slice = (a >> (i * slice_bits)) & mask;
            for j in 0..self.slices {
                let b_slice = (b >> (j * slice_bits)) & mask;
                let partial = self.inner.product(a_slice, b_slice) as u32;
                acc += partial << ((i + j) as u32 * slice_bits as u32);
            }
        }
        acc.min(u16::MAX as u32) as u16
    }

    fn name(&self) -> String {
        format!(
            "composed int{} ({} x {})",
            self.operand_bits(),
            self.slices,
            self.inner.name()
        )
    }

    fn operand_bits(&self) -> u8 {
        self.slices * self.inner.operand_bits()
    }

    fn supports_snapshot(&self) -> bool {
        self.inner.supports_snapshot()
    }
}

/// Forwarding decorator that opts the wrapped table out of LUT snapshotting.
///
/// Routing a pure table through this wrapper forces
/// [`crate::quantized::QuantizedNetwork`] onto its per-product
/// dynamic-dispatch reference path: the oracle of the LUT bit-identity tests
/// and the "before" side of the LUT-vs-dyn benchmark.
#[derive(Debug, Clone)]
pub struct DynDispatchProducts(pub Arc<dyn ProductTable>);

impl ProductTable for DynDispatchProducts {
    fn product(&self, a: u8, b: u8) -> u16 {
        self.0.product(a, b)
    }

    fn name(&self) -> String {
        format!("dyn({})", self.0.name())
    }

    fn operand_bits(&self) -> u8 {
        self.0.operand_bits()
    }

    fn supports_snapshot(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_products_match_integer_multiplication() {
        let table = ExactInt4Products;
        for a in 0..=15u8 {
            for b in 0..=15u8 {
                assert_eq!(table.product(a, b), a as u16 * b as u16);
            }
        }
        assert_eq!(table.name(), "exact-int4");
    }

    #[test]
    fn in_memory_products_follow_the_wrapped_table() {
        let table = InMemoryProducts::new(MultiplierTable::exact(), "test");
        assert_eq!(table.product(7, 8), 56);
        assert_eq!(table.name(), "in-memory (test)");
        assert_eq!(table.table().lookup(3, 3), 9);
    }

    #[test]
    fn dyn_dispatch_products_forward_everything_but_the_snapshot() {
        let composed: Arc<dyn ProductTable> =
            Arc::new(ComposedProducts::new(Arc::new(ExactInt4Products), 2));
        let dyn_dispatch = DynDispatchProducts(composed.clone());
        assert!(!dyn_dispatch.supports_snapshot());
        assert_eq!(dyn_dispatch.operand_bits(), 8);
        assert_eq!(dyn_dispatch.name(), format!("dyn({})", composed.name()));
        assert_eq!(dyn_dispatch.product(200, 17), 3400);
    }

    #[test]
    fn exact_products_generalize_the_int4_baseline() {
        let int4 = ExactProducts::new(4);
        assert_eq!(int4.operand_bits(), ExactInt4Products.operand_bits());
        for a in 0..=15u8 {
            for b in 0..=15u8 {
                assert_eq!(int4.product(a, b), ExactInt4Products.product(a, b));
            }
        }
        let int8 = ExactProducts::new(8);
        assert_eq!(int8.operand_bits(), 8);
        assert_eq!(int8.product(255, 255), 65025);
        assert_eq!(int8.name(), "exact-int8");
    }

    #[test]
    fn composed_int8_products_match_the_widened_reference() {
        let composed = ComposedProducts::new(Arc::new(ExactInt4Products), 2);
        assert_eq!(composed.operand_bits(), 8);
        assert!(composed.supports_snapshot());
        // Exhaustive over the full 8-bit input space: digital shift-add of
        // exact 4-bit slice products is exact.
        for a in 0..=255u16 {
            for b in 0..=255u16 {
                assert_eq!(
                    composed.product(a as u8, b as u8),
                    a * b,
                    "composed product diverges at {a} x {b}"
                );
            }
        }
    }

    #[test]
    fn composed_products_propagate_the_snapshot_opt_out() {
        let dyn_dispatch = Arc::new(DynDispatchProducts(Arc::new(ExactInt4Products)));
        let composed = ComposedProducts::new(dyn_dispatch, 2);
        assert!(!composed.supports_snapshot());
        assert_eq!(composed.product(0x12, 0x34), 0x12 * 0x34);
    }

    #[test]
    #[should_panic(expected = "exceeds the 8-bit product range")]
    fn oversized_compositions_are_rejected() {
        let _ = ComposedProducts::new(Arc::new(ExactProducts::new(8)), 2);
    }
}
