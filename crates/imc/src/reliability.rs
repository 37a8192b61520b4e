//! Reliability layer: replica-column redundancy and fault-state injection.
//!
//! [`DefectMap`] (from `optima_circuit::defects`) describes *what is broken*;
//! this module decides *what to do about it* and carries the result into the
//! analog multiply path:
//!
//! * [`ColumnRemap`] — a deterministic assignment of defective data columns
//!   to clean spare columns, the behavioural analogue of the replica-column
//!   redundancy hardware generators bake into SRAM macros.  Planning fails
//!   with a coordinate-carrying [`ImcError::UnrepairableDefect`] when the
//!   spares are exhausted.
//! * [`FaultState`] — one array's complete reliability situation (defect
//!   map, stored-operand row, active remap, accumulated lifetime aging),
//!   attachable to an [`InSramMultiplier`](crate::multiplier::InSramMultiplier)
//!   via `with_faults`.  Every analog pass then sees the faulted cell
//!   behaviour: stuck cells gate the discharge, open bit-lines contribute
//!   nothing, shorted bit-lines discharge to the rail, retention drift
//!   scales each column's ΔV, and the aged V_th shaves the word-line
//!   overdrive.
//!
//! A pristine fault state (e.g. built from [`DefectMap::none`]) is
//! guaranteed bit-identical to running without any fault state attached —
//! property-tested in `tests/properties.rs`.

use crate::error::ImcError;
use optima_circuit::array::ArrayConfig;
use optima_circuit::defects::{BitLineFault, CellDefect, DefectMap, LifetimePoint};
use serde::{Deserialize, Serialize};

/// A deterministic logical-to-physical column assignment.
///
/// Data columns keep their identity unless defective; defective columns are
/// swapped for clean spares in ascending order (lowest defective column gets
/// the lowest clean spare), so the plan is a pure function of the defect map
/// and the geometry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnRemap {
    /// `mapping[logical] = physical` over the word-bearing data columns.
    mapping: Vec<u16>,
}

impl ColumnRemap {
    /// The identity remap (no redundancy applied) for `array`.
    pub fn identity(array: &ArrayConfig) -> Self {
        ColumnRemap {
            mapping: (0..array.operand_bits as u16).collect(),
        }
    }

    /// Plans the redundancy remap for the stored-operand `row` of `map`:
    /// scans the word-bearing data columns in ascending order and assigns
    /// each hard-faulted one the next clean spare.
    ///
    /// Only hard faults count (stuck cells, open/shorted bit-lines);
    /// retention drift is analog and left to noise-aware fine-tuning.
    ///
    /// # Errors
    ///
    /// [`ImcError::UnrepairableDefect`] naming the first column that cannot
    /// be repaired, and [`ImcError::InvalidConfiguration`] when `map` does
    /// not match `array` or `row` is out of range.
    pub fn plan(array: &ArrayConfig, map: &DefectMap, row: u16) -> Result<Self, ImcError> {
        check_geometry(array, map, row)?;
        let mut mapping: Vec<u16> = (0..array.operand_bits as u16).collect();
        let mut next_spare = array.columns;
        let end = array.physical_columns();
        for logical in 0..array.operand_bits as u16 {
            if !map.is_hard_faulted(row, logical) {
                continue;
            }
            let mut assigned = None;
            while next_spare < end {
                let candidate = next_spare;
                next_spare += 1;
                if !map.is_hard_faulted(row, candidate) {
                    assigned = Some(candidate);
                    break;
                }
            }
            match assigned {
                Some(spare) => mapping[logical as usize] = spare,
                None => {
                    return Err(ImcError::UnrepairableDefect {
                        row,
                        column: logical,
                        slice_pass: logical / array.slice_bits as u16,
                        spares: array.spare_columns,
                    })
                }
            }
        }
        Ok(ColumnRemap { mapping })
    }

    /// Physical column backing logical data column `logical`.
    #[inline]
    pub fn physical(&self, logical: u16) -> u16 {
        self.mapping[logical as usize]
    }

    /// Number of columns remapped onto spares.
    pub fn remapped(&self) -> usize {
        self.mapping
            .iter()
            .enumerate()
            .filter(|&(logical, &physical)| physical != logical as u16)
            .count()
    }

    /// `true` when no column was remapped.
    pub fn is_identity(&self) -> bool {
        self.remapped() == 0
    }
}

/// One array's complete reliability situation, attachable to the multiplier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultState {
    array: ArrayConfig,
    map: DefectMap,
    row: u16,
    remap: ColumnRemap,
    /// Accumulated word-line-referred V_th shift (volts).
    vth_shift: f64,
    /// Multiplier on the sampled per-cell retention drift (1.0 = fresh).
    retention_scale: f64,
}

impl FaultState {
    /// A fault state without mitigation: the defect map applies as-is
    /// (identity column mapping), fresh silicon.
    ///
    /// # Errors
    ///
    /// [`ImcError::InvalidConfiguration`] when `map` does not match `array`
    /// or `row` is out of range.
    pub fn unmitigated(array: &ArrayConfig, map: DefectMap, row: u16) -> Result<Self, ImcError> {
        check_geometry(array, &map, row)?;
        Ok(FaultState {
            array: *array,
            remap: ColumnRemap::identity(array),
            map,
            row,
            vth_shift: 0.0,
            retention_scale: 1.0,
        })
    }

    /// A fault state with replica-column redundancy planned for `row`.
    ///
    /// # Errors
    ///
    /// Same as [`ColumnRemap::plan`].
    pub fn with_redundancy(
        array: &ArrayConfig,
        map: DefectMap,
        row: u16,
    ) -> Result<Self, ImcError> {
        let remap = ColumnRemap::plan(array, &map, row)?;
        Ok(FaultState {
            array: *array,
            remap,
            map,
            row,
            vth_shift: 0.0,
            retention_scale: 1.0,
        })
    }

    /// Applies an accumulated lifetime aging state (builder style): the
    /// V_th shift reduces the word-line overdrive and the retention scale
    /// amplifies every cell's sampled drift.  The temperature component of
    /// the lifetime point acts on the operating conditions, not the fault
    /// state — compose it with [`LifetimePoint::apply_to`].
    pub fn with_lifetime(mut self, point: &LifetimePoint) -> Self {
        self.vth_shift = point.vth_shift.0;
        self.retention_scale = point.retention_scale;
        self
    }

    /// The geometry this fault state is keyed to.
    pub fn array(&self) -> &ArrayConfig {
        &self.array
    }

    /// The underlying defect map.
    pub fn map(&self) -> &DefectMap {
        &self.map
    }

    /// The stored-operand row the state applies to.
    pub fn row(&self) -> u16 {
        self.row
    }

    /// The active column remap.
    pub fn remap(&self) -> &ColumnRemap {
        &self.remap
    }

    /// `true` when the state changes nothing: pristine map, identity remap
    /// and no accumulated aging.  A pristine state is bit-identical to no
    /// state at all (property-tested).
    pub fn is_pristine(&self) -> bool {
        self.map.is_pristine() && self.remap.is_identity() && self.vth_shift == 0.0
    }

    /// Accumulated word-line V_th shift in volts.
    #[inline]
    pub(crate) fn vth_shift(&self) -> f64 {
        self.vth_shift
    }

    /// Physical column feeding `(pass, bit)`: pass `p` reads d-slice
    /// `p % slices`, whose bit `bit` lives on logical data column
    /// `(p % slices) · slice_bits + bit`, possibly remapped onto a spare.
    #[inline]
    fn physical_column(&self, pass: usize, bit: u8) -> u16 {
        let slices = self.array.slices() as usize;
        let d_slice = (pass % slices) as u16;
        self.remap
            .physical(d_slice * self.array.slice_bits as u16 + bit as u16)
    }

    /// `true` when the column of `(pass, bit)` discharges given the written
    /// bit `stored`: shorted bit-lines always discharge, open bit-lines
    /// never do, stuck cells override the written value.
    #[inline]
    pub(crate) fn column_discharges(&self, pass: usize, bit: u8, stored: bool) -> bool {
        let column = self.physical_column(pass, bit);
        match self.map.bitline_unchecked(column) {
            BitLineFault::Shorted => true,
            BitLineFault::Open => false,
            BitLineFault::Healthy => match self.map.cell_unchecked(self.row, column) {
                CellDefect::StuckAtZero => false,
                CellDefect::StuckAtOne => true,
                CellDefect::Healthy => stored,
            },
        }
    }

    /// `true` when the bit-line of `(pass, bit)` is shorted to ground (its
    /// discharge is the full rail, independent of the cell model).
    #[inline]
    pub(crate) fn is_shorted(&self, pass: usize, bit: u8) -> bool {
        self.map.bitline_unchecked(self.physical_column(pass, bit)) == BitLineFault::Shorted
    }

    /// Applies the column's retention drift (scaled by the lifetime state)
    /// to a model-evaluated discharge ΔV; clamped at zero so a heavily
    /// drifted cell weakens but never inverts its discharge.
    #[inline]
    pub(crate) fn scaled_delta(&self, pass: usize, bit: u8, raw: f64) -> f64 {
        let column = self.physical_column(pass, bit);
        let drift = self.map.drift_unchecked(self.row, column);
        (raw * (1.0 + drift * self.retention_scale)).max(0.0)
    }
}

/// Shared geometry validation of the reliability constructors.
fn check_geometry(array: &ArrayConfig, map: &DefectMap, row: u16) -> Result<(), ImcError> {
    array
        .validate()
        .map_err(|err| ImcError::InvalidConfiguration {
            context: err.to_string(),
        })?;
    if map.array() != array {
        return Err(ImcError::InvalidConfiguration {
            context: format!(
                "defect map was sampled for {} but the multiplier runs {}",
                map.array().describe(),
                array.describe()
            ),
        });
    }
    if row >= array.rows {
        return Err(ImcError::InvalidConfiguration {
            context: format!(
                "stored-operand row {row} out of range for {} rows",
                array.rows
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use optima_circuit::defects::DefectModel;

    fn spare_array() -> ArrayConfig {
        ArrayConfig::paper().with_spares(2)
    }

    /// Samples maps at increasing seeds until `predicate` holds for row 0.
    fn sample_until(
        array: &ArrayConfig,
        rate: f64,
        predicate: impl Fn(&DefectMap) -> bool,
    ) -> DefectMap {
        for seed in 0..10_000u64 {
            let map = DefectMap::sample(array, &DefectModel::uniform(rate, seed)).unwrap();
            if predicate(&map) {
                return map;
            }
        }
        panic!("no defect map with the requested shape within 10k seeds");
    }

    #[test]
    fn identity_remap_for_pristine_maps() {
        let array = spare_array();
        let map = DefectMap::none(&array);
        let remap = ColumnRemap::plan(&array, &map, 0).unwrap();
        assert!(remap.is_identity());
        assert_eq!(remap.remapped(), 0);
        for logical in 0..4 {
            assert_eq!(remap.physical(logical), logical);
        }
    }

    #[test]
    fn defective_columns_swap_onto_clean_spares_deterministically() {
        let array = spare_array();
        let map = sample_until(&array, 0.25, |map| {
            let faulted: Vec<u16> = (0..4).filter(|&c| map.is_hard_faulted(0, c)).collect();
            let clean_spares = (4..6).filter(|&c| !map.is_hard_faulted(0, c)).count();
            faulted.len() == 1 && clean_spares == 2
        });
        let remap = ColumnRemap::plan(&array, &map, 0).unwrap();
        assert_eq!(remap.remapped(), 1);
        let faulted = (0..4).find(|&c| map.is_hard_faulted(0, c)).unwrap();
        // The lowest clean spare is column 4 (both spares are clean here).
        assert_eq!(remap.physical(faulted), 4);
        // Planning twice gives the identical plan.
        assert_eq!(remap, ColumnRemap::plan(&array, &map, 0).unwrap());
    }

    #[test]
    fn exhausted_spares_fail_with_the_failing_coordinate() {
        // No spares at all: any hard fault in the word is unrepairable.
        let array = ArrayConfig::paper();
        let map = sample_until(&array, 0.4, |map| (0..4).any(|c| map.is_hard_faulted(0, c)));
        let err = ColumnRemap::plan(&array, &map, 0).unwrap_err();
        match &err {
            ImcError::UnrepairableDefect {
                row,
                column,
                slice_pass,
                spares,
            } => {
                assert_eq!(*row, 0);
                assert!(*column < 4);
                assert_eq!(*slice_pass, column / 4);
                assert_eq!(*spares, 0);
            }
            other => panic!("expected UnrepairableDefect, got {other:?}"),
        }
        assert!(err.to_string().contains("spare columns are exhausted"));
    }

    #[test]
    fn fault_state_constructors_validate_geometry() {
        let array = spare_array();
        let map = DefectMap::none(&array);
        // Wrong geometry: map sampled for spares, state built without.
        let err = FaultState::unmitigated(&ArrayConfig::paper(), map.clone(), 0).unwrap_err();
        assert!(matches!(err, ImcError::InvalidConfiguration { .. }));
        // Row out of range.
        assert!(FaultState::unmitigated(&array, map.clone(), 16).is_err());
        let state = FaultState::with_redundancy(&array, map, 3).unwrap();
        assert!(state.is_pristine());
        assert_eq!(state.row(), 3);
    }

    #[test]
    fn lifetime_state_breaks_pristineness_via_vth_only() {
        use optima_circuit::defects::LifetimeTrajectory;
        let array = spare_array();
        let state = FaultState::unmitigated(&array, DefectMap::none(&array), 0).unwrap();
        assert!(state.is_pristine());
        // A pristine state's scaled delta is the identity transform.
        let raw = 0.123456789;
        assert_eq!(state.scaled_delta(0, 2, raw).to_bits(), raw.to_bits());
        let fresh = state
            .clone()
            .with_lifetime(&LifetimeTrajectory::nbti_like().at(0));
        assert!(fresh.is_pristine(), "step 0 must change nothing");
        let aged = state.with_lifetime(&LifetimeTrajectory::nbti_like().at(3));
        assert!(!aged.is_pristine());
        assert!(aged.vth_shift() > 0.0);
    }

    #[test]
    fn gating_follows_the_defect_kinds() {
        let array = spare_array();
        // Find a map with a stuck-at-one cell in the word of row 0 on a
        // healthy bit-line.
        let map = sample_until(&array, 0.3, |map| {
            (0..4).any(|c| {
                map.cell_unchecked(0, c) == CellDefect::StuckAtOne
                    && map.bitline_unchecked(c) == BitLineFault::Healthy
            })
        });
        let column = (0..4)
            .find(|&c| {
                map.cell_unchecked(0, c) == CellDefect::StuckAtOne
                    && map.bitline_unchecked(c) == BitLineFault::Healthy
            })
            .unwrap();
        let state = FaultState::unmitigated(&array, map, 0).unwrap();
        // Stuck-at-one discharges even when the written bit is 0.
        assert!(state.column_discharges(0, column as u8, false));
        assert!(state.column_discharges(0, column as u8, true));
    }
}
