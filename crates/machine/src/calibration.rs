use crate::error::MachineError;
use crate::topology::{HwQubit, Topology};
use std::collections::BTreeMap;

/// Identifier of an undirected hardware edge (nearest-neighbour qubit pair),
/// stored with the smaller index first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize, pub usize);

impl EdgeId {
    /// Creates a canonical edge id regardless of argument order.
    pub fn new(a: HwQubit, b: HwQubit) -> Self {
        if a.0 <= b.0 {
            EdgeId(a.0, b.0)
        } else {
            EdgeId(b.0, a.0)
        }
    }

    /// The two endpoints of the edge.
    pub fn endpoints(&self) -> (HwQubit, HwQubit) {
        (HwQubit(self.0), HwQubit(self.1))
    }
}

/// Gate durations in hardware timeslots (80 ns on IBMQ16).
#[derive(Debug, Clone, PartialEq)]
pub struct GateDurations {
    /// Duration of every single-qubit gate, in timeslots.
    pub single_qubit_slots: u32,
    /// Duration of a readout operation, in timeslots.
    pub readout_slots: u32,
    /// Per-edge CNOT duration, in timeslots.
    pub cnot_slots: BTreeMap<EdgeId, u32>,
}

impl GateDurations {
    /// CNOT duration on `edge` in timeslots.
    ///
    /// # Errors
    ///
    /// Returns an error if the edge has no calibration entry.
    pub fn cnot(&self, edge: EdgeId) -> Result<u32, MachineError> {
        self.cnot_slots
            .get(&edge)
            .copied()
            .ok_or(MachineError::MissingEdgeCalibration {
                a: edge.0,
                b: edge.1,
            })
    }

    /// Duration of a SWAP on `edge`: three back-to-back CNOTs.
    ///
    /// # Errors
    ///
    /// Returns an error if the edge has no calibration entry.
    pub fn swap(&self, edge: EdgeId) -> Result<u32, MachineError> {
        Ok(self.cnot(edge)? * 3)
    }
}

/// Pre-resolved parameters of one calibrated edge, returned by
/// [`Calibration::edge_params`] so hot consumers (the simulator's trial
/// program lowering) resolve error rate and duration in a single call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeParams {
    /// CNOT error rate on the edge.
    pub cnot_error: f64,
    /// CNOT duration on the edge, in timeslots; `None` when the snapshot
    /// has an error entry but no duration entry for the edge (possible for
    /// hand-built snapshots, whose fields are public).
    pub cnot_slots: Option<u32>,
}

/// One machine calibration snapshot: the data IBM publishes daily and the
/// compiler adapts to (Section 2 of the paper).
///
/// All error quantities are stored as *error rates* in `[0, 1)`;
/// reliabilities are `1 - error`.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Day index (0-based) this snapshot corresponds to.
    pub day: usize,
    /// Per-qubit relaxation time T1, in microseconds.
    pub t1_us: Vec<f64>,
    /// Per-qubit coherence time T2, in microseconds.
    pub t2_us: Vec<f64>,
    /// Per-qubit readout (measurement) error rate.
    pub readout_error: Vec<f64>,
    /// Per-qubit single-qubit gate error rate.
    pub single_qubit_error: Vec<f64>,
    /// Per-edge CNOT error rate.
    pub cnot_error: BTreeMap<EdgeId, f64>,
    /// Gate durations in timeslots.
    pub durations: GateDurations,
    /// Timeslot length in nanoseconds.
    pub timeslot_ns: f64,
}

impl Calibration {
    /// Number of hardware qubits this snapshot covers.
    pub fn num_qubits(&self) -> usize {
        self.t2_us.len()
    }

    /// A deterministic 64-bit content fingerprint of this snapshot: the day
    /// index plus every error rate, coherence time and duration (floats by
    /// their IEEE-754 bits). Two snapshots with identical data fingerprint
    /// identically regardless of how they were generated, which is what
    /// identifies a "machine day" for compile caching.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = rustc_hash::FxHasher::default();
        self.day.hash(&mut h);
        for table in [
            &self.t1_us,
            &self.t2_us,
            &self.readout_error,
            &self.single_qubit_error,
        ] {
            for v in table.iter() {
                h.write_u64(v.to_bits());
            }
        }
        for (edge, rate) in &self.cnot_error {
            edge.hash(&mut h);
            h.write_u64(rate.to_bits());
        }
        self.durations.single_qubit_slots.hash(&mut h);
        self.durations.readout_slots.hash(&mut h);
        for (edge, slots) in &self.durations.cnot_slots {
            edge.hash(&mut h);
            slots.hash(&mut h);
        }
        h.write_u64(self.timeslot_ns.to_bits());
        h.finish()
    }

    /// Validates that the snapshot covers exactly the given topology and
    /// carries no degenerate data.
    ///
    /// Coverage: every qubit has per-qubit tables, every topology edge has
    /// a CNOT error rate and duration. Sanity: error rates (readout,
    /// single-qubit, CNOT) must be finite and in `[0, 1)` — an error rate
    /// of 1.0 is a zero-reliability element that silently zeroes or NaNs
    /// every downstream success estimate — and coherence times and the
    /// timeslot length must be positive and finite (a `t2_us` of zero
    /// turns [`Calibration::dephasing_probability`] into `NaN`).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::CalibrationSizeMismatch`],
    /// [`MachineError::MissingEdgeCalibration`] or
    /// [`MachineError::InvalidCalibration`] describing the first problem.
    pub fn validate(&self, topology: &Topology) -> Result<(), MachineError> {
        if self.num_qubits() != topology.num_qubits() {
            return Err(MachineError::CalibrationSizeMismatch {
                topology_qubits: topology.num_qubits(),
                calibration_qubits: self.num_qubits(),
            });
        }
        let invalid = |field: &'static str, element: String, value: f64| {
            Err(MachineError::InvalidCalibration {
                field,
                element,
                value: format!("{value}"),
            })
        };
        if !(self.timeslot_ns.is_finite() && self.timeslot_ns > 0.0) {
            return invalid("timeslot_ns", "-".to_string(), self.timeslot_ns);
        }
        let n = self.num_qubits();
        for (field, table) in [("t1_us", &self.t1_us), ("t2_us", &self.t2_us)] {
            if table.len() != n {
                return Err(MachineError::CalibrationSizeMismatch {
                    topology_qubits: n,
                    calibration_qubits: table.len(),
                });
            }
            for (q, &v) in table.iter().enumerate() {
                if !(v.is_finite() && v > 0.0) {
                    return invalid(field, q.to_string(), v);
                }
            }
        }
        for (field, table) in [
            ("readout_error", &self.readout_error),
            ("single_qubit_error", &self.single_qubit_error),
        ] {
            if table.len() != n {
                return Err(MachineError::CalibrationSizeMismatch {
                    topology_qubits: n,
                    calibration_qubits: table.len(),
                });
            }
            for (q, &v) in table.iter().enumerate() {
                if !(v.is_finite() && (0.0..1.0).contains(&v)) {
                    return invalid(field, q.to_string(), v);
                }
            }
        }
        for (&edge, &rate) in &self.cnot_error {
            if !(rate.is_finite() && (0.0..1.0).contains(&rate)) {
                return invalid("cnot_error", format!("{}-{}", edge.0, edge.1), rate);
            }
        }
        for &(a, b) in topology.edges() {
            let edge = EdgeId::new(a, b);
            if !self.cnot_error.contains_key(&edge) {
                return Err(MachineError::MissingEdgeCalibration {
                    a: edge.0,
                    b: edge.1,
                });
            }
            self.durations.cnot(edge)?;
        }
        Ok(())
    }

    /// Readout error rate of a hardware qubit.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is outside the calibration data.
    pub fn readout_error(&self, q: HwQubit) -> f64 {
        self.readout_error[q.0]
    }

    /// Readout reliability (`1 - error`) of a hardware qubit.
    pub fn readout_reliability(&self, q: HwQubit) -> f64 {
        1.0 - self.readout_error(q)
    }

    /// Single-qubit gate error rate of a hardware qubit.
    pub fn single_qubit_error(&self, q: HwQubit) -> f64 {
        self.single_qubit_error[q.0]
    }

    /// T2 coherence time of a hardware qubit, in microseconds.
    pub fn t2_us(&self, q: HwQubit) -> f64 {
        self.t2_us[q.0]
    }

    /// T2 coherence time of a hardware qubit, in hardware timeslots.
    pub fn t2_slots(&self, q: HwQubit) -> u32 {
        (self.t2_us(q) * 1000.0 / self.timeslot_ns).floor() as u32
    }

    /// CNOT error rate on the edge between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns an error if there is no calibration entry for the pair (for
    /// example because they are not adjacent).
    pub fn cnot_error(&self, a: HwQubit, b: HwQubit) -> Result<f64, MachineError> {
        let edge = EdgeId::new(a, b);
        self.cnot_error
            .get(&edge)
            .copied()
            .ok_or(MachineError::MissingEdgeCalibration {
                a: edge.0,
                b: edge.1,
            })
    }

    /// CNOT reliability (`1 - error`) on the edge between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns an error if there is no calibration entry for the pair.
    pub fn cnot_reliability(&self, a: HwQubit, b: HwQubit) -> Result<f64, MachineError> {
        Ok(1.0 - self.cnot_error(a, b)?)
    }

    /// Reliability of a SWAP between adjacent qubits `a` and `b`: three
    /// CNOTs back to back.
    ///
    /// # Errors
    ///
    /// Returns an error if there is no calibration entry for the pair.
    pub fn swap_reliability(&self, a: HwQubit, b: HwQubit) -> Result<f64, MachineError> {
        Ok(self.cnot_reliability(a, b)?.powi(3))
    }

    /// Error rate and duration of the edge between `a` and `b` in one call,
    /// or `None` when the pair has no CNOT error entry (non-adjacent
    /// qubits). A missing duration entry does not discard the error rate —
    /// it surfaces as `cnot_slots: None` for the caller to default. The
    /// lookup-free per-qubit quantities are already index-addressed
    /// (`readout_error`, `single_qubit_error`, `t2_us`); this is the
    /// per-edge counterpart used by simulator program lowering.
    pub fn edge_params(&self, a: HwQubit, b: HwQubit) -> Option<EdgeParams> {
        let edge = EdgeId::new(a, b);
        let cnot_error = *self.cnot_error.get(&edge)?;
        Some(EdgeParams {
            cnot_error,
            cnot_slots: self.durations.cnot_slots.get(&edge).copied(),
        })
    }

    /// Probability that `q` dephases (acquires a Z error) while idling or
    /// operating for `duration_slots` timeslots: `(1 - exp(-t / T2)) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is outside the calibration data.
    pub fn dephasing_probability(&self, q: HwQubit, duration_slots: u32) -> f64 {
        let t_ns = f64::from(duration_slots) * self.timeslot_ns;
        let t2_ns = self.t2_us(q) * 1000.0;
        (0.5 * (1.0 - (-t_ns / t2_ns).exp())).clamp(0.0, 1.0)
    }

    /// Average CNOT error rate across all calibrated edges.
    pub fn mean_cnot_error(&self) -> f64 {
        if self.cnot_error.is_empty() {
            return 0.0;
        }
        self.cnot_error.values().sum::<f64>() / self.cnot_error.len() as f64
    }

    /// Average readout error rate across all qubits.
    pub fn mean_readout_error(&self) -> f64 {
        if self.readout_error.is_empty() {
            return 0.0;
        }
        self.readout_error.iter().sum::<f64>() / self.readout_error.len() as f64
    }

    /// Average T2 across all qubits, in microseconds.
    pub fn mean_t2_us(&self) -> f64 {
        if self.t2_us.is_empty() {
            return 0.0;
        }
        self.t2_us.iter().sum::<f64>() / self.t2_us.len() as f64
    }

    /// The smallest T2 across all qubits, in timeslots — the bound the
    /// paper compares schedule lengths against.
    pub fn worst_t2_slots(&self) -> u32 {
        (0..self.num_qubits())
            .map(|q| self.t2_slots(HwQubit(q)))
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CalibrationGenerator;

    fn sample() -> (Topology, Calibration) {
        let t = Topology::ibmq16();
        let c = CalibrationGenerator::new(t.clone(), 1).day(0);
        (t, c)
    }

    #[test]
    fn edge_id_is_canonical() {
        assert_eq!(EdgeId::new(HwQubit(5), HwQubit(2)), EdgeId(2, 5));
        assert_eq!(EdgeId::new(HwQubit(2), HwQubit(5)), EdgeId(2, 5));
        assert_eq!(EdgeId(2, 5).endpoints(), (HwQubit(2), HwQubit(5)));
    }

    #[test]
    fn generated_calibration_validates() {
        let (t, c) = sample();
        assert!(c.validate(&t).is_ok());
        assert_eq!(c.num_qubits(), 16);
    }

    #[test]
    fn validate_rejects_wrong_size() {
        let (_, c) = sample();
        let small = Topology::grid(2, 2);
        assert!(matches!(
            c.validate(&small),
            Err(MachineError::CalibrationSizeMismatch { .. })
        ));
    }

    #[test]
    fn reliability_is_one_minus_error() {
        let (t, c) = sample();
        let (a, b) = t.edges()[0];
        let err = c.cnot_error(a, b).unwrap();
        let rel = c.cnot_reliability(a, b).unwrap();
        assert!((err + rel - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_reliability_is_cnot_cubed() {
        let (t, c) = sample();
        let (a, b) = t.edges()[0];
        let rel = c.cnot_reliability(a, b).unwrap();
        assert!((c.swap_reliability(a, b).unwrap() - rel.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn missing_edge_is_an_error() {
        let (_, c) = sample();
        // Qubits 0 and 2 are not adjacent on IBMQ16.
        assert!(matches!(
            c.cnot_error(HwQubit(0), HwQubit(2)),
            Err(MachineError::MissingEdgeCalibration { .. })
        ));
    }

    #[test]
    fn edge_params_matches_individual_accessors() {
        let (t, c) = sample();
        let (a, b) = t.edges()[0];
        let params = c.edge_params(a, b).unwrap();
        assert_eq!(params.cnot_error, c.cnot_error(a, b).unwrap());
        assert_eq!(
            params.cnot_slots,
            Some(c.durations.cnot(EdgeId::new(a, b)).unwrap())
        );
        // Non-adjacent qubits have no entry.
        assert_eq!(c.edge_params(HwQubit(0), HwQubit(2)), None);
        // A snapshot with an error entry but no duration entry keeps the
        // error rate and surfaces the missing duration as None.
        let mut partial = c.clone();
        let edge = EdgeId::new(a, b);
        partial.durations.cnot_slots.remove(&edge);
        let params = partial.edge_params(a, b).unwrap();
        assert_eq!(params.cnot_error, c.cnot_error(a, b).unwrap());
        assert_eq!(params.cnot_slots, None);
    }

    #[test]
    fn dephasing_probability_grows_with_duration() {
        let (_, c) = sample();
        let q = HwQubit(0);
        assert_eq!(c.dephasing_probability(q, 0), 0.0);
        let short = c.dephasing_probability(q, 1);
        let long = c.dephasing_probability(q, 500);
        assert!(short > 0.0 && short < long && long < 0.5);
    }

    #[test]
    fn t2_slots_uses_timeslot_length() {
        let (_, c) = sample();
        let q = HwQubit(0);
        let expected = (c.t2_us(q) * 1000.0 / c.timeslot_ns).floor() as u32;
        assert_eq!(c.t2_slots(q), expected);
        assert!(c.worst_t2_slots() <= c.t2_slots(q));
    }
}
