//! Order-sensitive 64-bit digest (FNV-1a) of simulated statistics.
//!
//! Floats are hashed by their bit patterns, so two commits produce the same
//! digest only when every statistic is bit-identical.

/// An FNV-1a hasher over 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// A fresh digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hashes one 64-bit word.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Hashes a float by its bit pattern.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// Hashes every float of a slice, preceded by its length.
    pub fn f64s(&mut self, values: &[f64]) -> &mut Self {
        self.u64(values.len() as u64);
        for &value in values {
            self.f64(value);
        }
        self
    }

    /// Hashes every `f32` of a slice, preceded by its length.
    pub fn f32s(&mut self, values: &[f32]) -> &mut Self {
        self.u64(values.len() as u64);
        for &value in values {
            self.u64(u64::from(value.to_bits()));
        }
        self
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
