//! Material properties.

use serde::{Deserialize, Serialize};

/// Isotropic linear-elastic material plus section properties.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Material {
    /// Young's modulus, Pa.
    pub e: f64,
    /// Poisson's ratio.
    pub nu: f64,
    /// Plate thickness (areal elements), m.
    pub thickness: f64,
    /// Cross-section area (bar elements), m².
    pub(crate) area: f64,
    /// Mass density, kg/m³ (reserved for dynamics extensions).
    pub(crate) rho: f64,
}

impl Material {
    /// Structural steel.
    pub fn steel() -> Self {
        Material {
            e: 200e9,
            nu: 0.3,
            thickness: 0.01,
            area: 1e-4,
            rho: 7850.0,
        }
    }

    /// Aluminium alloy.
    pub fn aluminum() -> Self {
        Material {
            e: 70e9,
            nu: 0.33,
            thickness: 0.01,
            area: 1e-4,
            rho: 2700.0,
        }
    }

    /// A unit material (E = 1, ν = 0, t = 1, A = 1): handy in tests where
    /// stiffness should reduce to pure geometry.
    pub fn unit() -> Self {
        Material {
            e: 1.0,
            nu: 0.0,
            thickness: 1.0,
            area: 1.0,
            rho: 1.0,
        }
    }

    /// Override the thickness.
    pub fn with_thickness(mut self, t: f64) -> Self {
        self.thickness = t;
        self
    }

    /// The plane-stress constitutive matrix entries `(d11, d12, d33)` where
    /// `D = E/(1-ν²) · [[1, ν, 0], [ν, 1, 0], [0, 0, (1-ν)/2]]`.
    pub(crate) fn plane_stress_d(&self) -> (f64, f64, f64) {
        let f = self.e / (1.0 - self.nu * self.nu);
        (f, f * self.nu, f * (1.0 - self.nu) / 2.0)
    }

    /// Physical plausibility check.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.e <= 0.0 {
            return Err("Young's modulus must be positive".into());
        }
        if !(-1.0..0.5).contains(&self.nu) {
            return Err(format!("Poisson's ratio {} outside (-1, 0.5)", self.nu));
        }
        if self.thickness <= 0.0 || self.area <= 0.0 {
            return Err("section properties must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        Material::steel().validate().unwrap();
        Material::aluminum().validate().unwrap();
        Material::unit().validate().unwrap();
    }

    #[test]
    fn plane_stress_d_unit_material() {
        let (d11, d12, d33) = Material::unit().plane_stress_d();
        assert_eq!(d11, 1.0);
        assert_eq!(d12, 0.0);
        assert_eq!(d33, 0.5);
    }

    #[test]
    fn plane_stress_d_steel() {
        let m = Material::steel();
        let (d11, d12, d33) = m.plane_stress_d();
        let f = 200e9 / (1.0 - 0.09);
        assert!((d11 - f).abs() / f < 1e-12);
        assert!((d12 - 0.3 * f).abs() / f < 1e-12);
        assert!((d33 - 0.35 * f).abs() / f < 1e-12);
    }

    /// `plane_stress_d` against an independent route to the same law:
    /// the Lamé parameters λ = Eν/((1+ν)(1−2ν)) and μ = E/(2(1+ν)) of
    /// the 3-D isotropic law, reduced to plane stress by λ* = 2λμ/(λ+2μ),
    /// give d11 = λ* + 2μ, d12 = λ* and d33 = μ.
    #[test]
    fn plane_stress_d_matches_reduced_lame_parameters() {
        // Three (E, ν) pairs from a seeded xorshift: E log-uniform over
        // 1e3..1e12 Pa, ν uniform over 0..0.49.
        let mut state = 1983u64;
        let mut unit = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let seeded: Vec<Material> = (0..3)
            .map(|_| Material {
                e: 10f64.powf(3.0 + 9.0 * unit()),
                nu: 0.49 * unit(),
                ..Material::unit()
            })
            .collect();
        let presets = [Material::steel(), Material::aluminum(), Material::unit()];
        for m in presets.into_iter().chain(seeded) {
            let (e, nu) = (m.e, m.nu);
            let lambda = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu));
            let mu = e / (2.0 * (1.0 + nu));
            let lambda_star = 2.0 * lambda * mu / (lambda + 2.0 * mu);
            let want = [lambda_star + 2.0 * mu, lambda_star, mu];
            let (d11, d12, d33) = m.plane_stress_d();
            for (name, got, want) in [
                ("d11", d11, want[0]),
                ("d12", d12, want[1]),
                ("d33", d33, want[2]),
            ] {
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs(),
                    "E {e} ν {nu}: {name} {got} against Lamé {want}"
                );
            }
        }
    }

    #[test]
    fn validate_rejects_nonsense() {
        let mut m = Material::steel();
        m.e = -1.0;
        assert!(m.validate().is_err());
        let mut m = Material::steel();
        m.nu = 0.5;
        assert!(m.validate().is_err());
        let mut m = Material::steel();
        m.thickness = 0.0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn builders() {
        let m = Material::steel().with_thickness(0.02);
        assert_eq!(m.thickness, 0.02);
    }
}
