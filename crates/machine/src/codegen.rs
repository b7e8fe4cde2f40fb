//! Which code generation built this binary.
//!
//! The paper makes the compiler and its vector width an axis of Fig. 3, and
//! on one host the same source runs several percent apart under two
//! codegens. A number is only comparable with another built the same way, so
//! the binaries that print numbers name their codegen first. The features
//! are fixed at compile time (`-C target-cpu` / `-C target-feature`, see
//! `.cargo/config.toml`), not detected at run time.

use std::fmt;

/// The target features that decide how the kernels vectorise, each with
/// whether this build enabled it: SSE2 is the x86-64 baseline, AVX2 and FMA
/// the 256-bit tier, AVX-512F the 512-bit one the paper's ZMM axis needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Codegen(pub [(&'static str, bool); 4]);

/// The codegen this crate was compiled with.
pub fn codegen() -> Codegen {
    Codegen([
        ("sse2", cfg!(target_feature = "sse2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ])
}

/// `codegen: +sse2 +avx2 +fma -avx512f`.
impl fmt::Display for Codegen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("codegen:")?;
        for (name, on) in self.0 {
            write!(f, " {}{name}", if on { '+' } else { '-' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled(feature: &str) -> bool {
        let found = codegen().0.into_iter().find(|&(name, _)| name == feature);
        found
            .unwrap_or_else(|| panic!("{feature} is not reported"))
            .1
    }

    #[test]
    fn each_feature_is_its_cfg() {
        assert_eq!(enabled("sse2"), cfg!(target_feature = "sse2"));
        assert_eq!(enabled("avx2"), cfg!(target_feature = "avx2"));
        assert_eq!(enabled("fma"), cfg!(target_feature = "fma"));
        assert_eq!(enabled("avx512f"), cfg!(target_feature = "avx512f"));
    }

    #[test]
    fn the_line_names_every_feature_once() {
        let line = codegen().to_string();
        let words: Vec<&str> = line.split(' ').collect();
        assert_eq!(words[0], "codegen:");
        assert_eq!(words.len(), 5, "{line}");
        for (word, (name, on)) in words[1..].iter().zip(codegen().0) {
            assert_eq!(*word, format!("{}{name}", if on { '+' } else { '-' }));
        }
    }
}
