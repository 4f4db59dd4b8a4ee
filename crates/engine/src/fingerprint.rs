//! Model fingerprints — the artifact-cache keys.
//!
//! The full [`fingerprint`] covers structure *and* values: two [`Ctmc`]s
//! with identical state count, generator sparsity and rates, initial
//! distribution and rewards produce the same one, so repeated
//! [`crate::SolveRequest`]s over the same model (across horizons,
//! tolerances, measures, or independently rebuilt model instances) land on
//! the same cached artifacts. [`model_fps`] adds the structural keys that
//! let rate variants share topology facts and `Pᵀ` patterns. The hashes are
//! FNV-1a over the exact bit patterns — no float rounding, so "almost
//! equal" models intentionally do *not* collide.

use crate::json::Json;
use regenr_ctmc::Ctmc;

/// Canonicalizes a spec document for keying: inside every model object
/// whose `"kind"` is `"compose"`, the `"components"` array is sorted by
/// component `"name"`. This mirrors the sort `spec.rs` applies before
/// compiling, so two specs that differ only in component order build the
/// identical chain (same [`fingerprint`], so the artifact cache hits) *and*
/// hash to the same serve coalescing key (so concurrent permuted posts
/// share one computation). Everything else — order of other keys, other
/// model kinds — is left untouched; the compact re-serialization of the
/// result already normalizes whitespace and float spelling.
pub fn canonicalize_spec(doc: &Json) -> Json {
    let Json::Obj(members) = doc else {
        return doc.clone();
    };
    Json::Obj(
        members
            .iter()
            .map(|(k, v)| {
                if k == "models" {
                    if let Json::Arr(models) = v {
                        let models = models.iter().map(canonicalize_model).collect();
                        return (k.clone(), Json::Arr(models));
                    }
                }
                (k.clone(), v.clone())
            })
            .collect(),
    )
}

fn canonicalize_model(model: &Json) -> Json {
    let Json::Obj(members) = model else {
        return model.clone();
    };
    if model.get("kind").and_then(Json::as_str) != Some("compose") {
        return model.clone();
    }
    Json::Obj(
        members
            .iter()
            .map(|(k, v)| {
                if k == "components" {
                    if let Json::Arr(comps) = v {
                        let mut sorted = comps.clone();
                        // Stable: malformed entries without a name keep
                        // their relative order (validation rejects them
                        // later with a precise error).
                        sorted.sort_by_key(|c| {
                            c.get("name").and_then(Json::as_str).map(str::to_string)
                        });
                        return (k.clone(), Json::Arr(sorted));
                    }
                }
                (k.clone(), v.clone())
            })
            .collect(),
    )
}

/// 64-bit FNV-1a state over *words*: one xor + one multiply per `u64`
/// instead of the textbook byte loop. Fingerprints are in-process cache
/// keys, never persisted, so the only requirements are determinism and
/// dispersion — and word-granular FNV keeps both while making the
/// per-request fingerprint pass ~8× cheaper, which matters because a
/// sensitivity sweep fingerprints a fresh model per grid point.
#[derive(Clone, Copy, Debug)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x1000_0000_01b3);
    }

    #[inline]
    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }
}

/// Computes the full fingerprint of a chain: structure and values.
pub fn fingerprint(ctmc: &Ctmc) -> u64 {
    let mut h = Fnv::new();
    let g = ctmc.generator();
    h.write_u64(ctmc.n_states() as u64);
    for &p in g.row_ptr() {
        h.write_u64(p as u64);
    }
    for &j in g.col_idx() {
        h.write_u64(j as u64);
    }
    for &v in g.values() {
        h.write_f64(v);
    }
    for &a in ctmc.initial() {
        h.write_f64(a);
    }
    for &r in ctmc.rewards() {
        h.write_f64(r);
    }
    h.0
}

/// The full fingerprint split along the structure/value axis — the keys of
/// the two-level artifact graph in [`crate::cache::ArtifactCache`].
///
/// `structure` covers everything [`regenr_ctmc::structure::analyze`]'s
/// output can depend on: the CSR sparsity pattern, the *support* of the rate
/// values (Tarjan and absorbing-reachability both filter edges on
/// `rate > 0.0`, so a rate dropping to exactly zero is a structural change,
/// not a value change), the support of the initial distribution (initial
/// mass on an absorbing state is a structural rejection), and the support of
/// the reward vector. Two chains with equal `structure` fingerprints have
/// identical topology facts; only the numbers differ, which `full` covers.
/// `unif`/`unif_structure` are the generator-only analogues (initials and
/// rewards ignored), keying the uniformization pool and its delta-rebind
/// donor index respectively.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelFps {
    /// The classic full fingerprint ([`fingerprint`]): structure + values.
    pub full: u64,
    /// Pattern + value/initial/reward supports — the structural key.
    pub structure: u64,
    /// Generator-only full fingerprint: states and rate matrix, ignoring
    /// initials and rewards. Equal `unif` means the identical `Pᵀ` and `Λ`,
    /// so it keys the cached uniformization.
    pub unif: u64,
    /// Generator-only structural key: pattern + rate support. Equal
    /// `unif_structure` means an existing `Uniformized` can be rebound to
    /// the new rates, reusing its `Pᵀ` pattern.
    pub unif_structure: u64,
}

/// Domain separator for [`ModelFps::unif`].
const UNIF_FP_SEP: u64 = 0x756e_6966_2d66_7000; // "unif-fp"
/// Domain separator for [`ModelFps::structure`].
const STRUCT_FP_SEP: u64 = 0x7374_7275_6374_2d00; // "struct-"
/// Domain separator for [`ModelFps::unif_structure`].
const UNIF_STRUCT_FP_SEP: u64 = 0x7573_7472_7563_7400; // "ustruct"

/// Computes every fingerprint of [`ModelFps`] in one traversal of the
/// model's arrays (four running hash states fed per element), so a
/// sensitivity grid pays one memory pass per point instead of four. The
/// `full` component is bit-identical to a standalone [`fingerprint`] call.
pub fn model_fps(ctmc: &Ctmc) -> ModelFps {
    let g = ctmc.generator();
    let n = ctmc.n_states() as u64;

    let mut f = Fnv::new(); // full ([`fingerprint`])
    let mut u = Fnv::new(); // unif
    u.write_u64(UNIF_FP_SEP);
    let mut s = Fnv::new(); // structure
    let mut us = Fnv::new(); // unif structure
    s.write_u64(STRUCT_FP_SEP);
    us.write_u64(UNIF_STRUCT_FP_SEP);

    f.write_u64(n);
    u.write_u64(n);
    s.write_u64(n);
    us.write_u64(n);
    for &p in g.row_ptr() {
        f.write_u64(p as u64);
        u.write_u64(p as u64);
        s.write_u64(p as u64);
        us.write_u64(p as u64);
    }
    for &j in g.col_idx() {
        f.write_u64(j as u64);
        u.write_u64(j as u64);
        s.write_u64(j as u64);
        us.write_u64(j as u64);
    }
    for &x in g.values() {
        let support = (x != 0.0) as u64;
        f.write_f64(x);
        u.write_f64(x);
        s.write_u64(support);
        us.write_u64(support);
    }
    for &a in ctmc.initial() {
        f.write_f64(a);
        s.write_u64((a > 0.0) as u64);
    }
    for &r in ctmc.rewards() {
        f.write_f64(r);
        s.write_u64((r != 0.0) as u64);
    }

    ModelFps {
        full: f.0,
        structure: s.0,
        unif: u.0,
        unif_structure: us.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(lambda: f64) -> Ctmc {
        Ctmc::from_rates(
            2,
            &[(0, 1, lambda), (1, 0, 1.0)],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn equal_models_share_fingerprint() {
        assert_eq!(fingerprint(&chain(1e-3)), fingerprint(&chain(1e-3)));
    }

    #[test]
    fn rate_change_alters_fingerprint() {
        assert_ne!(fingerprint(&chain(1e-3)), fingerprint(&chain(2e-3)));
    }

    #[test]
    fn reward_change_alters_fingerprint() {
        let a = chain(1e-3);
        let b = a.with_rewards(vec![0.0, 0.5]).unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn initial_change_alters_fingerprint() {
        let a = chain(1e-3);
        let b = a.with_initial(vec![0.5, 0.5]).unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    /// The generator-only fingerprint ignores initials/rewards (so the
    /// uniformization cache sees through them) but still separates
    /// different generators and never collides with the full fingerprint.
    #[test]
    fn unif_fingerprint_ignores_initials_and_rewards() {
        let unif = |c: &Ctmc| model_fps(c).unif;
        let a = chain(1e-3);
        let b = a.with_rewards(vec![0.0, 0.5]).unwrap();
        let c = a.with_initial(vec![0.5, 0.5]).unwrap();
        assert_eq!(unif(&a), unif(&b));
        assert_eq!(unif(&a), unif(&c));
        assert_ne!(unif(&a), unif(&chain(2e-3)));
        assert_ne!(unif(&a), fingerprint(&a));
    }

    /// Scaling a rate changes the full fingerprints but not the structural
    /// ones — the property the delta-aware artifact graph keys on.
    #[test]
    fn rate_scaling_preserves_structure_fp_and_alters_value_fp() {
        let a = model_fps(&chain(1e-3));
        let b = model_fps(&chain(2e-3));
        assert_eq!(a.structure, b.structure);
        assert_eq!(a.unif_structure, b.unif_structure);
        assert_ne!(a.full, b.full);
        assert_ne!(a.unif, b.unif);
        // The four hashes live in separate domains.
        let fps = [a.full, a.structure, a.unif, a.unif_structure];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "fp domains {i} and {j} collided");
            }
        }
    }

    /// The fused single-traversal `model_fps` must agree bit-for-bit with
    /// the standalone full fingerprint.
    #[test]
    fn model_fps_matches_standalone_fingerprints() {
        for c in [
            chain(1e-3),
            chain(2e-3).with_initial(vec![0.5, 0.5]).unwrap(),
            chain(0.7).with_rewards(vec![2.0, 0.0]).unwrap(),
        ] {
            let fps = model_fps(&c);
            assert_eq!(fps.full, fingerprint(&c));
        }
    }

    /// Value-only deltas share a structural key; support changes in the
    /// initial distribution or rewards (which `analyze` keys off) do not.
    #[test]
    fn support_changes_are_structural() {
        let a = Ctmc::from_rates(
            3,
            &[(0, 1, 1.0), (1, 0, 0.5), (1, 2, 1e-4)],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0],
        )
        .unwrap();
        let fa = model_fps(&a);
        // Same pattern, same supports, different numbers: value-only delta.
        let b = Ctmc::from_rates(
            3,
            &[(0, 1, 2.0), (1, 0, 0.25), (1, 2, 2e-4)],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0],
        )
        .unwrap();
        let fb = model_fps(&b);
        assert_eq!(fa.structure, fb.structure);
        assert_eq!(fa.unif_structure, fb.unif_structure);
        // Initial support moving is structural (absorbing-mass rejection
        // keys off it), as is a reward dropping to zero.
        let c = a.with_initial(vec![0.5, 0.5, 0.0]).unwrap();
        assert_ne!(model_fps(&c).structure, fa.structure);
        let d = a.with_rewards(vec![0.0, 1.0, 0.0]).unwrap();
        assert_ne!(model_fps(&d).structure, fa.structure);
        // And the generator-only structural key ignores both.
        assert_eq!(model_fps(&c).unif_structure, fa.unif_structure);
        assert_eq!(model_fps(&d).unif_structure, fa.unif_structure);
    }

    #[test]
    fn canonicalize_sorts_compose_components_only() {
        let permuted = Json::parse(
            r#"{"horizons":[1],"models":[
                {"kind":"compose","components":[
                    {"name":"b","count":2,"lambda":0.1},
                    {"name":"a","count":1,"lambda":0.2}]},
                {"kind":"inline","rates":[[0,1,1.0]],"rewards":[1,0]}]}"#,
        )
        .unwrap();
        let sorted = Json::parse(
            r#"{"horizons":[1],"models":[
                {"kind":"compose","components":[
                    {"name":"a","count":1,"lambda":0.2},
                    {"name":"b","count":2,"lambda":0.1}]},
                {"kind":"inline","rates":[[0,1,1.0]],"rewards":[1,0]}]}"#,
        )
        .unwrap();
        assert_eq!(
            canonicalize_spec(&permuted).to_string(),
            canonicalize_spec(&sorted).to_string(),
            "component order must not matter"
        );
        // Other semantic differences still separate.
        let other = Json::parse(
            r#"{"horizons":[1],"models":[
                {"kind":"compose","components":[
                    {"name":"a","count":3,"lambda":0.2},
                    {"name":"b","count":2,"lambda":0.1}]},
                {"kind":"inline","rates":[[0,1,1.0]],"rewards":[1,0]}]}"#,
        )
        .unwrap();
        assert_ne!(
            canonicalize_spec(&permuted).to_string(),
            canonicalize_spec(&other).to_string()
        );
    }
}
