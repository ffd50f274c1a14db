//! The shared conformance configuration matrix.
//!
//! One definition serves both consumers: the workspace's conformance test
//! (`tests/oracle_conformance.rs`) replays both committed traces through
//! each configuration under the differential oracle (engine vs naive
//! reference), behaviourally and timed, and the `explore` experiment uses the
//! same matrix as the *validator* for the one-pass analytic model —
//! every point gets a predicted-vs-replayed error column. Keeping the
//! two in one place means the model is always graded against exactly the
//! configurations the oracle proves correct.

use mltc_core::{EngineConfig, FaultPlan, L1Config, L2Config, ReplacementPolicy};

/// The configuration matrix. Tiny traces never fill a 1 MB L2, so the
/// matrix adds 64 KB (64-block) variants where replacement actually runs,
/// a sector-off ablation, and one deterministic fault plan exercising the
/// retry/degrade paths.
pub fn conformance_matrix() -> Vec<(String, EngineConfig)> {
    let l1 = L1Config::kb(2);
    let base = EngineConfig {
        l1,
        l2: None,
        ..EngineConfig::default()
    };
    let mut out = Vec::new();
    for tlb in [0usize, 8] {
        out.push((
            format!("l2=off tlb={tlb}"),
            EngineConfig {
                l2: None,
                tlb_entries: tlb,
                ..base
            },
        ));
    }
    let policies = [
        ReplacementPolicy::Clock,
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
    ];
    for mb in [1usize, 4] {
        for policy in policies {
            for tlb in [0usize, 8] {
                out.push((
                    format!("l2={mb}MB policy={policy} tlb={tlb}"),
                    EngineConfig {
                        l2: Some(L2Config {
                            policy,
                            ..L2Config::mb(mb)
                        }),
                        tlb_entries: tlb,
                        ..base
                    },
                ));
            }
        }
    }
    for policy in policies {
        out.push((
            format!("l2=64KB policy={policy} tlb=8 (eviction stress)"),
            EngineConfig {
                l2: Some(L2Config {
                    size_bytes: 64 * 1024,
                    policy,
                    ..L2Config::mb(1)
                }),
                tlb_entries: 8,
                ..base
            },
        ));
    }
    out.push((
        "l2=64KB policy=clock sector=off tlb=8".into(),
        EngineConfig {
            l2: Some(L2Config {
                size_bytes: 64 * 1024,
                sector_mapping: false,
                ..L2Config::mb(1)
            }),
            tlb_entries: 8,
            ..base
        },
    ));
    out.push((
        "l2=64KB policy=clock tlb=8 fault=20%+burst".into(),
        EngineConfig {
            l2: Some(L2Config {
                size_bytes: 64 * 1024,
                ..L2Config::mb(1)
            }),
            tlb_entries: 8,
            fault: FaultPlan {
                burst_period: 11,
                burst_len: 3,
                ..FaultPlan::with_rate(0xc0f0_0d5eed, 200_000)
            },
            ..base
        },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_the_nineteen_config_validator() {
        let m = conformance_matrix();
        assert_eq!(m.len(), 19);
        // Every configuration shares the instrumented 2 KB L1, so one
        // instrumented replay's miss stream feeds them all.
        for (_, cfg) in &m {
            assert_eq!(cfg.l1, L1Config::kb(2));
        }
        // Exactly one fault-injected configuration.
        let faulty = m.iter().filter(|(_, c)| !c.fault.is_none()).count();
        assert_eq!(faulty, 1);
    }
}
