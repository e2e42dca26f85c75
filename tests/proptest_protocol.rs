//! Property-based end-to-end tests: `π_ba` must provide agreement and
//! validity for random sizes, inputs, corruption patterns, and adversary
//! profiles. Cases are kept small — each case is a full protocol run.

use pba_net::corruption::CorruptionPlan;
use polylog_ba::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pi_ba_agreement_and_validity_snark(
        n in 48usize..110,
        beta_pct in 0usize..10,
        byzantine in any::<bool>(),
        unanimous in any::<bool>(),
        bit in 0u8..2,
        seed in any::<[u8; 8]>(),
    ) {
        let t = n * beta_pct / 100;
        let scheme = SnarkSrds::with_defaults();
        let config = BaConfig {
            n,
            z: 2,
            corruption: CorruptionPlan::Random { t },
            profile: if byzantine { AdversaryProfile::Byzantine } else { AdversaryProfile::Passive },
            seed: seed.to_vec(),
            establishment: pba_core::protocol::Establishment::Charged,
            chaos: None,
            threads: 1,
            key_policy: KeyPolicy::Eager,
        };
        let inputs: Vec<u8> = if unanimous {
            vec![bit; n]
        } else {
            (0..n).map(|i| (i % 2) as u8).collect()
        };
        let out = run_ba(&scheme, &config, &inputs);
        prop_assert!(out.agreement, "outputs: {:?}", out.outputs);
        prop_assert!(out.validity);
        if unanimous {
            prop_assert_eq!(out.output, Some(bit));
        }
    }

    #[test]
    fn pi_ba_agreement_owf(
        n in 48usize..100,
        beta_pct in 0usize..10,
        bit in 0u8..2,
        seed in any::<[u8; 8]>(),
    ) {
        let t = n * beta_pct / 100;
        let scheme = OwfSrds::with_defaults();
        let config = BaConfig {
            n,
            z: 2,
            corruption: CorruptionPlan::Random { t },
            profile: AdversaryProfile::Byzantine,
            seed: seed.to_vec(),
            establishment: pba_core::protocol::Establishment::Charged,
            chaos: None,
            threads: 1,
            key_policy: KeyPolicy::Eager,
        };
        let out = run_ba(&scheme, &config, &vec![bit; n]);
        prop_assert!(out.agreement, "outputs: {:?}", out.outputs);
        prop_assert_eq!(out.output, Some(bit));
    }
}
