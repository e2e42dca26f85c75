//! Wire-protocol integration suite: encode/decode roundtrips for every
//! registered typed message, negative decoding at the single hardened
//! entry point, the golden tag-registry snapshot, structure-aware
//! mutation properties, and exact per-tag byte conservation over full
//! `π_ba` runs.

use polylog_ba::prelude::*;

use pba_core::baselines::{SampleQuery, SampleResponse};
use pba_core::broadcast::BroadcastInput;
use pba_core::dolev_strong::DsMessage;
use pba_core::phase_king::PkMsg;
use pba_core::protocol::{Certificate, MvInput, ValueSeed};
use pba_core::vss_coin::VssCoinMsg;
use pba_crypto::field::Fp;
use pba_net::wire::{self, step, tag, WireError, HEADER_LEN, MAX_WIRE_BYTES, REGISTRY};
use proptest::prelude::*;

fn roundtrip<T: WireMsg + PartialEq + std::fmt::Debug>(msg: T) {
    let bytes = wire::encode_msg(&msg);
    assert_eq!(
        bytes.len(),
        wire::encoded_msg_len(&msg),
        "encoded_msg_len disagrees with encode_msg for {msg:?}"
    );
    assert_eq!(bytes[0], T::TAG, "header tag for {msg:?}");
    assert_eq!(bytes[1], T::STEP, "header step for {msg:?}");
    let back: T = wire::decode_msg(&bytes).expect("roundtrip decode");
    assert_eq!(back, msg);
}

/// Every registered message type survives an encode → decode roundtrip
/// through the hardened entry point, covering every enum variant.
#[test]
fn every_registered_message_type_roundtrips() {
    roundtrip(PkMsg::Value(7u8));
    roundtrip(PkMsg::Propose(1u8));
    roundtrip(PkMsg::King(0u8));
    roundtrip(PkMsg::Value(Digest([0xab; 32])));
    roundtrip(PkMsg::Propose(Digest::ZERO));
    roundtrip(PkMsg::King(Digest([1; 32])));
    roundtrip(VssCoinMsg::Deal(Fp::new(12345)));
    roundtrip(VssCoinMsg::Echo(vec![(0, Fp::ZERO), (9, Fp::new(77))]));
    roundtrip(DsMessage {
        value: 1,
        chain: Vec::new(),
    });
    roundtrip(ValueSeed {
        epoch: 3,
        value: vec![1, 2, 3],
        seed: Digest([9; 32]),
    });
    roundtrip(Certificate {
        epoch: 0,
        value: vec![1],
        seed: Digest::ZERO,
        sig: vec![0xcc; 40],
    });
    roundtrip(SampleQuery { nonce: u64::MAX });
    roundtrip(SampleResponse { value: 1 });
    roundtrip(BroadcastInput { value: 0 });
    roundtrip(MvInput {
        epoch: 2,
        value: vec![0xde, 0xad, 0xbe, 0xef],
    });
}

/// The hardened decoder rejects every malformed shape with the specific
/// error for the first failed check.
#[test]
fn hardened_decoder_rejects_malformed_payloads() {
    let good = wire::encode_msg(&ValueSeed {
        epoch: 5,
        value: vec![1, 2],
        seed: Digest([8; 32]),
    });

    // Shorter than the header.
    assert_eq!(wire::decode_msg::<ValueSeed>(&[]), Err(WireError::TooShort));
    assert_eq!(
        wire::decode_msg::<ValueSeed>(&good[..1]),
        Err(WireError::TooShort)
    );

    // Over the wire cap (checked before anything else).
    let huge = vec![0u8; MAX_WIRE_BYTES + 1];
    assert_eq!(
        wire::decode_msg::<ValueSeed>(&huge),
        Err(WireError::OverCap(MAX_WIRE_BYTES + 1))
    );

    // Unknown tag.
    let mut unknown = good.clone();
    unknown[0] = 0xee;
    assert_eq!(
        wire::decode_msg::<ValueSeed>(&unknown),
        Err(WireError::UnknownTag(0xee))
    );

    // Registered tag, but not the expected message's.
    let cert = wire::encode_msg(&Certificate {
        epoch: 5,
        value: vec![1, 2],
        seed: Digest([8; 32]),
        sig: vec![3],
    });
    assert_eq!(
        wire::decode_msg::<ValueSeed>(&cert),
        Err(WireError::WrongTag {
            expected: tag::VALUE_SEED,
            found: tag::CERTIFICATE,
        })
    );

    // Step byte contradicting the registry.
    let mut wrong_step = good.clone();
    wrong_step[1] = step::SPREAD;
    assert_eq!(
        wire::decode_msg::<ValueSeed>(&wrong_step),
        Err(WireError::WrongStep {
            expected: step::DISSEMINATE,
            found: step::SPREAD,
        })
    );

    // Truncated body.
    assert!(matches!(
        wire::decode_msg::<ValueSeed>(&good[..good.len() - 1]),
        Err(WireError::Body(_))
    ));

    // Trailing byte after a complete body.
    let mut trailing = good.clone();
    trailing.push(0);
    assert!(matches!(
        wire::decode_msg::<ValueSeed>(&trailing),
        Err(WireError::Body(_))
    ));

    // The original still decodes, so the rejections above are not
    // artifacts of a broken fixture.
    assert!(wire::decode_msg::<ValueSeed>(&good).is_ok());
}

/// Golden snapshot of the tag registry. Tags are a compatibility surface:
/// **appending** a row is fine (extend the snapshot), renumbering or
/// re-stepping an existing tag must fail this test.
#[test]
fn tag_registry_golden_snapshot() {
    let rendered: Vec<String> = REGISTRY
        .iter()
        .map(|info| {
            format!(
                "{:#04x} {} step={} {} {}",
                info.tag, info.name, info.step, info.step_label, info.crate_name
            )
        })
        .collect();
    let expected = [
        "0x00 raw step=0 untyped pba-net",
        "0x01 PkMsg<u8> step=2 2:committee-ba pba-core",
        "0x02 PkMsg<Digest> step=2 2:committee-ba pba-core",
        "0x04 VssCoinMsg step=2 2:committee-ba pba-core",
        "0x05 DsMessage step=0 baseline pba-core",
        "0x06 ValueSeed step=3 3:disseminate pba-core",
        "0x07 Certificate step=6 6:certify pba-core",
        "0x08 sig-submit step=4 4:sig-submit pba-core",
        "0x09 aggr-share step=5 5:aggregate pba-core",
        "0x0a aggr-mpc step=5 5:aggregate pba-core",
        "0x0b spread step=7 7-8:spread pba-core",
        "0x0c establish step=1 1:establish pba-aetree",
        "0x0d fanin step=0 tree-fanin pba-aetree",
        "0x0e SampleQuery step=0 baseline pba-core",
        "0x0f SampleResponse step=0 baseline pba-core",
        "0x10 BroadcastInput step=0 bcast-input pba-core",
        "0x11 MvInput step=0 mv-input pba-core",
    ];
    assert_eq!(
        rendered, expected,
        "tag registry drifted — appending rows is fine (extend the \
         snapshot), renumbering existing tags is not"
    );
    // The WireMsg impls must agree with the registry rows they claim.
    for (t, s) in [
        (PkMsg::<u8>::TAG, PkMsg::<u8>::STEP),
        (PkMsg::<Digest>::TAG, PkMsg::<Digest>::STEP),
        (VssCoinMsg::TAG, VssCoinMsg::STEP),
        (DsMessage::TAG, DsMessage::STEP),
        (ValueSeed::TAG, ValueSeed::STEP),
        (Certificate::TAG, Certificate::STEP),
        (SampleQuery::TAG, SampleQuery::STEP),
        (SampleResponse::TAG, SampleResponse::STEP),
        (BroadcastInput::TAG, BroadcastInput::STEP),
        (MvInput::TAG, MvInput::STEP),
    ] {
        let info = wire::lookup(t).expect("WireMsg tag not in registry");
        assert_eq!(info.step, s, "WireMsg STEP disagrees with registry");
    }
}

/// `peek_tag` classifies typed headers and falls back to raw for
/// everything else.
#[test]
fn peek_tag_classifies_headers() {
    let vs = wire::encode_msg(&ValueSeed {
        epoch: 1,
        value: vec![0],
        seed: Digest::ZERO,
    });
    assert_eq!(wire::peek_tag(&vs), tag::VALUE_SEED);
    assert_eq!(wire::peek_tag(&[]), tag::RAW);
    assert_eq!(wire::peek_tag(&[tag::VALUE_SEED]), tag::RAW);
    // Registered tag but contradictory step byte → raw.
    assert_eq!(wire::peek_tag(&[tag::VALUE_SEED, step::SPREAD]), tag::RAW);
    assert_eq!(wire::peek_tag(&[0xee, 0x00, 0x01]), tag::RAW);
}

/// The scratch-reuse send paths (`Ctx::send` / `Ctx::send_msg` encoding
/// into a per-backend reusable buffer) stage envelopes byte-for-byte
/// identical to fresh-`Vec` encoding, on both the direct and the buffered
/// backend, across interleaved messages of different types and lengths.
#[test]
fn scratch_reuse_sends_byte_identical_envelopes() {
    use pba_net::{Ctx, RoundEffects};

    // The reference payloads, each encoded into its own fresh Vec.
    let msgs: Vec<Vec<u8>> = vec![
        wire::encode_msg(&PkMsg::Value(7u8)),
        wire::encode_msg(&VssCoinMsg::Deal(Fp::new(12345))),
        wire::encode_msg(&ValueSeed {
            epoch: 3,
            value: vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
            seed: Digest([9; 32]),
        }),
        wire::encode_msg(&PkMsg::King(Digest([1; 32]))),
    ];

    // Interleave typed sends of very different sizes so stale scratch
    // bytes from a longer message would corrupt a later shorter one if
    // the clear / exact-size-copy discipline broke.
    let script = |ctx: &mut Ctx<'_>| {
        ctx.send_msg(PartyId(1), &PkMsg::Value(7u8));
        ctx.send_msg(PartyId(1), &VssCoinMsg::Deal(Fp::new(12345)));
        ctx.send_msg(
            PartyId(1),
            &ValueSeed {
                epoch: 3,
                value: vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
                seed: Digest([9; 32]),
            },
        );
        ctx.send_msg(PartyId(1), &PkMsg::King(Digest([1; 32])));
    };

    // Direct backend: the scratch lives in the Network.
    let mut direct = Network::new(2);
    script(&mut direct.ctx(PartyId(0), 0));

    // Buffered backend (the threaded round engine's path): the scratch
    // lives in the worker's RoundEffects, replayed via apply_effects.
    let mut buffered = Network::new(2);
    let mut fx = RoundEffects::new();
    script(&mut Ctx::buffered(PartyId(0), 0, 2, &mut fx));
    buffered.apply_effects(fx);

    for net in [&mut direct, &mut buffered] {
        let staged = net.take_staged();
        assert_eq!(staged.len(), msgs.len());
        for (env, fresh) in staged.iter().zip(&msgs) {
            assert_eq!(
                &env.payload, fresh,
                "scratch-encoded envelope differs from fresh-Vec encoding"
            );
        }
    }
}

/// Per-tag attribution sums exactly to the pre-existing per-party totals
/// over full `π_ba` runs of both Table 1 stacks, and the breakdown
/// carries every Fig. 3 step the protocol exercises.
#[test]
fn pi_ba_attribution_conserves_totals() {
    let snark = SnarkSrds::with_defaults();
    let multi = MultisigSrds::with_defaults();
    for (label, outcome) in [
        (
            "snark-honest",
            run_ba(&snark, &BaConfig::honest(64, b"wire-cons"), &[1u8; 64]),
        ),
        (
            "snark-byz",
            run_ba(
                &snark,
                &BaConfig::byzantine(96, 9, b"wire-cons-byz"),
                &[0u8; 96],
            ),
        ),
        (
            "multisig-honest",
            run_ba(&multi, &BaConfig::honest(64, b"wire-cons-m"), &[1u8; 64]),
        ),
    ] {
        assert!(outcome.agreement, "{label}: agreement failed");
        assert!(
            outcome.tags_conserved,
            "{label}: per-tag marginals drifted from per-party totals"
        );
        assert_eq!(
            outcome.breakdown.total_sent(),
            outcome.report.total_bytes,
            "{label}: breakdown does not sum to the report total"
        );
        for t in [
            tag::ESTABLISH,
            tag::VALUE_SEED,
            tag::SIG_SUBMIT,
            tag::AGGR_SHARE,
            tag::CERTIFICATE,
            tag::SPREAD,
        ] {
            assert!(
                outcome.breakdown.sent.get(&t).copied().unwrap_or(0) > 0,
                "{label}: no bytes attributed to tag {t:#04x} ({})",
                wire::lookup(t).expect("registered").name
            );
        }
        let by_step = outcome.breakdown.sent_by_step_label();
        let step_sum: u64 = by_step.iter().map(|(_, b)| b).sum();
        assert_eq!(step_sum, outcome.report.total_bytes, "{label}: step rows");
    }
}

/// The structure-aware chaos modes drive full `π_ba` runs: mutants and
/// forks are wire-valid, so they reach semantic checks — agreement and
/// attribution conservation must survive them.
#[test]
fn pi_ba_survives_structure_aware_chaos() {
    let scheme = OwfSrds::with_defaults();
    for spec in [
        StrategySpec::Garble(GarbleMode::Field),
        StrategySpec::EquivocateTyped,
    ] {
        let mut config = BaConfig::byzantine(64, 6, b"wire-chaos");
        config.chaos = Some(spec.clone());
        let outcome = run_ba(&scheme, &config, &[1u8; 64]);
        assert!(outcome.agreement, "{}: agreement failed", spec.label());
        assert!(outcome.tags_conserved, "{}: conservation", spec.label());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ValueSeed roundtrips for arbitrary field values.
    #[test]
    fn value_seed_roundtrips(
        epoch in any::<u64>(),
        value in proptest::collection::vec(any::<u8>(), 0..48),
        seed in any::<[u8; 32]>(),
    ) {
        roundtrip(ValueSeed { epoch, value, seed: Digest(seed) });
    }

    /// Certificate roundtrips for arbitrary field values.
    #[test]
    fn certificate_roundtrips(
        epoch in any::<u64>(),
        value in proptest::collection::vec(any::<u8>(), 0..32),
        seed in any::<[u8; 32]>(),
        sig in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        roundtrip(Certificate { epoch, value, seed: Digest(seed), sig });
    }

    /// VssCoinMsg echo vectors roundtrip for arbitrary contents.
    #[test]
    fn vss_coin_echo_roundtrips(
        entries in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..12),
    ) {
        let msg = VssCoinMsg::Echo(
            entries.into_iter().map(|(pos, share)| (pos, Fp::new(share))).collect(),
        );
        roundtrip(msg);
    }

    /// Structure-aware mutation keeps payloads wire-valid: the mutant
    /// still decodes as the same message type but carries a different
    /// value than the original.
    #[test]
    fn mutate_field_yields_wire_valid_lies(
        epoch in any::<u64>(),
        value in proptest::collection::vec(any::<u8>(), 1..32),
        seed in any::<[u8; 32]>(),
        prg_seed in any::<[u8; 8]>(),
    ) {
        let msg = ValueSeed { epoch, value, seed: Digest(seed) };
        let bytes = wire::encode_msg(&msg);
        let mut prg = Prg::from_seed_bytes(&prg_seed);
        let mutant = wire::mutate_field(&bytes, &mut prg)
            .expect("typed payload must be mutable");
        prop_assert_ne!(&mutant, &bytes, "mutation must change the payload");
        prop_assert_eq!(&mutant[..HEADER_LEN], &bytes[..HEADER_LEN]);
        let back = wire::decode_msg::<ValueSeed>(&mutant)
            .expect("mutant must stay wire-valid");
        prop_assert_ne!(back, msg, "mutant must carry a different value");
    }

    /// Mutation of untyped or attribution-only payloads is refused —
    /// there is no schema to aim at.
    #[test]
    fn mutate_field_refuses_untyped_payloads(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        prg_seed in any::<[u8; 8]>(),
    ) {
        let mut prg = Prg::from_seed_bytes(&prg_seed);
        // Force the raw tag: whatever follows, there is no schema.
        let mut raw = payload.clone();
        if !raw.is_empty() {
            raw[0] = tag::RAW;
        }
        prop_assert_eq!(wire::mutate_field(&raw, &mut prg), None);
        // Attribution-only tags are opaque even with a valid header.
        let mut opaque = vec![tag::SPREAD, step::SPREAD];
        opaque.extend_from_slice(&payload);
        prop_assert_eq!(wire::mutate_field(&opaque, &mut prg), None);
    }

    /// Arbitrary bytes never panic the hardened decoder — they decode or
    /// reject cleanly for every registered message type.
    #[test]
    fn decoder_survives_arbitrary_bytes(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = wire::decode_msg::<PkMsg<u8>>(&payload);
        let _ = wire::decode_msg::<PkMsg<Digest>>(&payload);
        let _ = wire::decode_msg::<VssCoinMsg>(&payload);
        let _ = wire::decode_msg::<DsMessage>(&payload);
        let _ = wire::decode_msg::<ValueSeed>(&payload);
        let _ = wire::decode_msg::<Certificate>(&payload);
        let _ = wire::decode_msg::<SampleQuery>(&payload);
        let _ = wire::decode_msg::<SampleResponse>(&payload);
        let _ = wire::decode_msg::<BroadcastInput>(&payload);
        let _ = wire::decode_msg::<MvInput>(&payload);
        let _ = wire::peek_tag(&payload);
        let mut prg = Prg::from_seed_bytes(b"fuzz");
        let _ = wire::mutate_field(&payload, &mut prg);
    }
}
