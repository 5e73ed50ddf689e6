//! Property tests for the crypto crate: round trips, tamper resistance,
//! mode composition.

use proptest::prelude::*;

use ppda_crypto::{ctr, Aes128, CbcMac, Ccm, CtrDrbg, PairwiseKeys};
use rand::RngCore;

proptest! {
    #[test]
    fn aes_is_a_permutation(key in any::<[u8; 16]>(), b1 in any::<[u8; 16]>(), b2 in any::<[u8; 16]>()) {
        let aes = Aes128::new(&key);
        if b1 != b2 {
            prop_assert_ne!(aes.encrypt_block(&b1), aes.encrypt_block(&b2));
        }
    }

    #[test]
    fn ctr_round_trip(
        key in any::<[u8; 16]>(),
        counter in any::<[u8; 16]>(),
        data in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let aes = Aes128::new(&key);
        let mut work = data.clone();
        let mut c1 = counter;
        ctr::xor_keystream(&aes, &mut c1, &mut work);
        let mut c2 = counter;
        ctr::xor_keystream(&aes, &mut c2, &mut work);
        prop_assert_eq!(work, data);
    }

    #[test]
    fn ctr_chunking_invariance(
        key in any::<[u8; 16]>(),
        data in prop::collection::vec(any::<u8>(), 1..150),
        split in any::<prop::sample::Index>(),
    ) {
        let aes = Aes128::new(&key);
        let mut whole = data.clone();
        let mut c = [0u8; 16];
        ctr::xor_keystream(&aes, &mut c, &mut whole);

        let at = split.index(data.len());
        // Chunked processing only matches when the split falls on a block
        // boundary (CTR state is per-block); emulate packet-wise use.
        let at = at - at % 16;
        let mut halves = data.clone();
        let mut c = [0u8; 16];
        let (a, b) = halves.split_at_mut(at);
        ctr::xor_keystream(&aes, &mut c, a);
        ctr::xor_keystream(&aes, &mut c, b);
        prop_assert_eq!(whole, halves);
    }

    #[test]
    fn cbc_mac_chunking_invariance(
        key in any::<[u8; 16]>(),
        data in prop::collection::vec(any::<u8>(), 0..150),
        chunk in 1usize..20,
    ) {
        let aes = Aes128::new(&key);
        let mut whole = CbcMac::new(&aes);
        whole.update(&data);
        let t1 = whole.finalize();

        let mut parts = CbcMac::new(&aes);
        for c in data.chunks(chunk) {
            parts.update(c);
        }
        prop_assert_eq!(t1, parts.finalize());
    }

    #[test]
    fn ccm_round_trip(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 13]>(),
        aad in prop::collection::vec(any::<u8>(), 0..64),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        tag_sel in 0usize..3,
    ) {
        let tag_len = [4, 8, 16][tag_sel];
        let ccm = Ccm::new(key, tag_len).unwrap();
        let sealed = ccm.seal(&nonce, &aad, &payload).unwrap();
        prop_assert_eq!(sealed.len(), payload.len() + tag_len);
        prop_assert_eq!(ccm.open(&nonce, &aad, &sealed).unwrap(), payload);
    }

    #[test]
    fn ccm_detects_any_single_bit_flip(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 13]>(),
        payload in prop::collection::vec(any::<u8>(), 1..64),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let ccm = Ccm::new(key, 8).unwrap();
        let mut sealed = ccm.seal(&nonce, b"aad", &payload).unwrap();
        let idx = flip_byte.index(sealed.len());
        sealed[idx] ^= 1 << flip_bit;
        prop_assert!(ccm.open(&nonce, b"aad", &sealed).is_err());
    }

    #[test]
    fn ccm_nonce_misuse_changes_ciphertext(
        key in any::<[u8; 16]>(),
        n1 in any::<[u8; 13]>(),
        n2 in any::<[u8; 13]>(),
        payload in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        if n1 != n2 {
            let ccm = Ccm::new(key, 8).unwrap();
            let s1 = ccm.seal(&n1, b"", &payload).unwrap();
            let s2 = ccm.seal(&n2, b"", &payload).unwrap();
            prop_assert_ne!(s1, s2);
        }
    }

    #[test]
    fn ttable_encrypt_matches_byte_oriented_reference(
        key in any::<[u8; 16]>(),
        block in any::<[u8; 16]>(),
    ) {
        // The hot path `Aes128::new` picks (AES-NI when the CPU has it,
        // else the word-oriented T-table) against its auditable FIPS-197
        // transcription oracle. The crate's unit tests pin the T-table
        // path on its own.
        let aes = Aes128::new(&key);
        prop_assert_eq!(aes.encrypt_block(&block), aes.encrypt_block_reference(&block));
    }

    #[test]
    fn bulk_keystream_matches_blockwise(
        key in any::<[u8; 16]>(),
        counter in any::<[u8; 16]>(),
        data in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        // The whole-message CTR kernel against the byte-oriented
        // reference cipher on each counter block in turn.
        let aes = Aes128::new(&key);
        let mut blockwise = data.clone();
        let mut c1 = counter;
        for chunk in blockwise.chunks_mut(16) {
            let keystream = aes.encrypt_block_reference(&c1);
            for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
                *d ^= k;
            }
            ctr::increment_block(&mut c1);
        }
        let mut bulk = data;
        let mut c2 = counter;
        ctr::xor_keystream(&aes, &mut c2, &mut bulk);
        prop_assert_eq!(blockwise, bulk);
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn drbg_chunked_reads_match_one_shot(
        master in any::<[u8; 16]>(),
        chunks in prop::collection::vec(0usize..40, 1..8),
    ) {
        // Reads served from a 64-byte keystream run must emit the same
        // stream as one contiguous read, whatever the request pattern.
        let total: usize = chunks.iter().sum();
        let mut one_shot = vec![0u8; total];
        CtrDrbg::new(master, b"chunked").fill_bytes(&mut one_shot);

        let mut pieced = Vec::with_capacity(total);
        let mut rng = CtrDrbg::new(master, b"chunked");
        for len in chunks {
            let mut part = vec![0u8; len];
            rng.fill_bytes(&mut part);
            pieced.extend_from_slice(&part);
        }
        prop_assert_eq!(one_shot, pieced);
    }

    #[test]
    fn drbg_streams_reproducible(master in any::<[u8; 16]>(), domain in prop::collection::vec(any::<u8>(), 0..40)) {
        let mut a = CtrDrbg::new(master, &domain);
        let mut b = CtrDrbg::new(master, &domain);
        let mut ba = [0u8; 64];
        let mut bb = [0u8; 64];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        prop_assert_eq!(ba, bb);
    }

    #[test]
    fn pairwise_keys_symmetric_and_in_range(
        master in any::<[u8; 16]>(),
        n in 2u16..40,
        a in any::<u16>(),
        b in any::<u16>(),
    ) {
        let keys = PairwiseKeys::derive(&master, n);
        let (a, b) = (a % n, b % n);
        if a != b {
            prop_assert_eq!(keys.key(a, b).unwrap(), keys.key(b, a).unwrap());
        } else {
            prop_assert!(keys.key(a, b).is_err());
        }
    }
}
