//! The decode paths' unit tests: the uncompiled `decode_plan`, the
//! streaming [`CodecSession`](crate::CodecSession) and the compiled
//! codec's plan cache, each checked against `a·B = 1` on one
//! heterogeneity-aware code.

#[cfg(test)]
mod tests {
    use crate::codec::{CodecSession, CompiledCodec, GradientCodec};
    use crate::error::CodingError;
    use crate::heter_aware::heter_aware;
    use crate::strategy::CodingMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn code() -> CodingMatrix {
        let mut rng = StdRng::seed_from_u64(11);
        heter_aware(&[1.0, 2.0, 3.0, 4.0, 4.0], 7, 1, &mut rng).unwrap()
    }

    fn check_decode(code: &CodingMatrix, a: &[f64]) {
        let prod = code.matrix().vecmat(a).unwrap();
        for (j, v) in prod.iter().enumerate() {
            assert!((v - 1.0).abs() < 1e-6, "aB[{j}] = {v}, want 1");
        }
    }

    /// The dense decode vector of the uncompiled codec path.
    fn dense_plan(code: &CodingMatrix, survivors: &[usize]) -> Result<Vec<f64>, CodingError> {
        Ok(code.decode_plan(survivors)?.to_dense())
    }

    /// Streams `worker` into `session`; the dense decode vector once the
    /// received set spans `1`.
    fn push(session: &mut CodecSession, worker: usize) -> Result<Option<Vec<f64>>, CodingError> {
        Ok(session.push(worker)?.map(|plan| plan.to_dense()))
    }

    /// The dense decode row for a straggler pattern, through the plan cache.
    fn decode_for(codec: &CompiledCodec, stragglers: &[usize]) -> Result<Vec<f64>, CodingError> {
        let survivors: Vec<usize> = (0..GradientCodec::workers(codec))
            .filter(|w| !stragglers.contains(w))
            .collect();
        Ok(codec.decode_plan(&survivors)?.to_dense())
    }

    #[test]
    fn decode_vector_every_single_straggler() {
        let b = code();
        for straggler in 0..5 {
            let survivors: Vec<usize> = (0..5).filter(|&w| w != straggler).collect();
            let a = dense_plan(&b, &survivors).unwrap();
            assert_eq!(a[straggler], 0.0);
            check_decode(&b, &a);
        }
    }

    #[test]
    fn decode_vector_all_workers() {
        let b = code();
        let a = dense_plan(&b, &[0, 1, 2, 3, 4]).unwrap();
        check_decode(&b, &a);
    }

    #[test]
    fn decode_vector_rejects_bad_survivors() {
        let b = code();
        assert!(matches!(
            dense_plan(&b, &[0, 9]),
            Err(CodingError::InvalidParameter { .. })
        ));
        assert!(matches!(
            dense_plan(&b, &[0, 0]),
            Err(CodingError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn decode_vector_fails_with_too_few() {
        let b = code();
        // Two stragglers when s = 1: workers {0,1,2} generally cannot span
        // all 7 partitions (loads 1+2+3 = 6 < 7).
        let err = dense_plan(&b, &[0, 1, 2]).unwrap_err();
        assert!(matches!(err, CodingError::NotDecodable { .. }));
    }

    #[test]
    fn online_decoder_decodes_at_m_minus_s() {
        let b = code();
        let mut dec = b.session();
        // Lemma 2: decoding from Alg.1's B needs m−s = 4 workers. Coverage
        // alone (workers 3+4 hold every partition) is NOT enough because the
        // coefficients are generic.
        assert_eq!(push(&mut dec, 3).unwrap(), None);
        assert_eq!(push(&mut dec, 4).unwrap(), None);
        assert_eq!(push(&mut dec, 0).unwrap(), None);
        let a = push(&mut dec, 1)
            .unwrap()
            .expect("m−s workers must decode (C1)");
        check_decode(&b, &a);
        assert_eq!(a[2], 0.0); // worker 2 never arrived
        assert_eq!(dec.received(), 4);
    }

    #[test]
    fn online_decoder_needs_enough_rows() {
        let b = code();
        let mut dec = b.session();
        assert!(push(&mut dec, 0).unwrap().is_none());
        assert!(push(&mut dec, 1).unwrap().is_none());
        // Workers 0,1,2 cover partitions 0..6 minus partition 6 → still no.
        assert!(push(&mut dec, 2).unwrap().is_none());
        let a = push(&mut dec, 3).unwrap().expect("0..3 cover everything");
        check_decode(&b, &a);
        assert_eq!(dec.received(), 4);
    }

    #[test]
    fn online_decoder_duplicate_rejected() {
        let b = code();
        let mut dec = b.session();
        push(&mut dec, 1).unwrap();
        assert!(push(&mut dec, 1).is_err());
        assert!(push(&mut dec, 17).is_err());
    }

    #[test]
    fn online_decoder_any_order_decodes_eventually() {
        let b = code();
        let orders: Vec<Vec<usize>> = vec![
            vec![0, 1, 2, 3, 4],
            vec![4, 3, 2, 1, 0],
            vec![2, 0, 4, 1, 3],
        ];
        for order in orders {
            let mut dec = b.session();
            let mut decoded = None;
            for w in order {
                if let Some(a) = push(&mut dec, w).unwrap() {
                    decoded = Some(a);
                    break;
                }
            }
            let a = decoded.expect("all five workers must decode");
            check_decode(&b, &a);
        }
    }

    #[test]
    fn decode_cache_hits_regular_pattern() {
        let b = code();
        let cache = CompiledCodec::with_cache_capacity(b.clone(), 4);
        assert_eq!(cache.cached_plans(), 0);
        let a1 = decode_for(&cache, &[2]).unwrap();
        check_decode(&b, &a1);
        assert_eq!((cache.cache_hits(), cache.cache_misses()), (0, 1));
        let a2 = decode_for(&cache, &[2]).unwrap();
        assert_eq!(a1, a2);
        assert_eq!((cache.cache_hits(), cache.cache_misses()), (1, 1));
        assert_eq!(cache.cached_plans(), 1);
    }

    #[test]
    fn decode_cache_pattern_order_insensitive() {
        // Needs s=2 for two stragglers.
        let mut rng = StdRng::seed_from_u64(13);
        let b = heter_aware(&[1.0, 1.0, 2.0, 2.0, 3.0, 3.0], 12, 2, &mut rng).unwrap();
        let cache = CompiledCodec::with_cache_capacity(b, 4);
        let a1 = decode_for(&cache, &[0, 3]).unwrap();
        let a2 = decode_for(&cache, &[3, 0]).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(cache.cache_hits(), 1);
    }

    #[test]
    fn decode_cache_evicts_lru() {
        let cache = CompiledCodec::with_cache_capacity(code(), 2);
        decode_for(&cache, &[0]).unwrap();
        decode_for(&cache, &[1]).unwrap();
        decode_for(&cache, &[0]).unwrap(); // refresh 0
        decode_for(&cache, &[2]).unwrap(); // evicts 1
        assert_eq!(cache.cached_plans(), 2);
        decode_for(&cache, &[0]).unwrap(); // still cached
        assert_eq!(cache.cache_hits(), 2);
        decode_for(&cache, &[1]).unwrap(); // miss: was evicted
        assert_eq!(cache.cache_misses(), 4);
    }

    #[test]
    fn decode_cache_rejects_excess_stragglers() {
        let cache = CompiledCodec::with_cache_capacity(code(), 2); // s = 1
        assert!(matches!(
            decode_for(&cache, &[0, 1]),
            Err(CodingError::NotDecodable { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn decode_cache_zero_capacity_panics() {
        CompiledCodec::with_cache_capacity(code(), 0);
    }
}
