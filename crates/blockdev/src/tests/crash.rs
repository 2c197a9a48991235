//! [`FaultDevice`](crate::FaultDevice) built with a volatile write cache:
//! what reads see before the barrier, and what a crash leaves behind.

mod tests {
    use crate::device::BlockDevice;
    use crate::error::BlockError;
    use crate::fault::tests::{both_modes, mem, stable, BS};
    use crate::fault::{FaultDevice, FaultReport};

    #[test]
    fn reads_see_unsynced_writes_but_stable_store_does_not() {
        let dev = FaultDevice::with_write_cache(mem(8));
        dev.write_block(1, &[9; BS]).unwrap();
        dev.flush().unwrap();
        dev.write_block(2, &[8; BS]).unwrap();
        assert_eq!(dev.pending_writes(), 1);
        assert_eq!(dev.read_block_vec(2).unwrap(), vec![8; BS]);
        assert_eq!(dev.clone().read_block_vec(2).unwrap(), vec![8; BS]);
        assert_eq!(stable(&dev, 2), vec![0; BS]);
        dev.flush().unwrap();
        assert_eq!(dev.pending_writes(), 0);
        assert_eq!(stable(&dev, 2), vec![8; BS]);
        // Nothing is left to lose: no seed's crash touches the writes.
        for seed in 0..8 {
            assert_eq!(dev.crash(seed), FaultReport::default());
            assert_eq!(dev.read_block_vec(2).unwrap(), vec![8; BS]);
        }
    }

    #[test]
    fn batched_reads_merge_pending_and_stable() {
        let dev = FaultDevice::with_write_cache(mem(8));
        dev.write_block(1, &[9; BS]).unwrap();
        dev.flush().unwrap();
        dev.write_block(2, &[8; BS]).unwrap();
        // Through any clone.
        let mut buf = vec![0u8; 3 * BS];
        dev.clone().read_blocks(&[1, 2, 3], &mut buf).unwrap();
        assert_eq!(buf, [[9u8; BS], [8; BS], [0; BS]].concat());
    }

    #[test]
    fn crash_loses_or_tears_unsynced_writes_only() {
        for seed in 0..32u64 {
            let dev = FaultDevice::with_write_cache(mem(8));
            dev.write_block(0, &[0xaa; BS]).unwrap();
            dev.flush().unwrap();
            let unsynced = [[0xbbu8; BS], [0xcc; BS]].concat();
            dev.write_blocks(&[0, 1], &unsynced).unwrap();
            let r = dev.crash(seed);
            assert_eq!(
                (r.applied + r.dropped + r.torn, dev.pending_writes()),
                (2, 0)
            );
            // Each block is its old image, its new one, or a tear of both.
            let b0 = dev.read_block_vec(0).unwrap();
            assert!(b0.iter().all(|&b| b == 0xaa || b == 0xbb));
            let b1 = dev.read_block_vec(1).unwrap();
            assert!(b1.iter().all(|&b| b == 0 || b == 0xcc));
        }
    }

    #[test]
    fn torn_batch_is_possible() {
        // Pending writes are kept per block, so some seed tears a batch apart.
        let batch_torn_apart = (0..64u64).any(|seed| {
            let dev = FaultDevice::with_write_cache(mem(16));
            let blocks: Vec<u64> = (0..8).collect();
            dev.write_blocks(&blocks, &[0x5a; 8 * BS]).unwrap();
            dev.crash(seed);
            let survived = blocks
                .iter()
                .filter(|&&b| dev.read_block_vec(b).unwrap() == [0x5a; BS])
                .count();
            (1..8).contains(&survived)
        });
        assert!(batch_torn_apart, "no seed landed a crash mid-batch");
    }

    #[test]
    fn geometry_and_bad_args() {
        for dev in both_modes(8) {
            assert_eq!((dev.block_size(), dev.total_blocks()), (BS, 8));
            let out_of_range = dev.write_blocks(&[1, 99], &[0; 2 * BS]);
            assert!(matches!(out_of_range, Err(BlockError::OutOfRange { .. })));
            let short = dev.write_block(0, &[0; 10]);
            assert!(matches!(short, Err(BlockError::BadBufferLength { .. })));
            assert!(dev.read_block(0, &mut [0; 10]).is_err());
            // Healthy I/O through any clone is faithful.
            dev.clone().write_block(3, &[7; BS]).unwrap();
            assert_eq!(dev.read_block_vec(3).unwrap(), vec![7; BS]);
            dev.flush().unwrap();
            assert_eq!(stable(&dev, 3), vec![7; BS]);
        }
    }
}
