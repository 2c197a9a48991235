//! [`ObservedDevice::counting`](crate::ObservedDevice::counting), the
//! standalone meter used below a `BufferCache`: submissions, blocks and
//! bytes (blocks × block size), and reset.

mod tests {
    use crate::device::{BlockDevice, MemBlockDevice};
    use crate::observed::ObservedDevice;

    #[test]
    fn counts_reads_and_writes() {
        let dev = ObservedDevice::counting(MemBlockDevice::new(256, 16));
        dev.write_block(0, &[1; 256]).unwrap();
        dev.write_block(1, &[1; 256]).unwrap();
        dev.read_block(0, &mut [0; 256]).unwrap();
        let s = dev.stats().summary();
        assert_eq!((s.reads, s.writes), (1, 2));
        let bs = dev.block_size() as u64;
        assert_eq!((s.blocks_read * bs, s.blocks_written * bs), (256, 512));
    }

    #[test]
    fn batches_count_one_submission() {
        let dev = ObservedDevice::counting(MemBlockDevice::new(256, 32));
        let blocks: Vec<u64> = (4..20).collect();
        let data = vec![9u8; 16 * 256];
        dev.write_blocks(&blocks, &data).unwrap();
        let mut out = vec![0u8; 16 * 256];
        dev.read_blocks(&blocks, &mut out).unwrap();
        assert_eq!(out, data);
        dev.write_block(0, &[1; 256]).unwrap();
        dev.read_block(0, &mut [0; 256]).unwrap();
        // Empty batches transfer nothing and count nothing.
        dev.read_blocks(&[], &mut []).unwrap();
        dev.write_blocks(&[], &[]).unwrap();
        let s = dev.stats().summary();
        assert_eq!(
            (s.blocks_written, s.writes, s.write_batch.count),
            (17, 2, 2)
        );
        assert_eq!((s.blocks_read, s.reads, s.read_ns.count), (17, 2, 2));
    }

    #[test]
    fn reset_clears_counters() {
        let dev = ObservedDevice::counting(MemBlockDevice::new(128, 4));
        dev.write_block(0, &[0; 128]).unwrap();
        dev.read_block(0, &mut [0; 128]).unwrap();
        let s = dev.stats().summary();
        assert_eq!((s.writes, s.blocks_read, s.write_ns.count), (1, 1, 1));
        // A reset clears counters and histograms alike.
        dev.stats().reset();
        let s = dev.stats().summary();
        assert_eq!((s.writes, s.blocks_read, s.write_ns.count), (0, 0, 0));
    }

    #[test]
    fn passthrough_geometry_and_data() {
        let dev = ObservedDevice::counting(MemBlockDevice::new(128, 4));
        assert_eq!((dev.block_size(), dev.total_blocks()), (128, 4));
        dev.write_block(3, &[0x42; 128]).unwrap();
        assert_eq!(dev.read_block_vec(3).unwrap(), vec![0x42; 128]);
        dev.flush().unwrap();
        assert_eq!(dev.into_inner().snapshot_raw()[3 * 128], 0x42);
    }
}
