//! [`FaultDevice`](crate::FaultDevice)'s failure schedule: scripted
//! transient failures, per submission, in both device modes.

mod tests {
    use crate::device::BlockDevice;
    use crate::error::BlockError;
    use crate::fault::tests::{both_modes, mem, stable, BS};
    use crate::fault::FaultDevice;
    use std::io;

    #[test]
    fn scripted_failures_then_success() {
        let dev = FaultDevice::new(mem(8));
        dev.script_failures(2);
        assert!(dev.write_block(0, &[7; BS]).is_err());
        assert!(dev.read_block_vec(0).is_err());
        dev.write_block(0, &[7; BS]).unwrap();
        assert_eq!(dev.read_block_vec(0).unwrap(), vec![7; BS]);
        assert_eq!((dev.injected(), dev.ops()), (2, 4));
    }

    #[test]
    fn injected_errors_are_interrupted_io_with_static_text() {
        let dev = FaultDevice::new(mem(8));
        dev.script_failures(2);
        for result in [dev.write_block(0, &[7; BS]), dev.flush()] {
            let Err(BlockError::Io(e)) = result else {
                panic!("expected an injected I/O error, got {result:?}");
            };
            assert_eq!(e.kind(), io::ErrorKind::Interrupted);
            assert_eq!(e.to_string(), "transient device error");
        }
    }

    #[test]
    fn failed_writes_leave_no_trace_on_the_store() {
        for dev in both_modes(8) {
            dev.write_block(2, &[0xaa; BS]).unwrap();
            dev.flush().unwrap();
            dev.script_failures(1);
            let blocks: Vec<u64> = (0..4).collect();
            assert!(dev.write_blocks(&blocks, &[1; 4 * BS]).is_err());
            assert_eq!(dev.read_block_vec(2).unwrap(), vec![0xaa; BS]);
            assert_eq!(stable(&dev, 2), vec![0xaa; BS]);
            assert_eq!(dev.pending_writes(), 0);
        }
    }

    #[test]
    fn batched_ops_count_as_one_submission() {
        for (dev, staged) in both_modes(8).into_iter().zip([0, 4]) {
            dev.script_failures(1);
            let blocks: Vec<u64> = (0..4).collect();
            assert!(dev.write_blocks(&blocks, &[1; 4 * BS]).is_err());
            dev.write_blocks(&blocks, &[1; 4 * BS]).unwrap();
            let mut buf = vec![0u8; 4 * BS];
            dev.read_blocks(&blocks, &mut buf).unwrap();
            assert_eq!(buf, vec![1; 4 * BS]);
            assert_eq!((dev.injected(), dev.ops()), (1, 3));
            assert_eq!(dev.pending_writes(), staged);
        }
    }
}
