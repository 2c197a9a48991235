//! [`FaultDevice`](crate::FaultDevice) as a pass-through: healthy I/O is
//! untouched until a damage call.  The damage primitives' own tests live
//! with the device.

mod tests {
    use crate::device::BlockDevice;
    use crate::fault::tests::{filled, BS};

    #[test]
    fn passthrough_io_is_faithful() {
        let dev = filled(8, 0x42);
        assert_eq!((dev.block_size(), dev.total_blocks()), (BS, 8));
        assert_eq!(dev.read_block_vec(3).unwrap(), vec![0x42; BS]);
        dev.clone().write_block(3, &[7; BS]).unwrap();
        assert_eq!(dev.read_block_vec(3).unwrap(), vec![7; BS]);
        dev.flush().unwrap();
        assert_eq!((dev.pending_writes(), dev.injected()), (0, 0));
    }
}
