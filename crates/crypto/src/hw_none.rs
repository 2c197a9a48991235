//! Stand-in for `hw.rs` on targets with no hardware back end: the same
//! names, but the tokens are uninhabited, so `detect` can only say `None`
//! and every caller's hardware branch is dead code the compiler removes.

/// Never constructed on this target.
#[derive(Clone, Copy)]
pub(crate) enum AesNi {}

/// Never constructed on this target.
#[derive(Clone, Copy)]
pub(crate) enum ShaNi {}

/// Never constructed on this target.
#[derive(Clone, Copy)]
pub(crate) enum Avx2 {}

/// Never constructed on this target.
#[derive(Clone, Copy)]
pub(crate) enum Vaes {}

impl AesNi {
    pub(crate) fn detect() -> Option<Self> {
        None
    }

    pub(crate) fn encrypt_block(self, _rk: &[[u8; 16]], _block: &mut [u8; 16]) {
        match self {}
    }

    pub(crate) fn decrypt_block(self, _dk: &[[u8; 16]], _block: &mut [u8; 16]) {
        match self {}
    }

    pub(crate) fn ctr_apply(self, _rk: &[[u8; 16]], _nonce: &[u8; 16], _data: &mut [u8]) {
        match self {}
    }

    pub(crate) fn cbc_decrypt(self, _dk: &[[u8; 16]], _iv: &[u8; 16], _blocks: &mut [[u8; 16]]) {
        match self {}
    }

    pub(crate) fn check_sum(
        self,
        _rk: &[[u8; 16]],
        _offsets: &[[u8; 16]],
        _msg: &[u8],
    ) -> [u8; 16] {
        match self {}
    }
}

impl ShaNi {
    pub(crate) fn detect() -> Option<Self> {
        None
    }

    pub(crate) fn compress(self, _state: &mut [u32; 8], _blocks: &[[u8; 64]]) {
        match self {}
    }
}

impl Avx2 {
    pub(crate) fn detect() -> Option<Self> {
        None
    }

    pub(crate) fn mul_acc(self, _lo: &[u8; 16], _hi: &[u8; 16], _dst: &mut [u8], _src: &[u8]) {
        match self {}
    }

    pub(crate) fn deinterleave(self, _data: &[u8], _m: usize, _planes: &mut [u8]) {
        match self {}
    }

    pub(crate) fn interleave(self, _planes: &[u8], _m: usize, _out: &mut [u8]) {
        match self {}
    }
}

impl Vaes {
    pub(crate) fn detect() -> Option<Self> {
        None
    }

    pub(crate) fn ctr_run(self, _rk: &[[u8; 16]], _ivs: &[[u8; 16]], _data: &mut [u8]) {
        match self {}
    }

    pub(crate) fn check_sums(
        self,
        _rk: &[[u8; 16]],
        _offsets: &[[u8; 16]],
        _msgs: &[&[u8]],
        _sums: &mut [[u8; 16]],
    ) {
        match self {}
    }
}
