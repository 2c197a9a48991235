//! # stegfs-crypto
//!
//! Self-contained cryptographic primitives for the StegFS reproduction.
//!
//! The original StegFS paper (Pang, Tan, Zhou — ICDE 2003) relies on three
//! cryptographic building blocks:
//!
//! * **SHA-256** (FIPS 180-2) — used both as the one-way hash that derives the
//!   hidden-file *signature* from the file name and access key, and (through
//!   recursive hashing of a seed) as the pseudorandom block-number generator
//!   that locates the hidden-file header on disk.
//! * **AES** (FIPS 197) — the block cipher that encrypts every block of a
//!   hidden object so that it is indistinguishable from the random fill
//!   written into free blocks at format time.
//! * **A public-key scheme** — used only by the file-sharing protocol
//!   (`steg_getentry` / `steg_addentry`), where the `(file name, FAK)` pair is
//!   encrypted under the recipient's public key.
//!
//! Because this reproduction must be buildable offline without external
//! cryptography crates, all three are implemented here from scratch and
//! validated against published test vectors in the module tests.  The RSA
//! implementation is *textbook* RSA over a small fixed-width bignum: it is
//! entirely adequate for reproducing the sharing protocol and the paper's
//! experiments, but it is not constant-time and must not be used to protect
//! real data.
//!
//! The module layout is:
//!
//! * [`mod@sha256`] — SHA-256 and the incremental hasher.
//! * [`hmac`] — HMAC-SHA256.
//! * [`aes`] — the AES-128/192/256 block cipher.
//! * [`modes`] — CBC and CTR modes over AES, plus PKCS#7 padding helpers.
//! * [`check`] — the keyed AES integrity check (PMAC-shaped) behind the
//!   share, chain-node and journal checks of on-disk format v3.
//! * [`prng`] — the hash-chain pseudorandom block-number generator from the
//!   paper and a counter-mode deterministic byte generator.
//! * [`kdf`] — iterated-hash key derivation from pass-phrases.
//! * [`bignum`] — fixed-capacity big unsigned integers.
//! * [`rsa`] — textbook RSA key generation, encryption and decryption.
//! * [`ct`] — constant-time comparison helpers.
//! * [`gf256`] — GF(2⁸): the scalar field that builds and inverts coding
//!   matrices, and multiply-accumulate and (de)interleave over slices.
//! * [`ida`] — Rabin's Information Dispersal Algorithm on those kernels: the
//!   codec under every replicated and dispersed hidden object.
//! * `hw` (private, x86-64 only) — the AES-NI and SHA-NI round functions
//!   under [`aes`], [`modes`] and [`mod@sha256`], the VAES AES-CTR run
//!   kernel under [`modes::CtrCipher`], the VAES keyed-check kernel under
//!   [`check::KeyedCheck`] and the AVX2 bodies under [`gf256`], picked at
//!   run time from what the CPU reports; the T-table AES, scalar SHA-256
//!   and table-row multiply remain the path on every other host and the
//!   oracle `hw` is tested against.
//!
//! # `unsafe`
//!
//! The crate denies `unsafe_code` everywhere except `hw.rs`, the one file in
//! the workspace that contains any.  Its header carries the full argument;
//! in short: every function that executes an AES, SHA, AVX2 or AVX-512
//! instruction is `#[target_feature]`-gated and reachable only through one
//! of four tokens (`AesNi`, `ShaNi`, `Avx2`, `Vaes`) whose sole constructor
//! is the CPU feature check, and every vector load or store is an unaligned
//! `loadu`/`storeu` through a `&[u8; 16]`, `&[u8; 32]` or `&[u8; 64]` that
//! safe slice methods cut from the caller's buffer.  The AVX2 transposes
//! under [`gf256`] contain no `unsafe` at all: they are that module's safe
//! loops compiled a second time inside a gated wrapper.  The other modules
//! call safe methods on the token and contain no `unsafe` block.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod bignum;
pub mod check;
pub mod ct;
pub mod gf256;
pub mod hmac;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hw;
#[cfg(not(target_arch = "x86_64"))]
#[path = "hw_none.rs"]
mod hw;
pub mod ida;
pub mod kdf;
pub mod modes;
pub mod prng;
pub mod rsa;
pub mod sha256;

pub use aes::Aes;
pub use hmac::hmac_sha256;
pub use kdf::derive_key;
pub use modes::{CbcCipher, CtrCipher};
pub use prng::{BlockLocator, HashChainPrng, XorShiftRng};
pub use rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
pub use sha256::{sha256, Sha256};

/// Length in bytes of a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Length in bytes of an AES block.
pub const AES_BLOCK_LEN: usize = 16;

/// Length in bytes of the symmetric keys used throughout StegFS (AES-256).
pub const SYM_KEY_LEN: usize = 32;
