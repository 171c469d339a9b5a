//! # suit-emu
//!
//! The instruction-emulation library of the SUIT reproduction (§3.4 of the
//! paper).
//!
//! When a disabled instruction traps with a `#DO` exception and the
//! operating strategy chooses *emulation* rather than a DVFS-curve switch,
//! the OS maps emulation code into the faulting process and executes the
//! instruction in software. This crate provides that emulation code:
//!
//! * [`aes`] — AES round primitives. [`aes::reference`] is a plain
//!   table-driven FIPS-197 implementation (used for validation and as the
//!   fast-but-leaky baseline); [`aes::bitsliced`] is the side-channel
//!   resilient bit-sliced implementation the paper prescribes for `AESENC`
//!   emulation: the 16 state bytes (of up to 4 blocks in parallel) are
//!   transposed into bit-planes and the S-box is Boyar and Peralta's
//!   AND/XOR gate circuit — no secret-dependent memory accesses or
//!   branches.
//! * [`simd`] — scalar (non-vectorized) emulation of every SIMD opcode in
//!   the faultable set of Table 1: `VOR*`, `VXOR*`, `VAND*`, `VANDN*`,
//!   `VPADDQ`, `VPMAX*`, `VPCMP*`, `VPSRAD`, `VSQRTPD` and `VPCLMULQDQ`.
//! * [`gf`] — constant-time GF(2⁸) field arithmetic and 64-bit carry-less
//!   multiplication, shared by the AES and `VPCLMULQDQ` emulators.
//! * [`gcm`] — AES-GCM (SP 800-38D) assembled from the emulated
//!   primitives: the bit-sliced keystream plus GHASH through the emulated
//!   `VPCLMULQDQ` — functionally the crypto the paper's Nginx workload
//!   executes per HTTPS request.
//! * [`handler`] — the `#DO` emulation dispatcher: given a faultable opcode
//!   and its operands, computes the architectural result exactly as the
//!   hardware instruction would.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod gcm;
pub mod gf;
pub mod handler;
pub mod simd;

pub use handler::{emulate, EmuError, EmuOperands, EmuResult};
