//! The repository benchmark: end-to-end and per-layer metrics of the
//! PacketShader router reproduction, measured from outside the program
//! by timing calls into the public API of `ps-core`, `ps-sim`,
//! `ps-pktgen` and `ps-nic`. See `NOTES.md` next to this package.

pub mod calibrate;
pub mod checks;
pub mod harness;
pub mod measure;
pub mod spans;
pub mod subjects;
pub mod workloads;
