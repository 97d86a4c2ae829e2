//! OS abstraction layer of FAME-DBMS (feature *OS-Abstraction* in Figure 2
//! of the paper).
//!
//! Embedded data management must run on heterogeneous targets — the paper
//! names Linux, Win32, and NutOS. This crate isolates everything the engine
//! needs from the platform behind the [`BlockDevice`] trait:
//!
//! * [`memory::InMemoryDevice`] — RAM-backed, the default test target;
//! * [`file::FileDevice`] — a `std::fs` backend standing in for the
//!   Linux/Win32 ports (cargo feature `std-file`);
//! * [`flash::FlashDevice`] — a simulated NutOS-class NAND flash with erase
//!   blocks, erase-before-write discipline and wear counters (cargo feature
//!   `flash`). The paper's deeply embedded target is unavailable hardware,
//!   so this simulation exercises the same code paths (page-aligned I/O,
//!   no overwrite in place, tight RAM);
//! * [`fault::FaultDevice`] — a wrapper that injects I/O failures and torn
//!   writes for crash/recovery testing (cargo feature `fault`);
//! * [`ordered::OrderedDevice`] — a wrapper that runs a barrier before
//!   every page write (the write-ahead rule of a buffered log).
//!
//! It also hosts the frame-allocation policies (feature *Memory Alloc*:
//! `Static` vs `Dynamic`) used by the buffer manager, and [`prefetch`],
//! the one CPU cache hint the engine issues.

pub mod alloc;
pub mod device;
#[cfg(feature = "fault")]
pub mod fault;
#[cfg(feature = "std-file")]
pub mod file;
#[cfg(feature = "flash")]
pub mod flash;
mod hint;
#[cfg(feature = "inmem")]
pub mod memory;
#[cfg(feature = "obs")]
pub mod observed;
pub mod ordered;
pub mod shared;

pub use alloc::{AllocPolicy, FrameAllocator};
pub use device::{BlockDevice, DeviceStats, OsError, PageId, Result};
#[cfg(feature = "fault")]
pub use fault::{FaultDevice, FaultPlan};
#[cfg(feature = "std-file")]
pub use file::FileDevice;
#[cfg(feature = "flash")]
pub use flash::{FlashConfig, FlashDevice};
pub use hint::prefetch;
#[cfg(feature = "inmem")]
pub use memory::InMemoryDevice;
#[cfg(feature = "obs")]
pub use observed::{IoTiming, IoTimingSnapshot, ObservedDevice};
pub use ordered::OrderedDevice;
pub use shared::SharedDevice;
