//! # frac-dataset
//!
//! Dataset substrate for the FRaC anomaly-detection family (Cousins, Pietras,
//! Slonim — *Scalable FRaC Variants*, IPPS 2017).
//!
//! FRaC operates on data that is "real, categorical, or mixed" with possibly
//! missing entries. This crate provides:
//!
//! * [`Schema`] / [`FeatureKind`] — typed feature descriptions (real-valued
//!   expression levels, k-ary categorical SNP genotypes, …).
//! * [`Dataset`] — column-major mixed storage with missing-value support.
//! * [`DesignMatrix`] — a row-major, all-real view used to train predictors
//!   for one target feature from a chosen subset of the remaining features
//!   (categorical inputs are one-hot expanded, exactly the encoding of the
//!   paper's Fig. 2).
//! * [`entropy`] — plug-in entropy for categorical features and Gaussian-KDE
//!   differential entropy for real features (the quantities the paper's
//!   entropy-filtering selector ranks by, and the `H(f_i)` term of the
//!   normalized-surprisal score).
//! * [`split`] — deterministic shuffles, train/test splits and k-fold
//!   partitions implementing the paper's replicate protocol.
//! * [`io`] — a simple TSV interchange format with a typed header.
//! * [`fcb`] — FCB, the binary column-major on-disk dataset format
//!   (checksummed extents, mmap-loaded into zero-copy [`Dataset`] columns,
//!   chunked bounded-memory encode); see `FORMATS.md` for the byte layout.
//! * [`mmap`] — the read-only memory-map wrapper FCB files and models load
//!   through.
//! * [`binio`] — the little-endian byte codec of model files (v5–v6)
//!   and run-journal records (v2–v3); [`textio`] reads the text versions before
//!   them.
//! * [`quarantine`] — degenerate-input screening (NaN/Inf cells,
//!   zero-variance columns, single-class categoricals, all-missing targets)
//!   and cell sanitization, run before anything reaches a solver.
//! * [`crc`] — CRC-32 / FNV-1a checksums for durable on-disk artifacts
//!   (model files, run journals) and content fingerprints.
//! * [`stats`] — small numeric helpers shared across the workspace.
//!
//! Everything stochastic takes an explicit seed; nothing here depends on
//! global RNG state.

#![warn(missing_docs)]

pub mod binio;
pub mod crc;
pub mod dataset;
pub mod design;
pub mod entropy;
pub mod fcb;
pub mod io;
pub mod kde;
pub mod kernels;
pub mod mmap;
pub mod quarantine;
pub mod schema;
pub mod split;
pub mod stats;
pub mod textio;

pub use dataset::{ColStore, Column, Dataset, Value};
pub use fcb::{FcbError, FcbFile, FcbInfo, FcbWriter};
pub use mmap::MmapFile;
pub use design::{
    CatBlock, CatBlocks, ColRef, DesignMatrix, DesignView, EncodedPool, PackedDesign, PoolSpec,
    PoolView, RowSubset, SpecFold,
};
pub use kde::GaussianKde;
pub use quarantine::{FeatureScreen, QuarantineReason, ScreenReport};
pub use schema::{Feature, FeatureKind, Schema};
