//! # tiled — block arrays, tile kernels, and storage mappings
//!
//! The paper represents a distributed matrix as a **tiled matrix**: an RDD of
//! fixed-size square dense tiles `((i, j), Array[Double])` (§5). This crate
//! provides:
//!
//! * [`DenseMatrix`] — a row-major dense matrix used both as the tile type
//!   and for local (driver-side) matrices, whose GEMM runs on packed
//!   operands through the [`kernel`] microkernels.
//! * [`kernel`] — the packed, cache-blocked, runtime-SIMD-dispatched GEMM
//!   microkernels under every dense tile operation, with a bit-exact
//!   deterministic-reduction contract across threads and backends
//!   ([`kernel::gemm`] splits rows over threads, the Rust analog of the
//!   Scala `.par` in the paper's generated code).
//! * [`LocalMatrix`] — a deliberately naive reference
//!   implementation used as the test oracle.
//! * [`TiledMatrix`] / [`TiledVector`] — distributed block arrays over a
//!   [`sparkline::Dataset`].
//! * [`CooMatrix`] — the coordinate (fully sparse) format
//!   that the paper's earlier DIABLO system used, kept as a baseline for the
//!   block-vs-coordinate ablation.
//! * [`sparsify`] — the sparsifier/builder pairs of §1.1/§2/§5 that map
//!   between storage structures and association lists.

pub mod coo;
pub mod fused;
pub mod kernel;
pub mod local;
pub mod sparsify;
pub mod tile;
pub mod tiled_matrix;
pub mod tiled_vector;

pub use coo::CooMatrix;
pub use fused::{ElemwiseOp, FusedProgram};
pub use local::LocalMatrix;
pub use tile::DenseMatrix;
pub use tiled_matrix::TiledMatrix;
pub use tiled_vector::TiledVector;

/// Block coordinates of a tile within the tile grid.
pub type TileCoord = (i64, i64);

/// A distributed collection of tiles keyed by their grid coordinates.
pub type TileSet = sparkline::Dataset<(TileCoord, DenseMatrix)>;
