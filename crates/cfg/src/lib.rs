//! # Control-flow-graph machinery for ACFC
//!
//! §2 of *Agbaria & Sanders (ICDCS 2005)* defines the program
//! representation the offline analysis operates on: a control flow graph
//! with `entry`/`exit` nodes, branch and join nodes, and explicit nodes
//! for `send`, `receive`, and `checkpoint` statements; loops are
//! identified through dominators and backward edges. This crate provides
//! exactly that machinery:
//!
//! * [`Cfg`] — the graph arena ([`build_cfg`] constructs it from an MPSL
//!   program, lowering collectives first),
//! * [`dfs()`] / [`dominators()`] / [`loop_info`] — traversal orders, the
//!   dominator tree, backward edges, and natural loops,
//! * [`Reach`] / [`find_path`] — reachability closure and path finding
//!   over arbitrary adjacency lists (reused by the extended CFG in
//!   `acfc-core`),
//! * [`to_dot`] — Graphviz export in the style of the paper's figures.
//!
//! ```
//! use acfc_cfg::{build_cfg, dominators, loop_info};
//!
//! let program = acfc_mpsl::programs::jacobi(10);
//! let (cfg, _lowered) = build_cfg(&program);
//! let dom = dominators(&cfg);
//! let loops = loop_info(&cfg);
//! // The Jacobi checkpoint lives inside the sweep loop, whose header
//! // dominates it.
//! let chk = cfg.checkpoint_nodes()[0];
//! assert!(loops.in_loop(chk));
//! assert!(dom.dominates(loops.loops[0].header, chk));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod build;
pub mod dfs;
pub mod dominators;
pub mod dot;
pub mod graph;
pub mod loops;
pub mod paths;
pub mod reach;

pub use build::{build_cfg, build_cfg_prelowered};
pub use dfs::{dfs, DfsOrders};
pub use dominators::{dominators, dominators_naive, dominators_with, Dominators};
pub use dot::{node_label, to_dot};
pub use graph::{Cfg, EdgeLabel, Node, NodeId, NodeKind};
pub use loops::{loop_info, loop_info_with, LoopInfo, NaturalLoop};
pub use paths::find_path;
pub use reach::Reach;
