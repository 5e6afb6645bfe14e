//! # ggpdes-bench — experiment definitions for every figure and table
//!
//! One place defines the workloads, scales, and system line-ups of the
//! paper's evaluation (§6); the `repro` binary and the ablation tests
//! both draw from here so the numbers they print come from identical
//! configurations.
//!
//! ## Scaling
//!
//! The paper ran on a 64-core × 4-SMT KNL with up to 4096 POSIX threads,
//! 128 PHOLD LPs per thread, and GVT every 200 cycles. Reproducing those
//! *absolute* sizes would take hours per figure on a laptop-class host, so
//! the default scale shrinks the machine to 16 cores × 4 SMT and the
//! per-thread LP count to 32 while keeping every *ratio* the paper's
//! effects depend on: the over-subscription factors (up to 16×), the
//! epoch-length-to-event-delay ratio (≥ 20 generations per activity window,
//! so temporal locality is real), and the zero-counter-threshold-to-GVT-
//! interval ratio (10×, as in the paper). `Scale::knl()` restores the full
//! 64-core machine for overnight runs.

pub mod experiments;
pub mod scale;

pub use experiments::{
    fig2, fig3, fig4, fig5, fig6, fig7, gvt_table, instr_table, mem_table, rollback_table, Figure,
};
pub use scale::Scale;
