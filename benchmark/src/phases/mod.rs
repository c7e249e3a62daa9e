//! The four phases every workload runs. A workload gives the phase it is
//! named for its full size and the run's time budget, and the other three
//! a small fixed size, so every end-to-end metric is measured on every
//! workload and a change that should not move a metric can be seen not to.

pub mod ingest;
pub mod serve;
pub mod store;
pub mod train;
