//! The repository benchmark: four workloads timed end to end and, in a
//! separate traced rep, layer by layer, from outside the program through
//! its public APIs. See `README.md` for the metrics and how to run it.

pub mod compare;
pub mod json;
pub mod measure;
pub mod rep;
pub mod stats;
pub mod trace;
pub mod workloads;
