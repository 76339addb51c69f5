//! The threaded TensorSocket runtime.

pub mod builder;
pub mod config;
pub mod consumer;
mod consumer_state;
pub mod context;
pub mod coordinator;
pub mod producer;
mod pump;
pub mod scrape;
pub mod staging;
pub mod state;

pub use builder::{ConsumerBuilder, Producer, ProducerBuilder};
pub use config::{FlexibleConfig, ProducerConfig};
pub use consumer::Consumer;
pub use coordinator::{EpochCoordinator, GroupJoin};
pub use scrape::{scrape_stats, scrape_trace};
pub use staging::StagingConfig;
pub use state::Wait;

#[cfg(test)]
mod tests;
