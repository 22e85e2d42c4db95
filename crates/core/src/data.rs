//! The data service: simulated object storage.
//!
//! §3 characterizes data access for small objects as "a single RPC plus
//! tens of microseconds for device access". The data service models exactly
//! that: a pool of storage nodes, one RPC to a node chosen round-robin, and
//! one device-latency injection per access. Object *contents* are not
//! materialized — experiments only need the timing and the size bookkeeping.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use mantle_rpc::SimNode;
use mantle_types::{MetaError, RequestCtx, Result, SimConfig};

/// A pool of simulated data servers.
pub struct DataService {
    nodes: Vec<SimNode>,
    blobs: Mutex<Blobs>,
    next_blob: AtomicU64,
    rr: AtomicU64,
    config: SimConfig,
}

impl DataService {
    /// Creates a pool of `n_nodes` data servers.
    pub fn new(config: SimConfig, n_nodes: usize) -> Self {
        assert!(n_nodes >= 1);
        DataService {
            nodes: (0..n_nodes)
                .map(|i| SimNode::new(format!("data{i}"), config.db_node_permits, config))
                .collect(),
            blobs: Mutex::default(),
            next_blob: AtomicU64::new(1),
            rr: AtomicU64::new(0),
            config,
        }
    }

    fn node(&self) -> &SimNode {
        let i = self.rr.fetch_add(1, Ordering::Relaxed) as usize;
        &self.nodes[i % self.nodes.len()]
    }

    /// Installs (or clears) a fault plan on every data node.
    pub fn install_faults(&self, plan: Option<std::sync::Arc<mantle_rpc::FaultPlan>>) {
        for n in &self.nodes {
            n.set_faults(plan.clone());
        }
    }

    /// Writes an object of `size` bytes, returning its blob handle.
    ///
    /// # Errors
    ///
    /// Transport and admission errors of the data node's RPC (all
    /// rejected before the write runs).
    pub fn write(&self, size: u64, stats: &mut RequestCtx) -> Result<u64> {
        let blob = self.next_blob.fetch_add(1, Ordering::Relaxed);
        self.node().try_rpc_named(stats, "data_write", || {
            mantle_rpc::device_access(&self.config);
            self.blobs.lock().insert(blob, size);
        })?;
        Ok(blob)
    }

    /// Reads an object by blob handle, returning its size.
    ///
    /// # Errors
    ///
    /// [`MetaError::NotFound`] for an unknown handle; transport and
    /// admission errors of the data node's RPC.
    pub fn read(&self, blob: u64, stats: &mut RequestCtx) -> Result<u64> {
        self.node().try_rpc_named(stats, "data_read", || {
            mantle_rpc::device_access(&self.config);
            self.blobs
                .lock()
                .get(blob)
                .ok_or_else(|| MetaError::NotFound(format!("blob {blob}")))
        })?
    }

    /// Deletes a blob. Unknown handles are ignored (idempotent GC-style
    /// deletion, as in real object stores).
    ///
    /// # Errors
    ///
    /// Transport and admission errors of the data node's RPC.
    pub fn delete(&self, blob: u64, stats: &mut RequestCtx) -> Result<()> {
        self.node().try_rpc_named(stats, "data_delete", || {
            mantle_rpc::device_access(&self.config);
            self.blobs.lock().remove(blob);
        })
    }

    /// Registers a blob without paying simulated delays (bulk population).
    pub fn raw_write(&self, size: u64) -> u64 {
        let blob = self.next_blob.fetch_add(1, Ordering::Relaxed);
        self.blobs.lock().insert(blob, size);
        blob
    }

    /// Number of stored blobs.
    pub fn len(&self) -> usize {
        self.blobs.lock().len
    }

    /// Whether no blobs are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Blob sizes indexed by handle: handles count up from 1, so the table is
/// dense. A handle never written or since deleted holds [`Blobs::NONE`], so
/// no blob can be `u64::MAX` bytes.
#[derive(Default)]
struct Blobs {
    sizes: Vec<u64>,
    len: usize,
}

impl Blobs {
    const NONE: u64 = u64::MAX;

    fn get(&self, blob: u64) -> Option<u64> {
        let size = self.sizes.get(usize::try_from(blob).ok()?);
        size.copied().filter(|&size| size != Self::NONE)
    }

    fn insert(&mut self, blob: u64, size: u64) {
        let at = blob as usize;
        if at >= self.sizes.len() {
            self.sizes.resize(at + 1, Self::NONE);
        }
        self.len += usize::from(self.sizes[at] == Self::NONE);
        self.sizes[at] = size;
    }

    fn remove(&mut self, blob: u64) {
        if self.get(blob).is_some() {
            self.sizes[blob as usize] = Self::NONE;
            self.len -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_delete_cycle() {
        let data = DataService::new(SimConfig::instant(), 4);
        let mut stats = RequestCtx::new();
        let blob = data.write(4096, &mut stats).unwrap();
        assert_eq!(data.read(blob, &mut stats).unwrap(), 4096);
        data.delete(blob, &mut stats).unwrap();
        assert!(matches!(
            data.read(blob, &mut stats),
            Err(MetaError::NotFound(_))
        ));
        // 1 RPC per access.
        assert_eq!(stats.rpcs, 4);
    }

    #[test]
    fn raw_write_skips_accounting() {
        let data = DataService::new(SimConfig::instant(), 1);
        let blob = data.raw_write(100);
        let mut stats = RequestCtx::new();
        assert_eq!(data.read(blob, &mut stats).unwrap(), 100);
        assert_eq!(data.len(), 1);
    }
}
