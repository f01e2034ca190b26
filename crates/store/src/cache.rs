//! Content-addressed evaluation cache.
//!
//! Keys are canonical-form assignment hashes computed by the core layer,
//! so two assignments that are hardware-equivalent (same workload after
//! renaming symmetric cores/pipes/strands) share an entry. Values are the
//! exact measured performance bits.
//!
//! Inserts are *first-wins* (`insert_if_absent`): once a key has a value
//! it never changes. Combined with the batch-boundary visibility rule
//! enforced by [`crate::CampaignStore`] — a batch's lookups only see
//! entries from batches that completed before it — this keeps cached
//! campaigns bit-identical at every worker count.

use std::collections::HashMap;

/// Point-in-time cache counters, exported through the obs registry by the
/// bench layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// In-memory view of the cache (rebuilt from the log's completed
/// batches on open).
#[derive(Debug, Default)]
pub struct EvalCache {
    map: HashMap<u64, f64>,
    hits: u64,
    misses: u64,
}

impl EvalCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        EvalCache::default()
    }

    /// Looks a key up, counting the outcome.
    pub fn lookup(&mut self, key: u64) -> Option<f64> {
        match self.map.get(&key) {
            Some(&v) => {
                self.hits += 1;
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts unless the key is already present; returns whether the
    /// entry was added.
    pub fn insert_if_absent(&mut self, key: u64, value: f64) -> bool {
        use std::collections::hash_map::Entry;
        match self.map.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_insert_wins_and_counters_track() {
        let mut cache = EvalCache::new();
        assert!(cache.lookup(1).is_none());
        assert!(cache.insert_if_absent(1, 10.0));
        assert!(!cache.insert_if_absent(1, 99.0));
        assert_eq!(cache.lookup(1), Some(10.0));
        let stats = cache.stats();
        assert_eq!(
            stats,
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
    }
}
