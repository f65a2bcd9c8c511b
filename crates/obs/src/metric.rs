//! The run manifest's vocabulary: every phase, counter and gauge a
//! recorder can be handed, declared once in the `metrics!` list below.
//!
//! Each entry gives the key's Rust name, the name `run.json` carries it
//! under, and the channel that emits it: [`Channel::Fit`] for the
//! algorithms' fits, [`Channel::Serve`] for the serving daemon.
//! [`Phase`], [`Counter`] and [`Gauge`] and their `name`, `channel` and
//! `ALL` are generated from that list, so a recorder call names a
//! declared key or does not compile, and a reader of the manifest can
//! enumerate what a channel emits.
//!
//! Two rules decide where a new measurement goes:
//!
//! * A **counter** is thread-invariant: equal at every thread count
//!   for the same params, data and seed. The tier-1 test
//!   `fit_manifest_emits_exactly_the_declared_fit_metrics`
//!   (`tests/determinism.rs`) and CI's thread-count step hold every fit
//!   counter to that.
//! * A **gauge** carries what depends on scheduling (worker counts,
//!   queue depths) or is a per-round level rather than a total;
//!   manifests keep its last value and its maximum.
//!
//! Facts about the search belong in neither: they are [`Event`]s
//! (`events.jsonl`).
//!
//! [`Event`]: crate::Event

/// Who emits a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Channel {
    /// A traced fit (`fit --trace-out`, the streaming rebuilds' fits).
    Fit,
    /// The serving daemon (`serve --trace-out`).
    Serve,
}

/// Declares the metric key enums. Each group is `Kind { ... }`, each
/// entry `Variant = "manifest.name" in Channel`; the enum's
/// discriminants follow declaration order, which is also `ALL`'s.
macro_rules! metrics {
    ($(
        $(#[$kmeta:meta])*
        $kind:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $name:literal in $channel:ident ),* $(,)?
        }
    )*) => {$(
        $(#[$kmeta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum $kind {
            $( $(#[$vmeta])* $variant ),*
        }

        impl $kind {
            /// Every key, in declaration order.
            pub const ALL: &'static [$kind] = &[$($kind::$variant),*];

            /// The key's name in `run.json` and in summaries.
            pub fn name(self) -> &'static str {
                match self {
                    $( $kind::$variant => $name, )*
                }
            }

            /// Who emits the key.
            pub fn channel(self) -> Channel {
                match self {
                    $( $kind::$variant => Channel::$channel, )*
                }
            }
        }
    )*};
}

metrics! {
    /// Instrumented phases of the supported algorithms: the span keys,
    /// so the manifest's per-phase time breakdown has a fixed
    /// vocabulary. The PROCLUS phases follow the paper's Figure 2.
    Phase {
        /// PROCLUS phase 1: greedy candidate-medoid selection.
        Init = "init" in Fit,
        /// Neighbor-index construction. The index is retired and no span
        /// is recorded any more; the key stays for the end-to-end
        /// benchmark, which still names it.
        Index = "index" in Fit,
        /// Locality computation (`Lᵢ`, fused with per-dim averages).
        Locality = "locality" in Fit,
        /// FindDimensions (Z-score allocation).
        Dims = "dims" in Fit,
        /// AssignPoints.
        Assign = "assign" in Fit,
        /// EvaluateClusters.
        Evaluate = "evaluate" in Fit,
        /// PROCLUS phase 3: refinement + outlier handling.
        Refine = "refine" in Fit,
        /// CLIQUE dense-unit mining.
        Mine = "mine" in Fit,
        /// CLIQUE connected-component clustering / generic cluster build.
        Cluster = "cluster" in Fit,
        /// ORCLUS merge / CLIQUE level advance.
        Merge = "merge" in Fit,
    }

    /// Monotone totals. Each is thread-invariant (see the module docs).
    Counter {
        /// Semantic O(N·k·d) passes of a fit, booked from the params
        /// alone: the round cache may serve a pass without running it.
        PoolDispatches = "pool.dispatches" in Fit,
        /// Row blocks the semantic passes sweep.
        PoolBlocks = "pool.blocks" in Fit,
        /// Tile fan-outs that actually ran (at most `pool.dispatches`).
        PoolPhysicalDispatches = "pool.physical_dispatches" in Fit,
        /// Row blocks the fan-outs that ran swept.
        PoolPhysicalBlocks = "pool.physical_blocks" in Fit,
        /// Fused locality/`X` lookups the round cache served.
        CacheFusedSlotHits = "cache.fused_slot_hits" in Fit,
        /// Fused locality/`X` lookups the round cache computed.
        CacheFusedSlotRecomputes = "cache.fused_slot_recomputes" in Fit,
        /// Assignment columns served from the column store.
        CacheColumnHits = "cache.column_hits" in Fit,
        /// Assignment columns recomputed.
        CacheColumnRecomputes = "cache.column_recomputes" in Fit,
        /// Fused recomputes that read their medoid's stored `Full` column.
        CacheFullColumnHits = "cache.full_column_hits" in Fit,
        /// Fused recomputes that swept (and stored) the `Full` column.
        CacheFullColumnRecomputes = "cache.full_column_recomputes" in Fit,
        /// Columns evicted to keep the store within its budget.
        CacheEvictions = "cache.evictions" in Fit,
        /// Most column bytes resident at once.
        CachePeakResidentBytes = "cache.peak_resident_bytes" in Fit,
        /// Hill-climbing rounds replayed from the per-restart vertex memo.
        IterateRevisits = "iterate.revisits" in Fit,
        /// HTTP requests answered.
        ServeRequests = "serve.requests" in Serve,
        /// Requests answered with a 4xx status.
        ServeStatus4xx = "serve.status_4xx" in Serve,
        /// Requests answered with a 5xx status.
        ServeStatus5xx = "serve.status_5xx" in Serve,
        /// Fit submissions refused because the job queue was full.
        ServeQueueFull = "serve.queue_full" in Serve,
        /// Fit jobs that reached `done`.
        ServeJobsDone = "serve.jobs_done" in Serve,
        /// Fit jobs that reached `failed`.
        ServeJobsFailed = "serve.jobs_failed" in Serve,
        /// Connections dropped on a torn or malformed request.
        ServeProtocolErrors = "serve.protocol_errors" in Serve,
    }

    /// Observed levels; manifests keep the last value and the maximum.
    Gauge {
        /// Worker threads backing the fit's pool (0 in serial mode).
        PoolWorkers = "pool.workers" in Fit,
        /// Most jobs one fan-out queued (0 in serial mode).
        PoolQueueHighWater = "pool.queue_high_water" in Fit,
        /// Fused pairs one hill-climbing round computed.
        CacheMedoidsRecomputed = "cache.medoids_recomputed" in Fit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Manifest readers look metrics up by name, so no two keys of a
    /// kind may share one, and no counter may share a gauge's.
    #[test]
    fn names_are_unique() {
        let phases: BTreeSet<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(phases.len(), Phase::ALL.len());
        let values: BTreeSet<_> = Counter::ALL
            .iter()
            .map(|c| c.name())
            .chain(Gauge::ALL.iter().map(|g| g.name()))
            .collect();
        assert_eq!(values.len(), Counter::ALL.len() + Gauge::ALL.len());
    }
}
