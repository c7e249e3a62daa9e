//! The out-of-core phase: library-level bolt-on training straight over a
//! chunked row store under a cache budget of a quarter of the file —
//! dense rows borrowed from the mapping (phase B) and sparse rows
//! decode-copied (phase C) — each repetition followed at once by the same
//! training on the same rows in memory, so the out-of-core slowdown (paper
//! Fig 2b) is a ratio between neighbours in time.

use crate::measure::{repeat_for, Metrics, Ops};
use crate::trace::Tracer;
use bolton::output_perturbation::{train_private, train_private_sparse, BoltOnConfig};
use bolton::Budget;
use bolton_data::generator::{linear_binary, sparse_linear_binary};
use bolton_data::row_store::{write_dense_dataset, write_sparse_dataset, StoredDataset};
use bolton_sgd::{InMemoryDataset, Logistic, SamplingScheme, SparseDataset};
use std::path::{Path, PathBuf};
use std::time::Duration;

use super::train::{BATCH, LAMBDA};

/// Share of the store file the chunk cache may hold.
const BUDGET_FRACTION: f64 = 0.25;

pub struct Plan {
    pub dense_rows: usize,
    pub dense_dim: usize,
    pub dense_chunk_rows: usize,
    pub dense_passes: usize,
    pub sparse_rows: usize,
    pub sparse_dim: usize,
    pub sparse_nnz: usize,
    pub sparse_chunk_rows: usize,
    pub sparse_passes: usize,
    /// Time to spend on each of the two sub-phases.
    pub budget: Duration,
}

pub struct Phase {
    plan: Plan,
    seed: u64,
    pub dense_path: PathBuf,
    sparse_path: PathBuf,
    /// The dense rows in memory: the reference the out-of-core model must
    /// equal bit for bit.
    dense_memory: InMemoryDataset,
    sparse_memory: SparseDataset,
    /// Whether a timed round has run (the first one warms up).
    warmed: bool,
}

impl Phase {
    /// Generates both datasets from the seed and writes each once through
    /// `RowStoreWriter` (the caller times this as set-up).
    pub fn set_up(plan: Plan, seed: u64, dir: &Path) -> Result<Phase, String> {
        let store = |e| format!("write row store: {e}");
        let dense_memory = linear_binary(
            &mut bolton_rng::seeded(seed ^ 0xD0),
            plan.dense_rows,
            plan.dense_dim,
            0.05,
        );
        let dense_path = dir.join("dense.rowstore");
        write_dense_dataset(&dense_memory, &dense_path, plan.dense_chunk_rows).map_err(store)?;

        let sparse_memory = sparse_linear_binary(
            &mut bolton_rng::seeded(seed ^ 0x5A),
            plan.sparse_rows,
            plan.sparse_dim,
            plan.sparse_nnz as f64 / plan.sparse_dim as f64,
            0.05,
        );
        let sparse_path = dir.join("sparse.rowstore");
        write_sparse_dataset(&sparse_memory, &sparse_path, plan.sparse_chunk_rows)
            .map_err(store)?;
        Ok(Phase {
            plan,
            seed,
            dense_path,
            sparse_path,
            dense_memory,
            sparse_memory,
            warmed: false,
        })
    }

    fn bolt_on(&self, passes: usize, chunk_rows: usize) -> BoltOnConfig {
        BoltOnConfig::new(Budget::pure(1.0).expect("eps = 1"))
            .with_passes(passes)
            .with_batch_size(BATCH)
            .with_projection(1.0 / LAMBDA)
            .with_sampling(SamplingScheme::chunked(chunk_rows))
    }

    pub fn run(&mut self, ops: &mut Ops, tracer: &Tracer, share: f64) -> Metrics {
        let loss = Logistic::regularized(LAMBDA, 1.0 / LAMBDA);
        let budget_of = |path: &Path| {
            let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            (bytes as f64 * BUDGET_FRACTION) as usize
        };
        let mut m = Metrics::default();
        let warm_up = !std::mem::replace(&mut self.warmed, true);

        // Phase B: dense, mmap-borrowed chunks, then the same in memory.
        let config = self.bolt_on(self.plan.dense_passes, self.plan.dense_chunk_rows);
        let budget = budget_of(&self.dense_path);
        let stored =
            StoredDataset::open_with_budget(&self.dense_path, budget).expect("open dense store");
        let mut rep = 0u64;
        let pairs = repeat_for(self.plan.budget.mul_f64(share), warm_up, || {
            rep += 1;
            ops.attempt(2);
            let (out, store_secs, _) =
                tracer.span("core.train_private(store)", None, 4_000_000 + rep, || {
                    train_private(&stored, &loss, &config, &mut bolton_rng::seeded(self.seed))
                });
            let (reference, memory_secs, _) =
                tracer.span("core.train_private(memory)", None, 4_000_000 + rep, || {
                    train_private(
                        &self.dense_memory,
                        &loss,
                        &config,
                        &mut bolton_rng::seeded(self.seed),
                    )
                });
            match (out, reference) {
                (Ok(private), Ok(reference)) => ops.check(private.model == reference.model, || {
                    "out-of-core model differs from the in-memory model at the same seed"
                        .to_string()
                }),
                (out, reference) => ops.fail(format!(
                    "train_private: store {:?}, memory {:?}",
                    out.err(),
                    reference.err()
                )),
            }
            (store_secs, memory_secs)
        });
        let stats = stored.cache_stats();
        ops.check(stats.peak_resident_bytes <= budget, || {
            format!("peak resident {} B exceeds the {budget} B budget", stats.peak_resident_bytes)
        });
        ops.check(stats.evictions > 0, || {
            "the chunk cache never evicted: not out of core".to_string()
        });
        let visited = (self.plan.dense_rows * self.plan.dense_passes) as f64;
        let ratios: Vec<f64> = pairs.iter().map(|(store, memory)| store / memory).collect();
        let store_secs: Vec<f64> = pairs.iter().map(|(store, _)| *store).collect();
        m.put_median("store_slowdown_ratio", &ratios, |r| r);
        m.put_median("store_rows_per_s", &store_secs, |s| visited / s);

        // Phase C: sparse, decode-copied chunks, then the same in memory.
        let config = self.bolt_on(self.plan.sparse_passes, self.plan.sparse_chunk_rows);
        let budget = budget_of(&self.sparse_path);
        let stored =
            StoredDataset::open_with_budget(&self.sparse_path, budget).expect("open sparse store");
        let pairs = repeat_for(self.plan.budget.mul_f64(share), warm_up, || {
            rep += 1;
            ops.attempt(2);
            let (out, store_secs, _) =
                tracer.span("core.train_private_sparse(store)", None, 4_000_000 + rep, || {
                    train_private_sparse(
                        &stored,
                        &loss,
                        &config,
                        &mut bolton_rng::seeded(self.seed),
                    )
                });
            let (reference, memory_secs, _) =
                tracer.span("core.train_private_sparse(memory)", None, 4_000_000 + rep, || {
                    train_private_sparse(
                        &self.sparse_memory,
                        &loss,
                        &config,
                        &mut bolton_rng::seeded(self.seed),
                    )
                });
            match (out, reference) {
                (Ok(private), Ok(reference)) => ops.check(private.model == reference.model, || {
                    "sparse out-of-core model differs from the in-memory model at the same seed"
                        .to_string()
                }),
                (out, reference) => {
                    ops.fail(format!(
                        "train_private_sparse: store {:?}, memory {:?}",
                        out.err(),
                        reference.err()
                    ));
                }
            }
            (store_secs, memory_secs)
        });
        let stats = stored.cache_stats();
        ops.check(stats.peak_resident_bytes <= budget, || {
            format!(
                "sparse peak resident {} B exceeds the {budget} B budget",
                stats.peak_resident_bytes
            )
        });
        let nnz_visited = (self.sparse_memory.total_nnz() * self.plan.sparse_passes) as f64;
        let ratios: Vec<f64> = pairs.iter().map(|(store, memory)| store / memory).collect();
        let store_secs: Vec<f64> = pairs.iter().map(|(store, _)| *store).collect();
        m.put_median("sparse_slowdown_ratio", &ratios, |r| r);
        m.put_median("sparse_nnz_per_s", &store_secs, |s| nnz_visited / s);
        m
    }
}
