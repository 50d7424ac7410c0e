//! In-stream estimation — paper Algorithm 3 (`InStream GPS`).
//!
//! Instead of reconstructing subgraph estimates from the reservoir after the
//! fact, in-stream estimation takes a *snapshot* of each triangle/wedge at
//! the moment its last edge arrives (a stopped-Martingale estimator, paper
//! Theorem 4/6): when edge `k3` arrives and its first two edges `k1, k2` are
//! sampled, the wedge `(k1, k2)` is frozen at inverse-probability value
//! `1/(q1·q2)` using the *current* threshold. Snapshots are never re-visited
//! — the sample keeps evolving, but extracted information does not change.
//!
//! Variance estimation (Theorem 7) needs covariances between snapshots taken
//! at different times; Algorithm 3 accumulates those incrementally via two
//! per-sampled-edge accumulators `C̃_k(△)`, `C̃_k(Λ)` which are dropped when
//! `k` is evicted (lines 39–40).
//!
//! The paper's evaluation (Table 1, Table 3) shows this estimator achieves
//! visibly lower variance than post-stream estimation *on the same sample* —
//! reproduced in this workspace by `gps-bench`.

use crate::estimate::{Estimate, TriadEstimates};
use crate::reservoir::{prob, Arrival, GpsSampler, SampleView};
use crate::slab::SlotId;
use crate::weights::EdgeWeight;
use gps_graph::types::Edge;

/// Portable snapshot of every Algorithm-3 accumulator an
/// [`InStreamEstimator`] carries beyond its sampler: the five global
/// count/variance accumulators plus the per-sampled-edge covariance
/// accumulators `C̃_k(△), C̃_k(Λ)` (paper Alg 3 lines 39–40).
///
/// Together with the sampler's own persisted state this makes a resumed
/// estimator *exact*: [`InStreamEstimator::resume`] reinstates everything,
/// so estimates after the handover are bit-identical to an uninterrupted
/// run at the same watermark — unlike [`InStreamEstimator::from_sampler`],
/// which re-seeds from a post-stream estimate and loses the cross-snapshot
/// covariance terms. The `gps-sample v2` persist section carries this
/// state on disk.
#[derive(Clone, Debug, PartialEq)]
pub struct InStreamState {
    /// Triangle count accumulator `Ñ(△)`.
    pub n_tri: f64,
    /// Triangle variance accumulator `Ṽ(△)`.
    pub v_tri: f64,
    /// Wedge count accumulator `Ñ(Λ)`.
    pub n_wedge: f64,
    /// Wedge variance accumulator `Ṽ(Λ)`.
    pub v_wedge: f64,
    /// Triangle–wedge covariance accumulator `Ṽ(△,Λ)`.
    pub tri_wedge_cov: f64,
    /// Per sampled edge `(C̃_k(△), C̃_k(Λ))`, parallel to the
    /// [`GpsSampler::edges`] iteration order of the sampler the state was
    /// exported from.
    pub per_edge: Vec<(f64, f64)>,
}

impl InStreamState {
    /// The state of a fresh estimator over an empty sampler.
    pub fn empty() -> Self {
        InStreamState {
            n_tri: 0.0,
            v_tri: 0.0,
            n_wedge: 0.0,
            v_wedge: 0.0,
            tri_wedge_cov: 0.0,
            per_edge: Vec::new(),
        }
    }
}

/// GPS sampler plus in-stream triangle/wedge count and variance
/// accumulators (paper Algorithm 3).
pub struct InStreamEstimator<W> {
    sampler: GpsSampler<W>,
    n_tri: f64,
    v_tri: f64,
    n_wedge: f64,
    v_wedge: f64,
    tri_wedge_cov: f64,
    /// Scratch: slots of (k1, k2) per triangle completed by the arrival.
    tri_buf: Vec<(SlotId, SlotId)>,
    /// Scratch: slots of sampled edges adjacent to the arrival.
    wedge_buf: Vec<SlotId>,
}

impl<W: EdgeWeight> InStreamEstimator<W> {
    /// Creates an in-stream estimator over a fresh `GPS(m)` sampler.
    ///
    /// Given the same `capacity`, `weight_fn` and `seed`, the underlying
    /// sampler selects *exactly* the same edges as a bare [`GpsSampler`] —
    /// the paper's experimental setup relies on this to compare post- and
    /// in-stream estimation on identical samples.
    pub fn new(capacity: usize, weight_fn: W, seed: u64) -> Self {
        InStreamEstimator {
            sampler: GpsSampler::new(capacity, weight_fn, seed),
            n_tri: 0.0,
            v_tri: 0.0,
            n_wedge: 0.0,
            v_wedge: 0.0,
            tri_wedge_cov: 0.0,
            tri_buf: Vec::new(),
            wedge_buf: Vec::new(),
        }
    }

    /// Wraps an existing sampler — the resume path for restored reservoirs
    /// (`gps-engine` snapshots re-enter in-stream estimation through here).
    ///
    /// The global count/variance accumulators are seeded from a post-stream
    /// estimate of the sample as handed over (zero for an empty sampler, so
    /// wrapping a fresh sampler is identical to
    /// [`InStreamEstimator::new`]): the post-stream estimate is unbiased
    /// for every subgraph completed before the handover, and snapshots of
    /// subgraphs completed afterwards add their increments on top, keeping
    /// the running totals unbiased across the handover. The per-edge
    /// covariance accumulators restart at zero — covariance between pre-
    /// and post-handover snapshots is not tracked (the persist format does
    /// not carry it), so variance estimates straddling a handover are
    /// slightly understated.
    pub fn from_sampler(sampler: GpsSampler<W>) -> Self {
        // On an empty (fresh) sampler the post-stream estimate is the
        // all-zero bundle, so this single path covers both fresh wrapping
        // and resume.
        let seeded = crate::post_stream::estimate(&sampler);
        InStreamEstimator {
            sampler,
            n_tri: seeded.triangles.value,
            v_tri: seeded.triangles.variance,
            n_wedge: seeded.wedges.value,
            v_wedge: seeded.wedges.variance,
            tri_wedge_cov: seeded.tri_wedge_cov,
            tri_buf: Vec::new(),
            wedge_buf: Vec::new(),
        }
    }

    /// Consumes the estimator, returning the underlying sampler (e.g. to
    /// persist it — the snapshot formats store samples, not accumulators).
    pub fn into_sampler(self) -> GpsSampler<W> {
        self.sampler
    }

    /// Exports the full Algorithm-3 accumulator state. Pair with the
    /// sampler's persisted sample (the `gps-sample v2` section does both)
    /// and [`InStreamEstimator::resume`] for an exact handover.
    pub fn export_state(&self) -> InStreamState {
        InStreamState {
            n_tri: self.n_tri,
            v_tri: self.v_tri,
            n_wedge: self.n_wedge,
            v_wedge: self.v_wedge,
            tri_wedge_cov: self.tri_wedge_cov,
            per_edge: self
                .sampler
                .slab()
                .iter()
                .map(|(_, r)| (r.cov_tri, r.cov_wedge))
                .collect(),
        }
    }

    /// Consumes the estimator, returning the sampler and the exported
    /// accumulator state in one move (the engine's checkpoint/`finish`
    /// paths use this to hand both halves over without cloning).
    pub fn into_parts(self) -> (GpsSampler<W>, InStreamState) {
        let state = self.export_state();
        (self.sampler, state)
    }

    /// Exact resume: wraps `sampler` and reinstates a previously
    /// [`export_state`]ed accumulator snapshot, including the per-edge
    /// covariance accumulators (written back in [`GpsSampler::edges`]
    /// order, which restored samplers preserve).
    ///
    /// Subsequent estimates are bit-identical to the estimator the state
    /// was exported from — the exactness contract the `gps-sample v2`
    /// persist section and engine checkpoints rely on.
    ///
    /// # Panics
    ///
    /// If `state.per_edge` does not have exactly one entry per sampled
    /// edge (the persist layer validates this before calling; direct
    /// callers pairing a sampler with a state from elsewhere have a logic
    /// error).
    ///
    /// [`export_state`]: InStreamEstimator::export_state
    pub fn resume(mut sampler: GpsSampler<W>, state: InStreamState) -> Self {
        let (slab, _adj, _z) = sampler.estimator_parts();
        assert_eq!(
            state.per_edge.len(),
            slab.len(),
            "in-stream state covers {} edges but the sampler holds {}",
            state.per_edge.len(),
            slab.len()
        );
        let slots: Vec<SlotId> = slab.iter().map(|(slot, _)| slot).collect();
        for (slot, &(cov_tri, cov_wedge)) in slots.into_iter().zip(&state.per_edge) {
            let record = slab.get_mut(slot);
            record.cov_tri = cov_tri;
            record.cov_wedge = cov_wedge;
        }
        InStreamEstimator {
            sampler,
            n_tri: state.n_tri,
            v_tri: state.v_tri,
            n_wedge: state.n_wedge,
            v_wedge: state.v_wedge,
            tri_wedge_cov: state.tri_wedge_cov,
            tri_buf: Vec::new(),
            wedge_buf: Vec::new(),
        }
    }

    /// Processes one arrival: snapshot-estimates the subgraphs the edge
    /// completes (`GPSEstimate`, Alg 3 lines 8–27), *then* offers the edge
    /// to the sampler (`GPSUpdate`).
    pub fn process(&mut self, edge: Edge) -> Arrival {
        if self.sampler.contains(edge) {
            // Duplicate arrival: counting its completions again would bias
            // the estimators upward, so skip both phases.
            return self.sampler.process(edge);
        }
        self.snapshot_completions(edge);
        self.sampler.process(edge)
    }

    /// Feeds a whole stream through [`InStreamEstimator::process`].
    pub fn process_stream<I: IntoIterator<Item = Edge>>(&mut self, edges: I) {
        for e in edges {
            self.process(e);
        }
    }

    fn snapshot_completions(&mut self, edge: Edge) {
        let (v1, v2) = edge.endpoints();
        // Phase 1 (immutable): enumerate completed subgraphs from the
        // adjacency into scratch buffers. The fused walk resolves each
        // endpoint once for both the triangle and wedge enumerations,
        // instead of once per phase (ROADMAP "walker fusion" item).
        {
            let view = self.sampler.view();
            self.tri_buf.clear();
            self.wedge_buf.clear();
            let tri_buf = &mut self.tri_buf;
            let wedge_buf = &mut self.wedge_buf;
            view.for_each_completion_slots(
                v1,
                v2,
                |_, s1, s2| tri_buf.push((s1, s2)),
                |slot| wedge_buf.push(slot),
            );
        }
        // Phase 2 (mutable): fold the snapshots into the global accumulators
        // and update the per-edge covariance accumulators.
        let (slab, _adj, z) = self.sampler.estimator_parts();

        // Triangles (k1, k2, k) completed by k (Alg 3 lines 9–19). The
        // snapshot freezes the wedge (k1, k2) just before k's sampling step.
        for &(s1, s2) in &self.tri_buf {
            let q1 = prob(slab.get(s1).weight, z);
            let q2 = prob(slab.get(s2).weight, z);
            let inv12 = 1.0 / (q1 * q2);
            self.n_tri += inv12;
            self.v_tri += (inv12 - 1.0) * inv12;
            self.v_tri += 2.0 * (slab.get(s1).cov_tri + slab.get(s2).cov_tri) * inv12;
            self.tri_wedge_cov += (slab.get(s1).cov_wedge + slab.get(s2).cov_wedge) * inv12;
            slab.get_mut(s1).cov_tri += (1.0 / q1 - 1.0) / q2;
            slab.get_mut(s2).cov_tri += (1.0 / q2 - 1.0) / q1;
        }

        // Wedges (j, k) completed by k (Alg 3 lines 20–27).
        for &slot in &self.wedge_buf {
            let q = prob(slab.get(slot).weight, z);
            let inv = 1.0 / q;
            self.n_wedge += inv;
            self.v_wedge += inv * (inv - 1.0);
            self.v_wedge += 2.0 * slab.get(slot).cov_wedge * inv;
            self.tri_wedge_cov += slab.get(slot).cov_tri * inv;
            slab.get_mut(slot).cov_wedge += inv - 1.0;
        }
        // Eviction cleanup (Alg 3 lines 39–40) is automatic: the evicted
        // edge's accumulators live in its slab record and die with it.
    }

    /// Current snapshot estimates `Ñ(△), Ñ(Λ), Ṽ(△), Ṽ(Λ), Ṽ(△,Λ)` and
    /// the derived clustering coefficient.
    pub fn estimates(&self) -> TriadEstimates {
        TriadEstimates::from_parts(
            Estimate {
                value: self.n_tri,
                variance: self.v_tri,
            },
            Estimate {
                value: self.n_wedge,
                variance: self.v_wedge,
            },
            self.tri_wedge_cov,
        )
    }

    /// Triangle count estimate `Ñ(△)` (cheap accessor for tracking loops).
    #[inline]
    pub fn triangle_count(&self) -> f64 {
        self.n_tri
    }

    /// Wedge count estimate `Ñ(Λ)`.
    #[inline]
    pub fn wedge_count(&self) -> f64 {
        self.n_wedge
    }

    /// The underlying sampler (e.g. to run post-stream estimation on the
    /// identical sample, as the paper's comparison does).
    #[inline]
    pub fn sampler(&self) -> &GpsSampler<W> {
        &self.sampler
    }

    /// Read-only sample view.
    #[inline]
    pub fn view(&self) -> SampleView<'_> {
        self.sampler.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::post_stream;
    use crate::weights::{TriangleWeight, UniformWeight};

    fn k4_edges() -> Vec<Edge> {
        let mut v = vec![];
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                v.push(Edge::new(a, b));
            }
        }
        v
    }

    #[test]
    fn full_retention_counts_exactly() {
        let mut est = InStreamEstimator::new(64, TriangleWeight::default(), 1);
        est.process_stream(k4_edges());
        let e = est.estimates();
        assert!((e.triangles.value - 4.0).abs() < 1e-12);
        assert!((e.wedges.value - 12.0).abs() < 1e-12);
        assert_eq!(e.triangles.variance, 0.0);
        assert_eq!(e.wedges.variance, 0.0);
        assert!((e.clustering.value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counts_are_order_invariant_under_full_retention() {
        // Any arrival order must give the same exact counts when nothing is
        // evicted (every subgraph is snapshotted at its completion).
        let mut orders = vec![k4_edges()];
        let mut rev = k4_edges();
        rev.reverse();
        orders.push(rev);
        let mut rotated = k4_edges();
        rotated.rotate_left(3);
        orders.push(rotated);
        for order in orders {
            let mut est = InStreamEstimator::new(64, UniformWeight, 5);
            est.process_stream(order);
            assert!((est.triangle_count() - 4.0).abs() < 1e-12);
            assert!((est.wedge_count() - 12.0).abs() < 1e-12);
        }
    }

    #[test]
    fn duplicates_do_not_double_count() {
        let mut est = InStreamEstimator::new(64, UniformWeight, 2);
        let tri = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)];
        est.process_stream(tri);
        let before = est.triangle_count();
        est.process(Edge::new(0, 2)); // duplicate
        est.process(Edge::new(2, 0)); // duplicate, other orientation
        assert_eq!(est.triangle_count(), before);
        assert_eq!(est.sampler().duplicates(), 2);
    }

    #[test]
    fn same_seed_same_sample_as_bare_sampler() {
        let mut edges = vec![];
        for base in (0..60u32).step_by(3) {
            edges.push(Edge::new(base, base + 1));
            edges.push(Edge::new(base + 1, base + 2));
            edges.push(Edge::new(base, base + 2));
        }
        let mut bare = GpsSampler::new(10, TriangleWeight::default(), 77);
        bare.process_stream(edges.clone());
        let mut instream = InStreamEstimator::new(10, TriangleWeight::default(), 77);
        instream.process_stream(edges);
        let mut a: Vec<Edge> = bare.edges().map(|s| s.edge).collect();
        let mut b: Vec<Edge> = instream.sampler().edges().map(|s| s.edge).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "in-stream wrapper must not perturb the sample");
        assert_eq!(bare.threshold(), instream.sampler().threshold());
    }

    #[test]
    fn variance_terms_are_nonnegative_under_eviction() {
        let mut est = InStreamEstimator::new(8, TriangleWeight::default(), 3);
        let mut edges = vec![];
        for base in 0..20u32 {
            edges.push(Edge::new(base, base + 1));
            edges.push(Edge::new(base, base + 2));
            edges.push(Edge::new(base + 1, base + 2));
        }
        est.process_stream(edges);
        assert!(est.sampler().threshold() > 0.0);
        let e = est.estimates();
        assert!(e.triangles.variance >= 0.0);
        assert!(e.wedges.variance >= 0.0);
        assert!(e.tri_wedge_cov >= 0.0);
    }

    #[test]
    fn post_stream_on_same_sample_agrees_under_full_retention() {
        // With no eviction both estimators see every subgraph at p = 1 and
        // must agree exactly.
        let mut est = InStreamEstimator::new(128, TriangleWeight::default(), 9);
        est.process_stream(k4_edges());
        let post = post_stream::estimate(est.sampler());
        let instream = est.estimates();
        assert!((post.triangles.value - instream.triangles.value).abs() < 1e-12);
        assert!((post.wedges.value - instream.wedges.value).abs() < 1e-12);
    }

    #[test]
    fn from_sampler_on_fresh_sampler_matches_new() {
        let edges = k4_edges();
        let mut a = InStreamEstimator::new(3, TriangleWeight::default(), 21);
        let mut b =
            InStreamEstimator::from_sampler(GpsSampler::new(3, TriangleWeight::default(), 21));
        for &e in &edges {
            a.process(e);
            b.process(e);
        }
        assert_eq!(a.triangle_count().to_bits(), b.triangle_count().to_bits());
        assert_eq!(a.wedge_count().to_bits(), b.wedge_count().to_bits());
        let (ea, eb) = (a.estimates(), b.estimates());
        assert_eq!(
            ea.triangles.variance.to_bits(),
            eb.triangles.variance.to_bits()
        );
        assert_eq!(a.sampler().threshold(), b.sampler().threshold());
    }

    #[test]
    fn from_sampler_seeds_counts_from_post_stream_estimate() {
        // Hand over a sampler that already holds a full K4: the wrapped
        // estimator must start from the post-stream (here: exact) counts,
        // and new completions add on top.
        let mut sampler = GpsSampler::new(64, TriangleWeight::default(), 4);
        sampler.process_stream(k4_edges());
        let mut est = InStreamEstimator::from_sampler(sampler);
        assert!((est.triangle_count() - 4.0).abs() < 1e-12);
        assert!((est.wedge_count() - 12.0).abs() < 1e-12);
        // Extend node 4 into the clique: edges (0,4), (1,4) close one new
        // triangle (0,1,4) and new wedges.
        est.process(Edge::new(0, 4));
        est.process(Edge::new(1, 4));
        assert!((est.triangle_count() - 5.0).abs() < 1e-12);
        let sampler = est.into_sampler();
        assert_eq!(sampler.len(), 8);
    }

    fn eviction_stream() -> Vec<Edge> {
        let mut edges = vec![];
        for base in 0..30u32 {
            edges.push(Edge::new(base, base + 1));
            edges.push(Edge::new(base, base + 2));
            edges.push(Edge::new(base + 1, base + 2));
        }
        edges
    }

    #[test]
    fn export_resume_continues_bit_identically_to_uninterrupted_run() {
        // Split the stream mid-way, export/resume the accumulator state on
        // the *same* sampler (RNG state carried over), and finish the
        // stream: every estimate must be bit-identical to the uninterrupted
        // run — the exactness contract `from_sampler` cannot offer.
        let edges = eviction_stream();
        let split = 50;
        let mut full = InStreamEstimator::new(8, TriangleWeight::default(), 11);
        full.process_stream(edges.iter().copied());

        let mut first = InStreamEstimator::new(8, TriangleWeight::default(), 11);
        first.process_stream(edges[..split].iter().copied());
        assert!(
            first.sampler().threshold() > 0.0,
            "split must land after evictions started"
        );
        let (sampler, state) = first.into_parts();
        let mut resumed = InStreamEstimator::resume(sampler, state);
        resumed.process_stream(edges[split..].iter().copied());

        let (a, b) = (full.estimates(), resumed.estimates());
        assert_eq!(a.triangles.value.to_bits(), b.triangles.value.to_bits());
        assert_eq!(
            a.triangles.variance.to_bits(),
            b.triangles.variance.to_bits()
        );
        assert_eq!(a.wedges.value.to_bits(), b.wedges.value.to_bits());
        assert_eq!(a.wedges.variance.to_bits(), b.wedges.variance.to_bits());
        assert_eq!(a.tri_wedge_cov.to_bits(), b.tri_wedge_cov.to_bits());
    }

    #[test]
    fn resume_after_sampler_round_trip_is_exact_at_watermark() {
        // Persist-style round trip: rebuild the sampler from raw records
        // (fresh RNG — statistically equivalent, not bit-identical going
        // forward) and reinstate the exported state. At the save watermark
        // the estimates must be bit-identical to the original estimator.
        let edges = eviction_stream();
        let mut orig = InStreamEstimator::new(8, TriangleWeight::default(), 11);
        orig.process_stream(edges.iter().copied().take(60));
        let state = orig.export_state();
        let before = orig.estimates();
        let sampler = orig.sampler();
        let records: Vec<_> = sampler
            .edges()
            .map(|s| (s.edge, s.weight, s.priority))
            .collect();
        let rebuilt = GpsSampler::restore(
            8,
            TriangleWeight::default(),
            11,
            sampler.threshold(),
            sampler.arrivals(),
            records,
        );
        let resumed = InStreamEstimator::resume(rebuilt, state.clone());
        let after = resumed.estimates();
        assert_eq!(
            before.triangles.value.to_bits(),
            after.triangles.value.to_bits()
        );
        assert_eq!(
            before.triangles.variance.to_bits(),
            after.triangles.variance.to_bits()
        );
        assert_eq!(before.wedges.value.to_bits(), after.wedges.value.to_bits());
        assert_eq!(
            before.wedges.variance.to_bits(),
            after.wedges.variance.to_bits()
        );
        assert_eq!(
            before.tri_wedge_cov.to_bits(),
            after.tri_wedge_cov.to_bits()
        );
        // And the round trip preserved the per-edge accumulators exactly.
        assert_eq!(resumed.export_state(), state);
    }

    #[test]
    #[should_panic(expected = "in-stream state covers")]
    fn resume_rejects_mismatched_per_edge_length() {
        let mut sampler = GpsSampler::new(8, UniformWeight, 1);
        sampler.process_stream(k4_edges());
        let mut state = InStreamState::empty();
        state.per_edge.push((0.0, 0.0));
        let _ = InStreamEstimator::resume(sampler, state);
    }

    #[test]
    fn empty_state_matches_fresh_estimator() {
        assert_eq!(
            InStreamEstimator::new(4, UniformWeight, 0).export_state(),
            InStreamState::empty()
        );
    }

    #[test]
    fn empty_stream_estimates_zero() {
        let est = InStreamEstimator::new(4, UniformWeight, 0);
        let e = est.estimates();
        assert_eq!(e.triangles.value, 0.0);
        assert_eq!(e.wedges.value, 0.0);
        assert_eq!(e.clustering.value, 0.0);
    }
}
