// Package sw implements the paper's batch sliding-window graph algorithms
// (Section 5, Theorem 1.2): connectivity (lazy SW-Conn, and eager
// SW-Conn-Eager, the order-1 k-certificate), bipartiteness,
// (1+ε)-approximate MSF weight, k-certificates, cycle-freeness (order 2),
// and ε-cut-sparsifiers.
//
// All structures share the same windowing discipline: edges arrive in
// batches and receive consecutive global timestamps τ = 1, 2, ...;
// BatchExpire(Δ) advances a watermark TW by Δ, expiring the oldest Δ
// arrivals. Arbitrary interleavings of batch inserts and expirations of
// arbitrary sizes are supported; pairing equal-sized inserts and
// expirations yields the classic fixed-size window.
//
// The engine underneath is the batch-incremental MSF of Theorem 1.1 with
// recency weights -τ(e) (the recent-edge property, Lemma 5.1): the MSF
// under recency weights is the "most recent spanning forest", so a pair of
// vertices is connected within the window iff the oldest edge on their
// forest path is itself within the window — and an expired forest edge can
// be discarded without replacement, because any replacement would be even
// older.
package sw

import (
	"sync/atomic"

	"repro/internal/wgraph"
)

// Single-writer contract: none of the structures in this package carry
// internal locks. Queries are safe to run concurrently with each other,
// but every mutation (BatchInsert, BatchExpire) must come from exactly
// one writer at a time, externally serialized — in the service pipeline,
// the stream.WindowManager applies staged ops under one write lock per
// monitor. Each structure asserts the contract with a writerGuard: a
// second concurrent mutator panics immediately instead of corrupting the
// forests. (The guard itself is atomic and invisible to the race
// detector; -race catches concurrent mutators through the non-atomic
// forest state they then touch.) Batch slices passed to BatchInsert are
// converted into the
// structure's own representation before it returns and are never
// retained, so callers may reuse their buffers across batches.

// writerGuard asserts the one-mutator-at-a-time contract (one CAS per
// batch — noise next to any batch's real work).
type writerGuard struct{ busy atomic.Int32 }

func (g *writerGuard) enter() {
	if !g.busy.CompareAndSwap(0, 1) {
		panic("sw: concurrent batch mutation — the sliding-window structures are single-writer (serialize BatchInsert/BatchExpire externally)")
	}
}

func (g *writerGuard) exit() { g.busy.Store(0) }

// StreamEdge is one unweighted edge arrival.
type StreamEdge struct {
	U, V int32
}

// WeightedStreamEdge is one weighted edge arrival (for approximate MSF).
type WeightedStreamEdge struct {
	U, V int32
	W    int64
}

// windowEdge converts an arrival into the recency-weighted edge fed to the
// batch-incremental MSF: id = τ, weight = -τ, so "heaviest" = "oldest".
func windowEdge(u, v int32, tau int64) wgraph.Edge {
	return wgraph.Edge{ID: wgraph.EdgeID(tau), U: u, V: v, W: -tau}
}
