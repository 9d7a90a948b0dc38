package sw

import (
	"repro/internal/core"
	"repro/internal/wgraph"
)

// Conn is the lazy sliding-window connectivity structure SW-Conn of
// Theorem 5.1: expiry is O(1) (a watermark bump) and connectivity queries
// test the recent-edge condition on the heaviest (oldest) path edge.
type Conn struct {
	msf     *core.BatchMSF
	tau     int64         // arrivals so far
	tw      int64         // expired prefix; the window is (tw, tau]
	scratch []wgraph.Edge // conversion buffer, reused across batches
}

// NewConn returns a lazy sliding-window connectivity structure over n
// vertices.
func NewConn(n int, seed uint64) *Conn {
	return &Conn{msf: core.New(n, seed)}
}

// BatchInsert appends a batch of edge arrivals to the window.
func (c *Conn) BatchInsert(edges []StreamEdge) {
	if len(edges) == 0 {
		return
	}
	batch := c.scratch[:0]
	for _, e := range edges {
		c.tau++
		batch = append(batch, windowEdge(e.U, e.V, c.tau))
	}
	c.scratch = batch
	c.msf.BatchInsert(batch)
}

// batchInsertAt inserts arrivals with caller-assigned global timestamps
// (used when this instance receives a subset of a shared stream). The taus
// need not be sorted; the window advances to the largest one.
func (c *Conn) batchInsertAt(edges []StreamEdge, taus []int64) {
	if len(edges) == 0 {
		return
	}
	batch := c.scratch[:0]
	maxTau := c.tau
	for i, e := range edges {
		if taus[i] > maxTau {
			maxTau = taus[i]
		}
		batch = append(batch, windowEdge(e.U, e.V, taus[i]))
	}
	c.scratch = batch
	c.tau = maxTau
	c.msf.BatchInsert(batch)
}

// BatchExpire expires the oldest delta arrivals in O(1).
func (c *Conn) BatchExpire(delta int) { c.expireTo(c.tw + int64(delta)) }

func (c *Conn) expireTo(tw int64) {
	if tw > c.tau {
		tw = c.tau
	}
	if tw > c.tw {
		c.tw = tw
	}
}

// IsConnected reports whether u and v are connected using only unexpired
// edges (Lemma 5.1): they must be forest-connected and the oldest edge on
// their forest path must still be in the window.
func (c *Conn) IsConnected(u, v int32) bool {
	if u == v {
		return true
	}
	e, ok := c.msf.PathMaxEdge(u, v)
	return ok && int64(e.ID) > c.tw
}

// WindowLen returns the number of unexpired arrivals.
func (c *Conn) WindowLen() int64 { return c.tau - c.tw }

// NewConnEager returns SW-Conn-Eager of Theorem 5.2, the eager
// sliding-window connectivity structure: an order-1 k-certificate, whose
// F_1 keeps only unexpired forest edges, so components count in O(1).
func NewConnEager(n int, seed uint64) *KCert { return NewKCert(n, 1, seed) }
