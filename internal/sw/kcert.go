package sw

import (
	"repro/internal/core"
	"repro/internal/mincut"
	"repro/internal/ordset"
	"repro/internal/wgraph"
)

// KCert maintains the sliding-window k-certificate of Theorem 5.5: a
// maximal spanning forest decomposition F_1, ..., F_k of the window graph,
// where F_i is a maximal spanning forest of G minus the earlier forests.
// The union of the unexpired forest edges preserves all cuts of size at
// most k and hence witnesses pairwise and global k-connectivity
// (properties P1-P3).
//
// Insertion cascades: the batch is offered to F_1; the edges F_1 evicts or
// rejects are offered to F_2, and so on (the replacement sets O_i of the
// paper). Expiry is eager in every level.
type KCert struct {
	k       int
	n       int
	f       []*core.BatchMSF
	d       []*ordset.Set // unexpired edges of F_i keyed by τ
	tau     int64
	tw      int64
	guard   writerGuard
	scratch []wgraph.Edge   // cascade buffer, reused across batches
	idBuf   []wgraph.EdgeID // expiry delete buffer, reused across expiries
}

// NewKCert returns a k-certificate structure over n vertices.
func NewKCert(n, k int, seed uint64) *KCert {
	if k < 1 {
		panic("sw: k must be at least 1")
	}
	c := &KCert{k: k, n: n}
	for i := 0; i < k; i++ {
		c.f = append(c.f, core.New(n, seed+uint64(i)*0x9e3779b9+1))
		c.d = append(c.d, ordset.New(seed^uint64(i)*0x85ebca6b+7))
	}
	return c
}

// K returns the certificate order.
func (c *KCert) K() int { return c.k }

// BatchInsert appends edge arrivals to the window.
// Single-writer: mutations must be externally serialized.
func (c *KCert) BatchInsert(edges []StreamEdge) {
	if len(edges) == 0 {
		return
	}
	c.guard.enter()
	defer c.guard.exit()
	o := c.scratch[:0]
	for _, e := range edges {
		c.tau++
		o = append(o, windowEdge(e.U, e.V, c.tau))
	}
	c.cascade(o)
}

// batchInsertAt inserts arrivals at caller-assigned global timestamps, for
// an msfweight level that receives a subset of the shared stream. The taus
// need not be sorted; the window advances to the largest one.
func (c *KCert) batchInsertAt(edges []StreamEdge, taus []int64) {
	if len(edges) == 0 {
		return
	}
	o := c.scratch[:0]
	for i, e := range edges {
		if taus[i] > c.tau {
			c.tau = taus[i]
		}
		o = append(o, windowEdge(e.U, e.V, taus[i]))
	}
	c.cascade(o)
}

// seedFrom inserts src's live F_1 at its original timestamps. With recency
// weights an order-1 certificate's F_1 is all of its live state (Lemma
// 5.1), so an order-1 c then holds exactly the forest an order-1 src holds.
func (c *KCert) seedFrom(src *KCert) {
	o := c.scratch[:0]
	src.ForestEdges(func(e wgraph.Edge) bool {
		o = append(o, e)
		return true
	})
	c.cascade(o)
}

// cascade offers the window edges o to F_1 and each level's evicted and
// rejected edges — O_i of the paper — to the next. The last level's O_k
// leaves the certificate, so it is never collected.
func (c *KCert) cascade(o []wgraph.Edge) {
	for i := 0; len(o) > 0; i++ {
		added, removed, rejected := c.f[i].BatchInsert(o)
		for _, e := range removed {
			c.d[i].Delete(int64(e.ID))
		}
		for _, e := range added {
			c.d[i].Insert(int64(e.ID), e)
		}
		if i == c.k-1 {
			break
		}
		o = append(append(o[:0], removed...), rejected...)
	}
	c.scratch = o[:0]
}

// BatchExpire expires the oldest delta arrivals in every level.
// Single-writer: mutations must be externally serialized.
func (c *KCert) BatchExpire(delta int) {
	c.guard.enter()
	defer c.guard.exit()
	c.expireTo(c.tw + int64(delta))
}

func (c *KCert) expireTo(tw int64) {
	if tw > c.tau {
		tw = c.tau
	}
	if tw <= c.tw {
		return
	}
	c.tw = tw
	for i := 0; i < c.k; i++ {
		evicted := c.d[i].SplitLeq(tw)
		if len(evicted) == 0 {
			continue
		}
		ids := c.idBuf[:0]
		for _, e := range evicted {
			ids = append(ids, e.ID)
		}
		c.idBuf = ids
		c.f[i].BatchDelete(ids)
	}
}

// Certificate returns the unexpired edges of all k forests — at most
// k(n-1) edges preserving every cut of size <= k. Endpoints are original
// vertices; each edge's ID is its arrival time τ.
func (c *KCert) Certificate() []wgraph.Edge { return c.CertificateUpTo(c.k) }

// CertificateUpTo returns a fresh copy of the unexpired edges of F_1, ...,
// F_j (1 <= j <= k): the order-j certificate, see SizeUpTo.
func (c *KCert) CertificateUpTo(j int) []wgraph.Edge {
	var out []wgraph.Edge
	for i := 0; i < j; i++ {
		c.d[i].ForEach(func(_ int64, e wgraph.Edge) bool {
			out = append(out, e)
			return true
		})
	}
	return out
}

// Contains reports whether the arrival with timestamp tau is currently a
// certificate edge.
func (c *KCert) Contains(tau int64) bool {
	for i := 0; i < c.k; i++ {
		if c.d[i].Has(tau) {
			return true
		}
	}
	return false
}

// Size returns the number of certificate edges.
func (c *KCert) Size() int { return c.SizeUpTo(c.k) }

// SizeUpTo returns the number of edges in F_1, ..., F_j (1 <= j <= k).
// Each level depends only on the levels before it, so those forests are
// exactly the order-j certificate NewKCert(n, j) would keep.
func (c *KCert) SizeUpTo(j int) int {
	s := 0
	for i := 0; i < j; i++ {
		s += c.d[i].Len()
	}
	return s
}

// ForestEdges visits the unexpired edges of F_1, the window's most recent
// spanning forest, in arrival order.
func (c *KCert) ForestEdges(fn func(e wgraph.Edge) bool) {
	c.d[0].ForEach(func(_ int64, e wgraph.Edge) bool { return fn(e) })
}

// WindowLen returns the number of unexpired arrivals.
func (c *KCert) WindowLen() int64 { return c.tau - c.tw }

// TreeVertices returns the rake-compress tree vertices in use over the k
// forests' engines (core.BatchMSF.TreeVertices).
func (c *KCert) TreeVertices() int {
	total := 0
	for _, f := range c.f {
		total += f.TreeVertices()
	}
	return total
}

// LevelSize returns the number of unexpired edges in forest F_{i+1}.
func (c *KCert) LevelSize(i int) int { return c.d[i].Len() }

// IsConnected reports window connectivity (level F_1 spans the window
// graph).
func (c *KCert) IsConnected(u, v int32) bool { return c.f[0].Connected(u, v) }

// NumComponents returns the number of connected components of the window
// graph in O(1): F_1 is the eager connectivity forest of Theorem 5.2, so
// the count is n minus its size.
func (c *KCert) NumComponents() int { return c.n - c.d[0].Len() }

// HasCycle reports in O(1) whether the window graph contains a cycle —
// the cycle-freeness test of Theorem 5.6: the window graph is a forest
// iff F_2 holds no unexpired edge. It panics when k < 2, where F_2 is not
// kept and the answer would be silently wrong.
func (c *KCert) HasCycle() bool {
	if c.k < 2 {
		panic("sw: HasCycle needs a certificate of order at least 2")
	}
	return c.LevelSize(1) > 0
}

// EdgeConnectivityUpToK returns min(k, edge connectivity of the window
// graph), the k-connectivity test of Section 5.4: by property P3 the
// certificate preserves all cuts of size at most k, so a global min-cut
// over its O(kn) edges answers exactly. For k <= 2 that is a bridge search
// in O(n); above, Stoer–Wagner stands in for the parallel min-cut of
// [27, 28] (mincut.EdgeConnectivityUpTo).
func (c *KCert) EdgeConnectivityUpToK() int {
	return mincut.EdgeConnectivityUpTo(c.n, c.Certificate(), c.k)
}

// NewCycleFree returns the cycle-freeness monitor of Theorem 5.6 over n
// vertices: a 2-certificate, whose HasCycle answers from F_2.
func NewCycleFree(n int, seed uint64) *KCert { return NewKCert(n, 2, seed) }
