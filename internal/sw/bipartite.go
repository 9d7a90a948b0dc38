package sw

// Bipartite is the sliding-window bipartiteness monitor of Theorem 5.3,
// using the cycle-double-cover reduction [4, 13]: the window graph G is
// bipartite iff its double cover D(G) has exactly twice as many connected
// components as G.
type Bipartite struct {
	g *KCert       // the window graph on n vertices
	d *DoubleCover // its double cover on 2n vertices
}

// NewBipartite returns a bipartiteness monitor over n vertices.
func NewBipartite(n int, seed uint64) *Bipartite {
	return &Bipartite{
		g: NewConnEager(n, seed),
		d: NewDoubleCover(n, seed^0x5bd1e995),
	}
}

// BatchInsert appends edge arrivals to the window.
// Single-writer: mutations must be externally serialized.
func (b *Bipartite) BatchInsert(edges []StreamEdge) {
	b.g.BatchInsert(edges)
	b.d.BatchInsert(edges)
}

// BatchExpire expires the oldest delta arrivals.
// Single-writer: mutations must be externally serialized.
func (b *Bipartite) BatchExpire(delta int) {
	b.g.BatchExpire(delta)
	b.d.BatchExpire(delta)
}

// IsBipartite reports whether the window graph is bipartite, in O(1).
func (b *Bipartite) IsBipartite() bool {
	return b.d.NumComponents() == 2*b.g.NumComponents()
}

// IsConnected exposes window connectivity on the underlying graph.
func (b *Bipartite) IsConnected(u, v int32) bool { return b.g.IsConnected(u, v) }

// DoubleCover keeps the component count of the window graph's double cover
// D(G): vertex v splits into v1, v2 and edge (u, v) doubles into (u1, v2),
// (u2, v1). Compared with c(G), which any eager connectivity forest of the
// same window keeps, it answers bipartiteness (Theorem 5.3).
type DoubleCover struct {
	n       int
	d       *KCert // on 2n vertices
	guard   writerGuard
	scratch []StreamEdge // cover buffer, reused across batches
}

// NewDoubleCover returns the double cover of a window over n vertices.
func NewDoubleCover(n int, seed uint64) *DoubleCover {
	return &DoubleCover{n: n, d: NewConnEager(2*n, seed)}
}

// BatchInsert appends edge arrivals to the window.
// Single-writer: mutations must be externally serialized.
func (c *DoubleCover) BatchInsert(edges []StreamEdge) {
	if len(edges) == 0 {
		return
	}
	c.guard.enter()
	defer c.guard.exit()
	dcc := c.scratch[:0]
	n32 := int32(c.n)
	for _, e := range edges {
		dcc = append(dcc,
			StreamEdge{U: e.U, V: e.V + n32},
			StreamEdge{U: e.U + n32, V: e.V},
		)
	}
	c.scratch = dcc
	c.d.BatchInsert(dcc)
}

// BatchExpire expires the oldest delta arrivals.
// Single-writer: mutations must be externally serialized.
func (c *DoubleCover) BatchExpire(delta int) {
	c.d.BatchExpire(2 * delta) // each arrival contributed two cover edges
}

// NumComponents returns c(D(G)), the number of connected components of the
// double cover, in O(1).
func (c *DoubleCover) NumComponents() int { return c.d.NumComponents() }

// TreeVertices returns the rake-compress tree vertices in use by the
// cover's engine.
func (c *DoubleCover) TreeVertices() int { return c.d.TreeVertices() }
