package graph

import "fmt"

// finalizeReference is the map-based Builder.Finalize that the int32
// version replaced, kept as the reference the differential and fuzz
// tests compare against. It validates through a seenEdge map, a
// seenPort map and one port map per node. Its port-range error names
// whichever bad port the map yields first, so comparisons of that
// message stop before the port number.
func (b *Builder) finalizeReference() (*Graph, error) {
	type portKey struct{ v, p int }
	seenPort := make(map[portKey]bool)
	seenEdge := make(map[[2]int]bool)
	adjPorts := make([]map[int]Half, b.n)
	for i := range adjPorts {
		adjPorts[i] = make(map[int]Half)
	}
	for _, e := range b.edges {
		if e.u < 0 || e.u >= b.n || e.v < 0 || e.v >= b.n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.u, e.v, b.n)
		}
		if e.u == e.v {
			return nil, fmt.Errorf("graph: self-loop at node %d", e.u)
		}
		if e.pu < 0 || e.pv < 0 {
			return nil, fmt.Errorf("graph: negative port on edge {%d,%d}", e.u, e.v)
		}
		lo, hi := e.u, e.v
		if lo > hi {
			lo, hi = hi, lo
		}
		if seenEdge[[2]int{lo, hi}] {
			return nil, fmt.Errorf("graph: parallel edge {%d,%d}", e.u, e.v)
		}
		seenEdge[[2]int{lo, hi}] = true
		if seenPort[portKey{e.u, e.pu}] {
			return nil, fmt.Errorf("graph: port %d reused at node %d", e.pu, e.u)
		}
		if seenPort[portKey{e.v, e.pv}] {
			return nil, fmt.Errorf("graph: port %d reused at node %d", e.pv, e.v)
		}
		seenPort[portKey{e.u, e.pu}] = true
		seenPort[portKey{e.v, e.pv}] = true
		adjPorts[e.u][e.pu] = Half{To: e.v, RemotePort: e.pv}
		adjPorts[e.v][e.pv] = Half{To: e.u, RemotePort: e.pu}
	}
	g := &Graph{adj: make([][]Half, b.n), m: len(seenEdge)}
	for v, ports := range adjPorts {
		d := len(ports)
		g.adj[v] = make([]Half, d)
		for p, h := range ports {
			if p >= d {
				return nil, fmt.Errorf("graph: node %d has degree %d but uses port %d", v, d, p)
			}
			g.adj[v][p] = h
		}
	}
	if b.n > 1 && !g.Connected() {
		return nil, fmt.Errorf("graph: not connected")
	}
	return g, nil
}

// relabelNodesReference is RelabelNodes through the Builder, the form
// the slab-built RelabelNodes must match byte for byte.
func relabelNodesReference(g *Graph, perm []int) *Graph {
	b := NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		for p := 0; p < g.Deg(v); p++ {
			h := g.At(v, p)
			if v < h.To {
				b.AddEdge(perm[v], p, perm[h.To], h.RemotePort)
			}
		}
	}
	return b.MustFinalize()
}
