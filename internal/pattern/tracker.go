// Package pattern implements graph-stream pattern matching (paper §4.3):
// detecting, online, the sub-graphs inside LOOM's stream window that match
// frequent query motifs from a TPSTry++.
//
// As each edge arrives the tracker grows existing motif matches by one edge
// — multiplying the match's number-theoretic signature by the edge's factor
// and checking the result against the children of the match's TPSTry++
// node. When an arriving edge extends no existing match (the situation of
// Figure 3, where naive incremental matching would silently discard a
// motif occurrence), the tracker re-expands: starting from the new edge it
// greedily traverses the window sub-graph, keeping each edge whose
// addition stays inside the TPSTry++, until it has found the largest
// motif-matching sub-graph containing the edge.
//
// Signature matching is non-authoritative; the optional Verify mode
// confirms each candidate match with exact isomorphism (experiment E10
// quantifies the difference).
package pattern

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"loom/internal/graph"
	"loom/internal/iso"
	"loom/internal/motif"
	"loom/internal/signature"
)

// Match is an active motif match inside the stream window.
type Match struct {
	// ID is unique per tracker, in creation order.
	ID int64
	// Node is the TPSTry++ motif this sub-graph matches.
	Node *motif.Node
	// Sig is the running signature of the matched sub-graph.
	Sig *signature.Signature

	vertices map[graph.VertexID]struct{}
	edges    map[graph.Edge]struct{}
}

// Vertices returns the matched vertices in ascending order.
func (m *Match) Vertices() []graph.VertexID {
	out := make([]graph.VertexID, 0, len(m.vertices))
	for v := range m.vertices {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edges returns the matched edges, normalized and sorted.
func (m *Match) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, len(m.edges))
	for e := range m.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Contains reports whether v participates in the match.
func (m *Match) Contains(v graph.VertexID) bool {
	_, ok := m.vertices[v]
	return ok
}

// Size returns the number of matched vertices.
func (m *Match) Size() int { return len(m.vertices) }

// key canonically identifies the match's sub-graph for deduplication.
func (m *Match) key() string {
	sb := make([]byte, 0, 8*(len(m.vertices)+2*len(m.edges)))
	for _, v := range m.Vertices() {
		sb = strconv.AppendInt(sb, int64(v), 10)
		sb = append(sb, ',')
	}
	sb = append(sb, '|')
	for _, e := range m.Edges() {
		sb = strconv.AppendInt(sb, int64(e.U), 10)
		sb = append(sb, '-')
		sb = strconv.AppendInt(sb, int64(e.V), 10)
		sb = append(sb, ',')
	}
	return string(sb)
}

// String implements fmt.Stringer.
func (m *Match) String() string {
	return fmt.Sprintf("match#%d{%v ~ %v}", m.ID, m.Vertices(), m.Node)
}

// Options configures a Tracker.
type Options struct {
	// Threshold is the minimum motif p-value for a TPSTry++ node to be
	// considered frequent and therefore tracked (paper §4.2's T).
	Threshold float64
	// MaxMatchesPerVertex bounds tracker memory: when a vertex
	// participates in more than this many matches, the lowest-value ones
	// are dropped. Zero defaults to 8.
	MaxMatchesPerVertex int
	// Verify re-checks every signature-detected match with exact sub-graph
	// isomorphism against the motif's representative graph, discarding
	// collisions (the authoritative mode of Song et al.; LOOM's default is
	// signature-only).
	Verify bool
}

// DefaultMaxMatchesPerVertex bounds per-vertex match fan-out when Options
// leaves it zero.
const DefaultMaxMatchesPerVertex = 8

// Stats counts tracker activity for experiments.
type Stats struct {
	MatchesCreated   int
	MatchesDropped   int
	Reexpansions     int
	VerifyRejections int
}

// Tracker maintains the motif matches inside the current stream window.
// It is not safe for concurrent use.
type Tracker struct {
	trie    *motif.Trie
	factory *signature.Factory
	opts    Options

	nextID   int64
	matches  map[int64]*Match
	byVertex map[graph.VertexID]map[int64]struct{}
	byKey    map[string]int64
	stats    Stats
	// capVerts is enforceCaps's reusable sorted-visit scratch; together
	// with slices.Sort it keeps the per-match determinism sort off the
	// allocator on the ingest path.
	capVerts []graph.VertexID
	// single backs GroupFor's matchless fast path, so the common
	// one-vertex group costs no allocation.
	single [1]graph.VertexID
}

// NewTracker returns a Tracker over the given TPSTry++.
func NewTracker(trie *motif.Trie, opts Options) *Tracker {
	if opts.MaxMatchesPerVertex <= 0 {
		opts.MaxMatchesPerVertex = DefaultMaxMatchesPerVertex
	}
	return &Tracker{
		trie:     trie,
		factory:  trie.Factory(),
		opts:     opts,
		matches:  make(map[int64]*Match),
		byVertex: make(map[graph.VertexID]map[int64]struct{}),
		byKey:    make(map[string]int64),
	}
}

// Stats returns a copy of the tracker's activity counters.
func (t *Tracker) Stats() Stats { return t.stats }

// factorsFor returns the signature factors of an edge's endpoints: the two
// vertex factors and the edge factor. When the window graph shares the
// factory's label interner (LOOM's configuration) the probes are LabelID
// slice reads; otherwise they fall back to hashing the label strings.
func (t *Tracker) factorsFor(w *graph.Graph, u, v graph.VertexID) (fu, fv, fe uint64) {
	if w.LabelInterner() == t.factory.Labels() {
		lu, uok := w.LabelIDOf(u)
		lv, vok := w.LabelIDOf(v)
		// A non-resident endpoint has no LabelID; feeding NoLabel to the
		// ByID tables would grow them toward 2^32 entries, so fall through
		// to the string path, which degrades to the empty label like the
		// pre-interned code did. (ObserveEdge checks residency, so this is
		// defensive.)
		if uok && vok {
			return t.factory.VertexFactorByID(lu), t.factory.VertexFactorByID(lv), t.factory.EdgeFactorByID(lu, lv)
		}
	}
	la, _ := w.Label(u)
	lb, _ := w.Label(v)
	return t.factory.VertexFactor(la), t.factory.VertexFactor(lb), t.factory.EdgeFactor(la, lb)
}

// ActiveMatches returns the number of live matches.
func (t *Tracker) ActiveMatches() int { return len(t.matches) }

// frequent reports whether node n clears the tracking threshold.
func (t *Tracker) frequent(n *motif.Node) bool {
	return n != nil && t.trie.P(n) >= t.opts.Threshold
}

// ObserveEdge processes the stream edge {u,v}, where w is the window's
// resident sub-graph (both endpoints must be resident in w). It grows
// existing matches, and re-expands from the edge when nothing grew.
func (t *Tracker) ObserveEdge(u, v graph.VertexID, w *graph.Graph) error {
	if !w.HasVertex(u) || !w.HasVertex(v) {
		return fmt.Errorf("pattern: edge {%d,%d} endpoint not resident in window", u, v)
	}
	if !w.HasEdge(u, v) {
		return fmt.Errorf("pattern: edge {%d,%d} not present in window graph", u, v)
	}
	e := graph.Edge{U: u, V: v}.Normalize()

	grew := false
	// Collect candidate matches touching either endpoint; iterate over a
	// snapshot because extension registers new matches.
	for _, id := range t.matchIDsTouching(u, v) {
		m, ok := t.matches[id]
		if !ok {
			continue
		}
		if t.tryExtend(m, e, w) {
			grew = true
		}
	}
	if !grew {
		// Fig. 3 case: the edge joined no tracked match, but a motif match
		// containing it may exist. Rebuild from the edge outward.
		t.stats.Reexpansions++
		t.reexpand(e, w)
	}
	return nil
}

// matchIDsTouching returns a sorted snapshot of match IDs containing u or v.
func (t *Tracker) matchIDsTouching(u, v graph.VertexID) []int64 {
	set := make(map[int64]struct{})
	for id := range t.byVertex[u] {
		set[id] = struct{}{}
	}
	for id := range t.byVertex[v] {
		set[id] = struct{}{}
	}
	out := make([]int64, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tryExtend attempts to grow match m by edge e, registering the grown match
// when the TPSTry++ has a matching child. The original match is retained:
// it is still a valid (smaller) motif occurrence, and may grow differently
// later.
func (t *Tracker) tryExtend(m *Match, e graph.Edge, w *graph.Graph) bool {
	uIn, vIn := m.Contains(e.U), m.Contains(e.V)
	if !uIn && !vIn {
		return false
	}
	if uIn && vIn {
		if _, has := m.edges[e]; has {
			return false
		}
	}
	sig := m.Sig.Clone()
	fu, fv, fe := t.factorsFor(w, e.U, e.V)
	if !uIn {
		sig.MulPrime(fu)
	}
	if !vIn {
		sig.MulPrime(fv)
	}
	sig.MulPrime(fe)
	child, ok := t.trie.ChildFor(m.Node, sig.Key())
	if !ok || !t.frequent(child) {
		return false
	}
	grown := &Match{
		Node:     child,
		Sig:      sig,
		vertices: make(map[graph.VertexID]struct{}, len(m.vertices)+1),
		edges:    make(map[graph.Edge]struct{}, len(m.edges)+1),
	}
	for vv := range m.vertices {
		grown.vertices[vv] = struct{}{}
	}
	for ee := range m.edges {
		grown.edges[ee] = struct{}{}
	}
	grown.vertices[e.U] = struct{}{}
	grown.vertices[e.V] = struct{}{}
	grown.edges[e] = struct{}{}
	return t.register(grown, w)
}

// reexpand implements the recovery procedure of §4.3: starting from edge e,
// greedily traverse the window sub-graph outward, keeping each edge whose
// addition still corresponds to a TPSTry++ node; edges that leave the trie
// are discarded and not traversed through. The resulting largest
// motif-matching sub-graph containing e (if any) is registered.
func (t *Tracker) reexpand(e graph.Edge, w *graph.Graph) {
	la, _ := w.Label(e.U)
	lb, _ := w.Label(e.V)

	// Seed with the edge itself: root(label(U)) extended by e. Try both
	// orientations; labels may differ in which root exists.
	seed := t.seedFromEdge(e, la, lb)
	if seed == nil {
		return
	}

	// Greedy growth: scan frontier edges repeatedly until no edge can be
	// added. Rejected edges are remembered and never re-tried for this
	// expansion (they "are discarded, and we do not traverse to their
	// neighbours").
	rejected := make(map[graph.Edge]struct{})
	for {
		extended := false
		for _, fe := range t.frontierEdges(seed, w, rejected) {
			sig := seed.Sig.Clone()
			fa, fb, fab := t.factorsFor(w, fe.U, fe.V)
			if !seed.Contains(fe.U) {
				sig.MulPrime(fa)
			}
			if !seed.Contains(fe.V) {
				sig.MulPrime(fb)
			}
			sig.MulPrime(fab)
			child, ok := t.trie.ChildFor(seed.Node, sig.Key())
			if !ok || !t.frequent(child) {
				rejected[fe] = struct{}{}
				continue
			}
			seed.Sig = sig
			seed.Node = child
			seed.vertices[fe.U] = struct{}{}
			seed.vertices[fe.V] = struct{}{}
			seed.edges[fe] = struct{}{}
			extended = true
		}
		if !extended {
			break
		}
	}
	t.register(seed, w)
}

// seedFromEdge builds the two-vertex match for edge e, or nil when the trie
// has no corresponding motif above threshold.
func (t *Tracker) seedFromEdge(e graph.Edge, la, lb graph.Label) *Match {
	for _, first := range []graph.Label{la, lb} {
		root, ok := t.trie.RootFor(first)
		if !ok || !t.frequent(root) {
			continue
		}
		sig := root.Sig.Clone()
		second := lb
		if first == lb {
			second = la
		}
		sig.MulPrime(t.factory.VertexFactor(second))
		sig.MulPrime(t.factory.EdgeFactor(la, lb))
		child, ok := t.trie.ChildFor(root, sig.Key())
		if !ok || !t.frequent(child) {
			continue
		}
		return &Match{
			Node:     child,
			Sig:      sig,
			vertices: map[graph.VertexID]struct{}{e.U: {}, e.V: {}},
			edges:    map[graph.Edge]struct{}{e: {}},
		}
	}
	return nil
}

// frontierEdges returns window edges incident to the match but not inside
// it and not previously rejected, in deterministic order.
func (t *Tracker) frontierEdges(m *Match, w *graph.Graph, rejected map[graph.Edge]struct{}) []graph.Edge {
	var out []graph.Edge
	seen := make(map[graph.Edge]struct{})
	//loom:orderinvariant deduplicates frontier edges into a set and sorts the result before returning
	for v := range m.vertices {
		for _, u := range w.Neighbors(v) {
			e := graph.Edge{U: v, V: u}.Normalize()
			if _, in := m.edges[e]; in {
				continue
			}
			if _, rej := rejected[e]; rej {
				continue
			}
			if _, dup := seen[e]; dup {
				continue
			}
			seen[e] = struct{}{}
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// register adds m to the tracker if it is new and (in Verify mode) survives
// exact isomorphism checking. It reports whether the match was stored.
func (t *Tracker) register(m *Match, w *graph.Graph) bool {
	if m == nil {
		return false
	}
	k := m.key()
	if _, dup := t.byKey[k]; dup {
		return false
	}
	if t.opts.Verify && !t.verify(m, w) {
		t.stats.VerifyRejections++
		return false
	}
	m.ID = t.nextID
	t.nextID++
	t.matches[m.ID] = m
	t.byKey[k] = m.ID
	//loom:orderinvariant inserts m.ID into one set per distinct vertex; the final index is order-free
	for v := range m.vertices {
		set, ok := t.byVertex[v]
		if !ok {
			set = make(map[int64]struct{})
			t.byVertex[v] = set
		}
		set[m.ID] = struct{}{}
	}
	t.stats.MatchesCreated++
	t.enforceCaps(m)
	return true
}

// verify checks the match sub-graph against the motif's representative with
// exact isomorphism.
func (t *Tracker) verify(m *Match, w *graph.Graph) bool {
	sub := graph.New()
	//loom:orderinvariant builds a scratch graph only consulted through order-free isomorphism checking
	for v := range m.vertices {
		l, ok := w.Label(v)
		if !ok {
			return false
		}
		sub.AddVertex(v, l)
	}
	//loom:orderinvariant edge-set insertion into the same scratch graph; Isomorphic reads sorted views
	for e := range m.edges {
		if err := sub.AddEdge(e.U, e.V); err != nil {
			return false
		}
	}
	return iso.Isomorphic(sub, m.Node.Rep)
}

// enforceCaps drops the least valuable matches of any vertex of m whose
// fan-out exceeds the per-vertex cap. Value order: larger motifs first,
// then higher p-value, then newer. Vertices are visited in sorted order:
// dropping a match shrinks other vertices' sets too, so the visit order
// is observable — map order here made whole partitioning runs
// irreproducible (caught by the serve crash-recovery equivalence tests).
func (t *Tracker) enforceCaps(m *Match) {
	t.capVerts = t.capVerts[:0]
	for v := range m.vertices {
		t.capVerts = append(t.capVerts, v)
	}
	slices.Sort(t.capVerts)
	for _, v := range t.capVerts {
		set := t.byVertex[v]
		if len(set) <= t.opts.MaxMatchesPerVertex {
			continue
		}
		ids := make([]int64, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			mi, mj := t.matches[ids[i]], t.matches[ids[j]]
			if mi.Size() != mj.Size() {
				return mi.Size() > mj.Size()
			}
			pi, pj := t.trie.P(mi.Node), t.trie.P(mj.Node)
			if pi != pj {
				return pi > pj
			}
			return ids[i] > ids[j]
		})
		for _, id := range ids[t.opts.MaxMatchesPerVertex:] {
			t.drop(id)
			t.stats.MatchesDropped++
		}
	}
}

// drop removes match id from all indexes.
func (t *Tracker) drop(id int64) {
	m, ok := t.matches[id]
	if !ok {
		return
	}
	delete(t.matches, id)
	delete(t.byKey, m.key())
	for v := range m.vertices {
		delete(t.byVertex[v], id)
		if len(t.byVertex[v]) == 0 {
			delete(t.byVertex, v)
		}
	}
}

// RemoveVertex discards every match containing v (called after v's group is
// assigned to a partition and leaves the window).
func (t *Tracker) RemoveVertex(v graph.VertexID) {
	ids := make([]int64, 0, len(t.byVertex[v]))
	//loom:orderinvariant snapshots the id set; drop() deletions commute, leaving identical final indexes
	for id := range t.byVertex[v] {
		ids = append(ids, id)
	}
	for _, id := range ids {
		t.drop(id)
	}
	delete(t.byVertex, v)
}

// RemoveEdge discards every match whose edge set contains {u,v} (a stream
// deletion invalidated the edge, so any motif occurrence built on it no
// longer exists in the window). Matches merely touching both endpoints
// without using the edge survive.
func (t *Tracker) RemoveEdge(u, v graph.VertexID) {
	e := graph.Edge{U: u, V: v}.Normalize()
	ids := make([]int64, 0, len(t.byVertex[e.U]))
	//loom:orderinvariant snapshots the id set; drop() deletions commute, leaving identical final indexes
	for id := range t.byVertex[e.U] {
		if _, has := t.matches[id].edges[e]; has {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		t.drop(id)
	}
}

// MatchesContaining returns the live matches containing v, largest first.
func (t *Tracker) MatchesContaining(v graph.VertexID) []*Match {
	out := make([]*Match, 0, len(t.byVertex[v]))
	for id := range t.byVertex[v] {
		out = append(out, t.matches[id])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size() != out[j].Size() {
			return out[i].Size() > out[j].Size()
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// GroupFor returns the transitive closure of vertices sharing a match with
// v (including v itself when it participates in any match, or just {v}
// otherwise): the set LOOM assigns to a single partition at once, so that
// overlapping motif occurrences are never split (paper §4.4). The returned
// slice is only valid until the next GroupFor call; callers that retain it
// must copy.
func (t *Tracker) GroupFor(v graph.VertexID) []graph.VertexID {
	// Fast path: a vertex in no live match is its own group. This is the
	// overwhelmingly common case on streams whose workload matches rarely
	// (or never, with an empty trie), and it must not pay for the closure
	// walk below.
	if len(t.byVertex[v]) == 0 {
		t.single[0] = v
		return t.single[:1]
	}
	group := map[graph.VertexID]struct{}{v: {}}
	queue := []graph.VertexID{v}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		//loom:orderinvariant grows a connected set to its closure; membership, not visit order, is what escapes (sorted below)
		for id := range t.byVertex[x] {
			//loom:orderinvariant same closure computation one level down
			for u := range t.matches[id].vertices {
				if _, in := group[u]; !in {
					group[u] = struct{}{}
					queue = append(queue, u)
				}
			}
		}
	}
	out := make([]graph.VertexID, 0, len(group))
	for u := range group {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}
