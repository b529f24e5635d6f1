package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"loom/internal/gen"
	"loom/internal/graph"
	"loom/internal/qserve"
	"loom/internal/query"
	"loom/internal/stream"
)

// Every generator below is O(n+m): the planted-partition generators in
// internal/gen enumerate all n² vertex pairs, which takes tens of seconds
// at the sizes used here.

const (
	// communitySize is the number of consecutive vertex IDs that form
	// one community.
	communitySize = 100
	// intraLinks and interLinks are the back-links each vertex draws to
	// earlier members of its own community and to earlier outsiders; the
	// resulting mean degree is ≈12 intra and ≈3 inter.
	intraLinks = 6
	interLinks = 1.5
	// The graph and the two query mixes are a fixed data set: served
	// query cost under the engine's match cap depends on the first
	// anchors of shard 0, which differ by ±30-50% between graphs drawn
	// from the same generator. --seed varies the order of the queries.
	graphSeed     = 1
	seedWorkloadA = 11
	seedWorkloadB = 12
)

// request is one ingest call: the elements it carries and its body as
// sent on the wire.
type request struct {
	elems []stream.Element
	text  bool
	body  []byte
}

// requestElems is the number of stream elements per ingest request:
// loom-serve's text /ingest handler applies a body in IngestSync rounds of
// 512 elements (ingestBatch in cmd/loom-serve), and the repository's own
// ingest scenarios pack 512 elements per binary frame (ingestBenchBatch in
// internal/experiments).
const requestElems = 512

// genStream builds the stream of an n-vertex graph from the fixed
// graphSeed, with deletions and re-adds spliced in, and splits it into
// requests in one codec.
func genStream(n int, text bool) ([]request, error) {
	r := rand.New(rand.NewSource(graphSeed))
	elems := spliceChurn(motifGraph(n, gen.DefaultAlphabet(4), r), r)
	return splitRequests(elems, requestElems, text)
}

// motifGraph emits a stream-local community graph in ID order: each
// community is communitySize consecutive IDs, so intra-community edges
// arrive while both endpoints are inside the LOOM window.
func motifGraph(n int, alphabet []graph.Label, r *rand.Rand) []stream.Element {
	out := make([]stream.Element, 0, n*9)
	var picked []int64
	for v := 0; v < n; v++ {
		start := v / communitySize * communitySize
		out = append(out, stream.Element{Kind: stream.VertexElement, V: graph.VertexID(v), Label: alphabet[r.Intn(len(alphabet))]})
		picked = picked[:0]
		picked = pickDistinct(picked, int64(start), int64(v), intraLinks, 1, r)
		picked = pickDistinct(picked, 0, int64(start), drawCount(interLinks, r), 1, r)
		for _, u := range picked {
			out = append(out, stream.Element{Kind: stream.EdgeElement, V: graph.VertexID(v), U: graph.VertexID(u)})
		}
	}
	return out
}

// drawCount rounds a fractional mean to an integer count at random.
func drawCount(mean float64, r *rand.Rand) int {
	n := int(mean)
	if r.Float64() < mean-float64(n) {
		n++
	}
	return n
}

// pickDistinct appends up to want distinct IDs from {lo, lo+step, ...}
// below hi, rejecting repeats (want is tiny, so a linear scan is cheap).
func pickDistinct(dst []int64, lo, hi int64, want int, step int64, r *rand.Rand) []int64 {
	if hi <= lo {
		return dst
	}
	slots := (hi - lo + step - 1) / step
	if int64(want) > slots {
		want = int(slots)
	}
	for got := 0; got < want; {
		u := lo + r.Int63n(slots)*step
		if !containsID(dst, u) {
			dst = append(dst, u)
			got++
		}
	}
	return dst
}

func containsID(ids []int64, u int64) bool {
	for _, x := range ids {
		if x == u {
			return true
		}
	}
	return false
}

// spliceChurn interleaves deletions into elems: after each element, with
// probability 4% a random live vertex is removed (and re-added at once
// when later elements still reference it) and with probability 4% a
// random live edge is removed. Live sets use swap-remove arrays with
// position indexes, so the splice is O(n+m).
func spliceChurn(elems []stream.Element, r *rand.Rand) []stream.Element {
	lastRef := make(map[graph.VertexID]int, len(elems)/8)
	for i, el := range elems {
		lastRef[el.V] = i
		if el.Kind == stream.EdgeElement {
			lastRef[el.U] = i
		}
	}
	labels := make(map[graph.VertexID]graph.Label, len(lastRef))
	var liveV []graph.VertexID
	posV := make(map[graph.VertexID]int, len(lastRef))
	type edge struct{ u, v graph.VertexID }
	var liveE []edge
	posE := make(map[edge]int)
	incident := make(map[graph.VertexID][]edge, len(lastRef))
	dropEdge := func(e edge) {
		i, ok := posE[e]
		if !ok {
			return
		}
		last := liveE[len(liveE)-1]
		liveE[i] = last
		posE[last] = i
		liveE = liveE[:len(liveE)-1]
		delete(posE, e)
	}
	out := make([]stream.Element, 0, len(elems)+len(elems)/8)
	for i, el := range elems {
		out = append(out, el)
		switch el.Kind {
		case stream.VertexElement:
			labels[el.V] = el.Label
			posV[el.V] = len(liveV)
			liveV = append(liveV, el.V)
		case stream.EdgeElement:
			e := edge{el.V, el.U}
			posE[e] = len(liveE)
			liveE = append(liveE, e)
			incident[el.V] = append(incident[el.V], e)
			incident[el.U] = append(incident[el.U], e)
		}
		switch x := r.Float64(); {
		case x < 0.04 && len(liveV) > 0:
			v := liveV[r.Intn(len(liveV))]
			out = append(out, stream.Element{Kind: stream.RemoveVertexElement, V: v})
			for _, e := range incident[v] {
				dropEdge(e)
			}
			delete(incident, v)
			if lastRef[v] > i {
				out = append(out, stream.Element{Kind: stream.VertexElement, V: v, Label: labels[v]})
			} else {
				j := posV[v]
				last := liveV[len(liveV)-1]
				liveV[j] = last
				posV[last] = j
				liveV = liveV[:len(liveV)-1]
				delete(posV, v)
			}
		case x < 0.08 && len(liveE) > 0:
			e := liveE[r.Intn(len(liveE))]
			dropEdge(e)
			out = append(out, stream.Element{Kind: stream.RemoveEdgeElement, V: e.u, U: e.v})
		}
	}
	return out
}

// splitRequests cuts elems into requests of size elements and encodes
// each body in the text codec or as one binary frame.
func splitRequests(elems []stream.Element, size int, text bool) ([]request, error) {
	var reqs []request
	var fw bytes.Buffer
	w := stream.NewFrameWriter(&fw)
	for lo := 0; lo < len(elems); lo += size {
		hi := min(lo+size, len(elems))
		rq := request{elems: elems[lo:hi], text: text}
		if rq.text {
			rq.body = appendText(nil, rq.elems)
		} else {
			fw.Reset()
			if err := w.WriteBatch(rq.elems); err != nil {
				return nil, fmt.Errorf("encode request %d: %w", len(reqs), err)
			}
			rq.body = bytes.Clone(fw.Bytes())
		}
		reqs = append(reqs, rq)
	}
	return reqs, nil
}

// appendText renders elems in the line-oriented text codec.
func appendText(dst []byte, elems []stream.Element) []byte {
	for _, el := range elems {
		switch el.Kind {
		case stream.VertexElement:
			dst = append(dst, "v "...)
			dst = strconv.AppendInt(dst, int64(el.V), 10)
			dst = append(dst, ' ')
			dst = append(dst, el.Label...)
		case stream.EdgeElement:
			dst = append(dst, "e "...)
			dst = strconv.AppendInt(dst, int64(el.V), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(el.U), 10)
		case stream.RemoveVertexElement:
			dst = append(dst, "rv "...)
			dst = strconv.AppendInt(dst, int64(el.V), 10)
		case stream.RemoveEdgeElement:
			dst = append(dst, "re "...)
			dst = strconv.AppendInt(dst, int64(el.V), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(el.U), 10)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// workloads returns the static workload A the server is configured with
// and the shifted workload B the clients query.
func workloads() (a, b *query.Workload, err error) {
	alphabet := gen.DefaultAlphabet(4)
	a, err = query.GenerateWorkload(query.DefaultMix(12), alphabet, rand.New(rand.NewSource(seedWorkloadA)))
	if err != nil {
		return nil, nil, err
	}
	b, err = query.GenerateWorkload(query.DefaultMix(12), alphabet, rand.New(rand.NewSource(seedWorkloadB)))
	return a, b, err
}

// querySpec is one drawn query: its spec as sent and its shape name.
type querySpec struct {
	spec  string
	shape string
}

// drawQueries returns n queries of w, drawn by weight. Each block of
// qserve.DefaultObservedWindow queries holds every query in exact
// proportion to its weight (largest-remainder apportionment), in a seeded
// order. The observed-workload tracker decays once per block, so the
// workload it feeds back — and with it every placement after the
// restream — does not depend on the order, and the mix does not wobble
// with sampling noise.
func drawQueries(w *query.Workload, n int, r *rand.Rand) []querySpec {
	qs := w.Queries()
	specs := make([]querySpec, len(qs))
	for i, q := range qs {
		specs[i] = querySpec{spec: query.FormatPatternSpec(q.Pattern), shape: shapeOf(q.ID)}
	}
	out := make([]querySpec, 0, n)
	for len(out) < n {
		size := min(qserve.DefaultObservedWindow, n-len(out))
		block := len(out)
		for i, c := range apportion(qs, w.TotalWeight(), size) {
			for ; c > 0; c-- {
				out = append(out, specs[i])
			}
		}
		r.Shuffle(size, func(x, y int) { out[block+x], out[block+y] = out[block+y], out[block+x] })
	}
	return out
}

// apportion splits n draws among qs by weight with the largest-remainder
// method; ties go to the earlier query.
func apportion(qs []query.Query, total float64, n int) []int {
	counts := make([]int, len(qs))
	rest := make([]float64, len(qs))
	given := 0
	for i, q := range qs {
		exact := float64(n) * q.Weight / total
		counts[i] = int(exact)
		rest[i] = exact - float64(counts[i])
		given += counts[i]
	}
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rest[order[a]] > rest[order[b]] })
	for j := 0; given < n; j++ {
		counts[order[j%len(order)]]++
		given++
	}
	return counts
}

// shapeOf recovers the shape from a generated query ID ("cycle-3").
func shapeOf(id string) string {
	for i := 0; i < len(id); i++ {
		if id[i] == '-' {
			return id[:i]
		}
	}
	return id
}
